# Runs every paper study that needs no trained model, plus the
# model-free extension studies ext_membackends, ext_governor, ext_dvfs
# and ext_platforms, in one uvolt_bench process from a scratch working
# directory, then byte-compares each CSV they write with its committed
# golden. Running the studies together also proves that no study's
# process state leaks into the next one's output.
#
# Usage: cmake -DUVOLT_BENCH=<uvolt_bench> -DGOLDENS=<goldens dir>
#              -DWORK_DIR=<scratch dir> -P bench_goldens.cmake

set(studies tab1_platforms fig01_guardband fig03_voltage_sweep
    fig04_patterns tab2_stability fig05_clustering fig06_fvm_vc707
    fig07_fvm_die2die fig08_temperature fig10_power_breakdown
    ext_membackends ext_governor ext_dvfs ext_platforms)
# The 15 fig/tab CSVs of those studies, plus one CSV per ext study.
set(expected_csvs 19)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
# ext_membackends appends a perf-timeline row: keep it out of any
# history the caller's environment points at.
set(ENV{UVOLT_TIMELINE} "${WORK_DIR}/timeline.jsonl")
execute_process(COMMAND "${UVOLT_BENCH}" ${studies}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_FILE "${WORK_DIR}/stdout.txt"
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "uvolt_bench ${studies} exited ${status}")
endif()

file(GLOB csvs "${WORK_DIR}/results/*.csv")
list(LENGTH csvs count)
if(NOT count EQUAL expected_csvs)
    message(FATAL_ERROR "${count} CSVs written, expected ${expected_csvs}")
endif()
foreach(csv IN LISTS csvs)
    get_filename_component(name "${csv}" NAME)
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${csv}" "${GOLDENS}/${name}"
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        message(FATAL_ERROR "${name} differs from goldens/${name}")
    endif()
endforeach()
message(STATUS "${count} CSVs byte-identical to their goldens")
