# Passed to the repository's top-level configure as
#     -DCMAKE_PROJECT_INCLUDE=<checkout>/perfbench/cmake/attach.cmake
# It runs right after the top-level project() call and defers reading
# the benchmark's build file to the end of the top-level CMakeLists.txt,
# when every uvolt_* library target and compile option exists. (Deferred
# calls may not add_subdirectory(), so the build file is include()d.)
get_filename_component(PERFBENCH_DIR "${CMAKE_PROJECT_INCLUDE}/../.." ABSOLUTE)
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
    CALL include ${PERFBENCH_DIR}/CMakeLists.txt)
