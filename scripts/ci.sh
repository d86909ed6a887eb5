#!/usr/bin/env bash
# Tier-1 verification, three times: a plain optimized build, an
# AddressSanitizer+UBSan build (UVOLT_SANITIZE=ON), and a
# ThreadSanitizer build (UVOLT_SANITIZE=thread) of the concurrent
# suites. The ASan pass exists for the resilience layer in particular —
# retry loops, crash recovery, and checkpoint resume juggle buffers and
# board state in ways worth running under ASan every time. The TSan
# pass guards the fleet engine: the ThreadPool, the single-flight
# FvmCache, and parallel campaigns sharing chip models.
#
# Usage: scripts/ci.sh [jobs]

set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

run_suite() {
    local build_dir="$1"
    shift
    cmake -B "$build_dir" -S . "$@"
    cmake --build "$build_dir" -j "$jobs"
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
}

echo "== tier 1: plain build =="
run_suite build

echo "== reachability gate: every src/ function has a workload caller =="
# Builds uvolt_bench, uvolt_perfbench and the six examples with every
# function in its own section and --gc-sections, then fails on any
# uvolt:: function no workload binary keeps that scripts/reach_allow.txt
# does not list with its reason (a test seam, a test oracle, or a
# decision left to a later change).
python3 scripts/check_reach.py --jobs "$jobs"

echo "== examples smoke: quickstart, characterize_board, fvm_cache, heat_chamber =="
# ctest never runs examples/. These commands drive their flag parsing,
# region discovery, packed BRAM readback, FVM, BRAM-map, clustering,
# FVM disk cache and temperature paths end to end (each well under a
# second). fvm_cache runs twice: the second run must load the FVM the
# first one stored. They run from a scratch directory so nothing lands
# in the tree, with the run ledger under build/ and the committed model
# cache (fvm_cache deploys the cached Forest model).
examples_dir="$PWD/build/examples_smoke"
rm -rf "$examples_dir" && mkdir -p "$examples_dir"
(cd "$examples_dir" &&
    export UVOLT_LEDGER_DIR="$examples_dir/ledger" &&
    export UVOLT_CACHE_DIR="$OLDPWD/uvolt_model_cache" &&
    "$OLDPWD/build/examples/quickstart" --runs 5 > quickstart.txt &&
    "$OLDPWD/build/examples/quickstart" --runs 5 --noise 0.05 \
        > quickstart_noise.txt &&
    "$OLDPWD/build/examples/characterize_board" --platform ZC702 \
        --runs 5 --fvm --bram-map > characterize_board.txt &&
    "$OLDPWD/build/examples/fvm_cache" --platform ZC702 --runs 3 \
        --dir "$examples_dir/fvm" > fvm_cache_cold.txt &&
    "$OLDPWD/build/examples/fvm_cache" --platform ZC702 --runs 3 \
        --dir "$examples_dir/fvm" > fvm_cache_warm.txt &&
    grep -q 'cache hit' fvm_cache_warm.txt &&
    "$OLDPWD/build/examples/heat_chamber" --runs 5 > heat_chamber.txt)
echo "examples ran clean"

echo "== perf gate: bench_all + ext_serve vs baseline and history =="
# One history: the committed seed (one baseline row per gated tool)
# plus this run's fresh perf-timeline rows. scripts/check_perf.py holds
# each tool's newest row to its baseline row (min ns per benchmark;
# ext_serve's p50, p99 and req-cost; per-metric tolerance widenings
# live in its DEFAULT_OVERRIDES, since tail latency is noisier than a
# calibrated micro-bench minimum) and, strictly, to the earlier rows
# from the same machine digest (robust-z steps, EWMA creep); rows from
# another machine or build are never compared. ext_serve's exit code
# is the serving daemon's identity phase (injector on vs off must be
# bit-identical) and exactly-once ledger. Reduced repeats keep the leg
# fast; the floor metric is the min across repeats, which converges
# quickly. To refresh a baseline, run the tool with --timeline on the
# host that owns the baseline, set "baseline": true on the new row,
# and let it replace the tool's baseline row in
# bench/timeline_seed.jsonl.
perf_history="build/perf_history.jsonl"
cp bench/timeline_seed.jsonl "$perf_history"
./build/bench/uvolt_bench bench_all --repeats 5 --min-time-ms 10 \
    --timeline "$perf_history"
./build/bench/uvolt_bench ext_serve --timeline "$perf_history"
python3 scripts/check_perf.py "$perf_history"

echo "== observability gate: trace flows, prometheus, blackboxes =="
# A harsh closed-loop run with telemetry ON must leave behind (a) a
# Chrome trace where every request is one well-formed flow (exactly one
# start and finish, no orphan steps, every parent span present), (b) a
# Prometheus snapshot with cumulative histogram buckets, and (c) at
# least one flight-recorder blackbox from the scripted degradation
# storm. scripts/check_trace.py is the structural gate over all three.
obs_dir="build/obs"
rm -rf "$obs_dir" && mkdir -p "$obs_dir"
UVOLT_TELEMETRY=ON ./build/bench/uvolt_bench ext_serve --noise --skip-identity \
    --requests 300 --clients 4 \
    --trace-out "$obs_dir/trace.json" \
    --prom-out "$obs_dir/metrics.prom" \
    --blackbox-dir "$obs_dir" \
    --ledger-dir "$obs_dir/ledger" \
    --profile-out "" --timeline "" > /dev/null
python3 scripts/check_trace.py "$obs_dir/trace.json" --min-flows 100 \
    --prometheus "$obs_dir/metrics.prom" \
    --blackbox "$obs_dir/blackbox_degraded.json"
# The fleet side: ext_fleet records every job as one flow (submit,
# queue wait, done) and writes its metrics snapshot as Prometheus text.
# It runs from a scratch directory so its results/, ledger and timeline
# row stay under build/.
fleet_obs_dir="$PWD/$obs_dir/fleet"
mkdir -p "$fleet_obs_dir"
(cd "$fleet_obs_dir" &&
    UVOLT_LEDGER_DIR="$fleet_obs_dir/ledger" \
    UVOLT_TIMELINE="$fleet_obs_dir/timeline.jsonl" \
    "$OLDPWD/build/bench/uvolt_bench" ext_fleet > /dev/null)
python3 scripts/check_trace.py "$fleet_obs_dir/results/ext_fleet_trace.json" \
    --min-flows 24 \
    --prometheus "$fleet_obs_dir/results/ext_fleet_metrics.prom"

echo "== profiling leg: exact span profile, identity =="
# With telemetry ON, ext_serve folds the spans it recorded into an
# exact self-time profile (harness::foldSpans, after the timed window).
# Phase 1 proves quiet-vs-storm bit-identity with recording on (the
# binary exits nonzero on divergence), and the run leaves the
# collapsed-stack profile and flame graph behind. Both request classes
# and the setpoint layer must appear in it.
prof_dir="build/prof"
rm -rf "$prof_dir" && mkdir -p "$prof_dir"
UVOLT_TELEMETRY=ON ./build/bench/uvolt_bench ext_serve \
    --requests 100 --clients 2 \
    --profile-out "$prof_dir/profile_ext_serve.folded" \
    --flame-out "$prof_dir/profile_ext_serve.html" \
    --timeline "" --trace-out "" --prom-out "" --blackbox-dir "" \
    --ledger-dir "" > /dev/null
test -s "$prof_dir/profile_ext_serve.folded"
test -s "$prof_dir/profile_ext_serve.html"
grep -q 'id="graph"' "$prof_dir/profile_ext_serve.html"
grep -q 'serve.classify' "$prof_dir/profile_ext_serve.folded"
grep -q 'pmbus.setpoint' "$prof_dir/profile_ext_serve.folded"

echo "== memory-backend fleet gate (ext_membackends) =="
# Drives one mixed BRAM+HBM+SRAM fleet through the FleetEngine serially
# and at 1 and 8 workers — the binary exits non-zero if any pair of
# runs diverges — then pins the per-technology envelope table (Vmin,
# Vcrash, guardband, faults/Mbit, power saving) to its committed golden.
./build/bench/uvolt_bench ext_membackends > /dev/null
cmp results/ext_membackends.csv goldens/ext_membackends.csv
echo "mixed-technology fleet bit-identical; envelope CSV matches golden"

echo "== benchmark surface: perfbench characterize replay =="
# The repository benchmark (perfbench/, attached to this project through
# perfbench/cmake/attach.cmake) compiles against the public Board,
# checkpoint, fleet and mem API. Its traced characterize run replays
# every Campaign job call by call in Listing-1 order, requires the
# replay to be bit-identical to Campaign::run, and checks sampled
# per-domain counts against the scalar reference walkers — so a change
# to that API or to the BRAM/backend sweep semantics fails this leg.
# Cache, ledger, timeline and temporary files stay under the build
# directory, as perfbench/run.py arranges them.
perf_dir="$PWD/build-perfbench"
cmake -B "$perf_dir" -S . \
    -DCMAKE_PROJECT_INCLUDE="$PWD/perfbench/cmake/attach.cmake"
cmake --build "$perf_dir" -j "$jobs" --target uvolt_perfbench
mkdir -p "$perf_dir/tmp"
UVOLT_CACHE_DIR="$perf_dir/cache" \
    UVOLT_LEDGER_DIR="$perf_dir/ledger" \
    UVOLT_TIMELINE="$perf_dir/timeline.jsonl" \
    TMPDIR="$perf_dir/tmp" \
    "$perf_dir/uvolt_perfbench" characterize --trace 1 \
    --out "$perf_dir" > "$perf_dir/characterize.log"
echo "perfbench characterize replay bit-identical to Campaign::run"

echo "== golden figures byte-identity (all 22 fig/tab CSVs) =="
# Regenerate every paper figure/table CSV from scratch and require each
# to be byte-identical to its committed golden. The figure studies are
# deterministic (seeded RNG, shared model cache), so any diff is a real
# behaviour change — this is the executable proof that the BRAM path
# survives refactors bit-for-bit. `uvolt_bench paper` runs every
# fig/tab study of the registry in one process. The two extension
# studies that load the cached models (VCCINT datapath faults and the
# fault-model ablation) run alongside and are held to their goldens.
UVOLT_CACHE_DIR="$PWD/uvolt_model_cache" \
    ./build/bench/uvolt_bench paper ext_vccint ext_ablation > /dev/null
python3 scripts/check_figures.py
cmp results/ext_vccint.csv goldens/ext_vccint.csv
cmp results/ext_ablation.csv goldens/ext_ablation.csv

echo "== batched-evaluation identity check (fig11) =="
# The batched engine's contract is bit-identity at any worker count.
# Prove it end to end: run the Fig 11 sweep twice — once on the calling
# thread and once fanned over a 4-worker pool — and require
# byte-identical CSVs. (Identity with the scalar classify() at every
# batch width is nn_test's BatchedEval suite.) A scratch directory
# keeps the committed results/ untouched; the shared model cache avoids
# retraining; a reduced --eval-limit keeps the leg seconds-scale
# (identity must hold at ANY limit, so a small one proves as much as
# the full sweep).
identity_dir="$(mktemp -d)"
trap 'rm -rf "$identity_dir"' EXIT
export UVOLT_CACHE_DIR="$PWD/uvolt_model_cache"
(cd "$identity_dir" && mkdir -p results &&
    "$OLDPWD/build/bench/uvolt_bench" fig11_nn_error \
        --eval-limit 400 --eval-workers 0 > /dev/null &&
    mv results/fig11_nn_error.csv fig11_serial.csv &&
    "$OLDPWD/build/bench/uvolt_bench" fig11_nn_error \
        --eval-limit 400 --eval-workers 4 > /dev/null &&
    cmp results/fig11_nn_error.csv fig11_serial.csv)
unset UVOLT_CACHE_DIR
echo "fig11 CSV byte-identical on the calling thread vs 4 workers"

echo "== libm without FMA: the tier-1 goldens under non-FMA libm variants =="
# glibc picks its log, sin, cos and exp variants by CPU feature. Masking
# AVX2, FMA and AVX-512 makes it pick the non-FMA ones, which differ
# from the FMA variants in the last ulp on up to 7 of every 10^4
# inputs; no golden may move with them.
GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4,-AVX512F \
    ctest --test-dir build -R '^bench_goldens$' --output-on-failure

echo "== second ISA: vectorized logsig, dequantize and fill at AVX2 width =="
# The batched engine's logsig loop and the 16-stream Bernoulli fill are
# vectorized at whatever width the target ISA offers; their bitwise
# match with the scalar specs (logsig(), Rng::fillBernoulli) must hold
# at every width, not only at -march=native's. Pre-seeding the
# -march=native check result OFF and building for x86-64-v3 (AVX2 +
# FMA, no AVX-512 multiplies or rotates) runs the 32-byte loops against
# the scalar specs, the recorded expf answers, the exhaustive
# fixed-point checks, and the fill at kernel and device level.
cmake -B build/v3 -S . -DUVOLT_HAS_MARCH_NATIVE=OFF \
    -DCMAKE_CXX_FLAGS=-march=x86-64-v3
cmake --build build/v3 -j "$jobs" \
    --target nn_test fxp_test util_test harness_test data_test
./build/v3/tests/nn_test --gtest_filter='Activations.*'
./build/v3/tests/fxp_test
./build/v3/tests/util_test --gtest_filter='Rng.*'
./build/v3/tests/harness_test --gtest_filter='PatternSpecTest.*'
# The parallel MNIST generator against its serial reference and the
# pinned corpus digests, at AVX2 width and again with glibc's non-FMA
# log, sin and cos: each pixel must make the same libm calls on the same
# uniforms whichever thread renders it.
mnist_identity='MnistLike.*Reference*:MnistLike.*Digest*'
./build/v3/tests/data_test --gtest_filter="$mnist_identity"
GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4,-AVX512F \
    ./build/v3/tests/data_test --gtest_filter="$mnist_identity"

echo "== second ISA: retrained models and every golden from the v3 build =="
# Results must not depend on the build host. The x86-64-v3 build
# retrains MNIST, Forest and Reuters into an empty cache; each model
# must be byte-identical to the -march=native build's cache, and every
# fig/tab golden plus ext_membackends must reproduce from them. Runs in
# a scratch directory so results/ and the ledger stay out of the tree.
cmake --build build/v3 -j "$jobs" --target uvolt_bench
v3_dir="$PWD/build/v3/host_independence"
rm -rf "$v3_dir" && mkdir -p "$v3_dir"
(cd "$v3_dir" &&
    UVOLT_CACHE_DIR="$v3_dir/cache" UVOLT_LEDGER_DIR="$v3_dir/ledger" \
    UVOLT_TIMELINE="$v3_dir/timeline.jsonl" \
    "$OLDPWD/build/v3/bench/uvolt_bench" paper ext_membackends > /dev/null)
test "$(ls "$v3_dir"/cache/*.nnw | wc -l)" -eq 3
for model in "$v3_dir"/cache/*.nnw; do
    cmp "$model" "uvolt_model_cache/$(basename "$model")"
done
python3 scripts/check_figures.py --results "$v3_dir/results"
cmp "$v3_dir/results/ext_membackends.csv" goldens/ext_membackends.csv
echo "v3 models byte-identical to the native cache; every golden matches"

echo "== tier 1: sanitized build (ASan + UBSan) =="
# fatal() death tests exit(1) mid-flight by design; leak checking on
# those intentional exits would drown the signal.
ASAN_OPTIONS=detect_leaks=0 run_suite build-asan -DUVOLT_SANITIZE=ON

# Sanitizer timings are not comparable to the plain baseline; run the
# suite once (it must not crash under ASan) and gate warn-only.
cp bench/timeline_seed.jsonl build-asan/perf_history.jsonl
ASAN_OPTIONS=detect_leaks=0 ./build-asan/bench/uvolt_bench bench_all \
    --repeats 3 --min-time-ms 5 --timeline build-asan/perf_history.jsonl
python3 scripts/check_perf.py --warn-only build-asan/perf_history.jsonl

echo "== bit-twiddling under UBSan (UVOLT_SANITIZE=undefined) =="
# The packed fault-domain layout lives on shifts, masks, and narrowing
# casts (bram.cc, fault_domain.hh, chip_fault_model.cc, the mask
# ladders of the mem:: backends, the analyzer's ctz walk). A UBSan-only
# build is fast enough to run the four suites that exercise every one
# of those paths on each CI pass — ASan's memory instrumentation isn't
# needed here and would double the leg. The flavor also checks float
# casts, so the timeline and ledger suites ride along for their
# writers' number formatting.
cmake -B build-ubsan -S . -DUVOLT_SANITIZE=undefined
cmake --build build-ubsan -j "$jobs" \
    --target fpga_test vmodel_test harness_test membackend_test \
    timeline_test report_test
for suite in fpga_test vmodel_test harness_test membackend_test \
        timeline_test report_test; do
    UBSAN_OPTIONS=halt_on_error=1 ./build-ubsan/tests/"$suite"
done

echo "== tier 1: thread-sanitized build (TSan) =="
# Only the suites that actually spin threads: the fleet engine, the
# resilience layer it schedules, and the telemetry shards every worker
# writes. A TSan run of everything would triple CI time for
# single-threaded code. UVOLT_TELEMETRY=ON turns recording on for the
# whole fleet suite so the lock-free counter shards and per-thread span
# buffers are exercised under every scheduling the pool produces.
# nn_test joined the list with the batched evaluation engine: its
# pool fan-out writes per-batch slots from worker threads. data_test
# joined with the MNIST generator, whose pool renders image ranges
# while the calling thread is still recording the next ones. The
# shared-personality cache joined with four threads building the same
# HBM stack and SRAM chip at their first use.
cmake -B build-tsan -S . -DUVOLT_SANITIZE=thread
cmake --build build-tsan -j "$jobs" \
    --target fleet_test resilience_test telemetry_test nn_test \
    report_test data_test membackend_test util_test
UVOLT_TELEMETRY=ON ./build-tsan/tests/fleet_test
UVOLT_TELEMETRY=ON ./build-tsan/tests/telemetry_test
./build-tsan/tests/resilience_test
UVOLT_TELEMETRY=ON ./build-tsan/tests/nn_test \
    --gtest_filter='BatchedEval.*'
./build-tsan/tests/data_test
./build-tsan/tests/membackend_test --gtest_filter='SharedPersonality.*'
./build-tsan/tests/util_test --gtest_filter='SharedCache.*'
# The profile fold copies and folds the span buffers while eight
# threads churn spans — exactly the interleaving TSan exists to judge.
./build-tsan/tests/report_test --gtest_filter='Profiler*'

echo "== serve soak: TSan + fault injector, exactly-once =="
# The whole serving stack under ThreadSanitizer with the harsh
# environment on: closed-loop clients, admission races, the coalescer,
# cooperative cancellation. The binary exits nonzero if any admitted
# request is lost or duplicated or the drained queue is not empty —
# and TSan fails the leg on any data race it sees along the way.
# Request count is sized so the leg stays around half a minute under
# TSan's ~10x slowdown; latency rows are not gated here (sanitizer
# timings are incomparable).
cmake --build build-tsan -j "$jobs" --target uvolt_bench serve_test
./build-tsan/tests/serve_test
./build-tsan/bench/uvolt_bench ext_serve --noise --skip-identity \
    --requests 800 --clients 6

echo "== all suites passed =="
