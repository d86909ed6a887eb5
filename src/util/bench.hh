/**
 * @file
 * Registration-based micro/macro benchmark framework.
 *
 * Every figure bench in this repo hand-rolled its own timing loop and
 * emitted an incomparable CSV, so the perf trajectory of the project
 * was invisible. This framework replaces that with one harness:
 *
 *     UVOLT_BENCHMARK(BM_SweepInnerLoop)
 *     {
 *         auto &board = vc707();
 *         for (auto _ : state)
 *             bench::doNotOptimize(deviceFaultPass(board));
 *         state.setBytesPerIteration(deviceBytes);
 *     }
 *
 * The runner calibrates an iteration count so each timed repeat lasts
 * at least options.minTimeMs (the calibration runs double as warmup),
 * then measures `repeats` independent repeats of wall and process-CPU
 * time. Reported statistics are min/median/p95/mean/stddev of
 * ns-per-iteration across the repeats — min is the scheduler-noise
 * floor and the default regression-gate metric; p95 shows the jitter a
 * production deployment would see. A telemetry-metrics snapshot is
 * captured around the timed repeats, so every benchmark result carries
 * the counter deltas its body generated (e.g. pmbus.setpoint.writes
 * per sweep pass) — free provenance when telemetry is enabled, all
 * zeros when it is off.
 *
 * A suite run is recorded as one run record (harness/run_record.hh)
 * whose metrics timelineMetrics() names: "<bench>.min_ns" and
 * "<bench>.median_ns" per benchmark. The record carries the machine
 * and build; scripts/check_perf.py gates it.
 */

#ifndef UVOLT_UTIL_BENCH_HH
#define UVOLT_UTIL_BENCH_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/table.hh"

namespace uvolt::bench
{

/** Keep a value (and the computation producing it) out of the DCE. */
template <typename T>
inline void
doNotOptimize(const T &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

/** Iteration control handed to every benchmark body. */
class State
{
  public:
    explicit State(std::uint64_t iterations)
        : target_(iterations), remaining_(iterations)
    {
    }

    /** One more iteration? (the range-for protocol calls this). */
    bool
    keepRunning()
    {
        if (remaining_ == 0)
            return false;
        --remaining_;
        return true;
    }

    struct EndSentinel
    {
    };

    /** Dereference target of the range-for protocol. The non-trivial
     *  destructor counts as a use, so `for (auto _ : state)` draws no
     *  unused-variable warning. */
    struct Tick
    {
        Tick() {}
        ~Tick() {}
    };

    class Iterator
    {
      public:
        explicit Iterator(State *state) : state_(state) {}
        bool operator!=(EndSentinel) { return state_->keepRunning(); }
        void operator++() {}
        Tick operator*() const { return {}; }

      private:
        State *state_;
    };

    Iterator begin() { return Iterator(this); }
    EndSentinel end() { return {}; }

    /** Iterations this repeat will run. */
    std::uint64_t iterations() const { return target_; }

    /** Declare a per-iteration byte volume (enables bytes/sec). */
    void setBytesPerIteration(std::uint64_t bytes) { bytes_ = bytes; }

    /** Declare a per-iteration item count (enables items/sec). */
    void setItemsPerIteration(std::uint64_t items) { items_ = items; }

    std::uint64_t bytesPerIteration() const { return bytes_; }
    std::uint64_t itemsPerIteration() const { return items_; }

  private:
    std::uint64_t target_;
    std::uint64_t remaining_;
    std::uint64_t bytes_ = 0;
    std::uint64_t items_ = 0;
};

using BenchFn = void (*)(State &);

/** Summary of one timing vector (ns per iteration across repeats). */
struct RepeatStats
{
    double minNs = 0.0;
    double medianNs = 0.0;
    double p95Ns = 0.0;
    double meanNs = 0.0;
    double stddevNs = 0.0;
};

/**
 * Reduce a vector of per-repeat ns/iteration samples. Empty input (a
 * benchmark that never ran) reduces to all zeros; a single repeat has
 * min = median = p95 = the sample.
 */
RepeatStats summarize(const std::vector<double> &ns_per_iter);

/** Everything measured for one benchmark. */
struct BenchResult
{
    std::string name;
    std::uint64_t iterationsPerRepeat = 0;
    int repeats = 0;

    RepeatStats wall; ///< wall clock, ns per iteration
    RepeatStats cpu;  ///< process CPU (all threads), ns per iteration

    /** Iterations per wall second at the median repeat. */
    double itersPerSec = 0.0;

    std::uint64_t bytesPerIteration = 0;
    std::uint64_t itemsPerIteration = 0;
    double bytesPerSec = 0.0; ///< 0 when no byte volume declared
    double itemsPerSec = 0.0; ///< 0 when no item count declared

    /**
     * Telemetry counter deltas the timed repeats generated (nonzero
     * entries only; empty when telemetry is off or the body is quiet).
     */
    std::vector<std::pair<std::string, std::uint64_t>> counterDeltas;
};

/** Runner knobs (bench_all exposes these as flags). */
struct BenchOptions
{
    int repeats = 9;           ///< timed repeats per benchmark
    double minTimeMs = 20.0;   ///< calibrated floor per repeat
    std::string filter;        ///< substring; empty = everything
};

/** The process-wide benchmark registry. */
class Registry
{
  public:
    static Registry &global();

    /** Register a benchmark (the UVOLT_BENCHMARK macro calls this). */
    bool add(std::string name, BenchFn fn);

    /** Registered names, registration order. */
    std::vector<std::string> names() const;

    /**
     * Calibrate and run every registered benchmark matching
     * options.filter, in registration order, printing one progress
     * line per benchmark to stderr.
     */
    std::vector<BenchResult> runAll(const BenchOptions &options) const;

    /** Calibrate and run one registered benchmark by exact name. */
    BenchResult runOne(const std::string &name,
                       const BenchOptions &options) const;

  private:
    Registry() = default;
    std::vector<std::pair<std::string, BenchFn>> benchmarks_;
};

/** Render results as the repo's table style (one row per benchmark). */
TextTable resultsTable(const std::vector<BenchResult> &results);

/**
 * The perf-timeline metrics of a suite run, in run order: wall
 * "<name>.min_ns" (the floor scripts/check_perf.py holds to the
 * baseline) and "<name>.median_ns" per benchmark.
 */
std::vector<std::pair<std::string, double>>
timelineMetrics(const std::vector<BenchResult> &results);

/**
 * Register a benchmark and open its body:
 *
 *     UVOLT_BENCHMARK(BM_Crc16Frame)
 *     {
 *         for (auto _ : state) ...
 *     }
 */
#define UVOLT_BENCHMARK(name)                                           \
    static void name(::uvolt::bench::State &state);                     \
    static const bool uvoltBenchRegistered_##name =                     \
        ::uvolt::bench::Registry::global().add(#name, name);            \
    static void name([[maybe_unused]] ::uvolt::bench::State &state)

} // namespace uvolt::bench

#endif // UVOLT_UTIL_BENCH_HH
