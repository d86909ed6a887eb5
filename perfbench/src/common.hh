/**
 * @file
 * What every workload driver shares: command-line options, the result
 * record (metrics with units, attempted/failed operations, correctness
 * verdict), and small statistics helpers.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "trace.hh"

namespace perfbench
{

/** Parsed command line of one workload process. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 5; ///< default: the seed the goldens were made at
    double seconds = 10.0;  ///< measurement budget
    bool trace = false;     ///< per-layer (traced) run instead of end-to-end
    bool setupOnly = false; ///< stop after set-up (set-up time samples)
    bool wrongExpected = false; ///< self-test: perturb one expected value
    std::string outDir = "perfbench/out";

    /** Scratch directory of this workload under outDir. */
    std::string scratch(const std::string &leaf) const;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one workload process reports. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double setupS = 0.0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes; ///< human-readable lines

    void add(const std::string &name, double value, const std::string &unit);

    /** One operation failed its check: counted and explained. */
    void fail(const std::string &why);

    /** Print notes and metrics, then the one-line JSON record. */
    void print() const;
};

/** Time since main() started, seconds (set-up time base). */
double secondsSinceStart();

/** Mark the start of the process (first statement of main()). */
void markProcessStart();

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** The q-quantile (0..1) by linear interpolation; 0 when empty. */
double quantile(std::vector<double> values, double q);

/** Median of @a values; 0 when empty. */
double medianOf(const std::vector<double> &values);

/** "p50 of N", etc.: a percentile with its sample count. */
std::string withCount(const std::string &label, double value,
                      const std::string &unit, std::size_t samples);

/**
 * Emit the traced run's per-layer accounting for @a thread over the
 * window: <layer>.calls and <layer>.ms (self time) for every layer in
 * @a layers (zero when the workload never called it), the residual,
 * and the check that self times plus residual equal the wall time.
 */
void emitAccounting(Result &result, const std::vector<std::string> &layers,
                    const std::string &thread, std::uint64_t start_ns,
                    std::uint64_t end_ns);

/** Bit-for-bit equality of two sweeps (every field a sweep reports). */
bool sameSweep(const uvolt::harness::SweepResult &a,
               const uvolt::harness::SweepResult &b);

/** Every layer span name, in report order (shared by all workloads so
 *  each traced run reports the same per-layer metric set). */
const std::vector<std::string> &layerNames();

/** Workload entry points. */
Result runCharacterize(const Options &options);
Result runNnIcbp(const Options &options);
Result runServeOpenLoop(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
