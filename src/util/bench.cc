#include "util/bench.hh"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/format.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/telemetry.hh"

namespace uvolt::bench
{

namespace
{

double
wallNowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Process CPU time (all threads — fan-out benches count workers). */
double
cpuNowNs()
{
    struct timespec ts;
    if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0)
        return 0.0;
    return static_cast<double>(ts.tv_sec) * 1e9 +
           static_cast<double>(ts.tv_nsec);
}

struct Repeat
{
    double wallNs = 0.0; ///< per iteration
    double cpuNs = 0.0;  ///< per iteration
    std::uint64_t bytes = 0;
    std::uint64_t items = 0;
};

Repeat
runRepeat(BenchFn fn, std::uint64_t iterations)
{
    State state(iterations);
    const double cpu_start = cpuNowNs();
    const double wall_start = wallNowNs();
    fn(state);
    const double wall_ns = wallNowNs() - wall_start;
    const double cpu_ns = cpuNowNs() - cpu_start;
    Repeat repeat;
    const double iters = static_cast<double>(iterations);
    repeat.wallNs = wall_ns / iters;
    repeat.cpuNs = cpu_ns / iters;
    repeat.bytes = state.bytesPerIteration();
    repeat.items = state.itemsPerIteration();
    return repeat;
}

} // namespace

RepeatStats
summarize(const std::vector<double> &ns_per_iter)
{
    RepeatStats stats;
    if (ns_per_iter.empty())
        return stats;
    RunningStats running;
    for (double sample : ns_per_iter)
        running.add(sample);
    stats.minNs = running.minimum();
    stats.meanNs = running.mean();
    stats.stddevNs = running.stddev();
    stats.medianNs = median(ns_per_iter);
    stats.p95Ns = quantile(ns_per_iter, 0.95);
    return stats;
}

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

bool
Registry::add(std::string name, BenchFn fn)
{
    for (const auto &[existing, unused] : benchmarks_) {
        if (existing == name)
            fatal("bench: duplicate benchmark name '{}'", name);
    }
    benchmarks_.emplace_back(std::move(name), fn);
    return true;
}

std::vector<std::string>
Registry::names() const
{
    std::vector<std::string> out;
    out.reserve(benchmarks_.size());
    for (const auto &[name, fn] : benchmarks_)
        out.push_back(name);
    return out;
}

BenchResult
Registry::runOne(const std::string &name,
                 const BenchOptions &options) const
{
    const BenchFn *fn = nullptr;
    for (const auto &[candidate, candidate_fn] : benchmarks_) {
        if (candidate == name)
            fn = &candidate_fn;
    }
    if (!fn)
        fatal("bench: no benchmark named '{}'", name);

    BenchResult result;
    result.name = name;
    result.repeats = std::max(1, options.repeats);

    // Calibrate the per-repeat iteration count: grow geometrically
    // until one repeat reaches the time floor. The calibration runs
    // double as warmup (caches, fault-model synthesis, page faults).
    const double min_ns = std::max(0.0, options.minTimeMs) * 1e6;
    std::uint64_t iterations = 1;
    Repeat probe = runRepeat(*fn, iterations);
    // The very first iteration bears every lazy one-time cost of the
    // bench body (fault-model synthesis, page faults, cache fills) and
    // can exceed the time floor on its own, which would freeze
    // calibration at one iteration per repeat and time nothing but
    // cold starts. Probe once more warm before trusting a "one
    // iteration is enough" verdict.
    if (probe.wallNs >= min_ns)
        probe = runRepeat(*fn, iterations);
    while (probe.wallNs * static_cast<double>(iterations) < min_ns &&
           iterations < (1ull << 40)) {
        const double want = min_ns / std::max(probe.wallNs, 1e-3);
        const double grown = std::min(
            want * 1.4, static_cast<double>(iterations) * 10.0);
        iterations = std::max<std::uint64_t>(
            iterations + 1, static_cast<std::uint64_t>(grown));
        probe = runRepeat(*fn, iterations);
    }
    result.iterationsPerRepeat = iterations;

    // The timed repeats, bracketed by a telemetry snapshot so the
    // result carries the counter traffic its body generated.
    const telemetry::MetricsSnapshot before =
        telemetry::Registry::global().metrics();
    std::vector<double> wall_samples;
    std::vector<double> cpu_samples;
    wall_samples.reserve(static_cast<std::size_t>(result.repeats));
    cpu_samples.reserve(static_cast<std::size_t>(result.repeats));
    std::uint64_t bytes = probe.bytes;
    std::uint64_t items = probe.items;
    for (int r = 0; r < result.repeats; ++r) {
        const Repeat repeat = runRepeat(*fn, iterations);
        wall_samples.push_back(repeat.wallNs);
        cpu_samples.push_back(repeat.cpuNs);
        bytes = repeat.bytes;
        items = repeat.items;
    }
    const telemetry::MetricsSnapshot after =
        telemetry::Registry::global().metrics();

    for (const auto &[counter_name, value] : after.counters) {
        const std::uint64_t delta = value - before.counter(counter_name);
        if (delta)
            result.counterDeltas.emplace_back(counter_name, delta);
    }

    result.wall = summarize(wall_samples);
    result.cpu = summarize(cpu_samples);
    result.bytesPerIteration = bytes;
    result.itemsPerIteration = items;
    if (result.wall.medianNs > 0.0) {
        result.itersPerSec = 1e9 / result.wall.medianNs;
        result.bytesPerSec =
            static_cast<double>(bytes) * result.itersPerSec;
        result.itemsPerSec =
            static_cast<double>(items) * result.itersPerSec;
    }
    return result;
}

std::vector<BenchResult>
Registry::runAll(const BenchOptions &options) const
{
    std::vector<BenchResult> results;
    for (const auto &[name, fn] : benchmarks_) {
        if (!options.filter.empty() &&
            name.find(options.filter) == std::string::npos)
            continue;
        std::fprintf(stderr, "bench: %-36s ", name.c_str());
        std::fflush(stderr);
        BenchResult result = runOne(name, options);
        std::fprintf(stderr, "%12.1f ns/iter (x%llu, %d repeats)\n",
                     result.wall.medianNs,
                     static_cast<unsigned long long>(
                         result.iterationsPerRepeat),
                     result.repeats);
        results.push_back(std::move(result));
    }
    return results;
}

TextTable
resultsTable(const std::vector<BenchResult> &results)
{
    TextTable table({"benchmark", "iters", "min ns", "median ns",
                     "p95 ns", "cpu/wall", "rate"});
    for (const auto &result : results) {
        std::string rate;
        if (result.bytesPerSec > 0.0)
            rate = strFormat("{:.1f} MiB/s",
                             result.bytesPerSec / (1024.0 * 1024.0));
        else if (result.itemsPerSec > 0.0)
            rate = strFormat("{:.0f} items/s", result.itemsPerSec);
        const double ratio = result.wall.medianNs > 0.0
                                 ? result.cpu.medianNs /
                                       result.wall.medianNs
                                 : 0.0;
        table.addRow({result.name,
                      std::to_string(result.iterationsPerRepeat),
                      fmtDouble(result.wall.minNs, 1),
                      fmtDouble(result.wall.medianNs, 1),
                      fmtDouble(result.wall.p95Ns, 1),
                      fmtDouble(ratio, 2), rate});
    }
    return table;
}

std::vector<std::pair<std::string, double>>
timelineMetrics(const std::vector<BenchResult> &results)
{
    std::vector<std::pair<std::string, double>> metrics;
    for (const auto &result : results) {
        metrics.emplace_back(result.name + ".min_ns", result.wall.minNs);
        metrics.emplace_back(result.name + ".median_ns",
                             result.wall.medianNs);
    }
    return metrics;
}

} // namespace uvolt::bench
