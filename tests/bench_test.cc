/**
 * @file
 * Tests for the benchmark framework: summarize() statistics on known
 * synthetic vectors (including the empty and single-repeat edge cases),
 * the UVOLT_BENCHMARK registration macro, runOne() calibration and
 * result fields, telemetry counter-delta capture around the timed
 * repeats, and a parse-back of a bench_all-style perf-timeline row
 * (min and median per benchmark, machine block, git SHA) through the
 * repo's own JSON parser.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/timeline.hh"
#include "util/bench.hh"
#include "json_value.hh"
#include "util/telemetry.hh"

namespace uvolt::bench
{
namespace
{

/** Enable telemetry for one test; restore and wipe values on exit. */
class TelemetryOn
{
  public:
    TelemetryOn()
    {
        was_ = telemetry::Telemetry::enabled();
        telemetry::Registry::global().resetForTest();
        telemetry::Telemetry::setEnabled(true);
    }

    ~TelemetryOn()
    {
        telemetry::Telemetry::setEnabled(was_);
        telemetry::Registry::global().resetForTest();
    }

  private:
    bool was_;
};

/** Cheap deterministic work the optimizer cannot discard. */
std::uint64_t
spinWork(std::uint64_t seed)
{
    for (int i = 0; i < 64; ++i)
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return seed;
}

UVOLT_BENCHMARK(BM_TestSpin)
{
    std::uint64_t seed = 1;
    for (auto _ : state)
        doNotOptimize(seed = spinWork(seed));
    state.setBytesPerIteration(64 * sizeof(std::uint64_t));
    state.setItemsPerIteration(64);
}

UVOLT_BENCHMARK(BM_TestCounted)
{
    static telemetry::Counter &ticks =
        telemetry::Registry::global().counter("bench_test.ticks");
    std::uint64_t seed = 1;
    for (auto _ : state) {
        ticks.increment();
        doNotOptimize(seed = spinWork(seed));
    }
}

/** Fast options so the whole suite stays snappy. */
BenchOptions
quickOptions()
{
    BenchOptions options;
    options.repeats = 3;
    options.minTimeMs = 0.05;
    return options;
}

TEST(Summarize, KnownVector)
{
    const std::vector<double> samples = {90, 10, 50, 30, 70,
                                         20, 80, 40, 60};
    const RepeatStats stats = summarize(samples);
    EXPECT_DOUBLE_EQ(stats.minNs, 10.0);
    EXPECT_DOUBLE_EQ(stats.medianNs, 50.0);
    EXPECT_DOUBLE_EQ(stats.meanNs, 50.0);
    // Order statistics: 0.95 * (9 - 1) = rank 7.6, between 80 and 90.
    EXPECT_NEAR(stats.p95Ns, 86.0, 1e-9);
    EXPECT_GT(stats.stddevNs, 0.0);
}

TEST(Summarize, SingleRepeatCollapses)
{
    const RepeatStats stats = summarize({42.0});
    EXPECT_DOUBLE_EQ(stats.minNs, 42.0);
    EXPECT_DOUBLE_EQ(stats.medianNs, 42.0);
    EXPECT_DOUBLE_EQ(stats.p95Ns, 42.0);
    EXPECT_DOUBLE_EQ(stats.meanNs, 42.0);
    EXPECT_DOUBLE_EQ(stats.stddevNs, 0.0);
}

TEST(Summarize, EmptyVectorIsAllZeros)
{
    const RepeatStats stats = summarize({});
    EXPECT_DOUBLE_EQ(stats.minNs, 0.0);
    EXPECT_DOUBLE_EQ(stats.medianNs, 0.0);
    EXPECT_DOUBLE_EQ(stats.p95Ns, 0.0);
    EXPECT_DOUBLE_EQ(stats.meanNs, 0.0);
    EXPECT_DOUBLE_EQ(stats.stddevNs, 0.0);
}

TEST(State, RunsExactlyTheRequestedIterations)
{
    State state(100);
    std::uint64_t ran = 0;
    for (auto _ : state)
        ++ran;
    EXPECT_EQ(ran, 100u);
    EXPECT_EQ(state.iterations(), 100u);
}

TEST(State, ZeroIterationsRunsNothing)
{
    State state(0);
    std::uint64_t ran = 0;
    for (auto _ : state)
        ++ran;
    EXPECT_EQ(ran, 0u);
}

TEST(BenchRegistry, MacroRegistersByName)
{
    const std::vector<std::string> names = Registry::global().names();
    EXPECT_NE(std::find(names.begin(), names.end(), "BM_TestSpin"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "BM_TestCounted"),
              names.end());
}

TEST(BenchRegistry, RunOnePopulatesEveryField)
{
    const BenchResult result =
        Registry::global().runOne("BM_TestSpin", quickOptions());
    EXPECT_EQ(result.name, "BM_TestSpin");
    EXPECT_EQ(result.repeats, 3);
    EXPECT_GE(result.iterationsPerRepeat, 1u);
    EXPECT_GT(result.wall.minNs, 0.0);
    EXPECT_GE(result.wall.medianNs, result.wall.minNs);
    EXPECT_GE(result.wall.p95Ns, result.wall.medianNs);
    EXPECT_GT(result.cpu.minNs, 0.0);
    EXPECT_GT(result.itersPerSec, 0.0);
    EXPECT_EQ(result.bytesPerIteration, 64 * sizeof(std::uint64_t));
    EXPECT_EQ(result.itemsPerIteration, 64u);
    EXPECT_GT(result.bytesPerSec, 0.0);
    EXPECT_GT(result.itemsPerSec, 0.0);
}

TEST(BenchRegistry, FilterSelectsSubset)
{
    BenchOptions options = quickOptions();
    options.filter = "BM_TestSpin";
    const std::vector<BenchResult> results =
        Registry::global().runAll(options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].name, "BM_TestSpin");
}

TEST(BenchRegistry, CounterDeltasBracketTheTimedRepeats)
{
    TelemetryOn guard;
    const BenchResult result =
        Registry::global().runOne("BM_TestCounted", quickOptions());
    const std::uint64_t expected =
        result.iterationsPerRepeat *
        static_cast<std::uint64_t>(result.repeats);
    bool found = false;
    for (const auto &[name, delta] : result.counterDeltas) {
        if (name == "bench_test.ticks") {
            found = true;
            // Calibration runs before the bracket; only the timed
            // repeats may contribute.
            EXPECT_EQ(delta, expected);
        }
    }
    EXPECT_TRUE(found);
}

TEST(BenchRegistry, CounterDeltasEmptyWhenTelemetryOff)
{
    telemetry::Telemetry::setEnabled(false);
    const BenchResult result =
        Registry::global().runOne("BM_TestCounted", quickOptions());
    for (const auto &[name, delta] : result.counterDeltas)
        EXPECT_NE(name, "bench_test.ticks") << "delta " << delta;
}

TEST(BenchJson, ParsesBackThroughTheRepoParser)
{
    BenchOptions options = quickOptions();
    options.filter = "BM_Test";
    harness::TimelineRow row =
        harness::TimelineRow::start("bench_all", "bench_test");
    const std::vector<BenchResult> results =
        Registry::global().runAll(options);
    ASSERT_EQ(results.size(), 2u);
    row.metrics = timelineMetrics(results);

    const auto doc = json::Value::parse(row.toJsonLine());
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    const json::Value &root = doc.value();
    EXPECT_EQ(root.stringOr("schema", ""), "uvolt-timeline-v2");
    EXPECT_EQ(root.stringOr("tool", ""), "bench_all");
    EXPECT_FALSE(root.at("git_sha").string().empty());

    const json::Value &machine = root.at("machine");
    EXPECT_EQ(machine.stringOr("digest", ""), row.machine.digest);
    EXPECT_EQ(machine.stringOr("digest", ""), row.machine.fingerprint());
    EXPECT_GE(machine.numberOr("cores", 0.0), 1.0);
    EXPECT_FALSE(machine.stringOr("compiler", "").empty());
    EXPECT_TRUE(machine.at("telemetry_enabled").isBool());
    EXPECT_EQ(machine.find("telemetry_compiled_in"), nullptr);

    const json::Value &metrics = root.at("metrics");
    ASSERT_EQ(metrics.members().size(), 4u);
    for (const BenchResult &result : results) {
        const double min_ns = metrics.numberOr(result.name + ".min_ns", 0.0);
        const double median_ns =
            metrics.numberOr(result.name + ".median_ns", 0.0);
        EXPECT_GT(min_ns, 0.0) << result.name;
        EXPECT_NEAR(min_ns, result.wall.minNs, 1e-6);
        EXPECT_NEAR(median_ns, result.wall.medianNs, 1e-6);
        EXPECT_LE(min_ns, median_ns);
    }
}

TEST(BenchJson, ResultsTableHasOneRowPerBenchmark)
{
    BenchOptions options = quickOptions();
    options.filter = "BM_Test";
    const std::vector<BenchResult> results =
        Registry::global().runAll(options);
    EXPECT_EQ(resultsTable(results).rows(), results.size());
}

} // namespace
} // namespace uvolt::bench
