/**
 * @file
 * Tests for the observability exporters: CSV quoting, JSON string
 * escaping (through the tests' JSON parser), histogram quantile
 * interpolation, Prometheus name sanitizing, Chrome-trace thread_name
 * metadata, and the exact span-profile fold (golden text, live spans,
 * an 8-thread churn, and a real campaign, each checked for exactness
 * per thread).
 * The run records have their own suite, run_record_test.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/campaign.hh"
#include "harness/report.hh"
#include "json_value.hh"
#include "util/format.hh"
#include "util/json.hh"
#include "util/table.hh"
#include "util/telemetry.hh"
#include "util/thread_pool.hh"

namespace uvolt::harness
{
namespace
{

TEST(CsvEscaping, QuotesCommasQuotesAndNewlines)
{
    TextTable table({"name", "value"});
    table.addRow({"plain", "1"});
    table.addRow({"a,b", "he said \"hi\"\nbye"});
    std::ostringstream out;
    table.printCsv(out);
    EXPECT_EQ(out.str(),
              "name,value\n"
              "plain,1\n"
              "\"a,b\",\"he said \"\"hi\"\"\nbye\"\n");
}

TEST(JsonEscaping, ControlAndQuoteCharacters)
{
    EXPECT_EQ(json::escaped("plain"), "plain");
    EXPECT_EQ(json::escaped("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json::escaped("line1\nline2\t!"), "line1\\nline2\\t!");
    EXPECT_EQ(json::escaped(std::string(1, '\x01')), "\\u0001");
}

TEST(PrometheusText, SanitizesHostileNames)
{
    // Every character outside [A-Za-z0-9_] becomes '_', so quotes,
    // backslashes, newlines and separators can never break a sample
    // line or forge another one.
    telemetry::MetricsSnapshot snapshot;
    snapshot.counters.emplace_back("weird \"name\"\\path\n", 7);
    snapshot.gauges.emplace_back("gauge,with\tcontrol", 1.5);
    EXPECT_EQ(prometheusText(snapshot),
              "# TYPE uvolt_weird__name__path_ counter\n"
              "uvolt_weird__name__path_ 7\n"
              "# TYPE uvolt_gauge_with_control gauge\n"
              "uvolt_gauge_with_control 1.5\n");
}

// --- histogram quantiles ------------------------------------------------

telemetry::HistogramSnapshot
flatHistogram()
{
    telemetry::HistogramSnapshot h;
    h.name = "t";
    h.bounds = {10.0, 20.0, 30.0};
    h.buckets = {2, 2, 2, 0}; // bounds + overflow
    h.count = 6;
    h.sum = 90.0;
    return h;
}

TEST(HistogramQuantile, InterpolatesWithinBuckets)
{
    const telemetry::HistogramSnapshot h = flatHistogram();
    // rank 3 lands mid-way through the (10, 20] bucket.
    EXPECT_NEAR(h.p50(), 15.0, 1e-9);
    // rank 5.7 lands 85 % through the (20, 30] bucket.
    EXPECT_NEAR(h.p95(), 28.5, 1e-9);
    EXPECT_NEAR(h.p99(), 29.7, 1e-9);
}

TEST(HistogramQuantile, FirstBucketInterpolatesFromZero)
{
    telemetry::HistogramSnapshot h = flatHistogram();
    h.buckets = {4, 0, 0, 0};
    h.count = 4;
    EXPECT_NEAR(h.p50(), 5.0, 1e-9);
}

TEST(HistogramQuantile, OverflowClampsToLastBound)
{
    telemetry::HistogramSnapshot h = flatHistogram();
    h.buckets = {0, 0, 0, 5};
    h.count = 5;
    EXPECT_DOUBLE_EQ(h.p50(), 30.0);
    EXPECT_DOUBLE_EQ(h.p99(), 30.0);
}

TEST(HistogramQuantile, EmptyHistogramIsZero)
{
    telemetry::HistogramSnapshot h;
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramQuantile, SkipsEmptyLeadingBuckets)
{
    telemetry::HistogramSnapshot h = flatHistogram();
    h.buckets = {0, 0, 4, 0}; // all samples in (20, 30]
    h.count = 4;
    // q=0 is the low edge of the first bucket that actually holds
    // samples, not a stale bound from an empty leading bucket.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 20.0);
    EXPECT_NEAR(h.p50(), 25.0, 1e-9);
    // q=1 is the exact top of the populated range.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 30.0);
}

TEST(HistogramQuantile, ClampsOutOfRangeAndNanQ)
{
    const telemetry::HistogramSnapshot h = flatHistogram();
    EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
    EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
    EXPECT_DOUBLE_EQ(
        h.quantile(std::numeric_limits<double>::quiet_NaN()),
        h.quantile(0.0));
}

// --- Chrome trace metadata ----------------------------------------------

TEST(ChromeTrace, EmitsProcessAndThreadNameMetadata)
{
    telemetry::TraceEvent event;
    event.name = "job";
    event.startNs = 1000;
    event.durNs = 500;
    event.tid = 3;
    const std::string trace =
        chromeTraceJson({event}, {{3, "fleet-worker-3"}});

    const auto doc = json::Value::parse(trace);
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    const auto &events = doc.value().at("traceEvents").items();
    ASSERT_EQ(events.size(), 3u); // process_name, thread_name, span
    EXPECT_EQ(events[0].stringOr("name", ""), "process_name");
    EXPECT_EQ(events[0].stringOr("ph", ""), "M");
    EXPECT_EQ(events[1].stringOr("name", ""), "thread_name");
    EXPECT_DOUBLE_EQ(events[1].numberOr("tid", 0.0), 3.0);
    EXPECT_EQ(events[1].at("args").stringOr("name", ""),
              "fleet-worker-3");
    EXPECT_EQ(events[2].stringOr("ph", ""), "X");
}

TEST(ChromeTrace, NoMetadataWithoutThreadNames)
{
    const std::string trace = chromeTraceJson({});
    EXPECT_EQ(trace.find("thread_name"), std::string::npos);
    const auto doc = json::Value::parse(trace);
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    EXPECT_TRUE(doc.value().at("traceEvents").items().empty());
}

TEST(ChromeTrace, PoolWorkersNameThemselves)
{
    bool done = false;
    {
        ThreadPool pool(1, "report-test-pool");
        pool.submit([&] { done = true; });
        pool.wait();
    }
    EXPECT_TRUE(done);
    bool found = false;
    for (const auto &[tid, name] :
         telemetry::Registry::global().threadNames()) {
        (void)tid;
        if (name == "report-test-pool-0")
            found = true;
    }
    EXPECT_TRUE(found);
}

// --- exact span profiles -----------------------------------------------

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

telemetry::TraceEvent
span(const char *name, std::uint32_t tid, std::uint64_t id,
     std::uint64_t parent, std::uint64_t dur_ns, bool scoped = true)
{
    telemetry::TraceEvent event;
    event.name = name;
    event.tid = tid;
    event.spanId = id;
    event.parentId = parent;
    event.durNs = dur_ns;
    event.scoped = scoped;
    return event;
}

/**
 * The exactness identity, thread by thread: the fold's self times sum
 * to the summed durations of the thread's root spans (a scoped span
 * whose parent is no scoped span of that thread). Any child outlasting
 * its parent would break the equality, so it also proves every self
 * time is a true, non-negative difference.
 */
void
expectExactPerThread(const std::vector<telemetry::TraceEvent> &events)
{
    std::map<std::uint32_t, std::vector<telemetry::TraceEvent>> threads;
    std::map<std::uint32_t, std::set<std::uint64_t>> ids;
    for (const auto &event : events) {
        if (!event.scoped)
            continue;
        threads[event.tid].push_back(event);
        ids[event.tid].insert(event.spanId);
    }
    for (const auto &[tid, spans] : threads) {
        std::uint64_t roots = 0;
        for (const auto &event : spans) {
            if (!ids[tid].count(event.parentId))
                roots += event.durNs;
        }
        const Profile profile = foldSpans(spans);
        EXPECT_EQ(profile.spans, spans.size()) << "tid " << tid;
        EXPECT_EQ(profile.totalNs(), roots) << "tid " << tid;
        for (const auto &[stack, ns] : profile.folded)
            EXPECT_LE(ns, roots) << stack;
    }
}

TEST(ProfilerFold, GoldenFoldedText)
{
    const std::vector<telemetry::TraceEvent> events = {
        // Thread 1: a three-deep sweep.
        span("sweep", 1, 1, 0, 1000),
        span("sweep.level", 1, 2, 1, 600),
        span("pmbus.setpoint", 1, 3, 2, 250),
        span("sweep.level", 1, 4, 1, 300),
        // Explicit interval under the sweep: excluded, so it neither
        // folds nor eats into the sweep's self time.
        span("serve.queue_wait", 1, 5, 1, 400, /*scoped=*/false),
        // Thread 2: parent on thread 1 (a flow context) -> root.
        span("serve.attempt", 2, 6, 1, 700),
        span("sweep", 2, 7, 6, 500),
        // Parent never recorded -> root.
        span("serve.classify", 2, 8, 99, 200),
    };
    const Profile profile = foldSpans(events);
    EXPECT_EQ(profile.foldedText(),
              "serve.attempt 200\n"
              "serve.attempt;sweep 500\n"
              "serve.classify 200\n"
              "sweep 100\n"
              "sweep;sweep.level 650\n"
              "sweep;sweep.level;pmbus.setpoint 250\n");
    EXPECT_EQ(profile.spans, 7u);
    EXPECT_EQ(profile.totalNs(), 1000u + 700u + 200u);
    expectExactPerThread(events);
}

TEST(ProfilerFold, TopFramesSelfAndTotal)
{
    Profile profile;
    profile.folded = {{"a;b", 4}, {"a", 2}, {"b", 1}};

    const auto top = profile.topFrames(2);
    ASSERT_EQ(top.size(), 2u);
    // b: leaf of "a;b" (4) plus alone (1) -> self 5, total 5.
    EXPECT_EQ(top[0].name, "b");
    EXPECT_EQ(top[0].self, 5u);
    EXPECT_EQ(top[0].total, 5u);
    // a: leaf only when alone -> self 2, but on-stack for 6.
    EXPECT_EQ(top[1].name, "a");
    EXPECT_EQ(top[1].self, 2u);
    EXPECT_EQ(top[1].total, 6u);
}

TEST(ProfilerFold, RecursionCountsOncePerSample)
{
    Profile profile;
    profile.folded = {{"a;b;a", 1}};
    for (const auto &frame : profile.topFrames(8)) {
        if (frame.name == "a") {
            EXPECT_EQ(frame.total, 1u); // deduplicated, not 2
            EXPECT_EQ(frame.self, 1u);  // it is also the leaf
        }
    }
}

TEST(ProfilerFold, WriteFoldedMatchesText)
{
    Profile profile;
    profile.folded = {{"x;y", 1}};
    const auto path = std::filesystem::temp_directory_path() /
        "uvolt_report_test.folded";
    ASSERT_TRUE(writeFolded(profile, path.string()));
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text, profile.foldedText());
    std::filesystem::remove(path);
}

TEST(ProfilerFold, ExactOnTelemetryOnCampaign)
{
    TelemetryOn on;
    const FleetResult fleet =
        Campaign::onPlatform("ZC702").sweep(5).ledgerUnder("").run().orFatal();
    ASSERT_FALSE(fleet.jobs.empty());

    const auto events = telemetry::Registry::global().traceEvents();
    expectExactPerThread(events);
    const Profile profile = foldSpans(events);
    // Listing 1's layers each fold to their own stack.
    const std::string text = profile.foldedText();
    EXPECT_NE(text.find(";sweep;sweep.level "), std::string::npos) << text;
    EXPECT_NE(text.find(";sweep;pmbus.setpoint "), std::string::npos)
        << text;
}

TEST(Profiler, CapturesScriptedSpans)
{
    TelemetryOn on;
    {
        UVOLT_TRACE_SCOPE("prof.outer");
        UVOLT_TRACE_SCOPE("prof.inner");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    telemetry::recordSpan("prof.interval", telemetry::nowNs(), 5'000'000);

    const auto events = telemetry::Registry::global().traceEvents();
    ASSERT_EQ(events.size(), 3u);
    const Profile profile = foldSpans(events);
    EXPECT_EQ(profile.spans, 2u);
    ASSERT_EQ(profile.folded.size(), 2u);
    EXPECT_GE(profile.folded.at("prof.outer;prof.inner"), 2'000'000u);
    for (const auto &event : events) {
        if (std::string(event.name) == "prof.outer") {
            EXPECT_EQ(profile.totalNs(), event.durNs);
        }
    }
}

TEST(Profiler, EightThreadSpanChurn)
{
    TelemetryOn on;

    [[maybe_unused]] static constexpr const char *names[] = {
        "churn.a", "churn.b", "churn.c", "churn.d",
        "churn.e", "churn.f", "churn.g", "churn.h"};
    constexpr int iterations = 2000;
    std::vector<std::thread> pool;
    for (int t = 0; t < 8; ++t) {
        pool.emplace_back([t] {
            for (int i = 0; i < iterations; ++i) {
                UVOLT_TRACE_SCOPE(names[t]);
                UVOLT_TRACE_SCOPE(names[(t + 1) % 8]);
                if (i % 64 == 0)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50));
            }
        });
    }
    // Fold live while the writers churn: a parent still open is not
    // recorded yet, so its children fold as roots — exact either way.
    for (int i = 0; i < 3; ++i)
        expectExactPerThread(telemetry::Registry::global().traceEvents());
    for (auto &thread : pool)
        thread.join();

    const auto events = telemetry::Registry::global().traceEvents();
    EXPECT_EQ(events.size(), 8u * iterations * 2);
    expectExactPerThread(events);
    const Profile profile = foldSpans(events);
    EXPECT_EQ(profile.folded.size(), 16u); // 8 roots, 8 nested pairs
    for (const auto &[stack, ns] : profile.folded)
        EXPECT_EQ(stack.rfind("churn.", 0), 0u) << stack;
}

} // namespace
} // namespace uvolt::harness
