/**
 * @file
 * Tests for the telemetry layer: lock-free shard aggregation under a
 * ThreadPool, trace-span well-formedness, the Chrome trace-event JSON
 * exporter (golden file + a structural check of a real fleet trace),
 * the central contract that enabling telemetry never changes a sweep's
 * results, and the black-box ring the logging layer keeps.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness/campaign.hh"
#include "harness/fleet.hh"
#include "harness/report.hh"
#include "json_value.hh"
#include "util/format.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/thread_pool.hh"

namespace uvolt::telemetry
{
namespace
{

/** Enable telemetry for one test; restore and wipe values on exit. */
class TelemetryOn
{
  public:
    TelemetryOn()
    {
        was_ = Telemetry::enabled();
        Registry::global().resetForTest();
        Telemetry::setEnabled(true);
    }

    ~TelemetryOn()
    {
        Telemetry::setEnabled(was_);
        Registry::global().resetForTest();
    }

  private:
    bool was_;
};

/** The snapshot's histogram named @a name, or nullptr. */
const HistogramSnapshot *
histogramOf(const MetricsSnapshot &snapshot, std::string_view name)
{
    for (const HistogramSnapshot &histogram : snapshot.histograms) {
        if (histogram.name == name)
            return &histogram;
    }
    return nullptr;
}

/**
 * Per-tid well-formedness: treating each span as [start, start + dur),
 * any two spans on one thread either nest or are disjoint — never
 * partially overlap. LIFO scope closing guarantees this; the check
 * catches both recording bugs and exporter reordering bugs.
 */
void
expectWellNested(const std::vector<TraceEvent> &events)
{
    // traceEvents() sorts by start time (longer span first on ties), so
    // a stack sweep per tid suffices.
    std::vector<std::vector<const TraceEvent *>> stacks;
    for (const auto &event : events) {
        if (event.tid >= stacks.size())
            stacks.resize(event.tid + 1);
        auto &stack = stacks[event.tid];
        while (!stack.empty() &&
               event.startNs >=
                   stack.back()->startNs + stack.back()->durNs)
            stack.pop_back();
        if (!stack.empty()) {
            // The open ancestor must fully contain this span.
            EXPECT_LE(stack.back()->startNs, event.startNs)
                << event.name;
            EXPECT_GE(stack.back()->startNs + stack.back()->durNs,
                      event.startNs + event.durNs)
                << event.name << " partially overlaps "
                << stack.back()->name;
        }
        stack.push_back(&event);
    }
}

TEST(TelemetryTest, DisabledByDefaultAndCostFree)
{
    Registry::global().resetForTest();
    Telemetry::setEnabled(false);

    auto &counter = Registry::global().counter("test.disabled.counter");
    auto &histogram =
        Registry::global().histogram("test.disabled.histogram", {1.0});
    counter.add(41);
    histogram.observe(0.5);
    {
        UVOLT_TRACE_SCOPE("test.disabled.span");
    }

    const auto snapshot = Registry::global().metrics();
    EXPECT_EQ(snapshot.counter("test.disabled.counter"), 0u);
    ASSERT_NE(histogramOf(snapshot, "test.disabled.histogram"), nullptr);
    EXPECT_EQ(histogramOf(snapshot, "test.disabled.histogram")->count, 0u);
    EXPECT_TRUE(Registry::global().traceEvents().empty());
}

TEST(TelemetryTest, CounterAggregationAcrossWorkers)
{
    TelemetryOn guard;

    constexpr int jobs = 64;
    constexpr int addsPerJob = 1000;
    auto &counter = Registry::global().counter("test.agg.counter");

    ThreadPool pool(8);
    for (int j = 0; j < jobs; ++j) {
        pool.submit([&counter] {
            for (int i = 0; i < addsPerJob; ++i)
                counter.increment();
        });
    }
    pool.wait();

    // Every relaxed shard write must survive the merge exactly once.
    EXPECT_EQ(Registry::global().metrics().counter("test.agg.counter"),
              static_cast<std::uint64_t>(jobs) * addsPerJob);
}

TEST(TelemetryTest, HistogramAggregationAcrossWorkers)
{
    TelemetryOn guard;

    auto &histogram = Registry::global().histogram(
        "test.agg.histogram", {1.0, 10.0, 100.0});

    constexpr int jobs = 32;
    ThreadPool pool(8);
    for (int j = 0; j < jobs; ++j) {
        pool.submit([&histogram] {
            histogram.observe(0.5);   // bucket 0
            histogram.observe(5.0);   // bucket 1
            histogram.observe(50.0);  // bucket 2
            histogram.observe(500.0); // overflow
        });
    }
    pool.wait();

    const auto snapshot = Registry::global().metrics();
    const auto *merged = histogramOf(snapshot, "test.agg.histogram");
    ASSERT_NE(merged, nullptr);
    EXPECT_EQ(merged->count, 4u * jobs);
    ASSERT_EQ(merged->buckets.size(), 4u);
    for (std::size_t b = 0; b < 4; ++b)
        EXPECT_EQ(merged->buckets[b], static_cast<std::uint64_t>(jobs));
    EXPECT_DOUBLE_EQ(merged->sum, jobs * (0.5 + 5.0 + 50.0 + 500.0));
    EXPECT_DOUBLE_EQ(merged->mean(), 555.5 / 4.0);
}

TEST(TelemetryTest, SpansAreWellNestedAcrossWorkers)
{
    TelemetryOn guard;

    ThreadPool pool(8);
    for (int j = 0; j < 24; ++j) {
        pool.submit([j] {
            UVOLT_TRACE_SCOPE("outer", [&] {
                return TraceArgs{{"job", std::to_string(j)}};
            });
            for (int i = 0; i < 3; ++i) {
                UVOLT_TRACE_SCOPE("middle");
                UVOLT_TRACE_SCOPE("inner");
            }
        });
    }
    pool.wait();

    const auto events = Registry::global().traceEvents();
    // 24 outer + 24 * 3 middle + 24 * 3 inner.
    EXPECT_EQ(events.size(), 24u * 7);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].startNs, events[i].startNs);
    expectWellNested(events);
}

TEST(TelemetryTest, ChromeTraceJsonGoldenFile)
{
    // Synthetic events with fixed timestamps: the serialized document is
    // byte-stable, so compare against the exact expected text.
    std::vector<TraceEvent> events;
    TraceEvent outer;
    outer.name = "fleet.job";
    outer.startNs = 1500;
    outer.durNs = 2500500;
    outer.tid = 1;
    outer.args = {{"label", "VC707-p16_hFFFF-t50"}, {"attempt", "1"}};
    events.push_back(outer);
    TraceEvent inner;
    inner.name = "weird \"name\"\n";
    inner.startNs = 2000;
    inner.durNs = 1000;
    inner.tid = 1;
    events.push_back(inner);

    const std::string expected =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        "{\"name\":\"fleet.job\",\"cat\":\"uvolt\",\"ph\":\"X\","
        "\"pid\":1,\"tid\":1,\"ts\":1.500,\"dur\":2500.500,"
        "\"args\":{\"label\":\"VC707-p16_hFFFF-t50\","
        "\"attempt\":\"1\"}},\n"
        "{\"name\":\"weird \\\"name\\\"\\n\",\"cat\":\"uvolt\","
        "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":2.000,"
        "\"dur\":1.000}\n"
        "]}\n";
    EXPECT_EQ(harness::chromeTraceJson(events), expected);
}

TEST(TelemetryTest, FleetTraceContainsNestedInstrumentation)
{
    TelemetryOn guard;

    auto result = harness::Campaign::onPlatform("ZC702")
                      .sweep(3)
                      .ledgerUnder("")
                      .run();
    ASSERT_TRUE(result.ok());

    const auto events = Registry::global().traceEvents();
    std::size_t jobs = 0, levels = 0, setpoints = 0;
    for (const auto &event : events) {
        const std::string_view name = event.name;
        jobs += name == "fleet.job";
        levels += name == "sweep.level";
        setpoints += name == "pmbus.setpoint";
    }
    EXPECT_EQ(jobs, 1u);
    EXPECT_GT(levels, 0u);
    EXPECT_GT(setpoints, 0u);
    expectWellNested(events);

    // The document round-trips as JSON in spirit: balanced braces and
    // one object per recorded event.
    const std::string json = harness::chromeTraceJson(events);
    std::size_t depth = 0, objects = 0;
    bool in_string = false, escaped = false;
    for (char c : json) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = true;
            continue;
        }
        if (c == '"') {
            in_string = !in_string;
            continue;
        }
        if (in_string)
            continue;
        if (c == '{') {
            if (++depth == 2)
                ++objects;
        } else if (c == '}') {
            ASSERT_GT(depth, 0u);
            --depth;
        }
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0u);
    EXPECT_GE(objects, events.size());

    // The merged metrics carry the same story as the trace.
    const auto snapshot = Registry::global().metrics();
    EXPECT_EQ(snapshot.counter("fleet.jobs"), 1u);
    EXPECT_EQ(snapshot.counter("sweep.levels"), levels);
    ASSERT_NE(histogramOf(snapshot, "sweep.level_ms"), nullptr);
    EXPECT_EQ(histogramOf(snapshot, "sweep.level_ms")->count, levels);
    EXPECT_GT(snapshot.counter("pmbus.txn.attempts"), 0u);
}

TEST(TelemetryTest, EnablingTelemetryDoesNotChangeSweepResults)
{
    const bool was = Telemetry::enabled();

    Telemetry::setEnabled(false);
    auto off =
        harness::Campaign::onPlatform("ZC702").sweep(3).ledgerUnder("").run();
    ASSERT_TRUE(off.ok());

    Registry::global().resetForTest();
    Telemetry::setEnabled(true);
    auto on =
        harness::Campaign::onPlatform("ZC702").sweep(3).ledgerUnder("").run();
    Telemetry::setEnabled(was);
    Registry::global().resetForTest();
    ASSERT_TRUE(on.ok());

    // Telemetry draws from no RNG stream and reorders no work: the
    // physics must be bit-identical with recording on and off.
    const harness::SweepResult &p = off.value().onlySweep();
    const harness::SweepResult &q = on.value().onlySweep();
    ASSERT_EQ(p.points.size(), q.points.size());
    for (std::size_t i = 0; i < p.points.size(); ++i) {
        EXPECT_EQ(p.points[i].vccBramMv, q.points[i].vccBramMv);
        EXPECT_EQ(p.points[i].runCounts, q.points[i].runCounts);
        EXPECT_EQ(p.points[i].medianFaults, q.points[i].medianFaults);
        EXPECT_EQ(p.points[i].faultsPerMbit, q.points[i].faultsPerMbit);
        EXPECT_EQ(p.points[i].perBramFaults, q.points[i].perBramFaults);
        EXPECT_EQ(p.points[i].oneToZeroFraction,
                  q.points[i].oneToZeroFraction);
    }
}

TEST(TelemetryTest, ResetForTestKeepsRegistrationsValid)
{
    TelemetryOn guard;

    auto &counter = Registry::global().counter("test.reset.counter");
    counter.add(7);
    EXPECT_EQ(Registry::global().metrics().counter("test.reset.counter"),
              7u);

    Registry::global().resetForTest();
    EXPECT_EQ(Registry::global().metrics().counter("test.reset.counter"),
              0u);

    // The cached handle survives the reset (call sites keep statics).
    counter.add(3);
    EXPECT_EQ(Registry::global().metrics().counter("test.reset.counter"),
              3u);
}

TEST(TelemetryTest, TraceDropCounterIsAlwaysReported)
{
    TelemetryOn guard;

    // Registered with the registry itself: present at 0 before any
    // span could have been dropped, so a gate can require it.
    const auto snapshot = Registry::global().metrics();
    bool present = false;
    for (const auto &[name, value] : snapshot.counters) {
        if (name == "telemetry.trace.dropped") {
            present = true;
            EXPECT_EQ(value, 0u);
        }
    }
    EXPECT_TRUE(present);
    EXPECT_NE(harness::prometheusText(snapshot).find(
                  "\nuvolt_telemetry_trace_dropped 0\n"),
              std::string::npos);
}

TEST(TelemetryTest, OnlyScopedSpansAreMarkedScoped)
{
    TelemetryOn guard;

    {
        UVOLT_TRACE_SCOPE("test.scoped");
    }
    recordSpan("test.interval", nowNs(), 10);
    recordFlowSpan("test.flow", nowNs(), 0, {mintFlowId(), 0},
                   FlowPoint::start);

    const auto events = Registry::global().traceEvents();
    ASSERT_EQ(events.size(), 3u);
    for (const auto &event : events)
        EXPECT_EQ(event.scoped, std::string(event.name) == "test.scoped")
            << event.name;
}

TEST(TelemetryTest, MetricsSnapshotExporters)
{
    TelemetryOn guard;

    Registry::global().counter("test.export.counter").add(5);
    Registry::global().gauge("test.export.gauge").set(0.75);
    Registry::global()
        .histogram("test.export.histogram", {1.0, 2.0})
        .observe(1.5);

    const std::string text =
        harness::prometheusText(Registry::global().metrics());
    for (const char *line :
         {"# TYPE uvolt_test_export_counter counter\n"
          "uvolt_test_export_counter 5\n",
          "# TYPE uvolt_test_export_gauge gauge\n"
          "uvolt_test_export_gauge 0.75\n",
          "# TYPE uvolt_test_export_histogram histogram\n"
          "uvolt_test_export_histogram_bucket{le=\"1\"} 0\n"
          "uvolt_test_export_histogram_bucket{le=\"2\"} 1\n"
          "uvolt_test_export_histogram_bucket{le=\"+Inf\"} 1\n"
          "uvolt_test_export_histogram_sum 1.5\n"
          "uvolt_test_export_histogram_count 1\n"})
        EXPECT_NE(text.find(line), std::string::npos) << line << text;
}

TEST(TelemetryTest, FleetFlowLinkageWellFormedAtAnyWorkerCount)
{
    // Each fleet job is one flow: a "fleet.submit" start on the
    // submitting thread, a queue-wait step and a "fleet.done" finish on
    // whichever worker ran it. The linkage must be closed at every
    // worker count — 0 (inline execution), 1, and a real pool — and
    // every child span's parent must itself have been recorded.
    harness::FleetPlan plan = harness::FleetPlan::crossProduct(
        {"ZC702"}, {harness::PatternSpec::allOnes(),
                    harness::PatternSpec::fixed(0x0000)},
        {50.0});
    plan.runsPerLevel = 3;

    for (std::size_t workers : {0u, 1u, 8u}) {
        TelemetryOn guard;
        harness::FleetEngine engine;
        ThreadPool pool(workers);
        ASSERT_TRUE(engine.run(plan, pool).ok())
            << "workers=" << workers;

        const auto events = Registry::global().traceEvents();
        std::set<std::uint64_t> spans;
        for (const auto &event : events) {
            if (event.spanId != 0)
                spans.insert(event.spanId);
        }
        std::map<std::uint64_t, std::array<int, 3>> flows; // s, t, f
        for (const auto &event : events) {
            if (event.parentId != 0) {
                EXPECT_TRUE(spans.count(event.parentId))
                    << event.name << " has a dangling parent at "
                    << workers << " workers";
            }
            if (event.flowId != 0 &&
                event.flowPoint != FlowPoint::none) {
                auto &counts = flows[event.flowId];
                switch (event.flowPoint) {
                  case FlowPoint::start: ++counts[0]; break;
                  case FlowPoint::step: ++counts[1]; break;
                  default: ++counts[2]; break;
                }
            }
        }
        EXPECT_EQ(flows.size(), plan.jobs.size())
            << "workers=" << workers;
        for (const auto &[flow, counts] : flows) {
            EXPECT_EQ(counts[0], 1) << "flow " << flow << " starts";
            EXPECT_EQ(counts[2], 1) << "flow " << flow << " finishes";
        }
    }
}

TEST(TelemetryTest, PrometheusExpositionGoldenFile)
{
    // A synthetic snapshot (no live registry: other suites register
    // global metrics that would bleed into the document) rendered to
    // the exact text-format bytes, cumulative buckets included. Numbers
    // print in their shortest round-trip form, so a gauge past six
    // significant digits keeps every one.
    MetricsSnapshot snapshot;
    snapshot.counters = {{"serve.admitted", 3}};
    snapshot.gauges = {{"serve.queue_depth", 2.0},
                       {"serve.power_uw", 1234567.25},
                       {"serve.rail_mv", 12345.678}};
    HistogramSnapshot histogram;
    histogram.name = "serve.e2e_ms";
    histogram.bounds = {0.5, 1.0, 2.0};
    histogram.buckets = {1, 2, 0, 1}; // per-bucket counts + overflow
    histogram.count = 4;
    histogram.sum = 3.25;
    snapshot.histograms = {histogram};

    const std::string expected =
        "# TYPE uvolt_serve_admitted counter\n"
        "uvolt_serve_admitted 3\n"
        "# TYPE uvolt_serve_queue_depth gauge\n"
        "uvolt_serve_queue_depth 2\n"
        "# TYPE uvolt_serve_power_uw gauge\n"
        "uvolt_serve_power_uw 1234567.25\n"
        "# TYPE uvolt_serve_rail_mv gauge\n"
        "uvolt_serve_rail_mv 12345.678\n"
        "# TYPE uvolt_serve_e2e_ms histogram\n"
        "uvolt_serve_e2e_ms_bucket{le=\"0.5\"} 1\n"
        "uvolt_serve_e2e_ms_bucket{le=\"1\"} 3\n"
        "uvolt_serve_e2e_ms_bucket{le=\"2\"} 3\n"
        "uvolt_serve_e2e_ms_bucket{le=\"+Inf\"} 4\n"
        "uvolt_serve_e2e_ms_sum 3.25\n"
        "uvolt_serve_e2e_ms_count 4\n";
    EXPECT_EQ(harness::prometheusText(snapshot), expected);
}

TEST(TelemetryTest, FlowRecordsBindToSliceEnds)
{
    // Flow starts/steps bind where their slice begins; the finish
    // binds at the slice END — a terminal span opens back at admission
    // time, and the arrowhead must land where the request completed.
    std::vector<TraceEvent> events;
    TraceEvent start;
    start.name = "serve.admit";
    start.startNs = 1000;
    start.tid = 1;
    start.spanId = 7;
    start.flowId = 42;
    start.flowPoint = FlowPoint::start;
    events.push_back(start);
    TraceEvent finish;
    finish.name = "serve.request";
    finish.startNs = 1000;
    finish.durNs = 5000;
    finish.tid = 2;
    finish.spanId = 8;
    finish.flowId = 42;
    finish.flowPoint = FlowPoint::finish;
    events.push_back(finish);

    const std::string json = harness::chromeTraceJson(events);
    EXPECT_NE(json.find("\"ph\":\"s\",\"id\":42,\"pid\":1,\"tid\":1,"
                        "\"ts\":1.000"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"ph\":\"f\",\"id\":42,\"pid\":1,\"tid\":2,"
                        "\"ts\":6.000,\"bp\":\"e\""),
              std::string::npos)
        << json;
    // Linkage args ride on the X records as strings.
    EXPECT_NE(json.find("\"span\":\"7\",\"parent\":\"0\",\"flow\":"
                        "\"42\""),
              std::string::npos)
        << json;
}

TEST(TelemetryTest, BlackboxDumpSchema)
{
    blackbox::resetForTest();

    note(LogLevel::info, "test", "first", 11);
    note(LogLevel::warn, "pmbus", "NACK on setpoint write");
    note(LogLevel::error, "serve", "deadline streak at 8");

    const auto dir = std::filesystem::temp_directory_path() /
                     "uvolt_blackbox_schema";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = blackbox::dump("schema check", dir.string());
    ASSERT_FALSE(path.empty());
    // The reason is sanitized into the file name.
    EXPECT_EQ(path, (dir / "blackbox_schema_check.json").string());

    auto parsed = json::Value::parseFile(path);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const json::Value &root = parsed.value();
    EXPECT_EQ(root.stringOr("schema", ""), "uvolt-blackbox-v1");
    EXPECT_EQ(root.numberOr("recorded", 0), 3.0);
    EXPECT_EQ(root.numberOr("dropped", -1), 0.0);
    const json::Value *events = root.find("events");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->items().size(), 3u);
    const json::Value &first = events->items().front();
    EXPECT_EQ(first.stringOr("level", ""), "info");
    EXPECT_EQ(first.stringOr("component", ""), "test");
    EXPECT_EQ(first.stringOr("message", ""), "first");
    EXPECT_EQ(first.numberOr("request", 0), 11.0);
    EXPECT_GT(first.numberOr("seq", 0), 0.0);

    // An empty ring refuses to dump: a blank black box is noise.
    blackbox::resetForTest();
    EXPECT_TRUE(blackbox::dump("empty", dir.string()).empty());
}

// A server that dumps the same reason again and again rewrites one
// file; the dump list names that file once, not once per dump.
TEST(TelemetryTest, BlackboxListsARewrittenFileOnce)
{
    blackbox::resetForTest();
    const auto dir = std::filesystem::temp_directory_path() /
                     "uvolt_blackbox_once";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    note(LogLevel::error, "serve", "deadline streak at 8");
    const std::string first = blackbox::dump("storm", dir.string());
    ASSERT_FALSE(first.empty());
    note(LogLevel::error, "serve", "deadline streak at 8");
    EXPECT_EQ(blackbox::dump("storm", dir.string()), first);

    EXPECT_EQ(blackbox::dumps(), std::vector<std::string>{first});
    blackbox::resetForTest();
}

TEST(TelemetryTest, BlackboxRingOverwritesOldest)
{
    blackbox::resetForTest();

    const std::size_t capacity = blackbox::capacity;
    for (std::size_t i = 0; i < capacity + 10; ++i)
        note(LogLevel::info, "test", "event " + std::to_string(i));
    const auto dir = std::filesystem::temp_directory_path() /
                     "uvolt_blackbox_wrap";
    auto parsed =
        json::Value::parseFile(blackbox::dump("wrap", dir.string()));
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed.value().numberOr("recorded", 0),
              static_cast<double>(capacity + 10));
    EXPECT_EQ(parsed.value().numberOr("dropped", 0), 10.0);
    const auto &events = parsed.value().find("events")->items();
    ASSERT_EQ(events.size(), capacity);
    // The retained window is the most recent `capacity` events, still
    // in sequence order after the wrap.
    EXPECT_EQ(events.front().numberOr("seq", 0), 11.0);
    EXPECT_EQ(events.back().numberOr("seq", 0),
              static_cast<double>(capacity + 10));
    blackbox::resetForTest();
}

TEST(TelemetryTest, BlackboxRingStaysOrderedUnderConcurrentWriters)
{
    blackbox::resetForTest();
    const auto dir = std::filesystem::temp_directory_path() /
                     "uvolt_blackbox_ring";
    std::filesystem::remove_all(dir);

    // 8 writers x 200 events wrap the 1024-event ring while a ninth
    // thread dumps it in a loop. Each writer's last event waits until
    // every writer is through its other events, so the last 8 events
    // of the run are known and a dump after the joins must hold them.
    constexpr int writers = 8;
    constexpr int perWriter = 200;
    std::latch last_round(writers);
    std::atomic<bool> done{false};
    int dumps = 0;
    int disordered = 0;
    std::thread dumper([&] {
        while (!done.load() || dumps < 3) {
            const std::string path =
                blackbox::dump("concurrent", dir.string());
            if (path.empty())
                continue; // no writer has recorded yet
            ++dumps;
            auto parsed = json::Value::parseFile(path);
            if (!parsed.ok()) {
                ++disordered;
                continue;
            }
            double last_seq = 0;
            for (const json::Value &event :
                 parsed.value().find("events")->items()) {
                const double seq = event.numberOr("seq", 0);
                disordered += seq <= last_seq;
                last_seq = seq;
            }
        }
    });
    std::vector<std::thread> producers;
    for (int w = 0; w < writers; ++w) {
        producers.emplace_back([&last_round, w] {
            for (int i = 0; i + 1 < perWriter; ++i) {
                if (i % 2)
                    warnc("ringtest", "writer {} event {}", w, i);
                else
                    note(LogLevel::info, "ringtest",
                         strFormat("writer {} event {}", w, i));
            }
            last_round.arrive_and_wait();
            note(LogLevel::info, "ringtest", strFormat("writer {} last", w));
        });
    }
    for (std::thread &producer : producers)
        producer.join();
    done = true;
    dumper.join();
    EXPECT_GE(dumps, 3);
    EXPECT_EQ(disordered, 0);

    auto parsed =
        json::Value::parseFile(blackbox::dump("joined", dir.string()));
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const double recorded = writers * perWriter;
    EXPECT_EQ(parsed.value().numberOr("recorded", 0), recorded);
    EXPECT_EQ(parsed.value().numberOr("dropped", 0),
              recorded - static_cast<double>(blackbox::capacity));
    const auto &events = parsed.value().find("events")->items();
    ASSERT_EQ(events.size(), blackbox::capacity);
    std::set<std::string> last_events;
    for (std::size_t i = events.size() - writers; i < events.size(); ++i)
        last_events.insert(events[i].stringOr("message", ""));
    for (int w = 0; w < writers; ++w)
        EXPECT_EQ(last_events.count(strFormat("writer {} last", w)), 1u)
            << w;
    blackbox::resetForTest();
}

TEST(TelemetryTest, ExitedThreadsHandTheirShardsToNewThreads)
{
    TelemetryOn guard;
    Counter &bumps = Registry::global().counter("test.recycled_bumps");

    // Five pools of 4 workers, one after another: each pool's workers
    // adopt the shards the previous pool's workers left behind, so the
    // named lanes stop growing after the first pool, and the exited
    // workers' counts still merge into the snapshot. Each pool's jobs
    // meet at a latch, so all 4 of its workers are alive at once (a
    // worker that started after a sibling exited would reuse its lane).
    constexpr int pools = 5;
    constexpr int workers = 4;
    std::vector<std::size_t> lanes;
    for (int p = 0; p < pools; ++p) {
        {
            ThreadPool pool(workers, strFormat("recycle-{}", p));
            std::latch all_live(workers);
            for (int job = 0; job < workers; ++job) {
                pool.submit([&bumps, &all_live] {
                    bumps.increment();
                    all_live.arrive_and_wait();
                });
            }
            pool.wait();
        }
        lanes.push_back(Registry::global().threadNames().size());
    }
    for (int p = 1; p < pools; ++p)
        EXPECT_EQ(lanes[p], lanes[0]) << "pool " << p;
    EXPECT_EQ(Registry::global().metrics().counter("test.recycled_bumps"),
              static_cast<std::uint64_t>(pools * workers));
}

} // namespace
} // namespace uvolt::telemetry
