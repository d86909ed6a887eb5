/**
 * @file
 * Tests for the perf timeline: uvolt-timeline-v2 row JSON roundtrip
 * (machine block included), the machine digest, append/load over a
 * real file, schema and out-of-range-integer rejection, malformed-line
 * errors with position, util/fsio's atomic append primitive, and the
 * property the format exists for — concurrent appenders interleave
 * whole rows, never torn ones.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/timeline.hh"
#include "util/format.hh"
#include "util/fsio.hh"
#include "util/telemetry.hh"

namespace uvolt::harness
{
namespace
{

/**
 * A scratch directory of the running test's own. ctest runs each test
 * as a separate process, in parallel, so tests must not share one.
 */
std::filesystem::path
testDir()
{
    return std::filesystem::temp_directory_path() /
        "uvolt_timeline_test" /
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

std::filesystem::path
tempFile(const char *name)
{
    std::filesystem::remove_all(testDir());
    return testDir() / name;
}

TimelineRow
sampleRow(const std::string &run_id)
{
    TimelineRow row;
    row.tool = "ext_serve";
    row.runId = run_id;
    row.gitSha = "abc123";
    row.startedAtIso = "2026-08-09T10:00:00Z";
    row.configDigest = "deadbeefdeadbeef";
    row.machine.host = "bench-host";
    row.machine.os = "Linux 6.1";
    row.machine.cpuModel = "Some CPU @ 2.0GHz";
    row.machine.cores = 8;
    row.machine.isa = "avx2 fma";
    row.machine.compiler = "13.2.0";
    row.machine.buildType = "RelWithDebInfo";
    row.machine.buildFlags = "-O2 -g -Wall \"-march=native\"";
    row.machine.telemetryEnabled = true;
    row.machine.digest = row.machine.fingerprint();
    row.baseline = true;
    row.workers = 4;
    row.durationMs = 1234.5;
    row.metrics = {{"e2e_p50_ms", 1.25}, {"e2e_p99_ms", 20.5},
                   {"name with \"quotes\"", -0.5},
                   {"serve.classify.self_ms", 412.0}};
    return row;
}

TEST(TimelineRow, JsonRoundtrip)
{
    const TimelineRow row = sampleRow("run-1");
    const std::string line = row.toJsonLine();
    EXPECT_EQ(line.find('\n'), std::string::npos);

    const auto parsed = TimelineRow::fromJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const TimelineRow &back = parsed.value();
    EXPECT_EQ(back.tool, row.tool);
    EXPECT_EQ(back.runId, row.runId);
    EXPECT_EQ(back.gitSha, row.gitSha);
    EXPECT_EQ(back.startedAtIso, row.startedAtIso);
    EXPECT_EQ(back.configDigest, row.configDigest);
    EXPECT_EQ(back.machine, row.machine);
    EXPECT_EQ(back.baseline, row.baseline);
    EXPECT_EQ(back.workers, row.workers);
    EXPECT_NEAR(back.durationMs, row.durationMs, 1e-3);
    ASSERT_EQ(back.metrics.size(), row.metrics.size());
    for (std::size_t i = 0; i < row.metrics.size(); ++i) {
        EXPECT_EQ(back.metrics[i].first, row.metrics[i].first);
        EXPECT_NEAR(back.metrics[i].second, row.metrics[i].second,
                    1e-6);
    }
}

TEST(TimelineRow, LegacyTopFramesStillParse)
{
    // Committed history (bench/timeline_seed.jsonl) still carries a
    // "top_frames" array: an unknown key, ignored whatever it holds.
    const auto row = TimelineRow::fromJson(
        "{\"schema\": \"uvolt-timeline-v2\", \"tool\": \"ext_serve\", "
        "\"metrics\": {\"req_cost_ms\": 0.25}, \"top_frames\": "
        "[{\"frame\": \"f\", \"self\": 1e999}]}");
    ASSERT_TRUE(row.ok()) << row.error().message;
    EXPECT_EQ(row.value().tool, "ext_serve");
    ASSERT_EQ(row.value().metrics.size(), 1u);
    EXPECT_EQ(row.value().metrics[0].first, "req_cost_ms");

    // Its machine blocks also carry "telemetry_compiled_in", a field
    // the build no longer has: ignored too, and the digest the row
    // recorded is kept as written.
    const auto seed = TimelineRow::fromJson(
        "{\"schema\": \"uvolt-timeline-v2\", \"tool\": \"bench_all\", "
        "\"machine\": {\"digest\": \"81649a3089a2e4d5\", \"cores\": 1, "
        "\"telemetry_compiled_in\": true, \"telemetry_enabled\": false}}");
    ASSERT_TRUE(seed.ok()) << seed.error().message;
    EXPECT_EQ(seed.value().tool, "bench_all");
    EXPECT_EQ(seed.value().machine.digest, "81649a3089a2e4d5");
    EXPECT_EQ(seed.value().machine.cores, 1u);
    EXPECT_FALSE(seed.value().machine.telemetryEnabled);
}

TEST(TimelineRow, RejectsWrongSchema)
{
    EXPECT_FALSE(TimelineRow::fromJson("{\"schema\": \"nope\"}").ok());
    EXPECT_FALSE(TimelineRow::fromJson("[1, 2]").ok());
    EXPECT_FALSE(TimelineRow::fromJson("not json at all").ok());
}

TEST(TimelineRow, RejectsOutOfRangeIntegers)
{
    // Casting these to an integer field would be undefined behavior.
    for (const char *text :
         {"{\"schema\": \"uvolt-timeline-v2\", \"workers\": -1}",
          "{\"schema\": \"uvolt-timeline-v2\", \"workers\": 1e999}",
          "{\"schema\": \"uvolt-timeline-v2\", \"machine\": "
          "{\"cores\": -1}}"}) {
        const auto row = TimelineRow::fromJson(text);
        ASSERT_FALSE(row.ok()) << text;
        EXPECT_EQ(row.error().code, Errc::corruptCache);
        EXPECT_NE(row.error().message.find("not a count"),
                  std::string::npos)
            << row.error().message;
    }
}

TEST(Machine, DigestIsSharedInProcessAndTracksTelemetry)
{
    const Machine first = TimelineRow::start("a", "one").machine;
    const Machine second = TimelineRow::start("b", "two").machine;
    EXPECT_FALSE(first.digest.empty());
    EXPECT_EQ(first.digest, first.fingerprint());
    EXPECT_EQ(first.digest, second.digest);
    EXPECT_GE(first.cores, 1u);

    // Host and OS are provenance; telemetry state is part of the build.
    Machine moved = first;
    moved.host = "elsewhere";
    moved.os = "other";
    EXPECT_EQ(moved.fingerprint(), first.digest);
    Machine toggled = first;
    toggled.telemetryEnabled = !toggled.telemetryEnabled;
    EXPECT_NE(toggled.fingerprint(), first.digest);

    const bool was = telemetry::Telemetry::enabled();
    telemetry::Telemetry::setEnabled(!was);
    const Machine flipped = TimelineRow::start("a", "one").machine;
    telemetry::Telemetry::setEnabled(was);
    EXPECT_NE(flipped.digest, first.digest);
}

TEST(Timeline, AppendThenLoadPreservesOrder)
{
    const auto path = tempFile("history.jsonl");
    const Timeline timeline(path.string());
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(
            timeline.append(sampleRow(strFormat("run-{}", i))).ok());

    const auto rows = timeline.load();
    ASSERT_TRUE(rows.ok()) << rows.error().message;
    ASSERT_EQ(rows.value().size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(rows.value()[i].runId, strFormat("run-{}", i));
    std::filesystem::remove_all(testDir());
}

TEST(Timeline, MissingFileLoadsEmpty)
{
    const Timeline timeline(tempFile("never_written.jsonl").string());
    const auto rows = timeline.load();
    ASSERT_TRUE(rows.ok());
    EXPECT_TRUE(rows.value().empty());
}

TEST(Timeline, MalformedLineFailsWithPosition)
{
    const auto path = tempFile("torn.jsonl");
    const Timeline timeline(path.string());
    ASSERT_TRUE(timeline.append(sampleRow("run-0")).ok());
    ASSERT_TRUE(
        appendFileRecord(path.string(), "{\"schema\": \"uvolt-t").ok());
    const auto rows = timeline.load();
    ASSERT_FALSE(rows.ok());
    EXPECT_NE(rows.error().message.find(":2:"), std::string::npos)
        << rows.error().message;
    std::filesystem::remove_all(testDir());
}

TEST(Fsio, AppendFileRecordCreatesParentsAndTerminates)
{
    const auto path = tempFile("deep/nested/records.jsonl");
    ASSERT_TRUE(appendFileRecord(path.string(), "one").ok());
    ASSERT_TRUE(appendFileRecord(path.string(), "two\n").ok());
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text, "one\ntwo\n"); // exactly one '\n' per record
    std::filesystem::remove_all(testDir());
}

TEST(Timeline, ConcurrentAppendersNeverTearRows)
{
    const auto path = tempFile("concurrent.jsonl");
    constexpr int writers = 8;
    constexpr int rows_each = 25;

    std::vector<std::thread> pool;
    for (int w = 0; w < writers; ++w) {
        pool.emplace_back([&path, w] {
            const Timeline timeline(path.string());
            for (int i = 0; i < rows_each; ++i) {
                TimelineRow row = sampleRow(
                    strFormat("writer{}-row{}", w, i));
                // Vary the payload size so torn writes would misalign.
                row.metrics.resize(1 + (w * rows_each + i) % 3);
                ASSERT_TRUE(timeline.append(row).ok());
            }
        });
    }
    for (auto &thread : pool)
        thread.join();

    // Every row parses (no torn lines) and every writer's full set
    // arrived exactly once.
    const auto rows = Timeline(path.string()).load();
    ASSERT_TRUE(rows.ok()) << rows.error().message;
    ASSERT_EQ(rows.value().size(),
              static_cast<std::size_t>(writers * rows_each));
    std::vector<int> seen(writers, 0);
    for (const auto &row : rows.value()) {
        int w = -1;
        ASSERT_EQ(std::sscanf(row.runId.c_str(), "writer%d-", &w), 1);
        ASSERT_GE(w, 0);
        ASSERT_LT(w, writers);
        ++seen[w];
    }
    for (int w = 0; w < writers; ++w)
        EXPECT_EQ(seen[w], rows_each);
    std::filesystem::remove_all(testDir());
}

TEST(Timeline, NowIso8601Shape)
{
    const std::string stamp = nowIso8601();
    ASSERT_EQ(stamp.size(), 20u);
    EXPECT_EQ(stamp[4], '-');
    EXPECT_EQ(stamp[10], 'T');
    EXPECT_EQ(stamp.back(), 'Z');
}

TEST(Timeline, DefaultPathHonorsEnvironment)
{
    ::setenv("UVOLT_TIMELINE", "/tmp/elsewhere.jsonl", 1);
    EXPECT_EQ(Timeline::defaultPath(), "/tmp/elsewhere.jsonl");
    ::unsetenv("UVOLT_TIMELINE");
    EXPECT_EQ(Timeline::defaultPath(), "results/timeline.jsonl");
}

} // namespace
} // namespace uvolt::harness
