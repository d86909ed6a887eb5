/**
 * @file
 * Tests for the perf timeline: uvolt-timeline-v2 row bytes against a
 * committed fixture (machine block included), the machine digest,
 * appends over a real file, util/fsio's atomic append primitive, and
 * the property the format exists for — concurrent appenders interleave
 * whole rows, never torn ones. scripts/check_perf.py is the rows'
 * reader; its --selftest covers the reading side.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
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

/** The lines of the file at @a path, without their '\n'. */
std::vector<std::string>
readLines(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
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
    // Every field of the sample, escapes included, lands in one line
    // byte for byte as the committed fixture has it.
    const std::string line = sampleRow("run-1").toJsonLine();
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const std::vector<std::string> fixture = readLines(
        std::string(UVOLT_TEST_FIXTURES) + "/timeline_row_sample.jsonl");
    ASSERT_EQ(fixture.size(), 1u);
    EXPECT_EQ(line, fixture[0]);
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

    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(lines[i], sampleRow(strFormat("run-{}", i)).toJsonLine());
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

    const auto rowOf = [](int w, int i) {
        TimelineRow row = sampleRow(strFormat("writer{}-row{}", w, i));
        // Vary the payload size so torn writes would misalign.
        row.metrics.resize(1 + (w * rows_each + i) % 3);
        return row;
    };
    std::vector<std::thread> pool;
    for (int w = 0; w < writers; ++w) {
        pool.emplace_back([&path, &rowOf, w] {
            const Timeline timeline(path.string());
            for (int i = 0; i < rows_each; ++i)
                ASSERT_TRUE(timeline.append(rowOf(w, i)).ok());
        });
    }
    for (auto &thread : pool)
        thread.join();

    // Every line is one whole row, byte for byte, and every writer's
    // full set arrived exactly once.
    std::multiset<std::string> expected;
    for (int w = 0; w < writers; ++w) {
        for (int i = 0; i < rows_each; ++i)
            expected.insert(rowOf(w, i).toJsonLine());
    }
    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), static_cast<std::size_t>(writers * rows_each));
    for (const std::string &line : lines) {
        const auto match = expected.find(line);
        ASSERT_NE(match, expected.end()) << "torn or foreign row: " << line;
        expected.erase(match);
    }
    EXPECT_TRUE(expected.empty());
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
