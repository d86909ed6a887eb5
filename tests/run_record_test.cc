/**
 * @file
 * Tests for the run record: uvolt-run-v1 bytes of a fleet-plan record
 * and a metrics record against a committed fixture, the header start()
 * fills, the machine digest, the config digest, appends over a real
 * file, util/fsio's atomic append primitive, the property the format
 * exists for — concurrent appenders interleave whole lines, never torn
 * ones, even for records far over the pipe-buffer bound — and the
 * Campaign end-to-end flow appending one record to its ledger.
 * scripts/check_perf.py is the records' reader; its --selftest covers
 * the reading side.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/campaign.hh"
#include "harness/run_record.hh"
#include "json_value.hh"
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
    return std::filesystem::temp_directory_path() / "uvolt_run_record_test" /
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

Machine
sampleMachine()
{
    Machine machine;
    machine.host = "bench-host";
    machine.os = "Linux 6.1";
    machine.cpuModel = "Some CPU @ 2.0GHz";
    machine.cores = 8;
    machine.isa = "avx2 fma";
    machine.compiler = "13.2.0";
    machine.buildType = "RelWithDebInfo";
    machine.buildFlags = "-O2 -g -Wall \"-march=native\"";
    machine.telemetryEnabled = true;
    machine.digest = machine.fingerprint();
    return machine;
}

/** A FleetEngine record: plan, execution, dies, artifacts, counters. */
RunRecord
sampleFleetRecord()
{
    RunRecord record;
    record.tool = "FleetEngine";
    record.runId = "f3d802fe-1754395200000";
    record.gitSha = "abc1234";
    record.startedAtIso = "2026-08-05T12:00:00Z";
    record.configDigest = configDigest("sample");
    record.machine = sampleMachine();
    record.workers = 8;
    record.durationMs = 123.5;
    RunRecord::Fleet &fleet = record.fleet.emplace();
    fleet.runsPerLevel = 15;
    fleet.stepMv = 10;
    fleet.collectPerBram = false;
    fleet.discoverRegions = true;
    fleet.maxAttemptsPerJob = 3;
    fleet.jobs = {{"VC707-p16_hFFFF-t50", 0, "bram"},
                  {"HBM2-A-ones-50C", 42, "hbm"},
                  {"MORS-SRAM-A-ones-50C", 0, "sram"}};
    fleet.jobRetries = 1;
    fleet.crashRecoveries = 2;
    fleet.checkpointResumes = 3;
    fleet.dieRates = {{"VC707", 642.0}, {"HBM2-A", 151.25}};
    record.artifacts = {"results/ckpt", "results/fvm_cache"};
    record.blackboxPaths = {"results/blackbox_degraded.json"};
    record.counters = {{"fleet.jobs", 3}, {"sweep.campaigns", 3}};
    return record;
}

/** A bench record: metrics, observability paths, escapes. */
RunRecord
sampleMetricsRecord(const std::string &run_id)
{
    RunRecord record;
    record.tool = "ext_serve";
    record.runId = run_id;
    record.gitSha = "abc123";
    record.startedAtIso = "2026-08-09T10:00:00Z";
    record.configDigest = "deadbeefdeadbeef";
    record.machine = sampleMachine();
    record.baseline = true;
    record.workers = 4;
    record.durationMs = 1234.5;
    record.artifacts = {"results/ext_serve.csv"};
    record.tracePath = "results/ext_serve_trace.json";
    record.prometheusPath = "results/ext_serve_metrics.prom";
    record.counters = {{"serve.admitted", 300}, {"serve.shed", 0}};
    record.metrics = {{"e2e_p50_ms", 1.25}, {"e2e_p99_ms", 20.5},
                      {"name with \"quotes\"", -0.5},
                      {"serve.classify.self_ms", 412.0}};
    return record;
}

/** The fixture's lines: [0] the fleet record, [1] the metrics record. */
std::vector<std::string>
fixtureLines()
{
    return readLines(std::string(UVOLT_TEST_FIXTURES) +
                     "/run_record_sample.jsonl");
}

TEST(Ledger, ManifestRoundTripsThroughJson)
{
    // The record a FleetEngine appends to its ledger: every field of the
    // sample lands in one line byte for byte as the committed fixture
    // has it, so the format does not drift.
    const std::vector<std::string> fixture = fixtureLines();
    ASSERT_EQ(fixture.size(), 2u);
    const RunRecord record = sampleFleetRecord();
    const std::string line = record.toJsonLine();
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_EQ(line, fixture[0]);

    // And it parses back to the values it was written from.
    const auto parsed = json::Value::parse(line);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const json::Value &v = parsed.value();
    EXPECT_EQ(v.stringOr("schema", ""), RunRecord::schema);
    EXPECT_EQ(v.stringOr("tool", ""), record.tool);
    EXPECT_EQ(v.stringOr("run_id", ""), record.runId);
    EXPECT_EQ(v.stringOr("config_digest", ""), record.configDigest);
    EXPECT_EQ(v.at("machine").stringOr("digest", ""),
              record.machine.digest);
    EXPECT_EQ(v.numberOr("workers", -1), 8.0);
    EXPECT_EQ(v.numberOr("duration_ms", -1), 123.5);

    const RunRecord::Fleet &fleet = *record.fleet;
    const json::Value &plan = v.at("plan");
    EXPECT_EQ(plan.numberOr("runs_per_level", 0), fleet.runsPerLevel);
    EXPECT_EQ(plan.numberOr("step_mv", 0), fleet.stepMv);
    EXPECT_FALSE(plan.at("collect_per_bram").boolean());
    EXPECT_TRUE(plan.at("discover_regions").boolean());
    EXPECT_EQ(plan.numberOr("max_attempts_per_job", 0),
              fleet.maxAttemptsPerJob);
    const auto &jobs = plan.at("jobs").items();
    ASSERT_EQ(jobs.size(), fleet.jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].stringOr("label", ""), fleet.jobs[i].label);
        EXPECT_EQ(jobs[i].numberOr("noise_seed", -1),
                  static_cast<double>(fleet.jobs[i].noiseSeed));
    }

    const json::Value &execution = v.at("execution");
    EXPECT_EQ(execution.numberOr("job_retries", 0), 1.0);
    EXPECT_EQ(execution.numberOr("crash_recoveries", 0), 2.0);
    EXPECT_EQ(execution.numberOr("checkpoint_resumes", 0), 3.0);
    const auto &dies = v.at("dies").items();
    ASSERT_EQ(dies.size(), fleet.dieRates.size());
    for (std::size_t i = 0; i < dies.size(); ++i) {
        EXPECT_EQ(dies[i].stringOr("platform", ""), fleet.dieRates[i].first);
        EXPECT_EQ(dies[i].numberOr("faults_per_mbit_at_vcrash", 0),
                  fleet.dieRates[i].second);
    }
    EXPECT_EQ(v.at("artifacts").items().size(), record.artifacts.size());
    EXPECT_EQ(v.at("observability").at("blackboxes").items()[0].string(),
              record.blackboxPaths[0]);
    EXPECT_EQ(v.at("telemetry").numberOr("fleet.jobs", 0), 3.0);
}

TEST(TimelineRow, JsonRoundtrip)
{
    // The record a bench appends to the timeline: every field of the
    // sample, escapes included, lands in one line byte for byte as the
    // committed fixture has it.
    const std::vector<std::string> fixture = fixtureLines();
    ASSERT_EQ(fixture.size(), 2u);
    const RunRecord record = sampleMetricsRecord("run-1");
    const std::string line = record.toJsonLine();
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_EQ(line, fixture[1]);

    // It parses back with every metric, and with no plan: only a
    // FleetEngine record has one.
    const auto parsed = json::Value::parse(line);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const json::Value &v = parsed.value();
    EXPECT_EQ(v.stringOr("tool", ""), record.tool);
    EXPECT_EQ(v.stringOr("run_id", ""), "run-1");
    EXPECT_TRUE(v.at("baseline").boolean());
    EXPECT_EQ(v.at("observability").stringOr("trace", ""), record.tracePath);
    EXPECT_EQ(v.at("observability").stringOr("prometheus", ""),
              record.prometheusPath);
    const json::Value &metrics = v.at("metrics");
    ASSERT_EQ(metrics.members().size(), record.metrics.size());
    for (const auto &[name, value] : record.metrics)
        EXPECT_EQ(metrics.numberOr(name, 0), value) << name;
    EXPECT_EQ(v.at("telemetry").numberOr("serve.admitted", 0), 300.0);
    EXPECT_EQ(v.find("plan"), nullptr);
    EXPECT_EQ(v.find("execution"), nullptr);
}

TEST(Timeline, NowIso8601Shape)
{
    // start() stamps UTC seconds and the run id "<digest8>-<epoch_ms>".
    const RunRecord record = RunRecord::start("tool", "config");
    const std::string &stamp = record.startedAtIso;
    ASSERT_EQ(stamp.size(), 20u);
    EXPECT_EQ(stamp[4], '-');
    EXPECT_EQ(stamp[10], 'T');
    EXPECT_EQ(stamp.back(), 'Z');

    EXPECT_EQ(record.tool, "tool");
    EXPECT_EQ(record.configDigest, configDigest("config"));
    EXPECT_FALSE(record.gitSha.empty());
    ASSERT_GT(record.runId.size(), 9u);
    EXPECT_EQ(record.runId.substr(0, 9),
              record.configDigest.substr(0, 8) + "-");
    const std::string epoch_ms = record.runId.substr(9);
    EXPECT_EQ(epoch_ms.find_first_not_of("0123456789"), std::string::npos);
    EXPECT_GE(epoch_ms.size(), 13u);
    EXPECT_FALSE(record.fleet.has_value());
}

TEST(Machine, DigestIsSharedInProcessAndTracksTelemetry)
{
    const Machine first = RunRecord::start("a", "one").machine;
    const Machine second = RunRecord::start("b", "two").machine;
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
    const Machine flipped = RunRecord::start("a", "one").machine;
    telemetry::Telemetry::setEnabled(was);
    EXPECT_NE(flipped.digest, first.digest);
}

TEST(Ledger, ConfigDigestIsStableAndDiscriminating)
{
    EXPECT_EQ(configDigest("abc"), configDigest("abc"));
    EXPECT_NE(configDigest("abc"), configDigest("abd"));
    // FNV-1a 64: the serving daemon seeds characterize requests from
    // these bytes, so they are pinned.
    EXPECT_EQ(configDigest("abc"), "e71fa2190541574b");
    EXPECT_EQ(configDigest(""), "cbf29ce484222325");
}

TEST(Timeline, AppendThenLoadPreservesOrder)
{
    const auto path = tempFile("history.jsonl");
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(sampleMetricsRecord(strFormat("run-{}", i))
                        .append(path.string())
                        .ok());
    }
    ASSERT_TRUE(sampleFleetRecord().append(path.string()).ok());

    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 4u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(lines[i],
                  sampleMetricsRecord(strFormat("run-{}", i)).toJsonLine());
    }
    EXPECT_EQ(lines[3], sampleFleetRecord().toJsonLine());
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

    // Record sizes cycle through about 1, 9 and 17 KB, so two lines in
    // three are over the 4 KB pipe-buffer bound, and torn writes would
    // misalign.
    const auto recordOf = [](int w, int i) {
        RunRecord record =
            sampleMetricsRecord(strFormat("writer{}-row{}", w, i));
        const std::size_t kilobytes = 8 * ((w * rows_each + i) % 3);
        record.artifacts.push_back(
            std::string(kilobytes * 1024, static_cast<char>('a' + w)));
        return record.toJsonLine();
    };
    std::vector<std::thread> pool;
    for (int w = 0; w < writers; ++w) {
        pool.emplace_back([&path, &recordOf, w] {
            for (int i = 0; i < rows_each; ++i)
                ASSERT_TRUE(
                    appendFileRecord(path.string(), recordOf(w, i)).ok());
        });
    }
    for (auto &thread : pool)
        thread.join();

    // Every line is one whole record, byte for byte, and every writer's
    // full set arrived exactly once.
    std::multiset<std::string> expected;
    std::size_t largest = 0;
    for (int w = 0; w < writers; ++w) {
        for (int i = 0; i < rows_each; ++i) {
            expected.insert(recordOf(w, i));
            largest = std::max(largest, recordOf(w, i).size());
        }
    }
    EXPECT_GT(largest, 16u * 1024);
    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), static_cast<std::size_t>(writers * rows_each));
    for (const std::string &line : lines) {
        const auto match = expected.find(line);
        ASSERT_NE(match, expected.end())
            << "torn or foreign line of " << line.size() << " bytes";
        expected.erase(match);
    }
    EXPECT_TRUE(expected.empty());
    std::filesystem::remove_all(testDir());
}

TEST(Timeline, DefaultPathHonorsEnvironment)
{
    ::setenv("UVOLT_TIMELINE", "/tmp/elsewhere.jsonl", 1);
    ::setenv("UVOLT_LEDGER_DIR", "/tmp/ledger", 1);
    EXPECT_EQ(defaultTimelinePath(), "/tmp/elsewhere.jsonl");
    EXPECT_EQ(defaultLedgerDir(), "/tmp/ledger");
    ::unsetenv("UVOLT_TIMELINE");
    ::unsetenv("UVOLT_LEDGER_DIR");
    EXPECT_EQ(defaultTimelinePath(), "results/timeline.jsonl");
    EXPECT_EQ(defaultLedgerDir(), "results/ledger");
}

// --- the FleetEngine's ledger ------------------------------------------

/** The records a ledger in @a dir holds, parsed, oldest first. */
std::vector<json::Value>
ledgerRecords(const std::filesystem::path &dir)
{
    std::vector<json::Value> records;
    for (const std::string &line : readLines(dir / "runs.jsonl")) {
        auto parsed = json::Value::parse(line);
        EXPECT_TRUE(parsed.ok()) << parsed.error().message;
        if (parsed.ok())
            records.push_back(parsed.take());
    }
    return records;
}

TEST(Ledger, CampaignRunAppendsOneRecord)
{
    const auto dir = testDir();
    std::filesystem::remove_all(dir);
    Campaign campaign = Campaign::onPlatform("ZC702");
    campaign.sweep(2).stepMv(50).perBramMaps(false).ledgerUnder(
        dir.string());
    const FleetResult result = campaign.run().orFatal();
    ASSERT_EQ(result.jobs.size(), 1u);

    const std::vector<json::Value> records = ledgerRecords(dir);
    ASSERT_EQ(records.size(), 1u);
    const json::Value &r = records[0];
    EXPECT_EQ(r.stringOr("schema", ""), RunRecord::schema);
    EXPECT_EQ(r.stringOr("tool", ""), "FleetEngine");
    EXPECT_FALSE(r.stringOr("run_id", "").empty());
    EXPECT_FALSE(r.stringOr("started_at", "").empty());
    EXPECT_EQ(r.stringOr("config_digest", "").size(), 16u);
    EXPECT_EQ(r.at("machine").stringOr("digest", ""),
              Machine::current().digest);
    EXPECT_EQ(r.numberOr("workers", -1), 0.0); // serial run
    EXPECT_GE(r.numberOr("duration_ms", -1), 0.0);
    const json::Value &plan = r.at("plan");
    const auto &jobs = plan.at("jobs").items();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].stringOr("label", ""), result.jobs[0].job.label());
    EXPECT_EQ(jobs[0].stringOr("backend", ""), "bram");
    EXPECT_EQ(plan.numberOr("runs_per_level", 0), 2.0);
    EXPECT_EQ(plan.numberOr("step_mv", 0), 50.0);
    EXPECT_FALSE(plan.at("collect_per_bram").boolean());
    EXPECT_EQ(r.at("execution").numberOr("job_retries", -1), 0.0);
    const auto &dies = r.at("dies").items();
    ASSERT_EQ(dies.size(), 1u);
    EXPECT_EQ(dies[0].stringOr("platform", ""), "ZC702");

    // A second run appends; the first record stays as it was.
    (void)campaign.run().orFatal();
    const std::vector<json::Value> both = ledgerRecords(dir);
    ASSERT_EQ(both.size(), 2u);
    EXPECT_EQ(both[0].stringOr("run_id", ""), r.stringOr("run_id", ""));
    std::filesystem::remove_all(dir);
}

// Counters are process-wide; each record carries what its own run
// added, so a second run does not count the first one's jobs again.
TEST(Ledger, EachRecordCountsItsOwnRun)
{
    const auto dir = testDir();
    std::filesystem::remove_all(dir);
    Campaign campaign = Campaign::onPlatform("ZC702");
    campaign.withPatterns({PatternSpec::allOnes(), PatternSpec::fixed(0xAAAA)})
        .sweep(1)
        .stepMv(50)
        .perBramMaps(false)
        .ledgerUnder(dir.string());
    const bool was = telemetry::Telemetry::enabled();
    telemetry::Telemetry::setEnabled(true); // counters count only when on
    (void)campaign.run().orFatal();
    (void)campaign.run().orFatal();
    telemetry::Telemetry::setEnabled(was);

    const std::vector<json::Value> records = ledgerRecords(dir);
    ASSERT_EQ(records.size(), 2u);
    for (const json::Value &record : records) {
        EXPECT_EQ(record.at("plan").at("jobs").items().size(), 2u);
        EXPECT_EQ(record.at("telemetry").numberOr("fleet.jobs", -1), 2.0);
    }
    std::filesystem::remove_all(dir);
}

TEST(Ledger, DisabledLedgerWritesNothing)
{
    const auto dir = testDir();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Campaign campaign = Campaign::onPlatform("ZC702");
    campaign.sweep(1).stepMv(50).perBramMaps(false).ledgerUnder("");
    (void)campaign.run().orFatal();
    EXPECT_FALSE(std::filesystem::exists(dir / "runs.jsonl"));
    std::filesystem::remove_all(dir);
}

TEST(Ledger, IdenticalPlansShareADigestDistinctPlansDoNot)
{
    const auto digestOf = [](int runs_per_level, const char *name) {
        const auto dir = testDir() / name;
        std::filesystem::remove_all(dir);
        Campaign campaign = Campaign::onPlatform("ZC702");
        campaign.sweep(runs_per_level).stepMv(50).perBramMaps(false);
        campaign.ledgerUnder(dir.string());
        (void)campaign.run().orFatal();
        const std::vector<json::Value> records = ledgerRecords(dir);
        EXPECT_EQ(records.size(), 1u);
        return records.empty() ? std::string()
                               : records[0].stringOr("config_digest", "");
    };
    const std::string digest_a = digestOf(2, "a");
    const std::string digest_b = digestOf(2, "b");
    const std::string digest_c = digestOf(3, "c");
    ASSERT_FALSE(digest_a.empty());
    EXPECT_EQ(digest_a, digest_b);
    ASSERT_FALSE(digest_c.empty());
    EXPECT_NE(digest_a, digest_c);
    std::filesystem::remove_all(testDir());
}

} // namespace
} // namespace uvolt::harness
