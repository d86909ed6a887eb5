/**
 * @file
 * Tests for the harsh-environment resilience layer: the error taxonomy,
 * CRC-verified retransmission, PMBus verify-after-write, spurious-crash
 * recovery in the campaign engine, serialized checkpoint resume, and
 * the hardened voltage governor.
 *
 * The central invariant under test: every maskable injected fault class
 * (frame corruption, NACKs, setpoint jitter, spurious crashes) is fully
 * absorbed by retries and recovery, so a noisy campaign's measurements
 * are bit-identical to a quiet one's.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "fpga/fault_domain.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "harness/governor.hh"
#include "pmbus/board.hh"
#include "pmbus/fault_injector.hh"
#include "pmbus/serial_link.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace uvolt::harness
{
namespace
{

using pmbus::Board;
using pmbus::FaultInjector;
using pmbus::NoiseConfig;
using pmbus::SerialLink;

TEST(ErrorTaxonomy, ExpectedHoldsValueOrError)
{
    Expected<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 7);
    EXPECT_EQ(good.code(), Errc::ok);

    Expected<int> bad(makeError(Errc::linkExhausted, "gave up after {}",
                                3));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), Errc::linkExhausted);
    EXPECT_NE(bad.error().message.find("[link-exhausted]"),
              std::string::npos);
    EXPECT_NE(bad.error().message.find("gave up after 3"),
              std::string::npos);
}

TEST(ErrorTaxonomy, VoidExpectedAndNames)
{
    Expected<void> good;
    EXPECT_TRUE(good.ok());
    Expected<void> bad(makeError(Errc::badCheckpoint, "nope"));
    EXPECT_FALSE(bad.ok());
    EXPECT_STREQ(errcName(Errc::crashDetected), "crash-detected");
    EXPECT_STREQ(errcName(Errc::pmbusExhausted), "pmbus-exhausted");
    EXPECT_STREQ(errcName(Errc::recoveryExhausted), "recovery-exhausted");
}

TEST(ErrorTaxonomy, OrFatalDiesWithTaxonomyName)
{
    Expected<int> bad(makeError(Errc::verifyExhausted, "mismatch"));
    EXPECT_EXIT(std::move(bad).orFatal(), ::testing::ExitedWithCode(1),
                "verify-exhausted");
}

TEST(SerialRetry, RetransmitsUntilVerified)
{
    NoiseConfig noise;
    noise.seed = 42;
    noise.frameCorruptProb = 0.5;
    FaultInjector injector(noise);

    SerialLink link;
    link.attachInjector(&injector);
    const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};

    // A verified transfer leaves the host holding the payload itself.
    for (int i = 0; i < 50; ++i)
        ASSERT_TRUE(link.transferReliable(payload).ok());
    EXPECT_GT(link.stats().crcErrors, 0u);
    EXPECT_GT(link.stats().retransmits, 0u);
    EXPECT_GT(link.stats().backoffTicks, 0u);
    EXPECT_EQ(link.stats().exhausted, 0u);
}

TEST(SerialRetry, ExhaustionReportsLinkError)
{
    NoiseConfig noise;
    noise.frameCorruptProb = 1.0;
    FaultInjector injector(noise);

    SerialLink link;
    link.attachInjector(&injector);
    link.setMaxAttempts(3);

    const std::vector<std::uint8_t> payload{0xAA};
    auto frame = link.transferReliable(payload);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.code(), Errc::linkExhausted);
    EXPECT_EQ(link.stats().exhausted, 1u);
    EXPECT_EQ(link.stats().retransmits, 2u);
}

TEST(SerialRetry, ExhaustionPropagatesThroughBoardReadback)
{
    Board board(fpga::findPlatform("ZC702"));
    NoiseConfig noise;
    noise.frameCorruptProb = 1.0;
    board.attachNoise(noise);
    board.link().setMaxAttempts(2);
    board.device().fillAll(0xFFFF);
    board.startReferenceRun();

    auto observed = board.tryReadBramPacked(0);
    ASSERT_FALSE(observed.ok());
    EXPECT_EQ(observed.code(), Errc::linkExhausted);
}

// The copy-free readback is the readback: under seeded frame corruption,
// reading into a caller's plane and into a fresh vector observe the same
// planes and leave the link with the same frame, CRC-error, retransmit
// and backoff counts.
TEST(SerialRetry, SpanReadbackEqualsVectorReadbackUnderNoise)
{
    const fpga::PlatformSpec &spec = fpga::findPlatform("ZC702");
    NoiseConfig noise;
    noise.seed = 11;
    noise.frameCorruptProb = 0.3;
    Board into_span(spec);
    Board into_vector(spec);
    for (Board *board : {&into_span, &into_vector}) {
        board->attachNoise(noise);
        fillPattern(*board, PatternSpec::random(0.5, 3));
        board->setVccBramMv(spec.calib.bramVcrashMv);
        board->startReferenceRun();
    }

    std::vector<std::uint64_t> plane(fpga::bramWords);
    std::uint64_t faults = 0;
    for (std::uint32_t b = 0; b < spec.bramCount; ++b) {
        ASSERT_TRUE(into_span.tryReadBramPacked(b, plane).ok());
        auto fresh = into_vector.tryReadBramPacked(b);
        ASSERT_TRUE(fresh.ok());
        ASSERT_EQ(plane, fresh.value()) << "BRAM " << b;
        faults +=
            fpga::diffPopcount(into_span.device().bram(b).words(), plane);
    }
    EXPECT_GT(faults, 0u);

    const pmbus::LinkStats &span = into_span.link().stats();
    EXPECT_GT(span.crcErrors, 0u);
    {
        const pmbus::LinkStats &stats = into_vector.link().stats();
        EXPECT_EQ(stats.framesSent, span.framesSent);
        EXPECT_EQ(stats.bytesSent, span.bytesSent);
        EXPECT_EQ(stats.crcErrors, span.crcErrors);
        EXPECT_EQ(stats.retransmits, span.retransmits);
        EXPECT_EQ(stats.backoffTicks, span.backoffTicks);
        EXPECT_EQ(stats.exhausted, 0u);
    }
}

TEST(PmbusRetry, VerifyAfterWriteConvergesUnderNoise)
{
    Board board(fpga::findPlatform("ZC702"));
    NoiseConfig noise;
    noise.seed = 7;
    noise.pmbusNackProb = 0.1;
    noise.setpointJitterProb = 0.1;
    board.attachNoise(noise);
    board.setMaxPmbusAttempts(32);

    for (int mv = 1000; mv >= 560; mv -= 10) {
        ASSERT_TRUE(board.trySetVccBramMv(mv).ok());
        EXPECT_EQ(board.vccBramMv(), mv);
    }
    EXPECT_GT(board.pmbusStats().retries +
                  board.pmbusStats().verifyMismatches,
              0u);
    EXPECT_EQ(board.pmbusStats().exhausted, 0u);
}

TEST(PmbusRetry, ExhaustionReportsPmbusError)
{
    Board board(fpga::findPlatform("ZC702"));
    NoiseConfig noise;
    noise.pmbusNackProb = 1.0;
    board.attachNoise(noise);
    board.setMaxPmbusAttempts(2);

    auto result = board.trySetVccBramMv(620);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.code(), Errc::pmbusExhausted);
    EXPECT_EQ(board.pmbusStats().exhausted, 1u);
}

/** Options for a fast, fully-covered ZC702 sweep. */
SweepOptions
fastSweepOptions()
{
    SweepOptions options;
    options.runsPerLevel = 11;
    return options;
}

/** The whole point of the resilience layer, as one assertion. */
void
expectSameSweep(const SweepResult &quiet, const SweepResult &noisy)
{
    ASSERT_EQ(quiet.points.size(), noisy.points.size());
    for (std::size_t i = 0; i < quiet.points.size(); ++i) {
        const SweepPoint &a = quiet.points[i];
        const SweepPoint &b = noisy.points[i];
        EXPECT_EQ(a.vccBramMv, b.vccBramMv);
        EXPECT_EQ(a.runCounts, b.runCounts);
        EXPECT_DOUBLE_EQ(a.medianFaults, b.medianFaults);
        EXPECT_DOUBLE_EQ(a.faultsPerMbit, b.faultsPerMbit);
        EXPECT_EQ(a.perBramFaults, b.perBramFaults);
        EXPECT_DOUBLE_EQ(a.oneToZeroFraction, b.oneToZeroFraction);
    }
}

TEST(ResilientSweep, InjectedFaultsAreFullyMasked)
{
    Board quiet_board(fpga::findPlatform("ZC702"));
    const SweepResult quiet =
        runCriticalSweep(quiet_board, fastSweepOptions());
    EXPECT_EQ(quiet.resilience.crashRecoveries, 0u);
    EXPECT_EQ(quiet.resilience.linkRetransmits, 0u);
    EXPECT_EQ(quiet.resilience.pmbusRetries, 0u);

    Board noisy_board(fpga::findPlatform("ZC702"));
    NoiseConfig noise = NoiseConfig::harsh(1234, 0.02);
    noise.spuriousCrashProb = 0.5; // make the crash band bite
    noisy_board.attachNoise(noise);
    const SweepResult noisy =
        runCriticalSweep(noisy_board, fastSweepOptions());

    expectSameSweep(quiet, noisy);
    EXPECT_GT(noisy.resilience.crashRecoveries, 0u);
    EXPECT_GT(noisy.resilience.runsRetried, 0u);
    EXPECT_GT(noisy.resilience.linkRetransmits, 0u);
    EXPECT_GT(noisy.resilience.pmbusRetries, 0u);
}

TEST(ResilientSweep, DiscoverRegionsSurvivesNoise)
{
    Board quiet_board(fpga::findPlatform("ZC702"));
    const RegionResult quiet =
        tryDiscoverRegions(quiet_board, fpga::RailId::VccBram).orFatal();

    Board noisy_board(fpga::findPlatform("ZC702"));
    NoiseConfig noise = NoiseConfig::harsh(99, 0.02);
    noise.spuriousCrashProb = 0.5;
    noisy_board.attachNoise(noise);
    const RegionResult noisy =
        tryDiscoverRegions(noisy_board, fpga::RailId::VccBram).orFatal();

    EXPECT_EQ(quiet.vminMv, noisy.vminMv);
    EXPECT_EQ(quiet.vcrashMv, noisy.vcrashMv);
}

/**
 * A scratch checkpoint path of this process's own (ctest runs tests in
 * parallel processes, possibly from several build trees at once).
 */
std::string
scratchCheckpointPath(const std::string &tag)
{
    return (std::filesystem::temp_directory_path() /
            ("uvolt_resilience_" + std::to_string(::getpid()) + tag +
             ".ckpt"))
        .string();
}

std::string
fileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** The bytes saveCheckpointFile writes for a first save of @a checkpoint. */
std::string
savedText(SweepCheckpoint checkpoint)
{
    const std::string path = scratchCheckpointPath("");
    saveCheckpointFile(checkpoint, path);
    std::string text = fileText(path);
    std::filesystem::remove(path);
    return text;
}

Expected<SweepCheckpoint>
loadText(const std::string &text)
{
    std::stringstream stream(text);
    return loadCheckpoint(stream);
}

/** Where each section of a checkpoint log ends: past its trailer line. */
std::vector<std::size_t>
sectionEnds(const std::string &log)
{
    std::vector<std::size_t> ends;
    for (std::size_t at = 0; at < log.size();) {
        const std::size_t eol = log.find('\n', at);
        if (eol == std::string::npos)
            break;
        if (log.compare(at, 4, "end ") == 0)
            ends.push_back(eol + 1);
        at = eol + 1;
    }
    return ends;
}

/** Field-by-field equality, bit for bit (NaN equals NaN). */
void
expectSameCheckpoint(const SweepCheckpoint &a, const SweepCheckpoint &b)
{
    const auto same = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof x) == 0;
    };
    const auto same_all = [&](const std::vector<double> &x,
                              const std::vector<double> &y) {
        return x.size() == y.size() &&
            std::equal(x.begin(), x.end(), y.begin(), same);
    };
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.platform, b.platform);
    EXPECT_EQ(a.pattern.kind, b.pattern.kind);
    EXPECT_EQ(a.pattern.word, b.pattern.word);
    EXPECT_TRUE(same(a.pattern.oneDensity, b.pattern.oneDensity));
    EXPECT_EQ(a.pattern.seed, b.pattern.seed);
    EXPECT_TRUE(same(a.ambientC, b.ambientC));
    EXPECT_EQ(a.runsPerLevel, b.runsPerLevel);
    EXPECT_EQ(a.stepMv, b.stepMv);
    EXPECT_EQ(a.fromMv, b.fromMv);
    EXPECT_EQ(a.downToMv, b.downToMv);
    EXPECT_EQ(a.currentLevelMv, b.currentLevelMv);
    EXPECT_EQ(a.runsStarted, b.runsStarted);
    EXPECT_TRUE(same_all(a.currentRunCounts, b.currentRunCounts));
    ASSERT_EQ(a.completedPoints.size(), b.completedPoints.size());
    for (std::size_t i = 0; i < a.completedPoints.size(); ++i) {
        const SweepPoint &p = a.completedPoints[i];
        const SweepPoint &q = b.completedPoints[i];
        EXPECT_EQ(p.vccBramMv, q.vccBramMv);
        EXPECT_TRUE(same_all(p.runCounts, q.runCounts));
        EXPECT_EQ(p.runStats.count(), q.runStats.count());
        EXPECT_TRUE(same(p.runStats.mean(), q.runStats.mean()));
        EXPECT_TRUE(same(p.runStats.variance(), q.runStats.variance()));
        EXPECT_TRUE(same(p.medianFaults, q.medianFaults));
        EXPECT_TRUE(same(p.faultsPerMbit, q.faultsPerMbit));
        EXPECT_TRUE(same(p.bramPowerW, q.bramPowerW));
        EXPECT_TRUE(same(p.oneToZeroFraction, q.oneToZeroFraction));
        EXPECT_EQ(p.perBramFaults, q.perBramFaults);
    }
}

TEST(Checkpoint, StreamRoundTrip)
{
    Board board(fpga::findPlatform("ZC702"));
    SweepCheckpoint checkpoint;
    SweepOptions options = fastSweepOptions();
    options.maxLevels = 2;
    options.checkpoint = &checkpoint;
    const SweepResult partial = runCriticalSweep(board, options);
    EXPECT_TRUE(partial.truncated);
    ASSERT_TRUE(checkpoint.valid);

    auto loaded = loadText(savedText(checkpoint));
    ASSERT_TRUE(loaded.ok());
    const SweepCheckpoint &restored = loaded.value();
    EXPECT_EQ(restored.platform, checkpoint.platform);
    EXPECT_EQ(restored.currentLevelMv, checkpoint.currentLevelMv);
    EXPECT_EQ(restored.runsStarted, checkpoint.runsStarted);
    EXPECT_EQ(restored.currentRunCounts, checkpoint.currentRunCounts);
    ASSERT_EQ(restored.completedPoints.size(),
              checkpoint.completedPoints.size());
    for (std::size_t i = 0; i < restored.completedPoints.size(); ++i) {
        EXPECT_EQ(restored.completedPoints[i].runCounts,
                  checkpoint.completedPoints[i].runCounts);
        EXPECT_EQ(restored.completedPoints[i].perBramFaults,
                  checkpoint.completedPoints[i].perBramFaults);
    }
}

/**
 * A checkpoint of edge values: signed zero, a subnormal, 1e17 and the
 * integral doubles on either side of it, 0.1, infinities, NaNs of both
 * signs, a full 64-bit seed, negative and extreme ints, and a
 * VC707-sized (2060-entry) perBramFaults.
 */
std::vector<SweepCheckpoint>
edgeValueCheckpoints()
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    SweepCheckpoint random;
    random.valid = true;
    random.platform = "VC707";
    random.pattern = PatternSpec::random(0.1, 0xFEDCBA9876543210ull);
    random.ambientC = -0.0;
    random.runsPerLevel = 100;
    random.stepMv = 10;
    random.fromMv = 610;
    random.downToMv = 540;
    random.currentLevelMv = -2147483647 - 1;
    random.runsStarted = ~std::uint64_t{0};
    random.currentRunCounts = {
        std::numeric_limits<double>::denorm_min(), 1e17, 0.1, inf, -inf,
        nan, -nan, 1.0 / 3.0, 123.0, 2.5e-310, 1e-5, 0.0, -42.0, -1e16,
        99999999999999984.0, 0x1.0p52 + 1.0, -0x1.0p62, 0.5};
    SweepPoint point;
    point.vccBramMv = 600;
    point.runCounts = {0.0, -0.0, 1e17, 0.1, 12345.678};
    point.medianFaults = nan;
    point.faultsPerMbit = inf;
    point.bramPowerW = 1e17;
    point.oneToZeroFraction = -0.0;
    for (int b = 0; b < 2060; ++b)
        point.perBramFaults.push_back((b * 7919) % 4099 - 17);
    point.perBramFaults[0] = 2147483647;
    point.perBramFaults[1] = -2147483647 - 1;
    random.completedPoints = {point, SweepPoint{}};

    SweepCheckpoint fixed;
    fixed.platform = "ZC702";
    fixed.pattern = PatternSpec::fixed(0xFFFF);
    fixed.ambientC = std::numeric_limits<double>::denorm_min();
    return {random, fixed};
}

std::string
fixtureText()
{
    return fileText(std::string(UVOLT_TEST_FIXTURES) +
                    "/checkpoint_edge_values.txt");
}

TEST(Checkpoint, SavedBytesMatchTheFixture)
{
    std::string saved;
    for (const SweepCheckpoint &checkpoint : edgeValueCheckpoints())
        saved += savedText(checkpoint);
    const std::string expected = fixtureText();
    ASSERT_FALSE(expected.empty()) << "missing checkpoint fixture";
    EXPECT_EQ(saved, expected);
}

// The fixture holds one log per edge-value checkpoint. Each loads back
// to the checkpoint it was saved from and saves again to its own bytes.
TEST(Checkpoint, FixtureLogsLoadAndSaveToTheirOwnBytes)
{
    const std::string fixture = fixtureText();
    const std::string magic = "uvolt-sweep-checkpoint v2\n";
    std::vector<SweepCheckpoint> edges = edgeValueCheckpoints();
    std::size_t at = 0;
    for (SweepCheckpoint &edge : edges) {
        // A load rebuilds each point's statistics from its run counts.
        for (SweepPoint &point : edge.completedPoints) {
            for (double count : point.runCounts)
                point.runStats.add(count);
        }
        ASSERT_EQ(fixture.compare(at, magic.size(), magic), 0);
        const std::size_t next = fixture.find(magic, at + 1);
        const std::string log = fixture.substr(at, next - at);
        auto loaded = loadText(log);
        ASSERT_TRUE(loaded.ok()) << loaded.error().message;
        expectSameCheckpoint(loaded.value(), edge);
        EXPECT_EQ(savedText(loaded.value()), log);
        at = next;
    }
    EXPECT_EQ(at, std::string::npos);
}

TEST(Checkpoint, RejectsGarbage)
{
    auto loaded = loadText("not a checkpoint at all");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), Errc::badCheckpoint);
}

/**
 * A ZC702 sweep run one level per call, saving to one log after each
 * level: the checkpoint after each of three levels, and the log.
 */
struct LevelLog
{
    std::vector<SweepCheckpoint> after;
    std::string text;
};

LevelLog
threeLevelLog()
{
    const std::string path = scratchCheckpointPath("-levels");
    std::filesystem::remove(path);
    Board board(fpga::findPlatform("ZC702"));
    SweepCheckpoint checkpoint;
    SweepOptions options = fastSweepOptions();
    options.maxLevels = 1;
    options.checkpoint = &checkpoint;
    options.checkpointPath = path;
    LevelLog log;
    for (int level = 0; level < 3; ++level) {
        EXPECT_TRUE(runCriticalSweep(board, options).truncated);
        log.after.push_back(checkpoint);
        // Each save appends: the earlier levels' bytes stay as written.
        const std::string text = fileText(path);
        EXPECT_TRUE(text.starts_with(log.text));
        log.text = text;
    }
    std::filesystem::remove(path);
    return log;
}

TEST(Checkpoint, SavesAppendOneRecordPerLevel)
{
    const LevelLog log = threeLevelLog();
    EXPECT_EQ(sectionEnds(log.text).size(), 4u); // header + 3 records
    auto loaded = loadText(log.text);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    expectSameCheckpoint(loaded.value(), log.after.back());
}

// A crash mid-append leaves any prefix of the log on disk. Each one
// loads to the checkpoint of its last whole record, or to badCheckpoint
// while the header itself is torn.
TEST(Checkpoint, TornLogLoadsItsLongestWholePrefix)
{
    const LevelLog log = threeLevelLog();
    const std::vector<std::size_t> ends = sectionEnds(log.text);
    ASSERT_EQ(ends.size(), 4u);
    ASSERT_EQ(ends.back(), log.text.size());
    for (std::size_t cut = 0; cut <= log.text.size(); ++cut) {
        auto loaded = loadText(log.text.substr(0, cut));
        if (cut < ends[0]) {
            ASSERT_FALSE(loaded.ok()) << cut;
            EXPECT_EQ(loaded.code(), Errc::badCheckpoint);
            continue;
        }
        ASSERT_TRUE(loaded.ok()) << cut << ": " << loaded.error().message;
        const std::size_t whole = static_cast<std::size_t>(
            std::upper_bound(ends.begin() + 1, ends.end(), cut) -
            (ends.begin() + 1));
        if (whole == 0) {
            // Nothing to resume: a fresh sweep starts over.
            EXPECT_FALSE(loaded.value().valid) << cut;
            EXPECT_TRUE(loaded.value().completedPoints.empty()) << cut;
            continue;
        }
        SCOPED_TRACE(cut);
        expectSameCheckpoint(loaded.value(), log.after[whole - 1]);
    }
}

// A corrupt byte anywhere in the last record drops that record alone;
// one in the header refuses the log.
TEST(Checkpoint, CorruptByteDropsItsRecordOrRefusesTheHeader)
{
    const LevelLog log = threeLevelLog();
    const std::vector<std::size_t> ends = sectionEnds(log.text);
    ASSERT_EQ(ends.size(), 4u);
    for (const unsigned char mask : {0xFFu, 0x20u, 0x01u}) {
        for (std::size_t at = 0; at < log.text.size(); ++at) {
            if (at >= ends[0] && at < ends[2])
                continue;
            std::string corrupt = log.text;
            corrupt[at] = static_cast<char>(corrupt[at] ^ mask);
            auto loaded = loadText(corrupt);
            if (at < ends[0]) {
                ASSERT_FALSE(loaded.ok()) << at;
                EXPECT_EQ(loaded.code(), Errc::badCheckpoint);
                continue;
            }
            ASSERT_TRUE(loaded.ok()) << at << ": "
                                     << loaded.error().message;
            SCOPED_TRACE(at);
            expectSameCheckpoint(loaded.value(), log.after[1]);
        }
    }
}

TEST(Checkpoint, ResumedSweepEqualsUninterrupted)
{
    Board reference_board(fpga::findPlatform("ZC702"));
    const SweepResult reference =
        runCriticalSweep(reference_board, fastSweepOptions());

    // First process: measure three levels, saving after each, then
    // "die" halfway through appending the third.
    const std::string path = scratchCheckpointPath("-resume");
    std::filesystem::remove(path);
    SweepCheckpoint checkpoint;
    {
        Board board(fpga::findPlatform("ZC702"));
        SweepOptions options = fastSweepOptions();
        options.maxLevels = 3;
        options.checkpoint = &checkpoint;
        options.checkpointPath = path;
        const SweepResult partial = runCriticalSweep(board, options);
        EXPECT_TRUE(partial.truncated);
        EXPECT_EQ(partial.points.size(), 3u);
    }
    const std::string log = fileText(path);
    const std::vector<std::size_t> ends = sectionEnds(log);
    ASSERT_EQ(ends.size(), 4u);
    std::filesystem::resize_file(path, (ends[2] + ends[3]) / 2);

    // Second process: fresh board, resume from the whole in-memory
    // checkpoint shipped through its serialized form, or from the cut
    // log on disk; either way finish the campaign.
    for (const bool cut : {false, true}) {
        SCOPED_TRACE(cut ? "cut log" : "whole checkpoint");
        auto reloaded =
            cut ? loadCheckpointFile(path) : loadText(savedText(checkpoint));
        ASSERT_TRUE(reloaded.ok());
        SweepCheckpoint resumed_checkpoint = reloaded.take();
        EXPECT_EQ(resumed_checkpoint.completedPoints.size(), cut ? 2u : 3u);

        Board resumed_board(fpga::findPlatform("ZC702"));
        SweepOptions options = fastSweepOptions();
        options.checkpoint = &resumed_checkpoint;
        if (cut)
            options.checkpointPath = path;
        const SweepResult resumed =
            runCriticalSweep(resumed_board, options);
        EXPECT_FALSE(resumed.truncated);
        EXPECT_EQ(resumed.resilience.checkpointResumes, 1u);
        EXPECT_FALSE(resumed_checkpoint.valid);

        expectSameSweep(reference, resumed);
    }
    // The first save after the resume rewrote the log whole, so no torn
    // tail sits in front of the levels appended after it.
    auto finished = loadCheckpointFile(path);
    ASSERT_TRUE(finished.ok());
    EXPECT_EQ(finished.value().completedPoints.size(),
              reference.points.size());
    std::filesystem::remove(path);
}

TEST(Checkpoint, ResumeUnderNoiseStillMatches)
{
    Board reference_board(fpga::findPlatform("ZC702"));
    const SweepResult reference =
        runCriticalSweep(reference_board, fastSweepOptions());

    NoiseConfig noise = NoiseConfig::harsh(5, 0.02);
    noise.spuriousCrashProb = 0.5;

    SweepCheckpoint checkpoint;
    {
        Board board(fpga::findPlatform("ZC702"));
        board.attachNoise(noise);
        SweepOptions options = fastSweepOptions();
        options.maxLevels = 3;
        options.checkpoint = &checkpoint;
        runCriticalSweep(board, options);
    }

    Board resumed_board(fpga::findPlatform("ZC702"));
    resumed_board.attachNoise(noise);
    SweepOptions options = fastSweepOptions();
    options.checkpoint = &checkpoint;
    const SweepResult resumed = runCriticalSweep(resumed_board, options);

    expectSameSweep(reference, resumed);
}

TEST(Checkpoint, ValidationRejectsWrongBoard)
{
    Board board(fpga::findPlatform("ZC702"));
    SweepCheckpoint checkpoint;
    SweepOptions options = fastSweepOptions();
    options.maxLevels = 1;
    options.checkpoint = &checkpoint;
    runCriticalSweep(board, options);
    ASSERT_TRUE(checkpoint.valid);

    Board other(fpga::findPlatform("VC707"));
    SweepOptions resume = fastSweepOptions();
    resume.checkpoint = &checkpoint;
    EXPECT_EXIT(runCriticalSweep(other, resume),
                ::testing::ExitedWithCode(1), "checkpoint belongs to");
}

// The label rounds the density to a percent, so validation must compare
// the density itself: a 0.501 checkpoint is not a 0.5 campaign.
TEST(Checkpoint, ValidationRejectsADifferentPatternDensity)
{
    SweepCheckpoint checkpoint;
    {
        Board board(fpga::findPlatform("ZC702"));
        SweepOptions options = fastSweepOptions();
        options.pattern = PatternSpec::random(0.501, 7);
        options.maxLevels = 1;
        options.checkpoint = &checkpoint;
        runCriticalSweep(board, options);
    }
    ASSERT_TRUE(checkpoint.valid);
    ASSERT_EQ(checkpoint.pattern.label(),
              PatternSpec::random(0.5, 7).label());

    Board board(fpga::findPlatform("ZC702"));
    SweepOptions resume = fastSweepOptions();
    resume.pattern = PatternSpec::random(0.5, 7);
    resume.checkpoint = &checkpoint;
    auto resumed = tryRunCriticalSweep(board, resume);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.code(), Errc::badCheckpoint);
}

/** @a text with its header's trailer recomputed for an edited header. */
std::string
reframedHeader(std::string text)
{
    const std::size_t at = text.find("\nend ") + 1;
    const std::size_t eol = text.find('\n', at);
    char trailer[48];
    std::snprintf(trailer, sizeof trailer, "end %zu %016llx", at,
                  static_cast<unsigned long long>(
                      fnv1a64(std::string_view(text).substr(0, at))));
    return text.replace(at, eol - at, trailer);
}

// A density outside [0, 1] in a checkpoint file is refused at load,
// before anything can label or fill with it.
TEST(Checkpoint, RejectsAnOutOfRangePatternDensity)
{
    SweepCheckpoint checkpoint;
    checkpoint.valid = true;
    checkpoint.platform = "ZC702";
    checkpoint.pattern = PatternSpec::random(0.5, 7);
    const std::string text = savedText(checkpoint);
    const std::string line = "pattern random 0.5 7";
    const std::size_t at = text.find(line);
    ASSERT_NE(at, std::string::npos);
    ASSERT_TRUE(loadText(text).ok());
    ASSERT_EQ(reframedHeader(text), text);
    for (const char *density : {"1e300", "1.5", "-0.25", "1.0000000001"}) {
        std::string edited = text;
        edited.replace(at, line.size(),
                       std::string("pattern random ") + density + " 7");
        // Edited in place, the header no longer matches its digest.
        auto torn = loadText(edited);
        ASSERT_FALSE(torn.ok()) << density;
        EXPECT_EQ(torn.code(), Errc::badCheckpoint) << density;
        // Framed again, it is refused for the density itself.
        auto loaded = loadText(reframedHeader(edited));
        ASSERT_FALSE(loaded.ok()) << density;
        EXPECT_EQ(loaded.code(), Errc::badCheckpoint) << density;
        EXPECT_NE(loaded.error().message.find("density"),
                  std::string::npos)
            << loaded.error().message;
    }
}

/** Characterize a quiet board so a governor can pick canaries. */
Fvm
characterize(Board &board)
{
    SweepOptions options;
    options.runsPerLevel = 5;
    const SweepResult sweep = runCriticalSweep(board, options);
    return fvmFromSweep(sweep, board.device().floorplan());
}

TEST(HardenedGovernor, HoldsSetpointOnUncertainReads)
{
    Board board(fpga::findPlatform("ZC702"));
    const Fvm fvm = characterize(board);

    NoiseConfig noise;
    noise.frameCorruptProb = 1.0; // every canary read is uncertain
    board.attachNoise(noise);
    board.link().setMaxAttempts(2);

    VoltageGovernor governor(board, fvm, {});
    const int initial = governor.setpointMv();

    for (int i = 0; i < 5; ++i) {
        const GovernorStep step = governor.step();
        EXPECT_EQ(step.health, GovernorHealth::heldUncertain);
        EXPECT_EQ(step.commandedMv, initial);
        EXPECT_FALSE(step.backedOff);
        EXPECT_GT(step.linkRetries, 0u);
    }
    EXPECT_EQ(governor.setpointMv(), initial);
}

TEST(HardenedGovernor, RecoversAndBacksOffAfterSpuriousCrash)
{
    Board board(fpga::findPlatform("ZC702"));
    const Fvm fvm = characterize(board);

    NoiseConfig noise;
    noise.seed = 11;
    noise.spuriousCrashProb = 1.0;
    noise.crashBandMv = 10000; // crash anywhere, not just near Vcrash
    board.attachNoise(noise);

    VoltageGovernor governor(board, fvm, {});

    bool recovered = false;
    for (int i = 0; i < 400 && !recovered; ++i) {
        const int before = governor.setpointMv();
        const GovernorStep step = governor.step();
        if (step.health == GovernorHealth::recovered) {
            recovered = true;
            EXPECT_TRUE(step.backedOff);
            EXPECT_GE(step.commandedMv, before);
            EXPECT_TRUE(board.donePin());
        }
    }
    EXPECT_TRUE(recovered);
}

TEST(HardenedGovernor, QuietEnvironmentBehavesAsBefore)
{
    Board board(fpga::findPlatform("ZC702"));
    const Fvm fvm = characterize(board);
    VoltageGovernor governor(board, fvm, {});
    const auto trace = governor.settle();
    ASSERT_FALSE(trace.empty());
    for (const GovernorStep &step : trace)
        EXPECT_EQ(step.health, GovernorHealth::ok);
    EXPECT_GE(governor.setpointMv(),
              board.spec().calib.bramVcrashMv);
    EXPECT_LT(governor.setpointMv(), board.spec().vnomMv);
}

} // namespace
} // namespace uvolt::harness
