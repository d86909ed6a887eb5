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

#include <sstream>
#include <string>
#include <vector>

#include "fpga/fault_domain.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "harness/governor.hh"
#include "pmbus/board.hh"
#include "pmbus/fault_injector.hh"
#include "pmbus/serial_link.hh"
#include "util/error.hh"

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

    std::stringstream stream;
    saveCheckpoint(checkpoint, stream);
    auto loaded = loadCheckpoint(stream);
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

TEST(Checkpoint, RejectsGarbage)
{
    std::stringstream stream("not a checkpoint at all");
    auto loaded = loadCheckpoint(stream);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.code(), Errc::badCheckpoint);
}

TEST(Checkpoint, ResumedSweepEqualsUninterrupted)
{
    Board reference_board(fpga::findPlatform("ZC702"));
    const SweepResult reference =
        runCriticalSweep(reference_board, fastSweepOptions());

    // First process: measure two levels, then "die". Ship the
    // checkpoint through its serialized form, as a real resume would.
    SweepCheckpoint checkpoint;
    {
        Board board(fpga::findPlatform("ZC702"));
        SweepOptions options = fastSweepOptions();
        options.maxLevels = 2;
        options.checkpoint = &checkpoint;
        const SweepResult partial = runCriticalSweep(board, options);
        EXPECT_TRUE(partial.truncated);
        EXPECT_EQ(partial.points.size(), 2u);
    }
    std::stringstream stream;
    saveCheckpoint(checkpoint, stream);
    auto reloaded = loadCheckpoint(stream);
    ASSERT_TRUE(reloaded.ok());
    SweepCheckpoint resumed_checkpoint = reloaded.take();

    // Second process: fresh board, resume, finish the campaign.
    Board resumed_board(fpga::findPlatform("ZC702"));
    SweepOptions options = fastSweepOptions();
    options.checkpoint = &resumed_checkpoint;
    const SweepResult resumed = runCriticalSweep(resumed_board, options);
    EXPECT_FALSE(resumed.truncated);
    EXPECT_EQ(resumed.resilience.checkpointResumes, 1u);
    EXPECT_FALSE(resumed_checkpoint.valid);

    expectSameSweep(reference, resumed);
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

// A density outside [0, 1] in a checkpoint file is refused at load,
// before anything can label or fill with it.
TEST(Checkpoint, RejectsAnOutOfRangePatternDensity)
{
    SweepCheckpoint checkpoint;
    checkpoint.valid = true;
    checkpoint.platform = "ZC702";
    checkpoint.pattern = PatternSpec::random(0.5, 7);
    std::stringstream saved;
    saveCheckpoint(checkpoint, saved);
    const std::string text = saved.str();
    const std::string line = "pattern random 0.5 7";
    const std::size_t at = text.find(line);
    ASSERT_NE(at, std::string::npos);
    {
        std::stringstream stream(text);
        ASSERT_TRUE(loadCheckpoint(stream).ok());
    }
    for (const char *density : {"1e300", "1.5", "-0.25", "1.0000000001"}) {
        std::string edited = text;
        edited.replace(at, line.size(),
                       std::string("pattern random ") + density + " 7");
        std::stringstream stream(edited);
        auto loaded = loadCheckpoint(stream);
        ASSERT_FALSE(loaded.ok()) << density;
        EXPECT_EQ(loaded.code(), Errc::badCheckpoint) << density;
    }
}

TEST(SweepQueries, MissingLevelReportsAvailableLevels)
{
    Board board(fpga::findPlatform("ZC702"));
    SweepOptions options = fastSweepOptions();
    const SweepResult sweep = runCriticalSweep(board, options);
    // The context-rich fatal(): names the missing level AND what the
    // sweep actually measured.
    EXPECT_EXIT(sweep.at(9999), ::testing::ExitedWithCode(1),
                "no point at 9999 mV.*level");
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
