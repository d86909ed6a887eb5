/**
 * @file
 * Tests for the canary-based voltage governor: canary selection,
 * descent to the fault boundary, back-off with hold, the ITD chase
 * (re-probing at higher temperature), and payload safety (the deployed
 * accelerator stays fault-free at the governed setpoint when its
 * placement is ICBP-protected).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "accel/accelerator.hh"
#include "data/synthetic.hh"
#include "accel/placement.hh"
#include "accel/weight_image.hh"
#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "harness/governor.hh"
#include "nn/quantizer.hh"
#include "nn/trainer.hh"
#include "pmbus/board.hh"

namespace uvolt::harness
{
namespace
{

/** Characterize a ZC702 once for the whole suite. */
struct GovernorWorld
{
    pmbus::Board board{fpga::findPlatform("ZC702")};
    std::unique_ptr<Fvm> fvm;

    GovernorWorld()
    {
        SweepOptions options;
        options.runsPerLevel = 5;
        const SweepResult sweep = runCriticalSweep(board, options);
        fvm = std::make_unique<Fvm>(
            fvmFromSweep(sweep, board.device().floorplan()));
    }
};

GovernorWorld &
world()
{
    static GovernorWorld instance;
    return instance;
}

TEST(GovernorTest, PicksMostVulnerableSpares)
{
    auto &w = world();
    w.board.softReset();
    VoltageGovernor governor(w.board, *w.fvm, {});
    ASSERT_EQ(governor.canaries().size(), 8u);
    // Every canary is at least as faulty as the chip median.
    const auto order = w.fvm->bramsByReliability();
    const int median_faults = w.fvm->faultsOf(order[order.size() / 2]);
    for (std::uint32_t canary : governor.canaries())
        EXPECT_GE(w.fvm->faultsOf(canary), median_faults);
    // And the most vulnerable BRAM of the chip is among them.
    EXPECT_NE(std::find(governor.canaries().begin(),
                        governor.canaries().end(), order.back()),
              governor.canaries().end());
}

TEST(GovernorTest, RespectsReservedBrams)
{
    auto &w = world();
    w.board.softReset();
    const auto order = w.fvm->bramsByReliability();
    // Reserve the two most vulnerable BRAMs: the governor must skip
    // them.
    std::vector<std::uint32_t> reserved{order[order.size() - 1],
                                        order[order.size() - 2]};
    VoltageGovernor governor(w.board, *w.fvm, reserved);
    for (std::uint32_t canary : governor.canaries()) {
        EXPECT_NE(canary, reserved[0]);
        EXPECT_NE(canary, reserved[1]);
    }
}

TEST(GovernorTest, SettlesNearVmin)
{
    auto &w = world();
    w.board.softReset();
    VoltageGovernor governor(w.board, *w.fvm, {});
    const auto trace = governor.settle();
    ASSERT_FALSE(trace.empty());

    // The settled point sits in a tight band around the chip's Vmin:
    // no lower than one guard step below it, no higher than two steps
    // above it.
    const int v_min = w.board.spec().calib.bramVminMv;
    EXPECT_GE(governor.setpointMv(), v_min - 10);
    EXPECT_LE(governor.setpointMv(), v_min + 20);

    // The loop descended monotonically until the first back-off.
    bool seen_backoff = false;
    int previous = w.board.spec().vnomMv + 10;
    for (const auto &step : trace) {
        if (step.backedOff) {
            seen_backoff = true;
            break;
        }
        EXPECT_LT(step.commandedMv, previous);
        previous = step.commandedMv;
    }
    EXPECT_TRUE(seen_backoff);
    w.board.softReset();
}

TEST(GovernorTest, ItdChaseGoesLowerWhenHot)
{
    auto &w = world();
    w.board.softReset();
    VoltageGovernor cold_governor(w.board, *w.fvm, {});
    cold_governor.settle();
    const int cold_setpoint = cold_governor.setpointMv();

    w.board.softReset();
    w.board.setAmbientC(80.0);
    VoltageGovernor hot_governor(w.board, *w.fvm, {});
    hot_governor.settle();
    const int hot_setpoint = hot_governor.setpointMv();

    // ITD: at 80 degC the weak cells fail later, so the tracked
    // minimum voltage is at or below the 50 degC one.
    EXPECT_LE(hot_setpoint, cold_setpoint);
    w.board.setAmbientC(50.0);
    w.board.softReset();
}

TEST(GovernorTest, PayloadStaysCleanAtGovernedPoint)
{
    auto &w = world();
    w.board.softReset();

    // Deploy a small model on ICBP-protected BRAMs.
    const data::Dataset train_set = data::makeForestLike(600, 3);
    nn::Network net({data::forestFeatures, 64, data::forestClasses});
    nn::TrainOptions options;
    options.epochs = 3;
    nn::train(net, train_set, options);
    const accel::WeightImage image(nn::quantize(net));
    const accel::Placement placement =
        accel::icbpPlacement(image, *w.fvm);
    accel::Accelerator accel(w.board, image, placement);

    VoltageGovernor governor(w.board, *w.fvm, placement.mapping());
    governor.settle();

    // At the governed setpoint, the protected payload reads back clean.
    w.board.startReferenceRun();
    EXPECT_EQ(accel.weightFaults().total, 0u);
    w.board.softReset();
}

TEST(GovernorTest, BacksOffUnderSustainedNackStorm)
{
    // A dedicated board: the storm must not pollute the shared world's
    // control channel. NACK rate 0.6 on every PMBus transaction — a
    // sustained storm, not a glitch. A verified write is three
    // transactions (page select, setpoint, read-back), so one attempt
    // survives the storm with probability 0.4^3; the attempt budget has
    // to be generous for every write to converge through retries.
    pmbus::Board board(fpga::findPlatform("ZC702"));
    pmbus::NoiseConfig noise;
    noise.seed = 99;
    noise.pmbusNackProb = 0.6;
    board.attachNoise(noise);
    board.setMaxPmbusAttempts(256);

    // First, the raw channel under 100+ consecutive stormed
    // transactions: every verified write converges through retries.
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(board.trySetVccBramMv(i % 2 ? 890 : 900).ok());
    const pmbus::PmbusStats &stats = board.pmbusStats();
    EXPECT_GE(stats.transactions, 100u);
    // The injector really sustained a >= 0.5 NACK rate...
    EXPECT_GE(board.injector()->stats().nacks, stats.transactions / 2);
    // ...and the channel absorbed it with transaction-level retries.
    EXPECT_GE(stats.retries, stats.transactions / 2);
    EXPECT_EQ(stats.exhausted, 0u);

    // Then the control loop on top of that channel: it settles without
    // exhausting, never dives through the floor on uncertain readings,
    // and lands in the usual band around Vmin.
    VoltageGovernor governor(board, *world().fvm, {});
    const auto trace = governor.settle();
    ASSERT_FALSE(trace.empty());
    const int v_min = board.spec().calib.bramVminMv;
    EXPECT_GE(governor.setpointMv(), v_min - 10);
    EXPECT_LE(governor.setpointMv(), v_min + 20);
    bool backed_off = false;
    for (const auto &step : trace)
        backed_off |= step.backedOff;
    EXPECT_TRUE(backed_off);
}

TEST(GovernorTest, NeverCommandsBelowFloor)
{
    auto &w = world();
    w.board.softReset();
    // Reserve every BRAM but the eight most reliable ones, which never
    // fault: the canaries stay clean all the way down, so only the
    // Vcrash floor stops the descent.
    const auto order = w.fvm->bramsByReliability();
    ASSERT_EQ(w.fvm->faultsOf(order[7]), 0);
    const std::vector<std::uint32_t> reserved(order.begin() + 8,
                                              order.end());
    VoltageGovernor governor(w.board, *w.fvm, reserved);
    const auto trace = governor.settle();
    const int v_crash = w.board.spec().calib.bramVcrashMv;
    for (const auto &step : trace) {
        EXPECT_GE(step.commandedMv, v_crash);
        EXPECT_EQ(step.canaryFaults, 0);
    }
    EXPECT_EQ(governor.setpointMv(), v_crash);
    w.board.softReset();
}

} // namespace
} // namespace uvolt::harness
