/**
 * @file
 * Tests for the DVFS comparison substrate (timing model, logic power,
 * policy) and the accelerator performance model.
 */

#include <gtest/gtest.h>

#include "accel/perf_model.hh"
#include "power/dvfs.hh"
#include "power/power_model.hh"

namespace uvolt::power
{
namespace
{

TEST(TimingModelTest, NominalDelayIsUnity)
{
    TimingModel timing(100.0);
    EXPECT_NEAR(timing.relativeDelay(1.0), 1.0, 1e-12);
    EXPECT_NEAR(timing.fmaxMhz(1.0), 100.0, 1e-9);
}

TEST(TimingModelTest, DelayGrowsAsVoltageDrops)
{
    TimingModel timing(100.0);
    double previous = timing.relativeDelay(1.0);
    for (int mv = 950; mv >= 450; mv -= 50) {
        const double delay = timing.relativeDelay(mv / 1000.0);
        EXPECT_GT(delay, previous) << mv;
        previous = delay;
    }
    // Near threshold the slowdown is dramatic.
    EXPECT_GT(timing.relativeDelay(0.45), 3.0);
}

TEST(TimingModelTest, BelowThresholdDies)
{
    TimingModel timing(100.0);
    EXPECT_EXIT(timing.relativeDelay(0.30), ::testing::ExitedWithCode(1),
                "threshold");
}

TEST(LogicPowerTest, NominalAndScaling)
{
    LogicPowerModel logic(5.0, 100.0);
    EXPECT_NEAR(logic.watts(1.0, 100.0), 5.0, 1e-9);
    // Halving the clock cuts only the dynamic share.
    const double half_clock = logic.watts(1.0, 50.0);
    EXPECT_NEAR(half_clock, 5.0 * (0.6 * 0.5 + 0.4), 1e-9);
    // Lower voltage cuts both terms.
    EXPECT_LT(logic.watts(0.7, 100.0), 5.0 * 0.7);
}

TEST(DvfsPolicyTest, PointsAreConsistent)
{
    const auto &spec = fpga::findPlatform("VC707");
    DvfsPolicy policy(spec, 100.0);

    const OperatingPoint nominal = policy.undervoltPoint(1.0);
    EXPECT_DOUBLE_EQ(nominal.clockMhz, 100.0);
    EXPECT_FALSE(nominal.bramFaultsPossible);

    const OperatingPoint deep = policy.undervoltPoint(0.54);
    EXPECT_DOUBLE_EQ(deep.clockMhz, 100.0); // never slows down
    EXPECT_DOUBLE_EQ(deep.vccIntV, 1.0);
    EXPECT_TRUE(deep.bramFaultsPossible);

    const OperatingPoint dvfs = policy.dvfsPoint(0.8);
    EXPECT_LT(dvfs.clockMhz, 100.0); // must slow down
    EXPECT_GT(dvfs.clockMhz, 0.0);
    EXPECT_FALSE(dvfs.bramFaultsPossible);
}

TEST(DvfsPolicyTest, CannotCrossCriticalPoint)
{
    const auto &spec = fpga::findPlatform("VC707");
    DvfsPolicy policy(spec, 100.0);
    EXPECT_EXIT(policy.dvfsPoint(0.60), ::testing::ExitedWithCode(1),
                "critical operating point");
}

TEST(DvfsPolicyTest, NeverOverclocks)
{
    const auto &spec = fpga::findPlatform("VC707");
    // A design closed at far below Fmax: DVFS at nominal voltage must
    // cap at the design clock, not "overclock" to Fmax.
    DvfsPolicy policy(spec, 100.0);
    EXPECT_LE(policy.dvfsPoint(1.0).clockMhz, 100.0);
}

TEST(PerfModelTest, CycleCountMatchesHandMath)
{
    const auto &spec = fpga::findPlatform("VC707");
    accel::PerfModel perf({20, 50, 10}, spec, 5.0);
    // 240 MACs, 12 drain cycles a layer:
    // ceil(1000/240) + 12 + ceil(500/240) + 12 = 5+12+3+12 = 32.
    EXPECT_EQ(perf.cyclesPerInference(), 32u);
}

TEST(PerfModelTest, ThroughputTracksClock)
{
    const auto &spec = fpga::findPlatform("VC707");
    accel::PerfModel perf({784, 1024, 512, 256, 128, 10}, spec, 5.0);
    DvfsPolicy policy(spec, 100.0);

    const auto full = perf.evaluate(policy.undervoltPoint(1.0));
    const auto slowed = perf.evaluate(policy.dvfsPoint(0.7));
    EXPECT_NEAR(slowed.inferencesPerSecond / full.inferencesPerSecond,
                slowed.clockMhz / full.clockMhz, 1e-9);
    EXPECT_LT(slowed.totalPowerW, full.totalPowerW);
}

TEST(PerfModelTest, UndervoltingCutsEnergyNotThroughput)
{
    const auto &spec = fpga::findPlatform("VC707");
    const auto design = OnChipBreakdown::nnDesign(spec);
    accel::PerfModel perf({784, 1024, 512, 256, 128, 10}, spec,
                          design.at(1.0).restW);
    DvfsPolicy policy(spec, 100.0);

    const auto nominal = perf.evaluate(policy.undervoltPoint(1.0));
    const auto at_vmin = perf.evaluate(policy.undervoltPoint(0.61));
    EXPECT_DOUBLE_EQ(at_vmin.inferencesPerSecond,
                     nominal.inferencesPerSecond);
    // Fig 10's headline: ~24% total saving at Vmin.
    EXPECT_NEAR(1.0 - at_vmin.totalPowerW / nominal.totalPowerW, 0.241,
                0.02);
}

} // namespace
} // namespace uvolt::power
