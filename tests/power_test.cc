/**
 * @file
 * Unit tests for the power model against the paper's anchors: >10x BRAM
 * power reduction at Vmin, ~38% more at Vcrash, and the 24.1% total
 * on-chip saving of the NN design (Fig 10, Fig 14).
 */

#include <gtest/gtest.h>

#include "fpga/platform.hh"
#include "power/power_model.hh"

namespace uvolt::power
{
namespace
{

using fpga::findPlatform;

TEST(RailPowerModel, NominalIsUnity)
{
    for (const auto &spec : fpga::platformCatalog()) {
        RailPowerModel model(spec);
        EXPECT_NEAR(model.relativePower(1.0), 1.0, 1e-12) << spec.name;
        EXPECT_NEAR(model.bramPower(1.0), spec.calib.bramPowerNomW, 1e-12);
    }
}

TEST(RailPowerModel, MonotoneDecreasing)
{
    RailPowerModel model(findPlatform("VC707"));
    double previous = model.relativePower(1.0);
    for (int mv = 990; mv >= 500; mv -= 10) {
        const double current = model.relativePower(mv / 1000.0);
        EXPECT_LT(current, previous) << "at " << mv << " mV";
        previous = current;
    }
}

TEST(RailPowerModel, OrderOfMagnitudeAtVmin)
{
    // Paper: more than an order of magnitude power saving at Vmin,
    // for every platform.
    for (const auto &spec : fpga::platformCatalog()) {
        RailPowerModel model(spec);
        const double at_vmin =
            model.relativePower(spec.calib.bramVminMv / 1000.0);
        EXPECT_LT(at_vmin, 0.1) << spec.name;
    }
}

TEST(RailPowerModel, Vc707VcrashSavingMatchesPaper)
{
    // Paper Fig 14: 38.1% BRAM power saving at Vcrash over Vmin (VC707).
    RailPowerModel model(findPlatform("VC707"));
    EXPECT_NEAR(model.savingVs(0.54, 0.61), 0.381, 0.015);
}

TEST(OnChipBreakdown, NominalComposition)
{
    const auto breakdown =
        OnChipBreakdown::nnDesign(findPlatform("VC707")).at(1.0);
    EXPECT_NEAR(breakdown.bramW, 2.80 * 0.708, 1e-9);
    EXPECT_GT(breakdown.restW, breakdown.bramW); // BRAM is the minority
    EXPECT_NEAR(breakdown.bramShare(), 0.2555, 0.001);
}

TEST(OnChipBreakdown, TotalSavingAtVminIs24Percent)
{
    // Paper Fig 10: 24.1% total on-chip power reduction at Vmin.
    const auto design = OnChipBreakdown::nnDesign(findPlatform("VC707"));
    EXPECT_NEAR(design.totalSaving(0.61), 0.241, 0.005);
}

TEST(OnChipBreakdown, RestIsVoltageInvariant)
{
    const auto design = OnChipBreakdown::nnDesign(findPlatform("VC707"));
    EXPECT_DOUBLE_EQ(design.at(1.0).restW, design.at(0.54).restW);
}

TEST(OnChipBreakdown, DeeperUndervoltingSavesMore)
{
    const auto design = OnChipBreakdown::nnDesign(findPlatform("VC707"));
    EXPECT_GT(design.totalSaving(0.54), design.totalSaving(0.61));
    EXPECT_LT(design.totalSaving(0.54), 0.30); // bounded by BRAM share
}

} // namespace
} // namespace uvolt::power
