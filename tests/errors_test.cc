/**
 * @file
 * Failure-injection tests: every fatal() path a user can reach must
 * exit(1) with a meaningful message rather than corrupt state (the
 * gem5 fatal/panic convention). These are gtest death tests.
 */

#include <gtest/gtest.h>

#include "accel/accelerator.hh"
#include "accel/mitigation.hh"
#include "accel/placement.hh"
#include "accel/vulnerability.hh"
#include "accel/weight_image.hh"
#include "data/dataset.hh"
#include "fpga/bram.hh"
#include "fpga/device.hh"
#include "fpga/platform.hh"
#include "fxp/fixed_point.hh"
#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"
#include "util/cli.hh"
#include "util/kmeans.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace uvolt
{
namespace
{

using ::testing::ExitedWithCode;

TEST(ErrorsDeathTest, UnknownPlatform)
{
    EXPECT_EXIT(fpga::findPlatform("VC999"), ExitedWithCode(1),
                "unknown platform");
}

TEST(ErrorsDeathTest, BramRowOutOfRange)
{
    fpga::Bram bram;
    EXPECT_EXIT(bram.writeRow(1024, 0), ExitedWithCode(1), "row");
    EXPECT_EXIT(bram.readRow(-1), ExitedWithCode(1), "row");
    EXPECT_EXIT((void)bram.testBit(0, 16), ExitedWithCode(1), "col");
}

TEST(ErrorsDeathTest, DeviceBramOutOfPool)
{
    fpga::Device device(fpga::findPlatform("ZC702"));
    EXPECT_EXIT(device.bram(280), ExitedWithCode(1), "out of pool");
}

TEST(ErrorsDeathTest, FloorplanInvalidArgs)
{
    EXPECT_EXIT(fpga::Floorplan::columnGrid(0, 10), ExitedWithCode(1),
                "positive");
    const auto plan = fpga::Floorplan::columnGrid(10, 5);
    EXPECT_EXIT(plan.siteOf(10), ExitedWithCode(1), "out of pool");
}

TEST(ErrorsDeathTest, QFormatBadDigits)
{
    EXPECT_EXIT(fxp::QFormat(-1), ExitedWithCode(1), "digit bits");
    EXPECT_EXIT(fxp::QFormat(16), ExitedWithCode(1), "digit bits");
}

TEST(ErrorsDeathTest, KMeansBadK)
{
    std::vector<double> samples{1.0, 2.0};
    EXPECT_EXIT(kMeans1d(samples, 0), ExitedWithCode(1), "invalid");
    EXPECT_EXIT(kMeans1d(samples, 3), ExitedWithCode(1), "invalid");
}

TEST(ErrorsDeathTest, QuantileOfEmptySample)
{
    EXPECT_EXIT(quantile({}, 0.5), ExitedWithCode(1), "empty");
}

TEST(ErrorsDeathTest, TableRowWidthMismatch)
{
    TextTable table({"a", "b"});
    EXPECT_EXIT(table.addRow({"only-one"}), ExitedWithCode(1), "width");
}

TEST(ErrorsDeathTest, CliUnknownFlagAndBadValue)
{
    CliParser cli("test");
    cli.addInt("runs", 1, "runs");
    const char *unknown[] = {"prog", "--bogus"};
    EXPECT_EXIT(cli.tryParse(2, const_cast<char **>(unknown)).orFatal(),
                ExitedWithCode(1), "unknown flag");

    CliParser cli2("test");
    cli2.addInt("runs", 1, "runs");
    const char *bad[] = {"prog", "--runs", "ten"};
    ASSERT_TRUE(cli2.tryParse(3, const_cast<char **>(bad)).value());
    EXPECT_EXIT(cli2.getInt("runs"), ExitedWithCode(1), "integer");
}

TEST(ErrorsDeathTest, DatasetMisuse)
{
    data::Dataset set("toy", 3, 2);
    const float narrow[2] = {1.0f, 2.0f};
    EXPECT_EXIT(set.add({narrow, 2}, 0), ExitedWithCode(1), "width");
    const float ok[3] = {1.0f, 2.0f, 3.0f};
    EXPECT_EXIT(set.add({ok, 3}, 2), ExitedWithCode(1), "label");
    EXPECT_EXIT(set.sample(0), ExitedWithCode(1), "out of dataset");
    EXPECT_EXIT(data::Dataset("toy", 3, 2, std::vector<float>(5), {0, 1}),
                ExitedWithCode(1), "feature values");
    EXPECT_EXIT(data::Dataset("toy", 3, 2, std::vector<float>(3), {2}),
                ExitedWithCode(1), "label");
}

TEST(ErrorsDeathTest, NetworkMisuse)
{
    EXPECT_EXIT(nn::Network({5}), ExitedWithCode(1), "at least");
    nn::Network net({4, 3});
    EXPECT_EXIT(net.layer(1), ExitedWithCode(1), "layer");
    const data::Dataset wrong("toy", 7, 3);
    EXPECT_EXIT(net.evaluateError(wrong), ExitedWithCode(1), "empty");
}

TEST(ErrorsDeathTest, TrainerShapeMismatch)
{
    nn::Network net({4, 3});
    data::Dataset set("toy", 5, 3);
    const float x[5] = {};
    set.add({x, 5}, 0);
    EXPECT_EXIT(nn::train(net, set), ExitedWithCode(1),
                "does not match");
}

TEST(ErrorsDeathTest, FinetuneEvenVote)
{
    pmbus::Board board(fpga::findPlatform("ZC702"));
    nn::Network net({54, 16, 7});
    net.initWeights(1);
    accel::WeightImage image(nn::quantize(net));
    accel::MitigationLab lab(board, image,
                             accel::defaultPlacement(image));
    accel::MitigationReport report;
    EXPECT_EXIT(lab.readTemporalVote(2, report), ExitedWithCode(1),
                "odd");
}

TEST(ErrorsDeathTest, PlacementTooLargeForDevice)
{
    nn::Network net({784, 1024, 10});
    net.initWeights(1);
    accel::WeightImage image(nn::quantize(net)); // ~785 BRAMs
    pmbus::Board board(fpga::findPlatform("ZC702")); // only 280
    EXPECT_EXIT(
        accel::Accelerator(board, image, accel::defaultPlacement(image)),
        ExitedWithCode(1), "does not fit");
    EXPECT_EXIT(accel::randomPlacement(image, 280, 1), ExitedWithCode(1),
                "exceeds");
}

TEST(ErrorsDeathTest, IcbpBadProtectedLayer)
{
    nn::Network net({54, 16, 7});
    net.initWeights(1);
    accel::WeightImage image(nn::quantize(net));
    std::vector<int> faults(280, 0);
    harness::Fvm fvm("x", fpga::Floorplan::columnGrid(280, 70),
                     std::move(faults));
    accel::IcbpOptions options;
    options.protectedLayers = {7};
    EXPECT_EXIT(accel::icbpPlacement(image, fvm, options),
                ExitedWithCode(1), "protected layer");
}

TEST(ErrorsDeathTest, FvmSizeMismatch)
{
    std::vector<int> faults(10, 0);
    EXPECT_EXIT(
        harness::Fvm("x", fpga::Floorplan::columnGrid(280, 70),
                     std::move(faults)),
        ExitedWithCode(1), "fault entries");
}

TEST(ErrorsDeathTest, SweepMissingPoint)
{
    harness::SweepResult sweep;
    EXPECT_EXIT(sweep.atVcrash(), ExitedWithCode(1), "no points");
}

TEST(ErrorsDeathTest, SweepInvertedRange)
{
    pmbus::Board board(fpga::findPlatform("ZC702"));
    harness::SweepOptions options;
    // Start one step below the platform's 560 mV Vcrash, where the
    // sweep ends.
    options.fromMv = 550;
    EXPECT_EXIT(harness::runCriticalSweep(board, options),
                ExitedWithCode(1), "above");
}

TEST(ErrorsDeathTest, InjectionBadLayer)
{
    nn::Network net({54, 16, 7});
    net.initWeights(1);
    auto model = nn::quantize(net);
    EXPECT_EXIT(accel::injectLayerFaults(model, 5, 10, 1),
                ExitedWithCode(1), "layer");
}

TEST(ErrorsDeathTest, RegionDiscoveryOnAux)
{
    pmbus::Board board(fpga::findPlatform("ZC702"));
    EXPECT_EXIT(
        (void)harness::tryDiscoverRegions(board, fpga::RailId::VccAux),
        ExitedWithCode(1), "VCCAUX");
}

} // namespace
} // namespace uvolt
