/**
 * @file
 * Tests for the VCCINT datapath-fault extension: the upset-probability
 * law, the fault-free fast path, determinism, and the headline
 * comparison (datapath faults hurt far more per event than storage
 * faults).
 */

#include <gtest/gtest.h>

#include "accel/logic_faults.hh"
#include "data/synthetic.hh"
#include "nn/trainer.hh"

namespace uvolt::accel
{
namespace
{

const nn::Network &
forestNet()
{
    static const nn::Network net = [] {
        const data::Dataset train_set = data::makeForestLike(1500, 3);
        nn::Network n({data::forestFeatures, 64, 32,
                       data::forestClasses});
        nn::TrainOptions options;
        options.epochs = 6;
        options.learningRate = 0.03;
        nn::train(n, train_set, options);
        return n;
    }();
    return net;
}

const data::Dataset &
forestTest()
{
    static const data::Dataset set = data::makeForestLike(
        800, combineSeeds(3, hashSeed("held-out")));
    return set;
}

TEST(LogicFaultModelTest, SafeRegionIsClean)
{
    const LogicFaultModel model(fpga::findPlatform("VC707"));
    EXPECT_EQ(model.neuronUpsetProbability(1.0), 0.0);
    EXPECT_EQ(model.neuronUpsetProbability(0.66), 0.0); // logic Vmin
}

TEST(LogicFaultModelTest, ExponentialGrowthBelowVmin)
{
    const LogicFaultModel model(fpga::findPlatform("VC707"));
    double previous = 0.0;
    for (int mv = 650; mv >= 590; mv -= 10) {
        const double prob = model.neuronUpsetProbability(mv / 1000.0);
        EXPECT_GT(prob, previous) << mv;
        previous = prob;
    }
    // Calibrated anchor at the logic Vcrash.
    EXPECT_NEAR(model.neuronUpsetProbability(0.59), 2e-2, 1e-9);
    // Clamped below Vcrash.
    EXPECT_NEAR(model.neuronUpsetProbability(0.50), 2e-2, 1e-9);
}

TEST(FaultyClassify, ZeroProbabilityMatchesCleanPath)
{
    Rng rng(5);
    for (std::size_t i = 0; i < 50; ++i) {
        EXPECT_EQ(faultyClassify(forestNet(), forestTest().sample(i), 0.0,
                                 rng),
                  forestNet().classify(forestTest().sample(i)));
    }
}

TEST(FaultyClassify, DeterministicInSeed)
{
    const LogicFaultModel model(fpga::findPlatform("VC707"));
    const double a = evaluateErrorUnderLogicFaults(
        forestNet(), forestTest(), model, 0.60, 7, 300);
    const double b = evaluateErrorUnderLogicFaults(
        forestNet(), forestTest(), model, 0.60, 7, 300);
    EXPECT_EQ(a, b);
}

TEST(FaultyClassify, ErrorGrowsTowardVcrash)
{
    const LogicFaultModel model(fpga::findPlatform("VC707"));
    const double clean = forestNet().evaluateError(forestTest());
    const double at_vmin = evaluateErrorUnderLogicFaults(
        forestNet(), forestTest(), model, 0.66, 7);
    const double at_vcrash = evaluateErrorUnderLogicFaults(
        forestNet(), forestTest(), model, 0.59, 7);
    EXPECT_DOUBLE_EQ(at_vmin, clean); // fault-free at the boundary
    EXPECT_GT(at_vcrash, clean + 0.005);
}

TEST(FaultyClassify, HighUpsetRateIsCatastrophic)
{
    // The headline: even a 5% per-neuron upset rate wrecks accuracy in
    // a way BRAM storage faults never did — datapath faults are
    // bipolar and strike every inference afresh.
    Rng rng(11);
    std::size_t wrong = 0;
    const std::size_t n = 400;
    for (std::size_t i = 0; i < n; ++i) {
        if (faultyClassify(forestNet(), forestTest().sample(i), 0.15,
                           rng) != forestTest().label(i))
            ++wrong;
    }
    const double clean = forestNet().evaluateError(forestTest(), n);
    EXPECT_GT(static_cast<double>(wrong) / n, clean + 0.05);
}

} // namespace
} // namespace uvolt::accel
