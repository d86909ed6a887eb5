/**
 * @file
 * Cross-module integration tests: the paper's full pipeline on a small
 * platform — characterize the chip (Listing 1), extract the FVM,
 * cluster it, deploy an NN accelerator, and verify that ICBP placement
 * protects accuracy at deep undervolting while the power model reports
 * the corresponding savings.
 */

#include <gtest/gtest.h>

#include "accel/accelerator.hh"
#include "accel/placement.hh"
#include "accel/weight_image.hh"
#include "data/synthetic.hh"
#include "fpga/fault_domain.hh"
#include "harness/clusterer.hh"
#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "nn/quantizer.hh"
#include "nn/trainer.hh"
#include "power/power_model.hh"
#include "pmbus/board.hh"

namespace uvolt
{
namespace
{

/** Shared pipeline state (built once; the sweep is the expensive part). */
class PipelineFixture : public ::testing::Test
{
  protected:
    struct State
    {
        fpga::PlatformSpec spec = fpga::findPlatform("ZC702");
        pmbus::Board board{spec};
        harness::SweepResult sweep;
        std::unique_ptr<harness::Fvm> fvm;
        nn::QuantizedModel model;
        data::Dataset testSet;
        double inherentError = 0.0;

        State()
        {
            // 1. Characterize (Listing 1, pattern 0xFFFF, 100 runs).
            sweep = harness::runCriticalSweep(board);
            fvm = std::make_unique<harness::Fvm>(
                harness::fvmFromSweep(sweep,
                                      board.device().floorplan()));

            // 2. Train + quantize the application.
            const data::Dataset train_set = data::makeForestLike(1800, 3);
            nn::Network net(
                {data::forestFeatures, 128, 64, data::forestClasses});
            nn::TrainOptions options;
            options.epochs = 6;
            options.learningRate = 0.03;
            nn::train(net, train_set, options);
            model = nn::quantize(net);
            testSet = data::makeForestLike(
                800, combineSeeds(3, hashSeed("held-out")));
            inherentError = model.toNetwork().evaluateError(testSet);
        }
    };

    static State &
    state()
    {
        static State instance;
        return instance;
    }
};

TEST_F(PipelineFixture, CharacterizationProducesUsableFvm)
{
    auto &s = state();
    EXPECT_EQ(s.sweep.points.front().vccBramMv, 620);
    EXPECT_EQ(s.sweep.points.back().vccBramMv, 560);
    EXPECT_NEAR(s.sweep.atVcrash().faultsPerMbit, 153.0, 153.0 * 0.12);
    EXPECT_GT(s.fvm->faultFreeFraction(), 0.3);
    // Enough clean BRAMs to host the protected layer.
    const auto report = harness::clusterBrams(*s.fvm);
    EXPECT_GT(report.lowVulnerableBrams.size(), 10u);
}

TEST_F(PipelineFixture, BaselineAccuracyIsSane)
{
    // The inherent (fault-free) error of the trained model.
    EXPECT_LT(state().inherentError, 0.25);
    EXPECT_GT(state().inherentError, 0.0);
}

TEST_F(PipelineFixture, UndervoltingDegradesWorstCasePlacement)
{
    auto &s = state();
    const accel::WeightImage image(s.model);

    // Adversarial placement: logical BRAMs pinned to the *most*
    // vulnerable physical BRAMs (the reliability order reversed). This
    // bounds the damage any placement can suffer and must show clear
    // degradation at Vcrash.
    auto order = s.fvm->bramsByReliability();
    std::vector<std::uint32_t> worst(order.rbegin(),
                                     order.rbegin() +
                                         image.logicalBramCount());
    const accel::Accelerator accel(s.board, image,
                                   accel::Placement(std::move(worst)));

    s.board.setVccBramMv(s.spec.calib.bramVcrashMv);
    s.board.startReferenceRun();
    EXPECT_GT(accel.weightFaults().total, 50u);

    // Corruption must propagate: the datapath sees different weights and
    // at least some predictions move. (The *magnitude* of the error
    // change is benchmark-scale dependent and is exercised by the Fig 11
    // / Fig 14 benches on the paper's MNIST model; at this small scale,
    // single-bit magnitude-shrinking flips are close to noise — exactly
    // the inherent resilience the paper reports.)
    const nn::Network faulty = accel.observedNetwork();
    const nn::Network clean = s.model.toNetwork();
    int moved = 0;
    for (std::size_t i = 0; i < s.testSet.size(); ++i) {
        moved += faulty.classify(s.testSet.sample(i)) !=
            clean.classify(s.testSet.sample(i));
    }
    EXPECT_GT(moved, 0);

    s.board.softReset();
}

TEST_F(PipelineFixture, IcbpBeatsWorstCaseAndTracksInherentError)
{
    auto &s = state();
    const accel::WeightImage image(s.model);

    // ICBP: protect every layer we can, most sensitive (last) first —
    // on this small model the whole image fits into reliable BRAMs.
    accel::IcbpOptions options;
    for (int l = static_cast<int>(s.model.layers.size()) - 1; l >= 0; --l)
        options.protectedLayers.push_back(l);
    const accel::Accelerator icbp(
        s.board, image, accel::icbpPlacement(image, *s.fvm, options));

    s.board.setVccBramMv(s.spec.calib.bramVcrashMv);
    s.board.startReferenceRun();
    const double icbp_error = icbp.classificationError(s.testSet);
    const auto icbp_faults = icbp.weightFaults().total;

    // Compare with the adversarial placement at the same conditions.
    auto order = s.fvm->bramsByReliability();
    std::vector<std::uint32_t> worst(order.rbegin(),
                                     order.rbegin() +
                                         image.logicalBramCount());
    const accel::Accelerator bad(s.board, image,
                                 accel::Placement(std::move(worst)));
    const auto bad_faults = bad.weightFaults().total;
    const double bad_error = bad.classificationError(s.testSet);

    EXPECT_LT(icbp_faults, bad_faults / 2);
    EXPECT_LE(icbp_error, bad_error + 0.005);
    // ICBP keeps the error near the inherent level (paper: ~0.1-0.6%).
    EXPECT_LT(icbp_error, s.inherentError + 0.02);

    s.board.softReset();
}

TEST_F(PipelineFixture, PowerSavingsAccompanyDeepUndervolting)
{
    auto &s = state();
    const power::RailPowerModel rail(s.spec);
    const double v_min = s.spec.calib.bramVminMv / 1000.0;
    const double v_crash = s.spec.calib.bramVcrashMv / 1000.0;
    EXPECT_GT(rail.savingVsNominal(v_min), 0.9);
    EXPECT_GT(rail.savingVs(v_crash, v_min), 0.25);
}

TEST(IntegrationTest, JitteredRunsKeepFaultLocationsStable)
{
    // Table II's qualitative claim: locations are stable over time.
    pmbus::Board board(fpga::findPlatform("ZC702"));
    board.device().fillAll(0xFFFF);
    board.setVccBramMv(board.spec().calib.bramVcrashMv);

    // Reference fault set.
    board.startReferenceRun();
    std::vector<std::uint16_t> reference;
    for (std::uint32_t b = 0; b < 40; ++b) {
        const auto rows =
            fpga::unpackRows(board.tryReadBramPacked(b).orFatal());
        reference.insert(reference.end(), rows.begin(), rows.end());
    }

    // Jittered runs differ only marginally.
    int mismatched_words = 0;
    for (int run = 0; run < 5; ++run) {
        board.startRun();
        std::size_t cursor = 0;
        for (std::uint32_t b = 0; b < 40; ++b) {
            const auto rows =
            fpga::unpackRows(board.tryReadBramPacked(b).orFatal());
            for (std::uint16_t word : rows)
                mismatched_words += (word != reference[cursor++]);
        }
    }
    // Five whole re-reads of 40 BRAMs: only boundary cells may move.
    EXPECT_LT(mismatched_words, 40);
    board.softReset();
}

} // namespace
} // namespace uvolt
