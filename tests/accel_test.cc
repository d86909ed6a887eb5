/**
 * @file
 * Tests for the accel module: the weight image layout (Table III), the
 * placement engines including ICBP (Fig 12), the BRAM-backed
 * accelerator under voltage, and the layer-vulnerability analysis
 * (Fig 13).
 */

#include <gtest/gtest.h>

#include <numeric>

#include "accel/accelerator.hh"
#include "accel/placement.hh"
#include "accel/vulnerability.hh"
#include "accel/weight_image.hh"
#include "data/synthetic.hh"
#include "fpga/fault_domain.hh"
#include "harness/experiment.hh"
#include "harness/fvm.hh"
#include "nn/trainer.hh"
#include "pmbus/board.hh"
#include "util/thread_pool.hh"

namespace uvolt::accel
{
namespace
{

using harness::Fvm;
using pmbus::Board;

/** A small trained model that fits comfortably on ZC702. */
const nn::QuantizedModel &
smallModel()
{
    static const nn::QuantizedModel model = [] {
        const data::Dataset train_set = data::makeForestLike(1500, 3);
        nn::Network net(
            {data::forestFeatures, 128, 64, data::forestClasses});
        nn::TrainOptions options;
        options.epochs = 6;
        options.learningRate = 0.03;
        nn::train(net, train_set, options);
        return nn::quantize(net);
    }();
    return model;
}

const data::Dataset &
smallTestSet()
{
    static const data::Dataset set = data::makeForestLike(
        600, combineSeeds(3, hashSeed("held-out")));
    return set;
}

TEST(WeightImageTest, PaperTopologyLayout)
{
    // Untrained weights suffice to check the layout arithmetic.
    nn::Network net({784, 1024, 512, 256, 128, 10});
    net.initWeights(1);
    const WeightImage image(nn::quantize(net));

    const auto &spans = image.layerSpans();
    ASSERT_EQ(spans.size(), 5u);
    EXPECT_EQ(spans[0].bramCount, 784u); // 784*1024 / 1024
    EXPECT_EQ(spans[1].bramCount, 512u);
    EXPECT_EQ(spans[2].bramCount, 128u);
    EXPECT_EQ(spans[3].bramCount, 32u);
    EXPECT_EQ(spans[4].bramCount, 2u);   // the paper's "two BRAMs"
    EXPECT_EQ(image.logicalBramCount(), 1458u);

    // Table III: 70.8% of VC707's 2060 BRAMs.
    EXPECT_NEAR(image.utilizationOf(2060), 0.708, 0.001);

    // Spans are contiguous and non-overlapping.
    std::uint32_t cursor = 0;
    for (const auto &span : spans) {
        EXPECT_EQ(span.firstLogicalBram, cursor);
        cursor += span.bramCount;
    }
    EXPECT_EQ(cursor, image.logicalBramCount());

    // layerOf agrees with the spans.
    EXPECT_EQ(image.layerOf(0), 0);
    EXPECT_EQ(image.layerOf(783), 0);
    EXPECT_EQ(image.layerOf(784), 1);
    EXPECT_EQ(image.layerOf(1456), 4);
    EXPECT_EQ(image.layerOf(1457), 4);
}

TEST(WeightImageTest, RowsHoldWeightsThenPadding)
{
    const WeightImage image(smallModel());
    const auto &layer0 = smallModel().layers[0];
    const auto rows = fpga::unpackRows(image.wordsOf(0));
    ASSERT_EQ(rows.size(), static_cast<std::size_t>(fpga::bramRows));
    for (int r = 0; r < 32; ++r)
        EXPECT_EQ(rows[static_cast<std::size_t>(r)],
                  layer0.weights[static_cast<std::size_t>(r)]);

    // The tail of each layer's last BRAM is zero-padded.
    const auto &spans = image.layerSpans();
    const auto last_bram_of_l0 = fpga::unpackRows(
        image.wordsOf(spans[0].firstLogicalBram + spans[0].bramCount - 1));
    const std::size_t used = spans[0].weightCount % weightsPerBram;
    if (used != 0) {
        for (std::size_t r = used; r < weightsPerBram; ++r)
            EXPECT_EQ(last_bram_of_l0[r], 0);
    }
}

TEST(WeightImageTest, DecodeIsInverseOfLayout)
{
    const WeightImage image(smallModel());
    std::vector<std::vector<std::uint64_t>> observed;
    for (std::uint32_t b = 0; b < image.logicalBramCount(); ++b)
        observed.push_back(image.wordsOf(b));
    const nn::QuantizedModel decoded = image.decode(observed);
    for (std::size_t l = 0; l < decoded.layers.size(); ++l)
        EXPECT_EQ(decoded.layers[l].weights,
                  smallModel().layers[l].weights);
}

TEST(WeightImageTest, DecodeAppliesCorruption)
{
    const WeightImage image(smallModel());
    std::vector<std::vector<std::uint64_t>> observed;
    for (std::uint32_t b = 0; b < image.logicalBramCount(); ++b)
        observed.push_back(image.wordsOf(b));
    auto rows = fpga::unpackRows(observed[0]);
    rows[5] = static_cast<std::uint16_t>(rows[5] ^ 0x8000);
    observed[0] = fpga::packRows(rows);
    const nn::QuantizedModel decoded = image.decode(observed);
    EXPECT_NE(decoded.layers[0].weights[5],
              smallModel().layers[0].weights[5]);
}

TEST(WeightImageTest, PaddingCorruptionIsIgnoredByDecode)
{
    const WeightImage image(smallModel());
    std::vector<std::vector<std::uint64_t>> observed;
    for (std::uint32_t b = 0; b < image.logicalBramCount(); ++b)
        observed.push_back(image.wordsOf(b));

    // Corrupt a padding row (beyond the layer's weight count) in the
    // last BRAM of layer 0.
    const auto &span = image.layerSpans()[0];
    const std::size_t used = span.weightCount % weightsPerBram;
    if (used != 0) {
        auto &last = observed[span.firstLogicalBram + span.bramCount - 1];
        auto rows = fpga::unpackRows(last);
        rows[used] = 0xFFFF;
        last = fpga::packRows(rows);
        const nn::QuantizedModel decoded = image.decode(observed);
        EXPECT_EQ(decoded.layers[0].weights,
                  smallModel().layers[0].weights);
    }
}

class TopologyLayout
    : public ::testing::TestWithParam<std::vector<int>>
{
};

TEST_P(TopologyLayout, SpansTileExactly)
{
    nn::Network net(GetParam());
    net.initWeights(3);
    const WeightImage image(nn::quantize(net));

    std::uint32_t cursor = 0;
    std::size_t weights = 0;
    for (const LayerSpan &span : image.layerSpans()) {
        EXPECT_EQ(span.firstLogicalBram, cursor);
        EXPECT_EQ(span.bramCount,
                  (span.weightCount + weightsPerBram - 1) /
                      weightsPerBram);
        cursor += span.bramCount;
        weights += span.weightCount;
    }
    EXPECT_EQ(cursor, image.logicalBramCount());
    EXPECT_EQ(weights, net.totalWeights());

    // Decode of the pristine image is the identity.
    std::vector<std::vector<std::uint64_t>> observed;
    for (std::uint32_t b = 0; b < image.logicalBramCount(); ++b)
        observed.push_back(image.wordsOf(b));
    const nn::QuantizedModel decoded = image.decode(observed);
    for (std::size_t l = 0; l < decoded.layers.size(); ++l) {
        EXPECT_EQ(decoded.layers[l].weights,
                  nn::quantize(net).layers[l].weights);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyLayout,
    ::testing::Values(std::vector<int>{4, 4},
                      std::vector<int>{1024, 1},
                      std::vector<int>{1, 1024},
                      std::vector<int>{54, 256, 128, 64, 7},
                      std::vector<int>{100, 1000, 100},
                      std::vector<int>{784, 1024, 512, 256, 128, 10}));

TEST(PlacementTest, DefaultIsIdentity)
{
    const WeightImage image(smallModel());
    const Placement placement = defaultPlacement(image);
    EXPECT_EQ(placement.logicalCount(), image.logicalBramCount());
    for (std::uint32_t i = 0; i < placement.logicalCount(); ++i)
        EXPECT_EQ(placement.physicalOf(i), i);
    EXPECT_TRUE(placement.fits(280));
}

TEST(PlacementTest, DuplicateTargetsDie)
{
    EXPECT_EXIT(Placement({0, 1, 1}), ::testing::ExitedWithCode(1),
                "two logical BRAMs");
}

TEST(PlacementTest, RandomIsInjectiveAndSeeded)
{
    const WeightImage image(smallModel());
    const Placement a = randomPlacement(image, 280, 5);
    const Placement b = randomPlacement(image, 280, 5);
    const Placement c = randomPlacement(image, 280, 6);
    EXPECT_EQ(a.mapping(), b.mapping());
    EXPECT_NE(a.mapping(), c.mapping());
    EXPECT_TRUE(a.fits(280));
}

/** A hand-built FVM: BRAM b has b faults (so BRAM 0 is most reliable). */
Fvm
rampFvm(std::uint32_t count)
{
    std::vector<int> faults(count);
    std::iota(faults.begin(), faults.end(), 0);
    const fpga::Floorplan plan = fpga::Floorplan::columnGrid(count, 70);
    return Fvm("synthetic", plan, std::move(faults));
}

TEST(PlacementTest, IcbpPinsLastLayerToMostReliable)
{
    const WeightImage image(smallModel());
    const Fvm fvm = rampFvm(280);
    const Placement placement = icbpPlacement(image, fvm);

    const auto &spans = image.layerSpans();
    const auto &last = spans.back();
    // The last layer occupies the most reliable BRAMs: 0, 1, ...
    for (std::uint32_t b = 0; b < last.bramCount; ++b)
        EXPECT_EQ(placement.physicalOf(last.firstLogicalBram + b), b);
    // Other layers fill the remaining pool in order, skipping the pins.
    EXPECT_EQ(placement.physicalOf(0), last.bramCount);
}

TEST(PlacementTest, IcbpCustomProtectedSet)
{
    const WeightImage image(smallModel());
    const Fvm fvm = rampFvm(280);
    IcbpOptions options;
    options.protectedLayers = {2, 0}; // priority order
    const Placement placement = icbpPlacement(image, fvm, options);

    const auto &spans = image.layerSpans();
    // Layer 2 takes the best BRAMs, then layer 0 the next best.
    EXPECT_EQ(placement.physicalOf(spans[2].firstLogicalBram), 0u);
    EXPECT_EQ(placement.physicalOf(spans[0].firstLogicalBram),
              spans[2].bramCount);
}

TEST(AcceleratorTest, FaultFreeAtNominal)
{
    Board board(fpga::findPlatform("ZC702"));
    const WeightImage image(smallModel());
    const Accelerator accel(board, image, defaultPlacement(image));

    board.startReferenceRun();
    EXPECT_EQ(accel.weightFaults().total, 0u);

    // The observed model at nominal voltage is bit-identical.
    const nn::QuantizedModel observed = accel.observedModel();
    for (std::size_t l = 0; l < observed.layers.size(); ++l)
        EXPECT_EQ(observed.layers[l].weights,
                  smallModel().layers[l].weights);

    // And classifies exactly like the float reference of the image.
    const double reference =
        smallModel().toNetwork().evaluateError(smallTestSet());
    EXPECT_DOUBLE_EQ(accel.classificationError(smallTestSet()), reference);
}

TEST(AcceleratorTest, FaultsAppearAtVcrash)
{
    Board board(fpga::findPlatform("ZC702"));
    const WeightImage image(smallModel());
    const Accelerator accel(board, image, defaultPlacement(image));

    board.setVccBramMv(board.spec().calib.bramVcrashMv);
    board.startReferenceRun();
    const WeightFaultReport report = accel.weightFaults();
    EXPECT_GT(report.total, 0u);
    EXPECT_EQ(std::accumulate(report.faultsPerLayer.begin(),
                              report.faultsPerLayer.end(), 0ull),
              report.total);
}

TEST(AcceleratorTest, ObservationCacheServesRepeatCalls)
{
    Board board(fpga::findPlatform("ZC702"));
    const WeightImage image(smallModel());
    const Accelerator accel(board, image, defaultPlacement(image));
    board.startReferenceRun();

    EXPECT_EQ(accel.observationCacheHits(), 0u);
    const WeightFaultReport faults = accel.weightFaults();
    const double error = accel.classificationError(smallTestSet());
    // The weightFaults() + classificationError() pair at one operating
    // point costs a single readback; everything after the first call
    // is a hit.
    const std::uint64_t hits = accel.observationCacheHits();
    EXPECT_GT(hits, 0u);

    // Repeat calls at the unchanged dose: hits only, same answers.
    EXPECT_EQ(accel.weightFaults().total, faults.total);
    EXPECT_DOUBLE_EQ(accel.classificationError(smallTestSet()), error);
    EXPECT_GT(accel.observationCacheHits(), hits);
}

TEST(AcceleratorTest, ObservationCacheInvalidatedByVoltageChange)
{
    Board board(fpga::findPlatform("ZC702"));
    const WeightImage image(smallModel());
    const Accelerator accel(board, image, defaultPlacement(image));
    board.startReferenceRun();

    const double nominal = accel.classificationError(smallTestSet());

    // Dropping VCCBRAM changes the fault dose: the stale decode must
    // not be served, and the fresh one must match a from-scratch
    // accelerator at the same operating point.
    board.setVccBramMv(board.spec().calib.bramVcrashMv);
    const std::uint64_t hits = accel.observationCacheHits();
    const double at_vcrash = accel.classificationError(smallTestSet());
    EXPECT_EQ(accel.observationCacheHits(), hits); // miss, not a hit
    EXPECT_GT(accel.weightFaults().total, 0u);

    Board fresh_board(fpga::findPlatform("ZC702"));
    const Accelerator fresh(fresh_board, image,
                            defaultPlacement(image));
    fresh_board.setVccBramMv(fresh_board.spec().calib.bramVcrashMv);
    fresh_board.startReferenceRun();
    EXPECT_DOUBLE_EQ(fresh.classificationError(smallTestSet()),
                     at_vcrash);

    // Returning to nominal re-decodes back to the fault-free answer.
    board.setVccBramMv(board.spec().vnomMv);
    EXPECT_DOUBLE_EQ(accel.classificationError(smallTestSet()), nominal);
}

TEST(AcceleratorTest, ObservationCacheInvalidatedByProgram)
{
    Board board(fpga::findPlatform("ZC702"));
    const WeightImage image(smallModel());
    Accelerator accel(board, image, defaultPlacement(image));
    board.startReferenceRun();

    accel.observedModel();
    const std::uint64_t hits_before = accel.observationCacheHits();
    accel.observedModel();
    EXPECT_EQ(accel.observationCacheHits(), hits_before + 1);

    // program() rewrites the BRAMs: cached readbacks no longer
    // describe the device, so the next observation is a miss.
    accel.program();
    accel.observedModel();
    EXPECT_EQ(accel.observationCacheHits(), hits_before + 1);
}

TEST(AcceleratorTest, BatchedEvalOptionsMatchDefaultOverload)
{
    Board board(fpga::findPlatform("ZC702"));
    const WeightImage image(smallModel());
    const Accelerator accel(board, image, defaultPlacement(image));
    board.setVccBramMv(board.spec().calib.bramVcrashMv);
    board.startReferenceRun();

    const double reference = accel.classificationError(smallTestSet());
    ThreadPool pool(4);
    const nn::EvalOptions options{.limit = 0, .batch = 11,
                                  .pool = &pool};
    EXPECT_DOUBLE_EQ(accel.classificationError(smallTestSet(), options),
                     reference);
}

TEST(AcceleratorTest, FaultCountGrowsWithDepth)
{
    Board board(fpga::findPlatform("ZC702"));
    const WeightImage image(smallModel());
    const Accelerator accel(board, image, defaultPlacement(image));
    board.startReferenceRun();

    std::uint64_t previous = 0;
    for (int mv = board.spec().calib.bramVminMv;
         mv >= board.spec().calib.bramVcrashMv; mv -= 10) {
        board.setVccBramMv(mv);
        const std::uint64_t faults = accel.weightFaults().total;
        EXPECT_GE(faults, previous);
        previous = faults;
    }
    EXPECT_GT(previous, 0u);
}

TEST(InjectionTest, FlipsExactlyRequestedOnes)
{
    nn::QuantizedModel model = smallModel();
    const auto ones_before = [&](int layer) {
        std::uint64_t total = 0;
        for (auto word : model.layers[static_cast<std::size_t>(
                 layer)].weights)
            total += static_cast<std::uint64_t>(fxp::popcount(word));
        return total;
    };

    const std::uint64_t before = ones_before(1);
    const int flipped = injectLayerFaults(model, 1, 200, 9);
    EXPECT_EQ(flipped, 200);
    EXPECT_EQ(ones_before(1), before - 200);
}

TEST(InjectionTest, BoundedByOnePopulation)
{
    nn::QuantizedModel model = smallModel();
    // The last layer is small; ask for more flips than it has "1" bits.
    const int flipped =
        injectLayerFaults(model, static_cast<int>(model.layers.size()) - 1,
                          1 << 30, 9);
    EXPECT_GT(flipped, 0);
    EXPECT_LT(flipped, 1 << 30);
    std::uint64_t remaining = 0;
    for (auto word : model.layers.back().weights)
        remaining += static_cast<std::uint64_t>(fxp::popcount(word));
    EXPECT_EQ(remaining, 0u);
}

TEST(VulnerabilityTest, ReportShapeAndNormalization)
{
    InjectionOptions options;
    options.faultsPerTrial = 300;
    options.trials = 2;
    options.evalLimit = 400;
    const auto report =
        analyzeLayerVulnerability(smallModel(), smallTestSet(), options);

    ASSERT_EQ(report.size(), smallModel().layers.size());
    double max_norm = 0.0;
    for (const auto &entry : report) {
        EXPECT_GE(entry.errorDelta, 0.0);
        EXPECT_GE(entry.normalizedVulnerability, 0.0);
        EXPECT_LE(entry.normalizedVulnerability, 1.0);
        max_norm = std::max(max_norm, entry.normalizedVulnerability);
        EXPECT_GT(entry.brams, 0u);
    }
    EXPECT_DOUBLE_EQ(max_norm, 1.0);
}

} // namespace
} // namespace uvolt::accel
