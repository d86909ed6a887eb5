/**
 * @file
 * Tests for the NN module: activations, forward pass, training on small
 * learnable problems, quantization (Fig 9 semantics), and the model zoo
 * save/load round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <vector>

#include "data/synthetic.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "nn/quantizer.hh"
#include "nn/trainer.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace uvolt::nn
{
namespace
{

TEST(Activations, Logsig)
{
    EXPECT_FLOAT_EQ(logsig(0.0f), 0.5f);
    EXPECT_GT(logsig(10.0f), 0.9999f);
    EXPECT_LT(logsig(-10.0f), 0.0001f);
    EXPECT_NEAR(logsig(1.0f), 0.7310586f, 1e-6f);
}

std::uint32_t
bitsOf(float value)
{
    return std::bit_cast<std::uint32_t>(value);
}

TEST(Activations, ExpfMatchesRecordedGlibcAnswers)
{
    // expf() results recorded from glibc 2.36's expf on an FMA host.
    // A fixed table, so the check does not depend on the libm this test
    // runs against. It covers the overflow edge, the float-min and
    // subnormal range, the underflow edge, and the fused steps.
    struct Answer
    {
        float x;
        std::uint32_t bits;
    };
    const Answer answers[] = {
        {0x0p+0f, 0x3f800000},          // 1
        {0x1p+0f, 0x402df854},          // e
        {-0x1p+0f, 0x3ebc5ab2},         // 1/e
        {0x1p-1f, 0x3fd3094c},
        {0x1p-30f, 0x3f800000},
        {0x1.921fb6p+1f, 0x41b92025},   // exp(pi)
        {0x1.4p+3f, 0x46ac14ee},        // exp(10)
        {-0x1.4p+3f, 0x383e6bce},       // exp(-10)
        {0x1.5p+5f, 0x5dc1192b},
        {-0x1.94p+5f, 0x1b0d6cfa},
        {-0x1.5d58ap+6f, 0x007fffe6},   // just below FLT_MIN
        {-0x1.9p+6f, 0x0000001b},       // exp(-100), subnormal
        {0x1.62e42ep+6f, 0x7f7fff84},   // largest finite result
        {0x1.62e43p+6f, 0x7f800000},    // overflows to +inf
        {-0x1.9d1d9ep+6f, 0x00000001},  // smallest subnormal
        {-0x1.9fe368p+6f, 0x00000001},  // last input above 0
        {-0x1.9fe36ap+6f, 0x00000000},  // underflows to 0
        // The only two inputs where the same algorithm with no step
        // fused (glibc's non-FMA variant) rounds to another float.
        {0x1.04845ep+5f, 0x56fc9f1c},
        {-0x1.f8cbb2p+5f, 0x11fa2993},
    };
    for (const Answer &answer : answers)
        EXPECT_EQ(bitsOf(expf(answer.x)), answer.bits)
            << std::hexfloat << answer.x;
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(expf(inf), inf);
    EXPECT_EQ(bitsOf(expf(-inf)), 0u);
    EXPECT_TRUE(std::isnan(expf(std::numeric_limits<float>::quiet_NaN())));
}

TEST(Activations, ExpfDigestMatchesRecordedGlibcDigest)
{
    // The answers above reach 7 of the 32 table entries. This FNV-1a
    // digest of expf() over every 4099th non-NaN bit pattern (1,043,716
    // inputs, 68,046 of them with 2^-10 < |x| < 104) reaches all
    // of them; it was recorded from glibc 2.36's expf.
    std::uint64_t digest = 0xcbf29ce484222325;
    for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << 32);
         bits += 4099) {
        const float x = std::bit_cast<float>(static_cast<std::uint32_t>(bits));
        if (!std::isnan(x))
            digest = (digest ^ bitsOf(expf(x))) * 0x100000001b3;
    }
    EXPECT_EQ(digest, 0xce7ae8323610f809u);
}

constexpr int probeClasses = 129;

/**
 * A 1 x lanes x 129 network that shows the hidden activations it
 * computes in its class distribution, to one ulp. Each input x reaches
 * all @a lanes hidden neurons unchanged (weight 1, bias -0), so every
 * hidden activation h is logsig(x). Class 0 has logit 0, and class
 * c >= 1 reads hidden neuron c % lanes and has logit -2^(c-1) h. The
 * peak logit is then 0, and for every h one class scales it into
 * [-64, -32), or by 2^127 when h is below 2^-122. There an ulp of h
 * moves that logit by 2^-22 or more and its probability by several
 * ulps (ProbeSeesOneUlpOfTheActivation checks this).
 */
Network
activationProbe(int lanes)
{
    Network probe({1, lanes, probeClasses});
    // Weights are row-major: weights()[o * inputs + i] multiplies
    // input i for output o.
    for (int j = 0; j < lanes; ++j) {
        probe.layer(0).weights()[j] = 1.0f;
        probe.layer(0).biases()[j] = -0.0f;
    }
    for (int c = 1; c < probeClasses; ++c)
        probe.layer(1).weights()[c * lanes + c % lanes] =
            -std::ldexp(1.0f, c - 1);
    return probe;
}

/** The probe's class distribution when every hidden activation is @a h,
 *  through the scalar DenseLayer::forward() and softmaxInPlace(). */
void
probeOutput(const Network &probe, float h, std::vector<float> &probs)
{
    const std::vector<float> hidden(
        static_cast<std::size_t>(probe.layerSizes()[1]), h);
    probs.resize(probeClasses);
    probe.layer(1).forward(hidden, probs);
    softmaxInPlace(probs);
}

/** Bit for bit, except that any NaN matches any NaN. */
bool
sameFloat(float a, float b)
{
    return bitsOf(a) == bitsOf(b) || (std::isnan(a) && std::isnan(b));
}

/**
 * Run @a inputs through the probe's batched engine, whose hidden-layer
 * loop covers lanes x batch activations at once and is vectorized, and
 * expect each sample's distribution to equal probeOutput() of the
 * scalar logsig() bit for bit. With @a also_infer, expect the same of
 * infer(), whose hidden-layer loop covers the lanes of one sample.
 */
void
expectProbeMatchesScalarLogsig(const std::vector<float> &inputs, int lanes,
                               bool also_infer = false)
{
    const Network probe = activationProbe(lanes);
    constexpr std::size_t chunk = 4096;
    std::vector<float> probs, spec;
    for (std::size_t first = 0; first < inputs.size(); first += chunk) {
        const std::size_t batch = std::min(chunk, inputs.size() - first);
        probs.resize(probeClasses * batch);
        probe.inferBatch(std::span<const float>(inputs).subspan(first, batch),
                         probs, static_cast<int>(batch));
        for (std::size_t s = 0; s < batch; ++s) {
            const float x = inputs[first + s];
            probeOutput(probe, logsig(x), spec);
            for (std::size_t c = 0; c < spec.size(); ++c) {
                if (!sameFloat(probs[s * probeClasses + c], spec[c]))
                    FAIL() << "x=" << std::hexfloat << x << ", class " << c
                           << ", " << lanes << " lanes, batch " << batch;
            }
            if (!also_infer)
                continue;
            const auto scalar = probe.infer(std::span<const float>(&x, 1));
            for (std::size_t c = 0; c < spec.size(); ++c) {
                if (!sameFloat(scalar[c], spec[c]))
                    FAIL() << "infer, x=" << std::hexfloat << x << ", class "
                           << c << ", " << lanes << " lanes";
            }
        }
    }
}

/** The inputs where the range selects and the core meet, with their
 *  float neighbours. */
std::vector<float>
logsigEdgeInputs()
{
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> edges = {
        0.0f, -0.0f, inf, -inf, std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::min(), -std::numeric_limits<float>::min(),
        0x1.234p-140f, -0x1.234p-140f, 80.0f, -80.0f, 88.72283f, -88.72283f,
        103.27892f, -103.27892f, 103.97207f, -103.97207f,
        std::numeric_limits<float>::max(), -std::numeric_limits<float>::max(),
    };
    std::vector<float> inputs;
    for (float edge : edges) {
        inputs.push_back(edge);
        if (std::isfinite(edge)) {
            inputs.push_back(std::nextafter(edge, inf));
            inputs.push_back(std::nextafter(edge, -inf));
        }
    }
    return inputs;
}

/** Every @a stride-th of the 2^32 bit patterns, then the edge inputs.
 *  An odd stride visits both signs, every exponent and NaN payloads. */
std::vector<float>
sweepInputs(std::uint64_t stride)
{
    std::vector<float> inputs;
    for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << 32);
         bits += stride)
        inputs.push_back(std::bit_cast<float>(
            static_cast<std::uint32_t>(bits)));
    const auto edges = logsigEdgeInputs();
    inputs.insert(inputs.end(), edges.begin(), edges.end());
    return inputs;
}

TEST(Activations, ProbeSeesOneUlpOfTheActivation)
{
    // Without this the two tests below could pass with a vectorized
    // logsig that is off by an ulp.
    const Network probe = activationProbe(1);
    std::vector<float> spec, moved;
    for (float x : sweepInputs(131071)) {
        const float h = logsig(x);
        if (std::isnan(h))
            continue;
        probeOutput(probe, h, spec);
        for (float off :
             {std::nextafter(h, -1.0f), std::nextafter(h, 2.0f)}) {
            probeOutput(probe, off, moved);
            ASSERT_NE(moved, spec) << "x=" << std::hexfloat << x
                                   << ", h=" << h;
        }
    }
}

TEST(Activations, BatchedLogsigMatchesScalarOnStridedSweep)
{
    // Every 16411th bit pattern (261,713 of them) and the edges, 4096
    // samples a batch.
    expectProbeMatchesScalarLogsig(sweepInputs(16411), 1);
}

TEST(Activations, LogsigLoopsMatchScalarAtEveryShortLength)
{
    // Loops of 1..67 activations run every vector width's epilogue: the
    // batched engine's at batch 1..67 with one lane, infer()'s at 1..67
    // lanes.
    const auto edges = logsigEdgeInputs();
    std::vector<float> pool;
    for (int k = 0; k < 67; ++k)
        pool.push_back(edges[static_cast<std::size_t>(k) % edges.size()] *
                       (k % 3 == 0 ? 1.0f : 0.37f * static_cast<float>(k)));
    for (int length = 1; length <= 67; ++length) {
        expectProbeMatchesScalarLogsig(
            std::vector<float>(pool.begin(), pool.begin() + length), 1);
        expectProbeMatchesScalarLogsig(edges, length, true);
    }
}

TEST(Activations, SoftmaxNormalizesAndOrders)
{
    std::vector<float> logits{1.0f, 3.0f, 2.0f};
    softmaxInPlace(logits);
    float sum = 0.0f;
    for (float p : logits)
        sum += p;
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
    EXPECT_GT(logits[1], logits[2]);
    EXPECT_GT(logits[2], logits[0]);
}

TEST(Activations, SoftmaxStableForLargeLogits)
{
    std::vector<float> logits{1000.0f, 1001.0f};
    softmaxInPlace(logits);
    EXPECT_NEAR(logits[0] + logits[1], 1.0f, 1e-6f);
    EXPECT_FALSE(std::isnan(logits[0]));
}

TEST(DenseLayerTest, ForwardMatrixVector)
{
    DenseLayer layer(2, 2);
    const float weights[] = {1.0f, 2.0f, -1.0f, 0.5f}; // row-major
    const float biases[] = {0.25f, -0.25f};
    std::ranges::copy(weights, layer.weights().begin());
    std::ranges::copy(biases, layer.biases().begin());

    const float x[2] = {3.0f, 4.0f};
    float z[2];
    layer.forward(x, z);
    EXPECT_FLOAT_EQ(z[0], 1.0f * 3 + 2.0f * 4 + 0.25f);
    EXPECT_FLOAT_EQ(z[1], -1.0f * 3 + 0.5f * 4 - 0.25f);
}

TEST(DenseLayerTest, ProductsAreFused)
{
    // w * x = 1 + 2^-11 + 2^-24 exactly. Rounded to float first (a tie,
    // resolved to even) it is 1 + 2^-11 and the bias cancels it to 0;
    // fused, the 2^-24 survives.
    const float w = 1.0f + 0x1p-12f;
    DenseLayer layer(1, 1);
    layer.weights()[0] = w;
    layer.biases()[0] = -(1.0f + 0x1p-11f);

    float z = -1.0f;
    layer.forward(std::span<const float>(&w, 1), std::span<float>(&z, 1));
    EXPECT_EQ(z, 0x1p-24f);
    for (const int batch : {1, 16, 64}) {
        const std::vector<float> x(static_cast<std::size_t>(batch), w);
        std::vector<float> zs(static_cast<std::size_t>(batch), -1.0f);
        layer.forwardBatch(x, zs, batch);
        for (int s = 0; s < batch; ++s)
            EXPECT_EQ(zs[static_cast<std::size_t>(s)], 0x1p-24f)
                << "batch " << batch << " column " << s;
    }
}

TEST(DenseLayerTest, MaxAbsWeight)
{
    DenseLayer layer(2, 1);
    layer.weights()[0] = -3.5f;
    layer.weights()[1] = 2.0f;
    EXPECT_FLOAT_EQ(layer.maxAbsWeight(), 3.5f);
}

TEST(NetworkTest, TopologyAndWeightCount)
{
    Network net({784, 1024, 512, 256, 128, 10});
    EXPECT_EQ(net.layerCount(), 5);
    // Paper: ~1.5 million weights.
    EXPECT_EQ(net.totalWeights(),
              784u * 1024 + 1024u * 512 + 512u * 256 + 256u * 128 +
                  128u * 10);
    EXPECT_EQ(net.totalWeights(), 1492224u);
}

TEST(NetworkTest, InferIsDistribution)
{
    Network net({4, 8, 3});
    net.initWeights(5);
    const float x[4] = {0.1f, -0.2f, 0.3f, 0.7f};
    const auto probs = net.infer(x);
    ASSERT_EQ(probs.size(), 3u);
    float sum = 0.0f;
    for (float p : probs) {
        EXPECT_GE(p, 0.0f);
        sum += p;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(NetworkTest, InitIsDeterministic)
{
    Network a({4, 8, 3}), b({4, 8, 3});
    a.initWeights(5);
    b.initWeights(5);
    EXPECT_TRUE(std::ranges::equal(a.layer(0).weights(),
                                   b.layer(0).weights()));
    b.initWeights(6);
    EXPECT_FALSE(std::ranges::equal(a.layer(0).weights(),
                                    b.layer(0).weights()));
}

TEST(TrainerTest, LearnsForestLike)
{
    const data::Dataset train_set = data::makeForestLike(1500, 3);
    const data::Dataset test_set = data::makeForestLike(
        500, uvolt::combineSeeds(3, uvolt::hashSeed("held-out")));

    Network net({data::forestFeatures, 64, 32, data::forestClasses});
    TrainOptions options;
    options.epochs = 6;
    options.learningRate = 0.03;
    const TrainReport report = train(net, train_set, options);

    EXPECT_LT(report.finalTrainError, 0.25);
    EXPECT_LT(net.evaluateError(test_set), 0.30); // chance ~0.86
}

TEST(TrainerTest, DeterministicGivenSeeds)
{
    const data::Dataset train_set = data::makeForestLike(300, 3);
    Network a({data::forestFeatures, 16, data::forestClasses});
    Network b({data::forestFeatures, 16, data::forestClasses});
    TrainOptions options;
    options.epochs = 2;
    train(a, train_set, options);
    train(b, train_set, options);
    EXPECT_TRUE(std::ranges::equal(a.layer(0).weights(),
                                   b.layer(0).weights()));
    EXPECT_EQ(a.layer(1).bias(3), b.layer(1).bias(3));
}

TEST(TrainerTest, OutputMseRefinementGrowsWeightsNotError)
{
    const data::Dataset train_set = data::makeForestLike(1500, 3);
    const data::Dataset test_set = data::makeForestLike(
        500, uvolt::combineSeeds(3, uvolt::hashSeed("held-out")));
    Network net({data::forestFeatures, 64, 32, data::forestClasses});
    TrainOptions options;
    options.epochs = 5;
    options.learningRate = 0.03;
    train(net, train_set, options);
    const double before_error = net.evaluateError(test_set);
    const float before_max = net.layer(2).maxAbsWeight();

    OutputMseOptions refine;
    refine.epochs = 300;
    refine.learningRate = 0.02;
    const TrainReport report =
        finetuneOutputMse(net, train_set, refine);
    EXPECT_EQ(report.epochs, 300);

    // Chasing saturated logsig targets inflates the output layer...
    EXPECT_GT(net.layer(2).maxAbsWeight(), before_max * 1.5f);
    // ...without costing accuracy.
    EXPECT_LT(net.evaluateError(test_set), before_error + 0.02);
    // Hidden layers are untouched.
    Network reference({data::forestFeatures, 64, 32,
                       data::forestClasses});
    train(reference, train_set, options);
    EXPECT_TRUE(std::ranges::equal(net.layer(0).weights(),
                                   reference.layer(0).weights()));
}

TEST(TrainerTest, OutputMseZeroEpochsIsNoOp)
{
    const data::Dataset train_set = data::makeForestLike(200, 3);
    Network net({data::forestFeatures, 16, data::forestClasses});
    net.initWeights(3);
    const std::vector<float> before(net.layer(1).weights().begin(),
                                    net.layer(1).weights().end());
    OutputMseOptions refine;
    refine.epochs = 0;
    finetuneOutputMse(net, train_set, refine);
    EXPECT_TRUE(std::ranges::equal(net.layer(1).weights(), before));
}

TEST(QuantizerTest, PerLayerMinimumPrecision)
{
    Network net({2, 2, 2});
    // Layer 0 weights inside (-1, 1): no digit bits.
    net.layer(0).weights()[0] = 0.5f;
    net.layer(0).weights()[3] = -0.75f;
    // Layer 1 has a weight of magnitude 9: needs 4 digit bits.
    net.layer(1).weights()[0] = 9.0f;

    const QuantizedModel model = quantize(net);
    EXPECT_EQ(model.layers[0].format.digitBits(), 0);
    EXPECT_EQ(model.layers[1].format.digitBits(), 4);
    EXPECT_EQ(model.layers[0].format.describe(), "s1.d0.f15");
    EXPECT_EQ(model.layers[1].format.describe(), "s1.d4.f11");
}

TEST(QuantizerTest, RoundTripPreservesAccuracy)
{
    const data::Dataset train_set = data::makeForestLike(1200, 3);
    Network net({data::forestFeatures, 32, data::forestClasses});
    TrainOptions options;
    options.epochs = 4;
    train(net, train_set, options);

    // 16-bit fixed point costs almost nothing (paper: "negligible
    // accuracy loss").
    const data::Dataset test_set = data::makeForestLike(
        400, uvolt::combineSeeds(3, uvolt::hashSeed("held-out")));
    EXPECT_LT(std::abs(quantizationErrorDelta(net, test_set)), 0.01);
}

TEST(QuantizerTest, DecodedWeightsCloseToFloat)
{
    Network net({2, 1, 2});
    net.layer(0).weights()[0] = 0.123f;
    net.layer(0).weights()[1] = -0.456f;
    const QuantizedModel model = quantize(net);
    const Network rebuilt = model.toNetwork();
    EXPECT_NEAR(rebuilt.layer(0).weights()[0], 0.123f, 1e-4f);
    EXPECT_NEAR(rebuilt.layer(0).weights()[1], -0.456f, 1e-4f);
}

TEST(QuantizerTest, ZeroBitFractionOfTrainedNetIsHigh)
{
    const data::Dataset train_set = data::makeForestLike(1200, 3);
    Network net({data::forestFeatures, 32, data::forestClasses});
    TrainOptions options;
    options.epochs = 4;
    train(net, train_set, options);
    const QuantizedModel model = quantize(net);
    // The paper's observation: most weight bits are "0".
    EXPECT_GT(model.zeroBitFraction(), 0.55);
}

TEST(ModelZoo, SpecKeysDistinguishConfigs)
{
    ZooSpec a = paperMnistSpec();
    ZooSpec b = paperMnistSpec();
    EXPECT_EQ(a.cacheKey(), b.cacheKey());
    b.train.epochs += 1;
    EXPECT_NE(a.cacheKey(), b.cacheKey());
    ZooSpec c = paperMnistSpec();
    c.dataSeed += 1;
    EXPECT_NE(a.cacheKey(), c.cacheKey());
}

// The paper specs' keys name the model files cached under
// uvolt_model_cache/: a changed key silently retrains every model.
TEST(ModelZoo, PaperSpecKeysNameTheCachedModels)
{
    EXPECT_EQ(paperMnistSpec().cacheKey(), "6114abe974db127d");
    EXPECT_EQ(paperForestSpec().cacheKey(), "3801f9ecd63ccb18");
    EXPECT_EQ(paperReutersSpec().cacheKey(), "0e39c795c4545f5c");
}

TEST(ModelZoo, PaperSpecShapes)
{
    const ZooSpec mnist = paperMnistSpec();
    EXPECT_EQ(mnist.topology,
              (std::vector<int>{784, 1024, 512, 256, 128, 10}));
    EXPECT_EQ(paperForestSpec().topology.front(), data::forestFeatures);
    EXPECT_EQ(paperForestSpec().topology.back(), data::forestClasses);
    EXPECT_EQ(paperReutersSpec().topology.front(), data::reutersVocab);
    EXPECT_EQ(paperReutersSpec().topology.back(), data::reutersClasses);
}

TEST(ModelZoo, SaveLoadRoundTrip)
{
    Network net({4, 6, 3});
    net.initWeights(77);
    const std::string path = "test_zoo_cache/roundtrip.nnw";
    ASSERT_TRUE(saveNetwork(net, path));

    Network loaded({4, 6, 3});
    ASSERT_TRUE(loadNetwork(loaded, path));
    for (int l = 0; l < net.layerCount(); ++l) {
        EXPECT_TRUE(std::ranges::equal(loaded.layer(l).weights(),
                                       net.layer(l).weights()));
        EXPECT_TRUE(std::ranges::equal(loaded.layer(l).biases(),
                                       net.layer(l).biases()));
    }

    // Shape mismatch is rejected.
    Network wrong({4, 7, 3});
    EXPECT_FALSE(loadNetwork(wrong, path));

    // So is a file one byte short or one byte long.
    const auto size = std::filesystem::file_size(path);
    const std::string longer = "test_zoo_cache/longer.nnw";
    std::filesystem::copy_file(
        path, longer, std::filesystem::copy_options::overwrite_existing);
    std::ofstream(longer, std::ios::binary | std::ios::app).put('\0');
    EXPECT_FALSE(loadNetwork(loaded, longer));
    std::filesystem::resize_file(path, size - 1);
    EXPECT_FALSE(loadNetwork(loaded, path));
    EXPECT_FALSE(loadNetwork(loaded, "test_zoo_cache/nonexistent.nnw"));
    std::filesystem::remove_all("test_zoo_cache");
}

/** A mid-size net + dataset shared by the batched-engine tests. */
struct BatchedFixture
{
    Network net{{data::forestFeatures, 64, 32, data::forestClasses}};
    data::Dataset set = data::makeForestLike(337, 11); // odd size: the
                                                       // tail batch is
                                                       // always ragged
    BatchedFixture() { net.initWeights(9); }
};

TEST(BatchedEval, ForwardBatchMatchesForwardAtEveryWidth)
{
    // Output counts that are not multiples of the kernel's row tile, and
    // widths that run every column strip and the single-column tail.
    std::vector<int> widths;
    for (int batch = 1; batch <= 70; ++batch)
        widths.push_back(batch);
    for (int batch = 127; batch <= 129; ++batch)
        widths.push_back(batch);
    Rng rng(17);
    for (const auto &[inputs, outputs] :
         {std::pair{3, 7}, std::pair{54, 16}, std::pair{130, 67}}) {
        DenseLayer layer(inputs, outputs);
        for (auto &w : layer.weights())
            w = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (auto &b : layer.biases())
            b = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (const int batch : widths) {
            const std::size_t columns = static_cast<std::size_t>(batch);
            std::vector<float> x(static_cast<std::size_t>(inputs) * columns);
            for (auto &value : x)
                value = static_cast<float>(rng.uniform());
            std::vector<float> z(static_cast<std::size_t>(outputs) * columns);
            layer.forwardBatch(x, z, batch);

            std::vector<float> column(static_cast<std::size_t>(inputs));
            std::vector<float> expected(static_cast<std::size_t>(outputs));
            int mismatches = 0;
            for (std::size_t s = 0; s < columns; ++s) {
                for (std::size_t i = 0; i < column.size(); ++i)
                    column[i] = x[i * columns + s];
                layer.forward(column, expected);
                for (std::size_t o = 0; o < expected.size(); ++o)
                    mismatches += z[o * columns + s] != expected[o];
            }
            EXPECT_EQ(mismatches, 0) << inputs << "->" << outputs
                                     << " layer, batch " << batch;
        }
    }
}

TEST(BatchedEval, InferBatchBitIdenticalToInfer)
{
    BatchedFixture fx;
    constexpr int batch = 7;
    const std::size_t features = data::forestFeatures;
    const std::size_t classes = data::forestClasses;

    std::vector<float> inputs(features * batch);
    for (int s = 0; s < batch; ++s) {
        const auto sample = fx.set.sample(static_cast<std::size_t>(s));
        std::copy(sample.begin(), sample.end(),
                  inputs.begin() + static_cast<std::size_t>(s) * features);
    }
    std::vector<float> probs(classes * batch);
    fx.net.inferBatch(inputs, probs, batch);

    for (int s = 0; s < batch; ++s) {
        const auto sample = fx.set.sample(static_cast<std::size_t>(s));
        const auto expected = fx.net.infer(sample);
        for (std::size_t c = 0; c < classes; ++c) {
            EXPECT_EQ(probs[static_cast<std::size_t>(s) * classes + c],
                      expected[c])
                << "sample " << s << " class " << c;
        }
    }
}

TEST(BatchedEval, ClassifyScatteredMatchesClassifyAtEveryWidth)
{
    // The forest net, and one whose layer widths are not multiples of
    // the kernel's 8-output row tile. Block widths 1..65 run every
    // column strip, the single-column tail and one past evalBatch.
    Network forest({data::forestFeatures, 16, data::forestClasses});
    forest.initWeights(42);
    Network odd({30, 13, 11, 5});
    odd.initWeights(7);
    Rng rng(23);
    for (const Network *net : {&forest, &odd}) {
        const std::size_t features =
            static_cast<std::size_t>(net->layerSizes().front());
        // One buffer per sample: a scattered block, as a coalesced
        // serve block is.
        std::vector<std::vector<float>> rows(65,
                                             std::vector<float>(features));
        for (auto &row : rows)
            for (auto &x : row)
                x = static_cast<float>(rng.uniform(-2.0, 2.0));
        std::vector<int> expected;
        for (const auto &row : rows)
            expected.push_back(net->classify(row));
        for (std::size_t width = 1; width <= rows.size(); ++width) {
            std::vector<std::span<const float>> block(rows.begin(),
                                                      rows.begin() +
                                                          width);
            std::vector<int> classes(width, -1);
            net->classifyScattered(block, classes);
            EXPECT_TRUE(std::equal(classes.begin(), classes.end(),
                                   expected.begin()))
                << net->layerSizes().back() << " classes, width " << width;
        }
    }
}

/** Prefix limits around evalBatch = 64: one batch short, exact and one
 *  over, then ragged tails behind one and two full batches. */
constexpr std::size_t raggedLimits[] = {1, 63, 64, 65, 100, 129};

TEST(BatchedEval, BitIdenticalToScalarAcrossBatchSizes)
{
    BatchedFixture fx;
    for (const std::size_t limit : raggedLimits) {
        EXPECT_DOUBLE_EQ(fx.net.evaluateError(fx.set, limit),
                         fx.net.evaluateErrorScalar(fx.set, limit))
            << "limit " << limit;
    }
    // The two spellings of "whole set" and a clamping limit agree.
    const double scalar = fx.net.evaluateErrorScalar(fx.set);
    EXPECT_DOUBLE_EQ(fx.net.evaluateError(fx.set, 0), scalar);
    EXPECT_DOUBLE_EQ(fx.net.evaluateError(fx.set, fx.set.size() + 999),
                     scalar);
}

TEST(BatchedEval, BitIdenticalAtAnyWorkerCount)
{
    BatchedFixture fx;
    for (const std::size_t workers : {0u, 1u, 4u, 8u}) {
        ThreadPool pool(workers);
        for (const std::size_t limit : raggedLimits) {
            EXPECT_DOUBLE_EQ(
                fx.net.evaluateError(
                    fx.set, EvalOptions{.limit = limit, .pool = &pool}),
                fx.net.evaluateErrorScalar(fx.set, limit))
                << workers << " workers, limit " << limit;
        }
        EXPECT_DOUBLE_EQ(
            fx.net.evaluateError(fx.set, EvalOptions{.pool = &pool}),
            fx.net.evaluateErrorScalar(fx.set))
            << workers << " workers";
    }
}

TEST(ModelZoo, TestSetDisjointFromTrainSet)
{
    ZooSpec spec = paperForestSpec();
    spec.trainCount = 50;
    const data::Dataset train_set = makeTrainSet(spec);
    const data::Dataset test_set = makeTestSet(spec, 50);
    int identical = 0;
    for (std::size_t i = 0; i < 50; ++i) {
        const auto a = train_set.sample(i);
        const auto b = test_set.sample(i);
        identical += std::equal(a.begin(), a.end(), b.begin());
    }
    EXPECT_EQ(identical, 0);
}

} // namespace
} // namespace uvolt::nn
