/**
 * @file
 * Tests for the dataset container and the three synthetic corpus
 * generators (shape, determinism, label coverage, learnability proxies).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "data/dataset.hh"
#include "data/synthetic.hh"
#include "mnist_reference.hh"
#include "nn/model_zoo.hh"
#include "util/rng.hh"

namespace uvolt::data
{
namespace
{

TEST(DatasetTest, AddAndAccess)
{
    Dataset set("toy", 3, 2);
    const float a[3] = {1.0f, 2.0f, 3.0f};
    const float b[3] = {4.0f, 5.0f, 6.0f};
    set.add(a, 0);
    set.add(b, 1);
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set.featureCount(), 3);
    EXPECT_EQ(set.classCount(), 2);
    EXPECT_EQ(set.sample(1)[2], 6.0f);
    EXPECT_EQ(set.label(0), 0);
    EXPECT_EQ(set.label(1), 1);
}

TEST(DatasetTest, AdoptsRowsBuiltInPlace)
{
    const Dataset set("toy", 2, 3, {1.0f, 2.0f, 3.0f, 4.0f}, {2, 0});
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set.sample(1)[0], 3.0f);
    EXPECT_EQ(set.label(0), 2);
    EXPECT_EQ(set.samples(0, 2).size(), 4u);
}

/**
 * FNV-1a-64 over the float bytes of samples(0, size), then over each
 * label as a little-endian int32.
 */
std::uint64_t
corpusDigest(const Dataset &set)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&hash](unsigned char byte) {
        hash ^= byte;
        hash *= 0x100000001b3ULL;
    };
    const auto rows = set.samples(0, set.size());
    const auto *bytes = reinterpret_cast<const unsigned char *>(rows.data());
    for (std::size_t i = 0; i < rows.size_bytes(); ++i)
        mix(bytes[i]);
    for (std::size_t i = 0; i < set.size(); ++i) {
        const auto label = static_cast<std::uint32_t>(set.label(i));
        for (int shift = 0; shift < 32; shift += 8)
            mix(static_cast<unsigned char>(label >> shift));
    }
    return hash;
}

/** Samples and labels equal byte for byte. */
void
expectSameCorpus(const Dataset &got, const Dataset &want)
{
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(got.name(), want.name());
    EXPECT_EQ(got.featureCount(), want.featureCount());
    EXPECT_EQ(got.classCount(), want.classCount());
    const auto a = got.samples(0, got.size());
    const auto b = want.samples(0, want.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0);
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got.label(i), want.label(i)) << "sample " << i;
}

/** The held-out seed makeTestSet(paperMnistSpec()) draws from. */
std::uint64_t
paperTestSeed()
{
    return combineSeeds(nn::paperMnistSpec().dataSeed, hashSeed("held-out"));
}

TEST(MnistLike, MatchesSerialReferenceOverSeedsAndCounts)
{
    const std::size_t counts[] = {0,
                                  1,
                                  32,
                                  mnistParallelMin - 1,
                                  mnistParallelMin,
                                  mnistParallelMin + 1,
                                  10000};
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{5},
                               std::uint64_t{42}, paperTestSeed()}) {
        for (std::size_t count : counts) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << ", " << count << " images");
            expectSameCorpus(makeMnistLike(count, seed),
                             referenceMnistLike(count, seed));
        }
    }
}

TEST(MnistLike, MatchesSerialReferenceUnderEveryOption)
{
    std::vector<std::pair<const char *, MnistOptions>> variants;
    auto add = [&variants](const char *name, auto &&edit) {
        MnistOptions options;
        edit(options);
        variants.emplace_back(name, options);
    };
    add("ghostProb 0", [](MnistOptions &o) { o.ghostProb = 0.0; });
    add("ghostProb 1", [](MnistOptions &o) { o.ghostProb = 1.0; });
    add("wobbleProb 1", [](MnistOptions &o) { o.wobbleProb = 1.0; });
    add("erasureProb 1", [](MnistOptions &o) { o.erasureProb = 1.0; });
    add("maxShift 0", [](MnistOptions &o) { o.maxShift = 0; });
    add("noiseSigma 0", [](MnistOptions &o) { o.noiseSigma = 0.0; });
    for (const auto &[name, options] : variants) {
        for (std::size_t count : {std::size_t{32}, mnistParallelMin + 1}) {
            SCOPED_TRACE(testing::Message()
                         << name << ", " << count << " images");
            expectSameCorpus(makeMnistLike(count, 7, options),
                             referenceMnistLike(count, 7, options));
        }
    }
}

TEST(MnistLike, PaperCorpusDigestsArePinned)
{
    // Recorded from the serial generator; they hold under glibc's FMA
    // and non-FMA libm variants alike.
    const nn::ZooSpec spec = nn::paperMnistSpec();
    EXPECT_EQ(corpusDigest(nn::makeTestSet(spec)), 0xc7ba3fd8a750a4a9ULL);
    EXPECT_EQ(corpusDigest(nn::makeTrainSet(spec)), 0x4695d51088e726feULL);
}

TEST(MnistLike, ShapeAndRange)
{
    const Dataset set = makeMnistLike(200, 1);
    EXPECT_EQ(set.featureCount(), mnistPixels);
    EXPECT_EQ(set.classCount(), 10);
    ASSERT_EQ(set.size(), 200u);
    for (std::size_t i = 0; i < set.size(); i += 17) {
        for (float pixel : set.sample(i)) {
            EXPECT_GE(pixel, 0.0f);
            EXPECT_LE(pixel, 1.0f);
        }
        EXPECT_GE(set.label(i), 0);
        EXPECT_LT(set.label(i), 10);
    }
}

TEST(MnistLike, Deterministic)
{
    const Dataset a = makeMnistLike(50, 42);
    const Dataset b = makeMnistLike(50, 42);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.label(i), b.label(i));
        const auto sa = a.sample(i);
        const auto sb = b.sample(i);
        EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin()));
    }
}

TEST(MnistLike, SeedsDiffer)
{
    const Dataset a = makeMnistLike(50, 1);
    const Dataset b = makeMnistLike(50, 2);
    int identical = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto sa = a.sample(i);
        const auto sb = b.sample(i);
        identical += std::equal(sa.begin(), sa.end(), sb.begin());
    }
    EXPECT_LT(identical, 3);
}

TEST(MnistLike, AllClassesPresent)
{
    const Dataset set = makeMnistLike(500, 3);
    std::vector<int> counts(10, 0);
    for (std::size_t i = 0; i < set.size(); ++i)
        ++counts[static_cast<std::size_t>(set.label(i))];
    for (int c = 0; c < 10; ++c)
        EXPECT_GT(counts[static_cast<std::size_t>(c)], 20) << "class " << c;
}

TEST(MnistLike, GlyphsCarrySignal)
{
    // Images of the same digit must be more alike than images of
    // different digits (a crude learnability proxy).
    const Dataset set = makeMnistLike(400, 4);
    std::vector<std::vector<double>> means(
        10, std::vector<double>(mnistPixels, 0.0));
    std::vector<int> counts(10, 0);
    for (std::size_t i = 0; i < set.size(); ++i) {
        const auto sample = set.sample(i);
        auto &mean = means[static_cast<std::size_t>(set.label(i))];
        for (int p = 0; p < mnistPixels; ++p)
            mean[static_cast<std::size_t>(p)] += sample[
                static_cast<std::size_t>(p)];
        ++counts[static_cast<std::size_t>(set.label(i))];
    }
    for (int c = 0; c < 10; ++c) {
        for (auto &value : means[static_cast<std::size_t>(c)])
            value /= counts[static_cast<std::size_t>(c)];
    }
    // Mean images of 1 and 8 must differ a lot (few vs all segments).
    double distance = 0.0;
    for (int p = 0; p < mnistPixels; ++p) {
        const double diff = means[1][static_cast<std::size_t>(p)] -
            means[8][static_cast<std::size_t>(p)];
        distance += diff * diff;
    }
    EXPECT_GT(std::sqrt(distance), 3.0);
}

TEST(MnistLike, GhostKnobsChangeTheCorpus)
{
    MnistOptions plain;
    plain.ghostProb = 0.0;
    MnistOptions ghosted;
    ghosted.ghostProb = 1.0;
    ghosted.ghostMax = 1.0;

    const Dataset a = makeMnistLike(100, 5, plain);
    const Dataset b = makeMnistLike(100, 5, ghosted);
    // Ghosted images carry strictly more ink on average.
    double ink_a = 0.0, ink_b = 0.0;
    for (std::size_t i = 0; i < 100; ++i) {
        for (int p = 0; p < mnistPixels; ++p) {
            ink_a += a.sample(i)[static_cast<std::size_t>(p)];
            ink_b += b.sample(i)[static_cast<std::size_t>(p)];
        }
    }
    EXPECT_GT(ink_b, ink_a * 1.1);
}

TEST(MnistLike, OptionsAreDeterministic)
{
    MnistOptions options;
    options.ghostProb = 0.5;
    const Dataset a = makeMnistLike(40, 9, options);
    const Dataset b = makeMnistLike(40, 9, options);
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto sa = a.sample(i);
        const auto sb = b.sample(i);
        EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin()));
    }
}

TEST(ForestLike, ShapeAndDeterminism)
{
    const Dataset a = makeForestLike(300, 9);
    EXPECT_EQ(a.featureCount(), forestFeatures);
    EXPECT_EQ(a.classCount(), forestClasses);
    const Dataset b = makeForestLike(300, 9);
    for (std::size_t i = 0; i < a.size(); i += 29) {
        const auto sa = a.sample(i);
        const auto sb = b.sample(i);
        EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin()));
    }
}

TEST(ForestLike, ClassSeparation)
{
    const Dataset set = makeForestLike(1400, 5);
    // Nearest-class-centroid on a held-out half must beat chance easily.
    std::vector<std::vector<double>> centroids(
        forestClasses, std::vector<double>(forestFeatures, 0.0));
    std::vector<int> counts(forestClasses, 0);
    const std::size_t half = set.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
        const auto sample = set.sample(i);
        auto &centroid = centroids[static_cast<std::size_t>(set.label(i))];
        for (int f = 0; f < forestFeatures; ++f)
            centroid[static_cast<std::size_t>(f)] += sample[
                static_cast<std::size_t>(f)];
        ++counts[static_cast<std::size_t>(set.label(i))];
    }
    for (int c = 0; c < forestClasses; ++c) {
        for (auto &value : centroids[static_cast<std::size_t>(c)])
            value /= std::max(1, counts[static_cast<std::size_t>(c)]);
    }
    std::size_t correct = 0;
    for (std::size_t i = half; i < set.size(); ++i) {
        const auto sample = set.sample(i);
        int best = 0;
        double best_distance = 1e300;
        for (int c = 0; c < forestClasses; ++c) {
            double distance = 0.0;
            for (int f = 0; f < forestFeatures; ++f) {
                const double diff = sample[static_cast<std::size_t>(f)] -
                    centroids[static_cast<std::size_t>(c)]
                             [static_cast<std::size_t>(f)];
                distance += diff * diff;
            }
            if (distance < best_distance) {
                best_distance = distance;
                best = c;
            }
        }
        correct += (best == set.label(i));
    }
    const double accuracy =
        static_cast<double>(correct) / static_cast<double>(half);
    EXPECT_GT(accuracy, 0.55); // chance is ~0.14
}

TEST(ReutersLike, ShapeAndSparsity)
{
    const Dataset set = makeReutersLike(200, 13);
    EXPECT_EQ(set.featureCount(), reutersVocab);
    EXPECT_EQ(set.classCount(), reutersClasses);
    // Bag-of-words documents are sparse: most vocabulary absent.
    double zero_features = 0.0;
    for (std::size_t i = 0; i < set.size(); ++i) {
        for (float value : set.sample(i))
            zero_features += (value == 0.0f);
    }
    const double zero_share = zero_features /
        static_cast<double>(set.size() * reutersVocab);
    EXPECT_GT(zero_share, 0.7);
    EXPECT_LT(zero_share, 0.995);
}

TEST(ReutersLike, NearestCentroidFindsTheTopics)
{
    // The class topics carry enough signal that a nearest-centroid
    // classifier trained on one half labels the other half well (0.995
    // at the corpus's fixed topic weight).
    const Dataset set = makeReutersLike(1200, 4);
    std::vector<std::vector<double>> centroids(
        reutersClasses, std::vector<double>(reutersVocab, 0.0));
    std::vector<int> counts(reutersClasses, 0);
    const std::size_t half = set.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
        const auto sample = set.sample(i);
        for (int f = 0; f < reutersVocab; ++f)
            centroids[static_cast<std::size_t>(set.label(i))]
                     [static_cast<std::size_t>(f)] +=
                sample[static_cast<std::size_t>(f)];
        ++counts[static_cast<std::size_t>(set.label(i))];
    }
    for (int c = 0; c < reutersClasses; ++c) {
        for (auto &value : centroids[static_cast<std::size_t>(c)])
            value /= std::max(1, counts[static_cast<std::size_t>(c)]);
    }
    std::size_t correct = 0;
    for (std::size_t i = half; i < set.size(); ++i) {
        const auto sample = set.sample(i);
        int best = 0;
        double best_distance = 1e300;
        for (int c = 0; c < reutersClasses; ++c) {
            double distance = 0.0;
            for (int f = 0; f < reutersVocab; ++f) {
                const double diff =
                    sample[static_cast<std::size_t>(f)] -
                    centroids[static_cast<std::size_t>(c)]
                             [static_cast<std::size_t>(f)];
                distance += diff * diff;
            }
            if (distance < best_distance) {
                best_distance = distance;
                best = c;
            }
        }
        correct += (best == set.label(i));
    }
    EXPECT_GT(static_cast<double>(correct) / static_cast<double>(half), 0.9);
}

TEST(ReutersLike, PaperCorpusDigestsArePinned)
{
    // The cached Reuters model is trained on these bytes.
    const nn::ZooSpec spec = nn::paperReutersSpec();
    EXPECT_EQ(corpusDigest(nn::makeTestSet(spec)), 0x599eaec1b8b3bb78ULL);
    EXPECT_EQ(corpusDigest(nn::makeTrainSet(spec)), 0x110f28c51c6e94aaULL);
}

TEST(ReutersLike, Deterministic)
{
    const Dataset a = makeReutersLike(60, 2);
    const Dataset b = makeReutersLike(60, 2);
    for (std::size_t i = 0; i < a.size(); i += 7) {
        const auto sa = a.sample(i);
        const auto sb = b.sample(i);
        EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin()));
        EXPECT_EQ(a.label(i), b.label(i));
    }
}

} // namespace
} // namespace uvolt::data
