/**
 * @file
 * Tests for the dataset container and the three synthetic corpus
 * generators (shape, determinism, label coverage, learnability proxies).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/dataset.hh"
#include "data/synthetic.hh"

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

TEST(ReutersLike, TopicWeightControlsDifficulty)
{
    // Nearest-centroid accuracy must degrade as documents carry less
    // topical signal.
    auto centroid_accuracy = [](double topic_weight) {
        const Dataset set = makeReutersLike(1200, 4, topic_weight);
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
        return static_cast<double>(correct) / static_cast<double>(half);
    };

    const double strong = centroid_accuracy(0.8);
    const double weak = centroid_accuracy(0.2);
    EXPECT_GT(strong, weak + 0.1);
    EXPECT_GT(strong, 0.8);
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
