#include "data/synthetic.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace uvolt::data
{

namespace
{

// ---------------------------------------------------------------------
// MNIST-like digits
// ---------------------------------------------------------------------

/**
 * Seven-segment encoding per digit: bits {A, B, C, D, E, F, G} where A is
 * the top bar, B/C the right verticals, D the bottom bar, E/F the left
 * verticals, and G the middle bar.
 */
constexpr std::array<std::uint8_t, 10> digitSegments = {
    0b0111111, // 0: A B C D E F
    0b0000110, // 1: B C
    0b1011011, // 2: A B D E G
    0b1001111, // 3: A B C D G
    0b1100110, // 4: B C F G
    0b1101101, // 5: A C D F G
    0b1111101, // 6: A C D E F G
    0b0000111, // 7: A B C
    0b1111111, // 8: all
    0b1101111, // 9: A B C D F G
};

/** Glyph box inside the 28x28 frame. */
constexpr int glyphLeft = 8;
constexpr int glyphRight = 19;
constexpr int glyphTop = 4;
constexpr int glyphMid = 13;
constexpr int glyphBottom = 23;
constexpr int strokeThickness = 2;

void
paintHorizontal(float *image, int y, float level)
{
    for (int t = 0; t < strokeThickness; ++t) {
        for (int x = glyphLeft; x <= glyphRight; ++x)
            image[(y + t) * mnistSide + x] = level;
    }
}

void
paintVertical(float *image, int x, int y0, int y1, float level)
{
    for (int t = 0; t < strokeThickness; ++t) {
        for (int y = y0; y <= y1; ++y)
            image[y * mnistSide + x + t] = level;
    }
}

/** Render the clean prototype of one digit into @a image. */
void
renderDigit(int digit, float level, float *image)
{
    std::fill_n(image, mnistPixels, 0.0f);
    const std::uint8_t segments = digitSegments[
        static_cast<std::size_t>(digit)];
    if (segments & 0b0000001) // A
        paintHorizontal(image, glyphTop, level);
    if (segments & 0b0000010) // B
        paintVertical(image, glyphRight - strokeThickness + 1, glyphTop,
                      glyphMid, level);
    if (segments & 0b0000100) // C
        paintVertical(image, glyphRight - strokeThickness + 1, glyphMid,
                      glyphBottom, level);
    if (segments & 0b0001000) // D
        paintHorizontal(image, glyphBottom, level);
    if (segments & 0b0010000) // E
        paintVertical(image, glyphLeft, glyphMid, glyphBottom, level);
    if (segments & 0b0100000) // F
        paintVertical(image, glyphLeft, glyphTop, glyphMid, level);
    if (segments & 0b1000000) // G
        paintHorizontal(image, glyphMid, level);
}

/** Images one pass-2 job renders. */
constexpr std::size_t mnistRangeImages = 256;

/**
 * Everything about one image except its pixel noise. The serial pass
 * makes these draws in stream order and records where the image's
 * noise deviates start.
 */
struct MnistDraws
{
    Rng noise;               ///< the stream at the image's first noise draw
    int digit = 0;
    float level = 0.0f;
    int ghost = -1;          ///< overlay digit, or -1 for none
    float ghostLevel = 0.0f; ///< level * alpha of the overlay
    std::array<std::int8_t, mnistSide> jitter{}; ///< per-row wobble
    int dx = 0;
    int dy = 0;
    bool erased = false;
    int ex = 0;
    int ey = 0;
};

// Each Box-Muller pair takes two raw draws and yields two deviates, and
// noise is the only gaussian() caller: with an even pixel count no
// cached deviate carries over from one image to the next, so an image's
// noise is exactly the mnistPixels raw draws that follow its structure.
static_assert(mnistPixels % 2 == 0, "one image's noise must end a pair");

/** Pass 1: one image's structural draws, then skip over its noise. */
MnistDraws
drawStructure(Rng &rng, const MnistOptions &options)
{
    MnistDraws draws;
    draws.digit = static_cast<int>(rng.uniformInt(0, 9));
    draws.level = static_cast<float>(rng.uniform(0.7, 1.0));

    // Ghost overlay: a fainter second digit blended in, making the
    // sample's class evidence ambiguous in proportion to alpha.
    if (rng.chance(options.ghostProb)) {
        do {
            draws.ghost = static_cast<int>(rng.uniformInt(0, 9));
        } while (draws.ghost == draws.digit);
        const float alpha = static_cast<float>(
            rng.uniform(0.0, options.ghostMax));
        draws.ghostLevel = draws.level * alpha;
    }

    // Per-row horizontal wobble (stroke slant / handwriting jitter).
    if (rng.chance(options.wobbleProb)) {
        for (auto &jitter : draws.jitter)
            jitter = static_cast<std::int8_t>(
                static_cast<int>(rng.uniformInt(0, 2)) - 1);
    }

    // Global translation.
    const int max_shift = options.maxShift;
    draws.dx = static_cast<int>(rng.uniformInt(
                   0, static_cast<std::uint64_t>(2 * max_shift))) -
        max_shift;
    draws.dy = static_cast<int>(rng.uniformInt(
                   0, static_cast<std::uint64_t>(2 * max_shift))) -
        max_shift;

    // Patch erasure: drop a square chunk of the glyph.
    if (rng.chance(options.erasureProb)) {
        draws.erased = true;
        draws.ex = static_cast<int>(rng.uniformInt(
            glyphLeft - 2, static_cast<std::uint64_t>(glyphRight - 2)));
        draws.ey = static_cast<int>(rng.uniformInt(
            glyphTop, static_cast<std::uint64_t>(glyphBottom - 2)));
    }

    draws.noise = rng;
    rng.discard(mnistPixels);
    return draws;
}

/** Pass 2: render one image from its draws into @a out. */
void
renderImage(const MnistDraws &draws, const MnistOptions &options,
            float *out)
{
    std::array<float, mnistPixels> image;
    renderDigit(draws.digit, draws.level, image.data());
    if (draws.ghost >= 0) {
        std::array<float, mnistPixels> ghost_image;
        renderDigit(draws.ghost, draws.ghostLevel, ghost_image.data());
        for (int p = 0; p < mnistPixels; ++p) {
            auto &pixel = image[static_cast<std::size_t>(p)];
            pixel = std::max(pixel,
                             ghost_image[static_cast<std::size_t>(p)]);
        }
    }

    for (int y = 0; y < mnistSide; ++y) {
        const int jitter = draws.jitter[static_cast<std::size_t>(y)];
        if (jitter == 0)
            continue;
        float *row = image.data() + y * mnistSide;
        if (jitter > 0) {
            for (int x = mnistSide - 1; x >= 1; --x)
                row[x] = row[x - 1];
            row[0] = 0.0f;
        } else {
            for (int x = 0; x < mnistSide - 1; ++x)
                row[x] = row[x + 1];
            row[mnistSide - 1] = 0.0f;
        }
    }

    std::fill_n(out, mnistPixels, 0.0f);
    for (int y = 0; y < mnistSide; ++y) {
        const int sy = y - draws.dy;
        if (sy < 0 || sy >= mnistSide)
            continue;
        for (int x = 0; x < mnistSide; ++x) {
            const int sx = x - draws.dx;
            if (sx < 0 || sx >= mnistSide)
                continue;
            out[y * mnistSide + x] =
                image[static_cast<std::size_t>(sy * mnistSide + sx)];
        }
    }

    if (draws.erased) {
        for (int y = draws.ey; y < draws.ey + options.erasureSize; ++y) {
            for (int x = draws.ex; x < draws.ex + options.erasureSize; ++x) {
                if (y >= 0 && y < mnistSide && x >= 0 && x < mnistSide)
                    out[y * mnistSide + x] = 0.0f;
            }
        }
    }

    // Additive sensor noise, clamped to the valid intensity range.
    Rng noise = draws.noise;
    for (int p = 0; p < mnistPixels; ++p) {
        float &pixel = out[p];
        pixel += static_cast<float>(noise.gaussian(0.0, options.noiseSigma));
        pixel = std::clamp(pixel, 0.0f, 1.0f);
    }
}

} // namespace

Dataset
makeMnistLike(std::size_t count, std::uint64_t seed,
              const MnistOptions &options)
{
    Rng rng(combineSeeds(seed, hashSeed("mnist-like")));
    std::vector<MnistDraws> draws(count);
    std::vector<int> labels(count);
    std::vector<float> pixels(count * mnistPixels);

    // Pass 1 runs here, one range ahead of pass 2: each range goes to
    // the pool as soon as its draws are recorded. A range writes only
    // its own rows, so the bytes do not depend on the worker count.
    ThreadPool pool(count < mnistParallelMin ? 0
                                             : ThreadPool::hardwareWorkers(),
                    "data-worker");
    for (std::size_t first = 0; first < count; first += mnistRangeImages) {
        const std::size_t last = std::min(count, first + mnistRangeImages);
        for (std::size_t i = first; i < last; ++i) {
            draws[i] = drawStructure(rng, options);
            labels[i] = draws[i].digit;
        }
        pool.submit([&draws, &options, &pixels, first, last] {
            for (std::size_t i = first; i < last; ++i)
                renderImage(draws[i], options,
                            pixels.data() + i * mnistPixels);
        });
    }
    pool.wait();
    return Dataset("mnist-like", mnistPixels, mnistClasses,
                   std::move(pixels), std::move(labels));
}

Dataset
makeForestLike(std::size_t count, std::uint64_t seed)
{
    // Class-center spread relative to unit noise.
    constexpr double separation = 0.5;

    Dataset set("forest-like", forestFeatures, forestClasses);
    // Class structure is a fixed property of the corpus, not of the
    // sample seed: train and held-out sets drawn with different seeds
    // must share the same underlying classes.
    Rng center_rng(hashSeed("forest-centers-v1"));

    // Class centers; the last third of the features carry no class
    // signal (shared center), acting as nuisance dimensions.
    const int informative = forestFeatures * 2 / 3;
    std::vector<std::vector<double>> centers(forestClasses);
    std::vector<double> shared(forestFeatures);
    for (auto &value : shared)
        value = center_rng.gaussian();
    for (auto &center : centers) {
        center = shared;
        for (int f = 0; f < informative; ++f)
            center[static_cast<std::size_t>(f)] =
                center_rng.gaussian() * separation;
    }

    Rng rng(combineSeeds(seed, hashSeed("forest-samples")));
    std::vector<float> sample(forestFeatures);
    for (std::size_t i = 0; i < count; ++i) {
        const int label =
            static_cast<int>(rng.uniformInt(0, forestClasses - 1));
        for (int f = 0; f < forestFeatures; ++f) {
            sample[static_cast<std::size_t>(f)] = static_cast<float>(
                centers[static_cast<std::size_t>(label)]
                       [static_cast<std::size_t>(f)] +
                rng.gaussian());
        }
        set.add(sample, label);
    }
    return set;
}

Dataset
makeReutersLike(std::size_t count, std::uint64_t seed, double topic_weight)
{
    Dataset set("reuters-like", reutersVocab, reutersClasses);
    // Topic structure is corpus-fixed (see makeForestLike).
    Rng topic_rng(hashSeed("reuters-topics-v1"));

    // Background word distribution; topics are built on top of it.
    auto make_distribution = [&topic_rng]() {
        std::vector<double> weights(reutersVocab);
        double sum = 0.0;
        for (auto &w : weights) {
            w = topic_rng.exponential(1.0);
            sum += w;
        }
        for (auto &w : weights)
            w /= sum;
        return weights;
    };

    // Topics boost words drawn from a small shared pool, so classes
    // overlap heavily (real newswire topics share economic vocabulary);
    // that overlap, not just the topic weight, sets the difficulty.
    const int pool_size = reutersVocab / 5;
    std::vector<int> shared_pool(static_cast<std::size_t>(pool_size));
    for (auto &word : shared_pool)
        word = static_cast<int>(topic_rng.uniformInt(0, reutersVocab - 1));
    auto boost_from_pool = [&](std::vector<double> weights,
                               double boost_share) {
        const int boosted = pool_size / 3;
        for (int i = 0; i < boosted; ++i) {
            const int word = shared_pool[topic_rng.uniformInt(
                0, static_cast<std::uint64_t>(pool_size) - 1)];
            weights[static_cast<std::size_t>(word)] +=
                boost_share / boosted;
        }
        double total = 0.0;
        for (double w : weights)
            total += w;
        for (auto &w : weights)
            w /= total;
        return weights;
    };

    const std::vector<double> background = make_distribution();
    std::vector<std::vector<double>> topics(reutersClasses);
    for (auto &topic : topics)
        topic = boost_from_pool(make_distribution(), 3.0);

    // Cumulative distributions for sampling.
    auto cumulative = [](const std::vector<double> &weights) {
        std::vector<double> cdf(weights.size());
        double run = 0.0;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            run += weights[i];
            cdf[i] = run;
        }
        cdf.back() = 1.0;
        return cdf;
    };
    const std::vector<double> background_cdf = cumulative(background);
    std::vector<std::vector<double>> topic_cdfs(reutersClasses);
    for (int c = 0; c < reutersClasses; ++c)
        topic_cdfs[static_cast<std::size_t>(c)] =
            cumulative(topics[static_cast<std::size_t>(c)]);

    auto draw_word = [](Rng &rng, const std::vector<double> &cdf) {
        const double u = rng.uniform();
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        return static_cast<int>(it - cdf.begin());
    };

    Rng rng(combineSeeds(seed, hashSeed("reuters-samples")));
    std::vector<float> sample(reutersVocab);
    for (std::size_t i = 0; i < count; ++i) {
        const int label =
            static_cast<int>(rng.uniformInt(0, reutersClasses - 1));
        std::fill(sample.begin(), sample.end(), 0.0f);
        const auto length = 25 + rng.poisson(35.0);
        for (std::uint64_t w = 0; w < length; ++w) {
            const bool topical = rng.chance(topic_weight);
            const int word = draw_word(
                rng, topical
                    ? topic_cdfs[static_cast<std::size_t>(label)]
                    : background_cdf);
            sample[static_cast<std::size_t>(word)] += 1.0f;
        }
        // Term-frequency normalization keeps inputs in a logsig-friendly
        // range and makes documents of different lengths comparable.
        const float norm = 8.0f / static_cast<float>(length);
        for (auto &value : sample)
            value *= norm;
        set.add(sample, label);
    }
    return set;
}

} // namespace uvolt::data
