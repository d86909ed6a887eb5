#include "mnist_reference.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "util/rng.hh"

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
paintHorizontal(std::vector<float> &image, int y, float level)
{
    for (int t = 0; t < strokeThickness; ++t) {
        for (int x = glyphLeft; x <= glyphRight; ++x)
            image[static_cast<std::size_t>((y + t) * mnistSide + x)] = level;
    }
}

void
paintVertical(std::vector<float> &image, int x, int y0, int y1, float level)
{
    for (int t = 0; t < strokeThickness; ++t) {
        for (int y = y0; y <= y1; ++y)
            image[static_cast<std::size_t>(y * mnistSide + x + t)] = level;
    }
}

/** Render the clean prototype of one digit. */
std::vector<float>
renderDigit(int digit, float level)
{
    std::vector<float> image(mnistPixels, 0.0f);
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
    return image;
}

} // namespace

Dataset
referenceMnistLike(std::size_t count, std::uint64_t seed,
                   const MnistOptions &options)
{
    Dataset set("mnist-like", mnistPixels, mnistClasses);
    Rng rng(combineSeeds(seed, hashSeed("mnist-like")));

    std::vector<float> image(mnistPixels);
    std::vector<float> shifted(mnistPixels);
    for (std::size_t i = 0; i < count; ++i) {
        const int digit = static_cast<int>(rng.uniformInt(0, 9));
        const float level =
            static_cast<float>(rng.uniform(0.7, 1.0));
        image = renderDigit(digit, level);

        // Ghost overlay: a fainter second digit blended in, making the
        // sample's class evidence ambiguous in proportion to alpha.
        if (rng.chance(options.ghostProb)) {
            int ghost;
            do {
                ghost = static_cast<int>(rng.uniformInt(0, 9));
            } while (ghost == digit);
            const float alpha = static_cast<float>(
                rng.uniform(0.0, options.ghostMax));
            const std::vector<float> ghost_image =
                renderDigit(ghost, level * alpha);
            for (int p = 0; p < mnistPixels; ++p) {
                auto &pixel = image[static_cast<std::size_t>(p)];
                pixel = std::max(pixel,
                                 ghost_image[static_cast<std::size_t>(p)]);
            }
        }

        // Per-row horizontal wobble (stroke slant / handwriting jitter).
        if (rng.chance(options.wobbleProb)) {
            for (int y = 0; y < mnistSide; ++y) {
                const int jitter =
                    static_cast<int>(rng.uniformInt(0, 2)) - 1;
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
        }

        // Global translation.
        const int max_shift = options.maxShift;
        const int dx = static_cast<int>(rng.uniformInt(
                           0, static_cast<std::uint64_t>(2 * max_shift))) -
            max_shift;
        const int dy = static_cast<int>(rng.uniformInt(
                           0, static_cast<std::uint64_t>(2 * max_shift))) -
            max_shift;
        std::fill(shifted.begin(), shifted.end(), 0.0f);
        for (int y = 0; y < mnistSide; ++y) {
            const int sy = y - dy;
            if (sy < 0 || sy >= mnistSide)
                continue;
            for (int x = 0; x < mnistSide; ++x) {
                const int sx = x - dx;
                if (sx < 0 || sx >= mnistSide)
                    continue;
                shifted[static_cast<std::size_t>(y * mnistSide + x)] =
                    image[static_cast<std::size_t>(sy * mnistSide + sx)];
            }
        }

        // Patch erasure: drop a square chunk of the glyph.
        if (rng.chance(options.erasureProb)) {
            const int ex = static_cast<int>(rng.uniformInt(
                glyphLeft - 2,
                static_cast<std::uint64_t>(glyphRight - 2)));
            const int ey = static_cast<int>(rng.uniformInt(
                glyphTop, static_cast<std::uint64_t>(glyphBottom - 2)));
            for (int y = ey; y < ey + options.erasureSize; ++y) {
                for (int x = ex; x < ex + options.erasureSize; ++x) {
                    if (y >= 0 && y < mnistSide && x >= 0 && x < mnistSide) {
                        shifted[static_cast<std::size_t>(
                            y * mnistSide + x)] = 0.0f;
                    }
                }
            }
        }

        // Additive sensor noise, clamped to the valid intensity range.
        for (auto &pixel : shifted) {
            pixel += static_cast<float>(
                rng.gaussian(0.0, options.noiseSigma));
            pixel = std::clamp(pixel, 0.0f, 1.0f);
        }

        set.add(shifted, digit);
    }
    return set;
}

} // namespace uvolt::data
