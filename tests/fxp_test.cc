/**
 * @file
 * Unit tests for the sign-magnitude fixed-point module, including the
 * properties the undervolting study depends on: "1"->"0" flips always
 * shrink magnitudes, and small weights have mostly-"0" bit patterns.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "fxp/fixed_point.hh"
#include "util/rng.hh"

namespace uvolt::fxp
{
namespace
{

/** Value of one LSB of @a fmt: 2^-frac. */
double
resolution(const QFormat &fmt)
{
    return std::ldexp(1.0, -fmt.fracBits());
}

/** Largest magnitude @a fmt represents: 2^digit - 2^-frac. */
double
maxMagnitude(const QFormat &fmt)
{
    return std::ldexp(1.0, fmt.digitBits()) - resolution(fmt);
}

TEST(QFormat, DefaultIsPureFraction)
{
    QFormat fmt;
    EXPECT_EQ(fmt.digitBits(), 0);
    EXPECT_EQ(fmt.fracBits(), 15);
    // Saturation lands on the largest magnitude, 1 - 2^-15.
    EXPECT_NEAR(fmt.dequantize(fmt.quantize(2.0)),
                1.0 - std::ldexp(1.0, -15), 1e-12);
}

TEST(QFormat, Describe)
{
    EXPECT_EQ(QFormat(0).describe(), "s1.d0.f15");
    EXPECT_EQ(QFormat(4).describe(), "s1.d4.f11");
}

TEST(QFormat, RoundTripSmallValues)
{
    QFormat fmt(0);
    for (double value : {0.0, 0.5, -0.5, 0.25, -0.999, 0.123456}) {
        const Word word = fmt.quantize(value);
        EXPECT_NEAR(fmt.dequantize(word), value, resolution(fmt) * 0.51)
            << "value " << value;
    }
}

TEST(QFormat, RoundTripWithDigitBits)
{
    QFormat fmt(4);
    for (double value : {15.9, -12.25, 3.0, -0.875}) {
        const Word word = fmt.quantize(value);
        EXPECT_NEAR(fmt.dequantize(word), value, resolution(fmt) * 0.51)
            << "value " << value;
    }
}

TEST(QFormat, SaturatesInsteadOfWrapping)
{
    QFormat fmt(0);
    const Word word = fmt.quantize(3.5);
    EXPECT_NEAR(fmt.dequantize(word), maxMagnitude(fmt), 1e-9);
    const Word negative = fmt.quantize(-3.5);
    EXPECT_NEAR(fmt.dequantize(negative), -maxMagnitude(fmt), 1e-9);
}

TEST(QFormat, SignBitIsMsb)
{
    QFormat fmt(0);
    const Word positive = fmt.quantize(0.5);
    const Word negative = fmt.quantize(-0.5);
    EXPECT_FALSE(getBit(positive, signBit));
    EXPECT_TRUE(getBit(negative, signBit));
    EXPECT_EQ(withBit(negative, signBit, false), positive);
}

TEST(QFormat, ZeroHasNoSignBit)
{
    QFormat fmt(0);
    EXPECT_EQ(fmt.quantize(0.0), 0);
    EXPECT_EQ(fmt.quantize(-0.0), 0);
}

TEST(QFormat, OneToZeroFlipsShrinkMagnitude)
{
    // The key resilience property of sign-magnitude storage under
    // undervolting: clearing any magnitude bit moves the value toward 0,
    // never away from it.
    QFormat fmt(2);
    Rng rng(42);
    for (int trial = 0; trial < 500; ++trial) {
        const double value = rng.uniform(-3.9, 3.9);
        const Word word = fmt.quantize(value);
        for (int bit = 0; bit < signBit; ++bit) {
            if (!getBit(word, bit))
                continue;
            const Word flipped = withBit(word, bit, false);
            EXPECT_LE(std::abs(fmt.dequantize(flipped)),
                      std::abs(fmt.dequantize(word)));
        }
    }
}

/** Reference forms through std::ldexp, which quantize() and
 *  dequantize() must match bit for bit. */
Word
ldexpQuantize(const QFormat &fmt, double value)
{
    double scaled =
        std::round(std::ldexp(std::abs(value), fmt.fracBits()));
    const double max_scaled =
        std::ldexp(1.0, fmt.digitBits() + fmt.fracBits()) - 1.0;
    if (scaled > max_scaled)
        scaled = max_scaled;
    Word word = static_cast<Word>(scaled);
    if (std::signbit(value) && word != 0)
        word = withBit(word, signBit, true);
    return word;
}

double
ldexpDequantize(const QFormat &fmt, Word word)
{
    const double value = std::ldexp(
        static_cast<double>(withBit(word, signBit, false)), -fmt.fracBits());
    return getBit(word, signBit) ? -value : value;
}

TEST(QFormat, DequantizeMatchesLdexpOnEveryWord)
{
    for (int digit = 0; digit < wordBits; ++digit) {
        const QFormat fmt(digit);
        for (std::uint32_t w = 0; w <= 0xffff; ++w) {
            const Word word = static_cast<Word>(w);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(fmt.dequantize(word)),
                      std::bit_cast<std::uint64_t>(
                          ldexpDequantize(fmt, word)))
                << fmt.describe() << " word " << w;
        }
    }
}

TEST(QFormat, QuantizeMatchesLdexpIncludingSaturation)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double specials[] = {
        0.0, -0.0, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(), 1e-300, 1e300,
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(), inf, -inf};
    for (int digit = 0; digit < wordBits; ++digit) {
        const QFormat fmt(digit);
        std::vector<double> values(std::begin(specials), std::end(specials));
        // Quarter-LSB steps from -1.25 to +1.25 times the format's range:
        // every rounding tie, both signs, and saturation on either end.
        const double step = resolution(fmt) / 4.0;
        const int steps = 5 << signBit; // 1.25 x 2^15 LSBs, 4 per LSB
        for (int k = -steps; k <= steps; ++k)
            values.push_back(static_cast<double>(k) * step);
        for (double value : values) {
            ASSERT_EQ(fmt.quantize(value), ldexpQuantize(fmt, value))
                << fmt.describe() << " value " << value;
        }
    }
}

TEST(MinDigitBits, Boundaries)
{
    EXPECT_EQ(minDigitBits(0.0), 0);
    EXPECT_EQ(minDigitBits(0.999), 0);
    EXPECT_EQ(minDigitBits(1.0), 1);
    EXPECT_EQ(minDigitBits(-1.5), 1);
    EXPECT_EQ(minDigitBits(2.0), 2);
    EXPECT_EQ(minDigitBits(3.99), 2);
    EXPECT_EQ(minDigitBits(8.0), 4);  // the paper's Layer4 case
    EXPECT_EQ(minDigitBits(15.9), 4);
    EXPECT_EQ(minDigitBits(16.0), 5);
}

TEST(Popcount, WordAndSpan)
{
    EXPECT_EQ(popcount(std::span<const Word>()), 0u);
    const std::vector<Word> words{0xFFFF, 0x0000, 0x0001, 0xAAAA};
    EXPECT_EQ(popcount(std::span<const Word>(words)), 25u);
}

TEST(ZeroBitFraction, SmallWeightsAreSparse)
{
    // Quantized small weights (the bulk of a trained net) must be
    // bit-sparse; this is what makes the NN inherently fault-tolerant.
    QFormat fmt(0);
    Rng rng(7);
    std::vector<Word> words;
    for (int i = 0; i < 4000; ++i)
        words.push_back(fmt.quantize(rng.gaussian(0.0, 0.05)));
    EXPECT_GT(zeroBitFraction(words), 0.60);
}

TEST(ZeroBitFraction, EdgeCases)
{
    std::vector<Word> empty;
    EXPECT_EQ(zeroBitFraction(empty), 0.0);
    std::vector<Word> ones(4, 0xFFFF);
    EXPECT_EQ(zeroBitFraction(ones), 0.0);
    std::vector<Word> zeros(4, 0);
    EXPECT_EQ(zeroBitFraction(zeros), 1.0);
}

} // namespace
} // namespace uvolt::fxp
