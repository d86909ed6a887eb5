/**
 * @file
 * 16-bit sign-magnitude fixed-point representation.
 *
 * The paper's NN accelerator (Table III, Fig 9) stores every weight as a
 * 16-bit word with a per-layer "minimum precision" split into sign, digit
 * (integer) and fraction fields. We use sign-magnitude rather than two's
 * complement: it is what makes small-magnitude weights mostly-"0" bit
 * patterns, which is the mechanism behind the paper's observation that
 * 76.3% of weight bits are "0" and therefore largely immune to the
 * dominant "1"->"0" undervolting flips.
 *
 * Word layout (bit 15 = MSB):
 *
 *   [15] sign | [14 .. 14-digit+1] digit | [fraction bits .. 0]
 *
 * digitBits + fracBits == 15 always; the sign occupies the MSB.
 */

#ifndef UVOLT_FXP_FIXED_POINT_HH
#define UVOLT_FXP_FIXED_POINT_HH

#include <cstdint>
#include <span>
#include <string>

namespace uvolt::fxp
{

/** Storage word for one fixed-point value. */
using Word = std::uint16_t;

/** Total bits per word, fixed at 16 by the accelerator datapath. */
constexpr int wordBits = 16;

/** Bit index of the sign bit. */
constexpr int signBit = 15;

/**
 * Per-layer fixed-point format: 1 sign bit, digitBits integer bits,
 * and (15 - digitBits) fraction bits.
 */
class QFormat
{
  public:
    /** @param digit_bits integer-field width in [0, 15]. */
    explicit QFormat(int digit_bits = 0);

    int digitBits() const { return digitBits_; }
    int fracBits() const { return fracBits_; }

    /** Quantize with round-to-nearest and saturation. */
    Word quantize(double value) const;

    /**
     * Reconstruct the real value a word encodes: the 15-bit magnitude
     * times 2^-frac, negated when the sign bit is set. Exact, since the
     * magnitude is below 2^15 and the scale is a power of two.
     */
    double
    dequantize(Word word) const
    {
        const double value = static_cast<double>(word & 0x7fffu) * lsb_;
        return (word >> signBit) != 0 ? -value : value;
    }

    /** "s1.d4.f11"-style description used in Fig 9 reports. */
    std::string describe() const;

    bool operator==(const QFormat &other) const = default;

  private:
    int digitBits_;
    int fracBits_;
    double lsb_;   ///< 2^-frac, one LSB
    double scale_; ///< 2^frac, value to LSBs
};

/**
 * Minimum digit-field width needed to represent the magnitude without
 * saturation (the paper's per-layer minimum-precision analysis, Fig 9).
 * Values inside (-1, 1) need zero digit bits.
 */
int minDigitBits(double max_abs_value);

/** Read one bit of a word (bit 0 = LSB). */
inline bool
getBit(Word word, int bit)
{
    return (word >> bit) & 1u;
}

/** Set or clear one bit of a word. */
inline Word
withBit(Word word, int bit, bool value)
{
    const Word mask = static_cast<Word>(1u << bit);
    return value ? static_cast<Word>(word | mask)
                 : static_cast<Word>(word & ~mask);
}

/** Number of "1" bits across a span of words. */
std::uint64_t popcount(std::span<const Word> words);

/**
 * Fraction of "0" bits across a span of words; the paper measures this
 * weight-bit sparsity at 76.3% for its trained MNIST network.
 */
double zeroBitFraction(std::span<const Word> words);

} // namespace uvolt::fxp

#endif // UVOLT_FXP_FIXED_POINT_HH
