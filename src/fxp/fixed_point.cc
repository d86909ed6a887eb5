#include "fxp/fixed_point.hh"

#include <bit>
#include <cmath>

#include "util/format.hh"
#include "util/logging.hh"

namespace uvolt::fxp
{

QFormat::QFormat(int digit_bits)
    : digitBits_(digit_bits), fracBits_(wordBits - 1 - digit_bits),
      lsb_(std::ldexp(1.0, -fracBits_)), scale_(std::ldexp(1.0, fracBits_))
{
    if (digit_bits < 0 || digit_bits > wordBits - 1)
        fatal("QFormat digit bits {} out of [0, {}]", digit_bits,
              wordBits - 1);
}

Word
QFormat::quantize(double value) const
{
    const bool negative = std::signbit(value);
    // Scaling by a power of two >= 1 is exact short of overflow, where
    // it gives inf and saturates like any other too-large magnitude.
    double scaled = std::round(std::abs(value) * scale_);
    constexpr double max_scaled = (1u << signBit) - 1; // 15 magnitude bits
    if (scaled > max_scaled)
        scaled = max_scaled; // saturate

    Word word = static_cast<Word>(scaled);
    if (negative && word != 0)
        word = withBit(word, signBit, true);
    return word;
}

std::string
QFormat::describe() const
{
    return strFormat("s1.d{}.f{}", digitBits_, fracBits_);
}

int
minDigitBits(double max_abs_value)
{
    double magnitude = std::abs(max_abs_value);
    int bits = 0;
    // A digit field of b bits represents magnitudes strictly below 2^b
    // (up to the fraction resolution); grow b until that holds.
    while (magnitude >= std::ldexp(1.0, bits) && bits < wordBits - 1)
        ++bits;
    return bits;
}

std::uint64_t
popcount(std::span<const Word> words)
{
    std::uint64_t total = 0;
    for (Word w : words)
        total += static_cast<std::uint64_t>(std::popcount(w));
    return total;
}

double
zeroBitFraction(std::span<const Word> words)
{
    if (words.empty())
        return 0.0;
    const std::uint64_t ones = popcount(words);
    const std::uint64_t total =
        static_cast<std::uint64_t>(words.size()) * wordBits;
    return 1.0 - static_cast<double>(ones) / static_cast<double>(total);
}

} // namespace uvolt::fxp
