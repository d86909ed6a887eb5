#include "util/rng.hh"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace uvolt
{

namespace
{

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** One xoshiro256** step. */
inline std::uint64_t
next(std::uint64_t (&state)[4])
{
    const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    const std::uint64_t t = state[1] << 17;

    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);

    return result;
}

/**
 * uniform() < p  <=>  m * 2^-53 < p  <=>  m < ceil(p * 2^53) for the
 * integer m = x >> 11 in [0, 2^53): the scaling by 2^53 is exact. A p
 * <= 0 or NaN gives 0 (no bit set), one >= 1 gives 2^53 (every bit).
 */
std::uint64_t
bernoulliThreshold(double probability)
{
    constexpr double scale = 0x1.0p53;
    if (probability >= 1.0)
        return std::uint64_t{1} << 53;
    if (probability > 0.0)
        return static_cast<std::uint64_t>(std::ceil(probability * scale));
    return 0;
}

} // namespace

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
fnv1a64(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
hashSeed(std::string_view text)
{
    // FNV-1a folded through one SplitMix64 step for avalanche.
    std::uint64_t h = fnv1a64(text);
    return splitMix64(h);
}

std::uint64_t
combineSeeds(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    return splitMix64(s);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : state_)
        word = splitMix64(sm);
}

Rng::Rng(std::string_view seed_text) : Rng(hashSeed(seed_text)) {}

std::uint64_t
Rng::operator()()
{
    return next(state_);
}

void
Rng::discard(std::uint64_t n)
{
    for (; n > 0; --n)
        next(state_);
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    const std::uint64_t span = hi - lo + 1;
    if (span == 0)
        return (*this)(); // full 64-bit range
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~0ULL - (~0ULL % span);
    std::uint64_t x;
    do {
        x = (*this)();
    } while (x > limit);
    return lo + (x % span);
}

double
Rng::gaussian()
{
    if (hasCachedGaussian_) {
        hasCachedGaussian_ = false;
        return cachedGaussian_;
    }
    // Box-Muller; u1 in (0,1] to keep the log finite.
    double u1 = 1.0 - uniform();
    double u2 = uniform();
    double radius = std::sqrt(-2.0 * std::log(u1));
    double angle = 2.0 * M_PI * u2;
    cachedGaussian_ = radius * std::sin(angle);
    hasCachedGaussian_ = true;
    return radius * std::cos(angle);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

double
Rng::exponential(double rate)
{
    return -std::log(1.0 - uniform()) / rate;
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(gaussian(mu, sigma));
}

bool
Rng::chance(double probability)
{
    return uniform() < probability;
}

void
Rng::fillBernoulli(std::span<std::uint64_t> words, double probability)
{
    const std::uint64_t threshold = bernoulliThreshold(probability);

    // A local copy of the state keeps it in registers: the output words
    // could otherwise alias it.
    std::uint64_t state[4] = {state_[0], state_[1], state_[2], state_[3]};
    for (std::uint64_t &word : words) {
        std::uint64_t bits = 0;
        for (int bit = 0; bit < 64; ++bit)
            bits |= static_cast<std::uint64_t>((next(state) >> 11) <
                                               threshold)
                << bit;
        word = bits;
    }
    std::copy(std::begin(state), std::end(state), state_);
}

void
fillBernoulliStreams(std::span<const std::uint64_t> seeds,
                     std::span<std::uint64_t> planes, std::size_t words,
                     double probability)
{
    constexpr std::size_t lanes = bernoulliLanes;
    // (x >> 11) < threshold is the sign bit of their difference, as both
    // are below 2^54. Shifting it in from the top, once per draw, leaves
    // draw k at bit k after 64 draws.
    const std::uint64_t threshold = bernoulliThreshold(probability);
    constexpr std::uint64_t signBit = std::uint64_t{1} << 63;
    std::size_t first = 0;
    for (; first + lanes <= seeds.size(); first += lanes) {
        // Lane l holds stream first + l: state word i in s<i>[l].
        std::uint64_t s0[lanes], s1[lanes], s2[lanes], s3[lanes];
        for (std::size_t l = 0; l < lanes; ++l) {
            const Rng seeded(seeds[first + l]);
            s0[l] = seeded.state_[0];
            s1[l] = seeded.state_[1];
            s2[l] = seeded.state_[2];
            s3[l] = seeded.state_[3];
        }
        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t bits[lanes] = {};
            for (int draw = 0; draw < 64; ++draw) {
                // next() per lane, with rotl(s1 * 5, 7) * 9 as shift-adds:
                // AVX2 has no 64-bit multiply.
                for (std::size_t l = 0; l < lanes; ++l) {
                    const std::uint64_t times5 = s1[l] + (s1[l] << 2);
                    const std::uint64_t rotated =
                        (times5 << 7) | (times5 >> 57);
                    const std::uint64_t x = rotated + (rotated << 3);
                    const std::uint64_t t = s1[l] << 17;
                    s2[l] ^= s0[l];
                    s3[l] ^= s1[l];
                    s1[l] ^= s2[l];
                    s0[l] ^= s3[l];
                    s2[l] ^= t;
                    s3[l] = (s3[l] << 45) | (s3[l] >> 19);
                    bits[l] = (bits[l] >> 1) |
                        (((x >> 11) - threshold) & signBit);
                }
            }
            for (std::size_t l = 0; l < lanes; ++l)
                planes[(first + l) * words + w] = bits[l];
        }
    }
    for (; first < seeds.size(); ++first)
        Rng(seeds[first]).fillBernoulli(planes.subspan(first * words, words),
                                        probability);
}

std::uint64_t
Rng::poisson(double mean)
{
    if (mean <= 0.0)
        return 0;
    if (mean < 64.0) {
        // Knuth: multiply uniforms until below exp(-mean).
        const double limit = std::exp(-mean);
        double product = 1.0;
        std::uint64_t k = 0;
        do {
            ++k;
            product *= uniform();
        } while (product > limit);
        return k - 1;
    }
    // Normal approximation, adequate for the large-mean tail here.
    double x = std::round(gaussian(mean, std::sqrt(mean)));
    return x < 0.0 ? 0 : static_cast<std::uint64_t>(x);
}

} // namespace uvolt
