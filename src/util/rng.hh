/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the library (process variation, data sets,
 * training, fault-injection campaigns) flows through Rng so that a chip,
 * an experiment, or a whole benchmark run is a pure function of its seeds.
 * The generator is xoshiro256** seeded via SplitMix64, which gives
 * high-quality 64-bit streams that are cheap to seed per-subsystem.
 */

#ifndef UVOLT_UTIL_RNG_HH
#define UVOLT_UTIL_RNG_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace uvolt
{

/** SplitMix64 step; used for seeding and for cheap hashing of seed strings. */
std::uint64_t splitMix64(std::uint64_t &state);

/**
 * Stable 64-bit hash of a string, for deriving seeds from human-readable
 * identifiers such as chip serial numbers ("1308-6520").
 */
std::uint64_t hashSeed(std::string_view text);

/** Combine two seeds into a new independent seed (order-sensitive). */
std::uint64_t combineSeeds(std::uint64_t a, std::uint64_t b);

/**
 * xoshiro256** generator with convenience distributions.
 *
 * Satisfies UniformRandomBitGenerator so it can also be handed to
 * <random> facilities, although the built-in helpers below are preferred
 * because their output is stable across standard-library versions.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded through SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Construct from a human-readable identifier. */
    explicit Rng(std::string_view seed_text);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit value. */
    std::uint64_t operator()();

    /**
     * Skip @a n raw values, exactly as @a n operator()() calls would;
     * a cached gaussian() value stays cached.
     */
    void discard(std::uint64_t n);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi], inclusive. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Standard normal deviate (Box-Muller with caching). */
    double gaussian();

    /** Normal deviate with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Exponential deviate with the given rate (mean 1/rate). */
    double exponential(double rate);

    /** Log-normal deviate: exp(N(mu, sigma)). */
    double logNormal(double mu, double sigma);

    /** Bernoulli trial. */
    bool chance(double probability);

    /**
     * Fill @a words with Bernoulli(@a probability) bits, bit 0 of word 0
     * first: bit k is exactly what the k-th chance(@a probability) call
     * would return, compared as the integer (x >> 11) < ceil(p * 2^53)
     * instead of through a double. A probability <= 0 or NaN sets no
     * bit, one >= 1 sets every bit.
     */
    void fillBernoulli(std::span<std::uint64_t> words, double probability);

    /**
     * Poisson deviate with the given mean (Knuth for small means,
     * clamped normal approximation for large ones).
     */
    std::uint64_t poisson(double mean);

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        if (items.empty())
            return;
        for (std::size_t i = items.size() - 1; i > 0; --i) {
            std::size_t j = uniformInt(0, i);
            std::swap(items[i], items[j]);
        }
    }

  private:
    friend void fillBernoulliStreams(std::span<const std::uint64_t> seeds,
                                     std::span<std::uint64_t> planes,
                                     std::size_t words, double probability);

    std::uint64_t state_[4];
    double cachedGaussian_ = 0.0;
    bool hasCachedGaussian_ = false;
};

/** Streams fillBernoulliStreams() steps side by side per pass. */
constexpr std::size_t bernoulliLanes = 16;

/**
 * Fill one plane of @a words words per seed: plane k, at
 * planes[k * words, (k + 1) * words), ends up exactly as
 * Rng(seeds[k]).fillBernoulli(plane_k, probability) would leave it.
 * The streams are independent, so bernoulliLanes of them step side by
 * side as a structure of arrays the compiler vectorizes; leftover
 * streams take the scalar fillBernoulli(), which stays the spec.
 * @a planes must hold at least seeds.size() * words words.
 */
void fillBernoulliStreams(std::span<const std::uint64_t> seeds,
                          std::span<std::uint64_t> planes, std::size_t words,
                          double probability);

} // namespace uvolt

#endif // UVOLT_UTIL_RNG_HH
