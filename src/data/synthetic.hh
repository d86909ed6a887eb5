/**
 * @file
 * Procedural stand-ins for the paper's three NN benchmarks.
 *
 * - makeMnistLike(): 28x28 grey-scale digit images rendered from
 *   seven-segment glyph prototypes with per-sample translation, stroke
 *   wobble, additive noise, and patch erasures. Difficulty parameters
 *   are tuned so the paper's 6-layer baseline reaches an inherent
 *   classification error near MNIST's 2.56%.
 * - makeForestLike(): 54 cartographic-style features, 7 cover classes
 *   (Gaussian class clusters plus pure-noise nuisance features).
 * - makeReutersLike(): sparse bag-of-words documents over a fixed
 *   vocabulary, 8 topics. Constructed to be the least sparse of the
 *   three (the paper observes Reuters is least resilient for exactly
 *   this reason).
 *
 * All generators are deterministic in (count, seed, options).
 */

#ifndef UVOLT_DATA_SYNTHETIC_HH
#define UVOLT_DATA_SYNTHETIC_HH

#include <cstddef>
#include <cstdint>

#include "data/dataset.hh"

namespace uvolt::data
{

/** Image geometry of the MNIST-like corpus. */
constexpr int mnistSide = 28;
constexpr int mnistPixels = mnistSide * mnistSide;
constexpr int mnistClasses = 10;

/** Difficulty knobs for the MNIST-like generator. */
struct MnistOptions
{
    double noiseSigma = 0.08;  ///< additive pixel noise
    double erasureProb = 0.20; ///< chance of a missing patch
    int erasureSize = 6;       ///< square patch edge, pixels
    double wobbleProb = 0.35;  ///< chance of per-row horizontal jitter
    int maxShift = 2;          ///< translation range, pixels

    /**
     * Ghosting: with this probability the image carries a fainter
     * overlay of a *different* digit, with overlay strength drawn
     * uniformly from (0, ghostMax]. This gives the corpus a graded
     * difficulty continuum (like real handwriting) instead of a
     * bimodal easy/illegible split, which is what puts probability
     * mass near the decision boundaries — the property that makes a
     * classifier measurably sensitive to weight perturbations.
     */
    double ghostProb = 0.25;
    double ghostMax = 0.60;
};

/** Image count from which makeMnistLike() renders on a worker pool. */
constexpr std::size_t mnistParallelMin = 1024;

/**
 * Generate an MNIST-like digit dataset, deterministic in (count, seed,
 * options) and independent of the worker count. One Rng walks every
 * image's structural draws (digit, level, ghost, wobble, shift,
 * erasure) in order on the calling thread and records, per image, the
 * stream where that image's noise starts. From mnistParallelMin images
 * on, a fresh pool of ThreadPool::hardwareWorkers() threads renders
 * fixed image ranges from those records; smaller sets render inline.
 */
Dataset makeMnistLike(std::size_t count, std::uint64_t seed,
                      const MnistOptions &options = {});

/** Shape of the Forest-like corpus. */
constexpr int forestFeatures = 54;
constexpr int forestClasses = 7;

/**
 * Generate a Forest-like tabular dataset. Class centers spread 0.5
 * relative to unit noise.
 */
Dataset makeForestLike(std::size_t count, std::uint64_t seed);

/** Shape of the Reuters-like corpus. */
constexpr int reutersVocab = 600;
constexpr int reutersClasses = 8;

/**
 * Generate a Reuters-like bag-of-words dataset.
 * @param topic_weight share of each document drawn from its class topic
 *        (the remainder comes from a shared background distribution)
 */
Dataset makeReutersLike(std::size_t count, std::uint64_t seed,
                        double topic_weight = 0.40);

} // namespace uvolt::data

#endif // UVOLT_DATA_SYNTHETIC_HH
