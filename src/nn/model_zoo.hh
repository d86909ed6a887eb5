/**
 * @file
 * Train-once model cache.
 *
 * The paper trains its networks offline (MATLAB) and then replays
 * inference on the FPGA at many voltage points. Training the ~1.5 M
 * weight MNIST baseline takes minutes of CPU here, so the zoo trains
 * each standard model once, stores the float weights on disk, and later
 * runs (benches, examples) reload them instantly. Files are keyed by a
 * hash of (benchmark, topology, dataset seed/size, trainer options), so
 * stale caches are never reused. The cache directory defaults to
 * ./uvolt_model_cache and can be moved with UVOLT_CACHE_DIR.
 */

#ifndef UVOLT_NN_MODEL_ZOO_HH
#define UVOLT_NN_MODEL_ZOO_HH

#include <string>
#include <vector>

#include "data/dataset.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"

namespace uvolt::nn
{

/** Everything that defines one reproducible trained model. */
struct ZooSpec
{
    std::string benchmark;     ///< "mnist" | "forest" | "reuters"
    std::vector<int> topology; ///< layer sizes
    std::size_t trainCount;    ///< training-set size
    std::uint64_t dataSeed;    ///< training-set generator seed
    TrainOptions train;        ///< trainer hyper-parameters
    OutputMseOptions refine;   ///< MATLAB-style output-layer phase

    /** Stable content hash of the spec (cache key). */
    std::string cacheKey() const;
};

/** The paper's Table III MNIST baseline. */
ZooSpec paperMnistSpec();

/** Forest benchmark counterpart. */
ZooSpec paperForestSpec();

/** Reuters benchmark counterpart. */
ZooSpec paperReutersSpec();

/** Training set for a spec (deterministic). */
data::Dataset makeTrainSet(const ZooSpec &spec);

/**
 * Held-out evaluation set for a spec (deterministic, disjoint seed).
 * @param count number of samples; the paper classifies 10000 images
 */
data::Dataset makeTestSet(const ZooSpec &spec, std::size_t count = 10000);

/** Resolve the cache directory (UVOLT_CACHE_DIR or the default). */
std::string cacheDirectory();

/**
 * Save a trained network crash-atomically (util/fsio's
 * writeFileAtomic); returns false (warn) on I/O failure.
 */
bool saveNetwork(const Network &net, const std::string &path);

/**
 * Load a network; returns false if missing, corrupt, shape-mismatched,
 * or with bytes after the last bias.
 */
bool loadNetwork(Network &net, const std::string &path);

/**
 * Return the spec's trained network, training (and caching) it on the
 * first call of a given configuration.
 */
Network trainOrLoad(const ZooSpec &spec);

} // namespace uvolt::nn

#endif // UVOLT_NN_MODEL_ZOO_HH
