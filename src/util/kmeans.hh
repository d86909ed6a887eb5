/**
 * @file
 * One-dimensional k-means clustering.
 *
 * The paper (Section II-C.3, Fig 5) clusters per-BRAM fault rates into
 * low-, mid-, and high-vulnerable classes with k-means; this is the same
 * algorithm specialized to scalar samples, which lets us use an exact
 * deterministic initialization (quantile seeding) instead of k-means++.
 */

#ifndef UVOLT_UTIL_KMEANS_HH
#define UVOLT_UTIL_KMEANS_HH

#include <cstddef>
#include <vector>

namespace uvolt
{

/** Result of a 1-D k-means run. */
struct KMeansResult
{
    /** Cluster centroid values, sorted ascending. */
    std::vector<double> centroids;

    /** Per-sample cluster index into centroids (same order as input). */
    std::vector<std::size_t> assignment;

    /** Number of samples per cluster. */
    std::vector<std::size_t> sizes;

    /** Mean of the samples in each cluster (equals centroid at fixpoint). */
    std::vector<double> clusterMeans;
};

/**
 * Cluster scalar samples into k groups.
 *
 * Solved exactly: optimal 1-D k-means clusters are contiguous runs of
 * the sorted sample, found by dynamic programming in O(k n^2) — robust
 * on the heavy-tailed fault-rate distributions this library clusters
 * (most mass at zero plus a thin tail), where Lloyd's algorithm is
 * easily trapped. Deterministic by construction. Intended for n up to
 * a few thousand (per-BRAM statistics).
 *
 * @param samples input values (need not be sorted)
 * @param k number of clusters, 1 <= k <= samples.size()
 */
KMeansResult kMeans1d(const std::vector<double> &samples, std::size_t k);

} // namespace uvolt

#endif // UVOLT_UTIL_KMEANS_HH
