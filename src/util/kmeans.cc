#include "util/kmeans.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/logging.hh"

namespace uvolt
{

/*
 * For scalar samples, k-means admits an exact solution: an optimal
 * clustering of sorted 1-D data is a partition into k contiguous runs,
 * so dynamic programming over split points finds the global optimum in
 * O(k n^2) with O(1) per-interval SSE via prefix sums. This avoids the
 * classic Lloyd's-algorithm failure mode on the heavy-tailed fault-rate
 * distributions this library clusters (a huge mass at zero plus a thin
 * tail), where poor seeding merges the tail clusters.
 */
KMeansResult
kMeans1d(const std::vector<double> &samples, std::size_t k)
{
    const std::size_t n = samples.size();
    if (k == 0 || k > n)
        fatal("kMeans1d: k={} invalid for {} samples", k, n);

    // Sort indices so clusters are contiguous runs.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&samples](std::size_t a, std::size_t b) {
                  return samples[a] < samples[b];
              });

    std::vector<double> sorted(n);
    for (std::size_t i = 0; i < n; ++i)
        sorted[i] = samples[order[i]];

    // Prefix sums for O(1) interval SSE:
    // sse(i, j) = sumsq - sum^2 / count over sorted[i..j].
    std::vector<double> prefix(n + 1, 0.0), prefix_sq(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        prefix[i + 1] = prefix[i] + sorted[i];
        prefix_sq[i + 1] = prefix_sq[i] + sorted[i] * sorted[i];
    }
    auto sse = [&](std::size_t i, std::size_t j) {
        const double count = static_cast<double>(j - i + 1);
        const double sum = prefix[j + 1] - prefix[i];
        const double sumsq = prefix_sq[j + 1] - prefix_sq[i];
        return std::max(0.0, sumsq - sum * sum / count);
    };

    constexpr double infinity = std::numeric_limits<double>::infinity();

    // cost[c][j]: best SSE for sorted[0..j] split into c+1 clusters.
    std::vector<std::vector<double>> cost(
        k, std::vector<double>(n, infinity));
    std::vector<std::vector<std::size_t>> split(
        k, std::vector<std::size_t>(n, 0));

    for (std::size_t j = 0; j < n; ++j)
        cost[0][j] = sse(0, j);
    for (std::size_t c = 1; c < k; ++c) {
        for (std::size_t j = c; j < n; ++j) {
            for (std::size_t i = c; i <= j; ++i) {
                const double candidate = cost[c - 1][i - 1] + sse(i, j);
                if (candidate < cost[c][j]) {
                    cost[c][j] = candidate;
                    split[c][j] = i;
                }
            }
        }
    }

    // Recover the run boundaries.
    std::vector<std::size_t> starts(k);
    {
        std::size_t end = n - 1;
        for (std::size_t c = k; c-- > 0;) {
            const std::size_t start = c == 0 ? 0 : split[c][end];
            starts[c] = start;
            if (c > 0)
                end = start - 1;
        }
    }

    KMeansResult result;
    result.centroids.resize(k);
    result.sizes.assign(k, 0);
    result.clusterMeans.assign(k, 0.0);
    result.assignment.resize(n);

    for (std::size_t c = 0; c < k; ++c) {
        const std::size_t start = starts[c];
        const std::size_t stop = (c + 1 < k) ? starts[c + 1] - 1 : n - 1;
        const double count = static_cast<double>(stop - start + 1);
        const double mean = (prefix[stop + 1] - prefix[start]) / count;
        result.centroids[c] = mean;
        result.clusterMeans[c] = mean;
        result.sizes[c] = stop - start + 1;
        for (std::size_t i = start; i <= stop; ++i)
            result.assignment[order[i]] = c;
    }
    return result;
}

} // namespace uvolt
