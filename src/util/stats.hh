/**
 * @file
 * Small statistics toolkit used by the characterization harness.
 *
 * The paper reports its results as medians of 100 runs plus min/max/stddev
 * summaries (Table II); this header provides exactly those reductions.
 */

#ifndef UVOLT_UTIL_STATS_HH
#define UVOLT_UTIL_STATS_HH

#include <cstddef>
#include <vector>

namespace uvolt
{

/**
 * Streaming mean / variance accumulator (Welford's algorithm) with
 * min/max tracking.
 */
class RunningStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Number of observations so far. */
    std::size_t count() const { return count_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Unbiased sample variance (0 with fewer than two observations). */
    double variance() const;

    /** Unbiased sample standard deviation. */
    double stddev() const;

    double minimum() const { return count_ ? min_ : 0.0; }
    double maximum() const { return count_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Quantile of a sample using linear interpolation between order statistics.
 * @param values sample (copied and sorted internally)
 * @param q quantile in [0, 1]; q = 0.5 is the median the paper reports
 */
double quantile(std::vector<double> values, double q);

/** Median shorthand: quantile(values, 0.5). */
double median(std::vector<double> values);

} // namespace uvolt

#endif // UVOLT_UTIL_STATS_HH
