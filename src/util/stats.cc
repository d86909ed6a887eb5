#include "util/stats.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace uvolt
{

void
RunningStats::add(double x)
{
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (count_ == 1) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        fatal("quantile() of an empty sample");
    // NaN-proof clamp: every comparison against NaN is false, so the
    // plain std::clamp would let NaN through into the index cast below.
    if (!(q > 0.0))
        q = 0.0;
    else if (q >= 1.0)
        q = 1.0;
    std::sort(values.begin(), values.end());
    if (q == 0.0 || values.size() == 1)
        return values.front();
    if (q == 1.0) // exact extreme, no interpolation round-off
        return values.back();
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

} // namespace uvolt
