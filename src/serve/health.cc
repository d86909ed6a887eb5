#include "serve/health.hh"

#include <algorithm>

#include "util/logging.hh"

namespace uvolt::serve
{

namespace
{

constexpr std::size_t scoreWindow = 16; ///< sliding observations scored
constexpr std::uint64_t minObservations = 4; ///< before any transition
constexpr double unhealthyPressure = 1.0; ///< observation >= this
constexpr double degradeBelowScore = 0.5; ///< score entering degraded
constexpr double recoverAtScore = 0.75;   ///< score entering recovering
constexpr int floorStepMv = 10; ///< floor raise/ramp per observation

/** Cap on the raised floor: toward Vmin, never past the safe region. */
constexpr int maxFloorRaiseMv = 50;

} // namespace

const char *
serveStateName(ServeState state)
{
    switch (state) {
      case ServeState::normal:
        return "normal";
      case ServeState::degraded:
        return "degraded";
      case ServeState::recovering:
        return "recovering";
    }
    panic("serveStateName: invalid state {}", static_cast<int>(state));
}

void
HealthTracker::observe(double pressure)
{
    const bool healthy = pressure < unhealthyPressure;
    healthy_.push_back(healthy);
    healthyCount_ += healthy ? 1 : 0;
    if (healthy_.size() > scoreWindow) {
        healthyCount_ -= healthy_.front() ? 1 : 0;
        healthy_.pop_front();
    }
    ++observations_;
    if (observations_ < minObservations)
        return;

    const double s = score();
    switch (state_) {
      case ServeState::normal:
        if (s < degradeBelowScore) {
            state_ = ServeState::degraded;
            floorRaiseMv_ =
                std::min(maxFloorRaiseMv, floorRaiseMv_ + floorStepMv);
            recordTransition();
        }
        break;
      case ServeState::degraded:
        if (s >= recoverAtScore) {
            state_ = ServeState::recovering;
            recordTransition();
        } else if (!healthy && floorRaiseMv_ < maxFloorRaiseMv) {
            // Sustained pressure: keep backing the operating point off
            // toward the safe region, one regulator step at a time.
            floorRaiseMv_ =
                std::min(maxFloorRaiseMv, floorRaiseMv_ + floorStepMv);
            recordTransition();
        }
        break;
      case ServeState::recovering:
        if (s < degradeBelowScore) {
            state_ = ServeState::degraded;
            recordTransition();
        } else if (healthy) {
            floorRaiseMv_ = std::max(0, floorRaiseMv_ - floorStepMv);
            if (floorRaiseMv_ == 0)
                state_ = ServeState::normal;
            recordTransition();
        }
        break;
    }
}

double
HealthTracker::score() const
{
    if (healthy_.empty())
        return 1.0;
    return static_cast<double>(healthyCount_) /
           static_cast<double>(healthy_.size());
}

void
HealthTracker::recordTransition()
{
    transitions_.push_back(
        HealthTransition{observations_, state_, floorRaiseMv_});
}

} // namespace uvolt::serve
