/**
 * @file
 * Graceful degradation: a sliding-window health score and the
 * shed/raise/recover state machine it drives.
 *
 * The paper warns that "repeating these tests in more noisy and harsh
 * environments can cause observable faults above observed Vmin" — a
 * serving deployment below the guardband must therefore treat sustained
 * fault pressure as a signal, not as bad luck. The tracker ingests one
 * scalar observation per served request (injected-fault events absorbed
 * by the retry stack: crash recoveries, run retries, link/PMBus
 * retries) and keeps the healthy fraction of the last 16 observations
 * as the score. The window, the thresholds and the floor steps are
 * constants of serve/health.cc; the diagram names their values.
 *
 * The state machine is deliberately a pure function of the observation
 * sequence — no clocks, no randomness — so a scripted fault-pressure
 * profile produces the same transition sequence on every run and at
 * any worker count (the server serializes observe() calls):
 *
 *          score < 0.5                          score >= 0.75
 *   normal ----------------------> degraded ----------------------+
 *     ^        (shed low-priority;    |  ^                        |
 *     |         raise floor 10 mV     |  | score < 0.5            v
 *     |         toward the safe       |  +-------------------- recovering
 *     |         setpoint on each      |      (ramp the floor back
 *     |         unhealthy observation,|       down 10 mV per
 *     +-------- up to 50 mV) ---------+       healthy observation)
 *            floor reaches 0
 *
 * An observation is unhealthy at pressure >= 1, and no transition
 * happens before the 4th observation.
 *
 * While degraded or recovering, low-priority work is shed and the
 * server refuses to operate below floorMv() — the setpoint is raised
 * toward the safe region exactly as the governor backs off its rail.
 */

#ifndef UVOLT_SERVE_HEALTH_HH
#define UVOLT_SERVE_HEALTH_HH

#include <cstdint>
#include <deque>
#include <vector>


namespace uvolt::serve
{

/** Serving mode the health score selects. */
enum class ServeState
{
    normal,     ///< full service at the requested operating points
    degraded,   ///< shedding low-priority work, floor raised
    recovering, ///< healthy again; ramping the floor back down
};

/** Stable short name ("normal"/"degraded"/"recovering"). */
const char *serveStateName(ServeState state);

/** One state-machine transition (or floor movement), for audit. */
struct HealthTransition
{
    std::uint64_t observation = 0; ///< 1-based observe() count
    ServeState state = ServeState::normal;
    int floorRaiseMv = 0; ///< raised floor after this transition
};

/**
 * The sliding-window health score and degradation state machine.
 * Not internally synchronized: the server serializes observe() calls
 * (that serialization is what makes scripted profiles deterministic
 * across worker counts).
 */
class HealthTracker
{
  public:
    /**
     * Ingest one observation of fault pressure (>= 1 is unhealthy) and
     * advance the state machine.
     */
    void observe(double pressure);

    /** Healthy fraction of the window (1.0 before any observation). */
    double score() const;

    ServeState state() const { return state_; }

    /** mV to add to every requested setpoint (0 when fully healthy). */
    int floorRaiseMv() const { return floorRaiseMv_; }

    /** Low-priority work is shed outside normal operation. */
    bool sheddingLowPriority() const
    {
        return state_ != ServeState::normal;
    }

    std::uint64_t observations() const { return observations_; }

    /** Every state/floor change, in order (the determinism witness). */
    const std::vector<HealthTransition> &transitions() const
    {
        return transitions_;
    }

  private:
    void recordTransition();

    std::deque<bool> healthy_; ///< window of per-observation verdicts
    std::size_t healthyCount_ = 0;
    std::uint64_t observations_ = 0;
    ServeState state_ = ServeState::normal;
    int floorRaiseMv_ = 0;
    std::vector<HealthTransition> transitions_;
};

} // namespace uvolt::serve

#endif // UVOLT_SERVE_HEALTH_HH
