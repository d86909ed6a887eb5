/**
 * @file
 * Closed-loop minimum-voltage tracking with canary BRAMs.
 *
 * The paper measures Vmin offline and notes it moves with temperature
 * (ITD, Fig 8) and environment ("repeating these tests in more noisy
 * and harsh environments can cause observable faults above observed
 * Vmin"). A deployment therefore needs margin — unless it tracks the
 * boundary online. This governor does that with the paper's own
 * ingredients: a handful of spare BRAMs (chosen from the FVM's *most
 * vulnerable* population, so they fail before anything the design
 * cares about) are kept filled with 0xFFFF and re-read every control
 * step; the rail steps 10 mV down while the canaries stay clean and
 * steps back up the moment they fault, holding one 10 mV guard step
 * above the observed failure level. The loop is fixed: eight canaries,
 * 10 mV steps, one guard step, and never a command below Vcrash.
 *
 * Because the canaries are the chip's weakest cells under the
 * worst-case pattern, canary-clean implies payload-clean with margin —
 * the same ordering argument ICBP uses, run in reverse.
 *
 * In a harsh environment the reading itself can be wrong or missing, so
 * the control law is defensive: an uncertain canary read (serial link
 * exhausted) holds the setpoint rather than descending on silence, and
 * a crashed configuration is recovered (soft reset + canary re-arm)
 * followed by a guard-distance back-off. Every step reports its health
 * so a deployment can see when the loop is flying on instruments.
 */

#ifndef UVOLT_HARNESS_GOVERNOR_HH
#define UVOLT_HARNESS_GOVERNOR_HH

#include <cstdint>
#include <vector>

#include "harness/fvm.hh"
#include "pmbus/board.hh"

namespace uvolt::harness
{

/** What the control loop knows about its own last reading. */
enum class GovernorHealth
{
    ok,            ///< canary read succeeded; decision is trustworthy
    heldUncertain, ///< canary read uncertain (link gave up); held level
    recovered,     ///< configuration crashed; reconfigured and backed off
};

/** One control-loop step record. */
struct GovernorStep
{
    int commandedMv = 0;
    int canaryFaults = 0;
    bool backedOff = false; ///< this step raised the rail
    GovernorHealth health = GovernorHealth::ok;
    std::uint64_t linkRetries = 0; ///< serial retransmits this step
};

/**
 * The online Vmin tracker. Owns nothing: it drives a Board the caller
 * provides and reads only its canary BRAMs, so it composes with a
 * deployed Accelerator occupying the rest of the pool.
 */
class VoltageGovernor
{
  public:
    /**
     * @param board board under control
     * @param fvm the chip's map; canaries are its *most* vulnerable
     *        BRAMs not in @a reserved (the payload's placement)
     * @param reserved physical BRAMs the payload occupies
     */
    VoltageGovernor(pmbus::Board &board, const Fvm &fvm,
                    const std::vector<std::uint32_t> &reserved);

    /** Physical BRAMs chosen as canaries (most vulnerable first). */
    const std::vector<std::uint32_t> &canaries() const
    {
        return canaries_;
    }

    /**
     * Run one control step: read the canaries at the present level and
     * command the next setpoint (down one step if clean, up one guard
     * step if faulty). Returns the step record.
     */
    GovernorStep step();

    /**
     * Run the loop until the setpoint stabilizes (same level commanded
     * twice in a row) or 100 steps elapse. Returns the trace.
     */
    std::vector<GovernorStep> settle();

    /** The level the loop last commanded. */
    int setpointMv() const { return setpointMv_; }

  private:
    Expected<int> countCanaryFaults();
    void refillCanaries();

    pmbus::Board &board_;
    std::vector<std::uint32_t> canaries_;
    std::vector<std::uint64_t> plane_ =
        std::vector<std::uint64_t>(fpga::bramWords); ///< canary readback
    int setpointMv_;
    int holdMv_ = 0;     ///< level we backed off to; do not descend past
    int cleanStreak_ = 0;
};

} // namespace uvolt::harness

#endif // UVOLT_HARNESS_GOVERNOR_HH
