/**
 * @file
 * Harsh-environment fault injection for the board instrumentation path.
 *
 * The paper validates its serial link and PMBus path in a quiet lab and
 * warns that "repeating these tests in more noisy and harsh environments
 * can cause observable faults above observed Vmin"; related work (Salami
 * et al. 1903.12514, Soyturk et al. 1912.00154) treats injected faults
 * and recovery as first-class methodology. This injector is the noisy
 * environment: a seeded, deterministic policy the Board composes that
 * corrupts serial frames, NACKs PMBus transactions, jitters latched rail
 * setpoints by one DAC step, and crashes the configuration spuriously
 * in a band above Vcrash.
 *
 * Every decision draws from the injector's own RNG stream, never from
 * the board's run-jitter stream, so the *physics* of a campaign is
 * bit-identical with and without injection — which is exactly what lets
 * the retry/recovery machinery be tested for full fault masking.
 */

#ifndef UVOLT_PMBUS_FAULT_INJECTOR_HH
#define UVOLT_PMBUS_FAULT_INJECTOR_HH

#include <cstdint>

#include "util/rng.hh"

namespace uvolt::pmbus
{

/** Knobs of the simulated harsh environment (all off by default). */
struct NoiseConfig
{
    std::uint64_t seed = 1;       ///< injector RNG stream seed

    double frameCorruptProb = 0.0;   ///< per serial frame: flip one byte
    double pmbusNackProb = 0.0;      ///< per PMBus transaction: NACK it
    double setpointJitterProb = 0.0; ///< per VOUT write: latch 1 step off
    double spuriousCrashProb = 0.0;  ///< per measurement run, in-band
    int crashBandMv = 30;            ///< band above Vcrash that can crash

    /**
     * Uniformly harsh environment: probability @a p on every maskable
     * channel (frames, NACKs, setpoint jitter, spurious crashes).
     */
    static NoiseConfig harsh(std::uint64_t seed, double p);
};

/** Injection event counters (what the environment did to us). */
struct NoiseStats
{
    std::uint64_t framesCorrupted = 0;
    std::uint64_t nacks = 0;
    std::uint64_t setpointJitters = 0;
    std::uint64_t spuriousCrashes = 0;
};

/** The seeded noise source. One per Board; shared by its channels. */
class FaultInjector
{
  public:
    explicit FaultInjector(const NoiseConfig &config);

    const NoiseConfig &config() const { return config_; }
    const NoiseStats &stats() const { return stats_; }

    /** Decide whether the frame being sent right now arrives corrupted. */
    bool corruptThisFrame();

    /** Decide whether the PMBus transaction in flight is NACKed. */
    bool nackThisTransaction();

    /**
     * Possibly perturb a latched DAC setpoint by one step (either
     * direction). Verify-after-write is what catches this.
     */
    int perturbSetpoint(int mv, int step_mv);

    /**
     * Arm a spurious crash for the measurement run starting now at
     * @a level_mv. Returns the number of measurement operations after
     * which the crash fires, or -1 for a clean run. Only levels inside
     * (vcrash, vcrash + crashBandMv] can crash spuriously.
     */
    int armCrash(int level_mv, int vcrash_mv, std::uint32_t op_count);

    /** Count a fired spurious crash (called by the board). */
    void recordSpuriousCrash();

  private:
    NoiseConfig config_;
    NoiseStats stats_;
    Rng rng_;
};

} // namespace uvolt::pmbus

#endif // UVOLT_PMBUS_FAULT_INJECTOR_HH
