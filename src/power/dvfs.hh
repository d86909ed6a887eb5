/**
 * @file
 * DVFS comparison substrate (paper Section IV-A.2).
 *
 * The classic alternative to fault-tolerant undervolting is Dynamic
 * Voltage and Frequency Scaling: lower the clock together with the
 * voltage so the design always meets timing ("as close to, but always
 * above, the critical operating point"). The paper argues DVFS trades
 * performance for its energy savings while aggressive undervolting at
 * constant frequency does not — this module makes that argument
 * quantitative.
 *
 * Timing follows the alpha-power law for near/super-threshold CMOS:
 *
 *   delay(V) ∝ V / (V - Vth)^alpha
 *
 * so Fmax(V) = Fnom * delay(Vnom) / delay(V). Logic power scales as
 * CV^2 f for the dynamic share and exponentially in V for leakage
 * (same shape as the BRAM rail model).
 */

#ifndef UVOLT_POWER_DVFS_HH
#define UVOLT_POWER_DVFS_HH

#include "fpga/platform.hh"

namespace uvolt::power
{

/**
 * Alpha-power-law timing model of the design's critical path, with the
 * 28 nm effective threshold voltage (0.35 V) and velocity-saturation
 * exponent (1.3).
 */
class TimingModel
{
  public:
    /** @param fmax_nom_mhz post-route Fmax at nominal voltage */
    explicit TimingModel(double fmax_nom_mhz);

    /** Critical-path delay relative to nominal (1.0 at Vnom). */
    double relativeDelay(double volts) const;

    /** Maximum safe clock at the given VCCINT level, MHz. */
    double fmaxMhz(double volts) const;

  private:
    double fmaxNomMhz_;
};

/** One (voltage, frequency) operating point and its consequences. */
struct OperatingPoint
{
    double vccIntV = 1.0;
    double vccBramV = 1.0;
    double clockMhz = 0.0;
    bool bramFaultsPossible = false; ///< VCCBRAM below its Vmin
};

/**
 * Logic ("rest of chip") power under scaled voltage and frequency:
 * dynamic CV^2 f plus exponential leakage, normalized to the design's
 * nominal logic power. The dynamic share at nominal (0.6) and the
 * leakage slope (6 /V) are 28 nm constants of dvfs.cc.
 */
class LogicPowerModel
{
  public:
    /**
     * @param nominal_w logic power at (Vnom, Fnom)
     * @param fnom_mhz nominal clock
     */
    LogicPowerModel(double nominal_w, double fnom_mhz);

    /** Power at an operating point, watts. */
    double watts(double vcc_int_v, double clock_mhz) const;

  private:
    double nominalW_;
    double fnomMhz_;
};

/**
 * Policy helper: the two strategies under comparison.
 *
 *  - dvfsPoint(v): both rails at v, clock at 90% of Fmax(v); never
 *    faults but slows down. v must stay at/above the logic Vmin (the
 *    critical operating point) — fatal() below it.
 *  - undervoltPoint(v_bram): VCCINT and clock stay nominal; only the
 *    BRAM rail drops (the paper's approach). Faults possible below the
 *    BRAM Vmin; mitigation is the accel module's job.
 */
class DvfsPolicy
{
  public:
    DvfsPolicy(const fpga::PlatformSpec &spec, double fnom_mhz);

    OperatingPoint dvfsPoint(double volts) const;
    OperatingPoint undervoltPoint(double vcc_bram_v) const;

    const TimingModel &timing() const { return timing_; }

  private:
    const fpga::PlatformSpec &spec_;
    double fnomMhz_;
    TimingModel timing_;
};

} // namespace uvolt::power

#endif // UVOLT_POWER_DVFS_HH
