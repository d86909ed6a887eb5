/**
 * @file
 * BRAM-rail power model and the on-chip breakdown of the NN design.
 *
 * The paper measures board power with a power meter and attributes the
 * BRAM share with the Xilinx XPE tool; both dynamic and static power drop
 * when VCCBRAM is underscaled (Section II-A). We model the rail power as
 *
 *   P(v) = Pnom * [ d (v/Vnom)^2  +  (1-d) exp(-s (Vnom - v)) ]
 *
 * i.e. a CV^2 f dynamic term at the fixed ~500 MHz internal BRAM clock
 * plus an exponential-in-voltage leakage term. The per-platform constants
 * (Pnom, d, s) live in fpga::UvCalibration and are fit to the paper's
 * anchors: > 10x BRAM power reduction at Vmin, a further ~38% at Vcrash,
 * and a 24.1% total on-chip reduction for the NN design at Vmin (Fig 10).
 */

#ifndef UVOLT_POWER_POWER_MODEL_HH
#define UVOLT_POWER_POWER_MODEL_HH

#include "fpga/platform.hh"

namespace uvolt::power
{

/** Voltage-to-power model for one platform's VCCBRAM rail. */
class RailPowerModel
{
  public:
    explicit RailPowerModel(const fpga::PlatformSpec &spec);

    /** P(v) / P(Vnom), dimensionless, for VCCBRAM = @a volts. */
    double relativePower(double volts) const;

    /** Absolute BRAM rail power in watts at VCCBRAM = @a volts. */
    double bramPower(double volts) const;

    /** Power saving fraction of @a volts vs @a reference_volts. */
    double savingVs(double volts, double reference_volts) const;

  private:
    double vnom_;
    double pnom_;
    double dynamicFraction_;
    double leakageSlope_;
};

/** One row of the Fig 10 stacked bar: absolute watts. */
struct PowerBreakdown
{
    double bramW;  ///< BRAM power of the design at this VCCBRAM level
    double restW;  ///< DSPs, LUTs, routing, clocking (VCCINT at nominal)
    double totalW; ///< on-chip total

    double bramShare() const { return bramW / totalW; }
};

/**
 * On-chip power of a design that occupies a fraction of the device's
 * BRAMs, with the non-BRAM remainder held at nominal VCCINT.
 */
class OnChipBreakdown
{
  public:
    /**
     * @param spec platform the design is compiled for
     * @param bram_utilization fraction of the device BRAMs used (0.708
     *        for the paper's NN on VC707)
     * @param bram_share_at_nominal BRAM fraction of the design's total
     *        on-chip power at nominal voltage
     */
    OnChipBreakdown(const fpga::PlatformSpec &spec, double bram_utilization,
                    double bram_share_at_nominal);

    /** Breakdown with VCCBRAM at @a volts. */
    PowerBreakdown at(double volts) const;

    /** Total on-chip saving vs everything-nominal, at VCCBRAM = volts. */
    double totalSaving(double volts) const;

    /** The paper's NN design on the given platform (Table III numbers). */
    static OnChipBreakdown nnDesign(const fpga::PlatformSpec &spec);

  private:
    RailPowerModel rail_;
    double vnom_;
    double designBramNomW_;
    double restW_;
};

} // namespace uvolt::power

#endif // UVOLT_POWER_POWER_MODEL_HH
