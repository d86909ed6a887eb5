/**
 * @file
 * Supply-voltage rail model.
 *
 * The studied platforms expose independently regulated rails; the paper
 * experiments on VCCBRAM (BRAM supply) and VCCINT (internal logic supply),
 * both nominally 1 V on all four boards. Rail voltages are tracked in
 * integer millivolts because the UCD9248 regulator steps in 10 mV
 * increments and float drift across a 100-run x 10 mV sweep is
 * unacceptable for deterministic fault maps.
 */

#ifndef UVOLT_FPGA_VOLTAGE_RAIL_HH
#define UVOLT_FPGA_VOLTAGE_RAIL_HH

#include <string>

namespace uvolt::fpga
{

/** Identifier for the rails the paper regulates. */
enum class RailId
{
    VccBram, ///< BRAM supply (fine-grain experiments, Section II)
    VccInt,  ///< internal logic: LUTs, DSPs, routing
    VccAux,  ///< auxiliary I/O (not undervolted in the paper)
};

/** Printable rail name, e.g. "VCCBRAM". */
const char *railName(RailId id);

/** One adjustable supply rail. */
class VoltageRail
{
  public:
    /**
     * @param id which rail this is
     * @param nominal_mv factory nominal level (1000 mV on all platforms)
     */
    VoltageRail(RailId id, int nominal_mv);

    RailId id() const { return id_; }
    int nominalMv() const { return nominalMv_; }
    int millivolts() const { return currentMv_; }
    double volts() const { return currentMv_ / 1000.0; }

    /** Set the rail level; clamped to [0, 1.2 x nominal]. */
    void setMillivolts(int mv);

    /** Restore the factory nominal level. */
    void reset() { currentMv_ = nominalMv_; }

  private:
    RailId id_;
    int nominalMv_;
    int currentMv_;
};

} // namespace uvolt::fpga

#endif // UVOLT_FPGA_VOLTAGE_RAIL_HH
