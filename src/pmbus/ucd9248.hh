/**
 * @file
 * Register-level model of the TI UCD9248 digital PWM system controller.
 *
 * The studied boards regulate their rails with UCD9248 devices; the host
 * reprograms VCCBRAM through PMBus writes to VOUT_COMMAND after selecting
 * the rail with PAGE. The model implements the transaction semantics the
 * experiments rely on: LINEAR16 setpoints, a 10 mV DAC granularity (the
 * step size the paper sweeps with), per-page on/off state, temperature
 * readout, and status flags.
 */

#ifndef UVOLT_PMBUS_UCD9248_HH
#define UVOLT_PMBUS_UCD9248_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "pmbus/pmbus.hh"

namespace uvolt::pmbus
{

class FaultInjector;

/** DAC setpoint granularity in millivolts. */
constexpr int voutStepMv = 10;

/** Round a millivolt setpoint to the DAC granularity. */
int quantizeSetpointMv(int mv);

/** One regulated output page (rail) of the controller. */
struct RegulatorPage
{
    const char *label;        ///< e.g. "VCCBRAM"
    int setpointMv;           ///< commanded output level
    int nominalMv;            ///< power-on default
    bool enabled = true;      ///< OPERATION on/off
    /** Applied when the setpoint changes (wires the page to a rail). */
    std::function<void(int mv)> apply;
};

/** The emulated voltage controller. */
class Ucd9248
{
  public:
    /** @param temperature_source reads the on-board sensor in degC. */
    explicit Ucd9248(std::function<double()> temperature_source);

    /** Register a rail as the next PMBus page; returns the page index. */
    int addPage(const char *label, int nominal_mv,
                std::function<void(int mv)> apply);

    /** PMBus write transaction (byte- or word-sized payloads). */
    void writeByte(Command command, std::uint8_t value);
    void writeWord(Command command, std::uint16_t value);

    /** PMBus read transaction. */
    std::uint16_t readWord(Command command) const;

    /**
     * Harsh-environment transactions: same semantics as the plain
     * write/read calls above, but a transaction can be NACKed (returns
     * false, no side effect)
     * and a latched VOUT setpoint can land one DAC step off the
     * commanded code. Callers own the retry / verify-after-write policy.
     */
    bool tryWriteByte(Command command, std::uint8_t value);
    bool tryWriteWord(Command command, std::uint16_t value);
    bool tryReadWord(Command command, std::uint16_t &value_out) const;

    /** Wire the harsh environment into the bus (nullptr = quiet). */
    void attachInjector(FaultInjector *injector) { injector_ = injector; }

    /** Currently selected page index. */
    int page() const { return page_; }

  private:
    RegulatorPage &currentPage();
    const RegulatorPage &currentPage() const;

    std::function<double()> temperatureSource_;
    std::vector<RegulatorPage> pages_;
    FaultInjector *injector_ = nullptr;
    int page_ = 0;
};

} // namespace uvolt::pmbus

#endif // UVOLT_PMBUS_UCD9248_HH
