#include "power/dvfs.hh"

#include <cmath>

#include "util/logging.hh"

namespace uvolt::power
{

namespace
{

/** Effective threshold voltage of the critical path (28 nm), volts. */
constexpr double vthV = 0.35;

/** Velocity-saturation exponent of the alpha-power law (28 nm). */
constexpr double alpha = 1.3;

/** Dynamic share of logic power at (Vnom, Fnom) (28 nm logic). */
constexpr double dynamicFraction = 0.6;

/** Exponential leakage slope of logic power, 1/V (28 nm). */
constexpr double leakageSlope = 6.0;

} // namespace

TimingModel::TimingModel(double fmax_nom_mhz) : fmaxNomMhz_(fmax_nom_mhz)
{
    if (fmax_nom_mhz <= 0.0)
        fatal("TimingModel needs a positive Fmax");
}

double
TimingModel::relativeDelay(double volts) const
{
    if (volts <= vthV)
        fatal("relativeDelay: {} V is at/below the {} V threshold",
              volts, vthV);
    const double nominal_delay = 1.0 / std::pow(1.0 - vthV, alpha);
    const double delay = volts / std::pow(volts - vthV, alpha);
    return delay / nominal_delay;
}

double
TimingModel::fmaxMhz(double volts) const
{
    return fmaxNomMhz_ / relativeDelay(volts);
}

LogicPowerModel::LogicPowerModel(double nominal_w, double fnom_mhz)
    : nominalW_(nominal_w), fnomMhz_(fnom_mhz)
{
    if (nominal_w <= 0.0 || fnom_mhz <= 0.0)
        fatal("LogicPowerModel needs positive power and clock");
}

double
LogicPowerModel::watts(double vcc_int_v, double clock_mhz) const
{
    const double dynamic = dynamicFraction * vcc_int_v * vcc_int_v *
        clock_mhz / fnomMhz_;
    const double leakage = (1.0 - dynamicFraction) *
        std::exp(-leakageSlope * (1.0 - vcc_int_v));
    return nominalW_ * (dynamic + leakage);
}

DvfsPolicy::DvfsPolicy(const fpga::PlatformSpec &spec, double fnom_mhz)
    : spec_(spec), fnomMhz_(fnom_mhz), timing_(fnom_mhz)
{
}

OperatingPoint
DvfsPolicy::dvfsPoint(double volts) const
{
    // The DVFS loop never crosses the critical operating point: the
    // lowest usable level is the logic rail's Vmin.
    const double floor_v = spec_.calib.intVminMv / 1000.0;
    if (volts < floor_v) {
        fatal("DVFS cannot operate at {} V: the critical operating "
              "point of {} is {} V",
              volts, spec_.name, floor_v);
    }
    OperatingPoint point;
    point.vccIntV = volts;
    point.vccBramV = volts;
    // 10% timing margin below Fmax, the usual in-situ-detector slack.
    point.clockMhz = 0.9 * timing_.fmaxMhz(volts);
    if (point.clockMhz > fnomMhz_)
        point.clockMhz = fnomMhz_; // never overclock past the design
    point.bramFaultsPossible = false;
    return point;
}

OperatingPoint
DvfsPolicy::undervoltPoint(double vcc_bram_v) const
{
    OperatingPoint point;
    point.vccIntV = 1.0;
    point.vccBramV = vcc_bram_v;
    point.clockMhz = fnomMhz_;
    point.bramFaultsPossible =
        vcc_bram_v < spec_.calib.bramVminMv / 1000.0;
    return point;
}

} // namespace uvolt::power
