#include "accel/perf_model.hh"

#include "util/logging.hh"

namespace uvolt::accel
{

namespace
{

/** Parallel DSP MACs (Table III scale). */
constexpr std::uint64_t macUnits = 240;

/** Per-layer pipeline fill/drain cycles. */
constexpr std::uint64_t pipelineDepth = 12;

/** Nominal clock (Table III), MHz. */
constexpr double clockMhz = 100.0;

/** Share of the device's BRAMs the design charges to its power budget
 *  (Table III). */
constexpr double bramUtilization = 0.708;

} // namespace

PerfModel::PerfModel(const std::vector<int> &topology,
                     const fpga::PlatformSpec &spec,
                     double logic_nominal_w)
    : topology_(topology), bramPower_(spec),
      logicPower_(logic_nominal_w, clockMhz)
{
    if (topology_.size() < 2)
        fatal("PerfModel needs at least two layer sizes");
}

std::uint64_t
PerfModel::cyclesPerInference() const
{
    std::uint64_t cycles = 0;
    for (std::size_t l = 0; l + 1 < topology_.size(); ++l) {
        const auto macs = static_cast<std::uint64_t>(topology_[l]) *
            static_cast<std::uint64_t>(topology_[l + 1]);
        cycles += (macs + macUnits - 1) / macUnits + pipelineDepth;
    }
    return cycles;
}

PerfPoint
PerfModel::evaluate(const power::OperatingPoint &point) const
{
    PerfPoint result;
    result.clockMhz = point.clockMhz;
    result.cyclesPerInference = cyclesPerInference();
    result.inferencesPerSecond = point.clockMhz * 1e6 /
        static_cast<double>(result.cyclesPerInference);
    result.totalPowerW =
        bramUtilization * bramPower_.bramPower(point.vccBramV) +
        logicPower_.watts(point.vccIntV, point.clockMhz);
    result.energyPerInferenceMj = result.totalPowerW /
        result.inferencesPerSecond * 1e3;
    return result;
}

} // namespace uvolt::accel
