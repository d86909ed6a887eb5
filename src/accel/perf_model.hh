/**
 * @file
 * Throughput/energy model of the streaming FC accelerator.
 *
 * Table III's example synthesis runs the design at 100 MHz with a pool
 * of DSP MAC units; the datapath is a layer-by-layer streaming
 * matrix-vector engine. Cycle counts follow the standard FC-accelerator
 * occupancy model: each layer needs ceil(inputs*outputs / macs) MAC
 * cycles plus a per-layer pipeline drain. Combined with a power model
 * and an operating point, this yields inferences/s and energy per
 * inference — the quantities the DVFS-vs-undervolting comparison needs.
 */

#ifndef UVOLT_ACCEL_PERF_MODEL_HH
#define UVOLT_ACCEL_PERF_MODEL_HH

#include <cstdint>

#include "nn/network.hh"
#include "power/dvfs.hh"
#include "power/power_model.hh"

namespace uvolt::accel
{

/** Throughput and energy at one operating point. */
struct PerfPoint
{
    double clockMhz = 0.0;
    std::uint64_t cyclesPerInference = 0;
    double inferencesPerSecond = 0.0;
    double totalPowerW = 0.0;     ///< BRAM + logic at the point
    double energyPerInferenceMj = 0.0; ///< millijoules
};

/**
 * Performance model bound to one design and platform: Table III's
 * design, with 240 parallel DSP MACs, 12 fill/drain cycles per layer, a
 * 100 MHz nominal clock, and 70.8% of the device's BRAMs charged to its
 * power budget.
 */
class PerfModel
{
  public:
    /**
     * @param topology layer sizes of the deployed network
     * @param spec platform (for the BRAM power model)
     * @param logic_nominal_w logic power at nominal (Fig 10's "rest")
     */
    PerfModel(const std::vector<int> &topology,
              const fpga::PlatformSpec &spec, double logic_nominal_w);

    /** MAC cycles for one inference at any clock. */
    std::uint64_t cyclesPerInference() const;

    /** Evaluate an operating point end to end. */
    PerfPoint evaluate(const power::OperatingPoint &point) const;

  private:
    std::vector<int> topology_;
    power::RailPowerModel bramPower_;
    power::LogicPowerModel logicPower_;
};

} // namespace uvolt::accel

#endif // UVOLT_ACCEL_PERF_MODEL_HH
