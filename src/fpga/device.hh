/**
 * @file
 * One FPGA device instance: a pool of BRAMs laid out on a floorplan plus
 * its supply rails. Mirrors the "FPGA chip" half of the paper's Fig 2
 * setup; the board-level pieces (regulator, serial link, heat chamber)
 * live in the pmbus module.
 */

#ifndef UVOLT_FPGA_DEVICE_HH
#define UVOLT_FPGA_DEVICE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "fpga/bram.hh"
#include "fpga/floorplan.hh"
#include "fpga/platform.hh"
#include "fpga/voltage_rail.hh"

namespace uvolt::fpga
{

/** A device built from a PlatformSpec. */
class Device
{
  public:
    /** Instantiate the chip described by @a spec with rails at nominal. */
    explicit Device(const PlatformSpec &spec);

    // The BRAM pool shares one content-epoch counter with the device;
    // copying would alias it across instances.
    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    const PlatformSpec &spec() const { return spec_; }
    const Floorplan &floorplan() const { return floorplan_; }

    std::uint32_t bramCount() const
    {
        return static_cast<std::uint32_t>(brams_.size());
    }

    /** Access one BRAM block by pool index. */
    Bram &bram(std::uint32_t index);
    const Bram &bram(std::uint32_t index) const;

    /** Fill every BRAM with the same row pattern (test initialization). */
    void fillAll(std::uint16_t pattern);

    /** Total data bitcells (parity excluded). */
    std::uint64_t totalBits() const;

    /** Total "1" bitcells currently stored across the pool. */
    std::uint64_t totalOnes() const;

    /**
     * Content epoch of the whole pool: every mutation of any BRAM bumps
     * it, so one compare validates a device-wide fault-count cache.
     */
    std::uint64_t contentEpoch() const { return contentEpoch_; }

    VoltageRail &rail(RailId id);
    const VoltageRail &rail(RailId id) const;

    /**
     * Whether the device still operates at the current VCCBRAM level.
     * Below Vcrash the configuration is lost and the DONE pin drops
     * (paper Section II-A); reads are meaningless in that state.
     */
    bool operational() const;

    /** DONE-pin state: high iff the bitstream is intact (not crashed). */
    bool donePin() const { return operational(); }

  private:
    PlatformSpec spec_;
    Floorplan floorplan_;
    std::uint64_t contentEpoch_ = 0;
    std::vector<Bram> brams_;
    VoltageRail vccBram_;
    VoltageRail vccInt_;
    VoltageRail vccAux_;
};

} // namespace uvolt::fpga

#endif // UVOLT_FPGA_DEVICE_HH
