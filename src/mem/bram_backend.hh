/**
 * @file
 * BRAM behind the MemoryDevice interface: a thin adapter over
 * fpga::Device + vmodel::ChipFaultModel. Every fault/readback call
 * delegates 1:1 to the ChipFaultModel paths the goldens were produced
 * with, so a BramBackend is bit-identical to the legacy stack by
 * construction — no fault math is reimplemented here.
 */

#ifndef UVOLT_MEM_BRAM_BACKEND_HH
#define UVOLT_MEM_BRAM_BACKEND_HH

#include <memory>

#include "fpga/device.hh"
#include "mem/memory_device.hh"
#include "power/power_model.hh"
#include "vmodel/chip_fault_model.hh"

namespace uvolt::mem
{

/** MemoryDevice traits of an FPGA platform's BRAM pool. */
DeviceTraits bramDeviceTraits(const fpga::PlatformSpec &spec);

/** One FPGA's BRAM pool as a MemoryDevice; domains are BRAM blocks. */
class BramBackend : public MemoryDevice
{
  public:
    /**
     * Adapt a platform's BRAM pool. The chip personality is aliased
     * (pmbus::sharedChipModel style), never copied; the fpga::Device is
     * owned by this backend.
     */
    BramBackend(const fpga::PlatformSpec &spec,
                std::shared_ptr<const vmodel::ChipFaultModel> model);

    void fill(std::uint16_t lane_pattern) override;
    fpga::WordSpan domainWords(std::uint32_t domain) const override;
    void assignDomainWords(std::uint32_t domain,
                           fpga::WordSpan words) override;
    std::uint64_t contentEpoch() const override;

    double effectiveVoltage(double rail_v, double temp_c,
                            double jitter_v = 0.0) const override;

    int countDomainFaultsReference(std::uint32_t domain,
                                   double effective_v) const override;
    const vmodel::DomainLadders &
    domainLadders(std::uint32_t domain) const override;
    std::vector<std::uint64_t>
    readDomainPacked(std::uint32_t domain,
                     double effective_v) const override;

    double railPowerW(double rail_v) const override;

    std::unique_ptr<MemoryDevice> clone() const override;

    /** The wrapped device, for BRAM-only consumers (FVM rendering). */
    const fpga::Device &device() const { return *device_; }
    const vmodel::ChipFaultModel &model() const { return *model_; }

  private:
    std::unique_ptr<fpga::Device> device_;
    std::shared_ptr<const vmodel::ChipFaultModel> model_;
    power::RailPowerModel power_;
};

} // namespace uvolt::mem

#endif // UVOLT_MEM_BRAM_BACKEND_HH
