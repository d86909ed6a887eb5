/**
 * @file
 * The multi-technology memory-device abstraction (DESIGN.md §18).
 *
 * The paper characterizes FPGA BRAMs; the same group extended the
 * methodology to HBM stacks (arXiv:2101.00969) and standalone SRAMs via
 * the MoRS approximate fault model (arXiv:2110.05855). All three share
 * one shape, and MemoryDevice is that shape made explicit:
 *
 *  - geometry: the device is a pool of *fault domains*, each a packed
 *    plane of 64-bit words holding rows of 16-bit lanes (bit offset =
 *    row*16 + col, exactly the fpga::fault_domain.hh layout, so every
 *    packed helper — popcountWords, forEachDiffBit, packRows — works on
 *    every backend),
 *  - per-polarity threshold ladders (vmodel::DomainLadders, the one
 *    packed fault kernel): weak elements sorted by descending failure
 *    threshold, so the set active at a voltage is a prefix found by one
 *    binary search, and fault injection/counting is AND/OR masks +
 *    popcount. Backends differ in mask granularity (BRAM/SRAM: single
 *    bits; HBM: whole 16-bit row lanes),
 *  - an effective-voltage law (rail + temperature coefficient + jitter)
 *    and a Vmin/Vcrash envelope, both per technology,
 *  - a rail power model with per-technology constants,
 *  - a scalar reference walker per backend: the executable spec the
 *    packed path is property-tested against.
 *
 * Epoch/caching contract: every content mutation bumps a per-device
 * epoch; countFaults() memoizes the device-wide total on (epoch, exact
 * effective voltage) in a vmodel::CountMemo, the memo pmbus::Board
 * keeps too. Copies and clones NEVER share epochs or memos with their
 * source — a copy starts with an invalid memo and its own counter, so
 * divergent writes after a copy can never serve a stale total (the
 * Bram::bindEpoch detach rule, generalized).
 */

#ifndef UVOLT_MEM_MEMORY_DEVICE_HH
#define UVOLT_MEM_MEMORY_DEVICE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fpga/fault_domain.hh"
#include "vmodel/chip_fault_model.hh"

namespace uvolt::mem
{

/** Memory technologies behind the MemoryDevice interface. */
enum class Technology
{
    bram, ///< FPGA on-chip block RAM (the paper's subject)
    hbm,  ///< high-bandwidth DRAM stack (arXiv:2101.00969)
    sram, ///< standalone SRAM, MoRS-style model (arXiv:2110.05855)
};

/** Lower-case tag used in cache keys, labels, and manifests. */
const char *technologyName(Technology technology);

/** Uniform identity + geometry + envelope of one device. */
struct DeviceTraits
{
    std::string name;   ///< catalog name, e.g. "HBM2-A"
    std::string dieId;  ///< serial; seeds the device's fault personality
    Technology technology = Technology::bram;

    std::uint32_t domainCount = 0;   ///< fault domains on the device
    std::uint32_t wordsPerDomain = 0; ///< packed 64-bit words per domain
    int columnHeight = 8; ///< floorplan sites per column (FVM rendering)

    int vnomMv = 0;   ///< nominal rail level
    int vminMv = 0;   ///< lowest fault-free level
    int vcrashMv = 0; ///< lowest operable level

    double runJitterMv = 0.0; ///< per-run supply noise sigma

    /** Data bits per fault domain. */
    std::uint64_t
    bitsPerDomain() const
    {
        return static_cast<std::uint64_t>(wordsPerDomain) *
            static_cast<std::uint64_t>(fpga::bramWordBits);
    }

    /** Data bits on the whole device. */
    std::uint64_t
    totalBits() const
    {
        return bitsPerDomain() * domainCount;
    }

    /** Capacity in Mbit (2^20 bits). */
    double totalMbit() const;
};

/**
 * One memory device behind the generic fault-domain interface. BRAM is
 * one backend among several (BramBackend adapts fpga::Device +
 * vmodel::ChipFaultModel bit-identically); HbmBackend and
 * SramMorsBackend model the related-work technologies.
 */
class MemoryDevice
{
  public:
    virtual ~MemoryDevice() = default;

    const DeviceTraits &traits() const { return traits_; }
    Technology technology() const { return traits_.technology; }
    const std::string &name() const { return traits_.name; }
    const std::string &dieId() const { return traits_.dieId; }
    std::uint32_t domainCount() const { return traits_.domainCount; }

    // --- content ---------------------------------------------------------

    /** Fill every 16-bit lane of every domain with @a lane_pattern. */
    virtual void fill(std::uint16_t lane_pattern) = 0;

    /** Packed words of one domain (ascending bit-offset order). */
    virtual fpga::WordSpan domainWords(std::uint32_t domain) const = 0;

    /** Replace one domain's packed plane (fast image programming). */
    virtual void assignDomainWords(std::uint32_t domain,
                                   fpga::WordSpan words) = 0;

    /** Content epoch: bumped by every mutating call on this device. */
    virtual std::uint64_t contentEpoch() const = 0;

    // --- voltage law -----------------------------------------------------

    /**
     * Effective voltage seen by the cells: rail level plus this
     * technology's temperature coefficient plus per-run jitter. BRAM
     * heats *up* into reliability (inverse thermal dependence); DRAM
     * retention degrades with temperature, so HBM's coefficient has the
     * opposite sign.
     */
    virtual double effectiveVoltage(double rail_v, double temp_c,
                                    double jitter_v = 0.0) const = 0;

    // --- faults ----------------------------------------------------------

    /** Observable faults in one domain at an effective voltage. */
    virtual int countDomainFaults(std::uint32_t domain,
                                  double effective_v) const = 0;

    /**
     * The scalar executable spec: walk this backend's weak elements one
     * by one with the shared vmodel::cellFailsAt() predicate and probe
     * stored bits individually. The packed path is property-tested
     * against this, never the other way around.
     */
    virtual int countDomainFaultsReference(std::uint32_t domain,
                                           double effective_v) const = 0;

    /** Readback of one domain under reduced voltage, packed. */
    virtual std::vector<std::uint64_t>
    readDomainPacked(std::uint32_t domain, double effective_v) const = 0;

    /**
     * Device-wide fault count, memoized on (content epoch, exact
     * effective voltage). The memo is per-instance and never survives
     * copy/clone (see the epoch/caching contract above).
     */
    std::uint64_t countFaults(double effective_v) const;

    // --- power -----------------------------------------------------------

    /** Rail power in watts at the given rail voltage. */
    virtual double railPowerW(double rail_v) const = 0;

    // --- lifecycle -------------------------------------------------------

    /**
     * Deep copy with detached epochs and an invalid memo: the clone and
     * the source may diverge freely and each memoizes independently.
     */
    virtual std::unique_ptr<MemoryDevice> clone() const = 0;

  protected:
    explicit MemoryDevice(DeviceTraits traits)
        : traits_(std::move(traits))
    {
    }

    /** Copies carry the traits; the memo starts invalid (CountMemo). */
    MemoryDevice(const MemoryDevice &) = default;
    MemoryDevice &operator=(const MemoryDevice &) = default;

  private:
    DeviceTraits traits_;
    mutable vmodel::CountMemo countMemo_;
};

/**
 * The storage and fault kernel of the non-BRAM backends: one packed word
 * plane and one vmodel::DomainLadders pair per fault domain, bound to one
 * content-epoch counter. A backend synthesizes its weak elements into
 * ladders_ and supplies the voltage, reference and power laws. Copies
 * detach — the copied planes belong to the copy's own counter (the Bram
 * copy rule).
 */
class PlaneDevice : public MemoryDevice
{
  public:
    void fill(std::uint16_t lane_pattern) override;
    fpga::WordSpan domainWords(std::uint32_t domain) const override;
    void assignDomainWords(std::uint32_t domain,
                           fpga::WordSpan words) override;
    std::uint64_t contentEpoch() const override { return epoch_; }

    int countDomainFaults(std::uint32_t domain,
                          double effective_v) const override;
    std::vector<std::uint64_t>
    readDomainPacked(std::uint32_t domain,
                     double effective_v) const override;

  protected:
    explicit PlaneDevice(DeviceTraits traits);
    PlaneDevice(const PlaneDevice &) = default;

    /** fatal() unless @a domain indexes the pool. */
    void checkDomain(std::uint32_t domain) const;

    std::vector<vmodel::DomainLadders> ladders_; ///< per domain

  private:
    std::vector<std::vector<std::uint64_t>> planes_;
    std::uint64_t epoch_ = 0;
};

} // namespace uvolt::mem

#endif // UVOLT_MEM_MEMORY_DEVICE_HH
