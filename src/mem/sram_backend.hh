/**
 * @file
 * Standalone SRAM behind the MemoryDevice interface, after the MoRS
 * approximate fault model (arXiv:2110.05855): instead of synthesizing a
 * process-variation field, weak bitcells are SAMPLED from the spatial
 * distribution statistics MoRS extracts from real undervolted SRAMs —
 * a configured share of weak cells clusters on a few weak rows, a share
 * on weak columns (shared bit-lines), and the remainder falls uniformly
 * over the array. Sampling is seeded and deterministic: the same chip
 * name always yields the same weak-cell map.
 */

#ifndef UVOLT_MEM_SRAM_BACKEND_HH
#define UVOLT_MEM_SRAM_BACKEND_HH

#include <memory>
#include <string>
#include <vector>

#include "mem/memory_device.hh"

namespace uvolt::mem
{

/** Catalog entry for one MoRS-modeled SRAM chip. */
struct SramSpec
{
    std::string name;   ///< e.g. "MORS-SRAM-A"
    std::string chipId; ///< chip serial; seeds the fault personality

    std::uint32_t arrayCount = 128;  ///< sub-arrays (fault domains)
    std::uint32_t rowsPerArray = 512; ///< 16-bit lanes per array

    int vnomMv = 1100;
    int vminMv = 840;
    int vcrashMv = 700;

    double runJitterMv = 1.5;

    /** Mean weak cells per array observable at Vcrash. */
    double weakCellsPerArrayAtVcrash = 60.0;
    /** MoRS spatial statistics: shares of weak cells clustering on weak
     *  rows / weak columns; the remainder is uniform over the array. */
    double weakRowShare = 0.35;
    double weakColShare = 0.25;
    std::uint32_t weakRowsPerArray = 4;
    std::uint32_t weakColsPerArray = 2;

    /** 6T cells lose both polarities more evenly than BRAM's 99.9%. */
    double oneToZeroShare = 0.7;

    /** Positive: heating raises the effective voltage (BRAM-like ITD). */
    double itdMvPerC = 0.4;

    double railPowerNomW = 0.9;
    double dynamicFraction = 0.4;
    double leakageSlope = 10.0;
};

/** Built-in MoRS-modeled SRAM chips. */
const std::vector<SramSpec> &sramCatalog();

/** Catalog lookup by name; nullptr when the name is not an SRAM chip. */
const SramSpec *findSram(const std::string &name);

/** MemoryDevice traits of a MoRS SRAM chip (no backend construction). */
DeviceTraits sramDeviceTraits(const SramSpec &spec);

/** One SRAM chip as a MemoryDevice; domains are sub-arrays. */
class SramMorsBackend : public PlaneDevice
{
  public:
    /** Sample the chip's weak-cell map: deterministic in the spec. */
    explicit SramMorsBackend(const SramSpec &spec);

    double effectiveVoltage(double rail_v, double temp_c,
                            double jitter_v = 0.0) const override;

    int countDomainFaultsReference(std::uint32_t domain,
                                   double effective_v) const override;
    double railPowerW(double rail_v) const override;

    std::unique_ptr<MemoryDevice> clone() const override;

    /** One weak bitcell (single-bit fault element). */
    struct WeakCell
    {
        std::uint32_t row;
        std::uint8_t col;
        bool oneToZero;
        float thresholdV;
    };

    /** Weak cells of one array, sorted by (row, col). */
    const std::vector<WeakCell> &weakCells(std::uint32_t domain) const;

    const SramSpec &spec() const { return spec_; }

  private:
    SramMorsBackend(const SramMorsBackend &) = default;

    SramSpec spec_;
    std::vector<std::vector<WeakCell>> cells_; // per array, sorted
};

} // namespace uvolt::mem

#endif // UVOLT_MEM_SRAM_BACKEND_HH
