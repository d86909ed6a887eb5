/**
 * @file
 * Within-BRAM structural analysis of fault locations.
 *
 * The paper characterizes faults per BRAM; this library additionally
 * models weak-column clustering inside each BRAM (see
 * vmodel::VariationParams). These statistics let experiments *measure*
 * that structure from readback data instead of trusting the model: the
 * per-column fault histogram of each BRAM, the share of its faults on
 * its dominant columns, and the column totals of the whole chip.
 */

#ifndef UVOLT_HARNESS_STRUCTURE_HH
#define UVOLT_HARNESS_STRUCTURE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fpga/bram.hh"
#include "harness/fault_analyzer.hh"

namespace uvolt::harness
{

/** Column-structure statistics of one BRAM's observed faults. */
struct BramStructure
{
    std::uint32_t bram = 0;
    int faults = 0;
    std::array<int, fpga::bramCols> perColumn{};

    /** Share of this BRAM's faults on its two most-faulty columns. */
    double topTwoColumnShare() const;
};

/** Chip-level aggregation. */
struct StructureReport
{
    std::vector<BramStructure> perBram; ///< only BRAMs with faults
    std::array<std::uint64_t, fpga::bramCols> columnTotals{};
    std::uint64_t totalFaults = 0;
};

/** Build the report from a flat list of fault observations. */
StructureReport analyzeStructure(
    const std::vector<FaultObservation> &faults);

/**
 * Render one BRAM's fault locations as ASCII art: 16 columns wide, the
 * 1024 rows folded into 32 bands of 32 rows ('.' clean band,
 * '1'-'9'/'#' by faulty-cell count in the band). Lets an experimenter
 * *see* the weak-column structure of a hot BRAM.
 */
std::string renderBramMap(const BramStructure &bram,
                          const std::vector<FaultObservation> &faults);

} // namespace uvolt::harness

#endif // UVOLT_HARNESS_STRUCTURE_HH
