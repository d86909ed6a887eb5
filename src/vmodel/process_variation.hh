/**
 * @file
 * Within-die and die-to-die process variation of BRAM vulnerability.
 *
 * The paper observes (Section II-C.3/4) that undervolting faults are fully
 * non-uniformly distributed over BRAMs, that the distribution is spatially
 * structured on the die (the Fault Variation Map, Fig 6), that a large
 * fraction of BRAMs never fault even at Vcrash (38.9% on VC707), and that
 * two identical boards show completely different maps (Fig 7). The paper
 * attributes this to within-die process variation (verified by showing the
 * map sticks to physical, not logical, BRAM locations across re-compiles).
 *
 * We model it as a spatially correlated log-normal random field over the
 * floorplan, seeded by the chip serial number (die-to-die variation =
 * different seeds), thresholded so the calibrated fraction of BRAMs is
 * fault-free, capped at the calibrated worst-BRAM rate, and normalized so
 * the die-wide expected fault count at Vcrash matches the calibrated rate.
 */

#ifndef UVOLT_VMODEL_PROCESS_VARIATION_HH
#define UVOLT_VMODEL_PROCESS_VARIATION_HH

#include <cstdint>
#include <vector>

#include "fpga/floorplan.hh"
#include "fpga/platform.hh"

namespace uvolt::vmodel
{

/**
 * Parameters of the latent vulnerability field: the two the fault-model
 * ablation varies. The log-normal shape (1.6) and the mean weak-column
 * count of a faulty BRAM (2) are fixed.
 */
struct VariationParams
{
    double spatialWeight = 0.55; ///< share of variance from the smooth field

    /**
     * Within-BRAM structure: read-timing failures concentrate on a few
     * weak bitlines (shared column mux / sense-amp timing), so a
     * faulty BRAM's weak cells cluster by column. This is the share of
     * a BRAM's weak cells that land on its weak columns; the rest are
     * uniform. Set to 0 for the fully-IID ablation.
     */
    double weakColumnShare = 0.7;
};

/**
 * Per-BRAM expected fault-cell counts at Vcrash.
 *
 * Result[b] is the expected number of faulty bitcells in BRAM b when
 * VCCBRAM = Vcrash at the reference 50 degC with pattern 0xFFFF.
 * Properties guaranteed by construction:
 *  - exactly floor(neverFaultyFraction * count) entries are 0,
 *  - max entry <= maxBramFaultRate * bramBits,
 *  - sum == spec.expectedFaultsAtVcrash() (up to rounding),
 *  - deterministic in (spec.serialNumber, floorplan).
 */
std::vector<double> bramVulnerability(const fpga::PlatformSpec &spec,
                                      const fpga::Floorplan &floorplan,
                                      const VariationParams &params = {});

/**
 * The latent spatially-correlated standard-normal field, exposed for
 * tests and for the fault-model ablation bench (correlation on/off).
 * One value per BRAM, mean ~0, variance ~1.
 */
std::vector<double> latentField(const fpga::PlatformSpec &spec,
                                const fpga::Floorplan &floorplan,
                                const VariationParams &params = {});

} // namespace uvolt::vmodel

#endif // UVOLT_VMODEL_PROCESS_VARIATION_HH
