/**
 * @file
 * Alternative fault-mitigation strategies, for comparison with ICBP.
 *
 * The paper's related work (Section IV-A.4) names TMR, ECC, and Razor
 * as generic mitigations that could mask undervolting faults but carry
 * timing/area/power overheads; ICBP is proposed precisely because its
 * placement constraint costs (almost) nothing. This module implements
 * the storage-level alternatives so the trade-off can be measured
 * instead of asserted:
 *
 *  - temporal voting: read each row N times and majority-vote. Against
 *    *deterministic* undervolting faults this corrects (almost)
 *    nothing — every read fails the same way — which demonstrates why
 *    spatial techniques are needed. Costs Nx readout bandwidth.
 *  - spatial TMR: store each protected BRAM three times in otherwise
 *    unused BRAMs and bitwise majority-vote the three copies. Costs 2
 *    extra BRAMs per protected BRAM.
 *  - SECDED: store a Hamming(21,16)+parity check word per row in extra
 *    check BRAMs (packed two per row) and correct single-bit errors per
 *    row. Costs 0.5 extra BRAMs per protected BRAM; rows with two or
 *    more faults remain uncorrectable.
 *
 * All strategies read through the same Board fault path as the plain
 * accelerator, so their check/replica storage undervolts too.
 */

#ifndef UVOLT_ACCEL_MITIGATION_HH
#define UVOLT_ACCEL_MITIGATION_HH

#include <array>
#include <cstdint>
#include <vector>

#include "accel/placement.hh"
#include "accel/weight_image.hh"
#include "nn/quantizer.hh"
#include "pmbus/board.hh"

namespace uvolt::accel
{

/** Accounting for one mitigated readout. */
struct MitigationReport
{
    std::uint64_t rawFaults = 0;      ///< faulty weight bits before fixup
    std::uint64_t residualFaults = 0; ///< still faulty after fixup
    std::uint64_t corrected = 0;      ///< bits repaired
    std::uint64_t detectedUncorrectable = 0; ///< SECDED double errors
    std::uint32_t extraBrams = 0;     ///< storage overhead, BRAM blocks

    double
    coverage() const
    {
        return rawFaults == 0
            ? 1.0
            : static_cast<double>(corrected) /
                static_cast<double>(rawFaults);
    }
};

/**
 * A deployed accelerator image with optional protection storage.
 *
 * The lab programs the weight image through @a placement, then lets the
 * caller read it back through any of the strategies under the board's
 * present voltage/temperature conditions.
 */
class MitigationLab
{
  public:
    /**
     * @param protected_layers layers that get TMR replicas and SECDED
     *        check words (empty = the last layer, ICBP's default).
     * fatal() if replicas/check storage do not fit the device.
     */
    MitigationLab(pmbus::Board &board, WeightImage image,
                  Placement placement,
                  std::vector<int> protected_layers = {});

    /** Re-program all data, replica, and check BRAMs. */
    void program();

    /** Plain readout (no mitigation), with fault accounting. */
    nn::QuantizedModel readRaw(MitigationReport &report) const;

    /**
     * Majority vote over @a reads consecutive (jitter-perturbed) reads
     * of every BRAM. @a reads must be odd.
     */
    nn::QuantizedModel readTemporalVote(int reads,
                                        MitigationReport &report) const;

    /** Bitwise 2-of-3 vote across the TMR replicas (protected layers). */
    nn::QuantizedModel readSpatialTmr(MitigationReport &report) const;

    /** SECDED-corrected readout of the protected layers. */
    nn::QuantizedModel readSecded(MitigationReport &report) const;

    const WeightImage &image() const { return image_; }
    const std::vector<int> &protectedLayers() const
    {
        return protectedLayers_;
    }

    /** Extra BRAMs consumed by TMR replicas. */
    std::uint32_t tmrOverheadBrams() const;

    /** Extra BRAMs consumed by SECDED check words. */
    std::uint32_t secdedOverheadBrams() const;

    /** Spurious DONE-low events survived during mitigated readouts. */
    std::uint64_t crashRecoveries() const { return crashRecoveries_; }

  private:
    bool isProtected(int layer) const;

    /** Re-write data, replica, and check BRAMs (reconfiguration). */
    void restoreAllStorage() const;

    /** readBramRecovering() with restoreAllStorage() as the restore. */
    std::vector<std::uint64_t>
    readPhysical(std::uint32_t physical) const;

    pmbus::Board &board_;
    WeightImage image_;
    Placement placement_;
    std::vector<int> protectedLayers_;

    /** Logical BRAM -> two replica physical BRAMs (protected only). */
    std::vector<std::array<std::uint32_t, 2>> replicaOf_;
    std::vector<bool> hasReplica_;

    /**
     * Logical BRAM -> physical check BRAM and base row; two 6-bit check
     * words pack per 16-bit check row.
     */
    struct CheckSlot
    {
        std::uint32_t physical;
        int baseRow;
        bool valid = false;
    };
    std::vector<CheckSlot> checkOf_;
    mutable std::uint64_t crashRecoveries_ = 0;
};

} // namespace uvolt::accel

#endif // UVOLT_ACCEL_MITIGATION_HH
