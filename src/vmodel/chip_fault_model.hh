/**
 * @file
 * Deterministic per-chip undervolting fault model.
 *
 * This is the substitution for real silicon: each chip (identified by its
 * board serial number) owns a fixed map of weak bitcells. A weak cell has
 * a failure threshold voltage in (Vcrash, Vmin); whenever the effective
 * BRAM supply is below that threshold, reads of the cell fail. The model
 * encodes every empirical law the paper measures:
 *
 *  - no faults at or above Vmin; exponential growth of the fault count
 *    from Vmin down to Vcrash (Fig 3),
 *  - 99.9% of failures read "1" as "0"; the remainder read "0" as "1"
 *    (Fig 4) - hence fault counts proportional to stored "1" density,
 *  - fault locations are fixed properties of the chip, so repeated reads
 *    see the same faults (Table II); run-to-run variation comes only from
 *    small supply jitter moving threshold-adjacent cells in and out,
 *  - per-BRAM fault counts follow the spatially-correlated heavy-tailed
 *    process-variation field (Figs 5-7),
 *  - higher temperature raises the effective voltage (Inverse Thermal
 *    Dependence), lowering fault rates and Vmin (Fig 8).
 */

#ifndef UVOLT_VMODEL_CHIP_FAULT_MODEL_HH
#define UVOLT_VMODEL_CHIP_FAULT_MODEL_HH

#include <cstdint>
#include <span>
#include <vector>

#include "fpga/bram.hh"
#include "fpga/device.hh"
#include "fpga/fault_domain.hh"
#include "fpga/floorplan.hh"
#include "fpga/platform.hh"
#include "vmodel/process_variation.hh"

namespace uvolt::vmodel
{

/** One weak bitcell of a chip. */
struct WeakCell
{
    std::uint16_t row;   ///< BRAM row, 0..1023
    std::uint8_t col;    ///< bit within the row, 0..15
    bool oneToZero;      ///< failure polarity (true for 99.9% of cells)
    float thresholdV;    ///< fails whenever effective voltage < threshold
};

/** Share of weak cells whose failure polarity is "1"->"0". */
constexpr double oneToZeroShare = 0.999;

/**
 * THE fault predicate: a weak element with threshold @a threshold_v
 * fails at effective voltage @a effective_v iff the effective voltage
 * is *strictly below* the threshold. Thresholds are stored as float and
 * promoted to double exactly (every float is representable), so the
 * comparison is unambiguous — and a cell whose threshold equals the
 * probe voltage is HEALTHY. Every fault-counting path (the packed
 * ladder's partition_point, the scalar reference walkers, and the
 * mem:: backends' generalized ladders) must route through this one
 * function so the exact-equality boundary can never diverge between
 * implementations.
 */
inline bool
cellFailsAt(float threshold_v, double effective_v)
{
    return effective_v < static_cast<double>(threshold_v);
}

/**
 * Packed threshold ladder: the weak elements of one fault domain and one
 * failure polarity in SoA layout, sorted by descending failure
 * threshold, so the elements failing at voltage v are exactly a prefix
 * (one binary search) and injection/counting over it is AND/OR masks +
 * std::popcount. A mask covers one bitcell (BRAM, SRAM) or a whole
 * 16-bit row lane (HBM), so counts popcount the masked bits instead of
 * assuming 0-or-1.
 */
struct MaskLadder
{
    std::vector<float> thresholds;    ///< descending
    std::vector<std::uint32_t> words; ///< packed word index per element
    std::vector<std::uint64_t> masks; ///< mask per element (>= 1 bit)

    /** Elements failing at @a effective_v: the prefix length, by binary
     *  search over the shared cellFailsAt() predicate. */
    std::size_t activeCount(double effective_v) const;

    std::size_t size() const { return thresholds.size(); }
};

/**
 * Both ladders of one fault domain — the one packed fault kernel every
 * technology uses. Elements are pushed in any order, then sorted once;
 * a 1->0 element faults where the stored bit is 1, a 0->1 element where
 * it is 0.
 */
struct DomainLadders
{
    MaskLadder oneToZero;
    MaskLadder zeroToOne;

    void push(bool one_to_zero, float threshold_v, std::uint32_t word,
              std::uint64_t mask);

    /** Stable-sort both ladders by descending threshold. Ties may land
     *  in either order: counts and injection are order-independent. */
    void sortDescending();

    /** Observable faults of the active prefixes against @a written. */
    std::uint64_t countFaults(fpga::WordSpan written,
                              double effective_v) const;

    /** Inject the active prefixes into @a words in place: 1->0 elements
     *  clear their bits (AND NOT), 0->1 elements set them (OR). */
    void applyFaults(std::span<std::uint64_t> words,
                     double effective_v) const;
};

/** One fault domain as a device-wide count sees it. */
struct DomainView
{
    const DomainLadders &ladders;
    fpga::WordSpan written;
};

/**
 * The device-wide fault count of one content epoch, as an index.
 *
 * For fixed content the count is a step function of the effective
 * voltage: the observable bits of every weak element whose threshold
 * lies above it. The first count of an epoch builds the index: each
 * element that can fault against the stored content contributes
 * (threshold, observable bits), where a 1->0 element counts the stored
 * 1s under its mask and a 0->1 element the stored 0s; the list is
 * sorted by descending threshold and prefix-summed. Every count is one
 * partition_point through cellFailsAt(), so it equals the streaming
 * count by construction; the answer for the last voltage is kept, so a
 * repeat at an unchanged voltage is one compare. Jitter and temperature
 * only shift the effective voltage, so one index serves every level and
 * run of a job. Copies start invalid, so a copied device can never
 * serve its source's totals after the two diverge.
 */
class CountIndex
{
  public:
    CountIndex() = default;
    CountIndex(const CountIndex &) {}
    CountIndex &
    operator=(const CountIndex &)
    {
        valid_ = false;
        return *this;
    }

    /**
     * Observable faults at @a effective_v over @a domains fault domains
     * holding content @a epoch; @a view(d) returns domain d's
     * DomainView.
     */
    template <typename View>
    std::uint64_t
    count(std::uint64_t epoch, double effective_v, std::uint32_t domains,
          View &&view)
    {
        // A repeat at the last voltage skips even the search.
        if (valid_ && epoch_ == epoch && effective_v == lastV_)
            [[likely]] return lastTotal_;
        if (!valid_ || epoch_ != epoch) {
            std::size_t elements = 0;
            for (std::uint32_t d = 0; d < domains; ++d) {
                const DomainLadders &ladders = view(d).ladders;
                elements += ladders.oneToZero.size() +
                    ladders.zeroToOne.size();
            }
            keys_.clear();
            keys_.reserve(elements);
            for (std::uint32_t d = 0; d < domains; ++d)
                add(view(d));
            seal();
            valid_ = true;
            epoch_ = epoch;
        }
        lastV_ = effective_v;
        lastTotal_ = lookup(effective_v);
        return lastTotal_;
    }

    /** Whether an index is built (for the last counted epoch). */
    bool built() const { return valid_; }

    /** Indexed elements (observable against the indexed content). */
    std::size_t size() const { return thresholds_.size(); }

  private:
    /** Queue one domain's observable elements for seal(). */
    void add(const DomainView &domain);

    /** Sort the queued elements and prefix-sum their fault bits. */
    void seal();

    std::uint64_t lookup(double effective_v) const;

    // The fields a repeat reads first, together.
    bool valid_ = false;                ///< the index holds epoch_
    std::uint64_t epoch_ = 0;
    double lastV_ = 0.0;                ///< last looked-up voltage
    std::uint64_t lastTotal_ = 0;       ///< its count
    std::vector<std::uint64_t> keys_;   ///< build buffer (threshold, bits)
    std::vector<float> thresholds_;     ///< descending
    std::vector<std::uint64_t> totals_; ///< bits of elements 0..i
};

/** Reference ambient for all calibration anchors (degC). */
constexpr double referenceTempC = 50.0;

/** The fixed fault personality of one physical chip. */
class ChipFaultModel
{
  public:
    /**
     * Build the chip's weak-cell map.
     * Deterministic in (spec.serialNumber, floorplan geometry, params).
     */
    ChipFaultModel(const fpga::PlatformSpec &spec,
                   const fpga::Floorplan &floorplan,
                   const VariationParams &params = {});

    const fpga::PlatformSpec &spec() const { return spec_; }

    /** Weak cells of one BRAM, sorted by (row, col). */
    const std::vector<WeakCell> &weakCells(std::uint32_t bram) const;

    /** Total weak cells on the chip (all polarities). */
    std::size_t totalWeakCells() const { return totalWeakCells_; }

    /**
     * Effective supply voltage seen by the bitcells: the rail level plus
     * the ITD temperature shift plus any per-run supply jitter.
     * @param rail_v VCCBRAM level in volts
     * @param temp_c on-board temperature in degC
     * @param jitter_v per-run supply noise in volts (0 for the median run)
     */
    double effectiveVoltage(double rail_v, double temp_c,
                            double jitter_v = 0.0) const;

    /**
     * Read one BRAM under reduced voltage: returns the 1024 observed row
     * words given the written content. Weak cells whose threshold exceeds
     * @a effective_v misread according to their polarity.
     */
    std::vector<std::uint16_t> readBram(const fpga::Bram &written,
                                        std::uint32_t bram,
                                        double effective_v) const;

    /**
     * Packed readback: the observed contents as 256 bit-packed 64-bit
     * words. The hot-path form of readBram(): one 2 KiB copy plus an
     * AND/XOR per active weak cell, no per-bitcell work.
     */
    std::vector<std::uint64_t> readBramPacked(const fpga::Bram &written,
                                              std::uint32_t bram,
                                              double effective_v) const;

    /**
     * Inject this BRAM's active faults into a packed stream in place:
     * active 1->0 cells clear their bit (AND with the inverted mask),
     * active 0->1 cells set it (OR). Equivalent to what readBram()
     * applies to the written rows.
     */
    void applyFaults(std::span<std::uint64_t> words, std::uint32_t bram,
                     double effective_v) const;

    /**
     * Count the observable faults in one BRAM for its current content
     * without materializing the read (faster path used by sweeps).
     */
    int countBramFaults(const fpga::Bram &written, std::uint32_t bram,
                        double effective_v) const;

    /**
     * Packed fault count over an arbitrary fault-domain span:
     * popcount of (written AND active 1->0 masks) plus popcount of
     * (NOT written AND active 0->1 masks).
     */
    int countFaults(fpga::WordSpan written, std::uint32_t bram,
                    double effective_v) const;

    /**
     * Device-wide fault count at one effective voltage: the sweep inner
     * loop. Streams every BRAM's packed words against its threshold
     * ladders; no per-bitcell or per-call overhead.
     */
    std::uint64_t countDeviceFaults(const fpga::Device &device,
                                    double effective_v) const;

    /**
     * The legacy scalar walker: per weak cell, one threshold compare and
     * one bitcell probe. Kept as the executable specification the packed
     * path is property-tested against (and as the BitAddress-based
     * compatibility shim for exact-iteration-order consumers).
     */
    int countBramFaultsReference(const fpga::Bram &written,
                                 std::uint32_t bram,
                                 double effective_v) const;

    /**
     * Expected observable fault count for the whole chip at the given
     * effective voltage, assuming every cell stores "1" (pattern 0xFFFF).
     * Analytic counterpart of the sampled map, used for model validation.
     */
    double expectedFaults(double effective_v) const;

    /** The packed ladders of one BRAM. */
    const DomainLadders &ladders(std::uint32_t bram) const;

    /** Per-BRAM expected weak-cell count at Vcrash (the variation field). */
    const std::vector<double> &vulnerability() const { return lambda_; }

  private:
    /** Precompute the per-BRAM packed ladders from cells_. */
    void buildLadders();

    fpga::PlatformSpec spec_;
    std::vector<double> lambda_;
    std::vector<std::vector<WeakCell>> cells_; // per BRAM, sorted
    std::vector<DomainLadders> ladders_;       // per BRAM
    std::size_t totalWeakCells_ = 0;
};

} // namespace uvolt::vmodel

#endif // UVOLT_VMODEL_CHIP_FAULT_MODEL_HH
