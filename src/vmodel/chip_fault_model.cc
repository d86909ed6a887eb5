#include "vmodel/chip_fault_model.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "util/logging.hh"
#include "util/rng.hh"

namespace uvolt::vmodel
{

std::size_t
MaskLadder::activeCount(double effective_v) const
{
    // Thresholds are sorted descending, so the elements that fail at
    // this voltage are a prefix. The boundary is cellFailsAt() — the one
    // shared predicate — so equality (healthy) resolves identically
    // here and in every scalar reference walker.
    const auto end = std::partition_point(
        thresholds.begin(), thresholds.end(), [effective_v](float t) {
            return cellFailsAt(t, effective_v);
        });
    return static_cast<std::size_t>(end - thresholds.begin());
}

void
DomainLadders::push(bool one_to_zero, float threshold_v,
                    std::uint32_t word, std::uint64_t mask)
{
    MaskLadder &ladder = one_to_zero ? oneToZero : zeroToOne;
    ladder.thresholds.push_back(threshold_v);
    ladder.words.push_back(word);
    ladder.masks.push_back(mask);
}

void
DomainLadders::sortDescending()
{
    for (MaskLadder *ladder : {&oneToZero, &zeroToOne}) {
        std::vector<std::size_t> order(ladder->size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [ladder](std::size_t a, std::size_t c) {
                             return ladder->thresholds[a] >
                                 ladder->thresholds[c];
                         });
        MaskLadder sorted;
        sorted.thresholds.reserve(order.size());
        sorted.words.reserve(order.size());
        sorted.masks.reserve(order.size());
        for (std::size_t i : order) {
            sorted.thresholds.push_back(ladder->thresholds[i]);
            sorted.words.push_back(ladder->words[i]);
            sorted.masks.push_back(ladder->masks[i]);
        }
        *ladder = std::move(sorted);
    }
}

std::uint64_t
DomainLadders::countFaults(fpga::WordSpan written, double effective_v) const
{
    std::uint64_t faults = 0;
    const std::size_t drops = oneToZero.activeCount(effective_v);
    for (std::size_t i = 0; i < drops; ++i)
        faults += static_cast<std::uint64_t>(std::popcount(
            written[oneToZero.words[i]] & oneToZero.masks[i]));
    const std::size_t rises = zeroToOne.activeCount(effective_v);
    for (std::size_t i = 0; i < rises; ++i)
        faults += static_cast<std::uint64_t>(std::popcount(
            ~written[zeroToOne.words[i]] & zeroToOne.masks[i]));
    return faults;
}

void
DomainLadders::applyFaults(std::span<std::uint64_t> words,
                           double effective_v) const
{
    const std::size_t drops = oneToZero.activeCount(effective_v);
    for (std::size_t i = 0; i < drops; ++i)
        words[oneToZero.words[i]] &= ~oneToZero.masks[i];
    const std::size_t rises = zeroToOne.activeCount(effective_v);
    for (std::size_t i = 0; i < rises; ++i)
        words[zeroToOne.words[i]] |= zeroToOne.masks[i];
}

namespace
{

/** Mean number of weak columns per faulty BRAM (at least 1). */
constexpr double meanWeakColumns = 2.0;

/** A float's bits mapped so unsigned order is numeric order. */
std::uint32_t
orderedBits(float value)
{
    const auto bits = std::bit_cast<std::uint32_t>(value);
    return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}

float
fromOrderedBits(std::uint32_t ordered)
{
    return std::bit_cast<float>((ordered & 0x80000000u) != 0
                                    ? ordered & 0x7fffffffu
                                    : ~ordered);
}

/**
 * Stable LSD radix sort of @a keys by their high 32 bits, a byte per
 * pass, ping-ponging with @a spare; a pass whose byte is the same in
 * every key is skipped. A comparison sort of a VC707 index costs
 * several times more.
 */
void
sortByHighWord(std::vector<std::uint64_t> &keys,
               std::vector<std::uint64_t> &spare)
{
    spare.resize(keys.size());
    for (int shift = 32; shift < 64; shift += 8) {
        std::array<std::size_t, 257> offsets{};
        for (std::uint64_t key : keys)
            ++offsets[((key >> shift) & 0xff) + 1];
        if (std::find(offsets.begin(), offsets.end(), keys.size()) !=
            offsets.end())
            continue;
        std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
        for (std::uint64_t key : keys)
            spare[offsets[(key >> shift) & 0xff]++] = key;
        keys.swap(spare);
    }
}

} // namespace

void
CountIndex::add(const DomainView &domain)
{
    // Key: descending threshold in the high half (so ascending keys sort
    // it first), the element's observable bits in the low half.
    const auto queue = [&](const MaskLadder &ladder, std::uint64_t flip) {
        for (std::size_t i = 0; i < ladder.size(); ++i) {
            const auto bits = static_cast<std::uint64_t>(std::popcount(
                (domain.written[ladder.words[i]] ^ flip) & ladder.masks[i]));
            if (bits != 0)
                keys_.push_back(
                    static_cast<std::uint64_t>(
                        ~orderedBits(ladder.thresholds[i]))
                        << 32 |
                    bits);
        }
    };
    queue(domain.ladders.oneToZero, 0);
    queue(domain.ladders.zeroToOne, ~std::uint64_t{0});
}

void
CountIndex::seal()
{
    // totals_ doubles as the radix sort's second buffer, and neither
    // buffer is freed: a rebuild reuses both. (Freeing ~170 KB buffers
    // mid-run raises glibc's dynamic mmap threshold, which moved later
    // NN allocations onto the heap and grew nn_icbp's peak RSS.)
    sortByHighWord(keys_, totals_);
    // Split the sorted keys into thresholds and, in place, running
    // totals of observable bits; the keys' buffer becomes the totals.
    thresholds_.resize(keys_.size());
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
        thresholds_[i] =
            fromOrderedBits(~static_cast<std::uint32_t>(keys_[i] >> 32));
        total += keys_[i] & 0xffffffffu;
        keys_[i] = total;
    }
    totals_.swap(keys_);
}

std::uint64_t
CountIndex::lookup(double effective_v) const
{
    const auto failing = std::partition_point(
        thresholds_.begin(), thresholds_.end(), [effective_v](float t) {
            return cellFailsAt(t, effective_v);
        }) - thresholds_.begin();
    return failing == 0 ? 0 : totals_[static_cast<std::size_t>(failing - 1)];
}

ChipFaultModel::ChipFaultModel(const fpga::PlatformSpec &spec,
                               const fpga::Floorplan &floorplan,
                               const VariationParams &params)
    : spec_(spec), lambda_(bramVulnerability(spec, floorplan, params)),
      cells_(floorplan.bramCount())
{
    const double k = spec_.faultGrowthSlope();
    const double v_min = spec_.calib.bramVminMv / 1000.0;
    const double v_crash = spec_.calib.bramVcrashMv / 1000.0;
    // Thresholds must stay strictly below Vmin: the SAFE region is
    // fault-free by definition. 2 mV of head-room keeps the boundary
    // unambiguous under the 10 mV regulator granularity even with
    // several sigma of per-run supply jitter.
    const double threshold_cap = v_min - 0.002;

    const std::uint64_t chip_seed = hashSeed(spec_.serialNumber);

    for (std::uint32_t b = 0; b < floorplan.bramCount(); ++b) {
        // lambda_ counts *observable at 0xFFFF* faults, i.e. the 1->0
        // subset; the full weak-cell population is slightly larger.
        const double mean_cells = lambda_[b] / oneToZeroShare;
        if (mean_cells <= 0.0)
            continue;

        Rng rng(combineSeeds(chip_seed,
                             combineSeeds(hashSeed("weak-cells"), b)));
        const auto n = rng.poisson(mean_cells);
        if (n == 0)
            continue;

        // Weak bitlines of this BRAM: read-timing failures share the
        // column mux / sense-amp path, so most weak cells concentrate
        // on a few columns (params.weakColumnShare of them), the rest
        // scatter uniformly.
        const std::uint64_t weak_column_count =
            rng.poisson(meanWeakColumns - 1.0) + 1;
        std::vector<int> weak_columns;
        for (std::uint64_t c = 0; c < weak_column_count; ++c) {
            weak_columns.push_back(static_cast<int>(
                rng.uniformInt(0, fpga::bramCols - 1)));
        }

        auto &list = cells_[b];
        list.reserve(n);
        std::unordered_set<std::uint32_t> used;
        used.reserve(n * 2);
        for (std::uint64_t i = 0; i < n; ++i) {
            // Unique cell position within the BRAM, column-biased.
            std::uint32_t offset;
            do {
                int col;
                if (rng.chance(params.weakColumnShare)) {
                    col = weak_columns[rng.uniformInt(
                        0, weak_columns.size() - 1)];
                } else {
                    col = static_cast<int>(
                        rng.uniformInt(0, fpga::bramCols - 1));
                }
                const auto row = static_cast<std::uint32_t>(
                    rng.uniformInt(0, fpga::bramRows - 1));
                offset = row * fpga::bramCols +
                    static_cast<std::uint32_t>(col);
            } while (!used.insert(offset).second);

            WeakCell cell;
            cell.row = static_cast<std::uint16_t>(offset / fpga::bramCols);
            cell.col = static_cast<std::uint8_t>(offset % fpga::bramCols);
            cell.oneToZero = rng.chance(oneToZeroShare);
            const double excess = rng.exponential(k);
            cell.thresholdV = static_cast<float>(
                std::min(v_crash + excess, threshold_cap));
            list.push_back(cell);
        }
        std::sort(list.begin(), list.end(),
                  [](const WeakCell &a, const WeakCell &c) {
                      return a.row != c.row ? a.row < c.row : a.col < c.col;
                  });
        totalWeakCells_ += list.size();
    }

    // Pin the chip's single most marginal cell to the cap: Vmin is a
    // *measured* boundary (first faults appear one regulator step below
    // it), so every chip realization must have at least one cell that
    // fails just under Vmin rather than leaving the boundary to Poisson
    // luck.
    WeakCell *most_marginal = nullptr;
    for (auto &list : cells_) {
        for (auto &cell : list) {
            if (!most_marginal ||
                cell.thresholdV > most_marginal->thresholdV) {
                most_marginal = &cell;
            }
        }
    }
    if (most_marginal)
        most_marginal->thresholdV = static_cast<float>(threshold_cap);

    buildLadders();
}

void
ChipFaultModel::buildLadders()
{
    ladders_.resize(cells_.size());
    for (std::size_t b = 0; b < cells_.size(); ++b) {
        for (const WeakCell &cell : cells_[b]) {
            const auto addr = fpga::BitAddress::fromBitOffset(
                static_cast<std::uint32_t>(b),
                static_cast<std::uint32_t>(cell.row) *
                        static_cast<std::uint32_t>(fpga::bramCols) +
                    cell.col);
            ladders_[b].push(cell.oneToZero, cell.thresholdV,
                             addr.wordIndex(), addr.wordMask());
        }
        ladders_[b].sortDescending();
    }
}

const std::vector<WeakCell> &
ChipFaultModel::weakCells(std::uint32_t bram) const
{
    if (bram >= cells_.size())
        fatal("weakCells: BRAM {} out of pool of {}", bram, cells_.size());
    return cells_[bram];
}

const DomainLadders &
ChipFaultModel::ladders(std::uint32_t bram) const
{
    if (bram >= ladders_.size())
        fatal("ladders: BRAM {} out of pool of {}", bram, ladders_.size());
    return ladders_[bram];
}

double
ChipFaultModel::effectiveVoltage(double rail_v, double temp_c,
                                 double jitter_v) const
{
    // Inverse Thermal Dependence: at near-threshold voltages, heating
    // lowers the transistor threshold and speeds the circuit up, which is
    // equivalent to a small supply boost.
    const double itd_boost =
        spec_.calib.itdMvPerC * (temp_c - referenceTempC) / 1000.0;
    return rail_v + itd_boost + jitter_v;
}

void
ChipFaultModel::applyFaults(std::span<std::uint64_t> words,
                            std::uint32_t bram, double effective_v) const
{
    if (bram >= ladders_.size())
        fatal("applyFaults: BRAM {} out of pool of {}", bram,
              ladders_.size());
    ladders_[bram].applyFaults(words, effective_v);
}

std::vector<std::uint64_t>
ChipFaultModel::readBramPacked(const fpga::Bram &written,
                               std::uint32_t bram,
                               double effective_v) const
{
    const auto words = written.words();
    std::vector<std::uint64_t> observed(words.begin(), words.end());
    applyFaults(observed, bram, effective_v);
    return observed;
}

int
ChipFaultModel::countFaults(fpga::WordSpan written, std::uint32_t bram,
                            double effective_v) const
{
    if (bram >= ladders_.size())
        fatal("countFaults: BRAM {} out of pool of {}", bram,
              ladders_.size());
    return static_cast<int>(ladders_[bram].countFaults(written, effective_v));
}

int
ChipFaultModel::countBramFaults(const fpga::Bram &written,
                                std::uint32_t bram,
                                double effective_v) const
{
    return countFaults(written.words(), bram, effective_v);
}

std::uint64_t
ChipFaultModel::countDeviceFaults(const fpga::Device &device,
                                  double effective_v) const
{
    std::uint64_t total = 0;
    for (std::uint32_t b = 0; b < device.bramCount(); ++b)
        total += static_cast<std::uint64_t>(
            countFaults(device.bram(b).words(), b, effective_v));
    return total;
}

int
ChipFaultModel::countBramFaultsReference(const fpga::Bram &written,
                                         std::uint32_t bram,
                                         double effective_v) const
{
    int faults = 0;
    for (const WeakCell &cell : weakCells(bram)) {
        if (!cellFailsAt(cell.thresholdV, effective_v))
            continue;
        const bool stored = written.testBit(cell.row, cell.col);
        if (cell.oneToZero ? stored : !stored)
            ++faults;
    }
    return faults;
}

double
ChipFaultModel::expectedFaults(double effective_v) const
{
    const double v_min = spec_.calib.bramVminMv / 1000.0;
    const double v_crash = spec_.calib.bramVcrashMv / 1000.0;
    if (effective_v >= v_min)
        return 0.0;
    const double k = spec_.faultGrowthSlope();
    const double v = std::max(effective_v, v_crash);
    return spec_.expectedFaultsAtVcrash() * std::exp(-k * (v - v_crash));
}

} // namespace uvolt::vmodel
