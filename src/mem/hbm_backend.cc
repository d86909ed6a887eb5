#include "mem/hbm_backend.hh"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/logging.hh"
#include "util/rng.hh"
#include "vmodel/chip_fault_model.hh"

namespace uvolt::mem
{

const std::vector<HbmSpec> &
hbmCatalog()
{
    static const std::vector<HbmSpec> catalog = [] {
        std::vector<HbmSpec> specs(2);
        specs[0].name = "HBM2-A";
        specs[0].stackId = "H2A-31-0082";
        specs[1].name = "HBM2-B";
        specs[1].stackId = "H2A-31-0117";
        // Die-to-die variation of the same part: the B stack is a bit
        // leakier, so its fault-free floor sits higher.
        specs[1].vminMv = 990;
        specs[1].weakRowsPerBankAtVcrash = 31.0;
        return specs;
    }();
    return catalog;
}

const HbmSpec *
findHbm(const std::string &name)
{
    for (const HbmSpec &spec : hbmCatalog())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

DeviceTraits
hbmDeviceTraits(const HbmSpec &spec)
{
    if (spec.rowsPerBank % fpga::bramRowsPerWord != 0)
        fatal("HBM {}: rowsPerBank {} not word-packable", spec.name,
              spec.rowsPerBank);
    DeviceTraits traits;
    traits.name = spec.name;
    traits.dieId = spec.stackId;
    traits.technology = Technology::hbm;
    traits.domainCount = spec.bankCount();
    traits.wordsPerDomain =
        spec.rowsPerBank / static_cast<std::uint32_t>(fpga::bramRowsPerWord);
    // Floorplan: one column per pseudo-channel, banks stacked within it.
    traits.columnHeight = static_cast<int>(spec.banksPerChannel);
    traits.vnomMv = spec.vnomMv;
    traits.vminMv = spec.vminMv;
    traits.vcrashMv = spec.vcrashMv;
    traits.runJitterMv = spec.runJitterMv;
    return traits;
}

namespace
{

/** Packed word index of a 16-bit row lane. */
std::uint32_t
rowWord(std::uint32_t row)
{
    return row / static_cast<std::uint32_t>(fpga::bramRowsPerWord);
}

/** Whole-lane mask of a row inside its packed word. */
std::uint64_t
rowMask(std::uint32_t row)
{
    const int shift =
        static_cast<int>(row % fpga::bramRowsPerWord) * fpga::bramCols;
    return std::uint64_t{0xFFFF} << shift;
}

} // namespace

HbmBackend::HbmBackend(const HbmSpec &spec)
    : PlaneDevice(hbmDeviceTraits(spec)), spec_(spec)
{
    const std::uint64_t stackSeed = hashSeed(spec_.stackId);
    const double vmin = spec_.vminMv / 1000.0;
    const double vcrash = spec_.vcrashMv / 1000.0;
    const float cap = static_cast<float>(vmin - 0.002);

    // Exponential growth of active weak rows from ~1 at Vmin to the
    // full population at Vcrash: rate k with N*exp(-k*(vmin-vcrash))=1.
    const double population =
        std::max(2.0, spec_.weakRowsPerBankAtVcrash * spec_.bankCount());
    const double k = std::log(population) / (vmin - vcrash);

    rows_.resize(spec_.bankCount());
    std::uint32_t marginalBank = 0;
    std::size_t marginalIndex = 0;
    float marginalThreshold = -1.0f;
    for (std::uint32_t b = 0; b < spec_.bankCount(); ++b) {
        Rng rng(combineSeeds(stackSeed,
                             combineSeeds(hashSeed("weak-rows"), b)));
        // Mild bank-to-bank variation (mean-preserving log-normal).
        const double sigma = 0.25;
        const double lambda = spec_.weakRowsPerBankAtVcrash *
            rng.logNormal(-0.5 * sigma * sigma, sigma);
        const std::uint64_t target = rng.poisson(lambda);

        std::unordered_set<std::uint32_t> used;
        auto &bank = rows_[b];
        while (bank.size() < target && used.size() < spec_.rowsPerBank) {
            const auto row = static_cast<std::uint32_t>(
                rng.uniformInt(0, spec_.rowsPerBank - 1));
            if (!used.insert(row).second)
                continue; // a row fails as a unit; never sample it twice
            WeakRow weak;
            weak.row = row;
            weak.oneToZero = rng.chance(spec_.oneToZeroShare);
            weak.thresholdV = std::min(
                static_cast<float>(vcrash + rng.exponential(k)), cap);
            if (weak.thresholdV > marginalThreshold) {
                marginalThreshold = weak.thresholdV;
                marginalBank = b;
                marginalIndex = bank.size();
            }
            bank.push_back(weak);
        }
    }
    // Pin the most marginal row to the cap so the stack's first fault
    // appears right below Vmin regardless of sampling luck.
    if (marginalThreshold > 0.0f)
        rows_[marginalBank][marginalIndex].thresholdV = cap;

    for (std::uint32_t b = 0; b < spec_.bankCount(); ++b) {
        for (const WeakRow &weak : rows_[b])
            ladders_[b].push(weak.oneToZero, weak.thresholdV,
                             rowWord(weak.row), rowMask(weak.row));
        ladders_[b].sortDescending();
        std::sort(rows_[b].begin(), rows_[b].end(),
                  [](const WeakRow &a, const WeakRow &c) {
                      return a.row < c.row;
                  });
    }
}

double
HbmBackend::effectiveVoltage(double rail_v, double temp_c,
                             double jitter_v) const
{
    // Retention DEGRADES with temperature: running hot moves the stack
    // toward failure, i.e. the opposite sign of BRAM's ITD shift.
    return rail_v -
        spec_.retentionMvPerC * (temp_c - vmodel::referenceTempC) /
        1000.0 +
        jitter_v;
}

int
HbmBackend::countDomainFaultsReference(std::uint32_t domain,
                                       double effective_v) const
{
    const fpga::WordSpan words = domainWords(domain);
    int total = 0;
    for (const WeakRow &weak : rows_[domain]) {
        if (!vmodel::cellFailsAt(weak.thresholdV, effective_v))
            continue;
        // Probe the lane's 16 bitcells one by one: a failing row faults
        // on every stored bit of the polarity it flips.
        for (int col = 0; col < fpga::bramCols; ++col) {
            const std::uint32_t offset =
                weak.row * static_cast<std::uint32_t>(fpga::bramCols) +
                static_cast<std::uint32_t>(col);
            const bool stored =
                (words[offset / fpga::bramWordBits] >>
                 (offset % fpga::bramWordBits)) &
                1u;
            if (stored == weak.oneToZero)
                ++total;
        }
    }
    return total;
}

double
HbmBackend::railPowerW(double rail_v) const
{
    const double vnom = spec_.vnomMv / 1000.0;
    const double ratio = rail_v / vnom;
    return spec_.railPowerNomW *
        (spec_.dynamicFraction * ratio * ratio +
         (1.0 - spec_.dynamicFraction) *
             std::exp(-spec_.leakageSlope * (vnom - rail_v)));
}

std::unique_ptr<MemoryDevice>
HbmBackend::clone() const
{
    return std::unique_ptr<MemoryDevice>(new HbmBackend(*this));
}

const std::vector<HbmBackend::WeakRow> &
HbmBackend::weakRows(std::uint32_t domain) const
{
    checkDomain(domain);
    return rows_[domain];
}

} // namespace uvolt::mem
