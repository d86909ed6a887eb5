#include "accel/mitigation.hh"

#include <algorithm>

#include "accel/accelerator.hh"
#include "accel/secded.hh"
#include "fpga/fault_domain.hh"
#include "util/logging.hh"

namespace uvolt::accel
{

namespace
{

/** Replace one 16-bit row lane inside a packed stream. */
void
setRowOfWords(std::vector<std::uint64_t> &words, int row,
              std::uint16_t value)
{
    auto &word = words[static_cast<std::size_t>(row / fpga::bramRowsPerWord)];
    const int shift = (row % fpga::bramRowsPerWord) * fpga::bramCols;
    word = (word & ~(std::uint64_t{0xFFFF} << shift)) |
        (static_cast<std::uint64_t>(value) << shift);
}

} // namespace

MitigationLab::MitigationLab(pmbus::Board &board, WeightImage image,
                             Placement placement,
                             std::vector<int> protected_layers)
    : board_(board), image_(std::move(image)),
      placement_(std::move(placement)),
      protectedLayers_(std::move(protected_layers))
{
    if (placement_.logicalCount() != image_.logicalBramCount())
        fatal("mitigation lab: placement covers {} BRAMs, image needs {}",
              placement_.logicalCount(), image_.logicalBramCount());
    if (!placement_.fits(board_.device().bramCount()))
        fatal("mitigation lab: placement does not fit the device");
    if (protectedLayers_.empty()) {
        protectedLayers_.push_back(
            static_cast<int>(image_.layerSpans().size()) - 1);
    }

    // Free physical pool = everything the data placement left unused.
    std::vector<bool> used(board_.device().bramCount(), false);
    for (std::uint32_t l = 0; l < placement_.logicalCount(); ++l)
        used[placement_.physicalOf(l)] = true;
    std::vector<std::uint32_t> free_pool;
    for (std::uint32_t p = 0; p < board_.device().bramCount(); ++p) {
        if (!used[p])
            free_pool.push_back(p);
    }

    replicaOf_.resize(image_.logicalBramCount());
    hasReplica_.assign(image_.logicalBramCount(), false);
    checkOf_.resize(image_.logicalBramCount());

    std::size_t cursor = 0;
    auto take_free = [&]() {
        if (cursor >= free_pool.size())
            fatal("mitigation lab: not enough spare BRAMs on {} "
                  "(protect fewer layers)",
                  board_.spec().name);
        return free_pool[cursor++];
    };

    // TMR replicas: two spare BRAMs per protected logical BRAM.
    for (const LayerSpan &span : image_.layerSpans()) {
        if (!isProtected(span.layer))
            continue;
        for (std::uint32_t b = 0; b < span.bramCount; ++b) {
            const std::uint32_t logical = span.firstLogicalBram + b;
            replicaOf_[logical] = {take_free(), take_free()};
            hasReplica_[logical] = true;
        }
    }

    // SECDED check storage: one check BRAM serves two data BRAMs (two
    // 6-bit check words pack per 16-bit check row).
    std::uint32_t current_check = 0;
    int half = 0;
    for (const LayerSpan &span : image_.layerSpans()) {
        if (!isProtected(span.layer))
            continue;
        for (std::uint32_t b = 0; b < span.bramCount; ++b) {
            const std::uint32_t logical = span.firstLogicalBram + b;
            if (half == 0)
                current_check = take_free();
            checkOf_[logical] =
                {current_check, half * (fpga::bramRows / 2), true};
            half = (half + 1) % 2;
        }
    }

    program();
}

bool
MitigationLab::isProtected(int layer) const
{
    for (int p : protectedLayers_) {
        if (p == layer)
            return true;
    }
    return false;
}

void
MitigationLab::program()
{
    restoreAllStorage();
}

void
MitigationLab::restoreAllStorage() const
{
    auto &device = board_.device();
    for (std::uint32_t logical = 0; logical < image_.logicalBramCount();
         ++logical) {
        const auto &words = image_.wordsOf(logical);

        device.bram(placement_.physicalOf(logical)).assignWords(words);
        if (hasReplica_[logical]) {
            device.bram(replicaOf_[logical][0]).assignWords(words);
            device.bram(replicaOf_[logical][1]).assignWords(words);
        }
        if (checkOf_[logical].valid) {
            auto &check_bram = device.bram(checkOf_[logical].physical);
            for (int row = 0; row < fpga::bramRows; row += 2) {
                const std::uint8_t low = secdedEncode(
                    fpga::rowOfWords(words, row));
                const std::uint8_t high = secdedEncode(
                    fpga::rowOfWords(words, row + 1));
                check_bram.writeRow(
                    checkOf_[logical].baseRow + row / 2,
                    static_cast<std::uint16_t>(low | (high << 8)));
            }
        }
    }
}

std::vector<std::uint64_t>
MitigationLab::readPhysical(std::uint32_t physical) const
{
    // Reconfiguration restores data, replica, and check storage alike.
    return readBramRecovering(board_, physical, [this] {
        ++crashRecoveries_;
        restoreAllStorage();
    });
}

nn::QuantizedModel
MitigationLab::readRaw(MitigationReport &report) const
{
    report = MitigationReport{};
    std::vector<std::vector<std::uint64_t>> observed;
    observed.reserve(image_.logicalBramCount());
    for (std::uint32_t logical = 0; logical < image_.logicalBramCount();
         ++logical) {
        observed.push_back(readPhysical(placement_.physicalOf(logical)));
        report.rawFaults +=
            fpga::diffPopcount(image_.wordsOf(logical), observed.back());
    }
    report.residualFaults = report.rawFaults;
    return image_.decode(observed);
}

nn::QuantizedModel
MitigationLab::readTemporalVote(int reads, MitigationReport &report) const
{
    if (reads < 1 || reads % 2 == 0)
        fatal("temporal vote needs an odd positive read count, got {}",
              reads);
    report = MitigationReport{};
    report.extraBrams = 0; // bandwidth cost, not storage

    std::vector<std::vector<std::uint64_t>> observed;
    observed.reserve(image_.logicalBramCount());
    std::vector<int> votes(fpga::bramBits);

    for (std::uint32_t logical = 0; logical < image_.logicalBramCount();
         ++logical) {
        const std::uint32_t physical = placement_.physicalOf(logical);
        std::fill(votes.begin(), votes.end(), 0);
        std::uint64_t raw_once = 0;
        for (int r = 0; r < reads; ++r) {
            board_.startRun(); // fresh supply jitter per read
            const auto words = readPhysical(physical);
            if (r == 0) {
                raw_once =
                    fpga::diffPopcount(image_.wordsOf(logical), words);
            }
            // Only set bits can push a vote over the majority line, so
            // the ctz walk over the fault domain tallies exactly what
            // the per-bitcell loop did.
            fpga::forEachSetBit(words, [&](std::uint32_t offset) {
                ++votes[offset];
            });
        }
        std::vector<std::uint64_t> voted(fpga::bramWords, 0);
        for (int w = 0; w < fpga::bramWords; ++w) {
            std::uint64_t word = 0;
            for (int bit = 0; bit < fpga::bramWordBits; ++bit) {
                if (votes[static_cast<std::size_t>(
                        w * fpga::bramWordBits + bit)] * 2 > reads) {
                    word |= std::uint64_t{1} << bit;
                }
            }
            voted[static_cast<std::size_t>(w)] = word;
        }
        report.rawFaults += raw_once;
        report.residualFaults +=
            fpga::diffPopcount(image_.wordsOf(logical), voted);
        observed.push_back(std::move(voted));
    }
    report.corrected = report.rawFaults > report.residualFaults
        ? report.rawFaults - report.residualFaults
        : 0;
    return image_.decode(observed);
}

nn::QuantizedModel
MitigationLab::readSpatialTmr(MitigationReport &report) const
{
    report = MitigationReport{};
    report.extraBrams = tmrOverheadBrams();

    std::vector<std::vector<std::uint64_t>> observed;
    observed.reserve(image_.logicalBramCount());
    for (std::uint32_t logical = 0; logical < image_.logicalBramCount();
         ++logical) {
        auto primary = readPhysical(placement_.physicalOf(logical));
        report.rawFaults +=
            fpga::diffPopcount(image_.wordsOf(logical), primary);
        if (hasReplica_[logical]) {
            const auto copy_a = readPhysical(replicaOf_[logical][0]);
            const auto copy_b = readPhysical(replicaOf_[logical][1]);
            for (std::size_t w = 0; w < primary.size(); ++w) {
                // Bitwise 2-of-3 majority, 64 cells per operation.
                primary[w] = (primary[w] & copy_a[w]) |
                    (primary[w] & copy_b[w]) | (copy_a[w] & copy_b[w]);
            }
        }
        report.residualFaults +=
            fpga::diffPopcount(image_.wordsOf(logical), primary);
        observed.push_back(std::move(primary));
    }
    report.corrected = report.rawFaults > report.residualFaults
        ? report.rawFaults - report.residualFaults
        : 0;
    return image_.decode(observed);
}

nn::QuantizedModel
MitigationLab::readSecded(MitigationReport &report) const
{
    report = MitigationReport{};
    report.extraBrams = secdedOverheadBrams();

    std::vector<std::vector<std::uint64_t>> observed;
    observed.reserve(image_.logicalBramCount());
    for (std::uint32_t logical = 0; logical < image_.logicalBramCount();
         ++logical) {
        auto words = readPhysical(placement_.physicalOf(logical));
        report.rawFaults +=
            fpga::diffPopcount(image_.wordsOf(logical), words);
        if (checkOf_[logical].valid) {
            const auto check_words =
                readPhysical(checkOf_[logical].physical);
            for (int row = 0; row < fpga::bramRows; ++row) {
                const std::uint16_t packed = fpga::rowOfWords(
                    check_words, checkOf_[logical].baseRow + row / 2);
                const auto check = static_cast<std::uint8_t>(
                    (row % 2 == 0 ? packed : packed >> 8) & 0x3F);
                const SecdedResult decoded = secdedDecode(
                    fpga::rowOfWords(words, row), check);
                setRowOfWords(words, row, decoded.data);
                if (decoded.status == SecdedStatus::DoubleDetected)
                    ++report.detectedUncorrectable;
            }
        }
        report.residualFaults +=
            fpga::diffPopcount(image_.wordsOf(logical), words);
        observed.push_back(std::move(words));
    }
    report.corrected = report.rawFaults > report.residualFaults
        ? report.rawFaults - report.residualFaults
        : 0;
    return image_.decode(observed);
}

std::uint32_t
MitigationLab::tmrOverheadBrams() const
{
    std::uint32_t total = 0;
    for (bool has : hasReplica_)
        total += has ? 2 : 0;
    return total;
}

std::uint32_t
MitigationLab::secdedOverheadBrams() const
{
    std::uint32_t protected_count = 0;
    for (const auto &slot : checkOf_)
        protected_count += slot.valid;
    return (protected_count + 1) / 2;
}

} // namespace uvolt::accel
