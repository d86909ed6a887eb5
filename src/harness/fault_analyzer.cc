#include "harness/fault_analyzer.hh"

#include <bit>

#include "fpga/platform.hh"
#include "util/logging.hh"

namespace uvolt::harness
{

void
diffBram(const fpga::Bram &written, fpga::WordSpan observed,
         std::uint32_t bram, std::vector<FaultObservation> &out,
         FaultSummary &summary)
{
    if (observed.size() != static_cast<std::size_t>(fpga::bramWords))
        fatal("diffBram: observed data has {} packed words, expected {}",
              observed.size(), fpga::bramWords);

    const fpga::FaultDomain domain = fpga::FaultDomain::of(written, bram);
    domain.visitFaults(observed, [&](fpga::BitAddress addr,
                                     bool wrote_one) {
        FaultObservation fault;
        fault.bram = addr.bram;
        fault.row = addr.row;
        fault.col = addr.col;
        fault.oneToZero = wrote_one;
        out.push_back(fault);

        ++summary.totalFaults;
        if (fault.oneToZero)
            ++summary.oneToZero;
        else
            ++summary.zeroToOne;
    });
}

void
diffBram(const fpga::Bram &written,
         const std::vector<std::uint16_t> &observed, std::uint32_t bram,
         std::vector<FaultObservation> &out, FaultSummary &summary)
{
    if (observed.size() != static_cast<std::size_t>(fpga::bramRows))
        fatal("diffBram: observed data has {} rows, expected {}",
              observed.size(), fpga::bramRows);
    diffBram(written, fpga::packRows(observed), bram, out, summary);
}

FaultSummary
diffCounts(fpga::WordSpan written, fpga::WordSpan observed)
{
    if (observed.size() != written.size())
        fatal("diffCounts: {} observed packed words for {} written",
              observed.size(), written.size());
    FaultSummary summary;
    for (std::size_t w = 0; w < written.size(); ++w) {
        summary.oneToZero += static_cast<std::uint64_t>(
            std::popcount(written[w] & ~observed[w]));
        summary.zeroToOne += static_cast<std::uint64_t>(
            std::popcount(~written[w] & observed[w]));
    }
    summary.totalFaults = summary.oneToZero + summary.zeroToOne;
    return summary;
}

double
faultsPerMbit(double fault_count, std::uint64_t total_bits)
{
    return fault_count * fpga::bitsPerMbit / static_cast<double>(total_bits);
}

} // namespace uvolt::harness
