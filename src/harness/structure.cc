#include "harness/structure.hh"

#include <algorithm>
#include <map>

namespace uvolt::harness
{

double
BramStructure::topTwoColumnShare() const
{
    if (faults == 0)
        return 0.0;
    auto sorted = perColumn;
    std::sort(sorted.rbegin(), sorted.rend());
    return static_cast<double>(sorted[0] + sorted[1]) /
        static_cast<double>(faults);
}

std::string
renderBramMap(const BramStructure &bram,
              const std::vector<FaultObservation> &faults)
{
    constexpr int fold_rows = 32;
    constexpr int bands = (fpga::bramRows + fold_rows - 1) / fold_rows;
    std::array<std::array<int, fpga::bramCols>, bands> grid{};
    for (const FaultObservation &fault : faults) {
        if (fault.bram != bram.bram)
            continue;
        ++grid[static_cast<std::size_t>(fault.row / fold_rows)]
              [fault.col];
    }

    std::string art;
    art.reserve(bands * (fpga::bramCols + 1));
    // MSB (col 15) on the left, like a register diagram.
    for (const auto &band : grid) {
        for (int col = fpga::bramCols - 1; col >= 0; --col) {
            const int count = band[static_cast<std::size_t>(col)];
            if (count == 0)
                art.push_back('.');
            else if (count <= 9)
                art.push_back(static_cast<char>('0' + count));
            else
                art.push_back('#');
        }
        art.push_back('\n');
    }
    return art;
}

StructureReport
analyzeStructure(const std::vector<FaultObservation> &faults)
{
    StructureReport report;
    std::map<std::uint32_t, BramStructure> by_bram;
    for (const FaultObservation &fault : faults) {
        auto &entry = by_bram[fault.bram];
        entry.bram = fault.bram;
        ++entry.faults;
        ++entry.perColumn[fault.col];
        ++report.columnTotals[fault.col];
        ++report.totalFaults;
    }
    report.perBram.reserve(by_bram.size());
    for (auto &[bram, entry] : by_bram)
        report.perBram.push_back(entry);
    return report;
}

} // namespace uvolt::harness
