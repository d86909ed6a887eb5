/**
 * @file
 * Host-side analysis of faulty readback data (the "Analyse faulty data"
 * step of Listing 1): diffing observed rows against written rows and
 * summarizing rates, locations, and bit-flip polarities.
 */

#ifndef UVOLT_HARNESS_FAULT_ANALYZER_HH
#define UVOLT_HARNESS_FAULT_ANALYZER_HH

#include <cstdint>
#include <vector>

#include "fpga/bram.hh"
#include "fpga/fault_domain.hh"

namespace uvolt::harness
{

/** One observed bit error. */
struct FaultObservation
{
    std::uint32_t bram;
    std::uint16_t row;
    std::uint8_t col;
    bool oneToZero; ///< wrote "1", read "0" (the dominant polarity)

    bool operator==(const FaultObservation &other) const = default;
};

/** Aggregate of one analysis pass. */
struct FaultSummary
{
    std::uint64_t totalFaults = 0;
    std::uint64_t oneToZero = 0;
    std::uint64_t zeroToOne = 0;

    FaultSummary &
    operator+=(const FaultSummary &other)
    {
        totalFaults += other.totalFaults;
        oneToZero += other.oneToZero;
        zeroToOne += other.zeroToOne;
        return *this;
    }

    /** Share of faults with the "1"->"0" polarity. */
    double
    oneToZeroFraction() const
    {
        return totalFaults == 0
            ? 1.0
            : static_cast<double>(oneToZero)
                / static_cast<double>(totalFaults);
    }
};

/**
 * Diff one BRAM's observed packed readback against its written content,
 * appending every mismatching bitcell to @a out (in row-major,
 * column-ascending order) and updating @a summary: an XOR + ctz walk
 * over the 64-bit words, no per-bitcell scan.
 */
void diffBram(const fpga::Bram &written, fpga::WordSpan observed,
              std::uint32_t bram, std::vector<FaultObservation> &out,
              FaultSummary &summary);

/**
 * The counts diffBram() would add to its summary, without the
 * locations: XOR + popcount over the packed words, split by polarity
 * (written 1 read 0 is oneToZero).
 */
FaultSummary diffCounts(fpga::WordSpan written, fpga::WordSpan observed);

/** Faults per Mbit for a count over a number of data bits. */
double faultsPerMbit(double fault_count, std::uint64_t total_bits);

} // namespace uvolt::harness

#endif // UVOLT_HARNESS_FAULT_ANALYZER_HH
