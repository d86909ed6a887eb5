/**
 * @file
 * The packed fault-domain interface: one span/visitor API for every
 * piece of code that used to walk bitcells one by one (BRAM word reads,
 * the fault-analyzer cell walk, the weight-image decode loop).
 *
 * A fault domain is a span of 64-bit words covering rows*16 data bits in
 * ascending bit-offset order (bit offset = row*16 + col, so visiting set
 * bits in word/ctz order IS the row-major, column-ascending order the
 * legacy per-bitcell walkers produced — goldens depending on iteration
 * order are safe by construction). Parity bits live on a separate plane
 * (Bram::parityBit) and are structurally absent from these spans: no
 * popcount over a fault domain can ever include a parity column.
 *
 * Everything here is header-inline: these are the innermost loops of
 * the characterization path.
 */

#ifndef UVOLT_FPGA_FAULT_DOMAIN_HH
#define UVOLT_FPGA_FAULT_DOMAIN_HH

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "fpga/bram.hh"

namespace uvolt::fpga
{

/** Read-only packed view used throughout the readback/analysis path. */
using WordSpan = std::span<const std::uint64_t>;

/** Total set bits of a packed stream. */
inline std::uint64_t
popcountWords(WordSpan words)
{
    std::uint64_t total = 0;
    for (std::uint64_t word : words)
        total += static_cast<std::uint64_t>(std::popcount(word));
    return total;
}

/** Mismatching bits between two equally-sized packed streams. */
inline std::uint64_t
diffPopcount(WordSpan a, WordSpan b)
{
    std::uint64_t total = 0;
    for (std::size_t w = 0; w < a.size(); ++w)
        total += static_cast<std::uint64_t>(std::popcount(a[w] ^ b[w]));
    return total;
}

/**
 * Visit every set bit of a packed stream in ascending bit-offset order.
 * @param visit f(std::uint32_t bit_offset)
 */
template <typename F>
inline void
forEachSetBit(WordSpan words, F &&visit)
{
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t word = words[w];
        while (word) {
            const int bit = std::countr_zero(word);
            word &= word - 1;
            visit(static_cast<std::uint32_t>(w) *
                      static_cast<std::uint32_t>(bramWordBits) +
                  static_cast<std::uint32_t>(bit));
        }
    }
}

/**
 * Visit every mismatching bit between written and observed packed
 * streams in ascending bit-offset order (row-major, column-ascending).
 * @param visit f(std::uint32_t bit_offset, bool wrote_one)
 */
template <typename F>
inline void
forEachDiffBit(WordSpan written, WordSpan observed, F &&visit)
{
    for (std::size_t w = 0; w < written.size(); ++w) {
        std::uint64_t diff = written[w] ^ observed[w];
        while (diff) {
            const int bit = std::countr_zero(diff);
            diff &= diff - 1;
            visit(static_cast<std::uint32_t>(w) *
                      static_cast<std::uint32_t>(bramWordBits) +
                  static_cast<std::uint32_t>(bit),
                  ((written[w] >> bit) & 1u) != 0);
        }
    }
}

/** One 16-bit row lane extracted from a packed stream. */
inline std::uint16_t
rowOfWords(WordSpan words, int row)
{
    return static_cast<std::uint16_t>(
        words[static_cast<std::size_t>(row / bramRowsPerWord)] >>
        ((row % bramRowsPerWord) * bramCols));
}

/** Pack 1024 row words into the 256-word bit-packed layout. */
inline std::vector<std::uint64_t>
packRows(std::span<const std::uint16_t> rows)
{
    std::vector<std::uint64_t> words(rows.size() / bramRowsPerWord, 0);
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t word = 0;
        for (int lane = 0; lane < bramRowsPerWord; ++lane) {
            word |= static_cast<std::uint64_t>(
                        rows[w * bramRowsPerWord +
                             static_cast<std::size_t>(lane)])
                << (lane * bramCols);
        }
        words[w] = word;
    }
    return words;
}

/** Unpack a packed stream back into 16-bit row words. */
inline std::vector<std::uint16_t>
unpackRows(WordSpan words)
{
    std::vector<std::uint16_t> rows(words.size() *
                                    static_cast<std::size_t>(
                                        bramRowsPerWord));
    for (std::size_t w = 0; w < words.size(); ++w) {
        const std::uint64_t word = words[w];
        for (int lane = 0; lane < bramRowsPerWord; ++lane) {
            rows[w * bramRowsPerWord + static_cast<std::size_t>(lane)] =
                static_cast<std::uint16_t>(word >> (lane * bramCols));
        }
    }
    return rows;
}

/**
 * A fault domain: one BRAM-sized packed view plus the pool index it
 * belongs to. The single entry point that replaced the three ad-hoc
 * per-bitcell iteration APIs (Bram word reads, fault_analyzer cell
 * walk, weight_image decode loop).
 */
struct FaultDomain
{
    std::uint32_t bram = 0;
    WordSpan words;

    static FaultDomain
    of(const Bram &block, std::uint32_t index)
    {
        return {index, block.words()};
    }

    /** Set bits in the domain (e.g. stored "1" density). */
    std::uint64_t ones() const { return popcountWords(words); }

    /**
     * Visit faults against an observed readback as BitAddress + written
     * polarity, in the legacy row-major column-ascending order.
     * @param visit f(BitAddress, bool wrote_one)
     */
    template <typename F>
    void
    visitFaults(WordSpan observed, F &&visit) const
    {
        const std::uint32_t index = bram;
        forEachDiffBit(words, observed,
                       [&](std::uint32_t offset, bool wrote_one) {
                           visit(BitAddress::fromBitOffset(index, offset),
                                 wrote_one);
                       });
    }
};

} // namespace uvolt::fpga

#endif // UVOLT_FPGA_FAULT_DOMAIN_HH
