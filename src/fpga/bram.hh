/**
 * @file
 * Block RAM (BRAM) model, bit-packed.
 *
 * The studied 7-series devices expose "basic" BRAM blocks of 16 kbits
 * organized as 1024 rows x 16 columns of bitcells (Table I). Each row
 * additionally carries two parity bits which the paper excludes from its
 * experiments; we model them as present (a separate packed plane) but
 * structurally excluded from fault accounting: the data fault domain is
 * a span of 64-bit words that simply never contains a parity bit.
 *
 * Storage is bit-packed: four 16-bit rows per 64-bit word, bit offset
 * row*16+col inside the block, 256 words per BRAM, laid out
 * structure-of-arrays across the device pool so readback, fault
 * injection (AND/XOR of threshold masks) and fault counting
 * (std::popcount) stream over contiguous words instead of walking
 * bitcells one by one.
 */

#ifndef UVOLT_FPGA_BRAM_HH
#define UVOLT_FPGA_BRAM_HH

#include <cstdint>
#include <span>
#include <vector>

namespace uvolt::fpga
{

/** Rows of bitcells per basic BRAM block. */
constexpr int bramRows = 1024;

/** Data bitcells per row (parity excluded). */
constexpr int bramCols = 16;

/** Parity bits per row (present on silicon, excluded from experiments). */
constexpr int bramParityCols = 2;

/** Data bits per basic BRAM block. */
constexpr int bramBits = bramRows * bramCols;

/** Bits per packed storage word. */
constexpr int bramWordBits = 64;

/** Rows packed into one 64-bit word. */
constexpr int bramRowsPerWord = bramWordBits / bramCols;

/** Packed 64-bit data words per BRAM block. */
constexpr int bramWords = bramBits / bramWordBits;

/** Packed 64-bit parity words per BRAM block. */
constexpr int bramParityWords = bramRows * bramParityCols / bramWordBits;

/** Address of one bitcell inside a device's BRAM pool. */
struct BitAddress
{
    std::uint32_t bram; ///< index into the device's BRAM pool
    std::uint16_t row;  ///< 0 .. bramRows-1
    std::uint8_t col;   ///< 0 .. bramCols-1

    bool operator==(const BitAddress &other) const = default;

    /** Flat bit offset of this cell within its BRAM. */
    std::uint32_t
    bitOffset() const
    {
        return static_cast<std::uint32_t>(row) *
            static_cast<std::uint32_t>(bramCols) +
            static_cast<std::uint32_t>(col);
    }

    /** Packed word holding this cell (bitOffset / 64). */
    std::uint32_t
    wordIndex() const
    {
        return bitOffset() / static_cast<std::uint32_t>(bramWordBits);
    }

    /** Bit position of this cell inside its packed word. */
    std::uint32_t
    wordBit() const
    {
        return bitOffset() % static_cast<std::uint32_t>(bramWordBits);
    }

    /** Single-bit mask of this cell inside its packed word. */
    std::uint64_t
    wordMask() const
    {
        return std::uint64_t{1} << wordBit();
    }

    /** Inverse of bitOffset(): rebuild the (row, col) coordinates. */
    static BitAddress
    fromBitOffset(std::uint32_t bram, std::uint32_t bit_offset)
    {
        BitAddress addr;
        addr.bram = bram;
        addr.row = static_cast<std::uint16_t>(
            bit_offset / static_cast<std::uint32_t>(bramCols));
        addr.col = static_cast<std::uint8_t>(
            bit_offset % static_cast<std::uint32_t>(bramCols));
        return addr;
    }

    /** Rebuild from packed (word, bit-in-word) coordinates. */
    static BitAddress
    fromWordCoords(std::uint32_t bram, std::uint32_t word,
                   std::uint32_t bit)
    {
        return fromBitOffset(
            bram, word * static_cast<std::uint32_t>(bramWordBits) + bit);
    }
};

/**
 * One 16 kbit BRAM block: 1024 rows of 16-bit data words, stored as 256
 * packed 64-bit words (plus an optional 2-bit-per-row parity plane).
 *
 * Contents model the value *written* by the design; what a read returns
 * under reduced voltage is decided by the fault model layered on top
 * (vmodel::FaultModel), mirroring the real hardware where the stored
 * charge is intact but the read path fails timing.
 *
 * Every mutation bumps a content epoch (shared with the owning Device
 * when there is one) so fault-count caches can tell "same content, same
 * voltage" apart from a fresh measurement without diffing storage.
 */
class Bram
{
  public:
    Bram();

    Bram(const Bram &other);
    Bram &operator=(const Bram &other);

    /** Write one 16-bit row. */
    void writeRow(int row, std::uint16_t value);

    /** Read back one 16-bit row (fault-free; see class comment). */
    std::uint16_t readRow(int row) const;

    /** Fill every row with the same pattern (e.g. 0xFFFF). */
    void fill(std::uint16_t pattern);

    /** Bounds-checked single-bit read (the BitAddress-based shim). */
    bool testBit(int row, int col) const;

    /** Number of "1" data bitcells currently stored. */
    int countOnes() const;

    /** Packed data words, 256 x 64 bits, bit offset = row*16+col. */
    std::span<const std::uint64_t> words() const { return words_; }

    /** Replace the whole packed data plane (fast image programming). */
    void assignWords(std::span<const std::uint64_t> words);

    /**
     * Parity plane access (2 bits per row). Parity is stored apart from
     * the data words, so no parity bit can ever reach the packed fault
     * domain or its popcount totals. Lazily allocated: untouched BRAMs
     * carry no parity storage.
     */
    bool parityBit(int row, int parity_col) const;
    void setParityBit(int row, int parity_col, bool value);

    /** Number of "1" parity bits currently stored. */
    int parityOnes() const;

    /** Content epoch: bumped by every mutating call. */
    std::uint64_t epoch() const { return *epoch_; }

    /**
     * Share an epoch counter with an owner (Device): mutations of any
     * bound Bram bump the owner's counter so one compare validates a
     * whole-device cache. Internal wiring; the owner keeps the counter
     * alive for the Bram's lifetime.
     */
    void bindEpoch(std::uint64_t *counter) { epoch_ = counter; }

  private:
    void bump() { ++*epoch_; }

    std::vector<std::uint64_t> words_;
    std::vector<std::uint64_t> parity_; ///< empty until first use
    std::uint64_t ownEpoch_ = 0;
    std::uint64_t *epoch_ = &ownEpoch_;
};

} // namespace uvolt::fpga

#endif // UVOLT_FPGA_BRAM_HH
