#include "fpga/bram.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace uvolt::fpga
{

namespace
{

void
checkRow(int row)
{
    if (row < 0 || row >= bramRows)
        fatal("BRAM row {} out of [0, {})", row, bramRows);
}

void
checkCol(int col)
{
    if (col < 0 || col >= bramCols)
        fatal("BRAM col {} out of [0, {})", col, bramCols);
}

/** Lane shift of a row inside its packed word. */
int
laneShift(int row)
{
    return (row % bramRowsPerWord) * bramCols;
}

} // namespace

Bram::Bram() : words_(bramWords, 0) {}

Bram::Bram(const Bram &other)
    : words_(other.words_), parity_(other.parity_),
      ownEpoch_(*other.epoch_)
{
    // A copy owns its content history; never alias the source's counter.
}

Bram &
Bram::operator=(const Bram &other)
{
    words_ = other.words_;
    parity_ = other.parity_;
    bump();
    return *this;
}

void
Bram::writeRow(int row, std::uint16_t value)
{
    checkRow(row);
    auto &word = words_[static_cast<std::size_t>(row / bramRowsPerWord)];
    const int shift = laneShift(row);
    word = (word & ~(std::uint64_t{0xFFFF} << shift)) |
        (static_cast<std::uint64_t>(value) << shift);
    bump();
}

std::uint16_t
Bram::readRow(int row) const
{
    checkRow(row);
    return static_cast<std::uint16_t>(
        words_[static_cast<std::size_t>(row / bramRowsPerWord)] >>
        laneShift(row));
}

void
Bram::fill(std::uint16_t pattern)
{
    std::uint64_t word = pattern;
    word |= word << 16;
    word |= word << 32;
    std::fill(words_.begin(), words_.end(), word);
    bump();
}

bool
Bram::testBit(int row, int col) const
{
    checkRow(row);
    checkCol(col);
    const BitAddress addr = BitAddress::fromBitOffset(
        0, static_cast<std::uint32_t>(row * bramCols + col));
    return (words_[addr.wordIndex()] >> addr.wordBit()) & 1u;
}

int
Bram::countOnes() const
{
    int total = 0;
    for (std::uint64_t word : words_)
        total += std::popcount(word);
    return total;
}

void
Bram::assignWords(std::span<const std::uint64_t> words)
{
    if (words.size() != words_.size())
        fatal("assignWords: {} packed words for a BRAM of {}",
              words.size(), words_.size());
    std::copy(words.begin(), words.end(), words_.begin());
    bump();
}

namespace
{

void
checkParityCol(int parity_col)
{
    if (parity_col < 0 || parity_col >= bramParityCols)
        fatal("BRAM parity col {} out of [0, {})", parity_col,
              bramParityCols);
}

} // namespace

bool
Bram::parityBit(int row, int parity_col) const
{
    checkRow(row);
    checkParityCol(parity_col);
    if (parity_.empty())
        return false;
    const auto offset = static_cast<std::uint32_t>(
        row * bramParityCols + parity_col);
    return (parity_[offset / bramWordBits] >> (offset % bramWordBits)) &
        1u;
}

void
Bram::setParityBit(int row, int parity_col, bool value)
{
    checkRow(row);
    checkParityCol(parity_col);
    if (parity_.empty())
        parity_.assign(bramParityWords, 0);
    const auto offset = static_cast<std::uint32_t>(
        row * bramParityCols + parity_col);
    auto &word = parity_[offset / bramWordBits];
    const std::uint64_t mask = std::uint64_t{1} << (offset % bramWordBits);
    word = value ? (word | mask) : (word & ~mask);
    bump();
}

int
Bram::parityOnes() const
{
    int total = 0;
    for (std::uint64_t word : parity_)
        total += std::popcount(word);
    return total;
}

} // namespace uvolt::fpga
