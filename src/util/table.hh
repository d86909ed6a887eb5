/**
 * @file
 * Plain-text table and CSV emission.
 *
 * Every bench binary regenerates one of the paper's tables or figures;
 * TextTable renders the human-readable view and writeCsv() the
 * machine-readable series (one file per figure, for external plotting).
 */

#ifndef UVOLT_UTIL_TABLE_HH
#define UVOLT_UTIL_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace uvolt
{

/** A column-aligned ASCII table with a header row. */
class TextTable
{
  public:
    /** Set the header; defines the column count. */
    explicit TextTable(std::vector<std::string> header);

    /** Append a data row; must match the header width. */
    void addRow(std::vector<std::string> row);

    /** Number of data rows. */
    std::size_t rows() const { return rows_.size(); }

    /** Render with aligned columns, a rule under the header. */
    void print(std::ostream &os) const;

    /** Render as CSV (no alignment, comma-separated, quoted if needed). */
    void printCsv(std::ostream &os) const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with the given number of decimal places. */
std::string fmtDouble(double value, int decimals = 3);

/** Format a voltage as e.g. "0.61V". */
std::string fmtVolts(double volts);

/** Format a ratio as a percentage, e.g. "39.0%". */
std::string fmtPercent(double fraction, int decimals = 1);

/**
 * Write a table to a CSV file under the given path through
 * writeFileAtomic (parent directories created; a reader sees the old
 * file or the new one, never a prefix). Returns false (with a warning)
 * on I/O failure so benches can keep running in read-only environments.
 */
bool writeCsv(const TextTable &table, const std::string &path);

} // namespace uvolt

#endif // UVOLT_UTIL_TABLE_HH
