#include "util/table.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/fsio.hh"
#include "util/logging.hh"

namespace uvolt
{

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{
    if (header_.empty())
        fatal("TextTable requires at least one column");
}

void
TextTable::addRow(std::vector<std::string> row)
{
    if (row.size() != header_.size()) {
        fatal("TextTable row width {} != header width {}",
              row.size(), header_.size());
    }
    rows_.push_back(std::move(row));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 < row.size())
                os << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        os << '\n';
    };

    emit_row(header_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emit_row(row);
}

void
TextTable::printCsv(std::ostream &os) const
{
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            bool needs_quote =
                row[c].find_first_of(",\"\n") != std::string::npos;
            if (needs_quote) {
                os << '"';
                for (char ch : row[c]) {
                    if (ch == '"')
                        os << '"';
                    os << ch;
                }
                os << '"';
            } else {
                os << row[c];
            }
            if (c + 1 < row.size())
                os << ',';
        }
        os << '\n';
    };
    emit(header_);
    for (const auto &row : rows_)
        emit(row);
}

std::string
fmtDouble(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
fmtVolts(double volts)
{
    return fmtDouble(volts, 2) + "V";
}

std::string
fmtPercent(double fraction, int decimals)
{
    return fmtDouble(fraction * 100.0, decimals) + "%";
}

bool
writeCsv(const TextTable &table, const std::string &path)
{
    std::ostringstream csv;
    table.printCsv(csv);
    if (!writeFileAtomic(path, csv.str())) {
        warn("could not write '{}'", path);
        return false;
    }
    return true;
}

} // namespace uvolt
