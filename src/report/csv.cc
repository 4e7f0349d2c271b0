/**
 * @file
 * CSV writer implementation.
 */

#include "report/csv.hh"

namespace ahq::report
{

namespace
{

/** Escape a cell per RFC 4180. */
std::string
escape(const std::string &cell)
{
    const bool needs_quotes =
        cell.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quotes)
        return cell;
    std::string quoted = "\"";
    for (char c : cell) {
        if (c == '"')
            quoted += "\"\"";
        else
            quoted += c;
    }
    quoted += "\"";
    return quoted;
}

} // namespace

CsvWriter::CsvWriter(const std::string &path,
                     const std::vector<std::string> &header)
    : out(path, std::ios::trunc)
{
    addRow(header);
}

void
CsvWriter::addRow(const std::vector<std::string> &row)
{
    // A file that failed to open, or a failed write, turns every
    // later row into a no-op.
    if (!out)
        return;
    for (std::size_t i = 0; i < row.size(); ++i) {
        if (i)
            out << ",";
        out << escape(row[i]);
    }
    out << "\n";
}

} // namespace ahq::report
