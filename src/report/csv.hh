/**
 * @file
 * CSV output so every bench can also dump machine-readable series
 * (one CSV per table/figure) for external plotting.
 */

#ifndef AHQ_REPORT_CSV_HH
#define AHQ_REPORT_CSV_HH

#include <fstream>
#include <string>
#include <vector>

namespace ahq::report
{

/**
 * Minimal CSV writer with RFC-4180 quoting.
 */
class CsvWriter
{
  public:
    /**
     * Open (truncate) the file and write the header row.
     * Failure to open is non-fatal: writes become no-ops, so benches
     * still run in read-only environments.
     */
    CsvWriter(const std::string &path,
              const std::vector<std::string> &header);

    /** Write one row of string cells, each quoted per RFC 4180. */
    void addRow(const std::vector<std::string> &row);

  private:
    std::ofstream out;
};

} // namespace ahq::report

#endif // AHQ_REPORT_CSV_HH
