/**
 * @file
 * `ahq profile` — aggregate the `span` events of a profiled trace
 * (--profile --trace) into a flame-style indented tree per
 * scenario, plus the shared tree renderer that simulate / sweep /
 * chaos --profile use for their console summary.
 */

#include "cli.hh"

#include <algorithm>
#include <map>

#include "obs/span.hh"
#include "report/table.hh"
#include "trace_fold.hh"

namespace ahq::cli
{

namespace
{

/** Depth of a path = number of '/' separators. */
int
pathDepth(const std::string &path)
{
    return static_cast<int>(
        std::count(path.begin(), path.end(), '/'));
}

/**
 * Render one path-keyed row set as an indented tree. std::map's
 * lexicographic order is a depth-first pre-order for '/'-joined
 * paths (every letter sorts above '/'), so children always follow
 * their parent directly.
 */
void
printTree(std::ostream &out,
          const std::map<std::string, SpanRow> &rows,
          bool wall_times)
{
    std::vector<std::string> headers{"span", "count"};
    if (wall_times) {
        headers.insert(headers.end(),
                       {"total (ms)", "mean (ms)", "p99 (ms)",
                        "max (ms)", "% parent"});
    }
    report::TextTable t(std::move(headers));
    for (const auto &[path, row] : rows) {
        const auto slash = path.rfind('/');
        const std::string name = slash == std::string::npos
                                     ? path
                                     : path.substr(slash + 1);
        std::string label(
            static_cast<std::size_t>(2 * pathDepth(path)), ' ');
        label += name;
        std::vector<std::string> cells{
            label, std::to_string(row.count)};
        if (wall_times) {
            cells.push_back(report::TextTable::num(row.totalMs));
            cells.push_back(report::TextTable::num(
                row.count > 0 ? row.totalMs / row.count : 0.0));
            cells.push_back(report::TextTable::num(row.p99Ms));
            cells.push_back(report::TextTable::num(row.maxMs));
            std::string share = "-";
            if (slash != std::string::npos) {
                const auto parent =
                    rows.find(path.substr(0, slash));
                if (parent != rows.end() &&
                    parent->second.totalMs > 0.0) {
                    share = report::TextTable::num(
                        100.0 * row.totalMs /
                            parent->second.totalMs,
                        1);
                }
            }
            cells.push_back(share);
        }
        t.addRow(std::move(cells));
    }
    t.print(out);
}

} // namespace

void
printSpanProfile(std::ostream &out, const obs::SpanProfiler &prof,
                 bool wall_times)
{
    std::map<std::string, SpanRow> rows;
    for (const auto &[path, st] : prof.snapshot()) {
        SpanRow row;
        row.count = st.count;
        row.totalMs = static_cast<double>(st.totalNs) / 1e6;
        row.maxMs = static_cast<double>(st.maxNs) / 1e6;
        row.p99Ms =
            static_cast<double>(st.quantileNs(0.99)) / 1e6;
        rows.emplace(path, row);
    }
    printTree(out, rows, wall_times);
}

int
runProfile(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err)
{
    std::string path;
    try {
        path = onePath(Flags("profile").parse(args));
    } catch (const std::exception &e) {
        err << "error: " << e.what() << "\n"
            << "usage: ahq profile <file.jsonl>\n";
        return 2;
    }

    // Everything is folded before a single byte is printed, so a
    // malformed line can never leave a partial table behind.
    SpanFold spans;
    if (const int rc = foldTrace(path, {.spans = &spans}, err))
        return rc;
    if (spans.events == 0) {
        err << "error: " << path
            << ": no span events (produce one with "
               "--profile --trace)\n";
        return 1;
    }

    out << path << ": " << spans.events << " span event(s), "
        << spans.trees.size() << " scenario(s)\n";
    for (const auto &[tag, tree] : spans.trees) {
        out << "scenario " << scenarioLabel(tag) << ":\n";
        printTree(out, tree.rows, tree.timed);
    }
    return 0;
}

} // namespace ahq::cli
