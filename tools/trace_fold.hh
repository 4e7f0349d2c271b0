/**
 * @file
 * The one trace fold under every analysis verb. foldTrace() streams
 * one input file through obs::forEachTraceFile, rejects any line
 * whose schema version this build does not read, applies the
 * --scenario / --app filters and hands each event to the typed folds
 * the verb asked for. Those folds are the only code in tools/ that
 * knows schema-v1 field names: `trace`, `profile`, `timeline`, `why`,
 * `alerts`, `report`, `experiment analyze|verdict` and `bench-diff`
 * are each option parsing plus rendering over them.
 *
 * A verb folds only what it renders, so its memory is what it keeps:
 * `trace` keeps every epoch's (t, E_S), `timeline` every matching
 * series' buckets, `alerts` every transition, `experiment` every
 * block, and the other verbs aggregate only.
 *
 * Exit contract every analysis verb follows: 0 on success, 1 when an
 * input cannot be read, is malformed (with the file and line number)
 * or holds nothing to show, 2 on a usage error naming the flag and
 * the verb. `bench-diff` keeps 2 for unreadable input and 1 for a
 * flagged regression, the split its CI gate relies on.
 */

#ifndef AHQ_TOOLS_TRACE_FOLD_HH
#define AHQ_TOOLS_TRACE_FOLD_HH

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cli.hh"
#include "experiment/estimator.hh"
#include "obs/attribution.hh"
#include "obs/trace_reader.hh"

namespace ahq::cli
{

/** Values keyed by scenario tag, in first-seen order. */
template <class T>
class ByScenario
{
  public:
    /** The value for `tag`, appended on first sight. */
    T &operator[](const std::string &tag)
    {
        const auto [it, fresh] = index_.try_emplace(tag, items_.size());
        if (fresh)
            items_.emplace_back(tag, T{});
        return items_[it->second].second;
    }

    auto begin() const { return items_.begin(); }
    auto end() const { return items_.end(); }
    std::size_t size() const { return items_.size(); }

  private:
    std::vector<std::pair<std::string, T>> items_;
    std::map<std::string, std::size_t> index_;
};

/** A scenario tag as text output shows it ("(untagged)" when empty). */
std::string scenarioLabel(const std::string &tag);

/** One `series` event's folded buckets. */
struct SeriesData
{
    long long stride = 1;
    long long epochs = 0;
    long long points = 0;
    std::vector<double> n, min, max, sum;

    /** Buckets carried (the arrays are clipped to one length). */
    std::size_t buckets() const { return n.size(); }
};

/**
 * Count-weighted summary of a series' non-empty buckets. p99 is the
 * 99th percentile of bucket maxima weighted by bucket count: an upper
 * estimate that survives downsampling, since folding keeps maxima.
 */
struct BucketSummary
{
    double min = 0.0, max = 0.0, mean = 0.0, p99 = 0.0;
    std::uint64_t count = 0;
};

BucketSummary summarize(const SeriesData &d);

/**
 * Per-scenario run fold (`trace`, `report`): lifecycle, epoch,
 * decision and telemetry counts of each scenario in one file.
 */
struct RunFold
{
    /** Which scenarios get a row, and what a row keeps. */
    enum class Rows
    {
        /**
         * Scenarios with run_start, epoch, decision, fault, recovery,
         * violation, span or series events; a row keeps every
         * epoch's (t, E_S), the schedulers' moves / reverts / bans
         * and the ARQ ReT (`trace`).
         */
        Simulated,
        /**
         * Every tag on any line but bench and experiment_end; a row
         * keeps counts and the `e_s` series summary (`report`).
         */
        Every,
    };

    /** Remaining tolerance of one app, from arq_decision events. */
    struct AppRet
    {
        int samples = 0;
        double sumRet = 0.0;
        double minRet = 2.0;
        double sumQ = 0.0;
    };

    struct Run
    {
        std::string scheduler;
        long long epochs = 0;
        double sumEs = 0.0;
        double finalEs = 0.0;
        /** Decision events of any scheduler. */
        long long decisions = 0;
        long long faults = 0, recoveries = 0, violations = 0;
        /** span events, and the span count they carry. */
        long long spanEvents = 0, spans = 0;
        long long seriesEvents = 0;

        /** Rows::Simulated only: every epoch's (t, E_S). */
        std::vector<double> ts, es;
        /** Rows::Simulated only: the three schedulers' decisions. */
        long long adjustments = 0, rollbacks = 0, bans = 0;
        /** Rows::Simulated only: ReT keyed by app index. */
        std::map<int, AppRet> retByApp;

        /** Rows::Every only: the last non-empty `e_s` series. */
        std::optional<BucketSummary> esSeries;

        double meanEs() const { return epochs > 0 ? sumEs / epochs : 0.0; }
    };

    explicit RunFold(Rows rows) : rows(rows) {}

    const Rows rows;
    ByScenario<Run> runs;

    void add(const obs::TraceEvent &ev, const std::string &type,
             const std::string &scenario);
};

/** One span path's aggregates (count, wall times in ms). */
struct SpanRow
{
    std::uint64_t count = 0;
    double totalMs = 0.0;
    double maxMs = 0.0;
    double p99Ms = 0.0;
};

/** Span fold (`profile`): each scenario's path-keyed span rows. */
struct SpanFold
{
    struct Tree
    {
        std::map<std::string, SpanRow> rows;
        /** Whether any span event carried wall times. */
        bool timed = false;
    };

    long long events = 0;
    ByScenario<Tree> trees;

    void add(const obs::TraceEvent &ev, const std::string &scenario);
};

/** Epoch markers of one scenario. */
struct Markers
{
    std::set<int> faults, recoveries, violations;

    /** alert_raise epochs (--slo runs), rendered on their own row. */
    std::set<int> alerts;

    bool empty() const
    {
        return faults.empty() && recoveries.empty() && violations.empty();
    }
};

/**
 * Series fold (`timeline`): the buckets of each (scenario, series),
 * the last event winning, plus fault / recovery / violation / alert
 * markers per scenario.
 */
struct SeriesFold
{
    /** Series names to keep; empty = all. */
    std::set<std::string> wanted;
    std::map<std::pair<std::string, std::string>, SeriesData> series;
    std::map<std::string, Markers> markers;

    void add(const obs::TraceEvent &ev, const std::string &type,
             const std::string &scenario);
};

/** Blame fold (`why`): attribution events folded into the ledger. */
struct BlameFold
{
    long long events = 0;
    obs::AttributionLedger ledger;

    void add(const obs::TraceEvent &ev);
};

/** Alert fold (`alerts`, `report`): SLO alert transitions. */
struct AlertFold
{
    /** One alert_raise / alert_clear, in trace order. */
    struct Transition
    {
        std::string scenario;
        std::string app;
        bool raise = false;
        int epoch = 0;
        double burnFast = 0.0;
        double burnSlow = 0.0;
        int duration = 0; // clear events only
    };

    struct Totals
    {
        long long raises = 0;
        long long clears = 0;
        double worstBurn = 0.0; // largest fast-window burn
    };

    /** @param transitions Keep them (`alerts`), not only the totals. */
    explicit AlertFold(bool transitions) : transitions(transitions) {}

    const bool transitions;
    std::vector<Transition> rows;
    std::map<std::pair<std::string, std::string>, Totals> totals;

    /** The totals of every app of one scenario. */
    Totals scenarioTotals(const std::string &scenario) const;

    void add(const obs::TraceEvent &ev, bool raise,
             const std::string &scenario);
};

/** One experiment_end event (`report`). */
struct ExperimentEnd
{
    std::string file;
    std::string scenario;
    std::string verdict;
    long long blocksA = 0;
    long long blocksB = 0;
    long long policySwaps = 0;
    double esMixedEst = 0.0;
    double esMixedLo = 0.0;
    double esMixedHi = 0.0;
    double p95MixedEst = 0.0;
    double violMixedEst = 0.0;
};

/** One bench line (`report`, `bench-diff`). */
struct BenchRow
{
    std::string file;
    std::string benchmark;
    double wallMs = 0.0;
    double throughput = 0.0;
    std::string unit;
    std::string config;
    std::string gitRev;
    std::string fingerprint;
};

/** The folds one verb asks foldTrace() to feed; null = not folded. */
struct TraceFolds
{
    RunFold *runs = nullptr;
    SpanFold *spans = nullptr;
    SeriesFold *series = nullptr;
    BlameFold *blame = nullptr;
    AlertFold *alerts = nullptr;
    std::vector<experiment::BlockStat> *blocks = nullptr;
    std::vector<ExperimentEnd> *experiments = nullptr;
    std::vector<BenchRow> *bench = nullptr;

    /**
     * The reader's tally: events, blank lines and unknown types
     * (`trace`, `timeline`). Counting costs a type lookup per line,
     * so the verbs that do not print it leave it null.
     */
    obs::TraceReadStats *stats = nullptr;

    /** Every line must be a bench row (`bench-diff`). */
    bool benchOnly = false;
};

/** The --scenario / --app filters; empty = all. */
struct TraceFilter
{
    std::string scenario;
    std::string app;
};

/**
 * One pass over the trace at `path`: every line but a bench row must
 * carry this build's schema version (bench rows carry no header and
 * pass only when the verb folds them), lines outside `filter` are
 * skipped, and the rest go to the requested folds.
 *
 * @return The analysis exit code: 0 when the file folded, or 1 after
 *         writing "error: <path>: line N: ..." (or why the file could
 *         not be opened) to `err`; the folds are then incomplete and
 *         the verb prints nothing on stdout.
 */
int foldTrace(const std::string &path, const TraceFolds &folds,
              std::ostream &err, const TraceFilter &filter = {});

/**
 * Register the shared analysis flags --scenario, --app and --format
 * (one of `formats`; the first is the default).
 */
Flags &addAnalysisFlags(Flags &flags, TraceFilter &filter,
                        std::string &format,
                        const std::vector<std::string> &formats);

/**
 * One csv / json cell: text, an integer, a number, a number array
 * (json only) or blank. It refers to the text or array it shows,
 * which must outlive it: build cells in the csvRow() / jsonRow()
 * call that writes them.
 */
class Cell
{
  public:
    Cell() = default;
    Cell(std::string_view text) : kind_(Kind::Text), text_(text) {}
    Cell(const std::string &text) : Cell(std::string_view(text)) {}
    Cell(const char *text) : Cell(std::string_view(text)) {}
    Cell(long long v) : kind_(Kind::Int), int_(v) {}
    Cell(int v) : Cell(static_cast<long long>(v)) {}
    Cell(double v) : kind_(Kind::Num), num_(v) {}
    Cell(const std::vector<double> &v) : kind_(Kind::Nums), nums_(&v) {}

    bool blank() const { return kind_ == Kind::Blank; }

    /** Text as is, numbers shortest round-trip, blank as nothing. */
    void appendCsv(std::string &out) const;

    /** Text quoted, arrays bracketed; a blank cell has no json form. */
    void appendJson(std::string &out) const;

  private:
    enum class Kind
    {
        Blank,
        Text,
        Int,
        Num,
        Nums,
    };
    Kind kind_ = Kind::Blank;
    std::string_view text_;
    long long int_ = 0;
    double num_ = 0.0;
    const std::vector<double> *nums_ = nullptr;
};

/** The column names of one csv / json row shape. */
using Columns = std::vector<std::string_view>;

/** The csv header line. */
void csvHeader(std::ostream &out, const Columns &columns);

/** One csv line (text unquoted, blank cells empty). */
void csvRow(std::ostream &out, const std::vector<Cell> &cells);

/**
 * One json object keyed by `columns`, blank cells omitted, appended
 * to an array in `buf` (a comma first unless `buf` ends with '[').
 */
void jsonRow(std::string &buf, const Columns &columns,
             const std::vector<Cell> &cells);

} // namespace ahq::cli

#endif // AHQ_TOOLS_TRACE_FOLD_HH
