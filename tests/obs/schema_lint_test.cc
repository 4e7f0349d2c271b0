/**
 * @file
 * Schema lint: docs/TRACE_SCHEMA.md is the contract for every JSONL
 * trace the project writes. This test parses the document's event
 * tables, then drives every emitter — the epoch simulator (with
 * attribution, SLO alerts, chaos faults, audits, spans and series),
 * the scenario runner, the fleet (with a node crash), the cluster
 * control plane and the experiment harness — and walks every
 * emitted event: its type must be documented and in the reader's
 * taxonomy, and every field must appear in the event's table (or
 * the shared header). A field added to an emitter without a schema
 * row fails here, not in a consumer three tools later.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/catalog.hh"
#include "check/auditor.hh"
#include "cluster/cluster_sched.hh"
#include "cluster/epoch_sim.hh"
#include "cluster/fleet.hh"
#include "core/entropy.hh"
#include "exec/scenario_runner.hh"
#include "exec/thread_pool.hh"
#include "experiment/harness.hh"
#include "fault/plan.hh"
#include "obs/scope.hh"
#include "obs/span.hh"
#include "obs/timeseries.hh"
#include "obs/trace_reader.hh"
#include "sched/registry.hh"

namespace
{

using namespace ahq;

/** Event name -> documented field tokens (may contain <x> holes). */
using DocSchema = std::map<std::string, std::vector<std::string>>;

/** Backtick-delimited tokens of one markdown fragment. */
std::vector<std::string>
backtickTokens(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t i = 0;
    while ((i = text.find('`', i)) != std::string::npos) {
        const auto end = text.find('`', i + 1);
        if (end == std::string::npos)
            break;
        out.push_back(text.substr(i + 1, end - i - 1));
        i = end + 1;
    }
    return out;
}

/** Whether a token looks like an event name (`alert_raise`). */
bool
looksLikeEventName(const std::string &token)
{
    if (token.empty())
        return false;
    for (const char c : token) {
        if ((c < 'a' || c > 'z') && (c < '0' || c > '9') &&
            c != '_')
            return false;
    }
    return true;
}

/**
 * Parse the schema document: `###` headings name the event(s) (the
 * backticked tokens before the em-dash), and the next
 * `| field | ... |` table lists their fields. The header-fields
 * table and the bench-entries section are recognised by their `##`
 * headings.
 */
DocSchema
parseSchemaDoc(const std::string &path,
               std::set<std::string> *header_fields)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    DocSchema schema;
    std::vector<std::string> current; // events the next table feeds
    bool in_field_table = false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("#", 0) == 0) {
            in_field_table = false;
            current.clear();
            if (line.find("Header fields") != std::string::npos) {
                current.push_back("<header>");
            } else if (line.find("Bench entries") !=
                       std::string::npos) {
                current.push_back("bench");
            } else if (line.rfind("### ", 0) == 0) {
                // Only the part before the em-dash names events.
                std::string head = line;
                const auto dash = head.find("\xe2\x80\x94");
                if (dash != std::string::npos)
                    head = head.substr(0, dash);
                for (const auto &tok : backtickTokens(head)) {
                    if (looksLikeEventName(tok))
                        current.push_back(tok);
                }
            }
            continue;
        }
        if (line.rfind("| field |", 0) == 0) {
            in_field_table = !current.empty();
            continue;
        }
        if (!in_field_table)
            continue;
        if (line.rfind("|---", 0) == 0)
            continue;
        if (line.rfind("|", 0) != 0) {
            in_field_table = false;
            continue;
        }
        // First cell of a field row: `| `f1`, `f2` | type | ... |`.
        const auto cell_end = line.find('|', 1);
        if (cell_end == std::string::npos)
            continue;
        const std::string cell = line.substr(1, cell_end - 1);
        for (const auto &tok : backtickTokens(cell)) {
            for (const auto &ev : current) {
                if (ev == "<header>") {
                    if (header_fields != nullptr)
                        header_fields->insert(tok);
                } else {
                    schema[ev].push_back(tok);
                }
            }
        }
        // Make sure every documented event has an entry even if a
        // row only names fields for its sibling.
        for (const auto &ev : current) {
            if (ev != "<header>")
                schema[ev];
        }
    }
    return schema;
}

/**
 * Whether a documented token matches an emitted field name.
 * Tokens may contain `<hole>` placeholders (e.g. `<m>_<e>_est`)
 * standing for one-or-more characters.
 */
bool
tokenMatches(const std::string &doc, const std::string &field)
{
    if (doc.find('<') == std::string::npos)
        return doc == field;
    std::size_t di = 0, fi = 0;
    bool wild = false;
    while (di < doc.size()) {
        if (doc[di] == '<') {
            const auto close = doc.find('>', di);
            if (close == std::string::npos)
                return false;
            di = close + 1;
            wild = true;
            continue;
        }
        auto lit_end = doc.find('<', di);
        if (lit_end == std::string::npos)
            lit_end = doc.size();
        const std::string lit = doc.substr(di, lit_end - di);
        if (wild) {
            const auto pos = field.find(lit, fi + 1);
            if (pos == std::string::npos)
                return false;
            fi = pos + lit.size();
        } else {
            if (field.compare(fi, lit.size(), lit) != 0)
                return false;
            fi += lit.size();
        }
        wild = false;
        di = lit_end;
    }
    return wild ? fi < field.size() : fi == field.size();
}

/**
 * The complete schema-v1 taxonomy. Kept in lockstep with
 * docs/TRACE_SCHEMA.md and obs::isKnownTraceType — a type added to
 * either without the other (or without this list) fails below.
 */
const std::set<std::string> &
expectedTaxonomy()
{
    static const std::set<std::string> kTypes = {
        "alert_clear",      "alert_raise",
        "arq_decision",     "attribution",
        "bench",            "clite_decision",
        "cluster_end",      "cluster_migrate",
        "cluster_round",    "cluster_start",
        "epoch",            "experiment_block",
        "experiment_end",   "experiment_start",
        "fault",            "fleet_end",
        "fleet_node",       "fleet_start",
        "parties_decision", "policy_swap",
        "recovery",         "run_end",
        "run_start",        "scenario_end",
        "scenario_start",   "series",
        "span",             "violation",
    };
    return kTypes;
}

// ---- event generation ------------------------------------------------

cluster::SimulationConfig
lintConfig(std::uint64_t seed)
{
    // Long enough for an alert raised in the spike to clear: that
    // takes 96 violation-free epochs (48 s).
    cluster::SimulationConfig c;
    c.durationSeconds = 80.0;
    c.warmupEpochs = 4;
    c.seed = seed;
    c.attribute = true;
    c.slo = true;
    return c;
}

/** A fault plan with every single-node seam (no crash). */
fault::FaultPlan
spikyPlan()
{
    // Spike then recover, so the SLO alert both raises and clears.
    std::istringstream directives(
        R"({"fault":"measurement","p_drop":0.25,"extra_sigma":0.1})"
        "\n"
        R"({"fault":"actuation","p_fail":0.4,"mode":"partial",)"
        R"("retries":2})"
        "\n"
        R"({"fault":"load_spike","app":0,"from_s":2,"until_s":9,)"
        R"("factor":3})"
        "\n");
    return fault::FaultPlan::fromStream(directives, "spiky");
}

/** One simulator run per decision family, all seams on. */
std::string
simulatorTraces()
{
    const fault::FaultPlan plan = spikyPlan();
    std::string bytes;
    std::uint64_t seed = 31;
    for (const auto &strategy : {"ARQ", "PARTIES", "CLITE"}) {
        cluster::Node node(
            machine::MachineConfig::xeonE52630v4(),
            {cluster::lcAt(apps::xapian(), 0.55),
             cluster::lcAt(apps::moses(), 0.3),
             cluster::be(apps::stream())});
        obs::BufferTraceSink sink;
        obs::SpanProfiler prof;
        obs::TimeSeriesRegistry series;
        cluster::SimulationConfig cfg = lintConfig(seed++);
        cfg.obs.sink = &sink;
        cfg.obs.prof = &prof;
        cfg.obs.series = &series;
        cfg.obs.scenario = strategy;
        cfg.faults = &plan;
        const auto sched = sched::makeScheduler(strategy);
        cluster::EpochSimulator sim(node, cfg);
        sim.run(*sched);
        prof.flush(cfg.obs);
        series.flush(cfg.obs);
        bytes += sink.str();
    }
    return bytes;
}

/** A two-job batch for the scenario_start/scenario_end family. */
std::string
scenarioTraces()
{
    std::vector<exec::ScenarioJob> jobs;
    for (const auto &strategy : {"ARQ", "Unmanaged"}) {
        cluster::Node node(
            machine::MachineConfig::xeonE52630v4(),
            {cluster::lcAt(apps::xapian(), 0.5),
             cluster::be(apps::stream())});
        cluster::SimulationConfig cfg = lintConfig(7);
        jobs.push_back({strategy, node, cfg,
                        std::string("lint-") + strategy});
    }
    exec::ThreadPool pool(2);
    obs::BufferTraceSink sink;
    obs::Scope scope;
    scope.sink = &sink;
    exec::ScenarioRunner runner(&pool);
    runner.setObsScope(scope);
    runner.run(jobs);
    return sink.str();
}

/** A fleet with a mid-run node crash (fault + failover recovery). */
std::string
fleetTraces()
{
    std::istringstream directives(
        R"({"fault":"node_crash","node":1,"at_s":8})");
    const auto plan = fault::FaultPlan::fromStream(directives, "crash");
    cluster::Fleet fleet;
    fleet.addNode(
        cluster::Node(machine::MachineConfig::xeonE52630v4(),
                      {cluster::lcAt(apps::xapian(), 0.6),
                       cluster::be(apps::stream())}),
        sched::makeScheduler("ARQ"));
    fleet.addNode(
        cluster::Node(machine::MachineConfig::xeonE52630v4(),
                      {cluster::lcAt(apps::moses(), 0.3),
                       cluster::be(apps::fluidanimate())}),
        sched::makeScheduler("Unmanaged"));
    obs::BufferTraceSink sink;
    cluster::SimulationConfig cfg = lintConfig(11);
    cfg.obs.sink = &sink;
    cfg.faults = &plan;
    exec::ThreadPool pool(2);
    fleet.run(cfg, &pool);
    return sink.str();
}

/** An imbalanced cluster that migrates (cluster_* with blame). */
std::string
clusterTraces()
{
    cluster::ClusterConfig cc;
    cc.rounds = 3;
    cc.spreadThreshold = 0.01;
    cluster::ClusterScheduler cs(cc, "ARQ");
    const auto mc = machine::MachineConfig::xeonE52630v4()
                        .withAvailable(6, 10, 6);
    cs.addNode(mc, {cluster::lcAt(apps::xapian(), 0.85),
                    cluster::lcAt(apps::moses(), 0.6),
                    cluster::be(apps::stream()),
                    cluster::be(apps::fluidanimate())});
    cs.addNode(mc, {cluster::lcAt(apps::sphinx(), 0.15)});
    cs.addNode(mc, {cluster::lcAt(apps::imgDnn(), 0.15)});
    obs::BufferTraceSink sink;
    cluster::SimulationConfig base;
    base.durationSeconds = 1.0; // overridden per round
    base.attribute = true;
    base.obs.sink = &sink;
    cs.run(base);
    return sink.str();
}

/** A tiny switchback experiment (experiment_* + policy_swap). */
std::string
experimentTraces()
{
    experiment::ExperimentRunConfig cfg;
    cfg.design.kind = experiment::DesignKind::Switchback;
    cfg.design.armA = "ARQ";
    cfg.design.armB = "Unmanaged";
    cfg.design.blockEpochs = 6;
    cfg.design.blocksPerNode = 2;
    cfg.design.numNodes = 2;
    obs::BufferTraceSink sink;
    cfg.base.obs.sink = &sink;
    cfg.load.numNodes = 2;
    exec::ThreadPool pool(2);
    experiment::runExperiment(cfg, &pool);
    return sink.str();
}

/** One invariant-audit failure through the real reporting path. */
std::string
violationTraces()
{
    obs::BufferTraceSink sink;
    obs::Scope scope;
    scope.sink = &sink;
    scope.scenario = "audit";
    check::InvariantAuditor auditor(check::Mode::Log, scope);
    core::EntropyReport bad;
    bad.eLc = 1.5; // out of [0, 1]
    bad.eS = 1.5;
    auditor.checkEntropy(bad, 1.0, true, false, 3, 1.5);
    EXPECT_GT(auditor.violationCount(), 0u);
    return sink.str();
}

// ---- the lint itself -------------------------------------------------

TEST(SchemaLint, DocumentMatchesReaderTaxonomy)
{
    std::set<std::string> header;
    const DocSchema schema =
        parseSchemaDoc(AHQ_TRACE_SCHEMA_MD, &header);

    // The shared header is fully documented.
    for (const char *f : {"v", "type", "scenario", "epoch"})
        EXPECT_TRUE(header.count(f)) << "header field " << f;

    // Doc <-> reader <-> this test agree on the taxonomy, both
    // directions: nothing documented that the reader flags unknown,
    // nothing known that the document omits.
    for (const auto &[event, fields] : schema) {
        EXPECT_TRUE(obs::isKnownTraceType(event))
            << "documented but unknown to the reader: " << event;
        EXPECT_TRUE(expectedTaxonomy().count(event))
            << "documented but missing from the lint list: "
            << event;
    }
    for (const auto &event : expectedTaxonomy()) {
        EXPECT_TRUE(schema.count(event))
            << "in the taxonomy but undocumented: " << event;
        EXPECT_TRUE(obs::isKnownTraceType(event)) << event;
    }
    EXPECT_FALSE(obs::isKnownTraceType("not_an_event"));
}

TEST(SchemaLint, EveryEmittedEventAndFieldIsDocumented)
{
    std::set<std::string> header;
    const DocSchema schema =
        parseSchemaDoc(AHQ_TRACE_SCHEMA_MD, &header);
    ASSERT_FALSE(schema.empty());

    const std::string bytes = simulatorTraces() +
        scenarioTraces() + fleetTraces() + clusterTraces() +
        experimentTraces() + violationTraces();

    std::istringstream in(bytes);
    obs::TraceReadStats stats;
    std::set<std::string> seen;
    obs::forEachTrace(
        in,
        [&](const obs::TraceEvent &ev, int line) {
            const std::string type = ev.type();
            seen.insert(type);
            ASSERT_TRUE(schema.count(type))
                << "line " << line
                << ": undocumented event type " << type;
            const auto &doc_fields = schema.at(type);
            for (const auto &[field, value] : ev.fields) {
                if (header.count(field))
                    continue;
                bool documented = false;
                for (const auto &tok : doc_fields)
                    documented =
                        documented || tokenMatches(tok, field);
                EXPECT_TRUE(documented)
                    << "line " << line << ": " << type << "."
                    << field << " is not in docs/TRACE_SCHEMA.md";
            }
        },
        &stats);
    EXPECT_EQ(stats.unknownEvents, 0u);

    // The generated corpus exercises the full taxonomy (bench
    // entries come from the bench binaries, not a library, so they
    // are linted statically above instead).
    std::set<std::string> expected = expectedTaxonomy();
    expected.erase("bench");
    for (const auto &event : expected) {
        EXPECT_TRUE(seen.count(event))
            << "no " << event
            << " event generated; the lint never saw one";
    }
}

TEST(SchemaLint, FieldTokenMatcher)
{
    EXPECT_TRUE(tokenMatches("e_s", "e_s"));
    EXPECT_FALSE(tokenMatches("e_s", "e_sx"));
    EXPECT_TRUE(tokenMatches("<m>_<e>_est", "es_naive_est"));
    EXPECT_TRUE(tokenMatches("<m>_<e>_lo", "p95_mixed_lo"));
    EXPECT_FALSE(tokenMatches("<m>_<e>_est", "es_naive_lo"));
    EXPECT_FALSE(tokenMatches("<m>_<e>_est", "_est"));
}

} // namespace
