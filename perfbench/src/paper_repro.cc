/**
 * @file
 * paper_repro: the paper's Fig. 9 setup in batch, no serving layer.
 * ClueWeb-like corpus (2M docs), the 300-query TREC-like Q1-Q6 mix,
 * traces built once per round for BOSS, IIU and Lucene and replayed
 * per query type at 8 cores. Trace build and event-driven replay do
 * nearly all the work, so simulator hot-path and modeled-design
 * changes show here while the serving layers do none.
 */

#include "workloads.h"

#include <array>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "common/thread_pool.h"
#include "engine/arena.h"
#include "model/runner.h"
#include "reference.h"
#include "workload/corpus.h"
#include "workload/queries.h"

namespace boss::perfbench
{

namespace
{

using workload::QueryType;

constexpr std::uint32_t kCores = 8;


constexpr std::array<model::SystemKind, 3> kSystems = {
    model::SystemKind::Boss, model::SystemKind::Iiu,
    model::SystemKind::Lucene};

struct Dataset
{
    std::unique_ptr<workload::Corpus> corpus;
    std::vector<workload::Query> queries;
    std::optional<index::InvertedIndex> index;
    std::optional<index::MemoryLayout> layout;
    std::map<QueryType, std::vector<workload::Query>> byType;
};

/** One system's outcome of one round, per query type. */
struct SystemRound
{
    std::map<QueryType, std::vector<model::QueryTrace>> traces;
    std::map<QueryType, model::WorkloadMetrics> metrics;
    double buildStart = 0.0, buildEnd = 0.0, replayEnd = 0.0;
    // BOSS-only stats read through ReplayObservers::onModel (traced).
    std::uint64_t memRequests = 0;
    std::uint64_t busyCycles = 0;
    double coreCapacityCycles = 0.0;
    std::vector<double> reqLatencyP50, reqLatencyP99, backlogP99;
};

/** Value of @p field in the stats-JSON leaf called @p leaf. */
double
statsField(const std::string &json, const std::string &leaf,
           const std::string &field)
{
    auto at = json.find("\"" + leaf + "\": {");
    if (at == std::string::npos)
        return 0.0;
    at = json.find("\"" + field + "\": ", at);
    if (at == std::string::npos)
        return 0.0;
    return std::strtod(json.c_str() + at + field.size() + 4, nullptr);
}

Dataset
setUp(std::uint64_t seed, Tracer &tracer)
{
    Dataset data;
    double t0 = nowSec();
    workload::CorpusConfig cfg = workload::clueWebConfig();
    cfg.seed = splitSeed(seed, 1);
    data.corpus = std::make_unique<workload::Corpus>(cfg);
    workload::QueryWorkloadConfig qcfg;
    qcfg.vocabSize = cfg.vocabSize;
    // The paper evaluates one fixed query log; the seed regenerates
    // the corpus under it. The mix is the repository's 300-query
    // TREC-like workload (seed 7, as the fig* benches use).
    qcfg.queriesPerBucket = 100;
    qcfg.seed = 7;
    data.queries = workload::makeWorkload(qcfg);
    for (const auto &q : data.queries)
        data.byType[q.type].push_back(q);
    double t1 = nowSec();
    data.index.emplace(
        data.corpus->buildIndex(workload::collectTerms(data.queries)));
    double t2 = nowSec();
    data.layout.emplace(*data.index, 0x10000, 256);
    double t3 = nowSec();
    tracer.add("workload.dataset", t0, t1);
    tracer.add("index.build", t1, t2);
    tracer.add("index.load", t2, t3);
    return data;
}

SystemRound
runSystem(const Dataset &data, model::SystemKind kind, bool traced,
          Report &report)
{
    SystemRound r;
    double t0 = nowSec();
    for (const auto &[type, queries] : data.byType)
        r.traces[type] = model::buildTraces(*data.index, *data.layout,
                                            queries, kind);
    double t1 = nowSec();
    for (const auto &[type, traces] : r.traces) {
        model::SystemConfig cfg;
        cfg.kind = kind;
        cfg.cores = kCores;
        model::ReplayObservers obs;
        if (traced && kind == model::SystemKind::Boss) {
            obs.onModel = [&r, &cfg](model::SystemModel &m) {
                stats::Group &root = m.statsRoot();
                r.memRequests += root.counterValue("mem.reads") +
                                 root.counterValue("mem.writes");
                for (std::uint32_t c = 0; c < cfg.cores; ++c)
                    r.busyCycles += root.counterValue(
                        "core" + std::to_string(c) + ".busy_cycles");
                std::ostringstream os;
                root.dumpJson(os);
                const std::string json = os.str();
                r.reqLatencyP50.push_back(
                    statsField(json, "req_latency_ns", "p50"));
                r.reqLatencyP99.push_back(
                    statsField(json, "req_latency_ns", "p99"));
                r.backlogP99.push_back(
                    statsField(json, "chan_backlog_ns", "p99"));
            };
        }
        r.metrics[type] = model::replayTraces(traces, cfg, obs);
        report.check(r.metrics[type].run.queries == traces.size(),
                     std::string(model::systemName(kind)) +
                         ": queries replayed != queries submitted");
        if (traced && kind == model::SystemKind::Boss)
            r.coreCapacityCycles += r.metrics[type].run.seconds *
                                    kCores *
                                    model::costModelFor(kind)
                                        ->frequencyHz();
    }
    double t2 = nowSec();
    r.buildStart = t0;
    r.buildEnd = t1;
    r.replayEnd = t2;
    return r;
}

/**
 * Functional pass outside the timed region: each query's top-k
 * under every system against the index-free reference, plus the
 * method's two properties (identical top-k across systems; BOSS
 * evaluates no more documents than either exhaustive baseline).
 * Returns the number of queries that failed.
 */
std::size_t
checkResults(const Dataset &data, const SystemRound &boss,
             Report &report)
{
    const auto &queries = data.queries;
    std::vector<TermId> terms = workload::collectTerms(queries);
    std::map<TermId, std::size_t> slot;
    for (std::size_t i = 0; i < terms.size(); ++i)
        slot[terms[i]] = i;
    std::vector<index::PostingList> postings(terms.size());
    common::ThreadPool &pool = common::ThreadPool::global();
    pool.parallelFor(terms.size(), [&](std::size_t i) {
        postings[i] = data.corpus->postings(terms[i]);
    });
    Reference reference(data.corpus->docLengths());

    // Measured BOSS traces, by query in byType order.
    std::map<QueryType, std::size_t> cursor;
    std::vector<std::uint64_t> measuredEvaluated(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        QueryType t = queries[i].type;
        measuredEvaluated[i] =
            boss.traces.at(t).at(cursor[t]++).evaluatedDocs;
    }

    std::vector<std::string> problems(queries.size());
    std::vector<engine::QueryArena> arenas(pool.size());
    pool.parallelFor(queries.size(), [&](std::size_t i,
                                         std::size_t worker) {
        engine::QueryPlan plan = engine::planQuery(queries[i]);
        std::array<std::vector<engine::Result>, kSystems.size()> topk;
        std::array<std::uint64_t, kSystems.size()> evaluated{};
        for (std::size_t s = 0; s < kSystems.size(); ++s) {
            model::QueryTrace tr = model::buildTrace(
                *data.index, *data.layout, plan,
                model::traceOptionsFor(kSystems[s]), &topk[s],
                &arenas[worker]);
            arenas[worker].reset();
            evaluated[s] = tr.evaluatedDocs;
        }
        std::string why;
        Expected ref = reference.expected(
            plan, engine::kDefaultTopK, [&](TermId t) -> const
                                          index::PostingList & {
            return postings[slot.at(t)];
        });
        if (!acceptTopK(topk[0], ref, engine::kDefaultTopK, &why))
            problems[i] = "reference: " + why;
        else if (!sameTopK(topk[0], topk[1], &why) ||
                 !sameTopK(topk[0], topk[2], &why))
            problems[i] = "top-k differs across systems: " + why;
        else if (evaluated[0] > evaluated[1] ||
                 evaluated[0] > evaluated[2])
            problems[i] = "BOSS evaluated more docs than a baseline";
        else if (evaluated[0] != measuredEvaluated[i])
            problems[i] = "measured BOSS trace differs from the "
                          "functional pass";
    });
    std::size_t failed = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        report.check(problems[i].empty(),
                     "paper_repro query " + std::to_string(i) + ": " +
                         problems[i]);
        failed += problems[i].empty() ? 0 : 1;
    }
    return failed;
}

} // namespace

void
runPaperRepro(const Options &opt, Report &report)
{
    common::ThreadPool::setGlobalThreads(poolWorkers(0));
    Tracer tracer(opt.trace);

    Dataset data;
    const double setupSeconds =
        repeatSetUp(data, [&] { return setUp(opt.seed, tracer); });
    const std::size_t nQueries = data.queries.size();

    // ---- Measured phase: whole rounds of build + replay, each a
    // "model.round" span with a build and a replay child per system.
    const std::array<std::string, 3> names = {"boss", "iiu", "lucene"};
    std::array<SystemRound, kSystems.size()> last;
    std::optional<double> firstBossQps;
    std::size_t rounds = 0;
    double peakRss = 0.0;
    const double phaseEnd = nowSec() + opt.seconds;
    do {
        const double r0 = nowSec();
        for (std::size_t s = 0; s < kSystems.size(); ++s) {
            last[s] = {}; // peak memory must not depend on the rounds
            last[s] = runSystem(data, kSystems[s], opt.trace, report);
        }
        const std::uint64_t round =
            tracer.add("model.round", r0, nowSec());
        for (std::size_t s = 0; s < kSystems.size(); ++s) {
            tracer.add("model.trace_build." + names[s], last[s].buildStart,
                       last[s].buildEnd, round);
            tracer.add("model.replay." + names[s], last[s].buildEnd,
                       last[s].replayEnd, round);
        }
        // Read after the first round: later rounds free and rebuild
        // the same traces, and the allocator's reuse varies, so a
        // second round would make the peak depend on host speed.
        if (++rounds == 1)
            peakRss = peakRssMb();
        // The modeled clock is deterministic: every round must
        // reproduce the first one exactly.
        double qps = last[0].metrics.begin()->second.run.qps;
        if (!firstBossQps)
            firstBossQps = qps;
        report.check(qps == *firstBossQps,
                     "modeled BOSS qps changed between rounds");
    } while (nowSec() < phaseEnd);

    std::size_t badQueries = checkResults(data, last[0], report);
    report.operations(rounds * kSystems.size() * nQueries,
                      rounds * kSystems.size() * badQueries);
    report.note("paper_repro ledger: " + std::to_string(rounds) +
                " rounds x 3 systems x " + std::to_string(nQueries) +
                " queries replayed; " + std::to_string(badQueries) +
                " queries failed the checks");

    // ---- Modeled clock: BOSS-8 against Lucene-8 and IIU-8.
    std::vector<double> bossQps, vsLucene, vsIiu;
    std::uint64_t queries = 0, bytes = 0, linkBytes = 0, seqAcc = 0,
                  randAcc = 0, evaluated = 0, loaded = 0, skipped = 0;
    double seconds = 0.0;
    std::array<std::uint64_t, mem::kNumCategories> catBytes{};
    for (const auto &[type, m] : last[0].metrics) {
        bossQps.push_back(m.run.qps);
        vsLucene.push_back(m.run.qps / last[2].metrics.at(type).run.qps);
        vsIiu.push_back(m.run.qps / last[1].metrics.at(type).run.qps);
        queries += m.run.queries;
        seconds += m.run.seconds;
        bytes += m.run.deviceBytes;
        linkBytes += m.run.linkBytes;
        seqAcc += m.run.seqAccesses;
        randAcc += m.run.randAccesses;
        evaluated += m.evaluatedDocs;
        loaded += m.blocksLoaded;
        skipped += m.blocksSkipped;
        for (std::size_t c = 0; c < mem::kNumCategories; ++c)
            catBytes[c] += m.run.catBytes[c];
    }
    const double nq = static_cast<double>(queries);

    if (!opt.trace) {
        report.set("setup_s", setupSeconds);
        report.set("peak_rss_mb", peakRss);
        report.set("modeled_qps", geomean(bossQps));
        report.set("modeled_us_per_query", 1e6 * seconds / nq);
        report.set("scm_bytes_per_query", static_cast<double>(bytes) / nq);
        return;
    }

    // Per round: queries simulated over the host time of its builds
    // and replays (the round's child spans).
    std::map<std::uint64_t, double> roundHost;
    for (const Span &span : tracer.spans()) {
        if (span.parent != 0)
            roundHost[span.parent] += span.seconds();
    }
    std::vector<double> roundRates;
    for (const auto &[id, host] : roundHost)
        roundRates.push_back(
            static_cast<double>(nQueries * kSystems.size()) / host);
    report.set("model.sim_queries_per_s", median(roundRates));
    setupMetrics(tracer, report);
    for (const std::string &name : names) {
        report.set("model.trace_build_s." + name,
                   median(tracer.seconds("model.trace_build." + name)));
        report.set("model.replay_s." + name,
                   median(tracer.seconds("model.replay." + name)));
    }
    report.set("model.host_ns_per_mem_request",
               1e9 * (last[0].replayEnd - last[0].buildEnd) /
                   static_cast<double>(last[0].memRequests));
    report.set("model.speedup_vs_lucene", geomean(vsLucene));
    report.set("model.speedup_vs_iiu", geomean(vsIiu));
    report.set("model.core_busy_frac",
               static_cast<double>(last[0].busyCycles) /
                   last[0].coreCapacityCycles);
    report.set("engine.evaluated_docs_per_query",
               static_cast<double>(evaluated) / nq);
    report.set("engine.block_skip_frac",
               static_cast<double>(skipped) /
                   static_cast<double>(loaded + skipped));
    const std::array<std::string, mem::kNumCategories> cats = {
        "ld_list", "ld_score", "ld_inter", "st_inter", "st_result"};
    for (std::size_t c = 0; c < mem::kNumCategories; ++c)
        report.set("mem.scm_bytes_per_query." + cats[c],
                   static_cast<double>(catBytes[c]) / nq);
    report.set("mem.rand_access_frac",
               static_cast<double>(randAcc) /
                   static_cast<double>(seqAcc + randAcc));
    report.set("mem.scm_bandwidth_gbs",
               static_cast<double>(bytes) / seconds / 1e9);
    report.set("mem.req_latency_ns.p50", median(last[0].reqLatencyP50));
    report.set("mem.req_latency_ns.p99", median(last[0].reqLatencyP99));
    report.set("mem.chan_backlog_ns.p99", median(last[0].backlogP99));
    report.set("mem.link_bytes_per_query",
               static_cast<double>(linkBytes) / nq);
}

} // namespace boss::perfbench
