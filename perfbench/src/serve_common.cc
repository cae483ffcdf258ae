#include "serve_common.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "telemetry/serve_telemetry.h"

namespace boss::perfbench
{

namespace
{

/** Queries served before the open-loop clock starts (not measured). */
constexpr std::size_t kWarmup = 64;
/**
 * Stated reconciliation tolerance: the p99 over queries of latency
 * minus the sum of its stages. The stages tile the query's lifetime
 * exactly; the residual is the few instructions between the server's
 * timestamps and the wrapper's, so it is near zero unless a thread is
 * descheduled right there.
 */
constexpr double kResidualP99Seconds = 1e-3;

struct Wrapped
{
    serve::BuiltHandle inner;
    double start = 0.0, end = 0.0;
    std::uint64_t epochBefore = 0, epochAfter = 0;
    BuildCounts counts;
};

} // namespace

void
BuildCounts::add(const accel::BuiltQuery &built)
{
    evaluatedDocs += built.evaluatedDocs;
    for (const auto &trace : built.traces) {
        blocksLoaded += trace.blocksLoaded;
        blocksSkipped += trace.blocksSkipped;
        for (const auto &seg : trace.segments) {
            traceRequests += seg.reqs.size();
            for (const auto &req : seg.reqs)
                catBytes[static_cast<std::size_t>(req.category)] +=
                    req.bytes;
        }
    }
}

TimedBackend::TimedBackend(serve::Backend &inner, bool traced,
                           Inspector inspect, EpochProbe epoch)
    : inner_(inner), traced_(traced), inspect_(std::move(inspect)),
      epoch_(std::move(epoch))
{
}

engine::QueryPlan
TimedBackend::plan(const std::string &expr)
{
    double t0 = nowSec();
    engine::QueryPlan p = inner_.plan(expr);
    planSeconds.push_back(nowSec() - t0);
    return p;
}

engine::QueryPlan
TimedBackend::plan(const workload::Query &query)
{
    double t0 = nowSec();
    engine::QueryPlan p = inner_.plan(query);
    planSeconds.push_back(nowSec() - t0);
    return p;
}

serve::BuiltHandle
TimedBackend::build(const engine::QueryPlan &plan,
                    engine::QueryArena &arena)
{
    // Stamp before allocating: the server stamped the build start just
    // before this call, and the stage sums reconcile against it.
    const std::uint64_t epochBefore = epoch_ ? epoch_() : 0;
    const double start = nowSec();
    auto w = std::make_shared<Wrapped>();
    w->start = start;
    w->epochBefore = epochBefore;
    w->inner = inner_.build(plan, arena);
    w->end = nowSec();
    w->epochAfter = epoch_ ? epoch_() : 0;
    if (traced_) {
        w->counts.queries = 1;
        inspect_(w->inner, w->counts);
    }
    return w;
}

serve::Finished
TimedBackend::finish(serve::BuiltHandle built)
{
    auto w = std::static_pointer_cast<Wrapped>(built);
    double t0 = nowSec();
    serve::Finished fin = inner_.finish(std::move(w->inner));
    double t1 = nowSec();
    StageLog entry;
    entry.buildStart = w->start;
    entry.buildEnd = w->end;
    entry.finishStart = t0;
    entry.finishEnd = t1;
    entry.shardSeconds = fin.shardSeconds;
    entry.epochBefore = w->epochBefore;
    entry.epochAfter = w->epochAfter;
    entry.counts = w->counts;
    log_.push_back(std::move(entry));
    return fin;
}

std::vector<StageLog>
TimedBackend::takeLog(std::size_t skip)
{
    std::vector<StageLog> out;
    if (log_.size() > skip)
        out.assign(std::make_move_iterator(log_.begin() + skip),
                   std::make_move_iterator(log_.end()));
    log_.clear();
    return out;
}

namespace
{

Phase
runOne(TimedBackend &backend, const std::vector<std::string> &exprs,
       double qps, std::size_t count, std::uint64_t seed, bool drain,
       Report &report)
{
    serve::ServeConfig cfg;
    cfg.arrivals.process = serve::ArrivalProcess::Poisson;
    cfg.arrivals.qps = drain ? 1e9 : qps;
    cfg.arrivals.count = count;
    cfg.arrivals.seed = seed;
    cfg.policy = drain ? serve::ShedPolicy::Block
                       : serve::ShedPolicy::DropTail;
    cfg.queueCapacity = drain ? 512 : count;
    cfg.mode = serve::PipelineMode::Pipelined;
    cfg.warmup = drain ? 0 : kWarmup;
    serve::Server server(backend, cfg);
    telemetry::ServeTelemetry telemetry;
    server.setTelemetry(&telemetry);

    Phase phase;
    phase.report = server.run(exprs);
    phase.log = backend.takeLog(cfg.warmup);

    const serve::ServeReport &r = phase.report;
    const std::string name = drain ? "drain" : "open-loop";
    report.check(r.offered == count,
                 name + ": offered != scheduled queries");
    report.check(r.offered == r.completed + r.shed + r.expired,
                 name + ": offered != completed + shed + expired");
    report.check(telemetry.offered() == r.offered &&
                     telemetry.completed() == r.completed &&
                     telemetry.shed() == r.shed &&
                     telemetry.expired() == r.expired,
                 name + ": telemetry terminal counters != report");
    report.check(phase.log.size() == r.completed,
                 name + ": finish() calls != completed queries");
    report.note(name + " ledger: offered " + std::to_string(r.offered) +
                " = completed " + std::to_string(r.completed) +
                " + shed " + std::to_string(r.shed) + " + expired " +
                std::to_string(r.expired) + "; telemetry agrees: " +
                (telemetry.completed() == r.completed ? "yes" : "NO") +
                "; p50 " + std::to_string(r.latencyP50Us) + " us, p99 " +
                std::to_string(r.latencyP99Us) + " us, achieved " +
                std::to_string(r.achievedQps) + " qps");
    return phase;
}

} // namespace

std::vector<Phase>
runPhases(TimedBackend &backend, const std::vector<TextQuery> &queries,
          double qps, std::size_t count, std::size_t runs,
          std::uint64_t seed, bool drain, Report &report)
{
    std::vector<Phase> phases;
    for (std::size_t r = 0; r < runs; ++r) {
        const std::size_t offset = (r * count) % queries.size();
        std::vector<std::string> exprs;
        for (std::size_t i = 0; i < queries.size(); ++i)
            exprs.push_back(
                queries[(offset + i) % queries.size()].expression);
        phases.push_back(runOne(backend, exprs, qps, count,
                                splitSeed(seed, r), drain, report));
        phases.back().offset = offset;
    }
    return phases;
}

std::size_t
checkRecords(const Phase &phase, std::size_t logSize,
             const Acceptor &accept, bool reuse, Report &out)
{
    std::map<std::size_t,
             std::pair<std::vector<engine::Result>, bool>> verdicts;
    std::size_t failed = 0;
    for (const serve::QueryRecord &rec : phase.report.records) {
        if (rec.status != serve::QueryStatus::Done) {
            ++failed;
            out.check(false, "query " + std::to_string(rec.id) +
                                 " was shed or expired");
            continue;
        }
        const std::size_t q = phase.query(rec, logSize);
        auto it = verdicts.find(q);
        bool ok;
        if (reuse && it != verdicts.end() &&
            it->second.first == rec.topk) {
            ok = it->second.second;
        } else {
            std::string why;
            ok = accept(rec, q, &why);
            out.check(ok, "query " + std::to_string(rec.id) +
                              " (log entry " + std::to_string(q) +
                              "): " + why);
            verdicts[q] = {rec.topk, ok};
        }
        failed += ok ? 0 : 1;
    }
    return failed;
}

void
stageMetrics(const std::vector<Phase> &open, Tracer &tracer,
             Report &report)
{
    const char *const stages[] = {
        "serve.generator_late", "serve.queue_wait",
        "serve.dispatch_wait",  "serve.build",
        "serve.reorder_wait",   "serve.finish"};
    double busy = 0.0, span = 0.0;
    for (const Phase &phase : open) {
        std::vector<const serve::QueryRecord *> done;
        for (const auto &rec : phase.report.records) {
            if (rec.status == serve::QueryStatus::Done)
                done.push_back(&rec);
        }
        if (done.size() != phase.log.size() || done.empty())
            continue; // already failed the ledger check
        // The server's record clock and the wrapper's share
        // steady_clock but not the epoch: the build-start pair is a
        // few instructions apart, so the smallest difference is the
        // epoch offset.
        double offset = phase.log[0].buildStart - 1e-6 * done[0]->startUs;
        for (std::size_t i = 0; i < done.size(); ++i)
            offset = std::min(offset, phase.log[i].buildStart -
                                          1e-6 * done[i]->startUs);
        auto at = [offset](double us) { return offset + 1e-6 * us; };
        double last = 0.0;
        for (std::size_t i = 0; i < done.size(); ++i) {
            const serve::QueryRecord &r = *done[i];
            const StageLog &l = phase.log[i];
            const std::uint64_t q = r.id + 1;
            std::uint64_t root = tracer.add(
                "serve.query", at(r.arrivalUs), at(r.finishUs), 0, q);
            tracer.add(stages[0], at(r.arrivalUs), at(r.enqueueUs), root,
                       q);
            tracer.add(stages[1], at(r.enqueueUs), at(r.admitUs), root,
                       q);
            tracer.add(stages[2], at(r.admitUs), at(r.startUs), root, q);
            tracer.add(stages[3], l.buildStart, l.buildEnd, root, q);
            tracer.add(stages[4], l.buildEnd, l.finishStart, root, q);
            tracer.add(stages[5], l.finishStart, l.finishEnd, root, q);
            busy += l.finishEnd - l.finishStart;
            last = std::max(last, at(r.finishUs));
        }
        span += last - at(done.front()->arrivalUs);
    }

    // Reconcile from the spans alone: each root minus its children.
    std::map<std::uint64_t, double> childSum;
    std::map<std::uint64_t, double> rootLen;
    for (const Span &s : tracer.spans()) {
        if (s.name == "serve.query")
            rootLen[s.id] = s.seconds();
        else if (s.parent != 0 && rootLen.count(s.parent) != 0)
            childSum[s.parent] += s.seconds();
    }
    std::vector<double> residual;
    for (const auto &[id, len] : rootLen)
        residual.push_back(len - childSum[id]);
    const double residualP99 = percentile(residual, 0.99);
    report.check(std::abs(residualP99) <= kResidualP99Seconds &&
                     std::abs(percentile(residual, 0.01)) <=
                         kResidualP99Seconds,
                 "serving stages do not reconcile with latency: "
                 "residual p99 " +
                     std::to_string(1e3 * residualP99) + " ms");

    auto ms = [&](const char *name, double q) {
        return 1e3 * percentile(tracer.seconds(name), q);
    };
    report.set("serve.generator_late_ms.p99",
               ms("serve.generator_late", 0.99));
    report.set("serve.queue_wait_ms.p50", ms("serve.queue_wait", 0.5));
    report.set("serve.queue_wait_ms.p99", ms("serve.queue_wait", 0.99));
    report.set("serve.dispatch_wait_ms.p99",
               ms("serve.dispatch_wait", 0.99));
    report.set("serve.build_ms.p50", ms("serve.build", 0.5));
    report.set("serve.build_ms.p99", ms("serve.build", 0.99));
    report.set("serve.reorder_wait_ms.p50",
               ms("serve.reorder_wait", 0.5));
    report.set("serve.reorder_wait_ms.p99",
               ms("serve.reorder_wait", 0.99));
    report.set("serve.finish_ms.p50", ms("serve.finish", 0.5));
    report.set("serve.finish_ms.p99", ms("serve.finish", 0.99));
    report.set("serve.stage_residual_ms.p99", 1e3 * residualP99);
    report.set("serve.finisher_busy_frac", busy / span);
}

void
servingMetrics(const std::vector<Phase> &open,
               const std::vector<TextQuery> &queries, Report &report)
{
    std::map<workload::QueryType, std::pair<double, double>> byType;
    double sim = 0.0, bytes = 0.0, n = 0.0;
    for (const Phase &p : open) {
        for (const auto &rec : p.report.records) {
            if (rec.status != serve::QueryStatus::Done)
                continue;
            auto &t =
                byType[queries[p.query(rec, queries.size())].query.type];
            t.first += 1.0;
            t.second += rec.simSeconds;
            sim += rec.simSeconds;
            bytes += static_cast<double>(rec.deviceBytes);
            n += 1.0;
        }
    }
    std::vector<double> perType;
    for (const auto &[type, t] : byType)
        perType.push_back(t.first / t.second);
    report.set("modeled_qps", geomean(perType));
    report.set("modeled_us_per_query", 1e6 * sim / n);
    report.set("scm_bytes_per_query", bytes / n);
}

void
servingLayerMetrics(const std::vector<Phase> &open,
                    const std::vector<Phase> &drain,
                    const TimedBackend &backend, Report &report)
{
    std::vector<double> capacity;
    for (const Phase &p : drain)
        capacity.push_back(p.report.achievedQps);
    report.set("serve.capacity_qps", median(capacity));
    std::vector<double> latency;
    for (const Phase &p : open) {
        for (const auto &rec : p.report.records) {
            if (rec.status == serve::QueryStatus::Done)
                latency.push_back(1e-3 * (rec.finishUs - rec.arrivalUs));
        }
    }
    report.set("serve.latency_ms.p50", percentile(latency, 0.5));
    report.set("serve.latency_ms.p99", percentile(latency, 0.99));
    BuildCounts c;
    double finishSeconds = 0.0, sim = 0.0, bytes = 0.0;
    std::vector<double> imbalance;
    for (const Phase &p : open) {
        for (const auto &rec : p.report.records) {
            sim += rec.simSeconds;
            bytes += static_cast<double>(rec.deviceBytes);
        }
        for (const StageLog &l : p.log) {
            c.queries += l.counts.queries;
            c.evaluatedDocs += l.counts.evaluatedDocs;
            c.blocksLoaded += l.counts.blocksLoaded;
            c.blocksSkipped += l.counts.blocksSkipped;
            c.traceRequests += l.counts.traceRequests;
            for (std::size_t i = 0; i < c.catBytes.size(); ++i)
                c.catBytes[i] += l.counts.catBytes[i];
            finishSeconds += l.finishEnd - l.finishStart;
            double sum = 0.0, max = 0.0;
            for (double s : l.shardSeconds) {
                sum += s;
                max = std::max(max, s);
            }
            if (sum > 0.0)
                imbalance.push_back(max * l.shardSeconds.size() / sum);
        }
    }
    const double nq = static_cast<double>(c.queries);
    report.set("engine.evaluated_docs_per_query",
               static_cast<double>(c.evaluatedDocs) / nq);
    report.set("engine.block_skip_frac",
               static_cast<double>(c.blocksSkipped) /
                   static_cast<double>(c.blocksLoaded + c.blocksSkipped));
    const char *const cats[] = {"ld_list", "ld_score", "ld_inter",
                                "st_inter", "st_result"};
    for (std::size_t i = 0; i < c.catBytes.size(); ++i)
        report.set(std::string("mem.scm_bytes_per_query.") + cats[i],
                   static_cast<double>(c.catBytes[i]) / nq);
    report.set("model.host_ns_per_mem_request",
               1e9 * finishSeconds /
                   static_cast<double>(c.traceRequests));
    report.set("api.shard_imbalance", mean(imbalance));
    report.set("serve.plan_us.p50", 1e6 * median(backend.planSeconds));
    report.set("mem.scm_bandwidth_gbs", bytes / sim / 1e9);
}

} // namespace boss::perfbench
