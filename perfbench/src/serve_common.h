/**
 * @file
 * Serving machinery shared by serve_cached, serve_sharded and
 * serve_ingest: a timing wrapper around serve::Backend, the two
 * measured phases (open loop at a fixed rate, then a saturated
 * drain), the per-query stage decomposition of the traced run, and
 * the reference check of every completed query.
 */

#ifndef BOSS_PERFBENCH_SERVE_COMMON_H
#define BOSS_PERFBENCH_SERVE_COMMON_H

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "boss/device.h"
#include "harness.h"
#include "mem/memory_system.h"
#include "serve/backend.h"
#include "serve/server.h"
#include "text_corpus.h"

namespace boss::perfbench
{

/**
 * Results per serving query. The paper's k = 1000 is a large share
 * of every match list on these small corpora, which makes top-k
 * maintenance the bulk of each query; k = 100 keeps the search and
 * serving stages in the picture.
 */
inline constexpr std::size_t kServeTopK = 100;

/** Server runs per phase (host metrics are medians over them). */
inline constexpr std::size_t kServeRuns = 5;

/** Share of --seconds given to the open loop; the drain follows. */
inline constexpr double kOpenShare = 0.5;

/** Work counters read from built queries (traced runs only). */
struct BuildCounts
{
    std::uint64_t queries = 0;
    std::uint64_t evaluatedDocs = 0;
    std::uint64_t blocksLoaded = 0;
    std::uint64_t blocksSkipped = 0;
    std::uint64_t traceRequests = 0;
    std::array<std::uint64_t, mem::kNumCategories> catBytes{};

    void add(const accel::BuiltQuery &built);
};

/** One query as seen by the wrapper, in finish() (= admission) order. */
struct StageLog
{
    double buildStart = 0.0, buildEnd = 0.0;
    double finishStart = 0.0, finishEnd = 0.0;
    std::vector<double> shardSeconds;
    /** Epochs observed just before and just after build (live only). */
    std::uint64_t epochBefore = 0, epochAfter = 0;
    BuildCounts counts; ///< traced runs only
};

/**
 * Times plan/build/finish of the wrapped backend from outside. The
 * server calls finish() serially in admission order, so the k-th log
 * entry belongs to the k-th completed query. With tracing on, the
 * inspector also counts each built query's work.
 */
class TimedBackend final : public serve::Backend
{
  public:
    using Inspector =
        std::function<void(const serve::BuiltHandle &, BuildCounts &)>;
    /** Returns the current epoch (recording it if new); live only. */
    using EpochProbe = std::function<std::uint64_t()>;

    TimedBackend(serve::Backend &inner, bool traced, Inspector inspect,
                 EpochProbe epoch = {});

    std::uint32_t shards() const override { return inner_.shards(); }
    engine::QueryPlan plan(const std::string &expr) override;
    engine::QueryPlan plan(const workload::Query &query) override;
    serve::BuiltHandle build(const engine::QueryPlan &plan,
                             engine::QueryArena &arena) override;
    serve::Finished finish(serve::BuiltHandle built) override;

    /** Move out the log (and drop the first @p skip warm-up entries). */
    std::vector<StageLog> takeLog(std::size_t skip);

    std::vector<double> planSeconds;

  private:
    serve::Backend &inner_;
    bool traced_;
    Inspector inspect_;
    EpochProbe epoch_;
    std::vector<StageLog> log_;
};

/**
 * One Server::run of a measured phase. Successive runs of a phase
 * start at successive offsets of the query log, so a phase covers
 * runs x count distinct queries, and the same ones at every seed.
 */
struct Phase
{
    serve::ServeReport report;
    std::vector<StageLog> log; ///< one per completed query
    std::size_t offset = 0;    ///< log index of the run's query 0

    /** Index into the query log of @p rec's query. */
    std::size_t
    query(const serve::QueryRecord &rec, std::size_t logSize) const
    {
        return (rec.queryIndex + offset) % logSize;
    }
};

/**
 * Serve @p queries' expressions through @p backend in @p runs
 * back-to-back Server runs of @p count queries each: open loop at a
 * fixed Poisson rate (DropTail with room for every query, so nothing
 * is shed below saturation), or with @p drain every query offered at
 * once under Block admission. Host-clock metrics are medians over
 * the runs, so a host hiccup during one run does not move them.
 * Checks each report's ledger and the attached telemetry's terminal
 * counters against it.
 */
std::vector<Phase> runPhases(TimedBackend &backend,
                             const std::vector<TextQuery> &queries,
                             double qps, std::size_t count,
                             std::size_t runs, std::uint64_t seed,
                             bool drain, Report &report);

/**
 * Reference verdict on one completed query, given its index in the
 * query log (explains in @p why).
 */
using Acceptor = std::function<bool(const serve::QueryRecord &,
                                    std::size_t query, std::string *why)>;

/**
 * Check every offered query: shed or expired ones fail, completed
 * ones must pass @p accept. With @p reuse (a frozen index), a record
 * repeating an already-checked top-k of the same distinct query
 * exactly reuses its verdict. Returns the number of failed
 * operations.
 */
std::size_t checkRecords(const Phase &phase, std::size_t logSize,
                         const Acceptor &accept, bool reuse, Report &out);

/**
 * Traced run: turn the phase's records and wrapper log into spans
 * (query root plus generator-late, queue, dispatch, build, reorder
 * and finish children), derive the serve.* per-layer metrics from
 * them, and check that each query's stages sum to its latency.
 */
void stageMetrics(const std::vector<Phase> &open, Tracer &tracer,
                  Report &report);

/** End-to-end modeled metrics of every open-loop query. */
void servingMetrics(const std::vector<Phase> &open,
                    const std::vector<TextQuery> &queries,
                    Report &report);

/**
 * Per-layer metrics common to the serving workloads (traced), among
 * them latency from scheduled arrival over every open-loop query and
 * capacity, the median drain rate over the drain runs.
 */
void servingLayerMetrics(const std::vector<Phase> &open,
                         const std::vector<Phase> &drain,
                         const TimedBackend &backend, Report &report);

} // namespace boss::perfbench

#endif // BOSS_PERFBENCH_SERVE_COMMON_H
