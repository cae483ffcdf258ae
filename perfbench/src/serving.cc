/**
 * @file
 * serve_cached and serve_sharded: the same seeded Zipf text corpus,
 * query stream and fixed offered rate, served two ways.
 *
 *  - serve_cached: one accel::Device over the mmap-loaded text index
 *    behind a DRAM block cache smaller than the index. The distinct
 *    queries' working set exceeds the cache. Exercises admission ->
 *    plan -> build -> in-order finish, the lexicon/parse path, the
 *    mmap lazy CRC and the block cache; no sharding, no segments.
 *  - serve_sharded: a 4-shard api::ShardedDevice loaded on the heap,
 *    no cache. Exercises scatter/gather and the host top-k merge.
 */

#include "workloads.h"

#include <cmath>
#include <memory>
#include <optional>

#include "api/sharded_device.h"
#include "common/thread_pool.h"
#include "index/text_builder.h"
#include "reference.h"
#include "serve_common.h"

namespace boss::perfbench
{

namespace
{

constexpr std::uint32_t kDocs = 60'000;
constexpr std::uint32_t kVocab = 20'000;
constexpr std::size_t kDistinctQueries = 2'000;
/** Fixed offered rate of the open-loop phase (queries/s). */
constexpr double kOfferedQps = 100.0;
/** Drain-phase queries per second of --seconds. */
constexpr double kDrainPerSecond = 300.0;
constexpr double kCacheMB = 0.5;
constexpr std::uint32_t kShards = 4;

struct Served
{
    std::unique_ptr<DocStore> docs;
    std::vector<TextQuery> queries;
    std::unique_ptr<accel::Device> device;
    std::unique_ptr<api::ShardedDevice> sharded;
    std::size_t indexBytes = 0;
};

Served
setUp(std::uint64_t seed, Topology topology, const WorkDir &work,
      Tracer &tracer)
{
    Served s;
    double t0 = nowSec();
    DocGenerator gen(kVocab, splitSeed(seed, 1));
    std::vector<std::vector<TermId>> words(kDocs);
    s.docs = std::make_unique<DocStore>(kVocab);
    for (DocId d = 0; d < kDocs; ++d) {
        words[d] = gen.next();
        s.docs->add(d, words[d]);
    }
    s.queries = makeTextQueries(*s.docs, kVocab, kDistinctQueries);
    double t1 = nowSec();
    index::TextIndexBuilder builder;
    for (const auto &w : words)
        builder.addDocument(docText(w));
    index::TextIndex ti = builder.build();
    s.indexBytes = ti.index.sizeBytes();
    const std::string path = work.path() + "/text.idx";
    if (topology == Topology::Cached)
        index::saveTextIndexFile(ti, path);
    double t2 = nowSec();
    if (topology == Topology::Cached) {
        accel::DeviceConfig cfg;
        cfg.k = kServeTopK;
        cfg.cacheMB = kCacheMB;
        cfg.cacheShards = 1; // deterministic replacement
        s.device = std::make_unique<accel::Device>(cfg);
        s.device->loadMappedTextIndexFile(path);
    } else {
        api::ShardedDeviceConfig cfg;
        cfg.shards = kShards;
        cfg.device.k = kServeTopK;
        s.sharded = std::make_unique<api::ShardedDevice>(cfg);
        s.sharded->loadTextIndex(std::move(ti));
    }
    double t3 = nowSec();
    tracer.add("workload.dataset", t0, t1);
    tracer.add("index.build", t1, t2);
    tracer.add("index.load", t2, t3);
    return s;
}

} // namespace

void
runServeFrozen(const Options &opt, Topology topology, Report &report)
{
    // Pool workers plus the generator and finisher threads fit nproc
    // (the dispatcher is this thread, which mostly waits).
    common::ThreadPool::setGlobalThreads(poolWorkers(2) + 1);
    Tracer tracer(opt.trace);
    WorkDir work;

    Served s;
    const double setupSeconds = repeatSetUp(
        s, [&] { return setUp(opt.seed, topology, work, tracer); });

    std::optional<serve::DeviceBackend> single;
    std::optional<serve::ShardedBackend> sharded;
    serve::Backend *inner;
    TimedBackend::Inspector inspect;
    if (topology == Topology::Cached) {
        single.emplace(*s.device);
        inner = &*single;
        inspect = [](const serve::BuiltHandle &h, BuildCounts &c) {
            c.add(*std::static_pointer_cast<accel::BuiltQuery>(h));
        };
    } else {
        sharded.emplace(*s.sharded);
        inner = &*sharded;
        inspect = [](const serve::BuiltHandle &h, BuildCounts &c) {
            for (const auto &b :
                 std::static_pointer_cast<api::ShardedDevice::Built>(h)
                     ->perShard)
                c.add(b);
        };
    }
    TimedBackend backend(*inner, opt.trace, inspect);

    const auto openCount = static_cast<std::size_t>(std::lround(
        kOfferedQps * opt.seconds * kOpenShare / kServeRuns));
    const auto drainCount = static_cast<std::size_t>(
        std::lround(kDrainPerSecond * opt.seconds / kServeRuns));
    mem::BlockCache::Stats cache0{}, cache1{};
    if (s.device && s.device->blockCache())
        cache0 = s.device->blockCache()->stats();
    auto open =
        runPhases(backend, s.queries, kOfferedQps, openCount, kServeRuns,
                  splitSeed(opt.seed, 3), false, report);
    if (s.device && s.device->blockCache())
        cache1 = s.device->blockCache()->stats();
    auto drain =
        runPhases(backend, s.queries, kOfferedQps, drainCount, kServeRuns,
                  splitSeed(opt.seed, 4), true, report);

    // Reference check of every offered query, outside the timing.
    const double peakRss = peakRssMb();
    Reference reference(s.docs->docLengths);
    Acceptor accept = [&](const serve::QueryRecord &rec, std::size_t q,
                          std::string *why) {
        Expected e = reference.expected(
            s.queries[q].plan, kServeTopK,
            [&](TermId t) -> const index::PostingList & {
                return s.docs->postings[t];
            });
        return acceptTopK(rec.topk, e, kServeTopK, why);
    };
    std::size_t failed = 0, offered = 0;
    for (const auto *phases : {&open, &drain}) {
        for (const Phase &p : *phases) {
            failed += checkRecords(p, s.queries.size(), accept, true,
                                   report);
            offered += p.report.offered;
        }
    }
    report.operations(offered, failed);
    report.note("index " + std::to_string(s.indexBytes >> 10) +
                " KiB; " + std::to_string(s.queries.size()) +
                " distinct queries; " + std::to_string(failed) +
                " failed operations");

    if (!opt.trace) {
        report.set("setup_s", setupSeconds);
        report.set("peak_rss_mb", peakRss);
        servingMetrics(open, s.queries, report);
        return;
    }
    setupMetrics(tracer, report);
    servingLayerMetrics(open, drain, backend, report);
    stageMetrics(open, tracer, report);
    if (cache1.lookups > cache0.lookups)
        report.set("mem.cache_hit_frac",
                   static_cast<double>(cache1.hits - cache0.hits) /
                       static_cast<double>(cache1.lookups -
                                           cache0.lookups));
}

} // namespace boss::perfbench
