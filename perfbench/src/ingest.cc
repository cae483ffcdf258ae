/**
 * @file
 * serve_ingest: an api::LiveDevice serving an open-loop query stream
 * at a fixed rate while a paced writer appends documents, deletes
 * one in ten, and calls refresh() on a fixed period, with the
 * program's background merger running. Exercises segment bake,
 * per-epoch rebake, merge and per-segment fan-out, and shows whether
 * the write path costs the readers.
 *
 * Queries run against whatever epoch is current, so each completed
 * query is checked against the reference over the survivors of the
 * epoch it ran on: the wrapper pins the current snapshot just before
 * and just after build and records each new epoch's survivor set;
 * every recorded survivor set must be a prefix state of the writer's
 * own operation log.
 */

#include "workloads.h"

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "api/live_device.h"
#include "common/thread_pool.h"
#include "reference.h"
#include "serve_common.h"

namespace boss::perfbench
{

namespace
{

constexpr std::uint32_t kSeedDocs = 20'000;
constexpr std::uint32_t kVocab = 20'000;
constexpr std::size_t kDistinctQueries = 1'000;
/** Fixed offered query rate of the open-loop phase (queries/s). */
constexpr double kOfferedQps = 100.0;
/** Fixed append rate (docs/s); every tenth append erases one doc. */
constexpr double kAppendRate = 200.0;
constexpr std::uint32_t kEraseEvery = 10;
constexpr double kRefreshPeriod = 0.1; ///< seconds
constexpr double kDrainPerSecond = 400.0;

/** Survivor sets of every epoch a query was seen to run on. */
class EpochBook
{
  public:
    explicit EpochBook(index::segments::LiveIndex &live) : live_(live) {}

    /** Pin the current epoch; record its survivors when new. */
    std::uint64_t
    observe()
    {
        index::segments::Snapshot snap = live_.snapshot();
        const std::uint64_t epoch = snap->epoch();
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (survivors_.count(epoch) != 0)
                return epoch;
        }
        std::vector<bool> alive;
        for (const auto &seg : snap->segments()) {
            const auto &src = seg.segment->source();
            if (alive.size() <= seg.segment->lastGlobal())
                alive.resize(seg.segment->lastGlobal() + 1, false);
            for (std::uint32_t l = 0; l < src.numDocs(); ++l) {
                if (!seg.tombstones || !seg.tombstones->deleted(l))
                    alive[src.globalIds[l]] = true;
            }
        }
        std::lock_guard<std::mutex> lock(mu_);
        survivors_.emplace(epoch, std::move(alive));
        return epoch;
    }

    /** Post-run only. */
    const std::map<std::uint64_t, std::vector<bool>> &
    survivors() const
    {
        return survivors_;
    }

  private:
    index::segments::LiveIndex &live_;
    std::mutex mu_;
    std::map<std::uint64_t, std::vector<bool>> survivors_;
};

/** The writer's operation log and timings. */
struct WriterLog
{
    struct Op
    {
        bool append = true;
        DocId doc = 0;
    };
    std::vector<Op> ops;
    std::vector<double> appendEnd;     ///< per append, host seconds
    std::vector<double> appendSeconds; ///< duration per append
    std::vector<std::pair<double, double>> refreshes; ///< start, end
    std::vector<double> segmentsAtRefresh;
    std::uint64_t appendsAttempted = 0, appendsApplied = 0;
    std::uint64_t erasesAttempted = 0, erasesApplied = 0;
};

/**
 * Paced writer: appends owed = elapsed x rate, an erase of a random
 * surviving doc after every tenth append, refresh() whenever the
 * period has elapsed since the previous one began.
 */
class Writer
{
  public:
    Writer(index::segments::LiveIndex &live, DocStore &docs,
           std::vector<DocId> alive, WriterLog &log, std::uint64_t seed)
        : live_(live), docs_(docs), alive_(std::move(alive)), log_(log),
          gen_(kVocab, splitSeed(seed, 5)), rng_(splitSeed(seed, 6))
    {
    }
    ~Writer() { stop(); }
    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    void start() { thread_ = std::thread([this] { run(); }); }

    void
    stop()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
    }

  private:
    void
    refresh()
    {
        double t0 = nowSec();
        live_.refresh();
        log_.refreshes.emplace_back(t0, nowSec());
        log_.segmentsAtRefresh.push_back(live_.segmentCount());
    }

    void
    run()
    {
        const double start = nowSec();
        double lastRefresh = start;
        std::uint64_t appended = 0;
        while (!stop_.load(std::memory_order_relaxed)) {
            const auto owed = static_cast<std::uint64_t>(
                (nowSec() - start) * kAppendRate);
            while (appended < owed &&
                   !stop_.load(std::memory_order_relaxed)) {
                std::vector<TermId> doc = gen_.next();
                double t0 = nowSec();
                DocId id = live_.append(doc);
                double t1 = nowSec();
                ++appended;
                ++log_.appendsAttempted;
                // Global ids are dense and in append order.
                if (id == docs_.docLengths.size()) {
                    ++log_.appendsApplied;
                    docs_.add(id, doc);
                }
                log_.ops.push_back({true, id});
                log_.appendEnd.push_back(t1);
                log_.appendSeconds.push_back(t1 - t0);
                alive_.push_back(id);
                if (appended % kEraseEvery == 0) {
                    std::size_t pick = rng_.below(alive_.size());
                    DocId victim = alive_[pick];
                    alive_[pick] = alive_.back();
                    alive_.pop_back();
                    ++log_.erasesAttempted;
                    if (live_.erase(victim))
                        ++log_.erasesApplied;
                    log_.ops.push_back({false, victim});
                }
            }
            if (nowSec() - lastRefresh >= kRefreshPeriod) {
                lastRefresh = nowSec();
                refresh();
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        refresh(); // publish the tail
    }

    index::segments::LiveIndex &live_;
    DocStore &docs_;
    std::vector<DocId> alive_;
    WriterLog &log_;
    DocGenerator gen_;
    Rng rng_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/** Additive set signature: survivors(prefix) is found by matching. */
std::uint64_t
docHash(DocId d)
{
    return splitSeed(0x5EC7, d);
}

struct Live
{
    std::unique_ptr<DocStore> docs;
    std::vector<TextQuery> queries;
    std::unique_ptr<api::LiveDevice> device;
    std::vector<DocId> alive;
    WriterLog log;
};

Live
setUp(std::uint64_t seed, Tracer &tracer)
{
    Live s;
    double t0 = nowSec();
    DocGenerator gen(kVocab, splitSeed(seed, 1));
    std::vector<std::vector<TermId>> words(kSeedDocs);
    s.docs = std::make_unique<DocStore>(kVocab);
    for (DocId d = 0; d < kSeedDocs; ++d) {
        words[d] = gen.next();
        s.docs->add(d, words[d]);
    }
    s.queries = makeTextQueries(*s.docs, kVocab, kDistinctQueries);
    double t1 = nowSec();
    api::LiveDeviceConfig cfg;
    cfg.device.k = kServeTopK;
    cfg.live.termBoundHint = kVocab;
    cfg.live.maxBufferedDocs = kSeedDocs; // seed bakes as one segment
    s.device = std::make_unique<api::LiveDevice>(cfg);
    s.device->setLexicon(rankLexicon(kVocab));
    for (DocId d = 0; d < kSeedDocs; ++d) {
        s.alive.push_back(s.device->live().append(words[d]));
        s.log.ops.push_back({true, d});
    }
    double t2 = nowSec();
    s.device->live().refresh();
    double t3 = nowSec();
    tracer.add("workload.dataset", t0, t1);
    tracer.add("index.build", t1, t2);
    tracer.add("index.load", t2, t3);
    return s;
}

} // namespace

void
runServeIngest(const Options &opt, Report &report)
{
    // Pool workers plus generator, finisher, writer and merger.
    common::ThreadPool::setGlobalThreads(poolWorkers(4) + 1);
    Tracer tracer(opt.trace);

    Live s;
    const double setupSeconds =
        repeatSetUp(s, [&] { return setUp(opt.seed, tracer); });
    auto &live = s.device->live();
    report.check(s.alive.size() == kSeedDocs &&
                     live.liveDocs() == kSeedDocs,
                 "seed documents missing from the live index");

    EpochBook book(live);
    serve::LiveBackend inner(*s.device);
    TimedBackend backend(
        inner, opt.trace,
        [](const serve::BuiltHandle &h, BuildCounts &c) {
            for (const auto &b :
                 std::static_pointer_cast<api::LiveDevice::Built>(h)
                     ->perSegment)
                c.add(b);
        },
        [&book] { return book.observe(); });

    const auto merges0 = live.counters().merges.load();
    const auto baked0 = live.counters().segmentsBaked.load();
    const auto openCount = static_cast<std::size_t>(std::lround(
        kOfferedQps * opt.seconds * kOpenShare / kServeRuns));
    const auto drainCount = static_cast<std::size_t>(
        std::lround(kDrainPerSecond * opt.seconds / kServeRuns));

    std::vector<Phase> open;
    {
        Writer writer(live, *s.docs, std::move(s.alive), s.log,
                      opt.seed);
        live.startMerger();
        writer.start();
        open = runPhases(backend, s.queries, kOfferedQps, openCount,
                         kServeRuns, splitSeed(opt.seed, 3), false,
                         report);
        writer.stop();
        live.stopMerger();
    }
    const auto merges = live.counters().merges.load() - merges0;
    const auto baked = live.counters().segmentsBaked.load() - baked0;
    auto drain =
        runPhases(backend, s.queries, kOfferedQps, drainCount, kServeRuns,
                  splitSeed(opt.seed, 4), true, report);

    // ---- Writer ledger: every append and erase applied, and every
    // epoch a query saw is a prefix state of the writer's log.
    const WriterLog &log = s.log;
    report.check(log.appendsApplied == log.appendsAttempted,
                 "appends applied != attempted");
    report.check(log.erasesApplied == log.erasesAttempted,
                 "erases applied != attempted");
    report.operations(log.appendsAttempted + log.erasesAttempted,
                      (log.appendsAttempted - log.appendsApplied) +
                          (log.erasesAttempted - log.erasesApplied));
    std::map<std::uint64_t, std::size_t> prefixSigs; // sig -> size
    {
        std::uint64_t sig = 0;
        std::size_t size = 0;
        prefixSigs.emplace(sig, size);
        for (const auto &op : log.ops) {
            if (op.append) {
                sig += docHash(op.doc);
                ++size;
            } else {
                sig -= docHash(op.doc);
                --size;
            }
            prefixSigs.emplace(sig, size);
        }
    }
    for (const auto &[epoch, alive] : book.survivors()) {
        std::uint64_t sig = 0;
        std::size_t size = 0;
        for (DocId d = 0; d < alive.size(); ++d) {
            if (alive[d]) {
                sig += docHash(d);
                ++size;
            }
        }
        auto it = prefixSigs.find(sig);
        report.check(it != prefixSigs.end() && it->second == size,
                     "epoch " + std::to_string(epoch) +
                         " survivors are no prefix of the writes");
    }

    // ---- Reference check of every offered query on its epoch.
    std::map<std::uint64_t, std::unique_ptr<Reference>> references;
    std::map<std::pair<std::uint64_t, std::size_t>, Expected> expected;
    auto expectedAt = [&](std::uint64_t epoch,
                          std::size_t q) -> const Expected & {
        auto key = std::make_pair(epoch, q);
        auto it = expected.find(key);
        if (it != expected.end())
            return it->second;
        auto &ref = references[epoch];
        if (!ref) {
            std::vector<bool> alive = book.survivors().at(epoch);
            alive.resize(s.docs->docLengths.size(), false);
            ref = std::make_unique<Reference>(s.docs->docLengths,
                                              std::move(alive));
        }
        return expected
            .emplace(key,
                     ref->expected(s.queries[q].plan, kServeTopK,
                                   [&](TermId t)
                                       -> const index::PostingList & {
                                       return s.docs->postings[t];
                                   }))
            .first->second;
    };
    std::size_t ambiguous = 0;
    auto acceptPhase = [&](const Phase &phase) {
        std::map<std::uint64_t, const StageLog *> byId;
        std::size_t i = 0;
        for (const auto &rec : phase.report.records) {
            if (rec.status == serve::QueryStatus::Done &&
                i < phase.log.size())
                byId[rec.id] = &phase.log[i++];
        }
        Acceptor accept = [&](const serve::QueryRecord &rec,
                              std::size_t q, std::string *why) {
            auto it = byId.find(rec.id);
            if (it == byId.end()) {
                *why = "no build log";
                return false;
            }
            const StageLog &l = *it->second;
            if (acceptTopK(rec.topk, expectedAt(l.epochBefore, q),
                           kServeTopK, why))
                return true;
            if (l.epochAfter == l.epochBefore)
                return false;
            // A publish landed during the build: the query ran on
            // the earlier or the later epoch.
            ++ambiguous;
            return acceptTopK(rec.topk, expectedAt(l.epochAfter, q),
                              kServeTopK, why);
        };
        return checkRecords(phase, s.queries.size(), accept, false,
                            report);
    };
    std::size_t failed = 0, offered = 0;
    for (const auto *phases : {&open, &drain}) {
        for (const Phase &p : *phases) {
            failed += acceptPhase(p);
            offered += p.report.offered;
        }
    }
    report.operations(offered, failed);
    report.note(
        "ingest ledger: appends " + std::to_string(log.appendsApplied) +
        "/" + std::to_string(log.appendsAttempted) + ", erases " +
        std::to_string(log.erasesApplied) + "/" +
        std::to_string(log.erasesAttempted) + ", refreshes " +
        std::to_string(log.refreshes.size()) + ", merges " +
        std::to_string(merges) + ", epochs seen " +
        std::to_string(book.survivors().size()) + ", queries on a "
        "publish boundary " + std::to_string(ambiguous) + ", failed " +
        std::to_string(failed));

    if (!opt.trace) {
        report.set("setup_s", setupSeconds);
        report.set("peak_rss_mb", peakRssMb());
        servingMetrics(open, s.queries, report);
        return;
    }
    setupMetrics(tracer, report);
    servingLayerMetrics(open, drain, backend, report);
    stageMetrics(open, tracer, report);

    // Segment layer: spans around the writer's calls.
    for (std::size_t i = 0; i < log.appendSeconds.size(); ++i)
        tracer.add("segments.append",
                   log.appendEnd[i] - log.appendSeconds[i],
                   log.appendEnd[i]);
    for (const auto &[t0, t1] : log.refreshes)
        tracer.add("segments.refresh", t0, t1);
    std::vector<double> visible;
    std::size_t r = 0;
    for (double t : log.appendEnd) {
        while (r < log.refreshes.size() && log.refreshes[r].first < t)
            ++r;
        if (r < log.refreshes.size())
            visible.push_back(log.refreshes[r].second - t);
    }
    auto appendUs = tracer.seconds("segments.append");
    auto refreshS = tracer.seconds("segments.refresh");
    report.set("segments.append_us.p50", 1e6 * percentile(appendUs, 0.5));
    report.set("segments.append_us.p99",
               1e6 * percentile(appendUs, 0.99));
    report.set("segments.refresh_ms.p50",
               1e3 * percentile(refreshS, 0.5));
    report.set("segments.refresh_ms.p99",
               1e3 * percentile(refreshS, 0.99));
    if (!log.refreshes.empty())
        report.set("segments.refresh_busy_frac",
                   tracer.total("segments.refresh") /
                       (log.refreshes.back().second -
                        log.refreshes.front().first));
    report.set("segments.visible_ms.p50", 1e3 * percentile(visible, 0.5));
    report.set("segments.visible_ms.p99",
               1e3 * percentile(visible, 0.99));
    report.set("segments.fanout_mean", mean(log.segmentsAtRefresh));
    report.set("segments.merges", static_cast<double>(merges));
    report.set("segments.baked", static_cast<double>(baked));
}

} // namespace boss::perfbench
