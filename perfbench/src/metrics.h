/**
 * @file
 * The benchmark's metric catalogue: every end-to-end metric (printed
 * by untraced runs) and every per-layer metric (printed by traced
 * runs), with units. BENCHMARK.json lists the same names; every
 * workload prints every metric of its mode, so a per-layer metric a
 * workload does not exercise reads 0 there.
 */

#ifndef BOSS_PERFBENCH_METRICS_H
#define BOSS_PERFBENCH_METRICS_H

#include <array>
#include <string_view>

namespace boss::perfbench
{

struct MetricDef
{
    std::string_view name;
    std::string_view unit;
};

/**
 * End-to-end metrics. Host: setup_s, peak_rss_mb. Modeled clock:
 * modeled_*, scm_*. Host-clock speed (serving latency percentiles,
 * drain capacity, simulated queries per host second) is per-layer:
 * on a shared 4-vCPU host its run-to-run spread (IQR/median 0.1-0.5
 * measured) reaches or exceeds the largest usable regression bound.
 */
inline constexpr std::array<MetricDef, 5> kEndToEnd = {{
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"modeled_qps", "1/s"},
    {"modeled_us_per_query", "us"},
    {"scm_bytes_per_query", "bytes"},
}};

inline constexpr std::array<MetricDef, 55> kPerLayer = {{
    {"workload.dataset_s", "s"},
    {"index.text_build_s", "s"},
    {"index.load_s", "s"},
    {"model.trace_build_s.boss", "s"},
    {"model.trace_build_s.iiu", "s"},
    {"model.trace_build_s.lucene", "s"},
    {"model.replay_s.boss", "s"},
    {"model.replay_s.iiu", "s"},
    {"model.replay_s.lucene", "s"},
    {"model.sim_queries_per_s", "1/s"},
    {"model.host_ns_per_mem_request", "ns"},
    {"model.speedup_vs_lucene", "x"},
    {"model.speedup_vs_iiu", "x"},
    {"model.core_busy_frac", "fraction"},
    {"engine.evaluated_docs_per_query", "count"},
    {"engine.block_skip_frac", "fraction"},
    {"mem.scm_bytes_per_query.ld_list", "bytes"},
    {"mem.scm_bytes_per_query.ld_score", "bytes"},
    {"mem.scm_bytes_per_query.ld_inter", "bytes"},
    {"mem.scm_bytes_per_query.st_inter", "bytes"},
    {"mem.scm_bytes_per_query.st_result", "bytes"},
    {"mem.rand_access_frac", "fraction"},
    {"mem.scm_bandwidth_gbs", "GB/s"},
    {"mem.req_latency_ns.p50", "ns"},
    {"mem.req_latency_ns.p99", "ns"},
    {"mem.chan_backlog_ns.p99", "ns"},
    {"mem.link_bytes_per_query", "bytes"},
    {"mem.cache_hit_frac", "fraction"},
    {"serve.capacity_qps", "1/s"},
    {"serve.latency_ms.p50", "ms"},
    {"serve.latency_ms.p99", "ms"},
    {"serve.generator_late_ms.p99", "ms"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.p99", "ms"},
    {"serve.dispatch_wait_ms.p99", "ms"},
    {"serve.plan_us.p50", "us"},
    {"serve.build_ms.p50", "ms"},
    {"serve.build_ms.p99", "ms"},
    {"serve.reorder_wait_ms.p50", "ms"},
    {"serve.reorder_wait_ms.p99", "ms"},
    {"serve.finish_ms.p50", "ms"},
    {"serve.finish_ms.p99", "ms"},
    {"serve.finisher_busy_frac", "fraction"},
    {"serve.stage_residual_ms.p99", "ms"},
    {"api.shard_imbalance", "x"},
    {"segments.append_us.p50", "us"},
    {"segments.append_us.p99", "us"},
    {"segments.refresh_ms.p50", "ms"},
    {"segments.refresh_ms.p99", "ms"},
    {"segments.refresh_busy_frac", "fraction"},
    {"segments.visible_ms.p50", "ms"},
    {"segments.visible_ms.p99", "ms"},
    {"segments.fanout_mean", "count"},
    {"segments.merges", "count"},
    {"segments.baked", "count"},
}};

} // namespace boss::perfbench

#endif // BOSS_PERFBENCH_METRICS_H
