/**
 * @file
 * The benchmark's workloads. Each one sets up its inputs from the
 * seed, measures for the requested seconds, checks the program's
 * outputs against the index-free reference, and fills the report
 * with every end-to-end metric (untraced) or every per-layer metric
 * (traced) it exercises.
 */

#ifndef BOSS_PERFBENCH_WORKLOADS_H
#define BOSS_PERFBENCH_WORKLOADS_H

#include "harness.h"

namespace boss::perfbench
{

void runPaperRepro(const Options &opt, Report &report);

enum class Topology
{
    Cached,  ///< one accel::Device, mmap-loaded, DRAM block cache
    Sharded, ///< api::ShardedDevice, heap-loaded, no cache
};

void runServeFrozen(const Options &opt, Topology topology,
                    Report &report);

void runServeIngest(const Options &opt, Report &report);

} // namespace boss::perfbench

#endif // BOSS_PERFBENCH_WORKLOADS_H
