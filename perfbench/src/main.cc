/**
 * @file
 * Benchmark entry point:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 * The last line of stdout is the run's JSON result.
 */

#include <cstdio>

#include "common/logging.h"
#include "workloads.h"

int
main(int argc, char **argv)
{
    using namespace boss::perfbench;
    Options opt;
    if (!parseOptions(argc, argv, opt))
        return 2;
    boss::setVerbose(false);
    Report report;
    if (opt.workload == "paper_repro") {
        runPaperRepro(opt, report);
    } else if (opt.workload == "serve_cached") {
        runServeFrozen(opt, Topology::Cached, report);
    } else if (opt.workload == "serve_sharded") {
        runServeFrozen(opt, Topology::Sharded, report);
    } else if (opt.workload == "serve_ingest") {
        runServeIngest(opt, report);
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    report.finish(opt.trace);
    return 0;
}
