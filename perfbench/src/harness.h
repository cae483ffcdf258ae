/**
 * @file
 * Shared harness of the repository benchmark: command-line options,
 * host clock, in-memory spans for the traced run, the run ledger and
 * the one-line JSON result.
 *
 * Every workload measures from outside: it times calls into the
 * library's public functions. With --trace 0 nothing is recorded and
 * the workload reports its end-to-end metrics; with --trace 1 the
 * same calls are wrapped in spans held in memory until the run ends,
 * and every per-layer metric is derived from those spans (plus counts
 * taken at the same call boundaries).
 */

#ifndef BOSS_PERFBENCH_HARNESS_H
#define BOSS_PERFBENCH_HARNESS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace boss::perfbench
{

/** Parsed command line: --workload --seed --seconds --trace. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Parse argv; returns false (after printing usage) on bad input. */
bool parseOptions(int argc, char **argv, Options &out);

/** Host steady clock in seconds since the process started. */
double nowSec();

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/** Linear-interpolated percentile (q in [0,1]); 0 for no samples. */
double percentile(std::vector<double> values, double q);

double median(std::vector<double> values);

double mean(const std::vector<double> &values);

/** Geometric mean of positive values (0 for an empty set). */
double geomean(const std::vector<double> &values);

/**
 * One timed interval of the traced run. Times are host seconds from
 * nowSec(); parent and query are 0 when absent (span ids start at 1).
 */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t query = 0;

    double seconds() const { return end - start; }
};

/**
 * In-memory span store, written out as metrics when the run ends.
 * add() is thread-safe; when disabled it is a no-op returning 0.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    std::uint64_t add(std::string name, double start, double end,
                      std::uint64_t parent = 0,
                      std::uint64_t query = 0);

    /** Durations in seconds of every span called @p name. */
    std::vector<double> seconds(const std::string &name) const;

    /** Summed duration in seconds of every span called @p name. */
    double total(const std::string &name) const;

    /** All spans, in the order they were added (post-run only). */
    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * The run's ledger and result: operations attempted and failed,
 * correctness checks, and the metrics printed as the last line.
 */
class Report
{
  public:
    /** Record attempted operations and how many of them failed. */
    void operations(std::uint64_t attempted, std::uint64_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    /**
     * A correctness check on the program's outputs or the ledger.
     * A false check makes the run incorrect and is explained on
     * stderr.
     */
    void check(bool ok, const std::string &what);

    /** Set a catalogued metric (metrics.h); unknown names abort. */
    void set(const std::string &name, double value);

    /** A ledger line (stderr) and nothing else. */
    void note(const std::string &line);

    /**
     * Print the result line on stdout: every end-to-end metric, or
     * with @p traced every per-layer one (unset per-layer metrics
     * read 0; an unset end-to-end metric makes the run incorrect).
     */
    void finish(bool traced);

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
    std::size_t reportedFailures_ = 0;
    std::map<std::string, double> values_;
};

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetupReps = 3;

/**
 * Set up @p out kSetupReps times with @p setUp, freeing each copy
 * before making the next, and return the median set-up time.
 */
template <typename T, typename F>
double
repeatSetUp(T &out, F &&setUp)
{
    std::vector<double> times;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        out = T{};
        double t0 = nowSec();
        out = setUp();
        times.push_back(nowSec() - t0);
    }
    return median(std::move(times));
}

/**
 * Per-layer set-up metrics from the "workload.dataset", "index.build"
 * and "index.load" spans every workload records around its set-up
 * steps (medians over the set-up repetitions).
 */
void setupMetrics(const Tracer &tracer, Report &report);

/**
 * Threads a workload may use besides its own fixed ones: nproc minus
 * @p reserved, at least one.
 */
unsigned poolWorkers(unsigned reserved);

/** Scratch directory inside the checkout, removed on destruction. */
class WorkDir
{
  public:
    WorkDir();
    ~WorkDir();
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace boss::perfbench

#endif // BOSS_PERFBENCH_HARNESS_H
