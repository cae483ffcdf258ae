#include "harness.h"

#include "metrics.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

namespace boss::perfbench
{

namespace
{

const auto kEpoch = std::chrono::steady_clock::now();

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
                 "workloads: paper_repro serve_cached serve_sharded "
                 "serve_ingest\n");
}

} // namespace

bool
parseOptions(int argc, char **argv, Options &out)
{
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage();
            return false;
        }
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            out.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            out.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            out.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || !(out.seconds > 0.0)) {
                usage();
                return false;
            }
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                usage();
                return false;
            }
            out.trace = value == "1";
        } else {
            usage();
            return false;
        }
        if (end != nullptr && *end != '\0') {
            usage();
            return false;
        }
    }
    if (!haveWorkload)
        usage();
    return haveWorkload;
}

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - kEpoch)
        .count();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = q * static_cast<double>(values.size() - 1);
    auto lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

std::uint64_t
Tracer::add(std::string name, double start, double end,
            std::uint64_t parent, std::uint64_t query)
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = std::move(name);
    s.start = start;
    s.end = end;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.query = query;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::vector<double>
Tracer::seconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(s.seconds());
    }
    return out;
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (double s : seconds(name))
        sum += s;
    return sum;
}

void
Report::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct_ = false;
    // Cap the explanation: one broken invariant can fail thousands
    // of queries the same way.
    if (++reportedFailures_ <= 20)
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void
Report::set(const std::string &name, double value)
{
    auto named = [&](const MetricDef &d) { return d.name == name; };
    if (std::none_of(kEndToEnd.begin(), kEndToEnd.end(), named) &&
        std::none_of(kPerLayer.begin(), kPerLayer.end(), named)) {
        std::fprintf(stderr, "internal error: unknown metric %s\n",
                     name.c_str());
        std::abort();
    }
    values_[name] = value;
}

void
Report::note(const std::string &line)
{
    std::fprintf(stderr, "%s\n", line.c_str());
}

void
Report::finish(bool traced)
{
    std::string body;
    auto emit = [&](const MetricDef &d) {
        auto it = values_.find(std::string(d.name));
        double v = 0.0;
        if (it != values_.end() && std::isfinite(it->second))
            v = it->second;
        else if (!traced)
            check(false, "end-to-end metric " + std::string(d.name) +
                             " was not measured");
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", v);
        body += std::string(body.empty() ? "\"" : ", \"") +
                std::string(d.name) + "\": {\"value\": " + value +
                ", \"unit\": \"" + std::string(d.unit) + "\"}";
    };
    if (traced) {
        for (const MetricDef &d : kPerLayer)
            emit(d);
    } else {
        for (const MetricDef &d : kEndToEnd)
            emit(d);
    }
    std::fflush(stderr);
    std::printf("{\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {%s}}\n",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), body.c_str());
    std::fflush(stdout);
}

void
setupMetrics(const Tracer &tracer, Report &report)
{
    report.set("workload.dataset_s",
               median(tracer.seconds("workload.dataset")));
    report.set("index.text_build_s",
               median(tracer.seconds("index.build")));
    report.set("index.load_s", median(tracer.seconds("index.load")));
}

unsigned
poolWorkers(unsigned reserved)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    unsigned n = sched_getaffinity(0, sizeof(set), &set) == 0
                     ? static_cast<unsigned>(CPU_COUNT(&set))
                     : std::thread::hardware_concurrency();
    n = std::max(1u, n);
    return n > reserved ? n - reserved : 1u;
}

WorkDir::WorkDir()
    : path_(".bench_build/work-" + std::to_string(::getpid()))
{
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

} // namespace boss::perfbench
