#include "reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

namespace boss::perfbench
{

namespace
{

constexpr double kK1 = 1.2;
constexpr double kB = 0.75;
/** Relative tolerance (the stored index rounds idf/norms to float). */
constexpr double kTolerance = 1e-4;

double
bound(double score)
{
    return kTolerance * std::max(1.0, std::abs(score));
}

} // namespace

Reference::Reference(const std::vector<std::uint32_t> &docLengths,
                     std::vector<bool> alive)
    : docLengths_(docLengths), alive_(std::move(alive))
{
    double total = 0.0;
    std::size_t count = 0;
    for (DocId d = 0; d < docLengths_.size(); ++d) {
        if (!this->alive(d))
            continue;
        total += static_cast<double>(docLengths_[d]);
        ++count;
    }
    numDocs_ = static_cast<double>(count);
    avgDocLen_ = count > 0 ? total / numDocs_ : 0.0;
}

Expected
Reference::score(const engine::QueryPlan &plan, std::size_t k,
                 const std::vector<const index::PostingList *> &lists)
    const
{
    const std::size_t n = lists.size();
    // Terms by position in plan.allTerms; groups as term bitmasks.
    std::vector<std::uint64_t> groupMasks;
    for (const auto &g : plan.groups) {
        std::uint64_t m = 0;
        for (TermId t : g) {
            auto pos = std::find(plan.allTerms.begin(),
                                 plan.allTerms.end(), t) -
                       plan.allTerms.begin();
            m |= 1ull << pos;
        }
        groupMasks.push_back(m);
    }
    std::vector<double> idf(n);
    for (std::size_t i = 0; i < n; ++i) {
        double df = 0.0;
        for (const auto &p : *lists[i])
            df += alive(p.doc) ? 1.0 : 0.0;
        idf[i] = std::log((numDocs_ - df + 0.5) / (df + 0.5) + 1.0);
    }

    // N-way merge by doc over the term lists (n is small).
    Expected out;
    std::vector<std::size_t> pos(n, 0);
    std::vector<TermFreq> tf(n, 0);
    for (;;) {
        DocId doc = std::numeric_limits<DocId>::max();
        for (std::size_t i = 0; i < n; ++i) {
            if (pos[i] < lists[i]->size())
                doc = std::min(doc, (*lists[i])[pos[i]].doc);
        }
        if (doc == std::numeric_limits<DocId>::max())
            break;
        std::uint64_t present = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (pos[i] < lists[i]->size() &&
                (*lists[i])[pos[i]].doc == doc) {
                present |= 1ull << i;
                tf[i] = (*lists[i])[pos[i]].tf;
                ++pos[i];
            }
        }
        if (!alive(doc))
            continue;
        std::uint64_t contributing = 0;
        for (std::uint64_t g : groupMasks) {
            if ((present & g) == g)
                contributing |= g;
        }
        if (contributing == 0)
            continue;
        double norm =
            kK1 * (1.0 - kB +
                   kB * static_cast<double>(docLengths_[doc]) /
                       avgDocLen_);
        double s = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            if ((contributing >> i) & 1u) {
                double f = static_cast<double>(tf[i]);
                s += idf[i] * f * (kK1 + 1.0) / (f + norm);
            }
        }
        out.byDoc.emplace_back(doc, s);
    }
    out.byScore.reserve(out.byDoc.size());
    for (const auto &[d, s] : out.byDoc)
        out.byScore.emplace_back(s, d);
    const std::size_t keep = std::min(k + 1, out.byScore.size());
    std::partial_sort(out.byScore.begin(), out.byScore.begin() + keep,
                      out.byScore.end(),
                      [](const auto &a, const auto &b) {
                          return a.first > b.first ||
                                 (a.first == b.first &&
                                  a.second < b.second);
                      });
    out.byScore.resize(keep);
    return out;
}

bool
acceptTopK(const std::vector<engine::Result> &got, const Expected &ref,
           std::size_t k, std::string *why)
{
    auto fail = [why](std::string msg) {
        if (why != nullptr)
            *why = std::move(msg);
        return false;
    };
    if (got.size() != std::min(k, ref.byDoc.size()))
        return fail("returned " + std::to_string(got.size()) +
                    " results, expected " +
                    std::to_string(std::min(k, ref.byDoc.size())));
    std::unordered_set<DocId> returned;
    for (std::size_t r = 0; r < got.size(); ++r) {
        if (r > 0 && got[r].score > got[r - 1].score + 1e-9f)
            return fail("rank " + std::to_string(r) +
                        " out of score order");
        auto it = std::lower_bound(
            ref.byDoc.begin(), ref.byDoc.end(), got[r].doc,
            [](const auto &p, DocId d) { return p.first < d; });
        if (it == ref.byDoc.end() || it->first != got[r].doc)
            return fail("doc " + std::to_string(got[r].doc) +
                        " is not a boolean match");
        if (std::abs(static_cast<double>(got[r].score) - it->second) >
            bound(it->second))
            return fail("doc " + std::to_string(got[r].doc) +
                        " score " + std::to_string(got[r].score) +
                        " vs reference " + std::to_string(it->second));
        if (!returned.insert(got[r].doc).second)
            return fail("doc " + std::to_string(got[r].doc) +
                        " returned twice");
    }
    if (got.size() == k && !got.empty()) {
        double cutoff = static_cast<double>(got.back().score);
        for (const auto &[s, d] : ref.byScore) {
            if (returned.count(d) != 0)
                continue;
            // byScore is descending: the first unreturned match is
            // the strongest one left out.
            if (s > cutoff + bound(s))
                return fail("unreturned doc " + std::to_string(d) +
                            " outscores the cutoff");
            break;
        }
    }
    return true;
}

bool
sameTopK(const std::vector<engine::Result> &a,
         const std::vector<engine::Result> &b, std::string *why)
{
    auto fail = [why](std::string msg) {
        if (why != nullptr)
            *why = std::move(msg);
        return false;
    };
    if (a.size() != b.size())
        return fail("result counts differ");
    constexpr double kFloatTolerance = 1e-6;
    auto near = [](double x, double y) {
        return std::abs(x - y) <=
               kFloatTolerance * std::max(1.0, std::abs(x));
    };
    for (std::size_t r = 0; r < a.size(); ++r) {
        if (!near(a[r].score, b[r].score))
            return fail("rank " + std::to_string(r) + " scores differ");
    }
    if (a.empty())
        return true;
    const double cutoff = a.back().score;
    std::unordered_set<DocId> inA;
    for (const auto &r : a)
        inA.insert(r.doc);
    for (const auto &r : b) {
        if (inA.count(r.doc) == 0 && !near(r.score, cutoff))
            return fail("doc " + std::to_string(r.doc) +
                        " returned by one system only");
    }
    return true;
}

} // namespace boss::perfbench
