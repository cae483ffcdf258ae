/**
 * @file
 * Index-free reference: double-precision BM25 computed from the
 * benchmark's own generated documents, never from an index or a
 * stored copy of earlier output. The acceptance rule is the one of
 * tests/test_differential.cc: every returned document is a boolean
 * match, each returned score is within tolerance of its reference
 * score, ranks are score-ordered, the result holds min(k, matches)
 * documents, and no unreturned match beats the k-th score beyond
 * tolerance (the index stores idf and norms as floats, so a last-ulp
 * tie at the cutoff may legitimately go either way).
 */

#ifndef BOSS_PERFBENCH_REFERENCE_H
#define BOSS_PERFBENCH_REFERENCE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/plan.h"
#include "engine/topk.h"
#include "index/posting_list.h"

namespace boss::perfbench
{

/** Every matching document of one query with its reference score. */
struct Expected
{
    /** (doc, score), ascending by doc. */
    std::vector<std::pair<DocId, double>> byDoc;
    /**
     * The k + 1 best (score, doc) pairs, descending: all the
     * completeness test needs, since at most k docs are returned.
     */
    std::vector<std::pair<double, DocId>> byScore;
};

/**
 * BM25 over a document collection given by its lengths and its
 * (doc, tf) postings per term. @p alive, when non-empty, restricts
 * the collection to the documents it marks (survivors of deletes):
 * document count, average length and document frequencies are then
 * taken over survivors only, as a rebuild of the survivors would.
 */
class Reference
{
  public:
    Reference(const std::vector<std::uint32_t> &docLengths,
              std::vector<bool> alive = {});

    /**
     * Score @p plan for a top-@p k query (DNF groups; a term
     * contributes to a document when some group containing it
     * matches the document fully). @p postings(t) returns term t's
     * list ascending by doc.
     */
    template <typename PostingsFn>
    Expected
    expected(const engine::QueryPlan &plan, std::size_t k,
             PostingsFn &&postings) const
    {
        std::vector<const index::PostingList *> lists;
        for (TermId t : plan.allTerms)
            lists.push_back(&postings(t));
        return score(plan, k, lists);
    }

  private:
    Expected score(const engine::QueryPlan &plan, std::size_t k,
                   const std::vector<const index::PostingList *> &lists)
        const;
    bool alive(DocId d) const { return alive_.empty() || alive_[d]; }

    const std::vector<std::uint32_t> &docLengths_;
    std::vector<bool> alive_;
    double numDocs_ = 0.0;
    double avgDocLen_ = 0.0;
};

/**
 * Apply the acceptance rule to @p got (k results requested). On
 * failure returns false and explains in @p why.
 */
bool acceptTopK(const std::vector<engine::Result> &got,
                const Expected &ref, std::size_t k, std::string *why);

/**
 * Do two systems return the same top-k? Same length, rank-wise scores
 * equal within float tolerance (summation order differs between the
 * union and intersection paths), and the same documents except ones
 * tied with the cutoff score within that tolerance.
 */
bool sameTopK(const std::vector<engine::Result> &a,
              const std::vector<engine::Result> &b, std::string *why);

} // namespace boss::perfbench

#endif // BOSS_PERFBENCH_REFERENCE_H
