/**
 * @file
 * Seeded Zipf text corpus for the serving workloads. Word w<r> has
 * popularity rank r; documents are word-rank sequences rendered as
 * space-separated text (every word survives the tokenizer as-is, so
 * term frequencies and document lengths are known exactly). Queries
 * are the Q1-Q6 mix over the corpus's own words, rendered as API
 * expression strings.
 */

#ifndef BOSS_PERFBENCH_TEXT_CORPUS_H
#define BOSS_PERFBENCH_TEXT_CORPUS_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/plan.h"
#include "index/lexicon.h"
#include "index/posting_list.h"
#include "workload/queries.h"

namespace boss::perfbench
{

/** Zipf document generator over a fixed vocabulary. */
class DocGenerator
{
  public:
    DocGenerator(std::uint32_t vocab, std::uint64_t seed);

    /** Next document: word ranks, 10-40 tokens. */
    std::vector<TermId> next();

  private:
    ZipfSampler zipf_;
    Rng rng_;
};

/**
 * The benchmark's own copy of every document it generated: lengths
 * and per-word postings, the input of the index-free reference.
 */
struct DocStore
{
    explicit DocStore(std::uint32_t vocab) : postings(vocab) {}

    /** Record document @p doc (global ids are dense, in order). */
    void add(DocId doc, const std::vector<TermId> &words);

    std::vector<std::uint32_t> docLengths;
    /** Word rank -> (doc, tf), ascending by doc. */
    std::vector<index::PostingList> postings;
};

std::string wordOf(TermId rank);

std::string docText(const std::vector<TermId> &words);

/** Lexicon mapping word w<r> to TermId r, for every rank < vocab. */
index::Lexicon rankLexicon(std::uint32_t vocab);

/** One query: the term-rank form and its expression string. */
struct TextQuery
{
    workload::Query query;
    std::string expression;
    engine::QueryPlan plan; ///< over word ranks
};

/**
 * The query log: @p count distinct Q1-Q6 queries over words that
 * occur in @p docs. A word missing from the lexicon would terminate
 * the server (the planner treats it as fatal), so such queries are
 * left out. The log is fixed (its own constant seed), like a replayed
 * production log; the benchmark seed varies the corpus, the arrivals
 * and the writes under it. Per-query cost is heavy-tailed, so a
 * seeded log would move every mean and tail by which heavy queries
 * it happened to draw.
 */
std::vector<TextQuery> makeTextQueries(const DocStore &docs,
                                       std::uint32_t vocab,
                                       std::size_t count);

} // namespace boss::perfbench

#endif // BOSS_PERFBENCH_TEXT_CORPUS_H
