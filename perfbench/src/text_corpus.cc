#include "text_corpus.h"

#include <algorithm>
#include <unordered_map>

namespace boss::perfbench
{

namespace
{

/** Zipf exponent of word popularity (natural-language-like). */
constexpr double kZipfS = 1.0;
constexpr TermId kMinQueryRank = 0;

} // namespace

DocGenerator::DocGenerator(std::uint32_t vocab, std::uint64_t seed)
    : zipf_(vocab, kZipfS), rng_(seed)
{
}

std::vector<TermId>
DocGenerator::next()
{
    const auto len = 10 + static_cast<std::uint32_t>(rng_.below(31));
    std::vector<TermId> words(len);
    for (auto &w : words)
        w = static_cast<TermId>(zipf_(rng_));
    return words;
}

void
DocStore::add(DocId doc, const std::vector<TermId> &words)
{
    if (docLengths.size() <= doc)
        docLengths.resize(doc + 1, 0);
    docLengths[doc] = static_cast<std::uint32_t>(words.size());
    std::unordered_map<TermId, TermFreq> tf;
    for (TermId w : words)
        ++tf[w];
    for (const auto &[w, f] : tf)
        postings[w].push_back({doc, f});
}

std::string
wordOf(TermId rank)
{
    return "w" + std::to_string(rank);
}

std::string
docText(const std::vector<TermId> &words)
{
    std::string text;
    for (TermId w : words) {
        text += wordOf(w);
        text += ' ';
    }
    return text;
}

index::Lexicon
rankLexicon(std::uint32_t vocab)
{
    index::Lexicon lex;
    for (TermId r = 0; r < vocab; ++r)
        lex.addTerm(wordOf(r));
    return lex;
}

std::vector<TextQuery>
makeTextQueries(const DocStore &docs, std::uint32_t vocab,
                std::size_t count)
{
    workload::QueryWorkloadConfig cfg;
    cfg.vocabSize = vocab;
    cfg.seed = 7;
    std::vector<TextQuery> out;
    // Oversample, then keep the first `count` whose words all occur.
    auto sampled = workload::sampleQueries(cfg, 2 * count);
    for (auto &q : sampled) {
        bool present = std::all_of(
            q.terms.begin(), q.terms.end(), [&](TermId t) {
                return t >= kMinQueryRank && !docs.postings[t].empty();
            });
        if (!present)
            continue;
        TextQuery tq;
        tq.plan = engine::planQuery(q);
        // toExpression names term r "t<r>"; the corpus calls it w<r>.
        tq.expression = q.toExpression();
        for (auto &c : tq.expression) {
            if (c == 't')
                c = 'w';
        }
        tq.query = std::move(q);
        out.push_back(std::move(tq));
        if (out.size() == count)
            break;
    }
    return out;
}

} // namespace boss::perfbench
