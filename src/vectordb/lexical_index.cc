#include "src/vectordb/lexical_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/text/tokenizer.h"

namespace metis {
namespace {

constexpr double kBm25K1 = 1.2;
constexpr double kBm25B = 0.75;

// One term's BM25 contribution. Pure double arithmetic over live-set
// statistics — bit-deterministic for a given (tf, doc_len, idf, avgdl).
double TermScore(double idf, int32_t tf, int32_t doc_len, double avgdl) {
  double norm = kBm25K1 * (1.0 - kBm25B + kBm25B * (static_cast<double>(doc_len) / avgdl));
  double tfd = static_cast<double>(tf);
  return idf * (tfd * (kBm25K1 + 1.0)) / (tfd + norm);
}

}  // namespace

uint32_t LexicalIndex::Intern(std::string_view term) {
  auto it = term_ids_.find(term);
  if (it != term_ids_.end()) {
    return it->second;
  }
  METIS_CHECK(term_text_.size() < std::numeric_limits<uint32_t>::max());
  uint32_t id = static_cast<uint32_t>(term_text_.size());
  term_text_.emplace_back(term);
  term_ids_.emplace(term_text_.back(), id);
  postings_.emplace_back();
  return id;
}

void LexicalIndex::Add(ChunkId id, const std::string& text) {
  auto [doc, inserted] = docs_.try_emplace(id);
  METIS_CHECK(inserted);
  DocInfo& info = doc->second;
  // Every token's term id, sorted so each term is one run.
  std::vector<uint32_t>& ids = add_ids_;
  ids.clear();
  std::string term;
  ForEachToken(text, [&](std::string_view token) {
    term.resize(token.size());
    std::transform(token.begin(), token.end(), term.begin(), LowerAscii);
    ids.push_back(Intern(term));
  });
  std::sort(ids.begin(), ids.end());

  info.len = static_cast<int32_t>(ids.size());
  info.order = next_order_++;
  for (size_t i = 0; i < ids.size();) {
    size_t j = i;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    postings_[ids[i]].push_back(Posting{id, static_cast<int32_t>(j - i), info.len, info.order});
    info.terms.push_back(ids[i]);
    i = j;
  }
  total_live_len_ += static_cast<uint64_t>(info.len);
}

bool LexicalIndex::Remove(ChunkId id) {
  auto it = docs_.find(id);
  if (it == docs_.end()) {
    return false;
  }
  const DocInfo& info = it->second;
  for (uint32_t term : info.terms) {
    std::vector<Posting>& list = postings_[term];
    auto pos = std::lower_bound(list.begin(), list.end(), info.order,
                                [](const Posting& p, uint32_t order) { return p.order < order; });
    METIS_CHECK(pos != list.end() && pos->id == id);
    list.erase(pos);
  }
  total_live_len_ -= static_cast<uint64_t>(info.len);
  docs_.erase(it);
  return true;
}

std::vector<SearchHit> LexicalIndex::Search(const std::string& query_text, size_t k,
                                            const IdFilter& exclude) const {
  searches_.fetch_add(1, std::memory_order_relaxed);
  if (k == 0 || docs_.empty()) {
    return {};
  }
  // Unique query terms in string order (the order each document's score
  // sums in) with live-set idf. A term never indexed, or with an empty
  // list, matches nothing and is dropped up front.
  std::vector<std::string> tokens = Tokenize(query_text);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  double n = static_cast<double>(docs_.size());
  double avgdl = static_cast<double>(total_live_len_) / n;

  struct Scored {
    double score;
    uint32_t order;
    ChunkId id;
  };
  std::unordered_map<ChunkId, Scored> acc;
  uint64_t scanned = 0;
  for (const std::string& t : tokens) {
    auto it = term_ids_.find(t);
    if (it == term_ids_.end()) continue;
    const std::vector<Posting>& list = postings_[it->second];
    if (list.empty()) continue;
    double df = static_cast<double>(list.size());
    double idf = std::log((n - df + 0.5) / (df + 0.5) + 1.0);
    scanned += list.size();
    for (const Posting& p : list) {
      if (!exclude.empty() && exclude.contains(p.id)) continue;
      Scored& s = acc.try_emplace(p.id, Scored{0.0, p.order, p.id}).first->second;
      s.score += TermScore(idf, p.tf, p.doc_len, avgdl);
    }
  }
  postings_scanned_.fetch_add(scanned, std::memory_order_relaxed);

  std::vector<Scored> scored;
  scored.reserve(acc.size());
  for (const auto& entry : acc) {
    scored.push_back(entry.second);
  }
  auto better = [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.order < b.order;
  };
  if (scored.size() > k) {
    std::partial_sort(scored.begin(), scored.begin() + k, scored.end(), better);
    scored.resize(k);
  } else {
    std::sort(scored.begin(), scored.end(), better);
  }
  std::vector<SearchHit> hits;
  hits.reserve(scored.size());
  for (const Scored& s : scored) {
    hits.push_back(SearchHit{s.id, -static_cast<float>(s.score)});
  }
  return hits;
}

LexicalIndexStats LexicalIndex::stats() const {
  LexicalIndexStats out;
  out.searches = searches_.load(std::memory_order_relaxed);
  out.postings_scanned = postings_scanned_.load(std::memory_order_relaxed);
  return out;
}

void LexicalIndex::ResetSearchStats() const {
  searches_.store(0, std::memory_order_relaxed);
  postings_scanned_.store(0, std::memory_order_relaxed);
}

}  // namespace metis
