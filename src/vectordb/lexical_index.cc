#include "src/vectordb/lexical_index.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"
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

template <typename Same>
size_t LexicalIndex::Probe(const std::vector<Slot>& slots, uint64_t hash, Same&& same) {
  size_t mask = slots.size() - 1;
  size_t i = hash & mask;
  while (slots[i].id != kNoTerm && !(slots[i].hash == hash && same(slots[i].id))) {
    i = (i + 1) & mask;
  }
  return i;
}

void LexicalIndex::Grow(std::vector<Slot>& slots) {
  std::vector<Slot> old(slots.size() * 2);
  old.swap(slots);
  for (const Slot& s : old) {
    if (s.id != kNoTerm) {
      slots[Probe(slots, s.hash, [](uint32_t) { return false; })] = s;
    }
  }
}

void LexicalIndex::DocTerms::Analyze(std::string_view text) {
  METIS_CHECK_LT(text.size(), size_t{UINT32_MAX});
  // The unique terms' bytes never outgrow the text. Each token is written
  // at `used` as it is lowercased and hashed; only a new term advances it.
  bytes_.resize(text.size());
  size_t used = 0;
  terms_.clear();
  len_ = 0;
  if (slots_.empty()) {
    slots_.resize(64);
  }
  std::fill(slots_.begin(), slots_.end(), Slot{});
  ForEachToken(text, [&](std::string_view token) {
    ++len_;
    char* out = bytes_.data() + used;
    uint64_t fnv = kFnv64Offset;
    for (size_t j = 0; j < token.size(); ++j) {
      out[j] = LowerAscii(token[j]);
      fnv = Fnv64Step(fnv, static_cast<unsigned char>(out[j]));
    }
    Term term{FinishHash64(fnv), static_cast<uint32_t>(used), static_cast<uint32_t>(token.size()),
              1};
    size_t i = Probe(slots_, term.hash,
                     [&](uint32_t id) { return view(terms_[id]) == view(term); });
    if (slots_[i].id != kNoTerm) {
      ++terms_[slots_[i].id].tf;
      return;
    }
    used += token.size();
    slots_[i] = Slot{term.hash, static_cast<uint32_t>(terms_.size())};
    terms_.push_back(term);
    if (terms_.size() * 2 > slots_.size()) {
      Grow(slots_);
    }
  });
  bytes_.resize(used);
}

size_t LexicalIndex::FindSlot(std::string_view term, uint64_t hash) const {
  return Probe(slots_, hash, [&](uint32_t id) { return term_text_[id] == term; });
}

uint32_t LexicalIndex::Intern(std::string_view term, uint64_t hash) {
  size_t i = FindSlot(term, hash);
  if (slots_[i].id != kNoTerm) {
    return slots_[i].id;
  }
  METIS_CHECK_LT(term_text_.size(), size_t{kNoTerm});
  uint32_t id = static_cast<uint32_t>(term_text_.size());
  slots_[i] = Slot{hash, id};
  term_text_.emplace_back(term);
  postings_.emplace_back();
  if (term_text_.size() * 2 > slots_.size()) {
    Grow(slots_);
  }
  return id;
}

void LexicalIndex::Insert(ChunkId id, const DocTerms& doc) {
  auto [it, inserted] = docs_.try_emplace(id);
  METIS_CHECK(inserted);
  DocInfo& info = it->second;
  info.len = doc.len_;
  info.order = next_order_++;
  info.terms.reserve(doc.terms_.size());
  for (const DocTerms::Term& t : doc.terms_) {
    uint32_t term = Intern(doc.view(t), t.hash);
    postings_[term].push_back(Posting{id, t.tf, info.len, info.order});
    info.terms.push_back(term);
  }
  total_live_len_ += static_cast<uint64_t>(info.len);
}

void LexicalIndex::Add(ChunkId id, std::string_view text) {
  DocTerms doc;
  doc.Analyze(text);
  Insert(id, doc);
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
  DocTerms query;
  query.Analyze(query_text);
  std::vector<DocTerms::Term>& terms = query.terms_;
  std::sort(terms.begin(), terms.end(), [&query](const DocTerms::Term& a, const DocTerms::Term& b) {
    return query.view(a) < query.view(b);
  });
  double n = static_cast<double>(docs_.size());
  double avgdl = static_cast<double>(total_live_len_) / n;

  struct Scored {
    double score;
    uint32_t order;
    ChunkId id;
  };
  std::unordered_map<ChunkId, Scored> acc;
  uint64_t scanned = 0;
  for (const DocTerms::Term& t : terms) {
    uint32_t term = slots_[FindSlot(query.view(t), t.hash)].id;
    if (term == kNoTerm) continue;
    const std::vector<Posting>& list = postings_[term];
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
