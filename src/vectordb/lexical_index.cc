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
// statistics — bit-deterministic for a given (tf, doc_len, idf, avgdl)
// regardless of which structure the posting was read from.
double TermScore(double idf, int32_t tf, int32_t doc_len, double avgdl) {
  double norm = kBm25K1 * (1.0 - kBm25B + kBm25B * (static_cast<double>(doc_len) / avgdl));
  double tfd = static_cast<double>(tf);
  return idf * (tfd * (kBm25K1 + 1.0)) / (tfd + norm);
}

}  // namespace

LexicalIndex::LexicalIndex(size_t num_shards, size_t memtable_rows, size_t compact_segments)
    : memtable_rows_(memtable_rows), compact_segments_(compact_segments) {
  METIS_CHECK(num_shards >= 1);
  METIS_CHECK(memtable_rows_ >= 1);
  METIS_CHECK(compact_segments_ >= 2);
  shards_.resize(num_shards);
}

uint32_t LexicalIndex::Intern(std::string_view term) {
  auto it = term_ids_.find(term);
  if (it != term_ids_.end()) {
    return it->second;
  }
  METIS_CHECK(term_text_.size() < std::numeric_limits<uint32_t>::max());
  uint32_t id = static_cast<uint32_t>(term_text_.size());
  term_text_.emplace_back(term);
  term_ids_.emplace(term_text_.back(), id);
  df_.push_back(0);
  return id;
}

void LexicalIndex::Add(ChunkId id, const std::string& text) {
  METIS_CHECK(docs_.find(id) == docs_.end());
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

  DocInfo info;
  info.len = static_cast<int32_t>(ids.size());
  info.order = next_order_++;
  info.live = true;
  for (size_t i = 0; i < ids.size();) {
    size_t j = i;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    info.terms.emplace_back(ids[i], static_cast<int32_t>(j - i));
    i = j;
  }

  Shard& shard = shards_[ShardOfId(id, shards_.size())];
  for (const auto& [t, tf] : info.terms) {
    shard.memtable[t].push_back(Posting{id, tf, info.len, info.order});
    ++df_[t];
  }
  shard.memtable_ids.push_back(id);
  ++live_docs_;
  total_live_len_ += static_cast<uint64_t>(info.len);
  docs_.emplace(id, std::move(info));

  if (shard.memtable_ids.size() >= memtable_rows_) {
    SealMemtable(shard);
    MaybeCompact(shard);
  }
}

bool LexicalIndex::Remove(ChunkId id) {
  auto it = docs_.find(id);
  if (it == docs_.end() || !it->second.live) {
    return false;
  }
  DocInfo& info = it->second;
  info.live = false;
  --live_docs_;
  total_live_len_ -= static_cast<uint64_t>(info.len);
  for (const auto& [term, tf] : info.terms) {
    (void)tf;
    METIS_CHECK(df_[term] > 0);
    --df_[term];
  }

  Shard& shard = shards_[ShardOfId(id, shards_.size())];
  if (!info.sealed) {
    // Memtable postings are mutable: erase them in place. Surviving posting
    // order within a vector is irrelevant to results (scores accumulate per
    // document, not per vector position).
    for (const auto& [term, tf] : info.terms) {
      (void)tf;
      auto pi = shard.memtable.find(term);
      METIS_CHECK(pi != shard.memtable.end());
      auto& vec = pi->second;
      vec.erase(std::remove_if(vec.begin(), vec.end(),
                               [id](const Posting& p) { return p.id == id; }),
                vec.end());
      if (vec.empty()) {
        shard.memtable.erase(pi);
      }
    }
    auto pos = std::find(shard.memtable_ids.begin(), shard.memtable_ids.end(), id);
    METIS_CHECK(pos != shard.memtable_ids.end());
    shard.memtable_ids.erase(pos);
  } else {
    // Sealed postings are immutable: mask via the shard tombstone set until
    // compaction rewrites the segments without them.
    auto pos = std::lower_bound(shard.tombstones.begin(), shard.tombstones.end(), id);
    shard.tombstones.insert(pos, id);
  }
  return true;
}

void LexicalIndex::SealMemtable(Shard& shard) {
  // Every doc in the memtable leaves it, including one with no tokens and so
  // no postings.
  for (ChunkId id : shard.memtable_ids) {
    docs_[id].sealed = true;
  }
  shard.memtable_ids.clear();
  if (shard.memtable.empty()) {
    return;
  }
  std::vector<std::pair<uint32_t, const std::vector<Posting>*>> terms;
  terms.reserve(shard.memtable.size());
  size_t num_postings = 0;
  for (const auto& [term, postings] : shard.memtable) {
    terms.emplace_back(term, &postings);
    num_postings += postings.size();
  }
  std::sort(terms.begin(), terms.end());
  Segment seg;
  seg.terms.reserve(terms.size());
  seg.offsets.reserve(terms.size() + 1);
  seg.postings.reserve(num_postings);
  seg.offsets.push_back(0);
  for (const auto& [term, postings] : terms) {
    seg.terms.push_back(term);
    seg.postings.insert(seg.postings.end(), postings->begin(), postings->end());
    seg.offsets.push_back(seg.postings.size());
  }
  shard.segments.push_back(std::move(seg));
  shard.memtable.clear();
  ++seals_;
}

void LexicalIndex::MaybeCompact(Shard& shard) {
  if (shard.segments.size() < compact_segments_) {
    return;
  }
  // Merge by term id. Each term's postings concatenate in segment (= seal =
  // insertion) order, so they stay in insertion order without a sort.
  IdFilter dead{shard.tombstones.data(), shard.tombstones.data() + shard.tombstones.size()};
  const std::vector<Segment>& segs = shard.segments;
  std::vector<size_t> cursor(segs.size(), 0);
  Segment merged;
  size_t num_postings = 0;
  for (const Segment& seg : segs) {
    num_postings += seg.postings.size();
  }
  merged.postings.reserve(num_postings);
  merged.offsets.push_back(0);
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  while (true) {
    uint32_t term = kNone;
    for (size_t s = 0; s < segs.size(); ++s) {
      if (cursor[s] < segs[s].terms.size()) {
        term = std::min(term, segs[s].terms[cursor[s]]);
      }
    }
    if (term == kNone) {
      break;
    }
    for (size_t s = 0; s < segs.size(); ++s) {
      size_t& c = cursor[s];
      if (c < segs[s].terms.size() && segs[s].terms[c] == term) {
        for (size_t p = segs[s].offsets[c]; p < segs[s].offsets[c + 1]; ++p) {
          const Posting& posting = segs[s].postings[p];
          if (dead.empty() || !dead.contains(posting.id)) {
            merged.postings.push_back(posting);
          }
        }
        ++c;
      }
    }
    if (merged.postings.size() > merged.offsets.back()) {
      merged.terms.push_back(term);
      merged.offsets.push_back(merged.postings.size());
    }
  }
  shard.segments.clear();
  if (!merged.terms.empty()) {
    shard.segments.push_back(std::move(merged));
  }
  // Tombstoned ids can only have lived in sealed segments (memtable removes
  // are eager), and every sealed segment of this shard was just rewritten
  // without them — the mask set is empty again.
  shard.tombstones.clear();
  ++compactions_;
}

std::vector<LexicalIndex::Scored> LexicalIndex::ScoreShard(
    const Shard& shard, const std::vector<QueryTerm>& terms, size_t k, const IdFilter& exclude,
    double avgdl, uint64_t* postings_scanned, uint64_t* docs_scored) const {
  IdFilter dead{shard.tombstones.data(), shard.tombstones.data() + shard.tombstones.size()};
  std::unordered_map<ChunkId, Scored> acc;
  auto scan = [&](const Posting* begin, const Posting* end, double idf) {
    for (const Posting* p = begin; p != end; ++p) {
      ++*postings_scanned;
      if (!dead.empty() && dead.contains(p->id)) continue;
      if (!exclude.empty() && exclude.contains(p->id)) continue;
      auto [ai, inserted] = acc.try_emplace(p->id, Scored{0.0, p->order, p->id});
      (void)inserted;
      ai->second.score += TermScore(idf, p->tf, p->doc_len, avgdl);
    }
  };
  // Terms outer (sorted by the caller), structures inner: a document's
  // postings live in exactly one structure, so its score accumulates in
  // term-sorted order no matter how the shard's lifecycle has arranged them.
  for (const QueryTerm& qt : terms) {
    auto mi = shard.memtable.find(qt.term);
    if (mi != shard.memtable.end()) {
      scan(mi->second.data(), mi->second.data() + mi->second.size(), qt.idf);
    }
    for (const Segment& seg : shard.segments) {
      auto ti = std::lower_bound(seg.terms.begin(), seg.terms.end(), qt.term);
      if (ti != seg.terms.end() && *ti == qt.term) {
        size_t t = static_cast<size_t>(ti - seg.terms.begin());
        scan(seg.postings.data() + seg.offsets[t], seg.postings.data() + seg.offsets[t + 1],
             qt.idf);
      }
    }
  }
  *docs_scored += acc.size();

  std::vector<Scored> scored;
  scored.reserve(acc.size());
  for (const auto& [id, s] : acc) {
    (void)id;
    scored.push_back(s);
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
  return scored;
}

std::vector<SearchHit> LexicalIndex::Search(const std::string& query_text, size_t k,
                                            const IdFilter& exclude) const {
  searches_.fetch_add(1, std::memory_order_relaxed);
  if (k == 0 || live_docs_ == 0) {
    return {};
  }
  // Unique query terms in string order (the order each document's score
  // sums in) with live-set idf. A term never indexed, or with df == 0, has
  // no live postings anywhere and is dropped up front.
  std::vector<std::string> tokens = Tokenize(query_text);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  double n = static_cast<double>(live_docs_);
  std::vector<QueryTerm> terms;
  terms.reserve(tokens.size());
  for (const std::string& t : tokens) {
    auto it = term_ids_.find(t);
    if (it == term_ids_.end() || df_[it->second] == 0) continue;
    double df = static_cast<double>(df_[it->second]);
    double idf = std::log((n - df + 0.5) / (df + 0.5) + 1.0);
    terms.push_back(QueryTerm{it->second, idf});
  }
  if (terms.empty()) {
    return {};
  }
  double avgdl = static_cast<double>(total_live_len_) / n;

  size_t num_shards = shards_.size();
  std::vector<std::vector<Scored>> per_shard(num_shards);
  std::vector<uint64_t> postings(num_shards, 0), docs(num_shards, 0);
  for (size_t s = 0; s < num_shards; ++s) {
    per_shard[s] = ScoreShard(shards_[s], terms, k, exclude, avgdl, &postings[s], &docs[s]);
  }

  uint64_t total_postings = 0, total_docs = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    total_postings += postings[s];
    total_docs += docs[s];
  }
  postings_scanned_.fetch_add(total_postings, std::memory_order_relaxed);
  docs_scored_.fetch_add(total_docs, std::memory_order_relaxed);

  // Merge per-shard top-k under the shared total order. Documents are
  // disjoint across shards and per-doc scores are structure-invariant, so
  // this reproduces the single-shard ranking bit for bit.
  std::vector<Scored> merged;
  for (auto& list : per_shard) {
    merged.insert(merged.end(), list.begin(), list.end());
  }
  std::sort(merged.begin(), merged.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.order < b.order;
  });
  if (merged.size() > k) {
    merged.resize(k);
  }
  std::vector<SearchHit> hits;
  hits.reserve(merged.size());
  for (const Scored& s : merged) {
    hits.push_back(SearchHit{s.id, -static_cast<float>(s.score)});
  }
  return hits;
}

size_t LexicalIndex::num_segments() const {
  size_t n = 0;
  for (const Shard& s : shards_) {
    n += s.segments.size();
  }
  return n;
}

size_t LexicalIndex::memtable_docs() const {
  size_t n = 0;
  for (const Shard& s : shards_) {
    n += s.memtable_ids.size();
  }
  return n;
}

LexicalIndexStats LexicalIndex::stats() const {
  LexicalIndexStats out;
  out.searches = searches_.load(std::memory_order_relaxed);
  out.postings_scanned = postings_scanned_.load(std::memory_order_relaxed);
  out.docs_scored = docs_scored_.load(std::memory_order_relaxed);
  out.seals = seals_;
  out.compactions = compactions_;
  return out;
}

void LexicalIndex::ResetSearchStats() const {
  searches_.store(0, std::memory_order_relaxed);
  postings_scanned_.store(0, std::memory_order_relaxed);
  docs_scored_.store(0, std::memory_order_relaxed);
}

}  // namespace metis
