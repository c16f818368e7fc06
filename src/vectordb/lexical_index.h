// Lexical retrieval backend: an inverted posting-list BM25 index over chunk
// text, the second leg of the hybrid Retriever layer (dense + lexical +
// metadata filters; see docs/ARCHITECTURE.md "Hybrid retrieval").
//
// Scoring is Okapi BM25 (k1 = 1.2, b = 0.75) with the Lucene-style
// non-negative idf
//
//     idf(t) = ln((N - df(t) + 0.5) / (df(t) + 0.5) + 1)
//
// where N, avgdl, and df(t) are EXACT statistics of the live document set —
// not approximations frozen at segment-build time. Add maintains them
// incrementally and Remove decrements them from the stored per-document term
// list, so a score computed at any point in the index's lifecycle is
// bit-identical to a fresh build over the same live set.
//
// Determinism contract (mirrors the dense substrate):
//   - Documents are hash-partitioned across shards by the same ShardOfId
//     used by the dense IndexShards, and each shard runs the memtable ->
//     sealed segment -> compaction lifecycle of MutableIndexOptions. None of
//     that structure is visible in results: a document's postings live in
//     exactly one structure at a time, query terms are deduplicated and
//     iterated in sorted order, and per-document scores accumulate in double
//     — so each document's score is a pure function of (its term
//     frequencies, the live-set statistics), invariant to shard count and
//     segment layout.
//   - Ranking runs under the (score descending, insertion order ascending)
//     total order. Insertion order is the global Add order, the same
//     tie-break role candidate order plays in the dense indexes. Per-shard
//     top-k lists merge under that total order, so every shard count returns
//     bit-identical hits.
//
// Storage: every term is interned once, on first Add, into a per-index
// dictionary (term text -> uint32_t id), and everything else is keyed by id.
// A shard's memtable is a hash map id -> postings (removes from it are
// eager); a sealed segment is immutable and flat — sorted term ids, offsets,
// and each term's postings in insertion order — and a term is found in it by
// binary search. Segments sit in seal order, which is insertion order, so
// compaction is a linear k-way merge by term id that needs no sort.
//
// Search returns SearchHit with distance = -score, so "lower distance =
// better" holds for both backends and fusion code can stay backend-blind.

#ifndef METIS_SRC_VECTORDB_LEXICAL_INDEX_H_
#define METIS_SRC_VECTORDB_LEXICAL_INDEX_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/vectordb/vectordb.h"

namespace metis {

// Snapshot of the search-side work counters (hybrid benches report lexical
// scan cost as postings scanned, the lexical analogue of rows visited).
struct LexicalIndexStats {
  uint64_t searches = 0;
  uint64_t postings_scanned = 0;
  uint64_t docs_scored = 0;
  uint64_t seals = 0;
  uint64_t compactions = 0;
};

class LexicalIndex {
 public:
  explicit LexicalIndex(size_t num_shards = 1, size_t memtable_rows = 256,
                        size_t compact_segments = 8);

  // Tokenizes `text` (src/text/ tokenizer — the same tokens F1 scoring and
  // the profiler see) and indexes the document. Ids must be unique.
  void Add(ChunkId id, const std::string& text);

  // Tombstones a document: it never appears in results again and the live
  // statistics (N, avgdl, df) are decremented exactly. Returns true when the
  // id was live. Memtable postings are erased eagerly; sealed postings are
  // masked until their shard's next compaction rewrites them away.
  bool Remove(ChunkId id);

  // Top-k by BM25 over the live set, best first, under the
  // (score desc, insertion order asc) total order. `exclude` is an extra
  // sorted id set filtered inside the scan (metadata-filter push-down);
  // tombstones are always filtered. distance = -score.
  std::vector<SearchHit> Search(const std::string& query_text, size_t k,
                                const IdFilter& exclude = {}) const;

  size_t num_docs() const { return live_docs_; }
  size_t num_shards() const { return shards_.size(); }
  // Total sealed (uncompacted + compacted) segments across shards.
  size_t num_segments() const;
  // Documents currently in shard memtables (live only).
  size_t memtable_docs() const;

  LexicalIndexStats stats() const;
  void ResetSearchStats() const;

 private:
  struct Posting {
    ChunkId id;
    int32_t tf;
    int32_t doc_len;
    uint32_t order;  // Global insertion order (tie-break rank).
  };

  // Term i's postings are postings[offsets[i], offsets[i + 1]).
  struct Segment {
    std::vector<uint32_t> terms;  // Sorted term ids.
    std::vector<size_t> offsets;  // terms.size() + 1 entries.
    std::vector<Posting> postings;
  };

  struct Shard {
    std::unordered_map<uint32_t, std::vector<Posting>> memtable;
    std::vector<ChunkId> memtable_ids;  // Live docs in the memtable.
    std::vector<Segment> segments;      // Seal order.
    std::vector<ChunkId> tombstones;    // Sorted; ids masked in sealed segments.
  };

  struct DocInfo {
    int32_t len = 0;
    uint32_t order = 0;
    bool live = false;
    bool sealed = false;  // Out of the memtable.
    // Unique (term id, count) pairs — what Remove needs to decrement df and
    // erase memtable postings without re-tokenizing.
    std::vector<std::pair<uint32_t, int32_t>> terms;
  };

  // The id of `term` (lowercase), interning it on first sight.
  uint32_t Intern(std::string_view term);
  void SealMemtable(Shard& shard);
  void MaybeCompact(Shard& shard);
  // Scores shard s for the resolved query terms; returns the shard's top-k
  // as (score, order, id), best first.
  struct Scored {
    double score;
    uint32_t order;
    ChunkId id;
  };
  struct QueryTerm {
    uint32_t term;
    double idf;
  };
  std::vector<Scored> ScoreShard(const Shard& shard, const std::vector<QueryTerm>& terms,
                                 size_t k, const IdFilter& exclude, double avgdl,
                                 uint64_t* postings_scanned, uint64_t* docs_scored) const;

  size_t memtable_rows_;
  size_t compact_segments_;
  std::vector<Shard> shards_;
  std::unordered_map<ChunkId, DocInfo> docs_;
  // The term dictionary only grows (up to the corpus vocabulary): term_text_
  // is indexed by id and, being a deque, never moves the strings term_ids_
  // keys view.
  std::deque<std::string> term_text_;
  std::unordered_map<std::string_view, uint32_t> term_ids_;
  std::vector<int64_t> df_;  // By term id; 0 once no live doc has the term.
  std::vector<uint32_t> add_ids_;  // Add's token ids, kept for its capacity.
  size_t live_docs_ = 0;
  uint64_t total_live_len_ = 0;
  uint32_t next_order_ = 0;
  uint64_t seals_ = 0;
  uint64_t compactions_ = 0;

  mutable std::atomic<uint64_t> searches_{0};
  mutable std::atomic<uint64_t> postings_scanned_{0};
  mutable std::atomic<uint64_t> docs_scored_{0};
};

}  // namespace metis

#endif  // METIS_SRC_VECTORDB_LEXICAL_INDEX_H_
