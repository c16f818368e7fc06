// Lexical retrieval backend: an inverted posting-list BM25 index over chunk
// text, the second leg of the hybrid Retriever layer (dense + lexical +
// metadata filters; see docs/ARCHITECTURE.md "Hybrid retrieval").
//
// Scoring is Okapi BM25 (k1 = 1.2, b = 0.75) with the Lucene-style
// non-negative idf
//
//     idf(t) = ln((N - df(t) + 0.5) / (df(t) + 0.5) + 1)
//
// where N, avgdl, and df(t) are EXACT statistics of the live document set.
//
// Storage: every term is interned once, on first Add, into a per-index
// dictionary (term text -> uint32_t id), and each term id owns one posting
// list in insertion order. Add appends to the lists of the document's terms;
// Remove erases the document's posting from each of them, found by binary
// search on insertion order. A list therefore only ever holds live
// documents, df(t) is its length, and a score computed at any point in the
// index's life is bit-identical to a fresh build over the same live set.
//
// Determinism contract (mirrors the dense substrate): query terms are
// deduplicated and scored in sorted order, and each document's score
// accumulates in double in that order, so it is a pure function of (its term
// frequencies, the live-set statistics). Ranking runs under the
// (score descending, insertion order ascending) total order. Insertion order
// is the global Add order, the same tie-break role candidate order plays in
// the dense indexes.
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
  // Postings read from the query terms' lists: live documents only, those
  // the exclusion filter drops included.
  uint64_t postings_scanned = 0;
};

class LexicalIndex {
 public:
  // Tokenizes `text` (src/text/ tokenizer — the same tokens F1 scoring and
  // the profiler see) and indexes the document. The id must not be live.
  void Add(ChunkId id, const std::string& text);

  // Erases a document: it never appears in results again and the live
  // statistics (N, avgdl, df) drop exactly. Returns true when the id was
  // live.
  bool Remove(ChunkId id);

  // Top-k by BM25 over the live set, best first, under the
  // (score desc, insertion order asc) total order. `exclude` is an extra
  // sorted id set filtered inside the scan (metadata-filter push-down).
  // distance = -score.
  std::vector<SearchHit> Search(const std::string& query_text, size_t k,
                                const IdFilter& exclude = {}) const;

  LexicalIndexStats stats() const;
  void ResetSearchStats() const;

 private:
  struct Posting {
    ChunkId id;
    int32_t tf;
    int32_t doc_len;
    uint32_t order;  // Global insertion order (tie-break rank).
  };

  struct DocInfo {
    int32_t len = 0;
    uint32_t order = 0;
    // Unique term ids — the lists Remove erases the document from, without
    // re-tokenizing.
    std::vector<uint32_t> terms;
  };

  // The id of `term` (lowercase), interning it on first sight.
  uint32_t Intern(std::string_view term);

  std::unordered_map<ChunkId, DocInfo> docs_;  // Live documents.
  // The term dictionary only grows (up to the corpus vocabulary): term_text_
  // is indexed by id and, being a deque, never moves the strings term_ids_
  // keys view.
  std::deque<std::string> term_text_;
  std::unordered_map<std::string_view, uint32_t> term_ids_;
  // By term id: the live documents holding the term, in insertion order.
  std::vector<std::vector<Posting>> postings_;
  std::vector<uint32_t> add_ids_;  // Add's token ids, kept for its capacity.
  uint64_t total_live_len_ = 0;
  uint32_t next_order_ = 0;

  mutable std::atomic<uint64_t> searches_{0};
  mutable std::atomic<uint64_t> postings_scanned_{0};
};

}  // namespace metis

#endif  // METIS_SRC_VECTORDB_LEXICAL_INDEX_H_
