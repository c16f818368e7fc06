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
// Storage: every term is interned once, on first insert, into a per-index
// dictionary from term text to a uint32_t id: an open-addressing table of
// the terms' 64-bit hashes (linear probing, grown at half load) whose
// matches are confirmed by a full string compare. Each term id owns one
// posting list in insertion order. Remove erases the document's posting from
// each of its terms' lists, found by binary search on insertion order. A
// list therefore only ever holds live documents, df(t) is its length, and a
// score computed at any point in the index's life is bit-identical to a
// fresh build over the same live set.
//
// Adding a document is two steps. DocTerms::Analyze reads the text alone —
// one token walk that lowercases and hashes each token and counts each
// unique term — so any thread may run it; VectorDatabase::AddChunks runs it
// on the pool that embeds the corpus. Insert then interns the unique terms
// and appends the document's postings. Inserts run serially in document
// order, so lists, df, avgdl and every score are the same for any pool
// size; Add is the two steps for one document.
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
  // One slot of an open-addressing table of terms keyed by their hash, the
  // shape of both the analysis's per-document table and the index's term
  // dictionary: `id` indexes the table's terms, kNoTerm marks a free slot.
  // Tables are a power of two in size and grow at half load.
  static constexpr uint32_t kNoTerm = UINT32_MAX;
  struct Slot {
    uint64_t hash = 0;
    uint32_t id = kNoTerm;
  };
  // The first slot from `hash`'s home (linear probing) that is free or holds
  // a term with that hash for which same(id) holds.
  template <typename Same>
  static size_t Probe(const std::vector<Slot>& slots, uint64_t hash, Same&& same);
  // Doubles the table and re-inserts its terms.
  static void Grow(std::vector<Slot>& slots);

 public:
  // One document's terms, read without the index: each unique lowercase
  // token (src/text/ tokenizer — the same tokens F1 scoring and the profiler
  // see) once, in first-occurrence order, with its HashString64 and count.
  class DocTerms {
   public:
    // Replaces the contents with `text`'s terms, reusing this object's
    // buffers.
    void Analyze(std::string_view text);

   private:
    friend class LexicalIndex;
    struct Term {
      uint64_t hash;
      uint32_t begin;  // The term is bytes_[begin, begin + size).
      uint32_t size;
      int32_t tf;
    };
    std::string_view view(const Term& t) const { return {bytes_.data() + t.begin, t.size}; }

    std::string bytes_;        // The unique terms' bytes, concatenated.
    std::vector<Term> terms_;  // Unique terms, in first-occurrence order.
    int32_t len_ = 0;          // Token count.
    // Analyze's table over terms_, kept for its capacity.
    std::vector<Slot> slots_;
  };

  // Indexes an analyzed document. The id must not be live.
  void Insert(ChunkId id, const DocTerms& doc);
  // Analyze + Insert for one document.
  void Add(ChunkId id, std::string_view text);

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

  // The slot holding `term`, or the free slot where it would go.
  size_t FindSlot(std::string_view term, uint64_t hash) const;
  // The id of `term` (lowercase), interning it on first sight.
  uint32_t Intern(std::string_view term, uint64_t hash);

  std::unordered_map<ChunkId, DocInfo> docs_;  // Live documents.
  // The term dictionary only grows (up to the corpus vocabulary): slots_
  // over term_text_, which is indexed by id.
  std::vector<Slot> slots_ = std::vector<Slot>(16);
  std::vector<std::string> term_text_;
  // By term id: the live documents holding the term, in insertion order.
  std::vector<std::vector<Posting>> postings_;
  uint64_t total_live_len_ = 0;
  uint32_t next_order_ = 0;

  mutable std::atomic<uint64_t> searches_{0};
  mutable std::atomic<uint64_t> postings_scanned_{0};
};

}  // namespace metis

#endif  // METIS_SRC_VECTORDB_LEXICAL_INDEX_H_
