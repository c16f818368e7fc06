// Vector database: chunk store + similarity index.
//
// Mirrors the paper's retrieval substrate (FAISS IndexFlatL2 over
// Cohere-embed-v3 chunk embeddings, §6): documents are split into fixed-size
// token chunks, each chunk is embedded, and queries retrieve top-k chunks by
// exact L2 distance. An IVF index is the accelerated backend; its recall/
// latency tradeoff (nprobe, fixed or per-query adaptive) is exposed as a
// METIS-style quality knob.
//
// Retrieval substrate layout (the high-throughput rebuild):
//
//   - Vectors live in RowPool: contiguous, 64-byte-aligned structure-of-arrays
//     storage (row-major float rows padded to a 16-float stride), with a
//     precomputed squared L2 norm per row. Distances are evaluated as
//         |x - q|^2 = |x|^2 + |q|^2 - 2 * dot(x, q)
//     so the inner loop is a pure float-data dot product.
//   - The dot kernel lives in kernels.h/.cc behind a CPUID-based runtime
//     dispatcher with two tiers: portable auto-vectorized scalar and AVX2
//     intrinsics. Both tiers accumulate in double over
//     eight chains with identical rounding (no FMA) and an identical
//     reduction tree, so the dispatched kernel returns the bit-identical
//     double on every tier — rankings do not depend on the host CPU, and the
//     parity tests force each tier and assert exactly that. Double
//     accumulation keeps the decomposition's absolute error near 1e-14, so
//     rankings match the seed's direct scalar loop bit-for-bit except for
//     distinct-but-near-identical rows (true distance below ~1e-12); in that
//     regime the two formulas may round differently, and sub-zero rounding
//     clamps to 0. Bitwise-duplicate rows still score an exact 0.
//   - Top-k selection is a bounded max-heap over (distance, candidate order):
//     O(n log k) with O(k) memory instead of materializing and full-sorting
//     all n candidates. The candidate-order tie-break reproduces the seed's
//     stable_sort semantics exactly: equal distances rank by insertion order.
//   - VectorIndex has two read virtuals, each answering one query under its
//     own RetrievalQuality: Search, and SearchOrdered (with candidate orders
//     and an id filter). On the static indexes Search is SearchOrdered with
//     an empty filter. The serve retrieves one query per simulator event.
//     Callers with many queries (RecallEval, bench_retrieval) split them
//     across a ThreadPool, one Search each; a read writes only relaxed probe
//     counters, so results do not depend on the split.
//   - Every read is a certified two-pass scan over the index's int8 SQ
//     mirror (quantize.h): pass 1 streams 1-byte codes and keeps only the
//     rows whose distance interval [D~ - B, D~ + B] can still reach the k-th
//     smallest upper bound; pass 2 re-scores those rows with the exact
//     expression into the same BoundedTopK. The true top-k always survives
//     pass 1, so results are bit-identical to a full exact sweep by
//     construction. Rows the mirror does not encode (added after it was
//     built, or every row of an index that never built one) scan exactly.
//   - IVF inverted lists and centroids use the same RowPool layout, and
//     IvfL2Index::Train can split its O(n * nlist * dim) scans over a pool.
//   - Each index holds its rows unpartitioned: the flat index in one RowPool,
//     the IVF index in one RowPool per inverted list. A row's candidate
//     order is its position — its insertion order in the flat pool, and its
//     list's probe base plus its in-list position under IVF probing.
//
// Recall subsystem (IVF):
//
//   - nprobe — how many inverted lists a query scans — is the retrieval-depth
//     knob: more probes mean higher recall and proportionally more work.
//   - AdaptiveProbePolicy picks nprobe *per query* with a distance-ratio
//     early-termination rule: probe lists in ascending centroid distance and
//     stop (after min_probes) at the first list whose centroid distance
//     exceeds distance_ratio x the closest centroid's distance, or at the
//     max_probes budget. Queries that land inside a cluster stop early;
//     queries between clusters keep probing — so at equal *average* probe
//     count, adaptive probing spends the work where recall needs it.
//   - RetrievalQuality threads a per-query override (fixed vs adaptive, probe
//     budget) from the serving-stack configuration down to the index, so the
//     joint scheduler can treat retrieval depth like its other quality knobs
//     (JointSchedulerOptions::adaptive_nprobe / nprobe_budget).
//   - recall.h provides RecallEval (recall@k against flat-index ground truth)
//     and bench_recall sweeps nlist x nprobe x adaptive mode into
//     BENCH_recall.json (schema in docs/BENCH.md).

#ifndef METIS_SRC_VECTORDB_VECTORDB_H_
#define METIS_SRC_VECTORDB_VECTORDB_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/embed/embedding.h"
#include "src/vectordb/kernels.h"

namespace metis {

using ChunkId = int32_t;

struct Chunk {
  ChunkId id = -1;
  int32_t doc_id = -1;
  std::string text;
  int32_t token_count = 0;
  // Ids of workload facts contained in this chunk (empty for pure noise).
  std::vector<int32_t> fact_ids;
  // Typed metadata attributes (hybrid retrieval's filter push-down). Assigned
  // deterministically by DatasetGenerator as pure functions of the chunk's
  // document layout — no RNG — so corpora that never filter are unchanged.
  int32_t source = 0;       // Which upstream source/collection the doc came from.
  int32_t time_bucket = 0;  // Coarse timestamp bucket of the doc.
  int32_t section = 0;      // Section tag: chunk's index within its document.
};

// Conjunctive pre-scan filter over Chunk attributes; -1 = wildcard. Pushed
// into both the dense and lexical scans as an id-exclusion set compiled by
// VectorDatabase (filtering inside the scan, before top-k — the same rule
// tombstones follow).
struct MetadataFilter {
  int32_t source = -1;
  int32_t time_bucket = -1;
  int32_t section = -1;

  bool active() const { return source >= 0 || time_bucket >= 0 || section >= 0; }
  bool Matches(const Chunk& c) const {
    return (source < 0 || c.source == source) &&
           (time_bucket < 0 || c.time_bucket == time_bucket) &&
           (section < 0 || c.section == section);
  }
  friend bool operator==(const MetadataFilter& a, const MetadataFilter& b) {
    return a.source == b.source && a.time_bucket == b.time_bucket && a.section == b.section;
  }
  friend bool operator!=(const MetadataFilter& a, const MetadataFilter& b) { return !(a == b); }
};

// Search hit: chunk id plus L2^2 distance (lower is closer).
struct SearchHit {
  ChunkId id = -1;
  float distance = 0;
};

// Search hit carrying the backend's candidate order (the (distance, order)
// tie-break position). The mutable serving index merges base-index hits with
// memtable/segment hits under that shared total order, so the base has to
// surface it (see VectorIndex::SearchOrdered and mutable_index.h).
struct OrderedHit {
  ChunkId id = -1;
  float distance = 0;
  size_t order = 0;
};

// Non-owning view of a sorted id set excluded from a search (the mutable
// index's tombstones). Filtering happens *inside* the scan, before top-k
// selection — post-filtering a top-k would let deleted rows crowd out live
// ones and break parity with an index built from the live set only.
struct IdFilter {
  const ChunkId* begin = nullptr;
  const ChunkId* end = nullptr;

  bool empty() const { return begin == end; }
  bool contains(ChunkId id) const { return std::binary_search(begin, end, id); }
};

// --- Aligned SoA row storage -----------------------------------------------

// Minimal 64-byte-aligned allocator so row starts sit on cache-line (and
// widest-SIMD-register) boundaries.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t(kAlignment)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(kAlignment));
  }
  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const {
    return false;
  }
};

// Contiguous aligned row storage with per-row precomputed squared norms and
// chunk ids. Shared by the flat index, the IVF inverted lists, and the IVF
// centroid table. Norms are kernel-target-independent (see kernels.h), so a
// pool built under one dispatch tier is valid under any other.
class RowPool {
 public:
  explicit RowPool(size_t dim);

  // Copies one dim()-length row; the padded tail of the stride is zeroed.
  void Append(ChunkId id, const float* v);

  // Preallocates capacity for `rows` rows. The mutable index's append-only
  // row log depends on this: a reserved pool never reallocates its arrays, so
  // rows below a published watermark can be read concurrently with appends.
  void Reserve(size_t rows) {
    data_.reserve(rows * stride_);
    norms_.reserve(rows);
    ids_.reserve(rows);
  }

  size_t size() const { return ids_.size(); }
  size_t dim() const { return dim_; }
  size_t stride() const { return stride_; }
  const float* row(size_t i) const { return data_.data() + i * stride_; }
  double norm(size_t i) const { return norms_[i]; }
  ChunkId id(size_t i) const { return ids_[i]; }

 private:
  size_t dim_;
  size_t stride_;  // dim rounded up to 16 floats (one cache line).
  std::vector<float, AlignedAllocator<float>> data_;
  std::vector<double> norms_;  // Full precision: see kernels.h.
  std::vector<ChunkId> ids_;
};

// --- Probe policies ---------------------------------------------------------

// Per-query adaptive nprobe: the distance-ratio early-termination rule
// described in the header comment. Distances are squared L2, so
// distance_ratio is a ratio of squared distances (2.25 == 1.5x in true
// distance).
struct AdaptiveProbePolicy {
  bool enabled = false;
  size_t min_probes = 1;  // Always probe at least this many lists.
  size_t max_probes = 0;  // Per-query probe budget; 0 = the index's nprobe.
  double distance_ratio = 2.25;
};

// The two stored row representations an index streams: the fp32 rows and
// the int8 SQ mirror the certified scan reads first (quantize.h). Flat and
// IVF report each one's bytes per row (bytes_per_row).
enum class RetrievalPrecision : uint8_t {
  kFp32 = 0,
  kInt8 = 1,
};

// Per-query retrieval-quality override, threaded from the serving-stack
// configuration (JointSchedulerOptions) through SynthesisExecutor and
// VectorDatabase::Retrieve down to the index. The profiler-driven
// RetrievalDepthPolicy (src/core/) assigns each query its own quality, and
// every read takes the quality of the one query it answers. The probe fields
// steer IVF only.
struct RetrievalQuality {
  enum class ProbeMode {
    kIndexDefault,  // Use the index's own AdaptiveProbePolicy / nprobe.
    kFixed,         // Force fixed-nprobe probing.
    kAdaptive,      // Force adaptive probing.
  };
  ProbeMode mode = ProbeMode::kIndexDefault;
  // >0 overrides the probe count (fixed mode) or budget (adaptive mode).
  size_t nprobe = 0;
  // --- Hybrid retrieval (the "which retriever" knob; src/core/hybrid_router.h) ---
  // Off (default): the dense path above, bit-identical to pre-hybrid builds.
  // On: the database runs the weighted backends and fuses their candidate
  // lists by reciprocal-rank fusion. A weight-0 backend is never scanned; a
  // single-weighted backend returns its native ranking unfused. Requires the
  // database to have built a lexical index (RetrievalIndexOptions::lexical)
  // for the lexical leg; without one the query serves dense-only — the knob
  // can only be cheaper, never wrong.
  bool hybrid = false;
  float dense_weight = 1.0f;
  float lexical_weight = 0.0f;
  // Metadata filter pushed into every backend's scan (active() == false by
  // default). Usable with or without `hybrid`.
  MetadataFilter filter;
};

// --- SQ mirror storage (built by quantize.cc) --------------------------------

// Int8 scalar quantizer: per-dimension affine params over the training rows.
// code = round((x - vmin[d]) / scale[d]) clamped to [0, 255].
struct Int8Params {
  std::vector<float> vmin;
  std::vector<float> scale;
};

// SQ mirror of (a prefix of) one RowPool: one row of codes per fp32 row.
// Rows appended after the mirror was encoded (rows >= `rows`) are scanned
// exactly instead — the same rule that keeps the mutable index's memtable
// exact.
struct QuantizedCodes {
  size_t rows = 0;
  // Code bytes per row: dim padded to 64 bytes (SqCodeStride).
  size_t sq_stride = 0;
  // The codes in blocks of kSqBlockRows = 32 rows, 32 * sq_stride bytes
  // each, pair-blocked (kernels.h): dimension pair p of block b is the
  // 64-byte line holding (code[2p], code[2p+1]) of each of its 32 rows. The
  // last block is zero-padded.
  std::vector<uint8_t, AlignedAllocator<uint8_t>> sq;
  // Per dimension, the largest |x[d] - (vmin[d] + scale[d] * code[d])| over
  // the encoded rows, measured in double at encode time — clamped codes
  // included. The certified scan's quantization error term.
  std::vector<double> sq_delta;

  // The codes of rows [32 b, 32 b + 32).
  const uint8_t* block(size_t b) const { return sq.data() + b * kSqBlockRows * sq_stride; }
  // Row `row`'s code of dimension d.
  uint8_t code(size_t row, size_t d) const {
    return block(row / kSqBlockRows)[d / 2 * 2 * kSqBlockRows + row % kSqBlockRows * 2 + d % 2];
  }
};

// --- Index interface --------------------------------------------------------

// Interface shared by index implementations: two read virtuals, each
// answering one query under its RetrievalQuality (probe depth for IVF).
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  virtual void Add(ChunkId id, const Embedding& v) = 0;
  // Before the first rows go in, sizes the row arrays for the `rows` rows
  // about to be added, so a bulk load allocates each array once instead of
  // doubling it row by row (every doubling frees a copy the heap cannot
  // always hand back). A no-op once the index holds rows, so small repeated
  // adds keep amortized growth. Never changes a result.
  virtual void Reserve(size_t rows) { (void)rows; }
  // Returns up to k nearest ids by L2 distance, closest first; ties broken by
  // insertion order for determinism.
  virtual std::vector<SearchHit> Search(const Embedding& query, size_t k,
                                        const RetrievalQuality& quality) const = 0;
  // Top-k with the backend's candidate orders attached and `exclude` (sorted
  // ids) filtered out inside the scan, before selection (quality only
  // steers IVF probing). The mutable serving index
  // (mutable_index.h) merges its base's hits with memtable/segment hits under
  // the shared (distance, order) total order, and the hybrid path's filtered
  // dense leg reads it on every backend.
  virtual std::vector<OrderedHit> SearchOrdered(const Embedding& query, size_t k,
                                                const RetrievalQuality& quality,
                                                const IdFilter& exclude) const = 0;
  // Trains the int8 quantizer over the rows added so far and encodes the
  // SQ mirror the certified scan reads. Encoding splits across `pool` (may
  // be null); codes do not depend on it. Called once after bulk load /
  // (re)train. Returns false when nothing was built (no rows, or a backend
  // without a mirror). Not synchronized with concurrent reads.
  virtual bool BuildQuantizedMirrors(ThreadPool* pool) {
    (void)pool;
    return false;
  }
  virtual size_t size() const = 0;
};

// Exact brute-force L2 index (FAISS IndexFlatL2 equivalent): one aligned
// RowPool, whose row i has candidate order i.
class FlatL2Index : public VectorIndex {
 public:
  explicit FlatL2Index(size_t dim);

  void Add(ChunkId id, const Embedding& v) override;
  void Reserve(size_t rows) override;
  // SearchOrdered with an empty filter.
  std::vector<SearchHit> Search(const Embedding& query, size_t k,
                                const RetrievalQuality& quality) const override;
  // Certified exact scan with tombstone filtering; orders are insertion
  // orders.
  std::vector<OrderedHit> SearchOrdered(const Embedding& query, size_t k,
                                        const RetrievalQuality& quality,
                                        const IdFilter& exclude) const override;
  bool BuildQuantizedMirrors(ThreadPool* pool) override;
  size_t size() const override { return rows_.size(); }
  // Bytes per row of each stored representation, padded strides included:
  // the fp32 row stride, and the SQ mirror's code stride once
  // BuildQuantizedMirrors has built it (0 before).
  size_t bytes_per_row(RetrievalPrecision tier) const;

 private:
  size_t dim_;
  RowPool rows_;
  bool quantized_ = false;  // BuildQuantizedMirrors ran: sq_ and qcodes_ hold the SQ mirror.
  Int8Params sq_;           // The SQ mirror's quantizer.
  std::vector<double> sq_delta_;  // qcodes_.sq_delta floored at 0 (BuildMirrors).
  QuantizedCodes qcodes_;
};

// Inverted-file index: k-means coarse quantizer + per-list exact search.
// Approximate unless nprobe == nlist; recall is controlled by the fixed
// nprobe, or per query by an AdaptiveProbePolicy / RetrievalQuality override.
// Every inverted list is one RowPool.
class IvfL2Index : public VectorIndex {
 public:
  IvfL2Index(size_t dim, size_t nlist, size_t nprobe, uint64_t seed);

  void Add(ChunkId id, const Embedding& v) override;
  void Reserve(size_t rows) override;
  // SearchOrdered with an empty filter. Probing is resolved from the index's
  // policy and the query's override (see RetrievalQuality).
  std::vector<SearchHit> Search(const Embedding& query, size_t k,
                                const RetrievalQuality& quality) const override;
  // Probed scan with tombstone filtering; orders are the probe-concatenation
  // positions (the same orders Search selects under). Counts toward the
  // probe stats exactly like Search.
  std::vector<OrderedHit> SearchOrdered(const Embedding& query, size_t k,
                                        const RetrievalQuality& quality,
                                        const IdFilter& exclude) const override;
  // Trains the quantizer over the inverted lists and encodes one mirror per
  // list. Call after Train(); rows added later are scanned exactly (the
  // un-encoded-suffix rule).
  bool BuildQuantizedMirrors(ThreadPool* pool) override;
  // Bytes per row of each stored representation (see
  // FlatL2Index::bytes_per_row).
  size_t bytes_per_row(RetrievalPrecision tier) const;
  // O(1): a running count maintained by Add()/Train().
  size_t size() const override { return count_; }

  // Builds the coarse quantizer from the vectors added so far (call once after
  // bulk load; Add() after Train() assigns to the nearest centroid). `pool`
  // optionally splits the farthest-point seeding and Lloyd assignment scans;
  // the trained index is identical for any pool size.
  void Train(ThreadPool* pool = nullptr);
  bool trained() const { return trained_; }

  // Per-query adaptive probing policy (off by default). Takes effect on the
  // next search; not synchronized with in-flight searches.
  void set_adaptive_probe(const AdaptiveProbePolicy& policy) { adaptive_ = policy; }
  size_t nlist() const { return nlist_; }

  // Snapshots another index's probe counters into this one. Retrains swap in
  // a freshly trained IvfL2Index; carrying the counters over keeps
  // mean_probes / probe_histogram cumulative across the swap.
  void CopyProbeStatsFrom(const IvfL2Index& other) { stats_ = other.stats_; }

  // --- Probe accounting (recall/latency evaluation) ---
  // Relaxed atomics: concurrent const searches on a shared index stay
  // race-free and never lose counts, so a reading taken after the searches
  // are joined (a pooled RecallEval sweep, say) is exact.
  uint64_t searches() const { return stats_.searches.load(std::memory_order_relaxed); }
  uint64_t probes_issued() const { return stats_.probes.load(std::memory_order_relaxed); }
  double mean_probes() const {
    uint64_t s = searches();
    return s == 0 ? 0.0 : static_cast<double>(probes_issued()) / static_cast<double>(s);
  }
  // Per-query probe-depth histogram: bucket p counts searches that scanned
  // exactly p inverted lists (the last bucket absorbs deeper scans). The
  // per-query observable behind RunMetrics::probe_histogram — with a fixed
  // budget every search lands in one bucket; with per-query depth the
  // distribution shows where the policy spent its probes.
  static constexpr size_t kProbeHistogramBuckets = 65;
  std::vector<uint64_t> probe_histogram() const;
  void ResetProbeStats() const {
    stats_.searches.store(0, std::memory_order_relaxed);
    stats_.probes.store(0, std::memory_order_relaxed);
    for (auto& bucket : stats_.hist) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }

 private:
  // Probing resolved against one query: scan the `budget` closest lists,
  // stopping early per the ratio rule when `adaptive`.
  struct ProbePlan {
    bool adaptive = false;
    size_t min_probes = 1;
    size_t budget = 1;
    double ratio = 2.25;
  };
  ProbePlan ResolveProbe(const RetrievalQuality& quality) const;

  // The probe schedule resolved for one query: the inverted lists to scan in
  // probe order, each with the candidate-order base it has under the seed's
  // concatenate-then-sort semantics (the cumulative sizes of the previously
  // probed lists).
  struct ProbeSet {
    std::vector<size_t> lists;
    std::vector<size_t> bases;
  };
  ProbeSet PlanProbes(const float* q, double qnorm, const ProbePlan& plan) const;

  // The centroid closest to `v`, whose SquaredNormBlocked is `vnorm`.
  size_t NearestCentroid(const float* v, double vnorm) const;

  size_t dim_;
  size_t nlist_;
  size_t nprobe_;
  uint64_t seed_;
  bool trained_ = false;
  size_t count_ = 0;
  AdaptiveProbePolicy adaptive_;
  RowPool centroids_;
  // Pre-train staging area, emptied by Train().
  RowPool staged_;
  // Inverted lists. A list's size is both the next row's in-list order and
  // the base increment the probe planner uses.
  std::vector<RowPool> lists_;
  bool quantized_ = false;        // As in FlatL2Index.
  Int8Params sq_;
  std::vector<double> sq_delta_;  // Per-dimension max of the lists' QuantizedCodes::sq_delta.
  std::vector<QuantizedCodes> qcodes_;  // Parallel to lists_.

  // Copyable atomic counters (atomics alone would delete the index's
  // copy/move, which tests rely on); copies snapshot the counts.
  struct ProbeCounters {
    std::atomic<uint64_t> searches{0};
    std::atomic<uint64_t> probes{0};
    std::array<std::atomic<uint64_t>, kProbeHistogramBuckets> hist{};

    ProbeCounters() = default;
    ProbeCounters(const ProbeCounters& other)
        : searches(other.searches.load(std::memory_order_relaxed)),
          probes(other.probes.load(std::memory_order_relaxed)) {
      for (size_t i = 0; i < hist.size(); ++i) {
        hist[i].store(other.hist[i].load(std::memory_order_relaxed), std::memory_order_relaxed);
      }
    }
    ProbeCounters& operator=(const ProbeCounters& other) {
      searches.store(other.searches.load(std::memory_order_relaxed), std::memory_order_relaxed);
      probes.store(other.probes.load(std::memory_order_relaxed), std::memory_order_relaxed);
      for (size_t i = 0; i < hist.size(); ++i) {
        hist[i].store(other.hist[i].load(std::memory_order_relaxed), std::memory_order_relaxed);
      }
      return *this;
    }
    void Record(uint64_t probes_used) {
      searches.fetch_add(1, std::memory_order_relaxed);
      probes.fetch_add(probes_used, std::memory_order_relaxed);
      hist[std::min<size_t>(probes_used, kProbeHistogramBuckets - 1)].fetch_add(
          1, std::memory_order_relaxed);
    }
  };
  mutable ProbeCounters stats_;
};

// Database metadata shown to the LLM query profiler (paper §4.1, §A.1): a
// one-line description of the corpus plus the chunk size.
struct DatabaseMetadata {
  std::string description;
  int chunk_size_tokens = 0;
  std::string domain;  // e.g. "finance", "meetings", "wiki".
};

// Knobs for the live-mutation wrapper (MutableIndex, mutable_index.h): the
// epoch-versioned memtable -> sealed segment -> compaction lifecycle layered
// over either static backend.
struct MutableIndexOptions {
  // Seal the memtable into an immutable segment once it holds this many rows.
  size_t memtable_rows = 256;
  // Merge sealed segments into one tombstone-free compacted segment once this
  // many have accumulated.
  size_t compact_segments = 8;
  // Rebuild the base index over the live set once live delta rows (rows not
  // yet absorbed into the base) exceed this fraction of
  // max(base live rows, memtable_rows).
  double retrain_delta_fraction = 0.5;
  // Capacity of the append-only row log (initial corpus + every insert ever;
  // the log backs concurrent lock-free reads, so it is preallocated).
  size_t max_rows = size_t{1} << 20;
};

// Which similarity index a VectorDatabase builds. The paper's experiments
// default to exact flat search; the IVF backend trades recall for speed via
// the probe knobs above.
struct RetrievalIndexOptions {
  enum class Backend { kFlat, kIvf };
  Backend backend = Backend::kFlat;
  // IVF-only:
  size_t nlist = 64;
  size_t nprobe = 8;
  AdaptiveProbePolicy adaptive;
  uint64_t train_seed = 17;
  // Wrap the backend in the epoch-versioned MutableIndex so the database
  // accepts InsertChunks/DeleteChunks while serving.
  bool mutable_index = false;
  MutableIndexOptions mutation;
  // Build a BM25 lexical index (lexical_index.h) alongside the dense backend:
  // one posting list per term, ignoring `mutation`. Off by default — only
  // hybrid RetrievalQuality reads it.
  bool lexical = false;
};

// Builds the configured *static* backend (ignores options.mutable_index).
// Shared by VectorDatabase's index construction and by MutableIndex, which
// rebuilds its base through this exact factory so a retrained base is
// bit-identical to a fresh static build over the same rows.
std::unique_ptr<VectorIndex> MakeBackendIndex(size_t dim, const RetrievalIndexOptions& options,
                                              IvfL2Index** ivf_out);

class MutableIndex;
class LexicalIndex;

// Work counters for the hybrid retrieval paths (bench cost accounting).
struct HybridSearchStats {
  uint64_t dense_searches = 0;    // Dense-leg scans issued by hybrid/filtered paths.
  uint64_t lexical_searches = 0;  // Lexical-leg scans issued.
  uint64_t fused_queries = 0;     // Queries whose two legs were RRF-fused.
};

// The assembled retrieval database: chunks + embeddings + index + metadata.
class VectorDatabase {
 public:
  VectorDatabase(EmbeddingModel embedder, DatabaseMetadata metadata,
                 RetrievalIndexOptions index_options = {});
  ~VectorDatabase();

  // Not movable: the query cache points at the owned embedder.
  VectorDatabase(const VectorDatabase&) = delete;
  VectorDatabase& operator=(const VectorDatabase&) = delete;

  // Embeds (and, with a lexical index, BM25-analyzes) every chunk's text,
  // across `pool` when given, and indexes the chunks in order under
  // consecutive new ids, which it returns. Ids and index contents are the
  // same for any pool size.
  std::vector<ChunkId> AddChunks(std::vector<Chunk> chunks, ThreadPool* pool = nullptr);

  // AddChunks for chunks already embedded: embeddings[i] must be
  // embedder().Embed(chunks[i].text). The corpus generator embeds each
  // window of chunks while it draws the next, then adds them all here.
  std::vector<ChunkId> AddEmbeddedChunks(std::vector<Chunk> chunks,
                                         std::vector<Embedding> embeddings,
                                         ThreadPool* pool = nullptr);

  // Call once after bulk-loading chunks. Trains the IVF coarse quantizer
  // (no-op for the flat backend or if already trained); chunks added later
  // assign to the nearest centroid.
  void FinalizeIndex(ThreadPool* pool = nullptr);

  // --- Live mutations (require index_options.mutable_index) ---
  // Streaming insert after FinalizeIndex: embeds and indexes the chunks into
  // the mutable index's memtable. Identical id assignment to AddChunks.
  std::vector<ChunkId> InsertChunks(std::vector<Chunk> chunks, ThreadPool* pool = nullptr);
  // Tombstones the given chunks; deleted chunks never appear in results
  // again. Ids must be valid; deleting an already-deleted id is a no-op.
  // Returns how many chunks this call transitioned from live to deleted.
  size_t DeleteChunks(const std::vector<ChunkId>& ids);
  bool chunk_live(ChunkId id) const;

  // Embeds the query text and returns the top-k chunks, closest first.
  // Query embeddings are memoized (EmbeddingCache), so repeated retrievals of
  // the same text — config sweeps, golden-config feedback — skip re-embedding.
  // `quality` carries this call's probe depth, backend weights and filter.
  std::vector<ChunkId> Retrieve(const std::string& query_text, size_t k,
                                const RetrievalQuality& quality = {}) const;
  std::vector<SearchHit> RetrieveWithDistances(const std::string& query_text, size_t k,
                                               const RetrievalQuality& quality = {}) const;

  // results[i] is RetrieveWithDistances(query_texts[i], k, qualities[i]),
  // called in order. The serving stack retrieves one query per event through
  // Retrieve; only perfbench's per-layer replay calls this, with one text.
  std::vector<std::vector<SearchHit>> RetrieveBatch(
      const std::vector<std::string>& query_texts, size_t k,
      const std::vector<RetrievalQuality>& qualities) const;

  const Chunk& chunk(ChunkId id) const;
  size_t num_chunks() const { return chunks_.size(); }
  const DatabaseMetadata& metadata() const { return metadata_; }
  const EmbeddingModel& embedder() const { return embedder_; }
  const VectorIndex& index() const { return *index_; }
  // Non-null iff the IVF backend is active (probe stats, policy tweaks).
  // Under a mutable index this is the *current* base — retrains swap the base
  // and carry the probe counters over, so readings stay cumulative.
  const IvfL2Index* ivf_index() const;
  // Non-null iff index_options.mutable_index (lifecycle controls, stats).
  MutableIndex* mutable_index() { return mutable_; }
  const MutableIndex* mutable_index() const { return mutable_; }
  // Non-null iff index_options.lexical (the BM25 backend the hybrid paths
  // scan; stats/introspection).
  const LexicalIndex* lexical_index() const { return lexical_.get(); }
  size_t query_cache_hits() const { return query_cache_.hits(); }

  // Hybrid work counters (snapshot; relaxed atomics like the probe stats).
  HybridSearchStats hybrid_stats() const;
  void ResetHybridStats() const;

 private:
  // The hybrid/filtered retrieval path behind RetrieveWithDistances: runs the
  // weighted dense/lexical legs with the filter's exclusion set pushed into
  // both scans and fuses by weighted reciprocal rank.
  std::vector<SearchHit> RetrieveHybrid(const std::string& query_text, size_t k,
                                        const RetrievalQuality& quality) const;
  // Compiles quality.filter into a sorted excluded-id vector (ids FAILING the
  // filter), memoized against (filter, corpus version).
  std::shared_ptr<const std::vector<ChunkId>> CompileFilter(const MetadataFilter& filter) const;
  EmbeddingModel embedder_;
  DatabaseMetadata metadata_;
  std::vector<Chunk> chunks_;
  std::vector<bool> deleted_;  // Parallel to chunks_.
  size_t deleted_count_ = 0;
  std::unique_ptr<VectorIndex> index_;
  IvfL2Index* ivf_ = nullptr;      // Owned by index_ when backend == kIvf (static).
  MutableIndex* mutable_ = nullptr;  // Owned by index_ when mutable_index.
  std::unique_ptr<LexicalIndex> lexical_;  // Non-null iff index_options.lexical.
  mutable EmbeddingCache query_cache_;

  // Single-entry filter-compilation memo: hybrid workloads reuse a small set
  // of filters against an (often) static corpus, so recompiling the exclusion
  // set per query would dominate. Invalidated by corpus version (chunk count +
  // delete count). Mutex-guarded: retrievals are const and may be concurrent.
  mutable std::mutex filter_mu_;
  mutable MetadataFilter cached_filter_;
  mutable size_t cached_filter_chunks_ = 0;
  mutable size_t cached_filter_deletes_ = 0;
  mutable std::shared_ptr<const std::vector<ChunkId>> cached_filter_excluded_;

  mutable std::atomic<uint64_t> dense_searches_{0};
  mutable std::atomic<uint64_t> lexical_searches_{0};
  mutable std::atomic<uint64_t> fused_queries_{0};
};

}  // namespace metis

#endif  // METIS_SRC_VECTORDB_VECTORDB_H_
