// Live-mutation serving index: epoch-versioned memtable -> immutable segments.
//
// Layers streaming Insert/Delete over either static backend (flat or IVF)
// while preserving the repo's determinism contract: at any point in a
// mutation stream, search results are bit-identical — ids, order, AND
// distances — to an index freshly built from the live document set (the
// mutation-parity tests assert exactly this).
//
// Structure (an LSM-style lifecycle over one append-only row log):
//
//     writes                 seal                  compact / retrain
//   ┌─────────┐   ┌────────────────────────┐   ┌──────────────────────┐
//   │ memtable │──>│ immutable segments ... │──>│ compacted segment /  │
//   │ (log tail)│  │ (frozen log ranges)    │   │ retrained base index │
//   └─────────┘   └────────────────────────┘   └──────────────────────┘
//
//   - Every row ever inserted (including the initial bulk load) is appended
//     to a preallocated block log; a row's *log position* is its global
//     candidate order. The memtable is simply the unsealed log tail — absorbed
//     by flat scan at search time.
//   - At memtable_rows the tail is sealed into an immutable segment (a frozen
//     log range — sealing is O(1), no copying). Segments are swept exactly
//     like shards: per-structure BoundedTopK heaps merge under the existing
//     (distance, candidate order) total order, so how rows are partitioned
//     across base/segments/memtable can never change results.
//   - Deletes are tombstones: a copy-on-write sorted id set, filtered
//     *inside* every scan before top-k selection (post-filtering a top-k
//     could let dead rows crowd out live ones).
//   - Compaction merges sealed segments into one tombstone-free segment whose
//     rows keep their original log-position orders. Retrain rebuilds the base
//     index over the live set (through the same MakeBackendIndex factory and
//     train seed as a fresh build, so the result is bit-identical to one) —
//     triggered when live delta rows outgrow the base or, for IVF, when the
//     mean nearest-centroid distance of newly sealed rows decays past a
//     measured multiple of the train-time mean.
//
// Epochs: readers never block and never see torn state. Every mutation
// publishes a new immutable MutableEpoch (a shared_ptr snapshot of base +
// segment list + memtable bounds + tombstones) via an atomic shared_ptr
// swap; a search pins one epoch and answers entirely against it. Log rows
// below the pinned epoch's watermark are immutable, so concurrent appends
// are invisible to pinned readers. Maintenance (compaction/retrain) can run
// on a ThreadPool with readers still serving the old epoch; the synchronous
// default keeps runs bit-reproducible for the parity tests and benches.
//
// Each of the RetrievalBatcher's coalesced sweeps passes through here as one
// SearchBatch call, which pins a single epoch for the whole sweep — every
// query in a batch sees the same snapshot.

#ifndef METIS_SRC_VECTORDB_MUTABLE_INDEX_H_
#define METIS_SRC_VECTORDB_MUTABLE_INDEX_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/vectordb/vectordb.h"

namespace metis {

class BoundedTopK;  // topk.h (internal).

// One sealed segment: a frozen log range, optionally replaced by a compacted
// (tombstone-free) row set whose orders are the original log positions.
struct MutableSegment {
  size_t lo = 0, hi = 0;  // Log positions covered: [lo, hi).
  // Null: scan log rows [lo, hi) directly. Non-null: scan these rows instead
  // (same live content, dead rows dropped).
  std::shared_ptr<const IndexShard> compacted;
};

// Immutable snapshot of the serving structures at one publication point.
// Everything reachable from an epoch is frozen: the base index, the segment
// list, the tombstone set, and every log row below memtable_hi.
struct MutableEpoch {
  uint64_t epoch = 0;
  std::shared_ptr<const VectorIndex> base;
  const IvfL2Index* base_ivf = nullptr;  // Borrowed from base when IVF.
  // False while an IVF base is untrained; searches then scan the base's log
  // range [0, base_cut) directly (exact), instead of probing.
  bool base_searchable = false;
  size_t base_cut = 0;  // Log rows below this live in the base.
  // Sealed segments covering [base_cut, memtable_lo), oldest first.
  std::vector<MutableSegment> segments;
  size_t memtable_lo = 0, memtable_hi = 0;  // Unsealed log tail.
  // Sorted tombstoned ids (copy-on-write; never mutated once published, and
  // never pruned — ids are never reused, so a tombstone stays valid forever).
  std::shared_ptr<const std::vector<ChunkId>> tombstones;
  size_t live_rows = 0;
};

// Counters + gauges surfaced through RunMetrics::ingest and BENCH_ingest.
struct MutableIndexStats {
  uint64_t inserts = 0;      // Post-finalize streaming inserts.
  uint64_t deletes = 0;
  uint64_t seals = 0;
  uint64_t compactions = 0;
  uint64_t retrains = 0;
  size_t live_rows = 0;
  size_t base_rows = 0;      // Live rows currently served by the base index.
  size_t open_segments = 0;
  size_t memtable_rows = 0;
  size_t tombstones = 0;
  size_t log_rows = 0;
};

class MutableIndex : public VectorIndex {
 public:
  // `options.mutation` holds the lifecycle knobs; the rest of `options`
  // configures the base backend (and its retrain rebuilds).
  MutableIndex(size_t dim, const RetrievalIndexOptions& options);
  ~MutableIndex() override;

  MutableIndex(const MutableIndex&) = delete;
  MutableIndex& operator=(const MutableIndex&) = delete;

  // --- VectorIndex surface (reads are lock-free; Add == Insert) ---
  void Add(ChunkId id, const Embedding& v) override { Insert(id, v); }
  std::vector<SearchHit> Search(const Embedding& query, size_t k,
                                const RetrievalQuality& quality) const override;
  // One epoch pin for the whole batch: a coalesced group is answered against
  // a single snapshot no matter how the writer races it.
  std::vector<std::vector<SearchHit>> SearchBatch(
      const std::vector<Embedding>& queries, size_t k, ThreadPool* pool,
      const std::vector<RetrievalQuality>& qualities) const override;
  // Exclusion-aware search (the hybrid metadata-filter push-down): the flow
  // of Search with `exclude` (sorted ids) unioned with the epoch's
  // tombstones and filtered inside every scan. Orders are the merged total
  // order: base orders sit below the delta rows' log positions.
  std::vector<OrderedHit> SearchOrdered(const Embedding& query, size_t k,
                                        const RetrievalQuality& quality,
                                        const IdFilter& exclude) const override;
  // Live rows (inserted minus deleted).
  size_t size() const override;

  // --- Lifecycle ---
  // Call once after the initial bulk load (VectorDatabase::FinalizeIndex
  // forwards here): trains an IVF base over the loaded rows, builds the
  // base's SQ mirror across `pool`, and opens the memtable. Adds before this go
  // to the base; adds after go to the memtable.
  void Finalize(ThreadPool* pool = nullptr);
  bool finalized() const;

  // Streaming write paths. Ids must be fresh — never currently live and never
  // previously deleted (VectorDatabase's monotone chunk ids guarantee this;
  // delete-then-reinsert therefore means inserting under a new id).
  void Insert(ChunkId id, const Embedding& v);
  // Tombstones a live id. Returns false if the id was never inserted or is
  // already deleted.
  bool Delete(ChunkId id);

  // Manual lifecycle controls (the automatic triggers call the same paths;
  // these run synchronously even in background mode, waiting out any
  // in-flight maintenance first).
  void SealMemtable();
  void CompactSegments();
  void RetrainBase(ThreadPool* pool = nullptr);

  // Pool used by background maintenance (options.mutation
  // .background_maintenance); unused in the synchronous default. Not owned.
  void set_maintenance_pool(ThreadPool* pool);

  // --- Epoch introspection (stress/parity tests, docs of the contract) ---
  // Pins the current epoch: the returned snapshot answers SearchPinned
  // identically forever, regardless of concurrent mutations.
  std::shared_ptr<const MutableEpoch> PinEpoch() const;
  std::vector<SearchHit> SearchPinned(const MutableEpoch& epoch, const Embedding& query, size_t k,
                                      const RetrievalQuality& quality) const;
  // Enumerates the epoch's live rows in insertion (log) order — the exact
  // stream a from-scratch reference build over the live set would consume.
  void ForEachLiveRow(const MutableEpoch& epoch,
                      const std::function<void(ChunkId, const float*)>& fn) const;

  MutableIndexStats stats() const;
  // The current base as an IVF index (null for the flat backend). Retrains
  // swap the base but carry probe counters over, so mean_probes /
  // probe_histogram stay cumulative across swaps.
  const IvfL2Index* base_ivf() const { return PinEpoch()->base_ivf; }
  size_t dim() const { return dim_; }
  const MutableIndexOptions& mutation_options() const { return mopts_; }

 private:
  enum class MaintOp { kNone, kCompact, kRetrain };

  // Log access (rows below a published epoch's memtable_hi are immutable).
  const IndexShard& LogBlock(size_t pos) const;
  ChunkId LogId(size_t pos) const;
  const float* LogRow(size_t pos) const;
  void ScanLogRange(size_t lo, size_t hi, const float* q, double qnorm, const IdFilter& exclude,
                    BoundedTopK& out) const;
  // The read flow SearchPinned and SearchOrdered share: base hits plus
  // segment and memtable scans offered into `merged` (a k-heap) under the
  // (distance, order) total order, with `dead` filtered inside every scan.
  void SearchPinnedExact(const MutableEpoch& epoch, const Embedding& query, size_t k,
                         const RetrievalQuality& quality, const IdFilter& dead,
                         BoundedTopK& merged) const;

  size_t AppendLogLocked(ChunkId id, const float* v);
  void PublishLocked();
  bool TombstonedLocked(ChunkId id) const;
  void SealLocked();
  MaintOp PickMaintenanceLocked() const;
  void MaybeMaintainLocked(std::unique_lock<std::mutex>& lock);
  void WaitForMaintenanceLocked(std::unique_lock<std::mutex>& lock);

  // Compaction: snapshot under the lock, build anywhere (inputs immutable),
  // swap under the lock.
  struct CompactPlan {
    std::vector<MutableSegment> segments;
    std::shared_ptr<const std::vector<ChunkId>> tombstones;
  };
  CompactPlan SnapshotCompactLocked() const;
  static std::shared_ptr<IndexShard> BuildCompacted(const MutableIndex* self,
                                                    const CompactPlan& plan);
  void SwapCompactedLocked(const CompactPlan& plan, std::shared_ptr<IndexShard> built);

  // Retrain: same snapshot/build/swap split.
  struct RetrainPlan {
    size_t cut = 0;  // Log rows [0, cut) feed the new base.
    std::shared_ptr<const std::vector<ChunkId>> tombstones;
  };
  RetrainPlan SnapshotRetrainLocked() const;
  struct BuiltBase {
    std::unique_ptr<VectorIndex> index;
    IvfL2Index* ivf = nullptr;
    size_t rows = 0;
  };
  BuiltBase BuildBase(const RetrainPlan& plan, ThreadPool* pool) const;
  void SwapBaseLocked(const RetrainPlan& plan, BuiltBase built);

  const size_t dim_;
  const RetrievalIndexOptions options_;
  const MutableIndexOptions mopts_;
  const size_t block_rows_;

  // Append-only row log: preallocated block directory; blocks allocate (with
  // reserved capacity, so their arrays never move) on first touch. Readers
  // only address rows below a pinned epoch's watermark.
  std::vector<std::unique_ptr<IndexShard>> blocks_;

  mutable std::mutex mu_;
  std::condition_variable maintenance_cv_;
  bool maintenance_inflight_ = false;
  ThreadPool* maintenance_pool_ = nullptr;

  // Writer state (all guarded by mu_; published to readers via epoch_).
  bool finalized_ = false;
  uint64_t epoch_counter_ = 0;
  size_t log_size_ = 0;
  std::shared_ptr<VectorIndex> base_;
  IvfL2Index* base_ivf_ = nullptr;
  size_t base_cut_ = 0;
  std::vector<MutableSegment> segments_;
  size_t mt_lo_ = 0, mt_hi_ = 0;
  std::shared_ptr<const std::vector<ChunkId>> tombstones_;
  std::unordered_map<ChunkId, size_t> live_pos_;  // Live id -> log position.
  size_t live_rows_ = 0;
  size_t live_in_base_ = 0;
  // IVF centroid-drift signal: nearest-centroid distances of rows sealed
  // since the last (re)train.
  double sealed_dist_sum_ = 0.0;
  size_t sealed_dist_rows_ = 0;
  MutableIndexStats counters_;

  // The published epoch (std::atomic_load/store on shared_ptr).
  std::shared_ptr<const MutableEpoch> epoch_;
};

}  // namespace metis

#endif  // METIS_SRC_VECTORDB_MUTABLE_INDEX_H_
