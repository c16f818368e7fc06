#include "src/vectordb/mutable_index.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "src/common/check.h"
#include "src/vectordb/kernels.h"
#include "src/vectordb/topk.h"

namespace metis {

namespace {

// Rows per log block. Blocks are allocated with reserved capacity on first
// touch, so a block's arrays never reallocate — a row written before an epoch
// publication can be read lock-free forever after.
constexpr size_t kLogBlockRows = 512;

IdFilter FilterOf(const std::vector<ChunkId>& tombstones) {
  return IdFilter{tombstones.data(), tombstones.data() + tombstones.size()};
}

}  // namespace

MutableIndex::MutableIndex(size_t dim, const RetrievalIndexOptions& options)
    : dim_(dim),
      options_(options),
      mopts_(options.mutation),
      block_rows_(kLogBlockRows),
      tombstones_(std::make_shared<const std::vector<ChunkId>>()) {
  METIS_CHECK_GT(dim, 0u);
  METIS_CHECK_GT(mopts_.memtable_rows, 0u);
  METIS_CHECK_GT(mopts_.max_rows, 0u);
  blocks_.resize(mopts_.max_rows / block_rows_ + 1);
  IvfL2Index* ivf = nullptr;
  base_ = MakeBackendIndex(dim_, options_, &ivf);
  base_ivf_ = ivf;
  std::unique_lock<std::mutex> lock(mu_);
  PublishLocked();
}

MutableIndex::~MutableIndex() {
  std::unique_lock<std::mutex> lock(mu_);
  WaitForMaintenanceLocked(lock);
}

// --- Log access --------------------------------------------------------------

const IndexShard& MutableIndex::LogBlock(size_t pos) const {
  return *blocks_[pos / block_rows_];
}

ChunkId MutableIndex::LogId(size_t pos) const {
  return LogBlock(pos).rows.id(pos % block_rows_);
}

const float* MutableIndex::LogRow(size_t pos) const {
  return LogBlock(pos).rows.row(pos % block_rows_);
}

void MutableIndex::ScanLogRange(size_t lo, size_t hi, const float* q, double qnorm,
                                const IdFilter& exclude, BoundedTopK& out) const {
  for (size_t b = lo / block_rows_; b * block_rows_ < hi; ++b) {
    const IndexShard& block = *blocks_[b];
    size_t blo = std::max(lo, b * block_rows_) - b * block_rows_;
    size_t bhi = std::min(hi, (b + 1) * block_rows_) - b * block_rows_;
    // block.orders carries the rows' global log positions, so base 0 keeps
    // log position == candidate order.
    ScanRowsInto(block.rows, blo, bhi, q, qnorm, block.orders.data(), 0, exclude, out);
  }
}

size_t MutableIndex::AppendLogLocked(ChunkId id, const float* v) {
  size_t pos = log_size_;
  METIS_CHECK_LT(pos, mopts_.max_rows);
  size_t b = pos / block_rows_;
  if (blocks_[b] == nullptr) {
    auto block = std::make_unique<IndexShard>(dim_);
    block->Reserve(block_rows_);
    blocks_[b] = std::move(block);
  }
  blocks_[b]->Append(id, v, pos);
  log_size_ = pos + 1;
  return pos;
}

// --- Epoch publication -------------------------------------------------------

void MutableIndex::PublishLocked() {
  auto e = std::make_shared<MutableEpoch>();
  e->epoch = ++epoch_counter_;
  e->base = base_;
  e->base_ivf = base_ivf_;
  e->base_searchable = base_ivf_ == nullptr || base_ivf_->trained();
  e->base_cut = base_cut_;
  e->segments = segments_;
  e->memtable_lo = mt_lo_;
  e->memtable_hi = mt_hi_;
  e->tombstones = tombstones_;
  e->live_rows = live_rows_;
  std::atomic_store(&epoch_, std::shared_ptr<const MutableEpoch>(std::move(e)));
}

std::shared_ptr<const MutableEpoch> MutableIndex::PinEpoch() const {
  return std::atomic_load(&epoch_);
}

bool MutableIndex::TombstonedLocked(ChunkId id) const {
  return std::binary_search(tombstones_->begin(), tombstones_->end(), id);
}

// --- Writes ------------------------------------------------------------------

void MutableIndex::Insert(ChunkId id, const Embedding& v) {
  METIS_CHECK_EQ(v.size(), dim_);
  std::unique_lock<std::mutex> lock(mu_);
  // Fresh-id contract: never currently live, never previously deleted.
  METIS_CHECK(live_pos_.find(id) == live_pos_.end());
  METIS_CHECK(!TombstonedLocked(id));
  size_t pos = AppendLogLocked(id, v.data());
  live_pos_.emplace(id, pos);
  ++live_rows_;
  if (!finalized_) {
    // Bulk-load phase: the row also feeds the base (flat rows / IVF staging),
    // and the memtable stays the empty tail.
    base_->Add(id, v);
    base_cut_ = log_size_;
    ++live_in_base_;
    mt_lo_ = mt_hi_ = log_size_;
    PublishLocked();
    return;
  }
  ++counters_.inserts;
  mt_hi_ = log_size_;
  PublishLocked();
  if (mt_hi_ - mt_lo_ >= mopts_.memtable_rows) {
    SealLocked();
    MaybeMaintainLocked(lock);
  }
}

bool MutableIndex::Delete(ChunkId id) {
  std::unique_lock<std::mutex> lock(mu_);
  METIS_CHECK(finalized_);
  auto it = live_pos_.find(id);
  if (it == live_pos_.end()) {
    return false;
  }
  size_t pos = it->second;
  live_pos_.erase(it);
  auto tomb = std::make_shared<std::vector<ChunkId>>(*tombstones_);
  tomb->insert(std::lower_bound(tomb->begin(), tomb->end(), id), id);
  tombstones_ = std::move(tomb);
  --live_rows_;
  if (pos < base_cut_) {
    --live_in_base_;
  }
  ++counters_.deletes;
  PublishLocked();
  return true;
}

void MutableIndex::Finalize(ThreadPool* pool) {
  std::unique_lock<std::mutex> lock(mu_);
  METIS_CHECK(!finalized_);
  if (base_ivf_ != nullptr && !base_ivf_->trained() && base_ivf_->size() > 0) {
    base_ivf_->Train(pool);
  }
  base_->BuildQuantizedMirrors(pool);
  finalized_ = true;
  base_cut_ = log_size_;
  mt_lo_ = mt_hi_ = log_size_;
  PublishLocked();
}

bool MutableIndex::finalized() const {
  std::unique_lock<std::mutex> lock(mu_);
  return finalized_;
}

void MutableIndex::SealLocked() {
  if (mt_hi_ == mt_lo_) {
    return;
  }
  MutableSegment seg;
  seg.lo = mt_lo_;
  seg.hi = mt_hi_;
  segments_.push_back(seg);
  mt_lo_ = mt_hi_;
  ++counters_.seals;
  // Centroid-drift signal: how far the sealed rows sit from their nearest
  // centroid, vs. the distance the training set saw.
  if (base_ivf_ != nullptr && base_ivf_->trained()) {
    for (size_t pos = seg.lo; pos < seg.hi; ++pos) {
      if (!TombstonedLocked(LogId(pos))) {
        sealed_dist_sum_ += base_ivf_->NearestCentroidDistance(LogRow(pos));
        ++sealed_dist_rows_;
      }
    }
  }
  PublishLocked();
}

void MutableIndex::SealMemtable() {
  std::unique_lock<std::mutex> lock(mu_);
  METIS_CHECK(finalized_);
  SealLocked();
}

// --- Maintenance -------------------------------------------------------------

MutableIndex::MaintOp MutableIndex::PickMaintenanceLocked() const {
  size_t delta_live = live_rows_ - live_in_base_;
  bool retrain =
      static_cast<double>(delta_live) >
      mopts_.retrain_delta_fraction *
          static_cast<double>(std::max(live_in_base_, mopts_.memtable_rows));
  if (!retrain && base_ivf_ != nullptr && base_ivf_->trained() && sealed_dist_rows_ > 0 &&
      base_ivf_->train_mean_assign_dist() > 0.0) {
    double sealed_mean = sealed_dist_sum_ / static_cast<double>(sealed_dist_rows_);
    retrain = sealed_mean > mopts_.retrain_distance_ratio * base_ivf_->train_mean_assign_dist();
  }
  if (retrain && live_rows_ > 0) {
    return MaintOp::kRetrain;
  }
  if (segments_.size() >= mopts_.compact_segments) {
    return MaintOp::kCompact;
  }
  return MaintOp::kNone;
}

void MutableIndex::WaitForMaintenanceLocked(std::unique_lock<std::mutex>& lock) {
  maintenance_cv_.wait(lock, [this] { return !maintenance_inflight_; });
}

void MutableIndex::MaybeMaintainLocked(std::unique_lock<std::mutex>& lock) {
  MaintOp op = PickMaintenanceLocked();
  if (op == MaintOp::kNone) {
    return;
  }
  bool background = mopts_.background_maintenance && maintenance_pool_ != nullptr;
  if (!background) {
    if (op == MaintOp::kRetrain) {
      RetrainPlan plan = SnapshotRetrainLocked();
      SwapBaseLocked(plan, BuildBase(plan, nullptr));
    } else {
      CompactPlan plan = SnapshotCompactLocked();
      SwapCompactedLocked(plan, BuildCompacted(this, plan));
    }
    return;
  }
  if (maintenance_inflight_) {
    return;  // One job at a time; the next seal re-evaluates.
  }
  maintenance_inflight_ = true;
  if (op == MaintOp::kRetrain) {
    RetrainPlan plan = SnapshotRetrainLocked();
    maintenance_pool_->Submit([this, plan] {
      BuiltBase built = BuildBase(plan, nullptr);
      std::unique_lock<std::mutex> relock(mu_);
      SwapBaseLocked(plan, std::move(built));
      maintenance_inflight_ = false;
      maintenance_cv_.notify_all();
    });
  } else {
    CompactPlan plan = SnapshotCompactLocked();
    maintenance_pool_->Submit([this, plan] {
      std::shared_ptr<IndexShard> built = BuildCompacted(this, plan);
      std::unique_lock<std::mutex> relock(mu_);
      SwapCompactedLocked(plan, std::move(built));
      maintenance_inflight_ = false;
      maintenance_cv_.notify_all();
    });
  }
  (void)lock;
}

MutableIndex::CompactPlan MutableIndex::SnapshotCompactLocked() const {
  CompactPlan plan;
  plan.segments = segments_;
  plan.tombstones = tombstones_;
  return plan;
}

std::shared_ptr<IndexShard> MutableIndex::BuildCompacted(const MutableIndex* self,
                                                         const CompactPlan& plan) {
  // Inputs are immutable: frozen log ranges, already-compacted shards, and a
  // COW tombstone snapshot — safe to run off-lock. Rows deleted after the
  // snapshot simply stay tombstone-filtered at search time.
  auto built = std::make_shared<IndexShard>(self->dim_);
  IndexShard& merged = *built;
  IdFilter dead = FilterOf(*plan.tombstones);
  for (const MutableSegment& seg : plan.segments) {
    if (seg.compacted != nullptr) {
      const IndexShard& src = *seg.compacted;
      for (size_t i = 0; i < src.orders.size(); ++i) {
        if (!dead.contains(src.rows.id(i))) {
          merged.Append(src.rows.id(i), src.rows.row(i), src.orders[i]);
        }
      }
    } else {
      for (size_t pos = seg.lo; pos < seg.hi; ++pos) {
        ChunkId id = self->LogId(pos);
        if (!dead.contains(id)) {
          merged.Append(id, self->LogRow(pos), pos);
        }
      }
    }
  }
  return built;
}

void MutableIndex::SwapCompactedLocked(const CompactPlan& plan,
                                       std::shared_ptr<IndexShard> built) {
  if (plan.segments.empty()) {
    return;
  }
  size_t plan_hi = plan.segments.back().hi;
  // Keep segments sealed after the snapshot (they start at or past plan_hi).
  std::vector<MutableSegment> next;
  if (built->orders.size() > 0) {
    MutableSegment seg;
    seg.lo = plan.segments.front().lo;
    seg.hi = plan_hi;
    seg.compacted = std::move(built);
    next.push_back(std::move(seg));
  }
  for (const MutableSegment& seg : segments_) {
    if (seg.lo >= plan_hi) {
      next.push_back(seg);
    }
  }
  segments_ = std::move(next);
  ++counters_.compactions;
  PublishLocked();
}

void MutableIndex::CompactSegments() {
  std::unique_lock<std::mutex> lock(mu_);
  METIS_CHECK(finalized_);
  WaitForMaintenanceLocked(lock);
  if (segments_.empty()) {
    return;
  }
  CompactPlan plan = SnapshotCompactLocked();
  SwapCompactedLocked(plan, BuildCompacted(this, plan));
}

MutableIndex::RetrainPlan MutableIndex::SnapshotRetrainLocked() const {
  RetrainPlan plan;
  plan.cut = log_size_;
  plan.tombstones = tombstones_;
  return plan;
}

MutableIndex::BuiltBase MutableIndex::BuildBase(const RetrainPlan& plan, ThreadPool* pool) const {
  // Rebuild through the same factory, options, and train seed as a fresh
  // static build over the live rows in insertion order — which is exactly
  // what this is, so the result is bit-identical to one (the parity tests
  // compare against an independently constructed reference).
  BuiltBase built;
  built.index = MakeBackendIndex(dim_, options_, &built.ivf);
  IdFilter dead = FilterOf(*plan.tombstones);
  Embedding row(dim_);
  for (size_t pos = 0; pos < plan.cut; ++pos) {
    ChunkId id = LogId(pos);
    if (dead.contains(id)) {
      continue;
    }
    const float* r = LogRow(pos);
    row.assign(r, r + dim_);
    built.index->Add(id, row);
    ++built.rows;
  }
  if (built.ivf != nullptr && built.rows > 0) {
    built.ivf->Train(pool);
  }
  built.index->BuildQuantizedMirrors(pool);
  return built;
}

void MutableIndex::SwapBaseLocked(const RetrainPlan& plan, BuiltBase built) {
  if (built.ivf != nullptr && base_ivf_ != nullptr) {
    built.ivf->CopyProbeStatsFrom(*base_ivf_);
  }
  base_ = std::shared_ptr<VectorIndex>(std::move(built.index));
  base_ivf_ = built.ivf;
  base_cut_ = plan.cut;
  // Drop structures the new base absorbed; clip stragglers that sealed across
  // the cut while a background build ran. Compacted segments cannot straddle
  // the cut: only one maintenance op runs at a time, so every compacted
  // segment predates the snapshot and sits wholly below it.
  std::vector<MutableSegment> next;
  for (MutableSegment& seg : segments_) {
    if (seg.hi <= plan.cut) {
      continue;
    }
    if (seg.lo < plan.cut) {
      METIS_CHECK(seg.compacted == nullptr);
      seg.lo = plan.cut;
    }
    next.push_back(std::move(seg));
  }
  segments_ = std::move(next);
  mt_lo_ = std::max(mt_lo_, plan.cut);
  // Recount the regions: deletes may have landed since the snapshot.
  size_t live_delta = 0;
  for (size_t pos = plan.cut; pos < log_size_; ++pos) {
    if (!TombstonedLocked(LogId(pos))) {
      ++live_delta;
    }
  }
  live_in_base_ = live_rows_ - live_delta;
  sealed_dist_sum_ = 0.0;
  sealed_dist_rows_ = 0;
  ++counters_.retrains;
  PublishLocked();
}

void MutableIndex::RetrainBase(ThreadPool* pool) {
  std::unique_lock<std::mutex> lock(mu_);
  METIS_CHECK(finalized_);
  WaitForMaintenanceLocked(lock);
  if (live_rows_ == 0) {
    return;
  }
  RetrainPlan plan = SnapshotRetrainLocked();
  SwapBaseLocked(plan, BuildBase(plan, pool));
}

void MutableIndex::set_maintenance_pool(ThreadPool* pool) {
  std::unique_lock<std::mutex> lock(mu_);
  maintenance_pool_ = pool;
}

// --- Reads -------------------------------------------------------------------

void MutableIndex::SearchPinnedExact(const MutableEpoch& epoch, const Embedding& query, size_t k,
                                     const RetrievalQuality& quality, const IdFilter& dead,
                                     BoundedTopK& merged) const {
  double qnorm = SquaredNormBlocked(query.data(), dim_);
  // One heap across base + segments + memtable: the (distance, candidate
  // order) total order makes the structure visit order irrelevant, exactly
  // as it does for shards. Base hits arrive with their own candidate orders,
  // which are order-isomorphic to (and strictly below) the delta rows' log
  // positions.
  if (epoch.base_searchable) {
    for (const OrderedHit& h : epoch.base->SearchOrdered(query, k, quality, dead)) {
      merged.Offer(h.distance, h.order, h.id);
    }
  } else {
    // Untrained IVF base (empty or pre-finalize corpus): exact scan of its
    // log range.
    ScanLogRange(0, epoch.base_cut, query.data(), qnorm, dead, merged);
  }
  for (const MutableSegment& seg : epoch.segments) {
    if (seg.compacted != nullptr) {
      ScanRowsInto(seg.compacted->rows, 0, seg.compacted->orders.size(), query.data(), qnorm,
                   seg.compacted->orders.data(), 0, dead, merged);
    } else {
      ScanLogRange(seg.lo, seg.hi, query.data(), qnorm, dead, merged);
    }
  }
  ScanLogRange(epoch.memtable_lo, epoch.memtable_hi, query.data(), qnorm, dead, merged);
}

std::vector<SearchHit> MutableIndex::SearchPinned(const MutableEpoch& epoch,
                                                  const Embedding& query, size_t k,
                                                  const RetrievalQuality& quality) const {
  METIS_CHECK_EQ(query.size(), dim_);
  if (k == 0) {
    return {};
  }
  BoundedTopK merged(k);
  SearchPinnedExact(epoch, query, k, quality, FilterOf(*epoch.tombstones), merged);
  return merged.Drain();
}

std::vector<OrderedHit> MutableIndex::SearchOrdered(const Embedding& query, size_t k,
                                                    const RetrievalQuality& quality,
                                                    const IdFilter& exclude) const {
  METIS_CHECK_EQ(query.size(), dim_);
  if (k == 0) {
    return {};
  }
  std::shared_ptr<const MutableEpoch> epoch = PinEpoch();
  // Union the epoch's tombstones with the caller's exclusion set (both
  // sorted), so one binary-searchable filter serves every scan.
  std::vector<ChunkId> dead_union(epoch->tombstones->size() +
                                  static_cast<size_t>(exclude.end - exclude.begin));
  dead_union.erase(std::set_union(epoch->tombstones->begin(), epoch->tombstones->end(),
                                  exclude.begin, exclude.end, dead_union.begin()),
                   dead_union.end());
  BoundedTopK merged(k);
  SearchPinnedExact(*epoch, query, k, quality, FilterOf(dead_union), merged);
  return merged.DrainOrdered();
}

std::vector<SearchHit> MutableIndex::Search(const Embedding& query, size_t k,
                                            const RetrievalQuality& quality) const {
  return SearchPinned(*PinEpoch(), query, k, quality);
}

std::vector<std::vector<SearchHit>> MutableIndex::SearchBatch(
    const std::vector<Embedding>& queries, size_t k, ThreadPool* pool,
    const std::vector<RetrievalQuality>& qualities) const {
  METIS_CHECK_EQ(qualities.size(), queries.size());
  std::vector<std::vector<SearchHit>> results(queries.size());
  if (queries.empty()) {
    return results;
  }
  // Pin one epoch for the whole batch (the batcher's coalesced groups rely
  // on this single-snapshot guarantee), then fan queries across the pool
  // into disjoint slots.
  std::shared_ptr<const MutableEpoch> epoch = PinEpoch();
  auto sweep = [&](size_t qb, size_t qe) {
    for (size_t qi = qb; qi < qe; ++qi) {
      results[qi] = SearchPinned(*epoch, queries[qi], k, qualities[qi]);
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && queries.size() > 1) {
    pool->ParallelFor(queries.size(), sweep);
  } else {
    sweep(0, queries.size());
  }
  return results;
}

size_t MutableIndex::size() const {
  return PinEpoch()->live_rows;
}

void MutableIndex::ForEachLiveRow(const MutableEpoch& epoch,
                                  const std::function<void(ChunkId, const float*)>& fn) const {
  IdFilter dead = FilterOf(*epoch.tombstones);
  for (size_t pos = 0; pos < epoch.memtable_hi; ++pos) {
    ChunkId id = LogId(pos);
    if (!dead.contains(id)) {
      fn(id, LogRow(pos));
    }
  }
}

MutableIndexStats MutableIndex::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  MutableIndexStats s = counters_;
  s.live_rows = live_rows_;
  s.base_rows = live_in_base_;
  s.open_segments = segments_.size();
  s.memtable_rows = mt_hi_ - mt_lo_;
  s.tombstones = tombstones_->size();
  s.log_rows = log_size_;
  return s;
}

}  // namespace metis
