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

// --- Log access --------------------------------------------------------------

const RowPool& MutableIndex::LogBlock(size_t pos) const {
  return *blocks_[pos / block_rows_];
}

ChunkId MutableIndex::LogId(size_t pos) const {
  return LogBlock(pos).id(pos % block_rows_);
}

const float* MutableIndex::LogRow(size_t pos) const {
  return LogBlock(pos).row(pos % block_rows_);
}

void MutableIndex::ScanLogRange(size_t lo, size_t hi, const float* q, double qnorm,
                                const IdFilter& exclude, BoundedTopK& out) const {
  for (size_t b = lo / block_rows_; b * block_rows_ < hi; ++b) {
    size_t blo = std::max(lo, b * block_rows_) - b * block_rows_;
    size_t bhi = std::min(hi, (b + 1) * block_rows_) - b * block_rows_;
    // Base b * block_rows_ keeps log position == candidate order.
    ScanRowsInto(*blocks_[b], blo, bhi, q, qnorm, b * block_rows_, exclude, out);
  }
}

size_t MutableIndex::AppendLogLocked(ChunkId id, const float* v) {
  size_t pos = log_size_;
  METIS_CHECK_LT(pos, mopts_.max_rows);
  size_t b = pos / block_rows_;
  if (blocks_[b] == nullptr) {
    auto block = std::make_unique<RowPool>(dim_);
    block->Reserve(block_rows_);
    blocks_[b] = std::move(block);
  }
  blocks_[b]->Append(id, v);
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

void MutableIndex::Reserve(size_t rows) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!finalized_) {  // Readers see the base only once it is finalized.
    base_->Reserve(rows);
  }
}

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
    MaybeMaintainLocked();
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
  PublishLocked();
}

void MutableIndex::SealMemtable() {
  std::unique_lock<std::mutex> lock(mu_);
  METIS_CHECK(finalized_);
  SealLocked();
}

// --- Maintenance -------------------------------------------------------------

void MutableIndex::MaybeMaintainLocked() {
  size_t delta_live = live_rows_ - live_in_base_;
  bool retrain =
      static_cast<double>(delta_live) >
      mopts_.retrain_delta_fraction *
          static_cast<double>(std::max(live_in_base_, mopts_.memtable_rows));
  if (retrain && live_rows_ > 0) {
    RetrainLocked(nullptr);
  } else if (segments_.size() >= mopts_.compact_segments) {
    CompactLocked();
  }
}

void MutableIndex::CompactLocked() {
  if (segments_.empty()) {
    return;
  }
  // The live rows in log order (a compacted segment is always the first).
  auto built = std::make_shared<RowPool>(dim_);
  IdFilter dead = FilterOf(*tombstones_);
  for (const MutableSegment& seg : segments_) {
    if (seg.compacted != nullptr) {
      const RowPool& src = *seg.compacted;
      for (size_t i = 0; i < src.size(); ++i) {
        if (!dead.contains(src.id(i))) {
          built->Append(src.id(i), src.row(i));
        }
      }
    } else {
      for (size_t pos = seg.lo; pos < seg.hi; ++pos) {
        ChunkId id = LogId(pos);
        if (!dead.contains(id)) {
          built->Append(id, LogRow(pos));
        }
      }
    }
  }
  std::vector<MutableSegment> next;
  if (built->size() > 0) {
    MutableSegment seg;
    seg.lo = segments_.front().lo;
    seg.hi = segments_.back().hi;
    seg.compacted = std::move(built);
    next.push_back(std::move(seg));
  }
  segments_ = std::move(next);
  ++counters_.compactions;
  PublishLocked();
}

void MutableIndex::CompactSegments() {
  std::unique_lock<std::mutex> lock(mu_);
  METIS_CHECK(finalized_);
  CompactLocked();
}

void MutableIndex::RetrainLocked(ThreadPool* pool) {
  // Rebuild through the same factory, options, and train seed as a fresh
  // static build over the live rows in insertion order — which is exactly
  // what this is, so the result is bit-identical to one (the parity tests
  // compare against an independently constructed reference).
  IvfL2Index* ivf = nullptr;
  std::unique_ptr<VectorIndex> index = MakeBackendIndex(dim_, options_, &ivf);
  IdFilter dead = FilterOf(*tombstones_);
  std::vector<size_t> live;  // Log positions of the live rows.
  for (size_t pos = 0; pos < log_size_; ++pos) {
    if (!dead.contains(LogId(pos))) {
      live.push_back(pos);
    }
  }
  index->Reserve(live.size());
  Embedding row(dim_);
  for (size_t pos : live) {
    const float* r = LogRow(pos);
    row.assign(r, r + dim_);
    index->Add(LogId(pos), row);
  }
  if (ivf != nullptr && !live.empty()) {
    ivf->Train(pool);
  }
  index->BuildQuantizedMirrors(pool);
  if (ivf != nullptr && base_ivf_ != nullptr) {
    ivf->CopyProbeStatsFrom(*base_ivf_);
  }
  base_ = std::shared_ptr<VectorIndex>(std::move(index));
  base_ivf_ = ivf;
  // Every log row is now in the base.
  base_cut_ = log_size_;
  segments_.clear();
  mt_lo_ = log_size_;
  live_in_base_ = live_rows_;
  ++counters_.retrains;
  PublishLocked();
}

void MutableIndex::RetrainBase(ThreadPool* pool) {
  std::unique_lock<std::mutex> lock(mu_);
  METIS_CHECK(finalized_);
  if (live_rows_ == 0) {
    return;
  }
  RetrainLocked(pool);
}

// --- Reads -------------------------------------------------------------------

void MutableIndex::SearchPinnedExact(const MutableEpoch& epoch, const Embedding& query, size_t k,
                                     const RetrievalQuality& quality, const IdFilter& dead,
                                     BoundedTopK& merged) const {
  double qnorm = SquaredNormBlocked(query.data(), dim_);
  // One heap across base + segments + memtable: the (distance, candidate
  // order) total order makes the structure visit order irrelevant. Base
  // hits arrive with their own candidate orders, which are order-isomorphic
  // to (and strictly below) the delta rows' orders (see the header).
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
      ScanRowsInto(*seg.compacted, 0, seg.compacted->size(), query.data(), qnorm, seg.lo, dead,
                   merged);
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
