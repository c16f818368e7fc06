#include "src/vectordb/vectordb.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/vectordb/kernels.h"
#include "src/vectordb/lexical_index.h"
#include "src/vectordb/mutable_index.h"
#include "src/vectordb/quantize.h"
#include "src/vectordb/topk.h"

namespace metis {

// --- RowPool ----------------------------------------------------------------

namespace {

constexpr size_t kStrideFloats = 16;  // 64 bytes.

size_t PaddedStride(size_t dim) {
  return (dim + kStrideFloats - 1) / kStrideFloats * kStrideFloats;
}

}  // namespace

RowPool::RowPool(size_t dim) : dim_(dim), stride_(PaddedStride(dim)) {
  METIS_CHECK_GT(dim, 0u);
}

size_t ShardOfId(ChunkId id, size_t num_shards) {
  if (num_shards <= 1) {
    return 0;
  }
  uint64_t state = static_cast<uint64_t>(static_cast<uint32_t>(id));
  return static_cast<size_t>(SplitMix64(state) % num_shards);
}

void RowPool::Append(ChunkId id, const float* v) {
  size_t offset = data_.size();
  data_.resize(offset + stride_, 0.0f);
  std::memcpy(data_.data() + offset, v, dim_ * sizeof(float));
  norms_.push_back(SquaredNormBlocked(data_.data() + offset, dim_));
  ids_.push_back(id);
}

// --- Bounded top-k selection ------------------------------------------------
//
// Cand / BoundedTopK moved to topk.h (shared with mutable_index.cc); the
// distance scans stay here so the hot-flags TU holds their only codegen.

namespace {

// Folds per-shard top-k heaps (heaps[start + i * stride] for i in
// [0, count)) into the global top-k. Each shard heap holds its shard's k
// best candidates under the shared (distance, order) total order — a
// superset of that shard's contribution to the global top-k — so offering
// them all into one fresh heap yields exactly the single-shard result.
std::vector<SearchHit> MergeShardTopK(std::vector<BoundedTopK>& heaps, size_t start,
                                      size_t stride, size_t count, size_t k) {
  if (count == 1) {
    return heaps[start].Drain();
  }
  BoundedTopK merged(k);
  for (size_t i = 0; i < count; ++i) {
    for (const Cand& c : heaps[start + i * stride].cands()) {
      merged.Offer(c.dist, c.order, c.id);
    }
  }
  return merged.Drain();
}

// The exact distance of pool row i: the one expression every read — full
// scans and the certified scan's pass 2 — evaluates, in this TU only
// (topk.h).
inline float RowDistance(const RowPool& pool, size_t i, const float* q, double qnorm,
                         DotKernelFn dot) {
  float d = static_cast<float>(pool.norm(i) + qnorm - 2.0 * dot(pool.row(i), q, pool.dim()));
  // Decomposition rounding can dip just below zero for rows within ~1e-7 of
  // the query; a squared distance is never negative.
  return d < 0.0f ? 0.0f : d;
}

// Scores pool rows [begin, end) against one query and offers them to `out`.
// Candidate order is `base` + orders[i]: every scanned pool is an IndexShard
// pool, whose parallel `orders` array carries the single-shard-equivalent
// order per row. The dispatched dot kernel is fetched once per scan, not
// once per row. Templated on filtering so the unfiltered static path keeps
// exactly the loop it had before tombstones existed.
template <bool kFiltered>
void ScanRowsImpl(const RowPool& pool, size_t begin, size_t end, const float* q, double qnorm,
                  const size_t* orders, size_t base, const IdFilter& exclude, BoundedTopK& out) {
  DotKernelFn dot = ActiveDotKernel();
  for (size_t i = begin; i < end; ++i) {
    if (kFiltered && exclude.contains(pool.id(i))) {
      continue;
    }
    out.Offer(RowDistance(pool, i, q, qnorm, dot), base + orders[i], pool.id(i));
  }
}

// --- Certified scan (quantize.h has the bound) --------------------------------

// An encoded row pass 1 could not rule out, with its interval's lower end.
struct Survivor {
  double lo;
  size_t order;
  const RowPool* pool;
  uint32_t row;
};

// One query's certified-scan state between pass 1 and pass 2 (per heap).
struct CertifiedScan {
  CertifiedScan(const CertifiedQuery* query, size_t k)
      : cq(query), upper(query != nullptr ? k : 0) {}
  const CertifiedQuery* cq;  // Null when the index has no mirror.
  // The k smallest interval upper ends offered so far (rounded up to
  // float): upper.Bound() is the running U. U only falls, so every row it
  // once excluded stays excluded.
  BoundedTopK upper;
  std::vector<Survivor> survivors;
};

float RoundUpToFloat(double x) {
  float f = static_cast<float>(x);
  return static_cast<double>(f) < x ? std::nextafter(f, std::numeric_limits<float>::infinity())
                                    : f;
}

// Pass 1 over encoded shard rows [begin, end): keeps a row only while its
// interval's lower end is <= U.
template <bool kFiltered>
void CertifyRowsImpl(const IndexShard& sh, const QuantizedCodes& codes, size_t begin, size_t end,
                     size_t base, const IdFilter& exclude, CertifiedScan& scan) {
  const RowPool& pool = sh.rows;
  const CertifiedQuery& cq = *scan.cq;
  U8DotKernelFn dot = ActiveU8DotKernel();
  size_t dim = pool.dim();
  double cutoff = scan.upper.Bound();
  for (size_t i = begin; i < end; ++i) {
    if (kFiltered && exclude.contains(pool.id(i))) {
      continue;
    }
    float s = dot(codes.sq.data() + i * codes.sq_stride, cq.w.data(), dim);
    DistanceInterval iv = CertifiedInterval(cq, pool.norm(i), s);
    if (iv.lo > cutoff) {
      continue;  // Its hi is larger still: it cannot move U either.
    }
    size_t order = base + sh.orders[i];
    scan.upper.Offer(RoundUpToFloat(iv.hi), order, pool.id(i));
    cutoff = scan.upper.Bound();
    scan.survivors.push_back(Survivor{iv.lo, order, &pool, static_cast<uint32_t>(i)});
  }
}

// Scans shard rows [begin, end) for one query. Rows `codes` encodes take
// pass 1 into `scan`; the rest — every row, when `codes` is null — scan
// exactly into `out`, so an index without a mirror runs the plain exact
// loop.
void ScanShardRows(const IndexShard& sh, const QuantizedCodes* codes, size_t begin, size_t end,
                   const float* q, double qnorm, size_t base, const IdFilter& exclude,
                   CertifiedScan& scan, BoundedTopK& out) {
  size_t encoded = codes != nullptr ? std::min(codes->rows, sh.rows.size()) : 0;
  size_t mid = std::max(begin, std::min(end, encoded));
  if (begin < mid) {
    if (exclude.empty()) {
      CertifyRowsImpl<false>(sh, *codes, begin, mid, base, exclude, scan);
    } else {
      CertifyRowsImpl<true>(sh, *codes, begin, mid, base, exclude, scan);
    }
  }
  if (mid < end) {
    ScanRowsInto(sh.rows, mid, end, q, qnorm, sh.orders.data(), base, exclude, out);
  }
}

// Pass 2: re-scores the survivors exactly into `out`, lowest interval first,
// until no survivor's lower end can reach the top-k. The cut is the smaller
// of U and out.Bound() — `out` holds the un-encoded rows' and re-scored
// rows' exact distances, so its k-th smallest is an upper bound too.
void RescoreSurvivors(CertifiedScan& scan, const float* q, double qnorm, BoundedTopK& out) {
  std::vector<Survivor>& survivors = scan.survivors;
  std::sort(survivors.begin(), survivors.end(),
            [](const Survivor& a, const Survivor& b) { return a.lo < b.lo; });
  double cutoff = scan.upper.Bound();
  DotKernelFn dot = ActiveDotKernel();
  for (const Survivor& s : survivors) {
    if (s.lo > std::min<double>(cutoff, out.Bound())) {
      break;
    }
    out.Offer(RowDistance(*s.pool, s.row, q, qnorm, dot), s.order, s.pool->id(s.row));
  }
  survivors.clear();
}

// Scans shard `shard` of every probed inverted list into `out` (IVF batch
// fan-out unit). `probe_lists`/`bases` come from IvfL2Index::PlanProbes;
// `qcodes` is empty when the index has no mirror.
void ScanProbedShard(const std::vector<std::vector<IndexShard>>& lists,
                     const std::vector<std::vector<QuantizedCodes>>& qcodes,
                     const std::vector<size_t>& probe_lists, const std::vector<size_t>& bases,
                     size_t shard, const float* q, double qnorm, const IdFilter& exclude,
                     CertifiedScan& scan, BoundedTopK& out) {
  for (size_t p = 0; p < probe_lists.size(); ++p) {
    size_t l = probe_lists[p];
    const IndexShard& sh = lists[l][shard];
    const QuantizedCodes* codes = qcodes.empty() ? nullptr : &qcodes[l][shard];
    ScanShardRows(sh, codes, 0, sh.rows.size(), q, qnorm, bases[p], exclude, scan, out);
  }
}

// Rows per cache block for the shared batch sweep: ~128 KiB of row data, so a
// block stays L2-resident while every query in the batch scores it.
size_t BlockRows(size_t stride) {
  constexpr size_t kBlockFloats = 128 * 1024 / sizeof(float);
  return std::max<size_t>(1, kBlockFloats / stride);
}

// Bytes per row of each stored representation of an index of `dim` whose SQ
// mirror is built iff `mirrored` — FlatL2Index/IvfL2Index::bytes_per_row.
size_t ScanBytesPerRow(size_t dim, bool mirrored, RetrievalPrecision tier) {
  switch (tier) {
    case RetrievalPrecision::kFp32:
      return PaddedStride(dim) * sizeof(float);
    case RetrievalPrecision::kInt8:
      return mirrored ? SqCodeStride(dim) : 0;
  }
  return 0;
}

// Trains the SQ quantizer over `rows` (the backend's shard-invariant row
// order), then encodes every (rows, codes) pair; both split across `pool`.
// Returns the per-dimension max of the pairs' sq_delta.
using EncodeJobs = std::vector<std::pair<const RowPool*, QuantizedCodes*>>;

std::vector<double> BuildMirrors(const std::vector<const float*>& rows, size_t dim,
                                 const EncodeJobs& jobs, ThreadPool* pool, Int8Params* sq) {
  *sq = TrainInt8([&rows](size_t i) { return rows[i]; }, rows.size(), dim, pool);
  std::vector<double> delta(dim, 0.0);
  for (const auto& [src, codes] : jobs) {
    EncodeRows(*sq, *src, 0, src->size(), codes, pool);
    for (size_t d = 0; d < dim; ++d) {
      delta[d] = std::max(delta[d], codes->sq_delta[d]);
    }
  }
  return delta;
}

}  // namespace

// The one definition of the filtered scan (declared in topk.h; see there for
// why mutable_index.cc must not grow its own copy).
void ScanRowsInto(const RowPool& pool, size_t begin, size_t end, const float* q, double qnorm,
                  const size_t* orders, size_t base, const IdFilter& exclude, BoundedTopK& out) {
  if (exclude.empty()) {
    ScanRowsImpl<false>(pool, begin, end, q, qnorm, orders, base, exclude, out);
  } else {
    ScanRowsImpl<true>(pool, begin, end, q, qnorm, orders, base, exclude, out);
  }
}

// The exact distance of one row (declared in quantize.h): RowDistance with
// the active kernel, defined in this TU so the exact distance has a single
// codegen.
float ExactRowDistance(const RowPool& pool, size_t row, const float* q, double qnorm) {
  return RowDistance(pool, row, q, qnorm, ActiveDotKernel());
}

// --- Shared read paths ------------------------------------------------------

namespace {

std::vector<SearchHit> ToSearchHits(const std::vector<OrderedHit>& hits) {
  std::vector<SearchHit> out;
  out.reserve(hits.size());
  for (const OrderedHit& h : hits) {
    out.push_back(SearchHit{h.id, h.distance});
  }
  return out;
}

}  // namespace

// --- FlatL2Index ------------------------------------------------------------

FlatL2Index::FlatL2Index(size_t dim, size_t num_shards) : dim_(dim) {
  METIS_CHECK_GT(dim, 0u);
  METIS_CHECK_GT(num_shards, 0u);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.emplace_back(dim);
  }
}

void FlatL2Index::Add(ChunkId id, const Embedding& v) {
  METIS_CHECK_EQ(v.size(), dim_);
  shards_[ShardOfId(id, shards_.size())].Append(id, v.data(), count_++);
}

std::vector<SearchHit> FlatL2Index::Search(const Embedding& query, size_t k,
                                           const RetrievalQuality& quality) const {
  return ToSearchHits(SearchOrdered(query, k, quality, IdFilter{}));
}

std::vector<std::vector<SearchHit>> FlatL2Index::SearchBatch(
    const std::vector<Embedding>& queries, size_t k, ThreadPool* pool,
    const std::vector<RetrievalQuality>& qualities) const {
  // Exact backend: qualities carry no recall knob.
  METIS_CHECK_EQ(qualities.size(), queries.size());
  for (const Embedding& q : queries) {
    METIS_CHECK_EQ(q.size(), dim_);
  }
  std::vector<std::vector<SearchHit>> results(queries.size());
  if (queries.empty() || k == 0 || count_ == 0) {
    return results;
  }
  size_t nq = queries.size();
  size_t nshards = shards_.size();
  std::vector<double> qnorms(nq);
  std::vector<CertifiedQuery> cqs(quantized_ ? nq : 0);
  for (size_t qi = 0; qi < nq; ++qi) {
    qnorms[qi] = SquaredNormBlocked(queries[qi].data(), dim_);
    if (quantized_) {
      BuildCertifiedQuery(sq_, sq_delta_, queries[qi].data(), dim_, qnorms[qi], &cqs[qi]);
    }
  }

  // Fan the (shard x query) grid out across the pool: one heap (and one
  // certified-scan state) per cell, so workers own disjoint slots and the
  // merged result is independent of the partitioning. Task ids are
  // shard-major — a contiguous task range covers consecutive queries of
  // one shard before moving to the next — so each worker still streams a
  // shard's rows through the cache-sized blocks once for all of its
  // queries; each query's pass 2 follows the shard's sweep.
  std::vector<BoundedTopK> heaps;
  std::vector<CertifiedScan> scans;
  heaps.reserve(nshards * nq);
  scans.reserve(nshards * nq);
  for (size_t i = 0; i < nshards * nq; ++i) {
    heaps.emplace_back(k);
    scans.emplace_back(quantized_ ? &cqs[i % nq] : nullptr, k);
  }
  auto sweep = [&](size_t tb, size_t te) {
    size_t t = tb;
    while (t < te) {
      size_t shard = t / nq;
      size_t run_end = std::min(te, (shard + 1) * nq);
      size_t qb = t - shard * nq;
      size_t qe = run_end - shard * nq;
      const IndexShard& sh = shards_[shard];
      const QuantizedCodes* codes = quantized_ ? &qcodes_[shard] : nullptr;
      size_t block = BlockRows(sh.rows.stride());
      for (size_t rb = 0; rb < sh.rows.size(); rb += block) {
        size_t re = std::min(rb + block, sh.rows.size());
        for (size_t qi = qb; qi < qe; ++qi) {
          ScanShardRows(sh, codes, rb, re, queries[qi].data(), qnorms[qi], 0, IdFilter{},
                        scans[shard * nq + qi], heaps[shard * nq + qi]);
        }
      }
      for (size_t qi = qb; qi < qe; ++qi) {
        RescoreSurvivors(scans[shard * nq + qi], queries[qi].data(), qnorms[qi],
                         heaps[shard * nq + qi]);
      }
      t = run_end;
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && nshards * nq > 1) {
    pool->ParallelFor(nshards * nq, sweep);
  } else {
    sweep(0, nshards * nq);
  }
  for (size_t qi = 0; qi < nq; ++qi) {
    results[qi] = MergeShardTopK(heaps, /*start=*/qi, /*stride=*/nq, nshards, k);
  }
  return results;
}

std::vector<OrderedHit> FlatL2Index::SearchOrdered(const Embedding& query, size_t k,
                                                   const RetrievalQuality& quality,
                                                   const IdFilter& exclude) const {
  (void)quality;  // Exact backend: no recall knob.
  METIS_CHECK_EQ(query.size(), dim_);
  if (k == 0 || count_ == 0) {
    return {};
  }
  double qnorm = SquaredNormBlocked(query.data(), dim_);
  CertifiedQuery cq;
  if (quantized_) {
    BuildCertifiedQuery(sq_, sq_delta_, query.data(), dim_, qnorm, &cq);
  }
  // One heap (and one certified-scan state) across all shards: the
  // (distance, global order) total order makes the scan order across shards
  // irrelevant.
  BoundedTopK topk(k);
  CertifiedScan scan(quantized_ ? &cq : nullptr, k);
  for (size_t s = 0; s < shards_.size(); ++s) {
    const IndexShard& shard = shards_[s];
    ScanShardRows(shard, quantized_ ? &qcodes_[s] : nullptr, 0, shard.rows.size(), query.data(),
                  qnorm, 0, exclude, scan, topk);
  }
  RescoreSurvivors(scan, query.data(), qnorm, topk);
  return topk.DrainOrdered();
}

bool FlatL2Index::BuildQuantizedMirrors(ThreadPool* pool) {
  if (count_ == 0) {
    return false;
  }
  // Train over rows in global insertion order (shard.orders maps each shard
  // row back to its single-shard position), so the trained quantizer — and
  // therefore every code — is invariant to the shard count.
  std::vector<const float*> rows(count_, nullptr);
  for (const IndexShard& shard : shards_) {
    for (size_t i = 0; i < shard.rows.size(); ++i) {
      rows[shard.orders[i]] = shard.rows.row(i);
    }
  }
  qcodes_.assign(shards_.size(), QuantizedCodes{});
  EncodeJobs jobs;
  for (size_t s = 0; s < shards_.size(); ++s) {
    jobs.emplace_back(&shards_[s].rows, &qcodes_[s]);
  }
  sq_delta_ = BuildMirrors(rows, dim_, jobs, pool, &sq_);
  quantized_ = true;
  return true;
}

size_t FlatL2Index::bytes_per_row(RetrievalPrecision tier) const {
  return ScanBytesPerRow(dim_, quantized_, tier);
}

// --- IvfL2Index -------------------------------------------------------------

IvfL2Index::IvfL2Index(size_t dim, size_t nlist, size_t nprobe, uint64_t seed, size_t num_shards)
    : dim_(dim),
      nlist_(nlist),
      nprobe_(std::min(nprobe, nlist)),
      seed_(seed),
      num_shards_(num_shards),
      centroids_(dim),
      staged_(dim) {
  METIS_CHECK_GT(dim, 0u);
  METIS_CHECK_GT(nlist, 0u);
  METIS_CHECK_GT(nprobe, 0u);
  METIS_CHECK_GT(num_shards, 0u);
}

void IvfL2Index::Add(ChunkId id, const Embedding& v) {
  METIS_CHECK_EQ(v.size(), dim_);
  ++count_;
  if (!trained_) {
    staged_.Append(id, v.data());
    return;
  }
  size_t list = NearestCentroid(v.data());
  lists_[list][ShardOfId(id, num_shards_)].Append(id, v.data(), list_counts_[list]++);
}

double IvfL2Index::NearestCentroidDistance(const float* v) const {
  double vnorm = SquaredNormBlocked(v, dim_);
  DotKernelFn dot = ActiveDotKernel();
  float best_d = std::numeric_limits<float>::max();
  for (size_t c = 0; c < centroids_.size(); ++c) {
    float d = static_cast<float>(centroids_.norm(c) + vnorm - 2.0 * dot(centroids_.row(c), v, dim_));
    if (d < best_d) {
      best_d = d;
    }
  }
  return centroids_.size() == 0 ? 0.0 : std::max(0.0, static_cast<double>(best_d));
}

size_t IvfL2Index::NearestCentroid(const float* v) const {
  double vnorm = SquaredNormBlocked(v, dim_);
  DotKernelFn dot = ActiveDotKernel();
  size_t best = 0;
  float best_d = std::numeric_limits<float>::max();
  for (size_t c = 0; c < centroids_.size(); ++c) {
    float d = static_cast<float>(centroids_.norm(c) + vnorm - 2.0 * dot(centroids_.row(c), v, dim_));
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

void IvfL2Index::Train(ThreadPool* pool) {
  METIS_CHECK(!trained_);
  METIS_CHECK_GT(staged_.size(), 0u);
  size_t n = staged_.size();
  size_t nlist = std::min(nlist_, n);

  auto parallel = [&](size_t count, const std::function<void(size_t, size_t)>& fn) {
    if (pool != nullptr && pool->num_threads() > 1) {
      pool->ParallelFor(count, fn);
    } else {
      fn(0, count);
    }
  };
  auto copy_row = [&](size_t i) {
    const float* r = staged_.row(i);
    return Embedding(r, r + dim_);
  };
  auto rebuild_centroids = [&](const std::vector<Embedding>& cents) {
    centroids_ = RowPool(dim_);
    for (size_t c = 0; c < cents.size(); ++c) {
      centroids_.Append(static_cast<ChunkId>(c), cents[c].data());
    }
  };

  // Farthest-point seeding from a deterministic stream (approximates
  // k-means++ well enough here). nearest_d[i] — the distance from row i to
  // its closest centroid so far — is maintained incrementally: appending a
  // centroid only needs one O(n * dim) sharded scan against that centroid,
  // instead of the seed's O(n * ncentroids * dim) rescan per pick. min() is
  // associative, so the incremental values (and the picks) are exact.
  Rng rng(seed_);
  std::vector<Embedding> cents;
  cents.push_back(copy_row(rng.Index(n)));
  std::vector<float> nearest_d(n, std::numeric_limits<float>::max());
  auto absorb_centroid = [&](const Embedding& c) {
    double cnorm = SquaredNormBlocked(c.data(), dim_);
    DotKernelFn dot = ActiveDotKernel();
    parallel(n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        float d = static_cast<float>(cnorm + staged_.norm(i) -
                                     2.0 * dot(staged_.row(i), c.data(), dim_));
        if (d < nearest_d[i]) {
          nearest_d[i] = d;
        }
      }
    });
  };
  absorb_centroid(cents.back());
  while (cents.size() < nlist) {
    size_t best_i = 0;
    float best_d = -1;
    for (size_t i = 0; i < n; ++i) {
      if (nearest_d[i] > best_d) {
        best_d = nearest_d[i];
        best_i = i;
      }
    }
    cents.push_back(copy_row(best_i));
    absorb_centroid(cents.back());
  }

  // Lloyd rounds. Assignment (the O(n * nlist * dim) part) shards across the
  // pool into a per-row slot; the float accumulation then runs serially in
  // row order so centroids are bit-identical for every pool size.
  std::vector<size_t> assign(n);
  auto assign_all = [&]() {
    parallel(n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        assign[i] = NearestCentroid(staged_.row(i));
      }
    });
  };
  for (int round = 0; round < 5; ++round) {
    rebuild_centroids(cents);
    assign_all();
    std::vector<Embedding> sums(cents.size(), Embedding(dim_, 0));
    std::vector<size_t> counts(cents.size(), 0);
    for (size_t i = 0; i < n; ++i) {
      const float* r = staged_.row(i);
      Embedding& sum = sums[assign[i]];
      for (size_t j = 0; j < dim_; ++j) {
        sum[j] += r[j];
      }
      ++counts[assign[i]];
    }
    for (size_t c = 0; c < cents.size(); ++c) {
      if (counts[c] > 0) {
        for (size_t j = 0; j < dim_; ++j) {
          cents[c][j] = sums[c][j] / static_cast<float>(counts[c]);
        }
      }
    }
  }

  rebuild_centroids(cents);
  assign_all();
  // Fill the hash-partitioned lists in staged (insertion) order: a row's
  // in-list order is the position it would have in a single-shard list, so
  // search results cannot depend on num_shards_.
  lists_.clear();
  lists_.reserve(cents.size());
  for (size_t c = 0; c < cents.size(); ++c) {
    std::vector<IndexShard> shards;
    shards.reserve(num_shards_);
    for (size_t s = 0; s < num_shards_; ++s) {
      shards.emplace_back(dim_);
    }
    lists_.push_back(std::move(shards));
  }
  list_counts_.assign(cents.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    size_t list = assign[i];
    ChunkId id = staged_.id(i);
    lists_[list][ShardOfId(id, num_shards_)].Append(id, staged_.row(i), list_counts_[list]++);
  }
  // Train-time centroid fit: the reference point the mutable index compares
  // newly sealed rows against to detect centroid-quality decay.
  double assign_dist_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    assign_dist_sum += NearestCentroidDistance(staged_.row(i));
  }
  train_mean_assign_dist_ = assign_dist_sum / static_cast<double>(n);
  staged_ = RowPool(dim_);
  trained_ = true;
}

IvfL2Index::ProbePlan IvfL2Index::ResolveProbe(const RetrievalQuality& quality) const {
  ProbePlan plan;
  switch (quality.mode) {
    case RetrievalQuality::ProbeMode::kIndexDefault:
      plan.adaptive = adaptive_.enabled;
      break;
    case RetrievalQuality::ProbeMode::kFixed:
      plan.adaptive = false;
      break;
    case RetrievalQuality::ProbeMode::kAdaptive:
      plan.adaptive = true;
      break;
  }
  if (plan.adaptive) {
    plan.budget = quality.nprobe > 0      ? quality.nprobe
                  : adaptive_.max_probes > 0 ? adaptive_.max_probes
                                             : nprobe_;
    plan.min_probes = std::max<size_t>(1, std::min(adaptive_.min_probes, plan.budget));
    plan.ratio = adaptive_.distance_ratio;
  } else {
    plan.budget = quality.nprobe > 0 ? quality.nprobe : nprobe_;
    plan.min_probes = plan.budget;
  }
  return plan;
}

IvfL2Index::ProbeSet IvfL2Index::PlanProbes(const float* q, double qnorm,
                                            const ProbePlan& plan) const {
  // Rank lists by centroid distance; probe the closest lists. Ties resolve
  // toward the lower list index (pair comparison), as in the seed.
  std::vector<std::pair<float, size_t>> order;
  order.reserve(centroids_.size());
  DotKernelFn dot = ActiveDotKernel();
  for (size_t c = 0; c < centroids_.size(); ++c) {
    order.emplace_back(
        static_cast<float>(centroids_.norm(c) + qnorm - 2.0 * dot(centroids_.row(c), q, dim_)),
        c);
  }
  std::stable_sort(order.begin(), order.end());

  // Candidate-order bases run through the probed lists in probe order,
  // matching the seed's concatenate-then-stable-sort tie-break.
  ProbeSet set;
  size_t budget = std::min(plan.budget, order.size());
  // Adaptive early termination: once past min_probes, stop at the first list
  // whose centroid distance exceeds ratio x the closest centroid's distance.
  // Squared distances never go below zero (clamp guards decomposition
  // rounding), so a query sitting on a centroid (d0 == 0) stops right after
  // its mandatory probes.
  double cutoff = plan.adaptive && budget > 0
                      ? plan.ratio * std::max(0.0f, order[0].first)
                      : std::numeric_limits<double>::infinity();
  size_t base = 0;
  for (size_t p = 0; p < budget; ++p) {
    if (plan.adaptive && p >= plan.min_probes && static_cast<double>(order[p].first) > cutoff) {
      break;
    }
    set.lists.push_back(order[p].second);
    set.bases.push_back(base);
    base += list_counts_[order[p].second];
  }
  return set;
}

std::vector<SearchHit> IvfL2Index::Search(const Embedding& query, size_t k,
                                          const RetrievalQuality& quality) const {
  return ToSearchHits(SearchOrdered(query, k, quality, IdFilter{}));
}

std::vector<OrderedHit> IvfL2Index::SearchOrdered(const Embedding& query, size_t k,
                                                  const RetrievalQuality& quality,
                                                  const IdFilter& exclude) const {
  METIS_CHECK_EQ(query.size(), dim_);
  METIS_CHECK(trained_);
  double qnorm = SquaredNormBlocked(query.data(), dim_);
  ProbeSet probes = PlanProbes(query.data(), qnorm, ResolveProbe(quality));
  CertifiedQuery cq;
  if (quantized_) {
    BuildCertifiedQuery(sq_, sq_delta_, query.data(), dim_, qnorm, &cq);
  }
  // One heap (and one certified-scan state) across every shard of every
  // probed list: the (distance, order) total order makes the shard visit
  // order irrelevant.
  BoundedTopK topk(k);
  CertifiedScan scan(quantized_ ? &cq : nullptr, k);
  for (size_t shard = 0; shard < num_shards_; ++shard) {
    ScanProbedShard(lists_, qcodes_, probes.lists, probes.bases, shard, query.data(), qnorm,
                    exclude, scan, topk);
  }
  RescoreSurvivors(scan, query.data(), qnorm, topk);
  stats_.Record(probes.lists.size());
  return topk.DrainOrdered();
}

std::vector<uint64_t> IvfL2Index::probe_histogram() const {
  std::vector<uint64_t> hist(kProbeHistogramBuckets);
  for (size_t i = 0; i < hist.size(); ++i) {
    hist[i] = stats_.hist[i].load(std::memory_order_relaxed);
  }
  return hist;
}

bool IvfL2Index::BuildQuantizedMirrors(ThreadPool* pool) {
  if (!trained_ || count_ == 0) {
    return false;
  }
  // Train over rows in (list, in-list order) — both shard-invariant — so the
  // quantizer, and therefore every code, does not depend on the shard count.
  std::vector<const float*> rows;
  rows.reserve(count_);
  for (size_t l = 0; l < lists_.size(); ++l) {
    std::vector<const float*> in_list(list_counts_[l], nullptr);
    for (const IndexShard& sh : lists_[l]) {
      for (size_t i = 0; i < sh.rows.size(); ++i) {
        in_list[sh.orders[i]] = sh.rows.row(i);
      }
    }
    rows.insert(rows.end(), in_list.begin(), in_list.end());
  }
  qcodes_.assign(lists_.size(), std::vector<QuantizedCodes>(num_shards_));
  EncodeJobs jobs;
  for (size_t l = 0; l < lists_.size(); ++l) {
    for (size_t s = 0; s < num_shards_; ++s) {
      jobs.emplace_back(&lists_[l][s].rows, &qcodes_[l][s]);
    }
  }
  sq_delta_ = BuildMirrors(rows, dim_, jobs, pool, &sq_);
  quantized_ = true;
  return true;
}

size_t IvfL2Index::bytes_per_row(RetrievalPrecision tier) const {
  return ScanBytesPerRow(dim_, quantized_, tier);
}

std::vector<std::vector<SearchHit>> IvfL2Index::SearchBatch(
    const std::vector<Embedding>& queries, size_t k, ThreadPool* pool,
    const std::vector<RetrievalQuality>& qualities) const {
  METIS_CHECK_EQ(qualities.size(), queries.size());
  METIS_CHECK(trained_);
  for (const Embedding& q : queries) {
    METIS_CHECK_EQ(q.size(), dim_);
  }
  std::vector<std::vector<SearchHit>> results(queries.size());
  if (queries.empty()) {
    return results;
  }
  size_t nq = queries.size();
  size_t nshards = num_shards_;
  bool parallel = pool != nullptr && pool->num_threads() > 1;

  // Phase 1 — plan: per-query centroid ranking + adaptive rule, into
  // disjoint slots (deterministic for any partitioning). Each query
  // resolves its OWN quality override, so a coalesced group can mix probe
  // modes and budgets; the probe count is fixed here, before any row is
  // scanned.
  std::vector<double> qnorms(nq);
  std::vector<ProbeSet> sets(nq);
  std::vector<CertifiedQuery> cqs(quantized_ ? nq : 0);
  auto plan_phase = [&](size_t qb, size_t qe) {
    for (size_t qi = qb; qi < qe; ++qi) {
      qnorms[qi] = SquaredNormBlocked(queries[qi].data(), dim_);
      sets[qi] = PlanProbes(queries[qi].data(), qnorms[qi], ResolveProbe(qualities[qi]));
      if (quantized_) {
        BuildCertifiedQuery(sq_, sq_delta_, queries[qi].data(), dim_, qnorms[qi], &cqs[qi]);
      }
    }
  };
  if (parallel && nq > 1) {
    pool->ParallelFor(nq, plan_phase);
  } else {
    plan_phase(0, nq);
  }

  // Phase 2 — scan: fan the (query x shard) grid out across the pool, one
  // heap per cell, each cell's pass 2 right after its pass 1.
  std::vector<BoundedTopK> heaps;
  heaps.reserve(nq * nshards);
  for (size_t i = 0; i < nq * nshards; ++i) {
    heaps.emplace_back(k);
  }
  auto scan_phase = [&](size_t tb, size_t te) {
    for (size_t t = tb; t < te; ++t) {
      size_t qi = t / nshards;
      size_t shard = t % nshards;
      CertifiedScan scan(quantized_ ? &cqs[qi] : nullptr, k);
      ScanProbedShard(lists_, qcodes_, sets[qi].lists, sets[qi].bases, shard, queries[qi].data(),
                      qnorms[qi], IdFilter{}, scan, heaps[t]);
      RescoreSurvivors(scan, queries[qi].data(), qnorms[qi], heaps[t]);
    }
  };
  if (parallel && nq * nshards > 1) {
    pool->ParallelFor(nq * nshards, scan_phase);
  } else {
    scan_phase(0, nq * nshards);
  }

  // Phase 3 — merge per query and fold the probe tally into the counters
  // after the barrier, on the calling thread.
  for (size_t qi = 0; qi < nq; ++qi) {
    results[qi] = MergeShardTopK(heaps, qi * nshards, /*stride=*/1, nshards, k);
    stats_.Record(sets[qi].lists.size());
  }
  return results;
}

// --- VectorDatabase ---------------------------------------------------------

namespace {
// Query texts repeat across profiler probes, config sweeps, and feedback
// runs, but the working set per run is modest.
constexpr size_t kQueryCacheCapacity = 512;
}  // namespace

std::unique_ptr<VectorIndex> MakeBackendIndex(size_t dim, const RetrievalIndexOptions& options,
                                              IvfL2Index** ivf_out) {
  *ivf_out = nullptr;
  size_t shards = std::max<size_t>(1, options.shards);
  if (options.backend == RetrievalIndexOptions::Backend::kIvf) {
    auto ivf = std::make_unique<IvfL2Index>(dim, options.nlist, options.nprobe,
                                            options.train_seed, shards);
    ivf->set_adaptive_probe(options.adaptive);
    *ivf_out = ivf.get();
    return ivf;
  }
  return std::make_unique<FlatL2Index>(dim, shards);
}

VectorDatabase::VectorDatabase(EmbeddingModel embedder, DatabaseMetadata metadata,
                               RetrievalIndexOptions index_options)
    : embedder_(std::move(embedder)),
      metadata_(std::move(metadata)),
      index_options_(index_options),
      query_cache_(&embedder_, kQueryCacheCapacity) {
  // In the body, not the init list: the factory writes ivf_, whose own
  // default initializer would otherwise run afterwards and null it out again.
  if (index_options_.mutable_index) {
    auto mut = std::make_unique<MutableIndex>(embedder_.dim(), index_options_);
    mutable_ = mut.get();
    index_ = std::move(mut);
  } else {
    index_ = MakeBackendIndex(embedder_.dim(), index_options_, &ivf_);
  }
  if (index_options_.lexical) {
    lexical_ = std::make_unique<LexicalIndex>(std::max<size_t>(1, index_options_.shards),
                                              index_options_.mutation.memtable_rows,
                                              index_options_.mutation.compact_segments);
  }
}

// Out of line: LexicalIndex is incomplete in the header.
VectorDatabase::~VectorDatabase() = default;

const IvfL2Index* VectorDatabase::ivf_index() const {
  return mutable_ != nullptr ? mutable_->base_ivf() : ivf_;
}

ChunkId VectorDatabase::AddChunk(Chunk chunk) {
  chunk.id = static_cast<ChunkId>(chunks_.size());
  index_->Add(chunk.id, embedder_.Embed(chunk.text));
  if (lexical_ != nullptr) {
    lexical_->Add(chunk.id, chunk.text);
  }
  chunks_.push_back(std::move(chunk));
  deleted_.push_back(false);
  return chunks_.back().id;
}

std::vector<ChunkId> VectorDatabase::AddChunks(std::vector<Chunk> chunks, ThreadPool* pool) {
  // Embedding (tokenize + hash) dominates bulk load and each text is
  // independent, so the batch shards across the pool; indexing then runs
  // serially in order, preserving AddChunk-for-AddChunk identical ids and
  // insertion orders.
  std::vector<std::string> texts;
  texts.reserve(chunks.size());
  for (const Chunk& c : chunks) {
    texts.push_back(c.text);
  }
  std::vector<Embedding> embeddings = embedder_.EmbedBatch(texts, pool);
  std::vector<ChunkId> ids;
  ids.reserve(chunks.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    Chunk& chunk = chunks[i];
    chunk.id = static_cast<ChunkId>(chunks_.size());
    index_->Add(chunk.id, embeddings[i]);
    if (lexical_ != nullptr) {
      lexical_->Add(chunk.id, chunk.text);
    }
    chunks_.push_back(std::move(chunk));
    deleted_.push_back(false);
    ids.push_back(chunks_.back().id);
  }
  return ids;
}

void VectorDatabase::FinalizeIndex(ThreadPool* pool) {
  if (mutable_ != nullptr) {
    mutable_->Finalize(pool);
    return;
  }
  if (ivf_ != nullptr && !ivf_->trained() && ivf_->size() > 0) {
    ivf_->Train(pool);
  }
  // The SQ mirror, encoded across the same pool.
  index_->BuildQuantizedMirrors(pool);
}

std::vector<ChunkId> VectorDatabase::InsertChunks(std::vector<Chunk> chunks, ThreadPool* pool) {
  METIS_CHECK(mutable_ != nullptr);
  // Post-finalize, index_->Add routes into the mutable index's memtable, so
  // the bulk-load path is exactly the streaming-insert path.
  return AddChunks(std::move(chunks), pool);
}

size_t VectorDatabase::DeleteChunks(const std::vector<ChunkId>& ids) {
  METIS_CHECK(mutable_ != nullptr);
  size_t deleted = 0;
  for (ChunkId id : ids) {
    METIS_CHECK_GE(id, 0);
    METIS_CHECK_LT(static_cast<size_t>(id), chunks_.size());
    if (deleted_[static_cast<size_t>(id)]) {
      continue;
    }
    METIS_CHECK(mutable_->Delete(id));
    if (lexical_ != nullptr) {
      METIS_CHECK(lexical_->Remove(id));
    }
    deleted_[static_cast<size_t>(id)] = true;
    ++deleted_count_;
    ++deleted;
  }
  return deleted;
}

bool VectorDatabase::chunk_live(ChunkId id) const {
  METIS_CHECK_GE(id, 0);
  METIS_CHECK_LT(static_cast<size_t>(id), chunks_.size());
  return !deleted_[static_cast<size_t>(id)];
}

namespace {

// Does this quality leave the pure-dense fast path? (The fast path must stay
// byte-for-byte the pre-hybrid code: parity when the knob is off.)
bool NeedsHybridPath(const RetrievalQuality& quality) {
  return quality.hybrid || quality.filter.active();
}

// Deterministic weighted reciprocal-rank fusion over the two backends'
// candidate lists (fixed backend order: dense, then lexical):
//
//     fused(d) = sum_b  w_b / (60 + rank_b(d) + 1)
//
// with ranks 0-based and the classic RRF damping constant 60. The final
// ranking runs under (fused score desc, chunk id asc) — a total order over
// deterministic inputs, so fusion is bit-stable for any shard/thread count.
// Returned distance = -fused score (lower = better, like both legs).
std::vector<SearchHit> FuseReciprocalRank(const std::vector<SearchHit>& dense, float dense_w,
                                          const std::vector<SearchHit>& lexical, float lexical_w,
                                          size_t k) {
  struct Fused {
    double score = 0;
    ChunkId id = -1;
  };
  std::vector<Fused> fused;
  std::unordered_map<ChunkId, size_t> slot;
  auto fold = [&](const std::vector<SearchHit>& hits, double w) {
    for (size_t rank = 0; rank < hits.size(); ++rank) {
      auto [it, inserted] = slot.try_emplace(hits[rank].id, fused.size());
      if (inserted) {
        fused.push_back(Fused{0.0, hits[rank].id});
      }
      fused[it->second].score += w / (60.0 + static_cast<double>(rank) + 1.0);
    }
  };
  fold(dense, static_cast<double>(dense_w));
  fold(lexical, static_cast<double>(lexical_w));
  std::sort(fused.begin(), fused.end(), [](const Fused& a, const Fused& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });
  if (fused.size() > k) {
    fused.resize(k);
  }
  std::vector<SearchHit> out;
  out.reserve(fused.size());
  for (const Fused& f : fused) {
    out.push_back(SearchHit{f.id, -static_cast<float>(f.score)});
  }
  return out;
}

}  // namespace

std::shared_ptr<const std::vector<ChunkId>> VectorDatabase::CompileFilter(
    const MetadataFilter& filter) const {
  std::lock_guard<std::mutex> lock(filter_mu_);
  if (cached_filter_excluded_ != nullptr && cached_filter_ == filter &&
      cached_filter_chunks_ == chunks_.size() && cached_filter_deletes_ == deleted_count_) {
    return cached_filter_excluded_;
  }
  auto excluded = std::make_shared<std::vector<ChunkId>>();
  for (const Chunk& c : chunks_) {
    if (!filter.Matches(c)) {
      excluded->push_back(c.id);  // Ids are assigned in order: already sorted.
    }
  }
  cached_filter_ = filter;
  cached_filter_chunks_ = chunks_.size();
  cached_filter_deletes_ = deleted_count_;
  cached_filter_excluded_ = excluded;
  return excluded;
}

std::vector<SearchHit> VectorDatabase::RetrieveHybrid(const std::string& query_text, size_t k,
                                                      const RetrievalQuality& quality) const {
  // Compile the metadata filter into a sorted excluded-id set, pushed into
  // every backend's scan (inside the scan, before top-k — the tombstone rule).
  std::shared_ptr<const std::vector<ChunkId>> excluded;
  IdFilter exclude;
  if (quality.filter.active()) {
    excluded = CompileFilter(quality.filter);
    exclude = IdFilter{excluded->data(), excluded->data() + excluded->size()};
  }

  bool want_dense = !quality.hybrid || quality.dense_weight > 0;
  // The lexical leg needs a lexical index; without one the query serves
  // dense-only (the knob can only be cheaper, never wrong).
  bool want_lexical = quality.hybrid && quality.lexical_weight > 0 && lexical_ != nullptr;
  if (!want_dense && !want_lexical) {
    want_dense = true;  // Both weights zero: degenerate, serve dense.
  }

  std::vector<SearchHit> dense_hits;
  if (want_dense) {
    const Embedding& query = query_cache_.Get(query_text);
    // SearchOrdered is every backend's exclusion-aware scan.
    dense_hits = exclude.empty() ? index_->Search(query, k, quality)
                                 : ToSearchHits(index_->SearchOrdered(query, k, quality, exclude));
    dense_searches_.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<SearchHit> lexical_hits;
  if (want_lexical) {
    lexical_hits = lexical_->Search(query_text, k, exclude, search_pool_);
    lexical_searches_.fetch_add(1, std::memory_order_relaxed);
  }

  if (!want_lexical) {
    return dense_hits;  // Filter-only or dense-only: the leg's native ranking.
  }
  if (!want_dense) {
    return lexical_hits;  // Lexical-only: BM25's native ranking.
  }
  fused_queries_.fetch_add(1, std::memory_order_relaxed);
  return FuseReciprocalRank(dense_hits, quality.dense_weight, lexical_hits,
                            quality.lexical_weight, k);
}

std::vector<SearchHit> VectorDatabase::RetrieveWithDistances(const std::string& query_text,
                                                             size_t k,
                                                             const RetrievalQuality& quality) const {
  if (NeedsHybridPath(quality)) {
    return RetrieveHybrid(query_text, k, quality);
  }
  return index_->Search(query_cache_.Get(query_text), k, quality);
}

std::vector<std::vector<SearchHit>> VectorDatabase::RetrieveBatch(
    const std::vector<std::string>& query_texts, size_t k,
    const std::vector<RetrievalQuality>& qualities) const {
  METIS_CHECK_EQ(qualities.size(), query_texts.size());
  // Hybrid/filtered queries run their per-query path; the plain rest ride
  // one coalesced SearchBatch sweep.
  std::vector<std::vector<SearchHit>> results(query_texts.size());
  std::vector<size_t> plain;
  std::vector<std::string> texts;
  std::vector<RetrievalQuality> quals;
  for (size_t i = 0; i < query_texts.size(); ++i) {
    if (NeedsHybridPath(qualities[i])) {
      results[i] = RetrieveHybrid(query_texts[i], k, qualities[i]);
    } else {
      plain.push_back(i);
      texts.push_back(query_texts[i]);
      quals.push_back(qualities[i]);
    }
  }
  if (!plain.empty()) {
    // GetBatch serves cache hits and embeds the misses in one EmbedBatch
    // (sharded across the search pool), returning owned copies so later
    // cache evictions cannot invalidate the batch.
    std::vector<Embedding> queries = query_cache_.GetBatch(texts, search_pool_);
    std::vector<std::vector<SearchHit>> swept =
        index_->SearchBatch(queries, k, search_pool_, quals);
    for (size_t j = 0; j < plain.size(); ++j) {
      results[plain[j]] = std::move(swept[j]);
    }
  }
  return results;
}

HybridSearchStats VectorDatabase::hybrid_stats() const {
  HybridSearchStats out;
  out.dense_searches = dense_searches_.load(std::memory_order_relaxed);
  out.lexical_searches = lexical_searches_.load(std::memory_order_relaxed);
  out.fused_queries = fused_queries_.load(std::memory_order_relaxed);
  return out;
}

void VectorDatabase::ResetHybridStats() const {
  dense_searches_.store(0, std::memory_order_relaxed);
  lexical_searches_.store(0, std::memory_order_relaxed);
  fused_queries_.store(0, std::memory_order_relaxed);
  if (lexical_ != nullptr) {
    lexical_->ResetSearchStats();
  }
}

std::vector<ChunkId> VectorDatabase::Retrieve(const std::string& query_text, size_t k,
                                              const RetrievalQuality& quality) const {
  std::vector<ChunkId> ids;
  for (const SearchHit& hit : RetrieveWithDistances(query_text, k, quality)) {
    ids.push_back(hit.id);
  }
  return ids;
}

const Chunk& VectorDatabase::chunk(ChunkId id) const {
  METIS_CHECK_GE(id, 0);
  METIS_CHECK_LT(static_cast<size_t>(id), chunks_.size());
  return chunks_[static_cast<size_t>(id)];
}

}  // namespace metis
