// Internal top-k selection primitives shared by the static indexes
// (vectordb.cc) and the live-mutation wrapper (mutable_index.cc).
//
// Everything here is either comparison-only (Cand, BoundedTopK — no floating-
// point arithmetic, so any TU may inline it without affecting bit-identity)
// or a *declaration* of a distance-scan routine whose single definition lives
// in vectordb.cc. That one-definition rule is load-bearing: vectordb.cc is
// compiled -O3 -march=native, where the compiler may contract the
// norm + qnorm - 2*dot combine differently than a default-flags TU would.
// Keeping exactly one codegen of the scan loop is what lets the mutation-
// parity tests assert distances bit-equal between a mutable index and a
// freshly built static one.

#ifndef METIS_SRC_VECTORDB_TOPK_H_
#define METIS_SRC_VECTORDB_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "src/vectordb/vectordb.h"

namespace metis {

// Candidate under selection: distance plus the position at which it was
// considered (insertion order for flat, probe-concatenation order for IVF,
// log position for the mutable index's log rows and seg.lo + j for a
// compacted segment's j-th row).
struct Cand {
  float dist;
  size_t order;
  ChunkId id;
};

// Total order matching the seed's stable_sort-by-distance: distance first,
// candidate order as the tie-break. Selecting the k smallest under this total
// order is independent of the order candidates are offered in.
inline bool CandLess(const Cand& a, const Cand& b) {
  if (a.dist != b.dist) {
    return a.dist < b.dist;
  }
  return a.order < b.order;
}

// Max-heap of the k best candidates seen so far: O(log k) per insertion past
// the warmup, O(k) memory — replaces the seed's materialize-all + stable_sort.
class BoundedTopK {
 public:
  explicit BoundedTopK(size_t k) : k_(k) { heap_.reserve(k); }

  void Offer(float dist, size_t order, ChunkId id) {
    if (k_ == 0) {
      return;
    }
    if (heap_.size() < k_) {
      heap_.push_back(Cand{dist, order, id});
      std::push_heap(heap_.begin(), heap_.end(), CandLess);
      return;
    }
    const Cand& worst = heap_.front();
    if (dist > worst.dist || (dist == worst.dist && order > worst.order)) {
      return;
    }
    std::pop_heap(heap_.begin(), heap_.end(), CandLess);
    heap_.back() = Cand{dist, order, id};
    std::push_heap(heap_.begin(), heap_.end(), CandLess);
  }

  std::vector<SearchHit> Drain() {
    std::sort_heap(heap_.begin(), heap_.end(), CandLess);  // Ascending.
    std::vector<SearchHit> hits;
    hits.reserve(heap_.size());
    for (const Cand& c : heap_) {
      hits.push_back(SearchHit{c.id, c.dist});
    }
    heap_.clear();
    return hits;
  }

  // Like Drain, but keeps the candidate orders (the mutable index merges
  // base-index hits with delta-structure hits under the shared total order).
  std::vector<OrderedHit> DrainOrdered() {
    std::sort_heap(heap_.begin(), heap_.end(), CandLess);
    std::vector<OrderedHit> hits;
    hits.reserve(heap_.size());
    for (const Cand& c : heap_) {
      hits.push_back(OrderedHit{c.id, c.dist, c.order});
    }
    heap_.clear();
    return hits;
  }

  // The largest distance a candidate can have and still enter: the k-th
  // smallest offered so far, +inf until k have been offered, -inf when
  // k == 0 (nothing enters). The certified scan prunes against it.
  float Bound() const {
    if (k_ == 0) {
      return -std::numeric_limits<float>::infinity();
    }
    return heap_.size() < k_ ? std::numeric_limits<float>::infinity() : heap_.front().dist;
  }

 private:
  size_t k_;
  std::vector<Cand> heap_;
};

// Scores pool rows [begin, end) against one query and offers the survivors of
// `exclude` (sorted tombstoned ids; empty = keep all) to `out`, row i under
// candidate order `base` + i. Defined in vectordb.cc — see the header
// comment for why there is exactly one definition.
void ScanRowsInto(const RowPool& pool, size_t begin, size_t end, const float* q, double qnorm,
                  size_t base, const IdFilter& exclude, BoundedTopK& out);

}  // namespace metis

#endif  // METIS_SRC_VECTORDB_TOPK_H_
