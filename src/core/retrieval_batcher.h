// Retrieval coalescing for the serving stack.
//
// Every synthesis pipeline starts with a vector-index lookup that is modeled
// at a fixed latency (SynthesisExecutor::kRetrievalSeconds). When several
// queued queries reach that stage at the same simulated instant — burst
// arrivals, golden-config feedback fan-out — each used to run its own full
// index scan. The batcher collects all requests that fall due at the same
// tick and answers them with ONE VectorDatabase::RetrieveBatch sweep, so the
// index streams through memory once for the whole group.
//
// Timing-neutral by construction: every request keeps its OWN simulator
// event, scheduled at Submit time for exactly `delay_seconds` later — the
// identical (time, sequence) slot a per-query ScheduleAfter would use, so
// even events interleaved at the same instant by other components fire in
// the same order. Only the index sweep is shared: the first delivery of a
// same-tick group runs one RetrieveBatch per distinct width k in the group,
// and the remaining deliveries drain the precomputed results.
//
// Widths are never mixed in one sweep. A top-k answer is not in general a
// prefix of a wider one: hybrid fusion ranks each leg's own top-k, and a
// quantized tier over-fetches k x rerank factor candidates before its exact
// rerank. Only exact fp32 scans are prefix-consistent.
//
// On a live-mutable serving index each sweep pins ONE epoch (SearchBatch),
// and a group's sweeps all run in one delivery with no write in between, so
// every answer in the group reflects the same live set
// (src/vectordb/mutable_index.h).

#ifndef METIS_SRC_CORE_RETRIEVAL_BATCHER_H_
#define METIS_SRC_CORE_RETRIEVAL_BATCHER_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/vectordb/vectordb.h"

namespace metis {

class RetrievalBatcher {
 public:
  using Callback = std::function<void(std::vector<ChunkId>)>;

  RetrievalBatcher(Simulator* sim, const VectorDatabase* db, double delay_seconds);

  // Scheduled delivery events hold the batcher's address.
  RetrievalBatcher(const RetrievalBatcher&) = delete;
  RetrievalBatcher& operator=(const RetrievalBatcher&) = delete;

  // Requests the top-k chunks for `query_text` at `quality` (the query's own
  // retrieval depth, tier and backend mix); `cb` runs in simulation context
  // exactly delay_seconds from now. One coalesced sweep can mix qualities —
  // results stay bit-identical to uncoalesced per-query scans (the index
  // resolves a probe plan per query; see VectorIndex::SearchBatch).
  void Submit(std::string query_text, size_t k, const RetrievalQuality& quality, Callback cb);

  // --- Introspection (tests, benches) ---
  size_t requests() const { return requests_; }
  // Sweeps run: one per distinct width in each same-tick group.
  size_t batches_issued() const { return batches_; }
  // Most requests one sweep answered.
  size_t max_batch_size() const { return max_batch_; }

 private:
  void Deliver();

  Simulator* sim_;
  const VectorDatabase* db_;
  double delay_;

  struct Pending {
    std::string text;
    size_t k;
    RetrievalQuality quality;
    Callback cb;
    SimTime due;
  };
  // Ordered by due time (Submit is FIFO and due offsets are constant), and
  // aligned 1:1 with the per-request Deliver events in flight.
  std::deque<Pending> pending_;
  // Results precomputed by the first delivery of the current same-tick group,
  // drained front-to-front with pending_.
  std::deque<std::vector<ChunkId>> ready_;

  size_t requests_ = 0;
  size_t batches_ = 0;
  size_t max_batch_ = 0;
};

}  // namespace metis

#endif  // METIS_SRC_CORE_RETRIEVAL_BATCHER_H_
