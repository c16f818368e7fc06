#include "src/core/retrieval_batcher.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace metis {

RetrievalBatcher::RetrievalBatcher(Simulator* sim, const VectorDatabase* db, double delay_seconds)
    : sim_(sim), db_(db), delay_(delay_seconds) {
  METIS_CHECK(sim != nullptr);
  METIS_CHECK(db != nullptr);
  METIS_CHECK_GE(delay_seconds, 0.0);
}

void RetrievalBatcher::Submit(std::string query_text, size_t k, const RetrievalQuality& quality,
                              Callback cb) {
  METIS_CHECK(cb != nullptr);
  ++requests_;
  pending_.push_back(
      Pending{std::move(query_text), k, quality, std::move(cb), sim_->now() + delay_});
  // Per-request event: claims the exact (time, sequence) slot a per-query
  // ScheduleAfter would, so coalescing cannot reorder this callback relative
  // to any other same-instant event in the simulation.
  sim_->ScheduleAt(pending_.back().due, [this]() { Deliver(); });
}

void RetrievalBatcher::Deliver() {
  METIS_CHECK(!pending_.empty());
  if (ready_.empty()) {
    // First delivery of a same-tick group: answer every request already
    // queued that falls due now. Later submits (even at this same
    // timestamp) start their own group when their events fire.
    SimTime now = sim_->now();
    size_t group = 0;
    while (group < pending_.size() && pending_[group].due <= now) {
      ++group;
    }
    METIS_CHECK_GT(group, 0u);
    ready_.resize(group);
    // One sweep per distinct width (see the header), each request keeping
    // its own retrieval depth through the heterogeneous-quality sweep.
    std::vector<bool> swept(group, false);
    for (size_t first = 0; first < group; ++first) {
      if (swept[first]) {
        continue;
      }
      size_t k = pending_[first].k;
      std::vector<size_t> members;
      std::vector<std::string> texts;
      std::vector<RetrievalQuality> qualities;
      for (size_t i = first; i < group; ++i) {
        if (!swept[i] && pending_[i].k == k) {
          swept[i] = true;
          members.push_back(i);
          texts.push_back(pending_[i].text);
          qualities.push_back(pending_[i].quality);
        }
      }
      std::vector<std::vector<SearchHit>> hits = db_->RetrieveBatch(texts, k, qualities);
      ++batches_;
      max_batch_ = std::max(max_batch_, members.size());
      for (size_t m = 0; m < members.size(); ++m) {
        std::vector<ChunkId>& ids = ready_[members[m]];
        ids.reserve(hits[m].size());
        for (const SearchHit& h : hits[m]) {
          ids.push_back(h.id);
        }
      }
    }
  }
  Pending p = std::move(pending_.front());
  pending_.pop_front();
  std::vector<ChunkId> ids = std::move(ready_.front());
  ready_.pop_front();
  p.cb(std::move(ids));
}

}  // namespace metis
