// In-memory span recorder for the benchmark's traced run, written out as
// Chrome trace-event JSON (Perfetto and about:tracing open it as is).
//
// Wall-clock spans nest on one thread: each records its name, start, end, the
// span open when it began (its parent), and the query it serves (-1 = none).
// Simulated-clock spans (a query's profile / wait / exec stages) go on a
// second track as async events, because concurrent queries overlap there.

#ifndef METIS_PERFBENCH_TRACE_H_
#define METIS_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  Tracer();

  // Opens a wall-clock span under the innermost open one; returns its id.
  // `name` must outlive the tracer (string literals).
  uint64_t Begin(const char* name, int64_t query_id = -1);
  // Closes the innermost open span, which must be `id`; returns its seconds.
  double End(uint64_t id);

  // A simulated-clock span [start_s, end_s] of one query on track `track`.
  void AddSim(const char* name, double start_s, double end_s, int track, int64_t query_id);

  size_t num_spans() const { return wall_.size() + sim_.size(); }

  // Writes every span plus `meta` (as the trace's otherData) to `path`.
  bool WriteChromeJson(const std::string& path,
                       const std::vector<std::pair<std::string, std::string>>& meta) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct WallSpan {
    const char* name;
    uint64_t id;
    uint64_t parent;
    int64_t query;
    Clock::time_point start;
    Clock::time_point end;
  };
  struct SimSpan {
    const char* name;
    double start_s;
    double end_s;
    int track;
    int64_t query;
  };

  Clock::time_point origin_;
  std::vector<WallSpan> wall_;
  std::vector<size_t> open_;  // Indices into wall_, innermost last.
  std::vector<SimSpan> sim_;
};

// Opens a span for the enclosing scope; seconds() closes it early.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t query_id = -1)
      : tracer_(tracer), id_(tracer->Begin(name, query_id)) {}
  ~ScopedSpan() {
    if (!closed_) {
      tracer_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double Close() {
    closed_ = true;
    return tracer_->End(id_);
  }

 private:
  Tracer* tracer_;
  uint64_t id_;
  bool closed_ = false;
};

}  // namespace perfbench

#endif  // METIS_PERFBENCH_TRACE_H_
