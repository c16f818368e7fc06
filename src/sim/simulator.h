// Discrete-event simulation core.
//
// The whole METIS reproduction runs on a single simulated clock: query
// arrivals, profiler API calls, engine batching steps, and synthesis state
// machines are all events. Time is a double in seconds; the simulation is
// single-threaded and deterministic.

#ifndef METIS_SRC_SIM_SIMULATOR_H_
#define METIS_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace metis {

using SimTime = double;  // Seconds since simulation start.

// Event-queue driven simulator.
//
// Ordering guarantee: events fire in (time, sequence-number) order, so two
// events scheduled for the same instant fire in scheduling order. This keeps
// runs reproducible regardless of floating-point ties. A scheduled event
// always fires: there is no cancellation.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `cb` to run at absolute time `when` (>= now).
  void ScheduleAt(SimTime when, Callback cb);

  // Schedules `cb` to run `delay` seconds from now (delay >= 0).
  void ScheduleAfter(SimTime delay, Callback cb);

  // Runs events until the queue is empty or the optional horizon is reached.
  // Returns the number of events executed.
  size_t Run(SimTime horizon = -1.0);

  // Runs a single event if one is pending; returns false when idle.
  bool Step();

  bool idle() const { return queue_.empty(); }
  size_t pending() const { return queue_.size(); }
  uint64_t executed() const { return executed_; }

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

}  // namespace metis

#endif  // METIS_SRC_SIM_SIMULATOR_H_
