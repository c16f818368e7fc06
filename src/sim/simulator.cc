#include "src/sim/simulator.h"

#include "src/common/check.h"

namespace metis {

void Simulator::ScheduleAt(SimTime when, Callback cb) {
  METIS_CHECK_GE(when, now_);
  queue_.push(Entry{when, next_seq_++, std::move(cb)});
}

void Simulator::ScheduleAfter(SimTime delay, Callback cb) {
  METIS_CHECK_GE(delay, 0.0);
  ScheduleAt(now_ + delay, std::move(cb));
}

bool Simulator::Step() {
  if (queue_.empty()) {
    return false;
  }
  Entry e = queue_.top();
  queue_.pop();
  now_ = e.when;
  ++executed_;
  e.cb();
  return true;
}

size_t Simulator::Run(SimTime horizon) {
  size_t n = 0;
  while (!queue_.empty()) {
    if (horizon >= 0 && queue_.top().when > horizon) {
      break;
    }
    Step();
    ++n;
  }
  return n;
}

}  // namespace metis
