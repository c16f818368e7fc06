#include "trace.h"

#include <cstdio>

#include "src/common/check.h"

namespace perfbench {

namespace {

// JSON string escaping for the metadata values (span names are literals).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {
  wall_.reserve(1 << 16);
}

uint64_t Tracer::Begin(const char* name, int64_t query_id) {
  uint64_t parent = open_.empty() ? 0 : wall_[open_.back()].id;
  uint64_t id = wall_.size() + 1;
  Clock::time_point now = Clock::now();
  wall_.push_back(WallSpan{name, id, parent, query_id, now, now});
  open_.push_back(wall_.size() - 1);
  return id;
}

double Tracer::End(uint64_t id) {
  Clock::time_point now = Clock::now();
  METIS_CHECK(!open_.empty());
  WallSpan& span = wall_[open_.back()];
  METIS_CHECK_EQ(span.id, id);
  span.end = now;
  open_.pop_back();
  return std::chrono::duration<double>(span.end - span.start).count();
}

void Tracer::AddSim(const char* name, double start_s, double end_s, int track,
                    int64_t query_id) {
  sim_.push_back(SimSpan{name, start_s, end_s, track, query_id});
}

bool Tracer::WriteChromeJson(const std::string& path,
                             const std::vector<std::pair<std::string, std::string>>& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::fprintf(f,
               "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"args\": "
               "{\"name\": \"wall clock (benchmark process)\"}},\n"
               "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 2, \"args\": "
               "{\"name\": \"simulated clock (per-query stages)\"}}");
  for (const WallSpan& s : wall_) {
    std::fprintf(f,
                 ",\n{\"ph\": \"X\", \"cat\": \"wall\", \"name\": \"%s\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %llu, \"parent\": %llu, "
                 "\"query\": %lld}}",
                 s.name, us(s.start), us(s.end) - us(s.start),
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.query));
  }
  // Async begin/end pairs: a query's stages overlap other queries' stages.
  uint64_t async_id = 0;
  for (const SimSpan& s : sim_) {
    ++async_id;
    for (int edge = 0; edge < 2; ++edge) {
      std::fprintf(f,
                   ",\n{\"ph\": \"%s\", \"cat\": \"sim\", \"name\": \"%s\", \"id\": %llu, "
                   "\"pid\": 2, \"tid\": %d, \"ts\": %.3f, \"args\": {\"query\": %lld}}",
                   edge == 0 ? "b" : "e", s.name, static_cast<unsigned long long>(async_id),
                   s.track, (edge == 0 ? s.start_s : s.end_s) * 1e6,
                   static_cast<long long>(s.query));
    }
  }
  std::fprintf(f, "\n], \"otherData\": {");
  for (size_t i = 0; i < meta.size(); ++i) {
    std::fprintf(f, "%s%s: %s", i > 0 ? ", " : "", Quote(meta[i].first).c_str(),
                 Quote(meta[i].second).c_str());
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
