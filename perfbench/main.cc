// The repo benchmark: one workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace_file <path>]
//
// --trace 0 measures the end-to-end metrics: it repeats {set up, serve} until
// --seconds have passed (at least twice), checks that every repetition's
// simulated outputs are bit-identical, and reports medians. --trace 1 runs
// the traced pass (layers.h) and reports the per-layer metrics; with
// --trace_file it also writes the spans as Chrome trace-event JSON.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The process exits non-zero when any correctness check fails.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "layers.h"
#include "src/common/strings.h"
#include "src/vectordb/kernels.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_LIBRARY_FAST_MATH
#define PERFBENCH_LIBRARY_FAST_MATH 0
#endif

using namespace perfbench;
using metis::StrFormat;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_file;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "--trace_file") {
      args->trace_file = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

// A fixed loop that is the benchmark's own code, so no change to the library
// moves it: squared distances over random 1 KiB rows of a 16 MiB buffer, and
// lookups of random keys in a 256k-entry hash map, the two kinds of memory
// access a serve makes. Neighbours on a shared host slow the serve by up to a
// quarter for minutes at a time and slow this loop with it, so the serve time
// is scaled by the loop's time around it (README.md gives the measurements).
class HostProbe {
 public:
  // The loop's median time on a quiet 4-core AVX2 Xeon VM.
  static constexpr double kReferenceS = 0.0028;

  HostProbe() : rows_(kRows * kDim), picks_(kPicks) {
    uint64_t x = 0x9E3779B97F4A7C15ull;
    auto next = [&x] {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      return x >> 33;
    };
    for (float& v : rows_) {
      v = static_cast<float>(next() % 1000) * 1e-3f;
    }
    for (uint32_t& p : picks_) {
      p = static_cast<uint32_t>(next() % kRows);
    }
    for (uint64_t i = 0; i < kKeys; ++i) {
      uint64_t key = next() << 31 ^ next();
      map_[key] = i;
      keys_.push_back(key);
    }
  }

  // Seconds of one pass.
  double Seconds() {
    auto start = std::chrono::steady_clock::now();
    float acc = 0;
    for (uint32_t p : picks_) {
      const float* row = &rows_[static_cast<size_t>(p) * kDim];
      for (size_t d = 0; d < kDim; ++d) {
        float diff = row[d] - 0.5f;
        acc += diff * diff;
      }
    }
    uint64_t found = 0;
    for (uint64_t i = 0; i < kLookups; ++i) {
      found += map_.find(keys_[(i * 2654435761ull) % kKeys])->second;
    }
    float_sink_ = acc;
    int_sink_ = found;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }

 private:
  static constexpr size_t kRows = 16384;
  static constexpr size_t kDim = 256;
  static constexpr size_t kPicks = 4096;
  static constexpr uint64_t kKeys = 1 << 18;
  static constexpr uint64_t kLookups = 20000;
  std::vector<float> rows_;
  std::vector<uint32_t> picks_;
  std::unordered_map<uint64_t, uint64_t> map_;
  std::vector<uint64_t> keys_;
  volatile float float_sink_ = 0;
  volatile uint64_t int_sink_ = 0;
};

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string body;
  for (const Metric& m : metrics) {
    body += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", body.empty() ? "" : ", ",
                      m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), body.c_str());
}

void CheckFinite(const std::vector<Metric>& metrics, std::vector<std::string>* errors) {
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      errors->push_back("metric " + m.name + " is not finite");
    }
  }
}

// Repeats {set up, serve} over every instance for about `seconds`; each
// instance's serve starts from a freshly set-up dataset cache, so every
// repetition sees the same state. setup_s and the serve time are medians over
// repetitions; wall_qps_ref scales the serve time by
// HostProbe::kReferenceS / (median probe pass), from two passes before and two
// after every serve.
Outcome MeasureEndToEnd(const Workload& w, double seconds) {
  Outcome out;
  using Clock = std::chrono::steady_clock;
  Clock::time_point begin = Clock::now();
  HostProbe probe;
  std::vector<double> probe_s;
  std::vector<double> setup_s;
  std::vector<double> serve_raw_s;
  SimSummary first;
  // Stops at the repetition boundary nearest to --seconds (at least two).
  while (serve_raw_s.size() < 2 ||
         std::chrono::duration<double>(Clock::now() - begin).count() *
                 (1.0 + 0.5 / static_cast<double>(serve_raw_s.size())) <
             seconds) {
    double setup = 0;
    double serve = 0;
    Served served;
    for (size_t i = 0; i < w.seeds.size(); ++i) {
      setup += SetUp(w, i);
      probe_s.push_back(probe.Seconds());
      probe_s.push_back(probe.Seconds());
      Clock::time_point start = Clock::now();
      served.Add(i, Serve(w, i));
      serve += std::chrono::duration<double>(Clock::now() - start).count();
      probe_s.push_back(probe.Seconds());
      probe_s.push_back(probe.Seconds());
    }
    setup_s.push_back(setup);
    serve_raw_s.push_back(serve);
    SimSummary sum = Summarize(w, served);
    out.attempted += sum.offered;
    out.failed += sum.lost;
    if (serve_raw_s.size() == 1) {
      out.errors = CheckServe(w, served, sum);
      first = std::move(sum);
    } else if (sum.digest != first.digest) {
      out.errors.push_back(StrFormat("%s: repetition %zu's simulated outputs differ from the first's",
                                     w.name.c_str(), serve_raw_s.size()));
    }
  }
  // A mutable corpus is regenerated inside RunExperiment, so that workload's
  // serve wall includes one generation per instance (README.md explains
  // why it is not subtracted); set-up time is its own metric either way.
  const double wall_qps = static_cast<double>(first.completed) / Median(serve_raw_s);
  const double host_probe_s = Median(probe_s);
  out.metrics = {
      {"wall_qps_ref", wall_qps * host_probe_s / HostProbe::kReferenceS, "queries/s"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mib", PeakRssMib(), "MiB"},
      {"p50_delay_s", first.delays.Quantile(0.5), "s"},
      {"p99_delay_s", first.delays.Quantile(0.99), "s"},
      {"mean_f1", first.mean_f1(), "f1"},
      {"goodput_qps", first.goodput_qps(), "queries/s"},
      {"served_frac", first.served_frac(), "frac"},
      {"cost_usd_per_kq", first.cost_usd_per_kq(), "USD"},
  };
  std::printf("# %zu repetitions; serve wall s:", serve_raw_s.size());
  for (double raw : serve_raw_s) {
    std::printf(" %.4f", raw);
  }
  std::printf("; wall_qps %.4f; host probe %.4f ms over %zu passes; setup s:", wall_qps,
              1e3 * host_probe_s, probe_s.size());
  for (double s : setup_s) {
    std::printf(" %.4f", s);
  }
  std::printf("\n# offered=%llu completed=%llu rejected=%llu good=%llu sim_window_s=%.3f\n",
              static_cast<unsigned long long>(first.offered),
              static_cast<unsigned long long>(first.completed),
              static_cast<unsigned long long>(first.rejected),
              static_cast<unsigned long long>(first.good), first.window_s);
  const char* better[] = {"higher", "lower", "lower", "lower", "lower",
                          "higher", "higher", "higher", "lower"};
  const std::string samples[] = {
      StrFormat("%zu repetitions", serve_raw_s.size()),
      StrFormat("%zu repetitions", setup_s.size()), "1 process",
      StrFormat("%zu delays", first.delays.count()),
      StrFormat("%zu delays", first.delays.count()),
      StrFormat("%llu completions", static_cast<unsigned long long>(first.completed)),
      StrFormat("%llu completions", static_cast<unsigned long long>(first.completed)),
      StrFormat("%llu offered", static_cast<unsigned long long>(first.offered)),
      StrFormat("%llu completions", static_cast<unsigned long long>(first.completed))};
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    std::printf("# e2e %-16s %18.6f %-10s %-6s (%s)\n", out.metrics[i].name.c_str(),
                out.metrics[i].value, out.metrics[i].unit.c_str(), better[i], samples[i].c_str());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace_file <path>]\n");
    return 2;
  }
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, &w)) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const std::string& n : WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("# perfbench workload=%s seed=%llu instances=%zu nproc=%u kernel=%s "
              "library_fast_math=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), w.seeds.size(),
              std::thread::hardware_concurrency(),
              metis::KernelTargetName(metis::ActiveKernelTarget()), PERFBENCH_LIBRARY_FAST_MATH);

  Outcome outcome;
  if (args.trace == 1) {
    Tracer tracer;
    outcome = RunTraced(w, &tracer);
    for (const auto& [key, value] : outcome.stamps) {
      std::printf("# %s %s\n", key.c_str(), value.c_str());
    }
    for (const Metric& m : outcome.metrics) {
      std::printf("# layer %-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!args.trace_file.empty()) {
      std::vector<std::pair<std::string, std::string>> meta = outcome.stamps;
      meta.emplace_back("workload", w.name);
      meta.emplace_back("seed", std::to_string(args.seed));
      meta.emplace_back("kernel", metis::KernelTargetName(metis::ActiveKernelTarget()));
      meta.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
      if (!tracer.WriteChromeJson(args.trace_file, meta)) {
        outcome.errors.push_back("cannot write " + args.trace_file);
      }
      std::printf("# wrote %zu spans to %s\n", tracer.num_spans(), args.trace_file.c_str());
    }
  } else {
    outcome = MeasureEndToEnd(w, args.seconds);
  }

  CheckFinite(outcome.metrics, &outcome.errors);
  for (const std::string& e : outcome.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::fflush(stderr);
  const bool correct = outcome.errors.empty();
  PrintResult(correct, outcome.attempted, outcome.failed, outcome.metrics);
  return correct ? 0 : 1;
}
