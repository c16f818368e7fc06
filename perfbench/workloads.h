// The repo benchmark's workloads and their end-to-end accounting.
//
// Every workload runs through the runner's public entry points
// (GetOrGenerateDataset, RunExperiment, RunMixedExperiment); nothing here
// rebuilds the serving stack. README.md in this directory gives the reason
// each workload exists.

#ifndef METIS_PERFBENCH_WORKLOADS_H_
#define METIS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/runner/runner.h"

namespace perfbench {

// One corpus a workload serves from, keyed exactly as the runner keys it.
struct Corpus {
  std::string dataset;
  int num_queries = 0;
  std::string embedding_model;
  uint64_t seed = 0;
  metis::RetrievalIndexOptions index;
};

// A workload is several independent instances of one spec, each generated
// and served from its own seed (all derived from the benchmark's --seed):
// pooling them keeps the simulated metrics from hinging on one draw of
// corpus, queries and arrivals. Instances are set up and served one after
// another, so only one instance's corpora are resident at a time.
struct Workload {
  std::string name;
  bool mixed = false;            // RunMixedExperiment (else RunExperiment).
  metis::RunSpec spec;           // Single-dataset workloads (seed per instance).
  metis::MixedRunSpec mix;       // Mixed workloads (seed per instance).
  std::vector<uint64_t> seeds;   // One instance per seed.
  // Goodput deadline (s) for workloads without tenant classes; workloads with
  // classes use each class's own deadline.
  double deadline_s = 0;

  // One instance's corpora, in the order Serve returns its stacks.
  std::vector<Corpus> Corpora(size_t instance) const;
  // Mutable-index workloads regenerate their corpus inside RunExperiment
  // (the runner bypasses the dataset cache for them).
  bool regenerates_in_serve() const { return !mixed && spec.retrieval.mutable_index; }
  // The runner-level tenant classes (empty = one implicit default class).
  const std::vector<metis::TenantClass>& tenants() const {
    return mixed ? mix.tenants : spec.tenants;
  }
};

const std::vector<std::string>& WorkloadNames();

// False when `name` is not a workload.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// Drops the dataset cache and generates every corpus one instance reads;
// returns the wall seconds that took. Static corpora land in the cache, so the
// next Serve finds them warm; a mutable corpus is generated once and dropped
// (Serve regenerates it privately, as the runner does).
double SetUp(const Workload& w, size_t instance);

// Serves one instance: the runner's RunMetrics, one per dataset stack.
std::vector<metis::RunMetrics> Serve(const Workload& w, size_t instance);

// Every instance's serve, pooled: runs instance-major.
struct Served {
  std::vector<metis::RunMetrics> runs;
  std::vector<size_t> instance;  // Parallel to runs: which instance.

  void Add(size_t i, std::vector<metis::RunMetrics> instance_runs) {
    for (metis::RunMetrics& m : instance_runs) {
      runs.push_back(std::move(m));
      instance.push_back(i);
    }
  }
};

// Simulated-clock outcome of one serve, pooled over every dataset stack.
struct SimSummary {
  uint64_t offered = 0;    // Queries the workload sends.
  uint64_t completed = 0;  // Served to completion.
  uint64_t rejected = 0;   // Shed by admission control.
  uint64_t lost = 0;       // Neither completed nor rejected (must be 0).
  uint64_t good = 0;       // Completions within their deadline.
  metis::Samples delays;   // e2e delay of every completion.
  double f1_sum = 0;
  double window_s = 0;     // Sum over instances of first arrival to last completion.
  double cost_usd = 0;     // Engine + profiler.
  metis::EngineStats engine;  // Each instance's (shared) engine counted once.
  uint64_t digest = 0;     // Hash of every simulated output (determinism check).

  double mean_f1() const { return completed > 0 ? f1_sum / static_cast<double>(completed) : 0; }
  double goodput_qps() const { return window_s > 0 ? static_cast<double>(good) / window_s : 0; }
  double served_frac() const {
    return offered > 0 ? static_cast<double>(completed) / static_cast<double>(offered) : 0;
  }
  double cost_usd_per_kq() const {
    return completed > 0 ? 1000.0 * cost_usd / static_cast<double>(completed) : 0;
  }
};

SimSummary Summarize(const Workload& w, const Served& served);

// Conservation checks on one serve: offered == completed + rejected per class
// and overall, no lost query, and the pooled goodput agreeing with the
// runner's own aggregation where both exist. Returns one message per failure.
std::vector<std::string> CheckServe(const Workload& w, const Served& served,
                                    const SimSummary& sum);

// Run-level counters the traced run must reproduce exactly: probe stats,
// hybrid and ingest counters, and the engine's stats.
uint64_t CounterDigest(const Served& served);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one benchmark run reports.
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // Failed correctness checks.
  uint64_t attempted = 0;           // Queries offered over every serve.
  uint64_t failed = 0;              // Of those, lost (neither served nor shed).
  std::vector<std::pair<std::string, std::string>> stamps;  // Corpus facts.
};

}  // namespace perfbench

#endif  // METIS_PERFBENCH_WORKLOADS_H_
