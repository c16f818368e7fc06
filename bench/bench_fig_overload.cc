// Multi-tenant overload control (ROADMAP "multi-tenant overload control and
// SLO-aware scheduling"): offered load swept PAST the engine's saturation
// point, with three SLO classes sharing one METIS stack:
//
//   interactive  priority 2, tight deadline  (never rejected by the ladder)
//   standard     priority 1, medium deadline (never rejected by the ladder)
//   besteffort   priority 0, loose deadline  (first to be shed)
//
// Two arms per offered rate:
//
//   off  — today's stack: every arrival admitted and served at the joint
//          scheduler's configuration. Past saturation the queue grows without
//          bound, EVERY class blows through its deadline, and goodput
//          (in-deadline completions/s) collapses even though throughput
//          stays positive.
//   on   — the OverloadController's degradation ladder (src/core/overload.h):
//          clamp retrieval depth, then drop to the cheap synthesis config,
//          then reject best-effort arrivals with deterministic backoff.
//
// The claim under test: past saturation the ladder converts best-effort
// goodput into protected-class goodput — ladder-on total goodput is at least
// ladder-off's, and the interactive class keeps its deadline p99 while
// best-effort absorbs the shedding. A flash-crowd row (8x arrival step for a
// window mid-run) shows the same mechanism under a transient, not just a
// sustained, overload.
//
// All metrics are simulation-deterministic (bit-stable kernels + simulated
// time), so BENCH_overload.json reproduces exactly on any host and the CI
// gate watches per-class goodput at the tight 2% tolerance
// (bench/baselines/BENCH_overload.baseline.json).
//
// Output: console tables + BENCH_overload.json (schema in docs/BENCH.md).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/runner/runner.h"

using namespace metis;

namespace {

// Offered rates (qps). bench_fig11 places this spec's saturation in the
// 4-8 qps band; the sweep brackets it from comfortably-under to well-past.
const std::vector<double> kRates = {2.0, 8.0, 16.0, 32.0, 64.0};

std::vector<TenantClass> Tenants() {
  // Deadlines sit ~3x above the unloaded p99 (~1.2 s at 2 qps): comfortably
  // clear at healthy load, and genuinely at risk past saturation, where the
  // ladderless tail grows past 3.8 s.
  return {
      TenantClass{"interactive", /*priority=*/2, /*deadline_s=*/3.5, /*rate_share=*/0.2},
      TenantClass{"standard", /*priority=*/1, /*deadline_s=*/7.0, /*rate_share=*/0.3},
      TenantClass{"besteffort", /*priority=*/0, /*deadline_s=*/14.0, /*rate_share=*/0.5},
  };
}

RunSpec BaseSpec(double rate, bool ladder) {
  RunSpec spec;
  spec.dataset = "musique_topical";
  spec.num_queries = 150;
  spec.arrival_rate = rate;
  spec.system = SystemKind::kMetis;
  spec.seed = 42;
  // IVF backend + per-query depth so ladder rung 1 (retrieval-budget clamp)
  // is live end to end, observable in mean_probes.
  spec.retrieval.backend = RetrievalIndexOptions::Backend::kIvf;
  spec.retrieval.nlist = 16;
  spec.retrieval.nprobe = 4;
  spec.scheduler.per_query_depth = true;
  spec.scheduler.depth.base_probes = 4;
  spec.scheduler.depth.probes_per_piece = 2;
  spec.scheduler.depth.min_budget = 2;
  spec.scheduler.depth.max_budget = 16;
  spec.scheduler.depth.adaptive = false;
  spec.tenants = Tenants();
  spec.overload.enabled = ladder;
  return spec;
}

struct ArmResult {
  double rate = 0;
  std::string arm;   // "off" / "on"
  std::string load;  // "steady" / "flash"
  RunMetrics metrics;
};

void AddRecords(const ArmResult& r, std::vector<BenchJsonRecord>& records) {
  const RunMetrics& m = r.metrics;
  BenchJsonRecord total;
  total.name = StrFormat("%s/rate%.0f/%s/total", r.load.c_str(), r.rate, r.arm.c_str());
  total.tags = {{"load", r.load}, {"arm", r.arm}, {"class", "total"}};
  total.metrics = {{"offered_qps", r.rate},
                   {"goodput_qps", m.goodput_qps},
                   {"throughput_qps", m.throughput_qps},
                   {"rejected", static_cast<double>(m.rejected_queries)},
                   {"mean_f1", m.mean_f1()},
                   {"p50_delay_s", m.p50_delay()},
                   {"p90_delay_s", m.p90_delay()},
                   {"p99_delay_s", m.p99_delay()},
                   {"mean_probes", m.mean_probes},
                   {"peak_queue_depth", static_cast<double>(m.engine_stats.peak_queue_depth)},
                   {"peak_queue_age_s", m.engine_stats.peak_queue_age_s}};
  records.push_back(std::move(total));
  for (const TenantClassMetrics& cm : m.class_metrics) {
    BenchJsonRecord rec;
    rec.name = StrFormat("%s/rate%.0f/%s/%s", r.load.c_str(), r.rate, r.arm.c_str(),
                         cm.name.c_str());
    rec.tags = {{"load", r.load}, {"arm", r.arm}, {"class", cm.name}};
    rec.metrics = {{"offered_qps", r.rate},
                   {"goodput_qps", cm.goodput_qps},
                   {"offered", static_cast<double>(cm.offered)},
                   {"completed", static_cast<double>(cm.completed)},
                   {"rejected", static_cast<double>(cm.rejected)},
                   {"missed_deadline", static_cast<double>(cm.missed_deadline)},
                   {"depth_shed", static_cast<double>(cm.depth_shed)},
                   {"synthesis_degraded", static_cast<double>(cm.synthesis_degraded)},
                   {"deadline_s", cm.deadline_s},
                   {"p50_delay_s", cm.p50_delay()},
                   {"p99_delay_s", cm.p99_delay()}};
    records.push_back(std::move(rec));
  }
}

const TenantClassMetrics& ClassByName(const RunMetrics& m, const std::string& name) {
  for (const TenantClassMetrics& cm : m.class_metrics) {
    if (cm.name == name) {
      return cm;
    }
  }
  std::fprintf(stderr, "missing class %s\n", name.c_str());
  std::abort();
}

}  // namespace

int main() {
  std::vector<ArmResult> results;
  for (double rate : kRates) {
    for (bool ladder : {false, true}) {
      std::printf("running steady rate=%.0f ladder=%s ...\n", rate, ladder ? "on" : "off");
      ArmResult r;
      r.rate = rate;
      r.arm = ladder ? "on" : "off";
      r.load = "steady";
      r.metrics = RunExperiment(BaseSpec(rate, ladder));
      results.push_back(std::move(r));
    }
  }
  // Flash crowd: nominal 2 qps (comfortably under capacity) with a 24x step
  // for a 15 s window — a transient the ladder must ride out and recover
  // from, not a sustained regime change.
  for (bool ladder : {false, true}) {
    std::printf("running flash ladder=%s ...\n", ladder ? "on" : "off");
    RunSpec spec = BaseSpec(2.0, ladder);
    spec.arrivals.kind = ArrivalKind::kFlashCrowd;
    spec.arrivals.flash_start_s = 20.0;
    spec.arrivals.flash_duration_s = 15.0;
    spec.arrivals.flash_factor = 24.0;
    ArmResult r;
    r.rate = 2.0;
    r.arm = ladder ? "on" : "off";
    r.load = "flash";
    r.metrics = RunExperiment(spec);
    results.push_back(std::move(r));
  }

  Table table("bench_fig_overload: goodput and per-class tail delay vs offered load");
  table.SetHeader({"load/rate/arm", "goodput", "qps", "rej", "int p99", "int miss", "std p99",
                   "be p99", "be rej", "probes"});
  std::vector<BenchJsonRecord> records;
  for (const ArmResult& r : results) {
    const RunMetrics& m = r.metrics;
    const TenantClassMetrics& interactive = ClassByName(m, "interactive");
    const TenantClassMetrics& standard = ClassByName(m, "standard");
    const TenantClassMetrics& besteffort = ClassByName(m, "besteffort");
    table.AddRow({StrFormat("%s/%.0f/%s", r.load.c_str(), r.rate, r.arm.c_str()),
                  Table::Num(m.goodput_qps, 2), Table::Num(m.throughput_qps, 2),
                  StrFormat("%llu", static_cast<unsigned long long>(m.rejected_queries)),
                  Table::Num(interactive.p99_delay(), 1),
                  StrFormat("%llu", static_cast<unsigned long long>(interactive.missed_deadline)),
                  Table::Num(standard.p99_delay(), 1), Table::Num(besteffort.p99_delay(), 1),
                  StrFormat("%llu", static_cast<unsigned long long>(besteffort.rejected)),
                  Table::Num(m.mean_probes, 2)});
    AddRecords(r, records);
  }
  table.Print();

  // --- Verdicts ---
  // Past saturation (the highest swept rate), the ladder must (1) not lose
  // total goodput, (2) keep the interactive class inside its deadline at p99,
  // and (3) concentrate the shedding on the best-effort class.
  auto find = [&](const std::string& load, double rate, const std::string& arm) -> const RunMetrics& {
    for (const ArmResult& r : results) {
      if (r.load == load && r.rate == rate && r.arm == arm) {
        return r.metrics;
      }
    }
    std::fprintf(stderr, "missing arm %s/%.0f/%s\n", load.c_str(), rate, arm.c_str());
    std::abort();
  };
  double top_rate = kRates.back();
  const RunMetrics& off = find("steady", top_rate, "off");
  const RunMetrics& on = find("steady", top_rate, "on");

  bool goodput_ok = on.goodput_qps >= off.goodput_qps;
  PrintShapeCheck(
      StrFormat("past saturation (%.0f qps): ladder-on total goodput >= ladder-off", top_rate),
      StrFormat("on %.2f vs off %.2f qps", on.goodput_qps, off.goodput_qps), goodput_ok);

  const TenantClassMetrics& on_int = ClassByName(on, "interactive");
  const TenantClassMetrics& off_int = ClassByName(off, "interactive");
  bool tail_ok = on_int.p99_delay() <= on_int.deadline_s;
  PrintShapeCheck(
      "past saturation: ladder keeps interactive p99 inside its deadline",
      StrFormat("on p99 %.1fs vs deadline %.1fs (off p99 %.1fs)", on_int.p99_delay(),
                on_int.deadline_s, off_int.p99_delay()),
      tail_ok);

  const TenantClassMetrics& on_be = ClassByName(on, "besteffort");
  bool shed_ok = on_int.rejected == 0 && ClassByName(on, "standard").rejected == 0 &&
                 on_be.rejected > 0;
  PrintShapeCheck("past saturation: rejections land on best-effort only",
                  StrFormat("int %llu, std %llu, be %llu rejected",
                            static_cast<unsigned long long>(on_int.rejected),
                            static_cast<unsigned long long>(
                                ClassByName(on, "standard").rejected),
                            static_cast<unsigned long long>(on_be.rejected)),
                  shed_ok);

  const RunMetrics& flash_on = find("flash", 2.0, "on");
  const RunMetrics& flash_off = find("flash", 2.0, "off");
  bool flash_ok = flash_on.goodput_qps >= flash_off.goodput_qps;
  PrintShapeCheck("flash crowd: ladder-on goodput >= ladder-off",
                  StrFormat("on %.2f vs off %.2f qps", flash_on.goodput_qps,
                            flash_off.goodput_qps),
                  flash_ok);

  bool ok = goodput_ok && tail_ok && shed_ok && flash_ok;

  BenchJsonRecord summary;
  summary.name = "summary";
  summary.tags = {{"arm", "summary"}};
  summary.metrics = {
      {"num_queries", static_cast<double>(BaseSpec(2.0, false).num_queries)},
      {"num_rates", static_cast<double>(kRates.size())},
      {"top_rate_qps", kRates.back()},
      {"num_classes", static_cast<double>(Tenants().size())},
      {"host_cpus", static_cast<double>(std::max(1u, std::thread::hardware_concurrency()))}};
  records.push_back(std::move(summary));
  WriteBenchJson("BENCH_overload.json", "overload", records,
                 "all metrics are simulation-deterministic and host-independent "
                 "(bit-identical kernels + simulated time)");
  std::printf("wrote BENCH_overload.json (%zu records)\n", records.size());
  return ok ? 0 : 1;
}
