// The paper bench: every figure and table of the METIS paper this repository
// reproduces, run in paper order in one process. Each figure prints the tables
// the paper plots and checks its claims as PaperClaim records (bench_util.h),
// which the run writes to BENCH_paper.json; docs/BENCH.md lists each claim's
// band and null. Everything is simulated at seed 42 (Figure 14 averages seeds
// 42-44), so every value is deterministic and host-independent.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/llm/engine.h"
#include "src/profiler/profiler.h"
#include "src/runner/runner.h"
#include "src/sim/simulator.h"

using namespace metis;

namespace {

constexpr uint64_t kSeed = 42;
constexpr double kOpen = std::numeric_limits<double>::infinity();
const char kEmbedder[] = "cohere-embed-v3-sim";
const char kMistral[] = "mistral-7b-v3-awq";

double Lo(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }
double Hi(const std::vector<double>& v) { return *std::max_element(v.begin(), v.end()); }

// The claim records of one run, in the order the figures check them.
class Ledger {
 public:
  void BeginFigure(const char* figure) { figure_ = figure; }

  // Judges a claim, prints its verdict line under the figure's tables and
  // keeps the record. `key` names the record within the figure.
  void Check(const std::string& key, const std::string& claim, double band_lo, double band_hi,
             double null_value, std::vector<double> measured, const std::string& measured_text) {
    PaperClaim c{figure_,    figure_ + "." + key, claim, band_lo, band_hi,
                 null_value, std::move(measured), measured_text};
    std::string values;
    for (double v : c.measured) {
      values += StrFormat("%s%.3g", values.empty() ? "" : ", ", v);
    }
    std::printf("  [%s] paper: %s | measured: %s | %s = %s vs [%g, %g], null %g\n",
                ClaimVerdictName(JudgeClaim(c)), claim.c_str(), measured_text.c_str(),
                c.name.c_str(), values.c_str(), band_lo, band_hi, null_value);
    claims_.push_back(std::move(c));
  }

  // A claim that quotes no number: its condition as 0/1, band [1, 1], null 0.
  void CheckHolds(const std::string& key, const std::string& claim, bool holds,
                  const std::string& measured_text) {
    Check(key, claim, 1, 1, 0, {holds ? 1.0 : 0.0}, measured_text);
  }

  // One record per claim (schema in docs/BENCH.md), then a summary.
  void WriteJson(const std::string& path) const {
    std::vector<BenchJsonRecord> records;
    double count[4] = {0, 0, 0, 0};  // By verdict rank.
    for (const PaperClaim& c : claims_) {
      ClaimVerdict verdict = JudgeClaim(c);
      ++count[static_cast<int>(verdict)];
      BenchJsonRecord rec{c.name,
                          {{"figure", c.figure},
                           {"verdict", ClaimVerdictName(verdict)},
                           {"claim", c.claim},
                           {"measured", c.measured_text}},
                          {{"verdict_rank", static_cast<double>(verdict)}}};
      // JSON has no infinity: an open edge stays out of the record.
      if (std::isfinite(c.band_lo)) rec.metrics.push_back({"band_lo", c.band_lo});
      if (std::isfinite(c.band_hi)) rec.metrics.push_back({"band_hi", c.band_hi});
      rec.metrics.insert(rec.metrics.end(),
                         {{"null_value", c.null_value},
                          {"measured_min", Lo(c.measured)},
                          {"measured_max", Hi(c.measured)},
                          {"measured_n", static_cast<double>(c.measured.size())}});
      records.push_back(std::move(rec));
    }
    records.push_back(
        {"summary",
         {},
         {{"claims", static_cast<double>(claims_.size())},
          {"in_band", count[3]},
          {"same_direction", count[2]},
          {"contradicted", count[1]},
          {"host_cpus", static_cast<double>(std::max(1u, std::thread::hardware_concurrency()))}}});
    WriteBenchJson(path, "paper", records, "simulated, seed 42: every value host-independent");
  }

 private:
  std::string figure_;
  std::vector<PaperClaim> claims_;
};

// Every menu configuration of a dataset run in isolation (idle engine) on each
// of its first `sample` queries: the "offline hand-tuning" step practitioners
// pick a static configuration with (paper §1).
struct FixedConfigScore {
  RagConfig config;
  double mean_f1 = 0;
  double mean_delay = 0;
};
struct FixedConfigSweep {
  std::vector<std::vector<RagResult>> results;  // [query][config], menu order.
  std::vector<FixedConfigScore> scores;         // Per config, means over the queries.
};

// Memoized per (dataset, queries, sample, serving model) at kSeed: `queries`
// sizes the generated dataset. Figures that tune on one key share its sweep.
const FixedConfigSweep& ScoreFixedConfigs(const std::string& dataset, int queries, int sample,
                                          const std::string& serving_model = kMistral) {
  static std::map<std::tuple<std::string, int, int, std::string>, FixedConfigSweep> memo;
  auto [it, fresh] = memo.try_emplace(std::make_tuple(dataset, queries, sample, serving_model));
  FixedConfigSweep& sweep = it->second;
  if (!fresh) {
    return sweep;
  }
  auto ds = GetOrGenerateDataset(dataset, queries, kEmbedder, kSeed);
  std::vector<RagConfig> menu = FixedConfigMenu(ds->profile());
  int n = std::min<int>(sample, static_cast<int>(ds->queries().size()));
  METIS_CHECK(n > 0 && !menu.empty());
  for (const RagConfig& config : menu) {
    sweep.scores.push_back({config, 0, 0});
  }
  for (int i = 0; i < n; ++i) {
    const RagQuery& query = ds->queries()[static_cast<size_t>(i)];
    std::vector<RagResult>& per_config = sweep.results.emplace_back();
    for (size_t c = 0; c < menu.size(); ++c) {
      const RagResult& r =
          per_config.emplace_back(RunSingleQuery(*ds, query, menu[c], serving_model, kSeed));
      sweep.scores[c].mean_f1 += r.f1;
      sweep.scores[c].mean_delay += r.exec_delay();
    }
  }
  for (FixedConfigScore& score : sweep.scores) {
    score.mean_f1 /= n;
    score.mean_delay /= n;
  }
  return sweep;
}

bool LessF1(const FixedConfigScore& a, const FixedConfigScore& b) { return a.mean_f1 < b.mean_f1; }

// The lowest-delay static configuration within 1.5% of the highest mean F1
// (what the paper's Fig. 10 "selected config" baselines deploy): no
// practitioner deploys a config that is seconds slower for a quality
// difference inside the noise floor.
RagConfig BestQualityFixed(const FixedConfigSweep& sweep) {
  const auto& scores = sweep.scores;
  double best_f1 = std::max_element(scores.begin(), scores.end(), LessF1)->mean_f1;
  const FixedConfigScore* pick = nullptr;
  for (const auto& s : scores) {
    if (s.mean_f1 >= best_f1 - 0.015 && (pick == nullptr || s.mean_delay < pick->mean_delay)) {
      pick = &s;
    }
  }
  return pick->config;
}

// Strict argmax-F1 static configuration, the first on a tie (the Fig. 19
// baseline: "vLLM's fixed configuration with highest quality").
RagConfig BestQualityFixedStrict(const FixedConfigSweep& sweep) {
  return std::max_element(sweep.scores.begin(), sweep.scores.end(), LessF1)->config;
}

// The static configuration whose isolated delay lies nearest the target, the
// first on a tie ("fixed configuration of similar delay").
RagConfig SimilarDelayFixed(const FixedConfigSweep& sweep, double target_delay) {
  auto gap = [&](const FixedConfigScore& s) { return std::abs(s.mean_delay - target_delay); };
  return std::min_element(sweep.scores.begin(), sweep.scores.end(),
                          [&](const auto& a, const auto& b) { return gap(a) < gap(b); })
      ->config;
}

// The index of `dataset` in a mixed run's per-dataset results.
size_t SliceOf(const MixedRunSpec& spec, const std::string& dataset) {
  auto it = std::find(spec.datasets.begin(), spec.datasets.end(), dataset);
  METIS_CHECK(it != spec.datasets.end());
  return static_cast<size_t>(it - spec.datasets.begin());
}

// One dataset served alone on its own engine.
RunSpec SingleSpec(const std::string& dataset, int queries) {
  RunSpec spec;
  spec.dataset = dataset;
  spec.num_queries = queries;
  spec.seed = kSeed;
  return spec;
}

// METIS serving the default four-dataset mix (200 queries each at 2 qps):
// Figure 10's headline run, which Figure 18 reads again.
const std::vector<RunMetrics>& DefaultMixMetis() {
  static const std::vector<RunMetrics> runs = [] {
    MixedRunSpec spec;
    spec.seed = kSeed;
    spec.system = SystemKind::kMetis;
    return RunMixedExperiment(spec);
  }();
  return runs;
}

// METIS, AdaptiveRAG*, vLLM and Parrot* on one dataset's slice of a mixed run.
// The two fixed-config systems deploy `fixed(metis)` on every dataset.
struct FourSystems {
  RunMetrics metis, adaptive, vllm, parrot;
};
FourSystems RunFourSystems(MixedRunSpec spec, const std::string& dataset,
                           const std::function<RagConfig(const RunMetrics& metis)>& fixed) {
  size_t slice = SliceOf(spec, dataset);
  FourSystems runs;
  spec.system = SystemKind::kMetis;
  runs.metis = RunMixedExperiment(spec)[slice];
  spec.system = SystemKind::kAdaptiveRag;
  runs.adaptive = RunMixedExperiment(spec)[slice];
  spec.fixed_configs = {fixed(runs.metis)};
  spec.system = SystemKind::kVllmFixed;
  runs.vllm = RunMixedExperiment(spec)[slice];
  spec.system = SystemKind::kParrotFixed;
  runs.parrot = RunMixedExperiment(spec)[slice];
  return runs;
}

// Figure 1 (intro preview): METIS vs AdaptiveRAG, Parrot*, and vLLM on the
// KG RAG FinSec dataset — two panels in the paper: response delay and quality.
void Fig01Preview(Ledger& ledger) {
  const int kQueries = 150;
  RagConfig best = BestQualityFixed(ScoreFixedConfigs("kg_rag_finsec", kQueries, 40));

  MixedRunSpec spec;  // Full concurrent workload; FinSec slice reported.
  spec.queries_per_dataset = kQueries;
  spec.seed = kSeed;
  FourSystems runs = RunFourSystems(spec, "kg_rag_finsec", [&](const RunMetrics&) { return best; });

  Table table("Figure 1: METIS on KG RAG FinSec vs baselines");
  table.SetHeader({"system", "mean delay (s)", "p90 delay (s)", "mean F1"});
  for (auto [name, m] : {std::pair{"METIS", &runs.metis},
                         std::pair{"AdaptiveRAG (ACL 2024)", &runs.adaptive},
                         std::pair{"Parrot (OSDI 2024)", &runs.parrot},
                         std::pair{"vLLM (SOTA engine)", &runs.vllm}}) {
    table.AddRow({name, Table::Num(m->mean_delay(), 2), Table::Num(m->p90_delay(), 2),
                  Table::Num(m->mean_f1(), 3)});
  }
  table.Print();

  const RunMetrics& metis = runs.metis;
  bool wins = metis.mean_delay() < runs.adaptive.mean_delay() &&
              metis.mean_delay() < runs.vllm.mean_delay() &&
              metis.mean_f1() >= runs.vllm.mean_f1() - 0.02;
  ledger.CheckHolds("better_corner",
                    "METIS sits in the better (low-delay, high-quality) corner on FinSec", wins,
                    StrFormat("delay %.2fs vs %.2f/%.2f/%.2f; F1 %.3f", metis.mean_delay(),
                              runs.adaptive.mean_delay(), runs.parrot.mean_delay(),
                              runs.vllm.mean_delay(), metis.mean_f1()));
}

// Figure 4: each RAG configuration knob traces a different quality-delay
// curve, and the curves differ across query archetypes:
//   Q1 (simple single-hop), Q2 (joint reasoning, low complexity),
//   Q3 (joint reasoning, high complexity).
// Panels: (a) synthesis method sweep, (b) num_chunks 1-35 with stuff,
// (c) intermediate_length 1-100 with map_reduce.
struct Archetype {
  const char* label;
  std::vector<const RagQuery*> queries;
};

// Averages isolated quality/delay for a config over an archetype's queries.
struct Point {
  double f1 = 0;
  double delay = 0;
};
Point Probe(const Dataset& ds, const Archetype& a, const RagConfig& cfg) {
  Point p;
  for (const RagQuery* q : a.queries) {
    RagResult r = RunSingleQuery(ds, *q, cfg, kMistral, kSeed);
    p.f1 += r.f1;
    p.delay += r.exec_delay();
  }
  p.f1 /= static_cast<double>(a.queries.size());
  p.delay /= static_cast<double>(a.queries.size());
  return p;
}

// Panels (b) and (c): one knob swept with the others fixed, a row per value;
// returns the Q1/Q2/Q3 points at each value.
std::map<int, std::array<Point, 3>> KnobSweep(const Dataset& ds, const Archetype* const (&archs)[3],
                                              const std::string& title, const char* knob,
                                              const std::vector<int>& values,
                                              const std::function<RagConfig(int)>& config) {
  Table table(title);
  table.SetHeader({knob, "Q1 F1", "Q1 delay", "Q2 F1", "Q2 delay", "Q3 F1", "Q3 delay"});
  std::map<int, std::array<Point, 3>> points;
  for (int v : values) {
    std::vector<std::string> row = {StrFormat("%d", v)};
    for (size_t a = 0; a < 3; ++a) {
      Point& p = points[v][a] = Probe(ds, *archs[a], config(v));
      row.push_back(Table::Num(p.f1, 3));
      row.push_back(Table::Num(p.delay, 2));
    }
    table.AddRow(row);
  }
  table.Print();
  return points;
}

void Fig04Knobs(Ledger& ledger) {
  auto ds = GetOrGenerateDataset("musique", 200, kEmbedder, kSeed);

  Archetype q1{"Q1 simple", {}};
  Archetype q2{"Q2 joint/low", {}};
  Archetype q3{"Q3 joint/high", {}};
  for (const RagQuery& q : ds->queries()) {
    if (!q.requires_joint && !q.high_complexity && q.num_facts == 1 && q1.queries.size() < 25) {
      q1.queries.push_back(&q);
    } else if (q.requires_joint && !q.high_complexity && q2.queries.size() < 25) {
      q2.queries.push_back(&q);
    } else if (q.requires_joint && q.high_complexity && q3.queries.size() < 25) {
      q3.queries.push_back(&q);
    }
  }

  // --- Panel (a): synthesis method (other knobs fixed: k=6, L=80) ---
  Table a("Figure 4a: synthesis method vs quality-delay per archetype");
  a.SetHeader({"archetype", "method", "mean F1", "mean delay (s)"});
  const Archetype* const archs[3] = {&q1, &q2, &q3};
  const SynthesisMethod methods[3] = {SynthesisMethod::kMapRerank, SynthesisMethod::kStuff,
                                      SynthesisMethod::kMapReduce};
  Point pa[3][3];  // [archetype][method]
  for (size_t i = 0; i < 3; ++i) {
    for (size_t m = 0; m < 3; ++m) {
      const Point& p = pa[i][m] = Probe(*ds, *archs[i], RagConfig{methods[m], 6, 80});
      a.AddRow({archs[i]->label, SynthesisMethodName(methods[m]), Table::Num(p.f1, 3),
                Table::Num(p.delay, 2)});
    }
  }
  a.Print();
  const Point &q1_rerank = pa[0][0], &q1_reduce = pa[0][2], &q2_rerank = pa[1][0];
  const Point &q2_stuff = pa[1][1], &q3_stuff = pa[2][1], &q3_reduce = pa[2][2];
  ledger.CheckHolds("q1_rerank_suffices",
                    "Q1: map_rerank suffices; joint methods add delay without quality",
                    q1_rerank.f1 >= q1_reduce.f1 - 0.03 && q1_rerank.delay < q1_reduce.delay,
                    StrFormat("rerank F1 %.3f @ %.2fs vs map_reduce F1 %.3f @ %.2fs",
                              q1_rerank.f1, q1_rerank.delay, q1_reduce.f1, q1_reduce.delay));
  ledger.Check("q2_joint_gain", "Q2: cross-chunk methods beat map_rerank by a wide margin (~35%)",
               0.9 * 35, 1.1 * 35, 0, {100.0 * (q2_stuff.f1 - q2_rerank.f1) / q2_rerank.f1},
               StrFormat("stuff %.3f vs rerank %.3f", q2_stuff.f1, q2_rerank.f1));
  ledger.CheckHolds("q3_map_reduce_wins",
                    "Q3: map_reduce denoising beats stuff on complex queries",
                    q3_reduce.f1 >= q3_stuff.f1 - 0.01,
                    StrFormat("map_reduce %.3f vs stuff %.3f", q3_reduce.f1, q3_stuff.f1));

  // --- Panel (b): num_chunks sweep with stuff ---
  auto b = KnobSweep(*ds, archs, "Figure 4b: num_chunks 1-35 with stuff", "k",
                     {1, 2, 3, 5, 8, 12, 16, 20, 25, 30, 35},
                     [](int k) { return RagConfig{SynthesisMethod::kStuff, k, 80}; });
  double q2_best_f1 = 0;
  for (const auto& [k, p] : b) {
    q2_best_f1 = std::max(q2_best_f1, p[1].f1);
  }
  const Point& q2_at1 = b[1][1];
  const Point& q2_at35 = b[35][1];
  const char* chunks_claim = "more chunks help then hurt (quality drops, delay inflates ~3x)";
  std::string chunks_measured =
      StrFormat("Q2 peak F1 %.3f vs %.3f at k=35; delay %.2f->%.2fs", q2_best_f1, q2_at35.f1,
                q2_at1.delay, q2_at35.delay);
  ledger.CheckHolds("k35_quality_drop", chunks_claim, q2_at35.f1 < q2_best_f1 - 0.05,
                    chunks_measured);
  ledger.Check("k35_delay_inflation", chunks_claim, 0.9 * 3, 1.1 * 3, 1,
               {q2_at35.delay / q2_at1.delay}, chunks_measured);

  // --- Panel (c): intermediate_length sweep with map_reduce ---
  auto c = KnobSweep(*ds, archs, "Figure 4c: intermediate_length 1-100 with map_reduce (k=6)", "L",
                     {1, 5, 10, 20, 35, 50, 70, 100},
                     [](int len) { return RagConfig{SynthesisMethod::kMapReduce, 6, len}; });
  double q3_f1_at5 = c[5][2].f1, q3_f1_at100 = c[100][2].f1;
  double q1_f1_at20 = c[20][0].f1, q1_f1_at100 = c[100][0].f1;
  ledger.CheckHolds("long_intermediates",
                    "complex queries need long intermediates; short ones plateau early",
                    q3_f1_at100 > q3_f1_at5 + 0.08 && q1_f1_at20 >= q1_f1_at100 - 0.05,
                    StrFormat("Q3: %.3f@L=5 -> %.3f@L=100; Q1: %.3f@L=20 vs %.3f@L=100",
                              q3_f1_at5, q3_f1_at100, q1_f1_at20, q1_f1_at100));
}

// Figure 5: choosing the best configuration per query beats every static
// configuration's quality-delay point (Musique and QMSUM). The per-query best
// is the lowest-delay configuration within 2% of that query's best achievable
// quality — the paper's definition (§3).
void Fig05PerQuery(Ledger& ledger) {
  for (const char* name : {"musique", "qmsum"}) {
    const FixedConfigSweep& sweep = ScoreFixedConfigs(name, 200, 40);
    const double n = static_cast<double>(sweep.results.size());

    // Per-query best: lowest delay within 2% of that query's max F1.
    double pq_f1 = 0, pq_delay = 0;
    for (const auto& per_config : sweep.results) {
      double best_f1 = std::max_element(per_config.begin(), per_config.end(), [](auto& a, auto& b) {
                         return a.f1 < b.f1;
                       })->f1;
      const RagResult* pick = nullptr;
      for (const auto& r : per_config) {
        if (r.f1 >= best_f1 - 0.02 && (pick == nullptr || r.exec_delay() < pick->exec_delay())) {
          pick = &r;
        }
      }
      pq_f1 += pick->f1;
      pq_delay += pick->exec_delay();
    }
    pq_f1 /= n;
    pq_delay /= n;

    Table table(StrFormat("Figure 5 (%s): per-query config vs fixed-config Pareto", name));
    table.SetHeader({"configuration", "mean F1", "mean delay (s)"});
    table.AddRow({"per-query best", Table::Num(pq_f1, 3), Table::Num(pq_delay, 2)});

    // Fixed-config points (the Pareto cloud of Figure 5).
    double best_fixed_f1 = 0;
    double best_f1_at_similar_delay = 0;
    double closest_quality_delay = -1;  // Delay of statics within 5% of per-query F1.
    for (const FixedConfigScore& s : sweep.scores) {
      table.AddRow({RagConfigToString(s.config), Table::Num(s.mean_f1, 3),
                    Table::Num(s.mean_delay, 2)});
      best_fixed_f1 = std::max(best_fixed_f1, s.mean_f1);
      if (s.mean_f1 >= pq_f1 - 0.05 &&
          (closest_quality_delay < 0 || s.mean_delay < closest_quality_delay)) {
        closest_quality_delay = s.mean_delay;
      }
      if (s.mean_delay <= pq_delay * 1.15) {
        best_f1_at_similar_delay = std::max(best_f1_at_similar_delay, s.mean_f1);
      }
    }
    table.Print();

    // One record either way: with no static config within 5% of the per-query
    // F1 there is no saving to measure, and the claim becomes dominance.
    std::string key = std::string(name) + ".vs_closest_quality";
    if (closest_quality_delay < 0) {
      ledger.CheckHolds(key, "per-query config dominates the static Pareto frontier",
                        pq_f1 > best_fixed_f1,
                        StrFormat("no static within 5%% of per-query F1 %.3f (best static %.3f)",
                                  pq_f1, best_fixed_f1));
    } else {
      // "Up to 3x" bounds the saving above; the null bounds it below.
      ledger.Check(key, "per-query config: up to 3x delay saving vs closest-quality static", 1,
                   3, 1, {closest_quality_delay / pq_delay},
                   StrFormat("%.2fs vs %.2fs (%.1fx)", pq_delay, closest_quality_delay,
                             closest_quality_delay / pq_delay));
    }
    ledger.Check(std::string(name) + ".similar_delay_loss",
                 "every static of comparable delay loses >=10% quality", 10, kOpen, 0,
                 {100.0 * (pq_f1 - best_f1_at_similar_delay) / pq_f1},
                 StrFormat("best static F1 at similar delay: %.3f vs per-query %.3f",
                           best_f1_at_similar_delay, pq_f1));
  }
}

// Figure 9: the profiler's log-prob confidence separates good profiles from
// bad ones. Paper: >=93% of profiles clear the 90% threshold; of those, >=96%
// are good; of the ~7% below the threshold, 85-90% are bad.
void Fig09Confidence(Ledger& ledger) {
  int above = 0, above_good = 0, below = 0, below_bad = 0;

  Table table("Figure 9: profiler confidence vs profile goodness (per dataset)");
  table.SetHeader({"dataset", ">=90% conf", "good | >=90%", "bad | <90%"});

  for (const char* name : {"squad", "musique", "kg_rag_finsec", "qmsum"}) {
    auto ds = GetOrGenerateDataset(name, 200, kEmbedder, kSeed);
    Simulator sim;
    ApiLlmClient api(&sim, Gpt4oApi(), kSeed);
    QueryProfiler profiler(&sim, &api, &ds->db().metadata(), Gpt4oProfilerParams(), kSeed);

    int d_above = 0, d_above_good = 0, d_below = 0, d_below_bad = 0;
    for (const RagQuery& q : ds->queries()) {
      QueryProfiler::Outcome out = profiler.Estimate(q);
      if (out.profile.confidence >= 0.90) {
        ++d_above;
        d_above_good += out.was_bad ? 0 : 1;
      } else {
        ++d_below;
        d_below_bad += out.was_bad ? 1 : 0;
      }
    }
    above += d_above;
    above_good += d_above_good;
    below += d_below;
    below_bad += d_below_bad;
    table.AddRow({name, StrFormat("%.1f%%", 100.0 * d_above / (d_above + d_below)),
                  StrFormat("%.1f%%", d_above ? 100.0 * d_above_good / d_above : 0.0),
                  StrFormat("%.1f%%", d_below ? 100.0 * d_below_bad / d_below : 0.0)});
  }
  table.Print();

  double frac_above = 100.0 * above / (above + below);
  double good_above = above ? 100.0 * above_good / above : 0;
  double bad_below = below ? 100.0 * below_bad / below : 0;
  ledger.Check("confident_share", ">=93% of profiles have confidence >=90%", 93, kOpen, 93,
               {frac_above}, StrFormat("%.1f%% above threshold", frac_above));
  ledger.Check("good_when_confident", ">=96% of high-confidence profiles are good", 96, kOpen, 96,
               {good_above}, StrFormat("%.1f%% good above threshold", good_above));
  ledger.Check("bad_when_unsure", "85-90% of low-confidence profiles are bad", 85, 90, 85,
               {bad_below}, StrFormat("%.1f%% bad below threshold", bad_below));
}

// Figure 10 (headline): across four datasets served concurrently (Poisson,
// 2 qps per dataset, shared engine — §7.1):
//   - METIS achieves 1.64-2.54x lower delay than the quality-optimized
//     configuration policy (AdaptiveRAG*) at no F1 loss;
//   - METIS achieves 12-18% higher F1 than static configurations tuned to
//     reach a similar served delay, on both vLLM and Parrot*;
//   - Parrot* batching improves delay over vLLM by 1.4-1.8x but cannot
//     improve quality.
// The best-quality static configuration is also reported; at this offered
// load it saturates the engine (the paper's motivation for adapting configs).
void Fig10Overall(Ledger& ledger) {
  MixedRunSpec spec;  // The default mix, as DefaultMixMetis serves it.
  spec.seed = kSeed;
  const std::vector<std::string>& datasets = spec.datasets;

  // Offline scoring of the static menu (what a practitioner tunes from).
  std::vector<RagConfig> best_quality;
  std::vector<const FixedConfigSweep*> sweeps;
  for (const auto& name : datasets) {
    sweeps.push_back(&ScoreFixedConfigs(name, spec.queries_per_dataset, 40));
    best_quality.push_back(BestQualityFixed(*sweeps.back()));
  }

  const std::vector<RunMetrics>& metis = DefaultMixMetis();
  spec.system = SystemKind::kAdaptiveRag;
  auto adaptive = RunMixedExperiment(spec);
  spec.system = SystemKind::kVllmFixed;
  spec.fixed_configs = best_quality;
  auto vllm_best = RunMixedExperiment(spec);

  // "Fixed config of similar delay": per dataset, the static config whose
  // *served* delay lands nearest METIS's. Iteratively step configs up/down
  // the isolated-cost ladder until served delays land in a [0.6x, 1.4x] band.
  std::vector<RagConfig> similar;
  for (size_t d = 0; d < datasets.size(); ++d) {
    similar.push_back(SimilarDelayFixed(*sweeps[d], metis[d].mean_delay() / 3.0));
  }
  spec.fixed_configs = similar;
  auto vllm_similar = RunMixedExperiment(spec);
  for (int iter = 0; iter < 4; ++iter) {
    bool adjusted = false;
    for (size_t d = 0; d < datasets.size(); ++d) {
      const std::vector<FixedConfigScore>& scores = sweeps[d]->scores;
      double ratio = vllm_similar[d].mean_delay() / metis[d].mean_delay();
      double current = std::find_if(scores.begin(), scores.end(), [&](const auto& s) {
                         return s.config == similar[d];
                       })->mean_delay;
      const FixedConfigScore* next = nullptr;
      if (ratio > 1.4) {  // Too slow: richest config cheaper than current.
        for (const auto& s : scores) {
          if (s.mean_delay < current * 0.85 &&
              (next == nullptr || s.mean_delay > next->mean_delay)) {
            next = &s;
          }
        }
      } else if (ratio < 0.6) {  // Too fast: cheapest config richer.
        for (const auto& s : scores) {
          if (s.mean_delay > current * 1.15 &&
              (next == nullptr || s.mean_delay < next->mean_delay)) {
            next = &s;
          }
        }
      }
      if (next != nullptr && !(next->config == similar[d])) {
        similar[d] = next->config;
        adjusted = true;
      }
    }
    if (!adjusted) {
      break;
    }
    spec.fixed_configs = similar;
    vllm_similar = RunMixedExperiment(spec);
  }
  spec.system = SystemKind::kParrotFixed;
  spec.fixed_configs = similar;
  auto parrot_similar = RunMixedExperiment(spec);

  // Parrot* on the best-quality configs isolates the batching gain vs vLLM.
  spec.fixed_configs = best_quality;
  auto parrot_best = RunMixedExperiment(spec);

  Table table("Figure 10: per-dataset delay and F1 (mixed serving, 2 qps/dataset)");
  table.SetHeader({"dataset", "system", "config", "mean F1", "mean delay (s)", "p90 (s)",
                   "p99 (s)", "delay vs metis"});
  for (size_t d = 0; d < datasets.size(); ++d) {
    struct Row {
      std::string name;
      std::string config;
      const RunMetrics* m;
    };
    bool saturated = vllm_best[d].mean_delay() > 8 * metis[d].mean_delay();
    Row rows[] = {
        {"METIS", "adaptive", &metis[d]},
        {"AdaptiveRAG*", "quality-optimized", &adaptive[d]},
        {"vLLM (similar delay)", RagConfigToString(similar[d]), &vllm_similar[d]},
        {"Parrot* (similar delay)", RagConfigToString(similar[d]), &parrot_similar[d]},
        {std::string("vLLM (best quality)") + (saturated ? " [saturates]" : ""),
         RagConfigToString(best_quality[d]), &vllm_best[d]},
    };
    for (const Row& r : rows) {
      table.AddRow({datasets[d], r.name, r.config, Table::Num(r.m->mean_f1(), 3),
                    Table::Num(r.m->mean_delay(), 2), Table::Num(r.m->p90_delay(), 2),
                    Table::Num(r.m->p99_delay(), 2),
                    Table::Num(r.m->mean_delay() / metis[d].mean_delay(), 2) + "x"});
    }
  }
  table.Print();

  std::vector<double> speedup, f1_gap, f1_gain, batching;
  for (size_t d = 0; d < datasets.size(); ++d) {
    speedup.push_back(adaptive[d].mean_delay() / metis[d].mean_delay());
    f1_gap.push_back(metis[d].mean_f1() - adaptive[d].mean_f1());
    double base = std::max(vllm_similar[d].mean_f1(), parrot_similar[d].mean_f1());
    f1_gain.push_back(100.0 * (metis[d].mean_f1() - base) / base);
    batching.push_back(vllm_best[d].mean_delay() / parrot_best[d].mean_delay());
  }
  const char* adaptive_claim =
      "METIS 1.64-2.54x lower delay than quality-optimized configs, same quality";
  std::string adaptive_measured =
      StrFormat("%.2f-%.2fx lower delay; worst F1 gap %+.3f", Lo(speedup), Hi(speedup),
                std::min(0.0, Lo(f1_gap)));
  ledger.Check("delay_vs_adaptive", adaptive_claim, 1.64, 2.54, 1, speedup, adaptive_measured);
  ledger.Check("f1_vs_adaptive", adaptive_claim, -0.05, kOpen, -0.05, f1_gap, adaptive_measured);
  ledger.Check("f1_gain_vs_similar_delay", "12-18% higher F1 than fixed configs of similar delay",
               12, 18, 0, f1_gain,
               StrFormat("%+.0f%% to %+.0f%% higher F1", Lo(f1_gain), Hi(f1_gain)));
  ledger.Check("parrot_batching", "Parrot* batching improves delay 1.4-1.8x over vLLM, not quality",
               1.4, 1.8, 1, batching, StrFormat("%.2f-%.2fx", Lo(batching), Hi(batching)));
}

// Figure 11: delay vs offered load, one panel per dataset (each dataset swept
// on its own engine, as in the paper's per-panel curves). METIS sustains
// 1.8-4.5x higher throughput than fixed-config serving at the 1.8 s delay bar,
// because it adapts configurations to the available resources as load grows.
void Fig11Throughput(Ledger& ledger) {
  const int kQueries = 150;
  const std::vector<double> kRates = {0.5, 1.0, 2.0, 4.0, 6.0, 8.0};
  std::vector<std::string> datasets = {"kg_rag_finsec", "musique", "squad", "qmsum"};

  std::vector<double> ratios;
  for (const auto& name : datasets) {
    RagConfig best = BestQualityFixed(ScoreFixedConfigs(name, kQueries, 30));

    // delay[system][rate]
    std::vector<std::vector<double>> delay(3);
    for (double rate : kRates) {
      RunSpec spec = SingleSpec(name, kQueries);
      spec.arrival_rate = rate;

      spec.system = SystemKind::kMetis;
      delay[0].push_back(RunExperiment(spec).mean_delay());
      spec.fixed_config = best;
      spec.system = SystemKind::kParrotFixed;
      delay[1].push_back(RunExperiment(spec).mean_delay());
      spec.system = SystemKind::kVllmFixed;
      delay[2].push_back(RunExperiment(spec).mean_delay());
    }

    Table table(StrFormat("Figure 11 (%s): mean delay (s) vs offered qps", name.c_str()));
    std::vector<std::string> header = {"system"};
    for (double r : kRates) {
      header.push_back(StrFormat("%.1f qps", r));
    }
    table.SetHeader(header);
    const char* systems[] = {"METIS", "Parrot* (fixed)", "vLLM (fixed)"};
    for (size_t s = 0; s < 3; ++s) {
      std::vector<std::string> row = {systems[s]};
      for (double d : delay[s]) {
        row.push_back(Table::Num(d, 2));
      }
      table.AddRow(row);
    }
    table.Print();

    // Throughput at the delay bar. The paper uses an absolute 1.8 s bar; this
    // simulator does not preserve absolute delays, so the bar scales with the
    // dataset's unloaded service time (2.5x the best low-load delay, floored
    // at the paper's 1.8 s) — the same "delay SLO" semantics.
    double base_delay = std::min({delay[0][0], delay[1][0], delay[2][0]});
    double bar = std::max(1.8, 2.5 * base_delay);
    auto tput_at = [&](size_t s) {
      double got = kRates.front() / 2;  // Floor: below the sweep.
      for (size_t ri = 0; ri < kRates.size(); ++ri) {
        if (delay[s][ri] <= bar) {
          got = kRates[ri];
        }
      }
      return got;
    };
    double metis_tput = tput_at(0);
    double fixed_tput = std::max(tput_at(1), tput_at(2));
    double ratio = metis_tput / fixed_tput;
    std::printf("  throughput @%.1fs bar: METIS %.1f qps vs fixed %.1f qps (%.1fx)\n", bar,
                metis_tput, fixed_tput, ratio);
    ratios.push_back(ratio);
  }
  ledger.Check("throughput_vs_fixed",
               "METIS sustains 1.8-4.5x higher throughput at the 1.8s delay bar", 1.8, 4.5, 1,
               ratios, StrFormat("%.1f-%.1fx across datasets", Lo(ratios), Hi(ratios)));
}

// Figure 12: where METIS's delay saving comes from. Staged on FinSec and
// Musique against the highest-quality fixed configuration on vLLM:
//   (1) profiler output, median config         -> 1.4-1.68x
//   (2) + Parrot*-style batching               -> additional 1.1-1.2x
//   (3) + memory-aware joint scheduling        -> additional 1.45-1.75x
void Fig12Ablation(Ledger& ledger) {
  const int kQueries = 150;

  // All four datasets run concurrently; the fixed baseline deploys each
  // dataset's own best-quality static config. Rate chosen so the fixed
  // baseline is congested but stable, making stage ratios interpretable.
  MixedRunSpec proto;
  proto.queries_per_dataset = kQueries;
  proto.rate_per_dataset = 1.4;
  proto.seed = kSeed;
  std::vector<RagConfig> best_configs;
  for (const auto& dsname : proto.datasets) {
    best_configs.push_back(BestQualityFixed(ScoreFixedConfigs(dsname, kQueries, 40)));
  }

  for (const char* name : {"kg_rag_finsec", "musique"}) {
    MixedRunSpec spec = proto;
    size_t slice = SliceOf(spec, name);

    // (0) vLLM, best-quality fixed config per dataset.
    spec.system = SystemKind::kVllmFixed;
    spec.fixed_configs = best_configs;
    double base = RunMixedExperiment(spec)[slice].mean_delay();

    // (1) Profiler + median-of-space config, no batching, no joint scheduling.
    spec.system = SystemKind::kMetis;
    spec.metis.pick = MetisSystem::ConfigPick::kMedianOfSpace;
    spec.override_prefix_sharing = false;
    double median = RunMixedExperiment(spec)[slice].mean_delay();

    // (2) + group-aware batching with prefix sharing.
    spec.override_prefix_sharing = true;
    double batching = RunMixedExperiment(spec)[slice].mean_delay();

    // (3) + joint best-fit scheduling (full METIS).
    spec.metis.pick = MetisSystem::ConfigPick::kBestFit;
    double full = RunMixedExperiment(spec)[slice].mean_delay();

    Table table(StrFormat("Figure 12 (%s): delay decomposition", name));
    table.SetHeader({"stage", "mean delay (s)", "vs fixed config", "vs previous stage"});
    table.AddRow({"vLLM best-quality fixed", Table::Num(base, 2), "1.00x", "-"});
    table.AddRow({"+ profiler (median config)", Table::Num(median, 2),
                  Table::Num(base / median, 2) + "x", Table::Num(base / median, 2) + "x"});
    table.AddRow({"+ batching", Table::Num(batching, 2), Table::Num(base / batching, 2) + "x",
                  Table::Num(median / batching, 2) + "x"});
    table.AddRow({"+ joint scheduling (METIS)", Table::Num(full, 2),
                  Table::Num(base / full, 2) + "x", Table::Num(batching / full, 2) + "x"});
    table.Print();

    std::string measured = StrFormat("%.2f / %.2f / %.2f / %.2f s", base, median, batching, full);
    std::string key = std::string(name) + ".";
    ledger.Check(key + "profiler_stage",
                 "profiler output, median config: 1.4-1.68x lower delay than the best-quality "
                 "fixed config",
                 1.4, 1.68, 1, {base / median}, measured);
    ledger.Check(key + "batching_stage", "+ Parrot*-style batching: an additional 1.1-1.2x", 1.1,
                 1.2, 1, {median / batching}, measured);
    ledger.Check(key + "scheduling_stage",
                 "+ memory-aware joint scheduling: an additional 1.45-1.75x", 1.45, 1.75, 1,
                 {batching / full}, measured);
  }
}

// Figure 13: scaling the *model* instead of adapting the *configuration* is
// expensive. Fixed-config pipelines on Llama-70B cost ~2.38x and on GPT-4o
// ~6.8x more dollars than METIS on Mistral-7B (profiler included), while
// failing to reach its F1.
void Fig13Cost(Ledger& ledger) {
  const int kQueries = 150;

  for (const char* name : {"musique", "qmsum"}) {
    RagConfig best = BestQualityFixed(ScoreFixedConfigs(name, kQueries, 30));

    RunSpec spec = SingleSpec(name, kQueries);

    // METIS on the small model, profiler cost included.
    spec.system = SystemKind::kMetis;
    spec.serving_model = kMistral;
    RunMetrics metis = RunExperiment(spec);

    // Bigger fixed-config models.
    spec.system = SystemKind::kVllmFixed;
    spec.fixed_config = best;
    spec.serving_model = "llama3.1-70b-awq";
    RunMetrics llama = RunExperiment(spec);
    spec.serving_model = "gpt-4o-serving";
    spec.kv_pool_gib = 200;  // Provider fleet; memory is not the constraint.
    RunMetrics gpt = RunExperiment(spec);

    Table table(StrFormat("Figure 13 (%s): dollar cost vs quality", name));
    table.SetHeader({"system", "model", "mean F1", "cost ($, 150 queries)", "vs METIS"});
    table.AddRow({"METIS (incl. profiler)", "mistral-7b", Table::Num(metis.mean_f1(), 3),
                  Table::Num(metis.total_cost_usd(), 4), "1.00x"});
    table.AddRow({"vLLM fixed", "llama3.1-70b", Table::Num(llama.mean_f1(), 3),
                  Table::Num(llama.total_cost_usd(), 4),
                  Table::Num(llama.total_cost_usd() / metis.total_cost_usd(), 2) + "x"});
    table.AddRow({"fixed config", "gpt-4o", Table::Num(gpt.mean_f1(), 3),
                  Table::Num(gpt.total_cost_usd(), 4),
                  Table::Num(gpt.total_cost_usd() / metis.total_cost_usd(), 2) + "x"});
    table.Print();

    double llama_ratio = llama.total_cost_usd() / metis.total_cost_usd();
    double gpt_ratio = gpt.total_cost_usd() / metis.total_cost_usd();
    const char* claim =
        "fixed-config 70B ~2.38x and GPT-4o ~6.8x costlier than METIS, without beating its F1";
    std::string measured =
        StrFormat("70B %.2fx (F1 %.3f), GPT-4o %.2fx (F1 %.3f) vs METIS F1 %.3f", llama_ratio,
                  llama.mean_f1(), gpt_ratio, gpt.mean_f1(), metis.mean_f1());
    std::string key = std::string(name) + ".";
    ledger.Check(key + "cost_70b", claim, 0.9 * 2.38, 1.1 * 2.38, 1, {llama_ratio}, measured);
    ledger.Check(key + "cost_gpt4o", claim, 0.9 * 6.8, 1.1 * 6.8, 1, {gpt_ratio}, measured);
    ledger.Check(key + "f1_vs_70b", claim, -0.05, kOpen, -0.05,
                 {metis.mean_f1() - llama.mean_f1()}, measured);
  }
}

// Figure 14: golden-configuration feedback to the profiler (every 30 queries,
// last four prompts kept) lifts F1 by 4-6% over a 350-query run on QMSUM and
// KG RAG FinSec.
void Fig14Feedback(Ledger& ledger) {
  const int kQueries = 350;

  for (const char* name : {"qmsum", "kg_rag_finsec"}) {
    // Averaged over seeds: the per-run F1 noise (~2%) would otherwise drown
    // the feedback signal.
    auto window = [&](const RunMetrics& m, int lo, int hi) {
      double sum = 0;
      int n = 0;
      for (const QueryRecord& r : m.records) {
        if (r.query_id >= lo && r.query_id < hi) {
          sum += r.result.f1;
          ++n;
        }
      }
      return n ? sum / n : 0.0;
    };

    const int kWindows[] = {50, 150, 250, 350};
    double cum_off[4] = {0, 0, 0, 0};
    double cum_on[4] = {0, 0, 0, 0};
    double f_off = 0, f_on = 0;
    const int kSeeds = 3;
    for (uint64_t seed = kSeed; seed < kSeed + kSeeds; ++seed) {
      RunSpec spec = SingleSpec(name, kQueries);
      spec.arrival_rate = 1.0;  // Single-dataset workload, as in §7.3.
      spec.seed = seed;
      spec.system = SystemKind::kMetis;

      spec.metis.feedback_enabled = false;
      RunMetrics off = RunExperiment(spec);
      spec.metis.feedback_enabled = true;
      RunMetrics on = RunExperiment(spec);
      for (int w = 0; w < 4; ++w) {
        cum_off[w] += window(off, 0, kWindows[w]) / kSeeds;
        cum_on[w] += window(on, 0, kWindows[w]) / kSeeds;
      }
      f_off += window(off, kQueries / 2, kQueries) / kSeeds;
      f_on += window(on, kQueries / 2, kQueries) / kSeeds;
    }

    Table table(StrFormat(
        "Figure 14 (%s): F1 with vs without profiler feedback (3-seed average)", name));
    table.SetHeader({"queries served", "no feedback", "with feedback"});
    for (int w = 0; w < 4; ++w) {
      table.AddRow({StrFormat("%d", kWindows[w]), Table::Num(cum_off[w], 3),
                    Table::Num(cum_on[w], 3)});
    }
    table.Print();

    double gain = 100.0 * (f_on - f_off) / f_off;
    ledger.Check(std::string(name) + ".feedback_gain", "feedback improves F1 by 4-6%", 4, 6, 0,
                 {gain}, StrFormat("%.3f -> %.3f (%+.1f%%) over the back half", f_off, f_on, gain));
  }
}

// Figure 15: with a larger inference LLM (Llama-3.1-70B), METIS still delivers
// 2.1-2.4x lower delay than AdaptiveRAG* at similar F1, and the fixed-config
// baselines trail by 7-10% F1. RAG answers come from the retrieved context,
// so the bigger model buys only ~2% F1 over Mistral-7B.
void Fig15LargeLlm(Ledger& ledger) {
  const int kQueries = 150;

  double seventy_f1 = 0, seven_f1 = 0;
  for (const char* name : {"musique", "qmsum"}) {
    RagConfig best = BestQualityFixed(ScoreFixedConfigs(name, kQueries, 30, "llama3.1-70b-awq"));

    MixedRunSpec spec;
    spec.datasets = {"musique", "qmsum"};
    spec.queries_per_dataset = kQueries;
    spec.serving_model = "llama3.1-70b-awq";
    spec.rate_per_dataset = 0.8;  // The 70B engine is ~6x slower per token.
    spec.seed = kSeed;
    FourSystems runs = RunFourSystems(spec, name, [&](const RunMetrics&) { return best; });
    const RunMetrics& metis = runs.metis;

    Table table(StrFormat("Figure 15 (%s, llama3.1-70b): delay & F1", name));
    table.SetHeader({"system", "mean F1", "mean delay (s)", "delay vs METIS"});
    for (auto [label, m] : {std::pair{"METIS", &runs.metis}, std::pair{"AdaptiveRAG*", &runs.adaptive},
                            std::pair{"Parrot*", &runs.parrot}, std::pair{"vLLM", &runs.vllm}}) {
      table.AddRow({label, Table::Num(m->mean_f1(), 3), Table::Num(m->mean_delay(), 2),
                    Table::Num(m->mean_delay() / metis.mean_delay(), 2) + "x"});
    }
    table.Print();

    double speedup = runs.adaptive.mean_delay() / metis.mean_delay();
    const char* claim = "METIS 2.1-2.4x lower delay than AdaptiveRAG* at similar F1 (70B)";
    std::string measured = StrFormat("%.2fx, F1 %.3f vs %.3f", speedup, metis.mean_f1(),
                                     runs.adaptive.mean_f1());
    std::string key = std::string(name) + ".";
    ledger.Check(key + "delay_vs_adaptive", claim, 2.1, 2.4, 1, {speedup}, measured);
    ledger.Check(key + "f1_vs_adaptive", claim, -0.05, kOpen, -0.05,
                 {metis.mean_f1() - runs.adaptive.mean_f1()}, measured);
    seventy_f1 += metis.mean_f1() / 2;

    // Same workload on the 7B model for the ~2% claim.
    MixedRunSpec small = spec;
    small.system = SystemKind::kMetis;
    small.serving_model = kMistral;
    small.kv_pool_gib = -1;
    seven_f1 += RunMixedExperiment(small)[SliceOf(small, name)].mean_f1() / 2;
  }
  double gain = 100.0 * (seventy_f1 - seven_f1) / seven_f1;
  ledger.Check("bigger_model_gain", "bigger inference model buys only ~2% F1 in RAG", 0.9 * 2,
               1.1 * 2, 0, {gain},
               StrFormat("70B mean F1 %.3f vs 7B %.3f (%+.1f%%)", seventy_f1, seven_f1, gain));
}

// Figure 16: incrementally enabling METIS's knobs on QMSUM (Mistral-7B-v3)
// improves the quality-delay point step by step:
//   vLLM fixed -> +num_chunks -> +synthesis_method -> +intermediate_length
//   -> +joint scheduling (full METIS, ~2.8x delay reduction).
void Fig16KnobBreakdown(Ledger& ledger) {
  const int kQueries = 150;
  RagConfig best = BestQualityFixed(ScoreFixedConfigs("qmsum", kQueries, 40));

  MixedRunSpec spec;  // QMSUM slice of the concurrent workload.
  spec.queries_per_dataset = kQueries;
  spec.seed = kSeed;
  const size_t slice = SliceOf(spec, "qmsum");

  struct Stage {
    const char* label;
    bool chunks, method, interm, schedule;
  };
  const Stage stages[] = {
      {"vLLM (fixed config)", false, false, false, false},
      {"+ num_chunks", true, false, false, false},
      {"+ synthesis_method", true, true, false, false},
      {"+ intermediate_length", true, true, true, false},
      {"METIS (+ scheduling)", true, true, true, true},
  };

  Table table("Figure 16 (qmsum): tuning more knobs improves quality-delay");
  table.SetHeader({"stage", "mean F1", "mean delay (s)"});
  std::vector<RunMetrics> runs;  // One per stage.
  for (const Stage& st : stages) {
    if (!st.chunks) {
      spec.system = SystemKind::kVllmFixed;
      spec.fixed_configs = {best};
    } else {
      spec.system = SystemKind::kMetis;
      spec.metis.tune_chunks = st.chunks;
      spec.metis.tune_method = st.method;
      spec.metis.tune_intermediate = st.interm;
      spec.metis.base_config = best;
      spec.metis.pick = st.schedule ? MetisSystem::ConfigPick::kBestFit
                                    : MetisSystem::ConfigPick::kMedianOfSpace;
      spec.override_prefix_sharing = st.schedule ? std::optional<bool>{} : false;
    }
    const RunMetrics& m = runs.emplace_back(RunMixedExperiment(spec)[slice]);
    table.AddRow({st.label, Table::Num(m.mean_f1(), 3), Table::Num(m.mean_delay(), 2)});
  }
  table.Print();
  double base_delay = runs.front().mean_delay(), base_f1 = runs.front().mean_f1();
  double full_delay = runs.back().mean_delay(), full_f1 = runs.back().mean_f1();
  bool monotone_f1 = true;
  for (size_t i = 1; i < runs.size(); ++i) {
    monotone_f1 = monotone_f1 && runs[i].mean_f1() >= runs[i - 1].mean_f1() - 0.06;
  }

  const char* claim = "full METIS cuts delay ~2.8x vs fixed config at equal-or-better F1";
  std::string measured = StrFormat("%.2fx delay reduction, F1 %.3f vs %.3f",
                                   base_delay / full_delay, full_f1, base_f1);
  ledger.Check("delay_vs_fixed", claim, 0.9 * 2.8, 1.1 * 2.8, 1, {base_delay / full_delay},
               measured);
  ledger.Check("f1_vs_fixed", claim, -0.03, kOpen, -0.03, {full_f1 - base_f1}, measured);
  ledger.CheckHolds("f1_step_by_step",
                    "each added knob keeps F1 step by step (no stage loses more than 0.06)",
                    monotone_f1, measured);
}

// Figure 17: swapping the GPT-4o profiler for an open-source Llama-3.1-70B
// profiler keeps METIS's gains: 1.4-2.1x lower delay than AdaptiveRAG* at
// similar F1, and 10-14% higher F1 than static configs of similar delay.
void Fig17SmallProfiler(Ledger& ledger) {
  const int kQueries = 150;

  for (const char* name : {"kg_rag_finsec", "squad"}) {
    const FixedConfigSweep& sweep = ScoreFixedConfigs(name, kQueries, 40);

    MixedRunSpec spec;
    spec.queries_per_dataset = kQueries;
    spec.profiler_model = "llama3.1-70b-api";
    spec.seed = kSeed;
    FourSystems runs = RunFourSystems(spec, name, [&](const RunMetrics& metis) {
      return SimilarDelayFixed(sweep, metis.mean_delay() / 3.0);
    });
    const RunMetrics& metis = runs.metis;

    Table table(StrFormat("Figure 17 (%s, llama-70b profiler)", name));
    table.SetHeader({"system", "mean F1", "mean delay (s)"});
    for (auto [label, m] : {std::pair{"METIS", &runs.metis}, std::pair{"AdaptiveRAG*", &runs.adaptive},
                            std::pair{"Parrot* (similar delay)", &runs.parrot},
                            std::pair{"vLLM (similar delay)", &runs.vllm}}) {
      table.AddRow({label, Table::Num(m->mean_f1(), 3), Table::Num(m->mean_delay(), 2)});
    }
    table.Print();

    double speedup = runs.adaptive.mean_delay() / metis.mean_delay();
    double f1_gain = 100.0 * (metis.mean_f1() - runs.vllm.mean_f1()) / runs.vllm.mean_f1();
    const char* claim = "open profiler keeps 1.4-2.1x delay advantage at similar F1";
    std::string measured = StrFormat("%.2fx vs AdaptiveRAG*, F1 %.3f vs %.3f", speedup,
                                     metis.mean_f1(), runs.adaptive.mean_f1());
    std::string key = std::string(name) + ".";
    ledger.Check(key + "delay_vs_adaptive", claim, 1.4, 2.1, 1, {speedup}, measured);
    ledger.Check(key + "f1_vs_adaptive", claim, -0.05, kOpen, -0.05,
                 {metis.mean_f1() - runs.adaptive.mean_f1()}, measured);
    ledger.Check(key + "f1_gain_vs_similar_delay",
                 "10-14% higher F1 than similar-delay static configs", 10, 14, 0, {f1_gain},
                 StrFormat("%+.1f%% vs vLLM static", f1_gain));
  }
}

// Figure 18: the LLM profiler's latency is a small fraction of end-to-end
// response delay — at most ~1/10, on average 0.03-0.06 — because it reads only
// the query and the database metadata, not the retrieved context.
void Fig18ProfilerOverhead(Ledger& ledger) {
  Table table("Figure 18: profiler delay as a fraction of end-to-end delay");
  table.SetHeader({"dataset", "mean frac", "p90 frac", "max frac", "mean profiler (s)",
                   "mean e2e (s)"});
  std::vector<double> mean_fracs;
  for (const RunMetrics& m : DefaultMixMetis()) {
    double max_frac = m.profiler_fracs.empty() ? 0 : m.profiler_fracs.max();
    double mean_frac = m.profiler_fracs.mean();
    table.AddRow({m.label, Table::Num(mean_frac, 3), Table::Num(m.profiler_fracs.p90(), 3),
                  Table::Num(max_frac, 3), Table::Num(m.profiler_delays.mean(), 3),
                  Table::Num(m.delays.mean(), 2)});
    mean_fracs.push_back(mean_frac);
  }
  table.Print();
  // The per-dataset mean is the "on average" part; a smaller share is the
  // claim's direction, so the band's upper edge is the null.
  ledger.Check("profiler_share", "profiler adds at most ~0.1 of e2e delay; 0.03-0.06 on average",
               0.03, 0.06, 0.06, mean_fracs,
               StrFormat("worst per-dataset mean fraction %.3f", Hi(mean_fracs)));
}

// Figure 19: under low load (queries sent one at a time), METIS's best-fit
// picks the most expensive configuration from the pruned space and still cuts
// delay by 1.48-1.56x vs the highest-quality fixed configuration, because the
// pruned space only contains configurations relevant to the query's profile.
void Fig19LowLoad(Ledger& ledger) {
  const int kQueries = 120;

  for (const char* name : {"kg_rag_finsec", "musique"}) {
    RagConfig best = BestQualityFixedStrict(ScoreFixedConfigs(name, kQueries, 40));

    RunSpec spec = SingleSpec(name, kQueries);
    spec.arrival_rate = -1;  // Closed loop: next query sent after the previous completes.

    spec.system = SystemKind::kMetis;
    RunMetrics metis = RunExperiment(spec);
    spec.system = SystemKind::kVllmFixed;
    spec.fixed_config = best;
    RunMetrics vllm = RunExperiment(spec);

    Table table(StrFormat("Figure 19 (%s): sequential (low-load) serving", name));
    table.SetHeader({"system", "mean F1", "mean delay (s)", "reduction"});
    table.AddRow({"vLLM best-quality fixed", Table::Num(vllm.mean_f1(), 3),
                  Table::Num(vllm.mean_delay(), 2), "1.00x"});
    table.AddRow({"METIS", Table::Num(metis.mean_f1(), 3), Table::Num(metis.mean_delay(), 2),
                  Table::Num(vllm.mean_delay() / metis.mean_delay(), 2) + "x"});
    table.Print();

    double reduction = vllm.mean_delay() / metis.mean_delay();
    const char* claim = "METIS reduces delay 1.48-1.56x even without batching pressure";
    std::string measured =
        StrFormat("%.2fx at F1 %.3f vs %.3f", reduction, metis.mean_f1(), vllm.mean_f1());
    std::string key = std::string(name) + ".";
    ledger.Check(key + "delay_vs_fixed", claim, 1.48, 1.56, 1, {reduction}, measured);
    ledger.Check(key + "f1_vs_fixed", claim, -0.05, kOpen, -0.05,
                 {metis.mean_f1() - vllm.mean_f1()}, measured);
  }
}

// Table 1: input and output token-length distributions of the four RAG
// datasets. Regenerates the table from the synthetic corpora and checks the
// ranges against the paper's reported bounds.
struct Expected {
  const char* dataset;
  const char* task;
  int in_lo, in_hi;    // Relevant-context tokens.
  int out_lo, out_hi;  // Answer tokens.
};

constexpr Expected kExpected[] = {
    {"squad", "Single hop QA", 400, 2000, 5, 10},
    {"musique", "Multihop QA", 1000, 5000, 5, 20},
    {"kg_rag_finsec", "Doc Level QA", 4000, 10000, 20, 40},
    {"qmsum", "Summarization QA", 4000, 12000, 20, 60},
};

void Table1Datasets(Ledger& ledger) {
  Table table("Table 1: dataset input/output token statistics (200 queries each)");
  table.SetHeader({"Dataset", "Task Type", "Input (tokens)", "Output (tokens)",
                   "paper input", "paper output"});

  bool all_ok = true;
  for (const Expected& e : kExpected) {
    auto ds = GetOrGenerateDataset(e.dataset, 200, kEmbedder, kSeed);

    // Input: the relevant-context footprint of a query = tokens of the
    // document chunks generated for it (gold + same-doc distractors).
    Samples inputs;
    Samples outputs;
    for (const RagQuery& q : ds->queries()) {
      int doc_id = -1;
      for (int32_t fid : q.gold_fact_ids) {
        doc_id = ds->db().chunk(ds->fact(fid).chunk_id).doc_id;
      }
      int doc_tokens = 0;
      for (size_t c = 0; c < ds->db().num_chunks(); ++c) {
        if (ds->db().chunk(static_cast<ChunkId>(c)).doc_id == doc_id) {
          doc_tokens += ds->db().chunk(static_cast<ChunkId>(c)).token_count;
        }
      }
      inputs.Add(doc_tokens);
      outputs.Add(static_cast<double>(q.gold_answer_tokens.size()));
    }

    table.AddRow({e.dataset, e.task,
                  StrFormat("%.0f - %.0f", inputs.Quantile(0.02), inputs.Quantile(0.98)),
                  StrFormat("%.0f - %.0f", outputs.Quantile(0.02), outputs.Quantile(0.98)),
                  StrFormat("%d - %d", e.in_lo, e.in_hi), StrFormat("%d - %d", e.out_lo, e.out_hi)});

    // Shape: the bulk of the distribution falls inside the paper's bounds
    // (generous slack: synthetic corpora quantize at chunk granularity).
    all_ok = all_ok && inputs.Quantile(0.10) >= e.in_lo * 0.5 &&
             inputs.Quantile(0.90) <= e.in_hi * 1.3 && outputs.Quantile(0.10) >= e.out_lo * 0.5 &&
             outputs.Quantile(0.90) <= e.out_hi * 1.3;
  }
  table.Print();
  ledger.CheckHolds("token_ranges", "token ranges match Table 1 per dataset", all_ok,
                    all_ok ? "all four datasets in range" : "out of range");
}

// Paper order. Figure 18 reads Figure 10's METIS run, and the fixed-config
// sweeps are shared across figures.
struct Figure {
  const char* id;
  void (*run)(Ledger&);
};
constexpr Figure kFigures[] = {
    {"fig01", Fig01Preview},         {"fig04", Fig04Knobs},
    {"fig05", Fig05PerQuery},        {"fig09", Fig09Confidence},
    {"fig10", Fig10Overall},         {"fig11", Fig11Throughput},
    {"fig12", Fig12Ablation},        {"fig13", Fig13Cost},
    {"fig14", Fig14Feedback},        {"fig15", Fig15LargeLlm},
    {"fig16", Fig16KnobBreakdown},   {"fig17", Fig17SmallProfiler},
    {"fig18", Fig18ProfilerOverhead}, {"fig19", Fig19LowLoad},
    {"table1", Table1Datasets},
};

}  // namespace

int main() {
  Ledger ledger;
  for (const Figure& figure : kFigures) {
    ledger.BeginFigure(figure.id);
    figure.run(ledger);
  }
  ledger.WriteJson("BENCH_paper.json");
  return 0;
}
