// Finance assistant: the paper's motivating scenario (§1, §4.2) — questions
// over quarterly financial reports, from simple lookups ("who is the CEO") to
// cross-quarter comparisons and why-style analyses. Shows how METIS profiles
// each question and picks a different configuration per query, and what that
// buys under open-loop Poisson traffic.
//
//   ./build/examples/finance_assistant

#include <cstdio>

#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/core/mapping.h"
#include "src/runner/runner.h"

using namespace metis;

int main() {
  // The KG-RAG-FinSec-style corpus: 1024-token chunks of quarterly reports.
  auto dataset = GetOrGenerateDataset("kg_rag_finsec", 120, "cohere-embed-v3-sim", 21);
  std::printf("corpus: %zu chunks x %d tokens | metadata: \"%s\"\n\n",
              dataset->db().num_chunks(), dataset->profile().chunk_tokens,
              dataset->db().metadata().description.c_str());

  // 1) What the profiler + Algorithm 1 decide for three archetypal questions.
  Simulator sim;
  ApiLlmClient api(&sim, Gpt4oApi(), 21);
  QueryProfiler profiler(&sim, &api, &dataset->db().metadata(), Gpt4oProfilerParams(), 21);

  Table plan("per-question pruned configuration spaces (Algorithm 1)");
  plan.SetHeader({"question flavor", "joint", "complex", "pieces", "methods", "chunks",
                  "intermediates"});
  int shown = 0;
  for (const RagQuery& q : dataset->queries()) {
    bool simple = !q.requires_joint && !q.high_complexity;
    bool compare = q.requires_joint && !q.high_complexity;
    bool why = q.requires_joint && q.high_complexity;
    if ((shown == 0 && !simple) || (shown == 1 && !compare) || (shown == 2 && !why)) {
      continue;
    }
    QueryProfiler::Outcome out = profiler.Estimate(q);
    PrunedConfigSpace space = RuleBasedMapping(out.profile);
    std::string methods;
    for (SynthesisMethod m : space.methods) {
      methods += std::string(methods.empty() ? "" : "+") + SynthesisMethodName(m);
    }
    const char* flavor[] = {"lookup (\"what is ...\")", "comparison (\"compare ...\")",
                            "analysis (\"when and why ...\")"};
    plan.AddRow({flavor[shown], out.profile.requires_joint ? "yes" : "no",
                 out.profile.high_complexity ? "high" : "low",
                 StrFormat("%d", out.profile.num_info_pieces), methods,
                 StrFormat("[%d, %d]", space.min_chunks, space.max_chunks),
                 StrFormat("[%d, %d]", space.min_intermediate, space.max_intermediate)});
    if (++shown == 3) {
      break;
    }
  }
  plan.Print();

  // 2) Serve the workload with METIS vs the best static configuration.
  RunSpec spec;
  spec.dataset = "kg_rag_finsec";
  spec.num_queries = 120;
  spec.arrival_rate = 1.5;
  spec.seed = 21;
  spec.system = SystemKind::kMetis;
  RunMetrics metis = RunExperiment(spec);
  spec.system = SystemKind::kVllmFixed;
  spec.fixed_config = RagConfig{SynthesisMethod::kMapReduce, 10, 100};
  RunMetrics fixed = RunExperiment(spec);

  Table served("finance workload: METIS vs static map_reduce(k=10,L=100)");
  served.SetHeader({"system", "mean F1", "mean delay (s)", "p90 (s)", "cost ($)"});
  served.AddRow({"METIS", Table::Num(metis.mean_f1(), 3), Table::Num(metis.mean_delay(), 2),
                 Table::Num(metis.p90_delay(), 2), Table::Num(metis.total_cost_usd(), 4)});
  served.AddRow({"vLLM fixed", Table::Num(fixed.mean_f1(), 3), Table::Num(fixed.mean_delay(), 2),
                 Table::Num(fixed.p90_delay(), 2), Table::Num(fixed.total_cost_usd(), 4)});
  served.Print();

  // 3) The configuration mix METIS actually used.
  int rerank = 0, stuff = 0, reduce = 0;
  for (const QueryRecord& r : metis.records) {
    rerank += r.config.method == SynthesisMethod::kMapRerank;
    stuff += r.config.method == SynthesisMethod::kStuff;
    reduce += r.config.method == SynthesisMethod::kMapReduce;
  }
  std::printf("\nMETIS config mix over %zu queries: map_rerank=%d stuff=%d map_reduce=%d\n",
              metis.records.size(), rerank, stuff, reduce);
  return 0;
}
