// Synthesis executors: run one RAG query end-to-end under a RagConfig.
//
// Mirrors the LangChain LLMChain pipelines the paper builds on (§6):
//   - stuff:       retrieve k chunks, concatenate into one prompt, one call.
//   - map_rerank:  one call per chunk; keep the most confident answer.
//   - map_reduce:  one summarize call per chunk (intermediate_length budget),
//                  then one reduce call over the concatenated summaries.
//
// Each executor is an async state machine over LlmEngine requests: generation
// outcomes are precomputed with the BehaviorModel (deterministic per
// query+config), while the engine supplies timing, queueing, and memory
// behaviour. The final answer is scored with token-F1 against the gold.

#ifndef METIS_SRC_SYNTHESIS_SYNTHESIS_H_
#define METIS_SRC_SYNTHESIS_SYNTHESIS_H_

#include <functional>
#include <optional>
#include <string>

#include "src/llm/behavior.h"
#include "src/llm/engine.h"
#include "src/quality/f1.h"
#include "src/sim/simulator.h"
#include "src/synthesis/config.h"
#include "src/vectordb/vectordb.h"
#include "src/workload/dataset.h"

namespace metis {

struct RagResult {
  int32_t query_id = -1;
  RagConfig config;
  std::string answer_text;
  double f1 = 0;
  double precision = 0;
  double recall = 0;

  SimTime exec_start = 0;   // When Execute() was called.
  SimTime finish_time = 0;  // When the final answer materialized.
  double exec_delay() const { return finish_time - exec_start; }

  int llm_calls = 0;
  int total_prompt_tokens = 0;
  int total_output_tokens = 0;
  int retrieved_chunks = 0;
  int gold_facts_retrieved = 0;  // Coverage diagnostic.
  int gold_facts_total = 0;
};

class SynthesisExecutor {
 public:
  // Retrievals read `dataset`'s database, one query per simulator event.
  SynthesisExecutor(Simulator* sim, LlmEngine* engine, const BehaviorModel* behavior,
                    const Dataset* dataset, uint64_t seed);

  // Scheduled retrieval events and engine callbacks hold the executor's
  // address.
  SynthesisExecutor(const SynthesisExecutor&) = delete;
  SynthesisExecutor& operator=(const SynthesisExecutor&) = delete;

  // Runs retrieval + synthesis for `query` under `config`; invokes `done`
  // from simulation context when the answer is complete. The three-argument
  // form retrieves at the stack-wide default quality
  // (set_retrieval_quality); the four-argument form carries a per-QUERY
  // RetrievalQuality — the profiler-driven depth the scheduler decided for
  // this query — down to VectorDatabase::Retrieve.
  //
  // The query outlives the run: the executor's retrieval and engine
  // callbacks refer to `query`, not a copy, until `done` has returned, so
  // the caller keeps it alive (and unmoved) until then.
  void Execute(const RagQuery& query, const RagConfig& config,
               std::function<void(RagResult)> done);
  void Execute(const RagQuery& query, const RagConfig& config,
               const std::optional<RetrievalQuality>& retrieval_quality,
               std::function<void(RagResult)> done);

  // The quality of every retrieval without a per-query override. Set once
  // at stack-build time (runner), before queries execute.
  void set_retrieval_quality(const RetrievalQuality& quality) { retrieval_quality_ = quality; }

  // --- Cross-query KV reuse (joint co-scheduling) ---
  // When enabled, synthesis contexts are assembled in CANONICAL layout:
  // instruction, then the retrieved chunks in retrieval order (deliberately
  // not re-sorted; see synthesis.cc), then the query-specific tail (the query
  // text). Prefix groups are then keyed by the content of that shared prefix
  // — the ordered chunk-id list for stuff, the single chunk id for mappers —
  // instead of by query id, so concurrent queries that retrieved the same
  // chunks in the same order alias resident KV blocks and skip the shared
  // prefill (the engine's prefix retention holds hot chunk prefixes across a
  // short gap). Off (default): the per-query instruction+query prefix
  // layout, bit-identical to the pre-reuse executor.
  void set_cross_query_prefix(bool on) { cross_query_prefix_ = on; }

  // --- Prompt-size estimators (used by METIS's joint scheduler, §4.3) ---
  int StuffPromptTokens(int query_tokens, int num_chunks) const;
  int MapperPromptTokens(int query_tokens) const;
  int ReducePromptTokens(int query_tokens, int num_chunks, int intermediate_tokens) const;

  // Instruction prefix prepended to every call (shared across sibling calls
  // of the same query, which is what prefix sharing exploits).
  static constexpr int kInstructionTokens = 64;
  // Modeled retrieval latency; >100x faster than synthesis (paper §2).
  static constexpr double kRetrievalSeconds = 0.004;

 private:
  struct ChunkFacts;

  // Builds the per-chunk fact descriptors for a retrieved chunk;
  // `query_tokens` holds the query's distinct tokens, sorted.
  ChunkFacts DescribeChunk(const RagQuery& query, const std::vector<std::string>& query_tokens,
                           ChunkId chunk_id) const;

  // Retrieval front half shared by the three pipelines: one simulator event
  // kRetrievalSeconds from now runs VectorDatabase::Retrieve and hands the
  // top-`num_chunks` ids to `then`. `quality` (engaged for per-query-depth
  // executions) overrides the stack default for this one retrieval.
  void RetrieveChunks(const RagQuery& query, int num_chunks,
                      const std::optional<RetrievalQuality>& quality,
                      std::function<void(std::vector<ChunkId>)> then);

  void RunStuff(const RagQuery& query, const RagConfig& config,
                const std::optional<RetrievalQuality>& quality,
                std::function<void(RagResult)> done);
  void RunMapRerank(const RagQuery& query, const RagConfig& config,
                    const std::optional<RetrievalQuality>& quality,
                    std::function<void(RagResult)> done);
  void RunMapReduce(const RagQuery& query, const RagConfig& config,
                    const std::optional<RetrievalQuality>& quality,
                    std::function<void(RagResult)> done);

  RagResult Finalize(const RagQuery& query, const RagConfig& config, SimTime exec_start,
                     const std::string& answer_text) const;

  uint64_t TaskSalt(const RagQuery& query, const RagConfig& config, const char* stage,
                    int index) const;

  // Content-keyed prefix-group id over `n` chunk ids (cross-query reuse):
  // stable per corpus + run seed, identical for any two queries whose shared
  // prefix holds the same ordered chunk ids.
  uint64_t ChunkPrefixGroup(uint64_t tag, const ChunkId* ids, size_t n) const;

  Simulator* sim_;
  LlmEngine* engine_;
  const BehaviorModel* behavior_;
  const Dataset* dataset_;
  uint64_t seed_;
  RetrievalQuality retrieval_quality_;
  bool cross_query_prefix_ = false;
  uint64_t corpus_salt_ = 0;  // Hash of the dataset name ^ seed (group keys).
};

}  // namespace metis

#endif  // METIS_SRC_SYNTHESIS_SYNTHESIS_H_
