#include "src/synthesis/synthesis.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string_view>
#include <unordered_set>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/text/tokenizer.h"

namespace metis {

struct SynthesisExecutor::ChunkFacts {
  ChunkId chunk_id = -1;
  std::vector<FactInContext> facts;  // position_frac left as offset-in-chunk.
  std::vector<int> offsets;          // Token offset of each fact in the chunk.
};

SynthesisExecutor::SynthesisExecutor(Simulator* sim, LlmEngine* engine,
                                     const BehaviorModel* behavior, const Dataset* dataset,
                                     uint64_t seed)
    : sim_(sim),
      engine_(engine),
      behavior_(behavior),
      dataset_(dataset),
      seed_(seed),
      corpus_salt_(HashString64(dataset->profile().name) ^ seed) {
  METIS_CHECK(sim != nullptr);
  METIS_CHECK(engine != nullptr);
  METIS_CHECK(behavior != nullptr);
  METIS_CHECK(dataset != nullptr);
}

uint64_t SynthesisExecutor::ChunkPrefixGroup(uint64_t tag, const ChunkId* ids,
                                             size_t n) const {
  // Corpus-salted so mixed-workload stacks sharing one engine cannot alias
  // chunk ids across datasets; the tag separates stuff-style (many-chunk)
  // prefixes from mapper (single-chunk) prefixes of the same ids.
  uint64_t state = corpus_salt_ ^ tag;
  for (size_t i = 0; i < n; ++i) {
    state ^= static_cast<uint64_t>(ids[i]) + 0x9E3779B97F4A7C15ull;
    SplitMix64(state);
  }
  uint64_t group = SplitMix64(state);
  return group != 0 ? group : 1;  // 0 means "no shared prefix" to the engine.
}

int SynthesisExecutor::StuffPromptTokens(int query_tokens, int num_chunks) const {
  return kInstructionTokens + query_tokens + num_chunks * dataset_->profile().chunk_tokens;
}

int SynthesisExecutor::MapperPromptTokens(int query_tokens) const {
  return kInstructionTokens + query_tokens + dataset_->profile().chunk_tokens;
}

int SynthesisExecutor::ReducePromptTokens(int query_tokens, int num_chunks,
                                          int intermediate_tokens) const {
  return kInstructionTokens + query_tokens + num_chunks * intermediate_tokens;
}

uint64_t SynthesisExecutor::TaskSalt(const RagQuery& query, const RagConfig& config,
                                     const char* stage, int index) const {
  // Four ints and two short names: the stack buffer holds them with room
  // to spare.
  char buf[128];
  int n = std::snprintf(buf, sizeof(buf), "q%d:%s:k%d:L%d:%s:%d", query.id,
                        SynthesisMethodName(config.method), config.num_chunks,
                        config.intermediate_tokens, stage, index);
  METIS_CHECK(n > 0 && n < static_cast<int>(sizeof(buf)));
  return HashString64(std::string_view(buf, static_cast<size_t>(n))) ^ seed_;
}

namespace {

// The query's distinct tokens, sorted: tokenized once per execution and
// binary-searched by every DescribeChunk of that execution.
std::vector<std::string> SortedQueryTokens(const RagQuery& query) {
  std::vector<std::string> tokens = Tokenize(query.text);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

}  // namespace

SynthesisExecutor::ChunkFacts SynthesisExecutor::DescribeChunk(
    const RagQuery& query, const std::vector<std::string>& query_tokens,
    ChunkId chunk_id) const {
  ChunkFacts out;
  out.chunk_id = chunk_id;
  const Chunk& chunk = dataset_->db().chunk(chunk_id);

  for (int32_t fid : chunk.fact_ids) {
    const Fact& fact = dataset_->fact(fid);
    FactInContext f;
    f.fact_id = fid;
    f.answer_tokens = fact.answer_tokens;
    f.relevant = fact.gold && fact.query_id == query.id;
    // Salience: how strongly the fact's entity anchors match the query text.
    int matched = 0;
    for (const auto& e : fact.entity_words) {
      if (std::binary_search(query_tokens.begin(), query_tokens.end(), e)) {
        ++matched;
      }
    }
    double frac = fact.entity_words.empty()
                      ? 0.0
                      : static_cast<double>(matched) / static_cast<double>(fact.entity_words.size());
    f.salience = std::clamp(0.15 + 0.85 * frac, 0.0, 1.0);
    out.facts.push_back(std::move(f));
    out.offsets.push_back(fact.offset_tokens);
  }
  return out;
}

RagResult SynthesisExecutor::Finalize(const RagQuery& query, const RagConfig& config,
                                      SimTime exec_start, const std::string& answer_text) const {
  RagResult r;
  r.query_id = query.id;
  r.config = config;
  r.answer_text = answer_text;
  r.exec_start = exec_start;
  r.finish_time = sim_->now();
  F1Breakdown f1 = TokenF1(Tokenize(answer_text), query.gold_answer_tokens);
  r.f1 = f1.f1;
  r.precision = f1.precision;
  r.recall = f1.recall;
  return r;
}

void SynthesisExecutor::Execute(const RagQuery& query, const RagConfig& config,
                                std::function<void(RagResult)> done) {
  Execute(query, config, std::nullopt, std::move(done));
}

void SynthesisExecutor::Execute(const RagQuery& query, const RagConfig& config,
                                const std::optional<RetrievalQuality>& retrieval_quality,
                                std::function<void(RagResult)> done) {
  METIS_CHECK(done != nullptr);
  RagConfig cfg = config;
  cfg.num_chunks = std::clamp(cfg.num_chunks, 1,
                              static_cast<int>(dataset_->db().num_chunks()));
  if (cfg.method == SynthesisMethod::kStuff) {
    // A stuff prompt must fit the model's context window (with headroom for
    // the instruction, query and generation) — real pipelines truncate here.
    int budget = static_cast<int>(engine_->model().max_context_tokens * 0.9) -
                 kInstructionTokens - static_cast<int>(CountTokens(query.text));
    int max_k = std::max(1, budget / dataset_->profile().chunk_tokens);
    cfg.num_chunks = std::min(cfg.num_chunks, max_k);
  }
  cfg.intermediate_tokens = std::max(cfg.intermediate_tokens, 1);
  switch (cfg.method) {
    case SynthesisMethod::kStuff:
      RunStuff(query, cfg, retrieval_quality, std::move(done));
      return;
    case SynthesisMethod::kMapRerank:
      RunMapRerank(query, cfg, retrieval_quality, std::move(done));
      return;
    case SynthesisMethod::kMapReduce:
      RunMapReduce(query, cfg, retrieval_quality, std::move(done));
      return;
  }
  METIS_CHECK(false && "unreachable");
}

namespace {

// Counts how many of the query's gold facts appear in the retrieved set.
int CountGoldCoverage(const Dataset& dataset, const RagQuery& query,
                      const std::vector<ChunkId>& chunks) {
  std::unordered_set<ChunkId> set(chunks.begin(), chunks.end());
  int covered = 0;
  for (int32_t fid : query.gold_fact_ids) {
    if (set.count(dataset.fact(fid).chunk_id) > 0) {
      ++covered;
    }
  }
  return covered;
}

}  // namespace

void SynthesisExecutor::RetrieveChunks(const RagQuery& query, int num_chunks,
                                       const std::optional<RetrievalQuality>& quality,
                                       std::function<void(std::vector<ChunkId>)> then) {
  sim_->ScheduleAfter(kRetrievalSeconds, [this, q = &query, k = static_cast<size_t>(num_chunks),
                                          quality = quality.value_or(retrieval_quality_),
                                          then = std::move(then)]() {
    then(dataset_->db().Retrieve(q->text, k, quality));
  });
}

void SynthesisExecutor::RunStuff(const RagQuery& query, const RagConfig& config,
                                 const std::optional<RetrievalQuality>& quality,
                                 std::function<void(RagResult)> done) {
  SimTime exec_start = sim_->now();
  RetrieveChunks(query, config.num_chunks, quality, [this, q = &query, config, exec_start,
                                            done = std::move(done)](
                                               std::vector<ChunkId> chunks) mutable {
    const RagQuery& query = *q;
    int query_tokens = static_cast<int>(CountTokens(query.text));
    int chunk_tokens = dataset_->profile().chunk_tokens;
    int prompt_tokens = StuffPromptTokens(query_tokens, static_cast<int>(chunks.size()));

    // Cross-query reuse: canonical order — instruction, chunks in retrieval
    // order, query tail — so two queries retrieving the same chunk list share
    // a byte-identical prefix of instruction + all k chunks. The group is
    // keyed by that ordered id list, not the query. Retrieval order (not an
    // id sort) is deliberate: duplicate queries — the dominant sharing source
    // — retrieve identical lists anyway, while re-sorting by id scatters the
    // relevance-ordered gold facts into the position-sensitivity penalty band
    // (BehaviorModel::LitmMultiplier) and costs ~0.1 mean F1 for no
    // measurable extra aliasing.
    uint64_t prefix_group = 0;
    int shared_prefix = 0;
    if (cross_query_prefix_ && !chunks.empty()) {
      prefix_group = ChunkPrefixGroup(0x53544646ull /*STFF*/, chunks.data(), chunks.size());
      shared_prefix = kInstructionTokens + static_cast<int>(chunks.size()) * chunk_tokens;
    }

    GenerationTask task;
    task.mode = GenerationMode::kAnswer;
    task.context_tokens = prompt_tokens;
    task.require_joint = query.requires_joint;
    task.high_complexity = query.high_complexity;
    task.num_required_facts = query.num_facts;
    task.conclusion_tokens = query.conclusion_tokens;
    task.target_output_tokens = query.target_output_tokens;
    task.rng_salt = TaskSalt(query, config, "stuff", 0);

    // Canonical layout puts the query AFTER the chunk block; legacy layout
    // puts it before. Only the per-fact positions move — token counts match.
    int header = cross_query_prefix_ ? kInstructionTokens : kInstructionTokens + query_tokens;
    std::vector<std::string> sorted_tokens = SortedQueryTokens(query);
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      ChunkFacts cf = DescribeChunk(query, sorted_tokens, chunks[ci]);
      for (size_t fi = 0; fi < cf.facts.size(); ++fi) {
        FactInContext& f = cf.facts[fi];
        f.position_frac = static_cast<double>(header + static_cast<int>(ci) * chunk_tokens +
                                              cf.offsets[fi]) /
                          static_cast<double>(prompt_tokens);
        task.facts.push_back(std::move(f));
      }
    }

    GenerationResult gen = behavior_->Generate(engine_->model(), task);

    int coverage = CountGoldCoverage(*dataset_, query, chunks);
    InferenceRequest req;
    req.prompt_tokens = prompt_tokens;
    req.output_tokens = std::max(1, gen.output_tokens);
    req.prefix_group = prefix_group;
    req.shared_prefix_tokens = shared_prefix;
    req.on_complete = [this, q, config, exec_start, coverage, chunks_n = chunks.size(),
                       text = std::move(gen.text),
                       done = std::move(done)](const RequestTiming& t) {
      const RagQuery& query = *q;
      RagResult r = Finalize(query, config, exec_start, text);
      r.llm_calls = 1;
      r.total_prompt_tokens = t.prompt_tokens;
      r.total_output_tokens = t.output_tokens;
      r.retrieved_chunks = static_cast<int>(chunks_n);
      r.gold_facts_retrieved = coverage;
      r.gold_facts_total = static_cast<int>(query.gold_fact_ids.size());
      done(std::move(r));
    };
    engine_->Submit(std::move(req));
  });
}

void SynthesisExecutor::RunMapRerank(const RagQuery& query, const RagConfig& config,
                                     const std::optional<RetrievalQuality>& quality,
                                     std::function<void(RagResult)> done) {
  SimTime exec_start = sim_->now();
  RetrieveChunks(query, config.num_chunks, quality, [this, q = &query, config, exec_start,
                                            done = std::move(done)](
                                               std::vector<ChunkId> chunks) mutable {
    const RagQuery& query = *q;
    int query_tokens = static_cast<int>(CountTokens(query.text));
    int prompt_tokens = MapperPromptTokens(query_tokens);
    // Legacy: all of this query's mappers share its instruction+query prefix.
    // Cross-query: instruction+chunk leads and the query trails, so the group
    // is per CHUNK and aliases across queries that retrieved it.
    uint64_t prefix_group = 0x52524Bull ^ (static_cast<uint64_t>(query.id) << 8) ^ seed_;
    int shared_prefix = kInstructionTokens + query_tokens;
    if (cross_query_prefix_) {
      shared_prefix = kInstructionTokens + dataset_->profile().chunk_tokens;
    }

    struct State {
      int outstanding = 0;
      double best_confidence = -1;
      std::string best_text;
      int llm_calls = 0;
      int prompt_total = 0;
      int output_total = 0;
      std::function<void(RagResult)> done;
    };
    auto state = std::make_shared<State>();
    state->outstanding = static_cast<int>(chunks.size());
    state->done = std::move(done);
    int coverage = CountGoldCoverage(*dataset_, query, chunks);

    std::vector<std::string> sorted_tokens = SortedQueryTokens(query);
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      ChunkFacts cf = DescribeChunk(query, sorted_tokens, chunks[ci]);
      GenerationTask task;
      task.mode = GenerationMode::kAnswer;
      task.context_tokens = prompt_tokens;
      task.require_joint = query.requires_joint;
      task.high_complexity = query.high_complexity;
      task.num_required_facts = query.num_facts;
      task.conclusion_tokens = query.conclusion_tokens;
      task.target_output_tokens = query.target_output_tokens;
      task.rng_salt = TaskSalt(query, config, "rerank", static_cast<int>(ci));
      int header = cross_query_prefix_ ? kInstructionTokens : kInstructionTokens + query_tokens;
      for (size_t fi = 0; fi < cf.facts.size(); ++fi) {
        FactInContext& f = cf.facts[fi];
        f.position_frac =
            static_cast<double>(header + cf.offsets[fi]) / static_cast<double>(prompt_tokens);
        task.facts.push_back(std::move(f));
      }
      GenerationResult gen = behavior_->Generate(engine_->model(), task);

      InferenceRequest req;
      req.prompt_tokens = prompt_tokens;
      req.output_tokens = std::max(1, gen.output_tokens);
      req.prefix_group = cross_query_prefix_
                             ? ChunkPrefixGroup(0x5252414Bull /*RRAK*/, &chunks[ci], 1)
                             : prefix_group;
      req.shared_prefix_tokens = shared_prefix;
      req.on_complete = [this, q, config, exec_start, state, coverage,
                         chunks_n = chunks.size(), confidence = gen.confidence,
                         text = std::move(gen.text)](const RequestTiming& t) {
        const RagQuery& query = *q;
        state->llm_calls += 1;
        state->prompt_total += t.prompt_tokens;
        state->output_total += t.output_tokens;
        if (confidence > state->best_confidence) {
          state->best_confidence = confidence;
          state->best_text = text;
        }
        if (--state->outstanding == 0) {
          RagResult r = Finalize(query, config, exec_start, state->best_text);
          r.llm_calls = state->llm_calls;
          r.total_prompt_tokens = state->prompt_total;
          r.total_output_tokens = state->output_total;
          r.retrieved_chunks = static_cast<int>(chunks_n);
          r.gold_facts_retrieved = coverage;
          r.gold_facts_total = static_cast<int>(query.gold_fact_ids.size());
          state->done(std::move(r));
        }
      };
      engine_->Submit(std::move(req));
    }
  });
}

void SynthesisExecutor::RunMapReduce(const RagQuery& query, const RagConfig& config,
                                     const std::optional<RetrievalQuality>& quality,
                                     std::function<void(RagResult)> done) {
  SimTime exec_start = sim_->now();
  RetrieveChunks(query, config.num_chunks, quality, [this, q = &query, config, exec_start,
                                            done = std::move(done)](
                                               std::vector<ChunkId> chunks) mutable {
    const RagQuery& query = *q;
    int query_tokens = static_cast<int>(CountTokens(query.text));
    int mapper_prompt = MapperPromptTokens(query_tokens);
    // Same per-query vs per-chunk group split as map_rerank; the summarize
    // tag keeps these prefixes distinct from rerank prefixes of one chunk
    // (different instruction text in a real pipeline).
    uint64_t prefix_group = 0x4D4152ull ^ (static_cast<uint64_t>(query.id) << 8) ^ seed_;
    int shared_prefix = kInstructionTokens + query_tokens;
    if (cross_query_prefix_) {
      shared_prefix = kInstructionTokens + dataset_->profile().chunk_tokens;
    }

    struct MapOut {
      std::vector<FactInContext> facts;
      int output_tokens = 0;
    };
    struct State {
      int outstanding = 0;
      std::vector<MapOut> outs;
      int llm_calls = 0;
      int prompt_total = 0;
      int output_total = 0;
      std::function<void(RagResult)> done;
    };
    auto state = std::make_shared<State>();
    state->outstanding = static_cast<int>(chunks.size());
    state->outs.resize(chunks.size());
    state->done = std::move(done);
    int coverage = CountGoldCoverage(*dataset_, query, chunks);

    auto launch_reduce = [this, q, config, exec_start, state, coverage,
                          query_tokens, chunks_n = chunks.size()]() {
      const RagQuery& query = *q;
      // Concatenate summaries in chunk order; facts land at their summary's
      // offset in a short, denoised context.
      int header = kInstructionTokens + query_tokens;
      int total = header;
      for (const auto& o : state->outs) {
        total += o.output_tokens;
      }
      GenerationTask task;
      task.mode = GenerationMode::kAnswer;
      task.context_tokens = total;
      task.require_joint = query.requires_joint;
      task.high_complexity = query.high_complexity;
      task.num_required_facts = query.num_facts;
      task.conclusion_tokens = query.conclusion_tokens;
      task.target_output_tokens = query.target_output_tokens;
      task.rng_salt = TaskSalt(query, config, "reduce", 0);
      int offset = header;
      for (auto& o : state->outs) {
        for (FactInContext& f : o.facts) {
          f.position_frac = static_cast<double>(offset) / static_cast<double>(total);
          task.facts.push_back(std::move(f));
        }
        offset += o.output_tokens;
      }
      GenerationResult gen = behavior_->Generate(engine_->model(), task);

      InferenceRequest req;
      req.prompt_tokens = std::max(1, total);
      req.output_tokens = std::max(1, gen.output_tokens);
      req.on_complete = [this, q, config, exec_start, state, coverage, chunks_n,
                         text = std::move(gen.text)](const RequestTiming& t) {
        const RagQuery& query = *q;
        state->llm_calls += 1;
        state->prompt_total += t.prompt_tokens;
        state->output_total += t.output_tokens;
        RagResult r = Finalize(query, config, exec_start, text);
        r.llm_calls = state->llm_calls;
        r.total_prompt_tokens = state->prompt_total;
        r.total_output_tokens = state->output_total;
        r.retrieved_chunks = static_cast<int>(chunks_n);
        r.gold_facts_retrieved = coverage;
        r.gold_facts_total = static_cast<int>(query.gold_fact_ids.size());
        state->done(std::move(r));
      };
      engine_->Submit(std::move(req));
    };

    std::vector<std::string> sorted_tokens = SortedQueryTokens(query);
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      GenerationTask task;
      task.mode = GenerationMode::kSummarize;
      task.context_tokens = mapper_prompt;
      task.summary_budget_tokens = config.intermediate_tokens;
      task.rng_salt = TaskSalt(query, config, "map", static_cast<int>(ci));
      // Position inside one chunk barely matters.
      task.facts = std::move(DescribeChunk(query, sorted_tokens, chunks[ci]).facts);
      GenerationResult gen = behavior_->Generate(engine_->model(), task);

      InferenceRequest req;
      req.prompt_tokens = mapper_prompt;
      req.output_tokens = std::max(1, gen.output_tokens);
      req.prefix_group = cross_query_prefix_
                             ? ChunkPrefixGroup(0x4D415053ull /*MAPS*/, &chunks[ci], 1)
                             : prefix_group;
      req.shared_prefix_tokens = shared_prefix;
      req.on_complete = [state, ci, facts = std::move(gen.expressed_facts),
                         launch_reduce](const RequestTiming& t) {
        state->llm_calls += 1;
        state->prompt_total += t.prompt_tokens;
        state->output_total += t.output_tokens;
        state->outs[ci].facts = facts;
        state->outs[ci].output_tokens = t.output_tokens;
        if (--state->outstanding == 0) {
          launch_reduce();
        }
      };
      engine_->Submit(std::move(req));
    }
  });
}

}  // namespace metis
