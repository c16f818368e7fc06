// Unit tests for the LLM substrate: model specs, KV-cache manager, engine
// timing/memory behaviour, behaviour model, API client.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/strings.h"
#include "src/llm/behavior.h"
#include "src/llm/engine.h"
#include "src/llm/kv_cache.h"
#include "src/llm/model_spec.h"
#include "src/sim/simulator.h"

namespace metis {
namespace {

// ---------- ModelSpec ----------

TEST(ModelSpecTest, KvBytesMatchArchitectures) {
  // Mistral-7B: 32 layers x 8 KV heads x 128 dim x fp16 x (K+V) = 128 KiB.
  EXPECT_DOUBLE_EQ(Mistral7BAwq().kv_bytes_per_token, 131072.0);
  // Llama-70B: 80 layers -> 320 KiB.
  EXPECT_DOUBLE_EQ(Llama70BAwq().kv_bytes_per_token, 327680.0);
}

TEST(ModelSpecTest, CatalogLookup) {
  EXPECT_EQ(GetModelSpec("mistral-7b-v3-awq").name, "mistral-7b-v3-awq");
  EXPECT_TRUE(GetModelSpec("gpt-4o").api_model);
  EXPECT_EQ(ModelCatalog().size(), 5u);
}

TEST(ModelSpecTest, BiggerModelIsSlowerAndBetter) {
  ModelSpec small = Mistral7BAwq();
  ModelSpec big = Llama70BAwq();
  EXPECT_GT(small.prefill_tokens_per_sec, big.prefill_tokens_per_sec);
  EXPECT_LT(small.fact_recovery, big.fact_recovery);
  // But only marginally better: RAG answers come from context (§7.4).
  EXPECT_LT(big.fact_recovery - small.fact_recovery, 0.08);
}

TEST(ModelSpecDeathTest, UnknownModelAborts) {
  EXPECT_DEATH(GetModelSpec("nonexistent"), "CHECK failed");
}

// ---------- KvCacheManager ----------

class KvCacheTest : public ::testing::Test {
 protected:
  // 1 MiB pool, 16-token blocks, 1 KiB/token -> 64 blocks of 16 KiB.
  KvCacheManager kv_{1024.0 * 1024.0, 16, 1024.0};
};

TEST_F(KvCacheTest, BlockMath) {
  EXPECT_EQ(kv_.total_blocks(), 64);
  EXPECT_EQ(kv_.BlocksForTokens(1), 1);
  EXPECT_EQ(kv_.BlocksForTokens(16), 1);
  EXPECT_EQ(kv_.BlocksForTokens(17), 2);
  EXPECT_DOUBLE_EQ(kv_.BytesForTokens(17), 2 * 16 * 1024.0);
}

TEST_F(KvCacheTest, AllocateAndFree) {
  EXPECT_TRUE(kv_.Allocate(1, 160));  // 10 blocks.
  EXPECT_EQ(kv_.free_blocks(), 54);
  kv_.Free(1);
  EXPECT_EQ(kv_.free_blocks(), 64);
}

TEST_F(KvCacheTest, AllocationFailsWithoutSideEffects) {
  EXPECT_TRUE(kv_.Allocate(1, 16 * 60));  // 60 blocks.
  EXPECT_FALSE(kv_.Allocate(2, 16 * 10));  // Needs 10 > 4 free.
  EXPECT_EQ(kv_.free_blocks(), 4);
  EXPECT_TRUE(kv_.Allocate(3, 16 * 4));
}

TEST_F(KvCacheTest, FreeUnknownIsNoop) {
  kv_.Free(42);
  EXPECT_EQ(kv_.free_blocks(), 64);
}

TEST_F(KvCacheTest, PrefixSharingRefcounts) {
  int64_t newly = kv_.AcquirePrefix(7, 32);  // 2 blocks.
  EXPECT_EQ(newly, 2);
  EXPECT_TRUE(kv_.PrefixResident(7));
  EXPECT_EQ(kv_.AcquirePrefix(7, 32), 0);  // Cache hit.
  EXPECT_EQ(kv_.used_blocks(), 2);
  kv_.ReleasePrefix(7);
  EXPECT_TRUE(kv_.PrefixResident(7));  // Still one holder.
  kv_.ReleasePrefix(7);
  EXPECT_FALSE(kv_.PrefixResident(7));
  EXPECT_EQ(kv_.used_blocks(), 0);
}

TEST_F(KvCacheTest, PrefixAcquireFailsWhenFull) {
  EXPECT_TRUE(kv_.Allocate(1, 16 * 63));
  EXPECT_EQ(kv_.AcquirePrefix(9, 64), -1);  // Needs 4 blocks, 1 free.
  EXPECT_FALSE(kv_.PrefixResident(9));
}

// ---------- LlmEngine ----------

class EngineTest : public ::testing::Test {
 protected:
  EngineConfig Config() {
    EngineConfig cfg;
    cfg.model = Mistral7BAwq();
    cfg.kv_pool_bytes = 4.0 * kGiB;
    return cfg;
  }

  Simulator sim_;
};

TEST_F(EngineTest, SingleRequestCompletesWithSaneTiming) {
  LlmEngine engine(&sim_, Config(), 1);
  RequestTiming timing;
  bool done = false;
  InferenceRequest req;
  req.prompt_tokens = 2048;
  req.output_tokens = 10;
  req.on_complete = [&](const RequestTiming& t) {
    timing = t;
    done = true;
  };
  engine.Submit(std::move(req));
  sim_.Run();
  ASSERT_TRUE(done);
  EXPECT_GT(timing.finish_time, 0);
  EXPECT_GE(timing.first_token_time, timing.admit_time);
  EXPECT_GE(timing.finish_time, timing.first_token_time);
  // Prefill 2048 at 64k tok/s plus ~10 decode steps at ~20 ms.
  EXPECT_GT(timing.total_delay(), 0.1);
  EXPECT_LT(timing.total_delay(), 2.0);
}

TEST_F(EngineTest, LongerPromptsTakeLonger) {
  auto run_one = [&](int prompt) {
    Simulator sim;
    LlmEngine engine(&sim, Config(), 1);
    double delay = 0;
    InferenceRequest req;
    req.prompt_tokens = prompt;
    req.output_tokens = 5;
    req.on_complete = [&](const RequestTiming& t) { delay = t.total_delay(); };
    engine.Submit(std::move(req));
    sim.Run();
    return delay;
  };
  EXPECT_LT(run_one(512), run_one(8192));
}

TEST_F(EngineTest, BatchingBeatsSerialService) {
  // 8 decode-heavy requests batched together must finish in far less than
  // 8x the single-request latency (continuous batching shares step overhead).
  auto run_n = [&](int n) {
    Simulator sim;
    LlmEngine engine(&sim, Config(), 1);
    int done = 0;
    for (int i = 0; i < n; ++i) {
      InferenceRequest req;
      req.prompt_tokens = 64;
      req.output_tokens = 50;
      req.on_complete = [&](const RequestTiming&) { ++done; };
      engine.Submit(std::move(req));
    }
    sim.Run();
    EXPECT_EQ(done, n);
    return sim.now();
  };
  double one = run_n(1);
  double eight = run_n(8);
  EXPECT_LT(eight, one * 3);
}

TEST_F(EngineTest, MemoryAdmissionBlocksAndFrees) {
  EngineConfig cfg = Config();
  cfg.kv_pool_bytes = 800 * 131072.0;  // Pool of ~800 tokens.
  LlmEngine engine(&sim_, cfg, 1);
  std::vector<double> finishes;
  for (int i = 0; i < 3; ++i) {
    InferenceRequest req;
    req.prompt_tokens = 512;  // Only one fits at a time (plus buffer).
    req.output_tokens = 4;
    req.on_complete = [&](const RequestTiming& t) { finishes.push_back(t.finish_time); };
    engine.Submit(std::move(req));
  }
  sim_.Run();
  ASSERT_EQ(finishes.size(), 3u);
  // Strictly staggered: each waits for the previous to release memory.
  EXPECT_LT(finishes[0], finishes[1]);
  EXPECT_LT(finishes[1], finishes[2]);
}

TEST_F(EngineTest, PrefixSharingSavesPrefillTokens) {
  EngineConfig cfg = Config();
  cfg.prefix_sharing = true;
  cfg.policy = AdmissionPolicy::kGroupAware;
  LlmEngine engine(&sim_, cfg, 1);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    InferenceRequest req;
    req.prompt_tokens = 1000;
    req.output_tokens = 5;
    req.prefix_group = 99;
    req.shared_prefix_tokens = 600;
    req.on_complete = [&](const RequestTiming&) { ++done; };
    engine.Submit(std::move(req));
  }
  sim_.Run();
  EXPECT_EQ(done, 4);
  // Three of the four siblings skip the 600-token shared prefix.
  EXPECT_EQ(engine.stats().prefill_tokens_saved, 3 * 600);
  EXPECT_EQ(engine.stats().prefill_tokens, 4 * 1000 - 3 * 600);
}

TEST_F(EngineTest, NoSharingWithoutFlag) {
  LlmEngine engine(&sim_, Config(), 1);
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    InferenceRequest req;
    req.prompt_tokens = 1000;
    req.output_tokens = 5;
    req.prefix_group = 99;
    req.shared_prefix_tokens = 600;
    req.on_complete = [&](const RequestTiming&) { ++done; };
    engine.Submit(std::move(req));
  }
  sim_.Run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(engine.stats().prefill_tokens_saved, 0);
}

TEST_F(EngineTest, ProjectedFreeAccountsForWaitingQueue) {
  EngineConfig cfg = Config();
  cfg.kv_pool_bytes = 2000 * 131072.0;
  LlmEngine engine(&sim_, cfg, 1);
  for (int i = 0; i < 6; ++i) {
    InferenceRequest req;
    req.prompt_tokens = 900;
    req.output_tokens = 50;
    req.on_complete = [](const RequestTiming&) {};
    engine.Submit(std::move(req));
  }
  // At submit time (before the sim runs the queue dry), projected free is
  // well below raw free.
  EXPECT_LT(engine.projected_free_kv_bytes(), engine.free_kv_bytes());
  sim_.Run();
  EXPECT_NEAR(engine.projected_free_kv_bytes(), engine.free_kv_bytes(), 1.0);
}

TEST_F(EngineTest, StatsAccumulate) {
  LlmEngine engine(&sim_, Config(), 1);
  InferenceRequest req;
  req.prompt_tokens = 300;
  req.output_tokens = 8;
  req.on_complete = [](const RequestTiming&) {};
  engine.Submit(std::move(req));
  sim_.Run();
  EXPECT_EQ(engine.stats().submitted, 1u);
  EXPECT_EQ(engine.stats().completed, 1u);
  EXPECT_GT(engine.stats().steps, 0u);
  EXPECT_GT(engine.stats().busy_seconds, 0);
  EXPECT_GT(engine.busy_cost_usd(), 0);
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  auto run = [&]() {
    Simulator sim;
    LlmEngine engine(&sim, Config(), 7);
    std::vector<double> finishes;
    for (int i = 0; i < 10; ++i) {
      InferenceRequest req;
      req.prompt_tokens = 200 + i * 100;
      req.output_tokens = 5 + i;
      req.on_complete = [&](const RequestTiming& t) { finishes.push_back(t.finish_time); };
      engine.Submit(std::move(req));
    }
    sim.Run();
    return finishes;
  };
  EXPECT_EQ(run(), run());
}

TEST_F(EngineTest, RequestLargerThanPoolAborts) {
  EngineConfig cfg = Config();
  cfg.kv_pool_bytes = 100 * 131072.0;
  LlmEngine engine(&sim_, cfg, 1);
  InferenceRequest req;
  req.prompt_tokens = 4096;
  req.output_tokens = 64;
  EXPECT_DEATH(engine.Submit(std::move(req)), "CHECK failed");
}

// ---------- ApiLlmClient ----------

TEST(ApiLlmClientTest, LatencyScalesWithTokens) {
  Simulator sim;
  ApiLlmClient api(&sim, Gpt4oApi(), 1);
  double short_latency = 0, long_latency = 0;
  api.Call(50, 8, [&](double l) { short_latency = l; });
  api.Call(5000, 400, [&](double l) { long_latency = l; });
  sim.Run();
  EXPECT_GT(short_latency, 0);
  EXPECT_GT(long_latency, short_latency * 3);
}

TEST(ApiLlmClientTest, CostPerToken) {
  Simulator sim;
  ApiLlmClient api(&sim, Gpt4oApi(), 1);
  // 1M input at $2.5/M + 1M output at $10/M.
  EXPECT_NEAR(api.CostOf(1000000, 1000000), 12.5, 1e-9);
  api.Call(1000, 100, [](double) {});
  sim.Run();
  EXPECT_NEAR(api.total_cost_usd(), api.CostOf(1000, 100), 1e-12);
  EXPECT_EQ(api.calls(), 1u);
}

// ---------- BehaviorModel ----------

class BehaviorTest : public ::testing::Test {
 protected:
  GenerationTask AnswerTask(int facts, int ctx, bool joint) {
    GenerationTask task;
    task.mode = GenerationMode::kAnswer;
    task.context_tokens = ctx;
    task.require_joint = joint;
    task.num_required_facts = facts;
    for (int i = 0; i < facts; ++i) {
      FactInContext f;
      f.fact_id = i;
      f.answer_tokens = {"ans" + std::to_string(i)};
      f.position_frac = (i + 1.0) / (facts + 1.0);
      f.salience = 1.0;
      task.facts.push_back(f);
    }
    task.rng_salt = 77;
    return task;
  }

  BehaviorModel model_{BehaviorParams{}, 42};
  ModelSpec spec_ = Mistral7BAwq();
};

TEST_F(BehaviorTest, DeterministicPerSalt) {
  GenerationTask t = AnswerTask(3, 1000, false);
  GenerationResult a = model_.Generate(spec_, t);
  GenerationResult b = model_.Generate(spec_, t);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.output_tokens, b.output_tokens);
  t.rng_salt = 78;
  GenerationResult c = model_.Generate(spec_, t);
  EXPECT_NE(a.text, c.text);
}

TEST_F(BehaviorTest, LitmMultiplierShape) {
  // Short contexts: no penalty anywhere.
  EXPECT_DOUBLE_EQ(model_.LitmMultiplier(0.5, 1000), 1.0);
  // Long contexts: mid-position penalized, edges retained.
  double mid = model_.LitmMultiplier(0.5, 12000);
  double edge = model_.LitmMultiplier(0.02, 12000);
  EXPECT_LT(mid, 0.6);
  EXPECT_GT(edge, 0.9);
}

TEST_F(BehaviorTest, LongContextRecoversFewerFacts) {
  int short_hits = 0, long_hits = 0;
  for (uint64_t s = 0; s < 300; ++s) {
    GenerationTask t_short = AnswerTask(4, 1200, false);
    t_short.rng_salt = s;
    GenerationTask t_long = AnswerTask(4, 14000, false);
    t_long.rng_salt = s;
    short_hits += static_cast<int>(model_.Generate(spec_, t_short).expressed_facts.size());
    long_hits += static_cast<int>(model_.Generate(spec_, t_long).expressed_facts.size());
  }
  EXPECT_GT(short_hits, long_hits * 1.3);
}

TEST_F(BehaviorTest, ConclusionRequiresAllFacts) {
  GenerationTask t = AnswerTask(3, 800, true);
  t.conclusion_tokens = {"conclusion"};
  int with_all = 0, reasoned = 0;
  for (uint64_t s = 0; s < 400; ++s) {
    t.rng_salt = s;
    GenerationResult r = model_.Generate(spec_, t);
    if (r.reasoning_success) {
      ++reasoned;
      EXPECT_GE(r.expressed_facts.size(), 3u);
    }
    if (r.expressed_facts.size() == 3u) {
      ++with_all;
    }
  }
  EXPECT_GT(reasoned, 0);
  EXPECT_LE(reasoned, with_all);
}

TEST_F(BehaviorTest, DistractorsIntrudeMoreInLongContexts) {
  auto count_intrusions = [&](int ctx) {
    int intrusions = 0;
    for (uint64_t s = 0; s < 400; ++s) {
      GenerationTask t = AnswerTask(1, ctx, false);
      FactInContext noise;
      noise.fact_id = 1000;
      noise.answer_tokens = {"noisetoken"};
      noise.relevant = false;
      noise.position_frac = 0.4;
      noise.salience = 0.3;
      t.facts.push_back(noise);
      t.rng_salt = s;
      GenerationResult r = model_.Generate(spec_, t);
      if (r.text.find("noisetoken") != std::string::npos) {
        ++intrusions;
      }
    }
    return intrusions;
  };
  EXPECT_GT(count_intrusions(14000), count_intrusions(800) * 2);
}

TEST_F(BehaviorTest, SummaryKeepsMoreWithBiggerBudget) {
  auto kept = [&](int budget) {
    int total = 0;
    for (uint64_t s = 0; s < 300; ++s) {
      GenerationTask t;
      t.mode = GenerationMode::kSummarize;
      t.summary_budget_tokens = budget;
      t.context_tokens = 1100;
      for (int i = 0; i < 4; ++i) {
        FactInContext f;
        f.fact_id = i;
        f.answer_tokens = {"fact" + std::to_string(i)};
        f.salience = 1.0;
        t.facts.push_back(f);
      }
      t.rng_salt = s;
      total += static_cast<int>(model_.Generate(spec_, t).expressed_facts.size());
    }
    return total;
  };
  EXPECT_GT(kept(160), kept(12) * 2);
}

TEST_F(BehaviorTest, SummaryMarksFactsAsDenoised) {
  GenerationTask t;
  t.mode = GenerationMode::kSummarize;
  t.summary_budget_tokens = 200;
  FactInContext f;
  f.fact_id = 0;
  f.answer_tokens = {"fact0"};
  f.salience = 1.0;
  t.facts.push_back(f);
  for (uint64_t s = 0; s < 50; ++s) {
    t.rng_salt = s;
    GenerationResult r = model_.Generate(spec_, t);
    for (const auto& kept : r.expressed_facts) {
      EXPECT_TRUE(kept.from_summary);
      EXPECT_GE(kept.salience, f.salience);
    }
  }
}

TEST_F(BehaviorTest, BetterModelRecoversMore) {
  int small = 0, big = 0;
  for (uint64_t s = 0; s < 400; ++s) {
    GenerationTask t = AnswerTask(4, 6000, false);
    t.rng_salt = s;
    small += static_cast<int>(model_.Generate(Mistral7BAwq(), t).expressed_facts.size());
    big += static_cast<int>(model_.Generate(Gpt4oApi(), t).expressed_facts.size());
  }
  EXPECT_GT(big, small);
}

// --- Pinned generation digest ---

// Order-sensitive FNV-1a over the raw bytes of scalar values; strings and
// vectors are length-prefixed so adjacent fields cannot alias.
class Digest {
 public:
  template <typename T>
  void Add(T value) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      h_ = (h_ ^ b) * 0x100000001B3ull;
    }
  }
  void Add(const std::string& s) {
    Add(s.size());
    for (char c : s) {
      Add(c);
    }
  }
  template <typename T>
  void Add(const std::vector<T>& values) {
    Add(values.size());
    for (const T& v : values) {
      Add(v);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

// A task whose facts, noise, conclusion and lengths all vary with `salt`.
// Some salts carry the word-count edge cases: an empty answer token, a token
// holding two words, and a fact-free task whose answer is one filler word.
GenerationTask VariedTask(GenerationMode mode, uint64_t salt) {
  GenerationTask t;
  t.mode = mode;
  t.rng_salt = salt;
  t.context_tokens = 300 + static_cast<int>((salt * 977) % 16000);
  t.high_complexity = salt % 3 == 0;
  t.require_joint = salt % 2 == 0;
  t.num_required_facts = 1 + static_cast<int>(salt % 3);
  t.target_output_tokens = 4 + static_cast<int>(salt % 40);
  t.summary_budget_tokens = 10 + static_cast<int>((salt * 37) % 300);
  if (salt % 4 == 1) {
    t.conclusion_tokens = {"therefore", "result" + std::to_string(salt % 7)};
  }
  int facts = salt % 9 == 8 ? 0 : 1 + static_cast<int>(salt % 6);
  if (facts == 0) {
    t.target_output_tokens = 1;
  }
  for (int i = 0; i < facts; ++i) {
    FactInContext f;
    f.fact_id = i;
    f.answer_tokens = {"ans" + std::to_string(i), "tok" + std::to_string(salt % 11)};
    if (salt % 10 == 7 && i == 0) {
      f.answer_tokens = {"", "two words", "last"};
    }
    f.position_frac = (i + 0.5) / facts;
    f.salience = static_cast<double>((salt + 13 * static_cast<uint64_t>(i)) % 10) / 9.0;
    f.relevant = (salt + static_cast<uint64_t>(i)) % 4 != 3;
    f.from_summary = (salt + static_cast<uint64_t>(i)) % 5 == 0;
    t.facts.push_back(f);
  }
  return t;
}

TEST(BehaviorDigestTest, PinnedOverModesModelsAndSalts) {
  BehaviorModel model(BehaviorParams{}, 42);
  Digest h;
  for (GenerationMode mode : {GenerationMode::kAnswer, GenerationMode::kSummarize}) {
    for (const char* name : {"mistral-7b-v3-awq", "llama3.1-70b-awq", "gpt-4o"}) {
      const ModelSpec& spec = GetModelSpec(name);
      for (uint64_t salt = 0; salt < 200; ++salt) {
        GenerationTask task = VariedTask(mode, salt);
        GenerationResult r = model.Generate(spec, task);
        if (mode == GenerationMode::kAnswer) {
          // The decoded length is the answer's word count, floored.
          size_t words = SplitWords(r.text).size();
          EXPECT_EQ(r.output_tokens,
                    std::max({static_cast<int>(words), task.target_output_tokens / 2, 1}))
              << name << " salt " << salt;
          h.Add(r.text);
        }
        h.Add(r.output_tokens);
        h.Add(r.confidence);
        h.Add(r.reasoning_success);
        h.Add(r.expressed_facts.size());
        for (const FactInContext& f : r.expressed_facts) {
          h.Add(f.fact_id);
          h.Add(f.answer_tokens);
          h.Add(f.position_frac);
          h.Add(f.salience);
          h.Add(f.relevant);
          h.Add(f.from_summary);
        }
      }
    }
  }
  EXPECT_EQ(h.value(), 0x3bce7459d522e6e6ull) << std::hex << "0x" << h.value();
}

}  // namespace
}  // namespace metis
