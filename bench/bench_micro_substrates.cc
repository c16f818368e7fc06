// google-benchmark microbenchmarks for the substrate libraries: embedding,
// vector search (flat vs IVF), tokenizer, F1 scoring, KV-cache allocation,
// and raw engine step throughput.

#include <benchmark/benchmark.h>

#include "src/embed/embedding.h"
#include "src/llm/engine.h"
#include "src/llm/kv_cache.h"
#include "src/quality/f1.h"
#include "src/sim/simulator.h"
#include "src/text/tokenizer.h"
#include "src/text/vocabulary.h"
#include "src/vectordb/vectordb.h"

namespace metis {
namespace {

std::string MakeText(size_t tokens, uint64_t seed) {
  Vocabulary vocab(seed, 1000);
  Rng rng(seed);
  return vocab.FillerSentence(rng, tokens);
}

void BM_Tokenize(benchmark::State& state) {
  std::string text = MakeText(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tokenize(text));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Tokenize)->Arg(256)->Arg(1024);

void BM_Embed(benchmark::State& state) {
  EmbeddingModel model(GetEmbeddingModel("cohere-embed-v3-sim"));
  std::string text = MakeText(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Embed(text));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Embed)->Arg(256)->Arg(1024);

void BM_FlatSearch(benchmark::State& state) {
  EmbeddingModel model(GetEmbeddingModel("cohere-embed-v3-sim"));
  FlatL2Index index(model.dim());
  for (int i = 0; i < state.range(0); ++i) {
    index.Add(i, model.Embed(MakeText(64, static_cast<uint64_t>(i + 10))));
  }
  Embedding q = model.Embed("the quick query about revenue and schedules");
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(q, 10, RetrievalQuality{}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlatSearch)->Arg(500)->Arg(2000);

void BM_IvfSearch(benchmark::State& state) {
  EmbeddingModel model(GetEmbeddingModel("cohere-embed-v3-sim"));
  IvfL2Index index(model.dim(), 16, 4, 7);
  for (int i = 0; i < state.range(0); ++i) {
    index.Add(i, model.Embed(MakeText(64, static_cast<uint64_t>(i + 10))));
  }
  index.Train();
  Embedding q = model.Embed("the quick query about revenue and schedules");
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(q, 10, RetrievalQuality{}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IvfSearch)->Arg(500)->Arg(2000);

void BM_TokenF1(benchmark::State& state) {
  auto gen = Tokenize(MakeText(64, 3));
  auto gold = Tokenize(MakeText(32, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TokenF1(gen, gold));
  }
}
BENCHMARK(BM_TokenF1);

void BM_KvCacheAllocFree(benchmark::State& state) {
  KvCacheManager kv(8.0 * kGiB, 16, 131072);
  uint64_t id = 1;
  for (auto _ : state) {
    kv.Allocate(id, 2048);
    kv.Free(id);
    ++id;
  }
}
BENCHMARK(BM_KvCacheAllocFree);

// End-to-end simulated engine throughput: how many simulated requests per
// wall-clock second the DES engine can process.
void BM_EngineSimThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    EngineConfig cfg;
    cfg.model = Mistral7BAwq();
    cfg.kv_pool_bytes = 8.0 * kGiB;
    LlmEngine engine(&sim, cfg, 1);
    int done = 0;
    for (int i = 0; i < 200; ++i) {
      InferenceRequest req;
      req.prompt_tokens = 1500;
      req.output_tokens = 30;
      req.on_complete = [&done](const RequestTiming&) { ++done; };
      engine.Submit(std::move(req));
    }
    sim.Run();
    if (done != 200) {
      state.SkipWithError("engine lost requests");
    }
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_EngineSimThroughput);

}  // namespace
}  // namespace metis

BENCHMARK_MAIN();
