#include "src/embed/embedding.h"

#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/text/tokenizer.h"

namespace metis {

const std::vector<EmbeddingModelSpec>& EmbeddingModelCatalog() {
  // Dimensions match the real models' output sizes; at these widths the
  // hashed-projection collision noise (~1/sqrt(dim)) stays well below the
  // topical-overlap signal even for corpora of a few thousand chunks.
  static const std::vector<EmbeddingModelSpec> kCatalog = {
      {"cohere-embed-v3-sim", 1024, 0x1001, 0.5},
      {"all-mpnet-base-v2-sim", 768, 0x2002, 0.4},
      {"text-embedding-3-large-256-sim", 1024, 0x3003, 0.6},
  };
  return kCatalog;
}

const EmbeddingModelSpec& GetEmbeddingModel(std::string_view name) {
  for (const auto& spec : EmbeddingModelCatalog()) {
    if (spec.name == name) {
      return spec;
    }
  }
  METIS_CHECK(false && "unknown embedding model");
  std::abort();
}

EmbeddingModel::EmbeddingModel(EmbeddingModelSpec spec) : spec_(std::move(spec)) {
  METIS_CHECK_GT(spec_.dim, 0u);
}

Embedding EmbeddingModel::Embed(std::string_view text) const {
  Embedding v(spec_.dim, 0.0f);

  auto add_feature = [&](uint64_t h, double weight) {
    // Two hashed buckets with signed contributions approximate a random
    // projection; this keeps unrelated texts near-orthogonal.
    uint64_t st = h ^ spec_.hash_salt;
    uint64_t h1 = SplitMix64(st);
    uint64_t h2 = SplitMix64(st);
    size_t i1 = static_cast<size_t>(h1 % spec_.dim);
    size_t i2 = static_cast<size_t>(h2 % spec_.dim);
    float s1 = (h1 >> 63) ? 1.0f : -1.0f;
    float s2 = (h2 >> 63) ? 1.0f : -1.0f;
    v[i1] += s1 * static_cast<float>(weight);
    v[i2] += s2 * static_cast<float>(weight);
  };

  // Features are the HashString64 of each lowercased token and of each
  // adjacent pair joined by '_', added in the order u0, b01, u1, b12, u2, ...
  // FNV-1a is a running state, so the pair's hash continues the previous
  // token's raw state with '_' and this token's bytes: no token or pair
  // string is built.
  auto fnv_lower = [](uint64_t h, std::string_view token) {
    for (char c : token) {
      h = Fnv64Step(h, static_cast<unsigned char>(LowerAscii(c)));
    }
    return h;
  };
  bool first = true;
  uint64_t prev = 0;  // Raw FNV state of the previous token.
  ForEachToken(text, [&](std::string_view token) {
    if (!first && spec_.bigram_weight > 0) {
      uint64_t pair = fnv_lower(Fnv64Step(prev, '_'), token);
      add_feature(FinishHash64(pair), spec_.bigram_weight);
    }
    prev = fnv_lower(kFnv64Offset, token);
    add_feature(FinishHash64(prev), 1.0);
    first = false;
  });

  // L2-normalize so L2 distance and cosine similarity agree in ranking.
  double norm2 = 0;
  for (float x : v) {
    norm2 += static_cast<double>(x) * x;
  }
  if (norm2 > 0) {
    float inv = static_cast<float>(1.0 / std::sqrt(norm2));
    for (float& x : v) {
      x *= inv;
    }
  }
  return v;
}

std::vector<Embedding> EmbeddingModel::EmbedBatch(const std::vector<std::string>& texts,
                                                  ThreadPool* pool) const {
  // Each text embeds independently into its own slot, so the shard layout
  // cannot change results — the batch is bit-equal to per-text Embed calls.
  std::vector<Embedding> out(texts.size());
  ParallelFor(pool, texts.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = Embed(texts[i]);
    }
  });
  return out;
}

EmbeddingCache::EmbeddingCache(const EmbeddingModel* model, size_t capacity)
    : model_(model), capacity_(capacity) {
  METIS_CHECK(model != nullptr);
  METIS_CHECK_GT(capacity, 0u);
}

const Embedding& EmbeddingCache::Get(const std::string& text) {
  auto it = map_.find(std::string_view(text));
  if (it != map_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return lru_.front().second;
  }
  ++misses_;
  if (lru_.size() >= capacity_) {
    map_.erase(std::string_view(lru_.back().first));
    lru_.pop_back();
  }
  lru_.emplace_front(text, model_->Embed(text));
  map_.emplace(std::string_view(lru_.front().first), lru_.begin());
  return lru_.front().second;
}

float L2DistanceSquared(const Embedding& a, const Embedding& b) {
  METIS_CHECK_EQ(a.size(), b.size());
  double d = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    double diff = static_cast<double>(a[i]) - b[i];
    d += diff * diff;
  }
  return static_cast<float>(d);
}

float CosineSimilarity(const Embedding& a, const Embedding& b) {
  METIS_CHECK_EQ(a.size(), b.size());
  double dot = 0;
  double na = 0;
  double nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0 || nb == 0) {
    return 0;
  }
  return static_cast<float>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

}  // namespace metis
