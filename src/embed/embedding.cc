#include "src/embed/embedding.h"

#include <cmath>
#include <cstdint>
#include <cstring>

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

  // Two hashed buckets with signed contributions approximate a random
  // projection; this keeps unrelated texts near-orthogonal. A bucket gets
  // +weight when its hash's top bit is set and -weight otherwise. Negating a
  // float flips its sign bit and nothing else, so the sign is set by XOR
  // from the inverted top bit: the same floats as (h >> 63 ? 1 : -1) *
  // weight, with no branch on the hash.
  auto weight_bits = [](double weight) {
    float w = static_cast<float>(weight);
    uint32_t bits;
    std::memcpy(&bits, &w, sizeof(bits));
    return bits;
  };
  auto signed_weight = [](uint64_t h, uint32_t bits) {
    bits ^= static_cast<uint32_t>(~h >> 63) << 31;
    float w;
    std::memcpy(&w, &bits, sizeof(w));
    return w;
  };
  const uint32_t unigram_bits = weight_bits(1.0);
  const uint32_t bigram_bits = weight_bits(spec_.bigram_weight);
  auto add_feature = [&](uint64_t h, uint32_t bits) {
    uint64_t st = h ^ spec_.hash_salt;
    uint64_t h1 = SplitMix64(st);
    uint64_t h2 = SplitMix64(st);
    v[static_cast<size_t>(h1 % spec_.dim)] += signed_weight(h1, bits);
    v[static_cast<size_t>(h2 % spec_.dim)] += signed_weight(h2, bits);
  };

  // Features are the HashString64 of each lowercased token and of each
  // adjacent pair joined by '_', added in the order u0, b01, u1, b12, u2, ...
  // FNV-1a is a running state, so the pair's hash continues the previous
  // token's raw state with '_' and this token's bytes, and one pass over
  // the token's bytes advances the token's and the pair's states together:
  // no token or pair string is built.
  const bool bigrams = spec_.bigram_weight > 0;
  bool first = true;
  uint64_t prev = 0;  // Raw FNV state of the previous token.
  ForEachToken(text, [&](std::string_view token) {
    uint64_t unigram = kFnv64Offset;
    uint64_t pair = Fnv64Step(prev, '_');
    for (char c : token) {
      unsigned char lower = static_cast<unsigned char>(LowerAscii(c));
      unigram = Fnv64Step(unigram, lower);
      pair = Fnv64Step(pair, lower);
    }
    if (!first && bigrams) {
      add_feature(FinishHash64(pair), bigram_bits);
    }
    add_feature(FinishHash64(unigram), unigram_bits);
    prev = unigram;
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
