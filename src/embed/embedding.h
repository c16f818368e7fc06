// Deterministic text embeddings.
//
// Stand-in for Cohere-embed-v3 / all-mpnet-base-v2 / text-embedding-3-large
// (paper §6, §A.2): a hashed bag-of-words+bigrams vector, L2-normalized.
// Documents sharing topical words with a query land close in L2/cosine space,
// which is the only property the retrieval pipeline depends on. Different
// model names use different hash salts and dimensions, so switching embedding
// models reshuffles near-ties without changing retrieval quality — matching
// the paper's observation that the embedding choice moves F1 by <1%.

#ifndef METIS_SRC_EMBED_EMBEDDING_H_
#define METIS_SRC_EMBED_EMBEDDING_H_

#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"

namespace metis {

using Embedding = std::vector<float>;

struct EmbeddingModelSpec {
  std::string name;
  size_t dim = 256;
  uint64_t hash_salt = 0;
  // Weight of bigram features relative to unigrams (adds word-order signal).
  double bigram_weight = 0.5;
};

// Returns the catalog of embedding models used by the experiments.
const std::vector<EmbeddingModelSpec>& EmbeddingModelCatalog();

// Looks up a catalog model by name; aborts if unknown.
const EmbeddingModelSpec& GetEmbeddingModel(std::string_view name);

class EmbeddingModel {
 public:
  explicit EmbeddingModel(EmbeddingModelSpec spec);

  // Embeds text; deterministic for a given (model, text).
  Embedding Embed(std::string_view text) const;

  // Embeds a batch of texts, sharding the tokenize+hash work across `pool`
  // when given (each text is independent, so results[i] == Embed(texts[i])
  // exactly, for any pool size). A null pool runs inline. Only perfbench's
  // corpus-embed timer calls this.
  std::vector<Embedding> EmbedBatch(const std::vector<std::string>& texts,
                                    ThreadPool* pool = nullptr) const;

  size_t dim() const { return spec_.dim; }
  const std::string& name() const { return spec_.name; }

 private:
  EmbeddingModelSpec spec_;
};

// Bounded LRU memo cache over EmbeddingModel::Embed.
//
// Tokenizing + hashing a query costs far more than the lookup, and the same
// query text is embedded many times across a run (profiler probe, retrieval,
// golden-config feedback, per-config sweeps), so a small cache removes almost
// all repeat work. Not thread-safe: retrievals call it on the simulation
// thread.
class EmbeddingCache {
 public:
  EmbeddingCache(const EmbeddingModel* model, size_t capacity);

  // Returns the embedding for `text`, computing and memoizing it on a miss.
  // The reference stays valid until the next Get() (eviction may free it).
  const Embedding& Get(const std::string& text);

  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  size_t size() const { return lru_.size(); }

 private:
  const EmbeddingModel* model_;
  size_t capacity_;
  size_t hits_ = 0;
  size_t misses_ = 0;
  // Front = most recently used. The map keys view the strings owned by the
  // list nodes (stable storage), avoiding a second copy of each text.
  std::list<std::pair<std::string, Embedding>> lru_;
  std::unordered_map<std::string_view, std::list<std::pair<std::string, Embedding>>::iterator>
      map_;
};

// Squared L2 distance between equal-dimension vectors.
float L2DistanceSquared(const Embedding& a, const Embedding& b);

// Cosine similarity (vectors need not be normalized).
float CosineSimilarity(const Embedding& a, const Embedding& b);

}  // namespace metis

#endif  // METIS_SRC_EMBED_EMBEDDING_H_
