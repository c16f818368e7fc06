// BM25 lexical index (src/vectordb/lexical_index.h) against a brute-force
// scorer over the live set, under insert/remove churn and through
// VectorDatabase's pooled bulk load, plus documents with no tokens, removed
// postings leaving the scan, and the pinned work counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/text/tokenizer.h"
#include "src/vectordb/lexical_index.h"
#include "src/vectordb/vectordb.h"

namespace metis {
namespace {

// Okapi BM25 recomputed in full on every query: exact live-set N, avgdl
// and df; each document's score summed in double over the sorted unique query
// terms; ranked by (score desc, insertion order asc).
class ReferenceBm25 {
 public:
  void Add(ChunkId id, const std::string& text) {
    Doc d;
    d.id = id;
    d.order = next_order_++;
    std::vector<std::string> tokens = Tokenize(text);
    d.len = static_cast<int32_t>(tokens.size());
    for (const std::string& t : tokens) {
      ++d.tf[t];
    }
    docs_.push_back(std::move(d));
  }

  bool Remove(ChunkId id) {
    for (Doc& d : docs_) {
      if (d.id == id && d.live) {
        d.live = false;
        return true;
      }
    }
    return false;
  }

  std::vector<SearchHit> Search(const std::string& query, size_t k,
                                const std::vector<ChunkId>& exclude) const {
    uint64_t n_live = 0;
    uint64_t total_len = 0;
    for (const Doc& d : docs_) {
      if (d.live) {
        ++n_live;
        total_len += static_cast<uint64_t>(d.len);
      }
    }
    if (k == 0 || n_live == 0) {
      return {};
    }
    std::vector<std::string> terms = Tokenize(query);
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    double n = static_cast<double>(n_live);
    double avgdl = static_cast<double>(total_len) / n;
    std::vector<double> idf(terms.size(), 0.0);
    std::vector<int64_t> df(terms.size(), 0);
    for (size_t t = 0; t < terms.size(); ++t) {
      for (const Doc& d : docs_) {
        if (d.live && d.tf.count(terms[t]) > 0) ++df[t];
      }
      double dfd = static_cast<double>(df[t]);
      idf[t] = std::log((n - dfd + 0.5) / (dfd + 0.5) + 1.0);
    }
    struct Ranked {
      double score;
      uint32_t order;
      ChunkId id;
    };
    std::vector<Ranked> ranked;
    for (const Doc& d : docs_) {
      if (!d.live || std::binary_search(exclude.begin(), exclude.end(), d.id)) continue;
      double score = 0.0;
      bool matched = false;
      for (size_t t = 0; t < terms.size(); ++t) {
        auto it = d.tf.find(terms[t]);
        if (df[t] == 0 || it == d.tf.end()) continue;
        double norm = 1.2 * (1.0 - 0.75 + 0.75 * (static_cast<double>(d.len) / avgdl));
        double tfd = static_cast<double>(it->second);
        score += idf[t] * (tfd * (1.2 + 1.0)) / (tfd + norm);
        matched = true;
      }
      if (matched) ranked.push_back(Ranked{score, d.order, d.id});
    }
    std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.order < b.order;
    });
    if (ranked.size() > k) ranked.resize(k);
    std::vector<SearchHit> hits;
    for (const Ranked& r : ranked) {
      hits.push_back(SearchHit{r.id, -static_cast<float>(r.score)});
    }
    return hits;
  }

  // The postings a search for `query` at depth k reads: the live documents
  // holding each unique query term, none when k is 0 or nothing is live.
  uint64_t Postings(const std::string& query, size_t k) const {
    std::vector<std::string> terms = Tokenize(query);
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    uint64_t n_live = 0;
    uint64_t postings = 0;
    for (const Doc& d : docs_) {
      if (!d.live) continue;
      ++n_live;
      for (const std::string& t : terms) postings += d.tf.count(t);
    }
    return k == 0 || n_live == 0 ? 0 : postings;
  }

 private:
  struct Doc {
    ChunkId id = 0;
    uint32_t order = 0;
    int32_t len = 0;
    bool live = true;
    std::map<std::string, int32_t> tf;
  };
  std::vector<Doc> docs_;
  uint32_t next_order_ = 0;
};

void ExpectBitEqual(const std::vector<SearchHit>& got, const std::vector<SearchHit>& want,
                    const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << context << " rank " << i;
    EXPECT_EQ(std::memcmp(&got[i].distance, &want[i].distance, sizeof(float)), 0)
        << context << " rank " << i << ": " << got[i].distance << " vs " << want[i].distance;
  }
}

// A document of 1-14 words drawn Zipf-like from a small pool, with case and
// edge punctuation the tokenizer folds away. Every 23rd has no tokens at all.
std::string RandomText(Rng& rng) {
  static const char* kPool[] = {"alpha", "Beta",   "gamma",  "delta",  "epsilon", "zeta",
                                "eta",   "theta",  "iota",   "kappa",  "lambda",  "mu",
                                "nu",    "xi",     "omicron", "pi",    "rho",     "sigma",
                                "tau",   "upsilon", "phi",   "chi",    "psi",     "omega"};
  static const char* kEdge[] = {"", "", "", ",", ".", "(", "\"", "!"};
  if (rng.UniformInt(0, 22) == 0) {
    return "... !! ;";
  }
  std::string text;
  int words = static_cast<int>(rng.UniformInt(1, 14));
  for (int w = 0; w < words; ++w) {
    if (!text.empty()) text += rng.Bernoulli(0.1) ? "\t" : " ";
    const char* edge = kEdge[rng.Index(8)];
    bool open = edge[0] == '(' || edge[0] == '"';
    if (open) text += edge;
    text += kPool[rng.Zipf(24, 1.0)];
    if (!open) text += edge;
  }
  return text;
}

const std::vector<std::string>& Queries() {
  static const std::vector<std::string> kQueries = {
      "alpha",
      "beta gamma",
      "ALPHA, beta; Gamma!",
      "alpha alpha beta alpha",  // Duplicate terms score once.
      "omega psi chi phi",
      "zzzunknown",              // Never indexed.
      "zzzunknown delta",
      "phoenix",                 // Only in the docs the df-0 scenario adds.
      "phoenix alpha eta",
      "sigma tau upsilon pi rho lambda mu nu",
      "",
  };
  return kQueries;
}

void CheckAgainstReference(const LexicalIndex& index, const ReferenceBm25& ref, ChunkId max_id,
                           const std::string& context) {
  std::vector<ChunkId> exclude;
  for (ChunkId id = 1; id < max_id; id += 4) exclude.push_back(id);
  IdFilter filter{exclude.data(), exclude.data() + exclude.size()};
  for (const std::string& q : Queries()) {
    for (size_t k : {size_t{0}, size_t{1}, size_t{5}, size_t{1000}}) {
      std::string where = context + " q='" + q + "' k=" + std::to_string(k);
      uint64_t before = index.stats().postings_scanned;
      std::vector<SearchHit> want = ref.Search(q, k, {});
      ExpectBitEqual(index.Search(q, k), want, where);
      ExpectBitEqual(index.Search(q, k, filter), ref.Search(q, k, exclude), where + " filtered");
      // The filter drops postings after they are read, so both scans count
      // every live one.
      EXPECT_EQ(index.stats().postings_scanned - before, 2 * ref.Postings(q, k)) << where;
    }
  }
}

TEST(LexicalIndexTest, MatchesBruteForceScorerUnderChurn) {
  for (uint64_t seed = 1000; seed < 1012; ++seed) {
    std::string config = "seed=" + std::to_string(seed);
    LexicalIndex index;
    ReferenceBm25 ref;
    Rng rng(seed);
    std::vector<ChunkId> live;
    ChunkId next_id = 0;
    auto add = [&](const std::string& text) {
      index.Add(next_id, text);
      ref.Add(next_id, text);
      live.push_back(next_id++);
    };
    auto remove = [&](ChunkId id) {
      EXPECT_TRUE(index.Remove(id)) << config << " id " << id;
      EXPECT_TRUE(ref.Remove(id));
      live.erase(std::find(live.begin(), live.end(), id));
    };
    for (int step = 0; step < 600; ++step) {
      if (live.empty() || rng.Bernoulli(0.7)) {
        add(RandomText(rng));
      } else {
        remove(live[rng.Index(live.size())]);
      }
      if (step == 150) {
        // A term whose df rises, falls to 0, and returns.
        add("phoenix rising");
        add("Phoenix, alpha");
        CheckAgainstReference(index, ref, next_id, config + " phoenix live");
        remove(next_id - 2);
        remove(next_id - 1);
        EXPECT_TRUE(index.Search("phoenix", 10).empty()) << config;
        CheckAgainstReference(index, ref, next_id, config + " phoenix df 0");
      }
      if (step == 400) {
        add("(phoenix) again eta");
        std::vector<SearchHit> back = index.Search("phoenix", 10);
        ASSERT_EQ(back.size(), 1u) << config;
        EXPECT_EQ(back[0].id, next_id - 1) << config;
      }
      if (step % 50 == 49) {
        CheckAgainstReference(index, ref, next_id, config + " step " + std::to_string(step));
      }
    }
    EXPECT_FALSE(index.Remove(next_id));  // Never added.
  }
}

TEST(LexicalIndexTest, PooledBulkLoadMatchesReferenceAtAnyPoolSize) {
  // RandomText documents plus fixed ones: case and punctuation variants of
  // one term, a zero-token document, one term 40 times, and 600 distinct
  // words (more unique terms than any fixed-size per-document table).
  Rng rng(4242);
  std::vector<std::string> texts;
  for (int i = 0; i < 300; ++i) {
    texts.push_back(RandomText(rng));
    if (i == 40) texts.push_back("Phoenix, ALPHA");
    if (i == 90) texts.push_back("(phoenix)");
    if (i == 150) texts.push_back("?? !!");
    if (i == 200) {
      std::string repeated = "Delta";
      for (int r = 1; r < 40; ++r) repeated += " delta";
      texts.push_back(repeated);
    }
    if (i == 250) {
      std::string wide = "alpha";
      for (int w = 1; w < 600; ++w) wide += StrFormat(" w%03d", w);
      texts.push_back(wide);
    }
  }
  ChunkId n = static_cast<ChunkId>(texts.size());

  ReferenceBm25 ref;
  LexicalIndex per_doc;
  for (ChunkId id = 0; id < n; ++id) {
    ref.Add(id, texts[static_cast<size_t>(id)]);
    per_doc.Add(id, texts[static_cast<size_t>(id)]);
  }
  std::vector<std::unique_ptr<VectorDatabase>> dbs;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    RetrievalIndexOptions options;
    options.lexical = true;
    options.mutable_index = true;  // DeleteChunks needs it.
    options.mutation.max_rows = 1024;
    dbs.push_back(std::make_unique<VectorDatabase>(
        EmbeddingModel(GetEmbeddingModel("all-mpnet-base-v2-sim")),
        DatabaseMetadata{"lexical bulk-load test", 64, "test"}, options));
    std::vector<Chunk> chunks(texts.size());
    for (size_t i = 0; i < texts.size(); ++i) chunks[i].text = texts[i];
    ThreadPool pool(threads);
    dbs.back()->AddChunks(std::move(chunks), &pool);
    dbs.back()->FinalizeIndex(&pool);
  }
  auto check = [&](const std::string& when) {
    CheckAgainstReference(per_doc, ref, n, "per-document Add, " + when);
    for (size_t i = 0; i < dbs.size(); ++i) {
      ASSERT_NE(dbs[i]->lexical_index(), nullptr);
      CheckAgainstReference(*dbs[i]->lexical_index(), ref, n,
                            (i == 0 ? "pool 1, " : "pool 4, ") + when);
    }
  };
  check("all live");
  for (ChunkId id = 0; id < n; id += 3) {
    EXPECT_TRUE(ref.Remove(id));
    EXPECT_TRUE(per_doc.Remove(id));
    for (auto& db : dbs) EXPECT_EQ(db->DeleteChunks({id}), 1u);
  }
  check("every third removed");
}

TEST(LexicalIndexTest, ZeroTokenDocAddsNoPostingAndIsRemovedCleanly) {
  LexicalIndex index;
  ReferenceBm25 ref;
  for (const auto& [id, text] : std::vector<std::pair<ChunkId, std::string>>{
           {0, "?? !!"}, {1, "alpha beta"}, {2, "gamma alpha"}}) {
    index.Add(id, text);
    ref.Add(id, text);
  }
  // The empty document has no posting to scan, but counts in N and avgdl.
  ExpectBitEqual(index.Search("alpha gamma", 5), ref.Search("alpha gamma", 5, {}), "with it");
  EXPECT_EQ(index.stats().postings_scanned, 3u);
  EXPECT_TRUE(index.Remove(0));
  EXPECT_FALSE(index.Remove(0));
  EXPECT_TRUE(ref.Remove(0));
  ExpectBitEqual(index.Search("alpha gamma", 5), ref.Search("alpha gamma", 5, {}), "removed");
  EXPECT_EQ(index.stats().postings_scanned, 6u);
}

TEST(LexicalIndexTest, RemovedPostingsAreNeverScanned) {
  LexicalIndex index;
  for (ChunkId id = 0; id < 300; ++id) {
    index.Add(id, "shared term");
  }
  for (ChunkId id = 0; id < 299; ++id) {
    EXPECT_TRUE(index.Remove(id));
  }
  std::vector<SearchHit> hits = index.Search("shared", 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 299);
  EXPECT_EQ(index.stats().postings_scanned, 1u);
}

TEST(LexicalIndexTest, StatsArePinned) {
  // One fixed sequence of adds, removes and searches; `postings_scanned`
  // counts the live postings of the query terms.
  LexicalIndex index;
  Rng rng(77);
  std::vector<ChunkId> live;
  ChunkId next_id = 0;
  for (int step = 0; step < 300; ++step) {
    if (live.empty() || rng.Bernoulli(0.7)) {
      std::string text = RandomText(rng);
      if (Tokenize(text).empty()) text = "alpha";  // The pinned sequence has none.
      index.Add(next_id, text);
      live.push_back(next_id++);
    } else {
      size_t i = rng.Index(live.size());
      EXPECT_TRUE(index.Remove(live[i]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (step % 20 == 19) {
      for (const std::string& q : Queries()) index.Search(q, 5);
    }
  }
  LexicalIndexStats s = index.stats();
  EXPECT_EQ(s.searches, 165u);
  EXPECT_EQ(s.postings_scanned, 8051u);
}

}  // namespace
}  // namespace metis
