// Concurrent ingest/query stress for the mutable serving index: searches
// hammer the index while a writer inserts and deletes, and the seals,
// compactions and retrains those writes trigger run under the writer lock.
// The core assertion is the no-torn-reads contract: every result set is
// consistent with exactly ONE epoch — proven by pinning an epoch, rebuilding
// an exact flat reference from that epoch's own live-row enumeration, and
// requiring bit-equal results.
// This test (and the epoch machinery) is also what the METIS_SANITIZE=thread
// lane (`check_tsan`) race-checks in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/vectordb/mutable_index.h"
#include "src/vectordb/vectordb.h"

namespace metis {
namespace {

constexpr size_t kDim = 12;
constexpr size_t kTopK = 8;

Embedding RandomVec(Rng& rng) {
  Embedding v(kDim);
  for (float& x : v) {
    x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return v;
}

RetrievalQuality FullProbe() {
  RetrievalQuality q;
  q.mode = RetrievalQuality::ProbeMode::kFixed;
  q.nprobe = 1u << 20;
  return q;
}

// Exact reference for one pinned epoch, built from the epoch's own live-row
// enumeration (insertion order), so it describes that epoch and nothing else.
FlatL2Index EpochReference(const MutableIndex& index, const MutableEpoch& epoch) {
  FlatL2Index ref(kDim);
  index.ForEachLiveRow(epoch, [&](ChunkId id, const float* row) {
    ref.Add(id, Embedding(row, row + kDim));
  });
  return ref;
}

// Structural invariants of a live read that the writer races: bounded,
// sorted by distance, no duplicate ids, every id issued already.
template <typename Hit>
void ExpectWellFormed(const std::vector<Hit>& hits, ChunkId max_id) {
  EXPECT_LE(hits.size(), kTopK);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_GE(hits[i].distance, 0.0f);
    EXPECT_GE(hits[i].id, 0);
    EXPECT_LT(hits[i].id, max_id);
    if (i > 0) {
      EXPECT_LE(hits[i - 1].distance, hits[i].distance);
    }
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NE(hits[j].id, hits[i].id);
    }
  }
}

void ExpectBitEqual(const std::vector<SearchHit>& got, const std::vector<SearchHit>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].distance, want[i].distance);
  }
}

TEST(MutableIndexStressTest, ConcurrentIngestAndQueriesSeeOneEpoch) {
  RetrievalIndexOptions opt;
  opt.backend = RetrievalIndexOptions::Backend::kIvf;
  opt.nlist = 8;
  opt.nprobe = 3;
  opt.train_seed = 17;
  opt.mutable_index = true;
  opt.mutation.memtable_rows = 32;
  opt.mutation.compact_segments = 3;
  opt.mutation.retrain_delta_fraction = 0.5;
  opt.mutation.max_rows = 1u << 14;

  MutableIndex index(kDim, opt);

  Rng seed_rng(0xC0FFEE);
  ChunkId next_id = 0;
  for (int i = 0; i < 200; ++i) {
    index.Add(next_id++, RandomVec(seed_rng));
  }
  index.Finalize();

  std::atomic<bool> done{false};
  std::atomic<ChunkId> max_id{next_id};

  // Readers: mix of (a) pinned-epoch verification against an exact reference
  // for that epoch, (b) cheap invariant-checked searches at serving quality,
  // plain and filtered, (c) pinned determinism (same epoch twice -> same
  // bits).
  // The filtered reads exclude every id divisible by 3 (sorted).
  std::vector<ChunkId> excluded;
  for (ChunkId id = 0; id < 4096; id += 3) {
    excluded.push_back(id);
  }
  IdFilter exclude{excluded.data(), excluded.data() + excluded.size()};
  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    int verifications = 0;
    while (!done.load(std::memory_order_acquire) || verifications < 10) {
      Embedding q = RandomVec(rng);
      std::shared_ptr<const MutableEpoch> epoch = index.PinEpoch();
      if (verifications < 60 && rng.Bernoulli(0.25)) {
        FlatL2Index ref = EpochReference(index, *epoch);
        std::vector<SearchHit> got = index.SearchPinned(*epoch, q, kTopK, FullProbe());
        ExpectBitEqual(got, ref.Search(q, kTopK, RetrievalQuality{}));
        ExpectBitEqual(index.SearchPinned(*epoch, q, kTopK, FullProbe()), got);
        ++verifications;
      } else {
        // Serving-quality searches on the live index: structural
        // invariants (sorted, deduped, bounded) must hold no matter how the
        // writer and the maintenance it triggers race these calls, and a filtered
        // read never returns an excluded id.
        // (The id bound is read after each search returns.)
        std::vector<SearchHit> hits = index.Search(q, kTopK, RetrievalQuality{});
        ExpectWellFormed(hits, max_id.load(std::memory_order_acquire));
        std::vector<OrderedHit> filtered =
            index.SearchOrdered(q, kTopK, RetrievalQuality{}, exclude);
        ExpectWellFormed(filtered, max_id.load(std::memory_order_acquire));
        for (const OrderedHit& h : filtered) {
          EXPECT_FALSE(exclude.contains(h.id)) << h.id;
        }
      }
    }
  };

  std::vector<std::thread> readers;
  for (uint64_t t = 0; t < 3; ++t) {
    readers.emplace_back(reader, 0xABC + t);
  }

  // Writer: inserts, deletes, and occasional explicit lifecycle ops.
  Rng wrng(0xD1CE);
  std::vector<ChunkId> live;
  for (ChunkId id = 0; id < next_id; ++id) {
    live.push_back(id);
  }
  for (int op = 0; op < 1500; ++op) {
    double r = wrng.NextDouble();
    if (r < 0.70 || live.empty()) {
      ChunkId id = next_id++;
      // Advance the bound BEFORE the insert publishes: a reader may see the
      // new id the instant Insert swaps the epoch in.
      max_id.store(next_id, std::memory_order_release);
      index.Insert(id, RandomVec(wrng));
      live.push_back(id);
    } else if (r < 0.97) {
      size_t pick = wrng.Index(live.size());
      ASSERT_TRUE(index.Delete(live[pick]));
      live[pick] = live.back();
      live.pop_back();
    } else if (r < 0.985) {
      index.SealMemtable();
    } else {
      index.CompactSegments();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }

  // The maintenance machinery actually ran.
  MutableIndexStats stats = index.stats();
  EXPECT_GT(stats.seals, 0u);
  EXPECT_GT(stats.retrains + stats.compactions, 0u);
  EXPECT_EQ(stats.live_rows, live.size());

  // Quiesced: the final state still matches an exact rebuild.
  std::shared_ptr<const MutableEpoch> epoch = index.PinEpoch();
  FlatL2Index ref = EpochReference(index, *epoch);
  Rng qrng(0xF00D);
  for (int i = 0; i < 5; ++i) {
    Embedding q = RandomVec(qrng);
    ExpectBitEqual(index.SearchPinned(*epoch, q, kTopK, FullProbe()),
                   ref.Search(q, kTopK, RetrievalQuality{}));
  }
}

// A pinned epoch is immortal: hundreds of later mutations (including retrain,
// which swaps the base out from under it) never change its answers.
TEST(MutableIndexStressTest, PinnedEpochSurvivesLaterMutations) {
  RetrievalIndexOptions opt;
  opt.backend = RetrievalIndexOptions::Backend::kIvf;
  opt.nlist = 4;
  opt.nprobe = 2;
  opt.mutable_index = true;
  opt.mutation.memtable_rows = 16;
  opt.mutation.compact_segments = 2;
  MutableIndex index(kDim, opt);
  Rng rng(42);
  ChunkId next_id = 0;
  for (int i = 0; i < 80; ++i) {
    index.Add(next_id++, RandomVec(rng));
  }
  index.Finalize();

  std::shared_ptr<const MutableEpoch> pinned = index.PinEpoch();
  Embedding q = RandomVec(rng);
  std::vector<SearchHit> before = index.SearchPinned(*pinned, q, kTopK, FullProbe());

  for (int op = 0; op < 300; ++op) {
    if (op % 3 == 0 && next_id > 5) {
      index.Delete(static_cast<ChunkId>(op % next_id));
    } else {
      index.Insert(next_id++, RandomVec(rng));
    }
  }
  index.RetrainBase();
  ExpectBitEqual(index.SearchPinned(*pinned, q, kTopK, FullProbe()), before);
  EXPECT_GT(index.stats().retrains, 0u);
}

}  // namespace
}  // namespace metis
