// Paged KV-cache manager (PagedAttention-style block allocator).
//
// The GPU's KV pool is divided into fixed-size token blocks. Each running
// request owns a chain of blocks covering its prompt + generated tokens.
// Prefix sharing lets requests in the same prefix group alias the blocks that
// hold their shared instruction prefix (refcounted), which is how the Parrot*
// baseline and METIS save both prefill compute and memory on sibling calls.
//
// Prefix LRU retention (cross-query KV reuse): with ReleasePrefixRetained,
// a prefix whose last reference drops is parked on a retained list instead of
// freed — its blocks stay resident (counted as used, but reclaimable) so a
// later request in the same group revives it and skips the shared prefill.
// Retained prefixes are evicted oldest-release-first whenever an allocation
// needs the room, and ExpireRetained frees the ones older than the engine's
// grace window. A manager that only ever uses ReleasePrefix (the eager path)
// never parks anything and behaves bit-identically to the pre-retention code.

#ifndef METIS_SRC_LLM_KV_CACHE_H_
#define METIS_SRC_LLM_KV_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace metis {

class KvCacheManager {
 public:
  // pool_bytes: KV budget (GPU memory after weights); block_tokens: tokens per
  // block; kv_bytes_per_token: from the model spec.
  KvCacheManager(double pool_bytes, int block_tokens, double kv_bytes_per_token);

  // Number of whole blocks needed to hold `tokens` tokens.
  int64_t BlocksForTokens(int64_t tokens) const;

  // Bytes that `tokens` tokens occupy after block rounding.
  double BytesForTokens(int64_t tokens) const;

  int64_t total_blocks() const { return total_blocks_; }
  int64_t free_blocks() const { return total_blocks_ - used_blocks_; }
  double free_bytes() const { return static_cast<double>(free_blocks()) * block_bytes_; }
  double total_bytes() const { return static_cast<double>(total_blocks_) * block_bytes_; }
  int block_tokens() const { return block_tokens_; }

  // Reserves blocks for `tokens` tokens for request `req`. Returns false
  // (without side effects) if the pool cannot satisfy the reservation even
  // after evicting every retained prefix.
  bool Allocate(uint64_t req, int64_t tokens);

  // Releases everything owned by `req` (no-op if unknown).
  void Free(uint64_t req);

  // --- Prefix sharing ---
  // Acquires the shared prefix of `group` covering `tokens` tokens. The first
  // caller pays the blocks; later callers just bump the refcount, and a
  // retained (refs==0, still resident) prefix is revived off the LRU list.
  // Returns the number of *newly allocated* blocks (0 on a cache hit), or -1
  // if the pool is out of space.
  int64_t AcquirePrefix(uint64_t group, int64_t tokens);
  // Drops one reference; frees the blocks when the last reference goes away.
  void ReleasePrefix(uint64_t group);
  // Drops one reference; at refcount zero the blocks are PARKED (retained,
  // reclaimable) instead of freed, stamped with `now` for ExpireRetained.
  void ReleasePrefixRetained(uint64_t group, double now);
  // Frees every retained prefix released at or before `cutoff` (the engine
  // calls this each step with now - grace_window).
  void ExpireRetained(double cutoff);
  // True if the group's prefix is resident — referenced OR retained; either
  // way an admission in this group skips the shared prefill.
  bool PrefixResident(uint64_t group) const;
  // True if the group's prefix is resident with zero references (parked).
  bool PrefixRetained(uint64_t group) const;

  // Observability.
  int64_t used_blocks() const { return used_blocks_; }
  size_t live_requests() const { return owned_.size(); }
  // Blocks/bytes held by retained (refs==0) prefixes. They count as used but
  // are reclaimable on demand, so "obtainable" headroom = free + retained.
  int64_t retained_blocks() const { return retained_blocks_; }
  double retained_bytes() const { return static_cast<double>(retained_blocks_) * block_bytes_; }
  uint64_t retained_evictions() const { return retained_evictions_; }
  uint64_t retained_expirations() const { return retained_expirations_; }
  uint64_t retained_revivals() const { return retained_revivals_; }

 private:
  // Evicts retained prefixes (oldest release first) until `blocks` fit in
  // free_blocks() or nothing retained is left.
  void EvictRetainedFor(int64_t blocks);
  void DropRetained(uint64_t group);

  int block_tokens_;
  double block_bytes_;
  int64_t total_blocks_;
  int64_t used_blocks_ = 0;

  struct Owned {
    int64_t tokens = 0;
    int64_t blocks = 0;
  };
  std::unordered_map<uint64_t, Owned> owned_;

  struct Prefix {
    int64_t blocks = 0;
    int refs = 0;
    uint64_t retained_seq = 0;  // Nonzero while parked on the retained list.
    double released_at = 0;     // Stamp of the release that parked it.
  };
  std::unordered_map<uint64_t, Prefix> prefixes_;

  // Release-order index over parked prefixes: seq -> group. Monotone seq
  // makes LRU eviction and expiry deterministic (release order == time order
  // under a monotone clock).
  std::map<uint64_t, uint64_t> retained_;
  int64_t retained_blocks_ = 0;
  uint64_t retained_seq_counter_ = 0;
  uint64_t retained_evictions_ = 0;
  uint64_t retained_expirations_ = 0;
  uint64_t retained_revivals_ = 0;
};

}  // namespace metis

#endif  // METIS_SRC_LLM_KV_CACHE_H_
