#include "src/llm/kv_cache.h"

#include <cmath>

#include "src/common/check.h"

namespace metis {

KvCacheManager::KvCacheManager(double pool_bytes, int block_tokens, double kv_bytes_per_token)
    : block_tokens_(block_tokens),
      block_bytes_(static_cast<double>(block_tokens) * kv_bytes_per_token) {
  METIS_CHECK_GT(block_tokens, 0);
  METIS_CHECK_GT(kv_bytes_per_token, 0.0);
  METIS_CHECK_GT(pool_bytes, 0.0);
  total_blocks_ = static_cast<int64_t>(pool_bytes / block_bytes_);
  METIS_CHECK_GT(total_blocks_, 0);
}

int64_t KvCacheManager::BlocksForTokens(int64_t tokens) const {
  METIS_CHECK_GE(tokens, 0);
  return (tokens + block_tokens_ - 1) / block_tokens_;
}

double KvCacheManager::BytesForTokens(int64_t tokens) const {
  return static_cast<double>(BlocksForTokens(tokens)) * block_bytes_;
}

void KvCacheManager::DropRetained(uint64_t group) {
  auto it = prefixes_.find(group);
  METIS_CHECK(it != prefixes_.end());
  METIS_CHECK_EQ(it->second.refs, 0);
  METIS_CHECK_GT(it->second.retained_seq, 0ull);
  retained_.erase(it->second.retained_seq);
  retained_blocks_ -= it->second.blocks;
  used_blocks_ -= it->second.blocks;
  METIS_CHECK_GE(retained_blocks_, 0);
  METIS_CHECK_GE(used_blocks_, 0);
  prefixes_.erase(it);
}

void KvCacheManager::EvictRetainedFor(int64_t blocks) {
  while (blocks > free_blocks() && !retained_.empty()) {
    uint64_t victim = retained_.begin()->second;  // Oldest release first.
    DropRetained(victim);
    ++retained_evictions_;
  }
}

bool KvCacheManager::Allocate(uint64_t req, int64_t tokens) {
  METIS_CHECK(owned_.find(req) == owned_.end());
  int64_t blocks = BlocksForTokens(tokens);
  if (blocks > free_blocks()) {
    EvictRetainedFor(blocks);
  }
  if (blocks > free_blocks()) {
    return false;
  }
  used_blocks_ += blocks;
  owned_[req] = Owned{tokens, blocks};
  return true;
}

void KvCacheManager::Free(uint64_t req) {
  auto it = owned_.find(req);
  if (it == owned_.end()) {
    return;
  }
  used_blocks_ -= it->second.blocks;
  METIS_CHECK_GE(used_blocks_, 0);
  owned_.erase(it);
}

int64_t KvCacheManager::AcquirePrefix(uint64_t group, int64_t tokens) {
  auto it = prefixes_.find(group);
  if (it != prefixes_.end()) {
    if (it->second.refs > 0) {
      ++it->second.refs;
      return 0;
    }
    // Parked on the retained list: revive in place — blocks already resident.
    retained_.erase(it->second.retained_seq);
    retained_blocks_ -= it->second.blocks;
    METIS_CHECK_GE(retained_blocks_, 0);
    it->second.retained_seq = 0;
    it->second.refs = 1;
    ++retained_revivals_;
    return 0;
  }
  int64_t blocks = BlocksForTokens(tokens);
  if (blocks > free_blocks()) {
    EvictRetainedFor(blocks);
  }
  if (blocks > free_blocks()) {
    return -1;
  }
  used_blocks_ += blocks;
  prefixes_[group] = Prefix{blocks, 1, 0, 0};
  return blocks;
}

void KvCacheManager::ReleasePrefix(uint64_t group) {
  auto it = prefixes_.find(group);
  METIS_CHECK(it != prefixes_.end());
  METIS_CHECK_GT(it->second.refs, 0);
  if (--it->second.refs == 0) {
    used_blocks_ -= it->second.blocks;
    METIS_CHECK_GE(used_blocks_, 0);
    prefixes_.erase(it);
  }
}

void KvCacheManager::ReleasePrefixRetained(uint64_t group, double now) {
  auto it = prefixes_.find(group);
  METIS_CHECK(it != prefixes_.end());
  METIS_CHECK_GT(it->second.refs, 0);
  if (--it->second.refs == 0) {
    it->second.retained_seq = ++retained_seq_counter_;
    it->second.released_at = now;
    retained_[it->second.retained_seq] = group;
    retained_blocks_ += it->second.blocks;  // Still counted in used_blocks_.
  }
}

void KvCacheManager::ExpireRetained(double cutoff) {
  // Seq order is release order, which is time order under the monotone sim
  // clock, so expiry can stop at the first survivor.
  while (!retained_.empty()) {
    uint64_t group = retained_.begin()->second;
    auto it = prefixes_.find(group);
    METIS_CHECK(it != prefixes_.end());
    if (it->second.released_at > cutoff) {
      break;
    }
    DropRetained(group);
    ++retained_expirations_;
  }
}

bool KvCacheManager::PrefixResident(uint64_t group) const {
  // Referenced or retained: either way the prefix KV is on the GPU and an
  // admission in this group skips the shared prefill.
  return prefixes_.find(group) != prefixes_.end();
}

bool KvCacheManager::PrefixRetained(uint64_t group) const {
  auto it = prefixes_.find(group);
  return it != prefixes_.end() && it->second.refs == 0;
}

}  // namespace metis
