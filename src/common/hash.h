// Shared hash-mixing primitives.
//
// The Packet-in hot path hashes the canonical flow tuple twice: once for
// the per-shard decision cache (core/decision_cache.h) and once to pick the
// PCP shard a flow is routed to (core/pcp_shard_pool.h). Both uses need the
// same property — cheap, well-distributed 64-bit mixing — so the finalizer
// lives here rather than being re-derived per call site. Shard routing in
// particular depends on high-entropy low bits (the shard id is `hash %
// shards`), which the raw tuple fields do not provide. Names are hashed by
// one byte-string hash, shared by the interner (common/intern.h) and the
// policy classifier's keys (core/policy_index.h).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dfi {

// splitmix64 finalizer: cheap, well-distributed mixing for hash combining.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Hash of a byte string (names): FNV-1a 64, finalized with a xor-shift so
// low bits carry entropy for power-of-two table masks.
inline std::uint64_t hash_bytes(const char* data, std::size_t len) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;
  }
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 32);
}

// Fold `value` into an accumulated hash.
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  return seed ^ (mix64(value) + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

}  // namespace dfi
