// Unit tests for the arena interner (common/intern.h): id stability,
// per-kind namespace isolation, rehash behavior under volume, and the
// concurrent-reader contract (exercised under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/intern.h"

namespace dfi {
namespace {

TEST(StringInterner, DenseStableIds) {
  StringInterner interner;
  const EntityId a = interner.intern("alice");
  const EntityId b = interner.intern("bob");
  EXPECT_EQ(a.value, 0u);
  EXPECT_EQ(b.value, 1u);
  // Re-interning returns the same id forever.
  EXPECT_EQ(interner.intern("alice"), a);
  EXPECT_EQ(interner.intern("bob"), b);
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(interner.view(a), "alice");
  EXPECT_EQ(interner.view(b), "bob");
}

TEST(StringInterner, FindWithoutInterning) {
  StringInterner interner;
  EXPECT_FALSE(interner.find("ghost").valid());
  const EntityId id = interner.intern("ghost");
  EXPECT_EQ(interner.find("ghost"), id);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(StringInterner, EmptyStringIsAnEntity) {
  StringInterner interner;
  const EntityId id = interner.intern("");
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(interner.view(id), "");
  EXPECT_EQ(interner.find(""), id);
}

TEST(StringInterner, ViewsSurviveArenaAndTableGrowth) {
  StringInterner interner;
  const EntityId first = interner.intern("user0000000");
  const std::string_view first_view = interner.view(first);
  const char* first_data = first_view.data();
  // Push far past the initial 1024-slot table and across several 64KB
  // arena blocks; the first entry's character data must never move.
  for (int i = 1; i < 50000; ++i) {
    interner.intern("user" + std::to_string(i));
  }
  EXPECT_EQ(interner.view(first).data(), first_data);
  EXPECT_EQ(interner.view(first), "user0000000");
  EXPECT_EQ(interner.find("user0000000"), first);
}

TEST(StringInterner, IdsStayDenseAndDistinctAtVolume) {
  // Rehash/collision soak: 1M+ distinct strings, ids must come out 0..N-1
  // in interning order and every lookup must still land on its own id.
  constexpr std::uint32_t kCount = 1u << 20;  // 1,048,576
  StringInterner interner;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    const EntityId id = interner.intern("entity-" + std::to_string(i));
    ASSERT_EQ(id.value, i);
  }
  EXPECT_EQ(interner.size(), kCount);
  // Spot-check across the range (full re-find of 1M strings is covered by
  // the interning loop above — intern() re-finds before assigning).
  for (std::uint32_t i = 0; i < kCount; i += 4097) {
    ASSERT_EQ(interner.find("entity-" + std::to_string(i)).value, i);
    ASSERT_EQ(interner.view(EntityId{i}), "entity-" + std::to_string(i));
  }
}

TEST(ValueInterner, DenseStableIdsIncludingZeroKey) {
  ValueInterner interner;
  const EntityId zero = interner.intern(0);  // 0.0.0.0 / all-zero MAC
  const EntityId one = interner.intern(1);
  EXPECT_EQ(zero.value, 0u);
  EXPECT_EQ(one.value, 1u);
  EXPECT_EQ(interner.intern(0), zero);
  EXPECT_EQ(interner.key(zero), 0u);
  EXPECT_EQ(interner.key(one), 1u);
  EXPECT_FALSE(interner.find(2).valid());
}

TEST(ValueInterner, VolumeRehash) {
  constexpr std::uint32_t kCount = 1u << 18;
  ValueInterner interner;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(interner.intern(0xa0000000ull + i).value, i);
  }
  for (std::uint32_t i = 0; i < kCount; i += 1009) {
    ASSERT_EQ(interner.find(0xa0000000ull + i).value, i);
    ASSERT_EQ(interner.key(EntityId{i}), 0xa0000000ull + i);
  }
}

TEST(EntityInterner, NamespacesAreIsolated) {
  EntityInterner interner;
  const EntityId user = interner.users().intern("alice");
  const EntityId host = interner.hosts().intern("alice");
  // Same spelling, unrelated namespaces: both get id 0 of their own kind.
  EXPECT_EQ(user.value, 0u);
  EXPECT_EQ(host.value, 0u);
  interner.users().intern("bob");
  EXPECT_EQ(interner.users().size(), 2u);
  EXPECT_EQ(interner.hosts().size(), 1u);
  // IP and MAC namespaces are independent of each other too.
  EXPECT_EQ(interner.ips().intern(42).value, 0u);
  EXPECT_EQ(interner.macs().intern(42).value, 0u);
}

// Single-writer / multi-reader soak (the TSan target): readers resolve ids
// collected before they start through view() while the writer keeps
// interning — across arena and table growth — and every answer a reader
// gets must be correct.
TEST(StringInterner, ConcurrentReadersDuringGrowth) {
  constexpr std::uint32_t kPrefill = 2000;
  constexpr std::uint32_t kTotal = 60000;
  StringInterner interner;
  std::vector<EntityId> ids;
  for (std::uint32_t i = 0; i < kPrefill; ++i) {
    ids.push_back(interner.intern("name-" + std::to_string(i)));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::uint32_t i = static_cast<std::uint32_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint32_t k = i % kPrefill;
        EXPECT_EQ(interner.view(ids[k]), "name-" + std::to_string(k));
        ++i;
      }
    });
  }
  for (std::uint32_t i = kPrefill; i < kTotal; ++i) {
    interner.intern("name-" + std::to_string(i));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(interner.size(), kTotal);
}

}  // namespace
}  // namespace dfi
