// Unit tests for src/common: RNG, time, Result/Status, logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "common/cow_table.h"
#include "common/frame_buffer_pool.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/types.h"

namespace dfi {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, LognormalMatchesTargetMoments) {
  Rng rng(12);
  // Paper Table II binding-query parameters.
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.lognormal_from_moments(2.41, 0.97);
    EXPECT_GT(x, 0.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double sd = std::sqrt(sq / n - mean * mean);
  EXPECT_NEAR(mean, 2.41, 0.05);
  EXPECT_NEAR(sd, 0.97, 0.05);
}

TEST(Rng, ExponentialMeanApproximate) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(14);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  std::vector<int> shuffled = items;
  rng.shuffle(shuffled);
  EXPECT_FALSE(std::equal(items.begin(), items.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(items, shuffled);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(15);
  Rng forked = a.fork();
  EXPECT_NE(a.next_u64(), forked.next_u64());
}

TEST(Rng, ChanceExtremes) {
  Rng rng(16);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(SimTime, ArithmeticAndComparison) {
  const SimTime t0{};
  const SimTime t1 = t0 + seconds(1.5);
  EXPECT_EQ(t1.us, 1500000);
  EXPECT_EQ((t1 - t0).to_ms(), 1500.0);
  EXPECT_LT(t0, t1);
  EXPECT_EQ(t1 - seconds(1.5), t0);
}

TEST(SimTime, ClockTimeAndFormat) {
  EXPECT_EQ(format_clock(clock_time(9, 30)), "09:30:00");
  EXPECT_EQ(format_clock(clock_time(0, 0)), "00:00:00");
  EXPECT_EQ(format_clock(clock_time(23, 59) + seconds(59)), "23:59:59");
}

TEST(SimTime, FormatDurationPicksUnits) {
  EXPECT_EQ(format_duration(microseconds(500)), "500us");
  EXPECT_EQ(format_duration(milliseconds(12.34)), "12.34ms");
  EXPECT_EQ(format_duration(seconds(2.5)), "2.50s");
}

TEST(SimTime, HoursMinutesComposition) {
  EXPECT_EQ((hours(1)).us, 3600000000LL);
  EXPECT_EQ((minutes(3)).us, 180000000LL);
  EXPECT_EQ(clock_time(10).us, (hours(10)).us);
}

TEST(Result, OkAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.value_or(7), 42);

  auto fail = Result<int>::Fail(ErrorCode::kNotFound, "missing");
  EXPECT_FALSE(fail.ok());
  EXPECT_EQ(fail.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(fail.value_or(7), 7);
  EXPECT_FALSE(fail.status().ok());
}

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.to_string(), "OK");

  const Status failed = Status::Fail(ErrorCode::kOverloaded, "queue full");
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.to_string().find("overloaded"), std::string::npos);
}

TEST(Logging, RespectsLevelAndSink) {
  std::vector<std::string> lines;
  Logger::instance().set_sink(
      [&lines](LogLevel, const std::string& message) { lines.push_back(message); });
  Logger::instance().set_level(LogLevel::kWarn);
  DFI_INFO << "hidden";
  DFI_WARN << "visible " << 42;
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "visible 42");
  Logger::instance().set_level(LogLevel::kOff);
  DFI_ERROR << "also hidden";
  EXPECT_EQ(lines.size(), 1u);
  Logger::instance().set_level(LogLevel::kWarn);
}

TEST(Types, StrongTypeComparisons) {
  EXPECT_EQ(Dpid{1}, Dpid{1});
  EXPECT_LT(Dpid{1}, Dpid{2});
  EXPECT_NE(PortNo{1}, PortNo{2});
  EXPECT_EQ(to_string(kPortFlood), "port:FLOOD");
  EXPECT_EQ(to_string(Cookie{9}), "cookie:9");
}

TEST(FrameBufferPool, ReusesCapacityAfterRelease) {
  FrameBufferPool pool;
  auto first = pool.acquire();
  first.resize(1500);
  const std::uint8_t* slab = first.data();
  const std::size_t capacity = first.capacity();
  pool.release(std::move(first));

  auto second = pool.acquire();
  EXPECT_TRUE(second.empty());          // cleared...
  EXPECT_EQ(second.capacity(), capacity);  // ...but capacity survives
  EXPECT_EQ(second.data(), slab);       // same slab, no allocation
  pool.release(std::move(second));

  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.allocations, 1u);
  EXPECT_EQ(stats.releases, 2u);
  EXPECT_EQ(stats.free_buffers, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(FrameBufferPool, AcquireCopyFillsBuffer) {
  FrameBufferPool pool;
  const std::uint8_t bytes[] = {1, 2, 3, 4};
  auto buffer = pool.acquire_copy(bytes, sizeof(bytes));
  EXPECT_EQ(buffer, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  pool.release(std::move(buffer));
  auto again = pool.acquire_copy(bytes, 2);
  EXPECT_EQ(again, (std::vector<std::uint8_t>{1, 2}));
  EXPECT_EQ(pool.stats().reuses, 1u);
}

TEST(FrameBufferPool, MaxFreeBoundsRetainedSlab) {
  FrameBufferPool pool(/*max_free=*/2);
  std::vector<std::vector<std::uint8_t>> held;
  for (int i = 0; i < 5; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.in_use(), 5u);
  EXPECT_EQ(pool.stats().peak_in_use, 5u);
  for (auto& buffer : held) pool.release(std::move(buffer));
  EXPECT_EQ(pool.in_use(), 0u);
  // Releases past max_free simply free the buffer.
  EXPECT_EQ(pool.stats().free_buffers, 2u);
  EXPECT_EQ(pool.stats().releases, 5u);
}

// Copy-on-write maps against std::map oracles. Random writes and erases
// over enough keys to split and fold trie nodes and to empty radix leaves;
// a write to a present key replaces its value. Copies taken after a
// generation bump (a publication) are held and must keep their contents
// through every later write to the live map. Sparse keys are spread over
// all 64 bits by a multiplier; dense keys are the ids 0..key_space, drawn
// from a range that grows with the step as an interner issues them, so the
// tree grows in height while copies are held.
template <typename Map, typename Write>
void run_cow_map_oracle(std::uint64_t seed, std::int64_t key_space, bool dense,
                        Write write) {
  using Model = std::map<std::uint64_t, int>;
  Rng rng(seed);
  Map live;
  Model model;
  std::vector<std::pair<Map, Model>> held;
  std::uint64_t generation = 0;
  CowTableStats stats;
  const auto key_of = [dense](std::int64_t k) {
    return static_cast<std::uint64_t>(k) * (dense ? 1 : 0x9e3779b97f4a7c15ull);
  };
  const auto check = [&](const Map& map, const Model& expect) {
    for (std::int64_t k = 0; k <= key_space; ++k) {
      const std::uint64_t key = key_of(k);
      const auto* found = map.find(key);
      const auto it = expect.find(key);
      ASSERT_EQ(found != nullptr, it != expect.end()) << "key " << k;
      if (found != nullptr) {
        EXPECT_EQ(**found, it->second);
      }
    }
    std::size_t visited = 0;
    map.for_each([&](const auto&) { ++visited; });
    EXPECT_EQ(visited, expect.size());
    if constexpr (requires { map.size(); }) {
      EXPECT_EQ(map.size(), expect.size());
    }
  };
  std::uint64_t replaced = 0;
  for (int step = 0; step < 3000; ++step) {
    const std::int64_t issued =
        dense ? std::min<std::int64_t>(key_space, step / 2) : key_space;
    const std::uint64_t key = key_of(rng.uniform_int(0, issued));
    if (rng.chance(0.55)) {
      write(live, key, step, generation, stats);
      replaced += model.count(key);
      model[key] = step;
    } else {
      EXPECT_EQ(live.erase(key, generation, stats), model.erase(key) == 1);
    }
    if (step % 97 == 0) {
      ++generation;
      held.emplace_back(live, model);
      if (held.size() > 4) held.erase(held.begin());
    }
    if (step % 211 == 0) {
      check(live, model);
      for (const auto& [map, expect] : held) check(map, expect);
    }
  }
  EXPECT_GT(replaced, 0u);
  EXPECT_GT(stats.page_copies, 0u);
}

TEST(CowHashMap, HeldCopiesKeepTheirContentsUnderChurn) {
  run_cow_map_oracle<CowHashMap<std::shared_ptr<int>>>(
      11, 1500, /*dense=*/false,
      [](auto& map, std::uint64_t key, int value, std::uint64_t generation,
         CowTableStats& stats) {
        map.mutate(key, generation, stats) = std::make_shared<int>(value);
      });
}

const auto radix_assign = [](auto& map, std::uint64_t key, int value,
                             std::uint64_t generation, CowTableStats& stats) {
  map.assign(key, std::make_shared<int>(value), generation, stats);
};

TEST(CowRadixMap, HeldCopiesKeepTheirContentsUnderChurn) {
  // The multiplier wraps the keys over the full 64 bits, so the tree
  // reaches its full height too.
  run_cow_map_oracle<CowRadixMap<std::shared_ptr<int>>>(12, 1500, /*dense=*/false,
                                                        radix_assign);
}

TEST(CowRadixMap, DenseAscendingIdsKeepHeldContentsUnderChurn) {
  // The ERM's key pattern: entity ids, issued densely from 0 upward. 1500
  // ids need two inner levels, so held copies see the root grow.
  run_cow_map_oracle<CowRadixMap<std::shared_ptr<int>>>(13, 1500, /*dense=*/true,
                                                        radix_assign);
}

}  // namespace
}  // namespace dfi
