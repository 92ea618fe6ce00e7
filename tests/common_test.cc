#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/flat_hash_map.h"
#include "common/interval.h"
#include "common/rng.h"
#include "common/slab_map.h"
#include "common/small_vector.h"
#include "common/spsc_queue.h"
#include "common/status.h"

namespace leopard {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Aborted("lock conflict");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_EQ(s.message(), "lock conflict");
  EXPECT_EQ(s.ToString(), "ABORTED: lock conflict");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(IntervalTest, CertainlyBeforeIsStrict) {
  TimeInterval a(0, 10), b(11, 20), c(10, 20);
  EXPECT_TRUE(CertainlyBefore(a, b));
  EXPECT_FALSE(CertainlyBefore(a, c));  // touching endpoints overlap
  EXPECT_FALSE(CertainlyBefore(b, a));
}

TEST(IntervalTest, OverlapCases) {
  // The three cases of Fig. 3: disjoint, partially overlapping, contained.
  EXPECT_FALSE(Overlaps({0, 5}, {6, 10}));
  EXPECT_TRUE(Overlaps({0, 7}, {5, 10}));
  EXPECT_TRUE(Overlaps({0, 20}, {5, 10}));
  EXPECT_TRUE(Overlaps({5, 10}, {0, 20}));
}

TEST(IntervalTest, PossiblyBefore) {
  EXPECT_TRUE(PossiblyBefore({0, 10}, {5, 20}));
  EXPECT_TRUE(PossiblyBefore({0, 10}, {15, 20}));
  EXPECT_FALSE(PossiblyBefore({15, 20}, {0, 10}));
  // Same interval: some point of one may precede some point of the other.
  EXPECT_TRUE(PossiblyBefore({5, 10}, {5, 10}));
}

TEST(ClockTest, MonotonicStrictlyIncreasing) {
  MonotonicClock clock;
  Timestamp last = 0;
  for (int i = 0; i < 1000; ++i) {
    Timestamp t = clock.Now();
    EXPECT_GT(t, last);
    last = t;
  }
}

TEST(ClockTest, MonotonicAcrossThreads) {
  MonotonicClock clock;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<Timestamp>> seen(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&clock, &seen, t] {
      for (int i = 0; i < kPerThread; ++i) seen[t].push_back(clock.Now());
    });
  }
  for (auto& th : threads) th.join();
  std::set<Timestamp> all;
  for (const auto& v : seen) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), 4u * kPerThread);  // no duplicates ever handed out
}

TEST(ClockTest, VirtualClockAdvances) {
  VirtualClock clock;
  Timestamp a = clock.Now();
  Timestamp b = clock.Now();
  EXPECT_GT(b, a);
  clock.AdvanceTo(1000);
  EXPECT_GE(clock.Now(), 1000u);
}

TEST(ClockTest, SkewedClockShifts) {
  VirtualClock base;
  base.AdvanceTo(1000);
  SkewedClock late(&base, 500);
  SkewedClock early(&base, -500);
  EXPECT_GE(late.Now(), 1500u);
  EXPECT_LE(early.Now(), 600u);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(ZipfianTest, UniformWhenThetaZero) {
  ZipfianGenerator zipf(100, 0.0);
  Rng rng(3);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next(rng)];
  for (int c : counts) EXPECT_GT(c, 500);  // roughly uniform (expect ~1000)
}

TEST(ZipfianTest, SkewConcentratesMass) {
  ZipfianGenerator zipf(1000, 0.9);
  Rng rng(4);
  std::vector<uint64_t> counts(1000, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.Next(rng)];
  std::sort(counts.rbegin(), counts.rend());
  uint64_t top10 = 0;
  for (int i = 0; i < 10; ++i) top10 += counts[i];
  // Under theta=0.9, the hottest 1% of keys draw a large share of accesses.
  EXPECT_GT(top10, kDraws / 4u);
}

TEST(ZipfianTest, AllKeysInRange) {
  ZipfianGenerator zipf(50, 0.99);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Next(rng), 50u);
}

TEST(FlatHashMapTest, BasicInsertFindErase) {
  FlatHashMap<uint64_t, std::string> map;
  EXPECT_TRUE(map.empty());
  map[1] = "one";
  map[2] = "two";
  auto [it, inserted] = map.try_emplace(3);
  EXPECT_TRUE(inserted);
  it->second = "three";
  EXPECT_FALSE(map.try_emplace(3).second);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_TRUE(map.contains(2));
  EXPECT_EQ(map.find(1)->second, "one");
  EXPECT_EQ(map.find(99), map.end());
  EXPECT_EQ(map.erase(2), 1u);
  EXPECT_EQ(map.erase(2), 0u);
  EXPECT_FALSE(map.contains(2));
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatHashMapTest, GrowthPreservesEntries) {
  FlatHashMap<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 10000; ++i) map[i] = i * 7;
  EXPECT_GT(map.rehash_count(), 0u);
  EXPECT_EQ(map.size(), 10000u);
  for (uint64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(map.contains(i)) << i;
    EXPECT_EQ(map[i], i * 7);
  }
  EXPECT_GT(map.MemoryBytes(), 10000 * sizeof(uint64_t));
}

TEST(FlatHashMapTest, ClearAndIteration) {
  FlatHashMap<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 100; ++i) map[i] = i;
  uint64_t sum = 0;
  size_t seen = 0;
  for (const auto& slot : map) {
    sum += slot.second;
    ++seen;
  }
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(sum, 99u * 100u / 2);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.begin(), map.end());
  map[5] = 55;  // usable after clear
  EXPECT_EQ(map.find(5)->second, 55u);
}

TEST(FlatHashMapTest, RandomizedAgainstStdUnorderedMap) {
  // Drive both maps with the same random insert/erase/lookup stream; any
  // divergence in membership, value, or size is a bug in the probing or
  // the backward-shift deletion.
  Rng rng(20260807);
  FlatHashMap<uint64_t, uint64_t> flat;
  std::unordered_map<uint64_t, uint64_t> ref;
  for (int step = 0; step < 60000; ++step) {
    uint64_t key = rng.Uniform(512);  // small space: heavy collisions/reuse
    uint32_t op = static_cast<uint32_t>(rng.Uniform(10));
    if (op < 5) {
      uint64_t value = rng.Next();
      flat[key] = value;
      ref[key] = value;
    } else if (op < 8) {
      EXPECT_EQ(flat.erase(key), ref.erase(key)) << "step " << step;
    } else {
      auto fit = flat.find(key);
      auto rit = ref.find(key);
      ASSERT_EQ(fit == flat.end(), rit == ref.end()) << "step " << step;
      if (rit != ref.end()) EXPECT_EQ(fit->second, rit->second);
    }
    ASSERT_EQ(flat.size(), ref.size()) << "step " << step;
  }
  // Full sweep: iteration visits exactly the reference's entries.
  size_t visited = 0;
  for (const auto& slot : flat) {
    auto rit = ref.find(slot.first);
    ASSERT_NE(rit, ref.end());
    EXPECT_EQ(slot.second, rit->second);
    ++visited;
  }
  EXPECT_EQ(visited, ref.size());
}

TEST(SmallVectorTest, InlineToHeapTransition) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.HeapBytes(), 0u);  // still inline
  v.push_back(4);                // spills
  EXPECT_GT(v.HeapBytes(), 0u);
  ASSERT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVectorTest, EraseAndPopPreserveOrder) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 6; ++i) v.push_back(i);
  v.erase(v.begin() + 2);  // drop 2
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[2], 3);
  v.pop_back();
  EXPECT_EQ(v.back(), 4);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(SmallVectorTest, MoveStealsHeapAndCopiesInline) {
  SmallVector<std::string, 2> inline_v;
  inline_v.push_back("a");
  SmallVector<std::string, 2> from_inline(std::move(inline_v));
  ASSERT_EQ(from_inline.size(), 1u);
  EXPECT_EQ(from_inline[0], "a");

  SmallVector<std::string, 2> heap_v;
  for (int i = 0; i < 8; ++i) heap_v.push_back(std::to_string(i));
  SmallVector<std::string, 2> from_heap(std::move(heap_v));
  ASSERT_EQ(from_heap.size(), 8u);
  EXPECT_EQ(from_heap[7], "7");
}

TEST(SlabMapTest, BasicAndFreeListReuse) {
  SlabMap<uint64_t, std::string> map;
  map[1] = "one";
  map[2] = "two";
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(*map.Lookup(1), "one");
  EXPECT_EQ(map.Lookup(9), nullptr);
  EXPECT_EQ(map.erase(1), 1u);
  size_t bytes_before = map.MemoryBytes();
  map[3] = "three";  // recycles the freed cell: slab does not grow
  EXPECT_EQ(map.MemoryBytes(), bytes_before);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(*map.Lookup(3), "three");
  EXPECT_EQ(map.Lookup(1), nullptr);
}

TEST(SlabMapTest, PointersStableAcrossErase) {
  SlabMap<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 64; ++i) map[i] = i * 2;
  uint64_t* p42 = map.Lookup(42);
  ASSERT_NE(p42, nullptr);
  for (uint64_t i = 0; i < 64; ++i) {
    if (i != 42) map.erase(i);
  }
  EXPECT_EQ(*p42, 84u);  // cell never moved
  EXPECT_EQ(map.size(), 1u);
}

TEST(SlabMapTest, RandomizedAgainstStdUnorderedMap) {
  Rng rng(77);
  SlabMap<uint64_t, uint64_t> slab;
  std::unordered_map<uint64_t, uint64_t> ref;
  for (int step = 0; step < 40000; ++step) {
    uint64_t key = rng.Uniform(256);
    uint32_t op = static_cast<uint32_t>(rng.Uniform(10));
    if (op < 5) {
      uint64_t value = rng.Next();
      slab[key] = value;
      ref[key] = value;
    } else if (op < 8) {
      EXPECT_EQ(slab.erase(key), ref.erase(key)) << "step " << step;
    } else {
      uint64_t* found = slab.Lookup(key);
      auto rit = ref.find(key);
      ASSERT_EQ(found == nullptr, rit == ref.end()) << "step " << step;
      if (found != nullptr) EXPECT_EQ(*found, rit->second);
    }
    ASSERT_EQ(slab.size(), ref.size()) << "step " << step;
  }
  size_t visited = 0;
  for (const auto& [key, value] : slab) {
    auto rit = ref.find(key);
    ASSERT_NE(rit, ref.end());
    EXPECT_EQ(value, rit->second);
    ++visited;
  }
  EXPECT_EQ(visited, ref.size());
}

double ThreadCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

// A producer blocked on a full ring sleeps instead of spinning: 200 ms of
// waiting must cost it almost no CPU, and it must still wake once the
// consumer frees space.
TEST(SpscQueueTest, ProducerBlockedOnFullRingSleeps) {
  SpscQueue<int> q(8);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(q.Push(i));
  std::atomic<bool> pushed{false};
  double blocked_cpu_ms = -1;
  std::thread producer([&] {
    const double before = ThreadCpuMs();
    EXPECT_TRUE(q.Push(8));  // full ring: blocks until the consumer pops
    blocked_cpu_ms = ThreadCpuMs() - before;
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(pushed.load());
  for (int want = 0; want <= 8; ++want) {
    int got = -1;
    while (!q.TryPop(got)) std::this_thread::yield();
    EXPECT_EQ(got, want);
  }
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_LT(blocked_cpu_ms, 20.0);
}

}  // namespace
}  // namespace leopard
