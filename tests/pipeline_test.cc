#include <gtest/gtest.h>

#include "harness/sim_runner.h"
#include "pipeline/two_level_pipeline.h"
#include "obs/registry.h"
#include "txn/database.h"
#include "workload/blindw.h"
#include "workload/smallbank.h"

namespace leopard {
namespace {

Trace T(ClientId client, Timestamp bef, Timestamp aft) {
  return MakeCommitTrace(/*txn=*/bef, client, {bef, aft});
}

TEST(PipelineTest, SingleClientPassThrough) {
  TwoLevelPipeline p(1);
  p.Push(0, T(0, 1, 2));
  p.Push(0, T(0, 3, 4));
  p.Close(0);
  EXPECT_EQ(p.Dispatch()->ts_bef(), 1u);
  EXPECT_EQ(p.Dispatch()->ts_bef(), 3u);
  EXPECT_FALSE(p.Dispatch().has_value());
  EXPECT_TRUE(p.Exhausted());
}

TEST(PipelineTest, MergesTwoClientsInOrder) {
  TwoLevelPipeline p(2);
  p.Push(0, T(0, 1, 2));
  p.Push(0, T(0, 5, 6));
  p.Push(1, T(1, 3, 4));
  p.Push(1, T(1, 7, 8));
  p.Close(0);
  p.Close(1);
  std::vector<Timestamp> order;
  while (auto t = p.Dispatch()) order.push_back(t->ts_bef());
  EXPECT_EQ(order, (std::vector<Timestamp>{1, 3, 5, 7}));
}

// Regression: dispatch uses `ts_bef <= watermark`, so a trace whose ts_bef
// *equals* the watermark (two clients observed the very same tick) must
// dispatch immediately rather than stall until one client advances.
TEST(PipelineTest, EqualTsBefTieDispatchesAtWatermark) {
  TwoLevelPipeline p(2);
  p.Push(0, T(0, 5, 6));
  p.Push(1, T(1, 5, 7));
  // Both clients are open with last_pushed == 5, so the watermark is 5 and
  // both ties are dispatchable right now.
  EXPECT_EQ(p.Dispatch()->ts_bef(), 5u);
  EXPECT_EQ(p.Dispatch()->ts_bef(), 5u);
  EXPECT_FALSE(p.Dispatch().has_value());  // drained, clients still open
  p.Close(0);
  p.Close(1);
  EXPECT_TRUE(p.Exhausted());
}

// Equal ts_bef never reorders one client's traces: a coarse client clock
// can stamp a transaction's write, read and commit alike, and dispatching
// them out of push order would deliver the commit before the write. Across
// clients, fetched traces with equal ts_bef leave in client-index order.
std::vector<TxnId> DispatchEqualTsBefRun(uint32_t n, bool optimized) {
  TwoLevelPipeline::Options opts;
  opts.optimized = optimized;
  TwoLevelPipeline p(2, opts);
  for (uint32_t i = 0; i < n; ++i) {
    p.Push(0, MakeCommitTrace(/*txn=*/100 + i, 0, {5, 6}));
  }
  p.Push(1, MakeCommitTrace(/*txn=*/200, 1, {5, 7}));
  p.Push(1, MakeCommitTrace(/*txn=*/201, 1, {9, 10}));
  p.Close(0);
  p.Close(1);
  std::vector<TxnId> order;
  while (auto t = p.Dispatch()) order.push_back(t->txn);
  return order;
}

TEST(PipelineTest, EqualTsBefKeepsEachClientsPushOrder) {
  for (uint32_t n = 2; n <= 12; ++n) {
    std::vector<TxnId> expected;
    for (uint32_t i = 0; i < n; ++i) expected.push_back(100 + i);
    expected.push_back(200);
    expected.push_back(201);
    EXPECT_EQ(DispatchEqualTsBefRun(n, /*optimized=*/true), expected)
        << n << " equal traces, optimized";
    // "w/o Opt" fetches both clients at once, so their ties meet in the
    // global buffer: client 0's go first.
    EXPECT_EQ(DispatchEqualTsBefRun(n, /*optimized=*/false), expected)
        << n << " equal traces, w/o Opt";
  }
}

// DispatchInto is the bulk form of Dispatch: the same traces in the same
// order, and the same fetch rounds and buffer peaks.
TEST(PipelineTest, DispatchIntoMatchesRepeatedDispatch) {
  for (bool optimized : {true, false}) {
    TwoLevelPipeline::Options opts;
    opts.optimized = optimized;
    opts.fetch_batch = 8;
    TwoLevelPipeline one(4, opts);
    TwoLevelPipeline bulk(4, opts);
    Rng rng(13);
    std::vector<Timestamp> next_ts(4, 1);
    std::vector<TxnId> by_one, by_bulk;
    std::vector<Trace> out;
    TxnId txn = 1;
    for (int step = 0; step < 2000; ++step) {
      const ClientId c = static_cast<ClientId>(rng.Uniform(4));
      const Timestamp bef = next_ts[c];
      next_ts[c] += rng.Uniform(3);  // frequent equal ts_bef
      one.Push(c, MakeCommitTrace(txn, c, {bef, bef + 1}));
      bulk.Push(c, MakeCommitTrace(txn, c, {bef, bef + 1}));
      ++txn;
      if (rng.Uniform(8) != 0) continue;
      while (auto t = one.Dispatch()) by_one.push_back(t->txn);
      const size_t n = bulk.DispatchInto(out);
      EXPECT_EQ(n, out.size());
      for (const Trace& t : out) by_bulk.push_back(t.txn);
      out.clear();
      ASSERT_EQ(by_one, by_bulk);
    }
    for (ClientId c = 0; c < 4; ++c) {
      one.Close(c);
      bulk.Close(c);
    }
    while (auto t = one.Dispatch()) by_one.push_back(t->txn);
    bulk.DispatchInto(out);
    for (const Trace& t : out) by_bulk.push_back(t.txn);
    EXPECT_EQ(by_one, by_bulk);
    EXPECT_EQ(by_bulk.size(), 2000u);
    EXPECT_TRUE(bulk.Exhausted());
    EXPECT_EQ(one.stats().dispatched, bulk.stats().dispatched);
    EXPECT_EQ(one.stats().rounds, bulk.stats().rounds);
    EXPECT_EQ(one.stats().max_global_heap, bulk.stats().max_global_heap);
    EXPECT_EQ(one.stats().max_global_bytes, bulk.stats().max_global_bytes);
  }
}

// Session resume (v5): a closed client re-admitted via Reopen continues at
// a floor of max(its last pushed ts_bef, the dispatch floor), so Theorem 1
// monotonicity survives the disconnect/reconnect cycle.
TEST(PipelineTest, ReopenRestoresClosedClientAtItsFloor) {
  TwoLevelPipeline p(2);
  p.Push(0, T(0, 1, 2));
  p.Push(0, T(0, 5, 6));
  p.Push(1, T(1, 3, 4));
  p.Close(0);  // the disconnect: client 0 vanishes with a trace buffered
  EXPECT_EQ(p.Dispatch()->ts_bef(), 1u);
  EXPECT_EQ(p.Dispatch()->ts_bef(), 3u);
  // Client 1 is open and empty, so ts_bef=5 is beyond the watermark.
  EXPECT_FALSE(p.Dispatch().has_value());

  // Reconnect: client 0's floor is its own last push (5), which exceeds
  // the dispatch floor (3).
  const Timestamp floor = p.Reopen(0);
  EXPECT_EQ(floor, 5u);
  p.Push(0, T(0, floor, floor + 1));  // exactly at the floor: legal
  p.Push(0, T(0, 7, 8));
  p.Push(1, T(1, 9, 10));
  p.Close(0);
  p.Close(1);
  std::vector<Timestamp> order;
  while (auto t = p.Dispatch()) order.push_back(t->ts_bef());
  EXPECT_EQ(order, (std::vector<Timestamp>{5, 5, 7, 9}));
  EXPECT_TRUE(p.Exhausted());
}

// A client registered or reopened mid-run pulls the watermark down to the
// floor it is admitted at: a trace the old watermark released must wait
// until that client's stream has passed it.
TEST(PipelineTest, AddedOrReopenedClientHoldsDispatchAtItsFloor) {
  {
    TwoLevelPipeline p(1);
    p.Push(0, T(0, 1, 2));
    p.Push(0, T(0, 5, 6));
    EXPECT_EQ(p.Dispatch()->ts_bef(), 1u);  // 5 is client 0's last push
    const ClientId added = p.AddClient();
    EXPECT_EQ(p.dispatch_floor(), 1u);
    EXPECT_FALSE(p.Dispatch().has_value());  // the newcomer may push 3
    p.Push(added, T(added, 3, 4));
    EXPECT_EQ(p.Dispatch()->ts_bef(), 3u);
    EXPECT_FALSE(p.Dispatch().has_value());
    p.Close(0);
    p.Close(added);
    EXPECT_EQ(p.Dispatch()->ts_bef(), 5u);
    EXPECT_TRUE(p.Exhausted());
  }
  {
    TwoLevelPipeline p(2);
    p.Push(0, T(0, 1, 2));
    p.Push(0, T(0, 10, 11));
    p.Push(1, T(1, 2, 3));
    p.Close(1);
    EXPECT_EQ(p.Dispatch()->ts_bef(), 1u);
    EXPECT_EQ(p.Dispatch()->ts_bef(), 2u);  // 10 is client 0's last push
    EXPECT_EQ(p.Reopen(1), 2u);
    EXPECT_FALSE(p.Dispatch().has_value());  // client 1 may push 3
    p.Push(1, T(1, 3, 4));
    EXPECT_EQ(p.Dispatch()->ts_bef(), 3u);
    EXPECT_FALSE(p.Dispatch().has_value());
    p.Close(0);
    p.Close(1);
    EXPECT_EQ(p.Dispatch()->ts_bef(), 10u);
    EXPECT_TRUE(p.Exhausted());
  }
}

TEST(PipelineTest, StarvesOnOpenEmptyBuffer) {
  TwoLevelPipeline p(2);
  p.Push(0, T(0, 1, 2));
  // Client 1 has produced nothing and is not closed: the watermark cannot
  // advance, so nothing may be dispatched yet.
  EXPECT_FALSE(p.Dispatch().has_value());
  p.Push(1, T(1, 10, 11));
  EXPECT_EQ(p.Dispatch()->ts_bef(), 1u);
  // Trace 10 is the watermark holder; it dispatches only after closing.
  EXPECT_FALSE(p.Dispatch().has_value());
  p.Close(0);
  p.Close(1);
  EXPECT_EQ(p.Dispatch()->ts_bef(), 10u);
  EXPECT_TRUE(p.Exhausted());
}

// The paper's Fig. 5 example: two clients with traces 1,2,5,6,9,10 and
// 3,4,7,8,11,12 pushed round by round.
TEST(PipelineTest, DispatchExampleFig5) {
  TwoLevelPipeline p(2);
  // Round 0: clients push 1,2 and 3,4.
  p.Push(0, T(0, 1, 1));
  p.Push(0, T(0, 2, 2));
  p.Push(1, T(1, 3, 3));
  p.Push(1, T(1, 4, 4));
  // Round 1-2: traces 1 and 2 dispatch (both < watermark 3).
  EXPECT_EQ(p.Dispatch()->ts_bef(), 1u);
  EXPECT_EQ(p.Dispatch()->ts_bef(), 2u);
  // Clients push the next batches.
  p.Push(0, T(0, 5, 5));
  p.Push(0, T(0, 6, 6));
  p.Push(1, T(1, 7, 7));
  p.Push(1, T(1, 8, 8));
  std::vector<Timestamp> order;
  while (auto t = p.Dispatch()) order.push_back(t->ts_bef());
  // Everything up to the smallest buffered head (5) minus overlap rules:
  // 3 and 4 certainly dispatch in order.
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0], 3u);
  EXPECT_EQ(order[1], 4u);
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(order[i - 1], order[i]);
  }
}

TEST(PipelineTest, MonotoneDispatchUnderRandomInterleaving) {
  // Theorem 1: dispatch order is monotone in ts_bef whatever the push
  // interleaving.
  Rng rng(11);
  TwoLevelPipeline p(4);
  std::vector<Timestamp> next_ts(4, 1);
  std::vector<uint64_t> remaining(4, 200);
  std::vector<Timestamp> dispatched;
  uint64_t open = 4;
  while (open > 0 || !p.Exhausted()) {
    ClientId c = static_cast<ClientId>(rng.Uniform(4));
    if (remaining[c] > 0) {
      Timestamp bef = next_ts[c];
      next_ts[c] += 1 + rng.Uniform(5);
      p.Push(c, T(c, bef, bef + 1));
      if (--remaining[c] == 0) {
        p.Close(c);
        --open;
      }
    }
    while (auto t = p.Dispatch()) dispatched.push_back(t->ts_bef());
    if (open == 0) {
      while (auto t = p.Dispatch()) dispatched.push_back(t->ts_bef());
      break;
    }
  }
  EXPECT_EQ(dispatched.size(), 800u);
  for (size_t i = 1; i < dispatched.size(); ++i) {
    EXPECT_LE(dispatched[i - 1], dispatched[i]);
  }
}

TEST(PipelineTest, UnoptimizedFetchesEverything) {
  TwoLevelPipeline::Options opts;
  opts.optimized = false;
  TwoLevelPipeline p(2, opts);
  for (int i = 0; i < 100; ++i) {
    p.Push(0, T(0, 2 * i + 1, 2 * i + 2));
    p.Push(1, T(1, 1000 + i, 1000 + i + 1));
  }
  // One dispatch triggers a full fetch of both buffers into the heap.
  ASSERT_TRUE(p.Dispatch().has_value());
  EXPECT_GE(p.stats().max_global_heap, 199u);
}

TEST(PipelineTest, OptimizedKeepsHeapSmall) {
  TwoLevelPipeline::Options opts;
  opts.optimized = true;
  opts.fetch_batch = 16;
  TwoLevelPipeline p(2, opts);
  for (int i = 0; i < 500; ++i) {
    p.Push(0, T(0, 2 * i + 1, 2 * i + 2));
    p.Push(1, T(1, 2 * i + 2, 2 * i + 3));
  }
  p.Close(0);
  p.Close(1);
  size_t n = 0;
  while (p.Dispatch()) ++n;
  EXPECT_EQ(n, 1000u);
  EXPECT_LT(p.stats().max_global_heap, 200u);
}

// Pins Fig. 10's memory figures: one deterministic SimRunner history
// (24 clients with 6x speed heterogeneity, as bench_fig10_pipeline runs)
// fed in 20 ms virtual-time windows through both fetch policies. The
// expected values were recorded with the heap-of-traces global buffer; a
// change to what counts as "in the global buffer" moves them.
TwoLevelPipeline::Stats Fig10Replay(const RunResult& run, bool optimized) {
  TwoLevelPipeline::Options opts;
  opts.optimized = optimized;
  TwoLevelPipeline p(static_cast<uint32_t>(run.client_traces.size()), opts);
  constexpr Timestamp kWindow = 20000000;
  std::vector<size_t> cursor(run.client_traces.size(), 0);
  Timestamp window_end = kWindow;
  bool remaining = true;
  while (remaining) {
    remaining = false;
    for (ClientId c = 0; c < run.client_traces.size(); ++c) {
      const auto& traces = run.client_traces[c];
      while (cursor[c] < traces.size() &&
             traces[cursor[c]].ts_bef() < window_end) {
        p.Push(c, Trace(traces[cursor[c]]));
        ++cursor[c];
      }
      if (cursor[c] == traces.size()) {
        p.Close(c);
      } else {
        remaining = true;
      }
    }
    while (p.Dispatch()) {
    }
    window_end += kWindow;
  }
  while (p.Dispatch()) {
  }
  EXPECT_TRUE(p.Exhausted());
  return p.stats();
}

TEST(PipelineTest, Fig10FootprintIsPinned) {
  Database::Options dbo;
  dbo.protocol = Protocol::kMvcc2plSsi;
  dbo.isolation = IsolationLevel::kSerializable;
  dbo.lock_wait = LockWaitPolicy::kWaitDie;
  Database db(dbo);
  SmallBankWorkload workload(SmallBankWorkload::Options{});
  SimOptions so;
  so.clients = 24;
  so.total_txns = 4000;
  so.seed = 7;
  so.speed_spread = 6.0;
  SimRunner sim(&db, &workload, so);
  const RunResult run = sim.Run();

  const TwoLevelPipeline::Stats opt = Fig10Replay(run, /*optimized=*/true);
  const TwoLevelPipeline::Stats wo = Fig10Replay(run, /*optimized=*/false);
  ASSERT_EQ(run.TotalTraces(), 15837u);  // the history itself is unchanged
  EXPECT_EQ(opt.dispatched, 15837u);
  EXPECT_EQ(opt.rounds, 312u);
  EXPECT_EQ(opt.max_global_heap, 1293u);
  EXPECT_EQ(opt.max_global_bytes, 201648u);
  EXPECT_EQ(wo.dispatched, 15837u);
  EXPECT_EQ(wo.rounds, 13u);
  EXPECT_EQ(wo.max_global_heap, 1326u);
  EXPECT_EQ(wo.max_global_bytes, 237616u);
}

// A checkpoint taken while traces sit fetched but undispatched (the open,
// empty client 2 pins the watermark at 0) restores the fetched prefixes: the
// restored pipeline dispatches the same order with the same statistics.
TEST(PipelineTest, SaveLoadKeepsFetchedPrefixes) {
  TwoLevelPipeline::Options opts;
  opts.fetch_batch = 4;
  TwoLevelPipeline p(3, opts);
  TxnId txn = 1;
  for (Timestamp ts = 1; ts <= 10; ++ts) {
    p.Push(0, MakeCommitTrace(txn++, 0, {ts, ts + 1}));
    p.Push(1, MakeCommitTrace(txn++, 1, {ts + 4, ts + 5}));
  }
  EXPECT_FALSE(p.Dispatch().has_value());
  EXPECT_EQ(p.stats().max_global_heap, 20u);  // everything fetched

  std::string bytes;
  StateWriter w(bytes);
  p.SaveState(w);
  // The restoring pipeline has dispatched before: a verifier's dispatcher
  // runs from construction, so the state replaces a live pipeline's.
  TwoLevelPipeline restored(1, opts);
  restored.Close(0);
  EXPECT_FALSE(restored.Dispatch().has_value());
  StateReader r(bytes);
  ASSERT_TRUE(restored.LoadState(r).ok());
  EXPECT_EQ(restored.buffered_bytes(), p.buffered_bytes());
  EXPECT_FALSE(restored.Dispatch().has_value());  // client 2 still pins it

  std::vector<TxnId> order, restored_order;
  for (TwoLevelPipeline* q : {&p, &restored}) {
    q->Push(2, MakeCommitTrace(100, 2, {3, 4}));
    q->Push(2, MakeCommitTrace(101, 2, {9, 10}));
    for (ClientId c = 0; c < 3; ++c) q->Close(c);
    std::vector<TxnId>& out = q == &p ? order : restored_order;
    while (auto t = q->Dispatch()) out.push_back(t->txn);
    EXPECT_TRUE(q->Exhausted());
  }
  EXPECT_EQ(order.size(), 22u);
  EXPECT_EQ(order, restored_order);
  EXPECT_EQ(p.stats().rounds, restored.stats().rounds);
  EXPECT_EQ(p.stats().max_global_heap, restored.stats().max_global_heap);
  EXPECT_EQ(p.stats().max_global_bytes, restored.stats().max_global_bytes);
}

TEST(PipelineTest, StatsCountDispatches) {
  TwoLevelPipeline p(1);
  for (int i = 0; i < 10; ++i) p.Push(0, T(0, i + 1, i + 2));
  p.Close(0);
  while (p.Dispatch()) {
  }
  EXPECT_EQ(p.stats().dispatched, 10u);
  EXPECT_GT(p.stats().max_buffered_bytes, 0u);
}

TEST(NaiveSorterTest, SortsEverything) {
  NaiveSorter sorter;
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    Timestamp bef = rng.Uniform(100000);
    sorter.Push(static_cast<ClientId>(rng.Uniform(4)), T(0, bef, bef + 1));
  }
  EXPECT_EQ(sorter.max_buffered(), 1000u);
  auto sorted = sorter.DrainSorted();
  ASSERT_EQ(sorted.size(), 1000u);
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i - 1].ts_bef(), sorted[i].ts_bef());
  }
}

TEST(PipelineIntegrationTest, MatchesMergedTraceOrderFromRealRun) {
  Database::Options dbo;
  Database db(dbo);
  BlindWWorkload::Options wo;
  BlindWWorkload workload(wo);
  SimOptions so;
  so.clients = 4;
  so.total_txns = 100;
  SimRunner runner(&db, &workload, so);
  RunResult result = runner.Run();

  TwoLevelPipeline p(so.clients);
  for (ClientId c = 0; c < so.clients; ++c) {
    for (const auto& t : result.client_traces[c]) p.Push(c, Trace(t));
    p.Close(c);
  }
  std::vector<Trace> dispatched;
  while (auto t = p.Dispatch()) dispatched.push_back(*t);
  EXPECT_EQ(dispatched.size(), result.TotalTraces());
  for (size_t i = 1; i < dispatched.size(); ++i) {
    EXPECT_LE(dispatched[i - 1].ts_bef(), dispatched[i].ts_bef());
  }
}

TEST(PipelineTest, AttachedMetricsTrackDispatchAndDepth) {
  obs::MetricsRegistry registry;
  TwoLevelPipeline p(2);
  p.AttachMetrics(&registry, /*span_sample_every=*/1);
  p.Push(0, T(0, 10, 11));
  p.Push(0, T(0, 20, 21));
  p.Push(1, T(1, 15, 16));
  // Three traces buffered, none dispatched yet.
  EXPECT_EQ(registry.gauge("pipeline.queue_depth")->Max(), 3);
  p.Close(0);
  p.Close(1);
  int dispatched = 0;
  while (p.Dispatch()) ++dispatched;
  EXPECT_EQ(dispatched, 3);
  EXPECT_EQ(registry.counter("pipeline.dispatched")->Value(), 3u);
  EXPECT_EQ(registry.gauge("pipeline.queue_depth")->Value(), 0);
  EXPECT_EQ(registry.histogram("pipeline.dispatch_ns")->Count(), 3u);
}

}  // namespace
}  // namespace leopard
