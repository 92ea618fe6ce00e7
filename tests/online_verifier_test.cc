#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "harness/online_verifier.h"
#include "harness/thread_runner.h"
#include "obs/registry.h"
#include "txn/database.h"
#include "verifier/mechanism_table.h"
#include "workload/ycsb.h"

namespace leopard {
namespace {

VerifierConfig PgConfig() {
  return ConfigForMiniDb(Protocol::kMvcc2plSsi,
                         IsolationLevel::kSerializable);
}

TEST(OnlineVerifierTest, SingleProducerDrains) {
  OnlineVerifier online(1, PgConfig());
  online.Push(0, MakeWriteTrace(kLoadTxnId, 0, {1, 2}, {{1, 100}}));
  online.Push(0, MakeCommitTrace(kLoadTxnId, 0, {3, 4}));
  online.Push(0, MakeReadTrace(1, 0, {10, 11}, {{1, 100}}));
  online.Push(0, MakeCommitTrace(1, 0, {12, 13}));
  online.Close(0);
  const Leopard& verifier = online.Wait();
  EXPECT_EQ(verifier.stats().traces_processed, 4u);
  EXPECT_EQ(verifier.stats().TotalViolations(), 0u);
}

TEST(OnlineVerifierTest, DetectsViolationsOnline) {
  OnlineVerifier online(1, PgConfig());
  online.Push(0, MakeWriteTrace(kLoadTxnId, 0, {1, 2}, {{1, 100}}));
  online.Push(0, MakeCommitTrace(kLoadTxnId, 0, {3, 4}));
  online.Push(0, MakeWriteTrace(7, 0, {10, 11}, {{1, 101}}));
  online.Push(0, MakeCommitTrace(7, 0, {12, 13}));
  // Stale read of the overwritten value, long after the commit.
  online.Push(0, MakeReadTrace(8, 0, {50, 51}, {{1, 100}}));
  online.Push(0, MakeCommitTrace(8, 0, {60, 61}));
  online.Close(0);
  EXPECT_GE(online.Wait().stats().cr_violations, 1u);
}

TEST(OnlineVerifierTest, PushBatchMatchesPerTracePush) {
  // The stale-read history above, admitted as two batches from two
  // clients: same traces, same order per client, same verdict.
  OnlineVerifier online(2, PgConfig());
  online.PushBatch(0, {MakeWriteTrace(kLoadTxnId, 0, {1, 2}, {{1, 100}}),
                       MakeCommitTrace(kLoadTxnId, 0, {3, 4}),
                       MakeWriteTrace(7, 0, {10, 11}, {{1, 101}}),
                       MakeCommitTrace(7, 0, {12, 13})});
  online.PushBatch(1, {MakeReadTrace(8, 1, {50, 51}, {{1, 100}}),
                       MakeCommitTrace(8, 1, {60, 61})});
  online.PushBatch(1, {});
  online.Close(0);
  online.Close(1);
  const Leopard& verifier = online.Wait();
  EXPECT_EQ(verifier.stats().traces_processed, 6u);
  EXPECT_EQ(online.verified_count(), 6u);
  EXPECT_GE(verifier.stats().cr_violations, 1u);
}

TEST(OnlineVerifierTest, DestructorDrainsWithoutExplicitClose) {
  Leopard* result = nullptr;
  {
    OnlineVerifier online(2, PgConfig());
    online.Push(0, MakeWriteTrace(kLoadTxnId, 0, {1, 2}, {{1, 100}}));
    online.Push(0, MakeCommitTrace(kLoadTxnId, 0, {3, 4}));
    // Client 1 never closed: the destructor must still terminate.
    (void)result;
  }
  SUCCEED();
}

TEST(OnlineVerifierTest, ConcurrentWorkloadVerifiesLive) {
  Database::Options dbo;
  dbo.protocol = Protocol::kMvcc2plSsi;
  dbo.isolation = IsolationLevel::kSerializable;
  Database db(dbo);
  YcsbWorkload::Options wo;
  wo.record_count = 300;
  YcsbWorkload workload(wo);

  OnlineVerifier online(4, PgConfig());
  ThreadRunnerOptions to;
  to.threads = 4;
  to.total_txns = 300;
  to.seed = 51;
  to.on_trace = [&online](ClientId client, const Trace& trace) {
    online.Push(client, Trace(trace));
  };
  ThreadRunner runner(&db, &workload, to);
  RunResult result = runner.Run();
  for (ClientId c = 0; c < 4; ++c) online.Close(c);

  const Leopard& verifier = online.Wait();
  EXPECT_EQ(verifier.stats().traces_processed, result.TotalTraces());
  EXPECT_EQ(verifier.stats().TotalViolations(), 0u)
      << (verifier.bugs().empty() ? std::string()
                                  : verifier.bugs()[0].ToString());
}

TEST(OnlineVerifierTest, ConcurrentFaultyWorkloadFlaggedLive) {
  Database::Options dbo;
  dbo.faults.drop_lock_prob = 0.25;
  dbo.fault_seed = 52;
  Database db(dbo);
  YcsbWorkload::Options wo;
  wo.record_count = 30;
  wo.theta = 0.8;
  YcsbWorkload workload(wo);

  OnlineVerifier online(4, PgConfig());
  ThreadRunnerOptions to;
  to.threads = 4;
  to.total_txns = 600;
  to.seed = 52;
  // Per-op sleeps force the OS to interleave the client threads, so
  // transactions genuinely overlap and the dropped locks manifest.
  to.op_delay_ns = 20000;
  to.on_trace = [&online](ClientId client, const Trace& trace) {
    online.Push(client, Trace(trace));
  };
  ThreadRunner runner(&db, &workload, to);
  runner.Run();
  for (ClientId c = 0; c < 4; ++c) online.Close(c);
  ASSERT_GT(db.injected_fault_count(), 0u);
  EXPECT_GT(online.Wait().stats().me_violations, 0u);
}

// Regression: a duplicate Close() used to decrement the open-client count
// again, which could end the run while another client was still producing.
// Session resume (v5): a dynamic verifier re-admits a closed client under
// its old id, at a floor that may not undercut the stream's last push, and
// the resumed stream's traces land in the same verification run.
TEST(OnlineVerifierTest, ReopenClientResumesClosedStream) {
  OnlineVerifier::Options oo;
  oo.dynamic_clients = true;
  OnlineVerifier online(1, PgConfig(), oo);
  online.Push(0, MakeWriteTrace(kLoadTxnId, 0, {1, 2}, {{1, 100}}));
  online.Push(0, MakeCommitTrace(kLoadTxnId, 0, {3, 4}));

  auto added = online.AddClient();
  ASSERT_TRUE(added.ok()) << added.status();
  const ClientId c = added->id;
  online.Push(c, MakeReadTrace(1, c, {10, 11}, {{1, 100}}));
  online.Push(c, MakeCommitTrace(1, c, {12, 13}));

  // Guard rails: an open client cannot be reopened, nor an unknown id.
  EXPECT_FALSE(online.ReopenClient(c).ok());
  EXPECT_FALSE(online.ReopenClient(999).ok());

  online.Close(c);  // the disconnect
  auto reopened = online.ReopenClient(c);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->id, c);
  EXPECT_GE(reopened->floor, 12u);  // never below the stream's last push

  const Timestamp t0 = reopened->floor;
  online.Push(c, MakeReadTrace(2, c, {t0, t0 + 1}, {{1, 100}}));
  online.Push(c, MakeCommitTrace(2, c, {t0 + 2, t0 + 3}));
  online.Close(c);
  online.Close(0);
  online.SealClients();
  const VerifyReport& report = online.WaitReport();
  EXPECT_EQ(report.stats.traces_processed, 6u);
  EXPECT_EQ(report.stats.TotalViolations(), 0u);
}

TEST(OnlineVerifierTest, DuplicateCloseIsIdempotentPerClient) {
  OnlineVerifier online(3, PgConfig());
  online.Push(0, MakeWriteTrace(kLoadTxnId, 0, {1, 2}, {{1, 100}}));
  online.Push(0, MakeCommitTrace(kLoadTxnId, 0, {3, 4}));
  online.Close(0);
  online.Close(0);  // duplicates must not count client 1 or 2 as closed
  online.Close(0);
  online.Close(1);
  online.Close(1);
  online.Close(99);  // out of range: ignored
  // Client 2 is still open and only now produces its traces.
  online.Push(2, MakeReadTrace(1, 2, {10, 11}, {{1, 100}}));
  online.Push(2, MakeCommitTrace(1, 2, {12, 13}));
  online.Close(2);
  const Leopard& verifier = online.Wait();
  EXPECT_EQ(verifier.stats().traces_processed, 4u);
  EXPECT_EQ(verifier.stats().TotalViolations(), 0u);
}

// Many producers hammer Push while closing their own streams (some more
// than once) in arbitrary interleavings; every pushed trace must still be
// verified exactly once and nothing may deadlock. Each producer writes its
// own key range, so the merged history is violation-free.
TEST(OnlineVerifierTest, ConcurrentPushCloseStress) {
  constexpr uint32_t kProducers = 8;
  constexpr uint64_t kTxnsPerProducer = 200;
  OnlineVerifier online(kProducers, PgConfig());
  std::atomic<uint64_t> pushed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&online, &pushed, p] {
      Rng rng(1000 + p);
      Timestamp now = 10;
      for (uint64_t i = 0; i < kTxnsPerProducer; ++i) {
        const TxnId txn = 1 + p * kTxnsPerProducer + i;
        const Key key = 1000 * (p + 1) + i;  // disjoint per producer
        online.Push(p, MakeWriteTrace(txn, p, {now, now + 3},
                                      {{key, MakeClientValue(p, i)}}));
        now += 10;
        online.Push(p, MakeCommitTrace(txn, p, {now, now + 3}));
        now += 10;
        pushed.fetch_add(2, std::memory_order_relaxed);
        // A client may only be closed once it stops producing, so duplicate
        // mid-run closes target already-finished streams: harmless no-ops.
        if (rng.Chance(0.05) && p > 0) online.Close(kProducers + p);
      }
      online.Close(p);
      online.Close(p);  // duplicate close from the owner is a no-op
    });
  }
  for (auto& t : producers) t.join();
  const Leopard& verifier = online.Wait();
  EXPECT_EQ(verifier.stats().traces_processed,
            pushed.load(std::memory_order_relaxed));
  EXPECT_EQ(verifier.stats().TotalViolations(), 0u);
}

TEST(OnlineVerifierTest, ShardedOnlineVerifiesConcurrentWorkload) {
  Database::Options dbo;
  dbo.protocol = Protocol::kMvcc2plSsi;
  dbo.isolation = IsolationLevel::kSerializable;
  Database db(dbo);
  YcsbWorkload::Options wo;
  wo.record_count = 300;
  YcsbWorkload workload(wo);

  OnlineVerifier::Options options;
  options.n_shards = 4;
  OnlineVerifier online(4, PgConfig(), options);
  ThreadRunnerOptions to;
  to.threads = 4;
  to.total_txns = 300;
  to.seed = 51;
  to.on_trace = [&online](ClientId client, const Trace& trace) {
    online.Push(client, Trace(trace));
  };
  ThreadRunner runner(&db, &workload, to);
  RunResult result = runner.Run();
  for (ClientId c = 0; c < 4; ++c) online.Close(c);

  const VerifyReport& report = online.WaitReport();
  EXPECT_EQ(report.stats.traces_processed, result.TotalTraces());
  EXPECT_EQ(report.stats.TotalViolations(), 0u)
      << (report.bugs.empty() ? std::string() : report.bugs[0].ToString());
}

TEST(OnlineVerifierTest, ShardedOnlineFlagsFaultyWorkload) {
  Database::Options dbo;
  dbo.faults.drop_lock_prob = 0.25;
  dbo.fault_seed = 52;
  Database db(dbo);
  YcsbWorkload::Options wo;
  wo.record_count = 30;
  wo.theta = 0.8;
  YcsbWorkload workload(wo);

  OnlineVerifier::Options options;
  options.n_shards = 4;
  OnlineVerifier online(4, PgConfig(), options);
  ThreadRunnerOptions to;
  to.threads = 4;
  to.total_txns = 600;
  to.seed = 52;
  to.op_delay_ns = 20000;
  to.on_trace = [&online](ClientId client, const Trace& trace) {
    online.Push(client, Trace(trace));
  };
  ThreadRunner runner(&db, &workload, to);
  runner.Run();
  for (ClientId c = 0; c < 4; ++c) online.Close(c);
  ASSERT_GT(db.injected_fault_count(), 0u);
  EXPECT_GT(online.WaitReport().stats.me_violations, 0u);
}

TEST(OnlineVerifierTest, VerifiedCountIsLockFreePollable) {
  OnlineVerifier online(1, PgConfig());
  EXPECT_TRUE(online.verified_count_is_lock_free());
  online.Push(0, MakeWriteTrace(kLoadTxnId, 0, {1, 2}, {{1, 100}}));
  online.Push(0, MakeCommitTrace(kLoadTxnId, 0, {3, 4}));
  online.Close(0);
  online.Wait();
  EXPECT_EQ(online.verified_count(), 2u);
}

TEST(OnlineVerifierTest, ObsOptionsExportMetricsAndProgressSeries) {
  obs::MetricsRegistry registry;
  OnlineVerifier::ObsOptions oo;
  oo.metrics = &registry;
  oo.progress_interval_ms = 5;
  oo.print_progress = false;
  oo.span_sample_every = 1;
  {
    OnlineVerifier online(1, PgConfig(), oo);
    online.Push(0, MakeWriteTrace(kLoadTxnId, 0, {1, 2}, {{1, 100}}));
    online.Push(0, MakeCommitTrace(kLoadTxnId, 0, {3, 4}));
    online.Push(0, MakeReadTrace(1, 0, {10, 11}, {{1, 100}}));
    online.Push(0, MakeCommitTrace(1, 0, {12, 13}));
    online.Close(0);
    const Leopard& verifier = online.Wait();
    EXPECT_EQ(registry.counter("verifier.traces_processed")->Value(),
              verifier.stats().traces_processed);
    EXPECT_EQ(registry.histogram("verifier.trace_ns")->Count(), 4u);
  }  // destructor stops the reporter, which takes the final sample
  EXPECT_GE(registry.series("progress.verified")->Size(), 1u);
  auto verified = registry.series("progress.verified")->Snap();
  EXPECT_DOUBLE_EQ(verified.back().value, 4.0);
}

}  // namespace
}  // namespace leopard
