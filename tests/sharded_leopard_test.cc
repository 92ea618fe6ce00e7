// Differential tests for the sharded verification engine: the single-
// threaded Leopard is the oracle, and ShardedLeopard must produce the same
// verdicts on identical inputs — clean fuzzed histories verify clean with
// identical deduction counters, mutated histories produce the exact same
// CR/ME/FUW bug multiset, and serialization violations are detected by both
// (SC cycle *attribution* may differ with edge arrival order, so it is
// compared by presence, not by string).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fuzz_history_util.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "verifier/mechanism_table.h"
#include "verifier/sharded_leopard.h"
#include "workload/workload.h"

namespace leopard {
namespace {

using fuzzutil::BuildSerialHistory;
using fuzzutil::BuiltTxn;
using fuzzutil::History;

VerifierConfig PgSer() {
  return ConfigForMiniDb(Protocol::kMvcc2plSsi,
                         IsolationLevel::kSerializable);
}

VerifyReport RunEngine(const VerifierConfig& config,
                 const std::vector<Trace>& traces, uint32_t n_shards) {
  ShardedLeopard::Options options;
  options.n_shards = n_shards;
  options.queue_capacity = 1024;
  options.safe_ts_every = 64;
  ShardedLeopard engine(config, options);
  for (const Trace& t : traces) engine.Process(t);
  engine.Finish();
  return engine.report();
}

/// Like RunEngine, but exercises the skew-adaptive machinery: optional
/// forced key migrations every `migrate_every` processed traces (random key
/// to a random shard — adversarial mid-stream handoffs), the automatic
/// rebalancer with an aggressive trigger, and a configurable worker count.
VerifyReport RunEngineMigrating(const VerifierConfig& config,
                                const std::vector<Trace>& traces,
                                uint32_t n_shards, uint64_t seed,
                                uint64_t migrate_every, bool enable_rebalance,
                                uint32_t n_workers = 0) {
  ShardedLeopard::Options options;
  options.n_shards = n_shards;
  options.n_workers = n_workers;
  options.queue_capacity = 1024;
  options.safe_ts_every = 64;
  options.enable_rebalance = enable_rebalance;
  options.rebalance_check_every = 128;
  options.rebalance_imbalance = 1.05;  // hair trigger: plain hash noise fires
  ShardedLeopard engine(config, options);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  uint64_t processed = 0;
  for (const Trace& t : traces) {
    engine.Process(t);
    if (migrate_every != 0 && (++processed % migrate_every) == 0) {
      engine.DebugForceMigrate(rng.Uniform(fuzzutil::kKeys),
                               static_cast<uint32_t>(rng.Uniform(n_shards)));
    }
  }
  engine.Finish();
  return engine.report();
}

/// Sorted multiset of every non-SC bug, rendered to strings: CR/ME/FUW
/// verdicts are per-key and must match the oracle *exactly*.
std::vector<std::string> NonScBugStrings(const VerifyReport& report) {
  std::vector<std::string> out;
  for (const BugDescriptor& bug : report.bugs) {
    if (bug.type != BugType::kScViolation) out.push_back(bug.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSameVerdicts(const VerifyReport& oracle,
                        const VerifyReport& sharded, uint32_t n_shards,
                        uint64_t seed) {
  SCOPED_TRACE("n_shards=" + std::to_string(n_shards) + " seed " +
               std::to_string(seed));
  EXPECT_EQ(oracle.stats.cr_violations, sharded.stats.cr_violations);
  EXPECT_EQ(oracle.stats.me_violations, sharded.stats.me_violations);
  EXPECT_EQ(oracle.stats.fuw_violations, sharded.stats.fuw_violations);
  EXPECT_EQ(oracle.stats.sc_violations > 0, sharded.stats.sc_violations > 0);
  EXPECT_EQ(NonScBugStrings(oracle), NonScBugStrings(sharded));
}

TEST(ShardOfKey, CoversAllShardsAndIsStable) {
  EXPECT_EQ(ShardedLeopard::ShardOfKey(123, 1), 0u);
  std::set<uint32_t> seen;
  for (Key k = 0; k < 2000; ++k) {
    const uint32_t s = ShardedLeopard::ShardOfKey(k, 4);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, ShardedLeopard::ShardOfKey(k, 4));  // deterministic
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 4u) << "2000 dense keys must hit every shard";
}

TEST(ShardedLeopard, SingleShardIsExactlyTheInlineLeopard) {
  History h = BuildSerialHistory(7, 150);
  // Mutate one read so the run carries a real bug through both paths.
  for (Trace& t : h.traces) {
    if (t.op == OpType::kRead && t.read_set.size() == 1) {
      t.read_set[0].value ^= 0x5a5a;  // value nobody ever wrote
      break;
    }
  }
  Leopard oracle(PgSer());
  for (const Trace& t : h.traces) oracle.Process(t);
  oracle.Finish();

  ShardedLeopard engine(PgSer(), ShardedLeopard::Options{});
  ASSERT_EQ(engine.n_shards(), 1u);
  for (const Trace& t : h.traces) engine.Process(t);
  engine.Finish();
  // n_shards == 1 exposes the inline verifier directly…
  EXPECT_EQ(&engine.single().config(), &engine.single().config());
  // …and the report is a verbatim copy of its stats and bugs.
  EXPECT_EQ(engine.report().stats.traces_processed,
            oracle.stats().traces_processed);
  EXPECT_EQ(engine.report().stats.cr_violations,
            oracle.stats().cr_violations);
  ASSERT_EQ(engine.report().bugs.size(), oracle.bugs().size());
  for (size_t i = 0; i < oracle.bugs().size(); ++i) {
    EXPECT_EQ(engine.report().bugs[i].ToString(),
              oracle.bugs()[i].ToString());
  }
}

class ShardedDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardedDifferential, CleanHistoriesVerifyCleanWithEqualCounters) {
  const uint64_t seed = GetParam();
  History h = BuildSerialHistory(seed, 300);
  // GC on: verdicts must be clean for every shard count (pruning cadence
  // differs per shard — each sees ~1/N of the messages — but pruning is
  // verdict-neutral, Theorem 5).
  const VerifyReport oracle = RunEngine(PgSer(), h.traces, 1);
  ASSERT_EQ(oracle.stats.TotalViolations(), 0u);
  // GC off: deduction is fully deterministic, so the counters — not just
  // the verdicts — must agree exactly. (With GC on, later pruning lets a
  // shard re-deduce edges against mirrored locks/readers the oracle
  // already retired: duplicate edges the graph ignores, but the counters
  // see.)
  VerifierConfig no_gc = PgSer();
  no_gc.enable_gc = false;
  const VerifyReport oracle_nogc = RunEngine(no_gc, h.traces, 1);
  for (uint32_t n_shards : {2u, 4u, 7u}) {
    SCOPED_TRACE("n_shards=" + std::to_string(n_shards));
    const VerifyReport sharded = RunEngine(PgSer(), h.traces, n_shards);
    EXPECT_EQ(sharded.stats.TotalViolations(), 0u);
    EXPECT_EQ(oracle.stats.traces_processed, sharded.stats.traces_processed);
    EXPECT_EQ(oracle.stats.reads_verified, sharded.stats.reads_verified);
    EXPECT_EQ(oracle.stats.versions_tracked,
              sharded.stats.versions_tracked);
    EXPECT_EQ(oracle.stats.out_of_order_traces,
              sharded.stats.out_of_order_traces);

    const VerifyReport sharded_nogc = RunEngine(no_gc, h.traces, n_shards);
    EXPECT_EQ(sharded_nogc.stats.TotalViolations(), 0u);
    EXPECT_EQ(oracle_nogc.stats.deps_total, sharded_nogc.stats.deps_total);
    EXPECT_EQ(oracle_nogc.stats.deps_deduced,
              sharded_nogc.stats.deps_deduced);
    EXPECT_EQ(oracle_nogc.stats.reads_verified,
              sharded_nogc.stats.reads_verified);
  }
}

TEST_P(ShardedDifferential, StaleReadMutationFlaggedIdentically) {
  const uint64_t seed = GetParam();
  History h = BuildSerialHistory(seed, 300);
  Rng rng(seed ^ 0xabc);
  bool mutated = false;
  for (int attempt = 0; attempt < 500 && !mutated; ++attempt) {
    size_t i = rng.Uniform(h.traces.size());
    Trace& t = h.traces[i];
    if (t.op != OpType::kRead || t.read_set.size() != 1) continue;
    Key key = t.read_set[0].key;
    const auto& versions = h.versions[key];
    for (size_t v = 1; v < versions.size(); ++v) {
      if (versions[v].value == t.read_set[0].value &&
          versions[v - 1].value != kTombstoneValue &&
          versions[v - 1].value != versions[v].value) {
        t.read_set[0].value = versions[v - 1].value;
        mutated = true;
        break;
      }
    }
  }
  if (!mutated) GTEST_SKIP() << "no mutable read found for this seed";
  const VerifyReport oracle = RunEngine(PgSer(), h.traces, 1);
  ASSERT_GE(oracle.stats.cr_violations, 1u);
  for (uint32_t n_shards : {2u, 4u}) {
    ExpectSameVerdicts(oracle, RunEngine(PgSer(), h.traces, n_shards), n_shards,
                       seed);
  }
}

TEST_P(ShardedDifferential, DroppedCommitMutationFlaggedIdentically) {
  const uint64_t seed = GetParam();
  History h = BuildSerialHistory(seed, 300);
  bool mutated = false;
  for (const BuiltTxn& txn : h.txns) {
    if (!txn.committed) continue;
    std::vector<Value> values;
    for (size_t i = txn.first_trace; i < txn.last_trace; ++i) {
      for (const auto& w : h.traces[i].write_set) values.push_back(w.value);
    }
    bool observed = false;
    for (size_t i = txn.last_trace + 1; i < h.traces.size() && !observed;
         ++i) {
      for (const auto& r : h.traces[i].read_set) {
        if (std::find(values.begin(), values.end(), r.value) !=
            values.end()) {
          observed = true;
        }
      }
    }
    if (!observed) continue;
    Trace& terminal = h.traces[txn.last_trace];
    terminal = MakeAbortTrace(txn.id, terminal.client, terminal.interval);
    mutated = true;
    break;
  }
  if (!mutated) GTEST_SKIP() << "no observed committed txn for this seed";
  const VerifyReport oracle = RunEngine(PgSer(), h.traces, 1);
  ASSERT_GE(oracle.stats.cr_violations, 1u);
  for (uint32_t n_shards : {2u, 4u}) {
    ExpectSameVerdicts(oracle, RunEngine(PgSer(), h.traces, n_shards), n_shards,
                       seed);
  }
}

// Forced mid-stream migrations at adversarial points (every 5th trace —
// inside open transactions, between a read and its flush, around
// terminals) must be verdict- and counter-invisible: the handoff moves the
// key's whole mirrored state and the FIFO cut preserves per-key order.
TEST_P(ShardedDifferential, ForcedMigrationsPreserveCleanCountersExactly) {
  const uint64_t seed = GetParam();
  History h = BuildSerialHistory(seed, 300);
  VerifierConfig no_gc = PgSer();
  no_gc.enable_gc = false;
  const VerifyReport oracle = RunEngine(no_gc, h.traces, 1);
  ASSERT_EQ(oracle.stats.TotalViolations(), 0u);
  for (uint32_t n_shards : {2u, 4u, 7u}) {
    SCOPED_TRACE("n_shards=" + std::to_string(n_shards));
    const VerifyReport sharded = RunEngineMigrating(
        no_gc, h.traces, n_shards, seed, /*migrate_every=*/5,
        /*enable_rebalance=*/false);
    EXPECT_EQ(sharded.stats.TotalViolations(), 0u);
    EXPECT_EQ(oracle.stats.traces_processed, sharded.stats.traces_processed);
    EXPECT_EQ(oracle.stats.reads_verified, sharded.stats.reads_verified);
    EXPECT_EQ(oracle.stats.versions_tracked, sharded.stats.versions_tracked);
    EXPECT_EQ(oracle.stats.deps_total, sharded.stats.deps_total);
    EXPECT_EQ(oracle.stats.deps_deduced, sharded.stats.deps_deduced);
  }
}

// Same adversarial migrations over a *buggy* history: the exact CR bug
// multiset must survive arbitrary mid-stream handoffs.
TEST_P(ShardedDifferential, ForcedMigrationsPreserveBugVerdicts) {
  const uint64_t seed = GetParam();
  History h = BuildSerialHistory(seed, 300);
  bool mutated = false;
  for (Trace& t : h.traces) {
    if (t.op == OpType::kRead && t.read_set.size() == 1) {
      t.read_set[0].value ^= 0x5a5a;  // value nobody ever wrote
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  const VerifyReport oracle = RunEngine(PgSer(), h.traces, 1);
  ASSERT_GE(oracle.stats.cr_violations, 1u);
  for (uint32_t n_shards : {2u, 4u}) {
    ExpectSameVerdicts(
        oracle,
        RunEngineMigrating(PgSer(), h.traces, n_shards, seed,
                           /*migrate_every=*/5, /*enable_rebalance=*/false),
        n_shards, seed);
  }
}

// The automatic rebalancer (hair-trigger imbalance threshold, so plain
// hash noise across 20 keys fires real migrations) plus forced handoffs:
// verdicts stay identical to the oracle on clean and mutated histories.
TEST_P(ShardedDifferential, RebalanceOnPreservesVerdicts) {
  const uint64_t seed = GetParam();
  History h = BuildSerialHistory(seed, 300);
  const VerifyReport oracle = RunEngine(PgSer(), h.traces, 1);
  ASSERT_EQ(oracle.stats.TotalViolations(), 0u);
  for (uint32_t n_shards : {2u, 4u}) {
    SCOPED_TRACE("n_shards=" + std::to_string(n_shards));
    const VerifyReport sharded = RunEngineMigrating(
        PgSer(), h.traces, n_shards, seed, /*migrate_every=*/13,
        /*enable_rebalance=*/true);
    EXPECT_EQ(sharded.stats.TotalViolations(), 0u);
    EXPECT_EQ(oracle.stats.reads_verified, sharded.stats.reads_verified);
    EXPECT_EQ(oracle.stats.versions_tracked, sharded.stats.versions_tracked);
  }
}

// Worker counts decoupled from the shard count: a single worker draining
// every shard, and more workers than shards (pure stealing), both produce
// exact counters.
TEST_P(ShardedDifferential, WorkerCountsPreserveCountersExactly) {
  const uint64_t seed = GetParam();
  History h = BuildSerialHistory(seed, 200);
  VerifierConfig no_gc = PgSer();
  no_gc.enable_gc = false;
  const VerifyReport oracle = RunEngine(no_gc, h.traces, 1);
  ASSERT_EQ(oracle.stats.TotalViolations(), 0u);
  for (uint32_t n_workers : {1u, 2u, 8u}) {
    SCOPED_TRACE("n_workers=" + std::to_string(n_workers));
    const VerifyReport sharded = RunEngineMigrating(
        no_gc, h.traces, /*n_shards=*/4, seed, /*migrate_every=*/7,
        /*enable_rebalance=*/true, n_workers);
    EXPECT_EQ(sharded.stats.TotalViolations(), 0u);
    EXPECT_EQ(oracle.stats.reads_verified, sharded.stats.reads_verified);
    EXPECT_EQ(oracle.stats.deps_total, sharded.stats.deps_total);
    EXPECT_EQ(oracle.stats.deps_deduced, sharded.stats.deps_deduced);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedDifferential,
                         ::testing::Range<uint64_t>(1, 9));

// A write-skew cycle whose two rw antidependencies are deduced on
// *different* shards: only the certifier thread, which owns the global
// graph, can close it. Both engines must flag it.
TEST(ShardedLeopard, CrossShardCycleDetectedByCertifier) {
  VerifierConfig config = PgSer();
  config.certifier = CertifierMode::kCycle;

  // Pick two keys that land on different shards at n_shards = 4.
  const Key x = 0;
  Key y = 1;
  while (ShardedLeopard::ShardOfKey(y, 4) == ShardedLeopard::ShardOfKey(x, 4)) {
    ++y;
  }
  const Value x0 = MakeLoadValue(x), y0 = MakeLoadValue(y);
  const Value y1 = MakeClientValue(1, 1), x2 = MakeClientValue(2, 2);

  std::vector<Trace> traces;
  traces.push_back(MakeWriteTrace(kLoadTxnId, 0, {10, 13},
                                  {{x, x0}, {y, y0}}));
  traces.push_back(MakeCommitTrace(kLoadTxnId, 0, {20, 23}));
  // Write skew: T1 reads x, writes y; T2 reads y, writes x; both commit.
  traces.push_back(MakeReadTrace(1, 1, {30, 33}, {{x, x0}}));
  traces.push_back(MakeReadTrace(2, 2, {40, 43}, {{y, y0}}));
  traces.push_back(MakeWriteTrace(1, 1, {50, 53}, {{y, y1}}));
  traces.push_back(MakeWriteTrace(2, 2, {60, 63}, {{x, x2}}));
  traces.push_back(MakeCommitTrace(1, 1, {70, 73}));
  traces.push_back(MakeCommitTrace(2, 2, {80, 83}));

  const VerifyReport oracle = RunEngine(config, traces, 1);
  EXPECT_GE(oracle.stats.sc_violations, 1u);
  EXPECT_EQ(oracle.stats.cr_violations, 0u);
  EXPECT_EQ(oracle.stats.me_violations, 0u);
  EXPECT_EQ(oracle.stats.fuw_violations, 0u);

  const VerifyReport sharded = RunEngine(config, traces, 4);
  EXPECT_GE(sharded.stats.sc_violations, 1u);
  EXPECT_EQ(sharded.stats.cr_violations, 0u);
  EXPECT_EQ(sharded.stats.me_violations, 0u);
  EXPECT_EQ(sharded.stats.fuw_violations, 0u);
}

// The write-skew cycle again, but with the keys migrated mid-transaction:
// x moves onto y's shard after the reads (the two rw antidependencies are
// then deduced on one shard), and y moves to a third shard before the
// commits. The certifier must still close the cycle.
TEST(ShardedLeopard, CrossShardCycleSurvivesMidStreamMigration) {
  VerifierConfig config = PgSer();
  config.certifier = CertifierMode::kCycle;

  const Key x = 0;
  Key y = 1;
  while (ShardedLeopard::ShardOfKey(y, 4) == ShardedLeopard::ShardOfKey(x, 4)) {
    ++y;
  }
  const Value x0 = MakeLoadValue(x), y0 = MakeLoadValue(y);
  const Value y1 = MakeClientValue(1, 1), x2 = MakeClientValue(2, 2);

  ShardedLeopard::Options options;
  options.n_shards = 4;
  options.queue_capacity = 1024;
  options.safe_ts_every = 64;
  ShardedLeopard engine(config, options);
  engine.Process(MakeWriteTrace(kLoadTxnId, 0, {10, 13}, {{x, x0}, {y, y0}}));
  engine.Process(MakeCommitTrace(kLoadTxnId, 0, {20, 23}));
  engine.Process(MakeReadTrace(1, 1, {30, 33}, {{x, x0}}));
  engine.Process(MakeReadTrace(2, 2, {40, 43}, {{y, y0}}));
  engine.DebugForceMigrate(x, ShardedLeopard::ShardOfKey(y, 4));
  engine.Process(MakeWriteTrace(1, 1, {50, 53}, {{y, y1}}));
  engine.Process(MakeWriteTrace(2, 2, {60, 63}, {{x, x2}}));
  uint32_t third = 0;
  while (third == ShardedLeopard::ShardOfKey(x, 4) ||
         third == ShardedLeopard::ShardOfKey(y, 4)) {
    ++third;
  }
  engine.DebugForceMigrate(y, third);
  engine.Process(MakeCommitTrace(1, 1, {70, 73}));
  engine.Process(MakeCommitTrace(2, 2, {80, 83}));
  engine.Finish();

  EXPECT_GE(engine.report().stats.sc_violations, 1u);
  EXPECT_EQ(engine.report().stats.cr_violations, 0u);
  EXPECT_EQ(engine.report().stats.me_violations, 0u);
  EXPECT_EQ(engine.report().stats.fuw_violations, 0u);
}

// Range reads are expanded by the router before projection; the per-key
// absences must verify exactly as in the single-threaded path.
TEST(ShardedLeopard, RangeReadsVerifyIdenticallyWhenSharded) {
  std::vector<Trace> traces;
  std::vector<WriteAccess> rows;
  for (Key k = 0; k < 10; ++k) rows.push_back({k, MakeLoadValue(k)});
  traces.push_back(MakeWriteTrace(kLoadTxnId, 0, {10, 13}, rows));
  traces.push_back(MakeCommitTrace(kLoadTxnId, 0, {20, 23}));
  // Delete key 5.
  traces.push_back(MakeWriteTrace(1, 1, {30, 33}, {{5, kTombstoneValue}}));
  traces.push_back(MakeCommitTrace(1, 1, {40, 43}));
  // Range-scan [0, 12): rows 0..9 except the deleted 5; 10, 11 never
  // existed. A correct execution — and, mutated below, a broken one.
  Trace scan = MakeReadTrace(2, 2, {50, 53}, {});
  for (Key k = 0; k < 10; ++k) {
    if (k != 5) scan.read_set.push_back({k, MakeLoadValue(k)});
  }
  scan.range_first = 0;
  scan.range_count = 12;
  traces.push_back(scan);
  traces.push_back(MakeCommitTrace(2, 2, {60, 63}));

  const VerifyReport oracle = RunEngine(PgSer(), traces, 1);
  const VerifyReport sharded = RunEngine(PgSer(), traces, 4);
  EXPECT_EQ(oracle.stats.TotalViolations(), 0u);
  EXPECT_EQ(sharded.stats.TotalViolations(), 0u);
  EXPECT_EQ(oracle.stats.reads_verified, sharded.stats.reads_verified);

  // Now the broken variant: the scan also skips key 3 (phantom-hidden row).
  Trace& broken = traces[4];
  broken.read_set.erase(
      std::remove_if(broken.read_set.begin(), broken.read_set.end(),
                     [](const ReadAccess& r) { return r.key == 3; }),
      broken.read_set.end());
  const VerifyReport oracle2 = RunEngine(PgSer(), traces, 1);
  const VerifyReport sharded2 = RunEngine(PgSer(), traces, 4);
  EXPECT_GE(oracle2.stats.cr_violations, 1u);
  EXPECT_EQ(NonScBugStrings(oracle2), NonScBugStrings(sharded2));
}

// Terminals reach only the shards a transaction touched, so a shard that
// owns none of the keys in play receives no traces at all. It must not pin
// the certifier's garbage collection (the minimum of every shard's safe
// timestamp): the router ticks it with its frontier and safe bound, and the
// certifier's graph stays bounded over a long stretch of commits.
TEST(ShardedLeopard, ColdShardDoesNotPinCertifierGc) {
  constexpr uint32_t kShards = 4;
  constexpr uint32_t kCold = 3;
  std::vector<Key> keys;
  for (Key k = 0; keys.size() < 16; ++k) {
    if (ShardedLeopard::ShardOfKey(k, kShards) != kCold) keys.push_back(k);
  }
  obs::MetricsRegistry registry;
  ShardedLeopard::Options options;
  options.n_shards = kShards;
  options.metrics = &registry;
  ShardedLeopard engine(PgSer(), options);

  std::vector<WriteAccess> load;
  std::vector<Value> current;
  for (Key k : keys) {
    load.push_back({k, MakeLoadValue(k)});
    current.push_back(MakeLoadValue(k));
  }
  engine.Process(MakeWriteTrace(kLoadTxnId, 0, {10, 13}, load));
  engine.Process(MakeCommitTrace(kLoadTxnId, 0, {20, 23}));
  // 20000 serial read-modify-write transactions, one key each.
  constexpr uint64_t kTxns = 20000;
  Timestamp ts = 100;
  for (uint64_t i = 0; i < kTxns; ++i) {
    const TxnId txn = i + 1;
    const size_t slot = i % keys.size();
    const Value next = MakeClientValue(1, i + 1);
    engine.Process(MakeReadTrace(txn, 1, {ts, ts + 3}, {{keys[slot],
                                                         current[slot]}}));
    engine.Process(MakeWriteTrace(txn, 1, {ts + 10, ts + 13},
                                  {{keys[slot], next}}));
    engine.Process(MakeCommitTrace(txn, 1, {ts + 20, ts + 23}));
    current[slot] = next;
    ts += 30;
  }
  engine.Finish();
  EXPECT_EQ(engine.report().stats.TotalViolations(), 0u);
  EXPECT_GT(engine.report().stats.pruned_txns, kTxns / 2);
  EXPECT_LT(registry.gauge("sharded.certifier.graph_nodes")->Value(), 1000);
}

}  // namespace
}  // namespace leopard
