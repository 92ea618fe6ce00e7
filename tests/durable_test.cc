// Durability tests (DESIGN.md §11): WAL append/seal/replay including torn
// tails and corrupt segments, checkpoint store round trips with fallback to
// an older checkpoint, OnlineVerifier save/load across the golden
// fault-injection matrix, and a full-stack crash/resume of the verification
// server — the state dir is snapshotted mid-run exactly as a SIGKILL'd
// process leaves it, and the resumed server must report the same bug set
// without re-ingesting pre-checkpoint traffic. Closes with regressions for
// the shutdown/liveness bugfix sweep that rode along with the durability
// work (SpscQueue poison, AddClient-after-seal, require_crc, the ingest
// clock-skew counter).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/spsc_queue.h"
#include "common/state_codec.h"
#include "durable/checkpoint.h"
#include "durable/fs.h"
#include "durable/wal.h"
#include "harness/online_verifier.h"
#include "harness/sim_runner.h"
#include "isolation/isolation.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "trace/trace_io.h"
#include "txn/database.h"
#include "verifier/leopard.h"
#include "verifier/mechanism_table.h"
#include "workload/ycsb.h"

namespace leopard {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the gtest temp root.
std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "leopard_durable_" + name;
  fs::remove_all(dir);
  return dir;
}

std::vector<Trace> SampleTraces(size_t n, ClientId client = 0) {
  std::vector<Trace> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    TxnId txn = 100 + i;
    Timestamp ts = 10 * (i + 1);
    if (i % 3 == 0) {
      out.push_back(MakeWriteTrace(txn, client, {ts, ts + 2},
                                   {{Key(i % 7), Value(1000 + i)}}));
    } else if (i % 3 == 1) {
      out.push_back(
          MakeReadTrace(txn, client, {ts, ts + 2}, {{Key(i % 7), 42}}));
    } else {
      out.push_back(MakeCommitTrace(txn - 2, client, {ts, ts + 1}));
    }
  }
  return out;
}

/// Replays the whole log into a vector, failing the test on replay error.
std::vector<durable::WalEntry> ReplayAll(const std::string& dir,
                                         uint64_t from_seq,
                                         durable::WalReplayStats* stats,
                                         bool truncate_torn = true) {
  std::vector<durable::WalEntry> entries;
  Status s = durable::WalReplay(
      dir, from_seq,
      [&](const durable::WalEntry& e) -> Status {
        entries.push_back(e);
        return Status::Ok();
      },
      stats, truncate_torn);
  EXPECT_TRUE(s.ok()) << s;
  return entries;
}

/// Flips one byte of a file in place.
void FlipByte(const std::string& path, size_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);
}

/// Appends raw bytes to a file — simulates a crash mid-append (torn tail).
void AppendRaw(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr) << path;
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

/// WAL segment paths in `dir`, ascending by first sequence number.
std::vector<std::string> WalSegments(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("seg-", 0) == 0) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// The sentinel that opens a sealed WAL segment's 8-byte footer.
constexpr std::string_view kSealSentinel("\xFF" "CRC", 4);

/// Checks that `path` is sealed and that its footer CRC equals a CRC read
/// back over every preceding byte of the file.
void ExpectFooterMatchesReadBack(const std::string& path) {
  auto bytes = durable::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  ASSERT_GE(bytes->size(), 24u) << path;  // header + footer
  const size_t body = bytes->size() - 8;
  EXPECT_EQ(bytes->substr(body, 4), kSealSentinel) << path;
  StateReader footer(*bytes, body + 4);
  uint32_t stored = 0;
  ASSERT_TRUE(footer.GetU32(stored).ok());
  EXPECT_EQ(stored, Crc32(bytes->data(), body)) << path;
}

/// Rewrites a checkpoint file as the previous format would have stamped
/// it: magic "LEOCKP05", trailing CRC recomputed so only the magic differs.
void DowngradeCheckpointMagic(const std::string& path) {
  auto bytes = durable::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  ASSERT_EQ(bytes->substr(0, 8), "LEOCKP06");
  (*bytes)[7] = '5';
  bytes->resize(bytes->size() - 4);
  const uint32_t crc = Crc32(bytes->data(), bytes->size());
  StateWriter(*bytes).PutU32(crc);
  ASSERT_TRUE(durable::WriteFileAtomic(path, *bytes).ok());
}

// ---------------------------------------------------------------------------
// WAL

TEST(WalTest, RoundTripAcrossRotation) {
  const std::string dir = TempDir("wal_roundtrip");
  auto traces = SampleTraces(40);
  {
    durable::WalWriter wal;
    durable::WalWriter::Options wo;
    wo.segment_bytes = 256;  // force several rotations
    ASSERT_TRUE(wal.Open(dir, 0, wo).ok());
    ASSERT_TRUE(wal.AppendAddClient(0).ok());
    ASSERT_TRUE(wal.AppendAddClient(1).ok());
    for (const Trace& t : traces) {
      ASSERT_TRUE(wal.AppendTrace(t).ok());
      if (t.txn % 5 == 0) {
        ASSERT_TRUE(wal.Sync().ok());
      }
    }
    ASSERT_TRUE(wal.Sync().ok());
    EXPECT_EQ(wal.next_seq(), traces.size() + 2);
    EXPECT_GT(wal.segment_count(), 1u);
  }
  durable::WalReplayStats stats;
  auto entries = ReplayAll(dir, 0, &stats);
  ASSERT_EQ(entries.size(), traces.size() + 2);
  EXPECT_EQ(stats.entries_replayed, traces.size() + 2);
  EXPECT_EQ(stats.entries_skipped, 0u);
  EXPECT_EQ(stats.next_seq, traces.size() + 2);
  EXPECT_GT(stats.segments_read, 1u);
  EXPECT_EQ(stats.torn_bytes, 0u);
  EXPECT_EQ(entries[0].kind, durable::WalEntry::Kind::kAddClient);
  EXPECT_EQ(entries[0].client, 0u);
  EXPECT_EQ(entries[1].client, 1u);
  for (size_t i = 0; i < traces.size(); ++i) {
    const durable::WalEntry& e = entries[i + 2];
    EXPECT_EQ(e.kind, durable::WalEntry::Kind::kTrace);
    EXPECT_EQ(e.seq, i + 2);
    EXPECT_EQ(e.trace.ToString(), traces[i].ToString());
  }
}

TEST(WalTest, ReplayFromCutSkipsCoveredEntries) {
  const std::string dir = TempDir("wal_from_cut");
  auto traces = SampleTraces(10);
  {
    durable::WalWriter wal;
    ASSERT_TRUE(wal.Open(dir, 0, {}).ok());
    for (const Trace& t : traces) ASSERT_TRUE(wal.AppendTrace(t).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  durable::WalReplayStats stats;
  auto entries = ReplayAll(dir, 6, &stats);
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front().seq, 6u);
  EXPECT_EQ(stats.entries_skipped, 6u);
  EXPECT_EQ(stats.entries_replayed, 4u);
}

TEST(WalTest, ReopenResumesAppendingWhereReplayStopped) {
  const std::string dir = TempDir("wal_reopen");
  auto traces = SampleTraces(8);
  {
    durable::WalWriter wal;
    ASSERT_TRUE(wal.Open(dir, 0, {}).ok());
    for (size_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(wal.AppendTrace(traces[i]).ok());
    }
    ASSERT_TRUE(wal.Sync().ok());
  }
  durable::WalReplayStats stats;
  ReplayAll(dir, 0, &stats);
  ASSERT_EQ(stats.next_seq, 5u);
  {
    // Second process generation: the pre-existing active segment is sealed
    // and appending continues at the recovered sequence.
    durable::WalWriter wal;
    ASSERT_TRUE(wal.Open(dir, stats.next_seq, {}).ok());
    for (size_t i = 5; i < traces.size(); ++i) {
      ASSERT_TRUE(wal.AppendTrace(traces[i]).ok());
    }
    ASSERT_TRUE(wal.Sync().ok());
  }
  auto entries = ReplayAll(dir, 0, &stats);
  ASSERT_EQ(entries.size(), traces.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(entries[i].seq, i);
    EXPECT_EQ(entries[i].trace.ToString(), traces[i].ToString());
  }
}

TEST(WalTest, TornTailIsTruncatedAndStaysGone) {
  const std::string dir = TempDir("wal_torn");
  auto traces = SampleTraces(6);
  {
    durable::WalWriter wal;
    ASSERT_TRUE(wal.Open(dir, 0, {}).ok());
    for (const Trace& t : traces) ASSERT_TRUE(wal.AppendTrace(t).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  // A crash mid-append leaves a partial entry at the active segment's tail:
  // the kTrace kind byte plus half a record.
  auto segments = WalSegments(dir);
  ASSERT_EQ(segments.size(), 1u);
  std::string partial;
  partial.push_back('\x02');
  AppendTraceRecord(partial, traces[0]);
  partial.resize(partial.size() / 2);
  AppendRaw(segments[0], partial);
  const auto torn_size = fs::file_size(segments[0]);

  durable::WalReplayStats stats;
  auto entries = ReplayAll(dir, 0, &stats);
  ASSERT_EQ(entries.size(), traces.size());
  EXPECT_EQ(stats.torn_bytes, partial.size());
  EXPECT_EQ(fs::file_size(segments[0]), torn_size - partial.size());

  // A second replay sees a clean log: the tail was truncated, not skipped.
  auto again = ReplayAll(dir, 0, &stats);
  EXPECT_EQ(again.size(), traces.size());
  EXPECT_EQ(stats.torn_bytes, 0u);
}

TEST(WalTest, ReadOnlyReplayReportsTornTailWithoutTruncating) {
  const std::string dir = TempDir("wal_torn_ro");
  {
    durable::WalWriter wal;
    ASSERT_TRUE(wal.Open(dir, 0, {}).ok());
    for (const Trace& t : SampleTraces(3)) {
      ASSERT_TRUE(wal.AppendTrace(t).ok());
    }
    ASSERT_TRUE(wal.Sync().ok());
  }
  auto segments = WalSegments(dir);
  ASSERT_EQ(segments.size(), 1u);
  AppendRaw(segments[0], std::string("\x02garbage"));
  const auto size_before = fs::file_size(segments[0]);
  durable::WalReplayStats stats;
  auto entries = ReplayAll(dir, 0, &stats, /*truncate_torn=*/false);
  EXPECT_EQ(entries.size(), 3u);
  EXPECT_GT(stats.torn_bytes, 0u);
  EXPECT_EQ(fs::file_size(segments[0]), size_before);  // untouched
}

TEST(WalTest, SealedSegmentCorruptionIsAHardError) {
  const std::string dir = TempDir("wal_crc");
  {
    durable::WalWriter wal;
    ASSERT_TRUE(wal.Open(dir, 0, {}).ok());
    for (const Trace& t : SampleTraces(5)) {
      ASSERT_TRUE(wal.AppendTrace(t).ok());
    }
    ASSERT_TRUE(wal.Rotate().ok());  // seals segment 0, CRC footer appended
  }
  auto segments = WalSegments(dir);
  ASSERT_GE(segments.size(), 1u);
  FlipByte(segments[0], fs::file_size(segments[0]) / 2);
  durable::WalReplayStats stats;
  Status s = durable::WalReplay(
      dir, 0, [](const durable::WalEntry&) { return Status::Ok(); }, &stats);
  ASSERT_FALSE(s.ok());
}

TEST(WalTest, EverySealCarriesTheReadBackCrc) {
  // The writer seals from a CRC it folds as it flushes; each of the three
  // ways a segment gets sealed must agree with a CRC of the file on disk.
  const std::string dir = TempDir("wal_seal_crc");
  auto traces = SampleTraces(60);
  {
    durable::WalWriter wal;
    durable::WalWriter::Options wo;
    wo.segment_bytes = 512;  // size-triggered rotation every few batches
    ASSERT_TRUE(wal.Open(dir, 0, wo).ok());
    ASSERT_TRUE(wal.AppendAddClient(0).ok());
    for (size_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(wal.AppendTrace(traces[i]).ok());
      if (i % 3 == 2) {
        ASSERT_TRUE(wal.Sync().ok());
      }
    }
    ASSERT_GE(wal.segment_count(), 3u);  // at least two size-triggered seals
    // A checkpoint's seal, with an unflushed append still pending.
    ASSERT_TRUE(wal.Rotate().ok());
    for (size_t i = 40; i < 50; ++i) {
      ASSERT_TRUE(wal.AppendTrace(traces[i]).ok());
    }
    ASSERT_TRUE(wal.Sync().ok());
  }
  // The process dies mid-append; the next one truncates the torn tail and
  // Open() seals what is left of that segment.
  std::string partial;
  partial.push_back('\x02');
  AppendTraceRecord(partial, traces[50]);
  partial.resize(partial.size() / 2);
  AppendRaw(WalSegments(dir).back(), partial);
  durable::WalReplayStats stats;
  ReplayAll(dir, 0, &stats);
  ASSERT_EQ(stats.torn_bytes, partial.size());
  {
    durable::WalWriter wal;
    ASSERT_TRUE(wal.Open(dir, stats.next_seq, {}).ok());
  }
  const auto segments = WalSegments(dir);
  ASSERT_GE(segments.size(), 5u);
  // Every segment but the new, empty active one is sealed.
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    ExpectFooterMatchesReadBack(segments[i]);
  }
  auto entries = ReplayAll(dir, 0, &stats);
  ASSERT_EQ(entries.size(), 51u);
  EXPECT_EQ(entries.back().trace.ToString(), traces[49].ToString());
}

TEST(WalTest, MissingMiddleSegmentIsAHardError) {
  const std::string dir = TempDir("wal_gap");
  {
    durable::WalWriter wal;
    durable::WalWriter::Options wo;
    wo.segment_bytes = 128;
    ASSERT_TRUE(wal.Open(dir, 0, wo).ok());
    for (const Trace& t : SampleTraces(30)) {
      ASSERT_TRUE(wal.AppendTrace(t).ok());
      ASSERT_TRUE(wal.Sync().ok());
    }
  }
  auto segments = WalSegments(dir);
  ASSERT_GE(segments.size(), 3u);
  fs::remove(segments[1]);
  durable::WalReplayStats stats;
  Status s = durable::WalReplay(
      dir, 0, [](const durable::WalEntry&) { return Status::Ok(); }, &stats);
  ASSERT_FALSE(s.ok());
}

TEST(WalTest, LogStartingAfterTheCutIsAnError) {
  // If garbage collection (or an operator) removed segments the requested
  // replay point still needs, recovery must fail loudly — silently starting
  // later would drop accepted traffic.
  const std::string dir = TempDir("wal_starts_late");
  {
    durable::WalWriter wal;
    ASSERT_TRUE(wal.Open(dir, 100, {}).ok());
    ASSERT_TRUE(wal.AppendAddClient(0).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  durable::WalReplayStats stats;
  Status s = durable::WalReplay(
      dir, 0, [](const durable::WalEntry&) { return Status::Ok(); }, &stats);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(WalTest, RemoveSegmentsBelowKeepsTheCoveringSegment) {
  const std::string dir = TempDir("wal_gc");
  durable::WalWriter wal;
  durable::WalWriter::Options wo;
  wo.segment_bytes = 128;
  ASSERT_TRUE(wal.Open(dir, 0, wo).ok());
  auto traces = SampleTraces(30);
  for (const Trace& t : traces) {
    ASSERT_TRUE(wal.AppendTrace(t).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  ASSERT_GE(WalSegments(dir).size(), 3u);
  // GC below a mid-log sequence: segments fully below it go, the segment
  // containing it stays, and replay from that point still works.
  const uint64_t cut = 15;
  wal.RemoveSegmentsBelow(cut);
  durable::WalReplayStats stats;
  auto entries = ReplayAll(dir, cut, &stats);
  ASSERT_EQ(entries.size(), traces.size() - cut);
  EXPECT_EQ(entries.front().seq, cut);
  // The active segment is never removed, no matter the sequence.
  wal.RemoveSegmentsBelow(1'000'000);
  EXPECT_FALSE(WalSegments(dir).empty());
}

// ---------------------------------------------------------------------------
// Checkpoint store

TEST(CheckpointTest, RoundTripAndPruneKeepsTwo) {
  const std::string dir = TempDir("ckpt_roundtrip");
  durable::CheckpointStore store;
  ASSERT_TRUE(store.Init(dir).ok());
  EXPECT_FALSE(store.LoadNewest().ok());  // empty dir: nothing to load

  durable::CheckpointStore::Meta meta;
  meta.config_fingerprint = 0xfeedface;
  meta.n_shards = 2;
  for (uint64_t cut : {5u, 9u, 12u}) {
    meta.cut = cut;
    ASSERT_TRUE(store.Write(meta, "payload-" + std::to_string(cut)).ok());
  }
  auto newest = store.LoadNewest();
  ASSERT_TRUE(newest.ok()) << newest.status();
  EXPECT_EQ(newest->meta.cut, 12u);
  EXPECT_EQ(newest->meta.config_fingerprint, 0xfeedfaceu);
  EXPECT_EQ(newest->meta.n_shards, 2u);
  EXPECT_EQ(newest->payload, "payload-12");
  // Only the newest two checkpoints are retained.
  auto all = store.List();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, 9u);
  EXPECT_EQ(all[1].first, 12u);
}

TEST(CheckpointTest, CorruptNewestFallsBackToOlder) {
  const std::string dir = TempDir("ckpt_fallback");
  durable::CheckpointStore store;
  ASSERT_TRUE(store.Init(dir).ok());
  durable::CheckpointStore::Meta meta;
  meta.config_fingerprint = 1;
  meta.n_shards = 1;
  meta.cut = 5;
  ASSERT_TRUE(store.Write(meta, std::string(100, 'a')).ok());
  meta.cut = 9;
  ASSERT_TRUE(store.Write(meta, std::string(100, 'b')).ok());

  auto all = store.List();
  ASSERT_EQ(all.size(), 2u);
  FlipByte(all[1].second, 40);  // corrupt the newest checkpoint's body
  auto loaded = store.LoadNewest();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->meta.cut, 5u);

  FlipByte(all[0].second, 40);  // now both are gone
  EXPECT_FALSE(store.LoadNewest().ok());
}

TEST(CheckpointTest, OlderFormatIsRejectedByName) {
  // A file from before the terminal-mask router state: same container,
  // older magic. It must fail as "older format", not misparse as state.
  const std::string dir = TempDir("ckpt_old_magic");
  durable::CheckpointStore store;
  ASSERT_TRUE(store.Init(dir).ok());
  durable::CheckpointStore::Meta meta;
  meta.cut = 7;
  ASSERT_TRUE(store.Write(meta, "payload").ok());
  const std::string path = store.List().at(0).second;
  DowngradeCheckpointMagic(path);

  auto loaded = durable::CheckpointStore::ReadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("has format LEOCKP05"),
            std::string::npos)
      << loaded.status();
  EXPECT_NE(loaded.status().message().find("reads LEOCKP06"),
            std::string::npos)
      << loaded.status();
  EXPECT_FALSE(store.LoadNewest().ok());
}

// ---------------------------------------------------------------------------
// OnlineVerifier save/load across the golden fault matrix

struct FaultyHistory {
  std::vector<Trace> traces;
  std::vector<BugDescriptor> bugs;
  VerifierConfig config;
  uint64_t injected = 0;
};

/// Same generation recipe as the diagnosis golden matrix: YCSB on a
/// fault-injected MiniDB, reference verdicts from a single offline Leopard
/// pass over the merged history.
FaultyHistory RunWithFaults(const FaultPlan& plan, Protocol protocol,
                            IsolationLevel isolation, uint64_t seed,
                            uint64_t txns = 600, double theta = 0.7,
                            uint64_t records = 60) {
  Database::Options dbo;
  dbo.protocol = protocol;
  dbo.isolation = isolation;
  dbo.faults = plan;
  dbo.fault_seed = seed;
  Database db(dbo);
  YcsbWorkload::Options wo;
  wo.record_count = records;
  wo.theta = theta;
  YcsbWorkload workload(wo);
  SimOptions so;
  so.clients = 8;
  so.total_txns = txns;
  so.seed = seed;
  SimRunner runner(&db, &workload, so);
  RunResult result = runner.Run();

  FaultyHistory out;
  out.config = ConfigForMiniDb(protocol, isolation);
  out.traces = result.MergedTraces();
  Leopard verifier(out.config);
  for (const auto& t : out.traces) verifier.Process(t);
  verifier.Finish();
  out.bugs = verifier.bugs();
  out.injected = db.injected_fault_count();
  return out;
}

struct GoldenCase {
  const char* name;
  FaultPlan plan;
  Protocol protocol;
  IsolationLevel isolation;
  uint64_t seed;
  uint64_t txns = 600;
  double theta = 0.7;
  uint64_t records = 60;
};

std::vector<GoldenCase> GoldenMatrix() {
  std::vector<GoldenCase> cases;
  {
    GoldenCase c{"dropped_lock", {}, Protocol::kMvcc2plSsi,
                 IsolationLevel::kSerializable, 11};
    c.plan.drop_lock_prob = 0.2;
    cases.push_back(c);
  }
  {
    GoldenCase c{"stale_snapshot", {}, Protocol::kMvcc2plSsi,
                 IsolationLevel::kReadCommitted, 12};
    c.plan.stale_snapshot_prob = 0.3;
    c.plan.stale_snapshot_lag = 8;
    cases.push_back(c);
  }
  {
    GoldenCase c{"dirty_read", {}, Protocol::kMvcc2plSsi,
                 IsolationLevel::kReadCommitted, 13};
    c.plan.dirty_read_prob = 0.3;
    cases.push_back(c);
  }
  {
    GoldenCase c{"lost_write", {}, Protocol::kMvcc2plSsi,
                 IsolationLevel::kSerializable, 15};
    c.plan.lost_write_prob = 0.2;
    cases.push_back(c);
  }
  {
    GoldenCase c{"skip_fuw", {}, Protocol::kMvcc2plSsi,
                 IsolationLevel::kSnapshotIsolation, 16, 800, 0.9, 20};
    c.plan.skip_fuw_prob = 1.0;
    cases.push_back(c);
  }
  {
    GoldenCase c{"skip_certifier", {}, Protocol::kMvccOcc,
                 IsolationLevel::kSerializable, 17, 800, 0.9, 20};
    c.plan.skip_certifier_prob = 1.0;
    cases.push_back(c);
  }
  return cases;
}

/// Order-insensitive bug comparison key: the same logical violations can
/// surface in a different order after a resume (and across shards).
std::multiset<std::string> BugSet(const std::vector<BugDescriptor>& bugs) {
  std::multiset<std::string> out;
  for (const BugDescriptor& b : bugs) out.insert(b.ToString());
  return out;
}

/// Pushes `traces[begin, end)` into `v`, routing by the trace's client id.
void PushRange(OnlineVerifier& v, const std::vector<Trace>& traces,
               size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    v.Push(traces[i].client, traces[i]);
  }
}

uint32_t MaxClient(const std::vector<Trace>& traces) {
  uint32_t n = 0;
  for (const Trace& t : traces) n = std::max(n, t.client + 1);
  return n;
}

TEST(DurableVerifierTest, SaveLoadResumesWithIdenticalVerdicts) {
  for (const GoldenCase& c : GoldenMatrix()) {
    SCOPED_TRACE(c.name);
    FaultyHistory h = RunWithFaults(c.plan, c.protocol, c.isolation, c.seed,
                                    c.txns, c.theta, c.records);
    ASSERT_GT(h.injected, 0u);
    ASSERT_FALSE(h.bugs.empty());
    const uint32_t n_clients = MaxClient(h.traces);

    for (size_t cut : {h.traces.size() / 4, h.traces.size() / 2,
                       h.traces.size() - 1}) {
      SCOPED_TRACE("cut=" + std::to_string(cut));
      std::string payload;
      {
        // "First process": ingest a prefix, checkpoint, die (the
        // destructor discards whatever a real crash would lose).
        OnlineVerifier before(n_clients, h.config);
        PushRange(before, h.traces, 0, cut);
        StateWriter w(payload);
        ASSERT_TRUE(before.SaveState(w).ok());
      }
      // "Second process": restore and feed the remainder. The client count
      // comes from the snapshot, not the constructor.
      OnlineVerifier after(1, h.config);
      StateReader r(payload);
      ASSERT_TRUE(after.LoadState(r).ok());
      PushRange(after, h.traces, cut, h.traces.size());
      for (ClientId cl = 0; cl < n_clients; ++cl) after.Close(cl);
      const VerifyReport& report = after.WaitReport();
      EXPECT_EQ(BugSet(report.bugs), BugSet(h.bugs));
    }
  }
}

TEST(DurableVerifierTest, MixedIlTagsSurviveCheckpointResume) {
  // A mixed-isolation history must checkpoint/resume to the same verdicts
  // AND the same suppression accounting: the snapshot carries each open
  // transaction's declared level (a resume that forgot the tags would
  // false-positive the weak sessions post-cut) plus the weak-IL counters.
  GoldenCase c = GoldenMatrix()[0];  // dropped_lock at SER
  FaultyHistory h = RunWithFaults(c.plan, c.protocol, c.isolation, c.seed);
  ASSERT_FALSE(h.bugs.empty());
  auto map = isolation::SessionIlMap::Parse("0:rc,1:rc,2:si,*:ser");
  ASSERT_TRUE(map.ok());
  isolation::ApplyIlTags(*map, h.traces);
  const uint32_t n_clients = MaxClient(h.traces);

  // Oracle: one uninterrupted run over the tagged history.
  OnlineVerifier oracle(n_clients, h.config);
  PushRange(oracle, h.traces, 0, h.traces.size());
  for (ClientId cl = 0; cl < n_clients; ++cl) oracle.Close(cl);
  const VerifyReport& want = oracle.WaitReport();
  // The weak sessions actually bite on this history: fewer bugs than the
  // untagged verdicts, and a nonzero suppression trail.
  EXPECT_LT(want.bugs.size(), h.bugs.size());
  EXPECT_GT(want.stats.me_suppressed_weak, 0u);
  EXPECT_GT(want.stats.weak_il_traces, 0u);

  for (size_t cut : {h.traces.size() / 4, h.traces.size() / 2,
                     h.traces.size() - 1}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    std::string payload;
    {
      OnlineVerifier before(n_clients, h.config);
      PushRange(before, h.traces, 0, cut);
      StateWriter w(payload);
      ASSERT_TRUE(before.SaveState(w).ok());
    }
    OnlineVerifier after(1, h.config);
    StateReader r(payload);
    ASSERT_TRUE(after.LoadState(r).ok());
    PushRange(after, h.traces, cut, h.traces.size());
    for (ClientId cl = 0; cl < n_clients; ++cl) after.Close(cl);
    const VerifyReport& got = after.WaitReport();
    EXPECT_EQ(BugSet(got.bugs), BugSet(want.bugs));
    EXPECT_EQ(got.stats.weak_il_traces, want.stats.weak_il_traces);
    EXPECT_EQ(got.stats.me_suppressed_weak, want.stats.me_suppressed_weak);
    EXPECT_EQ(got.stats.fuw_suppressed_weak,
              want.stats.fuw_suppressed_weak);
    EXPECT_EQ(got.stats.sc_nodes_skipped_weak,
              want.stats.sc_nodes_skipped_weak);
  }
}

TEST(DurableVerifierTest, ShardedSaveLoadResumes) {
  GoldenCase c = GoldenMatrix()[0];  // dropped_lock
  FaultyHistory h = RunWithFaults(c.plan, c.protocol, c.isolation, c.seed);
  ASSERT_FALSE(h.bugs.empty());
  const uint32_t n_clients = MaxClient(h.traces);
  const size_t cut = h.traces.size() / 2;

  OnlineVerifier::Options vo;
  vo.n_shards = 2;
  std::string payload;
  {
    OnlineVerifier before(n_clients, h.config, vo);
    PushRange(before, h.traces, 0, cut);
    StateWriter w(payload);
    ASSERT_TRUE(before.SaveState(w).ok());
  }
  OnlineVerifier after(1, h.config, vo);
  StateReader r(payload);
  ASSERT_TRUE(after.LoadState(r).ok());
  PushRange(after, h.traces, cut, h.traces.size());
  for (ClientId cl = 0; cl < n_clients; ++cl) after.Close(cl);
  EXPECT_EQ(BugSet(after.WaitReport().bugs), BugSet(h.bugs));
}

// Checkpoint/resume straddling live rebalancer state: the first engine
// rebalances (hair-trigger) and takes forced migrations, so at the cut the
// routing table holds keys living off their hash shard. The snapshot must
// carry that table — a resumed engine that re-derived routes by hash would
// send post-resume traces to shards that no longer own the keys' mirrored
// state and diverge from the oracle's verdicts.
TEST(DurableVerifierTest, ShardedEngineSaveLoadResumesMidRebalance) {
  GoldenCase c = GoldenMatrix()[0];  // dropped_lock
  FaultyHistory h = RunWithFaults(c.plan, c.protocol, c.isolation, c.seed);
  ASSERT_FALSE(h.bugs.empty());
  const size_t cut = h.traces.size() / 2;

  ShardedLeopard::Options eo;
  eo.n_shards = 4;
  eo.enable_rebalance = true;
  eo.rebalance_check_every = 64;
  eo.rebalance_imbalance = 1.05;

  auto feed = [&h](ShardedLeopard& engine, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      engine.Process(h.traces[i]);
      // Same absolute-index schedule on both sides of the cut: the two
      // halves compose into one continuous migration-riddled run.
      if (i % 97 == 0) {
        engine.DebugForceMigrate(static_cast<Key>(i % 60),
                                 static_cast<uint32_t>(i % 4));
      }
    }
  };

  std::string payload;
  {
    ShardedLeopard before(h.config, eo);
    feed(before, 0, cut);
    before.Quiesce();
    StateWriter w(payload);
    before.SaveState(w);
    before.ResumeFromQuiesce();
    before.Finish();  // "crash": the rest of this run is discarded
  }
  ShardedLeopard after(h.config, eo);
  StateReader r(payload);
  ASSERT_TRUE(after.LoadState(r).ok());
  feed(after, cut, h.traces.size());
  after.Finish();
  EXPECT_EQ(BugSet(after.report().bugs), BugSet(h.bugs));
}

// A key migration carries an active reader's still-pending plain read to a
// shard that never registered the reader. The checkpoint lands while that
// read is pending; after the restore it flushes and deduces the reader's
// rw antidependency on a writer that commits before the reader does. The
// certifier must hold that edge until the reader commits — dropping it
// would lose one half of the write-skew cycle below.
TEST(DurableVerifierTest, ShardedRestoreKeepsMigratedReadEdges) {
  VerifierConfig config = ConfigForMiniDb(Protocol::kMvcc2plSsi,
                                          IsolationLevel::kSerializable);
  config.certifier = CertifierMode::kCycle;
  constexpr uint32_t kShards = 4;
  const Key x = 0;
  Key y = 1;
  while (ShardedLeopard::ShardOfKey(y, kShards) ==
         ShardedLeopard::ShardOfKey(x, kShards)) {
    ++y;
  }
  // x moves to a shard that none of the reader's other traces reach.
  uint32_t target = 0;
  while (target == ShardedLeopard::ShardOfKey(x, kShards) ||
         target == ShardedLeopard::ShardOfKey(y, kShards)) {
    ++target;
  }
  const Value x0 = MakeLoadValue(x), y0 = MakeLoadValue(y);
  const Value y1 = MakeClientValue(1, 1), x2 = MakeClientValue(2, 2);
  // Write skew: T1 reads x, T2 reads y, T1 writes y, T2 writes x; T2
  // commits first.
  const std::vector<Trace> before_cut = {
      MakeWriteTrace(kLoadTxnId, 0, {10, 13}, {{x, x0}, {y, y0}}),
      MakeCommitTrace(kLoadTxnId, 0, {20, 23}),
      MakeReadTrace(1, 1, {30, 33}, {{x, x0}}),
  };
  const std::vector<Trace> after_cut = {
      MakeReadTrace(2, 2, {40, 43}, {{y, y0}}),
      MakeWriteTrace(1, 1, {50, 53}, {{y, y1}}),
      MakeWriteTrace(2, 2, {60, 63}, {{x, x2}}),
      MakeCommitTrace(2, 2, {70, 73}),
  };
  const Trace t1_commit = MakeCommitTrace(1, 1, {80, 83});

  ShardedLeopard::Options eo;
  eo.n_shards = kShards;
  std::string payload;
  {
    ShardedLeopard before(config, eo);
    for (const Trace& t : before_cut) before.Process(t);
    before.DebugForceMigrate(x, target);
    before.Quiesce();
    StateWriter w(payload);
    before.SaveState(w);
    before.ResumeFromQuiesce();
    before.Finish();
  }
  ShardedLeopard after(config, eo);
  StateReader r(payload);
  ASSERT_TRUE(after.LoadState(r).ok());
  for (const Trace& t : after_cut) after.Process(t);
  // Drain, so the certifier has the rw edge T1 -> T2 before T1's fate.
  after.Quiesce();
  after.ResumeFromQuiesce();
  after.Process(t1_commit);
  after.Finish();
  EXPECT_GE(after.report().stats.sc_violations, 1u);
  EXPECT_EQ(after.report().stats.cr_violations, 0u);
  EXPECT_EQ(after.report().stats.me_violations, 0u);
  EXPECT_EQ(after.report().stats.fuw_violations, 0u);
}

TEST(DurableVerifierTest, SaveStateAfterFinishIsRejected) {
  // Regression for the draining race: a checkpoint that lands while the run
  // finishes must be refused, not applied to a half-drained verifier.
  VerifierConfig config = ConfigForMiniDb(Protocol::kMvcc2plSsi,
                                          IsolationLevel::kSerializable);
  OnlineVerifier v(1, config);
  v.Push(0, MakeWriteTrace(1, 0, {1, 2}, {{1, 10}}));
  v.Push(0, MakeCommitTrace(1, 0, {3, 4}));
  v.Close(0);
  v.WaitReport();
  std::string payload;
  StateWriter w(payload);
  Status s = v.SaveState(w);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Full-stack server crash/resume

/// Connects, pushes `traces[begin, end)` over one stream, and flushes. The
/// returned client has NOT sent BYE — destroying it without Finish() models
/// a session that dies with the process.
std::unique_ptr<net::VerifierClient> StreamRange(
    uint16_t port, const std::vector<Trace>& traces, size_t begin,
    size_t end) {
  net::VerifierClient::Options co;
  co.batch_traces = 64;
  auto client =
      net::VerifierClient::Connect("127.0.0.1:" + std::to_string(port), co);
  EXPECT_TRUE(client.ok()) << client.status();
  if (!client.ok()) return nullptr;
  for (size_t i = begin; i < end; ++i) {
    Status s = (*client)->Push(0, traces[i]);
    EXPECT_TRUE(s.ok()) << s;
  }
  EXPECT_TRUE((*client)->Flush(0).ok());
  return std::move(*client);
}

/// Polls until the server has accepted `want` traces (they are in the WAL
/// and pushed to the verifier once counted).
void AwaitReceived(net::VerifierServer& server, uint64_t want) {
  for (int i = 0; i < 5000 && server.traces_received() < want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.traces_received(), want);
}

/// Resumes a server on `dir`, streams `traces[from, end)` through a fresh
/// session, and returns the final aggregated report's bug set.
std::multiset<std::string> ResumeAndFinish(const std::string& dir,
                                           const FaultyHistory& h,
                                           size_t from,
                                           net::VerifierServer::RecoveryInfo*
                                               recovery_out = nullptr) {
  net::VerifierServer::Options so;
  so.expected_sessions = 1;
  so.state_dir = dir;
  so.checkpoint_interval_ms = 0;  // no background checkpoints
  net::VerifierServer server(h.config, so);
  Status started = server.Start();
  EXPECT_TRUE(started.ok()) << started;
  if (!started.ok()) return {};
  if (recovery_out != nullptr) *recovery_out = server.recovery();
  EXPECT_TRUE(server.recovery().resumed);

  std::thread drain([&server] { server.WaitReport(); });
  auto client = StreamRange(server.port(), h.traces, from, h.traces.size());
  if (client != nullptr) {
    auto bye = client->Finish();
    EXPECT_TRUE(bye.ok()) << bye.status();
  }
  drain.join();
  const VerifyReport& report = server.WaitReport();
  EXPECT_EQ(server.traces_received(), h.traces.size());
  return BugSet(report.bugs);
}

TEST(DurableServerTest, CrashResumeReportsSameBugsWithoutReingestion) {
  GoldenCase c = GoldenMatrix()[0];  // dropped_lock, serializable
  FaultyHistory h = RunWithFaults(c.plan, c.protocol, c.isolation, c.seed);
  ASSERT_FALSE(h.bugs.empty());
  const size_t total = h.traces.size();
  const size_t ckpt1_at = total * 2 / 5;
  const size_t ckpt2_at = total * 3 / 5;
  const size_t kill_at = total * 7 / 10;

  const std::string live = TempDir("server_live");
  const std::string copy_clean = TempDir("server_copy_clean");
  const std::string copy_torn = TempDir("server_copy_torn");
  const std::string copy_badckpt = TempDir("server_copy_badckpt");

  // --- first process: ingest 70%, checkpoint twice, "die". --------------
  {
    net::VerifierServer::Options so;
    so.expected_sessions = 0;  // service mode: runs until Shutdown
    so.state_dir = live;
    so.checkpoint_interval_ms = 0;  // checkpoints only where the test says
    net::VerifierServer server(h.config, so);
    ASSERT_TRUE(server.Start().ok());
    EXPECT_FALSE(server.recovery().resumed);  // fresh state dir

    auto client = StreamRange(server.port(), h.traces, 0, ckpt1_at);
    ASSERT_NE(client, nullptr);
    AwaitReceived(server, ckpt1_at);
    ASSERT_TRUE(server.TriggerCheckpoint().ok());

    for (size_t i = ckpt1_at; i < ckpt2_at; ++i) {
      ASSERT_TRUE(client->Push(0, h.traces[i]).ok());
    }
    ASSERT_TRUE(client->Flush(0).ok());
    AwaitReceived(server, ckpt2_at);
    ASSERT_TRUE(server.TriggerCheckpoint().ok());

    auto status = server.GetStatus();
    EXPECT_TRUE(status.durable);
    EXPECT_EQ(status.checkpoints_written, 2u);
    EXPECT_GT(status.wal_segments, 0u);

    for (size_t i = ckpt2_at; i < kill_at; ++i) {
      ASSERT_TRUE(client->Push(0, h.traces[i]).ok());
    }
    ASSERT_TRUE(client->Flush(0).ok());
    AwaitReceived(server, kill_at);

    // SIGKILL moment: snapshot the state dir exactly as the dead process
    // leaves it (appends are fflush()ed per batch, so the on-disk state is
    // complete up to the last acknowledged batch). Three copies, three
    // recovery scenarios.
    for (const std::string& dst : {copy_clean, copy_torn, copy_badckpt}) {
      fs::copy(live, dst, fs::copy_options::recursive);
    }
    client.reset();      // connection dies without BYE
    server.Shutdown();   // the "crashed" original is abandoned
    server.WaitReport();
  }

  // --- clean resume: same verdicts, pre-checkpoint traffic not re-read. --
  {
    net::VerifierServer::RecoveryInfo rec;
    auto bugs = ResumeAndFinish(copy_clean, h, kill_at, &rec);
    EXPECT_EQ(bugs, BugSet(h.bugs));
    EXPECT_GT(rec.checkpoint_cut, 0u);
    // Replayed = traffic after the second checkpoint only.
    EXPECT_EQ(rec.entries_replayed, kill_at - ckpt2_at);
    // The WAL retained for checkpoint fallback is skipped, not re-pushed.
    EXPECT_EQ(rec.entries_skipped, ckpt2_at - ckpt1_at);
  }

  // --- torn tail: the copy crashed mid-append; resume truncates it. ------
  {
    auto segments = WalSegments(copy_torn);
    ASSERT_FALSE(segments.empty());
    std::string partial;
    partial.push_back('\x02');
    AppendTraceRecord(partial, h.traces[0]);
    partial.resize(partial.size() - 7);
    AppendRaw(segments.back(), partial);

    net::VerifierServer::RecoveryInfo rec;
    auto bugs = ResumeAndFinish(copy_torn, h, kill_at, &rec);
    EXPECT_EQ(bugs, BugSet(h.bugs));
    EXPECT_GT(rec.torn_bytes, 0u);
  }

  // --- corrupt newest checkpoint: fall back to the older one and replay
  // the longer WAL suffix (which GC must therefore have retained). --------
  {
    durable::CheckpointStore store;
    ASSERT_TRUE(store.Init(copy_badckpt).ok());
    auto all = store.List();
    ASSERT_EQ(all.size(), 2u);
    FlipByte(all[1].second, fs::file_size(all[1].second) / 2);

    net::VerifierServer::RecoveryInfo rec;
    auto bugs = ResumeAndFinish(copy_badckpt, h, kill_at, &rec);
    EXPECT_EQ(bugs, BugSet(h.bugs));
    EXPECT_EQ(rec.checkpoint_cut, all[0].first);  // the older cut
    EXPECT_EQ(rec.entries_replayed, kill_at - ckpt1_at);
  }
}

TEST(DurableServerTest, FreshStateDirStartsEmptyAndCheckpointsOnThreshold) {
  const std::string dir = TempDir("server_threshold");
  net::VerifierServer::Options so;
  so.expected_sessions = 1;
  so.state_dir = dir;
  so.checkpoint_interval_ms = 3600 * 1000;  // effectively timer-less
  so.checkpoint_every_traces = 8;           // trace-count trigger instead
  VerifierConfig config = ConfigForMiniDb(Protocol::kMvcc2plSsi,
                                          IsolationLevel::kSerializable);
  net::VerifierServer server(config, so);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.recovery().resumed);
  std::thread drain([&server] { server.WaitReport(); });

  auto traces = SampleTraces(32);
  for (Trace& t : traces) t.client = 0;
  auto client = StreamRange(server.port(), traces, 0, traces.size());
  ASSERT_NE(client, nullptr);
  // The count-triggered checkpointer fires mid-run, with no timer. Wait for
  // it before ending the session: the drain stops the checkpointer, so a
  // BYE that lands first would skip a checkpoint already due.
  for (int i = 0; i < 5000 && server.GetStatus().checkpoints_written == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.GetStatus().checkpoints_written, 1u);
  ASSERT_TRUE(client->Finish().ok());
  drain.join();
}

/// Entry bytes of every WAL segment in `dir`: file sizes less the 16-byte
/// header and, on sealed segments, the 8-byte footer.
uint64_t WalEntryBytesOnDisk(const std::string& dir) {
  uint64_t total = 0;
  for (const std::string& path : WalSegments(dir)) {
    auto bytes = durable::ReadFileToString(path);
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    if (!bytes.ok()) continue;
    const bool sealed =
        bytes->size() >= 24 &&
        bytes->compare(bytes->size() - 8, 4, kSealSentinel) == 0;
    total += bytes->size() - 16 - (sealed ? 8 : 0);
  }
  return total;
}

TEST(DurableServerTest, WalBytesCounterMatchesEntryBytesOnDisk) {
  const std::string dir = TempDir("server_wal_bytes");
  obs::MetricsRegistry registry;
  net::VerifierServer::Options so;
  so.expected_sessions = 1;
  so.state_dir = dir;
  so.checkpoint_interval_ms = 0;
  so.wal_segment_bytes = 4096;  // several sealed segments, none collected
  so.metrics = &registry;
  VerifierConfig config = ConfigForMiniDb(Protocol::kMvcc2plSsi,
                                          IsolationLevel::kSerializable);
  {
    net::VerifierServer server(config, so);
    ASSERT_TRUE(server.Start().ok());
    std::thread drain([&server] { server.WaitReport(); });
    auto traces = SampleTraces(300);
    auto client = StreamRange(server.port(), traces, 0, traces.size());
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->Finish().ok());
    drain.join();
  }
  ASSERT_GT(WalSegments(dir).size(), 2u);
  const uint64_t on_disk = WalEntryBytesOnDisk(dir);
  EXPECT_GT(on_disk, 0u);
  EXPECT_EQ(registry.counter("durable.wal.bytes")->Value(), on_disk);
}

TEST(DurableServerTest, CheckpointPayloadStaysFlatAsTransactionsAccumulate) {
  // The payload is the verifier's state, which GC keeps bounded; nothing in
  // it may grow with every transaction ever seen.
  FaultyHistory h = RunWithFaults(FaultPlan{}, Protocol::kMvcc2plSsi,
                                  IsolationLevel::kSerializable, 21, 3000);
  ASSERT_TRUE(h.bugs.empty());
  std::set<TxnId> txns;
  for (const Trace& t : h.traces) txns.insert(t.txn);
  const std::string dir = TempDir("server_flat_ckpt");
  net::VerifierServer::Options so;
  so.expected_sessions = 0;
  so.state_dir = dir;
  so.checkpoint_interval_ms = 0;
  net::VerifierServer server(h.config, so);
  ASSERT_TRUE(server.Start().ok());
  durable::CheckpointStore store;
  ASSERT_TRUE(store.Init(dir).ok());
  // Streams [begin, end) through a new session and closes its stream, so
  // the pipeline drains completely; then checkpoints and returns the
  // payload size. Nothing buffered means nothing timing-dependent in it.
  std::vector<std::unique_ptr<net::VerifierClient>> sessions;
  auto checkpoint_after = [&](size_t begin, size_t end) -> size_t {
    sessions.push_back(StreamRange(server.port(), h.traces, begin, end));
    EXPECT_NE(sessions.back(), nullptr);
    if (sessions.back() == nullptr) return 0;
    EXPECT_TRUE(sessions.back()->CloseStream(0).ok());
    AwaitReceived(server, end);
    for (int i = 0; i < 5000 && server.GetStatus().inflight_bytes > 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(server.GetStatus().inflight_bytes, 0u);
    EXPECT_TRUE(server.TriggerCheckpoint().ok());
    auto loaded = store.LoadNewest();
    EXPECT_TRUE(loaded.ok()) << loaded.status();
    return loaded.ok() ? loaded->payload.size() : size_t{0};
  };
  const size_t third = h.traces.size() / 3;
  const size_t early = checkpoint_after(0, third);
  const size_t late = checkpoint_after(third, h.traces.size());
  sessions.clear();
  server.Shutdown();
  server.WaitReport();

  // A txn -> client table would add 12 B for each of the ~2/3 of the
  // transactions that arrived between the two checkpoints; allow a quarter
  // of that for state that legitimately drifts with the history.
  const double txns_between = txns.size() * 2.0 / 3.0;
  EXPECT_GT(early, 0u);
  EXPECT_LT(static_cast<double>(late) - static_cast<double>(early),
            txns_between * 3.0)
      << "early " << early << " B, late " << late << " B";
}

TEST(DurableServerTest, OlderCheckpointFormatFailsStartupByName) {
  // Two checkpoints, so GC has dropped the log's first segment: without a
  // loadable checkpoint the state cannot be rebuilt, and the startup error
  // must say which checkpoint format was found.
  const std::string dir = TempDir("server_old_ckpt");
  VerifierConfig config = ConfigForMiniDb(Protocol::kMvcc2plSsi,
                                          IsolationLevel::kSerializable);
  net::VerifierServer::Options so;
  so.expected_sessions = 0;
  so.state_dir = dir;
  so.checkpoint_interval_ms = 0;
  auto traces = SampleTraces(60);
  {
    net::VerifierServer server(config, so);
    ASSERT_TRUE(server.Start().ok());
    auto client = StreamRange(server.port(), traces, 0, 30);
    ASSERT_NE(client, nullptr);
    AwaitReceived(server, 30);
    ASSERT_TRUE(server.TriggerCheckpoint().ok());
    for (size_t i = 30; i < traces.size(); ++i) {
      ASSERT_TRUE(client->Push(0, traces[i]).ok());
    }
    ASSERT_TRUE(client->Flush(0).ok());
    AwaitReceived(server, traces.size());
    ASSERT_TRUE(server.TriggerCheckpoint().ok());
    client.reset();
    server.Shutdown();
    server.WaitReport();
  }
  durable::CheckpointStore store;
  ASSERT_TRUE(store.Init(dir).ok());
  ASSERT_EQ(store.List().size(), 2u);
  for (const auto& [cut, path] : store.List()) DowngradeCheckpointMagic(path);

  net::VerifierServer server(config, so);
  Status s = server.Start();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("has format LEOCKP05"), std::string::npos) << s;
}

TEST(DurableServerTest, TriggerCheckpointWithoutStateDirFails) {
  VerifierConfig config = ConfigForMiniDb(Protocol::kMvcc2plSsi,
                                          IsolationLevel::kSerializable);
  net::VerifierServer::Options so;
  so.expected_sessions = 1;
  net::VerifierServer server(config, so);
  ASSERT_TRUE(server.Start().ok());
  Status s = server.TriggerCheckpoint();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(server.GetStatus().durable);
  server.Shutdown();
  server.WaitReport();
}

// ---------------------------------------------------------------------------
// Bugfix-sweep regressions

TEST(BugfixRegressionTest, SpscQueuePoisonUnblocksAFullRingProducer) {
  SpscQueue<int> q(2);
  ASSERT_TRUE(q.Push(1));
  ASSERT_TRUE(q.Push(2));  // ring full (capacity rounds to 2)
  std::atomic<bool> push_returned{false};
  bool push_result = true;
  std::thread producer([&] {
    push_result = q.Push(3);  // blocks: full ring, no consumer
    push_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(push_returned.load());  // genuinely stuck, not returned
  q.Poison();
  producer.join();
  EXPECT_FALSE(push_result);  // gave up instead of spinning forever
  // Elements already in the ring stay poppable after poisoning.
  int out = 0;
  EXPECT_TRUE(q.TryPop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.TryPop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.TryPop(out));
}

TEST(BugfixRegressionTest, AddClientRequiresADynamicUnsealedRun) {
  VerifierConfig config = ConfigForMiniDb(Protocol::kMvcc2plSsi,
                                          IsolationLevel::kSerializable);
  {
    OnlineVerifier v(1, config);  // non-dynamic: implicitly sealed
    auto added = v.AddClient();
    ASSERT_FALSE(added.ok());
    EXPECT_EQ(added.status().code(), StatusCode::kFailedPrecondition);
    v.Close(0);
  }
  {
    OnlineVerifier::Options vo;
    vo.dynamic_clients = true;
    OnlineVerifier v(1, config, vo);
    auto added = v.AddClient();
    ASSERT_TRUE(added.ok()) << added.status();
    v.SealClients();
    auto late = v.AddClient();  // the race the kError frame surfaces
    ASSERT_FALSE(late.ok());
    EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
    v.Close(0);
    v.Close(added->id);
  }
}

TEST(BugfixRegressionTest, RequireCrcRejectsFooterlessStream) {
  // Durable readers must not extend the legacy no-footer grace to files
  // that are simply truncated at a record boundary.
  std::string bytes = EncodeTraces(SampleTraces(3));
  bytes.resize(bytes.size() - 8);  // strip the footer cleanly
  EXPECT_TRUE(DecodeTraces(bytes).ok());  // legacy tolerance unchanged
  DecodeOptions opts;
  opts.require_crc = true;
  EXPECT_FALSE(DecodeTraces(bytes, opts).ok());
  // And with the footer present, require_crc passes.
  EXPECT_TRUE(DecodeTraces(EncodeTraces(SampleTraces(3)), opts).ok());
}

TEST(BugfixRegressionTest, FutureIngestStampCountsAsClockSkew) {
  obs::MetricsRegistry registry;
  VerifierConfig config = ConfigForMiniDb(Protocol::kMvcc2plSsi,
                                          IsolationLevel::kSerializable);
  net::VerifierServer::Options so;
  so.expected_sessions = 1;
  so.metrics = &registry;
  net::VerifierServer server(config, so);
  ASSERT_TRUE(server.Start().ok());

  auto sock = net::TcpConnect("127.0.0.1", server.port());
  ASSERT_TRUE(sock.ok());
  std::string hello = net::EncodeFrame(net::FrameType::kHello,
                                       net::EncodeHello(net::HelloMsg{}));
  ASSERT_TRUE(sock->SendAll(hello.data(), hello.size()).ok());
  net::FrameDecoder decoder;
  net::Frame frame;
  {
    char buf[4096];
    bool got_ack = false;
    for (int i = 0; i < 1000 && !got_ack; ++i) {
      Status s = decoder.Poll(frame);
      if (s.ok()) {
        got_ack = frame.type == net::FrameType::kHelloAck;
        continue;
      }
      auto got = sock->Recv(buf, sizeof(buf));
      ASSERT_TRUE(got.ok());
      ASSERT_GT(*got, 0u);
      decoder.Feed(buf, *got);
    }
    ASSERT_TRUE(got_ack);
  }

  // A batch stamped an hour in the future: steady clocks never run
  // backwards, so the only explanation is skew — the zero-sample path.
  std::vector<Trace> batch = {MakeWriteTrace(1, 0, {1, 2}, {{1, 10}})};
  std::string payload =
      net::EncodeBatch(0, batch, obs::NowNs() + 3'600'000'000'000ull);
  std::string encoded = net::EncodeFrame(net::FrameType::kBatch, payload);
  ASSERT_TRUE(sock->SendAll(encoded.data(), encoded.size()).ok());
  for (int i = 0; i < 5000 && server.traces_received() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.traces_received(), 1u);
  EXPECT_GE(registry.counter("net.ingest_clock_skew")->Value(), 1u);

  sock->ShutdownBoth();
  server.WaitReport();
}

}  // namespace
}  // namespace leopard
