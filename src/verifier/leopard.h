#ifndef LEOPARD_VERIFIER_LEOPARD_H_
#define LEOPARD_VERIFIER_LEOPARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/flat_hash_map.h"
#include "common/slab_map.h"
#include "common/small_vector.h"
#include "obs/registry.h"
#include "trace/trace.h"
#include "txn/types.h"
#include "verifier/bug.h"
#include "verifier/config.h"
#include "verifier/dependency_graph.h"
#include "verifier/lock_table.h"
#include "verifier/stats.h"
#include "verifier/version_order.h"

namespace leopard {

/// The Leopard verifier: mechanism-mirrored verification (§V / Algorithm 2)
/// over interval-based traces dispatched in ts_bef order.
///
/// Mirrors the internal state of the DBMS — ordered versions per record, a
/// lock table, a dependency graph — and re-executes each dispatched trace
/// against that state:
///
///  - writes install versions and acquire mirrored exclusive locks;
///  - reads are checked against the minimal candidate version set of their
///    snapshot generation interval (CR); unique matches become wr edges;
///  - commit/abort releases mirrored locks, evaluating every conflicting
///    lock pair (ME, Theorem 3) and every concurrent writer pair (FUW,
///    Theorem 4) — impossible overlaps are violations, unique orders become
///    ww edges;
///  - rw edges are deduced from wr + version order (Fig. 9) and all edges
///    feed the serialization certifier (SC).
///
/// The four procedures run interleaved and exchange deduced dependencies,
/// exactly as §V-A prescribes. Obsolete state — garbage versions, retired
/// locks, garbage transactions (Def. 4) — is pruned asynchronously.
///
/// A read whose snapshot interval has not yet been fully covered by the
/// dispatch frontier is parked and verified as soon as every trace that
/// could install a candidate version has arrived (the dispatch order
/// guarantee of Theorem 1 makes this a simple frontier comparison).
class Leopard {
 public:
  explicit Leopard(const VerifierConfig& config);
  Leopard(const Leopard&) = delete;
  Leopard& operator=(const Leopard&) = delete;

  /// Feeds the next trace; traces must arrive in non-decreasing ts_bef
  /// order (as dispatched by the two-level pipeline).
  void Process(const Trace& trace);

  /// Flushes parked reads and finalizes verification of a finite run.
  void Finish();

  /// Pre-registers `txn` with its true first-operation interval. Used by the
  /// sharded engine: a shard may first encounter a transaction through a
  /// later operation (its opening operation touched another shard's keys),
  /// yet snapshot generation and FUW ordering depend on the global first op.
  /// No-op when the transaction is already known.
  void BeginTxnAt(TxnId txn, const TimeInterval& first_op);

  /// Advances the dispatch frontier without feeding a trace and flushes any
  /// pending reads that became verifiable. The sharded engine piggybacks the
  /// router's global frontier on every shard message so a shard verifies
  /// each read at exactly the same frontier as the single-threaded verifier
  /// would — keys the shard never sees still advance its frontier.
  void AdvanceFrontier(Timestamp ts);

  /// Deduced-dependency sink. When set, wr/ww/rw dependencies deduced by
  /// CR/ME/FUW go to the sink instead of the internal serialization
  /// certifier, which the sink owner (the sharded engine's certifier thread)
  /// replaces. Every edge comes from one key that both endpoints touched, so
  /// this verifier sees both terminals: an edge is held on an endpoint still
  /// active here, dropped once an endpoint aborts here, and handed to the
  /// sink only when neither is active — the sink owner learns each fate
  /// (from the terminal trace) before any edge that depends on it. Set
  /// before the first Process().
  using EdgeSink = std::function<void(TxnId from, TxnId to, DepType type)>;
  void SetEdgeSink(EdgeSink sink) { edge_sink_ = std::move(sink); }

  /// S_e (Def. 4): earliest snapshot-generation timestamp any unverified
  /// trace can still carry, bounded by the dispatch frontier and by active
  /// transactions' snapshots. Drives GC here and safe-ts reports in the
  /// sharded engine.
  Timestamp SafeTs() const;

  /// Caps SafeTs() with an externally-computed bound. A shard only knows
  /// about transactions that touched its keys, so its local SafeTs could
  /// run ahead of a transaction still active purely on other shards and GC
  /// would prune versions that transaction's future reads still need. The
  /// sharded router therefore piggybacks its global safe timestamp (over
  /// *all* active transactions) and the shard installs it here.
  void SetSafeTsBound(Timestamp bound) { safe_ts_bound_ = bound; }

  const std::vector<BugDescriptor>& bugs() const { return bugs_; }
  const VerifierStats& stats() const { return stats_; }
  const VerifierConfig& config() const { return config_; }

  /// Attaches observability: per-mechanism latency histograms
  /// (verifier.{cr,me,fuw,sc}.*_ns), a whole-trace span, a GC-sweep span,
  /// and a mirror of every VerifierStats counter under verifier.* so
  /// concurrent readers (progress reporter, exporters) see the totals
  /// without touching this single-threaded class. The mirror is refreshed
  /// every few traces and on Finish(). Call before the first Process();
  /// passing nullptr detaches. The registry must outlive the verifier.
  ///
  /// Latency spans are *sampled*: only one trace in `span_sample_every`
  /// pays for clock reads (GC sweeps are always timed — they are rare and
  /// heavy). Histograms therefore hold an unbiased sample of the latency
  /// distribution, not one entry per event; pass 1 to time every trace.
  ///
  /// `prefix` is prepended to every metric name ("shard3." turns
  /// verifier.trace_ns into shard3.verifier.trace_ns), letting several
  /// verifier instances share one registry without clobbering each other's
  /// mirrors.
  void AttachMetrics(obs::MetricsRegistry* registry,
                     uint32_t span_sample_every = 16,
                     const std::string& prefix = "");

  /// Pushes the current VerifierStats into the attached registry now
  /// (no-op when detached). Process()/Finish() call this automatically.
  void SyncStatsToMetrics();

  /// Checkpoint hooks (src/durable): serialize / restore the full mirrored
  /// state — version order, lock table, dependency graph, live transactions
  /// (including parked dependency edges), parked reads, frontier and GC
  /// watermarks, accumulated bugs and stats. Call only at a quiescent point
  /// (between Process() calls). LoadState requires an identically-configured
  /// verifier (enforced one level up via serde::ConfigFingerprint) and does
  /// not restore the edge sink or metric attachments — re-attach after.
  void SaveState(StateWriter& w) const;
  Status LoadState(StateReader& r);

  /// Everything this verifier knows about one key, packaged for migration
  /// to another shard's verifier (skew-adaptive rebalancing). The bundle
  /// carries the key's version list and lock history verbatim, each active
  /// transaction's per-key footprint (write/read membership, buffered own
  /// write) together with its true global first-op interval, and the parked
  /// read fragments whose items reference the key. Moving the bundle and
  /// replaying the remaining per-key traces on the receiving shard yields
  /// bit-identical verdicts: CR/ME/FUW are strictly per-key procedures, and
  /// the deduced edges they emit are order-independent at the certifier.
  struct KeyStateBundle {
    Key key = 0;
    std::vector<VersionEntry> versions;
    std::vector<LockRec> locks;
    bool key_was_released = false;  ///< lock-table prune-candidate membership

    struct TxnContribution {
      TxnId txn = 0;
      TimeInterval first_op;
      IsolationLevel il = IsolationLevel::kSerializable;
      bool in_write_keys = false;
      bool in_read_keys = false;
      bool has_own_write = false;
      Value own_write = 0;
    };
    std::vector<TxnContribution> txns;

    struct ReadFragment {
      TxnId txn = 0;
      TimeInterval snapshot;
      TimeInterval op_interval;
      std::vector<ReadAccess> items;
      std::vector<Key> absent_items;
    };
    std::vector<ReadFragment> reads;
  };

  /// Moves every trace of `key` out of this verifier, as if the key's
  /// operations had never been routed here (transactions that touched other
  /// keys too stay registered, minus this key's footprint). Never returns
  /// nullptr — a key with no state yields an empty bundle, which InstallKey-
  /// State treats as a no-op. Sharded-engine use only. Edges held for a
  /// transaction's fate stay here with the transaction, which keeps
  /// receiving its terminal.
  std::unique_ptr<KeyStateBundle> ExtractKeyState(Key key);

  /// Receiving side of a key migration. The caller (the sharded engine's
  /// migration protocol) guarantees every pre-move trace of the key was
  /// processed by the source before extraction and every post-move trace
  /// arrives here afterwards, so installing preserves the per-key dispatch
  /// order the mechanism procedures rely on.
  void InstallKeyState(std::unique_ptr<KeyStateBundle> bundle);

  /// Approximate live memory of all mirrored structures (Figs. 10/14).
  size_t ApproxMemoryBytes() const;

  size_t LiveTxnCount() const { return txns_.size(); }
  size_t GraphNodeCount() const { return graph_.NodeCount(); }

 private:
  struct PendingEdge {
    TxnId from = 0;
    TxnId to = 0;
    DepType type = DepType::kWw;
  };

  struct TxnState {
    TxnId id = 0;
    TxnStatus status = TxnStatus::kActive;
    /// Declared isolation level (weakest tag seen across the txn's traces).
    /// Selects the mechanism subset this transaction is judged by
    /// (src/isolation): an untagged/SER txn gets today's full treatment.
    IsolationLevel il = IsolationLevel::kSerializable;
    bool has_first_op = false;
    TimeInterval first_op;
    TimeInterval end;
    /// Key lists are inline up to 4 entries: most transactions touch a
    /// handful of keys, so tracking them allocates nothing.
    SmallVector<Key, 4> write_keys;
    SmallVector<Key, 4> read_keys;
    FlatHashMap<Key, Value> own_writes;
    std::vector<PendingEdge> pending;  ///< edges waiting for this txn's fate
  };

  struct PendingRead {
    TxnId txn = 0;
    TimeInterval snapshot;
    TimeInterval op_interval;
    std::vector<ReadAccess> items;
    /// Keys the statement reported as having no row: verified like reads,
    /// except the expectation is a tombstone (or nothing) being visible.
    std::vector<Key> absent_items;

    void Reset() {
      items.clear();
      absent_items.clear();
    }
  };
  struct PendingReadLater {
    bool operator()(const PendingRead& a, const PendingRead& b) const {
      return a.snapshot.aft > b.snapshot.aft;
    }
  };
  /// Heap keyed by snapshot.aft (flush order), with the underlying container
  /// exposed: SafeTs() must walk the parked reads, because a read can stay
  /// parked past its transaction's commit (the registry entry is gone by
  /// then) while its snapshot.bef trails the frontier by the full clock
  /// uncertainty — GC pruning a version such a read still needs would turn
  /// into a false CR violation.
  struct PendingReadQueue
      : std::priority_queue<PendingRead, std::vector<PendingRead>,
                            PendingReadLater> {
    using priority_queue::c;
  };

  TxnState& GetTxn(TxnId id, const TimeInterval& op_interval);
  void InstallVersion(Key key, Value value, TxnId writer,
                      TimeInterval install);
  void ProcessWrite(const Trace& trace);
  void ProcessRead(const Trace& trace);
  void ProcessTerminal(const Trace& trace, bool committed);
  void FlushPendingReads();
  void VerifyRead(const PendingRead& read);
  void VerifyAbsence(Key key, const PendingRead& read);
  void VerifyMeAtRelease(TxnState& txn);
  void VerifyFuwAtCommit(TxnState& txn);
  void MarkVersionsCommitted(TxnState& txn);
  void Deduce(TxnId from, TxnId to, DepType type);
  void EmitEdge(TxnId from, TxnId to, DepType type);
  /// Edge-sink mode: hold on an active endpoint, drop on an aborted one,
  /// otherwise hand to the sink.
  void HoldOrSink(TxnId from, TxnId to, DepType type);
  void ReportBug(BugType type, Key key, std::vector<TxnId> txns,
                 std::string detail);
  /// Structured overload: `bug.ts` is derived from the ops when left 0.
  void ReportBug(BugDescriptor bug);
  /// Builds the structured SC descriptor for a certifier violation: one op
  /// per transaction named in the witness edges (activity span from the
  /// dependency graph) plus the edges themselves.
  BugDescriptor MakeScBug(const GraphViolation& violation,
                          std::string detail_suffix);
  void MaybeGc();

  /// Cached metric handles; all nullptr when no registry is attached, which
  /// reduces every instrumentation site to a pointer test.
  struct ObsHandles {
    obs::Histogram* trace_ns = nullptr;  ///< whole Process() call
    obs::Histogram* cr_ns = nullptr;     ///< consistent-read verification
    obs::Histogram* me_ns = nullptr;     ///< mutual-exclusion verification
    obs::Histogram* fuw_ns = nullptr;    ///< first-updater-wins verification
    obs::Histogram* sc_ns = nullptr;     ///< certifier edge insertion/search
    obs::Histogram* gc_ns = nullptr;     ///< one GC sweep
    obs::Gauge* live_txns = nullptr;
    obs::Gauge* graph_nodes = nullptr;
    /// Memory-layer gauges (verifier.mem.*): flat-table array bytes (cheap
    /// O(1) sum — per-entry heap is excluded so the sync stays off the hot
    /// path), cumulative table rehashes, and graph scratch-epoch resets.
    obs::Gauge* mem_table_bytes = nullptr;
    obs::Gauge* mem_rehashes = nullptr;
    obs::Gauge* mem_scratch_resets = nullptr;
  };

  VerifierConfig config_;
  VersionOrderIndex versions_;
  MirrorLockTable locks_;
  DependencyGraph graph_;
  SlabMap<TxnId, TxnState> txns_;
  PendingReadQueue pending_reads_;
  /// Retired PendingRead shells (vectors kept warm); ProcessRead refills
  /// from here so the parked-read path stops allocating per statement.
  std::vector<PendingRead> read_pool_;
  std::vector<Key> lock_keys_scratch_;  ///< ProcessTerminal release list
  Timestamp frontier_ = 0;
  Timestamp safe_ts_bound_ = kMaxTimestamp;
  uint64_t traces_since_gc_ = 0;
  std::vector<BugDescriptor> bugs_;
  VerifierStats stats_;

  obs::MetricsRegistry* metrics_ = nullptr;  ///< not owned
  ObsHandles obs_;    ///< full handle set (null when detached)
  /// Per-trace live span handles: equal to obs_ on sampled traces, all-null
  /// otherwise, so procedure span sites cost one pointer test off-sample.
  ObsHandles span_;
  uint32_t span_sample_every_ = 16;
  uint32_t span_tick_ = 0;
  /// (mirror counter, VerifierStats field) pairs driven by SyncStatsToMetrics.
  std::vector<std::pair<obs::Counter*, const uint64_t*>> stat_mirror_;
  uint64_t traces_since_sync_ = 0;
  EdgeSink edge_sink_;  ///< when set, deduced edges bypass the local SC
};

}  // namespace leopard

#endif  // LEOPARD_VERIFIER_LEOPARD_H_
