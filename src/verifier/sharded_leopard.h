#ifndef LEOPARD_VERIFIER_SHARDED_LEOPARD_H_
#define LEOPARD_VERIFIER_SHARDED_LEOPARD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/state_codec.h"
#include "obs/registry.h"
#include "trace/trace.h"
#include "verifier/bug.h"
#include "verifier/config.h"
#include "verifier/leopard.h"
#include "verifier/stats.h"

namespace leopard {

namespace obs {
class EventJournal;
class Watchdog;
}  // namespace obs

/// Final outcome of a (possibly sharded) verification run: the aggregated
/// counters plus every bug descriptor, shard bugs first (CR/ME/FUW, in
/// shard order), serialization-certifier bugs last.
struct VerifyReport {
  VerifierStats stats;
  std::vector<BugDescriptor> bugs;
};

/// Key-sharded parallel verification engine.
///
/// The single-threaded Leopard interleaves four procedures; three of them —
/// CR, ME, FUW — touch only *per-record* mirrored state (ordered versions,
/// lock records), so they partition cleanly by key. This engine hash-
/// partitions the key space across `n_shards` worker threads, each owning
/// its shard's version store + lock table and running an unmodified Leopard
/// (with its serialization certifier disabled) over the traces projected
/// onto its keys. Deduced wr/ww/rw dependencies flow over per-shard SPSC
/// queues into a single *certifier thread* that owns the one structure that
/// cannot be partitioned — the global dependency graph — and runs the
/// commit/abort gating and cycle/invariant checks there.
///
/// Routing (done by the caller's thread inside Process):
///  - read/write traces are split per shard: each shard receives a copy
///    carrying only the accesses to keys it owns (range reads are expanded
///    into per-key present/absent items first);
///  - commit/abort traces go only to the shards the transaction touched
///    (each releases the locks and finalizes the versions it owns), or to
///    one shard when it touched none; each of them forwards the fate to the
///    certifier ahead of the edges it then releases;
///  - every message piggybacks the router's global dispatch frontier and
///    the transaction's true first-operation interval — together these make
///    each shard verify every read at exactly the frontier the
///    single-threaded verifier would have used, so per-key verdicts are
///    bit-identical to Leopard's (the differential fuzz test enforces
///    this).
///
/// Keeping the certifier's graph as small as the inline verifier's:
///  - a shard holds each deduced edge until both endpoints' fates are known
///    there (both touched the edge's key), so the certifier applies edges
///    instead of parking them;
///  - a shard reports its safe timestamp every `safe_ts_every` messages,
///    when its queue empties, and on every tick, always behind the edges it
///    already sent; the router ticks shards no trace reached at each
///    EndBatch() and every few hundred traces, so a cold shard cannot pin
///    the certifier's GC;
///  - a full queue puts its producer to sleep, and idle workers and the
///    certifier sleep until there is work — no thread spins or polls.
///
/// With n_shards == 1 no threads or queues are created: Process() feeds an
/// ordinary Leopard inline, byte-for-byte today's behavior.
///
/// Thread-safety: Process/EndBatch/Finish must be called from one thread
/// (the pipeline dispatcher). report() is valid after Finish() returns.
class ShardedLeopard {
 public:
  struct Options {
    /// Worker shards. 1 = single-threaded reference behavior. Capped at 64.
    uint32_t n_shards = 1;
    /// Worker threads draining the shard queues. 0 = one per shard. Workers
    /// are not pinned to shards: each scans all trace queues (its home shard
    /// first) and *steals* a drain batch from any shard whose queue has
    /// work, so a hot shard's backlog is worked by every idle thread
    /// instead of pinning one worker while the rest sleep.
    uint32_t n_workers = 0;
    /// Per-queue capacity (rounded up to a power of two). Full queues block
    /// the producer — this bounds the engine's in-flight memory and how far
    /// the certifier can trail the shards.
    size_t queue_capacity = 512;
    /// Skew-adaptive rebalancing: the router samples per-key traffic into a
    /// small top-k sketch, tracks decayed per-shard load, and when one
    /// shard's load exceeds `rebalance_imbalance` x the mean it migrates up
    /// to `rebalance_max_moves` of the hottest keys onto the least-loaded
    /// shard (or, when a single key dominates, migrates the *other* hot
    /// keys away so the dominant key keeps a dedicated shard). Migration
    /// moves the key's whole mirrored state (versions, locks, active-txn
    /// footprint, parked reads) through an in-order handoff that preserves
    /// the per-key FIFO the verdict-exactness argument relies on.
    bool enable_rebalance = false;
    /// Routed traces between rebalance evaluations.
    uint64_t rebalance_check_every = 4096;
    /// Load-imbalance trigger: max shard load > imbalance * mean load.
    double rebalance_imbalance = 1.5;
    /// Hot keys migrated per rebalance round.
    uint32_t rebalance_max_moves = 4;
    /// Cap on routing-table overrides (keys living off their hash shard);
    /// bounds router memory and checkpoint size.
    uint32_t rebalance_max_overrides = 1024;
    /// Shard messages between safe-timestamp reports to the certifier
    /// (drives garbage-collection of the dependency graph).
    uint64_t safe_ts_every = 16;
    /// Optional instrumentation: each shard attaches with a "shard<i>."
    /// prefix (per-shard latency histograms + counter mirrors), the router
    /// counts sharded.router.shard_msgs, and the certifier maintains
    /// sharded.shard<i>.edge_queue_depth gauges plus
    /// sharded.certifier.{edges_applied,edges_parked} counters.
    obs::MetricsRegistry* metrics = nullptr;
    uint32_t span_sample_every = 16;
    /// Optional journal for state-transition events (shard queue stall, GC
    /// advance); see src/obs/events.h.
    obs::EventJournal* events = nullptr;
    /// Optional heartbeat watchdog: pool workers register as "worker<w>"
    /// and the certifier as "sc.certifier".
    obs::Watchdog* watchdog = nullptr;
  };

  ShardedLeopard(const VerifierConfig& config, const Options& options);
  ~ShardedLeopard();
  ShardedLeopard(const ShardedLeopard&) = delete;
  ShardedLeopard& operator=(const ShardedLeopard&) = delete;

  /// Routes the next trace (must arrive in non-decreasing ts_bef order, as
  /// dispatched by the two-level pipeline). Never verifies inline when
  /// sharded — cost is projection + queue pushes.
  void Process(const Trace& trace);

  /// Marks the end of a dispatched batch: every shard no trace of the batch
  /// reached gets the router's frontier and safe bound, and idle workers
  /// wake, so nothing routed waits for the next batch. Without batches,
  /// Process() does the same every few hundred traces. No-op when
  /// n_shards == 1.
  void EndBatch();

  /// Drains all shards and the certifier, joins the worker threads and
  /// aggregates the report. Idempotent.
  void Finish();

  /// Aggregated stats + merged bug list. Valid after Finish().
  const VerifyReport& report() const;

  /// Drains the engine to a barrier: every in-flight message routed before
  /// this call is fully processed (shards idle, certifier parked) when it
  /// returns. Must be called from the Process() thread with no concurrent
  /// Process(); pair with ResumeFromQuiesce(). No-op when n_shards == 1 or
  /// after Finish(). The durable checkpointer uses this to serialize at an
  /// exact trace boundary.
  void Quiesce();
  void ResumeFromQuiesce();

  /// Checkpoint hooks (src/durable): serialize / restore the engine — every
  /// shard verifier, the router's frontier/safe-ts/routing state, and the
  /// certifier (graph, commit/abort sets, parked edges). Call only while
  /// quiescent (between Quiesce() and ResumeFromQuiesce(), or before any
  /// Process()). LoadState requires the same n_shards and config as the
  /// saving engine.
  void SaveState(StateWriter& w) const;
  Status LoadState(StateReader& r);

  /// The inline verifier (n_shards == 1 only; asserts otherwise). Lets
  /// existing single-threaded callers keep their Leopard-typed accessors.
  const Leopard& single() const;

  uint32_t n_shards() const;

  /// Approximate mirrored-state memory across all shards. Only meaningful
  /// when quiescent (n_shards == 1, or after Finish()).
  size_t ApproxMemoryBytes() const;

  /// Test hook: migrate `key`'s mirrored state to `target_shard` right now,
  /// regardless of load. Must be called from the Process() thread (it is a
  /// router action); no-op when n_shards == 1 or the key already lives
  /// there. The differential fuzz tests use this to force mid-stream
  /// migrations at adversarial points.
  void DebugForceMigrate(Key key, uint32_t target_shard);

  /// Default key → shard mapping (splitmix64 finalizer via HashU64, uniform
  /// for dense keys). The live engine consults its routing table first —
  /// rebalanced keys override this.
  static uint32_t ShardOfKey(Key key, uint32_t n_shards);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace leopard

#endif  // LEOPARD_VERIFIER_SHARDED_LEOPARD_H_
