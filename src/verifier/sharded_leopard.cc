#include "verifier/sharded_leopard.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/flat_hash_map.h"
#include "common/small_vector.h"
#include "common/spsc_queue.h"
#include "isolation/isolation.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "verifier/dependency_graph.h"
#include "verifier/state_serde.h"

namespace leopard {
namespace sharded_internal {

/// Router → shard. One queue per shard, produced only by the Process()
/// caller, consumed by whichever worker currently holds the shard's drain
/// claim (the claim flag serializes consumers, keeping the queue SPSC).
struct ShardMsg {
  enum class Kind : uint8_t { kTrace, kTick, kFinish, kBarrier, kMigrateOut,
                              kMigrateIn };
  Kind kind = Kind::kTrace;
  /// kTrace: the routed trace, projected onto this shard's keys (range
  /// scans already expanded into per-key absences). The accesses sit
  /// inline for the common one- or two-key statement, so routing and
  /// draining a message allocate nothing; the shard's worker rebuilds a
  /// Trace from them in a buffer it reuses.
  OpType op = OpType::kRead;
  IsolationLevel il = IsolationLevel::kSerializable;
  bool for_update = false;
  ClientId client = 0;
  TxnId txn = 0;
  TimeInterval interval;
  uint64_t ingest_ns = 0;
  SmallVector<ReadAccess, 2> reads;
  SmallVector<WriteAccess, 2> writes;
  SmallVector<Key, 2> absent;
  /// The transaction's true (global) first-operation interval, which
  /// snapshot generation and FUW/SSI concurrency tests depend on: the shard
  /// registers the transaction at it (BeginTxnAt is a no-op once known). On
  /// a terminal, also the span of the graph node the shard forwards.
  TimeInterval txn_begin;
  /// Router's global dispatch frontier after this trace: the shard advances
  /// to it before processing, so pending reads flush at exactly the point
  /// the single-threaded verifier would flush them.
  Timestamp frontier = 0;
  /// Router's global safe timestamp (Def. 4 over *all* active transactions);
  /// caps the shard's local SafeTs so GC never outruns a transaction that is
  /// active purely on other shards.
  Timestamp safe_bound = 0;
  /// kMigrateOut/kMigrateIn: the key being rebalanced and the handoff
  /// sequence number pairing the source's extracted bundle with the
  /// target's install (mailbox slot). Because the router enqueues the
  /// kMigrateOut *before* any post-move trace is routed to the target, and
  /// the queues are FIFO, the per-key trace order the verdict-exactness
  /// argument relies on is preserved across the move.
  Key mig_key = 0;
  uint64_t mig_seq = 0;

  void SetHeader(const Trace& trace) {
    op = trace.op;
    il = trace.il;
    for_update = trace.for_update;
    client = trace.client;
    txn = trace.txn;
    interval = trace.interval;
    ingest_ns = trace.ingest_ns;
  }
};

/// Shard worker → certifier. One queue per shard, produced only by the
/// shard's current worker (edge sink + terminal/safe-ts forwarding),
/// consumed only by the certifier thread.
struct EdgeMsg {
  enum class Kind : uint8_t { kEdge, kCommit, kAbort, kSafeTs, kDone,
                              kBarrier };
  Kind kind = Kind::kEdge;
  DepType type = DepType::kWw;
  /// kCommit: the transaction's declared isolation level (weakest tag the
  /// router saw across its traces). Weak commits are gated out of the
  /// certifier's graph — see Certifier::OnCommit.
  IsolationLevel il = IsolationLevel::kSerializable;
  TxnId from = 0;  ///< kEdge: source; kCommit/kAbort: the transaction
  TxnId to = 0;
  TimeInterval first_op;  ///< kCommit: graph NodeInfo
  TimeInterval end;       ///< kCommit: graph NodeInfo
  Timestamp ts = 0;       ///< kSafeTs
  /// kCommit: the terminal trace's runtime ingest stamp (Trace::ingest_ns),
  /// carried through so the certifier can attribute read→certify latency.
  uint64_t ingest_ns = 0;
};

struct Shard {
  std::unique_ptr<Leopard> leopard;
  SpscQueue<ShardMsg> in;
  SpscQueue<EdgeMsg> edges;
  /// Drain claim: workers race to exchange() it before touching the shard.
  /// The acquire on a successful claim pairs with the release on the
  /// previous claimant's un-claim, publishing the shard's Leopard state,
  /// both queues' cached consumer/producer cursors and the counters below
  /// between (possibly different) worker threads — each queue stays
  /// effectively SPSC. On its own cache line: other workers poll it, and
  /// the claimant's per-message counters below must not share its line.
  alignas(64) std::atomic<bool> claim{false};
  /// Set (release) after kFinish runs the shard's Leopard::Finish; workers
  /// exit once every shard is finished.
  std::atomic<bool> finished{false};
  alignas(64) uint64_t msgs_since_safe_ts = 0;
  Timestamp reported_safe = 0;  ///< last safe timestamp sent to the certifier
  uint64_t edge_msgs = 0;       ///< messages pushed to `edges`
  uint64_t stage_samples = 0;   ///< read→verify latency sampling tick
  Trace scratch;  ///< the message being processed, rebuilt in place

  Shard(const VerifierConfig& config, size_t queue_capacity)
      : leopard(std::make_unique<Leopard>(config)),
        in(queue_capacity),
        edges(queue_capacity) {}
};

/// Wakes threads that sleep until any of several queues has work (the
/// worker pool, the certifier). A sleeper registers, fences and re-checks
/// its queues before it waits; a notifier publishes its work, fences and
/// takes the lock only when someone is registered — so no wake-up is lost
/// and a notify with nobody asleep costs one fence.
class Doorbell {
 public:
  void Ring(bool all = false) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) == 0) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++epoch_;
    }
    if (all) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
  }

  /// Sleeps until a Ring() that follows the call, unless `has_work()` —
  /// checked after registering — already holds.
  template <typename HasWork>
  void Wait(HasWork&& has_work) {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t epoch = epoch_;
    waiters_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!has_work()) cv_.wait(lock, [&] { return epoch_ != epoch; });
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint32_t> waiters_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t epoch_ = 0;  // guarded by mu_
};

}  // namespace sharded_internal

using sharded_internal::Doorbell;
using sharded_internal::EdgeMsg;
using sharded_internal::Shard;
using sharded_internal::ShardMsg;

namespace {

constexpr size_t kMaxCertifierBugs = 10000;
constexpr uint64_t kRouterSafeEvery = 64;   ///< traces between safe recomputes
constexpr uint64_t kGaugeSyncEvery = 64;    ///< router gauge refresh cadence
constexpr int kDrainBudget = 256;   ///< shard messages per worker claim
constexpr uint64_t kHotSampleMask = 7;  ///< sample 1-in-8 traces into sketch
/// Messages queued on one shard before the router wakes idle workers; a
/// batch end, a tick, a full ring, Quiesce and Finish wake them sooner.
constexpr uint32_t kRingEvery = 64;
/// Routed traces between ticks to the shards none of them reached.
constexpr uint64_t kTickEvery = 256;
/// Graph nodes added since the last prune before the certifier prunes
/// again.
constexpr size_t kPruneSlack = 32;

void AccumulateStats(VerifierStats& into, const VerifierStats& from) {
  into.traces_processed += from.traces_processed;
  into.reads_verified += from.reads_verified;
  into.versions_tracked += from.versions_tracked;
  into.out_of_order_traces += from.out_of_order_traces;
  into.deps_total += from.deps_total;
  into.deps_deduced += from.deps_deduced;
  into.overlapped_ww += from.overlapped_ww;
  into.overlapped_wr += from.overlapped_wr;
  into.overlapped_rw += from.overlapped_rw;
  into.deduced_overlapped_ww += from.deduced_overlapped_ww;
  into.deduced_overlapped_wr += from.deduced_overlapped_wr;
  into.deduced_overlapped_rw += from.deduced_overlapped_rw;
  into.uncertain_ww += from.uncertain_ww;
  into.uncertain_wr += from.uncertain_wr;
  into.cr_violations += from.cr_violations;
  into.me_violations += from.me_violations;
  into.fuw_violations += from.fuw_violations;
  into.sc_violations += from.sc_violations;
  into.gc_sweeps += from.gc_sweeps;
  into.pruned_versions += from.pruned_versions;
  into.pruned_locks += from.pruned_locks;
  into.pruned_txns += from.pruned_txns;
  into.weak_il_traces += from.weak_il_traces;
  into.me_suppressed_weak += from.me_suppressed_weak;
  into.fuw_suppressed_weak += from.fuw_suppressed_weak;
  into.sc_nodes_skipped_weak += from.sc_nodes_skipped_weak;
}

}  // namespace

struct ShardedLeopard::Impl {
  /// Global dependency graph + commit/abort gating, owned by the certifier
  /// thread while it runs and read by Finish() after the join. Shards hold
  /// each edge until both endpoints' fates are known there and forward every
  /// fate they see ahead of the edges that depend on it, so an edge
  /// normally finds both endpoints decided: it applies when both committed
  /// and drops when either aborted. Only an edge deduced against a
  /// transaction that reached its shard through a key migration can still
  /// arrive before that fate; it parks on the missing endpoint, as
  /// Leopard::EmitEdge would.
  struct Certifier {
    explicit Certifier(const VerifierConfig& config)
        : config(config),
          graph(config.certifier, config.check_real_time_order) {}

    VerifierConfig config;
    DependencyGraph graph;
    /// Every transaction ever committed, *including* ones PruneGarbage has
    /// already removed from the graph: an edge whose missing endpoint is
    /// here is late against a pruned node and drops (Theorem 5 — a garbage
    /// transaction cannot join any future cycle), while a genuinely unknown
    /// endpoint parks. Neither this set nor `aborted` is pruned — a
    /// documented memory-for-simplicity tradeoff (8–16 bytes per txn).
    using TxnSet = FlatHashMap<TxnId, bool>;
    TxnSet committed;
    TxnSet aborted;
    std::unordered_map<TxnId, std::vector<EdgeMsg>> parked;
    std::vector<Timestamp> shard_safe;
    Timestamp gc_safe = 0;     ///< min(shard_safe) at the last prune
    size_t prune_floor = 0;    ///< graph nodes left by the last prune
    uint64_t sc_violations = 0;
    uint64_t pruned_txns = 0;
    uint64_t edges_applied = 0;
    uint64_t edges_parked = 0;
    uint64_t edges_dropped = 0;
    uint64_t sc_nodes_skipped_weak = 0;
    std::vector<BugDescriptor> bugs;
    /// Deduced-edge batch (kCycle/kFullDfs only): gating-passed edges
    /// accumulate here and enter the graph through one AddEdgeBatch per
    /// drain sweep, so Pearce–Kelly reorders — or the kFullDfs full search
    /// runs — once per batch instead of once per edge. Flush points are
    /// mandatory before anything that reads or prunes the graph: OnSafeTs
    /// (GC could otherwise prune a node a batched edge references) and the
    /// quiesce barrier (SaveState serializes the graph).
    std::vector<DependencyGraph::BatchEdge> batch;
    std::vector<GraphViolation> flush_scratch;
    bool batch_saw_commit = false;
    TxnId last_commit = 0;
    uint64_t batch_flushes = 0;
    uint64_t batch_edges_total = 0;
    uint64_t batch_edges_max = 0;

    void Report(const GraphViolation& violation, std::string detail_suffix,
                TxnId fallback_txn) {
      ++sc_violations;
      if (bugs.size() >= kMaxCertifierBugs) return;
      BugDescriptor bug;
      bug.type = BugType::kScViolation;
      bug.detail = violation.detail + std::move(detail_suffix);
      bug.edges = violation.edges;
      for (const BugEdge& e : violation.edges) {
        for (TxnId id : {e.from, e.to}) {
          if (std::find(bug.txns.begin(), bug.txns.end(), id) !=
              bug.txns.end()) {
            continue;
          }
          bug.txns.push_back(id);
          BugOp op;
          op.txn = id;
          op.role = "txn-span";
          op.committed = true;
          if (const auto* info = graph.InfoOf(id)) {
            op.interval = TimeInterval{info->first_op.bef, info->end.aft};
          }
          bug.ops.push_back(std::move(op));
        }
      }
      if (bug.txns.empty()) bug.txns.push_back(fallback_txn);
      for (const BugOp& op : bug.ops) {
        if (bug.ts == 0 || op.interval.bef < bug.ts) bug.ts = op.interval.bef;
      }
      bugs.push_back(std::move(bug));
    }

    void TryEdge(const EdgeMsg& e) {
      const bool have_from = graph.HasNode(e.from);
      const bool have_to = graph.HasNode(e.to);
      if (have_from && have_to) {
        ++edges_applied;
        if (config.certifier == CertifierMode::kCycle ||
            config.certifier == CertifierMode::kFullDfs) {
          batch.push_back({e.from, e.to, e.type});
        } else {
          // Mirror modes (SSI / commit-order / ts-order) have no reorder
          // cost to amortize — apply immediately, keeping the per-edge
          // detail suffix.
          auto violation = graph.AddEdge(e.from, e.to, e.type);
          if (violation) {
            Report(*violation,
                   " (" + std::string(DepTypeName(e.type)) + " edge)", e.from);
          }
        }
        return;
      }
      // A decided endpoint that is not a node aborted, committed below
      // SERIALIZABLE, or committed and was pruned as garbage (Theorem 5 —
      // it cannot join a future cycle): the edge drops.
      if (aborted.contains(e.from) || aborted.contains(e.to)) {
        ++edges_dropped;
        return;
      }
      const TxnId missing = !have_from ? e.from : e.to;
      if (committed.contains(missing)) {
        ++edges_dropped;
        return;
      }
      ++edges_parked;
      parked[missing].push_back(e);
    }

    void OnCommit(const EdgeMsg& e) {
      // Every shard the transaction touched forwards its fate; the first
      // one decides.
      if (graph.HasNode(e.from) || !committed.try_emplace(e.from).second) {
        return;
      }
      if (!isolation::IlRequiresSc(e.il)) {
        // Weak-IL commit: member of `committed` but never a graph node, so
        // its edges (parked here or arriving late) drop on the committed-
        // but-pruned path — mirroring the single-shard status_of fallback.
        ++sc_nodes_skipped_weak;
        RetryParked(e.from);
        return;
      }
      graph.AddNode(e.from, {e.first_op, e.end});
      last_commit = e.from;
      RetryParked(e.from);
      // kFullDfs certifies at the next Flush(): one full search covers
      // every commit drained in the sweep, same verdicts amortized.
      if (config.certifier == CertifierMode::kFullDfs) batch_saw_commit = true;
    }

    /// Retries the edges parked on `txn` now that its fate is known.
    void RetryParked(TxnId txn) {
      if (parked.empty()) return;
      auto it = parked.find(txn);
      if (it == parked.end()) return;
      std::vector<EdgeMsg> waiting = std::move(it->second);
      parked.erase(it);
      // May re-park on the other endpoint — same as Leopard::EmitEdge.
      for (const EdgeMsg& w : waiting) TryEdge(w);
    }

    /// Applies the accumulated edge batch (and, for kFullDfs, runs the
    /// one deferred full search covering the commits drained since the
    /// last flush). Must run before OnSafeTs GC and before parking at a
    /// quiesce barrier.
    void Flush() {
      if (!batch.empty()) {
        ++batch_flushes;
        batch_edges_total += batch.size();
        batch_edges_max = std::max<uint64_t>(batch_edges_max, batch.size());
        flush_scratch.clear();
        graph.AddEdgeBatch(batch.data(), batch.size(), flush_scratch);
        for (const GraphViolation& v : flush_scratch) {
          Report(v, "", v.edges.empty() ? last_commit : v.edges.front().from);
        }
        batch.clear();
      }
      if (batch_saw_commit && config.certifier == CertifierMode::kFullDfs) {
        auto violation = graph.FullCycleSearch();
        if (violation) Report(*violation, "", last_commit);
      }
      batch_saw_commit = false;
    }

    void OnAbort(TxnId txn) {
      aborted.try_emplace(txn);
      if (!parked.empty()) parked.erase(txn);
    }

    /// A shard's safe timestamp arrives behind every edge that shard
    /// forwarded before it, so pruning at the minimum over shards never
    /// runs ahead of an edge still in flight.
    void OnSafeTs(uint32_t shard, Timestamp ts) {
      shard_safe[shard] = std::max(shard_safe[shard], ts);
      if (!config.enable_gc) return;
      Timestamp global = kMaxTimestamp;
      for (Timestamp t : shard_safe) global = std::min(global, t);
      // A prune scans the whole graph: run one only once the watermark
      // moved and enough commits arrived since the last for it to matter.
      if (global <= gc_safe || graph.NodeCount() < prune_floor + kPruneSlack) {
        return;
      }
      gc_safe = global;
      // Flush before GC: a batched edge may reference a node the prune
      // would otherwise collect from under it.
      Flush();
      pruned_txns += graph.PruneGarbage(global);
      prune_floor = graph.NodeCount();
    }
  };

  Impl(const VerifierConfig& config, const Options& options)
      : config(config), opts(options) {
    opts.n_shards = std::clamp<uint32_t>(opts.n_shards, 1, 64);
    if (opts.n_workers == 0) opts.n_workers = opts.n_shards;
    opts.n_workers = std::clamp<uint32_t>(opts.n_workers, 1, 64);
    if (opts.metrics != nullptr) {
      stage_verify = opts.metrics->histogram("stage.read_to_verify_ns");
      gc_safe_gauge = opts.metrics->gauge("verifier.gc.safe_ts");
    }
    if (opts.n_shards == 1) {
      single = std::make_unique<Leopard>(config);
      if (opts.metrics != nullptr) {
        single->AttachMetrics(opts.metrics, opts.span_sample_every);
      }
      return;
    }

    // Shard verifiers run CR/ME/FUW only; all deduced edges are exported to
    // the certifier thread (when SC is checked at all).
    VerifierConfig shard_config = config;
    shard_config.check_sc = false;
    // A shard sees about 1/n of the traces: sweep it n times as often so
    // its mirrored state spans as much history as the inline verifier's —
    // older lock and version history only re-deduces duplicate edges.
    shard_config.gc_every =
        std::max<uint64_t>(1, config.gc_every / opts.n_shards);

    outbox.resize(opts.n_shards);
    touched_flag.assign(opts.n_shards, 0);
    shard_load.assign(opts.n_shards, 0);
    shard_stall_ns.assign(opts.n_shards, 0);
    shard_stall_event_ns.assign(opts.n_shards, 0);
    unrung.assign(opts.n_shards, 0);

    if (opts.metrics != nullptr) {
      shard_msgs_ctr = opts.metrics->counter("sharded.router.shard_msgs");
      steal_batches_ctr = opts.metrics->counter("steal.batches");
      steal_msgs_ctr = opts.metrics->counter("steal.msgs");
      if (opts.enable_rebalance) {
        reb_checks_ctr = opts.metrics->counter("rebalance.checks");
        reb_migrations_ctr = opts.metrics->counter("rebalance.migrations");
        reb_overrides_gauge = opts.metrics->gauge("rebalance.overrides");
        reb_epoch_gauge = opts.metrics->gauge("rebalance.epoch");
      }
    }

    shards.reserve(opts.n_shards);
    for (uint32_t i = 0; i < opts.n_shards; ++i) {
      shards.push_back(
          std::make_unique<Shard>(shard_config, opts.queue_capacity));
      if (opts.metrics != nullptr) {
        shards[i]->leopard->AttachMetrics(
            opts.metrics, opts.span_sample_every,
            "shard" + std::to_string(i) + ".");
        trace_depth_gauges.push_back(opts.metrics->gauge(
            "sharded.shard" + std::to_string(i) + ".trace_queue_depth"));
        edge_depth_gauges.push_back(opts.metrics->gauge(
            "sharded.shard" + std::to_string(i) + ".edge_queue_depth"));
        stall_counters.push_back(opts.metrics->counter(
            "shard" + std::to_string(i) + ".verifier.stall_ns"));
      }
      if (config.check_sc) {
        Shard* shard = shards[i].get();
        shard->leopard->SetEdgeSink(
            [this, shard](TxnId from, TxnId to, DepType type) {
              EdgeMsg e;
              e.kind = EdgeMsg::Kind::kEdge;
              e.from = from;
              e.to = to;
              e.type = type;
              PushEdge(*shard, e);
            });
      }
    }

    if (config.check_sc) {
      certifier = std::make_unique<Certifier>(config);
      certifier->shard_safe.assign(opts.n_shards, 0);
      if (opts.metrics != nullptr) {
        stage_certify = opts.metrics->histogram("stage.read_to_certify_ns");
        cert_applied = opts.metrics->counter("sharded.certifier.edges_applied");
        cert_parked = opts.metrics->counter("sharded.certifier.edges_parked");
        cert_dropped = opts.metrics->counter("sharded.certifier.edges_dropped");
        cert_nodes = opts.metrics->gauge("sharded.certifier.graph_nodes");
        cert_batch_count = opts.metrics->counter("certify.batch_count");
        cert_batch_edges = opts.metrics->counter("certify.batch_edges");
        cert_batch_max = opts.metrics->gauge("certify.batch_max_edges");
      }
      certifier_thread = std::thread([this] { CertifierLoop(); });
    }
    workers.reserve(opts.n_workers);
    for (uint32_t w = 0; w < opts.n_workers; ++w) {
      workers.emplace_back([this, w] { WorkerLoop(w); });
    }
  }

  ~Impl() { Finish(); }

  // ---- Router (runs on the Process() caller's thread) ----

  void Route(const Trace& trace) {
    assert(!finished);
    ++router_traces;
    if (trace.ts_bef() < frontier) ++router_out_of_order;
    frontier = std::max(frontier, trace.ts_bef());
    if (++traces_since_safe >= kRouterSafeEvery) {
      traces_since_safe = 0;
      RecomputeRouterSafe();
    }

    if (trace.il != IsolationLevel::kSerializable) ++router_weak_il;
    if (opts.enable_rebalance && (router_traces & kHotSampleMask) == 0) {
      for (const auto& w : trace.write_set) HotTouch(w.key);
      for (const auto& r : trace.read_set) HotTouch(r.key);
    }
    auto [it, inserted] = txn_routes.try_emplace(trace.txn);
    if (inserted) it->second.first_op = trace.interval;
    TxnRoute& route = it->second;
    if (trace.il < route.il) route.il = trace.il;

    if (trace.op == OpType::kCommit || trace.op == OpType::kAbort) {
      RouteTerminal(trace, route);
      txn_routes.erase(trace.txn);
    } else {
      RouteAccesses(trace, route);
    }

    if (opts.enable_rebalance &&
        ++traces_since_rebalance >= opts.rebalance_check_every) {
      traces_since_rebalance = 0;
      MaybeRebalance();
    }
    if (++traces_since_tick >= kTickEvery) TickColdShards();

    if (!trace_depth_gauges.empty() &&
        ++traces_since_gauges >= kGaugeSyncEvery) {
      traces_since_gauges = 0;
      SyncRouterMetrics();
    }
  }

  void SyncRouterMetrics() {
    if (shard_msgs_ctr == nullptr) return;
    shard_msgs_ctr->Store(shard_msgs);
    for (uint32_t i = 0; i < opts.n_shards; ++i) {
      trace_depth_gauges[i]->Set(
          static_cast<int64_t>(shards[i]->in.ApproxSize()));
    }
    steal_batches_ctr->Store(steal_batches.load(std::memory_order_relaxed));
    steal_msgs_ctr->Store(steal_msgs.load(std::memory_order_relaxed));
  }

  struct TxnRoute {
    TimeInterval first_op;
    /// Weakest isolation level seen across the txn's traces: the terminal
    /// re-stamps with it so every shard (and the certifier) converges on the
    /// same per-txn level whatever projection it saw.
    IsolationLevel il = IsolationLevel::kSerializable;
    /// Shards that must receive the terminal: every shard sent one of the
    /// txn's traces, plus the new owner of any key migrated away from one of
    /// them while the txn was active (it now holds the txn's state for the
    /// key).
    uint64_t term_mask = 0;
  };

  void RecomputeRouterSafe() {
    Timestamp safe = frontier;
    for (const auto& [txn, route] : txn_routes) {
      safe = std::min(safe, route.first_op.bef);
    }
    router_safe = safe;
    if (gc_safe_gauge != nullptr) {
      gc_safe_gauge->Set(static_cast<int64_t>(safe));
    }
    if (opts.events != nullptr && safe > last_gc_event_safe) {
      // GC-advance events are throttled to ~1/s wall time: the watermark
      // moves every few hundred traces and would otherwise drown the ring.
      const uint64_t now = obs::NowNs();
      if (now - last_gc_event_ns >= 1000000000ull) {
        last_gc_event_ns = now;
        last_gc_event_safe = safe;
        opts.events->Recordf(obs::EventSeverity::kInfo, "verifier.gc",
                             "safe timestamp advanced to %llu",
                             static_cast<unsigned long long>(safe));
      }
    }
  }

  void Send(uint32_t s, ShardMsg&& msg, TxnRoute& route) {
    msg.txn_begin = route.first_op;
    route.term_mask |= 1ULL << s;
    ++shard_load[s];
    PushToShard(s, std::move(msg));
  }

  /// Every message piggybacks the router's frontier and safe bound.
  void PushToShard(uint32_t s, ShardMsg&& msg) {
    msg.frontier = frontier;
    msg.safe_bound = router_safe;
    ++shard_msgs;
    sent_mask |= 1ULL << s;
    uint64_t stall_t0 = 0;
    // false = every worker exited and the queue is poisoned; the engine is
    // shutting down and the message is moot.
    (void)shards[s]->in.Push(std::move(msg), [&] {
      // The router sleeps until the shard drains half its ring; make sure
      // a worker is awake to drain it. Stall time is accumulated *per
      // shard* and exported as shard<i>.verifier.stall_ns so backpressure
      // is attributable to the shard causing it; journal events throttle
      // per shard at ~1/s (a wedged shard would otherwise fire one per
      // trace).
      RingWorkers();
      stall_t0 = obs::NowNs();
      if (opts.events != nullptr &&
          stall_t0 - shard_stall_event_ns[s] >= 1000000000ull) {
        shard_stall_event_ns[s] = stall_t0;
        opts.events->Recordf(obs::EventSeverity::kWarn, "router",
                             "shard %u trace queue full; router stalling",
                             static_cast<unsigned>(s));
      }
    });
    if (stall_t0 != 0) {
      shard_stall_ns[s] += obs::NowNs() - stall_t0;
      if (!stall_counters.empty()) stall_counters[s]->Store(shard_stall_ns[s]);
    }
    if (++unrung[s] >= kRingEvery) RingWorkers();
  }

  void RingWorkers() {
    std::fill(unrung.begin(), unrung.end(), 0);
    worker_bell.Ring();
  }

  /// Sends a kTick — the router's frontier and safe bound — to every shard
  /// that no message reached since the last tick, then wakes idle workers.
  /// Without it a shard no trace touches keeps an old safe timestamp at the
  /// certifier, whose GC takes the minimum over shards, and its pending
  /// reads wait for the next message to flush.
  void TickColdShards() {
    traces_since_tick = 0;
    for (uint32_t s = 0; s < opts.n_shards; ++s) {
      if ((sent_mask & (1ULL << s)) != 0) continue;
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kTick;
      PushToShard(s, std::move(msg));
    }
    sent_mask = 0;
    RingWorkers();
  }

  /// Live key → shard mapping: routing-table override first, hash second.
  uint32_t ShardOf(Key key) const {
    if (route_overrides.size() != 0) {
      auto it = route_overrides.find(key);
      if (it != route_overrides.end()) return it->second;
    }
    return ShardOfKey(key, opts.n_shards);
  }

  /// SpaceSaving top-k sketch over sampled key touches: an exact match
  /// bumps its slot; a miss claims the minimum slot, inheriting its count
  /// (the classic overestimate that keeps genuinely hot keys resident).
  void HotTouch(Key key) {
    HotSlot* min_slot = &hot[0];
    for (HotSlot& h : hot) {
      if (h.count > 0 && h.key == key) {
        ++h.count;
        return;
      }
      if (h.count < min_slot->count) min_slot = &h;
    }
    min_slot->key = key;
    ++min_slot->count;
  }

  void MaybeRebalance() {
    ++rebalance_checks;
    uint64_t total = 0;
    uint32_t hottest = 0;
    uint32_t coldest = 0;
    for (uint32_t s = 0; s < opts.n_shards; ++s) {
      total += shard_load[s];
      if (shard_load[s] > shard_load[hottest]) hottest = s;
      if (shard_load[s] < shard_load[coldest]) coldest = s;
    }
    const double mean = static_cast<double>(total) / opts.n_shards;
    if (total > 0 && hottest != coldest &&
        static_cast<double>(shard_load[hottest]) >
            opts.rebalance_imbalance * mean) {
      std::array<HotSlot, kHotSlots> by_heat = hot;
      std::sort(by_heat.begin(), by_heat.end(),
                [](const HotSlot& a, const HotSlot& b) {
                  return a.count > b.count;
                });
      uint64_t sampled = 0;
      for (const HotSlot& h : by_heat) sampled += h.count;
      // A single dominant key cannot be split below one shard: when it
      // draws the majority of sampled traffic and already lives on the
      // hottest shard, dedicate that shard to it by migrating the *other*
      // hot residents away instead.
      const bool dominant = sampled > 0 && by_heat[0].count * 2 > sampled &&
                            ShardOf(by_heat[0].key) == hottest;
      uint32_t moves = 0;
      for (size_t i = dominant ? 1 : 0;
           i < by_heat.size() && moves < opts.rebalance_max_moves; ++i) {
        if (by_heat[i].count == 0) break;
        if (ShardOf(by_heat[i].key) != hottest) continue;
        if (MigrateKey(by_heat[i].key, coldest)) ++moves;
      }
    }
    // Exponential decay: the sketch and the load counters track the
    // current phase of the workload, not its whole history.
    for (uint64_t& l : shard_load) l >>= 1;
    for (HotSlot& h : hot) h.count >>= 1;
    if (reb_checks_ctr != nullptr) {
      reb_checks_ctr->Store(rebalance_checks);
      reb_migrations_ctr->Store(rebalance_migrations);
      reb_overrides_gauge->Set(static_cast<int64_t>(route_overrides.size()));
      reb_epoch_gauge->Set(static_cast<int64_t>(route_epoch));
    }
  }

  /// Issues the in-order handoff moving `key`'s mirrored state to
  /// `target`: kMigrateOut to the current owner (extract + deposit), then
  /// kMigrateIn to the target (collect + install), then the routing-table
  /// update so every subsequently routed trace lands on the target. FIFO
  /// queues make the cut exact — no trace routed before the move can reach
  /// the target after it, and vice versa.
  bool MigrateKey(Key key, uint32_t target) {
    if (target >= opts.n_shards) return false;
    const uint32_t source = ShardOf(key);
    if (source == target) return false;
    const bool overridden = route_overrides.find(key) != route_overrides.end();
    if (!overridden &&
        route_overrides.size() >= opts.rebalance_max_overrides) {
      return false;
    }
    const uint64_t seq = mig_seq_next++;
    ShardMsg out_msg;
    out_msg.kind = ShardMsg::Kind::kMigrateOut;
    out_msg.mig_key = key;
    out_msg.mig_seq = seq;
    PushToShard(source, std::move(out_msg));
    ShardMsg in_msg;
    in_msg.kind = ShardMsg::Kind::kMigrateIn;
    in_msg.mig_key = key;
    in_msg.mig_seq = seq;
    PushToShard(target, std::move(in_msg));
    // The bundle carries the key's share of every transaction active on the
    // source: the target must see their terminals too.
    const uint64_t source_bit = 1ULL << source;
    for (auto&& [txn, route] : txn_routes) {
      if ((route.term_mask & source_bit) != 0) route.term_mask |= 1ULL << target;
    }
    if (target == ShardOfKey(key, opts.n_shards)) {
      route_overrides.erase(key);  // moved home: no override needed
    } else {
      route_overrides[key] = target;
    }
    ++route_epoch;
    ++rebalance_migrations;
    if (opts.events != nullptr) {
      opts.events->Recordf(obs::EventSeverity::kInfo, "router",
                           "migrating key %llu: shard %u -> %u (epoch %llu)",
                           static_cast<unsigned long long>(key),
                           static_cast<unsigned>(source),
                           static_cast<unsigned>(target),
                           static_cast<unsigned long long>(route_epoch));
    }
    return true;
  }

  /// Routes a read or write: each touched shard gets the trace's accesses
  /// to its keys, with range scans expanded into per-key absences first
  /// (exactly what Leopard::ProcessRead does) so the projection is purely
  /// per-key.
  void RouteAccesses(const Trace& trace, TxnRoute& route) {
    touched.clear();
    auto msg_for = [&](Key key) -> ShardMsg& {
      const uint32_t s = ShardOf(key);
      if (!touched_flag[s]) {
        touched_flag[s] = 1;
        touched.push_back(s);
      }
      return outbox[s];
    };
    for (const auto& w : trace.write_set) msg_for(w.key).writes.push_back(w);
    for (const auto& r : trace.read_set) msg_for(r.key).reads.push_back(r);
    for (Key key : trace.absent_reads) msg_for(key).absent.push_back(key);
    if (trace.range_count > 0) {
      returned_keys.clear();
      for (const auto& r : trace.read_set) returned_keys.insert(r.key);
      for (uint32_t i = 0; i < trace.range_count; ++i) {
        const Key key = trace.range_first + i;
        if (!returned_keys.contains(key)) msg_for(key).absent.push_back(key);
      }
    }
    for (uint32_t s : touched) {
      touched_flag[s] = 0;
      // Moving out leaves the outbox slot's access lists empty for reuse.
      outbox[s].SetHeader(trace);
      Send(s, std::move(outbox[s]), route);
    }
  }

  void RouteTerminal(const Trace& trace, TxnRoute& route) {
    // Only the shards that saw the transaction hold its locks, versions and
    // edges, so only they release and finalize; each forwards the fate to
    // the certifier ahead of any edge it then releases. A transaction with
    // no accesses still reaches one shard, so the certifier learns its fate.
    uint64_t mask = route.term_mask;
    if (mask == 0) mask = 1ULL << (trace.txn % opts.n_shards);
    for (; mask != 0; mask &= mask - 1) {
      ShardMsg msg;
      msg.SetHeader(trace);
      // Re-stamp with the txn's weakest level: a shard that only saw a
      // subset of the txn's (possibly unevenly tagged) traces still lands
      // on the same per-txn level as the single-threaded oracle.
      msg.il = route.il;
      Send(static_cast<uint32_t>(__builtin_ctzll(mask)), std::move(msg),
           route);
    }
  }

  // ---- Worker pool (work-stealing shard drains) ----

  /// Worker threads are not pinned: each scans every shard's trace queue —
  /// home shard (w % n_shards) first for locality — and drains a budgeted
  /// batch from any shard it can claim. A hot shard's backlog is therefore
  /// worked by every idle thread instead of serializing behind one pinned
  /// worker. A worker with nothing to claim sleeps until the router rings.
  void WorkerLoop(uint32_t w) {
    obs::Watchdog::Slot* wd =
        opts.watchdog != nullptr
            ? opts.watchdog->Register("worker" + std::to_string(w))
            : nullptr;
    const uint32_t n = opts.n_shards;
    const uint32_t home = w % n;
    for (;;) {
      if (wd != nullptr) wd->Beat();
      bool progress = false;
      bool all_finished = true;
      for (uint32_t k = 0; k < n; ++k) {
        const uint32_t s = (home + k) % n;
        Shard& shard = *shards[s];
        if (shard.finished.load(std::memory_order_acquire)) continue;
        all_finished = false;
        // Test before test-and-set: a busy or empty shard costs a read,
        // not a write to the claim's cache line.
        if (shard.in.ApproxSize() == 0 ||
            shard.claim.load(std::memory_order_relaxed) ||
            shard.claim.exchange(true, std::memory_order_acquire)) {
          continue;
        }
        const size_t drained = DrainShard(shard);
        shard.claim.store(false, std::memory_order_release);
        if (drained > 0) {
          progress = true;
          if (k != 0) {
            steal_batches.fetch_add(1, std::memory_order_relaxed);
            steal_msgs.fetch_add(drained, std::memory_order_relaxed);
          }
        }
      }
      if (all_finished) break;
      if (!progress) {
        if (wd != nullptr) wd->Suspend();
        worker_bell.Wait([this] { return WorkerHasWork(); });
        if (wd != nullptr) wd->Resume();
      }
    }
    if (opts.watchdog != nullptr) opts.watchdog->Retire(wd);
  }

  /// Some unclaimed shard has queued messages, or every shard finished.
  bool WorkerHasWork() const {
    bool all_finished = true;
    for (const auto& shard : shards) {
      if (shard->finished.load(std::memory_order_acquire)) continue;
      all_finished = false;
      if (!shard->claim.load(std::memory_order_relaxed) &&
          shard->in.ApproxSize() > 0) {
        return true;
      }
    }
    return all_finished;
  }

  /// Drains up to kDrainBudget messages from a claimed shard. Returns the
  /// number consumed; 0 means the queue was empty *or* its head is a
  /// kMigrateIn whose bundle has not been deposited yet — the worker
  /// releases the claim and some worker retries after the source shard
  /// progresses (the source's kMigrateOut is always poppable, so the
  /// handoff cannot deadlock, even with a single worker).
  size_t DrainShard(Shard& shard) {
    const bool certify = certifier != nullptr;
    const uint64_t edge_msgs_before = shard.edge_msgs;
    size_t processed = 0;
    bool emptied = false;
    for (int budget = kDrainBudget; budget > 0; --budget) {
      ShardMsg* front = shard.in.Front();
      if (front == nullptr) {
        emptied = true;
        break;
      }
      if (front->kind == ShardMsg::Kind::kMigrateIn) {
        std::unique_ptr<Leopard::KeyStateBundle> bundle;
        {
          std::lock_guard<std::mutex> lock(mig_mu);
          auto it = mig_mailbox.find(front->mig_seq);
          if (it != mig_mailbox.end()) {
            bundle = std::move(it->second);
            mig_mailbox.erase(it);
          }
        }
        if (bundle == nullptr) break;  // source not there yet; retry later
        shard.leopard->SetSafeTsBound(front->safe_bound);
        shard.leopard->InstallKeyState(std::move(bundle));
        // Install *before* the frontier advance so migrated parked reads
        // that are already due flush here, at the same frontier the source
        // (and the single-threaded oracle) would have used.
        shard.leopard->AdvanceFrontier(front->frontier);
        shard.in.PopFront();
        ++processed;
        continue;
      }
      ShardMsg msg = std::move(*front);
      shard.in.PopFront();
      ++processed;
      if (msg.kind == ShardMsg::Kind::kFinish) {
        shard.leopard->Finish();
        if (certify) {
          EdgeMsg done;
          done.kind = EdgeMsg::Kind::kDone;
          PushEdge(shard, done);
          certifier_bell.Ring();
        }
        // Unblock a router that races a push against this exit.
        shard.in.Poison();
        shard.finished.store(true, std::memory_order_release);
        // Sleeping workers must see the last shard finish to exit.
        worker_bell.Ring(/*all=*/true);
        return processed;
      }
      if (msg.kind == ShardMsg::Kind::kBarrier) {
        // Forward the barrier to the certifier *before* acking: once every
        // shard has acked and the certifier has swallowed all n barriers,
        // everything routed before the barrier has been fully applied.
        if (certify) {
          EdgeMsg b;
          b.kind = EdgeMsg::Kind::kBarrier;
          PushEdge(shard, b);
          certifier_bell.Ring();
        }
        {
          std::lock_guard<std::mutex> lock(qz_mu);
          ++qz_shard_acks;
        }
        qz_cv.notify_all();
        // The checkpointer owns the shard's state from the ack until it
        // resumes the engine: touch nothing more (no idle safe-ts report).
        return processed;
      }
      if (msg.kind == ShardMsg::Kind::kMigrateOut) {
        // Flush everything due at the routing cut first, then hand the
        // key's entire mirrored state to the mailbox. FIFO guarantees
        // every pre-migration trace for the key was already applied here.
        shard.leopard->SetSafeTsBound(msg.safe_bound);
        shard.leopard->AdvanceFrontier(msg.frontier);
        std::unique_ptr<Leopard::KeyStateBundle> bundle =
            shard.leopard->ExtractKeyState(msg.mig_key);
        {
          std::lock_guard<std::mutex> lock(mig_mu);
          mig_mailbox.emplace(msg.mig_seq, std::move(bundle));
        }
        // The target's worker may be asleep on a deferred install.
        worker_bell.Ring();
        continue;
      }
      shard.leopard->SetSafeTsBound(msg.safe_bound);
      shard.leopard->AdvanceFrontier(msg.frontier);
      if (msg.kind == ShardMsg::Kind::kTick) {
        if (certify) ReportSafeTs(shard);
        continue;
      }
      if ((++shard.stage_samples & 0xf) == 0) {
        RecordStageVerify(msg.ingest_ns);
      }
      shard.leopard->BeginTxnAt(msg.txn, msg.txn_begin);
      const bool terminal =
          msg.op == OpType::kCommit || msg.op == OpType::kAbort;
      if (terminal && certify) {
        // The fate goes out ahead of every edge this terminal releases.
        EdgeMsg e;
        e.kind = msg.op == OpType::kCommit ? EdgeMsg::Kind::kCommit
                                           : EdgeMsg::Kind::kAbort;
        e.from = msg.txn;
        e.first_op = msg.txn_begin;
        e.end = msg.interval;
        e.ingest_ns = msg.ingest_ns;
        e.il = msg.il;
        PushEdge(shard, e);
      }
      Trace& trace = shard.scratch;
      trace.op = msg.op;
      trace.il = msg.il;
      trace.for_update = msg.for_update;
      trace.client = msg.client;
      trace.txn = msg.txn;
      trace.interval = msg.interval;
      trace.ingest_ns = msg.ingest_ns;
      trace.read_set.assign(msg.reads.begin(), msg.reads.end());
      trace.write_set.assign(msg.writes.begin(), msg.writes.end());
      trace.absent_reads.assign(msg.absent.begin(), msg.absent.end());
      shard.leopard->Process(trace);
      if (certify && ++shard.msgs_since_safe_ts >= opts.safe_ts_every) {
        ReportSafeTs(shard);
      }
    }
    // A shard going idle reports too, so a lightly loaded shard's safe
    // timestamp does not trail its last edges until safe_ts_every more
    // messages arrive.
    if (certify && emptied && processed > 0) ReportSafeTs(shard);
    if (shard.edge_msgs != edge_msgs_before) certifier_bell.Ring();
    return processed;
  }

  /// Sends the shard's safe timestamp to the certifier when it advanced.
  void ReportSafeTs(Shard& shard) {
    shard.msgs_since_safe_ts = 0;
    const Timestamp ts = shard.leopard->SafeTs();
    if (ts <= shard.reported_safe) return;
    shard.reported_safe = ts;
    EdgeMsg e;
    e.kind = EdgeMsg::Kind::kSafeTs;
    e.ts = ts;
    PushEdge(shard, e);
  }

  void PushEdge(Shard& shard, const EdgeMsg& e) {
    ++shard.edge_msgs;
    // A full ring puts this worker to sleep until the certifier drains
    // half of it; the certifier may itself be asleep, since the worker
    // rings it only when its drain ends. A failed push means the certifier
    // poisoned the queue on its way out (error shutdown) — the message is
    // lost, but so is the run.
    (void)shard.edges.Push(e, [this] { certifier_bell.Ring(); });
  }

  // ---- Certifier ----

  void CertifierLoop() {
    obs::Watchdog::Slot* wd = opts.watchdog != nullptr
                                  ? opts.watchdog->Register("sc.certifier")
                                  : nullptr;
    uint32_t done = 0;
    uint32_t barriers = 0;
    uint64_t iters = 0;
    uint64_t commit_samples = 0;
    while (done < opts.n_shards) {
      if (wd != nullptr) wd->Beat();
      bool any = false;
      for (uint32_t i = 0; i < opts.n_shards; ++i) {
        EdgeMsg e;
        int budget = 256;  // round-robin fairness across shard queues
        while (budget-- > 0 && shards[i]->edges.TryPop(e)) {
          any = true;
          switch (e.kind) {
            case EdgeMsg::Kind::kEdge:
              certifier->TryEdge(e);
              break;
            case EdgeMsg::Kind::kCommit:
              if (stage_certify != nullptr && e.ingest_ns != 0 &&
                  (++commit_samples & 0xf) == 0) {
                const uint64_t now = obs::NowNs();
                if (now > e.ingest_ns) stage_certify->Record(now - e.ingest_ns);
              }
              certifier->OnCommit(e);
              break;
            case EdgeMsg::Kind::kAbort:
              certifier->OnAbort(e.from);
              break;
            case EdgeMsg::Kind::kSafeTs:
              certifier->OnSafeTs(i, e.ts);
              break;
            case EdgeMsg::Kind::kDone:
              ++done;
              budget = 0;
              break;
            case EdgeMsg::Kind::kBarrier:
              if (++barriers >= opts.n_shards) {
                // Every shard's pre-barrier traffic is applied: park until
                // the checkpointer releases the quiescent point. Flush
                // first — SaveState serializes the graph, so no edge may
                // still be sitting in the batch.
                certifier->Flush();
                barriers = 0;
                std::unique_lock<std::mutex> lock(qz_mu);
                qz_cert_paused = true;
                qz_cv.notify_all();
                if (wd != nullptr) wd->Suspend();
                qz_cv.wait(lock, [this] { return !qz_active; });
                if (wd != nullptr) wd->Resume();
                qz_cert_paused = false;
              }
              budget = 0;
              break;
          }
        }
      }
      // One batched graph insertion per drain sweep: Pearce–Kelly (or the
      // kFullDfs search) amortizes across every edge collected above.
      certifier->Flush();
      if ((++iters & (kGaugeSyncEvery - 1)) == 0) SyncCertifierMetrics();
      if (!any && done < opts.n_shards) {
        if (wd != nullptr) wd->Suspend();
        certifier_bell.Wait([this] {
          for (const auto& shard : shards) {
            if (shard->edges.ApproxSize() > 0) return true;
          }
          return false;
        });
        if (wd != nullptr) wd->Resume();
      }
    }
    certifier->Flush();
    // Edges still parked here reference transactions that never committed
    // within the run — exactly the edges the single-threaded verifier also
    // leaves unapplied at Finish().
    SyncCertifierMetrics();
    // Unblock any shard still pushing edges (it will observe the poison and
    // drop instead of waiting on a consumer that is gone).
    for (auto& shard : shards) shard->edges.Poison();
    if (opts.watchdog != nullptr) opts.watchdog->Retire(wd);
  }

  void SyncCertifierMetrics() {
    if (cert_applied == nullptr) return;
    cert_applied->Store(certifier->edges_applied);
    cert_parked->Store(certifier->edges_parked);
    cert_dropped->Store(certifier->edges_dropped);
    cert_nodes->Set(static_cast<int64_t>(certifier->graph.NodeCount()));
    cert_batch_count->Store(certifier->batch_flushes);
    cert_batch_edges->Store(certifier->batch_edges_total);
    cert_batch_max->Set(static_cast<int64_t>(certifier->batch_edges_max));
    for (uint32_t i = 0; i < opts.n_shards; ++i) {
      edge_depth_gauges[i]->Set(
          static_cast<int64_t>(shards[i]->edges.ApproxSize()));
    }
  }

  // ---- Quiesce (durable checkpoint safepoint) ----

  void Quiesce() {
    if (single != nullptr || finished) return;
    {
      std::lock_guard<std::mutex> lock(qz_mu);
      qz_active = true;
      qz_shard_acks = 0;
    }
    for (uint32_t s = 0; s < opts.n_shards; ++s) {
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kBarrier;
      PushToShard(s, std::move(msg));
    }
    RingWorkers();
    std::unique_lock<std::mutex> lock(qz_mu);
    qz_cv.wait(lock, [this] {
      return qz_shard_acks >= opts.n_shards &&
             (certifier == nullptr || qz_cert_paused);
    });
    // The lock handoff from each worker's ack (and the certifier's pause)
    // publishes their verifier state to this thread: safe to SaveState now.
  }

  void ResumeFromQuiesce() {
    if (single != nullptr || finished) return;
    {
      std::lock_guard<std::mutex> lock(qz_mu);
      qz_active = false;
    }
    qz_cv.notify_all();
  }

  // ---- Checkpoint serialization (caller quiesced) ----

  void SaveState(StateWriter& w) const {
    w.PutU32(opts.n_shards);
    if (single != nullptr) {
      single->SaveState(w);
      return;
    }
    for (const auto& shard : shards) {
      shard->leopard->SaveState(w);
      w.PutU64(shard->msgs_since_safe_ts);
    }
    w.PutU64(frontier);
    w.PutU64(router_safe);
    w.PutU64(router_traces);
    w.PutU64(router_out_of_order);
    w.PutU64(router_weak_il);
    w.PutU64(traces_since_safe);
    w.PutU32(static_cast<uint32_t>(txn_routes.size()));
    for (const auto& [txn, route] : txn_routes) {
      w.PutU64(txn);
      serde::SaveInterval(w, route.first_op);
      w.PutU8(static_cast<uint8_t>(route.il));
      w.PutU64(route.term_mask);
    }
    // Routing table + skew rebalancer. The migration mailbox is provably
    // empty at a quiescent point: every kMigrateOut deposit precedes its
    // shard's barrier ack, and every kMigrateIn blocks its shard's barrier
    // until the install consumed the bundle.
    w.PutU64(route_epoch);
    w.PutU64(mig_seq_next);
    w.PutU64(traces_since_rebalance);
    w.PutU64(rebalance_checks);
    w.PutU64(rebalance_migrations);
    w.PutU32(static_cast<uint32_t>(route_overrides.size()));
    for (const auto& [key, target] : route_overrides) {
      w.PutU64(key);
      w.PutU32(target);
    }
    for (uint32_t i = 0; i < opts.n_shards; ++i) w.PutU64(shard_load[i]);
    for (const HotSlot& h : hot) {
      w.PutU64(h.key);
      w.PutU64(h.count);
    }
    w.PutBool(certifier != nullptr);
    if (certifier == nullptr) return;
    certifier->graph.SaveState(w);
    auto save_txn_set = [&w](const Certifier::TxnSet& set) {
      w.PutU32(static_cast<uint32_t>(set.size()));
      for (const auto& slot : set) w.PutU64(slot.first);
    };
    save_txn_set(certifier->committed);
    save_txn_set(certifier->aborted);
    w.PutU32(static_cast<uint32_t>(certifier->parked.size()));
    for (const auto& [txn, msgs] : certifier->parked) {
      w.PutU64(txn);
      w.PutU32(static_cast<uint32_t>(msgs.size()));
      for (const EdgeMsg& e : msgs) {
        w.PutU8(static_cast<uint8_t>(e.kind));
        w.PutU64(e.from);
        w.PutU64(e.to);
        w.PutU8(static_cast<uint8_t>(e.type));
        serde::SaveInterval(w, e.first_op);
        serde::SaveInterval(w, e.end);
        w.PutU64(e.ts);
        w.PutU64(e.ingest_ns);
        w.PutU8(static_cast<uint8_t>(e.il));
      }
    }
    w.PutU32(static_cast<uint32_t>(certifier->shard_safe.size()));
    for (Timestamp t : certifier->shard_safe) w.PutU64(t);
    w.PutU64(certifier->sc_violations);
    w.PutU64(certifier->pruned_txns);
    w.PutU64(certifier->edges_applied);
    w.PutU64(certifier->edges_parked);
    w.PutU64(certifier->edges_dropped);
    w.PutU64(certifier->sc_nodes_skipped_weak);
    w.PutU32(static_cast<uint32_t>(certifier->bugs.size()));
    for (const BugDescriptor& bug : certifier->bugs) serde::SaveBug(w, bug);
  }

  Status LoadState(StateReader& r) {
    uint32_t n_shards = 0;
    Status s = r.GetU32(n_shards);
    if (!s.ok()) return s;
    if (n_shards != opts.n_shards) {
      return Status::FailedPrecondition(
          "checkpoint was written with --shards=" + std::to_string(n_shards) +
          ", engine is running " + std::to_string(opts.n_shards));
    }
    if (single != nullptr) return single->LoadState(r);
    for (auto& shard : shards) {
      if (!(s = shard->leopard->LoadState(r)).ok()) return s;
      if (!(s = r.GetU64(shard->msgs_since_safe_ts)).ok()) return s;
    }
    if (!(s = r.GetU64(frontier)).ok()) return s;
    if (!(s = r.GetU64(router_safe)).ok()) return s;
    if (!(s = r.GetU64(router_traces)).ok()) return s;
    if (!(s = r.GetU64(router_out_of_order)).ok()) return s;
    if (!(s = r.GetU64(router_weak_il)).ok()) return s;
    if (!(s = r.GetU64(traces_since_safe)).ok()) return s;
    uint32_t n = 0;
    if (!(s = r.GetU32(n)).ok()) return s;
    if (!r.CountFits(n, 8 + 16 + 1 + 8)) {
      return Status::InvalidArgument("sharded state: absurd route count");
    }
    txn_routes.clear();
    txn_routes.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      TxnId txn = 0;
      if (!(s = r.GetU64(txn)).ok()) return s;
      TxnRoute route;
      if (!(s = serde::LoadInterval(r, route.first_op)).ok()) return s;
      uint8_t il = 0;
      if (!(s = r.GetU8(il)).ok()) return s;
      if (il > static_cast<uint8_t>(IsolationLevel::kSerializable)) {
        return Status::InvalidArgument("sharded state: bad isolation level");
      }
      route.il = static_cast<IsolationLevel>(il);
      if (!(s = r.GetU64(route.term_mask)).ok()) return s;
      txn_routes[txn] = route;
    }
    if (!(s = r.GetU64(route_epoch)).ok()) return s;
    if (!(s = r.GetU64(mig_seq_next)).ok()) return s;
    if (!(s = r.GetU64(traces_since_rebalance)).ok()) return s;
    if (!(s = r.GetU64(rebalance_checks)).ok()) return s;
    if (!(s = r.GetU64(rebalance_migrations)).ok()) return s;
    uint32_t n_overrides = 0;
    if (!(s = r.GetU32(n_overrides)).ok()) return s;
    if (!r.CountFits(n_overrides, 8 + 4)) {
      return Status::InvalidArgument("sharded state: absurd override count");
    }
    route_overrides.clear();
    for (uint32_t i = 0; i < n_overrides; ++i) {
      Key key = 0;
      uint32_t target = 0;
      if (!(s = r.GetU64(key)).ok()) return s;
      if (!(s = r.GetU32(target)).ok()) return s;
      if (target >= opts.n_shards) {
        return Status::InvalidArgument("sharded state: bad override shard");
      }
      route_overrides[key] = target;
    }
    shard_load.assign(opts.n_shards, 0);
    for (uint32_t i = 0; i < opts.n_shards; ++i) {
      if (!(s = r.GetU64(shard_load[i])).ok()) return s;
    }
    for (HotSlot& h : hot) {
      if (!(s = r.GetU64(h.key)).ok()) return s;
      if (!(s = r.GetU64(h.count)).ok()) return s;
    }
    bool has_certifier = false;
    if (!(s = r.GetBool(has_certifier)).ok()) return s;
    if (has_certifier != (certifier != nullptr)) {
      return Status::FailedPrecondition(
          "checkpoint certifier presence does not match engine config");
    }
    if (certifier == nullptr) return Status::Ok();
    if (!(s = certifier->graph.LoadState(r)).ok()) return s;
    auto load_txn_set = [&r](Certifier::TxnSet& set) -> Status {
      uint32_t count = 0;
      Status st = r.GetU32(count);
      if (!st.ok()) return st;
      if (!r.CountFits(count, 8)) {
        return Status::InvalidArgument("sharded state: absurd txn-set size");
      }
      set.clear();
      set.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        TxnId t = 0;
        if (!(st = r.GetU64(t)).ok()) return st;
        set.try_emplace(t);
      }
      return Status::Ok();
    };
    if (!(s = load_txn_set(certifier->committed)).ok()) return s;
    if (!(s = load_txn_set(certifier->aborted)).ok()) return s;
    if (!(s = r.GetU32(n)).ok()) return s;
    if (!r.CountFits(n, 8 + 4)) {
      return Status::InvalidArgument("sharded state: absurd parked count");
    }
    certifier->parked.clear();
    for (uint32_t i = 0; i < n; ++i) {
      TxnId txn = 0;
      uint32_t n_msgs = 0;
      if (!(s = r.GetU64(txn)).ok()) return s;
      if (!(s = r.GetU32(n_msgs)).ok()) return s;
      if (!r.CountFits(n_msgs, 1 + 8 + 8 + 1 + 16 + 16 + 8 + 8 + 1)) {
        return Status::InvalidArgument(
            "sharded state: absurd parked-edge count");
      }
      auto& msgs = certifier->parked[txn];
      msgs.reserve(n_msgs);
      for (uint32_t j = 0; j < n_msgs; ++j) {
        EdgeMsg e;
        uint8_t kind = 0;
        uint8_t type = 0;
        if (!(s = r.GetU8(kind)).ok()) return s;
        if (kind > static_cast<uint8_t>(EdgeMsg::Kind::kBarrier)) {
          return Status::InvalidArgument("sharded state: bad edge kind");
        }
        e.kind = static_cast<EdgeMsg::Kind>(kind);
        if (!(s = r.GetU64(e.from)).ok()) return s;
        if (!(s = r.GetU64(e.to)).ok()) return s;
        if (!(s = r.GetU8(type)).ok()) return s;
        e.type = static_cast<DepType>(type);
        if (!(s = serde::LoadInterval(r, e.first_op)).ok()) return s;
        if (!(s = serde::LoadInterval(r, e.end)).ok()) return s;
        if (!(s = r.GetU64(e.ts)).ok()) return s;
        if (!(s = r.GetU64(e.ingest_ns)).ok()) return s;
        uint8_t il = 0;
        if (!(s = r.GetU8(il)).ok()) return s;
        if (il > static_cast<uint8_t>(IsolationLevel::kSerializable)) {
          return Status::InvalidArgument(
              "sharded state: bad edge isolation level");
        }
        e.il = static_cast<IsolationLevel>(il);
        msgs.push_back(e);
      }
    }
    if (!(s = r.GetU32(n)).ok()) return s;
    if (n != opts.n_shards || !r.CountFits(n, 8)) {
      return Status::InvalidArgument("sharded state: bad shard-safe vector");
    }
    certifier->shard_safe.assign(n, 0);
    for (uint32_t i = 0; i < n; ++i) {
      if (!(s = r.GetU64(certifier->shard_safe[i])).ok()) return s;
    }
    if (!(s = r.GetU64(certifier->sc_violations)).ok()) return s;
    if (!(s = r.GetU64(certifier->pruned_txns)).ok()) return s;
    if (!(s = r.GetU64(certifier->edges_applied)).ok()) return s;
    if (!(s = r.GetU64(certifier->edges_parked)).ok()) return s;
    if (!(s = r.GetU64(certifier->edges_dropped)).ok()) return s;
    if (!(s = r.GetU64(certifier->sc_nodes_skipped_weak)).ok()) return s;
    if (!(s = r.GetU32(n)).ok()) return s;
    if (!r.CountFits(n, 1 + 4 + 8 + 8 + 4 + 4 + 4)) {
      return Status::InvalidArgument("sharded state: absurd bug count");
    }
    certifier->bugs.clear();
    certifier->bugs.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      BugDescriptor bug;
      if (!(s = serde::LoadBug(r, bug)).ok()) return s;
      certifier->bugs.push_back(std::move(bug));
    }
    return Status::Ok();
  }

  // ---- Finish / aggregation ----

  void Finish() {
    if (finished) return;
    finished = true;
    if (single != nullptr) {
      single->Finish();
      report.stats = single->stats();
      report.bugs = single->bugs();
      return;
    }
    // kFinish is routed last on every shard: FIFO (and the rule that a
    // worker never skips past a deferred kMigrateIn) guarantees no
    // migration handoff is still in flight when the shards wind down.
    for (uint32_t s = 0; s < opts.n_shards; ++s) {
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kFinish;
      PushToShard(s, std::move(msg));
    }
    RingWorkers();
    for (auto& worker : workers) worker.join();
    if (certifier_thread.joinable()) certifier_thread.join();
    SyncRouterMetrics();

    report.stats = VerifierStats{};
    for (auto& shard : shards) {
      AccumulateStats(report.stats, shard->leopard->stats());
    }
    // Per-trace counters belong to the router's view: each input trace was
    // processed once logically, however many shard projections it produced.
    report.stats.traces_processed = router_traces;
    report.stats.out_of_order_traces = router_out_of_order;
    report.stats.weak_il_traces = router_weak_il;
    if (certifier != nullptr) {
      report.stats.sc_violations += certifier->sc_violations;
      report.stats.pruned_txns += certifier->pruned_txns;
      report.stats.sc_nodes_skipped_weak += certifier->sc_nodes_skipped_weak;
    }
    report.bugs.clear();
    for (auto& shard : shards) {
      const auto& shard_bugs = shard->leopard->bugs();
      report.bugs.insert(report.bugs.end(), shard_bugs.begin(),
                         shard_bugs.end());
    }
    if (certifier != nullptr) {
      report.bugs.insert(report.bugs.end(), certifier->bugs.begin(),
                         certifier->bugs.end());
    }
    // Deterministic report order: shard progress (and certifier edge
    // arrival) is timing-dependent, so sort by (ts, txns, type, key,
    // detail) and drop exact duplicates — diffs and CI logs stay stable
    // across runs whatever the thread interleaving was.
    std::sort(report.bugs.begin(), report.bugs.end(),
              [](const BugDescriptor& a, const BugDescriptor& b) {
                return std::tie(a.ts, a.txns, a.type, a.key, a.detail) <
                       std::tie(b.ts, b.txns, b.type, b.key, b.detail);
              });
    report.bugs.erase(
        std::unique(report.bugs.begin(), report.bugs.end()),
        report.bugs.end());
  }

  VerifierConfig config;
  Options opts;
  bool finished = false;

  // n_shards == 1: the inline reference verifier; everything below unused.
  std::unique_ptr<Leopard> single;

  std::vector<std::unique_ptr<Shard>> shards;
  std::unique_ptr<Certifier> certifier;
  std::thread certifier_thread;

  // Work-stealing worker pool (replaces per-shard pinned threads). Idle
  // workers sleep on worker_bell; the certifier sleeps on certifier_bell.
  std::vector<std::thread> workers;
  Doorbell worker_bell;
  Doorbell certifier_bell;
  std::atomic<uint64_t> steal_batches{0};
  std::atomic<uint64_t> steal_msgs{0};

  // Key-migration mailbox: extracted per-key bundles in flight from a
  // source worker to a target worker, keyed by handoff sequence number.
  std::mutex mig_mu;
  std::unordered_map<uint64_t, std::unique_ptr<Leopard::KeyStateBundle>>
      mig_mailbox;

  // Routing table + skew rebalancer (router thread only; workers never
  // read these — the routing cut travels inside the message stream).
  static constexpr size_t kHotSlots = 16;
  struct HotSlot {
    Key key = 0;
    uint64_t count = 0;
  };
  FlatHashMap<Key, uint32_t> route_overrides;
  uint64_t route_epoch = 0;
  uint64_t mig_seq_next = 1;
  uint64_t traces_since_rebalance = 0;
  uint64_t rebalance_checks = 0;
  uint64_t rebalance_migrations = 0;
  std::vector<uint64_t> shard_load;
  std::array<HotSlot, kHotSlots> hot{};

  // Per-shard router backpressure attribution (router thread only).
  std::vector<uint64_t> shard_stall_ns;
  std::vector<uint64_t> shard_stall_event_ns;

  // Quiescent-point handshake (Quiesce/ResumeFromQuiesce vs the shard and
  // certifier loops). qz_active gates the certifier's park; acks count
  // shards that drained up to their barrier.
  std::mutex qz_mu;
  std::condition_variable qz_cv;
  uint32_t qz_shard_acks = 0;
  bool qz_cert_paused = false;
  bool qz_active = false;

  // Router state (Process() caller's thread only).
  Timestamp frontier = 0;
  Timestamp router_safe = 0;
  uint64_t router_traces = 0;
  uint64_t router_out_of_order = 0;
  uint64_t router_weak_il = 0;  ///< input traces tagged below SERIALIZABLE
  uint64_t traces_since_safe = 0;
  uint64_t traces_since_gauges = 0;
  uint64_t traces_since_tick = 0;
  uint64_t shard_msgs = 0;   ///< messages pushed to shard queues
  uint64_t sent_mask = 0;    ///< shards sent a message since the last tick
  std::vector<uint32_t> unrung;  ///< per shard: pushed since the last ring
  FlatHashMap<TxnId, TxnRoute> txn_routes;
  // Reused projection scratch, one message per shard.
  std::vector<ShardMsg> outbox;
  std::vector<uint8_t> touched_flag;
  std::vector<uint32_t> touched;
  std::unordered_set<Key> returned_keys;

  /// Stage-latency attribution: read stamp -> shard verify. Callers sample
  /// 1-in-16 (per shard, or per inline trace) because NowNs() on every
  /// message would show up on the hot path.
  void RecordStageVerify(uint64_t ingest_ns) {
    if (stage_verify == nullptr || ingest_ns == 0) return;
    const uint64_t now = obs::NowNs();
    if (now > ingest_ns) stage_verify->Record(now - ingest_ns);
  }

  // Observability (optional).
  std::vector<obs::Gauge*> trace_depth_gauges;
  std::vector<obs::Gauge*> edge_depth_gauges;
  std::vector<obs::Counter*> stall_counters;
  obs::Counter* cert_applied = nullptr;
  obs::Counter* cert_parked = nullptr;
  obs::Counter* cert_dropped = nullptr;
  obs::Gauge* cert_nodes = nullptr;
  obs::Counter* cert_batch_count = nullptr;
  obs::Counter* cert_batch_edges = nullptr;
  obs::Gauge* cert_batch_max = nullptr;
  obs::Counter* shard_msgs_ctr = nullptr;
  obs::Counter* steal_batches_ctr = nullptr;
  obs::Counter* steal_msgs_ctr = nullptr;
  obs::Counter* reb_checks_ctr = nullptr;
  obs::Counter* reb_migrations_ctr = nullptr;
  obs::Gauge* reb_overrides_gauge = nullptr;
  obs::Gauge* reb_epoch_gauge = nullptr;
  obs::Histogram* stage_verify = nullptr;
  obs::Histogram* stage_certify = nullptr;
  obs::Gauge* gc_safe_gauge = nullptr;
  uint64_t last_gc_event_ns = 0;
  Timestamp last_gc_event_safe = 0;
  uint64_t single_traces = 0;  // sampling cadence for the inline verifier

  VerifyReport report;
};

ShardedLeopard::ShardedLeopard(const VerifierConfig& config,
                               const Options& options)
    : impl_(std::make_unique<Impl>(config, options)) {}

ShardedLeopard::~ShardedLeopard() = default;

void ShardedLeopard::Process(const Trace& trace) {
  if (impl_->single != nullptr) {
    const uint64_t tick = ++impl_->single_traces;
    if ((tick & 0xf) == 0) impl_->RecordStageVerify(trace.ingest_ns);
    impl_->single->Process(trace);
    if (impl_->gc_safe_gauge != nullptr &&
        (tick & (kRouterSafeEvery - 1)) == 0) {
      impl_->gc_safe_gauge->Set(
          static_cast<int64_t>(impl_->single->SafeTs()));
    }
    return;
  }
  impl_->Route(trace);
}

void ShardedLeopard::EndBatch() {
  if (impl_->single != nullptr || impl_->finished) return;
  impl_->TickColdShards();
}

void ShardedLeopard::Finish() { impl_->Finish(); }

void ShardedLeopard::Quiesce() { impl_->Quiesce(); }

void ShardedLeopard::ResumeFromQuiesce() { impl_->ResumeFromQuiesce(); }

void ShardedLeopard::SaveState(StateWriter& w) const { impl_->SaveState(w); }

Status ShardedLeopard::LoadState(StateReader& r) {
  return impl_->LoadState(r);
}

const VerifyReport& ShardedLeopard::report() const { return impl_->report; }

const Leopard& ShardedLeopard::single() const {
  assert(impl_->single != nullptr);
  return *impl_->single;
}

uint32_t ShardedLeopard::n_shards() const { return impl_->opts.n_shards; }

size_t ShardedLeopard::ApproxMemoryBytes() const {
  if (impl_->single != nullptr) return impl_->single->ApproxMemoryBytes();
  if (!impl_->finished) return 0;  // shard state is only stable post-join
  size_t bytes = 0;
  for (const auto& shard : impl_->shards) {
    bytes += shard->leopard->ApproxMemoryBytes();
  }
  if (impl_->certifier != nullptr) {
    bytes += impl_->certifier->graph.ApproxBytes();
  }
  return bytes;
}

void ShardedLeopard::DebugForceMigrate(Key key, uint32_t target_shard) {
  if (impl_->single != nullptr || impl_->finished) return;
  (void)impl_->MigrateKey(key, target_shard % impl_->opts.n_shards);
}

uint32_t ShardedLeopard::ShardOfKey(Key key, uint32_t n_shards) {
  if (n_shards <= 1) return 0;
  // splitmix64 finalizer (HashU64): cheap, and spreads dense key spaces
  // uniformly.
  return static_cast<uint32_t>(HashU64(key) % n_shards);
}

}  // namespace leopard
