#ifndef LEOPARD_HARNESS_ONLINE_VERIFIER_H_
#define LEOPARD_HARNESS_ONLINE_VERIFIER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/progress.h"
#include "obs/registry.h"
#include "pipeline/two_level_pipeline.h"
#include "verifier/leopard.h"
#include "verifier/sharded_leopard.h"

namespace leopard {

/// The paper's deployment mode: verification runs *while* the workload
/// executes. Client threads push traces as they produce them; a dedicated
/// dispatcher thread drains the two-level pipeline and feeds the
/// verification engine, so violations surface moments after the offending
/// operations commit.
///
/// The engine is a ShardedLeopard: with n_shards == 1 (the default) it is
/// exactly the single-threaded Leopard; with more shards the dispatcher
/// thread only routes traces while N shard workers and a certifier thread
/// do the verification in parallel.
///
/// Thread-safety: Push/Close may be called concurrently from any number of
/// producer threads; Close is idempotent per client. The dispatcher thread
/// owns dispatch and the engine. Producers never wait on verification: the
/// dispatcher drains dispatchable traces into a local batch and verifies
/// them *outside* the producer mutex.
///
/// With ObsOptions the verifier instruments itself into a MetricsRegistry
/// (per-mechanism latency histograms, pipeline queue depth, per-shard
/// metrics when sharded) and can run a background progress reporter
/// emitting throughput, queue depth, the uncertain-dependency ratio β and
/// violation counts at a configurable interval — all from atomics, never
/// contending with the verifier thread.
class OnlineVerifier {
 public:
  struct ObsOptions {
    /// Not owned; must outlive the OnlineVerifier. nullptr disables all
    /// instrumentation.
    obs::MetricsRegistry* metrics = nullptr;
    /// 0 disables the background progress reporter.
    uint64_t progress_interval_ms = 0;
    /// Print a human-readable progress line on each reporter tick.
    bool print_progress = true;
    /// One trace in N pays for latency-span clock reads (1 = time all).
    uint32_t span_sample_every = 16;
    /// Optional state-transition journal, forwarded to the engine.
    obs::EventJournal* events = nullptr;
    /// Optional heartbeat watchdog: the dispatcher registers as
    /// "dispatcher"; shard workers and the certifier register via the
    /// engine (see ShardedLeopard::Options).
    obs::Watchdog* watchdog = nullptr;
  };

  struct Options {
    /// Verification shards (see ShardedLeopard). 1 = single-threaded engine.
    uint32_t n_shards = 1;
    /// Worker threads draining the shard queues (0 = one per shard); see
    /// ShardedLeopard::Options::n_workers.
    uint32_t n_workers = 0;
    /// Skew-adaptive hot-key rebalancing between shards; see
    /// ShardedLeopard::Options::enable_rebalance.
    bool enable_rebalance = false;
    ObsOptions obs;
    /// Allow AddClient() after construction (online ingestion: sessions
    /// join while verification runs). The run then finishes only after
    /// SealClients() — otherwise a moment with zero open clients (one
    /// session gone, the next not yet connected) would end it prematurely.
    bool dynamic_clients = false;
    /// Invoked from the dispatcher thread as violations surface: after each
    /// verified batch with a single-shard engine (so reports trail the
    /// offending trace by at most one batch), and during the final drain
    /// for bugs that only aggregate at Finish (sharded workers, certifier).
    /// Every bug is delivered exactly once, always before WaitReport()
    /// returns. Must not call back into this OnlineVerifier.
    std::function<void(const BugDescriptor&)> on_bug;
  };

  OnlineVerifier(uint32_t n_clients, const VerifierConfig& config);
  OnlineVerifier(uint32_t n_clients, const VerifierConfig& config,
                 const ObsOptions& obs_options);
  OnlineVerifier(uint32_t n_clients, const VerifierConfig& config,
                 const Options& options);
  ~OnlineVerifier();
  OnlineVerifier(const OnlineVerifier&) = delete;
  OnlineVerifier& operator=(const OnlineVerifier&) = delete;

  /// Appends a trace from `client` (ts_bef non-decreasing per client).
  void Push(ClientId client, Trace trace);

  /// Appends a batch of `client`'s traces, in order, under one lock and
  /// one dispatcher wake-up — what a network reader uses per frame.
  void PushBatch(ClientId client, std::vector<Trace> traces);

  /// Marks `client`'s stream as finished. Idempotent: duplicate closes of
  /// the same client are ignored, so a retried shutdown path cannot end the
  /// run while another client is still open.
  void Close(ClientId client);

  /// A client stream registered mid-run (Options::dynamic_clients only).
  /// `floor` is the dispatch floor it was admitted at: its traces must
  /// carry ts_bef >= floor, a bound the caller must enforce on untrusted
  /// streams before Push (the pipeline asserts it in debug builds).
  struct AddedClient {
    ClientId id = 0;
    Timestamp floor = 0;
  };

  /// Registers a new client stream while verification runs. Thread-safe.
  /// Fails with FailedPrecondition when the verifier is not dynamic or has
  /// already been sealed — a late registration after SealClients() must be
  /// rejected (the run may already be draining), never applied: in release
  /// builds it would silently mutate pipeline state mid-finish. Callers
  /// (VerifierServer) surface the failure to the session as a kError frame.
  StatusOr<AddedClient> AddClient();

  /// Re-opens a previously Close()d client stream — the reconnect case: a
  /// session that disconnected mid-run resumes the same client id instead
  /// of registering a fresh one. The returned floor is the oldest ts_bef
  /// the resumed stream may still push: max(its last pushed ts_bef, the
  /// dispatch floor). Fails with FailedPrecondition when the verifier is
  /// not dynamic, already sealed, or the client is still open, and with
  /// InvalidArgument for an unknown client id. Thread-safe.
  StatusOr<AddedClient> ReopenClient(ClientId client);

  /// Declares that no further AddClient() calls will come, letting the run
  /// finish once every registered client is closed and drained. Idempotent;
  /// implicit for non-dynamic verifiers.
  void SealClients();

  /// Blocks until all pushed traces are verified (all clients must have
  /// been closed), then returns the final verifier. Single-shard only —
  /// sharded runs have no one Leopard to return; use WaitReport().
  const Leopard& Wait();

  /// Blocks until all pushed traces are verified, then returns the
  /// aggregated report (works for any shard count).
  const VerifyReport& WaitReport();

  /// Traces handed to the engine so far, counted once per dispatched batch
  /// after the engine took all of it (in sharded mode a routed trace may
  /// still be in flight to its shard). Lock-free: safe to poll at any rate
  /// without contending with the verifier thread.
  uint64_t verified_count() const {
    return verified_.load(std::memory_order_relaxed);
  }
  bool verified_count_is_lock_free() const { return verified_.is_lock_free(); }

  /// Approximate bytes of trace payload handed to the engine so far (the
  /// ApproxBytes() sum of verified traces, counted like verified_count()).
  /// Producers pushing decoded network frames use pushed-bytes minus this
  /// as the in-flight bound for backpressure. Lock-free.
  uint64_t verified_bytes() const {
    return verified_bytes_.load(std::memory_order_relaxed);
  }

  /// Approximate bytes of traces pushed but not yet verified (buffered in
  /// the pipeline). The durable server re-seeds its backpressure accounting
  /// from verified_bytes() + this after a resume.
  uint64_t ApproxBufferedBytes() const;

  /// Registered client streams so far, closed ones included. Thread-safe.
  /// WAL replay uses this as the idempotence base: a logged registration
  /// below it is already part of the restored checkpoint.
  uint32_t client_count() const;

  /// Checkpoint hooks (src/durable). SaveState parks the dispatcher at a
  /// quiescent point — every dispatched trace fully verified, nothing in
  /// flight between pipeline and engine — quiesces the sharded engine, and
  /// serializes client state, the pipeline's buffered traces and the full
  /// engine state. Producers calling Push() concurrently simply block on
  /// the internal mutex for the duration. Fails with FailedPrecondition
  /// when the run is already draining or finished (there is nothing left
  /// worth checkpointing — the final report is authoritative).
  ///
  /// LoadState uses the same handshake and replaces the verifier's state
  /// wholesale; call it before any traffic, on a verifier constructed with
  /// the same VerifierConfig and shard count as the saver.
  Status SaveState(StateWriter& w);
  Status LoadState(StateReader& r);

 private:
  void Loop();
  void WaitFinished();
  void DeliverNewBugs(const std::vector<BugDescriptor>& bugs);
  obs::ProgressSnapshot SampleProgress() const;

  mutable std::mutex mu_;
  std::condition_variable producer_cv_;  // signals: new input available
  std::condition_variable done_cv_;      // signals: verification finished
  TwoLevelPipeline pipeline_;
  ShardedLeopard engine_;
  std::atomic<uint64_t> verified_{0};
  std::atomic<uint64_t> verified_bytes_{0};
  uint32_t n_clients_;
  uint32_t open_clients_;
  std::vector<uint8_t> client_closed_;  // guarded by mu_
  bool sealed_ = true;                  // guarded by mu_
  bool finished_ = false;
  /// Checkpoint safepoint handshake (all guarded by mu_): SaveState sets
  /// ckpt_requested_ and waits on ckpt_cv_; the dispatcher parks at its
  /// loop top (ckpt_parked_) until the request clears. draining_ marks the
  /// window where the dispatcher has committed to the final drain (between
  /// its loop exit and finished_) — a checkpoint can no longer be taken.
  bool ckpt_requested_ = false;
  bool ckpt_parked_ = false;
  bool draining_ = false;
  std::condition_variable ckpt_cv_;
  std::function<void(const BugDescriptor&)> on_bug_;  // dispatcher thread only
  size_t bugs_delivered_ = 0;                         // dispatcher thread only
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned
  obs::Watchdog* watchdog_ = nullptr;        // not owned
  std::thread worker_;
  std::unique_ptr<obs::ProgressReporter> reporter_;
};

}  // namespace leopard

#endif  // LEOPARD_HARNESS_ONLINE_VERIFIER_H_
