#ifndef LEOPARD_PIPELINE_TWO_LEVEL_PIPELINE_H_
#define LEOPARD_PIPELINE_TWO_LEVEL_PIPELINE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <queue>
#include <vector>

#include "common/state_codec.h"
#include "obs/registry.h"
#include "trace/trace.h"

namespace leopard {

/// The paper's two-level pipeline (§IV-C): per-client *local buffers* absorb
/// each client's naturally-ordered trace stream; a *global buffer* merges
/// them in ts_bef order; a *watermark* — the smallest unfetched ts_bef across
/// local buffers — bounds what may be dispatched, guaranteeing monotonically
/// increasing dispatch order (Theorem 1).
///
/// The global buffer is not a container of its own. A fetch round marks a
/// prefix of one local buffer (or, unoptimized, of all of them) as
/// *fetched*, and the global buffer is the union of those fetched prefixes.
/// Each prefix is sorted already, so dispatch merges the prefix heads — a
/// min-heap holding one (ts_bef, client) key per client with fetched traces
/// — and every trace is moved exactly twice: into its local buffer at Push,
/// out to the caller at dispatch.
///
/// Ties: traces with equal ts_bef leave in push order within a client, and
/// in client-index order across the clients whose traces are fetched.
///
/// Producer side: Push(client, trace) in ts_bef order per client, then
/// Close(client) at end of stream. Consumer side: DispatchInto() appends
/// every trace the watermark releases; Dispatch() returns just the next one,
/// or nullopt when the pipeline is starved (an open local buffer is empty,
/// so the watermark cannot advance). Both run the same merge.
///
/// With Options::optimized (default), each round fetches only from the local
/// buffer with the smallest unfetched timestamp — the §IV-C optimization
/// that keeps the global buffer small when clients progress unevenly. The
/// unoptimized mode ("w/o Opt" in Fig. 10) fetches every local buffer
/// wholesale each round, letting traces from fast clients pile up in the
/// global buffer.
class TwoLevelPipeline {
 public:
  struct Options {
    bool optimized = true;
    /// Max traces pulled from one local buffer per fetch in optimized mode.
    size_t fetch_batch = 256;
  };

  struct Stats {
    uint64_t dispatched = 0;
    uint64_t rounds = 0;           ///< fetch rounds executed
    size_t max_global_heap = 0;    ///< peak traces in the global buffer
    size_t max_global_bytes = 0;   ///< peak approximate bytes in the global
                                   ///< buffer — the verifier-side memory of
                                   ///< Fig. 10 (local buffers live
                                   ///< client-side)
    size_t max_buffered = 0;       ///< peak traces buffered (global + locals)
    size_t max_buffered_bytes = 0; ///< peak approximate bytes buffered
  };

  explicit TwoLevelPipeline(uint32_t n_clients)
      : TwoLevelPipeline(n_clients, Options()) {}
  TwoLevelPipeline(uint32_t n_clients, Options options);

  /// Appends a trace from `client`. Traces from one client must arrive in
  /// non-decreasing ts_bef order (and, for clients registered mid-run with
  /// AddClient, never below the dispatch floor they were admitted at).
  void Push(ClientId client, Trace trace);

  /// Marks `client`'s stream as ended; its emptiness no longer stalls the
  /// watermark.
  void Close(ClientId client);

  /// Registers a new client stream while the pipeline is running — the
  /// online-ingestion case where sessions join after dispatch has started.
  /// The new client is admitted at the current dispatch floor: its traces
  /// must carry ts_bef >= dispatch_floor() as observed at registration,
  /// otherwise monotonic dispatch order (Theorem 1) could not be preserved.
  /// Callers admitting untrusted streams must validate that bound
  /// themselves before Push.
  ClientId AddClient();

  /// Re-admits a previously Close()d client stream — the reconnect case
  /// where a session resumes the same client id mid-run. Returns the
  /// stream's new floor: max(its last pushed ts_bef, the dispatch floor),
  /// the oldest ts_bef the resumed stream may still legally push without
  /// breaking Theorem 1. The client must already be closed.
  Timestamp Reopen(ClientId client);

  /// Largest ts_bef dispatched so far — the lower bound on what a client
  /// registered now may still push.
  Timestamp dispatch_floor() const { return max_dispatched_; }

  /// Next trace in global ts_bef order, or nullopt when starved. After all
  /// clients are closed, drains everything.
  std::optional<Trace> Dispatch();

  /// Appends every trace dispatchable now to `out`, in the order repeated
  /// Dispatch() calls would return them, and returns how many it appended.
  /// Neither call recomputes the watermark per trace: only after a push,
  /// close, registration or fetch round that may have moved it.
  size_t DispatchInto(std::vector<Trace>& out);

  /// True when every client is closed and all traces have been dispatched.
  bool Exhausted() const;

  const Stats& stats() const { return stats_; }
  /// Approximate bytes of all buffered (undispatched) traces, global buffer
  /// and locals. The durable server uses it to re-seed ingress backpressure
  /// accounting after a resume.
  size_t buffered_bytes() const { return buffered_bytes_; }

  /// Checkpoint hooks (src/durable): serialize / restore the whole buffer
  /// state — local buffers with their fetched counts, closed flags,
  /// per-client floors, the dispatch floor and the statistics; the
  /// watermark and byte accounting are rebuilt from them. Buffered traces
  /// are encoded with the trace_io record codec, same as the WAL.
  void SaveState(StateWriter& w) const;
  Status LoadState(StateReader& r);

  /// Attaches observability: a pipeline.dispatch_ns histogram (time per
  /// Dispatch or DispatchInto call that handed out at least one trace,
  /// including its fetch rounds), a pipeline.dispatched counter (traces),
  /// and a pipeline.queue_depth gauge tracking buffered traces (global
  /// buffer + locals) with its high-water mark. The gauge is atomic, so a
  /// progress reporter may read it while a verifier thread drives the
  /// pipeline. Dispatch timing is sampled — one call in `span_sample_every`
  /// reads the clock (pass 1 to time every call); counter and gauge are
  /// always exact. The registry must outlive the pipeline; nullptr
  /// detaches.
  void AttachMetrics(obs::MetricsRegistry* registry,
                     uint32_t span_sample_every = 16);

 private:
  /// One client's local buffer. Its first `fetched` traces belong to the
  /// global buffer; the rest wait for a fetch round.
  struct Local {
    std::deque<Trace> traces;
    size_t fetched = 0;
    Timestamp last_pushed = 0;
    bool closed = false;
  };
  /// Merge key of a client with fetched traces: its head's ts_bef.
  struct Head {
    Timestamp ts_bef = 0;
    ClientId client = 0;
    bool operator>(const Head& o) const {
      return ts_bef != o.ts_bef ? ts_bef > o.ts_bef : client > o.client;
    }
  };

  /// Recomputes the watermark and clears watermark_stale_. The watermark is
  /// the smallest lower bound on any trace that can still arrive or waits
  /// unfetched in a local buffer. A buffer with unfetched traces
  /// contributes the first one's ts_bef; an open buffer with none
  /// contributes the client's last pushed ts_bef (future pushes are
  /// non-decreasing); a closed one contributes nothing.
  void UpdateWatermark();
  /// Fetches at least one trace into the global buffer; returns false when
  /// no local buffer has an unfetched trace.
  bool FetchRound();
  /// Marks up to `max` more of `client`'s traces fetched; returns how many.
  size_t Fetch(ClientId client, size_t max);
  /// The merge behind Dispatch and DispatchInto: moves up to `limit`
  /// traces into `sink` in (ts_bef, client) order, running a fetch round
  /// whenever the smallest head is above the watermark. Returns how many.
  template <typename Sink>
  size_t Merge(size_t limit, Sink&& sink);
  void NoteBuffered();

  Options options_;
  std::vector<Local> locals_;
  std::vector<Head> heads_;  // min-heap, one entry per client with fetched
  Timestamp watermark_ = 0;
  bool watermark_stale_ = true;  // set by whatever may move the watermark
  Timestamp max_dispatched_ = 0;
  size_t buffered_traces_ = 0;
  size_t buffered_bytes_ = 0;
  size_t global_traces_ = 0;
  size_t global_bytes_ = 0;
  Stats stats_;

  obs::Histogram* dispatch_ns_ = nullptr;
  obs::Counter* dispatched_ctr_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
  uint32_t span_sample_every_ = 16;
  uint32_t span_tick_ = 0;
};

/// Baseline for Fig. 10: one big global min-heap with no local buffering —
/// every trace from every client goes straight into a heap of the entire
/// backlog, and nothing can be dispatched before all input has arrived
/// (there is no watermark to certify completeness).
class NaiveSorter {
 public:
  void Push(ClientId client, Trace trace);

  /// Drains all traces in ts_bef order. Call after all pushes.
  std::vector<Trace> DrainSorted();

  size_t max_buffered() const { return max_buffered_; }
  size_t max_buffered_bytes() const { return max_buffered_bytes_; }

 private:
  struct ByTsBef {
    bool operator()(const Trace& a, const Trace& b) const {
      return a.ts_bef() > b.ts_bef();
    }
  };
  std::priority_queue<Trace, std::vector<Trace>, ByTsBef> heap_;
  size_t max_buffered_ = 0;
  size_t buffered_bytes_ = 0;
  size_t max_buffered_bytes_ = 0;
};

}  // namespace leopard

#endif  // LEOPARD_PIPELINE_TWO_LEVEL_PIPELINE_H_
