// Shared declarations of the leobench benchmark: the workload spec parsed
// from the command line, the generated trace corpus with its reference
// verdict, the loopback pass against a leopard_serve child, and the
// in-process per-layer replays of the traced run.

#ifndef LEOBENCH_LEOBENCH_H_
#define LEOBENCH_LEOBENCH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/trace.h"
#include "verifier/config.h"

namespace leobench {

using leopard::Trace;
using leopard::TxnId;

/// SimRunner clients, which are also the wire streams of the one connection.
constexpr uint32_t kClients = 4;

/// One workload as run.py passes it (see spec.json).
struct Spec {
  std::string name;
  std::string gen;          // tpcc | smallbank | ycsb
  uint64_t txns = 0;        // SimRunner transactions per corpus
  uint64_t seed = 1;
  double stale_snapshot = 0;   // FaultPlan::stale_snapshot_prob
  double skip_certifier = 0;   // FaultPlan::skip_certifier_prob
  uint64_t ycsb_records = 0;
  double ycsb_theta = 0;
  uint32_t shards = 1;
  bool durable = false;
  uint64_t checkpoint_every = 0;  // traces between checkpoints
  double rate = 0;                // offered traces/s; 0 = closed loop
  bool faulty() const { return stale_snapshot > 0 || skip_certifier > 0; }
};

/// Violation counts by mechanism, indexed by leopard::BugType.
using Counts = std::array<uint64_t, 4>;

/// The generated traces in push order (global ts_bef merge of the client
/// streams) plus the reference verdict computed in-process.
struct Corpus {
  std::vector<Trace> traces;      // push order
  std::vector<uint32_t> stream;   // stream of traces[i]
  /// Positions in `traces` of each transaction's traces, ascending.
  std::unordered_map<TxnId, std::vector<uint32_t>> txn_positions;
  uint64_t ref_verified = 0;
  Counts ref_violations{};
  leopard::VerifierConfig config;
};

/// Generates the corpus from the spec's seed (MiniDB SimRunner).
Corpus Generate(const Spec& spec);
/// Computes the reference verdict: TwoLevelPipeline + Leopard in-process.
void ComputeReference(Corpus& corpus);

/// Paths of the child server and the run's scratch directory.
struct Env {
  std::string serve_bin;
  std::string scratch;
};

/// Forks the helper process that starts every leopard_serve child, so a
/// child's wait4() peak RSS is its own (see loopback.cc). Call first, while
/// the process is small and has no threads. StopLauncher kills and reaps any
/// child still running and waits for the helper.
bool StartLauncher();
void StopLauncher();

/// A leopard_serve child process (loopback.cc); deleting it kills and reaps
/// it if it is still running.
class Child;
struct ChildDeleter {
  void operator()(Child* child) const;
};

/// What one loopback pass measured.
struct PassResult {
  bool ok = false;          // verdict matched, BYE complete, server exited
  std::string error;        // why not ok
  uint64_t pushed = 0;
  uint64_t verified = 0;    // from the BYE
  double seconds = 0;       // first Push -> kBye received
  double start_s = 0;       // server spawn -> port file written
  double rss_mb = 0;        // ru_maxrss of the child
  std::vector<double> detect_ms;  // violation (or ack) latencies
  uint64_t tail_samples = 0;      // detect samples first seen in Finish()
  Counts client_counts{};   // kViolation frames received, by type
  // Reported by the traced run.
  double push_ns = 0;       // inside VerifierClient::Push, per trace
  double finish_ms = 0;     // Finish() -> kBye
  double lag_p99_ms = 0;    // generator lag behind schedule (traced only)
  /// The child, still exiting after its BYE, until SettlePass reaps it.
  std::unique_ptr<Child, ChildDeleter> child;
  std::string dir;          // the pass's scratch subdirectory
};

/// Starts a fresh leopard_serve, pushes the whole corpus over one loopback
/// connection and waits for the BYE. `pass_id` names the pass's scratch
/// subdirectory. The child is left to exit on its own (it takes up to a
/// second after its BYE), so the next pass can start meanwhile.
PassResult RunPass(const Spec& spec, const Corpus& corpus, const Env& env,
                   int pass_id, bool traced);
/// Reaps the pass's child (peak RSS from wait4), killing it when it does not
/// exit, and checks the verdict against the reference: traces verified and
/// violations by type, as the server reports and as the client received.
void SettlePass(const Corpus& corpus, PassResult& pass);

/// Per-layer figures of one in-process replay round (traced run).
struct LayerRound {
  double encode_ns = 0, decode_ns = 0, wire_bytes = 0;
  double append_ns = 0, sync_us = 0, wal_bytes = 0, batch_traces = 0;
  double checkpoint_ms = 0, checkpoint_mb = 0;
  double pipe_push_ns = 0, pipe_dispatch_ns = 0, pipe_max_buffered = 0;
  double online_push_ns = 0, online_drain_ms = 0;
  double process_ns = 0, verifier_finish_ms = 0, state_mb = 0;
  uint64_t deps_deduced = 0, uncertain = 0, gc_sweeps = 0,
           pruned_versions = 0, violations = 0;
  double route_ns = 0, sharded_finish_ms = 0, speedup = 0;
  bool ok = true;
  std::string error;
};

LayerRound RunLayers(const Spec& spec, const Corpus& corpus, const Env& env,
                     int round_id);

double NowSeconds();
/// Quantile by linear interpolation (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
/// Mean of the middle half of the sample (a quarter dropped at each end);
/// 0 for an empty sample.
double MidMean(std::vector<double> v);
/// Removes `path` recursively; true when nothing is left behind.
bool RemoveTree(const std::string& path);

}  // namespace leobench

#endif  // LEOBENCH_LEOBENCH_H_
