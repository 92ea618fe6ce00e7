// In-process per-layer replays of the traced run. Each replay calls one
// module's public functions on the corpus and reads the clock once per
// batch of calls, never per trace; nothing inside src/ is instrumented.

#include <sys/stat.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "durable/checkpoint.h"
#include "durable/wal.h"
#include "harness/online_verifier.h"
#include "leobench.h"
#include "net/client.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "pipeline/two_level_pipeline.h"
#include "verifier/leopard.h"
#include "verifier/sharded_leopard.h"
#include "verifier/state_serde.h"

namespace leobench {

using namespace leopard;

namespace {

/// Calls timed together between two clock reads.
constexpr size_t kBatch = 256;
/// Verifier memory is sampled every this many traces (outside the timing).
constexpr size_t kMemEvery = 4096;

/// The client's wire batches: per-stream groups of batch_traces in push
/// order, each stream's remainder flushed at the end.
struct WireBatch {
  uint32_t stream = 0;
  std::vector<Trace> traces;
};

std::vector<WireBatch> ClientBatches(const Corpus& corpus) {
  const size_t batch = net::VerifierClient::Options().batch_traces;
  std::vector<WireBatch> out;
  std::vector<std::vector<Trace>> pending(kClients);
  for (size_t i = 0; i < corpus.traces.size(); ++i) {
    const uint32_t s = corpus.stream[i];
    pending[s].push_back(corpus.traces[i]);
    if (pending[s].size() == batch) {
      out.push_back({s, std::move(pending[s])});
      pending[s].clear();
    }
  }
  for (uint32_t s = 0; s < kClients; ++s) {
    if (!pending[s].empty()) out.push_back({s, std::move(pending[s])});
  }
  return out;
}

double Ns(uint64_t a, uint64_t b) { return static_cast<double>(b - a); }

void Fail(LayerRound& L, std::string why) {
  L.ok = false;
  L.error = std::move(why);
}


/// src/net wire: EncodeBatch + EncodeFrame, then FrameDecoder + DecodeBatch,
/// over the client's batches.
void Wire(const std::vector<WireBatch>& batches, double n, LayerRound& L) {
  std::vector<std::string> frames;
  frames.reserve(batches.size());
  uint64_t t = obs::NowNs();
  for (const WireBatch& b : batches) {
    frames.push_back(net::EncodeFrame(
        net::FrameType::kBatch, net::EncodeBatch(b.stream, b.traces, t)));
  }
  L.encode_ns = Ns(t, obs::NowNs()) / n;
  double bytes = 0;
  for (const std::string& f : frames) bytes += f.size();
  L.wire_bytes = bytes / n;
  net::FrameDecoder decoder;
  double decoded = 0;
  t = obs::NowNs();
  for (const std::string& f : frames) {
    decoder.Feed(f.data(), f.size());
    net::Frame frame;
    while (decoder.Poll(frame).ok()) {
      auto msg = net::DecodeBatch(frame.payload);
      if (!msg.ok()) break;
      decoded += msg->traces.size();
    }
  }
  L.decode_ns = Ns(t, obs::NowNs()) / n;
  if (decoded != n) Fail(L, "wire round trip lost traces");
}

/// src/durable WAL: AppendTrace per trace and Sync per client batch.
void Wal(const std::vector<WireBatch>& batches, double n,
         const std::string& dir, LayerRound& L) {
  durable::WalWriter wal;
  Status s = wal.Open(dir, 0, durable::WalWriter::Options());
  double append = 0, sync = 0;
  for (const WireBatch& b : batches) {
    if (!s.ok()) break;
    const uint64_t t = obs::NowNs();
    for (const Trace& tr : b.traces) s = wal.AppendTrace(tr);
    const uint64_t t2 = obs::NowNs();
    if (s.ok()) s = wal.Sync();
    append += Ns(t, t2);
    sync += Ns(t2, obs::NowNs());
  }
  if (!s.ok()) Fail(L, "wal: " + s.ToString());
  L.append_ns = append / n;
  L.sync_us = sync / batches.size() / 1e3;
  L.wal_bytes = static_cast<double>(wal.bytes_appended()) / n;
  L.batch_traces = n / batches.size();
}

/// src/durable checkpoints: OnlineVerifier::SaveState + CheckpointStore::
/// Write every checkpoint_every traces, as the server's checkpointer does.
void Checkpoints(const Spec& spec, const Corpus& corpus,
                 const std::string& dir, LayerRound& L) {
  OnlineVerifier::Options vo;
  vo.n_shards = spec.shards;
  OnlineVerifier online(kClients, corpus.config, vo);
  durable::CheckpointStore store;
  Status s = store.Init(dir);
  std::vector<double> ms, mb;
  for (size_t i = 0; i < corpus.traces.size() && s.ok(); ++i) {
    online.Push(corpus.stream[i], Trace(corpus.traces[i]));
    if ((i + 1) % spec.checkpoint_every != 0) continue;
    const uint64_t t = obs::NowNs();
    std::string payload;
    StateWriter w(payload);
    s = online.SaveState(w);
    durable::CheckpointStore::Meta meta;
    meta.cut = i + 1;
    meta.config_fingerprint = serde::ConfigFingerprint(corpus.config);
    meta.n_shards = spec.shards;
    if (s.ok()) s = store.Write(meta, payload);
    ms.push_back(Ns(t, obs::NowNs()) / 1e6);
    mb.push_back(payload.size() / (1024.0 * 1024.0));
  }
  for (uint32_t c = 0; c < kClients; ++c) online.Close(c);
  online.WaitReport();
  if (!s.ok()) Fail(L, "checkpoint: " + s.ToString());
  if (ms.empty()) Fail(L, "checkpoint: none taken");
  L.checkpoint_ms = Median(ms);
  L.checkpoint_mb = Median(mb);
}

/// src/pipeline: Push a client batch, then Dispatch whatever the watermark
/// releases, as the server's dispatcher does. Returns the dispatch order.
std::vector<Trace> Pipeline(const Spec& spec, const Corpus& corpus,
                            LayerRound& L) {
  const size_t n = corpus.traces.size();
  std::vector<Trace> copy(corpus.traces);
  std::vector<Trace> dispatched;
  dispatched.reserve(n);
  TwoLevelPipeline pipeline(kClients);
  double push = 0, dispatch = 0;
  auto drain = [&] {
    while (auto tr = pipeline.Dispatch()) dispatched.push_back(std::move(*tr));
  };
  for (size_t i = 0; i < n; i += kBatch) {
    const uint64_t t = obs::NowNs();
    for (size_t j = i; j < std::min(n, i + kBatch); ++j) {
      pipeline.Push(corpus.stream[j], std::move(copy[j]));
    }
    const uint64_t t2 = obs::NowNs();
    drain();
    push += Ns(t, t2);
    dispatch += Ns(t2, obs::NowNs());
  }
  const uint64_t t = obs::NowNs();
  for (uint32_t c = 0; c < kClients; ++c) pipeline.Close(c);
  drain();
  dispatch += Ns(t, obs::NowNs());
  L.pipe_push_ns = push / n;
  L.pipe_dispatch_ns = dispatch / n;
  L.pipe_max_buffered = static_cast<double>(pipeline.stats().max_buffered);
  return dispatched;
}

/// src/harness: OnlineVerifier::Push from one producer at the workload's
/// shard count, then Close of every client -> WaitReport.
void Online(const Spec& spec, const Corpus& corpus, LayerRound& L) {
  const size_t n = corpus.traces.size();
  std::vector<Trace> copy(corpus.traces);
  OnlineVerifier::Options vo;
  vo.n_shards = spec.shards;
  OnlineVerifier online(kClients, corpus.config, vo);
  double push = 0;
  for (size_t i = 0; i < n; i += kBatch) {
    const uint64_t t = obs::NowNs();
    for (size_t j = i; j < std::min(n, i + kBatch); ++j) {
      online.Push(corpus.stream[j], std::move(copy[j]));
    }
    push += Ns(t, obs::NowNs());
  }
  const uint64_t t = obs::NowNs();
  for (uint32_t c = 0; c < kClients; ++c) online.Close(c);
  const VerifyReport& report = online.WaitReport();
  L.online_drain_ms = Ns(t, obs::NowNs()) / 1e6;
  L.online_push_ns = push / n;
  if (report.stats.traces_processed != corpus.ref_verified) {
    Fail(L, "online verifier processed a different trace count");
  }
}

/// src/verifier: Leopard::Process / Finish, no registry attached.
void Verifier(const Corpus& corpus, const std::vector<Trace>& dispatched,
              LayerRound& L) {
  const size_t n = dispatched.size();
  Leopard verifier(corpus.config);
  double process = 0;
  size_t peak = 0;
  for (size_t i = 0; i < n; i += kBatch) {
    const size_t end = std::min(n, i + kBatch);
    const uint64_t t = obs::NowNs();
    for (size_t j = i; j < end; ++j) verifier.Process(dispatched[j]);
    process += Ns(t, obs::NowNs());
    if (end % kMemEvery == 0) {
      peak = std::max(peak, verifier.ApproxMemoryBytes());
    }
  }
  const uint64_t t = obs::NowNs();
  verifier.Finish();
  L.verifier_finish_ms = Ns(t, obs::NowNs()) / 1e6;
  peak = std::max(peak, verifier.ApproxMemoryBytes());
  L.process_ns = process / n;
  L.state_mb = peak / (1024.0 * 1024.0);
  const VerifierStats& s = verifier.stats();
  L.deps_deduced = s.deps_deduced;
  L.uncertain = s.UncertainTotal();
  L.gc_sweeps = s.gc_sweeps;
  L.pruned_versions = s.pruned_versions;
  L.violations = s.TotalViolations();
}

/// src/verifier sharded: ShardedLeopard::Process on the caller thread at 4
/// shards, and the 1-shard vs 4-shard wall time on the same traces.
void Sharded(const Corpus& corpus, const std::vector<Trace>& dispatched,
             LayerRound& L) {
  const size_t n = dispatched.size();
  ShardedLeopard::Options so;
  so.n_shards = 1;
  uint64_t t = obs::NowNs();
  {
    ShardedLeopard one(corpus.config, so);
    for (const Trace& tr : dispatched) one.Process(tr);
    one.Finish();
  }
  const double wall1 = Ns(t, obs::NowNs());
  so.n_shards = 4;
  ShardedLeopard four(corpus.config, so);
  double route = 0;
  const uint64_t start = obs::NowNs();
  for (size_t i = 0; i < n; i += kBatch) {
    t = obs::NowNs();
    for (size_t j = i; j < std::min(n, i + kBatch); ++j) {
      four.Process(dispatched[j]);
    }
    route += Ns(t, obs::NowNs());
  }
  t = obs::NowNs();
  four.Finish();
  const uint64_t done = obs::NowNs();
  L.sharded_finish_ms = Ns(t, done) / 1e6;
  L.route_ns = route / n;
  L.speedup = wall1 / Ns(start, done);
  if (four.report().stats.TotalViolations() != L.violations) {
    Fail(L, "4-shard verdict differs from 1-shard");
  }
}

}  // namespace

LayerRound RunLayers(const Spec& spec, const Corpus& corpus, const Env& env,
                     int round_id) {
  LayerRound L;
  const double n = static_cast<double>(corpus.traces.size());
  const std::string dir = env.scratch + "/layers" + std::to_string(round_id);
  RemoveTree(dir);
  mkdir(dir.c_str(), 0755);
  {
    const std::vector<WireBatch> batches = ClientBatches(corpus);
    Wire(batches, n, L);
    Wal(batches, n, dir + "/wal", L);
  }
  Checkpoints(spec, corpus, dir + "/ckpt", L);
  RemoveTree(dir);
  const std::vector<Trace> dispatched = Pipeline(spec, corpus, L);
  Online(spec, corpus, L);
  Verifier(corpus, dispatched, L);
  Sharded(corpus, dispatched, L);
  return L;
}

}  // namespace leobench
