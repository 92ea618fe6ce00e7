// Component microbenchmarks (google-benchmark): per-trace costs of the
// two-level pipeline, the mechanism-mirrored verifier, incremental cycle
// detection and candidate-version-set computation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/flat_hash_map.h"
#include "common/slab_map.h"
#include "verifier/dependency_graph.h"
#include "verifier/version_order.h"
#include "workload/blindw.h"

namespace leopard {
namespace {

const RunResult& SharedRun() {
  static const RunResult& run = *new RunResult([] {
    BlindWWorkload::Options wo;
    wo.variant = BlindWVariant::kReadWriteRange;
    BlindWWorkload workload(wo);
    return bench::CollectTraces(&workload, Protocol::kMvcc2plSsi,
                                IsolationLevel::kSerializable,
                                /*txns=*/4000, /*clients=*/16, /*seed=*/3);
  }());
  return run;
}

void BM_PipelineDispatch(benchmark::State& state) {
  const RunResult& run = SharedRun();
  for (auto _ : state) {
    TwoLevelPipeline pipeline(
        static_cast<uint32_t>(run.client_traces.size()));
    uint64_t n = 0;
    for (ClientId c = 0; c < run.client_traces.size(); ++c) {
      for (const auto& t : run.client_traces[c]) pipeline.Push(c, Trace(t));
      pipeline.Close(c);
    }
    while (pipeline.Dispatch()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(run.TotalTraces()));
}
BENCHMARK(BM_PipelineDispatch);

/// One wire batch as a server's reader admits it: up to 256 traces of one
/// stream, in that stream's push order.
struct StreamBatch {
  ClientId stream = 0;
  std::vector<Trace> traces;
};

/// The batches a client sends when it pushes a 4-client run's traces in
/// merged ts_bef order over 4 streams, 256 traces per stream batch, each
/// stream's remainder flushed at the end. Streams are pipeline clients
/// 1-4; client 0 is the server's gate stream.
const std::vector<StreamBatch>& StreamedBatches() {
  static const std::vector<StreamBatch>& batches =
      *new std::vector<StreamBatch>([] {
        constexpr uint32_t kStreams = 4;
        constexpr size_t kBatchTraces = 256;
        BlindWWorkload::Options wo;
        wo.variant = BlindWVariant::kReadWriteRange;
        BlindWWorkload workload(wo);
        const RunResult run = bench::CollectTraces(
            &workload, Protocol::kMvcc2plSsi, IsolationLevel::kSerializable,
            /*txns=*/8000, /*clients=*/kStreams, /*seed=*/3);
        std::vector<std::pair<const Trace*, ClientId>> merged;
        for (ClientId c = 0; c < kStreams; ++c) {
          for (const Trace& t : run.client_traces[c]) merged.push_back({&t, c});
        }
        std::stable_sort(merged.begin(), merged.end(),
                         [](const auto& a, const auto& b) {
                           return a.first->ts_bef() < b.first->ts_bef();
                         });
        std::vector<StreamBatch> out;
        std::vector<std::vector<Trace>> pending(kStreams);
        auto flush = [&](ClientId c) {
          out.push_back({c + 1, std::move(pending[c])});
          pending[c].clear();
        };
        for (const auto& [trace, c] : merged) {
          pending[c].push_back(*trace);
          if (pending[c].size() == kBatchTraces) flush(c);
        }
        for (ClientId c = 0; c < kStreams; ++c) {
          if (!pending[c].empty()) flush(c);
        }
        return out;
      }());
  return batches;
}

// The server's shape: the reader pushes one stream batch, then the
// dispatcher drains whatever the watermark releases. Trace copies and
// destruction stay outside the timing, so this is the dispatcher's merge
// cost plus the moves in and out, per trace.
void BM_PipelineDispatchStreamed(benchmark::State& state) {
  const std::vector<StreamBatch>& batches = StreamedBatches();
  size_t traces = 0;
  for (const StreamBatch& b : batches) traces += b.traces.size();
  std::vector<Trace> out;
  out.reserve(traces);
  for (auto _ : state) {
    state.PauseTiming();
    out.clear();
    std::vector<StreamBatch> copy(batches);
    TwoLevelPipeline pipeline(5);
    pipeline.Close(0);  // the gate stream, closed once all sessions joined
    state.ResumeTiming();
    for (StreamBatch& b : copy) {
      for (Trace& t : b.traces) pipeline.Push(b.stream, std::move(t));
      pipeline.DispatchInto(out);
    }
    for (ClientId c = 1; c < 5; ++c) pipeline.Close(c);
    pipeline.DispatchInto(out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(traces));
}
BENCHMARK(BM_PipelineDispatchStreamed);

void BM_LeopardVerify(benchmark::State& state) {
  const RunResult& run = SharedRun();
  auto traces = run.MergedTraces();
  auto config = ConfigForMiniDb(Protocol::kMvcc2plSsi,
                                IsolationLevel::kSerializable);
  for (auto _ : state) {
    Leopard verifier(config);
    for (const auto& t : traces) verifier.Process(t);
    verifier.Finish();
    benchmark::DoNotOptimize(verifier.stats().deps_deduced);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(traces.size()));
}
BENCHMARK(BM_LeopardVerify);

void BM_PkEdgeInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    DependencyGraph graph(CertifierMode::kCycle);
    for (TxnId i = 1; i <= static_cast<TxnId>(n); ++i) {
      DependencyGraph::NodeInfo info;
      info.first_op = {static_cast<Timestamp>(i * 10),
                       static_cast<Timestamp>(i * 10 + 1)};
      info.end = {static_cast<Timestamp>(i * 10 + 2),
                  static_cast<Timestamp>(i * 10 + 3)};
      graph.AddNode(i, info);
      if (i > 1) {
        benchmark::DoNotOptimize(graph.AddEdge(i - 1, i, DepType::kWw));
      }
      if (i > 2 && i % 3 == 0) {
        // Back edges exercise the Pearce-Kelly reordering path.
        benchmark::DoNotOptimize(graph.AddEdge(i, i - 2, DepType::kRw));
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_PkEdgeInsert)->Arg(1000)->Arg(10000);

// Regression guard for the kFullDfs scratch reuse: repeated from-scratch
// cycle searches over a static graph must not allocate per-search colour
// maps — the per-search cost is the traversal alone.
void BM_FullDfsSearch(benchmark::State& state) {
  const int64_t n = state.range(0);
  DependencyGraph graph(CertifierMode::kFullDfs);
  for (TxnId i = 1; i <= static_cast<TxnId>(n); ++i) {
    DependencyGraph::NodeInfo info;
    info.first_op = {static_cast<Timestamp>(i * 10),
                     static_cast<Timestamp>(i * 10 + 1)};
    info.end = {static_cast<Timestamp>(i * 10 + 2),
                static_cast<Timestamp>(i * 10 + 3)};
    graph.AddNode(i, info);
    if (i > 1) graph.AddEdge(i - 1, i, DepType::kWw);
    if (i > 4 && i % 4 == 0) graph.AddEdge(i - 4, i, DepType::kRw);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.FullCycleSearch());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_FullDfsSearch)->Arg(500)->Arg(2000);

// PruneGarbage watermark early-out: every call but the sweeps themselves
// must return without touching a node, because safe_ts sits below the
// min-end watermark of the surviving nodes.
void BM_PruneGarbageEarlyOut(benchmark::State& state) {
  DependencyGraph graph(CertifierMode::kCycle);
  for (TxnId i = 1; i <= 4096; ++i) {
    DependencyGraph::NodeInfo info;
    info.first_op = {static_cast<Timestamp>(i * 10),
                     static_cast<Timestamp>(i * 10 + 1)};
    info.end = {static_cast<Timestamp>(i * 10 + 2),
                static_cast<Timestamp>(i * 10 + 3)};
    graph.AddNode(i, info);
    if (i > 1) graph.AddEdge(i - 1, i, DepType::kWw);
  }
  for (auto _ : state) {
    // Below every node's end.aft: the watermark rejects it in O(1).
    benchmark::DoNotOptimize(graph.PruneGarbage(5));
  }
}
BENCHMARK(BM_PruneGarbageEarlyOut);

// Mixed insert/find/erase churn on the open-addressing table, the access
// pattern of the mirrored-state maps (keys are splitmix-hashed, so
// sequential ids don't cluster).
void BM_FlatHashMapChurn(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    FlatHashMap<uint64_t, uint64_t> map;
    for (int64_t i = 0; i < n; ++i) {
      map[static_cast<uint64_t>(i)] = static_cast<uint64_t>(i * 3);
      if (i >= 64) map.erase(static_cast<uint64_t>(i - 64));
    }
    uint64_t sum = 0;
    for (const auto& slot : map) sum += slot.second;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_FlatHashMapChurn)->Arg(4096)->Arg(65536);

// The same churn through a SlabMap with a deliberately large value type:
// displacement and rehash shuffle 12-byte index entries, never the values.
void BM_SlabMapChurn(benchmark::State& state) {
  struct Big {
    uint64_t payload[32] = {0};
  };
  const int64_t n = state.range(0);
  for (auto _ : state) {
    SlabMap<uint64_t, Big> map;
    for (int64_t i = 0; i < n; ++i) {
      map[static_cast<uint64_t>(i)].payload[0] = static_cast<uint64_t>(i);
      if (i >= 64) map.erase(static_cast<uint64_t>(i - 64));
    }
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SlabMapChurn)->Arg(4096)->Arg(65536);

// Install/prune cycle of the version index under a skewed multi-version
// key set: exercises the multi-version candidate set that keeps Prune
// O(contended keys).
void BM_VersionIndexInstallPrune(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    VersionOrderIndex index;
    for (int64_t i = 0; i < n; ++i) {
      Key key = static_cast<Key>(i % 512);
      Timestamp at = static_cast<Timestamp>(10 + i * 4);
      auto res = index.Install(key, static_cast<Value>(i),
                               static_cast<TxnId>(i + 1), {at, at + 2});
      auto* list = index.Get(key);
      (*list)[res.index].status = WriterStatus::kCommitted;
      (*list)[res.index].writer_commit = {at + 1, at + 3};
      if (i > 0 && i % 2048 == 0) {
        benchmark::DoNotOptimize(
            index.Prune(static_cast<Timestamp>(i * 4 - 4000)));
      }
    }
    benchmark::DoNotOptimize(index.VersionCount());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_VersionIndexInstallPrune)->Arg(32768);

void BM_CandidateSet(benchmark::State& state) {
  VersionOrderIndex index;
  for (int i = 0; i < 64; ++i) {
    Timestamp at = static_cast<Timestamp>(10 + i * 10);
    index.Install(1, 1000 + i, i + 1, {at, at + 2});
    auto* list = index.Get(1);
    list->back().status = WriterStatus::kCommitted;
    list->back().writer_commit = {at + 3, at + 4};
  }
  TimeInterval snapshot{500, 505};
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Candidates(1, snapshot));
  }
}
BENCHMARK(BM_CandidateSet);

}  // namespace
}  // namespace leopard

BENCHMARK_MAIN();
