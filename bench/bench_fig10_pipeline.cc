// Reproduces paper Fig. 10: two-level pipeline vs the naive global sorter
// vs the pipeline without the §IV-C optimizations — peak buffered memory
// (a) and dispatch time (b) as the transaction scale grows, on TPC-C,
// SmallBank and BlindW-RW+.

#include <cstdio>
#include <functional>
#include <memory>

#include "bench_util.h"
#include "workload/blindw.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"

using namespace leopard;
using namespace leopard::bench;

namespace {

struct SorterResult {
  double seconds = 0;
  double peak_mib = 0;
  size_t peak_heap = 0;  ///< peak traces in the global buffer (naive: heap)
};

SorterResult RunPipeline(const RunResult& run, bool optimized) {
  TwoLevelPipeline::Options opts;
  opts.optimized = optimized;
  TwoLevelPipeline pipeline(
      static_cast<uint32_t>(run.client_traces.size()), opts);
  Stopwatch timer;
  // Feed in virtual-time batches per client, like the paper's 0.5s trace
  // batching: each round delivers every trace that "arrived" in the next
  // window. Slow clients deliver few traces per window, fast clients many —
  // the uneven distribution that stresses the global buffer.
  constexpr Timestamp kWindow = 20000000;  // 20ms of virtual time
  std::vector<size_t> cursor(run.client_traces.size(), 0);
  uint64_t dispatched = 0;
  Timestamp window_end = kWindow;
  bool remaining = true;
  while (remaining) {
    remaining = false;
    for (ClientId c = 0; c < run.client_traces.size(); ++c) {
      const auto& traces = run.client_traces[c];
      while (cursor[c] < traces.size() &&
             traces[cursor[c]].ts_bef() < window_end) {
        pipeline.Push(c, Trace(traces[cursor[c]]));
        ++cursor[c];
      }
      if (cursor[c] == traces.size()) {
        pipeline.Close(c);
      } else {
        remaining = true;
      }
    }
    while (pipeline.Dispatch()) ++dispatched;
    window_end += kWindow;
  }
  while (pipeline.Dispatch()) ++dispatched;
  SorterResult out;
  out.seconds = timer.Seconds();
  out.peak_mib = Mib(pipeline.stats().max_global_bytes);
  out.peak_heap = pipeline.stats().max_global_heap;
  if (dispatched != run.TotalTraces()) {
    std::fprintf(stderr, "pipeline lost traces: %llu vs %llu\n",
                 static_cast<unsigned long long>(dispatched),
                 static_cast<unsigned long long>(run.TotalTraces()));
  }
  return out;
}

SorterResult RunNaive(const RunResult& run) {
  NaiveSorter sorter;
  Stopwatch timer;
  for (ClientId c = 0; c < run.client_traces.size(); ++c) {
    for (const auto& t : run.client_traces[c]) sorter.Push(c, Trace(t));
  }
  auto sorted = sorter.DrainSorted();
  SorterResult out;
  out.seconds = timer.Seconds();
  out.peak_mib = Mib(sorter.max_buffered_bytes());
  out.peak_heap = sorter.max_buffered();
  return out;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "TPC-C") {
    TpccWorkload::Options o;
    o.customers_per_district = 50;
    return std::make_unique<TpccWorkload>(o);
  }
  if (name == "SmallBank") {
    SmallBankWorkload::Options o;
    return std::make_unique<SmallBankWorkload>(o);
  }
  BlindWWorkload::Options o;
  o.variant = BlindWVariant::kReadWriteRange;
  return std::make_unique<BlindWWorkload>(o);
}

}  // namespace

int main() {
  for (const std::string name : {"TPC-C", "SmallBank", "BlindW-RW+"}) {
    PrintHeader("Fig. 10 on " + name +
                " (dispatch seconds / peak buffered MiB / peak heap)");
    std::printf("%-8s | %-26s | %-26s | %-26s\n", "txns", "two-level",
                "w/o Opt", "naive");
    for (uint64_t txns : {5000ull, 10000ull, 20000ull, 40000ull}) {
      auto workload = MakeWorkload(name);
      Database::Options dbo;
      dbo.protocol = Protocol::kMvcc2plSsi;
      dbo.isolation = IsolationLevel::kSerializable;
      dbo.lock_wait = LockWaitPolicy::kWaitDie;
      Database db(dbo);
      SimOptions so;
      so.clients = 24;
      so.total_txns = txns;
      so.seed = 7 + txns;
      // Heterogeneous client speeds: the slow clients pin the watermark,
      // which is exactly the uneven-timestamp case Fig. 10 studies.
      so.speed_spread = 6.0;
      SimRunner sim(&db, workload.get(), so);
      RunResult run = sim.Run();
      SorterResult opt = RunPipeline(run, /*optimized=*/true);
      SorterResult wo = RunPipeline(run, /*optimized=*/false);
      SorterResult naive = RunNaive(run);
      std::printf(
          "%-8llu | %7.4fs %7.2fMiB %7zu | %7.4fs %7.2fMiB %7zu | "
          "%7.4fs %7.2fMiB %7zu\n",
          static_cast<unsigned long long>(txns), opt.seconds, opt.peak_mib,
          opt.peak_heap, wo.seconds, wo.peak_mib, wo.peak_heap,
          naive.seconds, naive.peak_mib, naive.peak_heap);
    }
  }
  std::printf("\nPaper shape: the optimized two-level pipeline holds the "
              "smallest buffers; the naive sorter buffers everything and "
              "dispatches slowest.\n");
  return 0;
}
