// Corpus generation (MiniDB SimRunner, MVCC+2PL+SSI at SERIALIZABLE with
// wait-die locking) and the in-process reference verdict.

#include <algorithm>
#include <memory>
#include <queue>

#include "harness/sim_runner.h"
#include "leobench.h"
#include "pipeline/two_level_pipeline.h"
#include "txn/database.h"
#include "verifier/leopard.h"
#include "verifier/mechanism_table.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace leobench {

using namespace leopard;

namespace {

std::unique_ptr<Workload> MakeWorkload(const Spec& spec) {
  if (spec.gen == "tpcc") {
    return std::make_unique<TpccWorkload>(TpccWorkload::Options());
  }
  if (spec.gen == "smallbank") {
    return std::make_unique<SmallBankWorkload>(SmallBankWorkload::Options());
  }
  YcsbWorkload::Options o;
  o.record_count = spec.ycsb_records;
  o.theta = spec.ycsb_theta;
  o.mix = YcsbMix::kA;
  return std::make_unique<YcsbWorkload>(o);
}

}  // namespace

Corpus Generate(const Spec& spec) {
  std::unique_ptr<Workload> workload = MakeWorkload(spec);
  Database::Options dbo;
  dbo.protocol = Protocol::kMvcc2plSsi;
  dbo.isolation = IsolationLevel::kSerializable;
  dbo.lock_wait = LockWaitPolicy::kWaitDie;
  dbo.faults.stale_snapshot_prob = spec.stale_snapshot;
  dbo.faults.skip_certifier_prob = spec.skip_certifier;
  dbo.fault_seed = spec.seed;
  Database db(dbo);
  SimOptions so;
  so.clients = kClients;
  so.total_txns = spec.txns;
  so.seed = spec.seed;
  SimRunner runner(&db, workload.get(), so);
  RunResult run = runner.Run();

  Corpus corpus;
  corpus.config = ConfigForMiniDb(dbo.protocol, dbo.isolation);
  const uint64_t total = run.TotalTraces();
  corpus.traces.reserve(total);
  corpus.stream.reserve(total);
  // Global ts_bef merge of the client streams: the order one pushing thread
  // replays them in, so the server-side merge never stalls on a stream.
  using Head = std::pair<Timestamp, uint32_t>;
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heads;
  std::vector<size_t> next(run.client_traces.size(), 0);
  for (uint32_t c = 0; c < run.client_traces.size(); ++c) {
    if (!run.client_traces[c].empty()) {
      heads.emplace(run.client_traces[c][0].ts_bef(), c);
    }
  }
  while (!heads.empty()) {
    const uint32_t c = heads.top().second;
    heads.pop();
    std::vector<Trace>& src = run.client_traces[c];
    const uint32_t pos = static_cast<uint32_t>(corpus.traces.size());
    corpus.txn_positions[src[next[c]].txn].push_back(pos);
    corpus.traces.push_back(std::move(src[next[c]]));
    corpus.stream.push_back(c);
    if (++next[c] < src.size()) heads.emplace(src[next[c]].ts_bef(), c);
  }
  return corpus;
}

void ComputeReference(Corpus& corpus) {
  TwoLevelPipeline pipeline(kClients);
  Leopard verifier(corpus.config);
  for (size_t i = 0; i < corpus.traces.size(); ++i) {
    pipeline.Push(corpus.stream[i], Trace(corpus.traces[i]));
  }
  for (uint32_t c = 0; c < kClients; ++c) pipeline.Close(c);
  while (auto t = pipeline.Dispatch()) verifier.Process(*t);
  verifier.Finish();
  const VerifierStats& s = verifier.stats();
  corpus.ref_verified = s.traces_processed;
  corpus.ref_violations = {s.cr_violations, s.me_violations, s.fuw_violations,
                           s.sc_violations};
}

}  // namespace leobench
