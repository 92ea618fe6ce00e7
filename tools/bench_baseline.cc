// Perf-regression baseline runner. Measures the single-threaded verifier's
// hot paths on a fixed, seeded workload and emits one JSON snapshot:
//
//   verify        — end-to-end pipeline + Leopard verification of a BlindW-RW
//                   sim run (traces/s and peak mirrored-state memory);
//   pk_insert     — incremental-cycle-detector edge insertions;
//   full_dfs      — from-scratch cycle search per commit (kFullDfs scratch
//                   reuse regression guard);
//   version_index — version installs + candidate-set computations.
//   awdit         — AWDIT-style weak-isolation baseline checker (causal
//                   level) over the same BlindW-RW history, for the
//                   Leopard-vs-optimal-weak-tester comparison row;
//   sharded_zipf  — zipfian (theta=0.99) YCSB traces through the sharded
//                   engine with skew-adaptive rebalancing enabled (hot-key
//                   migration + work stealing + batched SC certification);
//                   guards the skew-handling path end to end.
//   zipf_1shard   — the same zipfian traces through the 1-shard engine:
//                   the number sharding has to beat.
//
// A `calib_mops` score (fixed integer-mixing loop) normalizes scores across
// machines: CI compares normalized throughput against the committed
// BENCH_PR*.json baseline and fails on a >max-regress drop, so a slower
// runner does not masquerade as a code regression.
//
// Usage:
//   bench_baseline [--txns=N] [--clients=N] [--seed=N] [--repeat=N]
//                  [--label=STR] [--out=PATH]
//                  [--compare=PATH] [--max-regress=0.20] [--gate=METRIC]
//                  [--ratio-gate=PATH]
//
// --compare reads a previous snapshot (or a BENCH_PR*.json trajectory file,
// in which case the "after" snapshot is used) and exits nonzero when the
// calibration-normalized throughput of the gating metric (--gate, default
// "verify"; the skew perf-smoke job gates on "sharded_zipf") regressed by
// more than --max-regress.
//
// --ratio-gate reads "min_ratio" from a file (BENCH_PR13.json) and exits
// nonzero when sharded_zipf / zipf_1shard — 4 shards against 1 on the same
// traces, same machine, same run — falls below it.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "baseline/awdit_checker.h"
#include "bench_util.h"
#include "verifier/dependency_graph.h"
#include "verifier/sharded_leopard.h"
#include "verifier/version_order.h"
#include "workload/blindw.h"
#include "workload/ycsb.h"

using namespace leopard;
using namespace leopard::bench;

namespace {

struct Options {
  uint64_t txns = 20000;
  uint32_t clients = 24;
  uint64_t seed = 9;
  int repeat = 3;
  std::string label = "snapshot";
  std::string out;
  std::string compare;
  double max_regress = 0.20;
  std::string gate = "verify";
  std::string ratio_gate;
};

struct Score {
  double seconds = 0;
  double per_sec = 0;
  uint64_t items = 0;
  size_t peak_memory = 0;
};

/// Fixed CPU-bound integer-mixing loop; returns mixes/second in millions.
/// The same loop on the same binary differs across machines only by core
/// speed, which is exactly the factor to divide out of the other scores.
double Calibrate() {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  constexpr uint64_t kIters = 60'000'000;
  Stopwatch timer;
  for (uint64_t i = 0; i < kIters; ++i) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 29;
    x += i;
  }
  double secs = timer.Seconds();
  // Defeat dead-code elimination.
  if (x == 42) std::fprintf(stderr, "impossible\n");
  return static_cast<double>(kIters) / secs / 1e6;
}

Score MeasureVerify(const Options& opt) {
  BlindWWorkload::Options wo;
  wo.variant = BlindWVariant::kReadWriteRange;
  BlindWWorkload workload(wo);
  RunResult run = CollectTraces(&workload, Protocol::kMvcc2plSsi,
                                IsolationLevel::kSerializable, opt.txns,
                                opt.clients, opt.seed);
  Score best;
  for (int r = 0; r < opt.repeat; ++r) {
    // Bare run: no metrics registry, so the measurement excludes
    // instrumentation cost and matches LEOPARD_BENCH_METRICS=0 runs.
    VerifyOutcome out = VerifyWithLeopard(
        run,
        ConfigForMiniDb(Protocol::kMvcc2plSsi, IsolationLevel::kSerializable),
        /*metrics=*/nullptr);
    double per_sec = static_cast<double>(out.traces) / out.seconds;
    if (per_sec > best.per_sec) {
      best.seconds = out.seconds;
      best.per_sec = per_sec;
      best.items = out.traces;
      best.peak_memory = out.peak_memory;
    }
  }
  return best;
}

// AWDIT baseline row: the weak-isolation checker, at the level the history
// declared (RC — stronger levels would test promises an RC engine never
// made), over a BlindW-RW history. Capped at 6000 transactions — the
// baseline's reachability memo is quadratic-ish on purpose (it reproduces
// the offline-checker cost Leopard's incremental engine avoids), and the
// row is diagnostic, never a gate.
Score MeasureAwdit(const Options& opt) {
  BlindWWorkload::Options wo;
  wo.variant = BlindWVariant::kReadWriteRange;
  BlindWWorkload workload(wo);
  RunResult run = CollectTraces(&workload, Protocol::kMvcc2plSsi,
                                IsolationLevel::kReadCommitted,
                                std::min<uint64_t>(opt.txns, 6000),
                                opt.clients, opt.seed);
  Score best;
  for (int r = 0; r < opt.repeat; ++r) {
    AwditChecker::Options ao;
    ao.level = AwditChecker::Level::kReadCommitted;
    AwditChecker checker(ao);
    Stopwatch timer;
    uint64_t n = 0;
    for (const auto& traces : run.client_traces) {
      for (const auto& t : traces) {
        checker.Add(t);
        ++n;
      }
    }
    AwditChecker::Report rep = checker.Check();
    double secs = timer.Seconds();
    if (rep.consistent == false) {
      std::fprintf(stderr, "unexpected AWDIT anomaly in clean history: %s\n",
                   rep.anomalies.empty() ? "?" : rep.anomalies[0].c_str());
    }
    double per_sec = secs > 0 ? static_cast<double>(n) / secs : 0.0;
    if (per_sec > best.per_sec) {
      best.seconds = secs;
      best.per_sec = per_sec;
      best.items = n;
      best.peak_memory = checker.ApproxMemoryBytes();
    }
  }
  return best;
}

Score MeasureShardedZipf(const Options& opt, uint32_t n_shards) {
  YcsbWorkload::Options wo;
  wo.record_count = 2000;
  wo.theta = 0.99;
  YcsbWorkload workload(wo);
  RunResult run = CollectTraces(&workload, Protocol::kMvcc2plSsi,
                                IsolationLevel::kSerializable, opt.txns,
                                opt.clients, opt.seed + 1);
  const auto clients = static_cast<uint32_t>(run.client_traces.size());
  Score best;
  for (int r = 0; r < opt.repeat; ++r) {
    ShardedLeopard::Options so;
    so.n_shards = n_shards;
    so.enable_rebalance = n_shards > 1;
    ShardedLeopard engine(
        ConfigForMiniDb(Protocol::kMvcc2plSsi, IsolationLevel::kSerializable),
        so);
    TwoLevelPipeline pipeline(clients);
    Stopwatch timer;
    for (ClientId c = 0; c < clients; ++c) {
      for (const auto& t : run.client_traces[c]) pipeline.Push(c, Trace(t));
      pipeline.Close(c);
    }
    uint64_t n = 0;
    while (auto t = pipeline.Dispatch()) {
      engine.Process(*t);
      ++n;
    }
    engine.Finish();
    double secs = timer.Seconds();
    double per_sec = secs > 0 ? static_cast<double>(n) / secs : 0.0;
    if (per_sec > best.per_sec) {
      best.seconds = secs;
      best.per_sec = per_sec;
      best.items = n;
      best.peak_memory = engine.ApproxMemoryBytes();
    }
  }
  return best;
}

Score MeasurePkInsert(const Options& opt) {
  Score best;
  constexpr TxnId kNodes = 30000;
  for (int r = 0; r < opt.repeat; ++r) {
    DependencyGraph graph(CertifierMode::kCycle);
    Stopwatch timer;
    uint64_t edges = 0;
    for (TxnId i = 1; i <= kNodes; ++i) {
      DependencyGraph::NodeInfo info;
      info.first_op = {i * 10, i * 10 + 1};
      info.end = {i * 10 + 2, i * 10 + 3};
      graph.AddNode(i, info);
      if (i > 1) {
        graph.AddEdge(i - 1, i, DepType::kWw);
        ++edges;
      }
      if (i > 2 && i % 3 == 0) {
        graph.AddEdge(i, i - 2, DepType::kRw);  // PK reordering path
        ++edges;
      }
      if (i % 512 == 0) graph.PruneGarbage(i * 10 - 2000);
    }
    double secs = timer.Seconds();
    double per_sec = static_cast<double>(edges) / secs;
    if (per_sec > best.per_sec) {
      best.seconds = secs;
      best.per_sec = per_sec;
      best.items = edges;
    }
  }
  return best;
}

Score MeasureFullDfs(const Options& opt) {
  Score best;
  constexpr TxnId kNodes = 600;
  for (int r = 0; r < opt.repeat; ++r) {
    DependencyGraph graph(CertifierMode::kFullDfs);
    for (TxnId i = 1; i <= kNodes; ++i) {
      DependencyGraph::NodeInfo info;
      info.first_op = {i * 10, i * 10 + 1};
      info.end = {i * 10 + 2, i * 10 + 3};
      graph.AddNode(i, info);
      if (i > 1) graph.AddEdge(i - 1, i, DepType::kWw);
    }
    Stopwatch timer;
    uint64_t searches = 0;
    for (int s = 0; s < 400; ++s) {
      if (graph.FullCycleSearch().has_value()) {
        std::fprintf(stderr, "unexpected cycle in full-dfs bench\n");
        return best;
      }
      ++searches;
    }
    double secs = timer.Seconds();
    double per_sec = static_cast<double>(searches) / secs;
    if (per_sec > best.per_sec) {
      best.seconds = secs;
      best.per_sec = per_sec;
      best.items = searches;
    }
  }
  return best;
}

Score MeasureVersionIndex(const Options& opt) {
  Score best;
  constexpr uint64_t kOps = 200000;
  for (int r = 0; r < opt.repeat; ++r) {
    VersionOrderIndex index;
    Stopwatch timer;
    uint64_t ops = 0;
    for (uint64_t i = 0; i < kOps; ++i) {
      Key key = i % 4096;
      Timestamp at = 10 + i * 3;
      index.Install(key, 1000 + i, i + 1, {at, at + 2});
      auto* list = index.Get(key);
      list->back().status = WriterStatus::kCommitted;
      list->back().writer_commit = {at + 3, at + 4};
      auto cand = index.Candidates(key, {at + 10, at + 15});
      ops += 1 + cand.indices.size() * 0;  // keep cand alive
      if (i % 8192 == 0) index.Prune(at > 50000 ? at - 50000 : 0);
    }
    index.Prune(10 + kOps * 3);
    double secs = timer.Seconds();
    double per_sec = static_cast<double>(ops) / secs;
    if (per_sec > best.per_sec) {
      best.seconds = secs;
      best.per_sec = per_sec;
      best.items = ops;
    }
  }
  return best;
}

void AppendScore(std::ostringstream& os, const char* name, const Score& s,
                 bool with_memory) {
  os << "  \"" << name << "\": {\"items\": " << s.items
     << ", \"seconds\": " << s.seconds << ", \"per_sec\": " << s.per_sec;
  if (with_memory) os << ", \"peak_memory_bytes\": " << s.peak_memory;
  os << "}";
}

/// Minimal extraction of `"key": <number>` from a JSON blob. When the blob
/// contains an "after" trajectory entry (BENCH_PR*.json), only the text
/// after it is searched, so the committed post-PR snapshot is the baseline.
/// With a non-empty `section`, the search starts at `"section"` so per-
/// metric scores (all named "per_sec") resolve to the right object.
double ExtractNumber(const std::string& text, const std::string& section,
                     const std::string& key) {
  std::string body = text;
  size_t after = text.find("\"after\"");
  if (after != std::string::npos) body = text.substr(after);
  size_t start = 0;
  if (!section.empty()) {
    start = body.find("\"" + section + "\"");
    if (start == std::string::npos) return -1;
  }
  size_t pos = body.find("\"" + key + "\"", start);
  if (pos == std::string::npos) return -1;
  pos = body.find(':', pos);
  if (pos == std::string::npos) return -1;
  return std::strtod(body.c_str() + pos + 1, nullptr);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int RatioGate(const Options& opt, const Score& sharded, const Score& one) {
  const double floor = ExtractNumber(ReadFile(opt.ratio_gate), "", "min_ratio");
  if (floor <= 0) {
    std::fprintf(stderr, "%s has no min_ratio\n", opt.ratio_gate.c_str());
    return 2;
  }
  const double ratio = one.per_sec > 0 ? sharded.per_sec / one.per_sec : 0;
  std::printf("ratio gate (%s): sharded_zipf %.0f/s / zipf_1shard %.0f/s = "
              "%.3f (min %.3f)\n",
              opt.ratio_gate.c_str(), sharded.per_sec, one.per_sec, ratio,
              floor);
  if (ratio < floor) {
    std::fprintf(stderr,
                 "PERF REGRESSION: 4-shard/1-shard ratio %.3f below %.3f\n",
                 ratio, floor);
    return 1;
  }
  return 0;
}

int Compare(const Options& opt, double calib, const Score& verify,
            const Score& sharded, const Score& one, const Score& pk,
            const Score& dfs, const Score& vindex, const Score& awdit) {
  const std::string text = ReadFile(opt.compare);
  if (text.empty()) {
    std::fprintf(stderr, "cannot read baseline %s\n", opt.compare.c_str());
    return 2;
  }
  double base_calib = ExtractNumber(text, "", "calib_mops");
  // Per-metric delta table, calibration-normalized on both sides (so a
  // slower CI machine is not misread as a code regression). Only the --gate
  // row gates ("verify" by default; the skew perf-smoke job gates on
  // "sharded_zipf") — the micro-benches are diagnostic context for a
  // regression, too noisy to fail on individually.
  struct Row {
    const char* name;
    double current;
  };
  const Row rows[] = {{"verify", verify.per_sec},
                      {"sharded_zipf", sharded.per_sec},
                      {"zipf_1shard", one.per_sec},
                      {"pk_insert", pk.per_sec},
                      {"full_dfs", dfs.per_sec},
                      {"version_index", vindex.per_sec},
                      {"awdit", awdit.per_sec}};
  double base_tps = ExtractNumber(text, opt.gate, "per_sec");
  double cur_tps = verify.per_sec;
  for (const Row& row : rows) {
    if (opt.gate == row.name) cur_tps = row.current;
  }
  if (base_tps <= 0) {
    std::fprintf(stderr, "baseline %s has no %s per_sec\n",
                 opt.compare.c_str(), opt.gate.c_str());
    return 2;
  }
  std::printf("compare vs %s (calib: baseline %.1f, current %.1f)\n",
              opt.compare.c_str(), base_calib, calib);
  std::printf("  %-14s %14s %14s %9s\n", "metric", "baseline/s", "current/s",
              "delta");
  for (const Row& row : rows) {
    double base = ExtractNumber(text, row.name, "per_sec");
    if (base <= 0) {
      std::printf("  %-14s %14s %14.0f %9s\n", row.name, "-", row.current,
                  "-");
      continue;
    }
    double bn = base_calib > 0 ? base / base_calib : base;
    double cn = base_calib > 0 ? row.current / calib : row.current;
    std::printf("  %-14s %14.0f %14.0f %+8.1f%%\n", row.name, base,
                row.current, (cn / bn - 1.0) * 100.0);
  }
  double base_norm = base_calib > 0 ? base_tps / base_calib : base_tps;
  double cur_norm = base_calib > 0 ? cur_tps / calib : cur_tps;
  double ratio = cur_norm / base_norm;
  std::printf("compare (%s): baseline %.0f/s (calib %.1f), current %.0f/s "
              "(calib %.1f), normalized ratio %.3f (min %.3f)\n",
              opt.gate.c_str(), base_tps, base_calib, cur_tps, calib, ratio,
              1.0 - opt.max_regress);
  if (ratio < 1.0 - opt.max_regress) {
    std::fprintf(stderr,
                 "PERF REGRESSION: normalized %s throughput ratio %.3f "
                 "below threshold %.3f\n",
                 opt.gate.c_str(), ratio, 1.0 - opt.max_regress);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--txns=", 7) == 0) {
      opt.txns = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strncmp(a, "--clients=", 10) == 0) {
      opt.clients = static_cast<uint32_t>(std::strtoul(a + 10, nullptr, 10));
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      opt.seed = std::strtoull(a + 7, nullptr, 10);
    } else if (std::strncmp(a, "--repeat=", 9) == 0) {
      opt.repeat = std::max(1, static_cast<int>(std::strtol(a + 9, nullptr, 10)));
    } else if (std::strncmp(a, "--label=", 8) == 0) {
      opt.label = a + 8;
    } else if (std::strncmp(a, "--out=", 6) == 0) {
      opt.out = a + 6;
    } else if (std::strncmp(a, "--compare=", 10) == 0) {
      opt.compare = a + 10;
    } else if (std::strncmp(a, "--max-regress=", 14) == 0) {
      opt.max_regress = std::strtod(a + 14, nullptr);
    } else if (std::strncmp(a, "--gate=", 7) == 0) {
      opt.gate = a + 7;
    } else if (std::strncmp(a, "--ratio-gate=", 13) == 0) {
      opt.ratio_gate = a + 13;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a);
      return 2;
    }
  }

  double calib = Calibrate();
  // Gate runs (CI) keep the best of more repeats: the gate compares a
  // single fresh measurement against the committed snapshot, so transient
  // co-tenant noise on the runner directly becomes a false regression.
  if ((!opt.compare.empty() || !opt.ratio_gate.empty()) && opt.repeat < 8) {
    opt.repeat = 8;
  }
  Score verify = MeasureVerify(opt);
  Score sharded = MeasureShardedZipf(opt, 4);
  Score one = MeasureShardedZipf(opt, 1);
  Score pk = MeasurePkInsert(opt);
  Score dfs = MeasureFullDfs(opt);
  Score vindex = MeasureVersionIndex(opt);
  Score awdit = MeasureAwdit(opt);

  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": 1,\n";
  os << "  \"label\": \"" << opt.label << "\",\n";
  os << "  \"txns\": " << opt.txns << ",\n";
  os << "  \"clients\": " << opt.clients << ",\n";
  os << "  \"seed\": " << opt.seed << ",\n";
  os << "  \"calib_mops\": " << calib << ",\n";
  AppendScore(os, "verify", verify, /*with_memory=*/true);
  os << ",\n";
  AppendScore(os, "sharded_zipf", sharded, /*with_memory=*/true);
  os << ",\n";
  AppendScore(os, "zipf_1shard", one, /*with_memory=*/true);
  os << ",\n";
  AppendScore(os, "pk_insert", pk, false);
  os << ",\n";
  AppendScore(os, "full_dfs", dfs, false);
  os << ",\n";
  AppendScore(os, "version_index", vindex, false);
  os << ",\n";
  AppendScore(os, "awdit", awdit, /*with_memory=*/true);
  os << "\n}\n";

  std::printf("%s", os.str().c_str());
  if (!opt.out.empty()) {
    std::ofstream f(opt.out);
    f << os.str();
    std::printf("wrote %s\n", opt.out.c_str());
  }
  int rc = 0;
  if (!opt.compare.empty()) {
    rc = Compare(opt, calib, verify, sharded, one, pk, dfs, vindex, awdit);
  }
  if (!opt.ratio_gate.empty()) rc = std::max(rc, RatioGate(opt, sharded, one));
  return rc;
}
