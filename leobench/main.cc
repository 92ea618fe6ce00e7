// leobench: the repository benchmark. Generates one workload's traces from
// a seed, computes the reference verdict, then for --seconds either pushes
// the corpus through fresh leopard_serve children over loopback (--trace 0,
// end-to-end metrics) or runs traced rounds: one traced loopback pass plus
// in-process replays of every layer (--trace 1, per-layer metrics). The
// last stdout line is the JSON result. run.py builds this binary and
// passes the workload parameters from spec.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "leobench.h"

namespace leobench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * (v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - lo) * (v[hi] - v[lo]);
}

double MidMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 4;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / (v.size() - 2 * cut);
}

bool RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return !ec;
}

namespace {

/// Detection-latency samples per quantile window: p99 keeps ten beyond it.
constexpr size_t kWindowSamples = 1000;
/// Set-up repetitions; set-up time is their median.
constexpr int kSetupReps = 3;

struct Args {
  Spec spec;
  Env env;
  double seconds = 10;
  bool trace = false;
  bool perturb_reference = false;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb-reference") {
      a.perturb_reference = true;
    } else if (flag.rfind("--", 0) == 0 && i + 1 < argc) {
      kv[flag.substr(2)] = argv[++i];
    } else {
      std::fprintf(stderr, "leobench: bad argument %s\n", argv[i]);
      return false;
    }
  }
  size_t used = 0;
  auto get = [&](const char* key, auto& out) {
    auto it = kv.find(key);
    if (it == kv.end()) return;
    ++used;
    using T = std::decay_t<decltype(out)>;
    const char* v = it->second.c_str();
    if constexpr (std::is_same_v<T, std::string>) {
      out = v;
    } else if constexpr (std::is_same_v<T, bool>) {
      out = std::atoi(v) != 0;
    } else if constexpr (std::is_floating_point_v<T>) {
      out = std::atof(v);
    } else {
      out = static_cast<T>(std::strtoull(v, nullptr, 10));
    }
  };
  Spec& s = a.spec;
  get("workload", s.name);
  get("seed", s.seed);
  get("seconds", a.seconds);
  get("trace", a.trace);
  get("serve", a.env.serve_bin);
  get("scratch", a.env.scratch);
  get("gen", s.gen);
  get("txns", s.txns);
  get("stale-snapshot", s.stale_snapshot);
  get("skip-certifier", s.skip_certifier);
  get("ycsb-records", s.ycsb_records);
  get("ycsb-theta", s.ycsb_theta);
  get("shards", s.shards);
  get("durable", s.durable);
  get("checkpoint-every", s.checkpoint_every);
  get("rate", s.rate);
  if (used != kv.size()) {
    std::fprintf(stderr, "leobench: unknown flag\n");
    return false;
  }
  // The child server runs in its pass directory: keep its paths absolute.
  std::error_code ec;
  a.env.serve_bin = std::filesystem::absolute(a.env.serve_bin, ec).string();
  a.env.scratch = std::filesystem::absolute(a.env.scratch, ec).string();
  if (s.name.empty() || a.env.serve_bin.empty() || a.env.scratch.empty() ||
      s.txns == 0 || s.shards == 0 || s.checkpoint_every == 0 ||
      (s.gen != "tpcc" && s.gen != "smallbank" && s.gen != "ycsb") ||
      (s.gen == "ycsb" && (s.ycsb_records == 0 || s.ycsb_theta <= 0))) {
    std::fprintf(stderr, "leobench: incomplete workload spec\n");
    return false;
  }
  return true;
}

/// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[96];
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

uint64_t Total(const Counts& c) { return c[0] + c[1] + c[2] + c[3]; }

}  // namespace

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, a)) return 2;
  if (!StartLauncher()) {
    std::fprintf(stderr, "leobench: cannot fork the launcher\n");
    return 1;
  }
  const Spec& spec = a.spec;
  std::error_code ec;
  std::filesystem::create_directories(a.env.scratch, ec);
  if (ec) {
    std::fprintf(stderr, "leobench: cannot create %s\n",
                 a.env.scratch.c_str());
    return 1;
  }

  // Set-up: generate the corpus and its reference verdict several times
  // (the seed makes every repetition identical) and keep the median time.
  bool correct = true;
  Corpus corpus;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t = NowSeconds();
    Corpus c = Generate(spec);
    ComputeReference(c);
    setup_times.push_back(NowSeconds() - t);
    if (rep == 0) {
      corpus = std::move(c);
    } else if (c.ref_violations != corpus.ref_violations ||
               c.ref_verified != corpus.ref_verified) {
      std::fprintf(stderr, "leobench: corpus generation is not "
                           "deterministic\n");
      correct = false;
    }
  }
  if (spec.faulty() != (Total(corpus.ref_violations) > 0)) {
    std::fprintf(stderr,
                 "leobench: reference has %llu violations on a %s workload\n",
                 static_cast<unsigned long long>(Total(corpus.ref_violations)),
                 spec.faulty() ? "faulty" : "clean");
    correct = false;
  }
  if (a.perturb_reference) ++corpus.ref_violations[0];
  std::printf("leobench %s seed=%llu: %zu traces, reference cr=%llu me=%llu "
              "fuw=%llu sc=%llu, setup %.3f s (median of %d)\n",
              spec.name.c_str(), static_cast<unsigned long long>(spec.seed),
              corpus.traces.size(),
              static_cast<unsigned long long>(corpus.ref_violations[0]),
              static_cast<unsigned long long>(corpus.ref_violations[1]),
              static_cast<unsigned long long>(corpus.ref_violations[2]),
              static_cast<unsigned long long>(corpus.ref_violations[3]),
              Median(setup_times), kSetupReps);

  uint64_t attempted = 0, failed = 0;
  bool mismatch = false;
  std::vector<PassResult> passes;
  std::vector<LayerRound> rounds;
  auto note = [&](const PassResult& p) {
    std::fprintf(stderr,
                 "pass: %.3f s (finish %.1f ms), %.0f traces/s, start %.1f "
                 "ms, rss %.1f MB, detect p50 %.3f p99 %.3f ms of %zu\n",
                 p.seconds, p.finish_ms,
                 p.seconds > 0 ? p.pushed / p.seconds : 0.0, p.start_s * 1e3,
                 p.rss_mb, Quantile(p.detect_ms, 0.5),
                 Quantile(p.detect_ms, 0.99), p.detect_ms.size());
    attempted += p.pushed;
    if (p.ok) return;
    failed += p.pushed;
    if (p.error.rfind("verdict mismatch", 0) == 0) mismatch = true;
    std::fprintf(stderr, "leobench: pass failed: %s\n", p.error.c_str());
  };
  // Passes run until --seconds are used up: the last one starts only if it
  // is expected (from the one before) to end nearer --seconds than not.
  const double measure_start = NowSeconds();
  double iteration_s = 0;
  int id = 0;
  do {
    const double iteration_start = NowSeconds();
    passes.push_back(RunPass(spec, corpus, a.env, id, a.trace));
    // The previous server has exited, or is about to: settle it.
    if (passes.size() > 1) {
      SettlePass(corpus, passes[passes.size() - 2]);
      note(passes[passes.size() - 2]);
    }
    if (a.trace) {
      rounds.push_back(RunLayers(spec, corpus, a.env, id));
      const LayerRound& r = rounds.back();
      if (!r.ok) {
        std::fprintf(stderr, "leobench: layer replay failed: %s\n",
                     r.error.c_str());
        correct = false;
      }
      if (r.violations != Total(corpus.ref_violations)) {
        std::fprintf(
            stderr, "leobench: layer replay found %llu violations, not %llu\n",
            static_cast<unsigned long long>(r.violations),
            static_cast<unsigned long long>(Total(corpus.ref_violations)));
        mismatch = true;
      }
    }
    ++id;
    iteration_s = NowSeconds() - iteration_start;
  } while (NowSeconds() - measure_start + iteration_s / 2 < a.seconds);
  SettlePass(corpus, passes.back());
  note(passes.back());
  StopLauncher();
  RemoveTree(a.env.scratch);
  // A verdict mismatch fails every trace of the run.
  if (mismatch) failed = attempted;
  if (failed > 0) correct = false;

  // Throughput is taken per pass, detection-latency quantiles per window of
  // kWindowSamples consecutive samples (a pass's remainder is dropped), and
  // each reported as the mean of the middle half over the run: a stall of
  // the machine that hits one pass or window does not move them, and unlike
  // a median the figure does not jump between a fast and a slow cluster of
  // passes when the machine's speed drifts during the run.
  std::vector<double> starts, tps, p50s, p95s, p99s;
  uint64_t samples = 0, tail = 0;
  for (const PassResult& p : passes) {
    starts.push_back(p.start_s);
    if (!p.ok) continue;
    tps.push_back(p.pushed / p.seconds);
    const std::vector<double>& d = p.detect_ms;
    const size_t w = std::min(kWindowSamples, d.size());
    for (size_t i = 0; w > 0 && i + w <= d.size(); i += w) {
      std::vector<double> window(d.begin() + i, d.begin() + i + w);
      p50s.push_back(Quantile(window, 0.5));
      p95s.push_back(Quantile(window, 0.95));
      p99s.push_back(Quantile(std::move(window), 0.99));
    }
    samples += d.size();
    tail += p.tail_samples;
  }
  const double verify_tps = MidMean(tps);
  std::printf("  %zu passes, %llu detect samples (%s, %llu first seen in "
              "Finish)\n",
              passes.size(), static_cast<unsigned long long>(samples),
              spec.faulty() ? "violations" : "probe acks",
              static_cast<unsigned long long>(tail));

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {
        {"verify_tps", verify_tps, "1/s"},
        {"detect_p50_ms", MidMean(p50s), "ms"},
        {"setup_s", Median(setup_times) + Median(starts), "s"},
    };
  } else {
    // Timings: median over rounds. Exact counts are equal in every round.
    auto med = [&](double LayerRound::*field) {
      std::vector<double> v;
      for (const LayerRound& r : rounds) v.push_back(r.*field);
      return Median(v);
    };
    auto pmed = [&](double PassResult::*field) {
      std::vector<double> v;
      for (const PassResult& p : passes) {
        if (p.ok) v.push_back(p.*field);
      }
      return Median(v);
    };
    auto count = [](uint64_t c) { return static_cast<double>(c); };
    const LayerRound& last = rounds.back();
    const double decode = med(&LayerRound::decode_ns);
    const double online_push = med(&LayerRound::online_push_ns);
    const double dispatch = med(&LayerRound::pipe_dispatch_ns);
    const double process = med(&LayerRound::process_ns);
    const double route = med(&LayerRound::route_ns);
    const double append = med(&LayerRound::append_ns);
    const double sync_us = med(&LayerRound::sync_us);
    // The two thread chains of the server, per trace: the session reader
    // (decode, WAL when durable, OnlineVerifier::Push) and the dispatcher
    // (merge dispatch, then verify, or route when sharded).
    const double reader =
        decode + online_push +
        (spec.durable ? append + sync_us * 1e3 / last.batch_traces : 0.0);
    const double dispatcher = dispatch + (spec.shards > 1 ? route : process);
    metrics = {
        {"server.rss_mb", pmed(&PassResult::rss_mb), "MB"},
        {"client.push_ns", pmed(&PassResult::push_ns), "ns"},
        {"client.finish_ms", pmed(&PassResult::finish_ms), "ms"},
        {"net.encode_ns", med(&LayerRound::encode_ns), "ns"},
        {"net.decode_ns", decode, "ns"},
        {"net.wire_bytes", last.wire_bytes, "B"},
        {"durable.append_ns", append, "ns"},
        {"durable.sync_us", sync_us, "us"},
        {"durable.wal_bytes", last.wal_bytes, "B"},
        {"durable.checkpoint_ms", med(&LayerRound::checkpoint_ms), "ms"},
        {"durable.checkpoint_mb", med(&LayerRound::checkpoint_mb), "MB"},
        {"pipeline.push_ns", med(&LayerRound::pipe_push_ns), "ns"},
        {"pipeline.dispatch_ns", dispatch, "ns"},
        {"pipeline.max_buffered", last.pipe_max_buffered, "count"},
        {"online.push_ns", online_push, "ns"},
        {"online.drain_ms", med(&LayerRound::online_drain_ms), "ms"},
        {"verifier.process_ns", process, "ns"},
        {"verifier.finish_ms", med(&LayerRound::verifier_finish_ms), "ms"},
        {"verifier.state_mb", last.state_mb, "MB"},
        {"verifier.deps_deduced", count(last.deps_deduced), "count"},
        {"verifier.uncertain", count(last.uncertain), "count"},
        {"verifier.gc_sweeps", count(last.gc_sweeps), "count"},
        {"verifier.pruned_versions", count(last.pruned_versions), "count"},
        {"verifier.violations", count(last.violations), "count"},
        {"sharded.route_ns", route, "ns"},
        {"sharded.finish_ms", med(&LayerRound::sharded_finish_ms), "ms"},
        {"sharded.speedup", med(&LayerRound::speedup), "x"},
        {"gen.lag_p99_ms", pmed(&PassResult::lag_p99_ms), "ms"},
        {"gen.violations", count(Total(corpus.ref_violations)), "count"},
        {"detect.samples", count(samples), "count"},
        {"detect.p95_ms", Median(p95s), "ms"},
        {"detect.p99_ms", Median(p99s), "ms"},
        {"ledger.reader_ns", reader, "ns"},
        {"ledger.dispatcher_ns", dispatcher, "ns"},
        {"ledger.explained_pct",
         100.0 * std::max(reader, dispatcher) * verify_tps / 1e9, "%"},
    };
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace leobench

int main(int argc, char** argv) { return leobench::Main(argc, argv); }
