// Tests for the live-introspection stack: Prometheus text exposition
// (validated by a strict parser), the HTTP endpoint's routes over a real
// loopback socket, the stall watchdog (fire + recover + /healthz
// degradation), /statusz JSON, and the wire-version matrix for the v3
// ingest-timestamp stage histogram.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fuzz_history_util.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/events.h"
#include "obs/http_endpoint.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "obs/registry.h"
#include "obs/watchdog.h"
#include "verifier/mechanism_table.h"

namespace leopard {
namespace obs {
namespace {

using fuzzutil::BuildSerialHistory;
using fuzzutil::History;

// ---------------------------------------------------------------------------
// Strict Prometheus text-format 0.0.4 parser. Validates, per exposition:
//  - every sample's metric name matches [a-zA-Z_:][a-zA-Z0-9_:]*;
//  - label values are double-quoted with only \\ \" \n escapes;
//  - every sample belongs to a family announced by a preceding # TYPE line;
//  - histogram buckets are cumulative-monotone in le order, the +Inf bucket
//    equals _count, and _sum/_count are present.

struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
};

struct PromParse {
  std::map<std::string, std::string> type_by_family;
  std::vector<PromSample> samples;
  std::vector<std::string> errors;
};

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == ':')) {
      return false;
    }
  }
  return true;
}

// Parses `{k="v",...}`; returns false (with an error note) on malformed
// quoting or a bad escape.
bool ParseLabels(const std::string& s, size_t& pos, PromSample& out,
                 std::string& err) {
  ++pos;  // consume '{'
  while (pos < s.size() && s[pos] != '}') {
    size_t eq = s.find('=', pos);
    if (eq == std::string::npos) {
      err = "label without '='";
      return false;
    }
    std::string key = s.substr(pos, eq - pos);
    if (!ValidMetricName(key)) {
      err = "bad label name: " + key;
      return false;
    }
    pos = eq + 1;
    if (pos >= s.size() || s[pos] != '"') {
      err = "label value not quoted";
      return false;
    }
    ++pos;
    std::string value;
    bool closed = false;
    while (pos < s.size()) {
      char c = s[pos];
      if (c == '\\') {
        if (pos + 1 >= s.size()) {
          err = "dangling escape";
          return false;
        }
        char n = s[pos + 1];
        if (n != '\\' && n != '"' && n != 'n') {
          err = std::string("bad escape \\") + n;
          return false;
        }
        value += n == 'n' ? '\n' : n;
        pos += 2;
        continue;
      }
      if (c == '"') {
        closed = true;
        ++pos;
        break;
      }
      value += c;
      ++pos;
    }
    if (!closed) {
      err = "unterminated label value";
      return false;
    }
    out.labels[key] = value;
    if (pos < s.size() && s[pos] == ',') ++pos;
  }
  if (pos >= s.size() || s[pos] != '}') {
    err = "unterminated label set";
    return false;
  }
  ++pos;
  return true;
}

// Family name for TYPE association: histogram series drop the _bucket /
// _sum / _count suffix.
std::string FamilyOf(const std::string& name) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    size_t n = std::strlen(suffix);
    if (name.size() > n &&
        name.compare(name.size() - n, n, suffix) == 0) {
      return name.substr(0, name.size() - n);
    }
  }
  return name;
}

PromParse ParsePrometheus(const std::string& text) {
  PromParse p;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, family, type;
      ls >> hash >> kind >> family >> type;
      if (kind == "TYPE") {
        if (p.type_by_family.count(family) != 0) {
          p.errors.push_back("duplicate TYPE for " + family);
        }
        p.type_by_family[family] = type;
      }
      continue;  // HELP/comments: ignored
    }
    PromSample sample;
    size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') ++pos;
    sample.name = line.substr(0, pos);
    if (!ValidMetricName(sample.name)) {
      p.errors.push_back("bad metric name: " + sample.name);
      continue;
    }
    if (pos < line.size() && line[pos] == '{') {
      std::string err;
      if (!ParseLabels(line, pos, sample, err)) {
        p.errors.push_back(err + " in: " + line);
        continue;
      }
    }
    while (pos < line.size() && line[pos] == ' ') ++pos;
    char* end = nullptr;
    sample.value = std::strtod(line.c_str() + pos, &end);
    if (end == line.c_str() + pos) {
      p.errors.push_back("no value in: " + line);
      continue;
    }
    const std::string family = FamilyOf(sample.name);
    auto it = p.type_by_family.find(family);
    if (it == p.type_by_family.end()) {
      // Suffix-less gauges derived from a histogram (e.g. _p99_ns) carry
      // their own TYPE line, so any miss is a real error.
      if (p.type_by_family.find(sample.name) == p.type_by_family.end()) {
        p.errors.push_back("sample without TYPE: " + sample.name);
      }
    }
    p.samples.push_back(std::move(sample));
  }
  // Histogram invariants.
  for (const auto& [family, type] : p.type_by_family) {
    if (type != "histogram") continue;
    double prev = -1;
    double inf_value = -1;
    double count_value = -1;
    bool have_sum = false;
    std::vector<double> uppers;
    for (const PromSample& s : p.samples) {
      if (s.name == family + "_bucket") {
        auto le = s.labels.find("le");
        if (le == s.labels.end()) {
          p.errors.push_back(family + " bucket without le");
          continue;
        }
        if (s.value + 1e-9 < prev) {
          p.errors.push_back(family + " buckets not cumulative at le=" +
                             le->second);
        }
        prev = s.value;
        if (le->second == "+Inf") {
          inf_value = s.value;
        } else {
          double upper = std::strtod(le->second.c_str(), nullptr);
          if (!uppers.empty() && upper <= uppers.back()) {
            p.errors.push_back(family + " le values not increasing");
          }
          uppers.push_back(upper);
        }
      } else if (s.name == family + "_count") {
        count_value = s.value;
      } else if (s.name == family + "_sum") {
        have_sum = true;
      }
    }
    if (inf_value < 0) p.errors.push_back(family + " missing +Inf bucket");
    if (count_value < 0) p.errors.push_back(family + " missing _count");
    if (!have_sum) p.errors.push_back(family + " missing _sum");
    if (inf_value >= 0 && count_value >= 0 && inf_value != count_value) {
      p.errors.push_back(family + " +Inf bucket != _count");
    }
  }
  return p;
}

std::string JoinErrors(const PromParse& p) {
  std::string out;
  for (const auto& e : p.errors) out += e + "\n";
  return out;
}

// ---------------------------------------------------------------------------
// Prometheus exporter.

TEST(PromTest, SanitizeNamePrefixesAndReplacesIllegalChars) {
  EXPECT_EQ(PromSanitizeName("verifier.trace_ns"),
            "leopard_verifier_trace_ns");
  EXPECT_EQ(PromSanitizeName("shard0.edge-queue depth"),
            "leopard_shard0_edge_queue_depth");
}

TEST(PromTest, EscapeLabelHandlesAllEscapes) {
  EXPECT_EQ(PromEscapeLabel("plain"), "plain");
  EXPECT_EQ(PromEscapeLabel("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(PromTest, ExpositionParsesStrictly) {
  MetricsRegistry registry;
  registry.counter("net.traces_in")->Inc(123);
  registry.gauge("pipeline.queue_depth")->Set(7);
  Histogram* h = registry.histogram("verifier.trace_ns");
  for (uint64_t v : {100ull, 1000ull, 1000ull, 50000ull, 1ull << 40}) {
    h->Record(v);
  }
  // A histogram with zero samples must still satisfy the invariants.
  registry.histogram("stage.ingest_to_read_ns");

  PromParse p = ParsePrometheus(MetricsToPrometheus(registry));
  EXPECT_TRUE(p.errors.empty()) << JoinErrors(p);
  EXPECT_EQ(p.type_by_family.at("leopard_net_traces_in"), "counter");
  EXPECT_EQ(p.type_by_family.at("leopard_pipeline_queue_depth"), "gauge");
  EXPECT_EQ(p.type_by_family.at("leopard_verifier_trace_ns"), "histogram");

  double count = -1, p99 = -1;
  for (const PromSample& s : p.samples) {
    if (s.name == "leopard_verifier_trace_ns_count") count = s.value;
    if (s.name == "leopard_verifier_trace_ns_p99_ns") p99 = s.value;
  }
  EXPECT_EQ(count, 5);
  // The percentile gauges must agree with the shared PercentileNs code the
  // JSON/CSV exporters use (modulo %.6g exposition rounding).
  EXPECT_NEAR(p99, h->PercentileNs(99), h->PercentileNs(99) * 1e-5 + 1e-9);
}

TEST(PromTest, HugeValuesFoldIntoInfBucket) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("x");
  h->Record(UINT64_MAX);  // lands in the last bucket (upper == UINT64_MAX)
  h->Record(1);
  PromParse p = ParsePrometheus(MetricsToPrometheus(registry));
  EXPECT_TRUE(p.errors.empty()) << JoinErrors(p);
  // The open-ended last bucket must not surface as a bogus finite le.
  for (const PromSample& s : p.samples) {
    if (s.name == "leopard_x_bucket") {
      auto le = s.labels.find("le");
      ASSERT_NE(le, s.labels.end());
      if (le->second != "+Inf") {
        EXPECT_LT(std::strtod(le->second.c_str(), nullptr), 1e19);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Watchdog.

TEST(WatchdogTest, FiresOnFrozenHeartbeatAndRecovers) {
  MetricsRegistry registry;
  EventJournal journal(32);
  Watchdog::Options wo;
  wo.check_interval_ms = 0;  // no monitor thread; tests drive CheckNow()
  wo.stall_threshold_ms = 1;
  wo.metrics = &registry;
  wo.events = &journal;
  Watchdog dog(wo);
  Watchdog::Slot* slot = dog.Register("frozen.thread");
  slot->Beat();
  // Spin past the 1ms threshold without beating: the slot is stalled.
  const uint64_t start = NowNs();
  while (NowNs() - start < 5'000'000) {
  }
  dog.CheckNow();
  EXPECT_EQ(dog.stalled_count(), 1u);
  auto stalled = dog.StalledThreads();
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0], "frozen.thread");
  EXPECT_EQ(registry.gauge("verifier.watchdog.stalled")->Value(), 1);
  bool stall_event = false;
  for (const Event& e : journal.Snapshot(32)) {
    if (e.severity == EventSeverity::kWarn &&
        std::string(e.message).find("frozen.thread") != std::string::npos) {
      stall_event = true;
    }
  }
  EXPECT_TRUE(stall_event);

  // Heartbeat resumes: the next sweep clears the flag and logs recovery.
  slot->Beat();
  dog.CheckNow();
  EXPECT_EQ(dog.stalled_count(), 0u);
  EXPECT_TRUE(dog.StalledThreads().empty());
  EXPECT_EQ(registry.gauge("verifier.watchdog.stalled")->Value(), 0);
  bool recover_event = false;
  for (const Event& e : journal.Snapshot(32)) {
    if (std::string(e.message).find("recovered") != std::string::npos) {
      recover_event = true;
    }
  }
  EXPECT_TRUE(recover_event);
}

TEST(WatchdogTest, SuspendedAndRetiredSlotsNeverFlag) {
  Watchdog::Options wo;
  wo.check_interval_ms = 0;
  wo.stall_threshold_ms = 1;
  Watchdog dog(wo);
  Watchdog::Slot* idle = dog.Register("idle.thread");
  Watchdog::Slot* gone = dog.Register("gone.thread");
  idle->Beat();
  gone->Beat();
  idle->Suspend();
  dog.Retire(gone);
  const uint64_t start = NowNs();
  while (NowNs() - start < 5'000'000) {
  }
  dog.CheckNow();
  EXPECT_EQ(dog.stalled_count(), 0u);
  // Resume refreshes the beat: no spurious stall right after waking.
  idle->Resume();
  dog.CheckNow();
  EXPECT_EQ(dog.stalled_count(), 0u);
}

// Stop() wakes the monitor out of its check-interval wait: a server that
// has sent its report must not linger for up to one interval before exit.
TEST(WatchdogTest, StopReturnsWithoutWaitingOutTheInterval) {
  Watchdog::Options wo;
  wo.check_interval_ms = 1000;
  Watchdog dog(wo);
  // Let the monitor enter its wait first.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  dog.Stop();
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_LT(took, std::chrono::milliseconds(50));
}

// ---------------------------------------------------------------------------
// HTTP endpoint routing (in-process) and loopback socket serving.

std::string HttpGet(uint16_t port, const std::string& path) {
  auto sock = net::TcpConnect("127.0.0.1", port);
  EXPECT_TRUE(sock.ok()) << sock.status();
  if (!sock.ok()) return "";
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: test\r\n\r\n";
  EXPECT_TRUE(sock->SendAll(req.data(), req.size()).ok());
  std::string out;
  char buf[16384];
  while (true) {
    auto got = sock->Recv(buf, sizeof(buf));
    if (!got.ok() || *got == 0) break;
    out.append(buf, *got);
  }
  return out;
}

// Minimal JSON well-formedness scan: balanced braces/brackets outside
// strings, valid string escapes.
bool JsonBalanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(HttpEndpointTest, RoutesWithoutSocket) {
  MetricsRegistry registry;
  registry.counter("net.traces_in")->Inc(5);
  EventJournal journal(16);
  journal.Record(EventSeverity::kInfo, "test", "hello journal");
  HttpEndpoint::Options ho;
  ho.registry = &registry;
  ho.events = &journal;
  ho.statusz_fields = [] { return std::string("\"custom\":42"); };
  ho.build_info = "unit \"test\"";
  HttpEndpoint ep(ho);

  std::string body, ctype;
  EXPECT_EQ(ep.HandleRoute("/metrics", body, ctype), 200);
  EXPECT_NE(ctype.find("text/plain"), std::string::npos);
  PromParse p = ParsePrometheus(body);
  EXPECT_TRUE(p.errors.empty()) << JoinErrors(p);
  bool saw_uptime = false;
  bool saw_build = false;
  for (const PromSample& s : p.samples) {
    if (s.name == "leopard_uptime_seconds") saw_uptime = true;
    if (s.name == "leopard_build_info") {
      saw_build = true;
      EXPECT_EQ(s.labels.at("version"), "unit \"test\"");
      EXPECT_EQ(s.value, 1);
    }
  }
  EXPECT_TRUE(saw_uptime);
  EXPECT_TRUE(saw_build);

  EXPECT_EQ(ep.HandleRoute("/healthz", body, ctype), 200);
  EXPECT_EQ(body, "ok\n");

  EXPECT_EQ(ep.HandleRoute("/statusz?events=5", body, ctype), 200);
  EXPECT_NE(ctype.find("application/json"), std::string::npos);
  EXPECT_TRUE(JsonBalanced(body)) << body;
  EXPECT_NE(body.find("\"custom\":42"), std::string::npos);
  EXPECT_NE(body.find("hello journal"), std::string::npos);
  EXPECT_NE(body.find("\"uptime_s\":"), std::string::npos);

  // Without ?events= the journal is omitted.
  EXPECT_EQ(ep.HandleRoute("/statusz", body, ctype), 200);
  EXPECT_EQ(body.find("hello journal"), std::string::npos);

  EXPECT_EQ(ep.HandleRoute("/nope", body, ctype), 404);
}

TEST(HttpEndpointTest, HealthzFlipsOn503WhenWatchdogFlagsStall) {
  Watchdog::Options wo;
  wo.check_interval_ms = 0;
  wo.stall_threshold_ms = 1;
  Watchdog dog(wo);
  HttpEndpoint::Options ho;
  ho.watchdog = &dog;
  HttpEndpoint ep(ho);

  std::string body, ctype;
  EXPECT_EQ(ep.HandleRoute("/healthz", body, ctype), 200);

  Watchdog::Slot* slot = dog.Register("wedged.worker");
  slot->Beat();
  const uint64_t start = NowNs();
  while (NowNs() - start < 5'000'000) {
  }
  dog.CheckNow();
  EXPECT_EQ(ep.HandleRoute("/healthz", body, ctype), 503);
  EXPECT_NE(body.find("wedged.worker"), std::string::npos);

  slot->Beat();
  dog.CheckNow();
  EXPECT_EQ(ep.HandleRoute("/healthz", body, ctype), 200);
}

TEST(HttpEndpointTest, IdleServerPastStallThresholdStaysHealthy) {
  // Acceptor, session reader and dispatcher all block waiting for input,
  // and each suspends its heartbeat while it does: a server idle for many
  // stall thresholds is idle, not wedged.
  Watchdog::Options wo;
  wo.check_interval_ms = 0;
  wo.stall_threshold_ms = 20;
  Watchdog dog(wo);
  net::VerifierServer::Options so;
  so.expected_sessions = 1;
  so.watchdog = &dog;
  net::VerifierServer server(
      ConfigForMiniDb(Protocol::kMvcc2plSsi, IsolationLevel::kSerializable),
      so);
  ASSERT_TRUE(server.Start().ok());
  HttpEndpoint::Options ho;
  ho.watchdog = &dog;
  HttpEndpoint ep(ho);
  std::thread drain([&server] { server.WaitReport(); });

  // One session handshakes and goes quiet; the acceptor waits for more.
  auto client = net::VerifierClient::Connect(
      "127.0.0.1:" + std::to_string(server.port()),
      net::VerifierClient::Options{});
  EXPECT_TRUE(client.ok()) << client.status();
  std::this_thread::sleep_for(std::chrono::milliseconds(5 * 20));
  dog.CheckNow();
  std::string body, ctype;
  EXPECT_EQ(ep.HandleRoute("/healthz", body, ctype), 200) << body;
  EXPECT_EQ(body.rfind("ok", 0), 0u) << body;
  EXPECT_EQ(dog.stalled_count(), 0u);

  if (client.ok()) {
    EXPECT_TRUE((*client)->Finish().ok());
  } else {
    server.Shutdown();
  }
  drain.join();
}

TEST(HttpEndpointTest, ServesOverLoopbackSocket) {
  MetricsRegistry registry;
  registry.counter("net.traces_in")->Inc(77);
  HttpEndpoint::Options ho;
  ho.registry = &registry;
  HttpEndpoint ep(ho);
  ASSERT_TRUE(ep.Start().ok());
  ASSERT_NE(ep.port(), 0);

  std::string resp = HttpGet(ep.port(), "/metrics");
  ASSERT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
  size_t body_at = resp.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  PromParse p = ParsePrometheus(resp.substr(body_at + 4));
  EXPECT_TRUE(p.errors.empty()) << JoinErrors(p);
  bool found = false;
  for (const PromSample& s : p.samples) {
    if (s.name == "leopard_net_traces_in") {
      found = true;
      EXPECT_EQ(s.value, 77);
    }
  }
  EXPECT_TRUE(found);

  EXPECT_NE(HttpGet(ep.port(), "/nope").find("404"), std::string::npos);
  EXPECT_GE(ep.requests_served(), 2u);
  ep.Stop();
}

// Stop() wakes the acceptor out of its blocking accept(): a server that has
// sent its report must not linger for an accept-poll period before exit.
TEST(HttpEndpointTest, StopReturnsWithoutWaitingOutTheAcceptPoll) {
  MetricsRegistry registry;
  HttpEndpoint::Options ho;
  ho.registry = &registry;
  std::vector<std::chrono::steady_clock::duration> took;
  for (int i = 0; i < 10; ++i) {
    HttpEndpoint ep(ho);
    ASSERT_TRUE(ep.Start().ok());
    // Let the acceptor enter accept() first.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto start = std::chrono::steady_clock::now();
    ep.Stop();
    took.push_back(std::chrono::steady_clock::now() - start);
  }
  std::sort(took.begin(), took.end());
  EXPECT_LT(took[took.size() / 2], std::chrono::milliseconds(50));
}

// ---------------------------------------------------------------------------
// Wire-version matrix: only a v3 session carries the batch ingest
// timestamp, so stage.ingest_to_read_ns must populate for v3 and stay
// empty when either side pins v1/v2 — while verification results stay
// identical.

void RunVersionedSession(uint32_t wire_version, MetricsRegistry& registry) {
  net::VerifierServer::Options so;
  so.expected_sessions = 1;
  so.metrics = &registry;
  net::VerifierServer server(
      ConfigForMiniDb(Protocol::kMvcc2plSsi, IsolationLevel::kSerializable),
      so);
  ASSERT_TRUE(server.Start().ok());
  // WaitReport() is what drains the run and sends the BYE the client's
  // Finish() blocks on, so it must run concurrently.
  std::thread drain([&server] { server.WaitReport(); });

  net::VerifierClient::Options co;
  co.batch_traces = 32;
  co.wire_version = wire_version;
  auto client = net::VerifierClient::Connect(
      "127.0.0.1:" + std::to_string(server.port()), co);
  ASSERT_TRUE(client.ok()) << client.status();
  History h = BuildSerialHistory(/*seed=*/21, /*txn_count=*/60);
  for (Trace& t : h.traces) {
    ASSERT_TRUE((*client)->Push(0, std::move(t)).ok());
  }
  auto bye = (*client)->Finish();
  EXPECT_TRUE(bye.ok()) << bye.status();
  drain.join();
  const VerifyReport& report = server.WaitReport();
  EXPECT_EQ(report.stats.TotalViolations(), 0u);
  EXPECT_GT(server.traces_received(), 0u);
}

TEST(WireVersionMatrixTest, V3PopulatesIngestStageHistogram) {
  MetricsRegistry registry;
  RunVersionedSession(3, registry);
  EXPECT_GT(registry.histogram("stage.ingest_to_read_ns")->Count(), 0u);
}

TEST(WireVersionMatrixTest, V2AndV1InteropWithoutIngestStamps) {
  for (uint32_t version : {2u, 1u}) {
    MetricsRegistry registry;
    RunVersionedSession(version, registry);
    EXPECT_EQ(registry.histogram("stage.ingest_to_read_ns")->Count(), 0u)
        << "wire v" << version << " must not carry the v3 ingest tail";
  }
}

}  // namespace
}  // namespace obs
}  // namespace leopard
