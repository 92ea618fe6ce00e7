// One loopback pass: a fresh leopard_serve child, one VerifierClient
// connection pushing the whole corpus from one thread, the verdict check
// against the reference, and the child reaped with wait4() for its peak
// RSS.

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "leobench.h"
#include "net/client.h"
#include "obs/metrics.h"

namespace leobench {

using namespace leopard;

namespace {

constexpr double kPortWaitSeconds = 20;
constexpr double kReapSeconds = 20;
/// Closed-loop passes read the clock once per this many pushes.
constexpr size_t kBlock = 256;
/// Closed-loop passes send their first this many batches one at a time,
/// each waiting for its kBatchAck: the round trips are the latency samples.
constexpr size_t kProbeBatches = 128;
/// Shortest sleep of the open-loop pusher between bursts.
constexpr uint64_t kPaceQuantumNs = 100000;
/// The gap between connect and first push is spread over the server's poll
/// period (kPollMs in src/net/server.cc, read by CMakeLists.txt; see
/// RunPass), so the periodic poll is sampled at every phase.
constexpr double kDitherMs = LEOBENCH_POLL_MS;

}  // namespace

// --- Launcher ---------------------------------------------------------
//
// Servers are forked by a small helper process that is itself forked before
// the corpus is generated. A child forked straight from the benchmark would
// share the benchmark's pages until exec, and wait4()'s ru_maxrss keeps that
// pre-exec peak: it would report the benchmark's memory, not the server's.
//
// Requests (benchmark -> helper) are lines "cwd\tout\targ0\targ1...";
// replies are lines "P <pid>" (spawned, or -1) and "E <pid> <status>
// <maxrss_kb>" (a child exited). On end of input the helper kills and reaps
// every child still running, then exits.

namespace {

struct LauncherState {
  pid_t helper = -1;
  int req_fd = -1;
  int rep_fd = -1;
  std::string rep_buf;
  struct Exit {
    int status = 0;
    long rss_kb = 0;
  };
  std::map<pid_t, Exit> exits;
};
LauncherState g_launcher;

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

std::vector<std::string> Split(const std::string& line, char sep) {
  std::vector<std::string> out(1);
  for (char c : line) {
    if (c == sep) {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

[[noreturn]] void HelperMain(int req_fd, int rep_fd) {
  std::set<pid_t> kids;
  std::string buf;
  bool open_input = true;
  while (open_input) {
    int status = 0;
    struct rusage ru;
    pid_t pid;
    while ((pid = wait4(-1, &status, WNOHANG, &ru)) > 0) {
      kids.erase(pid);
      WriteAll(rep_fd, "E " + std::to_string(pid) + " " +
                           std::to_string(status) + " " +
                           std::to_string(ru.ru_maxrss) + "\n");
    }
    struct pollfd pfd = {req_fd, POLLIN, 0};
    if (poll(&pfd, 1, 1) <= 0) continue;
    char tmp[4096];
    ssize_t n = read(req_fd, tmp, sizeof(tmp));
    if (n <= 0) break;
    buf.append(tmp, static_cast<size_t>(n));
    size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::vector<std::string> f = Split(buf.substr(0, nl), '\t');
      buf.erase(0, nl + 1);
      pid_t child = -1;
      if (f.size() >= 3) {
        std::vector<char*> argv;
        for (size_t i = 2; i < f.size(); ++i) argv.push_back(f[i].data());
        argv.push_back(nullptr);
        child = fork();
        if (child == 0) {
          int fd = open(f[1].c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
          if (fd < 0 || chdir(f[0].c_str()) != 0) _exit(127);
          dup2(fd, 1);
          dup2(fd, 2);
          close(fd);
          execv(argv[0], argv.data());
          _exit(127);
        }
        if (child > 0) kids.insert(child);
      }
      WriteAll(rep_fd, "P " + std::to_string(child) + "\n");
    }
  }
  for (pid_t kid : kids) kill(kid, SIGKILL);
  while (wait(nullptr) > 0) {
  }
  _exit(0);
}

/// Reads helper replies for up to `timeout_ms` (-1 = block) and files them;
/// returns the pid of a "P" reply, 0 when none arrived, -2 on a dead pipe.
pid_t ReadReplies(int timeout_ms) {
  LauncherState& L = g_launcher;
  struct pollfd pfd = {L.rep_fd, POLLIN, 0};
  if (poll(&pfd, 1, timeout_ms) <= 0) return 0;
  char tmp[4096];
  ssize_t n = read(L.rep_fd, tmp, sizeof(tmp));
  if (n <= 0) return -2;
  L.rep_buf.append(tmp, static_cast<size_t>(n));
  pid_t spawned = 0;
  size_t nl;
  while ((nl = L.rep_buf.find('\n')) != std::string::npos) {
    std::vector<std::string> f = Split(L.rep_buf.substr(0, nl), ' ');
    L.rep_buf.erase(0, nl + 1);
    if (f[0] == "P" && f.size() == 2) {
      spawned = std::atoi(f[1].c_str());
      if (spawned == 0) spawned = -1;
    } else if (f[0] == "E" && f.size() == 4) {
      L.exits[std::atoi(f[1].c_str())] = {std::atoi(f[2].c_str()),
                                          std::atol(f[3].c_str())};
    }
  }
  return spawned;
}

pid_t LauncherSpawn(const std::vector<std::string>& args,
                    const std::string& cwd, const std::string& out_path) {
  std::string line = cwd + "\t" + out_path;
  for (const std::string& a : args) line += "\t" + a;
  if (g_launcher.req_fd < 0 || !WriteAll(g_launcher.req_fd, line + "\n")) {
    return -1;
  }
  while (true) {
    pid_t got = ReadReplies(-1);
    if (got == -2) return -1;
    if (got != 0) return got;
  }
}

bool LauncherReap(pid_t pid, double seconds, int& status, long& rss_kb) {
  const double deadline = NowSeconds() + seconds;
  while (true) {
    auto it = g_launcher.exits.find(pid);
    if (it != g_launcher.exits.end()) {
      status = it->second.status;
      rss_kb = it->second.rss_kb;
      g_launcher.exits.erase(it);
      return true;
    }
    const double left = deadline - NowSeconds();
    if (left <= 0 || ReadReplies(static_cast<int>(left * 1e3) + 1) == -2) {
      return false;
    }
  }
}

}  // namespace

bool StartLauncher() {
  int req[2], rep[2];
  if (pipe(req) != 0) return false;
  if (pipe(rep) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(req[1]);
    close(rep[0]);
    HelperMain(req[0], rep[1]);
  }
  close(req[0]);
  close(rep[1]);
  g_launcher.helper = pid;
  g_launcher.req_fd = req[1];
  g_launcher.rep_fd = rep[0];
  return true;
}

void StopLauncher() {
  if (g_launcher.helper <= 0) return;
  close(g_launcher.req_fd);
  close(g_launcher.rep_fd);
  g_launcher.req_fd = g_launcher.rep_fd = -1;
  int status = 0;
  waitpid(g_launcher.helper, &status, 0);
  g_launcher.helper = -1;
}

/// A leopard_serve child. The destructor kills and reaps a child that is
/// still running, so no server outlives its pass.
class Child {
 public:
  Child() = default;
  ~Child() { Kill(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool Spawn(const std::vector<std::string>& args, const std::string& cwd,
             const std::string& out_path) {
    pid_ = LauncherSpawn(args, cwd, out_path);
    return pid_ > 0;
  }

  /// Waits up to `seconds` for the child to exit. True when it exited on
  /// its own; `status` and `rss_kb` (wait4's ru_maxrss) are then filled in.
  bool Reap(double seconds, int& status, long& rss_kb) {
    if (pid_ <= 0 || !LauncherReap(pid_, seconds, status, rss_kb)) {
      return false;
    }
    pid_ = -1;
    return true;
  }

  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    int status = 0;
    long rss_kb = 0;
    LauncherReap(pid_, kReapSeconds, status, rss_kb);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

namespace {

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// Parses the server's summary line "violations cr=A me=B fuw=C sc=D".
bool ParseServerCounts(const std::string& out, Counts& counts) {
  const size_t at = out.rfind("violations cr=");
  if (at == std::string::npos) return false;
  unsigned long long cr = 0, me = 0, fuw = 0, sc = 0;
  if (std::sscanf(out.c_str() + at,
                  "violations cr=%llu me=%llu fuw=%llu sc=%llu", &cr, &me,
                  &fuw, &sc) != 4) {
    return false;
  }
  counts = {cr, me, fuw, sc};
  return true;
}

std::string CountsString(const Counts& c) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "cr=%llu me=%llu fuw=%llu sc=%llu",
                static_cast<unsigned long long>(c[0]),
                static_cast<unsigned long long>(c[1]),
                static_cast<unsigned long long>(c[2]),
                static_cast<unsigned long long>(c[3]));
  return buf;
}

}  // namespace

void ChildDeleter::operator()(Child* child) const { delete child; }

PassResult RunPass(const Spec& spec, const Corpus& corpus, const Env& env,
                   int pass_id, bool traced) {
  PassResult r;
  const size_t n = corpus.traces.size();
  r.pushed = n;
  const std::string dir = env.scratch + "/pass" + std::to_string(pass_id);
  RemoveTree(dir);
  mkdir(dir.c_str(), 0755);
  const std::string port_file = dir + "/port";
  std::vector<std::string> args = {
      env.serve_bin,      "--port=0",
      "--port-file=" + port_file,
      "--expect-clients=1",
      "--shards=" + std::to_string(spec.shards),
      "--protocol=pg",    "--isolation=ser"};
  if (spec.durable) {
    args.push_back("--state-dir=" + dir + "/state");
    args.push_back("--checkpoint-every-traces=" +
                   std::to_string(spec.checkpoint_every));
    // Checkpoints by trace count only: the timer never fires in a pass.
    args.push_back("--checkpoint-interval-ms=3600000");
  }
  // Push consumes its trace: copy the corpus before anything is timed.
  std::vector<Trace> traces(corpus.traces);

  auto fail = [&](std::string why) {
    r.ok = false;
    r.error = std::move(why);
    return std::move(r);
  };

  std::unique_ptr<Child, ChildDeleter> child(new Child);
  const double spawn_t = NowSeconds();
  if (!child->Spawn(args, dir, dir + "/serve.out")) return fail("fork failed");
  int port = 0;
  while (true) {
    std::string text;
    if (ReadFile(port_file, text) && !text.empty() && text.back() == '\n') {
      port = std::atoi(text.c_str());
      break;
    }
    if (NowSeconds() - spawn_t > kPortWaitSeconds) {
      return fail("leopard_serve wrote no port file");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  r.start_s = NowSeconds() - spawn_t;

  net::VerifierClient::Options co;
  co.n_streams = kClients;
  auto connected =
      net::VerifierClient::Connect("127.0.0.1:" + std::to_string(port), co);
  if (!connected.ok()) {
    return fail("connect: " + connected.status().ToString());
  }
  net::VerifierClient& client = **connected;

  // The server's accept loop polls on a fixed period that starts when this
  // connection is accepted, and the report waits for the poll to return.
  // Left alone, every pass would finish at the same phase of that period
  // and the wait would flip between ~0 and a whole period as pass length
  // drifts. A golden-ratio sequence seeded by --seed spreads the
  // (untimed) connect-to-first-push gap evenly over the period instead.
  const double phase = std::fmod(0.7548776662 * (spec.seed % 1000) +
                                     0.6180339887 * pass_id, 1.0);
  std::this_thread::sleep_for(std::chrono::microseconds(
      static_cast<int64_t>(phase * kDitherMs * 1e3)));

  const bool paced = spec.rate > 0;
  const double period_ns = paced ? 1e9 / spec.rate : 0;
  std::vector<size_t> pending(kClients, 0);
  uint64_t sent = 0;
  size_t probes = 0;
  size_t seen = 0;             // violations already sampled
  std::vector<uint64_t> block_t;  // closed loop: clock at every kBlock push
  std::vector<double> lag_ms;
  double push_ns = 0;
  uint64_t t0 = obs::NowNs();
  auto due_of = [&](uint32_t pos) -> uint64_t {
    if (paced) return t0 + static_cast<uint64_t>(pos * period_ns);
    return block_t[std::min<size_t>(pos / kBlock, block_t.size() - 1)];
  };
  // Detection latency of every violation the client has received so far:
  // now minus the due time of the latest-due pushed trace of any
  // transaction it names (the moment its evidence was complete).
  auto sample_violations = [&](size_t last_pos, uint64_t now, bool tail) {
    const auto& bugs = client.violations();
    for (; seen < bugs.size(); ++seen) {
      uint64_t due = 0;
      for (TxnId txn : bugs[seen].txns) {
        auto it = corpus.txn_positions.find(txn);
        if (it == corpus.txn_positions.end()) continue;
        auto ub = std::upper_bound(it->second.begin(), it->second.end(),
                                   static_cast<uint32_t>(last_pos));
        if (ub == it->second.begin()) continue;
        due = std::max(due, due_of(*(ub - 1)));
      }
      if (due == 0) continue;
      r.detect_ms.push_back(now > due ? (now - due) / 1e6 : 0.0);
      if (tail) ++r.tail_samples;
    }
  };
  // One Push; when it sends a batch, sample the violations the client
  // drained while sending. A closed-loop probe batch instead waits for its
  // kBatchAck, which the server sends once it has admitted the batch: with
  // nothing else in flight, that round trip (wire, decode, WAL when durable,
  // admission) is the soonest a violation in the batch could surface.
  auto push = [&](size_t i) -> bool {
    const uint32_t s = corpus.stream[i];
    const bool sends = ++pending[s] == co.batch_traces;
    const bool probe = sends && !paced && probes < kProbeBatches;
    const uint64_t sent_ns = probe ? obs::NowNs() : 0;
    if (!client.Push(s, std::move(traces[i])).ok()) return false;
    if (!sends) return true;
    pending[s] = 0;
    sent += co.batch_traces;
    if (probe) {
      ++probes;
      if (!client.WaitForAcked(sent).ok()) return false;
      r.detect_ms.push_back((obs::NowNs() - sent_ns) / 1e6);
    }
    if (client.violations().size() != seen) {
      sample_violations(i, obs::NowNs(), false);
    }
    return true;
  };

  bool pushed_all = true;
  t0 = obs::NowNs();
  if (paced) {
    // Open loop: trace i is due at t0 + i/rate. Every trace already due is
    // pushed in one burst; the clock is read once per burst.
    size_t i = 0;
    uint64_t burst_start = t0;
    while (i < n && pushed_all) {
      uint64_t now = obs::NowNs();
      if (i > 0) {
        push_ns += static_cast<double>(now - burst_start);
        const uint64_t last_due = due_of(static_cast<uint32_t>(i - 1));
        if (traced) {
          lag_ms.push_back(now > last_due ? (now - last_due) / 1e6 : 0.0);
        }
      }
      const uint64_t due = due_of(static_cast<uint32_t>(i));
      if (now < due) {
        // Sleep rather than spin, at least kPaceQuantumNs: the bursts stay
        // short and the pusher leaves the cores to the server.
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::max(due - now, kPaceQuantumNs)));
        now = obs::NowNs();
      }
      burst_start = now;
      do {
        if (!push(i)) pushed_all = false;
        ++i;
      } while (pushed_all && i < n && due_of(static_cast<uint32_t>(i)) <= now);
    }
    push_ns += static_cast<double>(obs::NowNs() - burst_start);
  } else {
    for (size_t i = 0; i < n && pushed_all; ++i) {
      if (i % kBlock == 0) block_t.push_back(obs::NowNs());
      pushed_all = push(i);
    }
    const uint64_t end = obs::NowNs();
    push_ns = static_cast<double>(end - t0);
    if (traced && block_t.size() > 1) {
      // Lag behind a uniform schedule at the pass's own push rate: how far
      // backpressure stalls pushed the generator behind an even pace.
      const double per_trace = static_cast<double>(end - t0) / n;
      for (size_t k = 0; k < block_t.size(); ++k) {
        const double due = t0 + k * kBlock * per_trace;
        const double at = static_cast<double>(block_t[k]);
        lag_ms.push_back(at > due ? (at - due) / 1e6 : 0.0);
      }
    }
  }
  if (!pushed_all) {
    return fail("push failed: " + client.server_error());
  }
  const uint64_t finish_start = obs::NowNs();
  auto bye = client.Finish();
  const uint64_t end = obs::NowNs();
  if (!bye.ok()) return fail("finish: " + bye.status().ToString());
  sample_violations(n - 1, end, true);
  r.seconds = (end - t0) / 1e9;
  r.verified = bye->traces_verified;
  r.push_ns = push_ns / n;
  r.finish_ms = (end - finish_start) / 1e6;
  r.lag_p99_ms = Quantile(lag_ms, 0.99);

  for (const BugDescriptor& bug : client.violations()) {
    ++r.client_counts[static_cast<size_t>(bug.type)];
  }
  r.child = std::move(child);
  r.dir = dir;
  r.ok = true;
  return r;
}

void SettlePass(const Corpus& corpus, PassResult& r) {
  if (r.child == nullptr) return;
  std::unique_ptr<Child, ChildDeleter> child = std::move(r.child);
  if (!r.ok) return;  // the failure is already recorded; the child dies here
  auto fail = [&](std::string why) {
    r.ok = false;
    r.error = std::move(why);
  };
  int status = 0;
  long rss_kb = 0;
  if (!child->Reap(kReapSeconds, status, rss_kb)) {
    return fail("stray leopard_serve killed after BYE");
  }
  r.rss_mb = rss_kb / 1024.0;
  std::string out;
  ReadFile(r.dir + "/serve.out", out);
  RemoveTree(r.dir);

  Counts server{};
  if (!ParseServerCounts(out, server)) return fail("no server summary");
  uint64_t ref_total = 0;
  for (uint64_t c : corpus.ref_violations) ref_total += c;
  if (r.verified != corpus.ref_verified || r.verified != r.pushed) {
    return fail("BYE verified " + std::to_string(r.verified) + " of " +
                std::to_string(r.pushed) + " traces (reference " +
                std::to_string(corpus.ref_verified) + ")");
  }
  if (server != corpus.ref_violations ||
      r.client_counts != corpus.ref_violations) {
    return fail("verdict mismatch: server " + CountsString(server) +
                ", client " + CountsString(r.client_counts) + ", reference " +
                CountsString(corpus.ref_violations));
  }
  const int want_exit = ref_total == 0 ? 0 : 1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != want_exit) {
    return fail("leopard_serve exit status " + std::to_string(status));
  }
}

}  // namespace leobench
