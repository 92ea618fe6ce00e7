#ifndef LEOPARD_OBS_WATCHDOG_H_
#define LEOPARD_OBS_WATCHDOG_H_

// Per-thread heartbeat watchdog (DESIGN: live introspection).
//
// Long-lived pipeline threads (shard workers, the SC certifier, network
// reader threads, the diagnosis worker) register a heartbeat slot and call
// Beat() once per loop iteration — a single relaxed atomic store. A monitor
// thread periodically flags any slot whose heartbeat is older than the stall
// threshold: it records a journal event, bumps the
// `verifier.watchdog.stalled` gauge, and degrades /healthz — turning a
// silently wedged thread into an alarm instead of a mystery.
//
// Threads that legitimately block for unbounded time (waiting on a condvar
// with no work, running a minutes-long diagnosis) wrap the wait in
// Suspend()/Resume() so idleness is not misreported as a stall.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace leopard {
namespace obs {

class EventJournal;
class Gauge;
class MetricsRegistry;

class Watchdog {
 public:
  struct Options {
    uint64_t check_interval_ms = 1000;
    uint64_t stall_threshold_ms = 5000;
    MetricsRegistry* metrics = nullptr;  // optional: verifier.watchdog.*
    EventJournal* events = nullptr;      // optional: stall/recover events
  };

  /// Heartbeat handle owned by the Watchdog; stable address for the
  /// registering thread's lifetime.
  class Slot {
   public:
    /// Refreshes the heartbeat. Wait-free; call once per loop iteration.
    void Beat();
    /// Marks the thread as intentionally idle/blocked — the monitor skips
    /// suspended slots. Resume() also refreshes the heartbeat.
    void Suspend() { suspended_.store(true, std::memory_order_relaxed); }
    void Resume();
    const std::string& name() const { return name_; }

   private:
    friend class Watchdog;
    std::string name_;
    std::atomic<uint64_t> last_beat_ns{0};
    std::atomic<bool> suspended_{false};
    std::atomic<bool> retired_{false};
    bool flagged = false;  // monitor-thread-only state
  };

  explicit Watchdog(const Options& opts);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Registers a heartbeat slot (initially beating now). Thread-safe.
  Slot* Register(const std::string& name);
  /// Marks the slot as gone (its thread exited); the monitor ignores it.
  /// The Slot storage stays valid until the Watchdog is destroyed.
  void Retire(Slot* slot);

  /// Number of currently stalled (flagged) slots — cheap, for /healthz.
  size_t stalled_count() const {
    return stalled_.load(std::memory_order_relaxed);
  }
  /// Names of the currently flagged slots, for /healthz and /statusz bodies.
  std::vector<std::string> StalledThreads() const;

  /// Runs one monitor sweep synchronously (deterministic tests).
  void CheckNow();

  /// Stops the monitor thread. Idempotent; also run by the destructor.
  /// Wakes the monitor out of its check-interval wait, so it returns at
  /// once instead of after up to one interval.
  void Stop();

 private:
  void MonitorLoop();
  void Sweep(uint64_t now_ns);

  Options opts_;
  mutable std::mutex mu_;  // guards slots_ vector growth + StalledThreads
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<size_t> stalled_{0};
  Gauge* m_stalled_ = nullptr;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;  // guarded by stop_mu_
  std::thread monitor_;
};

}  // namespace obs
}  // namespace leopard

#endif  // LEOPARD_OBS_WATCHDOG_H_
