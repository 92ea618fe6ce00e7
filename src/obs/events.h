#ifndef LEOPARD_OBS_EVENTS_H_
#define LEOPARD_OBS_EVENTS_H_

// Fixed-size lock-free event journal (DESIGN: live introspection).
//
// The verifier runs for days; when something goes wrong the interesting
// question is "what state transitions led here?", not "what is the counter
// value now?". The journal is a ring of the last N discrete events (session
// open/close, shard stall, backpressure engage/release, GC advance,
// violation, diagnosis start/done). Writers take one fetch_add and one CAS;
// payloads are fixed-size char arrays so recording never allocates and is
// safe from latency-sensitive pipeline threads.
//
// Concurrency: each slot carries a seqlock-style version naming the event
// that owns it. A writer claims a global sequence number with fetch_add,
// then claims the slot by CAS-ing its version to "seq, in progress" (odd),
// fills the payload, and publishes "seq, done" (even). Two writers one ring
// apart map to the same slot; only the newer event may end up there. A
// writer that finds a newer event's version in the slot has been lapped and
// gives the slot up; one that finds an older event still in progress waits
// for it to publish (this only happens when capacity() events are recorded
// while one writer fills its slot). So at most one writer ever stores a
// slot's payload at a time. The payload is stored and loaded with
// release/acquire atomics, and readers (the HTTP endpoint, the fatal-signal dump) keep a
// copy only if the slot held their event's published version before and
// after the copy — a torn slot is dropped, never half-reported.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace leopard {
namespace obs {

enum class EventSeverity : uint8_t { kInfo = 0, kWarn = 1, kError = 2 };

const char* EventSeverityName(EventSeverity s);

/// One published journal entry, as seen by readers.
struct Event {
  uint64_t seq = 0;    // global sequence number, 0-based, never reused
  uint64_t ts_ns = 0;  // obs::NowNs() at record time
  EventSeverity severity = EventSeverity::kInfo;
  char component[24] = {0};  // e.g. "net.session3", "shard1.worker"
  char message[104] = {0};   // truncated, always NUL-terminated
};

class EventJournal {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8).
  explicit EventJournal(size_t capacity = 1024);
  ~EventJournal();

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Wait-free and allocation-free; safe from any thread. `component` and
  /// `message` are truncated to the Event field sizes.
  void Record(EventSeverity severity, const char* component,
              const char* message);

  /// Printf-style convenience; formats into a stack buffer (no allocation).
  void Recordf(EventSeverity severity, const char* component, const char* fmt,
               ...) __attribute__((format(printf, 4, 5)));

  /// The most recent (up to) `max_n` events, oldest first. Slots that are
  /// mid-write or overwritten during the copy are skipped.
  std::vector<Event> Snapshot(size_t max_n) const;

  /// Snapshot rendered as a JSON array (used by /statusz?events=N).
  std::string ToJson(size_t max_n) const;

  /// Total events ever recorded (>= capacity means older ones were dropped).
  uint64_t total_recorded() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }

  /// Installs SIGSEGV/SIGBUS/SIGFPE/SIGABRT handlers that dump the journal
  /// to stderr and (if `path` is non-empty) to a JSON file using only
  /// async-signal-safe calls, then re-raise with the default disposition.
  /// One journal per process; a second call replaces the first.
  static void InstallFatalDump(const EventJournal* journal,
                               const std::string& path);

 private:
  /// Severity, component and message, packed into 8-byte words.
  static constexpr size_t kTextWords =
      (1 + sizeof(Event::component) + sizeof(Event::message) + 7) / 8;

  struct Slot {
    // 2 * (seq + 1) once event `seq` is published here, one less while its
    // writer fills the payload; 0 = never written.
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> text[kTextWords] = {};
  };

  /// Copies event `seq` out of its slot; false when the slot holds another
  /// event, is mid-write, or was overwritten during the copy.
  /// Async-signal-safe.
  bool ReadEvent(uint64_t seq, Event& out) const;

  friend void FatalDumpLocked(int fd, const EventJournal* j, bool json);

  size_t capacity_;  // power of two
  size_t mask_;
  std::vector<Slot> slots_;
  std::atomic<uint64_t> next_seq_{0};
};

}  // namespace obs
}  // namespace leopard

#endif  // LEOPARD_OBS_EVENTS_H_
