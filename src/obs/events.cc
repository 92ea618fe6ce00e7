#include "obs/events.h"

#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <fcntl.h>
#include <thread>
#include <unistd.h>

#include "obs/export.h"
#include "obs/metrics.h"

namespace leopard {
namespace obs {

const char* EventSeverityName(EventSeverity s) {
  switch (s) {
    case EventSeverity::kInfo:
      return "info";
    case EventSeverity::kWarn:
      return "warn";
    case EventSeverity::kError:
      return "error";
  }
  return "unknown";
}

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

void CopyTruncated(char* dst, size_t dst_size, const char* src) {
  size_t i = 0;
  for (; src != nullptr && src[i] != '\0' && i + 1 < dst_size; ++i) {
    dst[i] = src[i];
  }
  dst[i] = '\0';
}

}  // namespace

EventJournal::EventJournal(size_t capacity)
    : capacity_(RoundUpPow2(capacity)),
      mask_(capacity_ - 1),
      slots_(capacity_) {}

EventJournal::~EventJournal() = default;

void EventJournal::Record(EventSeverity severity, const char* component,
                          const char* message) {
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & mask_];
  const uint64_t published = 2 * (seq + 1);
  uint64_t v = slot.version.load(std::memory_order_acquire);
  for (;;) {
    // A newer event (one lap ahead) claimed or published the slot: ours is
    // already out of the window, so give the slot up.
    if (v >= published) return;
    // The event one lap behind is still being written: wait for it.
    if (v & 1) {
      std::this_thread::yield();
      v = slot.version.load(std::memory_order_acquire);
      continue;
    }
    if (slot.version.compare_exchange_weak(v, published - 1,
                                           std::memory_order_acquire)) {
      break;
    }
  }
  uint64_t text[kTextWords] = {};
  char* bytes = reinterpret_cast<char*>(text);
  bytes[0] = static_cast<char>(severity);
  CopyTruncated(bytes + 1, sizeof(Event::component), component);
  CopyTruncated(bytes + 1 + sizeof(Event::component), sizeof(Event::message),
                message);
  // Release stores order the in-progress version before the payload: a
  // reader that sees any payload word sees the odd version on its re-check.
  slot.ts_ns.store(NowNs(), std::memory_order_release);
  for (size_t i = 0; i < kTextWords; ++i) {
    slot.text[i].store(text[i], std::memory_order_release);
  }
  slot.version.store(published, std::memory_order_release);
}

bool EventJournal::ReadEvent(uint64_t seq, Event& out) const {
  const Slot& slot = slots_[seq & mask_];
  const uint64_t published = 2 * (seq + 1);
  if (slot.version.load(std::memory_order_acquire) != published) return false;
  uint64_t text[kTextWords];
  const uint64_t ts_ns = slot.ts_ns.load(std::memory_order_acquire);
  for (size_t i = 0; i < kTextWords; ++i) {
    text[i] = slot.text[i].load(std::memory_order_acquire);
  }
  if (slot.version.load(std::memory_order_relaxed) != published) return false;
  const char* bytes = reinterpret_cast<const char*>(text);
  out.seq = seq;
  out.ts_ns = ts_ns;
  out.severity = static_cast<EventSeverity>(bytes[0]);
  std::memcpy(out.component, bytes + 1, sizeof(out.component));
  std::memcpy(out.message, bytes + 1 + sizeof(out.component),
              sizeof(out.message));
  out.component[sizeof(out.component) - 1] = '\0';
  out.message[sizeof(out.message) - 1] = '\0';
  return true;
}

void EventJournal::Recordf(EventSeverity severity, const char* component,
                           const char* fmt, ...) {
  char buf[sizeof(Event{}.message)];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  Record(severity, component, buf);
}

std::vector<Event> EventJournal::Snapshot(size_t max_n) const {
  uint64_t end = next_seq_.load(std::memory_order_acquire);
  uint64_t window = max_n < capacity_ ? max_n : capacity_;
  uint64_t begin = end > window ? end - window : 0;
  std::vector<Event> out;
  out.reserve(static_cast<size_t>(end - begin));
  for (uint64_t seq = begin; seq < end; ++seq) {
    Event e;
    if (ReadEvent(seq, e)) out.push_back(e);
  }
  return out;
}

std::string EventJournal::ToJson(size_t max_n) const {
  std::vector<Event> events = Snapshot(max_n);
  std::string out = "[";
  bool first = true;
  for (const Event& e : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"seq\":" + std::to_string(e.seq);
    out += ",\"ts_ns\":" + std::to_string(e.ts_ns);
    out += ",\"severity\":\"";
    out += EventSeverityName(e.severity);
    out += "\",\"component\":\"" + JsonEscape(e.component);
    out += "\",\"message\":\"" + JsonEscape(e.message) + "\"}";
  }
  out += "]";
  return out;
}

// ---------------------------------------------------------------------------
// Fatal-signal dump. Everything below must stay async-signal-safe: write(2),
// open(2), close(2) only — no printf, no allocation, no locks.

namespace {

const EventJournal* g_fatal_journal = nullptr;
char g_fatal_path[256] = {0};
const int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGABRT};

void WriteStr(int fd, const char* s) {
  size_t n = 0;
  while (s[n] != '\0') ++n;
  ssize_t ignored = write(fd, s, n);
  (void)ignored;
}

void WriteU64(int fd, uint64_t v) {
  char buf[21];
  int i = sizeof(buf);
  buf[--i] = '\0';
  do {
    buf[--i] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  WriteStr(fd, buf + i);
}

}  // namespace

// Not in the anonymous namespace: declared a friend so it can walk the ring
// directly without going through std::vector-allocating Snapshot().
void FatalDumpLocked(int fd, const EventJournal* j, bool json) {
  if (json) WriteStr(fd, "[");
  uint64_t end = j->next_seq_.load(std::memory_order_acquire);
  uint64_t begin = end > j->capacity_ ? end - j->capacity_ : 0;
  bool first = true;
  for (uint64_t seq = begin; seq < end; ++seq) {
    Event e;
    if (!j->ReadEvent(seq, e)) continue;
    if (json) {
      if (!first) WriteStr(fd, ",");
      WriteStr(fd, "{\"seq\":");
      WriteU64(fd, e.seq);
      WriteStr(fd, ",\"ts_ns\":");
      WriteU64(fd, e.ts_ns);
      WriteStr(fd, ",\"severity\":\"");
      WriteStr(fd, EventSeverityName(e.severity));
      WriteStr(fd, "\",\"component\":\"");
      WriteStr(fd, e.component);  // components/messages are internal
      WriteStr(fd, "\",\"message\":\"");
      WriteStr(fd, e.message);  // strings; no quotes to escape
      WriteStr(fd, "\"}");
    } else {
      WriteStr(fd, "[event ");
      WriteU64(fd, e.seq);
      WriteStr(fd, "] ");
      WriteStr(fd, EventSeverityName(e.severity));
      WriteStr(fd, " ");
      WriteStr(fd, e.component);
      WriteStr(fd, ": ");
      WriteStr(fd, e.message);
      WriteStr(fd, "\n");
    }
    first = false;
  }
  if (json) WriteStr(fd, "]\n");
}

namespace {

void FatalSignalHandler(int signo) {
  if (g_fatal_journal != nullptr) {
    WriteStr(2, "\n[leopard] fatal signal ");
    WriteU64(2, static_cast<uint64_t>(signo));
    WriteStr(2, "; event journal (oldest first):\n");
    FatalDumpLocked(2, g_fatal_journal, /*json=*/false);
    if (g_fatal_path[0] != '\0') {
      int fd = open(g_fatal_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        FatalDumpLocked(fd, g_fatal_journal, /*json=*/true);
        close(fd);
      }
    }
  }
  std::signal(signo, SIG_DFL);
  raise(signo);
}

}  // namespace

void EventJournal::InstallFatalDump(const EventJournal* journal,
                                    const std::string& path) {
  g_fatal_journal = journal;
  size_t n = path.size() < sizeof(g_fatal_path) - 1 ? path.size()
                                                    : sizeof(g_fatal_path) - 1;
  std::memcpy(g_fatal_path, path.data(), n);
  g_fatal_path[n] = '\0';
  for (int signo : kFatalSignals) {
    std::signal(signo, journal == nullptr ? SIG_DFL : FatalSignalHandler);
  }
}

}  // namespace obs
}  // namespace leopard
