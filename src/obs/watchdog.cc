#include "obs/watchdog.h"

#include <chrono>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/registry.h"

namespace leopard {
namespace obs {

void Watchdog::Slot::Beat() {
  last_beat_ns.store(NowNs(), std::memory_order_relaxed);
}

void Watchdog::Slot::Resume() {
  // Order matters: refresh the heartbeat before clearing `suspended`, or the
  // monitor could observe un-suspended + stale in the gap and false-flag.
  last_beat_ns.store(NowNs(), std::memory_order_relaxed);
  suspended_.store(false, std::memory_order_release);
}

Watchdog::Watchdog(const Options& opts) : opts_(opts) {
  if (opts_.metrics != nullptr) {
    m_stalled_ = opts_.metrics->gauge("verifier.watchdog.stalled");
  }
  if (opts_.check_interval_ms > 0) {
    monitor_ = std::thread([this] { MonitorLoop(); });
  }
}

Watchdog::~Watchdog() { Stop(); }

Watchdog::Slot* Watchdog::Register(const std::string& name) {
  auto slot = std::make_unique<Slot>();
  slot->name_ = name;
  slot->last_beat_ns.store(NowNs(), std::memory_order_relaxed);
  Slot* raw = slot.get();
  std::lock_guard<std::mutex> lock(mu_);
  slots_.push_back(std::move(slot));
  return raw;
}

void Watchdog::Retire(Slot* slot) {
  if (slot != nullptr) slot->retired_.store(true, std::memory_order_release);
}

std::vector<std::string> Watchdog::StalledThreads() const {
  std::vector<std::string> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& slot : slots_) {
    if (slot->flagged) out.push_back(slot->name_);
  }
  return out;
}

void Watchdog::CheckNow() { Sweep(NowNs()); }

void Watchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
}

void Watchdog::MonitorLoop() {
  const auto interval = std::chrono::milliseconds(opts_.check_interval_ms);
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_cv_.wait_for(lock, interval, [this] { return stop_; })) {
    lock.unlock();
    Sweep(NowNs());
    lock.lock();
  }
}

void Watchdog::Sweep(uint64_t now_ns) {
  uint64_t threshold_ns = opts_.stall_threshold_ms * 1000000ull;
  size_t n_stalled = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& slot : slots_) {
    if (slot->retired_.load(std::memory_order_acquire)) {
      slot->flagged = false;
      continue;
    }
    if (slot->suspended_.load(std::memory_order_acquire)) {
      slot->flagged = false;
      continue;
    }
    uint64_t beat = slot->last_beat_ns.load(std::memory_order_relaxed);
    bool stale = now_ns > beat && now_ns - beat > threshold_ns;
    if (stale && !slot->flagged) {
      slot->flagged = true;
      if (opts_.events != nullptr) {
        opts_.events->Recordf(
            EventSeverity::kWarn, "watchdog",
            "thread %s stalled: no heartbeat for %llu ms", slot->name_.c_str(),
            static_cast<unsigned long long>((now_ns - beat) / 1000000ull));
      }
    } else if (!stale && slot->flagged) {
      slot->flagged = false;
      if (opts_.events != nullptr) {
        opts_.events->Recordf(EventSeverity::kInfo, "watchdog",
                              "thread %s recovered", slot->name_.c_str());
      }
    }
    if (slot->flagged) ++n_stalled;
  }
  stalled_.store(n_stalled, std::memory_order_relaxed);
  if (m_stalled_ != nullptr) m_stalled_->Set(static_cast<int64_t>(n_stalled));
}

}  // namespace obs
}  // namespace leopard
