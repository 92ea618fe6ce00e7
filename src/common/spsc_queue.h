#ifndef LEOPARD_COMMON_SPSC_QUEUE_H_
#define LEOPARD_COMMON_SPSC_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace leopard {

/// Bounded single-producer/single-consumer queue: a Lamport ring buffer with
/// acquire/release index publication.
///
/// Contract: exactly one thread calls Push, and at most one thread at a
/// time acts as the consumer (TryPop/Front/PopFront). The consumer role may
/// be handed between threads provided the handoff synchronizes (the sharded
/// verifier's work-stealing workers serialize it through a per-shard
/// acquire/release claim flag, which also publishes the consumer-local tail
/// cache).
///
/// Push blocks when the ring is full — that back-pressure is what bounds the
/// sharded verifier's memory — and a blocked producer sleeps on a condition
/// variable instead of spinning. It raises `producer_parked_`, fences and
/// re-reads the head before it waits; the consumer fences and reads the flag
/// once every capacity/2 pops. The ring was full when the producer parked,
/// so the consumer passes such a check within capacity/2 further pops and
/// no wake-up is lost, while one wake-up hands the producer up to half a
/// ring. Poison() is the shutdown escape from a dead or wedged consumer:
/// any thread may call it, after which a full-ring Push gives up and returns
/// false instead of waiting for space that will never come.
template <typename T>
class SpscQueue {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit SpscQueue(size_t capacity = 4096) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    ring_.resize(cap);
    mask_ = cap - 1;
    wake_mask_ = cap / 2 - 1;
  }
  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side. Blocks while the ring is full; returns false (dropping
  /// `item`) if the queue was poisoned before a slot freed up. A push that
  /// finds space proceeds even when poisoned — the element is already
  /// bought and the consumer may still drain.
  bool Push(T item) {
    return Push(std::move(item), [] {});
  }

  /// Push, with `on_full` run once before the producer sleeps on a full
  /// ring: the place to wake a consumer that may itself be asleep.
  template <typename OnFull>
  bool Push(T item, OnFull&& on_full) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) {
        on_full();
        if (!WaitForSpace(tail)) return false;
      }
    }
    ring_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Shutdown escape: unblocks a producer stuck in Push on a full ring
  /// (future full-ring pushes fail fast too). Elements already in the ring
  /// stay poppable. Safe from any thread; irreversible.
  void Poison() {
    poisoned_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(park_mu_);
    space_cv_.notify_one();
  }

  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  /// Consumer side. Returns false when the ring is empty.
  bool TryPop(T& out) {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(ring_[head & mask_]);
    Advance(head);
    return true;
  }

  /// Consumer side: peek at the head element without consuming it. Returns
  /// nullptr when the ring is empty. The pointer stays valid until the next
  /// PopFront/TryPop. The sharded verifier's workers use this to *defer* a
  /// message they cannot process yet (a key-migration install whose state
  /// bundle has not been deposited) without losing their place in the
  /// queue's FIFO order — popping and re-pushing would break the per-key
  /// ordering the certifier relies on.
  T* Front() {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return nullptr;
    }
    return &ring_[head & mask_];
  }

  /// Consumer side: consumes the element last returned by Front(). Must only
  /// be called after a non-null Front() with no interleaving TryPop.
  void PopFront() {
    const size_t head = head_.load(std::memory_order_relaxed);
    ring_[head & mask_] = T();
    Advance(head);
  }

  /// Approximate occupancy; safe from any thread (monitoring, and the
  /// sharded verifier's has-work checks before a thread sleeps).
  size_t ApproxSize() const {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? tail - head : 0;
  }

  size_t capacity() const { return mask_ + 1; }

 private:
  void Advance(size_t head) {
    head_.store(head + 1, std::memory_order_release);
    if (((head + 1) & wake_mask_) != 0) return;
    // Pairs with the fence in WaitForSpace: either this load sees the
    // producer parked, or the producer's head re-read sees this pop.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (producer_parked_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(park_mu_);
      space_cv_.notify_one();
    }
  }

  bool WaitForSpace(size_t tail) {
    std::unique_lock<std::mutex> lock(park_mu_);
    producer_parked_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    bool ok = true;
    while (tail - (head_cache_ = head_.load(std::memory_order_acquire)) >
           mask_) {
      if (poisoned_.load(std::memory_order_acquire)) {
        ok = false;
        break;
      }
      space_cv_.wait(lock);
    }
    producer_parked_.store(false, std::memory_order_relaxed);
    return ok;
  }

  // Producer and consumer indices live on separate cache lines so the two
  // threads never false-share; each side caches the other's index to avoid
  // touching the shared line on every call.
  alignas(64) std::atomic<size_t> tail_{0};  // producer writes
  alignas(64) size_t head_cache_ = 0;        // producer-local
  alignas(64) std::atomic<size_t> head_{0};  // consumer writes
  alignas(64) size_t tail_cache_ = 0;        // consumer-local
  std::vector<T> ring_;
  size_t mask_ = 0;
  size_t wake_mask_ = 0;  // consumer checks for a parked producer when
                          // (head & wake_mask_) == 0

  alignas(64) std::atomic<bool> producer_parked_{false};
  std::atomic<bool> poisoned_{false};
  std::mutex park_mu_;
  std::condition_variable space_cv_;
};

}  // namespace leopard

#endif  // LEOPARD_COMMON_SPSC_QUEUE_H_
