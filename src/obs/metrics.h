#ifndef LEOPARD_OBS_METRICS_H_
#define LEOPARD_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

namespace leopard {
namespace obs {

/// Monotonic nanosecond timestamp used by all timing metrics (steady clock,
/// same time base as MonotonicClock so spans and traces are comparable).
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonically increasing event count. All operations are relaxed atomics:
/// increments from any thread never contend on a lock, and readers (the
/// progress reporter, exporters) observe a recent — not necessarily
/// instantaneous — value, which is all observability needs.
class Counter {
 public:
  void Inc(uint64_t delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  /// Overwrites the count. Intended for mirroring an externally-accumulated
  /// total (e.g. VerifierStats fields) into the registry, so exported values
  /// match the authoritative struct exactly.
  void Store(uint64_t value) { v_.store(value, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Instantaneous level (queue depth, live transactions, bytes). Tracks a
/// high-water mark alongside the current value.
///
/// Ordering contract: all operations are relaxed. Set() racing with Add()
/// can lose the delta (last store wins) — metrics use either Set (mirroring
/// an authoritative value) or Add (owning the level), never both on the same
/// gauge. Value() and Max() are read independently, so a reader can observe
/// Value() > Max() transiently while UpdateMax's CAS is in flight; exporters
/// tolerate this (both reads are individually valid recent values).
class Gauge {
 public:
  void Set(int64_t value) {
    v_.store(value, std::memory_order_relaxed);
    UpdateMax(value);
  }
  void Add(int64_t delta) {
    int64_t now = v_.fetch_add(delta, std::memory_order_relaxed) + delta;
    UpdateMax(now);
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  int64_t Max() const { return max_.load(std::memory_order_relaxed); }

 private:
  void UpdateMax(int64_t candidate) {
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !max_.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
    }
  }
  std::atomic<int64_t> v_{0};
  std::atomic<int64_t> max_{0};
};

/// Fixed-bucket latency histogram: 64 log2 buckets at nanosecond resolution.
/// Bucket 0 holds the value 0; bucket i (i >= 1) holds [2^(i-1), 2^i).
/// Recording is wait-free (one relaxed fetch_add per value plus min/max
/// maintenance); percentile extraction interpolates linearly inside the
/// winning bucket and clamps to the observed min/max, so a histogram holding
/// a single value reports that exact value at every percentile.
///
/// Ordering contract: Record() updates min/max, then the bucket (release),
/// then count and sum (relaxed), so a concurrent Snap() can observe any
/// prefix of an in-flight Record. Snap() therefore reads the buckets first
/// and derives `count` from their sum, guaranteeing `count == sum(buckets)`
/// in every snapshot (the invariant cumulative-bucket consumers like the
/// Prometheus exporter need). Its bucket loads acquire, so every record a
/// snapshot counts has its min/max visible: `min_ns <= max_ns` whenever
/// `count > 0`. `sum_ns` may lag or lead the buckets by the in-flight
/// records; mean/percentiles are approximate under concurrency and exact
/// once writers quiesce.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(uint64_t value_ns) {
    UpdateMin(value_ns);
    UpdateMax(value_ns);
    buckets_[BucketIndex(value_ns)].fetch_add(1, std::memory_order_release);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value_ns, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t SumNs() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t MinNs() const {
    uint64_t m = min_.load(std::memory_order_relaxed);
    return m == UINT64_MAX ? 0 : m;
  }
  uint64_t MaxNs() const { return max_.load(std::memory_order_relaxed); }
  double MeanNs() const {
    uint64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(SumNs()) / static_cast<double>(n);
  }

  /// Value at percentile `p` in [0, 100]. Approximate under concurrent
  /// recording (bucket counts are read individually), exact bucket-wise for a
  /// quiescent histogram.
  double PercentileNs(double p) const;

  static int BucketIndex(uint64_t value_ns) {
    if (value_ns == 0) return 0;
    int idx = 64 - __builtin_clzll(value_ns);  // bit_width
    return idx >= kBuckets ? kBuckets - 1 : idx;
  }
  /// Inclusive lower bound of bucket `i`.
  static uint64_t BucketLowerNs(int i) {
    return i == 0 ? 0 : 1ULL << (i - 1);
  }
  /// Exclusive upper bound of bucket `i`.
  static uint64_t BucketUpperNs(int i) {
    return i == 0 ? 1 : (i >= kBuckets - 1 ? UINT64_MAX : 1ULL << i);
  }

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum_ns = 0;
    uint64_t min_ns = 0;
    uint64_t max_ns = 0;
    std::array<uint64_t, kBuckets> buckets{};
  };
  Snapshot Snap() const;

 private:
  void UpdateMin(uint64_t v) {
    uint64_t seen = min_.load(std::memory_order_relaxed);
    while (v < seen && !min_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }
  void UpdateMax(uint64_t v) {
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen && !max_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// Append-only time series of (timestamp, value) samples — the export shape
/// for periodically-sampled gauges (queue depth over time, throughput over
/// time). Mutex-protected: appends happen at reporting cadence (hz, not
/// mhz), never on a verification hot path.
class Series {
 public:
  struct Point {
    uint64_t t_ns = 0;
    double value = 0;
  };

  void Append(uint64_t t_ns, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    points_.push_back(Point{t_ns, value});
  }
  std::vector<Point> Snap() const {
    std::lock_guard<std::mutex> lock(mu_);
    return points_;
  }
  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return points_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Point> points_;
};

}  // namespace obs
}  // namespace leopard

#endif  // LEOPARD_OBS_METRICS_H_
