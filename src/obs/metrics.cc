#include "obs/metrics.h"

#include <algorithm>

namespace leopard {
namespace obs {

Histogram::Snapshot Histogram::Snap() const {
  Snapshot s;
  // Read the buckets FIRST and derive the count from their sum. Record()
  // increments the bucket before the count, so a snapshot that read count_
  // directly could observe count < sum(buckets) under concurrent writers —
  // which would make the Prometheus `+Inf` bucket (== count) fall below the
  // last finite cumulative bucket, violating histogram monotonicity.
  // Deriving count from the buckets keeps `count == sum(buckets)` an
  // invariant of every snapshot, torn or not. The acquire pairs with the
  // release in Record(): min/max, read below, then cover every record the
  // buckets counted.
  s.sum_ns = SumNs();
  for (int i = 0; i < kBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_acquire);
    s.count += s.buckets[i];
  }
  s.min_ns = MinNs();
  s.max_ns = MaxNs();
  return s;
}

double Histogram::PercentileNs(double p) const {
  Snapshot s = Snap();
  if (s.count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target observation, 1-based: percentile p covers the first
  // ceil(p/100 * count) observations in sorted order.
  double target = p / 100.0 * static_cast<double>(s.count);
  uint64_t rank = static_cast<uint64_t>(target);
  if (static_cast<double>(rank) < target || rank == 0) ++rank;

  uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (s.buckets[i] == 0) continue;
    uint64_t next = cumulative + s.buckets[i];
    if (rank <= next) {
      // Interpolate the rank's position inside this bucket's range.
      double lower = static_cast<double>(BucketLowerNs(i));
      double upper = i >= kBuckets - 1
                         ? static_cast<double>(s.max_ns)
                         : static_cast<double>(BucketUpperNs(i));
      double frac = static_cast<double>(rank - cumulative) /
                    static_cast<double>(s.buckets[i]);
      double v = lower + frac * (upper - lower);
      // The observed extremes bound every percentile tighter than the
      // bucket edges do.
      v = std::max(v, static_cast<double>(s.min_ns));
      v = std::min(v, static_cast<double>(s.max_ns));
      return v;
    }
    cumulative = next;
  }
  return static_cast<double>(s.max_ns);
}

}  // namespace obs
}  // namespace leopard
