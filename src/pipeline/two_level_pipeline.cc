#include "pipeline/two_level_pipeline.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>

#include "obs/span.h"
#include "trace/trace_io.h"

namespace leopard {

TwoLevelPipeline::TwoLevelPipeline(uint32_t n_clients, Options options)
    : options_(options), locals_(n_clients) {}

void TwoLevelPipeline::AttachMetrics(obs::MetricsRegistry* registry,
                                     uint32_t span_sample_every) {
  span_sample_every_ = std::max(span_sample_every, 1u);
  span_tick_ = 0;
  if (registry == nullptr) {
    dispatch_ns_ = nullptr;
    dispatched_ctr_ = nullptr;
    depth_gauge_ = nullptr;
    return;
  }
  dispatch_ns_ = registry->histogram("pipeline.dispatch_ns");
  dispatched_ctr_ = registry->counter("pipeline.dispatched");
  depth_gauge_ = registry->gauge("pipeline.queue_depth");
  depth_gauge_->Set(static_cast<int64_t>(buffered_traces_));
}

void TwoLevelPipeline::NoteBuffered() {
  stats_.max_buffered = std::max(stats_.max_buffered, buffered_traces_);
  stats_.max_buffered_bytes =
      std::max(stats_.max_buffered_bytes, buffered_bytes_);
  stats_.max_global_heap = std::max(stats_.max_global_heap, global_traces_);
  stats_.max_global_bytes = std::max(stats_.max_global_bytes, global_bytes_);
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<int64_t>(buffered_traces_));
  }
}

void TwoLevelPipeline::Push(ClientId client, Trace trace) {
  assert(client < locals_.size());
  Local& local = locals_[client];
  assert(!local.closed);
  assert(trace.ts_bef() >= local.last_pushed &&
         "per-client ts_bef order (or mid-run admission floor) violated");
  ++buffered_traces_;
  buffered_bytes_ += trace.ApproxBytes();
  local.last_pushed = trace.ts_bef();
  // A buffer with unfetched traces contributes its first one, which an
  // append does not change; an empty one contributes last_pushed.
  if (local.fetched == local.traces.size()) watermark_stale_ = true;
  local.traces.push_back(std::move(trace));
  NoteBuffered();
}

void TwoLevelPipeline::Close(ClientId client) {
  assert(client < locals_.size());
  locals_[client].closed = true;
  watermark_stale_ = true;
}

ClientId TwoLevelPipeline::AddClient() {
  ClientId id = static_cast<ClientId>(locals_.size());
  // Seed the new client's "last push" with the dispatch floor: an empty
  // buffer then holds the watermark exactly at the oldest trace the client
  // may still legally produce, so joining neither rewinds dispatch order
  // nor lets it run ahead of the newcomer.
  locals_.emplace_back().last_pushed = max_dispatched_;
  watermark_stale_ = true;
  return id;
}

Timestamp TwoLevelPipeline::Reopen(ClientId client) {
  assert(client < locals_.size());
  Local& local = locals_[client];
  assert(local.closed);
  local.closed = false;
  // Same admission rule as AddClient, except the stream keeps its history:
  // a reconnecting client may not push below what it already pushed, nor
  // below what dispatch handed out while it was away.
  local.last_pushed = std::max(local.last_pushed, max_dispatched_);
  watermark_stale_ = true;
  return local.last_pushed;
}

void TwoLevelPipeline::UpdateWatermark() {
  Timestamp wm = kMaxTimestamp;
  for (const Local& local : locals_) {
    if (local.fetched < local.traces.size()) {
      wm = std::min(wm, local.traces[local.fetched].ts_bef());
    } else if (!local.closed) {
      // Open and drained: the client's future traces can only carry
      // ts_bef >= its last push (0 if it never produced anything yet).
      wm = std::min(wm, local.last_pushed);
    }
  }
  watermark_ = wm;
  watermark_stale_ = false;
}

size_t TwoLevelPipeline::Fetch(ClientId client, size_t max) {
  Local& local = locals_[client];
  const size_t n = std::min(max, local.traces.size() - local.fetched);
  if (n == 0) return 0;
  if (local.fetched == 0) {
    heads_.push_back({local.traces.front().ts_bef(), client});
    std::push_heap(heads_.begin(), heads_.end(), std::greater<>());
  }
  auto it = local.traces.begin() + static_cast<ptrdiff_t>(local.fetched);
  for (size_t i = 0; i < n; ++i, ++it) global_bytes_ += it->ApproxBytes();
  local.fetched += n;
  global_traces_ += n;
  return n;
}

bool TwoLevelPipeline::FetchRound() {
  bool fetched = false;
  if (!options_.optimized) {
    // "w/o Opt": fetch every local buffer wholesale.
    for (ClientId c = 0; c < locals_.size(); ++c) {
      if (Fetch(c, SIZE_MAX) > 0) fetched = true;
    }
  } else {
    // Optimized: fetch a batch from the local buffer with the smallest
    // unfetched timestamp, which is the buffer currently pinning the
    // watermark.
    size_t best = locals_.size();
    Timestamp best_ts = 0;
    for (size_t i = 0; i < locals_.size(); ++i) {
      const Local& local = locals_[i];
      if (local.fetched == local.traces.size()) continue;
      const Timestamp ts = local.traces[local.fetched].ts_bef();
      if (best == locals_.size() || ts < best_ts) {
        best = i;
        best_ts = ts;
      }
    }
    if (best == locals_.size()) return false;  // nothing to fetch
    fetched = Fetch(static_cast<ClientId>(best), options_.fetch_batch) > 0;
  }
  if (fetched) ++stats_.rounds;
  return fetched;
}

template <typename Sink>
size_t TwoLevelPipeline::Merge(size_t limit, Sink&& sink) {
  obs::Histogram* sampled = nullptr;
  if (dispatch_ns_ != nullptr && ++span_tick_ >= span_sample_every_) {
    span_tick_ = 0;
    sampled = dispatch_ns_;
  }
  obs::ScopedSpan span(sampled);
  // Dispatching a fetched trace never moves the watermark; a push, close,
  // registration or fetch round may, and marks it stale.
  if (watermark_stale_) UpdateWatermark();
  size_t n = 0;
  while (n < limit) {
    if (heads_.empty() || heads_.front().ts_bef > watermark_) {
      // Cannot dispatch: pull more input into the global buffer, or stop
      // when every local buffer is already fetched.
      if (!FetchRound()) break;
      UpdateWatermark();
      NoteBuffered();
      continue;
    }
    std::pop_heap(heads_.begin(), heads_.end(), std::greater<>());
    Head& head = heads_.back();
    Local& local = locals_[head.client];
    Trace& t = local.traces.front();
    // ApproxBytes() tracks vector *capacity*, which moves preserve, so the
    // bytes removed here are exactly the bytes added at push/fetch time; an
    // underflow means the accounting itself is broken and must fail loudly.
    const size_t bytes = t.ApproxBytes();
    assert(buffered_bytes_ >= bytes && "pipeline byte accounting underflow");
    assert(global_bytes_ >= bytes &&
           "pipeline global-byte accounting underflow");
    buffered_bytes_ -= bytes;
    global_bytes_ -= bytes;
    --buffered_traces_;
    --global_traces_;
    max_dispatched_ = t.ts_bef();  // Dispatch order is non-decreasing.
    sink(std::move(t));
    local.traces.pop_front();
    if (--local.fetched > 0) {
      head.ts_bef = local.traces.front().ts_bef();
      std::push_heap(heads_.begin(), heads_.end(), std::greater<>());
    } else {
      heads_.pop_back();
    }
    ++n;
  }
  if (n == 0) {
    // Starved calls are not dispatches — keep them out of the histogram.
    span.Cancel();
    return 0;
  }
  stats_.dispatched += n;
  if (dispatched_ctr_ != nullptr) {
    dispatched_ctr_->Inc(n);
    depth_gauge_->Set(static_cast<int64_t>(buffered_traces_));
  }
  return n;
}

std::optional<Trace> TwoLevelPipeline::Dispatch() {
  std::optional<Trace> out;
  Merge(1, [&out](Trace&& t) { out.emplace(std::move(t)); });
  return out;
}

size_t TwoLevelPipeline::DispatchInto(std::vector<Trace>& out) {
  return Merge(SIZE_MAX, [&out](Trace&& t) { out.push_back(std::move(t)); });
}

void TwoLevelPipeline::SaveState(StateWriter& w) const {
  w.PutU64(max_dispatched_);
  w.PutU64(stats_.dispatched);
  w.PutU64(stats_.rounds);
  w.PutU64(stats_.max_global_heap);
  w.PutU64(stats_.max_global_bytes);
  w.PutU64(stats_.max_buffered);
  w.PutU64(stats_.max_buffered_bytes);
  w.PutU32(static_cast<uint32_t>(locals_.size()));
  for (const Local& local : locals_) {
    w.PutBool(local.closed);
    w.PutU64(local.last_pushed);
    w.PutU32(static_cast<uint32_t>(local.traces.size()));
    w.PutU32(static_cast<uint32_t>(local.fetched));
    for (const Trace& t : local.traces) AppendTraceRecord(w.raw(), t);
  }
}

Status TwoLevelPipeline::LoadState(StateReader& r) {
  Status s;
  if (!(s = r.GetU64(max_dispatched_)).ok()) return s;
  uint64_t u = 0;
  for (uint64_t* f :
       {&stats_.dispatched, &stats_.rounds}) {
    if (!(s = r.GetU64(*f)).ok()) return s;
  }
  for (size_t* f : {&stats_.max_global_heap, &stats_.max_global_bytes,
                    &stats_.max_buffered, &stats_.max_buffered_bytes}) {
    if (!(s = r.GetU64(u)).ok()) return s;
    *f = static_cast<size_t>(u);
  }
  uint32_t n_clients = 0;
  if (!(s = r.GetU32(n_clients)).ok()) return s;
  if (!r.CountFits(n_clients, 1 + 8 + 4 + 4)) {
    return Status::InvalidArgument("pipeline state: absurd client count");
  }
  locals_.assign(n_clients, {});
  heads_.clear();
  watermark_stale_ = true;
  buffered_traces_ = 0;
  buffered_bytes_ = 0;
  global_traces_ = 0;
  global_bytes_ = 0;
  for (ClientId c = 0; c < n_clients; ++c) {
    Local& local = locals_[c];
    if (!(s = r.GetBool(local.closed)).ok()) return s;
    if (!(s = r.GetU64(local.last_pushed)).ok()) return s;
    uint32_t n = 0;
    uint32_t fetched = 0;
    if (!(s = r.GetU32(n)).ok()) return s;
    if (!(s = r.GetU32(fetched)).ok()) return s;
    if (fetched > n) {
      return Status::InvalidArgument("pipeline state: fetched past buffer");
    }
    for (uint32_t j = 0; j < n; ++j) {
      Trace t;
      size_t pos = r.pos();
      if (!(s = DecodeTraceRecord(r.raw(), pos, t)).ok()) return s;
      r.set_pos(pos);
      ++buffered_traces_;
      buffered_bytes_ += t.ApproxBytes();
      local.traces.push_back(std::move(t));
    }
    Fetch(c, fetched);
  }
  NoteBuffered();
  return Status::Ok();
}

bool TwoLevelPipeline::Exhausted() const {
  for (const Local& local : locals_) {
    if (!local.closed || !local.traces.empty()) return false;
  }
  return true;
}

void NaiveSorter::Push(ClientId client, Trace trace) {
  (void)client;
  buffered_bytes_ += trace.ApproxBytes();
  heap_.push(std::move(trace));
  max_buffered_ = std::max(max_buffered_, heap_.size());
  max_buffered_bytes_ = std::max(max_buffered_bytes_, buffered_bytes_);
}

std::vector<Trace> NaiveSorter::DrainSorted() {
  std::vector<Trace> out;
  out.reserve(heap_.size());
  while (!heap_.empty()) {
    out.push_back(heap_.top());
    heap_.pop();
  }
  buffered_bytes_ = 0;
  return out;
}

}  // namespace leopard
