#include "verifier/leopard.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "isolation/isolation.h"
#include "obs/span.h"
#include "verifier/state_serde.h"

namespace leopard {

namespace {
constexpr size_t kMaxStoredBugs = 10000;
/// Traces between refreshes of the registry's VerifierStats mirror. Small
/// enough that the progress reporter never reads stale totals, large enough
/// that the ~20 relaxed stores amortize to noise per trace.
constexpr uint64_t kStatsSyncEvery = 64;
}  // namespace

Leopard::Leopard(const VerifierConfig& config)
    : config_(config),
      graph_(config.certifier, config.check_real_time_order) {}

void Leopard::AttachMetrics(obs::MetricsRegistry* registry,
                            uint32_t span_sample_every,
                            const std::string& prefix) {
  metrics_ = registry;
  obs_ = ObsHandles();
  span_ = ObsHandles();
  span_sample_every_ = std::max(span_sample_every, 1u);
  span_tick_ = 0;
  stat_mirror_.clear();
  if (registry == nullptr) return;
  auto name = [&prefix](const char* suffix) { return prefix + suffix; };
  obs_.trace_ns = registry->histogram(name("verifier.trace_ns"));
  obs_.cr_ns = registry->histogram(name("verifier.cr.verify_ns"));
  obs_.me_ns = registry->histogram(name("verifier.me.verify_ns"));
  obs_.fuw_ns = registry->histogram(name("verifier.fuw.verify_ns"));
  obs_.sc_ns = registry->histogram(name("verifier.sc.certify_ns"));
  obs_.gc_ns = registry->histogram(name("verifier.gc.sweep_ns"));
  obs_.live_txns = registry->gauge(name("verifier.live_txns"));
  obs_.graph_nodes = registry->gauge(name("verifier.graph_nodes"));
  obs_.mem_table_bytes = registry->gauge(name("verifier.mem.table_bytes"));
  obs_.mem_rehashes = registry->gauge(name("verifier.mem.rehashes"));
  obs_.mem_scratch_resets =
      registry->gauge(name("verifier.mem.scratch_epoch_resets"));
  auto mirror = [&](const char* suffix, const uint64_t& field) {
    stat_mirror_.emplace_back(registry->counter(prefix + suffix), &field);
  };
  mirror("verifier.traces_processed", stats_.traces_processed);
  mirror("verifier.reads_verified", stats_.reads_verified);
  mirror("verifier.versions_tracked", stats_.versions_tracked);
  mirror("verifier.out_of_order_traces", stats_.out_of_order_traces);
  mirror("verifier.deps_total", stats_.deps_total);
  mirror("verifier.deps_deduced", stats_.deps_deduced);
  mirror("verifier.overlapped_ww", stats_.overlapped_ww);
  mirror("verifier.overlapped_wr", stats_.overlapped_wr);
  mirror("verifier.overlapped_rw", stats_.overlapped_rw);
  mirror("verifier.deduced_overlapped_ww", stats_.deduced_overlapped_ww);
  mirror("verifier.deduced_overlapped_wr", stats_.deduced_overlapped_wr);
  mirror("verifier.deduced_overlapped_rw", stats_.deduced_overlapped_rw);
  mirror("verifier.uncertain_ww", stats_.uncertain_ww);
  mirror("verifier.uncertain_wr", stats_.uncertain_wr);
  mirror("verifier.violations.cr", stats_.cr_violations);
  mirror("verifier.violations.me", stats_.me_violations);
  mirror("verifier.violations.fuw", stats_.fuw_violations);
  mirror("verifier.violations.sc", stats_.sc_violations);
  mirror("verifier.gc.sweeps", stats_.gc_sweeps);
  mirror("verifier.gc.pruned_versions", stats_.pruned_versions);
  mirror("verifier.gc.pruned_locks", stats_.pruned_locks);
  mirror("verifier.gc.pruned_txns", stats_.pruned_txns);
  mirror("isolation.weak_il_traces", stats_.weak_il_traces);
  mirror("isolation.me_suppressed", stats_.me_suppressed_weak);
  mirror("isolation.fuw_suppressed", stats_.fuw_suppressed_weak);
  mirror("isolation.sc_nodes_skipped", stats_.sc_nodes_skipped_weak);
  SyncStatsToMetrics();
}

void Leopard::SyncStatsToMetrics() {
  if (metrics_ == nullptr) return;
  for (auto& [counter, field] : stat_mirror_) counter->Store(*field);
  obs_.live_txns->Set(static_cast<int64_t>(txns_.size()));
  obs_.graph_nodes->Set(static_cast<int64_t>(graph_.NodeCount()));
  obs_.mem_table_bytes->Set(static_cast<int64_t>(
      versions_.TableBytes() + locks_.TableBytes() + graph_.TableBytes() +
      txns_.MemoryBytes()));
  obs_.mem_rehashes->Set(static_cast<int64_t>(
      versions_.RehashCount() + locks_.RehashCount() + graph_.RehashCount() +
      txns_.rehash_count()));
  obs_.mem_scratch_resets->Set(
      static_cast<int64_t>(graph_.ScratchEpochBumps()));
}

void Leopard::BeginTxnAt(TxnId txn, const TimeInterval& first_op) {
  GetTxn(txn, first_op);
}

void Leopard::AdvanceFrontier(Timestamp ts) {
  if (ts <= frontier_) return;
  frontier_ = ts;
  FlushPendingReads();
}

Leopard::TxnState& Leopard::GetTxn(TxnId id,
                                   const TimeInterval& op_interval) {
  auto [it, inserted] = txns_.try_emplace(id);
  TxnState& t = it->second;
  if (inserted) t.id = id;
  if (!t.has_first_op) {
    t.first_op = op_interval;
    t.has_first_op = true;
  }
  return t;
}

void Leopard::ReportBug(BugType type, Key key, std::vector<TxnId> txns,
                        std::string detail) {
  BugDescriptor bug;
  bug.type = type;
  bug.key = key;
  bug.txns = std::move(txns);
  bug.detail = std::move(detail);
  ReportBug(std::move(bug));
}

void Leopard::ReportBug(BugDescriptor bug) {
  switch (bug.type) {
    case BugType::kCrViolation:
      ++stats_.cr_violations;
      break;
    case BugType::kMeViolation:
      ++stats_.me_violations;
      break;
    case BugType::kFuwViolation:
      ++stats_.fuw_violations;
      break;
    case BugType::kScViolation:
      ++stats_.sc_violations;
      break;
  }
  if (bugs_.size() >= kMaxStoredBugs) return;
  if (bug.ts == 0) {
    for (const BugOp& op : bug.ops) {
      if (bug.ts == 0 || op.interval.bef < bug.ts) bug.ts = op.interval.bef;
    }
  }
  bugs_.push_back(std::move(bug));
}

BugDescriptor Leopard::MakeScBug(const GraphViolation& violation,
                                 std::string detail_suffix) {
  BugDescriptor bug;
  bug.type = BugType::kScViolation;
  bug.detail = violation.detail + detail_suffix;
  bug.edges = violation.edges;
  for (const BugEdge& e : violation.edges) {
    for (TxnId id : {e.from, e.to}) {
      if (std::find(bug.txns.begin(), bug.txns.end(), id) != bug.txns.end()) {
        continue;
      }
      bug.txns.push_back(id);
      BugOp op;
      op.txn = id;
      op.role = "txn-span";
      op.committed = true;  // only committed txns enter the graph
      if (const auto* info = graph_.InfoOf(id)) {
        op.interval = TimeInterval{info->first_op.bef, info->end.aft};
      }
      bug.ops.push_back(std::move(op));
    }
  }
  return bug;
}

void Leopard::Process(const Trace& trace) {
  if (metrics_ != nullptr) {
    // Span sampling: every Nth trace carries live span handles and pays for
    // clock reads; the rest leave span_ null and cost one branch per site.
    if (++span_tick_ >= span_sample_every_) {
      span_tick_ = 0;
      span_ = obs_;
    } else {
      span_ = ObsHandles();
    }
  }
  {
    obs::ScopedSpan span(span_.trace_ns);
    if (trace.ts_bef() < frontier_) ++stats_.out_of_order_traces;
    frontier_ = std::max(frontier_, trace.ts_bef());
    FlushPendingReads();
    ++stats_.traces_processed;
    if (trace.il != IsolationLevel::kSerializable) ++stats_.weak_il_traces;
    switch (trace.op) {
      case OpType::kRead:
        ProcessRead(trace);
        break;
      case OpType::kWrite:
        ProcessWrite(trace);
        break;
      case OpType::kCommit:
        ProcessTerminal(trace, /*committed=*/true);
        break;
      case OpType::kAbort:
        ProcessTerminal(trace, /*committed=*/false);
        break;
    }
  }
  // GC runs outside the trace span: gc_every is a multiple of typical span
  // sample rates, so sweeps would land on sampled traces systematically and
  // bias the trace_ns tail. Sweeps have their own exact histogram.
  ++traces_since_gc_;
  if (config_.enable_gc && traces_since_gc_ >= config_.gc_every) {
    MaybeGc();
  }
  // Mirror bookkeeping stays outside the trace span: it is instrumentation
  // cost, not verification cost.
  if (metrics_ != nullptr && ++traces_since_sync_ >= kStatsSyncEvery) {
    traces_since_sync_ = 0;
    SyncStatsToMetrics();
  }
}

void Leopard::Finish() {
  frontier_ = kMaxTimestamp;
  FlushPendingReads();
  SyncStatsToMetrics();
}


void Leopard::ProcessWrite(const Trace& trace) {
  TxnState& t = GetTxn(trace.txn, trace.interval);
  if (trace.il < t.il) t.il = trace.il;
  for (const auto& w : trace.write_set) {
    auto [it, first_write] = t.own_writes.try_emplace(w.key);
    it->second = w.value;
    if (first_write) t.write_keys.push_back(w.key);
    if (!config_.install_at_commit) {
      InstallVersion(w.key, w.value, trace.txn, trace.interval);
    }
    if (config_.check_me) {
      locks_.NoteAcquire(w.key, trace.txn, /*exclusive=*/true,
                         trace.interval, t.il);
    }
  }
}





void Leopard::ProcessTerminal(const Trace& trace, bool committed) {
  TxnState& t = GetTxn(trace.txn, trace.interval);
  if (trace.il < t.il) t.il = trace.il;
  t.end = trace.interval;
  t.status = committed ? TxnStatus::kCommitted : TxnStatus::kAborted;

  if (config_.check_me) {
    lock_keys_scratch_.clear();
    lock_keys_scratch_.insert(lock_keys_scratch_.end(),
                              t.write_keys.begin(), t.write_keys.end());
    lock_keys_scratch_.insert(lock_keys_scratch_.end(),
                              t.read_keys.begin(), t.read_keys.end());
    locks_.NoteRelease(trace.txn, lock_keys_scratch_.data(),
                       lock_keys_scratch_.size(), trace.interval, committed);
    VerifyMeAtRelease(t);
  }

  if (committed) {
    MarkVersionsCommitted(t);
    if (config_.check_sc) {
      // A weak-IL transaction never promised serializability: keep it out of
      // the dependency graph so its edges drop on the committed-but-pruned
      // path (status_of treats a committed non-node as aborted) and it can
      // never anchor an SC cycle against stronger sessions.
      if (isolation::IlRequiresSc(t.il)) {
        graph_.AddNode(trace.txn, {t.first_op, t.end});
      } else {
        ++stats_.sc_nodes_skipped_weak;
      }
    }
    if (config_.check_fuw) VerifyFuwAtCommit(t);
    // Materialize dependency edges that were waiting for this commit.
    std::vector<PendingEdge> pending = std::move(t.pending);
    t.pending.clear();
    for (const auto& e : pending) {
      if (edge_sink_) {
        HoldOrSink(e.from, e.to, e.type);
      } else {
        EmitEdge(e.from, e.to, e.type);
      }
    }
    if (config_.check_sc && config_.certifier == CertifierMode::kFullDfs) {
      obs::ScopedSpan sc_span(span_.sc_ns);
      auto violation = graph_.FullCycleSearch();
      if (violation) {
        BugDescriptor bug = MakeScBug(*violation, "");
        if (bug.txns.empty()) bug.txns.push_back(trace.txn);
        ReportBug(std::move(bug));
      }
    }
  } else {
    // Aborted: its versions were never committed — anyone who read them saw
    // dirty data.
    for (Key key : t.write_keys) {
      std::vector<TxnId> dirty = versions_.RemoveAborted(key, trace.txn);
      if (config_.check_cr) {
        for (TxnId reader : dirty) {
          std::ostringstream os;
          os << "read a version written by aborted transaction "
             << trace.txn;
          BugDescriptor bug;
          bug.type = BugType::kCrViolation;
          bug.key = key;
          bug.txns = {reader, trace.txn};
          bug.detail = os.str();
          BugOp writer_op;
          writer_op.txn = trace.txn;
          writer_op.role = "abort";
          writer_op.key = key;
          if (auto wit = t.own_writes.find(key); wit != t.own_writes.end()) {
            writer_op.value = wit->second;
            writer_op.has_value = true;
          }
          writer_op.interval = trace.interval;
          bug.ops.push_back(std::move(writer_op));
          if (auto rit = txns_.find(reader); rit != txns_.end() &&
                                             rit->second.has_first_op) {
            BugOp reader_op;
            reader_op.txn = reader;
            reader_op.role = "dirty-reader";
            reader_op.key = key;
            reader_op.interval = rit->second.first_op;
            reader_op.committed =
                rit->second.status == TxnStatus::kCommitted;
            bug.ops.push_back(std::move(reader_op));
          }
          ReportBug(std::move(bug));
        }
      }
    }
  }
  // The registry entry is no longer needed: committed membership is now
  // encoded in the dependency graph; pending edges of aborted txns drop.
  txns_.erase(trace.txn);
}

void Leopard::MarkVersionsCommitted(TxnState& t) {
  if (config_.install_at_commit) {
    // OCC/TO engines physically install buffered writes at commit: create
    // the version entries now, with the commit interval as installation.
    for (Key key : t.write_keys) {
      InstallVersion(key, t.own_writes[key], t.id, t.end);
    }
  }
  for (Key key : t.write_keys) {
    auto* list = versions_.Get(key);
    if (list == nullptr) continue;
    for (auto& entry : *list) {
      if (entry.writer == t.id) {
        entry.status = WriterStatus::kCommitted;
        entry.writer_snapshot = t.first_op;
        entry.writer_commit = t.end;
        entry.writer_il = t.il;
      }
    }
  }
}



void Leopard::Deduce(TxnId from, TxnId to, DepType type) {
  if (from == to) return;
  ++stats_.deps_deduced;
  if (edge_sink_) {
    HoldOrSink(from, to, type);
    return;
  }
  if (!config_.check_sc) return;

  auto status_of = [this](TxnId id) -> TxnStatus {
    auto it = txns_.find(id);
    if (it != txns_.end()) return it->second.status;
    // Not in the registry: committed transactions live on in the graph
    // until pruned; anything else is aborted or irrelevant.
    return graph_.HasNode(id) ? TxnStatus::kCommitted : TxnStatus::kAborted;
  };

  TxnStatus sf = status_of(from);
  TxnStatus st = status_of(to);
  if (sf == TxnStatus::kAborted || st == TxnStatus::kAborted) return;
  if (sf == TxnStatus::kCommitted && st == TxnStatus::kCommitted) {
    EmitEdge(from, to, type);
    return;
  }
  // Park the edge on one active endpoint; its terminal trace resolves it.
  TxnId holder = sf == TxnStatus::kActive ? from : to;
  txns_[holder].pending.push_back(PendingEdge{from, to, type});
}

void Leopard::HoldOrSink(TxnId from, TxnId to, DepType type) {
  // Sharded mode: gate on the fates this verifier sees, as the local path
  // does, so the external certifier never parks an edge for a fate. A txn
  // no longer registered here has settled (its terminal was forwarded
  // first) or only reached this shard through a key migration; the
  // certifier resolves both.
  for (TxnId id : {from, to}) {
    auto it = txns_.find(id);
    if (it == txns_.end()) continue;
    if (it->second.status == TxnStatus::kActive) {
      it->second.pending.push_back(PendingEdge{from, to, type});
      return;
    }
    if (it->second.status == TxnStatus::kAborted) return;
  }
  edge_sink_(from, to, type);
}

void Leopard::EmitEdge(TxnId from, TxnId to, DepType type) {
  obs::ScopedSpan span(span_.sc_ns);
  // Re-check the far endpoint: an edge parked on `from` may find `to`
  // still active (park again) or aborted (drop).
  if (!graph_.HasNode(from) || !graph_.HasNode(to)) {
    TxnId missing = graph_.HasNode(from) ? to : from;
    auto it = txns_.find(missing);
    if (it != txns_.end() && it->second.status == TxnStatus::kActive) {
      it->second.pending.push_back(PendingEdge{from, to, type});
    }
    return;
  }
  auto violation = graph_.AddEdge(from, to, type);
  if (violation) {
    BugDescriptor bug =
        MakeScBug(*violation,
                  std::string(" (") + DepTypeName(type) + " edge)");
    if (bug.txns.empty()) bug.txns = {from, to};
    ReportBug(std::move(bug));
  }
}

Timestamp Leopard::SafeTs() const {
  Timestamp safe = std::min(frontier_, safe_ts_bound_);
  for (const auto& [id, t] : txns_) {
    if (t.status == TxnStatus::kActive && t.has_first_op) {
      safe = std::min(safe, t.first_op.bef);
    }
  }
  // Parked reads outlive their transaction's registry entry (a committed
  // txn's reads flush only once the frontier passes snapshot.aft), and with
  // wide clock uncertainty their snapshot.bef trails the frontier by the
  // full skew bound. A version such a snapshot still admits must not be
  // pruned out from under it.
  for (const PendingRead& r : pending_reads_.c) {
    safe = std::min(safe, r.snapshot.bef);
  }
  return safe;
}

void Leopard::MaybeGc() {
  obs::ScopedSpan span(obs_.gc_ns);
  traces_since_gc_ = 0;
  ++stats_.gc_sweeps;
  Timestamp safe = SafeTs();
  // Under relaxed (timestamp-axis) reads, arbitrarily old versions may
  // still be legitimately observed — version pruning is disabled there.
  if (!config_.allow_stale_reads) {
    stats_.pruned_versions += versions_.Prune(safe);
  }
  stats_.pruned_locks += locks_.Prune(safe);
  if (config_.check_sc) {
    stats_.pruned_txns += graph_.PruneGarbage(safe);
  }
}

std::unique_ptr<Leopard::KeyStateBundle> Leopard::ExtractKeyState(Key key) {
  auto b = std::make_unique<KeyStateBundle>();
  b->key = key;
  versions_.ExtractKey(key, b->versions);
  locks_.ExtractKey(key, b->locks, b->key_was_released);

  // Active transactions' per-key footprint. Removing the key here is load-
  // bearing, not just tidy: a lingering write_keys entry would re-install
  // the buffered write at commit on this shard (install_at_commit configs)
  // after the version list moved away.
  for (auto&& [id, t] : txns_) {
    KeyStateBundle::TxnContribution c;
    c.txn = id;
    c.first_op = t.first_op;
    c.il = t.il;
    auto* wit = std::find(t.write_keys.begin(), t.write_keys.end(), key);
    if (wit != t.write_keys.end()) {
      c.in_write_keys = true;
      t.write_keys.erase(wit);
    }
    auto* rit = std::find(t.read_keys.begin(), t.read_keys.end(), key);
    if (rit != t.read_keys.end()) {
      c.in_read_keys = true;
      t.read_keys.erase(rit);
    }
    if (auto oit = t.own_writes.find(key); oit != t.own_writes.end()) {
      c.has_own_write = true;
      c.own_write = oit->second;
      t.own_writes.erase(key);
    }
    if (c.in_write_keys || c.in_read_keys || c.has_own_write) {
      b->txns.push_back(c);
    }
  }

  // Parked reads: split this key's items out into fragments, keep the rest
  // parked. Verification accounting is per item, so regrouping a statement's
  // items across shards leaves every counter and deduced edge unchanged.
  if (!pending_reads_.empty()) {
    std::vector<PendingRead> keep;
    keep.reserve(pending_reads_.size());
    while (!pending_reads_.empty()) {
      PendingRead pr =
          std::move(const_cast<PendingRead&>(pending_reads_.top()));
      pending_reads_.pop();
      KeyStateBundle::ReadFragment frag;
      for (auto it = pr.items.begin(); it != pr.items.end();) {
        if (it->key == key) {
          frag.items.push_back(*it);
          it = pr.items.erase(it);
        } else {
          ++it;
        }
      }
      for (auto it = pr.absent_items.begin(); it != pr.absent_items.end();) {
        if (*it == key) {
          frag.absent_items.push_back(*it);
          it = pr.absent_items.erase(it);
        } else {
          ++it;
        }
      }
      if (!frag.items.empty() || !frag.absent_items.empty()) {
        frag.txn = pr.txn;
        frag.snapshot = pr.snapshot;
        frag.op_interval = pr.op_interval;
        b->reads.push_back(std::move(frag));
      }
      if (!pr.items.empty() || !pr.absent_items.empty()) {
        keep.push_back(std::move(pr));
      } else if (read_pool_.size() < 64) {
        read_pool_.push_back(std::move(pr));
      }
    }
    for (auto& pr : keep) pending_reads_.push(std::move(pr));
  }
  return b;
}

void Leopard::InstallKeyState(std::unique_ptr<KeyStateBundle> b) {
  versions_.InstallKey(b->key, std::move(b->versions));
  locks_.InstallKey(b->key, std::move(b->locks), b->key_was_released);
  for (const auto& c : b->txns) {
    // GetTxn installs the transaction's true global first-op interval when
    // this shard has not met it yet (same contract as BeginTxnAt).
    TxnState& t = GetTxn(c.txn, c.first_op);
    if (c.il < t.il) t.il = c.il;
    if (c.in_write_keys &&
        std::find(t.write_keys.begin(), t.write_keys.end(), b->key) ==
            t.write_keys.end()) {
      t.write_keys.push_back(b->key);
    }
    if (c.in_read_keys &&
        std::find(t.read_keys.begin(), t.read_keys.end(), b->key) ==
            t.read_keys.end()) {
      t.read_keys.push_back(b->key);
    }
    if (c.has_own_write) t.own_writes[b->key] = c.own_write;
  }
  for (auto& frag : b->reads) {
    PendingRead pr;
    if (!read_pool_.empty()) {
      pr = std::move(read_pool_.back());
      read_pool_.pop_back();
      pr.Reset();
    }
    pr.txn = frag.txn;
    pr.snapshot = frag.snapshot;
    pr.op_interval = frag.op_interval;
    pr.items.insert(pr.items.end(), frag.items.begin(), frag.items.end());
    pr.absent_items.insert(pr.absent_items.end(), frag.absent_items.begin(),
                           frag.absent_items.end());
    pending_reads_.push(std::move(pr));
  }
}

void Leopard::SaveState(StateWriter& w) const {
  w.PutU64(frontier_);
  w.PutU64(safe_ts_bound_);
  w.PutU64(traces_since_gc_);
  versions_.SaveState(w);
  locks_.SaveState(w);
  graph_.SaveState(w);

  w.PutU32(static_cast<uint32_t>(txns_.size()));
  for (const auto& [id, t] : txns_) {
    w.PutU64(id);
    w.PutU8(static_cast<uint8_t>(t.status));
    w.PutU8(static_cast<uint8_t>(t.il));
    w.PutBool(t.has_first_op);
    serde::SaveInterval(w, t.first_op);
    serde::SaveInterval(w, t.end);
    serde::SaveIdVector(w, t.write_keys);
    serde::SaveIdVector(w, t.read_keys);
    w.PutU32(static_cast<uint32_t>(t.own_writes.size()));
    for (const auto& [k, v] : t.own_writes) {
      w.PutU64(k);
      w.PutU64(v);
    }
    w.PutU32(static_cast<uint32_t>(t.pending.size()));
    for (const PendingEdge& e : t.pending) {
      w.PutU64(e.from);
      w.PutU64(e.to);
      w.PutU8(static_cast<uint8_t>(e.type));
    }
  }

  // priority_queue hides its container: drain a copy. Heap order is a valid
  // serialization order — LoadState re-pushes and rebuilds the same heap.
  auto parked = pending_reads_;
  w.PutU32(static_cast<uint32_t>(parked.size()));
  while (!parked.empty()) {
    const PendingRead& pr = parked.top();
    w.PutU64(pr.txn);
    serde::SaveInterval(w, pr.snapshot);
    serde::SaveInterval(w, pr.op_interval);
    w.PutU32(static_cast<uint32_t>(pr.items.size()));
    for (const ReadAccess& a : pr.items) {
      w.PutU64(a.key);
      w.PutU64(a.value);
    }
    w.PutU32(static_cast<uint32_t>(pr.absent_items.size()));
    for (Key k : pr.absent_items) w.PutU64(k);
    parked.pop();
  }

  w.PutU32(static_cast<uint32_t>(bugs_.size()));
  for (const BugDescriptor& bug : bugs_) serde::SaveBug(w, bug);
  serde::SaveStats(w, stats_);
}

Status Leopard::LoadState(StateReader& r) {
  Status s;
  if (!(s = r.GetU64(frontier_)).ok()) return s;
  if (!(s = r.GetU64(safe_ts_bound_)).ok()) return s;
  if (!(s = r.GetU64(traces_since_gc_)).ok()) return s;
  if (!(s = versions_.LoadState(r)).ok()) return s;
  if (!(s = locks_.LoadState(r)).ok()) return s;
  if (!(s = graph_.LoadState(r)).ok()) return s;

  txns_.clear();
  uint32_t n_txns = 0;
  if (!(s = r.GetU32(n_txns)).ok()) return s;
  if (!r.CountFits(n_txns, 8 + 1 + 1 + 1 + 16 + 16 + 4 + 4 + 4 + 4)) {
    return Status::InvalidArgument("leopard state: absurd txn count");
  }
  for (uint32_t i = 0; i < n_txns; ++i) {
    TxnId id = 0;
    if (!(s = r.GetU64(id)).ok()) return s;
    auto [it, inserted] = txns_.try_emplace(id);
    if (!inserted) {
      return Status::InvalidArgument("leopard state: duplicate txn");
    }
    TxnState& t = it->second;
    t.id = id;
    uint8_t status = 0;
    if (!(s = r.GetU8(status)).ok()) return s;
    if (status > static_cast<uint8_t>(TxnStatus::kAborted)) {
      return Status::InvalidArgument("leopard state: bad txn status");
    }
    t.status = static_cast<TxnStatus>(status);
    uint8_t il = 0;
    if (!(s = r.GetU8(il)).ok()) return s;
    if (il > static_cast<uint8_t>(IsolationLevel::kSerializable)) {
      return Status::InvalidArgument("leopard state: bad isolation level");
    }
    t.il = static_cast<IsolationLevel>(il);
    if (!(s = r.GetBool(t.has_first_op)).ok()) return s;
    if (!(s = serde::LoadInterval(r, t.first_op)).ok()) return s;
    if (!(s = serde::LoadInterval(r, t.end)).ok()) return s;
    if (!(s = serde::LoadIdVector(r, t.write_keys)).ok()) return s;
    if (!(s = serde::LoadIdVector(r, t.read_keys)).ok()) return s;
    uint32_t n = 0;
    if (!(s = r.GetU32(n)).ok()) return s;
    if (!r.CountFits(n, 16)) {
      return Status::InvalidArgument("leopard state: absurd own-write count");
    }
    t.own_writes.reserve(n);
    for (uint32_t j = 0; j < n; ++j) {
      Key k = 0;
      Value v = 0;
      if (!(s = r.GetU64(k)).ok()) return s;
      if (!(s = r.GetU64(v)).ok()) return s;
      t.own_writes[k] = v;
    }
    if (!(s = r.GetU32(n)).ok()) return s;
    if (!r.CountFits(n, 17)) {
      return Status::InvalidArgument("leopard state: absurd parked-edge count");
    }
    t.pending.clear();
    t.pending.reserve(n);
    for (uint32_t j = 0; j < n; ++j) {
      PendingEdge e;
      uint8_t dep = 0;
      if (!(s = r.GetU64(e.from)).ok()) return s;
      if (!(s = r.GetU64(e.to)).ok()) return s;
      if (!(s = r.GetU8(dep)).ok()) return s;
      e.type = static_cast<DepType>(dep);
      t.pending.push_back(e);
    }
  }

  while (!pending_reads_.empty()) pending_reads_.pop();
  uint32_t n_parked = 0;
  if (!(s = r.GetU32(n_parked)).ok()) return s;
  if (!r.CountFits(n_parked, 8 + 16 + 16 + 4 + 4)) {
    return Status::InvalidArgument("leopard state: absurd parked-read count");
  }
  for (uint32_t i = 0; i < n_parked; ++i) {
    PendingRead pr;
    if (!(s = r.GetU64(pr.txn)).ok()) return s;
    if (!(s = serde::LoadInterval(r, pr.snapshot)).ok()) return s;
    if (!(s = serde::LoadInterval(r, pr.op_interval)).ok()) return s;
    uint32_t n = 0;
    if (!(s = r.GetU32(n)).ok()) return s;
    if (!r.CountFits(n, 16)) {
      return Status::InvalidArgument("leopard state: absurd read-item count");
    }
    pr.items.reserve(n);
    for (uint32_t j = 0; j < n; ++j) {
      ReadAccess a;
      if (!(s = r.GetU64(a.key)).ok()) return s;
      if (!(s = r.GetU64(a.value)).ok()) return s;
      pr.items.push_back(a);
    }
    if (!(s = r.GetU32(n)).ok()) return s;
    if (!r.CountFits(n, 8)) {
      return Status::InvalidArgument("leopard state: absurd absent-item count");
    }
    pr.absent_items.reserve(n);
    for (uint32_t j = 0; j < n; ++j) {
      Key k = 0;
      if (!(s = r.GetU64(k)).ok()) return s;
      pr.absent_items.push_back(k);
    }
    pending_reads_.push(std::move(pr));
  }

  uint32_t n_bugs = 0;
  if (!(s = r.GetU32(n_bugs)).ok()) return s;
  if (!r.CountFits(n_bugs, 1 + 4 + 8 + 8 + 4 + 4 + 4)) {
    return Status::InvalidArgument("leopard state: absurd bug count");
  }
  bugs_.clear();
  bugs_.reserve(n_bugs);
  for (uint32_t i = 0; i < n_bugs; ++i) {
    BugDescriptor bug;
    if (!(s = serde::LoadBug(r, bug)).ok()) return s;
    bugs_.push_back(std::move(bug));
  }
  if (!(s = serde::LoadStats(r, stats_)).ok()) return s;
  SyncStatsToMetrics();
  return Status::Ok();
}

size_t Leopard::ApproxMemoryBytes() const {
  size_t bytes = versions_.ApproxBytes() + locks_.ApproxBytes() +
                 graph_.ApproxBytes();
  bytes += txns_.MemoryBytes();
  for (const auto& [id, t] : txns_) {
    bytes += t.write_keys.HeapBytes();
    bytes += t.read_keys.HeapBytes();
    bytes += t.own_writes.MemoryBytes();
    bytes += t.pending.capacity() * sizeof(PendingEdge);
  }
  bytes += pending_reads_.size() * sizeof(PendingRead);
  return bytes;
}

}  // namespace leopard
