#include "src/kvserver/kv_service.h"

#include <chrono>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/timing.h"
#include "src/cuckoo/simd_probe.h"

namespace cuckoo {
namespace {

std::uint64_t WallSeconds() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

KvService::KvService(Options opts)
    : store_([&] {
        GeneralCuckooMap<std::string, StoredValue>::Options o;
        o.initial_bucket_count_log2 = opts.initial_bucket_count_log2;
        o.auto_expand = opts.auto_expand;
        o.stripe_count = opts.stripe_count;
        o.hugepages = opts.hugepages;
        return o;
      }()),
      tier_(opts.tier),
      clock_(opts.clock ? std::move(opts.clock) : WallSeconds),
      slowlog_(opts.slowlog_threshold_ns, opts.slowlog_capacity),
      own_metrics_(metrics_.Register(MetricGroups())) {}

const char* KvService::CommandName(RequestType type) noexcept {
  switch (type) {
    case RequestType::kGet:
      return "get";
    case RequestType::kGets:
      return "gets";
    case RequestType::kSet:
      return "set";
    case RequestType::kCas:
      return "cas";
    case RequestType::kDelete:
      return "delete";
    case RequestType::kTouch:
      return "touch";
    case RequestType::kStats:
      return "stats";
    case RequestType::kBgsave:
      return "bgsave";
    case RequestType::kReplicate:
      return "replicate";
    case RequestType::kReplicaof:
      return "replicaof";
  }
  return "unknown";
}

KvService::ProcessStatus KvService::Process(const Request& request, std::string* response_out,
                                            std::shared_ptr<DeferredGet>* deferred) {
  return Execute(request, response_out, deferred, nullptr);
}

KvService::ProcessStatus KvService::HandleGet(const Request& request, bool with_cas,
                                              std::string* out,
                                              std::shared_ptr<DeferredGet>* deferred) {
  // Multi-key gets arrive in request.keys; requests constructed by hand may
  // only set request.key.
  const std::string* keys = request.keys.empty() ? &request.key : request.keys.data();
  const std::size_t count = request.keys.empty() ? 1 : request.keys.size();
  const std::uint64_t now = NowSeconds();

  if (tier_ == nullptr) {
    // Every value is inline: one batched pass hashes + prefetches the whole
    // key batch ahead of the probes, appending VALUE blocks under the bucket
    // locks as hits land.
    std::vector<std::uint8_t> live(count, 0);
    std::vector<std::uint8_t> expired(count, 0);
    store_.WithValueBatch(keys, count, [&](std::size_t i, const StoredValue& value) {
      if (Expired(value, now)) {
        expired[i] = 1;
        return;
      }
      live[i] = 1;
      if (with_cas) {
        AppendValueResponseWithCas(keys[i], value.flags, value.data, value.cas_id, out);
      } else {
        AppendValueResponse(keys[i], value.flags, value.data, out);
      }
    });
    // Replicas never erase on expiry: the delete must come from the primary's
    // WAL stream, or the local LSN sequence forks off the primary's.
    const bool reap_expired = !ReadOnly();
    for (std::size_t i = 0; i < count; ++i) {
      if (reap_expired && expired[i] && !live[i]) {
        // Lazy expiry: reclaim the slot, but only if the entry is still the
        // expired one — a concurrent fresh Set must not be deleted. EraseIf
        // re-checks under the bucket locks.
        std::uint64_t lsn = 0;
        if (store_.EraseIfThen(
                keys[i], [&](const StoredValue& value) { return Expired(value, now); },
                [&] {
                  if (observer_ != nullptr) {
                    lsn = observer_->OnDelete(keys[i]);
                  }
                })) {
          expirations_.Increment();
          // Logged (so replay does not resurrect the entry) but not awaited:
          // a get response makes no durability promise.
          (void)lsn;
        }
      }
      if (live[i]) {
        hits_.Increment();
      } else {
        misses_.Increment();
      }
    }
    AppendEnd(out);
    return ProcessStatus::kDone;
  }

  // Tiered path: the batch pass only copies metadata (and inline values)
  // under the bucket locks; value-log bytes are resolved afterwards so the
  // locks never wait on the hot cache or disk.
  auto d = std::make_shared<DeferredGet>();
  d->with_cas = with_cas;
  d->type = request.type;
  d->items.resize(count);
  std::vector<std::uint8_t> expired(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    d->items[i].key = keys[i];
  }
  store_.WithValueBatch(keys, count, [&](std::size_t i, const StoredValue& value) {
    if (Expired(value, now)) {
      expired[i] = 1;
      return;
    }
    DeferredGet::Item& item = d->items[i];
    item.live = true;
    item.flags = value.flags;
    item.cas_id = value.cas_id;
    if (value.Tiered()) {
      item.loc = value.loc;
      item.need_fetch = true;
    } else {
      item.data = value.data;
    }
  });
  for (std::size_t i = 0; i < count; ++i) {
    if (ReadOnly() || !expired[i] || d->items[i].live) {
      continue;  // replicas leave expiry to the primary's replicated delete
    }
    // Lazy expiry, tiered-aware: the predicate re-checks under the bucket
    // locks and captures the victim's log location so its bytes count as
    // garbage for GC.
    std::uint64_t lsn = 0;
    store::ValueLocation dead_loc{};
    if (store_.EraseIfThen(
            keys[i],
            [&](const StoredValue& value) {
              if (!Expired(value, now)) {
                return false;
              }
              dead_loc = value.loc;
              return true;
            },
            [&] {
              if (observer_ != nullptr) {
                lsn = observer_->OnDelete(keys[i]);
              }
            })) {
      expirations_.Increment();
      if (dead_loc.IsValid()) {
        tier_->MarkDead(dead_loc);
      }
      (void)lsn;
    }
  }

  // Hot-tier pass: cas-checked cache hits resolve without touching disk.
  std::size_t fetches = 0;
  for (DeferredGet::Item& item : d->items) {
    if (!item.need_fetch) {
      continue;
    }
    if (tier_->TryHot(item.key, item.cas_id, &item.data)) {
      item.need_fetch = false;
      continue;
    }
    ++fetches;
  }

  if (fetches == 0) {
    RenderGet(*d, out);
    return ProcessStatus::kDone;
  }
  if (deferred == nullptr) {
    // Blocking caller (tests, tools, recovery checks): read inline.
    for (DeferredGet::Item& item : d->items) {
      if (item.need_fetch) {
        item.fetch_ok = tier_->ReadValue(item.key, item.loc, item.cas_id, &item.data);
      }
    }
    RenderGet(*d, out);
    return ProcessStatus::kDone;
  }
  // Park: the caller submits the reads (StartFetches) and renders the
  // response (FinishDeferred) once the last one lands.
  d->remaining.store(fetches, std::memory_order_relaxed);
  *deferred = std::move(d);
  return ProcessStatus::kSuspended;
}

void KvService::RenderGet(DeferredGet& deferred, std::string* out) {
  for (DeferredGet::Item& item : deferred.items) {
    const bool hit = item.live && (!item.need_fetch || item.fetch_ok);
    if (!hit) {
      // Absent, expired, or the disk read failed verification — a tiered
      // read error degrades to a miss rather than a protocol error.
      misses_.Increment();
      continue;
    }
    hits_.Increment();
    if (deferred.with_cas) {
      AppendValueResponseWithCas(item.key, item.flags, item.data, item.cas_id, out);
    } else {
      AppendValueResponse(item.key, item.flags, item.data, out);
    }
  }
  AppendEnd(out);
}

void KvService::StartFetches(const std::shared_ptr<DeferredGet>& deferred,
                             std::function<void()> on_complete) {
  auto complete = std::make_shared<std::function<void()>>(std::move(on_complete));
  for (std::size_t i = 0; i < deferred->items.size(); ++i) {
    DeferredGet::Item& item = deferred->items[i];
    if (!item.need_fetch) {
      continue;
    }
    tier_->ReadValueAsync(item.key, item.loc, item.cas_id,
                          [deferred, i, complete](bool ok, std::string data) {
                            DeferredGet::Item& it = deferred->items[i];
                            it.fetch_ok = ok;
                            it.data = std::move(data);
                            // acq_rel: the last decrement publishes every
                            // sibling fetch's writes to whoever renders.
                            if (deferred->remaining.fetch_sub(
                                    1, std::memory_order_acq_rel) == 1) {
                              (*complete)();
                            }
                          });
  }
}

void KvService::FinishDeferred(DeferredGet& deferred, std::string* out) {
  RenderGet(deferred, out);
  RecordLatency(deferred.type, NowNanos() - deferred.start_ns,
                deferred.items.empty() ? std::string() : deferred.items.front().key);
}

void KvService::HandleSet(const Request& request, std::string* out,
                          std::deque<AckFence>* fences) {
  StoredValue value;
  value.flags = request.flags;
  value.cas_id = next_cas_.fetch_add(1, std::memory_order_relaxed);
  value.expires_at = DeadlineFor(request.exptime);
  const bool tiered = tier_ != nullptr && tier_->ShouldTier(request.data.size());
  if (tiered) {
    // Append the bytes BEFORE taking any bucket lock: log I/O must never run
    // inside the table's critical sections. A crash between the append and
    // the table mutation leaves an unreferenced record GC reclaims.
    if (!tier_->AppendValue(request.key, request.data, &value.loc)) {
      AppendServerError("vlog io error", out);
      return;
    }
  } else {
    value.data = request.data;
  }
  const store::ValueLocation new_loc = value.loc;
  const std::uint64_t new_cas = value.cas_id;
  std::uint64_t lsn = 0;
  std::uint64_t append_ns = 0;
  store::ValueLocation dead_loc{};
  InsertResult r = store_.UpsertReplaceThen(
      std::string(request.key), std::move(value),
      [&](const StoredValue& old) {
        // Under the pair lock, just before the overwrite destroys the old
        // value: remember its log location so those bytes become garbage.
        dead_loc = old.loc;
      },
      [&](const StoredValue& stored) {
        // Under the bucket-pair lock: the LSN the observer assigns here is
        // ordered exactly like the table mutation it describes.
        if (observer_ != nullptr) {
          append_ns = NowNanos();
          lsn = observer_->OnSet(request.key, stored);
        }
      });
  if (r == InsertResult::kTableFull) {
    if (new_loc.IsValid()) {
      tier_->MarkDead(new_loc);  // appended but never referenced
    }
    AppendNotStored(out);
    return;
  }
  if (tier_ != nullptr && dead_loc.IsValid()) {
    tier_->MarkDead(dead_loc);
  }
  if (AnswerWrite(request, lsn, append_ns, AppendStored, out, fences) && tiered) {
    // Write-through admission: the value just written is the likeliest next
    // read; serve it from RAM instead of paying an immediate disk miss.
    tier_->Admit(request.key, new_cas, request.data);
  }
}

void KvService::HandleCas(const Request& request, std::string* out,
                          std::deque<AckFence>* fences) {
  const std::uint64_t now = NowSeconds();
  const bool tiered = tier_ != nullptr && tier_->ShouldTier(request.data.size());
  store::ValueLocation new_loc{};
  if (tiered) {
    // Optimistic pre-append outside the locks (same rule as HandleSet). If
    // the comparison then fails, the record is marked dead for GC.
    if (!tier_->AppendValue(request.key, request.data, &new_loc)) {
      AppendServerError("vlog io error", out);
      return;
    }
  }
  enum class Outcome { kNotFound, kExists, kStored } outcome = Outcome::kNotFound;
  std::uint64_t lsn = 0;
  std::uint64_t append_ns = 0;
  std::uint64_t new_cas = 0;
  store::ValueLocation dead_loc{};
  store_.WithValueMut(request.key, [&](StoredValue& value) {
    if (Expired(value, now)) {
      outcome = Outcome::kNotFound;  // expired counts as absent
      return;
    }
    if (value.cas_id != request.cas_id) {
      outcome = Outcome::kExists;
      return;
    }
    dead_loc = value.loc;  // the replaced version's bytes become garbage
    if (tiered) {
      value.data.clear();
      value.loc = new_loc;
    } else {
      value.data = request.data;
      value.loc = store::ValueLocation{};
    }
    value.flags = request.flags;
    value.expires_at = DeadlineFor(request.exptime);
    value.cas_id = next_cas_.fetch_add(1, std::memory_order_relaxed);
    new_cas = value.cas_id;
    outcome = Outcome::kStored;
    // Log the RESOLVED state (an unconditional set) under the lock: replay
    // must not re-run the cas comparison against a different history.
    if (observer_ != nullptr) {
      append_ns = NowNanos();
      lsn = observer_->OnSet(request.key, value);
    }
  });
  switch (outcome) {
    case Outcome::kStored:
      if (tier_ != nullptr && dead_loc.IsValid()) {
        tier_->MarkDead(dead_loc);
      }
      if (AnswerWrite(request, lsn, append_ns, AppendStored, out, fences) && tiered) {
        tier_->Admit(request.key, new_cas, request.data);
      }
      return;
    case Outcome::kExists:
      if (new_loc.IsValid()) {
        tier_->MarkDead(new_loc);  // pre-appended, comparison lost
      }
      AppendExists(out);
      return;
    case Outcome::kNotFound:
      if (new_loc.IsValid()) {
        tier_->MarkDead(new_loc);
      }
      AppendNotFound(out);
      return;
  }
}

void KvService::HandleTouch(const Request& request, std::string* out,
                            std::deque<AckFence>* fences) {
  const std::uint64_t now = NowSeconds();
  bool touched = false;
  std::uint64_t lsn = 0;
  std::uint64_t append_ns = 0;
  store_.WithValueMut(request.key, [&](StoredValue& value) {
    if (Expired(value, now)) {
      return;
    }
    value.expires_at = DeadlineFor(request.exptime);
    touched = true;
    if (observer_ != nullptr) {
      append_ns = NowNanos();
      lsn = observer_->OnSet(request.key, value);  // resolved full state
    }
  });
  if (touched) {
    AnswerWrite(request, lsn, append_ns, AppendTouched, out, fences);
  } else {
    AppendNotFound(out);
  }
}

bool KvService::RestoreEntry(std::string key, StoredValue value) {
  AdvanceCasFloor(value.cas_id);
  return store_.Upsert(std::move(key), std::move(value)) != InsertResult::kTableFull;
}

void KvService::AdvanceCasFloor(std::uint64_t cas_id) {
  std::uint64_t cur = next_cas_.load(std::memory_order_relaxed);
  while (cur <= cas_id &&
         !next_cas_.compare_exchange_weak(cur, cas_id + 1, std::memory_order_relaxed)) {
  }
}

void KvService::HandleDelete(const Request& request, std::string* out,
                             std::deque<AckFence>* fences) {
  std::uint64_t lsn = 0;
  std::uint64_t append_ns = 0;
  store::ValueLocation dead_loc{};
  if (store_.EraseIfThen(
          request.key,
          [&](const StoredValue& value) {
            dead_loc = value.loc;  // captured under the lock, like expiry
            return true;
          },
          [&] {
            if (observer_ != nullptr) {
              append_ns = NowNanos();
              lsn = observer_->OnDelete(request.key);
            }
          })) {
    if (tier_ != nullptr && dead_loc.IsValid()) {
      tier_->MarkDead(dead_loc);
    }
    AnswerWrite(request, lsn, append_ns, AppendDeleted, out, fences);
  } else {
    AppendNotFound(out);
  }
}

store::TieredStore::RelocateResult KvService::RelocateTiered(
    const std::string& key, const store::ValueLocation& old_loc, std::string_view data) {
  // Cheap liveness probe first: in a GC-eligible segment most records are
  // dead, and the probe avoids appending bytes that would immediately be
  // garbage. The racy window is closed by the re-check under the lock below.
  bool maybe_live = false;
  store_.WithValue(key, [&](const StoredValue& value) { maybe_live = value.loc == old_loc; });
  if (!maybe_live) {
    return store::TieredStore::RelocateResult::kDead;
  }
  store::ValueLocation new_loc{};
  if (!tier_->AppendValue(key, data, &new_loc)) {
    return store::TieredStore::RelocateResult::kFailed;  // sticky log error
  }
  bool relocated = false;
  std::uint64_t lsn = 0;
  store_.WithValueMut(key, [&](StoredValue& value) {
    if (value.loc != old_loc) {
      return;  // overwritten/deleted since the probe — record is dead
    }
    value.loc = new_loc;
    relocated = true;
    // Same observer path as any set: replay learns the new location. The
    // cas id is unchanged — the value is byte-identical, so hot-cache
    // entries stay servable across the move.
    if (observer_ != nullptr) {
      lsn = observer_->OnSet(key, value);
    }
  });
  if (!relocated) {
    tier_->MarkDead(new_loc);
    return store::TieredStore::RelocateResult::kDead;
  }
  // Not awaited per record: TieredStore's persist barrier makes the whole
  // segment's relocations durable in one flush before retirement.
  (void)lsn;
  return store::TieredStore::RelocateResult::kRelocated;
}

bool KvService::AnswerWrite(const Request& request, std::uint64_t lsn, std::uint64_t append_ns,
                            void (*reply)(std::string*), std::string* out,
                            std::deque<AckFence>* fences) {
  bool ok = true;
  if (observer_ != nullptr) {
    if (fences == nullptr || acks_ == nullptr) {
      ok = observer_->WaitDurable(lsn);
    } else if (!acks_->TryAck(lsn, &ok)) {
      // Still waiting on an fsync or a replica: reply optimistically behind
      // a fence and let the connection execute what is pipelined after it.
      AckFence fence;
      fence.lsn = lsn;
      fence.append_ns = append_ns;
      fence.offset = out->size();
      fence.type = request.type;
      fence.key = request.key;
      reply(out);
      fence.length = out->size() - fence.offset;
      fences->push_back(std::move(fence));
      return true;
    }
    if (acks_ != nullptr) {
      acks_->AckResolved(append_ns);
    }
  }
  if (!ok) {
    // Applied in memory but not durable (WAL in its sticky I/O-error state,
    // or no replica confirmed in time): never ack what a restart would lose.
    AppendServerError("wal io error", out);
    return false;
  }
  CountWrite(request.type);
  reply(out);
  return true;
}

void KvService::CountWrite(RequestType type) {
  if (type == RequestType::kSet || type == RequestType::kCas) {
    sets_.Increment();
  } else if (type == RequestType::kDelete) {
    deletes_.Increment();
  }
}

void KvService::FinishAck(const AckFence& fence, bool ok) {
  if (acks_ != nullptr) {
    acks_->AckResolved(fence.append_ns);
  }
  if (ok) {
    CountWrite(fence.type);
  }
  RecordLatency(fence.type, NowNanos() - fence.start_ns, fence.key);
}

void KvService::RecordLatency(RequestType type, std::uint64_t elapsed_ns,
                              const std::string& key) {
  const std::size_t idx = static_cast<std::size_t>(type);
  if (idx < kCommandKinds) {
    cmd_ns_[idx].Record(elapsed_ns);
  }
  slowlog_.MaybeRecord(elapsed_ns, CommandName(type), key);
}

KvService::ProcessStatus KvService::Execute(const Request& request, std::string* response_out,
                                            std::shared_ptr<DeferredGet>* deferred,
                                            std::deque<AckFence>* fences) {
  // End-to-end command latency, including the wait for a write's ack.
  // Always on: one clock pair per network request is noise next to parsing
  // + syscalls, unlike the sampled per-probe timers inside the table.
  const std::uint64_t start = NowNanos();
  const std::size_t fenced = fences == nullptr ? 0 : fences->size();
  const ProcessStatus status = Dispatch(request, response_out, deferred, fences);
  if (status == ProcessStatus::kSuspended) {
    // The command is still in flight; FinishDeferred closes its accounting.
    (*deferred)->start_ns = start;
    return status;
  }
  if (fences != nullptr && fences->size() > fenced) {
    fences->back().start_ns = start;  // FinishAck closes its accounting
    return status;
  }
  RecordLatency(request.type, NowNanos() - start, request.key);
  return status;
}

KvService::ProcessStatus KvService::Dispatch(const Request& request, std::string* response_out,
                                             std::shared_ptr<DeferredGet>* deferred,
                                             std::deque<AckFence>* fences) {
  switch (request.type) {
    case RequestType::kGet:
      return HandleGet(request, /*with_cas=*/false, response_out, deferred);
    case RequestType::kGets:
      return HandleGet(request, /*with_cas=*/true, response_out, deferred);
    case RequestType::kSet:
    case RequestType::kCas:
    case RequestType::kTouch:
    case RequestType::kDelete:
      // Replica mode: reads only. Redirect the client to the primary rather
      // than silently diverging from the replicated stream.
      if (ReadOnly()) {
        AppendServerError(readonly_redirect_.empty()
                              ? std::string("read only replica")
                              : "read only replica; primary is " + readonly_redirect_,
                          response_out);
        return ProcessStatus::kDone;
      }
      switch (request.type) {
        case RequestType::kSet:
          HandleSet(request, response_out, fences);
          break;
        case RequestType::kCas:
          HandleCas(request, response_out, fences);
          break;
        case RequestType::kTouch:
          HandleTouch(request, response_out, fences);
          break;
        default:
          HandleDelete(request, response_out, fences);
          break;
      }
      return ProcessStatus::kDone;
    case RequestType::kReplicate:
      if (!repl_upgrade_enabled_) {
        AppendServerError("replication not enabled", response_out);
        return ProcessStatus::kDone;
      }
      // No response bytes: the server detaches this connection and the hub
      // answers with the SYNC/FULLSYNC header on the raw fd.
      return ProcessStatus::kUpgradeReplication;
    case RequestType::kReplicaof:
      if (!replicaof_) {
        AppendError(response_out);  // no replication control attached
      } else {
        response_out->append(replicaof_(request));
      }
      return ProcessStatus::kDone;
    case RequestType::kBgsave: {
      if (!bgsave_) {
        AppendError(response_out);  // no durability layer attached
      } else if (bgsave_()) {
        AppendOk(response_out);
      } else {
        AppendBusy(response_out);
      }
      return ProcessStatus::kDone;
    }
    case RequestType::kStats:
      HandleStats(request, response_out);
      return ProcessStatus::kDone;
  }
  AppendError(response_out);
  return ProcessStatus::kDone;
}

void KvService::HandleStats(const Request& request, std::string* response_out) {
  if (request.stats_arg == "slowlog") {
    metrics_.RenderStats(obs::StatsLevel::kDetail, response_out, "slowlog");
    AppendSlowlogEntries(response_out);
  } else if (request.stats_arg.empty() || request.stats_arg == "detail") {
    metrics_.RenderStats(request.stats_arg.empty() ? obs::StatsLevel::kPlain
                                                   : obs::StatsLevel::kDetail,
                         response_out);
  } else {
    AppendError(response_out);  // unknown sub-report
    return;
  }
  AppendEnd(response_out);
}

void KvService::AppendSlowlogEntries(std::string* out) const {
  // One line per retained entry, oldest first:
  //   STAT slowlog_entry <id> <latency_ns> <op> [<key>]
  for (const obs::Slowlog::Entry& e : slowlog_.Entries()) {
    out->append("STAT slowlog_entry ");
    out->append(std::to_string(e.id));
    out->push_back(' ');
    out->append(std::to_string(e.latency_ns));
    out->push_back(' ');
    out->append(e.op);
    if (!e.detail.empty()) {
      out->push_back(' ');
      out->append(e.detail);
    }
    out->append("\r\n");
  }
}

std::vector<obs::MetricGroup> KvService::MetricGroups() const {
  using Self = const KvService*;
  using Table = MapStatsSnapshot;
  obs::MetricGroupBuilder<Self> kv("kv", [this] { return this; });
  kv.Gauge("curr_items", "Live entries in the store.", &KvService::ItemCount)
      .As("cuckoo_kv_items")
      .Counter("get_hits", "get keys served from the table.", &KvService::GetHits)
      .As("cuckoo_kv_get_hits_total")
      .Counter("get_misses", "get keys not found (or expired).", &KvService::GetMisses)
      .As("cuckoo_kv_get_misses_total")
      .Counter("cmd_set", "Successful set/cas stores.", [](Self s) { return s->sets_.Sum(); })
      .As("cuckoo_kv_sets_total")
      .Counter("cmd_delete", "Successful deletes.", [](Self s) { return s->deletes_.Sum(); })
      .As("cuckoo_kv_deletes_total")
      .Counter("expired_unfetched", "Entries reclaimed by lazy expiry.", &KvService::Expirations)
      .As("cuckoo_kv_expirations_total");

  // The MapStatsSnapshot counters that tell an operator whether the serving
  // layer stresses the cuckoo paths.
  obs::MetricGroupBuilder<Table> table("table", [this] { return store_.Stats(); });
  table.Counter("table_lookups", "Cuckoo table lookups.", &Table::lookups)
      .Counter("table_read_retries", "Optimistic reads retried after a version bump.",
               &Table::read_retries)
      .Counter("table_path_searches", "BFS/DFS cuckoo path searches.", &Table::path_searches)
      .Counter("table_path_invalidations", "Cuckoo paths invalidated by racing writers.",
               &Table::path_invalidations)
      .Counter("table_displacements", "Slot displacements executed.", &Table::displacements)
      .Counter("table_expansions", "Table expansions.", &Table::expansions)
      .Counter("table_insert_failures", "Inserts refused by a full table.", &Table::insert_failures)
      .Counter("table_migrations_started", "Incremental expansion windows opened.",
               &Table::migrations_started)
      .As("cuckoo_table_migrations_total")
      .Counter("table_migrations_completed", "Incremental expansion windows fully drained.",
               &Table::migrations_completed)
      .Counter("table_migrations_force_finished",
               "Migration windows closed by a bulk stop-the-world drain.",
               &Table::migrations_force_finished)
      .Counter("table_migrated_entries", "Entries moved old-core to new-core during migration.",
               &Table::migrated_entries)
      .Gauge("table_migration_buckets_total", "Old-core buckets in the current/last window.",
             &Table::migration_buckets_total)
      .As("cuckoo_table_migration_buckets")
      .Gauge("table_migration_buckets_done", "Old-core buckets drained in the current/last window.",
             &Table::migration_buckets_done)
      .Gauge("table_migration_progress",
             "Fraction of old-core buckets drained (current/last window).",
             [](const Table& t) -> std::optional<double> {
               if (t.migration_buckets_total <= 0) {
                 return std::nullopt;  // no window opened yet
               }
               return static_cast<double>(t.migration_buckets_done) /
                      static_cast<double>(t.migration_buckets_total);
             })
      .Gauge("table_hugepage_bytes",
             "Table bytes granted MADV_HUGEPAGE backing (0 without --hugepages or when the kernel "
             "declined).",
             &Table::hugepage_bytes)
      .Detail()
      .Counter("table_lock_contended", "Stripe-lock acquisitions that hit contention.",
               &Table::lock_contended)
      .Histogram("table_lookup_ns", "Sampled in-table lookup latency.", &Table::lookup_ns)
      .Histogram("table_insert_ns", "Sampled in-table insert latency.", &Table::insert_ns)
      .Histogram("table_expansion_pause_ns", "Write pause while the table doubled.",
                 &Table::expansion_pause_ns)
      .Histogram("table_migration_stall_ns", "Per-writer migration piggyback/help stall.",
                 &Table::migration_stall_ns)
      .Gauge("table_migration_max_stall_ns", "Worst single-writer piggyback/help stall.",
             &Table::migration_max_stall_ns)
      // The level lookups run with, resolved once from CPUID + CUCKOO_FORCE_PROBE.
      .Info("probe_kernel", "Active tag-probe dispatch level (1 = active).", "level",
            [](const Table&) { return simd::ProbeLevelName(simd::ActiveProbeLevel()); },
            {simd::ProbeLevelName(simd::ProbeLevel::kScalar),
             simd::ProbeLevelName(simd::ProbeLevel::kSse2),
             simd::ProbeLevelName(simd::ProbeLevel::kAvx2)});

  // End-to-end Process() latency per command kind; kinds never run are left
  // out.
  using Commands = std::vector<obs::HistogramSnapshot>;
  obs::MetricGroupBuilder<Commands> commands("commands", [this] {
    Commands h;
    for (const obs::Histogram& c : cmd_ns_) {
      h.push_back(c.Snapshot());
    }
    return h;
  });
  commands.Detail();
  for (std::size_t i = 0; i < kCommandKinds; ++i) {
    commands.Histogram(std::string("cmd_") + CommandName(static_cast<RequestType>(i)) + "_ns",
                       "End-to-end command latency.", [i](const Commands& h) {
                         return h[i].Count() == 0 ? nullptr : &h[i];
                       });
  }

  using Log = const obs::Slowlog*;
  obs::MetricGroupBuilder<Log> slowlog("slowlog", [this] { return &slowlog_; });
  slowlog.Detail()
      .Gauge("slowlog_threshold_ns", "Commands this slow enter the slowlog (0 = off).",
             &obs::Slowlog::threshold_ns)
      .Counter("slowlog_total", "Commands that crossed the slowlog threshold.",
               &obs::Slowlog::TotalLogged)
      .As("cuckoo_kv_slowlog_total");

  std::vector<obs::MetricGroup> groups = {kv.Build(), table.Build()};
  if (tier_ != nullptr) {
    // Every tier counter in one scope, so entries name them by member.
    struct Tier : store::TieredStoreStats,
                  store::ValueLogStats,
                  store::TieredStore::HotCache::CacheStats {};
    const store::TieredStore* t = tier_;
    obs::MetricGroupBuilder<Tier> tier("tier", [t] {
      const store::TieredStoreStats s = t->Stats();
      return Tier{s, s.log, t->HotStats()};
    });
    tier.Gauge("vlog_threshold_bytes", "Values at least this large go to the value log.",
               [t](const Tier&) { return t->threshold_bytes(); })
        .Gauge("vlog_segments", "Live value-log segment files.", &Tier::live_segments)
        .Gauge("vlog_total_bytes", "Bytes across live value-log segments.", &Tier::total_bytes)
        .Gauge("vlog_dead_bytes", "Bytes in live segments no longer referenced by the table.",
               &Tier::dead_bytes)
        .Counter("vlog_appends", "Value-log appends.", &Tier::appends)
        .Counter("vlog_append_bytes", "Bytes appended to the value log.", &Tier::append_bytes)
        .Gauge("vlog_torn_tail_bytes", "Bytes cut from a torn value-log tail at open.",
               &Tier::torn_tail_bytes)
        .Counter("vlog_tiered_sets", "Sets whose value went to the value log.", &Tier::tiered_sets)
        .Counter("vlog_hot_hits", "Tiered reads served from the hot value cache.", &Tier::hot_hits)
        .Counter("vlog_hot_misses", "Tiered reads that missed the hot value cache.",
                 &Tier::hot_misses)
        .Counter("vlog_disk_reads", "Tiered reads served from the value log on disk.",
                 &Tier::disk_reads)
        .Counter("vlog_disk_read_errors", "Value-log reads that failed or failed verification.",
                 &Tier::disk_read_errors)
        .Counter("vlog_gc_runs", "Value-log GC passes.", &Tier::gc_runs)
        .Counter("vlog_gc_segments_retired", "Value-log segments compacted and retired.",
                 &Tier::gc_segments)
        .As("cuckoo_vlog_gc_segments_total")
        .Counter("vlog_gc_records_scanned", "Records read by value-log GC.",
                 &Tier::gc_records_scanned)
        .Counter("vlog_gc_records_relocated", "Live records rewritten by value-log GC.",
                 &Tier::gc_records_relocated)
        .Counter("vlog_gc_failures", "Value-log GC passes that failed.", &Tier::gc_failures)
        .Counter("vlog_reclaimed_bytes", "Bytes reclaimed by retiring value-log segments.",
                 &Tier::reclaimed_bytes)
        .Gauge("vlog_cache_bytes", "Hot value cache footprint.", &Tier::bytes)
        .Gauge("vlog_cache_capacity_bytes", "Hot value cache budget.", &Tier::capacity_bytes)
        .Counter("vlog_cache_evictions", "Hot value cache evictions.", &Tier::evictions)
        .Info("vlog_reader_backend", "Value-log cold-read backend (1 = active).", "backend",
              [t](const Tier&) { return t->reader_backend(); });
    obs::MetricGroupBuilder<obs::HistogramSnapshot> disk("tier_latency",
                                                         [t] { return t->DiskReadLatency(); });
    disk.Detail().Histogram("vlog_disk_read_ns", "Value-log disk read latency (miss path).",
                            std::identity{});
    groups.push_back(tier.Build());
    groups.push_back(disk.Build());
  }
  groups.push_back(commands.Build());
  groups.push_back(slowlog.Build());
  return groups;
}

KvService::Connection::DriveStatus KvService::Connection::Drive(
    std::string_view bytes, std::string* out, std::shared_ptr<DeferredGet>* deferred) {
  const DriveStatus status = Run(bytes, out, deferred);
  WatchNewFences();
  return status;
}

KvService::Connection::DriveStatus KvService::Connection::Run(
    std::string_view bytes, std::string* out, std::shared_ptr<DeferredGet>* deferred) {
  parser_.Feed(bytes);
  Request request;
  for (;;) {
    ParseStatus status = parser_.Next(&request);
    if (status == ParseStatus::kNeedMore) {
      return DriveStatus::kIdle;
    }
    if (status == ParseStatus::kError) {
      AppendError(out);
      if (parser_.Broken()) {
        return DriveStatus::kIdle;  // caller should close the connection
      }
      continue;
    }
    const ProcessStatus status_p =
        service_->Execute(request, out, deferred, deferred != nullptr ? &fences_ : nullptr);
    if (status_p == ProcessStatus::kSuspended) {
      // Anything already parsed but not yet executed stays buffered in the
      // parser; the caller resumes with Drive("") after FinishDeferred.
      return DriveStatus::kSuspended;
    }
    if (status_p == ProcessStatus::kUpgradeReplication) {
      // The stream switched protocols; whatever is still buffered belongs to
      // the replication channel, not this parser.
      upgrade_start_lsn_ = request.repl_lsn;
      return DriveStatus::kUpgradeReplication;
    }
  }
}

void KvService::Connection::WatchNewFences() {
  if (fences_.size() == watched_fences_) {
    return;
  }
  auto watch = std::make_shared<AckWatch>();
  watch->fences = fences_.size() - watched_fences_;
  std::vector<std::uint64_t> lsns;
  lsns.reserve(watch->fences);
  for (std::size_t i = watched_fences_; i < fences_.size(); ++i) {
    lsns.push_back(fences_[i].lsn);
  }
  watched_fences_ = fences_.size();
  watches_.push_back(watch);
  service_->acks_->NotifyAcked(
      std::move(lsns),
      [watch, notify = acks_decided_](std::uint64_t acked_through) {
        watch->acked_through.store(acked_through, std::memory_order_relaxed);
        watch->done.store(true, std::memory_order_release);
        if (notify) {
          notify();
        }
      });
}

void KvService::Connection::ResolveAcks(std::string* out) {
  // Oldest watch first: fences are released strictly in request order.
  while (!watches_.empty() && watches_.front()->done.load(std::memory_order_acquire)) {
    const AckWatch& watch = *watches_.front();
    const std::uint64_t acked_through = watch.acked_through.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < watch.fences; ++i) {
      const AckFence& fence = fences_.front();
      const bool ok = fence.lsn <= acked_through;
      if (!ok) {
        std::string error;
        AppendServerError("wal io error", &error);
        out->replace(fence.offset, fence.length, error);
        for (auto it = fences_.begin() + 1; it != fences_.end(); ++it) {
          it->offset = it->offset + error.size() - fence.length;
        }
      }
      service_->FinishAck(fence, ok);
      fences_.pop_front();
    }
    watched_fences_ -= watch.fences;
    watches_.pop_front();
  }
}

}  // namespace cuckoo
