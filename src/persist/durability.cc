#include "src/persist/durability.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <utility>

#include "src/common/await.h"
#include "src/common/file_util.h"
#include "src/persist/snapshot.h"
#include "src/store/tiered_store.h"

namespace cuckoo {
namespace persist {

bool DurabilityManager::Start(DurabilityOptions options, std::string* error) {
  options_ = std::move(options);
  if (!RecoverKvService(options_.dir, service_, &recovery_, error)) {
    return false;
  }
  WalOptions wal_options;
  wal_options.dir = options_.dir;
  wal_options.fsync_policy = options_.fsync_policy;
  wal_options.segment_bytes = options_.segment_bytes;
  if (bridge_ != nullptr) {
    // Fan replication out from the group-commit path: after each drain the
    // log-writer thread tells the hub how far the file (and the fsync
    // watermark) advanced. Installed before Open so no commit is missed.
    wal_.SetCommitSink([this](std::uint64_t written_lsn, std::uint64_t durable_lsn) {
      bridge_->OnWalCommit(written_lsn, durable_lsn);
    });
  }
  if (options_.tier != nullptr && options_.fsync_policy == FsyncPolicy::kAlways) {
    // Value bytes before index records: an acked tiered write must survive
    // with BOTH pieces, and recovery treats a WAL record whose value bytes
    // are missing as never-acked. One value-log sync per group commit, on
    // the log-writer thread; EnsureDurable is a no-op when nothing new was
    // appended.
    store::TieredStore* tier = options_.tier;
    wal_.SetSyncHook([tier] { return tier->SyncLog(); });
  }
  if (!wal_.Open(wal_options, recovery_.next_lsn)) {
    if (error != nullptr) {
      *error = "cannot open WAL in " + options_.dir;
    }
    return false;
  }
  service_->SetMutationObserver(this);
  service_->SetAckSource(this);
  service_->SetBgsaveHook([this] { return TriggerSnapshot(); });
  metrics_ = service_->metrics().Register(MetricGroups());
  {
    MutexLock lk(mutex_);
    stop_ = false;
    started_ = true;
  }
  snapshot_thread_ = std::thread(&DurabilityManager::SnapshotWorker, this);
  return true;
}

void DurabilityManager::Stop() {
  {
    MutexLock lk(mutex_);
    if (!started_) {
      return;
    }
    started_ = false;
    stop_ = true;
    cv_.notify_all();
  }
  snapshot_thread_.join();
  // Detach from the service FIRST so no new appends race the WAL teardown
  // (the server should already have drained connections by now).
  service_->SetMutationObserver(nullptr);
  service_->SetAckSource(nullptr);
  // Final barrier: everything applied to the table reaches the disk before
  // exit, regardless of fsync policy — value bytes first, then the WAL.
  if (options_.tier != nullptr) {
    options_.tier->SyncLog();
  }
  wal_.Flush();
  wal_.Shutdown();
}

bool DurabilityManager::TryAck(std::uint64_t lsn, bool* ok) {
  if (!wal_.DurableNow(lsn, ok)) {
    return false;
  }
  // A refused local ack is final; a durable one may still wait on a replica.
  return !*ok || bridge_ == nullptr || !bridge_->GatesAcks();
}

void DurabilityManager::NotifyAcked(std::vector<std::uint64_t> lsns,
                                    std::function<void(std::uint64_t)> done) {
  const std::uint64_t last = lsns.back();
  wal_.NotifyDurable(last, [this, lsns = std::move(lsns), done = std::move(done)](
                               std::uint64_t durable_through) mutable {
    // The local log decides first: only the writes it made durable are put
    // to a replica.
    lsns.erase(std::upper_bound(lsns.begin(), lsns.end(), durable_through), lsns.end());
    if (lsns.empty() || bridge_ == nullptr || !bridge_->GatesAcks()) {
      done(durable_through);
      return;
    }
    const std::uint64_t through = lsns.back();
    bridge_->NotifyReplicated(std::move(lsns), [through, done = std::move(done)](
                                                   std::uint64_t replicated_through) {
      done(std::min(through, replicated_through));
    });
  });
}

bool DurabilityManager::WaitDurable(std::uint64_t lsn) {
  bool ok = true;
  if (TryAck(lsn, &ok)) {
    return ok;
  }
  return Await<std::uint64_t>([&](std::function<void(std::uint64_t)> done) {
           NotifyAcked({lsn}, std::move(done));
         }) >= lsn;
}

bool DurabilityManager::TriggerSnapshot() {
  MutexLock lk(mutex_);
  if (!started_ || snapshot_requested_ || snapshot_running_) {
    return false;
  }
  snapshot_requested_ = true;
  cv_.notify_all();
  return true;
}

bool DurabilityManager::WaitForSnapshot() {
  MutexLock lk(mutex_);
  const std::uint64_t target = rounds_started_ + (snapshot_requested_ ? 1 : 0);
  // Explicit loop instead of the predicate overload: the analysis treats the
  // predicate lambda as a lockless reader of the guarded fields.
  while (!(rounds_done_ >= target || stop_)) {
    done_cv_.wait(lk.native_handle());
  }
  return last_round_ok_;
}

bool DurabilityManager::ApplyReplicated(const WalRecord& record, std::string* error) {
  // Log first, table second — the mirror of the primary's ordering. A crash
  // between the two replays the record from the local WAL on restart, and
  // replay is idempotent.
  if (!wal_.AppendReplicated(record)) {
    if (error != nullptr) {
      *error = "replication LSN gap at " + std::to_string(record.lsn) +
               " (local next is " + std::to_string(wal_.LastAssignedLsn() + 1) + ")";
    }
    return false;
  }
  switch (record.type) {
    case WalRecord::Type::kSet: {
      KvService::StoredValue value;
      value.data = record.data;
      value.flags = record.flags;
      value.cas_id = record.cas_id;
      value.expires_at = record.expires_at;
      service_->RestoreEntry(record.key, std::move(value));
      break;
    }
    case WalRecord::Type::kSetTiered: {
      // The primary normally rewrites tiered records to inline sets before
      // streaming; one arriving verbatim means the primary could not read
      // the value back (GC relocated it). The relocation record — at a
      // higher LSN, already behind this one in the stream — re-delivers the
      // value, so skipping here converges. The location itself only makes
      // sense if this replica happens to share a value log (it never does in
      // production, but a local-process test tier can).
      KvService::StoredValue value;
      value.flags = record.flags;
      value.cas_id = record.cas_id;
      value.expires_at = record.expires_at;
      store::TieredStore* tier = service_->tier();
      if (!store::DecodeValueLocation(record.data, &value.loc) || tier == nullptr ||
          !tier->ValidLocation(value.loc)) {
        service_->AdvanceCasFloor(record.cas_id);
        replica_skipped_tiered_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      service_->RestoreEntry(record.key, std::move(value));
      break;
    }
    case WalRecord::Type::kDelete:
      service_->RestoreErase(record.key);
      break;
  }
  replica_applied_records_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool DurabilityManager::ResyncFromSnapshot(const std::string& snapshot_path,
                                           std::uint64_t snapshot_lsn, std::string* error) {
  {
    MutexLock lk(mutex_);
    // Wait out any in-flight snapshot round, then fence the worker off: the
    // WAL is about to be closed and the directory rewritten underneath it.
    while (snapshot_running_) {
      done_cv_.wait(lk.native_handle());
    }
    snapshot_requested_ = false;
    resync_in_progress_ = true;
  }
  wal_.Shutdown();
  service_->RestoreClear();
  for (const std::string& name : ListFilesWithPrefix(options_.dir, "wal-")) {
    RemoveFile(options_.dir + "/" + name);
  }
  for (const std::string& name : ListFilesWithPrefix(options_.dir, "snap-")) {
    RemoveFile(options_.dir + "/" + name);
  }
  const std::string published =
      options_.dir + "/" + internal::SnapshotFileName(snapshot_lsn);
  bool ok = std::rename(snapshot_path.c_str(), published.c_str()) == 0 &&
            SyncDir(options_.dir);
  std::uint64_t reopen_lsn = snapshot_lsn + 1;
  SnapshotLoadStats load;
  if (ok) {
    ok = LoadKvSnapshot(published, service_, &load, error);
  } else if (error != nullptr) {
    *error = "cannot publish replica snapshot as " + published;
  }
  if (!ok) {
    // Leave the replica empty but serviceable: a fresh WAL at LSN 1 puts it
    // in the same state as a blank data directory, and the caller retries
    // the bootstrap from scratch.
    service_->RestoreClear();
    RemoveFile(published);
    reopen_lsn = 1;
  }
  WalOptions wal_options;
  wal_options.dir = options_.dir;
  wal_options.fsync_policy = options_.fsync_policy;
  wal_options.segment_bytes = options_.segment_bytes;
  const bool reopened = wal_.Open(wal_options, reopen_lsn);
  if (!reopened && error != nullptr && ok) {
    *error = "cannot reopen WAL after resync in " + options_.dir;
  }
  {
    MutexLock lk(mutex_);
    bytes_at_last_snapshot_ = wal_.BytesAppended();
    resync_in_progress_ = false;
    cv_.notify_all();
  }
  if (ok && reopened) {
    last_snapshot_lsn_.store(snapshot_lsn, std::memory_order_relaxed);
    last_snapshot_entries_.store(load.entries, std::memory_order_relaxed);
    replica_resyncs_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void DurabilityManager::SnapshotWorker() {
  for (;;) {
    bool run = false;
    {
      MutexLock lk(mutex_);
      // Single timed wait; a spurious wakeup falls through with run=false
      // and the outer loop re-enters the wait (see WaitForSnapshot).
      if (!(stop_ || snapshot_requested_)) {
        cv_.wait_for(lk.native_handle(), std::chrono::milliseconds(200));
      }
      if (stop_) {
        return;
      }
      // Value-log counterpart of the WAL's everysec fsync: bound how much
      // tiered value data an OS crash can lose under the weaker policies.
      // EnsureDurable is a no-op when nothing was appended since last time,
      // so this costs one mutex hold per wakeup in the idle case. Under
      // fsync=always the WAL's sync hook covers it and this never fires.
      if (options_.tier != nullptr && options_.fsync_policy != FsyncPolicy::kAlways) {
        const std::uint64_t now_ms = static_cast<std::uint64_t>(NowNanos() / 1000000);
        if (now_ms - last_vlog_sync_ms_ >= 1000) {
          options_.tier->SyncLog();
          last_vlog_sync_ms_ = now_ms;
        }
      }
      const bool byte_trigger =
          options_.snapshot_trigger_bytes != 0 &&
          wal_.BytesAppended() - bytes_at_last_snapshot_ >= options_.snapshot_trigger_bytes;
      // Never start a round mid-resync: the WAL is closed and the directory
      // is being rewritten. ResyncFromSnapshot waits out snapshot_running_
      // under this mutex, so the two phases strictly alternate.
      if (!resync_in_progress_ && (snapshot_requested_ || byte_trigger)) {
        snapshot_requested_ = false;
        snapshot_running_ = true;
        ++rounds_started_;
        run = true;
      }
    }
    if (!run) {
      continue;
    }
    const bool ok = RunSnapshot();
    {
      MutexLock lk(mutex_);
      snapshot_running_ = false;
      last_round_ok_ = ok;
      ++rounds_done_;
      done_cv_.notify_all();
    }
  }
}

bool DurabilityManager::RunSnapshot() {
  const std::uint64_t bytes_before = wal_.BytesAppended();
  const std::uint64_t walk_start = NowNanos();
  SnapshotWriteStats stats;
  std::string error;
  if (!WriteKvSnapshot(*service_, options_.dir, [this] { return wal_.LastAssignedLsn(); },
                       options_.snapshot_max_attempts, &stats, &error)) {
    snapshot_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Walk + publish duration for the whole successful round (including
  // validation retries); the table was never globally locked during it.
  snapshot_walk_ns_.Record(NowNanos() - walk_start);
  snapshots_completed_.fetch_add(1, std::memory_order_relaxed);
  last_snapshot_lsn_.store(stats.wal_lsn, std::memory_order_relaxed);
  last_snapshot_entries_.store(stats.entries, std::memory_order_relaxed);
  snapshot_walk_lock_fallbacks_.fetch_add(stats.walk.lock_fallbacks,
                                          std::memory_order_relaxed);
  snapshot_displaced_entries_.fetch_add(stats.walk.displaced_entries,
                                        std::memory_order_relaxed);
  {
    MutexLock lk(mutex_);
    bytes_at_last_snapshot_ = bytes_before;
  }
  // The published snapshot covers every LSN <= its wal_lsn; segments fully
  // below that are dead weight. Flush first so the covering guarantee holds
  // even for records that were still only in the batch buffer. A lagging
  // replica holds GC back: removing a segment it still needs would force it
  // into a full resync, so keep everything from its next LSN onward.
  wal_.Flush();
  std::uint64_t gc_below = stats.wal_lsn;
  if (bridge_ != nullptr) {
    const std::uint64_t min_replica = bridge_->MinReplicaLsn();
    if (min_replica != UINT64_MAX) {
      // min_replica is the replica's NEXT lsn; the segment holding it (and
      // everything after) must survive, so only LSNs strictly below may go.
      gc_below = std::min(gc_below, min_replica - 1);
    }
  }
  wal_.RemoveSegmentsBelow(gc_below);
  return true;
}

std::vector<obs::MetricGroup> DurabilityManager::MetricGroups() const {
  using obs::Relaxed;
  using DM = DurabilityManager;
  obs::MetricGroupBuilder<WalStats> wal("wal", [this] { return wal_.Stats(); });
  wal.Info("fsync_policy", "WAL fsync policy (1 = active).", "policy",
           [this](const WalStats&) { return FsyncPolicyName(options_.fsync_policy); })
      .Counter("wal_records_appended", "WAL records appended", &WalStats::records_appended)
      .Counter("wal_bytes_appended", "WAL bytes appended", &WalStats::bytes_appended)
      .Counter("wal_fsyncs", "WAL fsync calls", &WalStats::fsyncs)
      .Counter("wal_group_commits", "WAL group-commit drain batches", &WalStats::group_commits)
      .Gauge("wal_max_batch_records", "largest group-commit batch, in records",
             &WalStats::max_batch_records)
      .Counter("wal_segments_created", "WAL segment files created", &WalStats::segments_created)
      .Gauge("wal_last_lsn", "highest assigned log sequence number", &WalStats::last_assigned_lsn)
      .Gauge("wal_written_lsn", "highest log sequence number fully written to the segment file",
             [this](const WalStats&) { return wal_.WrittenLsn(); })
      .Gauge("wal_durable_lsn", "highest durable log sequence number", &WalStats::durable_lsn)
      .Gauge("wal_io_error", "1 if the WAL is in its sticky I/O-error state", &WalStats::io_error);

  obs::MetricGroupBuilder<const DM*> dm("durability", [this] { return this; });
  dm.Counter("snapshots_completed", "online snapshots completed", &DM::SnapshotsCompleted)
      .Counter("snapshot_failures", "online snapshot rounds that failed",
               Relaxed(&DM::snapshot_failures_))
      .Gauge("last_snapshot_lsn", "log sequence number the last snapshot covers",
             Relaxed(&DM::last_snapshot_lsn_))
      .Gauge("last_snapshot_entries", "entries in the last snapshot",
             Relaxed(&DM::last_snapshot_entries_))
      .Counter("snapshot_lock_fallbacks", "snapshot bucket walks that fell back to locking",
               Relaxed(&DM::snapshot_walk_lock_fallbacks_))
      .Counter("snapshot_displaced_entries", "entries a walk met twice after a displacement",
               Relaxed(&DM::snapshot_displaced_entries_))
      .Counter("replica_applied_records", "replicated WAL records applied locally",
               &DM::ReplicaAppliedRecords)
      .Counter("replica_skipped_tiered", "replicated tiered records that did not validate",
               Relaxed(&DM::replica_skipped_tiered_))
      .Counter("replica_resyncs", "full snapshot bootstraps performed as a replica",
               &DM::ReplicaResyncs)
      .Gauge("recovery_loaded_snapshot", "1 if startup recovery loaded a snapshot",
             [](const DM* d) { return d->recovery_.loaded_snapshot; })
      .Gauge("recovery_snapshot_entries", "entries startup recovery loaded from a snapshot",
             [](const DM* d) { return d->recovery_.snapshot_entries; })
      .Gauge("recovery_wal_records_applied", "WAL records startup recovery replayed",
             [](const DM* d) { return d->recovery_.wal_records_applied; })
      .Gauge("recovery_truncated_tail", "1 if startup recovery cut a torn WAL tail",
             [](const DM* d) { return d->recovery_.truncated_tail; })
      .Gauge("recovery_next_lsn", "first log sequence number after recovery",
             [](const DM* d) { return d->recovery_.next_lsn; });

  // Durations in seconds on /metrics, per Prometheus conventions.
  using Latency = std::array<obs::HistogramSnapshot, 3>;
  obs::MetricGroupBuilder<Latency> latency("durability_latency", [this] {
    return Latency{append_durable_ns_.Snapshot(), wal_.BatchRecordsSnapshot(),
                   snapshot_walk_ns_.Snapshot()};
  });
  latency.Detail()
      .Histogram("wal_append_durable_ns",
                 std::string("append to durable-ack latency (fsync policy: ") +
                     FsyncPolicyName(options_.fsync_policy) + ")",
                 [](const Latency& l) { return &l[0]; }, "wal_append_durable_count")
      .Histogram("wal_batch_records", "records per group-commit batch",
                 [](const Latency& l) { return &l[1]; })
      .As("cuckoo_wal_group_commit_records")
      .Histogram("snapshot_walk_ns", "fuzzy snapshot walk+publish duration",
                 [](const Latency& l) { return &l[2]; }, "snapshot_walk_count");
  return {wal.Build(), dm.Build(), latency.Build()};
}

}  // namespace persist
}  // namespace cuckoo
