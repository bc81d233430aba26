// DurabilityManager — glues WAL + snapshots + recovery onto a KvService.
//
//   * Start(): recover from disk, open the WAL at the recovered next LSN,
//     install itself as the service's MutationObserver (OnSet/OnDelete
//     assign LSNs inside table critical sections; WaitDurable gates the
//     synchronous API's acks per the fsync policy) and as its AckSource (the
//     socket path's non-blocking acks: WAL group commit, then semi-sync
//     replication), install the `bgsave` hook, and register the durability
//     counters in the service's metric catalog (until destruction).
//   * A background snapshot worker takes online fuzzy snapshots — triggered
//     by WAL growth (snapshot_trigger_bytes) or an explicit bgsave — and
//     garbage-collects WAL segments the published snapshot covers.
//   * Stop(): final WAL flush + fsync (graceful shutdown: every acked AND
//     every applied-but-unacked mutation is on disk), then stop threads.
#ifndef SRC_PERSIST_DURABILITY_H_
#define SRC_PERSIST_DURABILITY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/common/timing.h"
#include "src/kvserver/kv_service.h"
#include "src/obs/catalog.h"
#include "src/obs/histogram.h"
#include "src/persist/recovery.h"
#include "src/persist/repl_bridge.h"
#include "src/persist/wal.h"

namespace cuckoo {
namespace persist {

struct DurabilityOptions {
  std::string dir;
  FsyncPolicy fsync_policy = FsyncPolicy::kEverySec;
  std::uint64_t segment_bytes = 64u << 20;
  // Take a snapshot once this many WAL bytes accumulate since the last one.
  // 0 disables automatic snapshots (bgsave still works).
  std::uint64_t snapshot_trigger_bytes = 0;
  int snapshot_max_attempts = 8;
  // The larger-than-memory tier, when the service runs one. Must be opened
  // BEFORE Start() — recovery validates tiered locations against the live
  // value log — and must outlive this manager. Under fsync=always the WAL's
  // log-writer thread syncs the value log before each group-commit fsync, so
  // an acked tiered write has both its bytes and its index record on disk.
  store::TieredStore* tier = nullptr;
};

class DurabilityManager : public KvService::MutationObserver, public KvService::AckSource {
 public:
  explicit DurabilityManager(KvService* service) : service_(service) {}
  ~DurabilityManager() override { Stop(); }

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  // Recover, open the WAL, hook into the service, start the snapshot worker.
  bool Start(DurabilityOptions options, std::string* error);

  // Graceful shutdown: flush + fsync the WAL, stop the workers. Idempotent.
  void Stop();

  // bgsave: returns false if a snapshot is already in flight.
  bool TriggerSnapshot();

  // ----- Replication ---------------------------------------------------------

  // Install BEFORE Start() (primary side). The bridge receives group-commit
  // notifications, gates semi-sync acks, and holds back WAL GC for lagging
  // replicas. Must outlive this manager.
  void SetReplicationBridge(ReplicationBridge* bridge) { bridge_ = bridge; }

  // Replica side: apply one record from the primary's stream — append it to
  // the local WAL (preserving the primary's LSN) and apply it to the table.
  // Returns false on an LSN gap (the caller must resync) or a malformed
  // record. Safe to call concurrently with serving GETs.
  bool ApplyReplicated(const WalRecord& record, std::string* error);

  // Replica bootstrap: replace ALL local state with the primary's snapshot
  // (already downloaded to `snapshot_path`, values inlined) and restart the
  // local WAL at snapshot_lsn + 1 so the live stream appends contiguously.
  // Blocks out the snapshot worker for the duration.
  bool ResyncFromSnapshot(const std::string& snapshot_path, std::uint64_t snapshot_lsn,
                          std::string* error);

  std::uint64_t ReplicaAppliedRecords() const noexcept {
    return replica_applied_records_.load(std::memory_order_relaxed);
  }
  std::uint64_t ReplicaResyncs() const noexcept {
    return replica_resyncs_.load(std::memory_order_relaxed);
  }

  // Block until the currently pending/running snapshot round completes
  // (test support). Returns false if that round failed.
  bool WaitForSnapshot();

  const RecoveryStats& recovery() const noexcept { return recovery_; }
  const WriteAheadLog& wal() const noexcept { return wal_; }
  // Test-only mutable access (fault injection).
  WriteAheadLog& wal_for_testing() noexcept { return wal_; }
  std::uint64_t SnapshotsCompleted() const noexcept {
    return snapshots_completed_.load(std::memory_order_relaxed);
  }

  // KvService::MutationObserver — OnSet/OnDelete are called inside bucket
  // critical sections.
  std::uint64_t OnSet(std::string_view key, const KvService::StoredValue& stored) override {
    if (stored.Tiered()) {
      // The WAL carries the 16-byte location record, never the value bytes
      // (those are already in the value log) — tiered writes cost the WAL a
      // fixed-size entry regardless of value size.
      std::string loc;
      store::EncodeValueLocation(stored.loc, &loc);
      return wal_.Append(WalRecord::Type::kSetTiered, key, loc, stored.flags,
                         stored.expires_at, stored.cas_id);
    }
    return wal_.Append(WalRecord::Type::kSet, key, stored.data, stored.flags,
                       stored.expires_at, stored.cas_id);
  }
  std::uint64_t OnDelete(std::string_view key) override {
    return wal_.Append(WalRecord::Type::kDelete, key, {}, 0, 0, 0);
  }
  // The synchronous API's ack: the blocking form of NotifyAcked.
  bool WaitDurable(std::uint64_t lsn) override;

  // KvService::AckSource — the one ack decision: the WAL's group commit
  // first, then (semi-sync) a replica. A write the local log refused is
  // never put to a replica, so a replica ack cannot resurrect it: the
  // replica may hold the record, but this node would lose it on restart and
  // then serve reads that contradict its own ack.
  bool TryAck(std::uint64_t lsn, bool* ok) override;
  void NotifyAcked(std::vector<std::uint64_t> lsns,
                   std::function<void(std::uint64_t acked_through)> done) override;
  // Append->ack latency under the active policy: the client-visible
  // durability cost, recorded on whichever thread decides the ack.
  void AckResolved(std::uint64_t append_ns) override {
    append_durable_ns_.Record(NowNanos() - append_ns);
  }

  // GC persist barrier (TieredStore::PersistBarrierFn): every relocation's
  // new value bytes and WAL records become durable before the old segment
  // may be unlinked.
  bool PersistBarrier() {
    if (options_.tier != nullptr && !options_.tier->SyncLog()) {
      return false;
    }
    return wal_.Flush();
  }

  obs::HistogramSnapshot AppendDurableSnapshot() const {
    return append_durable_ns_.Snapshot();
  }
  obs::HistogramSnapshot SnapshotWalkSnapshot() const {
    return snapshot_walk_ns_.Snapshot();
  }

 private:
  void SnapshotWorker();
  bool RunSnapshot();
  // wal_*/snapshot_*/replica_*/recovery_* counters, plus the latency
  // distributions (append->durable under the active fsync policy, snapshot
  // walk, group-commit batch size) on `stats detail`.
  std::vector<obs::MetricGroup> MetricGroups() const;

  KvService* service_;
  DurabilityOptions options_;
  WriteAheadLog wal_;
  RecoveryStats recovery_;
  ReplicationBridge* bridge_ = nullptr;  // set before Start(), then read-only

  Mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  bool snapshot_requested_ GUARDED_BY(mutex_) = false;
  bool snapshot_running_ GUARDED_BY(mutex_) = false;
  // Replica bootstrap in progress: the snapshot worker must not touch the
  // WAL (it is closed and the directory is being rewritten).
  bool resync_in_progress_ GUARDED_BY(mutex_) = false;
  bool stop_ GUARDED_BY(mutex_) = false;
  std::uint64_t rounds_done_ GUARDED_BY(mutex_) = 0;
  std::uint64_t rounds_started_ GUARDED_BY(mutex_) = 0;
  bool last_round_ok_ GUARDED_BY(mutex_) = true;
  std::thread snapshot_thread_;
  bool started_ GUARDED_BY(mutex_) = false;

  std::uint64_t bytes_at_last_snapshot_ GUARDED_BY(mutex_) = 0;
  std::uint64_t last_vlog_sync_ms_ GUARDED_BY(mutex_) = 0;
  std::atomic<std::uint64_t> snapshots_completed_{0};
  std::atomic<std::uint64_t> snapshot_failures_{0};
  std::atomic<std::uint64_t> last_snapshot_lsn_{0};
  std::atomic<std::uint64_t> last_snapshot_entries_{0};
  std::atomic<std::uint64_t> snapshot_walk_lock_fallbacks_{0};
  std::atomic<std::uint64_t> snapshot_displaced_entries_{0};
  std::atomic<std::uint64_t> replica_applied_records_{0};
  // Replicated kSetTiered records whose location did not validate against
  // the local value log (expected on a replica — the stream normally
  // rewrites them to inline sets; counted so silent skips are visible).
  std::atomic<std::uint64_t> replica_skipped_tiered_{0};
  std::atomic<std::uint64_t> replica_resyncs_{0};

  // Latency distributions (nanoseconds). Append->durable is recorded once
  // per answered write; snapshot walks are rare and recorded per round.
  obs::Histogram append_durable_ns_;
  obs::Histogram snapshot_walk_ns_;

  // Declared last: unregisters before anything its readers touch is gone.
  obs::MetricCatalog::Handle metrics_;
};

}  // namespace persist
}  // namespace cuckoo

#endif  // SRC_PERSIST_DURABILITY_H_
