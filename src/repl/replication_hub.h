// ReplicationHub — the primary side of WAL-shipping replication.
//
// The socket server hands over connections that issued `replicate <lsn>`
// (see SocketServer::Options::replication_handoff); the hub runs one sender
// thread per replica. A sender either resumes the stream from the requested
// LSN (tailing the live WAL segments — see WalTailer) or, when the tail was
// GC'd away, bootstraps the replica with a full snapshot (values inlined)
// before streaming. The WAL's group-commit thread notifies the hub after
// every drain (DurabilityManager installs the commit sink), so senders wake
// exactly when new frames become streamable.
//
// The hub is also the DurabilityManager's ReplicationBridge: it gates
// semi-sync client acks on replica acks and holds WAL GC back to the
// slowest connected replica's position.
#ifndef SRC_REPL_REPLICATION_HUB_H_
#define SRC_REPL_REPLICATION_HUB_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/kvserver/kv_service.h"
#include "src/obs/catalog.h"
#include "src/persist/durability.h"
#include "src/persist/repl_bridge.h"
#include "src/repl/replication.h"

namespace cuckoo {
namespace repl {

struct ReplicationHubOptions {
  KvService* service = nullptr;                  // snapshot source
  persist::DurabilityManager* durability = nullptr;  // WAL owner
  store::TieredStore* tier = nullptr;  // may be null; inlines tiered values
  std::string wal_dir;                 // scratch space for replica snapshots
  AckLevel ack = AckLevel::kAsync;
  // Semi-sync: how long a write's ack waits for a replica before the write
  // is refused. Ignored at other levels.
  std::uint64_t semi_sync_timeout_ms = 1000;
  // Idle senders emit a heartbeat frame (lsn=0) this often.
  std::uint64_t heartbeat_ms = 200;
};

class ReplicationHub : public persist::ReplicationBridge {
 public:
  explicit ReplicationHub(ReplicationHubOptions options);
  ~ReplicationHub() override;

  ReplicationHub(const ReplicationHub&) = delete;
  ReplicationHub& operator=(const ReplicationHub&) = delete;

  // Take ownership of an upgraded connection (non-blocking fd) and start
  // streaming from `start_lsn`. `leftover` is input that arrived after the
  // `replicate` line (early ACKs). Wire as SocketServer's
  // replication_handoff. Safe to call from any event-loop thread.
  void Adopt(int fd, std::uint64_t start_lsn, std::string leftover);

  // Close every replica connection and join the sender threads. Idempotent;
  // called by the destructor.
  void Stop();

  // Promotion/demotion flips the role string reported in stats ("primary" /
  // "replica"); purely informational.
  void SetRole(const char* role) { role_.store(role, std::memory_order_relaxed); }

  // ----- persist::ReplicationBridge ----------------------------------------
  void OnWalCommit(std::uint64_t written_lsn, std::uint64_t durable_lsn) override;
  bool GatesAcks() const override { return options_.ack == AckLevel::kSemiSync; }
  // Queues a waiter decided by the first of: a live replica acks the last
  // of `lsns`, no replica is live (degraded: every write is acked), or
  // semi_sync_timeout_ms passes (the ACK readers double as its timer; the
  // writes no replica confirmed are refused). repl_degraded_acks and
  // repl_semi_sync_timeouts count writes, one per LSN, however the writes
  // were batched. Callbacks run on ACK-reader / peer / caller threads,
  // outside the hub's locks.
  void NotifyReplicated(std::vector<std::uint64_t> lsns,
                        std::function<void(std::uint64_t)> done) override;
  std::uint64_t MinReplicaLsn() override;

  // ----- Observability -----------------------------------------------------
  std::uint64_t ConnectedReplicas() const;
  // Replication lag of the slowest connected replica, in LSNs (0 when no
  // replicas or fully caught up).
  std::uint64_t LagLsns() const;
  // Approximate lag in WAL bytes (group-commit watermark ring; see .cc).
  std::uint64_t LagBytes() const;

  // Register the repl_* counters (per-replica lines on `stats detail`) in
  // `catalog`, replacing an earlier registration; removed on destruction.
  void RegisterMetrics(obs::MetricCatalog* catalog);

 private:
  struct Peer {
    int fd = -1;
    std::uint64_t id = 0;
    std::thread thread;
    // Dedicated ACK reader (see AckLoop): acks advance the moment they hit
    // the socket, even while the sender sleeps waiting for commits. Spawned
    // and joined by PeerLoop.
    std::thread ack_thread;
    // Highest LSN the replica acknowledged as applied.
    std::atomic<std::uint64_t> acked_lsn{0};
    // Next LSN this sender will read from the WAL (GC holdback input);
    // UINT64_MAX until known and again after the peer dies.
    std::atomic<std::uint64_t> needed_lsn{UINT64_MAX};
    // Set by Stop() and by the peer's own exit: it no longer counts as a
    // live replica for semi-sync.
    std::atomic<bool> stop{false};
    std::atomic<bool> done{false};
    std::atomic<bool> full_sync{false};  // currently/last bootstrapped
    std::atomic<std::uint64_t> sent_bytes{0};
  };

  void PeerLoop(Peer* peer, std::uint64_t start_lsn, std::string leftover);
  // Reads the peer's socket for "ACK <lsn>" lines until stop/hangup; the
  // only reader of the fd, so ack latency is one socket wakeup regardless of
  // what the sender thread is doing. On hangup it shuts the socket down so
  // the sender fails fast.
  void AckLoop(Peer* peer, std::string buffer);
  // One streaming session; returns false when the connection died.
  bool StreamTo(Peer* peer, std::uint64_t start_lsn);
  // Snapshot + send "FULLSYNC ..." + file bytes. On success *resume_lsn is
  // the first LSN the stream must continue from.
  bool SendFullSync(Peer* peer, std::uint64_t* resume_lsn);
  // Drain "ACK <lsn>" lines out of *buffer, updating the peer.
  void ConsumeAcks(Peer* peer, std::string* buffer);
  // Blocking-ish write with poll(); ACKs are the AckLoop's business, so a
  // replica that pipelines acks while we send can't deadlock the sender.
  bool WriteAll(Peer* peer, std::string_view bytes);
  void ReapDonePeers() REQUIRES(mu_);
  // Highest LSN any live replica acked; *live = how many are live.
  std::uint64_t LiveAckedLsn(std::size_t* live) const REQUIRES(mu_);
  // Decide every pending NotifyReplicated waiter that can be decided now.
  void FireAckWaiters();
  // ACK-reader poll timeout: at most 100 ms, less when a deadline is due,
  // and never longer than semi_sync_timeout_ms (a waiter queued during the
  // poll must not overshoot its deadline).
  int AckPollMs();

  ReplicationHubOptions options_;
  std::atomic<const char*> role_{"primary"};

  mutable Mutex mu_;
  std::vector<std::unique_ptr<Peer>> peers_ GUARDED_BY(mu_);
  std::uint64_t next_peer_id_ GUARDED_BY(mu_) = 1;
  bool stopping_ GUARDED_BY(mu_) = false;

  // Commit watermarks from the WAL writer thread. Senders wait on commit_cv_
  // when caught up.
  mutable Mutex commit_mu_;
  std::condition_variable commit_cv_;
  std::atomic<std::uint64_t> head_written_lsn_{0};
  std::atomic<std::uint64_t> head_durable_lsn_{0};
  // (written_lsn, wal_bytes_appended) samples, newest last — turns an acked
  // LSN into an approximate byte position for repl_lag_bytes.
  static constexpr std::size_t kLagRingSize = 128;
  struct LagSample {
    std::uint64_t lsn = 0;
    std::uint64_t bytes = 0;
  };
  LagSample lag_ring_[kLagRingSize] GUARDED_BY(commit_mu_);
  std::size_t lag_ring_next_ GUARDED_BY(commit_mu_) = 0;
  // Pending NotifyReplicated calls, in registration (= deadline) order.
  struct AckWaiter {
    std::vector<std::uint64_t> lsns;  // ascending
    std::chrono::steady_clock::time_point deadline;
    std::function<void(std::uint64_t)> done;
  };
  std::vector<AckWaiter> ack_waiters_ GUARDED_BY(commit_mu_);

  std::atomic<std::uint64_t> replicas_adopted_{0};
  std::atomic<std::uint64_t> full_syncs_{0};
  std::atomic<std::uint64_t> semi_sync_timeouts_{0};
  // Semi-sync acks granted with zero replicas connected (degraded mode).
  std::atomic<std::uint64_t> degraded_acks_{0};
  std::atomic<std::uint64_t> heartbeats_sent_{0};

  // Declared last: unregisters before anything its readers touch is gone.
  obs::MetricCatalog::Handle metrics_;
};

}  // namespace repl
}  // namespace cuckoo

#endif  // SRC_REPL_REPLICATION_HUB_H_
