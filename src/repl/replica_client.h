// ReplicaClient — the replica side of WAL-shipping replication.
//
// A single background thread maintains the link to the primary: connect,
// send `replicate <next_lsn>` (next_lsn = local WAL head + 1, so a restart
// resumes exactly where the local log ends), then either
//   * "SYNC <lsn> ..."      — apply the live frame stream record by record
//     through DurabilityManager::ApplyReplicated (local WAL first, table
//     second, LSNs preserved), or
//   * "FULLSYNC <lsn> <n>"  — download the snapshot to a temp file, swap all
//     local state for it (DurabilityManager::ResyncFromSnapshot), then apply
//     the stream from lsn + 1.
// Applied positions are acknowledged with "ACK <lsn>" lines on the same
// socket (heartbeats are acked too, keeping lag observable when idle). Any
// stream error — disconnect, CRC mismatch, LSN gap — tears the session down
// and reconnects with exponential backoff; the handshake re-negotiates
// resume-vs-bootstrap from scratch, so every failure mode converges.
//
// Stop() also doubles as promotion: the caller stops the client, then flips
// the service out of read-only mode (see server_main's `replicaof none`).
#ifndef SRC_REPL_REPLICA_CLIENT_H_
#define SRC_REPL_REPLICA_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/obs/catalog.h"
#include "src/persist/durability.h"

namespace cuckoo {
namespace repl {

struct ReplicaClientOptions {
  std::string host;  // primary address (dotted quad or "localhost")
  std::uint16_t port = 0;
  persist::DurabilityManager* durability = nullptr;
  std::string wal_dir;  // scratch space for the bootstrap snapshot download
  std::uint64_t reconnect_min_ms = 50;
  std::uint64_t reconnect_max_ms = 2000;
};

class ReplicaClient {
 public:
  enum class State : int { kDisconnected, kConnecting, kFullSync, kStreaming };

  explicit ReplicaClient(ReplicaClientOptions options);
  ~ReplicaClient();

  ReplicaClient(const ReplicaClient&) = delete;
  ReplicaClient& operator=(const ReplicaClient&) = delete;

  // Spawn the replication thread. Call once, before the server's listeners
  // open — a `replicaof none` arriving between the two would otherwise
  // promote first and be overridden by this Start.
  void Start();

  // Disconnect and join the thread. Idempotent; safe from any thread
  // (including a server event loop handling `replicaof none`) — the
  // lifecycle is serialized internally.
  void Stop();

  State state() const { return static_cast<State>(state_.load(std::memory_order_acquire)); }
  const char* StateName() const;
  std::uint64_t Reconnects() const { return reconnects_.load(std::memory_order_relaxed); }
  std::uint64_t FullSyncs() const { return full_syncs_.load(std::memory_order_relaxed); }
  std::uint64_t CorruptStreams() const {
    return corrupt_streams_.load(std::memory_order_relaxed);
  }
  const std::string& primary_host() const { return options_.host; }
  std::uint16_t primary_port() const { return options_.port; }

  // Register the replica-side repl_* counters in `catalog`, replacing an
  // earlier registration; removed on destruction.
  void RegisterMetrics(obs::MetricCatalog* catalog);

 private:
  void Run();
  // One connection lifetime. Returns when the session dies; Run reconnects.
  void Session();
  int Connect();
  // Read up to and including '\n' into *line; overflow into *spill.
  bool ReadLine(int fd, std::string* line, std::string* spill);
  bool ReceiveSnapshot(int fd, std::uint64_t nbytes, std::string* carry,
                       const std::string& path);
  bool SendAck(int fd);
  // Poll+recv with stop checks; 0 = timeout, <0 = dead, >0 = bytes appended.
  long Receive(int fd, std::string* buffer);

  ReplicaClientOptions options_;
  // Serializes Start/Stop (e.g. a promotion racing shutdown); Run() never
  // takes it, so joining under the lock cannot deadlock.
  Mutex lifecycle_mu_;
  std::thread thread_ GUARDED_BY(lifecycle_mu_);
  bool started_ GUARDED_BY(lifecycle_mu_) = false;
  std::atomic<bool> stop_{false};
  std::atomic<int> fd_{-1};  // live socket, for Stop() to shutdown()
  std::atomic<int> state_{static_cast<int>(State::kDisconnected)};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> full_syncs_{0};
  std::atomic<std::uint64_t> corrupt_streams_{0};
  std::atomic<std::uint64_t> acks_sent_{0};

  // Declared last: unregisters before anything its readers touch is gone.
  obs::MetricCatalog::Handle metrics_;
};

}  // namespace repl
}  // namespace cuckoo

#endif  // SRC_REPL_REPLICA_CLIENT_H_
