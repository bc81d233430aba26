// The durability layer's view of replication. DurabilityManager owns the
// WAL and the client-visible ack path; the replication hub (src/repl/) owns
// sockets and replica state. This interface is the seam between them, so
// persist never links against repl.
#ifndef SRC_PERSIST_REPL_BRIDGE_H_
#define SRC_PERSIST_REPL_BRIDGE_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace cuckoo {
namespace persist {

class ReplicationBridge {
 public:
  virtual ~ReplicationBridge() = default;

  // Called by the WAL's log-writer thread after each group-commit drain
  // (see WriteAheadLog::SetCommitSink): records up to `written_lsn` are in
  // the file and streamable; `durable_lsn` is the fsync watermark. Must be
  // cheap — it runs on the group-commit path.
  virtual void OnWalCommit(std::uint64_t written_lsn, std::uint64_t durable_lsn) = 0;

  // True if client acks wait on replicas at all (semi-sync). When false the
  // durability layer never asks NotifyReplicated.
  virtual bool GatesAcks() const = 0;

  // Semi-sync gate, for the client writes logged at `lsns` (ascending,
  // non-empty): run done(replicated_through) exactly once, on any thread
  // (possibly inline), once a replica acknowledged them or the configured
  // timeout / degraded-mode rule says stop. LSNs <= replicated_through may
  // be acked to the client, the rest must not. Must not block: it is called
  // from the WAL's log-writer thread and from event loops. Only ever asked
  // about writes the local WAL already made durable — a replica ack can
  // never resurrect a write the local WAL failed.
  virtual void NotifyReplicated(std::vector<std::uint64_t> lsns,
                                std::function<void(std::uint64_t replicated_through)> done) = 0;

  // Smallest LSN any connected replica still needs from the local WAL
  // (UINT64_MAX when none): snapshot GC must not remove segments at or
  // above it, or every lagging replica is forced into a full resync.
  virtual std::uint64_t MinReplicaLsn() = 0;
};

}  // namespace persist
}  // namespace cuckoo

#endif  // SRC_PERSIST_REPL_BRIDGE_H_
