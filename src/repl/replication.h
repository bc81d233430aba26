// Shared replication definitions: ack levels and the stream protocol.
//
// Wire protocol (text handshake, then binary WAL frames):
//   replica -> primary   "replicate <next_lsn>\r\n"  (normal protocol verb;
//                        the server detaches the fd and hands it to the hub)
//   primary -> replica   "SYNC <start_lsn> ack=<0|1>\r\n"
//                        followed by an endless sequence of WAL wire frames
//                        (src/persist/wal.h record framing), LSNs contiguous
//                        from start_lsn; OR
//                        "FULLSYNC <snapshot_lsn> <nbytes>\r\n"
//                        followed by exactly nbytes of replica-snapshot file
//                        (values inlined), then frames from snapshot_lsn + 1.
//   replica -> primary   "ACK <lsn>\r\n" text lines on the same socket
//                        (requested via ack=1): every record with lsn <= that
//                        is applied locally.
// A frame whose lsn == 0 is a heartbeat: never persisted, and the replica
// answers it with an ACK of its last applied LSN so lag stays observable on
// an idle stream.
#ifndef SRC_REPL_REPLICATION_H_
#define SRC_REPL_REPLICATION_H_

#include <cstdint>
#include <string_view>

namespace cuckoo {
namespace repl {

// How a client-visible write ack relates to replication:
//   kNone     — replicas stream without acking; client acks never wait.
//   kAsync    — replicas ack (lag is tracked) but client acks never wait.
//   kSemiSync — a client ack additionally waits for one replica ack (or the
//               timeout / degraded rule; see ReplicationHub::NotifyReplicated).
enum class AckLevel : std::uint8_t { kNone, kAsync, kSemiSync };

// "none" / "async" / "semi-sync".
bool ParseAckLevel(std::string_view name, AckLevel* out);
const char* AckLevelName(AckLevel level);

}  // namespace repl
}  // namespace cuckoo

#endif  // SRC_REPL_REPLICATION_H_
