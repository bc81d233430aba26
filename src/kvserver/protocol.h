// A memcached-text-protocol subset codec — the interface the paper's base
// system (MemC3, a memcached fork) speaks. Incremental: feed bytes as they
// arrive; complete requests are consumed, partial ones wait for more input.
//
// Supported commands:
//   get <key> [<key>...]\r\n                        (multi-key: one VALUE block
//   gets <key> [<key>...]\r\n                        per hit, single END)
//   set <key> <flags> <exptime> <bytes>\r\n<data>\r\n
//   cas <key> <flags> <exptime> <bytes> <casid>\r\n<data>\r\n
//   delete <key>\r\n
//   touch <key> <exptime>\r\n
//   stats [detail|slowlog]\r\n                      (detail adds latency
//                                                    percentiles; slowlog dumps
//                                                    the slow-op ring buffer)
//   bgsave\r\n                                      (OK / BUSY; durability ext.)
//   replicate <next_lsn>\r\n                        (upgrades the connection into
//                                                    a WAL-streaming replication
//                                                    channel; see docs/replication.md)
//   replicaof none\r\n                              (promote a replica to primary;
//                                                    "replicaof <host> <port>" is
//                                                    parsed but runtime re-pointing
//                                                    may be rejected by the server)
// Responses follow the memcached text protocol (VALUE/END, STORED, EXISTS,
// DELETED, NOT_FOUND, TOUCHED, ERROR). exptime follows memcached semantics:
// 0 = never expires, values up to 30 days are a relative TTL in seconds,
// larger values are an absolute UNIX timestamp. Expiry is evaluated lazily
// on access.
#ifndef SRC_KVSERVER_PROTOCOL_H_
#define SRC_KVSERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cuckoo {

enum class RequestType : std::uint8_t {
  kGet,
  kGets,   // get + cas id in the VALUE line
  kSet,
  kCas,    // compare-and-swap on the cas id
  kDelete,
  kTouch,  // update expiry only
  kStats,
  kBgsave,     // trigger an online snapshot (replies OK or BUSY)
  kReplicate,  // upgrade this connection into a WAL-streaming channel
  kReplicaof,  // replication control ("replicaof none" promotes a replica)
};

struct Request {
  RequestType type;
  std::string key;                // first (or only) key
  std::vector<std::string> keys;  // get/gets only: every requested key
  std::string data;               // set/cas only
  std::uint32_t flags = 0;        // set/cas only
  std::uint32_t exptime = 0;
  std::uint64_t cas_id = 0;  // cas only
  std::string stats_arg;     // stats only: optional sub-report ("detail", ...)
  std::uint64_t repl_lsn = 0;   // replicate only: first LSN the replica wants
  std::string repl_host;        // replicaof only; empty for "none"
  std::uint16_t repl_port = 0;  // replicaof only
};

enum class ParseStatus : std::uint8_t {
  kOk,          // *out holds a complete request; input was consumed
  kNeedMore,    // partial request; feed more bytes
  kError,       // malformed line; the offending line was consumed
};

// Streaming request parser. Append input with Feed(); pull requests with
// Next() until it stops returning kOk.
class RequestParser {
 public:
  // Hard caps so a malicious stream cannot balloon the buffer.
  static constexpr std::size_t kMaxKeyLength = 250;        // memcached's limit
  static constexpr std::size_t kMaxDataLength = 1 << 20;   // 1 MiB
  static constexpr std::size_t kMaxGetKeys = 64;           // keys per multi-get
  // A rejected set/cas still announces a data block; we swallow it (so the
  // payload is not reparsed as commands) as long as it is plausibly sized.
  // Beyond this the stream is unrecoverable and the parser marks itself
  // broken so the connection can be closed.
  static constexpr std::size_t kMaxSwallowLength = 8 << 20;  // 8 MiB

  void Feed(std::string_view bytes) { buffer_.append(bytes); }

  // Extract the next complete request from the buffered input.
  ParseStatus Next(Request* out);

  // Bytes currently buffered (for tests / backpressure decisions).
  std::size_t BufferedBytes() const noexcept { return buffer_.size(); }

  // Drain and return the unparsed buffered input. Connection-upgrade path:
  // bytes past a `replicate` line are replication-channel traffic (early
  // ACKs), not protocol commands, and must travel with the fd.
  std::string TakeBuffered() {
    std::string bytes;
    bytes.swap(buffer_);
    return bytes;
  }

  // True once the stream cannot be resynchronized (e.g. a rejected set
  // announced an implausibly large data block). The connection should be
  // closed; Next() keeps returning kError.
  bool Broken() const noexcept { return broken_; }

 private:
  ParseStatus ParseCommandLine(std::string_view line, Request* out);

  std::string buffer_;
  // set-command state: after the command line is parsed we wait for
  // data_needed_ + 2 bytes (payload + trailing CRLF).
  bool awaiting_data_ = false;
  // The pending data block belongs to a rejected command line: swallow it
  // without emitting a request (memcached's CLIENT_ERROR flow).
  bool discard_data_ = false;
  bool broken_ = false;
  std::size_t data_needed_ = 0;
  Request pending_;
};

// Response serializers (append to `out`).
void AppendValueResponse(std::string_view key, std::uint32_t flags, std::string_view data,
                         std::string* out);
// gets-style VALUE line including the cas id.
void AppendValueResponseWithCas(std::string_view key, std::uint32_t flags,
                                std::string_view data, std::uint64_t cas_id, std::string* out);
void AppendEnd(std::string* out);          // END\r\n   (terminates a get)
void AppendStored(std::string* out);       // STORED\r\n
void AppendNotStored(std::string* out);    // NOT_STORED\r\n
void AppendDeleted(std::string* out);      // DELETED\r\n
void AppendNotFound(std::string* out);     // NOT_FOUND\r\n
void AppendError(std::string* out);        // ERROR\r\n
void AppendExists(std::string* out);       // EXISTS\r\n (cas id mismatch)
void AppendTouched(std::string* out);      // TOUCHED\r\n
void AppendOk(std::string* out);           // OK\r\n      (bgsave started)
void AppendBusy(std::string* out);         // BUSY\r\n    (bgsave already running)
// SERVER_ERROR <message>\r\n — the request was understood but could not be
// completed (e.g. the write-ahead log is in an unrecoverable I/O-error state).
void AppendServerError(std::string_view message, std::string* out);

}  // namespace cuckoo

#endif  // SRC_KVSERVER_PROTOCOL_H_
