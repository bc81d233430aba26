// SocketServer — an epoll-based, non-blocking network front end for
// KvService, serving the memcached text protocol over UNIX domain sockets
// and/or loopback TCP. This is the production-shaped layer the in-process
// service plugs into:
//
//   * N event-loop threads, each with its own epoll instance; listening
//     sockets are registered in every loop with EPOLLEXCLUSIVE so the kernel
//     wakes exactly one loop per connection burst. Accepted sockets are then
//     spread round-robin across loops (the accepting loop hands foreign fds
//     over via a per-loop queue + wake eventfd); once adopted, a connection
//     is owned by exactly one loop for its lifetime.
//   * Request pipelining: a readable event drains the socket, parses every
//     complete request in the input, and responds with one accumulated
//     flush (writev-style single send of all pending responses).
//   * Robustness controls: max-connection cap (accept-then-close over the
//     limit), per-connection idle timeout, output-buffer backpressure (a
//     connection that doesn't read its responses stops being read from until
//     it drains), input caps via RequestParser, and graceful shutdown that
//     stops reading, flushes in-flight responses up to a drain deadline,
//     then closes.
//   * Parked reads (larger-than-memory tier): a GET whose values live in the
//     value log suspends the connection instead of blocking the event loop.
//     The loop keeps serving other connections; when the disk reads land on
//     reader threads, a completion token wakes the owning loop, which renders
//     the response and resumes the connection's buffered input stream. Parked
//     connections are immune to idle reaping, and a graceful Stop() lets
//     their in-flight reads finish (bounded by the drain deadline) so the
//     response is either fully flushed or never started — no torn writes.
//   * Pending write acks (fsync=always, semi-sync): a write whose durable
//     ack still waits puts its reply behind an ack fence and the stream
//     keeps executing; output is flushed only up to the first unresolved
//     fence. One notification per Drive batch posts the connection id to the
//     same completion queue, and one resume routine serves both kinds of
//     wait. The same reaping and drain rules apply.
#ifndef SRC_KVSERVER_SOCKET_SERVER_H_
#define SRC_KVSERVER_SOCKET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/kvserver/kv_service.h"
#include "src/obs/catalog.h"

namespace cuckoo {

class SocketServer {
 public:
  struct Options {
    // UNIX listener: empty = disabled. The path is unlinked and re-created.
    std::string unix_path;
    // TCP listener on loopback: disabled unless enable_tcp. Port 0 binds an
    // ephemeral port; read the result from tcp_port() after Start().
    bool enable_tcp = false;
    std::uint16_t tcp_port = 0;
    // Event-loop threads (>= 1). Accepted connections are spread across
    // loops round-robin, so concurrency scales with this even when one loop
    // drains the whole accept backlog.
    int event_threads = 2;
    // Hard cap on concurrent connections; over the cap, accepts are closed
    // immediately (counted in StatsSnapshot::rejected_over_limit).
    std::size_t max_connections = 1024;
    // Close connections silent for this long. 0 = never.
    std::uint64_t idle_timeout_ms = 0;
    // Backpressure: stop reading from a connection whose un-flushed output
    // exceeds this; resume when it drains below half.
    std::size_t max_output_buffered = 8u << 20;
    // Close a connection whose buffered partial request exceeds this.
    std::size_t max_input_buffered = 2u << 20;
    // Graceful Stop(): how long to keep flushing in-flight responses.
    std::uint64_t drain_timeout_ms = 1000;
    // Replication upgrade: when a connection issues `replicate <lsn>`, the
    // server detaches its fd from the event loop and hands it here along
    // with the requested start LSN and any input bytes that arrived after
    // the command line (early ACKs). The callee owns the fd (non-blocking;
    // it may flip it back to blocking). Unset => the verb is answered with
    // SERVER_ERROR at the service layer.
    std::function<void(int fd, std::uint64_t start_lsn, std::string leftover)>
        replication_handoff;
  };

  struct StatsSnapshot {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_over_limit = 0;
    std::uint64_t closed_idle = 0;
    std::uint64_t curr_connections = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t backpressure_pauses = 0;
    // Connections suspended on an async value-log read (cumulative), and the
    // number currently suspended.
    std::uint64_t parked_reads = 0;
    std::uint64_t curr_parked = 0;
  };

  SocketServer(KvService* service, Options options);
  // Legacy convenience: UNIX-only server with default options.
  SocketServer(KvService* service, std::string path);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Bind + listen + start the event loops. Returns false on socket errors.
  // Also registers the server's counters in the service's metric catalog
  // (replacing an earlier Start's; removed when the server is destroyed).
  bool Start();

  // Graceful stop: stop accepting and reading, flush pending responses
  // (bounded by drain_timeout_ms), close everything, join the loops.
  void Stop();

  const std::string& path() const noexcept { return options_.unix_path; }
  // Actual TCP port after Start() (useful with tcp_port = 0).
  std::uint16_t tcp_port() const noexcept { return bound_tcp_port_; }

  std::uint64_t ConnectionsAccepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  StatsSnapshot Stats() const noexcept;

 private:
  struct Conn;
  struct Loop;

  void RunLoop(Loop* loop);
  void HandleAccept(Loop* loop, int listen_fd);
  void RegisterConn(Loop* loop, int fd);
  void AdoptPendingFds(Loop* loop);
  void HandleReadable(Loop* loop, Conn* conn);
  bool FlushOutput(Loop* loop, Conn* conn);  // false = connection died
  void CloseConn(Loop* loop, Conn* conn);
  // CloseConn minus the ::close(): deregisters the connection and returns
  // its fd to the caller (replication upgrade handoff).
  int DetachConn(Loop* loop, Conn* conn);
  // Flush pipelined responses, detach the fd, invoke replication_handoff.
  void UpgradeToReplication(Loop* loop, Conn* conn);
  void UpdateEvents(Loop* loop, Conn* conn);
  void SweepIdle(Loop* loop, std::uint64_t now_ms);
  // Run `bytes` (none on a resume) through the connection's driver, then
  // upgrade or park on a cold GET. Returns false if the connection was
  // handed off or closed.
  bool DriveConn(Loop* loop, Conn* conn, std::string_view bytes);
  // Suspend `conn` on `deferred` and launch its disk fetches; the completion
  // callback posts the connection id to the loop's completion queue (never a
  // Conn* — the connection may die while the read is in flight).
  void ParkConn(Loop* loop, Conn* conn, std::shared_ptr<KvService::DeferredGet> deferred);
  // Drain the loop's completion queue, resuming each connection it names.
  void ProcessCompletions(Loop* loop, bool draining);
  // The one resume routine for a waiting connection: release decided write
  // acks, render a parked GET whose reads all landed and resume its input
  // (or, when draining, close after the flush), then flush.
  void ResumeConn(Loop* loop, Conn* conn, bool draining);

  KvService* service_;
  Options options_;
  int unix_listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  std::uint16_t bound_tcp_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<std::uint64_t> next_loop_{0};  // round-robin accept placement
  std::atomic<std::uint64_t> next_conn_id_{1};  // completion-token namespace

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_over_limit_{0};
  std::atomic<std::uint64_t> closed_idle_{0};
  std::atomic<std::uint64_t> curr_connections_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> backpressure_pauses_{0};
  std::atomic<std::uint64_t> parked_reads_{0};
  std::atomic<std::uint64_t> curr_parked_{0};
  // Declared last: unregisters before anything its readers touch is gone.
  obs::MetricCatalog::Handle metrics_;
};

// Minimal blocking client for tests, examples, and benches: connects over a
// UNIX socket or loopback TCP, sends protocol bytes, reads responses.
class SocketClient {
 public:
  explicit SocketClient(const std::string& path);          // UNIX
  SocketClient(const std::string& host, std::uint16_t port);  // TCP
  ~SocketClient();

  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  bool connected() const noexcept { return fd_ >= 0; }

  // Send raw bytes (blocking until fully written). Returns false on error.
  bool Send(std::string_view bytes);

  // One blocking read; appends to *buffer. Returns bytes read (0 = EOF,
  // negative = error).
  long Receive(std::string* buffer);

  // Send `request` and read until the response ends with `terminator`
  // (e.g. "END\r\n" for get, "STORED\r\n" for set). Returns the raw bytes.
  std::string RoundTrip(const std::string& request, const std::string& terminator);

 private:
  int fd_ = -1;
};

}  // namespace cuckoo

#endif  // SRC_KVSERVER_SOCKET_SERVER_H_
