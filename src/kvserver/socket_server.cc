#include "src/kvserver/socket_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace cuckoo {
namespace {

std::uint64_t NowMs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

bool FillUnixAddress(const std::string& path, sockaddr_un* addr) {
  if (path.size() + 1 > sizeof(addr->sun_path)) {
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

// Completion tokens: a connection's id, posted when something it waits on is
// decided — a parked GET's last disk read (value-log reader thread) or a
// write-ack notification (WAL writer thread, replication hub). Callbacks
// hold shared ownership of this queue plus the numeric id — never a Conn* —
// so a connection may die while it waits and the stale token is simply
// dropped; a token only says "look again". The eventfd
// write happens under the mutex, and the owning loop sets `dead` (under the
// same mutex) before the fd is closed, so a late completion can never write
// to a closed or recycled descriptor.
struct CompletionQueue {
  explicit CompletionQueue(int fd) : wake_fd(fd) {}

  void Post(std::uint64_t id) {
    MutexLock lk(mu);
    if (dead) {
      return;
    }
    ready.push_back(id);
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }

  Mutex mu;
  std::vector<std::uint64_t> ready GUARDED_BY(mu);
  bool dead GUARDED_BY(mu) = false;
  const int wake_fd;
};

}  // namespace

// One connection (or listener / wakeup sentinel) as seen by an event loop.
// Connections are owned by exactly one loop thread; no locking needed.
struct SocketServer::Conn {
  enum class Kind : std::uint8_t { kConnection, kListener, kWake };

  // `acks_decided`: see KvService::Connection.
  Conn(Kind k, int f, KvService* service, std::function<void()> acks_decided = {})
      : kind(k), fd(f), driver(service->Connect(std::move(acks_decided))) {}

  Kind kind;
  int fd;
  std::uint64_t id = 0;  // completion-token namespace (stable for the lifetime)
  KvService::Connection driver;
  std::string out;           // accumulated, not-yet-flushed responses
  std::size_t out_off = 0;   // bytes of `out` already sent
  std::uint64_t last_active_ms = 0;
  bool paused_read = false;      // backpressure, park, or drain: EPOLLIN disabled
  bool want_write = false;       // partial flush pending: EPOLLOUT enabled
  std::uint32_t events = EPOLLIN;  // the interest mask epoll currently holds
  bool close_after_flush = false;
  // Non-null while suspended on async value-log reads. The in-flight reads
  // reference only this shared DeferredGet and the loop's completion queue,
  // so closing a parked connection is always safe (no use-after-close).
  // Pending write acks live in `driver` (ack fences) on the same terms.
  std::shared_ptr<KvService::DeferredGet> parked;

  // Holding replies behind unresolved write acks.
  bool AckFenced() const noexcept { return driver.FlushLimit(out.size()) < out.size(); }
  // Parked, or ack-fenced.
  bool Waiting() const noexcept { return parked != nullptr || AckFenced(); }
};

struct SocketServer::Loop {
  int epoll_fd = -1;
  std::unique_ptr<Conn> wake;
  std::unique_ptr<Conn> unix_listener;
  std::unique_ptr<Conn> tcp_listener;
  std::vector<Conn*> conns;
  // id -> Conn for resuming waiting connections; a completion token whose id
  // is absent here raced a close and is ignored.
  std::unordered_map<std::uint64_t, Conn*> by_id;
  std::shared_ptr<CompletionQueue> completions;
  // Accepted sockets handed to this loop by another loop's accept path
  // (round-robin placement); adopted on the next wake-eventfd tick.
  Mutex pending_mu;
  std::vector<int> pending_fds GUARDED_BY(pending_mu);
  std::thread thread;
};

SocketServer::SocketServer(KvService* service, Options options)
    : service_(service), options_(std::move(options)) {
  if (options_.event_threads < 1) {
    options_.event_threads = 1;
  }
}

SocketServer::SocketServer(KvService* service, std::string path)
    : SocketServer(service, [&] {
        Options o;
        o.unix_path = std::move(path);
        return o;
      }()) {}

SocketServer::~SocketServer() { Stop(); }

bool SocketServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return false;
  }
  if (options_.unix_path.empty() && !options_.enable_tcp) {
    return false;
  }

  if (!options_.unix_path.empty()) {
    sockaddr_un addr;
    if (!FillUnixAddress(options_.unix_path, &addr)) {
      return false;
    }
    ::unlink(options_.unix_path.c_str());
    unix_listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (unix_listen_fd_ < 0 ||
        ::bind(unix_listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(unix_listen_fd_, 256) != 0) {
      Stop();
      return false;
    }
  }
  if (options_.enable_tcp) {
    tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (tcp_listen_fd_ < 0) {
      Stop();
      return false;
    }
    int one = 1;
    ::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (::bind(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(tcp_listen_fd_, 256) != 0) {
      Stop();
      return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      bound_tcp_port_ = ntohs(addr.sin_port);
    }
  }

  using Snap = StatsSnapshot;
  obs::MetricGroupBuilder<Snap> server("server", [this] { return Stats(); });
  server.Counter("server_connections_accepted", "Connections accepted.", &Snap::accepted)
      .Counter("server_connections_rejected", "Connections refused over max_connections.",
               &Snap::rejected_over_limit)
      .Counter("server_connections_idle_closed", "Connections closed by the idle timeout.",
               &Snap::closed_idle)
      .Gauge("server_curr_connections", "Open client connections.", &Snap::curr_connections)
      .Counter("server_bytes_read", "Bytes read from clients.", &Snap::bytes_read)
      .Counter("server_bytes_written", "Bytes written to clients.", &Snap::bytes_written)
      .Counter("server_backpressure_pauses", "Reads paused on a backed-up output buffer.",
               &Snap::backpressure_pauses)
      .Counter("server_parked_reads", "Connections suspended on a value-log read.",
               &Snap::parked_reads)
      .Gauge("server_curr_parked", "Connections suspended on a value-log read now.",
             &Snap::curr_parked);
  metrics_ = service_->metrics().Register({server.Build()});

  stopping_.store(false, std::memory_order_release);
  for (int i = 0; i < options_.event_threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    int wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || wake_fd < 0) {
      if (wake_fd >= 0) {
        ::close(wake_fd);
      }
      Stop();
      return false;
    }
    loop->wake = std::make_unique<Conn>(Conn::Kind::kWake, wake_fd, service_);
    loop->completions = std::make_shared<CompletionQueue>(wake_fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = loop->wake.get();
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev);
    // Every loop registers the listeners with EPOLLEXCLUSIVE: the kernel
    // wakes one loop per incoming connection, which then owns it.
    if (unix_listen_fd_ >= 0) {
      loop->unix_listener =
          std::make_unique<Conn>(Conn::Kind::kListener, unix_listen_fd_, service_);
      ev.events = EPOLLIN | EPOLLEXCLUSIVE;
      ev.data.ptr = loop->unix_listener.get();
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, unix_listen_fd_, &ev);
    }
    if (tcp_listen_fd_ >= 0) {
      loop->tcp_listener =
          std::make_unique<Conn>(Conn::Kind::kListener, tcp_listen_fd_, service_);
      ev.events = EPOLLIN | EPOLLEXCLUSIVE;
      ev.data.ptr = loop->tcp_listener.get();
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, tcp_listen_fd_, &ev);
    }
    loops_.push_back(std::move(loop));
  }
  running_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    Loop* raw = loop.get();
    raw->thread = std::thread([this, raw] { RunLoop(raw); });
  }
  return true;
}

void SocketServer::Stop() {
  if (running_.exchange(false)) {
    stopping_.store(true, std::memory_order_release);
    for (auto& loop : loops_) {
      std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(loop->wake->fd, &one, sizeof(one));
    }
    for (auto& loop : loops_) {
      if (loop->thread.joinable()) {
        loop->thread.join();
      }
    }
  }
  for (auto& loop : loops_) {
    // Handoffs the target loop never got to adopt before it exited.
    for (int fd : loop->pending_fds) {
      ::close(fd);
      curr_connections_.fetch_sub(1, std::memory_order_relaxed);
    }
    loop->pending_fds.clear();
    if (loop->wake) {
      ::close(loop->wake->fd);
    }
    if (loop->epoll_fd >= 0) {
      ::close(loop->epoll_fd);
    }
  }
  loops_.clear();
  if (unix_listen_fd_ >= 0) {
    ::close(unix_listen_fd_);
    unix_listen_fd_ = -1;
    ::unlink(options_.unix_path.c_str());
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
}

SocketServer::StatsSnapshot SocketServer::Stats() const noexcept {
  StatsSnapshot s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_over_limit = rejected_over_limit_.load(std::memory_order_relaxed);
  s.closed_idle = closed_idle_.load(std::memory_order_relaxed);
  s.curr_connections = curr_connections_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  s.backpressure_pauses = backpressure_pauses_.load(std::memory_order_relaxed);
  s.parked_reads = parked_reads_.load(std::memory_order_relaxed);
  s.curr_parked = curr_parked_.load(std::memory_order_relaxed);
  return s;
}

void SocketServer::UpdateEvents(Loop* loop, Conn* conn) {
  const std::uint32_t events = (conn->paused_read ? 0u : static_cast<unsigned>(EPOLLIN)) |
                               (conn->want_write ? static_cast<unsigned>(EPOLLOUT) : 0u);
  if (events == conn->events) {
    return;  // unchanged: skip the syscall
  }
  conn->events = events;
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = conn;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

void SocketServer::CloseConn(Loop* loop, Conn* conn) {
  if (conn->parked != nullptr) {
    // The in-flight disk reads keep the DeferredGet alive on their own; the
    // eventual completion token finds no conn under this id and is dropped.
    curr_parked_.fetch_sub(1, std::memory_order_relaxed);
  }
  loop->by_id.erase(conn->id);
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  for (std::size_t i = 0; i < loop->conns.size(); ++i) {
    if (loop->conns[i] == conn) {
      loop->conns[i] = loop->conns.back();
      loop->conns.pop_back();
      break;
    }
  }
  curr_connections_.fetch_sub(1, std::memory_order_relaxed);
  delete conn;
}

int SocketServer::DetachConn(Loop* loop, Conn* conn) {
  if (conn->parked != nullptr) {
    curr_parked_.fetch_sub(1, std::memory_order_relaxed);
  }
  loop->by_id.erase(conn->id);
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  const int fd = conn->fd;
  for (std::size_t i = 0; i < loop->conns.size(); ++i) {
    if (loop->conns[i] == conn) {
      loop->conns[i] = loop->conns.back();
      loop->conns.pop_back();
      break;
    }
  }
  curr_connections_.fetch_sub(1, std::memory_order_relaxed);
  delete conn;
  return fd;
}

// `replicate <lsn>` arrived: flush any responses to commands pipelined ahead
// of it (briefly blocking — past this point the fd speaks the replication
// framing, so interleaving is not an option), then detach the fd from the
// event loop and hand it to the replication hub.
void SocketServer::UpgradeToReplication(Loop* loop, Conn* conn) {
  const std::uint64_t start_lsn = conn->driver.upgrade_start_lsn();
  std::string leftover = conn->driver.TakeBufferedInput();
  const std::uint64_t deadline_ms = NowMs() + 1000;
  // A write still waiting on its ack cannot be answered once the stream
  // switches protocols: drop the connection instead (replicas open a fresh
  // connection for `replicate`, so this only catches misuse).
  bool write_ok = !conn->AckFenced();
  while (write_ok && conn->out_off < conn->out.size()) {
    ssize_t w = ::send(conn->fd, conn->out.data() + conn->out_off,
                       conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (w > 0) {
      conn->out_off += static_cast<std::size_t>(w);
      bytes_written_.fetch_add(static_cast<std::uint64_t>(w), std::memory_order_relaxed);
      continue;
    }
    if (w < 0 && errno == EINTR) {
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && NowMs() < deadline_ms) {
      pollfd p{conn->fd, POLLOUT, 0};
      ::poll(&p, 1, 50);
      continue;
    }
    write_ok = false;
    break;
  }
  const int fd = DetachConn(loop, conn);
  if (!write_ok || !options_.replication_handoff) {
    ::close(fd);
    return;
  }
  options_.replication_handoff(fd, start_lsn, std::move(leftover));
}

void SocketServer::HandleAccept(Loop* loop, int listen_fd) {
  for (;;) {
    int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // EAGAIN: another loop took it, or the backlog is drained
    }
    if (curr_connections_.fetch_add(1, std::memory_order_relaxed) >=
        options_.max_connections) {
      curr_connections_.fetch_sub(1, std::memory_order_relaxed);
      rejected_over_limit_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));  // no-op on UNIX
    // Round-robin placement. EPOLLEXCLUSIVE alone skews badly: the loop that
    // wins one wakeup usually drains the whole backlog and then carries all
    // of its connections' parsing and table work alone. Spreading
    // explicitly keeps every event thread loaded.
    Loop* target = loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) %
                          loops_.size()].get();
    if (target == loop) {
      RegisterConn(loop, fd);
      continue;
    }
    {
      MutexLock lk(target->pending_mu);
      target->pending_fds.push_back(fd);
    }
    std::uint64_t tick = 1;
    [[maybe_unused]] ssize_t n = ::write(target->wake->fd, &tick, sizeof(tick));
  }
}

// Take ownership of an accepted socket on this loop's thread: wrap it in a
// Conn and register for reads. Only ever called from `loop`'s own thread.
void SocketServer::RegisterConn(Loop* loop, int fd) {
  const std::uint64_t id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  // Decided write acks come back like finished disk reads: the connection
  // id, posted to this loop's completion queue.
  std::shared_ptr<CompletionQueue> cq = loop->completions;
  Conn* conn = new Conn(Conn::Kind::kConnection, fd, service_, [cq, id] { cq->Post(id); });
  conn->id = id;
  conn->last_active_ms = NowMs();
  loop->conns.push_back(conn);
  loop->by_id.emplace(conn->id, conn);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = conn;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
}

// Adopt sockets other loops' accept paths queued for us. Runs on `loop`'s
// thread after its wake eventfd fires. During shutdown the fds are closed
// instead — the loop is about to drain and exit.
void SocketServer::AdoptPendingFds(Loop* loop) {
  std::vector<int> fds;
  {
    MutexLock lk(loop->pending_mu);
    fds.swap(loop->pending_fds);
  }
  const bool stopping = stopping_.load(std::memory_order_acquire);
  for (int fd : fds) {
    if (stopping) {
      ::close(fd);
      curr_connections_.fetch_sub(1, std::memory_order_relaxed);
    } else {
      RegisterConn(loop, fd);
    }
  }
}

// Flush pending output up to the first unresolved write ack: a reply behind
// an ack fence (and everything after it) stays buffered until the ack is
// decided. Returns false if the connection was closed (fatal write error,
// or close_after_flush and the buffer drained).
bool SocketServer::FlushOutput(Loop* loop, Conn* conn) {
  const std::size_t limit = conn->driver.FlushLimit(conn->out.size());
  while (conn->out_off < limit) {
    ssize_t w = ::send(conn->fd, conn->out.data() + conn->out_off, limit - conn->out_off,
                       MSG_NOSIGNAL);
    if (w > 0) {
      conn->out_off += static_cast<std::size_t>(w);
      bytes_written_.fetch_add(static_cast<std::uint64_t>(w), std::memory_order_relaxed);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (w < 0 && errno == EINTR) {
      continue;
    }
    CloseConn(loop, conn);
    return false;
  }
  if (conn->out_off == conn->out.size()) {
    conn->out.clear();
    conn->out_off = 0;
    if (conn->close_after_flush) {
      CloseConn(loop, conn);
      return false;
    }
    conn->want_write = false;
    return true;
  }
  // Only sendable bytes are worth an EPOLLOUT; fenced ones wait for the ack.
  conn->want_write = conn->out_off < limit;
  if (conn->out_off >= conn->out.size() / 2) {
    // Fences keep the buffer from ever draining to empty under a steady
    // write pipeline: drop the sent prefix so it cannot grow without bound.
    conn->out.erase(0, conn->out_off);
    conn->driver.OutputConsumed(conn->out_off);
    conn->out_off = 0;
  }
  return true;
}

void SocketServer::HandleReadable(Loop* loop, Conn* conn) {
  char buffer[64 * 1024];
  bool peer_closed = false;
  for (;;) {
    ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      bytes_read_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
      conn->last_active_ms = NowMs();
      // Pipelining: Drive parses every complete request in the input and
      // appends all responses to conn->out for one accumulated flush below.
      if (!DriveConn(loop, conn, std::string_view(buffer, static_cast<std::size_t>(n)))) {
        return;
      }
      if (conn->parked != nullptr) {
        break;
      }
      if (conn->driver.Broken() ||
          conn->driver.BufferedBytes() > options_.max_input_buffered) {
        conn->close_after_flush = true;  // protocol stream unrecoverable
        break;
      }
      if (conn->out.size() - conn->out_off > options_.max_output_buffered) {
        break;  // stop pulling more input until the peer drains responses
      }
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    CloseConn(loop, conn);
    return;
  }
  if (!FlushOutput(loop, conn)) {
    return;
  }
  const std::size_t pending = conn->out.size() - conn->out_off;
  if (peer_closed || conn->close_after_flush) {
    if (pending == 0) {
      CloseConn(loop, conn);
      return;
    }
    // Half-close: the peer may still be reading. Flush what we owe, then
    // close.
    conn->close_after_flush = true;
    conn->paused_read = true;
  } else if (pending > options_.max_output_buffered) {
    if (!conn->paused_read) {
      conn->paused_read = true;
      backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (conn->parked == nullptr && conn->paused_read &&
             pending <= options_.max_output_buffered / 2) {
    conn->paused_read = false;
  }
  UpdateEvents(loop, conn);
}

void SocketServer::SweepIdle(Loop* loop, std::uint64_t now_ms) {
  if (options_.idle_timeout_ms == 0) {
    return;
  }
  std::vector<Conn*> victims;
  for (Conn* conn : loop->conns) {
    if (conn->Waiting()) {
      continue;  // waiting on disk or an ack, not idle — immune to reaping
    }
    // last_active_ms can be fresher than now_ms (now_ms is captured before
    // the event batch; reads during the batch re-stamp the connection) — an
    // unsigned subtraction would underflow and reap an active connection.
    if (conn->last_active_ms < now_ms &&
        now_ms - conn->last_active_ms >= options_.idle_timeout_ms) {
      victims.push_back(conn);
    }
  }
  for (Conn* conn : victims) {
    closed_idle_.fetch_add(1, std::memory_order_relaxed);
    CloseConn(loop, conn);
  }
}

bool SocketServer::DriveConn(Loop* loop, Conn* conn, std::string_view bytes) {
  std::shared_ptr<KvService::DeferredGet> deferred;
  const KvService::Connection::DriveStatus ds =
      conn->driver.Drive(bytes, &conn->out, &deferred);
  if (ds == KvService::Connection::DriveStatus::kUpgradeReplication) {
    UpgradeToReplication(loop, conn);
    return false;
  }
  if (deferred != nullptr) {
    ParkConn(loop, conn, std::move(deferred));
  }
  return true;
}

void SocketServer::ParkConn(Loop* loop, Conn* conn,
                            std::shared_ptr<KvService::DeferredGet> deferred) {
  conn->parked = deferred;
  conn->paused_read = true;  // unread input waits (kernel + parser) until resume
  parked_reads_.fetch_add(1, std::memory_order_relaxed);
  curr_parked_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<CompletionQueue> cq = loop->completions;
  const std::uint64_t id = conn->id;
  service_->StartFetches(deferred, [cq, id] { cq->Post(id); });
}

void SocketServer::ProcessCompletions(Loop* loop, bool draining) {
  std::vector<std::uint64_t> ready;
  {
    MutexLock lk(loop->completions->mu);
    ready.swap(loop->completions->ready);
  }
  for (std::uint64_t id : ready) {
    auto it = loop->by_id.find(id);
    if (it == loop->by_id.end()) {
      continue;  // connection died while it waited
    }
    ResumeConn(loop, it->second, draining);
  }
}

void SocketServer::ResumeConn(Loop* loop, Conn* conn, bool draining) {
  // Decided write acks release (or rewrite) their replies in place.
  conn->driver.ResolveAcks(&conn->out);
  // acquire: pairs with the last fetch's acq_rel decrement, publishing
  // every fetch's result before the response is rendered.
  if (conn->parked != nullptr && conn->parked->remaining.load(std::memory_order_acquire) == 0) {
    std::shared_ptr<KvService::DeferredGet> done = std::move(conn->parked);
    conn->parked = nullptr;
    curr_parked_.fetch_sub(1, std::memory_order_relaxed);
    service_->FinishDeferred(*done, &conn->out);
    conn->last_active_ms = NowMs();
    if (draining || conn->close_after_flush) {
      // Shutdown (or half-close) caught this connection mid-read. The
      // response is now complete in conn->out: flush it, then close. A
      // response is never torn — either the read finished and the whole
      // payload goes out, or the drain deadline closes the socket before
      // any byte of it was written.
      conn->close_after_flush = true;
    } else {
      // Resume the buffered request stream; pipelined GETs may suspend
      // again immediately, re-parking the connection for another disk round.
      if (!DriveConn(loop, conn, std::string_view())) {
        return;
      }
      if (conn->parked == nullptr &&
          (conn->driver.Broken() ||
           conn->driver.BufferedBytes() > options_.max_input_buffered)) {
        conn->close_after_flush = true;
        conn->paused_read = true;
      }
    }
  }
  if (!FlushOutput(loop, conn)) {
    return;
  }
  if (!draining && conn->parked == nullptr && !conn->close_after_flush) {
    conn->paused_read = conn->out.size() - conn->out_off > options_.max_output_buffered;
  }
  UpdateEvents(loop, conn);
}

void SocketServer::RunLoop(Loop* loop) {
  epoll_event events[64];
  bool draining = false;
  std::uint64_t drain_deadline_ms = 0;
  for (;;) {
    int timeout = -1;
    if (draining) {
      timeout = 10;
    } else if (options_.idle_timeout_ms > 0) {
      timeout = static_cast<int>(
          options_.idle_timeout_ms < 200 ? options_.idle_timeout_ms : 200);
    }
    int n = ::epoll_wait(loop->epoll_fd, events, 64, timeout);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    const std::uint64_t now = NowMs();
    for (int i = 0; i < n; ++i) {
      Conn* conn = static_cast<Conn*>(events[i].data.ptr);
      switch (conn->kind) {
        case Conn::Kind::kWake: {
          std::uint64_t drained;
          [[maybe_unused]] ssize_t r = ::read(conn->fd, &drained, sizeof(drained));
          AdoptPendingFds(loop);
          ProcessCompletions(loop, draining);
          break;
        }
        case Conn::Kind::kListener:
          if (!stopping_.load(std::memory_order_acquire)) {
            HandleAccept(loop, conn->fd);
          }
          break;
        case Conn::Kind::kConnection: {
          // Guard against a connection closed earlier in this batch: epoll
          // does not deliver dangling pointers, but a single event can carry
          // IN|OUT|HUP together; handle errors first, then writes, reads.
          if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
            CloseConn(loop, conn);
            break;
          }
          if ((events[i].events & EPOLLOUT) != 0) {
            if (!FlushOutput(loop, conn)) {
              break;  // closed
            }
            const std::size_t pending = conn->out.size() - conn->out_off;
            if (!draining && conn->paused_read && !conn->close_after_flush &&
                conn->parked == nullptr &&
                pending <= options_.max_output_buffered / 2) {
              conn->paused_read = false;  // backpressure released
            }
            UpdateEvents(loop, conn);
          }
          if ((events[i].events & EPOLLIN) != 0 && !conn->paused_read && !draining) {
            HandleReadable(loop, conn);
          }
          break;
        }
      }
    }

    if (stopping_.load(std::memory_order_acquire) && !draining) {
      // Graceful drain: stop accepting and reading; responses already owed
      // keep flushing until done or the drain deadline passes.
      draining = true;
      drain_deadline_ms = now + options_.drain_timeout_ms;
      if (loop->unix_listener) {
        ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, loop->unix_listener->fd, nullptr);
      }
      if (loop->tcp_listener) {
        ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, loop->tcp_listener->fd, nullptr);
      }
      std::vector<Conn*> snapshot = loop->conns;
      for (Conn* conn : snapshot) {
        conn->paused_read = true;
        conn->close_after_flush = true;
        if (conn->parked != nullptr) {
          continue;  // its disk reads finish first; the completion flushes+closes
        }
        // Replies behind pending write acks stay unsent until the ack lands
        // (the completion then flushes and closes) or the deadline closes
        // the socket: a reply goes out whole or not at all.
        if (FlushOutput(loop, conn)) {
          UpdateEvents(loop, conn);  // EPOLLOUT only (or nothing if drained)
        }
      }
    }
    if (draining) {
      if (loop->conns.empty()) {
        break;
      }
      if (NowMs() >= drain_deadline_ms) {
        std::vector<Conn*> snapshot = loop->conns;
        for (Conn* conn : snapshot) {
          CloseConn(loop, conn);
        }
        break;
      }
      continue;
    }
    SweepIdle(loop, now);
  }
  // Force-close anything left (drain completed or loop errored out).
  std::vector<Conn*> snapshot = loop->conns;
  for (Conn* conn : snapshot) {
    CloseConn(loop, conn);
  }
  // Late completions must not touch the wake eventfd once Stop() closes it:
  // flip `dead` under the queue mutex before this thread is joined.
  {
    MutexLock lk(loop->completions->mu);
    loop->completions->dead = true;
  }
}

// ---- SocketClient -----------------------------------------------------------

SocketClient::SocketClient(const std::string& path) {
  sockaddr_un addr;
  if (!FillUnixAddress(path, &addr)) {
    return;
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

SocketClient::SocketClient(const std::string& host, std::uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

SocketClient::~SocketClient() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

bool SocketClient::Send(std::string_view bytes) {
  if (fd_ < 0) {
    return false;
  }
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t w = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

long SocketClient::Receive(std::string* buffer) {
  if (fd_ < 0) {
    return -1;
  }
  char chunk[64 * 1024];
  for (;;) {
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n > 0) {
      buffer->append(chunk, static_cast<std::size_t>(n));
    }
    return static_cast<long>(n);
  }
}

std::string SocketClient::RoundTrip(const std::string& request, const std::string& terminator) {
  if (!Send(request)) {
    return {};
  }
  std::string response;
  while (response.size() < terminator.size() ||
         response.compare(response.size() - terminator.size(), terminator.size(),
                          terminator) != 0) {
    if (Receive(&response) <= 0) {
      break;
    }
  }
  return response;
}

}  // namespace cuckoo
