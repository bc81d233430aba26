#include "src/repl/replica_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/file_util.h"
#include "src/persist/wal.h"

namespace cuckoo {
namespace repl {
namespace {

constexpr int kPollIntervalMs = 200;

bool ParseU64Token(std::string_view token, std::uint64_t* out) {
  if (token.empty()) {
    return false;
  }
  std::uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

ReplicaClient::ReplicaClient(ReplicaClientOptions options) : options_(std::move(options)) {}

ReplicaClient::~ReplicaClient() { Stop(); }

void ReplicaClient::Start() {
  MutexLock lock(lifecycle_mu_);
  started_ = true;
  thread_ = std::thread(&ReplicaClient::Run, this);
}

void ReplicaClient::Stop() {
  MutexLock lock(lifecycle_mu_);
  if (!started_) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
  }
  if (thread_.joinable()) {
    thread_.join();
  }
  started_ = false;
}

const char* ReplicaClient::StateName() const {
  switch (state()) {
    case State::kDisconnected:
      return "disconnected";
    case State::kConnecting:
      return "connecting";
    case State::kFullSync:
      return "full-sync";
    case State::kStreaming:
      return "streaming";
  }
  return "?";
}

void ReplicaClient::Run() {
  std::uint64_t backoff_ms = options_.reconnect_min_ms;
  bool first = true;
  while (!stop_.load(std::memory_order_acquire)) {
    if (!first) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      // Sleep in poll-interval slices so Stop() stays responsive.
      std::uint64_t slept = 0;
      while (slept < backoff_ms && !stop_.load(std::memory_order_acquire)) {
        const std::uint64_t step =
            backoff_ms - slept < kPollIntervalMs ? backoff_ms - slept : kPollIntervalMs;
        ::poll(nullptr, 0, static_cast<int>(step));
        slept += step;
      }
      backoff_ms = backoff_ms * 2 < options_.reconnect_max_ms ? backoff_ms * 2
                                                              : options_.reconnect_max_ms;
    }
    first = false;
    if (stop_.load(std::memory_order_acquire)) {
      break;
    }
    Session();
    // Any session that got as far as streaming resets the backoff; a
    // connect/handshake failure keeps growing it.
    if (state() == State::kStreaming) {
      backoff_ms = options_.reconnect_min_ms;
    }
    state_.store(static_cast<int>(State::kDisconnected), std::memory_order_release);
  }
  state_.store(static_cast<int>(State::kDisconnected), std::memory_order_release);
}

int ReplicaClient::Connect() {
  state_.store(static_cast<int>(State::kConnecting), std::memory_order_release);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  const char* host =
      (options_.host.empty() || options_.host == "localhost") ? "127.0.0.1"
                                                              : options_.host.c_str();
  if (::inet_pton(AF_INET, host, &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

long ReplicaClient::Receive(int fd, std::string* buffer) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int r = ::poll(&pfd, 1, kPollIntervalMs);
  if (r == 0) {
    return 0;
  }
  if (r < 0) {
    return errno == EINTR ? 0 : -1;
  }
  char tmp[64 << 10];
  const ssize_t got = ::recv(fd, tmp, sizeof(tmp), 0);
  if (got > 0) {
    buffer->append(tmp, static_cast<std::size_t>(got));
    return static_cast<long>(got);
  }
  if (got < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
    return 0;
  }
  return -1;  // EOF or hard error
}

bool ReplicaClient::ReadLine(int fd, std::string* line, std::string* spill) {
  std::string buf;
  for (;;) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      *line = buf.substr(0, nl);
      if (!line->empty() && line->back() == '\r') {
        line->pop_back();
      }
      spill->assign(buf, nl + 1, std::string::npos);
      return true;
    }
    if (buf.size() > 4096) {
      return false;  // no sane handshake line is this long
    }
    if (stop_.load(std::memory_order_acquire)) {
      return false;
    }
    if (Receive(fd, &buf) < 0) {
      return false;
    }
  }
}

bool ReplicaClient::ReceiveSnapshot(int fd, std::uint64_t nbytes, std::string* carry,
                                    const std::string& path) {
  AppendFile file;
  if (!file.Open(path, /*truncate=*/true)) {
    return false;
  }
  std::uint64_t written = 0;
  // Bytes that arrived glued to the handshake line belong to the snapshot.
  if (!carry->empty()) {
    const std::uint64_t take =
        carry->size() < nbytes ? carry->size() : static_cast<std::size_t>(nbytes);
    if (!file.Append(std::string_view(carry->data(), static_cast<std::size_t>(take)))) {
      return false;
    }
    written += take;
    carry->erase(0, static_cast<std::size_t>(take));
  }
  std::string buf;
  while (written < nbytes) {
    if (stop_.load(std::memory_order_acquire)) {
      return false;
    }
    buf.clear();
    const long got = Receive(fd, &buf);
    if (got < 0) {
      return false;
    }
    if (got == 0) {
      continue;
    }
    const std::uint64_t want = nbytes - written;
    const std::size_t take =
        buf.size() < want ? buf.size() : static_cast<std::size_t>(want);
    if (!file.Append(std::string_view(buf.data(), take))) {
      return false;
    }
    written += take;
    if (take < buf.size()) {
      carry->append(buf, take, std::string::npos);  // first live frames
    }
  }
  return file.Sync() && file.Close();
}

bool ReplicaClient::SendAck(int fd) {
  const std::string line =
      "ACK " + std::to_string(options_.durability->wal().LastAssignedLsn()) + "\r\n";
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t sent = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (sent > 0) {
      off += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  acks_sent_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ReplicaClient::Session() {
  const int fd = Connect();
  if (fd < 0) {
    return;
  }
  fd_.store(fd, std::memory_order_release);
  std::string buf;
  bool ok = true;
  const std::uint64_t next_lsn = options_.durability->wal().LastAssignedLsn() + 1;
  {
    const std::string req = "replicate " + std::to_string(next_lsn) + "\r\n";
    std::size_t off = 0;
    while (ok && off < req.size()) {
      const ssize_t sent = ::send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
      if (sent > 0) {
        off += static_cast<std::size_t>(sent);
      } else if (sent < 0 && errno == EINTR) {
        continue;
      } else {
        ok = false;
      }
    }
  }
  std::string line;
  if (ok) {
    ok = ReadLine(fd, &line, &buf);
  }
  if (ok) {
    if (line.compare(0, 9, "FULLSYNC ") == 0) {
      state_.store(static_cast<int>(State::kFullSync), std::memory_order_release);
      const std::size_t space = line.find(' ', 9);
      std::uint64_t snapshot_lsn = 0;
      std::uint64_t nbytes = 0;
      ok = space != std::string::npos &&
           ParseU64Token(std::string_view(line).substr(9, space - 9), &snapshot_lsn) &&
           ParseU64Token(std::string_view(line).substr(space + 1), &nbytes);
      const std::string path = options_.wal_dir + "/bootstrap.ckpt.tmp";
      if (ok) {
        ok = ReceiveSnapshot(fd, nbytes, &buf, path);
      }
      std::string error;
      if (ok && !options_.durability->ResyncFromSnapshot(path, snapshot_lsn, &error)) {
        ok = false;
      }
      RemoveFile(path);  // gone on success (renamed); clean up on failure
      if (ok) {
        full_syncs_.fetch_add(1, std::memory_order_relaxed);
        ok = SendAck(fd);
      }
    } else if (line.compare(0, 5, "SYNC ") != 0) {
      ok = false;  // error reply or protocol violation
    }
  }
  if (ok) {
    state_.store(static_cast<int>(State::kStreaming), std::memory_order_release);
  }
  // Frame loop: decode every complete record in the buffer, apply, ack once
  // per drained chunk, then block for more bytes.
  while (ok && !stop_.load(std::memory_order_acquire)) {
    std::size_t pos = 0;
    bool pending_ack = false;
    while (ok) {
      if (buf.size() - pos < persist::internal::kRecordFrameSize) {
        break;
      }
      std::uint32_t len = 0;
      std::memcpy(&len, buf.data() + pos + 4, sizeof(len));
      if (len > persist::internal::kMaxRecordPayload) {
        corrupt_streams_.fetch_add(1, std::memory_order_relaxed);
        ok = false;  // garbage length: the TCP stream is unusable
        break;
      }
      if (buf.size() - pos < persist::internal::kRecordFrameSize + len) {
        break;  // incomplete frame; wait for more bytes
      }
      persist::WalRecord record;
      std::size_t p = pos;
      if (persist::internal::DecodeWalRecord(buf, &p, &record) != 1) {
        corrupt_streams_.fetch_add(1, std::memory_order_relaxed);
        ok = false;  // CRC mismatch on a complete frame
        break;
      }
      pos = p;
      if (record.lsn == 0) {
        pending_ack = true;  // heartbeat: just refresh the primary's view
        continue;
      }
      std::string error;
      if (!options_.durability->ApplyReplicated(record, &error)) {
        // LSN gap — the next handshake offers our (unchanged) position and
        // the primary decides resume vs full sync.
        ok = false;
        break;
      }
      pending_ack = true;
    }
    buf.erase(0, pos);
    if (pending_ack && !SendAck(fd)) {
      ok = false;
    }
    if (!ok) {
      break;
    }
    if (Receive(fd, &buf) < 0) {
      break;
    }
  }
  fd_.store(-1, std::memory_order_release);
  ::close(fd);
}

void ReplicaClient::RegisterMetrics(obs::MetricCatalog* catalog) {
  using Self = const ReplicaClient*;
  obs::MetricGroupBuilder<Self> client("repl_client", [this] { return this; });
  client
      .Info("repl_primary", "the primary this replica follows", "primary",
            [](Self c) { return c->options_.host + ":" + std::to_string(c->options_.port); })
      .Info("repl_state", "replication link state (1 = current)", "state",
            &ReplicaClient::StateName)
      .Gauge("repl_streaming", "1 while the replica is applying the primary's live stream",
             [](Self c) { return c->state() == State::kStreaming; })
      .Counter("repl_reconnects", "replication link reconnects", &ReplicaClient::Reconnects)
      .Counter("repl_client_full_syncs", "snapshot bootstraps performed by this replica",
               &ReplicaClient::FullSyncs)
      .Counter("repl_corrupt_streams", "replication sessions torn down on a corrupt frame",
               &ReplicaClient::CorruptStreams)
      .Counter("repl_acks_sent", "ACK lines sent to the primary",
               obs::Relaxed(&ReplicaClient::acks_sent_));
  metrics_ = catalog->Register({client.Build()});
}

}  // namespace repl
}  // namespace cuckoo
