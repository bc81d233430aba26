#include "src/repl/replication_hub.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>

#include "src/common/file_util.h"
#include "src/persist/snapshot.h"
#include "src/persist/wal_tailer.h"
#include "src/store/tiered_store.h"

namespace cuckoo {
namespace repl {
namespace {

// Target size of one streamed batch: big enough to amortize syscalls, small
// enough that a sender reacts to Stop() and incoming ACKs promptly.
constexpr std::size_t kStreamBatchBytes = 256u << 10;
// A replica that accepts no bytes for this long is dead weight — drop it
// (it reconnects and resumes; semi-sync degrades per NotifyReplicated).
constexpr std::uint64_t kWriteStallTimeoutMs = 10000;

std::uint64_t MonoMs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

bool ParseAckLevel(std::string_view name, AckLevel* out) {
  if (name == "none") {
    *out = AckLevel::kNone;
  } else if (name == "async") {
    *out = AckLevel::kAsync;
  } else if (name == "semi-sync" || name == "semisync") {
    *out = AckLevel::kSemiSync;
  } else {
    return false;
  }
  return true;
}

const char* AckLevelName(AckLevel level) {
  switch (level) {
    case AckLevel::kNone:
      return "none";
    case AckLevel::kAsync:
      return "async";
    case AckLevel::kSemiSync:
      return "semi-sync";
  }
  return "?";
}

ReplicationHub::ReplicationHub(ReplicationHubOptions options)
    : options_(std::move(options)) {}

ReplicationHub::~ReplicationHub() { Stop(); }

void ReplicationHub::Adopt(int fd, std::uint64_t start_lsn, std::string leftover) {
  Peer* peer = nullptr;
  {
    MutexLock lk(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    ReapDonePeers();
    auto owned = std::make_unique<Peer>();
    owned->fd = fd;
    owned->id = next_peer_id_++;
    // Hold GC back from the moment the peer exists: the sender thread
    // refines this, but segments >= start_lsn must survive the gap between
    // handoff and the tailer opening.
    owned->needed_lsn.store(start_lsn, std::memory_order_relaxed);
    peer = owned.get();
    peers_.push_back(std::move(owned));
  }
  replicas_adopted_.fetch_add(1, std::memory_order_relaxed);
  peer->thread = std::thread(&ReplicationHub::PeerLoop, this, peer, start_lsn,
                             std::move(leftover));
}

void ReplicationHub::Stop() {
  std::vector<std::unique_ptr<Peer>> peers;
  {
    MutexLock lk(mu_);
    stopping_ = true;
    peers.swap(peers_);
  }
  for (auto& peer : peers) {
    peer->stop.store(true, std::memory_order_release);
    // Unblock poll()/send() immediately; the fd stays valid until the join.
    ::shutdown(peer->fd, SHUT_RDWR);
  }
  {
    MutexLock lk(commit_mu_);
    commit_cv_.notify_all();
  }
  FireAckWaiters();  // no replica left: pending semi-sync acks degrade
  for (auto& peer : peers) {
    if (peer->thread.joinable()) {
      peer->thread.join();
    }
    ::close(peer->fd);
  }
}

void ReplicationHub::ReapDonePeers() {
  for (std::size_t i = 0; i < peers_.size();) {
    if (peers_[i]->done.load(std::memory_order_acquire)) {
      if (peers_[i]->thread.joinable()) {
        peers_[i]->thread.join();
      }
      ::close(peers_[i]->fd);
      peers_.erase(peers_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void ReplicationHub::PeerLoop(Peer* peer, std::uint64_t start_lsn, std::string leftover) {
  peer->ack_thread =
      std::thread(&ReplicationHub::AckLoop, this, peer, std::move(leftover));
  std::uint64_t lsn = start_lsn;
  // StreamTo returning true means the requested tail is not available (GC'd,
  // or the replica asked past our head after a failover) — bootstrap with a
  // full snapshot and resume from its LSN. Cap the alternation so a replica
  // that keeps outrunning snapshots cannot loop forever.
  for (int attempts = 0; attempts < 4 && !peer->stop.load(std::memory_order_acquire);
       ++attempts) {
    if (!StreamTo(peer, lsn)) {
      break;
    }
    if (!SendFullSync(peer, &lsn)) {
      break;
    }
  }
  // The fd is closed by ReapDonePeers/Stop (whoever still owns the Peer);
  // shutdown here unblocks the ACK reader's poll so it can be joined.
  ::shutdown(peer->fd, SHUT_RDWR);
  if (peer->ack_thread.joinable()) {
    peer->ack_thread.join();
  }
  peer->needed_lsn.store(UINT64_MAX, std::memory_order_release);
  // A dying peer changes both MinReplicaLsn and the semi-sync peer count
  // (stop = no longer live); decide semi-sync waiters again so zero-replica
  // degradation kicks in.
  peer->stop.store(true, std::memory_order_release);
  FireAckWaiters();
  // Last store: ReapDonePeers joins threads with done set while holding mu_,
  // so this thread must be past every lock acquisition by then.
  peer->done.store(true, std::memory_order_release);
}

void ReplicationHub::AckLoop(Peer* peer, std::string buffer) {
  ConsumeAcks(peer, &buffer);
  char tmp[4096];
  while (!peer->stop.load(std::memory_order_acquire)) {
    struct pollfd pfd;
    pfd.fd = peer->fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int r = ::poll(&pfd, 1, AckPollMs());
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if (r == 0) {
      FireAckWaiters();  // the timer of pending semi-sync deadlines
      continue;
    }
    const ssize_t got = ::recv(peer->fd, tmp, sizeof(tmp), MSG_DONTWAIT);
    if (got > 0) {
      buffer.append(tmp, static_cast<std::size_t>(got));
      ConsumeAcks(peer, &buffer);
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;
    }
    break;  // orderly close (got == 0) or hard error: the replica is gone
  }
  // Fail the sender fast: its next send() hits EPIPE instead of waiting out
  // the stall timeout, and an idle sender wakes into a doomed heartbeat.
  ::shutdown(peer->fd, SHUT_RDWR);
  MutexLock lk(commit_mu_);
  commit_cv_.notify_all();
}

bool ReplicationHub::StreamTo(Peer* peer, std::uint64_t start_lsn) {
  const persist::WriteAheadLog& wal = options_.durability->wal();
  if (start_lsn > wal.LastAssignedLsn() + 1) {
    return true;  // replica is ahead of this primary's history: full sync
  }
  persist::WalTailer tailer;
  std::string error;
  if (!tailer.Open(options_.wal_dir, start_lsn, &error)) {
    return true;  // tail GC'd away: full sync
  }
  peer->needed_lsn.store(start_lsn, std::memory_order_release);
  const bool want_acks = options_.ack != AckLevel::kNone;
  std::string out = "SYNC " + std::to_string(start_lsn) +
                    " ack=" + std::string(want_acks ? "1" : "0") + "\r\n";
  if (!WriteAll(peer, out)) {
    return false;
  }
  persist::WalRecord record;
  while (!peer->stop.load(std::memory_order_acquire)) {
    out.clear();
    bool corrupt = false;
    while (out.size() < kStreamBatchBytes) {
      const persist::WalTailer::Result r = tailer.Next(wal.WrittenLsn(), &record, &error);
      if (r == persist::WalTailer::Result::kCaughtUp) {
        break;
      }
      if (r == persist::WalTailer::Result::kError) {
        corrupt = true;
        break;
      }
      if (record.type == persist::WalRecord::Type::kSetTiered &&
          options_.tier != nullptr) {
        // Ship the value, not our private 16-byte location. A failed read
        // means GC relocated the record after it was logged; the relocation
        // record — later in this same stream — re-delivers the value, so
        // forwarding the original verbatim (the replica skips it, advancing
        // only its cas floor) still converges.
        store::ValueLocation loc;
        std::string value;
        if (store::DecodeValueLocation(record.data, &loc) &&
            options_.tier->ReadValue(record.key, loc, record.cas_id, &value)) {
          record.type = persist::WalRecord::Type::kSet;
          record.data = std::move(value);
        }
      }
      persist::internal::EncodeWalRecord(record, &out);
      peer->needed_lsn.store(tailer.next_lsn(), std::memory_order_release);
    }
    if (corrupt) {
      return false;  // local WAL tail unreadable; drop the replica loudly
    }
    if (out.empty()) {
      // Caught up: sleep until the group-commit sink advances the head or
      // the heartbeat interval elapses (keeps lag observable when idle and
      // lets the sender notice a shut-down socket promptly).
      const std::uint64_t want = tailer.next_lsn();
      bool heartbeat = false;
      {
        MutexLock lk(commit_mu_);
        if (head_written_lsn_.load(std::memory_order_acquire) < want &&
            !peer->stop.load(std::memory_order_acquire)) {
          commit_cv_.wait_for(lk.native_handle(),
                              std::chrono::milliseconds(options_.heartbeat_ms));
        }
        heartbeat = head_written_lsn_.load(std::memory_order_acquire) < want;
      }
      if (!heartbeat) {
        continue;
      }
      persist::WalRecord hb;  // lsn == 0: heartbeat, never persisted
      persist::internal::EncodeWalRecord(hb, &out);
      heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!WriteAll(peer, out)) {
      return false;
    }
  }
  return false;
}

bool ReplicationHub::SendFullSync(Peer* peer, std::uint64_t* resume_lsn) {
  const persist::WriteAheadLog& wal = options_.durability->wal();
  // Conservative GC holdback BEFORE the snapshot samples its LSN: everything
  // past the current head must survive until the stream takes over.
  peer->needed_lsn.store(wal.LastAssignedLsn() + 1, std::memory_order_release);
  peer->full_sync.store(true, std::memory_order_relaxed);
  const std::string path =
      options_.wal_dir + "/replsnap-" + std::to_string(peer->id) + ".tmp";
  persist::SnapshotWriteStats stats;
  std::string error;
  if (!persist::WriteReplicaSnapshot(
          *options_.service, path, [&wal] { return wal.LastAssignedLsn(); },
          /*max_attempts=*/8, &stats, &error)) {
    RemoveFile(path);
    return false;
  }
  peer->needed_lsn.store(stats.wal_lsn + 1, std::memory_order_release);
  full_syncs_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t nbytes = FileSize(path);
  std::string header = "FULLSYNC " + std::to_string(stats.wal_lsn) + " " +
                       std::to_string(nbytes) + "\r\n";
  bool ok = WriteAll(peer, header);
  int fd = ok ? ::open(path.c_str(), O_RDONLY | O_CLOEXEC) : -1;
  if (fd >= 0) {
    std::string chunk(kStreamBatchBytes, '\0');
    std::uint64_t off = 0;
    while (ok && off < nbytes) {
      const ssize_t got = ::pread(fd, chunk.data(), chunk.size(), static_cast<off_t>(off));
      if (got <= 0) {
        ok = false;
        break;
      }
      ok = WriteAll(peer,
                    std::string_view(chunk.data(), static_cast<std::size_t>(got)));
      off += static_cast<std::uint64_t>(got);
    }
    ::close(fd);
  } else {
    ok = false;
  }
  RemoveFile(path);
  if (ok) {
    *resume_lsn = stats.wal_lsn + 1;
  }
  return ok;
}

void ReplicationHub::ConsumeAcks(Peer* peer, std::string* buffer) {
  bool advanced = false;
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = buffer->find('\n', start);
    if (nl == std::string::npos) {
      break;
    }
    std::string_view line(buffer->data() + start, nl - start);
    start = nl + 1;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    if (line.size() <= 4 || line.substr(0, 4) != "ACK ") {
      continue;  // tolerate unknown chatter; the framing self-heals per line
    }
    std::uint64_t lsn = 0;
    bool valid = true;
    for (char c : line.substr(4)) {
      if (c < '0' || c > '9') {
        valid = false;
        break;
      }
      lsn = lsn * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (valid && lsn > peer->acked_lsn.load(std::memory_order_relaxed)) {
      peer->acked_lsn.store(lsn, std::memory_order_release);
      advanced = true;
    }
  }
  buffer->erase(0, start);
  if (advanced) {
    FireAckWaiters();
  }
}

bool ReplicationHub::WriteAll(Peer* peer, std::string_view bytes) {
  std::size_t off = 0;
  std::uint64_t last_progress_ms = MonoMs();
  while (off < bytes.size()) {
    if (peer->stop.load(std::memory_order_acquire)) {
      return false;
    }
    const ssize_t sent =
        ::send(peer->fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (sent > 0) {
      off += static_cast<std::size_t>(sent);
      peer->sent_bytes.fetch_add(static_cast<std::uint64_t>(sent),
                                 std::memory_order_relaxed);
      last_progress_ms = MonoMs();
      continue;
    }
    if (sent < 0 && errno == EINTR) {
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (MonoMs() - last_progress_ms > kWriteStallTimeoutMs) {
        return false;  // replica stopped reading; drop it
      }
      struct pollfd pfd;
      pfd.fd = peer->fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      const int r = ::poll(&pfd, 1, 100);
      if (r < 0 && errno != EINTR) {
        return false;
      }
      continue;
    }
    return false;  // EPIPE/ECONNRESET/...
  }
  return true;
}

void ReplicationHub::OnWalCommit(std::uint64_t written_lsn, std::uint64_t durable_lsn) {
  head_written_lsn_.store(written_lsn, std::memory_order_release);
  head_durable_lsn_.store(durable_lsn, std::memory_order_release);
  MutexLock lk(commit_mu_);
  lag_ring_[lag_ring_next_ % kLagRingSize] = {
      written_lsn, options_.durability->wal().BytesAppended()};
  ++lag_ring_next_;
  commit_cv_.notify_all();
}

void ReplicationHub::NotifyReplicated(std::vector<std::uint64_t> lsns,
                                      std::function<void(std::uint64_t)> done) {
  if (options_.ack != AckLevel::kSemiSync) {
    done(lsns.back());
    return;
  }
  {
    MutexLock lk(commit_mu_);
    ack_waiters_.push_back(AckWaiter{
        std::move(lsns),
        std::chrono::steady_clock::now() +
            std::chrono::milliseconds(options_.semi_sync_timeout_ms),
        std::move(done)});
  }
  FireAckWaiters();  // decided at once if a replica has it or none is connected
}

void ReplicationHub::FireAckWaiters() {
  std::vector<std::pair<std::function<void(std::uint64_t)>, std::uint64_t>> decided;
  {
    MutexLock lk(commit_mu_);
    if (ack_waiters_.empty()) {
      return;
    }
    std::size_t live = 0;
    std::uint64_t acked = 0;
    {
      MutexLock peers(mu_);
      acked = LiveAckedLsn(&live);
    }
    const auto now = std::chrono::steady_clock::now();
    std::size_t kept = 0;
    for (AckWaiter& waiter : ack_waiters_) {
      const std::vector<std::uint64_t>& lsns = waiter.lsns;
      std::uint64_t through = lsns.back();
      if (live == 0) {
        degraded_acks_.fetch_add(lsns.size(), std::memory_order_relaxed);
      } else if (acked < through) {
        if (now < waiter.deadline) {
          if (&ack_waiters_[kept] != &waiter) {
            ack_waiters_[kept] = std::move(waiter);
          }
          ++kept;
          continue;
        }
        // Timed out: the writes past the replica's ack are refused.
        const auto refused = lsns.end() - std::upper_bound(lsns.begin(), lsns.end(), acked);
        semi_sync_timeouts_.fetch_add(static_cast<std::uint64_t>(refused),
                                      std::memory_order_relaxed);
        through = acked;
      }
      decided.emplace_back(std::move(waiter.done), through);
    }
    ack_waiters_.resize(kept);
  }
  for (auto& [done, through] : decided) {
    done(through);
  }
}

int ReplicationHub::AckPollMs() {
  const int idle_ms = static_cast<int>(
      std::clamp<std::uint64_t>(options_.semi_sync_timeout_ms, 1, 100));
  MutexLock lk(commit_mu_);
  if (ack_waiters_.empty()) {
    return options_.ack == AckLevel::kSemiSync ? idle_ms : 100;
  }
  // Deadlines grow with registration order, so the front one is the next.
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        ack_waiters_.front().deadline - std::chrono::steady_clock::now())
                        .count() +
                    1;
  return static_cast<int>(std::clamp<long long>(left, 0, 100));
}

std::uint64_t ReplicationHub::LiveAckedLsn(std::size_t* live) const {
  std::uint64_t acked = 0;
  *live = 0;
  for (const auto& peer : peers_) {
    if (peer->done.load(std::memory_order_acquire) ||
        peer->stop.load(std::memory_order_acquire)) {
      continue;
    }
    ++*live;
    acked = std::max(acked, peer->acked_lsn.load(std::memory_order_acquire));
  }
  return acked;
}

std::uint64_t ReplicationHub::MinReplicaLsn() {
  MutexLock lk(mu_);
  std::uint64_t min_lsn = UINT64_MAX;
  for (const auto& peer : peers_) {
    if (peer->done.load(std::memory_order_acquire)) {
      continue;
    }
    const std::uint64_t needed = peer->needed_lsn.load(std::memory_order_acquire);
    if (needed < min_lsn) {
      min_lsn = needed;
    }
  }
  return min_lsn;
}

std::uint64_t ReplicationHub::ConnectedReplicas() const {
  MutexLock lk(mu_);
  std::uint64_t live = 0;
  for (const auto& peer : peers_) {
    if (!peer->done.load(std::memory_order_acquire)) {
      ++live;
    }
  }
  return live;
}

std::uint64_t ReplicationHub::LagLsns() const {
  const std::uint64_t head = head_written_lsn_.load(std::memory_order_acquire);
  MutexLock lk(mu_);
  std::uint64_t worst = 0;
  for (const auto& peer : peers_) {
    if (peer->done.load(std::memory_order_acquire)) {
      continue;
    }
    // Position = what the replica confirmed applied; without acks (ack=none)
    // fall back to how far the sender has read, which bounds lag from below.
    std::uint64_t pos = peer->acked_lsn.load(std::memory_order_acquire);
    if (options_.ack == AckLevel::kNone) {
      const std::uint64_t needed = peer->needed_lsn.load(std::memory_order_acquire);
      pos = (needed == UINT64_MAX || needed == 0) ? 0 : needed - 1;
    }
    const std::uint64_t lag = head > pos ? head - pos : 0;
    if (lag > worst) {
      worst = lag;
    }
  }
  return worst;
}

std::uint64_t ReplicationHub::LagBytes() const {
  const std::uint64_t lag_lsns = LagLsns();
  if (lag_lsns == 0) {
    return 0;
  }
  const std::uint64_t head = head_written_lsn_.load(std::memory_order_acquire);
  const std::uint64_t target = head - lag_lsns;  // slowest replica's position
  MutexLock lk(commit_mu_);
  const std::uint64_t now_bytes = options_.durability->wal().BytesAppended();
  // Oldest retained sample at or after the target position approximates the
  // byte offset the replica has reached; older lag saturates at the ring.
  const std::size_t count = lag_ring_next_ < kLagRingSize ? lag_ring_next_ : kLagRingSize;
  std::uint64_t best = count > 0 ? UINT64_MAX : now_bytes;
  for (std::size_t i = 0; i < count; ++i) {
    const LagSample& s = lag_ring_[i];
    if (s.lsn >= target && s.bytes < best) {
      best = s.bytes;
    }
  }
  if (best == UINT64_MAX) {
    // Every sample is newer than the target: the replica is further behind
    // than the ring remembers; report from the oldest sample we have.
    best = lag_ring_[lag_ring_next_ % kLagRingSize].bytes;
    for (std::size_t i = 0; i < count; ++i) {
      if (lag_ring_[i].bytes < best) {
        best = lag_ring_[i].bytes;
      }
    }
  }
  return now_bytes > best ? now_bytes - best : 0;
}

void ReplicationHub::RegisterMetrics(obs::MetricCatalog* catalog) {
  using obs::Relaxed;
  using Hub = ReplicationHub;
  obs::MetricGroupBuilder<const Hub*> hub("repl", [this] { return this; });
  hub.Info("repl_role", "replication role (1 = current)", "role",
           [](const Hub* h) { return h->role_.load(std::memory_order_relaxed); })
      .Info("repl_ack", "client ack level (1 = configured)", "level",
            [](const Hub* h) { return AckLevelName(h->options_.ack); })
      .Gauge("repl_replicas", "connected read replicas", &Hub::ConnectedReplicas)
      .Gauge("repl_head_lsn", "primary replication head (written LSN)",
             [](const Hub* h) { return h->head_written_lsn_.load(std::memory_order_acquire); })
      .Gauge("repl_lag_lsn", "replication lag of the slowest connected replica, in records",
             &Hub::LagLsns)
      .Gauge("repl_lag_bytes", "approximate replication lag of the slowest replica, in WAL bytes",
             &Hub::LagBytes)
      .Counter("repl_replicas_adopted", "replica connections adopted",
               Relaxed(&Hub::replicas_adopted_))
      .Counter("repl_full_syncs", "replica snapshot bootstraps served", Relaxed(&Hub::full_syncs_))
      .Counter("repl_semi_sync_timeouts", "writes refused because no replica acked in time",
               Relaxed(&Hub::semi_sync_timeouts_))
      .Counter("repl_degraded_acks", "semi-sync acks granted with zero replicas connected",
               Relaxed(&Hub::degraded_acks_))
      .Detail()
      .Counter("repl_heartbeats_sent", "heartbeat frames sent to idle replicas",
               Relaxed(&Hub::heartbeats_sent_));

  // One consistent view of the live peers for the per-peer families.
  struct PeerView {
    std::string id;
    std::uint64_t acked_lsn = 0, next_lsn = 0, sent_bytes = 0, full_sync = 0;
  };
  using Peers = std::vector<PeerView>;
  auto family = [](std::uint64_t PeerView::*field) {
    return [field](const Peers& peers) {
      std::vector<obs::FamilyMember> members;
      for (const PeerView& p : peers) {
        members.emplace_back(p.id, p.*field);
      }
      return members;
    };
  };
  obs::MetricGroupBuilder<Peers> peers("repl_peers", [this] {
    Peers out;
    MutexLock lk(mu_);
    for (const auto& p : peers_) {
      if (p->done.load(std::memory_order_acquire)) {
        continue;
      }
      const std::uint64_t needed = p->needed_lsn.load(std::memory_order_acquire);
      out.push_back({std::to_string(p->id), p->acked_lsn.load(std::memory_order_acquire),
                     needed == UINT64_MAX ? 0 : needed,
                     p->sent_bytes.load(std::memory_order_relaxed),
                     p->full_sync.load(std::memory_order_relaxed) ? 1u : 0u});
    }
    return out;
  });
  peers.Detail()
      .Family("repl_peer_*_acked_lsn", "highest LSN each replica acknowledged", "peer",
              family(&PeerView::acked_lsn))
      .Family("repl_peer_*_next_lsn", "next LSN each replica's sender reads", "peer",
              family(&PeerView::next_lsn))
      .Family("repl_peer_*_sent_bytes", "bytes sent to each replica", "peer",
              family(&PeerView::sent_bytes))
      .Family("repl_peer_*_full_sync", "1 if a replica was bootstrapped from a snapshot", "peer",
              family(&PeerView::full_sync));
  metrics_ = catalog->Register({hub.Build(), peers.Build()});
}

}  // namespace repl
}  // namespace cuckoo
