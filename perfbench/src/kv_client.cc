#include "perfbench/src/kv_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <numeric>
#include <string_view>

#include "perfbench/src/trace.h"
#include "perfbench/src/values.h"
#include "src/common/timing.h"

namespace perfbench {

using cuckoo::NowNanos;

KeySpace::KeySpace(const KvStream& stream) : stream_(stream), rank_to_id_(stream.keys) {
  std::iota(rank_to_id_.begin(), rank_to_id_.end(), 0u);
  cuckoo::Xorshift128Plus rng(stream.seed * 0x2545f4914f6cdd1dull + 17);
  for (std::size_t i = rank_to_id_.size(); i > 1; --i) {
    std::swap(rank_to_id_[i - 1], rank_to_id_[rng.Next() % i]);
  }
}

void PhaseTally::Merge(const PhaseTally& other) {
  attempted += other.attempted;
  failed += other.failed;
  mismatches += other.mismatches;
  gets_sent += other.gets_sent;
  sets_sent += other.sets_sent;
  sets_acked += other.sets_acked;
  get_ns.insert(get_ns.end(), other.get_ns.begin(), other.get_ns.end());
  set_ns.insert(set_ns.end(), other.set_ns.begin(), other.set_ns.end());
  get_win.insert(get_win.end(), other.get_win.begin(), other.get_win.end());
  set_win.insert(set_win.end(), other.set_win.begin(), other.set_win.end());
  if (completed_by_win.size() < other.completed_by_win.size()) {
    completed_by_win.resize(other.completed_by_win.size());
  }
  for (std::size_t i = 0; i < other.completed_by_win.size(); ++i) {
    completed_by_win[i] += other.completed_by_win[i];
  }
  lateness.Merge(other.lateness);
  window_ns = std::max(window_ns, other.window_ns);
  subwindow_ns = std::max(subwindow_ns, other.subwindow_ns);
}

double PhaseTally::OpsPerSec() const {
  std::vector<double> rates;
  for (std::size_t i = 0; i < completed_by_win.size() && (i + 1) * subwindow_ns <= window_ns;
       ++i) {
    rates.push_back(static_cast<double>(completed_by_win[i]) * 1e9 /
                    static_cast<double>(subwindow_ns));
  }
  return Median(std::move(rates));
}

namespace {

// The protocol bytes of one request; a set's value is (key, writer, seq)'s.
void AppendRequest(const Op& op, const KeySpace& keys, std::uint32_t writer, std::uint64_t seq,
                   std::string* out) {
  const std::string key = KeyFor(op.key_id, keys.stream().seed);
  if (op.get) {
    out->append("get ").append(key).append("\r\n");
    return;
  }
  const std::size_t n = keys.stream().value_bytes;
  out->append("set ").append(key).push_back(' ');
  out->append(std::to_string(writer)).append(" 0 ").append(std::to_string(n)).append("\r\n");
  AppendValue(op.key_id, writer, seq, n, out);
  out->append("\r\n");
}

}  // namespace

Conn::Conn(int index, const KeySpace* keys, IssuedSeqs* issued)
    : index_(index),
      keys_(keys),
      issued_(issued),
      rng_(keys->stream().seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(index) + 1) {
  if (keys->stream().zipf_theta > 0.0) {
    zipf_ = std::make_unique<cuckoo::ZipfGenerator>(
        keys->stream().keys, keys->stream().zipf_theta,
        keys->stream().seed * 31 + static_cast<std::uint64_t>(index) + 7);
  }
}

Conn::~Conn() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

bool Conn::Connect(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    return false;
  }
  pollfd p{fd_, POLLOUT, 0};
  if (::poll(&p, 1, 5000) != 1) {
    return false;
  }
  int err = 0;
  socklen_t len = sizeof(err);
  ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
  return err == 0;
}

Op Conn::NextOp() {
  const KvStream& s = keys_->stream();
  Op op;
  op.get = rng_.NextDouble() < s.get_fraction;
  op.key_id = zipf_ ? keys_->IdForRank(zipf_->Next()) : rng_.Next() % s.keys;
  return op;
}

void Conn::Enqueue(const Op& op, std::uint64_t due, PhaseTally* tally) {
  ++tally->attempted;
  ++(op.get ? tally->gets_sent : tally->sets_sent);
  const std::size_t before = out_.size();
  std::uint64_t seq = 0;
  if (!op.get) {
    seq = issued_->seq[index_].fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  AppendRequest(op, *keys_, static_cast<std::uint32_t>(index_), seq, &out_);
  if (recorded_.size() < record_limit_) {
    recorded_.push_back(RecordedRequest{op.get, op.key_id, out_.substr(before)});
  }
  const std::uint64_t request = (static_cast<std::uint64_t>(index_) + 1) << 48 | next_request_++;
  pending_.push_back(Pending{due, op.key_id, request, op.get});
}

bool Conn::Flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_, MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  } else if (out_off_ > (1u << 20)) {
    out_.erase(0, out_off_);
    out_off_ = 0;
  }
  return true;
}

Outcome ParseResponse(std::string_view buf, bool get, std::uint64_t key_id, const KeySpace& keys,
                      const IssuedSeqs& issued, std::size_t* consumed) {
  const std::size_t eol = buf.find("\r\n");
  if (eol == std::string_view::npos) {
    return Outcome::kNeedMore;
  }
  const std::string_view line = buf.substr(0, eol);
  if (line.starts_with("SERVER_ERROR")) {
    *consumed = eol + 2;
    return Outcome::kServerError;
  }
  if (!get) {
    *consumed = eol + 2;
    return line == "STORED" ? Outcome::kOk : Outcome::kMismatch;
  }
  if (!line.starts_with("VALUE ")) {
    *consumed = eol + 2;  // END (a preloaded key went missing) or a desync
    return Outcome::kMismatch;
  }
  // VALUE <key> <flags> <bytes>
  const std::size_t n = keys.stream().value_bytes;
  const std::size_t total = eol + 2 + n + 2 + 5;
  if (buf.size() < total) {
    return Outcome::kNeedMore;
  }
  *consumed = total;
  const std::string key = KeyFor(key_id, keys.stream().seed);
  const std::string_view rest = line.substr(6);
  const std::size_t sp1 = rest.find(' ');
  const std::size_t sp2 = rest.find(' ', sp1 == std::string_view::npos ? sp1 : sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      rest.substr(0, sp1) != key || rest.substr(sp2 + 1) != std::to_string(n)) {
    return Outcome::kMismatch;
  }
  const std::string_view data = buf.substr(eol + 2, n);
  ValueStamp stamp;
  if (!CheckValue(key_id, n, data, &stamp) || buf.substr(eol + 2 + n, 7) != "\r\nEND\r\n" ||
      rest.substr(sp1 + 1, sp2 - sp1 - 1) != std::to_string(stamp.writer) ||
      stamp.writer >= kMaxWriters ||
      stamp.seq > issued.seq[stamp.writer].load(std::memory_order_acquire)) {
    return Outcome::kMismatch;
  }
  return Outcome::kOk;
}

// Latency samples are taken for requests that fell due in the measured
// window. A request that did not succeed (SERVER_ERROR, wrong reply,
// dropped connection, reply lost at the drain deadline) counts as missing
// every latency limit: its sample is kFailedSampleNs. Throughput counts
// only correct responses.
void Conn::Settle(const Pending& p, bool ok, std::uint64_t now, const PhaseSpec& spec,
                  PhaseTally* tally) {
  if (p.due < spec.measure_ns || p.due >= spec.end_ns) {
    return;
  }
  const auto sub = static_cast<std::uint16_t>(
      std::min<std::uint64_t>((p.due - spec.measure_ns) / spec.subwindow_ns, UINT16_MAX));
  const std::uint64_t ns = now - std::min(now, p.due);
  const std::uint32_t sample =
      ok ? static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, kFailedSampleNs - 1))
         : kFailedSampleNs;
  if (p.get) {
    tally->get_ns.push_back(sample);
    tally->get_win.push_back(sub);
  } else {
    tally->set_ns.push_back(sample);
    tally->set_win.push_back(sub);
  }
  if (!ok) {
    return;
  }
  if (tally->completed_by_win.size() <= sub) {
    tally->completed_by_win.resize(sub + std::size_t{1});
  }
  ++tally->completed_by_win[sub];
  if (SpanStore::Instance().enabled()) {
    SpanStore::Instance().Record(SpanKind::kClientRequest, p.request, p.due, now);
  }
}

bool Conn::ReadResponses(PhaseTally* tally, const PhaseSpec& spec) {
  char buf[64 * 1024];
  bool alive = true;
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) {
        break;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    alive = false;  // EOF or error: the server dropped us
    break;
  }
  const std::uint64_t now = NowNanos();
  while (!pending_.empty()) {
    const Pending& p = pending_.front();
    std::size_t consumed = 0;
    const Outcome o = ParseResponse(std::string_view(in_).substr(in_off_), p.get, p.key_id,
                                    *keys_, *issued_, &consumed);
    if (o == Outcome::kNeedMore) {
      break;
    }
    in_off_ += consumed;
    if (o == Outcome::kServerError) {
      ++tally->failed;
    } else if (o == Outcome::kMismatch) {
      ++tally->mismatches;
    } else if (!p.get) {
      ++tally->sets_acked;
    }
    Settle(p, o == Outcome::kOk, now, spec, tally);
    pending_.pop_front();
  }
  if (in_off_ == in_.size()) {
    in_.clear();
    in_off_ = 0;
  } else if (in_off_ > (1u << 20)) {
    in_.erase(0, in_off_);
    in_off_ = 0;
  }
  return alive;
}

void Conn::FailPending(PhaseTally* tally, const PhaseSpec& spec) {
  tally->failed += pending_.size();
  const std::uint64_t now = NowNanos();
  for (const Pending& p : pending_) {
    Settle(p, /*ok=*/false, now, spec, tally);
  }
  pending_.clear();
  dead_ = true;
}

PhaseTally RunConnPhase(const PhaseSpec& spec, const std::vector<Conn*>& conns) {
  PhaseTally tally;
  tally.window_ns = spec.end_ns - spec.measure_ns;
  tally.subwindow_ns = spec.subwindow_ns;
  tally.lateness.SetWindows(spec.measure_ns, spec.subwindow_ns);
  // Open loop: connection c sends every `interval` ns, the connections
  // staggered so the aggregate stream is evenly spaced.
  const double interval =
      spec.offered_rate > 0.0 ? 1e9 * spec.total_conns / spec.offered_rate : 0.0;
  std::vector<std::uint64_t> next_k(conns.size(), 0);
  auto due_of = [&](std::size_t i, std::uint64_t k) {
    const double offset = interval * (static_cast<double>(conns[i]->index()) / spec.total_conns);
    return spec.start_ns + static_cast<std::uint64_t>(offset + interval * static_cast<double>(k));
  };
  if (spec.mode == PhaseMode::kOpen) {
    for (std::size_t i = 0; i < conns.size(); ++i) {
      for (std::uint64_t k = 0;; ++k) {
        const std::uint64_t due = due_of(i, k);
        if (due >= spec.end_ns) {
          break;
        }
        if (due >= spec.measure_ns) {
          tally.lateness.Due(1);
        }
      }
    }
  }
  const KvStream& stream = conns.front()->keys_->stream();
  std::vector<std::uint64_t> preload_next(conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    preload_next[i] = static_cast<std::uint64_t>(conns[i]->index());
  }

  while (NowNanos() < spec.start_ns) {
    timespec ts{0, 100000};
    nanosleep(&ts, nullptr);
  }
  // Once nothing is left to send, replies get 10 s to arrive.
  constexpr std::uint64_t kDrainNs = 10'000'000'000ull;
  std::uint64_t drain_deadline = 0;
  std::vector<pollfd> fds(conns.size());
  for (;;) {
    const std::uint64_t now = NowNanos();
    bool issuing = false;
    bool outstanding = false;
    std::uint64_t wake = now + 10'000'000;  // 10 ms
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn* c = conns[i];
      if (c->dead_) {
        continue;
      }
      switch (spec.mode) {
        case PhaseMode::kPreload:
          while (preload_next[i] < stream.keys &&
                 c->pending_.size() < static_cast<std::size_t>(spec.window)) {
            c->Enqueue(Op{false, preload_next[i]}, now, &tally);
            preload_next[i] += static_cast<std::uint64_t>(spec.total_conns);
          }
          issuing = issuing || preload_next[i] < stream.keys;
          break;
        case PhaseMode::kClosed:
          if (now < spec.end_ns) {
            issuing = true;
            while (c->pending_.size() < static_cast<std::size_t>(spec.window)) {
              c->Enqueue(c->NextOp(), now, &tally);
            }
          }
          break;
        case PhaseMode::kOpen:
          if (now < spec.end_ns) {
            issuing = true;
            for (std::uint64_t due = due_of(i, next_k[i]); due <= now && due < spec.end_ns;
                 due = due_of(i, ++next_k[i])) {
              c->Enqueue(c->NextOp(), due, &tally);
              if (due >= spec.measure_ns) {
                tally.lateness.Sent(due, now);
              }
            }
            wake = std::min(wake, due_of(i, next_k[i]));
          }
          break;
      }
      if (!c->Flush()) {
        c->FailPending(&tally, spec);
        continue;
      }
      outstanding = outstanding || !c->pending_.empty();
    }
    if (!issuing && !outstanding) {
      break;
    }
    if (!issuing && drain_deadline == 0) {
      drain_deadline = now + kDrainNs;
    }
    if (!issuing && now >= drain_deadline) {
      for (Conn* c : conns) {
        c->FailPending(&tally, spec);  // replies lost: count them as failed
      }
      break;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i]->dead_ ? -1 : conns[i]->fd_;
      fds[i].events = static_cast<short>(
          POLLIN | (conns[i]->out_off_ < conns[i]->out_.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    const std::uint64_t wait_ns = wake > now ? wake - now : 0;
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000ull),
                static_cast<long>(wait_ns % 1'000'000'000ull)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) {
      continue;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (fds[i].fd < 0 || (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      if (!conns[i]->ReadResponses(&tally, spec)) {
        conns[i]->FailPending(&tally, spec);
      }
    }
  }
  return tally;
}

}  // namespace perfbench
