// Durable write acks off the event loop: a write whose ack still waits on a
// group commit goes behind an ack fence, the connection keeps executing what
// is pipelined after it, and the loop keeps serving everyone else. These
// tests hold the WAL's fsync (WriteAheadLog::HoldSyncForTesting) to make the
// pending window as long as they need.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/file_util.h"
#include "src/kvserver/kv_service.h"
#include "src/kvserver/socket_server.h"
#include "src/persist/durability.h"
#include "src/persist/wal.h"

namespace cuckoo {
namespace {

using persist::FsyncPolicy;

constexpr char kStored[] = "STORED\r\n";
constexpr char kWalError[] = "SERVER_ERROR wal io error\r\n";

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "cuckoo_ack_XXXXXX";
    path = ::mkdtemp(tmpl.data());
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    for (const std::string& name : ListFilesWithPrefix(path, "")) {
      RemoveFile(path + "/" + name);
    }
    ::rmdir(path.c_str());
  }
};

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += s;
  }
  return out;
}

std::string Key(const char* prefix, int i) {
  std::string key = prefix;
  key += std::to_string(i);
  return key;
}

std::string SetCommand(const std::string& key, const std::string& value) {
  return "set " + key + " 0 0 " + std::to_string(value.size()) + "\r\n" + value + "\r\n";
}

bool WaitFor(const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// A raw unix-socket client that can wait with a timeout.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~Client() { ::close(fd_); }

  void Send(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  // Read until `lines` CRLF-terminated lines arrived, EOF, or `timeout_ms`.
  std::string ReadLines(int lines, int timeout_ms = 10000) {
    return Read(timeout_ms, [lines](const std::string& got) {
      int seen = 0;
      for (std::size_t pos = 0; (pos = got.find("\r\n", pos)) != std::string::npos; pos += 2) {
        ++seen;
      }
      return seen >= lines;
    });
  }

  // Read until the bytes end with `terminator`, EOF, or `timeout_ms`.
  std::string ReadUntil(const std::string& terminator, int timeout_ms = 10000) {
    return Read(timeout_ms, [&terminator](const std::string& got) {
      return got.size() >= terminator.size() &&
             got.compare(got.size() - terminator.size(), terminator.size(), terminator) == 0;
    });
  }

  // Everything that arrives within `timeout_ms` (stops early at EOF).
  std::string ReadFor(int timeout_ms) {
    return Read(timeout_ms, [](const std::string&) { return false; });
  }

  // Read until EOF (or `timeout_ms`).
  std::string ReadToEof(int timeout_ms = 10000) { return ReadFor(timeout_ms); }

  std::string RoundTrip(const std::string& request, int lines) {
    Send(request);
    return ReadLines(lines);
  }

 private:
  std::string Read(int timeout_ms, const std::function<bool(const std::string&)>& enough) {
    std::string got;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!enough(got)) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0) {
        break;
      }
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left)) <= 0) {
        break;
      }
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        break;  // EOF or reset
      }
      got.append(buf, static_cast<std::size_t>(n));
    }
    return got;
  }

  int fd_ = -1;
};

// KvService + DurabilityManager + SocketServer with one event loop.
class Server {
 public:
  explicit Server(FsyncPolicy policy, std::uint64_t drain_timeout_ms = 1000) {
    persist::DurabilityOptions options;
    options.dir = dir_.path + "/wal";
    options.fsync_policy = policy;
    std::string error;
    EXPECT_TRUE(durability_.Start(options, &error)) << error;
    SocketServer::Options so;
    so.unix_path = dir_.path + "/srv.sock";
    so.event_threads = 1;  // a blocked loop would stall every connection
    so.drain_timeout_ms = drain_timeout_ms;
    server_ = std::make_unique<SocketServer>(&service_, so);
    EXPECT_TRUE(server_->Start());
  }
  ~Server() {
    wal().HoldSyncForTesting(false);
    server_->Stop();
    durability_.Stop();
  }

  const std::string& path() const { return server_->path(); }
  SocketServer& server() { return *server_; }
  KvService& service() { return service_; }
  persist::WriteAheadLog& wal() { return durability_.wal_for_testing(); }

 private:
  TempDir dir_;
  KvService service_;
  persist::DurabilityManager durability_{&service_};
  std::unique_ptr<SocketServer> server_;
};

// The service-level contract the socket server builds on: under
// fsync=always a set on the async Drive answers behind a fence that nothing
// may be sent past, and the Drive itself registers the notification; under
// everysec the ack is decided inline and nothing is fenced or registered.
TEST(DurableAckTest, AsyncDriveFencesOnlyAcksThatStillWait) {
  for (FsyncPolicy policy : {FsyncPolicy::kEverySec, FsyncPolicy::kAlways}) {
    std::atomic<int> notified{0};  // outlives the server's WAL
    Server s(policy);
    if (policy == FsyncPolicy::kAlways) {
      s.wal().HoldSyncForTesting(true);
    }
    KvService::Connection conn = s.service().Connect([&] { notified.fetch_add(1); });
    std::string out;
    std::shared_ptr<KvService::DeferredGet> deferred;
    conn.Drive(SetCommand("k", "v") + "get k\r\n", &out, &deferred);
    EXPECT_EQ(out, std::string(kStored) + "VALUE k 0 1\r\nv\r\nEND\r\n");
    if (policy == FsyncPolicy::kEverySec) {
      EXPECT_EQ(conn.FlushLimit(out.size()), out.size());
      EXPECT_EQ(notified.load(), 0);
      continue;
    }
    EXPECT_EQ(conn.FlushLimit(out.size()), 0u);  // the get waits behind the set
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(notified.load(), 0);  // the fsync is held
    conn.ResolveAcks(&out);         // nothing decided yet: a no-op
    EXPECT_EQ(conn.FlushLimit(out.size()), 0u);
    s.wal().HoldSyncForTesting(false);
    ASSERT_TRUE(WaitFor([&] { return notified.load() == 1; }));
    conn.ResolveAcks(&out);
    EXPECT_EQ(conn.FlushLimit(out.size()), out.size());
    EXPECT_EQ(out, std::string(kStored) + "VALUE k 0 1\r\nv\r\nEND\r\n");
  }
}

// One event loop, a held fsync: another connection is served while the
// writer's sets wait, and after the release all 16 pipelined sets are acked
// in request order by at most two group commits.
TEST(DurableAckTest, HeldFsyncStallsOnlyTheWritersReplies) {
  Server s(FsyncPolicy::kAlways);
  Client a(s.path());
  Client b(s.path());
  ASSERT_EQ(a.RoundTrip(SetCommand("warm", "x"), 1), kStored);

  const persist::WalStats before = s.wal().Stats();
  s.wal().HoldSyncForTesting(true);
  std::string pipeline;
  for (int i = 0; i < 16; ++i) {
    pipeline += SetCommand(Key("k", i), Key("v", i));
  }
  a.Send(pipeline + "get k15\r\n");
  ASSERT_TRUE(WaitFor([&] {
    const persist::WalStats w = s.wal().Stats();
    return w.records_appended == before.records_appended + 16 &&
           w.group_commits > before.group_commits;  // the writer holds a batch
  }));

  // The loop is free: B's request is answered while A's acks wait.
  EXPECT_EQ(b.RoundTrip("get nothing\r\n", 1), "END\r\n");
  EXPECT_EQ(a.ReadFor(50), "");  // nothing of A's is released before the fsync

  s.wal().HoldSyncForTesting(false);
  EXPECT_EQ(a.ReadLines(16 + 3), Repeat(kStored, 16) + "VALUE k15 0 3\r\nv15\r\nEND\r\n");
  EXPECT_LE(s.wal().Stats().group_commits - before.group_commits, 2u);
}

// A WAL failure in the middle of a pipeline: every write at or below the
// durable LSN answers STORED, every later one SERVER_ERROR, in order.
TEST(DurableAckTest, IoErrorMidPipelineRefusesOnlyWhatIsNotDurable) {
  Server s(FsyncPolicy::kAlways);
  Client a(s.path());
  const persist::WalStats before = s.wal().Stats();
  const std::uint64_t base_lsn = s.wal().LastAssignedLsn();

  s.wal().HoldSyncForTesting(true);
  std::string first;
  std::string second;
  for (int i = 0; i < 8; ++i) {
    first += SetCommand(Key("a", i), "x");
    second += SetCommand(Key("b", i), "y");
  }
  a.Send(first);
  ASSERT_TRUE(WaitFor([&] {
    const persist::WalStats w = s.wal().Stats();
    return w.records_appended == before.records_appended + 8 &&
           w.group_commits > before.group_commits;
  }));
  a.Send(second);  // behind the held commit: these go in the next one
  ASSERT_TRUE(WaitFor(
      [&] { return s.wal().Stats().records_appended == before.records_appended + 16; }));

  s.wal().InjectIoErrorForTesting();  // the held commit succeeds, the next fails
  s.wal().HoldSyncForTesting(false);
  const std::string replies = a.ReadLines(16);
  ASSERT_TRUE(WaitFor([&] { return s.wal().InErrorState(); }));

  const std::uint64_t durable = s.wal().DurableLsn() - base_lsn;
  EXPECT_GE(durable, 1u);
  EXPECT_LE(durable, 8u);
  EXPECT_EQ(replies, Repeat(kStored, static_cast<int>(durable)) +
                         Repeat(kWalError, 16 - static_cast<int>(durable)));
  // And the log stays refused.
  EXPECT_EQ(a.RoundTrip(SetCommand("after", "z"), 1), kWalError);
}

// Stop() while acks are pending and the fsync is released during the drain:
// every reply goes out whole, then the connection closes.
TEST(DurableAckTest, StopFlushesPendingAckRepliesOnceDecided) {
  Server s(FsyncPolicy::kAlways, /*drain_timeout_ms=*/10000);
  Client a(s.path());
  const persist::WalStats before = s.wal().Stats();
  s.wal().HoldSyncForTesting(true);
  std::string pipeline = "get nothing\r\n";
  for (int i = 0; i < 16; ++i) {
    pipeline += SetCommand(Key("k", i), "v");
  }
  a.Send(pipeline);
  ASSERT_TRUE(WaitFor([&] {
    return s.wal().Stats().records_appended == before.records_appended + 16;
  }));
  std::thread stopper([&] { s.server().Stop(); });
  EXPECT_EQ(a.ReadFor(50), "END\r\n");  // only what precedes the first fence
  s.wal().HoldSyncForTesting(false);
  stopper.join();
  EXPECT_EQ(a.ReadToEof(), Repeat(kStored, 16));
}

// Stop() while acks are pending and the fsync outlasts the drain deadline:
// the replies behind the fence are never started, so none is torn.
TEST(DurableAckTest, StopPastTheDrainDeadlineSendsNoPendingReply) {
  Server s(FsyncPolicy::kAlways, /*drain_timeout_ms=*/100);
  Client a(s.path());
  const persist::WalStats before = s.wal().Stats();
  s.wal().HoldSyncForTesting(true);
  a.Send("get nothing\r\n" + SetCommand("k0", "v") + SetCommand("k1", "v"));
  ASSERT_TRUE(WaitFor([&] {
    return s.wal().Stats().records_appended == before.records_appended + 2;
  }));
  s.server().Stop();
  EXPECT_EQ(a.ReadToEof(), "END\r\n");
}

// The append->ack histogram counts each answered write exactly once, on the
// fenced path (always) and the inline one (everysec).
TEST(DurableAckTest, AppendDurableCountMatchesAckedSocketSets) {
  for (FsyncPolicy policy : {FsyncPolicy::kEverySec, FsyncPolicy::kAlways}) {
    Server s(policy);
    Client a(s.path());
    constexpr int kPipelined = 24;
    constexpr int kSequential = 8;
    std::string pipeline;
    for (int i = 0; i < kPipelined; ++i) {
      pipeline += SetCommand(Key("p", i), "v");
    }
    EXPECT_EQ(a.RoundTrip(pipeline, kPipelined), Repeat(kStored, kPipelined));
    for (int i = 0; i < kSequential; ++i) {
      EXPECT_EQ(a.RoundTrip(SetCommand(Key("s", i), "v"), 1), kStored);
    }
    EXPECT_EQ(a.RoundTrip("get p0\r\n", 3), "VALUE p0 0 1\r\nv\r\nEND\r\n");
    a.Send("stats detail\r\n");
    const std::string stats = a.ReadUntil("END\r\n");
    EXPECT_NE(stats.find("STAT wal_append_durable_count " +
                         std::to_string(kPipelined + kSequential) + "\r\n"),
              std::string::npos)
        << persist::FsyncPolicyName(policy) << "\n"
        << stats;
    EXPECT_NE(stats.find("STAT cmd_set " + std::to_string(kPipelined + kSequential) + "\r\n"),
              std::string::npos)
        << stats;
  }
}

}  // namespace
}  // namespace cuckoo
