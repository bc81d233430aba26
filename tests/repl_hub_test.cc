// In-process replication-hub tests: the semi-sync ack gate driven through a
// real DurabilityManager + ReplicationHub with a scripted replica on the
// other end of a socketpair, plus the regression for the ack ordering
// contract — a replica ack must never resurrect a client ack the
// local WAL already refused. Each runs on the synchronous Drive and over a
// SocketServer, whose event loop waits for acks without blocking.
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/file_util.h"
#include "src/kvserver/kv_service.h"
#include "src/kvserver/socket_server.h"
#include "src/persist/durability.h"
#include "src/persist/repl_bridge.h"
#include "src/persist/wal.h"
#include "src/repl/replication.h"
#include "src/repl/replication_hub.h"

namespace cuckoo {
namespace repl {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "cuckoo_hub_XXXXXX";
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

std::string Drive(KvService* service, const std::string& input) {
  auto conn = service->Connect();
  std::string out;
  conn.Drive(input, &out);
  return out;
}

// A one-loop SocketServer in front of `service`: if an ack wait blocked the
// loop, every other connection would stall with it.
std::unique_ptr<SocketServer> StartSocketServer(KvService* service, const std::string& dir) {
  SocketServer::Options options;
  options.unix_path = dir + "/srv.sock";
  options.event_threads = 1;
  auto server = std::make_unique<SocketServer>(service, options);
  EXPECT_TRUE(server->Start());
  return server;
}

// The pathological best-case replica: confirms every LSN at once, counting
// how often it was asked.
struct AlwaysYesBridge : persist::ReplicationBridge {
  std::atomic<int> asked{0};
  void OnWalCommit(std::uint64_t, std::uint64_t) override {}
  bool GatesAcks() const override { return true; }
  void NotifyReplicated(std::vector<std::uint64_t> lsns,
                        std::function<void(std::uint64_t)> done) override {
    asked.fetch_add(1, std::memory_order_relaxed);
    done(lsns.back());
  }
  std::uint64_t MinReplicaLsn() override { return UINT64_MAX; }
};

// A scripted replica on the hub side of a socketpair: reads the SYNC line,
// decodes WAL frames, and (while `acking` is set) acknowledges every LSN it
// sees. No KvService behind it — just the wire protocol.
class ScriptedReplica {
 public:
  explicit ScriptedReplica(int fd) : fd_(fd) {
    thread_ = std::thread([this] { Run(); });
  }
  ~ScriptedReplica() {
    stop_.store(true, std::memory_order_release);
    ::shutdown(fd_, SHUT_RDWR);
    thread_.join();
    ::close(fd_);
  }

  void SetAcking(bool acking) { acking_.store(acking, std::memory_order_release); }
  std::uint64_t last_seen_lsn() const {
    return last_seen_lsn_.load(std::memory_order_acquire);
  }

 private:
  void Run() {
    std::string buffer;
    bool saw_sync = false;
    char buf[4096];
    std::uint64_t applied = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        return;
      }
      buffer.append(buf, static_cast<std::size_t>(n));
      if (!saw_sync) {
        const std::size_t eol = buffer.find('\n');
        if (eol == std::string::npos) {
          continue;
        }
        EXPECT_EQ(buffer.rfind("SYNC ", 0), 0u) << buffer.substr(0, eol);
        buffer.erase(0, eol + 1);
        saw_sync = true;
      }
      std::size_t pos = 0;
      persist::WalRecord record;
      while (persist::internal::DecodeWalRecord(buffer, &pos, &record) == 1) {
        if (record.lsn != 0) {  // heartbeats carry lsn 0
          applied = record.lsn;
        }
        last_seen_lsn_.store(applied, std::memory_order_release);
        if (acking_.load(std::memory_order_acquire) && applied != 0) {
          const std::string ack = "ACK " + std::to_string(applied) + "\r\n";
          (void)::send(fd_, ack.data(), ack.size(), MSG_NOSIGNAL);
        }
      }
      buffer.erase(0, pos);
    }
  }

  int fd_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> acking_{true};
  std::atomic<std::uint64_t> last_seen_lsn_{0};
};

TEST(ReplAckLevelTest, ParsesAndNames) {
  AckLevel level = AckLevel::kNone;
  EXPECT_TRUE(ParseAckLevel("none", &level));
  EXPECT_EQ(level, AckLevel::kNone);
  EXPECT_TRUE(ParseAckLevel("async", &level));
  EXPECT_EQ(level, AckLevel::kAsync);
  EXPECT_TRUE(ParseAckLevel("semi-sync", &level));
  EXPECT_EQ(level, AckLevel::kSemiSync);
  EXPECT_TRUE(ParseAckLevel("semisync", &level));
  EXPECT_EQ(level, AckLevel::kSemiSync);
  EXPECT_FALSE(ParseAckLevel("quorum", &level));
  EXPECT_STREQ(AckLevelName(AckLevel::kNone), "none");
  EXPECT_STREQ(AckLevelName(AckLevel::kAsync), "async");
  EXPECT_STREQ(AckLevelName(AckLevel::kSemiSync), "semi-sync");
}

// The regression (see DurabilityManager::NotifyAcked): once the local WAL
// reports an I/O error, the write must be refused BEFORE replication is even
// consulted. A bridge that happily confirms every LSN — the pathological
// best-case replica — must not be able to turn the refusal into an ack.
TEST(ReplBridgeOrderingTest, ReplicaAckNeverResurrectsLocalWalFailure) {
  TempDir dir;
  KvService service;
  persist::DurabilityManager durability(&service);
  AlwaysYesBridge bridge;
  durability.SetReplicationBridge(&bridge);
  persist::DurabilityOptions options;
  options.dir = dir.path;
  options.fsync_policy = persist::FsyncPolicy::kAlways;
  std::string error;
  ASSERT_TRUE(durability.Start(options, &error)) << error;

  // Healthy path: the ack consults replication exactly once per write.
  EXPECT_EQ(Drive(&service, "set healthy 0 0 1\r\nx\r\n"), "STORED\r\n");
  EXPECT_EQ(bridge.asked.load(), 1);

  durability.wal_for_testing().InjectIoErrorForTesting();
  EXPECT_EQ(Drive(&service, "set broken 0 0 1\r\nx\r\n"),
            "SERVER_ERROR wal io error\r\n");
  // The write failed locally, so the all-confirming bridge must never have
  // been asked — a "yes" here would have lied to the client.
  EXPECT_EQ(bridge.asked.load(), 1);
  durability.Stop();
}

// The same regression on the socket path, where the ack is decided by the
// WAL's group-commit notification instead of a blocking WaitDurable.
TEST(ReplBridgeOrderingTest, ReplicaAckNeverResurrectsLocalWalFailureOverSocket) {
  TempDir dir;
  KvService service;
  persist::DurabilityManager durability(&service);
  AlwaysYesBridge bridge;
  durability.SetReplicationBridge(&bridge);
  persist::DurabilityOptions options;
  options.dir = dir.path;
  options.fsync_policy = persist::FsyncPolicy::kAlways;
  std::string error;
  ASSERT_TRUE(durability.Start(options, &error)) << error;
  std::unique_ptr<SocketServer> server = StartSocketServer(&service, dir.path);

  SocketClient client(server->path());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.RoundTrip("set healthy 0 0 1\r\nx\r\n", "\r\n"), "STORED\r\n");
  EXPECT_EQ(bridge.asked.load(), 1);

  durability.wal_for_testing().InjectIoErrorForTesting();
  EXPECT_EQ(client.RoundTrip("set broken 0 0 1\r\nx\r\n", "\r\n"),
            "SERVER_ERROR wal io error\r\n");
  EXPECT_EQ(client.RoundTrip("set later 0 0 1\r\nx\r\n", "\r\n"),
            "SERVER_ERROR wal io error\r\n");
  EXPECT_EQ(bridge.asked.load(), 1);
  server->Stop();
  durability.Stop();
}

TEST(ReplHubTest, SemiSyncGatesClientAcksOnReplicaAcks) {
  TempDir dir;
  KvService service;
  persist::DurabilityManager durability(&service);
  ReplicationHubOptions hub_options;
  hub_options.service = &service;
  hub_options.durability = &durability;
  hub_options.wal_dir = dir.path;
  hub_options.ack = AckLevel::kSemiSync;
  hub_options.semi_sync_timeout_ms = 300;
  hub_options.heartbeat_ms = 50;
  ReplicationHub hub(hub_options);
  hub.RegisterMetrics(&service.metrics());
  durability.SetReplicationBridge(&hub);
  persist::DurabilityOptions options;
  options.dir = dir.path;
  options.fsync_policy = persist::FsyncPolicy::kAlways;
  std::string error;
  ASSERT_TRUE(durability.Start(options, &error)) << error;

  // Degraded mode: no replica connected yet, writes still ack locally.
  EXPECT_EQ(Drive(&service, "set pre 0 0 1\r\nx\r\n"), "STORED\r\n");
  {
    const std::string stats = Drive(&service, "stats\r\n");
    EXPECT_NE(stats.find("STAT repl_degraded_acks 1\r\n"), std::string::npos) << stats;
  }

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);  // the hub's side
  ScriptedReplica replica(fds[1]);
  hub.Adopt(fds[0], durability.wal().LastAssignedLsn() + 1, "");

  // With an acking replica attached, writes flow and are genuinely gated:
  // the replica saw the record's LSN by the time the client was acked.
  EXPECT_EQ(Drive(&service, "set gated 0 0 1\r\nx\r\n"), "STORED\r\n");
  EXPECT_GE(replica.last_seen_lsn(), durability.wal().LastAssignedLsn());
  EXPECT_EQ(hub.ConnectedReplicas(), 1u);
  EXPECT_EQ(hub.LagLsns(), 0u);

  // A replica that stops acknowledging turns semi-sync writes into refusals
  // once the timeout lapses — silence is not durability.
  replica.SetAcking(false);
  const std::string refused = Drive(&service, "set mute 0 0 1\r\nx\r\n");
  EXPECT_EQ(refused.rfind("SERVER_ERROR", 0), 0u) << refused;
  {
    const std::string stats = Drive(&service, "stats\r\n");
    EXPECT_NE(stats.find("STAT repl_semi_sync_timeouts 1\r\n"), std::string::npos)
        << stats;
  }

  // GC holdback: while the replica is attached the hub pins the WAL at the
  // oldest LSN it may still need; detaching releases the pin.
  EXPECT_NE(hub.MinReplicaLsn(), UINT64_MAX);
  durability.Stop();
  hub.Stop();
  EXPECT_EQ(hub.MinReplicaLsn(), UINT64_MAX);
  EXPECT_EQ(hub.ConnectedReplicas(), 0u);
}

// Semi-sync over the socket: the ack waits for the replica off the event
// loop (another connection is served meanwhile) and a silent replica turns
// the writes into refusals once semi_sync_timeout_ms lapses.
TEST(ReplHubTest, SemiSyncAckWaitsOffTheLoopAndTimesOutOverSocket) {
  TempDir dir;
  KvService service;
  persist::DurabilityManager durability(&service);
  ReplicationHubOptions hub_options;
  hub_options.service = &service;
  hub_options.durability = &durability;
  hub_options.wal_dir = dir.path;
  hub_options.ack = AckLevel::kSemiSync;
  hub_options.semi_sync_timeout_ms = 300;
  hub_options.heartbeat_ms = 50;
  ReplicationHub hub(hub_options);
  hub.RegisterMetrics(&service.metrics());
  durability.SetReplicationBridge(&hub);
  persist::DurabilityOptions options;
  options.dir = dir.path;
  options.fsync_policy = persist::FsyncPolicy::kEverySec;
  std::string error;
  ASSERT_TRUE(durability.Start(options, &error)) << error;
  std::unique_ptr<SocketServer> server = StartSocketServer(&service, dir.path);
  SocketClient writer(server->path());
  SocketClient reader(server->path());
  ASSERT_TRUE(writer.connected() && reader.connected());

  // The counters count writes, however they were batched: pipelined writes
  // share one notification but each degraded ack (no replica yet) counts.
  const std::string stored3 = "STORED\r\nSTORED\r\nSTORED\r\n";
  EXPECT_EQ(writer.RoundTrip("set d1 0 0 1\r\nx\r\nset d2 0 0 1\r\nx\r\n"
                             "set d3 0 0 1\r\nx\r\n",
                             stored3),
            stored3);
  {
    const std::string stats = Drive(&service, "stats\r\n");
    EXPECT_NE(stats.find("STAT repl_degraded_acks 3\r\n"), std::string::npos) << stats;
  }

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);  // the hub's side
  ScriptedReplica replica(fds[1]);
  hub.Adopt(fds[0], durability.wal().LastAssignedLsn() + 1, "");

  EXPECT_EQ(writer.RoundTrip("set gated 0 0 1\r\nx\r\n", "\r\n"), "STORED\r\n");
  EXPECT_GE(replica.last_seen_lsn(), durability.wal().LastAssignedLsn());

  replica.SetAcking(false);
  const auto sent = std::chrono::steady_clock::now();
  ASSERT_TRUE(writer.Send("set m1 0 0 1\r\nx\r\nset m2 0 0 1\r\nx\r\n"
                          "set m3 0 0 1\r\nx\r\n"));
  // The loop is not waiting with the writer.
  EXPECT_EQ(reader.RoundTrip("get nothing\r\n", "END\r\n"), "END\r\n");
  EXPECT_LT(std::chrono::steady_clock::now() - sent, std::chrono::milliseconds(250));
  const std::string refused3 = "SERVER_ERROR wal io error\r\nSERVER_ERROR wal io error\r\n"
                               "SERVER_ERROR wal io error\r\n";
  std::string refused;
  while (refused.size() < refused3.size() && writer.Receive(&refused) > 0) {
  }
  EXPECT_EQ(refused, refused3);
  EXPECT_GE(std::chrono::steady_clock::now() - sent, std::chrono::milliseconds(250));
  {
    const std::string stats = Drive(&service, "stats\r\n");
    EXPECT_NE(stats.find("STAT repl_semi_sync_timeouts 3\r\n"), std::string::npos)
        << stats;
  }

  // A replica that acks again unblocks the next write at once.
  replica.SetAcking(true);
  EXPECT_EQ(writer.RoundTrip("set back 0 0 1\r\nx\r\n", "\r\n"), "STORED\r\n");
  server->Stop();
  durability.Stop();
  hub.Stop();
}

}  // namespace
}  // namespace repl
}  // namespace cuckoo
