// Crash-injection tests: run the real cuckoo_kv_server binary as a child
// process, load it over its unix socket, kill -9 it mid-load, restart it on
// the same WAL directory, and verify every acknowledged write survived.
//
// Note what kill -9 does and does not prove: the OS page cache survives
// SIGKILL, so these tests validate the recovery pipeline (segment/record
// framing, torn tails, snapshot + replay, LSN continuity) rather than the
// physical fsync barrier itself. The fsync_policy=always path is still
// exercised end-to-end because every ack waits on a covering fsync.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/file_util.h"
#include "tests/process_harness.h"

namespace cuckoo {
namespace {

using testsupport::Client;
using testsupport::HttpGet;
using testsupport::ServerProcess;
using testsupport::StatValue;
using testsupport::TempDir;

std::string ValueFor(int i) { return "value-" + std::to_string(i) + "-payload"; }

TEST(CrashRecoveryTest, Kill9MidLoadLosesNoAckedWriteUnderFsyncAlways) {
  TempDir dir;
  const std::string sock = dir.path + "/srv.sock";
  const std::string wal_dir = dir.path + "/wal";

  std::atomic<int> last_acked{-1};
  {
    ServerProcess server(wal_dir, sock, "always");
    // A loader thread streams acked sets; the main thread pulls the trigger
    // mid-load, so the kill lands while writes are genuinely in flight.
    std::thread loader([&] {
      Client client(sock);
      for (int i = 0; i < 100000; ++i) {
        if (!client.Set("key" + std::to_string(i), ValueFor(i))) {
          return;  // EOF/EPIPE: the server died; i was NOT acked
        }
        last_acked.store(i, std::memory_order_release);
      }
    });
    while (last_acked.load(std::memory_order_acquire) < 200) {
      std::this_thread::yield();  // let a real prefix get acked first
    }
    server.Kill9();
    loader.join();
  }
  const int acked = last_acked.load(std::memory_order_acquire);
  ASSERT_GE(acked, 200);

  ServerProcess server(wal_dir, sock, "always");
  Client client(sock);
  for (int i = 0; i <= acked; ++i) {
    ASSERT_EQ(client.Get("key" + std::to_string(i)), ValueFor(i))
        << "acked key" << i << " lost after kill -9 (last_acked=" << acked << ")";
  }
}

constexpr int kPipeConns = 4;
constexpr int kPipeDepth = 64;

std::string PipeKey(const std::string& prefix, int conn, int i) {
  return prefix + std::to_string(conn) + '-' + std::to_string(i);
}

// Streams pipelined sets on kPipeConns connections, each keeping kPipeDepth
// in flight, so acks are released by group-commit notifications, not by one
// blocked event loop per write. Once `kill_after` STOREDs arrived in total,
// runs `before_kill` and kill -9s the server. Returns, per connection, how
// many of its sets (keys PipeKey(prefix, conn, 0..n-1)) a client read STORED
// for; *bad_reply is set if any reply was not STORED.
std::vector<int> PipelineUntilKill9(ServerProcess* server, const std::string& sock,
                                    const std::string& prefix, int kill_after, bool* bad_reply,
                                    const std::function<void()>& before_kill = {}) {
  std::atomic<int> acked[kPipeConns];
  std::atomic<int> total_acked{0};
  std::atomic<bool> bad{false};
  std::vector<std::thread> loaders;
  for (int c = 0; c < kPipeConns; ++c) {
    acked[c].store(0);
    loaders.emplace_back([&, c] {
      Client client(sock);
      std::string replies;
      for (int next = 0; next < 1000000; next += kPipeDepth) {
        std::string batch;
        for (int i = next; i < next + kPipeDepth; ++i) {
          batch += "set " + PipeKey(prefix, c, i) + " 0 0 " +
                   std::to_string(ValueFor(i).size()) + "\r\n" + ValueFor(i) + "\r\n";
        }
        if (!client.Send(batch)) {
          return;
        }
        // Replies arrive in request order: each STORED acks the next key.
        for (int got = 0; got < kPipeDepth;) {
          const std::size_t eol = replies.find("\r\n");
          if (eol == std::string::npos) {
            if (client.Read(&replies) <= 0) {
              return;  // the server died: the rest of the batch is unacked
            }
            continue;
          }
          if (replies.compare(0, eol + 2, "STORED\r\n") != 0) {
            bad.store(true);
            return;
          }
          replies.erase(0, eol + 2);
          acked[c].store(next + ++got, std::memory_order_release);
          total_acked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  while (total_acked.load(std::memory_order_relaxed) < kill_after && !bad.load()) {
    std::this_thread::yield();  // let every connection get a real prefix acked
  }
  if (before_kill) {
    before_kill();
  }
  server->Kill9();
  for (std::thread& t : loaders) {
    t.join();
  }
  *bad_reply = bad.load();
  std::vector<int> counts;
  for (int c = 0; c < kPipeConns; ++c) {
    counts.push_back(acked[c].load(std::memory_order_acquire));
  }
  EXPECT_GE(total_acked.load(), kill_after);
  return counts;
}

// Every set PipelineUntilKill9 saw acked reads back.
void ExpectPipelineSurvived(Client* client, const std::string& prefix,
                            const std::vector<int>& acked) {
  for (int c = 0; c < kPipeConns; ++c) {
    for (int i = 0; i < acked[c]; ++i) {
      ASSERT_EQ(client->Get(PipeKey(prefix, c, i)), ValueFor(i))
          << "acked " << PipeKey(prefix, c, i) << " lost after kill -9 (" << acked[c]
          << " acked on conn " << c << ")";
    }
  }
}

// Every STORED a client read under fsync=always must survive kill -9.
TEST(CrashRecoveryTest, Kill9MidPipelineLosesNoAckedWriteUnderFsyncAlways) {
  TempDir dir;
  const std::string sock = dir.path + "/srv.sock";
  const std::string wal_dir = dir.path + "/wal";
  bool bad_reply = false;
  std::vector<int> acked;
  {
    ServerProcess server(wal_dir, sock, "always");
    acked = PipelineUntilKill9(&server, sock, "p", 4000, &bad_reply);
  }
  ASSERT_FALSE(bad_reply);

  ServerProcess server(wal_dir, sock, "always");
  Client client(sock);
  ExpectPipelineSurvived(&client, "p", acked);
}

// Small segments under fsync=always: the WAL zero-fills ahead of its records
// and rotates several times per round, and each kill -9 leaves the active
// segment with a zero tail. Two consecutive crash/restart rounds — the
// second writing into the log the first recovery reopened — lose no acked
// write of either round.
TEST(CrashRecoveryTest, TwoKill9RestartsAcrossRotationsLoseNoAckedWriteUnderFsyncAlways) {
  TempDir dir;
  const std::string sock = dir.path + "/srv.sock";
  const std::string wal_dir = dir.path + "/wal";
  const std::vector<std::string> args = {"--segment-bytes=65536"};
  bool bad_reply = false;
  std::vector<std::vector<int>> acked;
  const std::string prefixes[] = {"a", "b"};
  for (const std::string& prefix : prefixes) {
    ServerProcess server(wal_dir, sock, "always", args);
    Client client(sock);
    for (std::size_t round = 0; round < acked.size(); ++round) {
      ExpectPipelineSurvived(&client, prefixes[round], acked[round]);
    }
    long long segments = 0;
    acked.push_back(PipelineUntilKill9(&server, sock, prefix, 4000, &bad_reply, [&] {
      segments = StatValue(client.Roundtrip("stats\r\n", "END\r\n"), "wal_segments_created");
    }));
    ASSERT_FALSE(bad_reply);
    EXPECT_GE(segments, 3) << "round " << prefix << " must rotate";
  }
  ServerProcess server(wal_dir, sock, "always", args);
  Client client(sock);
  for (std::size_t round = 0; round < acked.size(); ++round) {
    ExpectPipelineSurvived(&client, prefixes[round], acked[round]);
  }
}

TEST(CrashRecoveryTest, Kill9AfterBgsaveRecoversFromSnapshotPlusWal) {
  TempDir dir;
  const std::string sock = dir.path + "/srv.sock";
  const std::string wal_dir = dir.path + "/wal";

  {
    ServerProcess server(wal_dir, sock, "always");
    Client client(sock);
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(client.Set("key" + std::to_string(i), ValueFor(i)));
    }
    ASSERT_EQ(client.Roundtrip("bgsave\r\n", "\r\n"), "OK\r\n");
    // Poll stats until the snapshot lands on disk.
    for (int spin = 0; spin < 500 && ListFilesWithPrefix(wal_dir, "snap-").empty();
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_FALSE(ListFilesWithPrefix(wal_dir, "snap-").empty());
    // Keep writing past the snapshot: these live only in the WAL.
    for (int i = 300; i < 400; ++i) {
      ASSERT_TRUE(client.Set("key" + std::to_string(i), ValueFor(i)));
    }
    for (int i = 0; i < 50; ++i) {  // and overwrite some snapshotted keys
      ASSERT_TRUE(client.Set("key" + std::to_string(i), "overwritten" + std::to_string(i)));
    }
    server.Kill9();
  }

  ServerProcess server(wal_dir, sock, "always");
  Client client(sock);
  const std::string stats = client.Roundtrip("stats\r\n", "END\r\n");
  EXPECT_NE(stats.find("STAT recovery_loaded_snapshot 1\r\n"), std::string::npos)
      << stats;
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(client.Get("key" + std::to_string(i)), "overwritten" + std::to_string(i));
  }
  for (int i = 50; i < 400; ++i) {
    ASSERT_EQ(client.Get("key" + std::to_string(i)), ValueFor(i));
  }
}

TEST(CrashRecoveryTest, SigtermFlushesEverySecPolicyBeforeExit) {
  TempDir dir;
  const std::string sock = dir.path + "/srv.sock";
  const std::string wal_dir = dir.path + "/wal";

  constexpr int kKeys = 500;
  {
    ServerProcess server(wal_dir, sock, "everysec");
    Client client(sock);
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(client.Set("key" + std::to_string(i), ValueFor(i)));
    }
    // Under everysec the tail of these writes is typically NOT yet fsynced;
    // graceful shutdown must flush it before exiting.
    server.Terminate();
  }

  ServerProcess server(wal_dir, sock, "everysec");
  Client client(sock);
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(client.Get("key" + std::to_string(i)), ValueFor(i))
        << "key" << i << " lost across a clean SIGTERM shutdown";
  }
}

TEST(CrashRecoveryTest, StatsDetailAndMetricsEndpointSurviveKill9) {
  TempDir dir;
  const std::string sock = dir.path + "/srv.sock";
  const std::string wal_dir = dir.path + "/wal";

  {
    ServerProcess server(wal_dir, sock, "always",
                         {"--metrics-port=0", "--slowlog-threshold-us=0"});
    ASSERT_GT(server.metrics_port(), 0);
    Client client(sock);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(client.Set("key" + std::to_string(i), ValueFor(i)));
    }
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(client.Get("key" + std::to_string(i)), ValueFor(i));
    }

    // `stats detail` layers latency percentiles and durability histograms on
    // top of the base stats (which must still be present).
    const std::string detail = client.Roundtrip("stats detail\r\n", "END\r\n");
    EXPECT_GT(StatValue(detail, "curr_items"), 0) << detail;
    EXPECT_EQ(StatValue(detail, "cmd_get_ns_count"), 200) << detail;
    EXPECT_EQ(StatValue(detail, "cmd_set_ns_count"), 200) << detail;
    EXPECT_GT(StatValue(detail, "cmd_get_ns_p50"), 0) << detail;
    EXPECT_GE(StatValue(detail, "cmd_get_ns_p999"), StatValue(detail, "cmd_get_ns_p50"));
    EXPECT_GT(StatValue(detail, "cmd_set_ns_p99"), 0) << detail;
    EXPECT_EQ(StatValue(detail, "wal_append_durable_count"), 200) << detail;
    EXPECT_GT(StatValue(detail, "wal_append_durable_ns_p50"), 0) << detail;
    EXPECT_GE(StatValue(detail, "wal_batch_records_p50"), 1) << detail;
    // Plain `stats` must NOT grow the detail lines (back-compat).
    const std::string plain = client.Roundtrip("stats\r\n", "END\r\n");
    EXPECT_EQ(plain.find("cmd_get_ns_p50"), std::string::npos) << plain;

    // The Prometheus endpoint serves both service and durability families.
    const std::string page = HttpGet(server.metrics_port(), "/metrics");
    EXPECT_NE(page.find("HTTP/1.0 200 OK"), std::string::npos) << page;
    EXPECT_NE(page.find("cuckoo_kv_sets_total 200\n"), std::string::npos) << page;
    EXPECT_NE(page.find("cuckoo_kv_get_hits_total 200\n"), std::string::npos) << page;
    EXPECT_NE(page.find("cuckoo_cmd_get_seconds{quantile=\"0.99\"}"), std::string::npos);
    EXPECT_NE(page.find("cuckoo_wal_records_appended_total 200\n"), std::string::npos);
    EXPECT_NE(page.find("cuckoo_wal_append_durable_seconds_count 200\n"),
              std::string::npos);
    EXPECT_NE(page.find("cuckoo_table_lookups_total"), std::string::npos);

    server.Kill9();
  }

  // After a crash + recovery the observability surface must come back too,
  // with fresh histograms and recovery counters.
  ServerProcess server(wal_dir, sock, "always", {"--metrics-port=0"});
  ASSERT_GT(server.metrics_port(), 0);
  Client client(sock);
  ASSERT_EQ(client.Get("key7"), ValueFor(7));
  const std::string detail = client.Roundtrip("stats detail\r\n", "END\r\n");
  EXPECT_EQ(StatValue(detail, "recovery_wal_records_applied"), 200) << detail;
  EXPECT_GT(StatValue(detail, "cmd_get_ns_p50"), 0) << detail;
  const std::string page = HttpGet(server.metrics_port(), "/metrics");
  EXPECT_NE(page.find("cuckoo_wal_durable_lsn"), std::string::npos) << page;
  EXPECT_NE(page.find("cuckoo_kv_items 200\n"), std::string::npos) << page;
}

TEST(CrashRecoveryTest, SlowlogCapturesSlowCommandsOverTheWire) {
  TempDir dir;
  const std::string sock = dir.path + "/srv.sock";
  const std::string wal_dir = dir.path + "/wal";

  // Threshold 0us is "disabled"; use 1us so real fsync-backed sets (tens of
  // microseconds at least) always qualify.
  ServerProcess server(wal_dir, sock, "always",
                       {"--slowlog-threshold-us=1", "--slowlog-capacity=16"});
  Client client(sock);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.Set("slowkey" + std::to_string(i), ValueFor(i)));
  }
  const std::string slowlog = client.Roundtrip("stats slowlog\r\n", "END\r\n");
  EXPECT_EQ(StatValue(slowlog, "slowlog_threshold_ns"), 1000) << slowlog;
  EXPECT_GE(StatValue(slowlog, "slowlog_total"), 8) << slowlog;
  EXPECT_NE(slowlog.find(" set slowkey7\r\n"), std::string::npos) << slowlog;
  // Unknown stats sub-commands are rejected, not silently treated as plain.
  const std::string bad = client.Roundtrip("stats bogus\r\n", "\r\n");
  EXPECT_EQ(bad.rfind("ERROR", 0), 0u) << bad;
  server.Terminate();
}

// ---- Larger-than-memory tier (value log) crash tests ------------------------

// A tiered value: padded past the vlog threshold, version-stamped so torn or
// stale recoveries are detectable.
std::string TieredValueFor(int i, int version = 0) {
  std::string v = "tiered-" + std::to_string(i) + "-v" + std::to_string(version) + "-";
  v.resize(200, 'x');
  return v;
}

std::vector<std::string> TierArgs(const std::string& vlog_dir) {
  return {"--vlog-dir=" + vlog_dir, "--vlog-threshold-bytes=64"};
}

TEST(CrashRecoveryTest, TieredKill9MidLoadLosesNoAckedWriteUnderFsyncAlways) {
  TempDir dir;
  const std::string sock = dir.path + "/srv.sock";
  const std::string wal_dir = dir.path + "/wal";
  const std::string vlog_dir = dir.path + "/vlog";

  std::atomic<int> last_acked{-1};
  {
    ServerProcess server(wal_dir, sock, "always", TierArgs(vlog_dir));
    std::thread loader([&] {
      Client client(sock);
      for (int i = 0; i < 100000; ++i) {
        if (!client.Set("key" + std::to_string(i), TieredValueFor(i))) {
          return;  // server died; i was NOT acked
        }
        last_acked.store(i, std::memory_order_release);
      }
    });
    while (last_acked.load(std::memory_order_acquire) < 100) {
      std::this_thread::yield();
    }
    server.Kill9();  // mid-append: the vlog tail may carry a torn frame
    loader.join();
  }
  const int acked = last_acked.load(std::memory_order_acquire);
  ASSERT_GE(acked, 100);

  ServerProcess server(wal_dir, sock, "always", TierArgs(vlog_dir));
  Client client(sock);
  for (int i = 0; i <= acked; ++i) {
    ASSERT_EQ(client.Get("key" + std::to_string(i)), TieredValueFor(i))
        << "acked tiered key" << i << " lost after kill -9 (last_acked=" << acked << ")";
  }
  // Those GETs ran against a cold hot-cache: the index held only location
  // records and the bytes came back through the value log's parked-read path.
  const std::string stats = client.Roundtrip("stats\r\n", "END\r\n");
  EXPECT_GT(StatValue(stats, "vlog_disk_reads"), 0) << stats;
  EXPECT_GT(StatValue(stats, "server_parked_reads"), 0) << stats;
}

TEST(CrashRecoveryTest, TieredKill9MidGcLosesNoAckedState) {
  TempDir dir;
  const std::string sock = dir.path + "/srv.sock";
  const std::string wal_dir = dir.path + "/wal";
  const std::string vlog_dir = dir.path + "/vlog";

  // Tiny segments + a low trigger: steady overwrites keep the compactor busy
  // so SIGKILL lands while GC is actually relocating records.
  std::vector<std::string> args = TierArgs(vlog_dir);
  args.push_back("--vlog-segment-bytes=8192");
  args.push_back("--vlog-gc-trigger=0.2");

  constexpr int kKeys = 32;
  std::vector<std::atomic<int>> acked_version(kKeys);
  for (auto& v : acked_version) {
    v.store(-1);
  }
  {
    ServerProcess server(wal_dir, sock, "always", args);
    std::atomic<bool> stop{false};
    std::thread loader([&] {
      Client client(sock);
      for (int n = 0; !stop.load(std::memory_order_acquire); ++n) {
        const int key = n % kKeys;
        const int version = n / kKeys;
        if (!client.Set("key" + std::to_string(key), TieredValueFor(key, version))) {
          return;
        }
        acked_version[key].store(version, std::memory_order_release);
      }
    });
    // Wait until at least one segment was actually compacted (GC provably in
    // flight), then crash. Bounded wait so a broken GC fails loudly.
    Client probe(sock);
    long long retired = 0;
    for (int spin = 0; spin < 2000 && retired <= 0; ++spin) {
      const std::string stats = probe.Roundtrip("stats\r\n", "END\r\n");
      retired = StatValue(stats, "vlog_gc_segments_retired");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GT(retired, 0) << "GC never retired a segment; trigger too high?";
    server.Kill9();
    stop.store(true, std::memory_order_release);
    loader.join();
  }

  ServerProcess server(wal_dir, sock, "always", args);
  Client client(sock);
  for (int key = 0; key < kKeys; ++key) {
    const int acked = acked_version[key].load(std::memory_order_acquire);
    if (acked < 0) {
      continue;
    }
    const std::string got = client.Get("key" + std::to_string(key));
    ASSERT_FALSE(got.empty()) << "tiered key" << key << " vanished across GC + kill -9";
    // The recovered version must be at least the last acked one (a later
    // applied-but-unacked overwrite may legitimately win), and the payload
    // must be whole — GC must never tear or resurrect.
    const std::string prefix = "tiered-" + std::to_string(key) + "-v";
    ASSERT_EQ(got.rfind(prefix, 0), 0u) << got.substr(0, 40);
    const int version = std::atoi(got.c_str() + prefix.size());
    EXPECT_GE(version, acked) << "key" << key << " rolled back past an acked write";
    EXPECT_EQ(got, TieredValueFor(key, version));
  }
}

TEST(CrashRecoveryTest, TornVlogTailTruncatedOnRestart) {
  TempDir dir;
  const std::string sock = dir.path + "/srv.sock";
  const std::string wal_dir = dir.path + "/wal";
  const std::string vlog_dir = dir.path + "/vlog";

  constexpr int kKeys = 20;
  {
    ServerProcess server(wal_dir, sock, "always", TierArgs(vlog_dir));
    Client client(sock);
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(client.Set("key" + std::to_string(i), TieredValueFor(i)));
    }
    server.Kill9();
  }
  // Simulate a crash mid-append: garbage bytes on the active segment's tail.
  std::string newest;
  for (const std::string& name : ListFilesWithPrefix(vlog_dir, "vlog-")) {
    if (name > newest) {
      newest = name;
    }
  }
  ASSERT_FALSE(newest.empty());
  {
    std::FILE* f = std::fopen((vlog_dir + "/" + newest).c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::string garbage(137, '\x5a');
    ASSERT_EQ(std::fwrite(garbage.data(), 1, garbage.size(), f), garbage.size());
    std::fclose(f);
  }

  ServerProcess server(wal_dir, sock, "always", TierArgs(vlog_dir));
  Client client(sock);
  const std::string stats = client.Roundtrip("stats\r\n", "END\r\n");
  EXPECT_GT(StatValue(stats, "vlog_torn_tail_bytes"), 0) << stats;
  // Every acked value survives the truncation, and the log accepts new
  // appends after the repaired tail.
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(client.Get("key" + std::to_string(i)), TieredValueFor(i));
  }
  ASSERT_TRUE(client.Set("fresh", TieredValueFor(999)));
  EXPECT_EQ(client.Get("fresh"), TieredValueFor(999));
}

TEST(CrashRecoveryTest, TieredSigtermFlushesEverySecBeforeExit) {
  TempDir dir;
  const std::string sock = dir.path + "/srv.sock";
  const std::string wal_dir = dir.path + "/wal";
  const std::string vlog_dir = dir.path + "/vlog";

  constexpr int kKeys = 200;
  {
    ServerProcess server(wal_dir, sock, "everysec", TierArgs(vlog_dir));
    Client client(sock);
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(client.Set("key" + std::to_string(i), TieredValueFor(i)));
    }
    // Under everysec the vlog tail is typically NOT yet fsynced; graceful
    // shutdown must sync the value log before the WAL.
    server.Terminate();
  }
  ServerProcess server(wal_dir, sock, "everysec", TierArgs(vlog_dir));
  Client client(sock);
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(client.Get("key" + std::to_string(i)), TieredValueFor(i))
        << "tiered key" << i << " lost across a clean SIGTERM shutdown";
  }
}

TEST(CrashRecoveryTest, TieredSnapshotHoldsLocationsNotBytes) {
  TempDir dir;
  const std::string sock = dir.path + "/srv.sock";
  const std::string wal_dir = dir.path + "/wal";
  const std::string vlog_dir = dir.path + "/vlog";

  {
    ServerProcess server(wal_dir, sock, "always", TierArgs(vlog_dir));
    Client client(sock);
    // ~200 KiB of tiered values; the snapshot should stay far smaller.
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(client.Set("key" + std::to_string(i), TieredValueFor(i)));
    }
    ASSERT_EQ(client.Roundtrip("bgsave\r\n", "\r\n"), "OK\r\n");
    for (int spin = 0; spin < 500 && ListFilesWithPrefix(wal_dir, "snap-").empty();
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const std::vector<std::string> snaps = ListFilesWithPrefix(wal_dir, "snap-");
    ASSERT_FALSE(snaps.empty());
    std::string bytes;
    ASSERT_TRUE(ReadFileToString(wal_dir + "/" + snaps.back(), &bytes));
    // 1000 entries x (~60 bytes of header + key + 16-byte location) stays
    // well under the 200 KB of value data it indexes; storing the bytes
    // inline would push it past that.
    EXPECT_LT(bytes.size(), 120u * 1000u) << bytes.size();
    server.Kill9();
  }

  ServerProcess server(wal_dir, sock, "always", TierArgs(vlog_dir));
  Client client(sock);
  const std::string stats = client.Roundtrip("stats\r\n", "END\r\n");
  EXPECT_EQ(StatValue(stats, "recovery_loaded_snapshot"), 1) << stats;
  for (int i = 0; i < 1000; i += 37) {
    ASSERT_EQ(client.Get("key" + std::to_string(i)), TieredValueFor(i));
  }
}

TEST(CrashRecoveryTest, RestartExposesDurabilityStats) {
  TempDir dir;
  const std::string sock = dir.path + "/srv.sock";
  const std::string wal_dir = dir.path + "/wal";
  {
    ServerProcess server(wal_dir, sock, "always");
    Client client(sock);
    ASSERT_TRUE(client.Set("k", "v"));
    const std::string stats = client.Roundtrip("stats\r\n", "END\r\n");
    EXPECT_NE(stats.find("STAT wal_records_appended 1\r\n"), std::string::npos) << stats;
    EXPECT_NE(stats.find("STAT wal_durable_lsn 1\r\n"), std::string::npos) << stats;
    EXPECT_NE(stats.find("STAT fsync_policy always\r\n"), std::string::npos) << stats;
    server.Terminate();
  }
  ServerProcess server(wal_dir, sock, "always");
  Client client(sock);
  const std::string stats = client.Roundtrip("stats\r\n", "END\r\n");
  EXPECT_NE(stats.find("STAT recovery_wal_records_applied 1\r\n"), std::string::npos)
      << stats;
  EXPECT_EQ(client.Get("k"), "v");
}

}  // namespace
}  // namespace cuckoo
