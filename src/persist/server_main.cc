// cuckoo_kv_server — the durable KV server binary: SocketServer front end,
// KvService store, DurabilityManager (WAL + snapshots + recovery) underneath.
//
//   cuckoo_kv_server --wal-dir=/var/lib/ckv [--fsync-policy=everysec]
//                    [--unix=/tmp/ckv.sock] [--tcp-port=0] [--event-threads=4]
//                    [--segment-bytes=N] [--snapshot-trigger-bytes=N]
//                    [--max-connections=N] [--metrics-port=N]
//                    [--slowlog-threshold-us=N] [--slowlog-capacity=N]
//                    [--vlog-dir=/var/lib/ckv/vlog] [--vlog-threshold-bytes=4096]
//                    [--vlog-segment-bytes=N] [--vlog-gc-trigger=0.5]
//                    [--vlog-cache-mb=64] [--vlog-reader=auto]
//                    [--vlog-read-threads=4]
//                    [--replicaof=host:port] [--ack=none|async|semi-sync]
//                    [--semi-sync-timeout-ms=1000] [--repl-heartbeat-ms=200]
//
// Without --wal-dir the server runs purely in memory (no durability).
// With --vlog-dir the larger-than-memory tier is enabled: values of at least
// --vlog-threshold-bytes live in an append-only value log under that
// directory, the cuckoo table holds 16-byte location records, and GETs that
// miss the hot cache are served through the async read layer
// (--vlog-reader=auto|uring|threads) without blocking the event loops.
// --vlog-gc-trigger > 0 starts the background compactor at that dead-byte
// ratio. The tier composes with --wal-dir: snapshots/WAL persist the
// location records and restart rebuilds the index without reading value
// bytes.
// After startup it prints a READY line to stdout:
//   READY <tcp_port> <unix_path>
// (test harnesses block on this). With --metrics-port a Prometheus text
// endpoint is served on 127.0.0.1 (0 = kernel-assigned) and a second line
//   METRICS <port>
// follows READY; with --vlog-dir a line
//   VLOG <dir> threshold=<bytes> reader=<backend>
// is announced as well. With --wal-dir a replication line
//   REPL <role> ack=<level>
// follows, too: the server accepts `replicate <lsn>` upgrades (WAL-shipping
// primary), and with --replicaof=host:port it starts as a read-only replica
// of that primary (writes answer SERVER_ERROR with a redirect; `replicaof
// none` promotes it to a writable primary at runtime).
// SIGTERM/SIGINT trigger a graceful stop: drain
// connections (in-flight parked disk reads finish first), flush + fsync the
// value log and the WAL, then exit 0 — an acked write can never be lost by a
// clean shutdown, under any fsync policy.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "src/benchkit/flags.h"
#include "src/kvserver/kv_service.h"
#include "src/kvserver/socket_server.h"
#include "src/obs/metrics_http.h"
#include "src/persist/durability.h"
#include "src/repl/replica_client.h"
#include "src/repl/replication_hub.h"
#include "src/store/tiered_store.h"

int main(int argc, char** argv) {
  using namespace cuckoo;

  Flags flags(argc, argv);
  const std::string wal_dir = flags.GetString("wal-dir", "");
  const std::string policy_name = flags.GetString("fsync-policy", "everysec");
  const std::string unix_path = flags.GetString("unix", "");
  const bool want_tcp = flags.Has("tcp-port") || unix_path.empty();

  persist::FsyncPolicy policy;
  if (!persist::ParseFsyncPolicy(policy_name, &policy)) {
    std::fprintf(stderr, "unknown --fsync-policy=%s (always|everysec|none)\n",
                 policy_name.c_str());
    return 2;
  }

  const std::string replicaof = flags.GetString("replicaof", "");
  std::string repl_host;
  std::uint16_t repl_port = 0;
  if (!replicaof.empty()) {
    const std::size_t colon = replicaof.rfind(':');
    const long port = colon == std::string::npos || colon + 1 >= replicaof.size()
                          ? 0
                          : std::atol(replicaof.c_str() + colon + 1);
    if (colon == 0 || port <= 0 || port > 65535) {
      std::fprintf(stderr, "bad --replicaof=%s (want host:port)\n", replicaof.c_str());
      return 2;
    }
    repl_host = replicaof.substr(0, colon);
    repl_port = static_cast<std::uint16_t>(port);
    if (wal_dir.empty()) {
      std::fprintf(stderr, "--replicaof requires --wal-dir (the stream is WAL-shipped)\n");
      return 2;
    }
  }
  const std::string ack_name = flags.GetString("ack", "async");
  repl::AckLevel ack_level;
  if (!repl::ParseAckLevel(ack_name, &ack_level)) {
    std::fprintf(stderr, "unknown --ack=%s (none|async|semi-sync)\n", ack_name.c_str());
    return 2;
  }

  // Block the shutdown signals before any thread spawns so every thread
  // inherits the mask and sigwait below is the single delivery point.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  // The larger-than-memory tier opens before the service (the service and
  // recovery both hold raw pointers into it) and closes after everything
  // that might still touch it has stopped.
  const std::string vlog_dir = flags.GetString("vlog-dir", "");
  store::TieredStore tier;
  if (!vlog_dir.empty()) {
    store::TieredStoreOptions t;
    t.dir = vlog_dir;
    t.threshold_bytes =
        static_cast<std::size_t>(flags.GetInt("vlog-threshold-bytes", 4096));
    t.segment_bytes =
        static_cast<std::uint64_t>(flags.GetInt("vlog-segment-bytes", 64 << 20));
    t.gc_trigger = flags.GetDouble("vlog-gc-trigger", 0.0);
    t.cache_capacity_bytes =
        static_cast<std::size_t>(flags.GetInt("vlog-cache-mb", 64)) << 20;
    t.reader_backend = flags.GetString("vlog-reader", "auto");
    t.reader_threads = static_cast<int>(flags.GetInt("vlog-read-threads", 4));
    std::string error;
    if (!tier.Open(t, &error)) {
      std::fprintf(stderr, "cannot open value log: %s\n", error.c_str());
      return 1;
    }
  }

  KvService::Options service_options;
  service_options.initial_bucket_count_log2 =
      static_cast<std::size_t>(flags.GetInt("bucket-count-log2", 12));
  service_options.slowlog_threshold_ns =
      static_cast<std::uint64_t>(flags.GetInt("slowlog-threshold-us", 0)) * 1000;
  service_options.slowlog_capacity =
      static_cast<std::size_t>(flags.GetInt("slowlog-capacity", 128));
  if (!vlog_dir.empty()) {
    service_options.tier = &tier;
  }
  KvService service(service_options);

  persist::DurabilityManager durability(&service);
  // The hub exists on every durable server (any of them can be a primary);
  // it doubles as the durability layer's replication bridge, so it must be
  // installed before Start() opens the WAL. Declared after `durability` so
  // its destructor — which joins the sender threads — runs first.
  std::unique_ptr<repl::ReplicationHub> hub;
  std::unique_ptr<repl::ReplicaClient> replica;
  if (!wal_dir.empty()) {
    repl::ReplicationHubOptions h;
    h.service = &service;
    h.durability = &durability;
    h.tier = vlog_dir.empty() ? nullptr : &tier;
    h.wal_dir = wal_dir;
    h.ack = ack_level;
    h.semi_sync_timeout_ms =
        static_cast<std::uint64_t>(flags.GetInt("semi-sync-timeout-ms", 1000));
    h.heartbeat_ms = static_cast<std::uint64_t>(flags.GetInt("repl-heartbeat-ms", 200));
    hub = std::make_unique<repl::ReplicationHub>(h);
    durability.SetReplicationBridge(hub.get());
  }
  if (!wal_dir.empty()) {
    persist::DurabilityOptions d;
    d.dir = wal_dir;
    d.fsync_policy = policy;
    d.segment_bytes = static_cast<std::uint64_t>(flags.GetInt("segment-bytes", 64 << 20));
    d.snapshot_trigger_bytes =
        static_cast<std::uint64_t>(flags.GetInt("snapshot-trigger-bytes", 0));
    if (!vlog_dir.empty()) {
      d.tier = &tier;
    }
    std::string error;
    if (!durability.Start(d, &error)) {
      std::fprintf(stderr, "recovery failed: %s\n", error.c_str());
      return 1;
    }
    const persist::RecoveryStats& r = durability.recovery();
    std::fprintf(stderr,
                 "recovered: snapshot=%s entries=%llu wal_records=%llu torn_tail=%d "
                 "next_lsn=%llu\n",
                 r.loaded_snapshot ? r.snapshot_path.c_str() : "(none)",
                 static_cast<unsigned long long>(r.snapshot_entries),
                 static_cast<unsigned long long>(r.wal_records_applied),
                 r.truncated_tail ? 1 : 0, static_cast<unsigned long long>(r.next_lsn));
  }

  // GC re-inserts live records through the normal map path (liveness is
  // re-checked under the bucket locks) and only unlinks a compacted segment
  // after the relocations are durable. Without a WAL the barrier is just the
  // value log's own fsync.
  if (!vlog_dir.empty()) {
    tier.SetGcHooks(
        [&service](const std::string& key, const store::ValueLocation& old_loc,
                   std::string_view data) {
          return service.RelocateTiered(key, old_loc, data);
        },
        [&durability, &tier, &wal_dir] {
          return wal_dir.empty() ? tier.SyncLog() : durability.PersistBarrier();
        });
    tier.StartGc();
  }

  if (hub != nullptr) {
    service.SetReplicationUpgradeEnabled(true);
    hub->RegisterMetrics(&service.metrics());
    if (!replicaof.empty()) {
      // Read-only BEFORE the listeners open: no write can sneak in between
      // bind and the client thread establishing the stream.
      service.SetReadOnly(true, replicaof);
      hub->SetRole("replica");
      repl::ReplicaClientOptions c;
      c.host = repl_host;
      c.port = repl_port;
      c.durability = &durability;
      c.wal_dir = wal_dir;
      replica = std::make_unique<repl::ReplicaClient>(c);
      replica->RegisterMetrics(&service.metrics());
    }
    service.SetReplicaofHandler([&service, &hub, &replica](const Request& request) {
      if (!request.repl_host.empty()) {
        return std::string(
            "SERVER_ERROR replicaof: only 'replicaof none' (promotion) is supported at "
            "runtime\r\n");
      }
      // Promotion, idempotent: stop following, accept writes, keep serving
      // the `replicate` upgrades we may already be feeding.
      if (replica != nullptr) {
        replica->Stop();
      }
      service.SetReadOnly(false, "");
      hub->SetRole("primary");
      return std::string("OK\r\n");
    });
  }

  SocketServer::Options server_options;
  server_options.unix_path = unix_path;
  server_options.enable_tcp = want_tcp;
  server_options.tcp_port = static_cast<std::uint16_t>(flags.GetInt("tcp-port", 0));
  server_options.event_threads = static_cast<int>(flags.GetInt("event-threads", 4));
  server_options.max_connections =
      static_cast<std::size_t>(flags.GetInt("max-connections", 1024));
  if (hub != nullptr) {
    repl::ReplicationHub* hub_ptr = hub.get();
    server_options.replication_handoff = [hub_ptr](int fd, std::uint64_t start_lsn,
                                                   std::string leftover) {
      hub_ptr->Adopt(fd, start_lsn, std::move(leftover));
    };
  }
  // The follower thread starts before the listeners open: a `replicaof
  // none` promotion can only arrive through a listener, so it can never
  // race — or be overridden by — this Start.
  if (replica != nullptr) {
    replica->Start();
  }
  SocketServer server(&service, server_options);
  if (!server.Start()) {
    std::fprintf(stderr, "cannot bind listeners (unix=%s tcp=%d)\n", unix_path.c_str(),
                 want_tcp ? 1 : 0);
    return 1;
  }

  // Prometheus endpoint, localhost-only. --metrics-port=0 asks the kernel
  // for a port; the chosen one is announced on the METRICS line.
  obs::MetricsHttpServer metrics_server(&service.metrics());
  const bool want_metrics = flags.Has("metrics-port");
  if (want_metrics &&
      !metrics_server.Start(static_cast<std::uint16_t>(flags.GetInt("metrics-port", 0)))) {
    std::fprintf(stderr, "cannot bind metrics endpoint\n");
    return 1;
  }

  std::printf("READY %u %s\n", static_cast<unsigned>(server.tcp_port()),
              unix_path.empty() ? "-" : unix_path.c_str());
  if (want_metrics) {
    std::printf("METRICS %u\n", static_cast<unsigned>(metrics_server.port()));
  }
  if (!vlog_dir.empty()) {
    std::printf("VLOG %s threshold=%llu reader=%s\n", vlog_dir.c_str(),
                static_cast<unsigned long long>(tier.threshold_bytes()),
                tier.reader_backend());
  }
  if (hub != nullptr) {
    std::printf("REPL %s ack=%s\n", replicaof.empty() ? "primary" : "replica",
                repl::AckLevelName(ack_level));
  }
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::fprintf(stderr, "signal %d: draining connections and flushing WAL\n", sig);

  // Order matters: stop serving first (no new mutations; parked disk reads
  // drain), stop the compactor, then flush + fsync the value log and the WAL
  // so every applied mutation is on disk before exit. The tier itself closes
  // last (by destruction order) — everything above holds pointers into it.
  metrics_server.Stop();
  server.Stop();
  // Replication threads go down before the WAL they read/write: the client
  // first (it appends), then the hub's senders (they tail the segments).
  if (replica != nullptr) {
    replica->Stop();
  }
  if (hub != nullptr) {
    hub->Stop();
  }
  if (!vlog_dir.empty()) {
    tier.StopGc();
  }
  if (!wal_dir.empty()) {
    durability.Stop();
  } else if (!vlog_dir.empty()) {
    tier.SyncLog();
  }
  return 0;
}
