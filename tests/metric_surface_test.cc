// The metric catalog end to end: `stats`, `stats detail` and /metrics
// rendered from one in-process stack (WAL, value-log tier, socket server,
// replication hub with one live peer, replica client), and the lifetime of
// the entries a layer registers.
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/kvserver/kv_service.h"
#include "src/kvserver/socket_server.h"
#include "src/obs/catalog.h"
#include "src/persist/durability.h"
#include "src/repl/replica_client.h"
#include "src/repl/replication_hub.h"
#include "src/store/tiered_store.h"

namespace cuckoo {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "cuckoo_metrics_XXXXXX";
    path = ::mkdtemp(tmpl.data());
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

std::string Drive(KvService* service, const std::string& input) {
  auto conn = service->Connect();
  std::string out;
  conn.Drive(input, &out);
  return out;
}

std::size_t Count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

bool HasStat(const std::string& stats, const std::string& name) {
  return stats.find("STAT " + name + " ") != std::string::npos;
}

bool HasSeries(const std::string& page, const std::string& name) {
  return page.find("\n" + name + " ") != std::string::npos ||
         page.find("\n" + name + "{") != std::string::npos;
}

SocketServer::Options TcpOptions() {
  SocketServer::Options o;
  o.enable_tcp = true;
  o.tcp_port = 0;
  o.event_threads = 1;
  return o;
}

const char* const kServerStats[] = {
    "server_connections_accepted", "server_connections_rejected",
    "server_connections_idle_closed", "server_curr_connections",
    "server_bytes_read", "server_bytes_written",
    "server_backpressure_pauses", "server_parked_reads",
    "server_curr_parked"};

// ----- Lifetime of registered entries -------------------------------------

TEST(MetricLifetimeTest, StatsAfterSocketServerDestroyedDropsItsLines) {
  KvService service;
  {
    SocketServer server(&service, TcpOptions());
    ASSERT_TRUE(server.Start());
    EXPECT_TRUE(HasStat(Drive(&service, "stats\r\n"), "server_curr_connections"));
  }
  // The server's entries read its counters; a render after it is gone
  // must not reach them (ASan: heap-use-after-free before the catalog).
  const std::string stats = Drive(&service, "stats detail\r\n");
  EXPECT_EQ(stats.find("server_"), std::string::npos) << stats;
  EXPECT_EQ(stats.substr(stats.size() - 5), "END\r\n");
  EXPECT_EQ(service.metrics().RenderPrometheus().find("cuckoo_server_"), std::string::npos);
}

TEST(MetricLifetimeTest, StatsAfterDurabilityManagerDestroyedDropsItsLines) {
  TempDir dir;
  KvService service;
  {
    persist::DurabilityManager durability(&service);
    persist::DurabilityOptions options;
    options.dir = dir.path;
    std::string error;
    ASSERT_TRUE(durability.Start(options, &error)) << error;
    EXPECT_EQ(Drive(&service, "set k 0 0 1\r\nv\r\n"), "STORED\r\n");
    const std::string stats = Drive(&service, "stats detail\r\n");
    EXPECT_NE(stats.find("STAT wal_records_appended 1\r\n"), std::string::npos) << stats;
  }
  const std::string stats = Drive(&service, "stats detail\r\n");
  for (const char* gone : {"fsync_policy", "wal_", "snapshot", "replica_", "recovery_"}) {
    EXPECT_EQ(stats.find(std::string("STAT ") + gone), std::string::npos) << gone << "\n"
                                                                          << stats;
  }
  EXPECT_TRUE(HasStat(stats, "curr_items")) << stats;
  const std::string page = service.metrics().RenderPrometheus();
  EXPECT_EQ(page.find("cuckoo_wal_"), std::string::npos);
  EXPECT_EQ(page.find("cuckoo_recovery_"), std::string::npos);
}

TEST(MetricLifetimeTest, RestartedSocketServerReportsEachLineOnce) {
  KvService service;
  SocketServer server(&service, TcpOptions());
  ASSERT_TRUE(server.Start());
  server.Stop();
  ASSERT_TRUE(server.Start());
  const std::string stats = Drive(&service, "stats\r\n");
  for (const char* name : kServerStats) {
    EXPECT_EQ(Count(stats, std::string("STAT ") + name + " "), 1u) << name << "\n" << stats;
  }
  const std::string page = service.metrics().RenderPrometheus();
  EXPECT_EQ(Count(page, "# TYPE cuckoo_server_bytes_read_total "), 1u);
  server.Stop();
}

// ----- Surface parity ------------------------------------------------------

// Every `stats` line and /metrics series the two hand-written renderers
// produced before the catalog, at the level they showed on.
const char* const kPlainStats[] = {
    "curr_items", "get_hits", "get_misses", "cmd_set", "cmd_delete", "expired_unfetched",
    "table_lookups", "table_read_retries", "table_path_searches", "table_path_invalidations",
    "table_displacements", "table_expansions", "table_insert_failures",
    "table_migrations_started", "table_migrations_completed",
    "table_migrations_force_finished", "table_migrated_entries",
    "table_migration_buckets_total", "table_migration_buckets_done", "table_hugepage_bytes",
    "vlog_threshold_bytes", "vlog_segments", "vlog_total_bytes", "vlog_dead_bytes",
    "vlog_appends", "vlog_append_bytes", "vlog_torn_tail_bytes", "vlog_tiered_sets",
    "vlog_hot_hits", "vlog_hot_misses", "vlog_disk_reads", "vlog_disk_read_errors",
    "vlog_gc_runs", "vlog_gc_segments_retired", "vlog_gc_records_scanned",
    "vlog_gc_records_relocated", "vlog_gc_failures", "vlog_reclaimed_bytes",
    "vlog_cache_bytes", "vlog_cache_capacity_bytes", "vlog_cache_evictions",
    "vlog_reader_backend", "fsync_policy", "wal_records_appended", "wal_bytes_appended",
    "wal_fsyncs", "wal_group_commits", "wal_max_batch_records", "wal_segments_created",
    "wal_last_lsn", "wal_written_lsn", "wal_durable_lsn", "wal_io_error",
    "snapshots_completed", "snapshot_failures", "last_snapshot_lsn", "last_snapshot_entries",
    "snapshot_lock_fallbacks", "snapshot_displaced_entries", "replica_applied_records",
    "replica_skipped_tiered", "replica_resyncs", "recovery_loaded_snapshot",
    "recovery_snapshot_entries", "recovery_wal_records_applied", "recovery_truncated_tail",
    "recovery_next_lsn", "repl_role", "repl_ack", "repl_replicas", "repl_head_lsn",
    "repl_lag_lsn", "repl_lag_bytes", "repl_replicas_adopted", "repl_full_syncs",
    "repl_semi_sync_timeouts", "repl_degraded_acks", "repl_primary", "repl_state",
    "repl_reconnects", "repl_client_full_syncs", "repl_corrupt_streams", "repl_acks_sent"};

const char* const kDetailOnlyStats[] = {
    "cmd_get_ns_count", "cmd_get_ns_p50", "cmd_get_ns_p99", "cmd_get_ns_p999",
    "cmd_get_ns_max", "cmd_set_ns_count", "table_lock_contended", "table_lookup_ns_p50",
    "table_insert_ns_p99", "table_expansion_pause_ns_max", "table_migration_stall_ns_p999",
    "table_migration_max_stall_ns", "probe_kernel", "vlog_disk_read_ns_p50",
    "wal_append_durable_ns_p50", "wal_append_durable_ns_p99", "wal_append_durable_ns_p999",
    "wal_append_durable_ns_max", "wal_append_durable_count", "wal_batch_records_p50",
    "wal_batch_records_p99", "wal_batch_records_max", "snapshot_walk_ns_p50",
    "snapshot_walk_ns_max", "snapshot_walk_count", "repl_heartbeats_sent",
    "repl_peer_1_acked_lsn", "repl_peer_1_next_lsn", "repl_peer_1_sent_bytes",
    "repl_peer_1_full_sync"};

const char* const kPrometheus[] = {
    "cuckoo_kv_items", "cuckoo_kv_get_hits_total", "cuckoo_kv_get_misses_total",
    "cuckoo_kv_sets_total", "cuckoo_kv_deletes_total", "cuckoo_kv_expirations_total",
    "cuckoo_kv_slowlog_total", "cuckoo_cmd_get_seconds", "cuckoo_cmd_set_seconds",
    "cuckoo_table_lookups_total", "cuckoo_table_read_retries_total",
    "cuckoo_table_path_searches_total", "cuckoo_table_path_invalidations_total",
    "cuckoo_table_displacements_total", "cuckoo_table_expansions_total",
    "cuckoo_table_lock_contended_total", "cuckoo_table_lookup_seconds",
    "cuckoo_table_insert_seconds", "cuckoo_table_expansion_pause_seconds",
    "cuckoo_table_migrations_total", "cuckoo_table_migrations_completed_total",
    "cuckoo_table_migrations_force_finished_total", "cuckoo_table_migrated_entries_total",
    "cuckoo_table_migration_progress", "cuckoo_table_hugepage_bytes", "cuckoo_probe_kernel",
    "cuckoo_table_migration_max_stall_seconds", "cuckoo_table_migration_stall_seconds",
    "cuckoo_vlog_tiered_sets_total", "cuckoo_vlog_hot_hits_total",
    "cuckoo_vlog_hot_misses_total", "cuckoo_vlog_disk_reads_total",
    "cuckoo_vlog_disk_read_errors_total", "cuckoo_vlog_gc_segments_total",
    "cuckoo_vlog_gc_records_relocated_total", "cuckoo_vlog_reclaimed_bytes_total",
    "cuckoo_vlog_segments", "cuckoo_vlog_total_bytes", "cuckoo_vlog_dead_bytes",
    "cuckoo_vlog_cache_bytes", "cuckoo_vlog_cache_capacity_bytes",
    "cuckoo_vlog_disk_read_seconds", "cuckoo_wal_records_appended_total",
    "cuckoo_wal_bytes_appended_total", "cuckoo_wal_fsyncs_total",
    "cuckoo_wal_group_commits_total", "cuckoo_wal_durable_lsn", "cuckoo_wal_written_lsn",
    "cuckoo_replica_applied_records_total", "cuckoo_replica_resyncs_total",
    "cuckoo_wal_io_error", "cuckoo_snapshots_completed_total",
    "cuckoo_snapshot_failures_total", "cuckoo_wal_append_durable_seconds",
    "cuckoo_wal_group_commit_records", "cuckoo_snapshot_walk_seconds", "cuckoo_repl_replicas",
    "cuckoo_repl_head_lsn", "cuckoo_repl_lag_lsn", "cuckoo_repl_lag_bytes",
    "cuckoo_repl_full_syncs_total", "cuckoo_repl_semi_sync_timeouts_total",
    "cuckoo_repl_degraded_acks_total", "cuckoo_repl_streaming", "cuckoo_repl_reconnects_total",
    "cuckoo_repl_client_full_syncs_total", "cuckoo_repl_corrupt_streams_total"};

// name -> value of every `STAT <name> <value>` line.
std::map<std::string, std::string> ParseStats(const std::string& text) {
  std::map<std::string, std::string> stats;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("STAT ", 0) == 0) {
      const std::size_t space = line.find(' ', 5);
      stats[line.substr(5, space - 5)] = line.substr(space + 1, line.size() - space - 2);
    }
  }
  return stats;
}

// series (name and labels) -> value of every /metrics sample line.
std::map<std::string, std::string> ParseSamples(const std::string& page) {
  std::map<std::string, std::string> samples;
  std::istringstream in(page);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') {
      const std::size_t space = line.rfind(' ');
      samples[line.substr(0, space)] = line.substr(space + 1);
    }
  }
  return samples;
}

bool IsNumber(const std::string& value) {
  char* end = nullptr;
  std::strtod(value.c_str(), &end);
  return !value.empty() && *end == '\0';
}

// The `stats` names an entry renders to (family members: peer 1).
std::vector<std::string> StatNames(const obs::MetricSpec& spec) {
  switch (spec.kind) {
    case obs::MetricKind::kHistogram: {
      std::vector<std::string> names;
      for (const char* suffix : {"_count", "_p50", "_p99", "_p999", "_max"}) {
        names.push_back(spec.stat + suffix);
      }
      return names;
    }
    case obs::MetricKind::kFamily: {
      std::string name = spec.stat;
      return {name.replace(name.find('*'), 1, "1")};
    }
    default:
      return {spec.stat};
  }
}

// The /metrics series an entry renders to; one ending in `="` stands for
// any value of that label.
std::vector<std::string> PromSeries(const obs::MetricSpec& spec) {
  switch (spec.kind) {
    case obs::MetricKind::kHistogram: {
      std::vector<std::string> series;
      for (const char* q : {"0.5", "0.9", "0.99", "0.999"}) {
        series.push_back(spec.prom + "{quantile=\"" + q + "\"}");
      }
      for (const char* suffix : {"_sum", "_count", "_max"}) {
        series.push_back(spec.prom + suffix);
      }
      return series;
    }
    case obs::MetricKind::kFamily:
      return {spec.prom + "{" + spec.label + "=\"1\"}"};
    case obs::MetricKind::kInfo:
      return {spec.prom + "{" + spec.label + "=\""};
    default:
      return {spec.prom};
  }
}

bool HasSample(const std::map<std::string, std::string>& samples, const std::string& series) {
  if (series.size() < 2 || series.compare(series.size() - 2, 2, "=\"") != 0) {
    return samples.count(series) != 0;
  }
  const auto it = samples.lower_bound(series);
  return it != samples.end() && it->first.rfind(series, 0) == 0;
}

TEST(MetricSurfaceTest, EveryEntryShowsOnStatsDetailAndMetrics) {
  TempDir dir;
  store::TieredStoreOptions t;
  t.dir = dir.path + "/vlog";
  t.threshold_bytes = 256;
  t.reader_backend = "threads";
  t.reader_threads = 1;
  store::TieredStore tier;
  std::string error;
  ASSERT_TRUE(tier.Open(t, &error)) << error;

  KvService::Options o;
  o.initial_bucket_count_log2 = 4;  // grows online during the load below
  o.stripe_count = 16;
  o.slowlog_threshold_ns = 1;
  o.tier = &tier;
  KvService service(o);
  persist::DurabilityManager durability(&service);
  repl::ReplicationHubOptions h;
  h.service = &service;
  h.durability = &durability;
  h.tier = &tier;
  h.wal_dir = dir.path + "/wal";
  repl::ReplicationHub hub(h);
  hub.RegisterMetrics(&service.metrics());
  durability.SetReplicationBridge(&hub);
  persist::DurabilityOptions d;
  d.dir = dir.path + "/wal";
  d.tier = &tier;
  ASSERT_TRUE(durability.Start(d, &error)) << error;
  SocketServer server(&service, TcpOptions());
  ASSERT_TRUE(server.Start());
  repl::ReplicaClientOptions c;
  c.host = "127.0.0.1";
  c.port = 1;
  repl::ReplicaClient client(c);  // never started: its entries still render
  client.RegisterMetrics(&service.metrics());

  // One live peer: the hub streams into a socketpair nobody acks on.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);
  hub.Adopt(fds[0], durability.wal().LastAssignedLsn() + 1, "");

  // Every command kind runs once, so every per-command histogram is present.
  std::string load;
  for (int i = 0; i < 400; ++i) {
    load += "set k" + std::to_string(i) + " 0 0 1\r\nv\r\n";
  }
  const std::string big(300, 'b');
  load += "set tiered 0 0 300\r\n" + big + "\r\nget k1 tiered\r\ngets k2\r\n";
  load += "cas k3 0 0 1 1\r\nw\r\ndelete k4\r\ntouch k5 0\r\nbgsave\r\n";
  load += "replicate 1\r\nreplicaof none\r\n";
  Drive(&service, load);
  ASSERT_TRUE(durability.WaitForSnapshot());

  const std::string plain_text = Drive(&service, "stats\r\n");
  const std::string detail_text = Drive(&service, "stats detail\r\n");
  const std::string page = service.metrics().RenderPrometheus();
  const auto plain = ParseStats(plain_text);
  const auto detail = ParseStats(detail_text);
  const auto samples = ParseSamples(page);
  EXPECT_EQ(Count(detail_text, "STAT "), detail.size()) << "a `stats` name shows twice";
  ASSERT_GT(service.StoreStats().migrations_started, 0) << "the load must migrate online";

  // Every entry, both surfaces, the level rule and the unified suffix sets.
  const std::vector<obs::MetricSpec> specs = service.metrics().Specs();
  EXPECT_GT(specs.size(), 100u);  // the whole stack registered
  for (const obs::MetricSpec& spec : specs) {
    for (const std::string& name : StatNames(spec)) {
      ASSERT_EQ(detail.count(name), 1u) << name;
      EXPECT_EQ(plain.count(name), spec.level == obs::StatsLevel::kPlain ? 1u : 0u) << name;
      if (spec.kind != obs::MetricKind::kInfo) {
        EXPECT_TRUE(IsNumber(detail.at(name))) << name << " " << detail.at(name);
      }
    }
    for (const std::string& series : PromSeries(spec)) {
      EXPECT_TRUE(HasSample(samples, series)) << series;
    }
    EXPECT_EQ(Count(page, "# TYPE " + spec.prom + " "), 1u) << spec.prom;
  }

  // Nothing that showed before is renamed, lost or moved between levels.
  for (const char* name : kPlainStats) {
    EXPECT_EQ(plain.count(name), 1u) << name;
  }
  for (const char* name : kServerStats) {
    EXPECT_EQ(plain.count(name), 1u) << name;
  }
  for (const char* name : kDetailOnlyStats) {
    EXPECT_EQ(detail.count(name), 1u) << name;
    EXPECT_EQ(plain.count(name), 0u) << name;
  }
  for (const char* name : kPrometheus) {
    EXPECT_TRUE(HasSeries(page, name)) << name;
  }
  EXPECT_EQ(plain_text.substr(plain_text.size() - 5), "END\r\n");
  const std::string slowlog = Drive(&service, "stats slowlog\r\n");
  EXPECT_TRUE(HasStat(slowlog, "slowlog_threshold_ns")) << slowlog;
  EXPECT_TRUE(HasStat(slowlog, "slowlog_total")) << slowlog;
  EXPECT_TRUE(HasStat(slowlog, "slowlog_entry")) << slowlog;
  EXPECT_FALSE(HasStat(slowlog, "curr_items")) << slowlog;

  server.Stop();
  hub.Stop();
  durability.Stop();
  ::close(fds[1]);
}

}  // namespace
}  // namespace cuckoo
