// persist_throughput: durability-subsystem benchmark for the KV server.
//
// Two experiments, both over a real unix socket with synchronous
// (request/response) writers so every set waits for its durability ack:
//
//   1. fsync policy sweep — 8 concurrent writers over 2 event threads
//      against fsync_policy = none / everysec / always. Reports sets/s plus
//      the WAL's fsync and group-commit counters; under `always` the
//      interesting number is acks_per_fsync: with 8 clients waiting on the
//      log, one fsync should cover many acks (group commit), not one. The
//      event loops never block on an ack, so the depth follows the clients,
//      not the 2 loops.
//
//   2. online snapshot impact — same writer fleet under everysec, measured
//      once undisturbed (baseline) and once while the snapshot worker is
//      kept continuously busy taking fuzzy snapshots. The walk holds at
//      most one lock stripe at a time, so the during/baseline throughput
//      ratio should stay well above 0.5.
//
// Emits BENCH_persist.json (path via --out). --smoke shrinks everything
// for a seconds-scale CI sanity run; in smoke mode the group-commit and
// snapshot-ratio expectations are enforced (non-zero exit on violation).
//
//   ./build/bench/persist_throughput [--clients=8] [--ops=5000]
//       [--value_size=100] [--keyspace=20000] [--smoke]
//       [--out=BENCH_persist.json]
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/benchkit/flags.h"
#include "src/common/file_util.h"
#include "src/common/timing.h"
#include "src/kvserver/kv_service.h"
#include "src/kvserver/socket_server.h"
#include "src/obs/histogram.h"
#include "src/persist/durability.h"

namespace {

using cuckoo::persist::FsyncPolicy;

struct SweepResult {
  std::string policy;
  std::uint64_t sets = 0;
  double seconds = 0;
  double sets_per_sec = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t group_commits = 0;
  std::uint64_t max_batch_records = 0;
  double acks_per_fsync = 0;
  cuckoo::obs::HistogramSnapshot durable_ns;      // WAL append -> durable
  cuckoo::obs::HistogramSnapshot batch_records;   // group-commit batch sizes
};

struct OnlineResult {
  double baseline_sets_per_sec = 0;
  double during_snapshot_sets_per_sec = 0;
  double ratio = 0;
  std::uint64_t snapshots_completed = 0;
  std::uint64_t snapshot_entries = 0;
};

// Fewer loops than clients on purpose: a loop waiting on an ack would cap
// group-commit depth at this number.
constexpr int kEventThreads = 2;

std::string MakeTempDir() {
  std::string tmpl = "/tmp/cuckoo_persist_bench_XXXXXX";
  char* made = ::mkdtemp(tmpl.data());
  return made != nullptr ? std::string(made) : std::string();
}

void RemoveTree(const std::string& dir) {
  for (const std::string& name : cuckoo::ListFilesWithPrefix(dir, "")) {
    cuckoo::RemoveFile(dir + "/" + name);
  }
  ::rmdir(dir.c_str());
}

// One server + durability stack, torn down (and its files removed) on exit.
struct Harness {
  std::string wal_dir;
  cuckoo::KvService service;
  cuckoo::persist::DurabilityManager durability{&service};
  cuckoo::SocketServer::Options server_options;
  std::unique_ptr<cuckoo::SocketServer> server;

  bool Start(FsyncPolicy policy, const std::string& sock_path) {
    wal_dir = MakeTempDir();
    if (wal_dir.empty()) {
      return false;
    }
    cuckoo::persist::DurabilityOptions options;
    options.dir = wal_dir;
    options.fsync_policy = policy;
    std::string error;
    if (!durability.Start(options, &error)) {
      std::fprintf(stderr, "durability start failed: %s\n", error.c_str());
      return false;
    }
    server_options.unix_path = sock_path;
    server_options.enable_tcp = false;
    server_options.event_threads = kEventThreads;
    server = std::make_unique<cuckoo::SocketServer>(&service, server_options);
    return server->Start();
  }

  ~Harness() {
    if (server) {
      server->Stop();
    }
    durability.Stop();
    if (!wal_dir.empty()) {
      RemoveTree(wal_dir);
    }
  }
};

// `clients` threads each issue `ops` synchronous sets; returns total seconds.
double RunWriters(const std::string& sock_path, int clients, std::uint64_t ops,
                  std::uint64_t keyspace, const std::string& value, bool* ok) {
  std::atomic<bool> failed{false};
  std::vector<std::thread> team;
  cuckoo::Stopwatch watch;
  for (int c = 0; c < clients; ++c) {
    team.emplace_back([&, c] {
      cuckoo::SocketClient client(sock_path);
      if (!client.connected()) {
        failed.store(true);
        return;
      }
      std::uint64_t cursor = static_cast<std::uint64_t>(c) * 7919;
      for (std::uint64_t i = 0; i < ops; ++i) {
        const std::string key = "key" + std::to_string(cursor++ % keyspace);
        const std::string response = client.RoundTrip(
            "set " + key + " 0 0 " + std::to_string(value.size()) + "\r\n" + value +
                "\r\n",
            "\r\n");
        if (response != "STORED\r\n") {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& t : team) {
    t.join();
  }
  *ok = !failed.load();
  return watch.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  cuckoo::Flags flags(argc, argv);
  const bool smoke = flags.GetBool("smoke");
  const int clients = static_cast<int>(flags.GetInt("clients", 8));
  const std::uint64_t ops =
      static_cast<std::uint64_t>(flags.GetInt("ops", smoke ? 400 : 5000));
  const std::uint64_t keyspace =
      static_cast<std::uint64_t>(flags.GetInt("keyspace", 20000));
  const std::size_t value_size = static_cast<std::size_t>(flags.GetInt("value_size", 100));
  const std::string out_path = flags.GetString("out", "BENCH_persist.json");
  const std::string value(value_size, 'v');

  // ---- 1. fsync policy sweep ---------------------------------------------
  const FsyncPolicy policies[] = {FsyncPolicy::kNone, FsyncPolicy::kEverySec,
                                  FsyncPolicy::kAlways};
  std::vector<SweepResult> sweep;
  for (FsyncPolicy policy : policies) {
    const std::string sock = "/tmp/cuckoo_persist_bench.sock";
    Harness harness;
    if (!harness.Start(policy, sock)) {
      std::fprintf(stderr, "cannot start harness\n");
      return 1;
    }
    bool ok = false;
    const double seconds = RunWriters(sock, clients, ops, keyspace, value, &ok);
    if (!ok) {
      std::fprintf(stderr, "writer failed in policy sweep\n");
      return 1;
    }
    const cuckoo::persist::WalStats w = harness.durability.wal().Stats();
    SweepResult r;
    r.policy = cuckoo::persist::FsyncPolicyName(policy);
    r.sets = static_cast<std::uint64_t>(clients) * ops;
    r.seconds = seconds;
    r.sets_per_sec = seconds > 0 ? static_cast<double>(r.sets) / seconds : 0;
    r.fsyncs = w.fsyncs;
    r.group_commits = w.group_commits;
    r.max_batch_records = w.max_batch_records;
    r.acks_per_fsync = w.fsyncs > 0 ? static_cast<double>(r.sets) / w.fsyncs : 0;
    r.durable_ns = harness.durability.AppendDurableSnapshot();
    r.batch_records = harness.durability.wal().BatchRecordsSnapshot();
    sweep.push_back(r);
  }

  // ---- 2. online snapshot impact (everysec) ------------------------------
  OnlineResult online;
  {
    const std::string sock = "/tmp/cuckoo_persist_bench.sock";
    Harness harness;
    if (!harness.Start(FsyncPolicy::kEverySec, sock)) {
      std::fprintf(stderr, "cannot start harness\n");
      return 1;
    }
    bool ok = false;
    // Warm the keyspace so snapshots have real work to do.
    RunWriters(sock, clients, keyspace / clients + 1, keyspace, value, &ok);
    if (!ok) {
      return 1;
    }
    const double baseline_s = RunWriters(sock, clients, ops, keyspace, value, &ok);
    if (!ok) {
      return 1;
    }
    online.baseline_sets_per_sec =
        static_cast<double>(clients) * ops / (baseline_s > 0 ? baseline_s : 1);

    // Keep the snapshot worker saturated while the same load repeats.
    std::atomic<bool> stop_snapshots{false};
    std::thread snapshotter([&] {
      while (!stop_snapshots.load(std::memory_order_relaxed)) {
        harness.durability.TriggerSnapshot();
        harness.durability.WaitForSnapshot();
      }
    });
    const double during_s = RunWriters(sock, clients, ops, keyspace, value, &ok);
    stop_snapshots.store(true);
    snapshotter.join();
    if (!ok) {
      return 1;
    }
    online.during_snapshot_sets_per_sec =
        static_cast<double>(clients) * ops / (during_s > 0 ? during_s : 1);
    online.ratio = online.baseline_sets_per_sec > 0
                       ? online.during_snapshot_sets_per_sec / online.baseline_sets_per_sec
                       : 0;
    online.snapshots_completed = harness.durability.SnapshotsCompleted();
    online.snapshot_entries = harness.service.ItemCount();
  }

  // ---- report ------------------------------------------------------------
  std::printf("== persist_throughput ==\n");
  std::printf("clients=%d ops/client=%llu value=%zuB keyspace=%llu\n", clients,
              static_cast<unsigned long long>(ops), value_size,
              static_cast<unsigned long long>(keyspace));
  for (const SweepResult& r : sweep) {
    std::printf("  fsync=%-9s %10.0f sets/s  fsyncs=%llu group_commits=%llu "
                "acks/fsync=%.1f max_batch=%llu\n",
                r.policy.c_str(), r.sets_per_sec,
                static_cast<unsigned long long>(r.fsyncs),
                static_cast<unsigned long long>(r.group_commits), r.acks_per_fsync,
                static_cast<unsigned long long>(r.max_batch_records));
    std::printf("            durable p50/p99/p999=%llu/%llu/%llu us  batch p50/max=%llu/%llu\n",
                static_cast<unsigned long long>(r.durable_ns.P50() / 1000),
                static_cast<unsigned long long>(r.durable_ns.P99() / 1000),
                static_cast<unsigned long long>(r.durable_ns.P999() / 1000),
                static_cast<unsigned long long>(r.batch_records.P50()),
                static_cast<unsigned long long>(r.batch_records.Max()));
  }
  std::printf("  online snapshot: baseline %.0f sets/s, during %.0f sets/s "
              "(ratio %.2f, %llu snapshots of %llu entries)\n",
              online.baseline_sets_per_sec, online.during_snapshot_sets_per_sec,
              online.ratio, static_cast<unsigned long long>(online.snapshots_completed),
              static_cast<unsigned long long>(online.snapshot_entries));

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"persist_throughput\",\n");
  std::fprintf(out,
               "  \"config\": {\"clients\": %d, \"ops_per_client\": %llu, "
               "\"value_size\": %zu, \"keyspace\": %llu, \"smoke\": %s},\n",
               clients, static_cast<unsigned long long>(ops), value_size,
               static_cast<unsigned long long>(keyspace), smoke ? "true" : "false");
  std::fprintf(out, "  \"fsync_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepResult& r = sweep[i];
    std::fprintf(out,
                 "    {\"policy\": \"%s\", \"sets\": %llu, \"seconds\": %.4f, "
                 "\"sets_per_sec\": %.1f, \"fsyncs\": %llu, \"group_commits\": %llu, "
                 "\"max_batch_records\": %llu, \"acks_per_fsync\": %.2f,\n",
                 r.policy.c_str(), static_cast<unsigned long long>(r.sets), r.seconds,
                 r.sets_per_sec, static_cast<unsigned long long>(r.fsyncs),
                 static_cast<unsigned long long>(r.group_commits),
                 static_cast<unsigned long long>(r.max_batch_records), r.acks_per_fsync);
    std::string latency = "     ";
    cuckoo::AppendJsonHistogram("append_durable_ns", r.durable_ns, &latency);
    latency += ",\n     ";
    cuckoo::AppendJsonHistogram("group_commit_records", r.batch_records, &latency);
    std::fprintf(out, "%s}%s\n", latency.c_str(), i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"online_snapshot\": {\"baseline_sets_per_sec\": %.1f, "
               "\"during_snapshot_sets_per_sec\": %.1f, \"ratio\": %.3f, "
               "\"snapshots_completed\": %llu, \"entries\": %llu}\n",
               online.baseline_sets_per_sec, online.during_snapshot_sets_per_sec,
               online.ratio, static_cast<unsigned long long>(online.snapshots_completed),
               static_cast<unsigned long long>(online.snapshot_entries));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  // Sanity gates (always-on; they encode the acceptance criteria).
  const SweepResult& always = sweep.back();
  // Above 2: two loops that blocked on their acks could never batch more.
  if (always.fsyncs == 0 || always.acks_per_fsync < 3.0) {
    std::fprintf(stderr, "FAIL: no group commit under fsync=always (%.2f acks/fsync)\n",
                 always.acks_per_fsync);
    return 1;
  }
  if (online.snapshots_completed == 0) {
    std::fprintf(stderr, "FAIL: no snapshot completed during the online phase\n");
    return 1;
  }
  if (online.ratio < 0.5) {
    std::fprintf(stderr, "FAIL: online snapshot ratio %.2f < 0.5\n", online.ratio);
    return 1;
  }
  return 0;
}
