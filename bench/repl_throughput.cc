// repl_throughput: WAL-shipping replication benchmark for the KV server.
//
// Three experiments over a real primary+replica pair wired the same way
// server_main wires them (ReplicationHub as the durability bridge, TCP
// `replicate` upgrade, ReplicaClient applying frames through the local WAL):
//
//   1. ack sweep — the same SET workload through the primary's unix socket
//      at each ack level with one live replica attached:
//        none      — client acks don't wait for the local fsync or the
//                    replica; the upper bound.
//        async     — acks wait for local durability only; the replica tails
//                    the stream in the background (the deployment default).
//        semi-sync — every ack additionally waits for the replica's ACK of
//                    that LSN; the price of zero acked-write loss on
//                    primary failure. Reports sets/s + client-side set
//                    latency, and how long the replica took to fully
//                    converge after the run.
//
//   2. replica GET scaling — closed-loop GET threads against the replica's
//      own socket while it streams; read replicas exist to offload reads,
//      so this is the number that justifies them.
//
//   3. lag under load — a sustained async write burst with a sampler
//      recording the hub's replica lag (in LSNs) every few ms; reports the
//      lag distribution and verifies it drains to zero once the writer
//      stops.
//
// Emits BENCH_repl.json (path via --out). --smoke shrinks everything to a
// seconds-scale CI sanity run; the structural gates (replica converges at
// every ack level, semi-sync never timed out, replica GETs serve correct
// bytes, lag drains) are always on and exit non-zero on violation.
//
//   ./build/bench/repl_throughput [--ops=20000] [--keys=2000]
//       [--value_size=64] [--out=BENCH_repl.json] [--smoke]
#include <unistd.h>

#include <atomic>
#include <chrono>
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
#include "src/repl/replica_client.h"
#include "src/repl/replication.h"
#include "src/repl/replication_hub.h"

namespace {

std::string MakeTempDir() {
  std::string tmpl = "/tmp/cuckoo_repl_bench_XXXXXX";
  char* made = ::mkdtemp(tmpl.data());
  return made != nullptr ? std::string(made) : std::string();
}

void RemoveTree(const std::string& dir) {
  for (const std::string& name : cuckoo::ListFilesWithPrefix(dir, "")) {
    cuckoo::RemoveFile(dir + "/" + name);
  }
  ::rmdir(dir.c_str());
}

std::string Drive(cuckoo::KvService* service, const std::string& input) {
  auto conn = service->Connect();
  std::string out;
  conn.Drive(input, &out);
  return out;
}

// "STAT <name> <value>\r\n" lines of a `stats` reply; -1 if absent.
long long StatValue(const std::string& stats, const std::string& name) {
  const std::string needle = "STAT " + name + " ";
  const std::size_t pos = stats.find(needle);
  if (pos == std::string::npos) {
    return -1;
  }
  return std::atoll(stats.c_str() + pos + needle.size());
}

// A primary wired exactly like server_main: hub installed as the WAL's
// replication bridge before Start(), `replicate` upgrades handed to
// hub->Adopt, unix socket for load clients + ephemeral TCP for replicas.
struct PrimaryHarness {
  std::string dir;
  cuckoo::KvService service;
  cuckoo::persist::DurabilityManager durability{&service};
  std::unique_ptr<cuckoo::repl::ReplicationHub> hub;
  std::unique_ptr<cuckoo::SocketServer> server;

  bool Start(const std::string& sock_path, cuckoo::repl::AckLevel ack) {
    dir = MakeTempDir();
    if (dir.empty()) {
      return false;
    }
    cuckoo::repl::ReplicationHubOptions h;
    h.service = &service;
    h.durability = &durability;
    h.wal_dir = dir;
    h.ack = ack;
    h.semi_sync_timeout_ms = 5000;
    h.heartbeat_ms = 100;
    hub = std::make_unique<cuckoo::repl::ReplicationHub>(h);
    hub->RegisterMetrics(&service.metrics());
    durability.SetReplicationBridge(hub.get());
    cuckoo::persist::DurabilityOptions d;
    d.dir = dir;
    d.fsync_policy = cuckoo::persist::FsyncPolicy::kEverySec;
    std::string error;
    if (!durability.Start(d, &error)) {
      std::fprintf(stderr, "primary recovery failed: %s\n", error.c_str());
      return false;
    }
    service.SetReplicationUpgradeEnabled(true);
    cuckoo::SocketServer::Options opts;
    opts.unix_path = sock_path;
    opts.enable_tcp = true;
    opts.tcp_port = 0;
    opts.event_threads = 2;
    cuckoo::repl::ReplicationHub* hub_ptr = hub.get();
    opts.replication_handoff = [hub_ptr](int fd, std::uint64_t start_lsn,
                                         std::string leftover) {
      hub_ptr->Adopt(fd, start_lsn, std::move(leftover));
    };
    server = std::make_unique<cuckoo::SocketServer>(&service, opts);
    return server->Start();
  }

  ~PrimaryHarness() {
    if (server) {
      server->Stop();
    }
    durability.Stop();
    if (hub) {
      hub->Stop();
    }
    if (!dir.empty()) {
      RemoveTree(dir);
    }
  }
};

// A read replica: read-only service, its own WAL, a ReplicaClient following
// the primary's TCP port, and a unix socket serving GETs.
struct ReplicaHarness {
  std::string dir;
  cuckoo::KvService service;
  cuckoo::persist::DurabilityManager durability{&service};
  std::unique_ptr<cuckoo::repl::ReplicaClient> replica;
  std::unique_ptr<cuckoo::SocketServer> server;

  bool Start(const std::string& sock_path, std::uint16_t primary_port) {
    dir = MakeTempDir();
    if (dir.empty()) {
      return false;
    }
    service.SetReadOnly(true, "127.0.0.1:" + std::to_string(primary_port));
    cuckoo::persist::DurabilityOptions d;
    d.dir = dir;
    d.fsync_policy = cuckoo::persist::FsyncPolicy::kEverySec;
    std::string error;
    if (!durability.Start(d, &error)) {
      std::fprintf(stderr, "replica recovery failed: %s\n", error.c_str());
      return false;
    }
    cuckoo::repl::ReplicaClientOptions c;
    c.host = "127.0.0.1";
    c.port = primary_port;
    c.durability = &durability;
    c.wal_dir = dir;
    replica = std::make_unique<cuckoo::repl::ReplicaClient>(c);
    cuckoo::SocketServer::Options opts;
    opts.unix_path = sock_path;
    opts.enable_tcp = false;
    opts.event_threads = 2;
    server = std::make_unique<cuckoo::SocketServer>(&service, opts);
    if (!server->Start()) {
      return false;
    }
    replica->Start();
    return true;
  }

  ~ReplicaHarness() {
    if (replica) {
      replica->Stop();
    }
    if (server) {
      server->Stop();
    }
    durability.Stop();
    if (!dir.empty()) {
      RemoveTree(dir);
    }
  }
};

std::string SetCmd(const std::string& key, const std::string& value) {
  return "set " + key + " 0 0 " + std::to_string(value.size()) + "\r\n" + value + "\r\n";
}

// True once the replica applied `key` and the hub reports zero lag.
bool WaitConverged(PrimaryHarness* primary, ReplicaHarness* replica,
                   const std::string& key, const std::string& value,
                   double* converge_ms) {
  const std::string want = "VALUE " + key + " 0 " + std::to_string(value.size());
  cuckoo::Stopwatch watch;
  for (int spin = 0; spin < 3000; ++spin) {
    if (Drive(&replica->service, "get " + key + "\r\n").find(want) !=
            std::string::npos &&
        primary->hub->LagLsns() == 0) {
      if (converge_ms != nullptr) {
        *converge_ms = watch.ElapsedSeconds() * 1e3;
      }
      return true;
    }
    ::usleep(10 * 1000);
  }
  std::fprintf(stderr, "replica never converged on %s\n", key.c_str());
  return false;
}

struct AckResult {
  const char* name = "";
  double sets_per_sec = 0;
  double converge_ms = 0;
  cuckoo::obs::HistogramSnapshot set_latency_ns;
  long long semi_sync_timeouts = 0;
};

// `ops` SETs over `keys` keys through the primary's unix socket with one
// live replica attached; convergence is timed from the moment the writer
// finishes.
bool RunAckLevel(cuckoo::repl::AckLevel ack, const char* name, std::uint64_t ops,
                 std::uint64_t keys, const std::string& value, AckResult* out) {
  const std::string psock = "/tmp/cuckoo_repl_bench_p.sock";
  const std::string rsock = "/tmp/cuckoo_repl_bench_r.sock";
  PrimaryHarness primary;
  if (!primary.Start(psock, ack)) {
    return false;
  }
  ReplicaHarness replica;
  if (!replica.Start(rsock, primary.server->tcp_port())) {
    return false;
  }
  // Don't let semi-sync measure the connect handshake: wait for attachment.
  for (int spin = 0; spin < 1000 && primary.hub->ConnectedReplicas() == 0; ++spin) {
    ::usleep(5 * 1000);
  }
  if (primary.hub->ConnectedReplicas() != 1) {
    std::fprintf(stderr, "%s: replica never attached\n", name);
    return false;
  }

  cuckoo::SocketClient client(psock);
  if (!client.connected()) {
    return false;
  }
  cuckoo::obs::Histogram latency;
  cuckoo::Stopwatch watch;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::string key = "key" + std::to_string(i % keys);
    const auto t0 = std::chrono::steady_clock::now();
    if (client.RoundTrip(SetCmd(key, value), "\r\n") != "STORED\r\n") {
      std::fprintf(stderr, "%s: set refused at op %llu\n", name,
                   static_cast<unsigned long long>(i));
      return false;
    }
    latency.Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }
  const double seconds = watch.ElapsedSeconds();

  out->name = name;
  out->sets_per_sec = seconds > 0 ? static_cast<double>(ops) / seconds : 0;
  out->set_latency_ns = latency.Snapshot();
  if (client.RoundTrip(SetCmd("sentinel", value), "\r\n") != "STORED\r\n" ||
      !WaitConverged(&primary, &replica, "sentinel", value, &out->converge_ms)) {
    return false;
  }
  const std::string stats = Drive(&primary.service, "stats\r\n");
  out->semi_sync_timeouts = StatValue(stats, "repl_semi_sync_timeouts");
  return true;
}

struct GetScalePoint {
  int threads = 0;
  double gets_per_sec = 0;
};

}  // namespace

int main(int argc, char** argv) {
  cuckoo::Flags flags(argc, argv);
  const bool smoke = flags.GetBool("smoke");
  const std::uint64_t ops =
      static_cast<std::uint64_t>(flags.GetInt("ops", smoke ? 2000 : 20000));
  const std::uint64_t keys =
      static_cast<std::uint64_t>(flags.GetInt("keys", smoke ? 400 : 2000));
  const std::size_t value_size =
      static_cast<std::size_t>(flags.GetInt("value_size", 64));
  const std::string out_path = flags.GetString("out", "BENCH_repl.json");
  const std::string value(value_size, 'r');
  const std::string psock = "/tmp/cuckoo_repl_bench_p.sock";
  const std::string rsock = "/tmp/cuckoo_repl_bench_r.sock";

  // ---- 1. ack sweep: none / async / semi-sync with one live replica ------
  AckResult ack_results[3];
  const struct {
    cuckoo::repl::AckLevel level;
    const char* name;
  } ack_cases[] = {
      {cuckoo::repl::AckLevel::kNone, "none"},
      {cuckoo::repl::AckLevel::kAsync, "async"},
      {cuckoo::repl::AckLevel::kSemiSync, "semi-sync"},
  };
  for (int i = 0; i < 3; ++i) {
    if (!RunAckLevel(ack_cases[i].level, ack_cases[i].name, ops, keys, value,
                     &ack_results[i])) {
      return 1;
    }
  }

  // ---- 2. replica GET scaling + 3. lag under load (one shared pair) ------
  std::vector<GetScalePoint> get_scaling;
  cuckoo::obs::HistogramSnapshot lag_lsn;
  std::uint64_t lag_samples = 0, lag_peak = 0, final_lag = UINT64_MAX;
  bool get_values_ok = true;
  {
    PrimaryHarness primary;
    if (!primary.Start(psock, cuckoo::repl::AckLevel::kAsync)) {
      return 1;
    }
    ReplicaHarness replica;
    if (!replica.Start(rsock, primary.server->tcp_port())) {
      return 1;
    }
    {
      cuckoo::SocketClient loader(psock);
      if (!loader.connected()) {
        return 1;
      }
      for (std::uint64_t i = 0; i < keys; ++i) {
        if (loader.RoundTrip(SetCmd("key" + std::to_string(i), value), "\r\n") !=
            "STORED\r\n") {
          return 1;
        }
      }
    }
    if (!WaitConverged(&primary, &replica, "key" + std::to_string(keys - 1), value,
                       nullptr)) {
      return 1;
    }

    // GET scaling: closed-loop readers against the replica's socket.
    const std::string expect = " 0 " + std::to_string(value_size) + "\r\n";
    for (const int threads : {1, 2, 4}) {
      std::atomic<bool> ok{true};
      std::vector<std::thread> readers;
      const std::uint64_t per_thread = ops / static_cast<std::uint64_t>(threads) + 1;
      cuckoo::Stopwatch watch;
      for (int t = 0; t < threads; ++t) {
        readers.emplace_back([&, t] {
          cuckoo::SocketClient reader(rsock);
          if (!reader.connected()) {
            ok.store(false, std::memory_order_relaxed);
            return;
          }
          std::uint64_t cursor = 12345u + static_cast<std::uint64_t>(t);
          for (std::uint64_t i = 0; i < per_thread; ++i) {
            const std::string key = "key" + std::to_string(cursor % keys);
            cursor = cursor * 6364136223846793005ull + 1442695040888963407ull;
            const std::string r = reader.RoundTrip("get " + key + "\r\n", "END\r\n");
            if (r.find("VALUE " + key + expect) == std::string::npos) {
              ok.store(false, std::memory_order_relaxed);
              return;
            }
          }
        });
      }
      for (std::thread& t : readers) {
        t.join();
      }
      const double seconds = watch.ElapsedSeconds();
      if (!ok.load(std::memory_order_relaxed)) {
        get_values_ok = false;
      }
      GetScalePoint point;
      point.threads = threads;
      point.gets_per_sec = seconds > 0
                               ? static_cast<double>(per_thread) * threads / seconds
                               : 0;
      get_scaling.push_back(point);
    }

    // Lag under load: burst writes while sampling hub lag every ~2ms.
    std::atomic<bool> writing{true};
    cuckoo::obs::Histogram lag_hist;
    std::thread sampler([&] {
      while (writing.load(std::memory_order_acquire)) {
        const std::uint64_t lag = primary.hub->LagLsns();
        lag_hist.Record(lag);
        if (lag > lag_peak) {
          lag_peak = lag;
        }
        ++lag_samples;
        ::usleep(2 * 1000);
      }
    });
    {
      cuckoo::SocketClient writer(psock);
      if (!writer.connected()) {
        writing.store(false);
        sampler.join();
        return 1;
      }
      for (std::uint64_t i = 0; i < ops; ++i) {
        if (writer.RoundTrip(SetCmd("burst" + std::to_string(i % keys), value),
                             "\r\n") != "STORED\r\n") {
          writing.store(false);
          sampler.join();
          return 1;
        }
      }
      writing.store(false, std::memory_order_release);
      sampler.join();
      if (writer.RoundTrip(SetCmd("drain", value), "\r\n") != "STORED\r\n" ||
          !WaitConverged(&primary, &replica, "drain", value, nullptr)) {
        return 1;
      }
      final_lag = primary.hub->LagLsns();
    }
    lag_lsn = lag_hist.Snapshot();
  }

  // ---- report ------------------------------------------------------------
  std::printf("== repl_throughput ==\n");
  std::printf("ops=%llu keys=%llu value=%zuB\n", static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(keys), value_size);
  for (const AckResult& r : ack_results) {
    std::printf("  ack=%-9s %10.0f sets/s  p50/p99=%llu/%llu us  converge=%.0fms\n",
                r.name, r.sets_per_sec,
                static_cast<unsigned long long>(r.set_latency_ns.P50() / 1000),
                static_cast<unsigned long long>(r.set_latency_ns.P99() / 1000),
                r.converge_ms);
  }
  for (const GetScalePoint& p : get_scaling) {
    std::printf("  replica gets, %d thread(s): %10.0f gets/s\n", p.threads,
                p.gets_per_sec);
  }
  std::printf("  lag under async load: %llu samples, peak=%llu lsns, p99=%llu, "
              "final=%llu\n",
              static_cast<unsigned long long>(lag_samples),
              static_cast<unsigned long long>(lag_peak),
              static_cast<unsigned long long>(lag_lsn.P99()),
              static_cast<unsigned long long>(final_lag));

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"repl_throughput\",\n");
  std::fprintf(out,
               "  \"config\": {\"ops\": %llu, \"keys\": %llu, \"value_size\": %zu, "
               "\"smoke\": %s},\n",
               static_cast<unsigned long long>(ops),
               static_cast<unsigned long long>(keys), value_size,
               smoke ? "true" : "false");
  std::fprintf(out, "  \"ack_sweep\": [\n");
  for (int i = 0; i < 3; ++i) {
    const AckResult& r = ack_results[i];
    std::string hist;
    cuckoo::AppendJsonHistogram("set_latency_ns", r.set_latency_ns, &hist);
    std::fprintf(out,
                 "    {\"ack\": \"%s\", \"sets_per_sec\": %.1f, "
                 "\"converge_ms\": %.1f, \"semi_sync_timeouts\": %lld,\n     %s}%s\n",
                 r.name, r.sets_per_sec, r.converge_ms, r.semi_sync_timeouts,
                 hist.c_str(), i + 1 < 3 ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"replica_get_scaling\": [\n");
  for (std::size_t i = 0; i < get_scaling.size(); ++i) {
    std::fprintf(out, "    {\"threads\": %d, \"gets_per_sec\": %.1f}%s\n",
                 get_scaling[i].threads, get_scaling[i].gets_per_sec,
                 i + 1 < get_scaling.size() ? "," : "");
  }
  std::string lag_hist_json;
  cuckoo::AppendJsonHistogram("lag_lsn", lag_lsn, &lag_hist_json);
  std::fprintf(out,
               "  ],\n  \"lag\": {\"samples\": %llu, \"peak_lsn\": %llu, "
               "\"final_lag_lsn\": %llu, %s}\n}\n",
               static_cast<unsigned long long>(lag_samples),
               static_cast<unsigned long long>(lag_peak),
               static_cast<unsigned long long>(final_lag), lag_hist_json.c_str());
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  // Sanity gates (always-on; the loosest structural form of the acceptance
  // criteria so tiny CI hosts don't flake on absolute numbers).
  for (const AckResult& r : ack_results) {
    if (r.sets_per_sec <= 0) {
      std::fprintf(stderr, "FAIL: ack=%s measured zero throughput\n", r.name);
      return 1;
    }
    if (r.semi_sync_timeouts != 0) {
      std::fprintf(stderr, "FAIL: ack=%s saw %lld semi-sync timeouts\n", r.name,
                   r.semi_sync_timeouts);
      return 1;
    }
  }
  // Waiting for a replica ack cannot be faster than not waiting: semi-sync
  // p50 below async p50 would mean the gate isn't actually gating.
  if (ack_results[2].set_latency_ns.P50() < ack_results[1].set_latency_ns.P50() / 2) {
    std::fprintf(stderr, "FAIL: semi-sync p50 %llu ns implausibly beat async %llu ns\n",
                 static_cast<unsigned long long>(ack_results[2].set_latency_ns.P50()),
                 static_cast<unsigned long long>(ack_results[1].set_latency_ns.P50()));
    return 1;
  }
  if (!get_values_ok || get_scaling.empty() || get_scaling.back().gets_per_sec <= 0) {
    std::fprintf(stderr, "FAIL: replica GETs served wrong bytes or no throughput\n");
    return 1;
  }
  if (lag_samples == 0 || final_lag != 0) {
    std::fprintf(stderr, "FAIL: lag never sampled or never drained (final=%llu)\n",
                 static_cast<unsigned long long>(final_lag));
    return 1;
  }
  return 0;
}
