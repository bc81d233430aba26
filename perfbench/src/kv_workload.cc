// The kv workloads: the server built in process from the classes
// cuckoo_kv_server wires together (TieredStore, KvService,
// DurabilityManager, SocketServer with 2 event threads), loaded over TCP
// loopback by 2 generator threads driving 4 connections.
//
// Untraced run: setup (repeated, median; the preload gives the fill rate),
// a closed-loop phase for the peak rate, and an open-loop phase at the
// pinned offered rate for latencies.
//
// Traced run: the same setup once, then the passes that peel off one layer
// each (full stack with a tracing observer; Connection::Drive replay without
// the socket; bare StoreMap; RequestParser; TieredStore::ReadValue).
#include <malloc.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/src/kv_client.h"
#include "perfbench/src/parallel.h"
#include "perfbench/src/report.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/table_metrics.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/values.h"
#include "src/common/timing.h"
#include "src/kvserver/kv_service.h"
#include "src/kvserver/protocol.h"
#include "src/kvserver/socket_server.h"
#include "src/persist/durability.h"
#include "src/store/tiered_store.h"

namespace perfbench {
namespace {

using cuckoo::KvService;
using cuckoo::NowNanos;
using cuckoo::SocketServer;
namespace persist = cuckoo::persist;
namespace store = cuckoo::store;

// Shape of every kv run (the same on every workload).
constexpr int kEventThreads = 2;   // server event loops
constexpr int kConns = 4;          // TCP-loopback connections
constexpr int kGenThreads = 2;     // generator threads driving them
constexpr int kWindow = 16;        // closed loop: requests outstanding per connection
constexpr int kPreloadWindow = 64;
constexpr int kSetupRepeats = 3;
constexpr int kTableThreads = 4;   // bare-map passes
constexpr std::size_t kTableMixedOps = 1000000;
constexpr std::size_t kRecordPerConn = 50000;  // request bytes kept for passes 2 and 4
// The open loop is invalid when the generator's p99 lateness exceeds this
// or it sent fewer than this share of the requests that fell due.
constexpr double kMaxLateP99Us = 2000.0;
constexpr double kMinAchievedRatio = 0.97;
// The tier of kv_tiered_get: a 16 MiB hot cache, values of 2 KiB and up in
// the value log, GC at a dead ratio of 0.5.
constexpr std::size_t kVlogCacheBytes = std::size_t{16} << 20;
constexpr std::size_t kVlogThresholdBytes = 2048;
constexpr double kVlogGcTrigger = 0.5;

// What differs between the kv workloads. The offered rate of the open loop
// is pinned in perfbench/workloads.json and passed as --offered-rate.
struct KvParams {
  const char* name = "";
  KvStream stream;
  persist::FsyncPolicy fsync = persist::FsyncPolicy::kEverySec;
  // The preload's policy. When it differs from `fsync`, setup preloads,
  // shuts the server down cleanly and restarts it on the same directory
  // under `fsync` (recovery replays the preload).
  persist::FsyncPolicy preload_fsync = persist::FsyncPolicy::kEverySec;
  std::uint64_t snapshot_trigger_bytes = 0;
  bool tiered = false;
  double offered_rate = 0.0;
};

constexpr auto kEverySec = persist::FsyncPolicy::kEverySec;
constexpr auto kAlways = persist::FsyncPolicy::kAlways;

constexpr KvParams kKvWorkloads[] = {
    {.name = "kv_mixed",
     .stream = {.keys = 500000, .value_bytes = 100, .get_fraction = 0.95, .zipf_theta = 0.99},
     .fsync = kEverySec,
     .preload_fsync = kEverySec},
    {.name = "kv_durable_set",
     .stream = {.keys = 100000, .value_bytes = 100, .get_fraction = 0.2, .zipf_theta = 0.0},
     .fsync = kAlways,
     .preload_fsync = kEverySec,
     .snapshot_trigger_bytes = 2000000},
    {.name = "kv_tiered_get",
     .stream = {.keys = 65536, .value_bytes = 4096, .get_fraction = 0.95, .zipf_theta = 0.99},
     .fsync = kEverySec,
     .preload_fsync = kEverySec,
     .tiered = true},
};

// Values carry a self-checking header; tiered values must reach the value log.
constexpr bool ValidWorkloads() {
  for (const KvParams& w : kKvWorkloads) {
    if (w.stream.keys == 0 || w.stream.keys > UINT32_MAX ||
        w.stream.value_bytes < kMinValueBytes ||
        (w.tiered && w.stream.value_bytes < kVlogThresholdBytes)) {
      return false;
    }
  }
  return true;
}
static_assert(ValidWorkloads());

// The server, wired in the order cuckoo_kv_server uses (no replication).
class BenchServer {
 public:
  BenchServer() = default;
  ~BenchServer() { Stop(); }
  BenchServer(const BenchServer&) = delete;
  BenchServer& operator=(const BenchServer&) = delete;

  bool Start(const KvParams& p, persist::FsyncPolicy fsync, const std::string& dir,
             std::string* error) {
    if (p.tiered) {
      store::TieredStoreOptions t;
      t.dir = dir + "/vlog";
      t.threshold_bytes = kVlogThresholdBytes;
      t.gc_trigger = kVlogGcTrigger;
      t.cache_capacity_bytes = kVlogCacheBytes;
      tier_ = std::make_unique<store::TieredStore>();
      if (!tier_->Open(t, error)) {
        return false;
      }
    }
    KvService::Options o;
    o.initial_bucket_count_log2 = 12;  // cuckoo_kv_server's default
    o.tier = tier_.get();
    service_ = std::make_unique<KvService>(o);
    durability_ = std::make_unique<persist::DurabilityManager>(service_.get());
    persist::DurabilityOptions d;
    d.dir = dir + "/wal";
    d.fsync_policy = fsync;
    d.snapshot_trigger_bytes = p.snapshot_trigger_bytes;
    d.tier = tier_.get();
    if (!durability_->Start(d, error)) {
      return false;
    }
    if (tier_ != nullptr) {
      KvService* service = service_.get();
      persist::DurabilityManager* durability = durability_.get();
      tier_->SetGcHooks(
          [service](const std::string& key, const store::ValueLocation& old_loc,
                    std::string_view data) { return service->RelocateTiered(key, old_loc, data); },
          [durability] { return durability->PersistBarrier(); });
      tier_->StartGc();
    }
    SocketServer::Options s;
    s.enable_tcp = true;
    s.tcp_port = 0;
    s.event_threads = kEventThreads;
    server_ = std::make_unique<SocketServer>(service_.get(), s);
    if (!server_->Start()) {
      *error = "cannot bind the TCP listener";
      return false;
    }
    return true;
  }

  void Stop() {
    if (server_ != nullptr) {
      server_->Stop();
    }
    if (tier_ != nullptr) {
      tier_->StopGc();
    }
    if (durability_ != nullptr) {
      durability_->Stop();
    }
    server_.reset();
    durability_.reset();
    service_.reset();
    tier_.reset();
  }

  KvService& service() { return *service_; }
  persist::DurabilityManager& durability() { return *durability_; }
  store::TieredStore* tier() { return tier_.get(); }
  SocketServer& net() { return *server_; }

 private:
  std::unique_ptr<store::TieredStore> tier_;
  std::unique_ptr<KvService> service_;
  std::unique_ptr<persist::DurabilityManager> durability_;
  std::unique_ptr<SocketServer> server_;
};

// Public Stats() of every layer, for deltas over a timed window.
struct Counters {
  SocketServer::StatsSnapshot net;
  persist::WalStats wal;
  store::TieredStoreStats tier;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t snapshots = 0;
};

Counters ReadCounters(BenchServer& s) {
  Counters c;
  c.net = s.net().Stats();
  c.wal = s.durability().wal().Stats();
  if (s.tier() != nullptr) {
    c.tier = s.tier()->Stats();
  }
  c.hits = s.service().GetHits();
  c.misses = s.service().GetMisses();
  c.snapshots = s.durability().SnapshotsCompleted();
  return c;
}

using ConnList = std::vector<std::unique_ptr<Conn>>;

// Run one phase on every generator thread; thread t drives conns t, t+T, ...
PhaseTally RunPhase(PhaseSpec spec, ConnList& conns) {
  spec.total_conns = kConns;
  std::vector<PhaseTally> tallies(static_cast<std::size_t>(kGenThreads));
  std::vector<std::thread> threads;
  for (int t = 0; t < kGenThreads; ++t) {
    threads.emplace_back([&, t] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on the due time, not 50 us later
      std::vector<Conn*> mine;
      for (std::size_t i = static_cast<std::size_t>(t); i < conns.size();
           i += static_cast<std::size_t>(kGenThreads)) {
        mine.push_back(conns[i].get());
      }
      tallies[static_cast<std::size_t>(t)] = RunConnPhase(spec, mine);
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  PhaseTally all;
  for (const PhaseTally& t : tallies) {
    all.Merge(t);
  }
  return all;
}

// Closed loops report the median of 0.5 s sub-window rates; open loops the
// median of 1 s sub-window percentiles.
PhaseSpec TimedSpec(PhaseMode mode, double warmup_s, double measure_s) {
  PhaseSpec spec;
  spec.mode = mode;
  spec.subwindow_ns = mode == PhaseMode::kClosed ? 500'000'000 : 1'000'000'000;
  spec.window = kWindow;
  spec.start_ns = NowNanos() + 2'000'000;
  spec.measure_ns = spec.start_ns + static_cast<std::uint64_t>(warmup_s * 1e9);
  spec.end_ns = spec.measure_ns + static_cast<std::uint64_t>(measure_s * 1e9);
  return spec;
}

void Account(const PhaseTally& t, RunResult* r) {
  r->attempted += t.attempted;
  r->failed += t.failed;
  r->mismatches += t.mismatches;
}

struct SetupTimes {
  double setup_s = -1.0;    // < 0: setup failed
  double preload_s = 0.0;   // the preload phase alone
};

// Start a server on a fresh directory, connect, and preload every key over
// the same connections.
SetupTimes SetupOnce(const KvParams& p, const std::string& dir, const KeySpace& keys,
                     IssuedSeqs* issued, BenchServer* server, ConnList* conns, RunResult* r) {
  SetupTimes times;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::uint64_t t0 = NowNanos();
  auto start = [&](persist::FsyncPolicy fsync) {
    std::string error;
    conns->clear();
    server->Stop();
    if (!server->Start(p, fsync, dir, &error)) {
      r->Invalid("server start: " + error);
      return false;
    }
    for (int i = 0; i < kConns; ++i) {
      conns->push_back(std::make_unique<Conn>(i, &keys, issued));
      if (!conns->back()->Connect(server->net().tcp_port())) {
        r->Invalid("connect failed");
        return false;
      }
    }
    return true;
  };
  if (!start(p.preload_fsync)) {
    return times;
  }
  PhaseSpec spec;
  spec.mode = PhaseMode::kPreload;
  spec.start_ns = NowNanos();
  spec.measure_ns = spec.start_ns;
  spec.end_ns = spec.start_ns;
  spec.window = kPreloadWindow;
  const PhaseTally t = RunPhase(spec, *conns);
  times.preload_s = static_cast<double>(NowNanos() - spec.start_ns) / 1e9;
  Account(t, r);
  if (p.preload_fsync != p.fsync && !start(p.fsync)) {
    return times;
  }
  // The preload is on disk before anything is timed: no write-back of it
  // lands in the measured phases.
  if (!server->durability().PersistBarrier()) {
    r->Invalid("cannot flush the preload");
    return times;
  }
  times.setup_s = static_cast<double>(NowNanos() - t0) / 1e9;
  return times;
}

// ---------------------------------------------------------------------------
// The table's share: the same keys and op mix on a bare KvService::StoreMap.

struct BareTable {
  KvService::StoreMap::Options options;
  std::vector<std::string> keys;               // by key id
  std::vector<KvService::StoredValue> values;  // by key id
  std::vector<Op> ops;                         // the workload's op mix
};

BareTable MakeBareTable(const KvParams& p, const KeySpace& space) {
  BareTable b;
  // Presized to about half load: the fill measures inserts; the server's
  // growth from its initial size is part of setup_s.
  std::size_t log2 = 1;
  while ((std::size_t{1} << log2) * KvService::StoreMap::kSlotsPerBucket < 2 * p.stream.keys) {
    ++log2;
  }
  b.options.initial_bucket_count_log2 = log2;
  b.keys.reserve(p.stream.keys);
  b.values.resize(p.stream.keys);
  for (std::uint64_t id = 0; id < p.stream.keys; ++id) {
    b.keys.push_back(KeyFor(id, p.stream.seed));
    KvService::StoredValue& v = b.values[id];
    v.cas_id = id + 1;
    if (p.tiered) {
      // The server's table holds a 16-byte location, not the bytes.
      v.loc.segment = 1;
      v.loc.length = static_cast<std::uint32_t>(p.stream.value_bytes + 32);
      v.loc.offset = id * (p.stream.value_bytes + 32);
    } else {
      AppendValue(id, 0, 0, p.stream.value_bytes, &v.data);
    }
  }
  // The workload's op mix, drawn the way the generator's connections draw it.
  cuckoo::Xorshift128Plus rng(p.stream.seed * 977 + 5);
  std::unique_ptr<cuckoo::ZipfGenerator> zipf;
  if (p.stream.zipf_theta > 0.0) {
    zipf = std::make_unique<cuckoo::ZipfGenerator>(p.stream.keys, p.stream.zipf_theta,
                                                   p.stream.seed * 131 + 5);
  }
  b.ops.reserve(kTableMixedOps);
  for (std::size_t i = 0; i < kTableMixedOps; ++i) {
    Op op;
    op.get = rng.NextDouble() < p.stream.get_fraction;
    op.key_id = zipf != nullptr ? space.IdForRank(zipf->Next()) : rng.Next() % p.stream.keys;
    b.ops.push_back(op);
  }
  return b;
}

struct BareRun {
  double insert_mops = 0.0;
  double mixed_mops = 0.0;
  cuckoo::MapStatsSnapshot fill_stats;   // fresh map: the fill's counters
  cuckoo::MapStatsSnapshot mixed_stats;  // after the mixed phase
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
};

// Fill a fresh map with every key on `threads` threads, then run the op
// mix. With tracing on, every map call is a span.
BareRun RunBareTable(const BareTable& b, int threads) {
  BareRun out;
  KvService::StoreMap map(b.options);
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> mismatches{0};
  Chunks fill_chunks(b.keys.size());
  const std::uint64_t fill_ns = RunParallel(threads, [&](int) {
    std::size_t begin = 0;
    std::size_t end = 0;
    while (fill_chunks.Next(&begin, &end)) {
      for (std::size_t id = begin; id < end; ++id) {
        const cuckoo::InsertResult r = Traced(SpanKind::kTableInsert, id + 1, [&] {
          return map.Upsert(std::string(b.keys[id]), KvService::StoredValue(b.values[id]));
        });
        if (r == cuckoo::InsertResult::kTableFull) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  out.fill_stats = map.Stats();
  out.insert_mops = static_cast<double>(b.keys.size()) * 1e3 / static_cast<double>(fill_ns);
  out.ops = b.keys.size();
  Chunks op_chunks(b.ops.size());
  const std::uint64_t mixed_ns = RunParallel(threads, [&](int) {
    std::string scratch;
    std::uint64_t bad = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    while (op_chunks.Next(&begin, &end)) {
      for (std::size_t i = begin; i < end; ++i) {
        const Op& op = b.ops[i];
        const std::string& key = b.keys[op.key_id];
        const KvService::StoredValue& expect = b.values[op.key_id];
        if (op.get) {
          const bool hit = Traced(SpanKind::kTableLookup, op.key_id + 1, [&] {
            return map.WithValue(key, [&](const KvService::StoredValue& v) {
              scratch = v.data;
              if (v.loc != expect.loc) {
                scratch.clear();
              }
            });
          });
          bad += (!hit || scratch != expect.data) ? 1 : 0;
        } else {
          Traced(SpanKind::kTableUpsert, op.key_id + 1, [&] {
            return map.Upsert(std::string(key), KvService::StoredValue(expect));
          });
        }
      }
    }
    mismatches.fetch_add(bad, std::memory_order_relaxed);
  });
  out.mixed_stats = map.Stats();
  const std::uint64_t mixed_ops = b.ops.size();
  out.mixed_mops = static_cast<double>(mixed_ops) * 1e3 / static_cast<double>(mixed_ns);
  out.ops += mixed_ops;
  out.failed = failed.load();
  out.mismatches = mismatches.load();
  return out;
}

double UsOf(double ns) { return ns / 1e3; }

// Adds <get|set>_<label>_us: the median over the open loop's 1 s
// sub-windows of each sub-window's q-percentile. Also prints each type's
// per-sub-window p99s and whole-window figures.
void AddLatencies(const PhaseTally& open, double q, const char* label, RunResult* r) {
  struct Kind {
    const char* name;
    const std::vector<std::uint32_t>* ns;
    const std::vector<std::uint16_t>* win;
  };
  for (const Kind& k : {Kind{"get", &open.get_ns, &open.get_win},
                        Kind{"set", &open.set_ns, &open.set_win}}) {
    const std::vector<double> p99s = PercentileByWindow(*k.ns, *k.win, 0.99);
    if (p99s.size() < 3) {
      r->Invalid(std::string("too few ") + k.name + " samples for a p99 in 3 sub-windows");
    }
    r->Add(std::string(k.name) + "_" + label + "_us", UsOf(MedianOfWindows(*k.ns, *k.win, q)),
           "us");
    std::string line = std::string(k.name) + " p99 by 1 s sub-window (us):";
    for (double v : p99s) {
      line += ' ';
      line += std::to_string(static_cast<long>(UsOf(v)));
    }
    r->notes.push_back(line);
    const std::size_t n = k.ns->size();
    const double tail = HighestSupportedPercentile(n);
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s latency over the whole window: n=%zu, p50 %.1f us, p99 %.1f us, "
                  "highest supported tail p%g = %.1f us",
                  k.name, n, UsOf(Percentile(*k.ns, 0.5)), UsOf(Percentile(*k.ns, 0.99)),
                  tail * 100, UsOf(Percentile(*k.ns, tail)));
    r->notes.push_back(buf);
  }
}

void CheckGenerator(const KvParams& p, const PhaseTally& open, RunResult* r) {
  char line[200];
  std::snprintf(line, sizeof(line),
                "open loop: offered %.0f/s, achieved/offered %.4f, generator late p99 %.1f us",
                p.offered_rate, open.lateness.AchievedRatio(), open.lateness.LateP99Us());
  r->notes.push_back(line);
  if (!open.lateness.KeptUp(kMaxLateP99Us, kMinAchievedRatio)) {
    r->Invalid("the generator fell behind its schedule (" + std::string(line) + ")");
  }
}

// Pass 2: the recorded request bytes through KvService::Connection::Drive,
// with no socket, on the generator threads. Returns the spans.
std::vector<Span> ReplayThroughService(KvService& service,
                                       const std::vector<std::vector<RecordedRequest>>& recorded,
                                       const KeySpace& keys, const IssuedSeqs& issued,
                                       double budget_s, RunResult* r) {
  const std::uint64_t deadline = NowNanos() + static_cast<std::uint64_t>(budget_s * 1e9);
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kGenThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::size_t> mine;
      for (std::size_t c = static_cast<std::size_t>(t); c < recorded.size();
           c += static_cast<std::size_t>(kGenThreads)) {
        mine.push_back(c);
      }
      std::vector<KvService::Connection> conns;
      for (std::size_t i = 0; i < mine.size(); ++i) {
        conns.push_back(service.Connect());
      }
      std::string out;
      for (std::size_t i = 0; NowNanos() < deadline; ++i) {
        bool any = false;
        for (std::size_t m = 0; m < mine.size(); ++m) {
          const std::vector<RecordedRequest>& reqs = recorded[mine[m]];
          if (i >= reqs.size()) {
            continue;
          }
          any = true;
          const RecordedRequest& req = reqs[i];
          const std::uint64_t id = (std::uint64_t{1} << 62) | (mine[m] + 1) << 40 | i;
          CurrentRequest() = id;
          out.clear();
          Traced(req.get ? SpanKind::kServiceGet : SpanKind::kServiceSet, id,
                 [&] { conns[m].Drive(req.bytes, &out); });
          CurrentRequest() = 0;
          std::size_t consumed = 0;
          if (ParseResponse(out, req.get, req.key_id, keys, issued, &consumed) != Outcome::kOk ||
              consumed != out.size()) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (!any) {
          break;
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  r->mismatches += bad.load();
  return SpanStore::Instance().Collect();
}

// Pass 4: RequestParser::Feed / Next over the recorded bytes, in 16 KiB
// reads. Returns ns per request (median of 3 sweeps).
double ParseRecorded(const std::vector<std::vector<RecordedRequest>>& recorded, RunResult* r) {
  std::vector<std::string> streams;
  std::size_t requests = 0;
  for (const auto& conn : recorded) {
    std::string s;
    for (const RecordedRequest& req : conn) {
      s += req.bytes;
    }
    requests += conn.size();
    streams.push_back(std::move(s));
  }
  if (requests == 0) {
    return 0.0;
  }
  std::vector<double> per_req;
  for (int sweep = 0; sweep < 3; ++sweep) {
    std::size_t parsed = 0;
    const std::uint64_t t0 = NowNanos();
    for (const std::string& s : streams) {
      cuckoo::RequestParser parser;
      cuckoo::Request req;
      for (std::size_t off = 0; off < s.size(); off += 16384) {
        parser.Feed(std::string_view(s).substr(off, 16384));
        while (parser.Next(&req) == cuckoo::ParseStatus::kOk) {
          ++parsed;
        }
      }
    }
    per_req.push_back(static_cast<double>(NowNanos() - t0) / static_cast<double>(requests));
    if (parsed != requests) {
      ++r->mismatches;
    }
  }
  return Median(per_req);
}

// Pass 5: TieredStore::ReadValue over locations collected through
// KvService::TrySnapshotEntries, timing the reads that miss the hot tier
// and return a value.
// GC keeps running, so a collected location can go stale: a read that
// fails is checked against the key's location at the end of the pass. A
// location that moved is stale (counted apart, not an error); a read that
// failed at a location still current is a failed operation. Only bytes
// that a read returned and that are wrong count as wrong output.
std::vector<double> ReadTieredValues(const KvParams& p, KvService& service,
                                     store::TieredStore& tier, double budget_s, RunResult* r) {
  struct Entry {
    std::string key;
    store::ValueLocation loc;
    std::uint64_t cas = 0;
  };
  // The tiered entries whose key `keep` accepts.
  auto collect = [&service](auto&& keep) {
    std::vector<Entry> out;
    for (int attempt = 0; attempt < 4; ++attempt) {
      out.clear();
      if (service.TrySnapshotEntries([&](const std::string& key, const KvService::StoredValue& v) {
            if (v.Tiered() && keep(key)) {
              out.push_back(Entry{key, v.loc, v.cas_id});
            }
          })) {
        break;
      }
    }
    return out;
  };
  std::vector<Entry> entries = collect([](const std::string&) { return true; });
  cuckoo::Xorshift128Plus rng(p.stream.seed + 99);
  for (std::size_t i = entries.size(); i > 1; --i) {
    std::swap(entries[i - 1], entries[rng.Next() % i]);
  }
  std::vector<double> read_ns;
  std::unordered_map<std::string, Entry> unread;  // ReadValue returned false
  const std::uint64_t deadline = NowNanos() + static_cast<std::uint64_t>(budget_s * 1e9);
  std::string data;
  for (const Entry& e : entries) {
    if (NowNanos() >= deadline) {
      break;
    }
    if (tier.TryHot(e.key, e.cas, &data)) {
      continue;
    }
    ++r->attempted;
    const std::uint64_t t0 = NowNanos();
    const bool ok = tier.ReadValue(e.key, e.loc, e.cas, &data);
    const std::uint64_t t1 = NowNanos();
    SpanStore::Instance().Record(SpanKind::kStoreRead, 0, t0, t1);
    if (!ok) {
      unread.emplace(e.key, e);
      continue;
    }
    read_ns.push_back(static_cast<double>(t1 - t0));
    std::uint64_t id = 0;
    ValueStamp stamp;
    if (data.size() < 16 || !ParseHex(std::string_view(data).substr(0, 16), &id) ||
        KeyFor(id, p.stream.seed) != e.key || !CheckValue(id, p.stream.value_bytes, data, &stamp)) {
      ++r->mismatches;
    }
  }
  std::uint64_t failed_current = 0;
  if (!unread.empty()) {
    for (const Entry& now : collect([&](const std::string& key) { return unread.count(key); })) {
      const Entry& then = unread.at(now.key);
      failed_current += now.loc == then.loc && now.cas == then.cas ? 1 : 0;
    }
  }
  r->failed += failed_current;
  r->notes.push_back("store pass: " + std::to_string(read_ns.size() + unread.size()) +
                     " cold reads, " + std::to_string(unread.size() - failed_current) +
                     " of them at a location GC had moved, " + std::to_string(failed_current) +
                     " failed at a current location");
  return read_ns;
}

RunResult RunTraced(const KvParams& p, const RunOptions& run, const KeySpace& keys,
                    IssuedSeqs* issued, BenchServer& server, ConnList& conns, RunResult r) {
  const double s = run.seconds;
  SpanStore& spans = SpanStore::Instance();
  const std::string trace_path = run.work_dir + "/trace-" + run.workload + ".tsv";
  std::filesystem::remove(trace_path);

  // Untraced closed loop: the base of trace.overhead_ratio.
  const PhaseTally base = RunPhase(TimedSpec(PhaseMode::kClosed, 0.3, 0.2 * s), conns);
  Account(base, &r);

  // Pass 1: the full stack, with a tracing observer over the durability
  // manager and the request bytes recorded.
  TracingObserver observer(&server.durability());
  server.service().SetMutationObserver(&observer);
  spans.Collect();
  spans.SetEnabled(true);
  for (auto& c : conns) {
    c->StartRecording(kRecordPerConn);
  }
  const Counters before = ReadCounters(server);
  const PhaseTally closed = RunPhase(TimedSpec(PhaseMode::kClosed, 0.3, 0.2 * s), conns);
  const Counters after = ReadCounters(server);
  Account(closed, &r);
  std::vector<std::vector<RecordedRequest>> recorded;
  for (auto& c : conns) {
    recorded.push_back(c->TakeRecorded());
  }
  WriteSpans(trace_path, "full_stack_closed", spans.Collect(), 20000);

  PhaseSpec open_spec = TimedSpec(PhaseMode::kOpen, 0.3, 0.3 * s);
  open_spec.offered_rate = p.offered_rate;
  const PhaseTally open = RunPhase(open_spec, conns);
  Account(open, &r);
  CheckGenerator(p, open, &r);
  AddLatencies(open, 0.99, "p99", &r);
  const std::vector<Span> open_spans = spans.Collect();
  WriteSpans(trace_path, "full_stack_open", open_spans, 20000);

  std::string wrong_by_pass = "wrong outputs by pass: full stack " + std::to_string(r.mismatches);

  // Pass 4: the protocol parser alone.
  const double parse_ns = ParseRecorded(recorded, &r);

  // Pass 2: the service without the socket.
  std::uint64_t wrong_before = r.mismatches;
  const std::vector<Span> service_spans =
      ReplayThroughService(server.service(), recorded, keys, *issued, 0.1 * s, &r);
  WriteSpans(trace_path, "service", service_spans, 20000);
  wrong_by_pass += ", service " + std::to_string(r.mismatches - wrong_before);

  // Pass 5: the store's cold reads, with GC still running.
  std::vector<double> disk_read_ns;
  if (server.tier() != nullptr) {
    wrong_before = r.mismatches;
    disk_read_ns = ReadTieredValues(p, server.service(), *server.tier(), 0.1 * s, &r);
    WriteSpans(trace_path, "store", spans.Collect(), 20000);
    wrong_by_pass += ", store " + std::to_string(r.mismatches - wrong_before);
  }
  server.service().SetMutationObserver(&server.durability());
  spans.SetEnabled(false);
  conns.clear();
  server.Stop();

  // Pass 3: the bare table.
  const BareTable bare = MakeBareTable(p, keys);
  spans.SetEnabled(true);
  const BareRun table = RunBareTable(bare, kTableThreads);
  spans.SetEnabled(false);
  const std::vector<Span> table_spans = spans.Collect();
  WriteSpans(trace_path, "table", table_spans, 20000);
  r.attempted += table.ops;
  r.failed += table.failed;
  r.mismatches += table.mismatches;
  r.notes.push_back(wrong_by_pass + ", table " + std::to_string(table.mismatches));

  // ---- per-layer metrics ----
  // A GET's full-stack latency minus its pass through the service.
  r.Add("net.self_us_p50",
        UsOf(Percentile(open.get_ns, 0.5) -
             Percentile(Durations(service_spans, SpanKind::kServiceGet), 0.5)),
        "us");
  const double ops = static_cast<double>(closed.attempted);
  r.Add("net.bytes_per_op",
        Ratio(static_cast<double>(Delta(after.net.bytes_read, before.net.bytes_read) +
                                  Delta(after.net.bytes_written, before.net.bytes_written)),
              ops),
        "B/op");
  r.Add("net.backpressure_pauses",
        static_cast<double>(Delta(after.net.backpressure_pauses, before.net.backpressure_pauses)),
        "count");
  r.Add("protocol.parse_ns_per_req", parse_ns, "ns");

  // Service self time: the Drive span minus its observer children.
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const Span& sp : service_spans) {
    if (sp.kind == SpanKind::kPersistOnSet || sp.kind == SpanKind::kPersistOnDelete ||
        sp.kind == SpanKind::kPersistWaitDurable) {
      children[sp.request].push_back(Interval{sp.start, sp.end});
    }
  }
  std::vector<double> get_self;
  std::vector<double> set_self;
  for (const Span& sp : service_spans) {
    if (sp.kind != SpanKind::kServiceGet && sp.kind != SpanKind::kServiceSet) {
      continue;
    }
    auto it = children.find(sp.request);
    const std::uint64_t self = SelfTime(Interval{sp.start, sp.end},
                                        it == children.end() ? std::vector<Interval>{} : it->second);
    (sp.kind == SpanKind::kServiceGet ? get_self : set_self).push_back(static_cast<double>(self));
  }
  r.Add("service.get_self_ns_p50", Percentile(get_self, 0.5), "ns");
  r.Add("service.set_self_ns_p50", Percentile(set_self, 0.5), "ns");
  const double hits = static_cast<double>(Delta(after.hits, before.hits));
  r.Add("service.hit_ratio",
        Ratio(hits, hits + static_cast<double>(Delta(after.misses, before.misses))), "ratio");

  AddTableMetrics(Durations(table_spans, SpanKind::kTableLookup),
                  Durations(table_spans, SpanKind::kTableUpsert),
                  Durations(table_spans, SpanKind::kTableInsert), cuckoo::MapStatsSnapshot{},
                  table.fill_stats, table.fill_stats, table.mixed_stats, &r);
  r.Add("table.fill_mops", table.insert_mops, "Mops");
  r.Add("table.mixed_mops", table.mixed_mops, "Mops");

  const std::vector<double> wait_ns = Durations(open_spans, SpanKind::kPersistWaitDurable);
  r.Add("persist.append_ns_p50", Percentile(Durations(open_spans, SpanKind::kPersistOnSet), 0.5),
        "ns");
  r.Add("persist.wait_durable_us_p50", UsOf(Percentile(wait_ns, 0.5)), "us");
  r.Add("persist.wait_durable_us_p99", UsOf(Percentile(wait_ns, 0.99)), "us");
  const double records = static_cast<double>(
      Delta(after.wal.records_appended, before.wal.records_appended));
  r.Add("persist.acks_per_fsync",
        Ratio(records, static_cast<double>(Delta(after.wal.fsyncs, before.wal.fsyncs))), "ratio");
  const double wal_bytes =
      static_cast<double>(Delta(after.wal.bytes_appended, before.wal.bytes_appended));
  const double sets = static_cast<double>(closed.sets_sent);
  r.Add("persist.wal_bytes_per_set", Ratio(wal_bytes, sets), "B/set");
  r.Add("persist.snapshots", static_cast<double>(Delta(after.snapshots, before.snapshots)),
        "count");

  const double hot_hits = static_cast<double>(Delta(after.tier.hot_hits, before.tier.hot_hits));
  const double hot_misses =
      static_cast<double>(Delta(after.tier.hot_misses, before.tier.hot_misses));
  const double gets = static_cast<double>(closed.gets_sent);
  const double vlog_bytes =
      static_cast<double>(Delta(after.tier.log.append_bytes, before.tier.log.append_bytes));
  if (p.tiered) {
  r.Add("store.hot_hit_ratio", Ratio(hot_hits, hot_hits + hot_misses), "ratio");
  r.Add("store.disk_reads_per_get",
        Ratio(static_cast<double>(Delta(after.tier.disk_reads, before.tier.disk_reads)), gets),
        "ratio");
  r.Add("store.parked_per_get",
        Ratio(static_cast<double>(Delta(after.net.parked_reads, before.net.parked_reads)), gets),
        "ratio");
  r.Add("store.disk_read_us_p50", UsOf(Percentile(disk_read_ns, 0.5)), "us");
  r.Add("store.disk_read_us_p99", UsOf(Percentile(disk_read_ns, 0.99)), "us");
  r.Add("store.disk_read_errors",
        static_cast<double>(Delta(after.tier.disk_read_errors, before.tier.disk_read_errors)),
        "count");
  r.Add("store.vlog_bytes_per_set", Ratio(vlog_bytes, sets), "B/set");
  }

  r.Add("gen.late_us_p99", open.lateness.LateP99Us(), "us");
  r.Add("gen.achieved_rate_ratio", open.lateness.AchievedRatio(), "ratio");
  r.Add("trace.overhead_ratio", Ratio(closed.OpsPerSec(), base.OpsPerSec()), "ratio");
  r.Add("disk_bytes_per_user_byte",
        Ratio(wal_bytes + vlog_bytes,
              static_cast<double>(closed.sets_acked * (kKeyBytes + p.stream.value_bytes))),
        "ratio");
  char line[160];
  std::snprintf(line, sizeof(line), "trace: %zu spans dropped; spans written to %s",
                static_cast<std::size_t>(spans.dropped()), trace_path.c_str());
  r.notes.push_back(line);
  return r;
}

}  // namespace

RunResult RunKvWorkload(const RunOptions& run, double offered_rate) {
  RunResult r;
  const auto it = std::find_if(std::begin(kKvWorkloads), std::end(kKvWorkloads),
                               [&](const KvParams& w) { return run.workload == w.name; });
  if (it == std::end(kKvWorkloads) || offered_rate <= 0.0) {
    r.Invalid("unknown kv workload or no --offered-rate");
    return r;
  }
  KvParams p = *it;
  p.stream.seed = run.seed;
  p.offered_rate = offered_rate;
  const KeySpace keys(p.stream);
  IssuedSeqs issued;
  const std::string data_root = run.work_dir + "/kvdata";
  BenchServer server;
  ConnList conns;

  // Setup: build the server and preload every key; repeated, median
  // reported. The last repetition's server is the one measured.
  const int repeats = run.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  std::vector<double> fill_rate;
  for (int i = 0; i < repeats; ++i) {
    const SetupTimes t = SetupOnce(p, data_root + "/setup" + std::to_string(i), keys, &issued,
                                   &server, &conns, &r);
    if (t.setup_s < 0.0) {
      return r;
    }
    setup_s.push_back(t.setup_s);
    fill_rate.push_back(static_cast<double>(p.stream.keys) / t.preload_s);
    if (i > 0) {
      std::filesystem::remove_all(data_root + "/setup" + std::to_string(i - 1));
    }
    if (i + 1 < repeats) {
      // The next setup starts from an empty process heap, so peak_rss_mb
      // is one server's peak, not an accident of what malloc kept.
      conns.clear();
      server.Stop();
      malloc_trim(0);
    }
  }

  if (run.trace) {
    r = RunTraced(p, run, keys, &issued, server, conns, std::move(r));
  } else {
    r.Add("setup_s", Median(setup_s), "s");
    r.Add("fill_ops_per_s", Median(fill_rate), "ops/s");
    const PhaseTally closed =
        RunPhase(TimedSpec(PhaseMode::kClosed, 0.5, 0.4 * run.seconds), conns);
    Account(closed, &r);
    r.Add("peak_ops_per_s", closed.OpsPerSec(), "ops/s");

    PhaseSpec open_spec = TimedSpec(PhaseMode::kOpen, 0.3, 0.6 * run.seconds);
    open_spec.offered_rate = p.offered_rate;
    const PhaseTally open = RunPhase(open_spec, conns);
    Account(open, &r);
    AddLatencies(open, 0.5, "p50", &r);
    CheckGenerator(p, open, &r);
    r.Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  conns.clear();
  server.Stop();
  std::filesystem::remove_all(data_root);
  return r;
}

}  // namespace perfbench
