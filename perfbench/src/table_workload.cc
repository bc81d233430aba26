// table_fill: the paper's table on its own, CuckooMap<uint64_t, uint64_t>
// with 8-way buckets, 2^23 slots, no auto-expand, 4 threads.
//
//   Phase 1 fills a fresh table from empty to 95 % with 100 % inserts.
//   Phase 2 fills another fresh table to 95 % at 10 % insert / 90 % lookup;
//   every lookup targets a key its thread already inserted.
//
// Phase 1 runs every round and phase 2 every third round until the run's
// seconds are spent; rates are medians. Every lookup is checked against the value its key must hold,
// and after each phase 1 every key is looked up once more.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "perfbench/src/parallel.h"
#include "perfbench/src/report.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/table_metrics.h"
#include "perfbench/src/trace.h"
#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/common/timing.h"
#include "src/cuckoo/cuckoo_map.h"

namespace perfbench {
namespace {

using cuckoo::NowNanos;
using Map = cuckoo::CuckooMap<std::uint64_t, std::uint64_t>;

constexpr int kSlotsLog2 = 23;
constexpr double kFill = 0.95;
constexpr int kThreads = 4;
constexpr double kInsertFraction = 0.1;     // phase 2
constexpr std::uint64_t kSampleEvery = 32;  // every 32nd call of a kind is timed
constexpr int kSetupRepeats = 3;
constexpr int kMixedReps = 2;  // at least this many phase 2 runs
constexpr int kFillReps = 5;   // at least this many phase 1 runs

std::uint64_t ValueOf(std::uint64_t key) { return cuckoo::Mix64(key ^ 0x5bd1e9955bd1e995ull); }

struct Inputs {
  std::vector<std::uint64_t> fill_keys;   // phase 1
  std::vector<std::uint64_t> mixed_keys;  // phase 2
};

std::unique_ptr<Map> NewMap() {
  Map::Options o;
  o.initial_bucket_count_log2 = kSlotsLog2 - 3;  // 8 slots a bucket
  o.auto_expand = false;
  return std::make_unique<Map>(o);
}

Inputs MakeInputs(std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(kFill * static_cast<double>(std::size_t{1} << kSlotsLog2));
  Inputs in;
  in.fill_keys.resize(n);
  in.mixed_keys.resize(n);
  // Mix64 is a bijection, so distinct ids give distinct keys.
  for (std::size_t i = 0; i < n; ++i) {
    in.fill_keys[i] = cuckoo::Mix64(i + seed * 0x9e3779b97f4a7c15ull);
    in.mixed_keys[i] = cuckoo::Mix64(i + (seed + 0x5151) * 0x9e3779b97f4a7c15ull);
  }
  return in;
}

struct PhaseOut {
  double mops = 0.0;
  std::uint64_t ns = 0;  // the timed part of the phase
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  cuckoo::MapStatsSnapshot before;
  cuckoo::MapStatsSnapshot after;
  std::vector<std::uint32_t> lookup_ns;  // timed calls (phase 2)
  std::vector<std::uint32_t> insert_ns;
};

// Phase 1 on `threads` threads. With tracing on, every kSampleEvery-th
// insert is a span.
PhaseOut FillPhase(int threads, const std::vector<std::uint64_t>& keys) {
  PhaseOut out;
  std::unique_ptr<Map> map = NewMap();
  out.before = map->Stats();
  std::atomic<std::uint64_t> failed{0};
  Chunks fill_chunks(keys.size());
  out.ns = RunParallel(threads, [&](int) {
    std::uint64_t bad = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    while (fill_chunks.Next(&begin, &end)) {
      for (std::size_t i = begin; i < end; ++i) {
        auto insert = [&] { return map->Insert(keys[i], ValueOf(keys[i])); };
        const cuckoo::InsertResult r =
            i % kSampleEvery == 0 ? Traced(SpanKind::kTableInsert, i + 1, insert) : insert();
        bad += r == cuckoo::InsertResult::kOk ? 0 : 1;
      }
    }
    failed.fetch_add(bad, std::memory_order_relaxed);
  });
  out.after = map->Stats();
  out.failed = failed.load();
  out.mops = static_cast<double>(keys.size()) * 1e3 / static_cast<double>(out.ns);
  // Check every key once more (untimed); a failed insert is not a mismatch.
  std::atomic<std::uint64_t> missing{0};
  Chunks check_chunks(keys.size());
  RunParallel(threads, [&](int) {
    std::uint64_t bad = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    while (check_chunks.Next(&begin, &end)) {
      for (std::size_t i = begin; i < end; ++i) {
        std::uint64_t v = 0;
        bad += (map->Find(keys[i], &v) && v == ValueOf(keys[i])) ? 0 : 1;
      }
    }
    missing.fetch_add(bad, std::memory_order_relaxed);
  });
  out.mismatches = missing.load() > out.failed ? missing.load() - out.failed : 0;
  out.ops = 2 * keys.size();
  return out;
}

// Phase 2: per inserted key, (1 - f) / f lookups of keys this thread has
// inserted; keys are handed out in chunks. Every kSampleEvery-th call of
// each kind is timed (and a span when tracing).
PhaseOut MixedPhase(const std::vector<std::uint64_t>& keys, std::uint64_t seed) {
  PhaseOut out;
  std::unique_ptr<Map> map = NewMap();
  out.before = map->Stats();
  const double lookups_per_insert = (1.0 - kInsertFraction) / kInsertFraction;
  struct Local {
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatches = 0;
    std::vector<std::uint32_t> lookup_ns;
    std::vector<std::uint32_t> insert_ns;
  };
  std::vector<Local> locals(kThreads);
  Chunks chunks(keys.size());
  out.ns = RunParallel(kThreads, [&](int t) {
    Local& l = locals[static_cast<std::size_t>(t)];
    cuckoo::Xorshift128Plus rng(seed * 7919 + static_cast<std::uint64_t>(t));
    std::vector<std::uint64_t> mine;
    mine.reserve(keys.size() / kThreads + 1);
    double debt = 0.0;
    std::uint64_t insert_calls = 0;
    std::uint64_t lookup_calls = 0;
    auto timed = [&](SpanKind kind, std::uint64_t request, auto&& fn,
                     std::vector<std::uint32_t>* samples) {
      std::uint64_t& calls = kind == SpanKind::kTableInsert ? insert_calls : lookup_calls;
      if (++calls % kSampleEvery != 0) {
        return fn();
      }
      const std::uint64_t t0 = NowNanos();
      auto result = fn();
      const std::uint64_t t1 = NowNanos();
      samples->push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(t1 - t0, UINT32_MAX)));
      if (SpanStore::Instance().enabled()) {
        SpanStore::Instance().Record(kind, request, t0, t1);
      }
      return result;
    };
    std::size_t begin = 0;
    std::size_t end = 0;
    while (chunks.Next(&begin, &end)) {
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint64_t key = keys[i];
        const cuckoo::InsertResult r = timed(
            SpanKind::kTableInsert, i + 1, [&] { return map->Insert(key, ValueOf(key)); },
            &l.insert_ns);
        ++l.ops;
        if (r != cuckoo::InsertResult::kOk) {
          ++l.failed;
          continue;
        }
        mine.push_back(key);
        for (debt += lookups_per_insert; debt >= 1.0; debt -= 1.0) {
          const std::uint64_t k = mine[rng.Next() % mine.size()];
          std::uint64_t v = 0;
          const bool hit = timed(
              SpanKind::kTableLookup, k, [&] { return map->Find(k, &v); }, &l.lookup_ns);
          ++l.ops;
          l.mismatches += (hit && v == ValueOf(k)) ? 0 : 1;
        }
      }
    }
  });
  out.after = map->Stats();
  for (Local& l : locals) {
    out.ops += l.ops;
    out.failed += l.failed;
    out.mismatches += l.mismatches;
    out.lookup_ns.insert(out.lookup_ns.end(), l.lookup_ns.begin(), l.lookup_ns.end());
    out.insert_ns.insert(out.insert_ns.end(), l.insert_ns.begin(), l.insert_ns.end());
  }
  out.mops = static_cast<double>(out.ops) * 1e3 / static_cast<double>(out.ns);
  return out;
}

void Account(const PhaseOut& o, RunResult* r) {
  r->attempted += o.ops;
  r->failed += o.failed;
  r->mismatches += o.mismatches;
}

// Traced run: an untraced base of both phases and a 1-thread fill, then
// both phases again with spans.
void RunTraced(const RunOptions& run, const Inputs& in, RunResult* r) {
  const PhaseOut base_fill = FillPhase(kThreads, in.fill_keys);
  const PhaseOut base_mixed = MixedPhase(in.mixed_keys, run.seed);
  const PhaseOut one_fill = FillPhase(1, in.fill_keys);
  SpanStore& spans = SpanStore::Instance();
  spans.Collect();
  spans.SetEnabled(true);
  const PhaseOut fill = FillPhase(kThreads, in.fill_keys);
  const std::vector<Span> fill_spans = spans.Collect();
  const PhaseOut mixed = MixedPhase(in.mixed_keys, run.seed);
  const std::vector<Span> mixed_spans = spans.Collect();
  spans.SetEnabled(false);
  for (const PhaseOut* o : {&base_fill, &base_mixed, &one_fill, &fill, &mixed}) {
    Account(*o, r);
  }
  const std::string trace_path = run.work_dir + "/trace-" + run.workload + ".tsv";
  std::remove(trace_path.c_str());
  WriteSpans(trace_path, "table_fill", fill_spans, 20000);
  WriteSpans(trace_path, "table_mixed", mixed_spans, 20000);

  r->Add("get_p99_us", Percentile(mixed.lookup_ns, 0.99) / 1e3, "us");
  r->Add("set_p99_us", Percentile(mixed.insert_ns, 0.99) / 1e3, "us");
  AddTableMetrics(Durations(mixed_spans, SpanKind::kTableLookup),
                  Durations(mixed_spans, SpanKind::kTableInsert),
                  Durations(fill_spans, SpanKind::kTableInsert), fill.before, fill.after,
                  mixed.before, mixed.after, r);
  r->Add("table.fill_mops", base_fill.mops, "Mops");
  r->Add("table.mixed_mops", base_mixed.mops, "Mops");
  r->Add("table.fill_speedup_4t", Ratio(base_fill.mops, one_fill.mops), "ratio");
  // Same work both times, so traced / untraced rate = untraced / traced time.
  r->Add("trace.overhead_ratio",
         Ratio(static_cast<double>(base_fill.ns + base_mixed.ns),
               static_cast<double>(fill.ns + mixed.ns)),
         "ratio");
  char line[160];
  std::snprintf(line, sizeof(line), "phase 1 fill: %.3f Mops at %d threads, %.3f Mops at 1",
                base_fill.mops, kThreads, one_fill.mops);
  r->notes.push_back(line);
}

}  // namespace

RunResult RunTableWorkload(const RunOptions& run) {
  RunResult r;
  // Setup: generate both key streams and build the first empty table;
  // repeated, median reported.
  std::vector<double> setup_s;
  Inputs in;
  for (int i = 0; i < (run.trace ? 1 : kSetupRepeats); ++i) {
    const std::uint64_t t0 = NowNanos();
    in = MakeInputs(run.seed);
    std::unique_ptr<Map> first = NewMap();
    setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  }
  if (run.trace) {
    RunTraced(run, in, &r);
    return r;
  }

  r.Add("setup_s", Median(setup_s), "s");
  std::vector<double> insert_mops;
  std::vector<double> mixed_mops;
  std::vector<std::uint32_t> lookup_ns;
  std::vector<std::uint32_t> insert_ns;
  // Phase 1 runs every round and phase 2 every third, until the run's
  // seconds are spent and each has run at least kFillReps / kMixedReps times.
  const std::uint64_t deadline = NowNanos() + static_cast<std::uint64_t>(run.seconds * 1e9);
  for (int round = 0; static_cast<int>(mixed_mops.size()) < kMixedReps ||
                      static_cast<int>(insert_mops.size()) < kFillReps || NowNanos() < deadline;
       ++round) {
    if (round % 3 == 0) {
      const PhaseOut mixed =
          MixedPhase(in.mixed_keys, run.seed + static_cast<std::uint64_t>(round));
      Account(mixed, &r);
      mixed_mops.push_back(mixed.mops);
      lookup_ns.insert(lookup_ns.end(), mixed.lookup_ns.begin(), mixed.lookup_ns.end());
      insert_ns.insert(insert_ns.end(), mixed.insert_ns.begin(), mixed.insert_ns.end());
    }
    const PhaseOut fill = FillPhase(kThreads, in.fill_keys);
    Account(fill, &r);
    insert_mops.push_back(fill.mops);
  }
  // The table's closed-loop peak is phase 2's rate, its fill rate phase 1's;
  // get / set latencies are phase 2's per-call Find / Insert latencies.
  r.Add("peak_ops_per_s", Median(mixed_mops) * 1e6, "ops/s");
  r.Add("fill_ops_per_s", Median(insert_mops) * 1e6, "ops/s");
  r.Add("get_p50_us", Percentile(lookup_ns, 0.5) / 1e3, "us");
  r.Add("set_p50_us", Percentile(insert_ns, 0.5) / 1e3, "us");
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  char line[240];
  std::snprintf(line, sizeof(line),
                "table_insert_mops = %.4f Mops (phase 1, median of %zu); table_mixed_mops = "
                "%.4f Mops (phase 2, median of %zu); p99: lookup %.3f us, insert %.3f us",
                Median(insert_mops), insert_mops.size(), Median(mixed_mops), mixed_mops.size(),
                Percentile(lookup_ns, 0.99) / 1e3, Percentile(insert_ns, 0.99) / 1e3);
  r.notes.push_back(line);
  std::string reps = "phase 1 Mops by repetition:";
  for (double v : insert_mops) {
    reps += ' ';
    reps += std::to_string(v);
  }
  reps += "; phase 2:";
  for (double v : mixed_mops) {
    reps += ' ';
    reps += std::to_string(v);
  }
  r.notes.push_back(reps);
  return r;
}

}  // namespace perfbench
