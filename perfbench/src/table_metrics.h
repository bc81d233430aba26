// Per-layer metrics of the cuckoo table, shared by the kv workloads (bare
// KvService::StoreMap) and table_fill (CuckooMap): call latencies from
// spans, and ratios of Stats() counter deltas over the fill and the mixed
// phase.
#ifndef PERFBENCH_SRC_TABLE_METRICS_H_
#define PERFBENCH_SRC_TABLE_METRICS_H_

#include <vector>

#include "perfbench/src/report.h"
#include "perfbench/src/stats.h"
#include "src/cuckoo/stats.h"

namespace perfbench {

// lookup_ns / write_ns: the mixed phase's lookups and writes (Upsert on the
// kv workloads, Insert on table_fill); insert_ns: the fill's inserts.
inline void AddTableMetrics(const std::vector<double>& lookup_ns,
                            const std::vector<double>& write_ns,
                            const std::vector<double>& insert_ns,
                            const cuckoo::MapStatsSnapshot& fill_before,
                            const cuckoo::MapStatsSnapshot& fill_after,
                            const cuckoo::MapStatsSnapshot& mixed_before,
                            const cuckoo::MapStatsSnapshot& mixed_after, RunResult* r) {
  auto d = [](std::int64_t after, std::int64_t before) {
    return static_cast<double>(Delta(static_cast<std::uint64_t>(after),
                                     static_cast<std::uint64_t>(before)));
  };
  const double inserts = d(fill_after.inserts, fill_before.inserts);
  double paths = 0.0;
  double hops = 0.0;
  for (std::size_t len = 1; len < cuckoo::kPathHistogramBuckets; ++len) {  // executed paths
    const double n = d(fill_after.path_length_hist[len], fill_before.path_length_hist[len]);
    paths += n;
    hops += n * static_cast<double>(len);
  }
  r->Add("table.lookup_ns_p50", Percentile(lookup_ns, 0.5), "ns");
  r->Add("table.upsert_ns_p50", Percentile(write_ns, 0.5), "ns");
  r->Add("table.insert_ns_p99", Percentile(insert_ns, 0.99), "ns");
  r->Add("table.path_invalidation_ratio",
         Ratio(d(fill_after.path_invalidations, fill_before.path_invalidations),
               d(fill_after.path_searches, fill_before.path_searches)),
         "ratio");
  r->Add("table.lock_contended_per_insert",
         Ratio(d(fill_after.lock_contended, fill_before.lock_contended), inserts), "ratio");
  r->Add("table.displacements_per_insert",
         Ratio(d(fill_after.displacements, fill_before.displacements), inserts), "ratio");
  r->Add("table.mean_path_len", Ratio(hops, paths), "hops");
  r->Add("table.insert_failures", d(fill_after.insert_failures, fill_before.insert_failures),
         "count");
  r->Add("table.read_retry_ratio",
         Ratio(d(mixed_after.read_retries, mixed_before.read_retries),
               d(mixed_after.lookups, mixed_before.lookups)),
         "ratio");
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TABLE_METRICS_H_
