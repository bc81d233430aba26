// The metric catalog: one typed entry per metric, rendered to both `stats`
// and /metrics.
//
// An entry has a `stats` name, a Prometheus name, help text, a kind, the
// `stats` level it shows on, and one reader. Entries are grouped under a
// snapshot reader (a layer's Stats() call) that a render calls once per
// group, so a render costs what the layers' Stats() calls cost and related
// values come from one snapshot (the torn-read guarantees of
// src/cuckoo/stats.h, such as lookup_hits <= lookups, hold only within one).
//
//   kind       `stats`                        /metrics
//   counter    STAT <stat> <n>                <prom> <n>
//   gauge      STAT <stat> <v>                <prom> <v>
//   info       STAT <stat> <text>             <prom>{<label>="<text>"} 1, or one series
//                                             per listed value, 1 on the active one
//   histogram  STAT <stat>_count/_p50/_p99/   summary: <prom>{quantile="0.5|0.9|0.99|
//                   _p999/_max                0.999"}, <prom>_sum, _count, _max
//   family     STAT <stat, * = member> <n>    <prom>{<label>="<member>"} <n>
//
// <prom> is "cuckoo_" + <stat> with a family's "_*" dropped, a trailing "_ns"
// made "_seconds" (the value scaled to match) and "_total" added to a
// counter; As() names an entry that rule does not fit. Plain `stats` shows
// kPlain entries; `stats detail` and /metrics show all. An entry its reader
// reports absent (an empty histogram or family) is absent from both.
//
// Layers register through a Handle: dropping or reassigning it removes their
// groups, so registering again replaces instead of duplicating. Readers run
// under the catalog's mutex, which removal also takes: once a layer's handle
// is gone no render is still reading it. Readers must not call back into the
// catalog.
#ifndef SRC_OBS_CATALOG_H_
#define SRC_OBS_CATALOG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/obs/histogram.h"

namespace cuckoo {
namespace obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kInfo, kHistogram, kFamily };

enum class StatsLevel : std::uint8_t { kPlain, kDetail };

// Everything about a metric except its value.
struct MetricSpec {
  std::string stat;  // a family's holds one '*' for the member
  std::string prom;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  StatsLevel level = StatsLevel::kPlain;
  double scale = 1.0;               // Prometheus value per stats unit
  std::string label;                // info/family: the Prometheus label
  std::vector<std::string> values;  // info: every value it takes (empty = free text)
  std::string count_alias;          // histogram: an older `stats` name for _count
};

// A family member: its label value and its reading.
using FamilyMember = std::pair<std::string, std::uint64_t>;

// One entry's reading.
struct MetricValue {
  bool present = true;
  std::uint64_t count = 0;                  // counter, integral gauge
  std::optional<double> real;               // fractional gauge
  std::string text;                         // info
  const HistogramSnapshot* hist = nullptr;  // histogram, inside the snapshot
  std::vector<FamilyMember> members;        // family
};

// A group with its snapshot type erased: `read` takes the snapshot once and
// passes each entry's index and value to its argument.
struct MetricGroup {
  std::string name;
  std::vector<MetricSpec> specs;
  std::function<void(const std::function<void(std::size_t, const MetricValue&)>&)> read;
};

// Reader of an atomic counter member: a relaxed load, as statistics need.
template <typename C, typename T>
auto Relaxed(std::atomic<T> C::*field) {
  return [field](const C* c) { return (c->*field).load(std::memory_order_relaxed); };
}

// Builds one group over snapshot type S. A reader is anything std::invoke
// takes with a `const S&` (a lambda, a data member pointer, a member function
// pointer when S is a pointer). Its result is the value: an integer, a
// double, text, a HistogramSnapshot inside the snapshot (by reference, or by
// pointer with null = absent), a std::vector<FamilyMember>, or an
// std::optional of a number (empty = absent).
template <typename S>
class MetricGroupBuilder {
 public:
  MetricGroupBuilder(std::string name, std::function<S()> snapshot)
      : name_(std::move(name)), snapshot_(std::move(snapshot)) {}

  // Entries added after this call show only on `stats detail`.
  MetricGroupBuilder& Detail() {
    level_ = StatsLevel::kDetail;
    return *this;
  }
  // The last entry's Prometheus name, where the default does not fit.
  MetricGroupBuilder& As(std::string prom) {
    specs_.back().prom = std::move(prom);
    return *this;
  }

  template <typename F>
  MetricGroupBuilder& Counter(std::string stat, std::string help, F read) {
    return Add(MetricKind::kCounter, std::move(stat), std::move(help), std::move(read));
  }
  template <typename F>
  MetricGroupBuilder& Gauge(std::string stat, std::string help, F read) {
    return Add(MetricKind::kGauge, std::move(stat), std::move(help), std::move(read));
  }
  // `values`: every text the reader returns, for one /metrics series each.
  template <typename F>
  MetricGroupBuilder& Info(std::string stat, std::string help, std::string label, F read,
                           std::vector<std::string> values = {}) {
    Add(MetricKind::kInfo, std::move(stat), std::move(help), std::move(read));
    specs_.back().label = std::move(label);
    specs_.back().values = std::move(values);
    return *this;
  }
  template <typename F>
  MetricGroupBuilder& Histogram(std::string stat, std::string help, F read,
                                std::string count_alias = {}) {
    Add(MetricKind::kHistogram, std::move(stat), std::move(help), std::move(read));
    specs_.back().count_alias = std::move(count_alias);
    return *this;
  }
  template <typename F>
  MetricGroupBuilder& Family(std::string stat, std::string help, std::string label, F read) {
    Add(MetricKind::kFamily, std::move(stat), std::move(help), std::move(read));
    specs_.back().label = std::move(label);
    return *this;
  }

  // Hand the entries over; the builder is left empty.
  MetricGroup Build() {
    return MetricGroup{std::move(name_), std::move(specs_),
                       [snapshot = std::move(snapshot_), readers = std::move(readers_)](
                           const std::function<void(std::size_t, const MetricValue&)>& sink) {
                         const S s = snapshot();
                         for (std::size_t i = 0; i < readers.size(); ++i) {
                           MetricValue v;
                           readers[i](s, &v);
                           if (v.present) {
                             sink(i, v);
                           }
                         }
                       }};
  }

 private:
  template <typename T>
  static void Set(const T& x, MetricValue* v) {
    if constexpr (std::is_same_v<T, HistogramSnapshot>) {
      v->hist = &x;
    } else if constexpr (std::is_same_v<T, const HistogramSnapshot*>) {
      v->hist = x;
      v->present = x != nullptr;
    } else if constexpr (std::is_same_v<T, std::vector<FamilyMember>>) {
      v->members = x;
      v->present = !x.empty();
    } else if constexpr (std::is_convertible_v<T, std::string_view>) {
      v->text = x;
    } else if constexpr (std::is_floating_point_v<T>) {
      v->real = x;
    } else {
      v->count = static_cast<std::uint64_t>(x);
    }
  }
  template <typename T>
  static void Set(const std::optional<T>& x, MetricValue* v) {
    v->present = x.has_value();
    if (x) {
      Set(*x, v);
    }
  }

  template <typename F>
  MetricGroupBuilder& Add(MetricKind kind, std::string stat, std::string help, F read) {
    using R = std::invoke_result_t<const F&, const S&>;
    static_assert(!std::is_same_v<R, HistogramSnapshot>,
                  "a histogram reader must point into the snapshot");
    MetricSpec spec;
    spec.prom = "cuckoo_" + stat;
    spec.stat = std::move(stat);
    spec.help = std::move(help);
    spec.kind = kind;
    spec.level = level_;
    if (kind == MetricKind::kFamily) {
      spec.prom.erase(spec.prom.find("_*"), 2);
    }
    if (spec.prom.ends_with("_ns")) {
      spec.prom.replace(spec.prom.size() - 3, 3, "_seconds");
      spec.scale = 1e-9;
    }
    if (kind == MetricKind::kCounter) {
      spec.prom += "_total";
    }
    specs_.push_back(std::move(spec));
    readers_.push_back([read](const S& s, MetricValue* v) { Set(std::invoke(read, s), v); });
    return *this;
  }

  std::string name_;
  std::function<S()> snapshot_;
  StatsLevel level_ = StatsLevel::kPlain;
  std::vector<MetricSpec> specs_;
  std::vector<std::function<void(const S&, MetricValue*)>> readers_;
};

class MetricCatalog {
 public:
  // A registration: dropping the last copy removes its groups, after any
  // render in flight. It may outlive the catalog.
  using Handle = std::shared_ptr<void>;

  MetricCatalog();
  MetricCatalog(const MetricCatalog&) = delete;
  MetricCatalog& operator=(const MetricCatalog&) = delete;

  // Append `groups` to the render order.
  [[nodiscard]] Handle Register(std::vector<MetricGroup> groups);

  // `STAT <name> <value>\r\n` for every entry up to `level` — of every group,
  // or of the groups named `group` only.
  void RenderStats(StatsLevel level, std::string* out, std::string_view group = {}) const;

  // Prometheus text exposition (format 0.0.4) of every entry.
  std::string RenderPrometheus() const;

  // Every registered entry's spec, in render order.
  std::vector<MetricSpec> Specs() const;

 private:
  struct State;
  // Calls fn on every group in render order, holding the mutex.
  void ForEachGroup(const std::function<void(const MetricGroup&)>& fn) const;

  std::shared_ptr<State> state_;
};

}  // namespace obs
}  // namespace cuckoo

#endif  // SRC_OBS_CATALOG_H_
