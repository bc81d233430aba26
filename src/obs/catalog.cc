#include "src/obs/catalog.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace cuckoo {
namespace obs {

struct MetricCatalog::State {
  Mutex mu;
  std::uint64_t next_id GUARDED_BY(mu) = 1;
  // (registration id, group), in registration order.
  std::vector<std::pair<std::uint64_t, MetricGroup>> groups GUARDED_BY(mu);
};

namespace {

// ----- `stats` lines -------------------------------------------------------

void AppendStat(std::string_view name, std::string_view value, std::string* out) {
  out->append("STAT ").append(name).append(" ").append(value).append("\r\n");
}

std::string FormatDouble(double value) {
  char buf[64];
  // Integral values print exactly (an LSN or a byte count past 1e9 would
  // lose digits to %.9g); fractions keep nine significant digits.
  const bool integral = std::trunc(value) == value && std::fabs(value) < 1e18;
  std::snprintf(buf, sizeof(buf), integral ? "%.0f" : "%.9g", value);
  return buf;
}

void AppendStatsEntry(const MetricSpec& spec, const MetricValue& v, std::string* out) {
  using std::to_string;
  switch (spec.kind) {
    case MetricKind::kCounter:
    case MetricKind::kGauge:
      AppendStat(spec.stat, v.real ? FormatDouble(*v.real) : to_string(v.count), out);
      break;
    case MetricKind::kInfo:
      AppendStat(spec.stat, v.text, out);
      break;
    case MetricKind::kHistogram: {
      const HistogramSnapshot& h = *v.hist;
      for (const auto& [suffix, x] : {std::pair<const char*, std::uint64_t>{"_count", h.Count()},
                                      {"_p50", h.P50()},
                                      {"_p99", h.P99()},
                                      {"_p999", h.P999()},
                                      {"_max", h.Max()}}) {
        AppendStat(spec.stat + suffix, to_string(x), out);
      }
      if (!spec.count_alias.empty()) {
        AppendStat(spec.count_alias, to_string(h.Count()), out);
      }
      break;
    }
    case MetricKind::kFamily:
      for (const auto& [member, x] : v.members) {
        std::string name = spec.stat;
        AppendStat(name.replace(name.find('*'), 1, member), to_string(x), out);
      }
      break;
  }
}

// ----- Prometheus text exposition ------------------------------------------

void AppendHeader(const std::string& name, const std::string& help, const char* type,
                  std::string* out) {
  out->append("# HELP ").append(name).append(" ").append(help).append("\n");
  out->append("# TYPE ").append(name).append(" ").append(type).append("\n");
}

void AppendSample(const std::string& name, std::string_view value, std::string* out) {
  out->append(name).append(" ").append(value).append("\n");
}

void AppendGauge(const std::string& name, const std::string& help, double value,
                 std::string* out) {
  AppendHeader(name, help, "gauge", out);
  AppendSample(name, FormatDouble(value), out);
}

// name{label="value"}, with the value escaped per the exposition format.
std::string Labelled(const std::string& name, const std::string& label,
                     std::string_view value) {
  std::string s = name + "{" + label + "=\"";
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      s.push_back('\\');
      s.push_back(c);
    } else if (c == '\n') {
      s.append("\\n");
    } else {
      s.push_back(c);
    }
  }
  return s + "\"}";
}

void AppendLatencySummary(const MetricSpec& spec, const HistogramSnapshot& h,
                          std::string* out) {
  AppendHeader(spec.prom, spec.help, "summary", out);
  static constexpr double kQuantiles[] = {0.5, 0.9, 0.99, 0.999};
  static const char* kLabels[] = {"0.5", "0.9", "0.99", "0.999"};
  for (std::size_t i = 0; i < 4; ++i) {
    AppendSample(Labelled(spec.prom, "quantile", kLabels[i]),
                 FormatDouble(static_cast<double>(h.Percentile(kQuantiles[i])) * spec.scale),
                 out);
  }
  AppendSample(spec.prom + "_sum", FormatDouble(static_cast<double>(h.sum) * spec.scale), out);
  AppendSample(spec.prom + "_count", std::to_string(h.total), out);
  AppendGauge(spec.prom + "_max", spec.help + " (maximum)",
              static_cast<double>(h.max) * spec.scale, out);
}

void AppendPrometheusEntry(const MetricSpec& spec, const MetricValue& v, std::string* out) {
  switch (spec.kind) {
    case MetricKind::kCounter:
      AppendHeader(spec.prom, spec.help, "counter", out);
      AppendSample(spec.prom, std::to_string(v.count), out);
      break;
    case MetricKind::kGauge:
      AppendGauge(spec.prom, spec.help,
                  (v.real ? *v.real : static_cast<double>(v.count)) * spec.scale, out);
      break;
    case MetricKind::kInfo:
      AppendHeader(spec.prom, spec.help, "gauge", out);
      if (spec.values.empty()) {
        AppendSample(Labelled(spec.prom, spec.label, v.text), "1", out);
      }
      for (const std::string& value : spec.values) {
        AppendSample(Labelled(spec.prom, spec.label, value), value == v.text ? "1" : "0", out);
      }
      break;
    case MetricKind::kHistogram:
      AppendLatencySummary(spec, *v.hist, out);
      break;
    case MetricKind::kFamily:
      AppendHeader(spec.prom, spec.help, "gauge", out);
      for (const FamilyMember& m : v.members) {
        AppendSample(Labelled(spec.prom, spec.label, m.first), std::to_string(m.second), out);
      }
      break;
  }
}

// Take `group`'s snapshot and hand each present entry up to `level` to sink.
void Read(const MetricGroup& group, StatsLevel level,
          const std::function<void(const MetricSpec&, const MetricValue&)>& sink) {
  const auto shows = [level](const MetricSpec& spec) { return spec.level <= level; };
  if (std::any_of(group.specs.begin(), group.specs.end(), shows)) {
    group.read([&](std::size_t i, const MetricValue& v) {
      if (shows(group.specs[i])) {
        sink(group.specs[i], v);
      }
    });
  }
}

}  // namespace

MetricCatalog::MetricCatalog() : state_(std::make_shared<State>()) {}

MetricCatalog::Handle MetricCatalog::Register(std::vector<MetricGroup> groups) {
  State& state = *state_;
  MutexLock lk(state.mu);
  const std::uint64_t id = state.next_id++;
  for (MetricGroup& group : groups) {
    state.groups.emplace_back(id, std::move(group));
  }
  return Handle(nullptr, [weak = std::weak_ptr<State>(state_), id](void*) {
    if (const std::shared_ptr<State> alive = weak.lock()) {
      State& owner = *alive;
      MutexLock removal(owner.mu);
      std::erase_if(owner.groups, [id](const auto& g) { return g.first == id; });
    }
  });
}

void MetricCatalog::ForEachGroup(const std::function<void(const MetricGroup&)>& fn) const {
  State& state = *state_;
  MutexLock lk(state.mu);
  for (const auto& [id, group] : state.groups) {
    fn(group);
  }
}

void MetricCatalog::RenderStats(StatsLevel level, std::string* out,
                                std::string_view only) const {
  ForEachGroup([&](const MetricGroup& group) {
    if (only.empty() || group.name == only) {
      Read(group, level, [out](const MetricSpec& spec, const MetricValue& v) {
        AppendStatsEntry(spec, v, out);
      });
    }
  });
}

std::string MetricCatalog::RenderPrometheus() const {
  std::string out;
  ForEachGroup([&out](const MetricGroup& group) {
    Read(group, StatsLevel::kDetail, [&out](const MetricSpec& spec, const MetricValue& v) {
      AppendPrometheusEntry(spec, v, &out);
    });
  });
  return out;
}

std::vector<MetricSpec> MetricCatalog::Specs() const {
  std::vector<MetricSpec> specs;
  ForEachGroup([&specs](const MetricGroup& group) {
    specs.insert(specs.end(), group.specs.begin(), group.specs.end());
  });
  return specs;
}

}  // namespace obs
}  // namespace cuckoo
