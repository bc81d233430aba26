// The benchmark's own statistics: percentiles from raw samples, the choice
// of the highest percentile a sample count supports, span self time,
// open-loop lateness accounting, and counter-delta ratios. Header-only and
// dependency-free so tests/stats_test.cc can check each rule directly.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// The latency sample of a request that failed: above every sample of a
// request that succeeded, so failures count as missing every latency limit
// and push the percentiles up.
inline constexpr std::uint32_t kFailedSampleNs = UINT32_MAX;

// Nearest-rank percentile of raw samples (q in (0, 1]); 0 for no samples.
// Takes a copy: nth_element reorders it.
template <typename T>
double Percentile(std::vector<T> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

// Samples strictly beyond the nearest-rank q-percentile of n samples.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

// The highest percentile of the ladder that still has at least
// `min_beyond` samples beyond it; 0 when even the median does not.
inline double HighestSupportedPercentile(std::size_t n, std::size_t min_beyond = 10) {
  for (double q : {0.9999, 0.999, 0.99, 0.9, 0.5}) {
    if (SamplesBeyond(n, q) >= min_beyond) {
      return q;
    }
  }
  return 0.0;
}

// Each sub-window's q-percentile, in sub-window order: `window[i]` names
// the sub-window of `samples[i]`. Sub-windows that do not support q (fewer
// than `min_beyond` samples beyond it) are left out.
template <typename T>
std::vector<double> PercentileByWindow(const std::vector<T>& samples,
                                       const std::vector<std::uint16_t>& window, double q,
                                       std::size_t min_beyond = 10) {
  std::vector<std::vector<T>> by_window;
  for (std::size_t i = 0; i < samples.size() && i < window.size(); ++i) {
    if (window[i] >= by_window.size()) {
      by_window.resize(window[i] + std::size_t{1});
    }
    by_window[window[i]].push_back(samples[i]);
  }
  std::vector<double> out;
  for (std::vector<T>& w : by_window) {
    if (SamplesBeyond(w.size(), q) >= min_beyond) {
      out.push_back(Percentile(std::move(w), q));
    }
  }
  return out;
}

// The median over the sub-windows of a phase of each sub-window's
// q-percentile; 0 when no sub-window supports q. One stall then moves one
// sub-window's tail, not the run's.
template <typename T>
double MedianOfWindows(const std::vector<T>& samples, const std::vector<std::uint16_t>& window,
                       double q, std::size_t min_beyond = 10) {
  return Percentile(PercentileByWindow(samples, window, q, min_beyond), 0.5);
}

// A span: [start, end) in nanoseconds.
struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

// Self time of `parent`: its duration minus the part of it that the child
// intervals cover. Children may overlap each other and may stick out of
// the parent; covered time is counted once and only inside the parent.
inline std::uint64_t SelfTime(Interval parent, std::vector<Interval> children) {
  if (parent.end <= parent.start) {
    return 0;
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::uint64_t covered = 0;
  std::uint64_t cursor = parent.start;  // end of the covered prefix so far
  for (const Interval& c : children) {
    const std::uint64_t s = std::max(c.start, cursor);
    const std::uint64_t e = std::min(c.end, parent.end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return parent.end - parent.start - covered;
}

// Open-loop lateness: for each request, how long after its due time the
// generator handed it to the kernel, and how many of the requests due in
// the window were sent at all. Samples fall into sub-windows by due time
// (one sub-window unless SetWindows is called).
class Lateness {
 public:
  void SetWindows(std::uint64_t start_ns, std::uint64_t subwindow_ns) {
    start_ns_ = start_ns;
    subwindow_ns_ = subwindow_ns;
  }
  void Sent(std::uint64_t due_ns, std::uint64_t sent_ns) {
    late_ns_.push_back(sent_ns > due_ns ? sent_ns - due_ns : 0);
    const std::uint64_t w = due_ns > start_ns_ ? (due_ns - start_ns_) / subwindow_ns_ : 0;
    window_.push_back(static_cast<std::uint16_t>(std::min<std::uint64_t>(w, UINT16_MAX)));
  }
  void Due(std::uint64_t count) { due_ += count; }
  void Merge(const Lateness& other) {
    late_ns_.insert(late_ns_.end(), other.late_ns_.begin(), other.late_ns_.end());
    window_.insert(window_.end(), other.window_.begin(), other.window_.end());
    due_ += other.due_;
  }

  std::size_t sent() const noexcept { return late_ns_.size(); }
  std::uint64_t due() const noexcept { return due_; }
  double LateP99Us() const { return Percentile(late_ns_, 0.99) / 1e3; }
  // Achieved / offered: requests sent over requests that fell due.
  double AchievedRatio() const {
    return due_ == 0 ? 0.0 : static_cast<double>(late_ns_.size()) / static_cast<double>(due_);
  }
  // The generator kept up: it sent nearly every request that fell due, and
  // in most sub-windows its p99 lateness stayed under the limit. A single
  // stall of the generator thread (a preempted vCPU) moves one sub-window;
  // a generator that cannot keep pace moves them all.
  bool KeptUp(double max_late_p99_us, double min_achieved) const {
    return due_ > 0 && AchievedRatio() >= min_achieved &&
           MedianOfWindows(late_ns_, window_, 0.99, /*min_beyond=*/0) / 1e3 <= max_late_p99_us;
  }

 private:
  std::vector<std::uint64_t> late_ns_;
  std::vector<std::uint16_t> window_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t subwindow_ns_ = UINT64_MAX;
  std::uint64_t due_ = 0;
};

// after - before for a monotonic counter; 0 if the counter went backwards.
inline std::uint64_t Delta(std::uint64_t after, std::uint64_t before) {
  return after >= before ? after - before : 0;
}

// num / den of two counter deltas; 0 (not NaN or inf) when the base is 0.
inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Median of a few repeated measurements (setup times, phase rates): the
// middle value, or the mean of the two middle values; 0 for none.
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
