// Self-tests of the benchmark's own statistics (perfbench/src/stats.h) and
// of the self-checking value codec. Exits non-zero on the first failure.
//
//   cmake --build .bench_build --target perfbench_stats_test
//   .bench_build/perfbench_stats_test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/src/stats.h"
#include "perfbench/src/values.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

void TestPercentile() {
  std::vector<int> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);
  }
  EXPECT(Near(Percentile(v, 0.5), 50));
  EXPECT(Near(Percentile(v, 0.99), 99));
  EXPECT(Near(Percentile(v, 1.0), 100));
  EXPECT(Near(Percentile(std::vector<int>{}, 0.5), 0));
  EXPECT(Near(Percentile(std::vector<int>{7}, 0.99), 7));
}

// The highest percentile that still has >= 10 samples beyond it.
void TestHighestSupportedPercentile() {
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(SamplesBeyond(999, 0.99) == 9);
  EXPECT(Near(HighestSupportedPercentile(1000), 0.99));   // exactly 10 beyond p99
  EXPECT(Near(HighestSupportedPercentile(999), 0.9));     // 9 beyond p99: fall back
  EXPECT(Near(HighestSupportedPercentile(9999), 0.99));   // 9 beyond p99.9
  EXPECT(Near(HighestSupportedPercentile(10000), 0.999));
  EXPECT(Near(HighestSupportedPercentile(100000), 0.9999));
  EXPECT(Near(HighestSupportedPercentile(20), 0.5));
  EXPECT(Near(HighestSupportedPercentile(19), 0.0));      // not even a median
  EXPECT(Near(HighestSupportedPercentile(0), 0.0));
  EXPECT(Near(HighestSupportedPercentile(200, 100), 0.5));
}

// Median over sub-windows of each sub-window's percentile.
void TestMedianOfWindows() {
  std::vector<int> samples;
  std::vector<std::uint16_t> window;
  // Three sub-windows of the samples 1..1000; in window 1 a stall turned
  // the top 20 into 100000. That window's p99 is the stall, the others'
  // is 990, and the median over the windows ignores the one stall.
  for (std::uint16_t w = 0; w < 3; ++w) {
    for (int i = 1; i <= 1000; ++i) {
      samples.push_back(w == 1 && i > 980 ? 100000 : i);
      window.push_back(w);
    }
  }
  EXPECT(Near(MedianOfWindows(samples, std::vector<std::uint16_t>(samples.size(), 1), 0.99),
              995));  // one window over everything
  EXPECT(Near(MedianOfWindows(samples, window, 0.99), 990));
  EXPECT(Near(MedianOfWindows(samples, window, 0.5), 500));
  // A sub-window too small for a p99 is skipped.
  samples.push_back(5000000);
  window.push_back(7);
  EXPECT(Near(MedianOfWindows(samples, window, 0.99), 990));
  EXPECT(Near(MedianOfWindows(std::vector<int>{1, 2}, {0, 0}, 0.99), 0));
}

// A failed request's sample sits above every success, so failures push the
// percentiles up instead of leaving the latencies.
void TestFailedSamples() {
  std::vector<std::uint32_t> ok;
  for (std::uint32_t i = 1; i <= 1000; ++i) {
    ok.push_back(i);
  }
  std::vector<std::uint32_t> with_failures = ok;
  for (int i = 0; i < 20; ++i) {
    with_failures.push_back(kFailedSampleNs);
  }
  EXPECT(Near(Percentile(ok, 0.99), 990));
  EXPECT(Near(Percentile(with_failures, 0.99), kFailedSampleNs));
  EXPECT(Percentile(with_failures, 0.5) > Percentile(ok, 0.5));
  // All failed: every percentile is the failure sample.
  EXPECT(Near(Percentile(std::vector<std::uint32_t>(5, kFailedSampleNs), 0.01), kFailedSampleNs));
}

// Self time when child spans overlap each other or stick out of the parent.
void TestSelfTime() {
  EXPECT(SelfTime({100, 200}, {}) == 100);
  EXPECT(SelfTime({100, 200}, {{110, 120}, {150, 170}}) == 70);
  // Overlapping children count once: [110,140) U [130,160) = 50 covered.
  EXPECT(SelfTime({100, 200}, {{130, 160}, {110, 140}}) == 50);
  // Nested child inside another child.
  EXPECT(SelfTime({100, 200}, {{110, 190}, {120, 130}}) == 20);
  // Children sticking out on both sides are clipped to the parent.
  EXPECT(SelfTime({100, 200}, {{50, 120}, {180, 300}}) == 60);
  // Fully covered parent, and children entirely outside it.
  EXPECT(SelfTime({100, 200}, {{0, 1000}}) == 0);
  EXPECT(SelfTime({100, 200}, {{0, 50}, {250, 300}}) == 100);
  // Degenerate parent.
  EXPECT(SelfTime({200, 100}, {{0, 1000}}) == 0);
}

// Lateness: due vs sent, achieved / offered, and the kept-up verdict.
void TestLateness() {
  Lateness on_time;
  on_time.Due(100);
  for (std::uint64_t i = 0; i < 100; ++i) {
    on_time.Sent(1000 * i, 1000 * i + 500);  // 0.5 us late each
  }
  EXPECT(Near(on_time.LateP99Us(), 0.5));
  EXPECT(Near(on_time.AchievedRatio(), 1.0));
  EXPECT(on_time.KeptUp(10.0, 0.97));

  // Sent before due (clock read ahead) is zero lateness, not negative.
  Lateness early;
  early.Due(1);
  early.Sent(1000, 900);
  EXPECT(Near(early.LateP99Us(), 0.0));

  // A generator that stalls for the last 10 % of its schedule.
  Lateness behind;
  behind.Due(100);
  for (std::uint64_t i = 0; i < 90; ++i) {
    behind.Sent(1000 * i, 1000 * i + (i >= 85 ? 5'000'000 : 0));
  }
  EXPECT(Near(behind.AchievedRatio(), 0.9));
  EXPECT(!behind.KeptUp(10.0, 0.97));   // fell short of the offered rate
  EXPECT(!behind.KeptUp(10.0, 0.5));    // and its p99 lateness is 5 ms
  EXPECT(behind.KeptUp(10000.0, 0.5));

  // Three 1 ms sub-windows of 100 requests each: a 5 ms stall confined to
  // one of them leaves the median sub-window on time; stalls in two of
  // them do not.
  auto stalled = [](int windows_stalled) {
    Lateness l;
    l.SetWindows(0, 1'000'000);
    l.Due(300);
    for (std::uint64_t i = 0; i < 300; ++i) {
      const std::uint64_t due = i * 10'000;
      const bool stall = static_cast<int>(i / 100) < windows_stalled && i % 100 >= 90;
      l.Sent(due, due + (stall ? 5'000'000 : 1000));
    }
    return l;
  };
  EXPECT(stalled(0).KeptUp(10.0, 0.97));
  EXPECT(stalled(1).KeptUp(10.0, 0.97));
  EXPECT(stalled(1).LateP99Us() > 10.0);  // the whole-window p99 sees the stall
  EXPECT(!stalled(2).KeptUp(10.0, 0.97));

  // Nothing due is not "kept up".
  EXPECT(!Lateness().KeptUp(1e9, 0.0));

  Lateness merged = on_time;
  merged.Merge(behind);
  EXPECT(merged.due() == 200);
  EXPECT(merged.sent() == 190);
}

// Counter-delta ratios with a zero base.
void TestRatios() {
  EXPECT(Delta(10, 4) == 6);
  EXPECT(Delta(4, 10) == 0);  // a counter that went backwards
  EXPECT(Near(Ratio(6, 3), 2.0));
  EXPECT(Near(Ratio(0, 0), 0.0));
  EXPECT(Near(Ratio(5, 0), 0.0));
  EXPECT(!std::isnan(Ratio(0, 0)) && !std::isinf(Ratio(5, 0)));
  // acks per fsync over a window with no fsync at all.
  EXPECT(Near(Ratio(static_cast<double>(Delta(500, 500)), static_cast<double>(Delta(3, 3))), 0.0));
  EXPECT(Near(Median({3.0, 1.0, 2.0}), 2.0));
  EXPECT(Near(Median({4.0, 1.0, 3.0, 2.0}), 2.5));
  EXPECT(Near(Median({}), 0.0));
}

void TestValues() {
  std::string v;
  AppendValue(42, 3, 7, 100, &v);
  EXPECT(v.size() == 100);
  ValueStamp stamp;
  EXPECT(CheckValue(42, 100, v, &stamp) && stamp.writer == 3 && stamp.seq == 7);
  EXPECT(!CheckValue(43, 100, v, &stamp));  // another key's value
  std::string flipped = v;
  flipped[80] = flipped[80] == 'a' ? 'b' : 'a';
  EXPECT(!CheckValue(42, 100, flipped, &stamp));  // one byte off
  EXPECT(!CheckValue(42, 101, v, &stamp));        // wrong length
  EXPECT(KeyFor(1, 9).size() == kKeyBytes && KeyFor(1, 9) != KeyFor(2, 9));
}

}  // namespace

int main() {
  TestPercentile();
  TestHighestSupportedPercentile();
  TestMedianOfWindows();
  TestFailedSamples();
  TestSelfTime();
  TestLateness();
  TestRatios();
  TestValues();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench stats: all checks passed\n");
  return 0;
}
