// Parallel phases of the table passes: threads released together, work
// handed out in chunks so a descheduled thread delays only the chunk it
// holds, not a fixed share of the phase.
#ifndef PERFBENCH_SRC_PARALLEL_H_
#define PERFBENCH_SRC_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/timing.h"

namespace perfbench {

// Hands out [begin, end) chunks of [0, n) to whichever thread asks next.
class Chunks {
 public:
  explicit Chunks(std::size_t n, std::size_t chunk = 4096) : n_(n), chunk_(chunk) {}
  bool Next(std::size_t* begin, std::size_t* end) {
    const std::size_t b = next_.fetch_add(chunk_, std::memory_order_relaxed);
    if (b >= n_) {
      return false;
    }
    *begin = b;
    *end = std::min(b + chunk_, n_);
    return true;
  }

 private:
  std::atomic<std::size_t> next_{0};
  std::size_t n_;
  std::size_t chunk_;
};

// Runs body(t) on `threads` threads released together; returns the ns from
// the release until the last one finished.
template <typename Body>
std::uint64_t RunParallel(int threads, Body&& body) {
  std::barrier sync(threads + 1);
  std::vector<std::thread> team;
  for (int t = 0; t < threads; ++t) {
    team.emplace_back([&, t] {
      sync.arrive_and_wait();
      body(t);
      sync.arrive_and_wait();
    });
  }
  sync.arrive_and_wait();
  const std::uint64_t t0 = cuckoo::NowNanos();
  sync.arrive_and_wait();
  const std::uint64_t ns = cuckoo::NowNanos() - t0;
  for (std::thread& th : team) {
    th.join();
  }
  return ns;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PARALLEL_H_
