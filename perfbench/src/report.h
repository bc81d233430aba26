// What one workload run hands back to main(): validity, outcome counts and
// named metrics with units, printed as human lines plus one JSON object.
#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool valid = true;             // false: the measurement itself is not usable
  std::string invalid_reason;
  std::uint64_t attempted = 0;   // operations sent to the system under test
  std::uint64_t failed = 0;      // refused, errored or lost
  std::uint64_t mismatches = 0;  // wrong output: the run is incorrect
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // extra human-readable lines

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Invalid(std::string reason) {
    valid = false;
    if (!invalid_reason.empty()) {
      invalid_reason += "; ";
    }
    invalid_reason += reason;
  }
};

// Common run options of every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch space for data files and trace output
};

// A kv workload of kv_workload.cc's table, with the open loop's offered
// rate in requests/s.
RunResult RunKvWorkload(const RunOptions& run, double offered_rate);
RunResult RunTableWorkload(const RunOptions& run);

// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
