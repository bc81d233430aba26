// perfbench: one workload run of the repository benchmark.
//
//   perfbench --workload=kv_mixed --seed=1 --seconds=10 --trace=0
//             --work-dir=DIR --offered-rate=250000
//
// table_fill runs the table alone; every other name is a kv workload, whose
// open-loop rate perfbench/run.py passes from perfbench/workloads.json.
// Prints human-readable lines, then one JSON object as the last line:
// validity, outcome counts, the host fingerprint and the metrics.
#include <cstdio>
#include <filesystem>
#include <string>

#include "perfbench/src/fingerprint.h"
#include "perfbench/src/report.h"
#include "src/benchkit/flags.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  cuckoo::Flags flags(argc, argv);
  RunOptions run;
  run.workload = flags.GetString("workload", "");
  run.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  run.seconds = flags.GetDouble("seconds", 10.0);
  run.trace = flags.GetInt("trace", 0) != 0;
  run.work_dir = flags.GetString("work-dir", "");
  if (run.workload.empty() || run.work_dir.empty() || run.seconds <= 0.0) {
    std::fprintf(stderr, "usage: perfbench --workload=NAME --work-dir=DIR [--seed=N] "
                         "[--seconds=S] [--trace=0|1] [--offered-rate=R]\n");
    return 2;
  }
  std::filesystem::create_directories(run.work_dir);

  const auto fingerprint = HostFingerprint(run.work_dir);
  const RunResult r = run.workload == "table_fill"
                          ? RunTableWorkload(run)
                          : RunKvWorkload(run, flags.GetDouble("offered-rate", 0.0));

  for (const std::string& note : r.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::string json = "{\"workload\":";
  json += JsonString(run.workload);
  json += ",\"valid\":";
  json += r.valid ? "true" : "false";
  json += ",\"invalid_reason\":";
  json += JsonString(r.invalid_reason);
  json += ",\"attempted\":" + std::to_string(r.attempted);
  json += ",\"failed\":" + std::to_string(r.failed);
  json += ",\"mismatches\":" + std::to_string(r.mismatches);
  json += ",\"fingerprint\":{";
  for (std::size_t i = 0; i < fingerprint.size(); ++i) {
    json += i == 0 ? "" : ",";
    json += JsonString(fingerprint[i].first);
    json += ":";
    json += JsonString(fingerprint[i].second);
  }
  json += "},\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", r.metrics[i].value);
    json += i == 0 ? "" : ",";
    json += JsonString(r.metrics[i].name);
    json += ":{\"value\":";
    json += value;
    json += ",\"unit\":";
    json += JsonString(r.metrics[i].unit);
    json += "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
