#include "perfbench/src/fingerprint.h"

#include <sys/utsname.h>
#include <sys/vfs.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "perfbench/src/report.h"
#include "src/common/cpu.h"
#include "src/common/page_alloc.h"
#include "src/cuckoo/simd_probe.h"
#include "src/htm/rtm.h"
#include "src/store/tiered_store.h"

namespace perfbench {
namespace {

std::string FilesystemName(const std::string& dir) {
  struct statfs s {};
  if (statfs(dir.c_str(), &s) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(s.f_type));
      return hex;
    }
  }
}

// The backend TieredStore picks with reader_backend = "auto".
std::string VlogReaderBackend(const std::string& data_dir) {
  const std::string dir = data_dir + "/fingerprint-vlog";
  std::string backend = "unavailable";
  {
    cuckoo::store::TieredStore tier;
    cuckoo::store::TieredStoreOptions o;
    o.dir = dir;
    o.cache_capacity_bytes = 1 << 20;
    o.reader_threads = 1;
    std::string error;
    if (tier.Open(o, &error)) {
      backend = tier.reader_backend();
    }
  }
  std::filesystem::remove_all(dir);
  return backend;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> HostFingerprint(const std::string& data_dir) {
  std::vector<std::pair<std::string, std::string>> fp;
  fp.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  fp.emplace_back("simd_probe",
                  cuckoo::simd::ProbeLevelName(cuckoo::simd::ActiveProbeLevel()));
  fp.emplace_back("rtm",
                  cuckoo::CpuSupportsRtm() && cuckoo::RtmIsUsable() ? "real" : "emulated");
  fp.emplace_back("vlog_reader", VlogReaderBackend(data_dir));
  fp.emplace_back("data_fs", FilesystemName(data_dir));
  const cuckoo::PageBlock probe(std::size_t{4} << 20, /*want_hugepages=*/true);
  fp.emplace_back("hugepages", probe.hugepage_bytes() > 0 ? "granted" : "refused");
  utsname u{};
  if (uname(&u) == 0) {
    fp.emplace_back("kernel", u.release);
  }
  return fp;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace perfbench
