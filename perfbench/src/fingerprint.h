// Host fingerprint printed with every result: runs whose fingerprints
// differ measure different machines and are never compared.
#ifndef PERFBENCH_SRC_FINGERPRINT_H_
#define PERFBENCH_SRC_FINGERPRINT_H_

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// nproc, SIMD probe level, RTM real/emulated, value-log reader backend,
// filesystem of `data_dir`, and whether a huge-page request is granted.
std::vector<std::pair<std::string, std::string>> HostFingerprint(const std::string& data_dir);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_FINGERPRINT_H_
