// Self-checking keys and values. A key is 16 hex characters naming a key
// id; a value is derived from (key id, writer, sequence) and carries a
// checksum of its filler, so any GET response can be verified byte-exact
// without a shadow copy of the store:
//
//   <id:16 hex>.<writer:2 hex>.<seq:12 hex>.<sum:16 hex>.<filler>
//
// The filler is a deterministic function of the three fields.
#ifndef PERFBENCH_SRC_VALUES_H_
#define PERFBENCH_SRC_VALUES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "src/common/hash.h"

namespace perfbench {

inline constexpr std::size_t kKeyBytes = 16;
inline constexpr std::size_t kValueHeaderBytes = 16 + 1 + 2 + 1 + 12 + 1 + 16 + 1;
inline constexpr std::size_t kMinValueBytes = kValueHeaderBytes + 8;

inline void AppendHex(std::uint64_t v, int digits, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int i = digits - 1; i >= 0; --i) {
    out->push_back(kHex[(v >> (4 * i)) & 0xf]);
  }
}

inline bool ParseHex(std::string_view s, std::uint64_t* out) {
  std::uint64_t v = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  *out = v;
  return true;
}

// A bijection of the key id (for a fixed seed), printed as 16 hex digits.
inline std::string KeyFor(std::uint64_t id, std::uint64_t seed) {
  std::string key;
  key.reserve(kKeyBytes);
  AppendHex(cuckoo::Mix64(id + seed * 0x9e3779b97f4a7c15ull), 16, &key);
  return key;
}

// Appends the value for (id, writer, seq) of `size` bytes (>= kMinValueBytes).
inline void AppendValue(std::uint64_t id, std::uint32_t writer, std::uint64_t seq,
                        std::size_t size, std::string* out) {
  const std::size_t base = out->size();
  AppendHex(id, 16, out);
  out->push_back('.');
  AppendHex(writer, 2, out);
  out->push_back('.');
  AppendHex(seq, 12, out);
  out->push_back('.');
  const std::size_t sum_at = out->size();
  out->append(16, '0');
  out->push_back('.');
  out->resize(base + size);
  char* filler = out->data() + base + kValueHeaderBytes;
  const std::size_t filler_len = size - kValueHeaderBytes;
  std::uint64_t state = cuckoo::Mix64(id ^ cuckoo::Mix64((std::uint64_t{writer} << 48) ^ seq));
  std::uint64_t sum = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < filler_len; i += 8) {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t r = cuckoo::Mix64(state);
    for (std::size_t j = i; j < filler_len && j < i + 8; ++j) {
      filler[j] = static_cast<char>('a' + (r & 0xff) % 26);
      r >>= 8;
    }
  }
  for (std::size_t i = 0; i < filler_len; ++i) {
    sum = (sum ^ static_cast<unsigned char>(filler[i])) * 0x100000001b3ull;
  }
  std::string hex;
  AppendHex(sum, 16, &hex);
  std::memcpy(out->data() + sum_at, hex.data(), 16);
}

struct ValueStamp {
  std::uint32_t writer = 0;
  std::uint64_t seq = 0;
};

// True iff `data` is exactly the value some (writer, seq) wrote for key
// `id` at `size` bytes; the stamp is returned through *stamp.
inline bool CheckValue(std::uint64_t id, std::size_t size, std::string_view data,
                       ValueStamp* stamp) {
  if (data.size() != size || size < kMinValueBytes) {
    return false;
  }
  std::uint64_t got_id = 0;
  std::uint64_t writer = 0;
  std::uint64_t seq = 0;
  if (!ParseHex(data.substr(0, 16), &got_id) || got_id != id ||
      !ParseHex(data.substr(17, 2), &writer) || !ParseHex(data.substr(20, 12), &seq)) {
    return false;
  }
  std::string expect;
  expect.reserve(size);
  AppendValue(id, static_cast<std::uint32_t>(writer), seq, size, &expect);
  if (expect != data) {
    return false;
  }
  stamp->writer = static_cast<std::uint32_t>(writer);
  stamp->seq = seq;
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_VALUES_H_
