// The load generator of the kv workloads: TCP-loopback connections that
// speak the memcached text protocol, a seeded per-connection op stream, and
// the three phase shapes (preload, closed loop with a fixed window per
// connection, open loop at a fixed offered rate). Every response is checked:
// a GET must return, byte-exact, a value some writer really issued for that
// key.
#ifndef PERFBENCH_SRC_KV_CLIENT_H_
#define PERFBENCH_SRC_KV_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/src/stats.h"
#include "src/common/random.h"

namespace perfbench {

// What the generator needs to know about a kv workload.
struct KvStream {
  std::uint64_t keys = 0;
  std::size_t value_bytes = 0;
  double get_fraction = 0.0;
  double zipf_theta = 0.0;  // 0 = uniform key choice
  std::uint64_t seed = 0;
};

// Key-rank permutation shared by every connection: Zipf rank r names key
// id rank_to_id[r], so the hot keys are scattered over the id space.
class KeySpace {
 public:
  explicit KeySpace(const KvStream& stream);
  const KvStream& stream() const noexcept { return stream_; }
  std::uint64_t IdForRank(std::uint64_t rank) const noexcept { return rank_to_id_[rank]; }

 private:
  KvStream stream_;
  std::vector<std::uint32_t> rank_to_id_;
};

// Sequence numbers issued per writer, so a GET can check that the version
// it read was really written. Writer w is connection w.
inline constexpr int kMaxWriters = 8;
struct IssuedSeqs {
  std::atomic<std::uint64_t> seq[kMaxWriters] = {};
};

struct Op {
  bool get = true;
  std::uint64_t key_id = 0;
};

// One request recorded for the traced passes.
struct RecordedRequest {
  bool get = true;
  std::uint64_t key_id = 0;
  std::string bytes;
};

// Outcome tallies and raw samples of one phase (one generator thread, or
// merged).
struct PhaseTally {
  std::uint64_t attempted = 0;   // requests sent
  std::uint64_t failed = 0;      // SERVER_ERROR, dropped connection, lost reply
  std::uint64_t mismatches = 0;  // wrong bytes, miss of a stored key, desync
  std::uint64_t gets_sent = 0;   // whole phase, warm-up and drain included
  std::uint64_t sets_sent = 0;
  std::uint64_t sets_acked = 0;
  // Latency from due time, measured window; kFailedSampleNs for a request
  // that did not succeed.
  std::vector<std::uint32_t> get_ns;
  std::vector<std::uint32_t> set_ns;
  std::vector<std::uint16_t> get_win;  // sub-window of each sample
  std::vector<std::uint16_t> set_win;
  std::vector<std::uint64_t> completed_by_win;  // completed per sub-window
  Lateness lateness;
  std::uint64_t window_ns = 0;
  std::uint64_t subwindow_ns = 1;

  void Merge(const PhaseTally& other);
  // Median over the measured window's whole sub-windows of their rates.
  double OpsPerSec() const;
};

enum class PhaseMode { kPreload, kClosed, kOpen };

struct PhaseSpec {
  PhaseMode mode = PhaseMode::kClosed;
  std::uint64_t start_ns = 0;    // absolute; every thread starts together
  std::uint64_t measure_ns = 0;  // measured window opens at start + warm-up
  std::uint64_t end_ns = 0;      // no new requests at or after this
  int window = 0;                // closed loop / preload: outstanding per conn
  double offered_rate = 0.0;     // open loop: requests/s over all conns
  std::uint64_t subwindow_ns = 1'000'000'000;  // latency sub-windows
  int total_conns = 4;
};

class Conn {
 public:
  Conn(int index, const KeySpace* keys, IssuedSeqs* issued);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(std::uint16_t port);
  int index() const noexcept { return index_; }

  // Record up to `limit` of the next requests' bytes (traced passes).
  void StartRecording(std::size_t limit) {
    recorded_.clear();
    record_limit_ = limit;
  }
  std::vector<RecordedRequest> TakeRecorded() {
    record_limit_ = 0;
    return std::move(recorded_);
  }

 private:
  friend PhaseTally RunConnPhase(const PhaseSpec& spec, const std::vector<Conn*>& conns);
  struct Pending {
    std::uint64_t due = 0;
    std::uint64_t key_id = 0;
    std::uint64_t request = 0;
    bool get = true;
  };
  Op NextOp();
  void Enqueue(const Op& op, std::uint64_t due, PhaseTally* tally);
  bool Flush();                      // false: connection died
  // Read what arrived and settle complete responses.
  bool ReadResponses(PhaseTally* tally, const PhaseSpec& spec);
  void Settle(const Pending& p, bool ok, std::uint64_t now, const PhaseSpec& spec,
              PhaseTally* tally);
  void FailPending(PhaseTally* tally, const PhaseSpec& spec);

  int index_;
  const KeySpace* keys_;
  IssuedSeqs* issued_;
  int fd_ = -1;
  bool dead_ = false;
  cuckoo::Xorshift128Plus rng_;
  std::unique_ptr<cuckoo::ZipfGenerator> zipf_;
  std::uint64_t next_request_ = 1;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
  std::size_t in_off_ = 0;
  std::deque<Pending> pending_;
  std::size_t record_limit_ = 0;
  std::vector<RecordedRequest> recorded_;
};

// Drives one generator thread's connections through one phase.
PhaseTally RunConnPhase(const PhaseSpec& spec, const std::vector<Conn*>& conns);

enum class Outcome { kNeedMore, kOk, kServerError, kMismatch };

// Settle the response to a request for `key_id` at the head of `buf`: a
// set must be STORED; a get must return, byte-exact, a value that a writer
// issued for that key. *consumed is set on anything but kNeedMore.
Outcome ParseResponse(std::string_view buf, bool get, std::uint64_t key_id, const KeySpace& keys,
                      const IssuedSeqs& issued, std::size_t* consumed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_KV_CLIENT_H_
