// Write-ahead log with group commit for the KV server.
//
// Writers (event-loop threads inside table critical sections) call Append(),
// which assigns the next LSN, encodes the record into an in-memory batch
// buffer, and returns immediately — no I/O under the bucket locks. A single
// dedicated log-writer thread drains the batch: one write() for everything
// enqueued since the last drain, then at most one fsync for the whole batch
// (group commit). While the writer thread is inside write()+fsync, new
// appends pile into the next batch, so the commit batch size self-clocks to
// the arrival rate: with N writes awaiting their ack — N pipelined requests
// across any number of connections, since the socket path waits through
// NotifyDurable without blocking its event loop — each fsync acks ~N
// records (fsyncs << acks).
//
// Durability policies (Redis-style):
//   kAlways   — an ack (NotifyDurable, or its blocking form WaitDurable)
//               waits until an fsync covers lsn; every batch is fsynced.
//               Acked writes survive OS crash/power loss.
//   kEverySec — the writer thread fsyncs at most once per second; acks are
//               decided at enqueue (survives process crash, may lose <~1s
//               on OS crash).
//   kNone     — never fsync explicitly; the OS flushes on its schedule.
//
// On-disk format (host-endian; machine-local files, not interchange):
//   segment := header record*
//   header  := "CKWALSG1" u32 version=1 u32 flags=0 u64 first_lsn   (24 bytes)
//   record  := u32 masked_crc32c  u32 len  payload[len]
//   payload := u64 lsn  u8 type  u32 flags  u64 expires_at  u64 cas_id
//              u32 klen  u32 dlen  key[klen]  data[dlen]
// The CRC covers len and payload and is stored masked (see crc32c.h).
// Segments are named wal-<first_lsn>.log; LSNs are strictly sequential
// across segment boundaries, which replay verifies. A partially written
// record at the tail of the LAST segment is a torn tail (tolerated,
// truncated); anywhere else it is corruption.
#ifndef SRC_PERSIST_WAL_H_
#define SRC_PERSIST_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/file_util.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/obs/histogram.h"

namespace cuckoo {
namespace persist {

enum class FsyncPolicy : std::uint8_t { kAlways, kEverySec, kNone };

// "always" / "everysec" / "none".
bool ParseFsyncPolicy(std::string_view name, FsyncPolicy* out);
const char* FsyncPolicyName(FsyncPolicy policy);

struct WalRecord {
  // kSetTiered is a set whose value bytes live in the value log: `data`
  // holds the 16-byte encoded ValueLocation (see src/store/value_log.h)
  // instead of the value itself. Replay re-validates the location against
  // the log on disk before trusting it.
  enum class Type : std::uint8_t { kSet = 1, kDelete = 2, kSetTiered = 3 };
  std::uint64_t lsn = 0;
  Type type = Type::kSet;
  std::uint32_t flags = 0;
  std::uint64_t expires_at = 0;
  std::uint64_t cas_id = 0;
  std::string key;
  std::string data;
};

struct WalOptions {
  std::string dir;
  FsyncPolicy fsync_policy = FsyncPolicy::kEverySec;
  // Rotate to a fresh segment once the current one exceeds this.
  std::uint64_t segment_bytes = 64u << 20;
};

struct WalStats {
  std::uint64_t records_appended = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t group_commits = 0;  // writer-thread drain batches
  std::uint64_t max_batch_records = 0;
  std::uint64_t segments_created = 0;
  std::uint64_t last_assigned_lsn = 0;
  std::uint64_t durable_lsn = 0;
  bool io_error = false;  // sticky: the log hit an unrecoverable write/fsync failure
};

class WriteAheadLog {
 public:
  WriteAheadLog() = default;
  ~WriteAheadLog() { Shutdown(); }

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Create the directory if needed, start a fresh segment whose first LSN
  // will be `next_lsn` (recovery's next_lsn; 1 on a fresh dir), and start
  // the log-writer thread. Returns false on I/O failure.
  bool Open(WalOptions options, std::uint64_t next_lsn);

  // Assign the next LSN and enqueue the record for the writer thread.
  // Intended to be called inside a table critical section: does no file I/O
  // (only a short queue-mutex hold). Returns the assigned LSN.
  std::uint64_t Append(WalRecord::Type type, std::string_view key, std::string_view data,
                       std::uint32_t flags, std::uint64_t expires_at, std::uint64_t cas_id);

  // Replica-side append: enqueue a record PRESERVING its primary-assigned
  // LSN instead of allocating one. The stream must stay contiguous — returns
  // false (and enqueues nothing) if record.lsn is not exactly the next LSN.
  bool AppendReplicated(const WalRecord& record);

  // Whether `lsn` may be acked as durable. One rule decides every form:
  // under kAlways the LSNs an fsync covered (durable_lsn) are durable, a
  // later one is still due until the log fails or stops, and then it never
  // will be; weaker policies decide at once, at enqueue. After a write() or
  // fsync failure (full disk, dead device) the log is in a sticky I/O-error
  // state: nothing past the fsync watermark is ever promised again, so the
  // service effectively stops accepting writes (Redis AOF-error behavior)
  // until the log is reopened.
  //
  // NotifyDurable: run done(durable_through) exactly once — inline when
  // already decided, otherwise on the log-writer thread after the covering
  // group commit (or in Shutdown): LSNs <= durable_through are durable, the
  // rest never will be. DurableNow: true once `lsn` is decided, with
  // *durable set. WaitDurable: the blocking form of NotifyDurable.
  using DurableFn = std::function<void(std::uint64_t durable_through)>;
  void NotifyDurable(std::uint64_t lsn, DurableFn done);
  bool DurableNow(std::uint64_t lsn, bool* durable) const;
  bool WaitDurable(std::uint64_t lsn);

  // Drain everything enqueued so far to the file and fsync it, regardless of
  // policy. Used by graceful shutdown and before snapshot GC.
  bool Flush();

  // Flush, stop the writer thread, close the segment. Idempotent.
  void Shutdown();

  std::uint64_t LastAssignedLsn() const {
    return next_lsn_.load(std::memory_order_acquire) - 1;
  }
  std::uint64_t DurableLsn() const { return durable_lsn_.load(std::memory_order_acquire); }
  // Highest LSN whose record is fully written into a segment file (not
  // necessarily fsynced). A WAL tailer may decode frames up to and including
  // this watermark: the write() covering them completed before the store, so
  // page-cache reads on another fd see the whole frame.
  std::uint64_t WrittenLsn() const { return written_lsn_.load(std::memory_order_acquire); }
  // Total record bytes appended since Open (snapshot trigger input).
  std::uint64_t BytesAppended() const {
    return bytes_appended_.load(std::memory_order_relaxed);
  }
  // True once any write()/fsync has failed; sticky until the next Open.
  bool InErrorState() const { return io_error_.load(std::memory_order_acquire); }

  // Test-only: make the log-writer thread's next I/O pass fail, driving the
  // log into the sticky error state exactly as a full disk would.
  void InjectIoErrorForTesting() {
    inject_io_error_.store(true, std::memory_order_release);
  }

  // Test-only: while held, the log-writer thread stops just before each
  // fsync (after its write()), so a test can pile writes behind one commit.
  void HoldSyncForTesting(bool hold) { hold_sync_.store(hold, std::memory_order_release); }

  // Runs on the log-writer thread before every fsync that makes records
  // durable; false fails that sync like an fsync error (sticky). The
  // durability layer syncs the value log here, so one value-log sync covers
  // a whole group commit. Install before Open().
  void SetSyncHook(std::function<bool()> hook) { sync_hook_ = std::move(hook); }

  // Invoked by the log-writer thread after each group-commit drain that put
  // records into the file, with the new written/durable watermarks. Runs on
  // the writer thread outside both WAL mutexes; must be cheap and must not
  // call back into the log. Install before Open().
  using CommitSink = std::function<void(std::uint64_t written_lsn, std::uint64_t durable_lsn)>;
  void SetCommitSink(CommitSink sink) { commit_sink_ = std::move(sink); }

  WalStats Stats() const;

  // Distribution of records per group-commit drain batch (how well the
  // group commit amortizes: p50 of 1 = no batching, p50 of N = N acks per
  // write/fsync round).
  obs::HistogramSnapshot BatchRecordsSnapshot() const {
    return batch_records_hist_.Snapshot();
  }

  // Delete closed segments every record of which has lsn < `lsn` (i.e. fully
  // covered by a snapshot at `lsn`). The active segment is never removed.
  void RemoveSegmentsBelow(std::uint64_t lsn);

 private:
  struct DurableWaiter {
    std::uint64_t lsn = 0;
    DurableFn done;
  };
  // A waiter whose fate is decided: call done(through).
  using DecidedWaiter = std::pair<DurableFn, std::uint64_t>;

  void WriterLoop();
  // fsync the segment, running the sync hook first.
  bool SyncLocked() REQUIRES(io_mutex_);
  // The ack rule (see NotifyDurable): true once `lsn` is decided, with
  // *through set. `stopped`: the log is shut down.
  bool AckThrough(std::uint64_t lsn, bool stopped, std::uint64_t* through) const;
  // Remove the waiters whose fate is decided and return them, to be called
  // outside the mutex.
  std::vector<DecidedWaiter> TakeDecidedWaiters() REQUIRES(mutex_);
  static void RunWaiters(std::vector<DecidedWaiter> decided);
  bool RotateLocked(std::uint64_t first_lsn) REQUIRES(io_mutex_);
  bool StartSegment(std::uint64_t first_lsn) REQUIRES(io_mutex_);

  WalOptions options_;
  std::atomic<std::uint64_t> next_lsn_{1};
  std::atomic<std::uint64_t> durable_lsn_{0};
  std::atomic<std::uint64_t> written_lsn_{0};
  std::atomic<std::uint64_t> bytes_appended_{0};
  CommitSink commit_sink_;  // set before Open(), then read-only
  std::function<bool()> sync_hook_;  // set before Open(), then read-only

  // Batch state (guarded by mutex_): appenders encode into `pending_`, the
  // writer thread swaps it out and writes without holding mutex_.
  Mutex mutex_;
  std::condition_variable work_cv_;     // writer thread: work available
  std::condition_variable flush_cv_;    // Flush(): a drain pass finished
  std::string pending_ GUARDED_BY(mutex_);
  std::uint64_t pending_max_lsn_ GUARDED_BY(mutex_) = 0;
  std::uint64_t pending_records_ GUARDED_BY(mutex_) = 0;
  bool flush_requested_ GUARDED_BY(mutex_) = false;
  bool shutdown_ GUARDED_BY(mutex_) = false;
  std::uint64_t flush_generation_ GUARDED_BY(mutex_) = 0;  // completed explicit flushes
  std::uint64_t flushes_done_ GUARDED_BY(mutex_) = 0;
  std::vector<DurableWaiter> waiters_ GUARDED_BY(mutex_);  // NotifyDurable, kAlways
  // Sticky: set by the writer thread on any failed write()/fsync, read
  // lock-free by DurableNow and InErrorState.
  std::atomic<bool> io_error_{false};
  std::atomic<bool> inject_io_error_{false};
  std::atomic<bool> hold_sync_{false};

  // File state (writer thread + Flush path; guarded by io_mutex_).
  Mutex io_mutex_;
  AppendFile file_ GUARDED_BY(io_mutex_);
  std::uint64_t segment_first_lsn_ GUARDED_BY(io_mutex_) = 1;
  // First lsn the NEXT segment would get.
  std::uint64_t segment_next_lsn_ GUARDED_BY(io_mutex_) = 1;

  // Counters (writer thread only, read via Stats()).
  std::atomic<std::uint64_t> records_appended_{0};
  obs::Histogram batch_records_hist_;  // records per group-commit drain
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> group_commits_{0};
  std::atomic<std::uint64_t> max_batch_records_{0};
  std::atomic<std::uint64_t> segments_created_{0};
  std::uint64_t last_fsync_ms_ GUARDED_BY(io_mutex_) = 0;

  std::thread writer_;
  bool started_ GUARDED_BY(mutex_) = false;
};

struct WalReplayStats {
  std::uint64_t segments = 0;
  // Segments older than the replay anchor (every record covered by the
  // snapshot) that were skipped without being scanned.
  std::uint64_t segments_ignored = 0;
  std::uint64_t records_applied = 0;
  std::uint64_t records_skipped = 0;  // lsn < start_lsn (covered by snapshot)
  std::uint64_t next_lsn = 1;         // 1 + highest lsn seen (>= start_lsn)
  // first_lsn of the oldest surviving segment (0 = no segments). Recovery
  // uses this to detect a GC'd gap between a snapshot and the log.
  std::uint64_t anchor_lsn = 0;
  bool truncated_tail = false;
  std::uint64_t torn_tail_bytes = 0;
};

// Replay every record with lsn >= start_lsn through `apply`, in LSN order.
// Replay anchors at the NEWEST segment whose first_lsn <= start_lsn (older
// segments hold only records the snapshot already covers and are ignored —
// they may legitimately end short of the next segment's first LSN when a
// snapshot published ahead of the durable WAL tail before a crash under
// fsync=everysec/none). A malformed record at the tail of the last segment
// is treated as a torn write: replay stops there and, if
// `truncate_torn_tail`, the file is truncated to the last valid boundary. A
// malformed record anywhere else — or any LSN discontinuity from the anchor
// on — is unrecoverable corruption: returns false with a description in
// *error. An empty directory replays zero records.
bool ReplayWal(const std::string& dir, std::uint64_t start_lsn, bool truncate_torn_tail,
               const std::function<void(const WalRecord&)>& apply, WalReplayStats* stats,
               std::string* error);

namespace internal {

inline constexpr char kWalMagic[8] = {'C', 'K', 'W', 'A', 'L', 'S', 'G', '1'};
inline constexpr std::uint32_t kWalVersion = 1;
inline constexpr std::size_t kWalHeaderSize = 8 + 4 + 4 + 8;
inline constexpr std::size_t kRecordFrameSize = 4 + 4;  // crc + len
// Guard against absurd `len` fields from corruption: key <= 250 and
// data <= 1 MiB at the protocol layer, so 8 MiB of payload is impossible.
inline constexpr std::uint32_t kMaxRecordPayload = 8u << 20;

// Encode one record (frame + payload) onto *out.
void EncodeWalRecord(const WalRecord& record, std::string* out);

// Decode the record framed at *pos. Returns +1 on success (record in *out,
// *pos advanced) and 0 on a malformed/truncated frame (*pos untouched — the
// caller decides torn-tail vs corruption vs need-more-bytes).
int DecodeWalRecord(const std::string& bytes, std::size_t* pos, WalRecord* out);

// Segment file name for a given first LSN.
std::string SegmentName(std::uint64_t first_lsn);

// Parse "wal-<lsn>.log"; returns false if the name doesn't match.
bool ParseSegmentName(const std::string& name, std::uint64_t* first_lsn);

}  // namespace internal

}  // namespace persist
}  // namespace cuckoo

#endif  // SRC_PERSIST_WAL_H_
