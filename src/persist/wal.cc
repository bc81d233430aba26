#include "src/persist/wal.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/await.h"
#include "src/common/crc32c.h"
#include "src/common/timing.h"

namespace cuckoo {
namespace persist {
namespace {

std::uint64_t SteadyMs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

template <typename T>
void AppendPod(std::string* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadPod(const std::string& bytes, std::size_t* pos, T* out) {
  if (bytes.size() - *pos < sizeof(T)) {
    return false;
  }
  std::memcpy(out, bytes.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

void EncodeFields(std::string* out, std::uint64_t lsn, WalRecord::Type type,
                  std::uint32_t flags, std::uint64_t expires_at, std::uint64_t cas_id,
                  std::string_view key, std::string_view data) {
  std::string payload;
  payload.reserve(8 + 1 + 4 + 8 + 8 + 4 + 4 + key.size() + data.size());
  AppendPod(&payload, lsn);
  AppendPod(&payload, static_cast<std::uint8_t>(type));
  AppendPod(&payload, flags);
  AppendPod(&payload, expires_at);
  AppendPod(&payload, cas_id);
  AppendPod(&payload, static_cast<std::uint32_t>(key.size()));
  AppendPod(&payload, static_cast<std::uint32_t>(data.size()));
  payload.append(key);
  payload.append(data);

  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::uint32_t crc = Crc32c(&len, sizeof(len));
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  AppendPod(out, Crc32cMask(crc));
  AppendPod(out, len);
  out->append(payload);
}

}  // namespace

namespace internal {

bool IsZeroFill(const std::string& bytes, std::size_t from) {
  return std::all_of(bytes.begin() + static_cast<std::ptrdiff_t>(from), bytes.end(),
                     [](char c) { return c == 0; });
}

int DecodeWalRecord(const std::string& bytes, std::size_t* pos, WalRecord* out) {
  std::size_t p = *pos;
  std::uint32_t stored_crc = 0;
  std::uint32_t len = 0;
  if (!ReadPod(bytes, &p, &stored_crc) || !ReadPod(bytes, &p, &len)) {
    return 0;
  }
  if (len > internal::kMaxRecordPayload || bytes.size() - p < len) {
    return 0;
  }
  std::uint32_t crc = Crc32c(&len, sizeof(len));
  crc = Crc32cExtend(crc, bytes.data() + p, len);
  if (Crc32cMask(crc) != stored_crc) {
    return 0;
  }
  const std::size_t payload_end = p + len;
  std::uint8_t type = 0;
  std::uint32_t klen = 0;
  std::uint32_t dlen = 0;
  if (!ReadPod(bytes, &p, &out->lsn) || !ReadPod(bytes, &p, &type) ||
      !ReadPod(bytes, &p, &out->flags) || !ReadPod(bytes, &p, &out->expires_at) ||
      !ReadPod(bytes, &p, &out->cas_id) || !ReadPod(bytes, &p, &klen) ||
      !ReadPod(bytes, &p, &dlen)) {
    return 0;
  }
  if (type != static_cast<std::uint8_t>(WalRecord::Type::kSet) &&
      type != static_cast<std::uint8_t>(WalRecord::Type::kDelete) &&
      type != static_cast<std::uint8_t>(WalRecord::Type::kSetTiered)) {
    return 0;
  }
  if (payload_end - p != static_cast<std::uint64_t>(klen) + dlen) {
    return 0;
  }
  out->type = static_cast<WalRecord::Type>(type);
  out->key.assign(bytes, p, klen);
  out->data.assign(bytes, p + klen, dlen);
  *pos = payload_end;
  return 1;
}

}  // namespace internal

bool ParseFsyncPolicy(std::string_view name, FsyncPolicy* out) {
  if (name == "always") {
    *out = FsyncPolicy::kAlways;
  } else if (name == "everysec") {
    *out = FsyncPolicy::kEverySec;
  } else if (name == "none") {
    *out = FsyncPolicy::kNone;
  } else {
    return false;
  }
  return true;
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kEverySec:
      return "everysec";
    case FsyncPolicy::kNone:
      return "none";
  }
  return "?";
}

namespace internal {

void EncodeWalRecord(const WalRecord& record, std::string* out) {
  EncodeFields(out, record.lsn, record.type, record.flags, record.expires_at, record.cas_id,
               record.key, record.data);
}

std::string SegmentName(std::uint64_t first_lsn) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.log",
                static_cast<unsigned long long>(first_lsn));
  return buf;
}

bool ParseSegmentName(const std::string& name, std::uint64_t* first_lsn) {
  unsigned long long lsn = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "wal-%llu.log%n", &lsn, &consumed) != 1 ||
      static_cast<std::size_t>(consumed) != name.size()) {
    return false;
  }
  *first_lsn = lsn;
  return true;
}

}  // namespace internal

bool WriteAheadLog::Open(WalOptions options, std::uint64_t next_lsn) {
  assert(next_lsn >= 1);
  options_ = std::move(options);
  if (!EnsureDir(options_.dir)) {
    return false;
  }
  next_lsn_.store(next_lsn, std::memory_order_release);
  durable_lsn_.store(next_lsn - 1, std::memory_order_release);
  written_lsn_.store(next_lsn - 1, std::memory_order_release);
  {
    MutexLock io(io_mutex_);
    segment_next_lsn_ = next_lsn;
    // Always begin a fresh segment: replay never has to scan past the torn
    // tail of an old one, and the name collision case (an empty segment left
    // by a previous run) is safely overwritten because an empty segment
    // contributes no LSNs.
    if (!StartSegment(next_lsn)) {
      return false;
    }
    last_fsync_ms_ = SteadyMs();
  }
  {
    MutexLock lk(mutex_);
    assert(!started_);
    shutdown_ = false;
    started_ = true;
  }
  io_error_.store(false, std::memory_order_release);
  inject_io_error_.store(false, std::memory_order_release);
  writer_ = std::thread(&WriteAheadLog::WriterLoop, this);
  return true;
}

bool WriteAheadLog::StartSegment(std::uint64_t first_lsn) {
  const std::string path = options_.dir + "/" + internal::SegmentName(first_lsn);
  file_.Close();
  if (!file_.Open(path, /*truncate=*/true)) {
    return false;
  }
  std::string header;
  header.append(internal::kWalMagic, sizeof(internal::kWalMagic));
  AppendPod(&header, internal::kWalVersion);
  AppendPod(&header, std::uint32_t{0});  // flags
  AppendPod(&header, first_lsn);
  if (!file_.Append(header) || !file_.Sync() || !SyncDir(options_.dir)) {
    return false;
  }
  segment_first_lsn_ = first_lsn;
  segments_created_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint64_t WriteAheadLog::Append(WalRecord::Type type, std::string_view key,
                                    std::string_view data, std::uint32_t flags,
                                    std::uint64_t expires_at, std::uint64_t cas_id) {
  MutexLock lk(mutex_);
  // LSN assignment and batch-buffer append happen under one mutex hold, so
  // buffer order always equals LSN order.
  const std::uint64_t lsn = next_lsn_.fetch_add(1, std::memory_order_acq_rel);
  const std::size_t before = pending_.size();
  EncodeFields(&pending_, lsn, type, flags, expires_at, cas_id, key, data);
  pending_max_lsn_ = lsn;
  ++pending_records_;
  bytes_appended_.fetch_add(pending_.size() - before, std::memory_order_relaxed);
  records_appended_.fetch_add(1, std::memory_order_relaxed);
  work_cv_.notify_one();
  return lsn;
}

bool WriteAheadLog::AppendReplicated(const WalRecord& record) {
  MutexLock lk(mutex_);
  // The replicated stream must stay contiguous with the local log; a gap
  // here would be exactly the LSN hole replay rejects.
  const std::uint64_t expected = next_lsn_.load(std::memory_order_relaxed);
  if (record.lsn != expected) {
    return false;
  }
  next_lsn_.store(expected + 1, std::memory_order_release);
  const std::size_t before = pending_.size();
  EncodeFields(&pending_, record.lsn, record.type, record.flags, record.expires_at,
               record.cas_id, record.key, record.data);
  pending_max_lsn_ = record.lsn;
  ++pending_records_;
  bytes_appended_.fetch_add(pending_.size() - before, std::memory_order_relaxed);
  records_appended_.fetch_add(1, std::memory_order_relaxed);
  work_cv_.notify_one();
  return true;
}

bool WriteAheadLog::AckThrough(std::uint64_t lsn, bool stopped, std::uint64_t* through) const {
  // io_error_ first: the writer never advances durable_lsn_ after setting
  // it, so once it reads true the watermark below is final.
  const bool failed = io_error_.load(std::memory_order_acquire);
  const std::uint64_t durable = durable_lsn_.load(std::memory_order_acquire);
  if (failed) {
    *through = durable;  // what an fsync covered stays durable; nothing more
    return true;
  }
  if (options_.fsync_policy != FsyncPolicy::kAlways) {
    *through = lsn;  // weaker policies ack on enqueue
    return true;
  }
  *through = durable;
  return durable >= lsn || stopped;
}

void WriteAheadLog::NotifyDurable(std::uint64_t lsn, DurableFn done) {
  std::uint64_t through = 0;
  {
    MutexLock lk(mutex_);
    if (!AckThrough(lsn, !started_, &through)) {
      waiters_.push_back(DurableWaiter{lsn, std::move(done)});
      return;
    }
  }
  done(through);
}

bool WriteAheadLog::DurableNow(std::uint64_t lsn, bool* durable) const {
  std::uint64_t through = 0;
  if (!AckThrough(lsn, /*stopped=*/false, &through)) {
    return false;  // the covering fsync is still due
  }
  *durable = lsn <= through;
  return true;
}

bool WriteAheadLog::WaitDurable(std::uint64_t lsn) {
  bool durable = false;
  if (DurableNow(lsn, &durable)) {
    return durable;
  }
  return Await<std::uint64_t>([&](DurableFn done) { NotifyDurable(lsn, std::move(done)); }) >=
         lsn;
}

std::vector<WriteAheadLog::DecidedWaiter> WriteAheadLog::TakeDecidedWaiters() {
  std::vector<DecidedWaiter> decided;
  std::size_t kept = 0;
  for (DurableWaiter& waiter : waiters_) {
    std::uint64_t through = 0;
    if (AckThrough(waiter.lsn, !started_, &through)) {
      decided.emplace_back(std::move(waiter.done), through);
    } else {
      if (&waiters_[kept] != &waiter) {
        waiters_[kept] = std::move(waiter);
      }
      ++kept;
    }
  }
  waiters_.resize(kept);
  return decided;
}

void WriteAheadLog::RunWaiters(std::vector<DecidedWaiter> decided) {
  for (auto& [done, through] : decided) {
    done(through);
  }
}

bool WriteAheadLog::Flush() {
  MutexLock lk(mutex_);
  if (!started_) {
    return !io_error_.load(std::memory_order_acquire);
  }
  flush_requested_ = true;
  const std::uint64_t my_gen = ++flush_generation_;
  work_cv_.notify_one();
  while (!(flushes_done_ >= my_gen || io_error_.load(std::memory_order_relaxed) ||
           !started_)) {
    flush_cv_.wait(lk.native_handle());
  }
  return !io_error_.load(std::memory_order_relaxed);
}

void WriteAheadLog::Shutdown() {
  {
    MutexLock lk(mutex_);
    if (!started_) {
      return;
    }
    shutdown_ = true;
    work_cv_.notify_one();
  }
  writer_.join();
  std::vector<DecidedWaiter> decided;
  {
    MutexLock lk(mutex_);
    started_ = false;
    flush_cv_.notify_all();
    decided = TakeDecidedWaiters();
  }
  RunWaiters(std::move(decided));
  MutexLock io(io_mutex_);
  // Best effort: replay also accepts a zero tail left behind.
  file_.TruncateToSize();
  file_.Close();
}

bool WriteAheadLog::SyncLocked() {
  while (hold_sync_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Value-log bytes before the records that point at them: the hook's
  // failure fails the sync, so no ack ever covers a record whose value
  // bytes might be lost.
  const std::uint64_t start = NowNanos();
  const bool ok = (!sync_hook_ || sync_hook_()) && file_.Sync();
  sync_ns_hist_.Record(NowNanos() - start);
  return ok;
}

void WriteAheadLog::PrefillLocked(std::size_t batch_bytes) {
  const std::uint64_t filled = file_.FilledEnd();
  if (options_.fsync_policy != FsyncPolicy::kAlways || file_.Size() + batch_bytes <= filled) {
    return;
  }
  // Capped at the rotation point: the segment is cut back there anyway.
  const std::uint64_t end = std::min(filled + internal::kWalPrefillChunk, options_.segment_bytes);
  if (end > filled) {
    // The outcome is not checked: a failed or short fill leaves the batch
    // to grow the file itself, and its own write and sync decide its fate.
    file_.ZeroFill(end - filled);
    prefill_bytes_.fetch_add(file_.FilledEnd() - filled, std::memory_order_relaxed);
  }
}

void WriteAheadLog::WriterLoop() {
  // Swapped with pending_ on every drain, so appenders reuse its capacity.
  std::string batch;
  for (;;) {
    if (batch.capacity() > internal::kMaxRecycledBatch) {
      std::string().swap(batch);
    } else {
      batch.clear();
    }
    std::uint64_t batch_max_lsn = 0;
    std::uint64_t batch_records = 0;
    std::uint64_t flush_gen = 0;
    bool do_flush = false;
    bool stopping = false;
    {
      MutexLock lk(mutex_);
      // Single timed wait instead of the predicate overload (see
      // src/common/mutex.h). A spurious wakeup just drains an empty batch and
      // re-enters the wait; the 200 ms cap bounds the everysec fsync lag
      // either way.
      if (!(shutdown_ || flush_requested_ || !pending_.empty())) {
        work_cv_.wait_for(lk.native_handle(), std::chrono::milliseconds(200));
      }
      batch.swap(pending_);
      batch_max_lsn = pending_max_lsn_;
      batch_records = pending_records_;
      pending_records_ = 0;
      do_flush = flush_requested_;
      flush_requested_ = false;
      flush_gen = flush_generation_;
      stopping = shutdown_;
    }

    bool synced = false;
    bool ok = true;
    std::uint64_t written_max = 0;
    {
      MutexLock io(io_mutex_);
      // Freeze the file after the first failure: a batch that failed (or was
      // dropped) is an LSN hole, and appending later batches past it would
      // corrupt the valid on-disk prefix that replay can still recover.
      if (io_error_.load(std::memory_order_relaxed) ||
          inject_io_error_.exchange(false, std::memory_order_acq_rel)) {
        ok = false;
      }
      if (ok && !batch.empty()) {
        PrefillLocked(batch.size());
        ok = file_.Append(batch);
        group_commits_.fetch_add(1, std::memory_order_relaxed);
        batch_records_hist_.Record(batch_records);
        std::uint64_t prev = max_batch_records_.load(std::memory_order_relaxed);
        while (batch_records > prev &&
               !max_batch_records_.compare_exchange_weak(prev, batch_records,
                                                         std::memory_order_relaxed)) {
        }
        segment_next_lsn_ = batch_max_lsn + 1;
      }
      written_max = segment_next_lsn_ - 1;  // high-water mark in the file
      const std::uint64_t now_ms = SteadyMs();
      const bool unsynced_tail = written_max > durable_lsn_.load(std::memory_order_relaxed);
      const bool want_sync =
          ok && (do_flush || stopping ||
                 (options_.fsync_policy == FsyncPolicy::kAlways && !batch.empty()) ||
                 (options_.fsync_policy == FsyncPolicy::kEverySec && unsynced_tail &&
                  now_ms - last_fsync_ms_ >= 1000));
      if (want_sync) {
        ok = SyncLocked() && ok;
        if (ok) {
          synced = true;
          last_fsync_ms_ = now_ms;
          fsyncs_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Rotate after the batch is safely down; the next batch opens fresh.
      // The pre-rotation fsync makes everything in the old segment durable,
      // so it advances durable_lsn_ exactly like a want_sync fsync (skipped
      // when this batch already synced above — the data is already down).
      if (ok && file_.Size() >= options_.segment_bytes) {
        if (!synced) {
          ok = SyncLocked();
          if (ok) {
            synced = true;
            last_fsync_ms_ = now_ms;
            fsyncs_.fetch_add(1, std::memory_order_relaxed);
          }
        }
        ok = ok && RotateLocked(segment_next_lsn_);
      }
    }

    if (ok && written_max > written_lsn_.load(std::memory_order_relaxed)) {
      written_lsn_.store(written_max, std::memory_order_release);
    }

    bool exiting = false;
    std::vector<DecidedWaiter> decided;
    {
      MutexLock lk(mutex_);
      if (!ok) {
        io_error_.store(true, std::memory_order_release);
      } else {
        if (synced && written_max > durable_lsn_.load(std::memory_order_relaxed)) {
          durable_lsn_.store(written_max, std::memory_order_release);
        }
        if (do_flush) {
          flushes_done_ = flush_gen;
        }
      }
      flush_cv_.notify_all();
      if (!waiters_.empty()) {
        decided = TakeDecidedWaiters();
      }
      exiting = stopping && pending_.empty();
    }
    // Waiter callbacks run outside both mutexes, like the commit sink: they
    // may post to event loops or register with the replication hub.
    RunWaiters(std::move(decided));
    // Fan the commit out to replication after the watermarks advanced, from
    // outside both mutexes: the sink may wake sender threads that turn
    // around and read WAL state.
    if (ok && !batch.empty() && commit_sink_) {
      commit_sink_(written_max, durable_lsn_.load(std::memory_order_acquire));
    }
    if (exiting) {
      return;
    }
  }
}

bool WriteAheadLog::RotateLocked(std::uint64_t first_lsn) {
  // Seal the segment at its record end. Best effort: replay also accepts a
  // zero tail on a sealed segment.
  file_.TruncateToSize();
  return StartSegment(first_lsn);
}

WalStats WriteAheadLog::Stats() const {
  WalStats s;
  s.records_appended = records_appended_.load(std::memory_order_relaxed);
  s.bytes_appended = bytes_appended_.load(std::memory_order_relaxed);
  s.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  s.group_commits = group_commits_.load(std::memory_order_relaxed);
  s.max_batch_records = max_batch_records_.load(std::memory_order_relaxed);
  s.segments_created = segments_created_.load(std::memory_order_relaxed);
  s.last_assigned_lsn = LastAssignedLsn();
  s.durable_lsn = DurableLsn();
  s.prefill_bytes = prefill_bytes_.load(std::memory_order_relaxed);
  s.io_error = InErrorState();
  return s;
}

void WriteAheadLog::RemoveSegmentsBelow(std::uint64_t lsn) {
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  for (const std::string& name : ListFilesWithPrefix(options_.dir, "wal-")) {
    std::uint64_t first = 0;
    if (internal::ParseSegmentName(name, &first)) {
      segments.emplace_back(first, name);
    }
  }
  std::sort(segments.begin(), segments.end());
  std::string active_path;
  {
    MutexLock io(io_mutex_);
    active_path = file_.path();
  }
  bool removed = false;
  // Segment i holds LSNs [first_i, first_{i+1}); it is fully covered by a
  // snapshot at `lsn` iff first_{i+1} <= lsn + 1.
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    const std::string path = options_.dir + "/" + segments[i].second;
    if (segments[i + 1].first <= lsn + 1 && path != active_path) {
      removed = RemoveFile(path) || removed;
    }
  }
  if (removed) {
    SyncDir(options_.dir);
  }
}

bool ReplayWal(const std::string& dir, std::uint64_t start_lsn, bool truncate_torn_tail,
               const std::function<void(const WalRecord&)>& apply, WalReplayStats* stats,
               std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  for (const std::string& name : ListFilesWithPrefix(dir, "wal-")) {
    std::uint64_t first = 0;
    if (internal::ParseSegmentName(name, &first)) {
      segments.emplace_back(first, name);
    }
  }
  std::sort(segments.begin(), segments.end());

  // Anchor at the NEWEST segment whose first_lsn <= start_lsn. Older
  // segments hold only records the snapshot already covers, and after a
  // crash that lost the un-fsynced WAL tail of a published snapshot
  // (fsync=everysec/none) they can legitimately end short of the next
  // segment's first LSN — scanning them would trip the continuity check on
  // every restart. If no segment starts at or below start_lsn we scan from
  // the oldest and let the caller's gap check reject the hole.
  std::size_t begin = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].first <= start_lsn) {
      begin = i;
    }
  }
  stats->segments_ignored = begin;

  std::uint64_t expected_lsn = 0;  // 0 = not yet anchored
  for (std::size_t i = begin; i < segments.size(); ++i) {
    const bool last_segment = i + 1 == segments.size();
    const std::string path = dir + "/" + segments[i].second;
    ++stats->segments;
    std::string bytes;
    if (!ReadFileToString(path, &bytes)) {
      return fail("cannot read WAL segment " + path);
    }

    // Header. A short/invalid header is tolerable only as the torn tail of
    // the final segment (crash during segment creation).
    bool header_ok = bytes.size() >= internal::kWalHeaderSize &&
                     std::memcmp(bytes.data(), internal::kWalMagic, 8) == 0;
    std::uint32_t version = 0;
    std::uint32_t flags = 0;
    std::uint64_t first_lsn = 0;
    if (header_ok) {
      std::size_t pos = 8;
      ReadPod(bytes, &pos, &version);
      ReadPod(bytes, &pos, &flags);
      ReadPod(bytes, &pos, &first_lsn);
      header_ok = version == internal::kWalVersion && flags == 0 &&
                  first_lsn == segments[i].first;
    }
    if (!header_ok) {
      if (!last_segment) {
        return fail("corrupt WAL segment header: " + path);
      }
      stats->truncated_tail = true;
      stats->torn_tail_bytes += bytes.size();
      if (truncate_torn_tail && !TruncateFile(path, 0)) {
        return fail("cannot truncate torn WAL segment " + path);
      }
      break;
    }
    if (expected_lsn == 0) {
      expected_lsn = first_lsn;  // anchor at the oldest surviving segment
      stats->anchor_lsn = first_lsn;
    } else if (first_lsn != expected_lsn) {
      return fail("WAL segment LSN discontinuity at " + path);
    }

    std::size_t pos = internal::kWalHeaderSize;
    while (pos < bytes.size()) {
      WalRecord record;
      const std::size_t record_start = pos;
      if (internal::DecodeWalRecord(bytes, &pos, &record) != 1) {
        // Zero fill up to the end of the file: this segment's records end
        // here. The next segment's header must still continue the LSNs.
        if (internal::IsZeroFill(bytes, record_start)) {
          if (truncate_torn_tail && !TruncateFile(path, record_start)) {
            return fail("cannot truncate zero fill in " + path);
          }
          break;
        }
        // Invalid frame: torn tail if and only if this is the end of the log.
        if (!last_segment) {
          return fail("corrupt WAL record mid-log in " + path);
        }
        stats->truncated_tail = true;
        stats->torn_tail_bytes += bytes.size() - record_start;
        if (truncate_torn_tail && !TruncateFile(path, record_start)) {
          return fail("cannot truncate torn WAL tail in " + path);
        }
        pos = bytes.size();
        break;
      }
      if (record.lsn != expected_lsn) {
        return fail("WAL record LSN discontinuity in " + path);
      }
      ++expected_lsn;
      if (record.lsn < start_lsn) {
        ++stats->records_skipped;  // already covered by the snapshot
        continue;
      }
      apply(record);
      ++stats->records_applied;
    }
  }
  stats->next_lsn = expected_lsn == 0 ? 1 : expected_lsn;
  return true;
}

}  // namespace persist
}  // namespace cuckoo
