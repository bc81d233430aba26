// Sequential reader over a live WAL directory, used by the replication hub
// to stream records to replicas.
//
// A tailer positions itself at an arbitrary start LSN (anchoring at the
// newest segment whose first_lsn <= start, exactly like replay), then pulls
// records one at a time in LSN order, following segment rotations as the
// writer creates new files. Reads are gated on the writer's written-LSN
// watermark (WriteAheadLog::WrittenLsn()): a frame is only decoded once the
// write() covering it has returned, so the tailer never observes a partial
// frame on a healthy log — page-cache coherence makes the appended bytes
// immediately visible on this separate read fd. Under fsync=always the
// segment holds zero fill past its records, which the writer later
// overwrites in place; bytes read past the last good frame are therefore
// never trusted: a frame that fails to decode is read again from its own
// offset, and zeros there mean "no more records yet" (or, once the next
// segment exists, the end of this one).
//
// Single-threaded: each replica sender owns one tailer. Open() fails when
// the log no longer holds the requested LSN (segment GC'd) — the caller
// falls back to a full snapshot resync.
#ifndef SRC_PERSIST_WAL_TAILER_H_
#define SRC_PERSIST_WAL_TAILER_H_

#include <cstdint>
#include <string>

#include "src/persist/wal.h"

namespace cuckoo {
namespace persist {

class WalTailer {
 public:
  WalTailer() = default;
  ~WalTailer() { Close(); }

  WalTailer(const WalTailer&) = delete;
  WalTailer& operator=(const WalTailer&) = delete;

  // Position the tailer so the next delivered record has lsn == start_lsn.
  // Returns false (with *error set) when no surviving segment covers
  // start_lsn — the tail was GC'd past it, or the directory is empty.
  bool Open(const std::string& dir, std::uint64_t start_lsn, std::string* error);

  enum class Result : std::uint8_t {
    kRecord,    // *out holds the next record
    kCaughtUp,  // nothing at or below `watermark` yet; retry after the next commit
    kError,     // corruption / I/O failure; the stream cannot continue
  };

  // Non-blocking pull of the next record, bounded by the writer's current
  // written-LSN watermark.
  Result Next(std::uint64_t watermark, WalRecord* out, std::string* error);

  // Next LSN still to be delivered (== the smallest LSN this tailer still
  // needs on disk; feeds WAL-GC holdback).
  std::uint64_t next_lsn() const { return next_lsn_; }

  void Close();

 private:
  // Open dir_/wal-<first_lsn>.log and validate its header. kCaughtUp-style
  // false with empty *error means "header not fully written yet, retry".
  enum class SegOpen : std::uint8_t { kOk, kRetry, kError };
  SegOpen OpenSegment(std::uint64_t first_lsn, std::string* error);
  // Append up to one read chunk from the segment file at our read offset
  // onto buf_; *got is 0 at EOF. Returns false on I/O error.
  bool ReadMore(std::size_t* got);

  std::string dir_;
  std::uint64_t start_lsn_ = 0;  // records below this are skipped, not delivered
  std::uint64_t next_lsn_ = 0;   // next record to deliver
  std::uint64_t expected_lsn_ = 0;  // next record in the file (continuity check)
  int fd_ = -1;
  std::uint64_t file_offset_ = 0;  // file offset of buf_.end() in the current segment
  std::string buf_;
  std::size_t pos_ = 0;  // decode cursor within buf_
};

}  // namespace persist
}  // namespace cuckoo

#endif  // SRC_PERSIST_WAL_TAILER_H_
