#include "src/persist/wal_tailer.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/file_util.h"

namespace cuckoo {
namespace persist {
namespace {

// One read per call: a caught-up tailer re-reads from its next frame on every
// commit, and under fsync=always what follows that frame is mostly zero fill.
constexpr std::size_t kReadChunk = 64u << 10;
// Drop consumed buffer prefix once it grows past this.
constexpr std::size_t kCompactThreshold = 1u << 20;

bool SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) {
    *error = msg;
  }
  return false;
}

}  // namespace

bool WalTailer::Open(const std::string& dir, std::uint64_t start_lsn, std::string* error) {
  Close();
  dir_ = dir;
  start_lsn_ = start_lsn;
  next_lsn_ = start_lsn;

  std::vector<std::uint64_t> segments;
  for (const std::string& name : ListFilesWithPrefix(dir_, "wal-")) {
    std::uint64_t first = 0;
    if (internal::ParseSegmentName(name, &first)) {
      segments.push_back(first);
    }
  }
  std::sort(segments.begin(), segments.end());
  // Newest segment whose first_lsn <= start_lsn; older ones hold only
  // already-covered records (same anchoring rule as replay).
  std::uint64_t anchor = 0;
  bool found = false;
  for (const std::uint64_t first : segments) {
    if (first <= start_lsn) {
      anchor = first;
      found = true;
    }
  }
  if (!found) {
    return SetError(error, "WAL no longer holds lsn " + std::to_string(start_lsn) +
                               " (GC'd or empty dir); full resync required");
  }
  expected_lsn_ = anchor;
  const SegOpen r = OpenSegment(anchor, error);
  if (r == SegOpen::kError) {
    return false;
  }
  if (r == SegOpen::kRetry) {
    // The anchor is the writer's brand-new segment whose header hasn't
    // landed yet. Extremely narrow window; treat as open-at-EOF — Next()
    // keeps retrying the header via the rotation path.
    fd_ = -1;
  }
  return true;
}

WalTailer::SegOpen WalTailer::OpenSegment(std::uint64_t first_lsn, std::string* error) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
  pos_ = 0;
  file_offset_ = 0;
  const std::string path = dir_ + "/" + internal::SegmentName(first_lsn);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    SetError(error, "cannot open WAL segment " + path);
    return SegOpen::kError;
  }
  char header[internal::kWalHeaderSize];
  std::size_t off = 0;
  while (off < sizeof(header)) {
    const ssize_t n = ::pread(fd, header + off, sizeof(header) - off, off);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  if (off < sizeof(header)) {
    // Header not fully written yet (writer mid-StartSegment).
    ::close(fd);
    return SegOpen::kRetry;
  }
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::uint64_t header_first = 0;
  std::memcpy(&version, header + 8, sizeof(version));
  std::memcpy(&flags, header + 12, sizeof(flags));
  std::memcpy(&header_first, header + 16, sizeof(header_first));
  if (std::memcmp(header, internal::kWalMagic, 8) != 0 ||
      version != internal::kWalVersion || flags != 0 || header_first != first_lsn) {
    ::close(fd);
    SetError(error, "corrupt WAL segment header: " + path);
    return SegOpen::kError;
  }
  fd_ = fd;
  file_offset_ = internal::kWalHeaderSize;
  return SegOpen::kOk;
}

bool WalTailer::ReadMore(std::size_t* got) {
  char chunk[kReadChunk];
  ssize_t n;
  do {
    n = ::pread(fd_, chunk, sizeof(chunk), static_cast<off_t>(file_offset_));
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    return false;
  }
  buf_.append(chunk, static_cast<std::size_t>(n));
  file_offset_ += static_cast<std::uint64_t>(n);
  *got = static_cast<std::size_t>(n);
  return true;
}

WalTailer::Result WalTailer::Next(std::uint64_t watermark, WalRecord* out,
                                  std::string* error) {
  // Whether buf_ past pos_ was read after the frame at pos_ failed to decode.
  bool reread = false;
  for (;;) {
    // LSNs are strictly sequential, so the next frame in the file is exactly
    // expected_lsn_; past the watermark it may still be mid-write().
    if (expected_lsn_ > watermark) {
      return Result::kCaughtUp;
    }
    if (fd_ < 0) {
      // Waiting for a new segment's header (see Open / rotation below).
      const SegOpen r = OpenSegment(expected_lsn_, error);
      if (r == SegOpen::kError) {
        return Result::kError;
      }
      if (r == SegOpen::kRetry) {
        return Result::kCaughtUp;
      }
      continue;
    }
    if (pos_ >= kCompactThreshold) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    std::size_t p = pos_;
    WalRecord record;
    if (internal::DecodeWalRecord(buf_, &p, &record) == 1) {
      if (record.lsn != expected_lsn_) {
        SetError(error, "WAL tail LSN discontinuity: expected " +
                            std::to_string(expected_lsn_) + " got " +
                            std::to_string(record.lsn));
        return Result::kError;
      }
      pos_ = p;
      reread = false;
      ++expected_lsn_;
      if (record.lsn < start_lsn_) {
        continue;  // anchor-segment prefix the replica already has
      }
      next_lsn_ = record.lsn + 1;
      *out = std::move(record);
      return Result::kRecord;
    }
    // The frame at pos_ does not decode from buf_. Bytes buffered past the
    // last good frame may have been read before the writer reached them —
    // zero fill it has since overwritten — so drop them once and read again
    // from the frame's own offset.
    if (!reread) {
      file_offset_ -= buf_.size() - pos_;
      buf_.resize(pos_);
      reread = true;
    }
    std::size_t got = 0;
    if (!ReadMore(&got)) {
      SetError(error, "WAL tail read error: " + std::string(std::strerror(errno)));
      return Result::kError;
    }
    const bool zeros_only = internal::IsZeroFill(buf_, pos_);
    if (got > 0 && !zeros_only) {
      continue;
    }
    // At the end of this segment's records (EOF or zero fill) with a record
    // still owed (expected_lsn_ <= watermark). Either the writer rotated —
    // the record lives in the next segment, which always begins at exactly
    // expected_lsn_ — or the file grew between our read and this check.
    // Rotation leaves no partial frame behind, so leftover nonzero bytes
    // here mean corruption.
    const std::string next_path = dir_ + "/" + internal::SegmentName(expected_lsn_);
    if (FileExists(next_path)) {
      if (!zeros_only) {
        SetError(error, "trailing garbage before WAL segment rotation at lsn " +
                            std::to_string(expected_lsn_));
        return Result::kError;
      }
      const SegOpen r = OpenSegment(expected_lsn_, error);
      if (r == SegOpen::kError) {
        return Result::kError;
      }
      if (r == SegOpen::kRetry) {
        fd_ = -1;
        return Result::kCaughtUp;
      }
      continue;
    }
    return Result::kCaughtUp;
  }
}

void WalTailer::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
  pos_ = 0;
  file_offset_ = 0;
}

}  // namespace persist
}  // namespace cuckoo
