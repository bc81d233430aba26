// Small POSIX file helpers for the durability subsystem: fsync-aware append
// files (optionally zero-filled ahead of the writer), directory fsync
// (persist a create/rename), atomic replace-by-rename, and directory listing.
// All functions report failure by return value and leave errno intact for the
// caller's diagnostics.
#ifndef SRC_COMMON_FILE_UTIL_H_
#define SRC_COMMON_FILE_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cuckoo {

// An append-only file descriptor wrapper. Not thread-safe; the WAL serializes
// access through its log-writer thread.
//
// Writes go to a tracked offset (pwrite), not O_APPEND, so the file may run
// past its records: ZeroFill() writes zeros ahead of the write offset, and
// later Appends overwrite them in place. Once those zeros are synced, an
// fdatasync after an in-place Append flushes data only — the file size, and
// so the filesystem journal, does not change.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile() { Close(); }

  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  // Open (creating if needed). `truncate` discards existing contents;
  // otherwise the write position is the current end of file.
  bool Open(const std::string& path, bool truncate);

  bool IsOpen() const noexcept { return fd_ >= 0; }
  const std::string& path() const noexcept { return path_; }

  // Write every byte at the write offset (restarting on EINTR / short
  // writes) and advance it.
  bool Append(std::string_view bytes);

  // Write `bytes` zeros at the end of the file (past the write offset and
  // any earlier fill), without moving the write offset. No sync of its own:
  // the next Sync() makes the zeros and the new file size durable together.
  // False on a failed or short write; the file then holds at most a partial
  // run of zeros, which later Appends overwrite like any other.
  bool ZeroFill(std::uint64_t bytes);

  // Cut the file back to Size(), dropping any zero fill past the records.
  bool TruncateToSize();

  bool Sync();   // fdatasync (falls back to fsync)
  bool Close();  // idempotent

  // The write offset: bytes appended through this handle plus the
  // pre-existing size at Open. Zero fill past it does not count.
  std::uint64_t Size() const noexcept { return size_; }
  // End of the file as written through this handle: Size() plus any zero
  // fill still ahead of the write offset.
  std::uint64_t FilledEnd() const noexcept { return size_ > filled_ ? size_ : filled_; }

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t size_ = 0;
  std::uint64_t filled_ = 0;  // end of the last ZeroFill
};

// Read a whole file into *out. Returns false (and clears *out) on error.
bool ReadFileToString(const std::string& path, std::string* out);

// Write `contents` to `path` atomically: write to `path + ".tmp"`, fsync,
// rename over `path`, fsync the parent directory.
bool WriteFileAtomic(const std::string& path, std::string_view contents);

// fsync the directory itself so a freshly created/renamed entry is durable.
bool SyncDir(const std::string& dir);

// mkdir -p for one level (parent must exist). Succeeds if already a directory.
bool EnsureDir(const std::string& dir);

// Names (not paths) of regular files in `dir` starting with `prefix`, sorted.
std::vector<std::string> ListFilesWithPrefix(const std::string& dir,
                                             const std::string& prefix);

// Truncate `path` to `size` bytes. Used to drop a torn WAL tail.
bool TruncateFile(const std::string& path, std::uint64_t size);

bool RemoveFile(const std::string& path);

bool FileExists(const std::string& path);

std::uint64_t FileSize(const std::string& path);  // 0 if missing

}  // namespace cuckoo

#endif  // SRC_COMMON_FILE_UTIL_H_
