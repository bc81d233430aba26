#include "src/common/file_util.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>

namespace cuckoo {
namespace {

// Source of ZeroFill's bytes, written one block at a time.
constexpr std::size_t kZeroBlock = 64u << 10;
const char kZeros[kZeroBlock] = {};

// pwrite every byte of `bytes` at `offset`, restarting on EINTR / short writes.
bool PwriteAll(int fd, const char* bytes, std::size_t len, std::uint64_t offset) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd, bytes + done, len - done, static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool AppendFile::Open(const std::string& path, bool truncate) {
  Close();
  int flags = O_WRONLY | O_CREAT | O_CLOEXEC;
  if (truncate) {
    flags |= O_TRUNC;
  }
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    return false;
  }
  path_ = path;
  if (truncate) {
    size_ = 0;
  } else {
    struct stat st;
    size_ = (::fstat(fd_, &st) == 0) ? static_cast<std::uint64_t>(st.st_size) : 0;
  }
  filled_ = size_;
  return true;
}

bool AppendFile::Append(std::string_view bytes) {
  if (fd_ < 0 || !PwriteAll(fd_, bytes.data(), bytes.size(), size_)) {
    return false;
  }
  size_ += bytes.size();
  return true;
}

bool AppendFile::ZeroFill(std::uint64_t bytes) {
  if (fd_ < 0) {
    return false;
  }
  filled_ = FilledEnd();
  const std::uint64_t end = filled_ + bytes;
  while (filled_ < end) {
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(kZeroBlock, end - filled_));
    if (!PwriteAll(fd_, kZeros, take, filled_)) {
      return false;
    }
    filled_ += take;
  }
  return true;
}

bool AppendFile::TruncateToSize() {
  if (fd_ < 0 || ::ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
    return false;
  }
  filled_ = size_;
  return true;
}

bool AppendFile::Sync() {
  if (fd_ < 0) {
    return false;
  }
#if defined(__linux__)
  return ::fdatasync(fd_) == 0;
#else
  return ::fsync(fd_) == 0;
#endif
}

bool AppendFile::Close() {
  if (fd_ < 0) {
    return true;
  }
  const bool ok = ::close(fd_) == 0;
  fd_ = -1;
  return ok;
}

bool ReadFileToString(const std::string& path, std::string* out) {
  out->clear();
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  char buffer[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      out->clear();
      return false;
    }
    if (n == 0) {
      break;
    }
    out->append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

bool WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  {
    AppendFile file;
    if (!file.Open(tmp, /*truncate=*/true) || !file.Append(contents) || !file.Sync() ||
        !file.Close()) {
      ::unlink(tmp.c_str());
      return false;
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  const std::size_t slash = path.find_last_of('/');
  return SyncDir(slash == std::string::npos ? std::string(".") : path.substr(0, slash));
}

bool SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

bool EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0) {
    return true;
  }
  if (errno != EEXIST) {
    return false;
  }
  struct stat st;
  return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::vector<std::string> ListFilesWithPrefix(const std::string& dir,
                                             const std::string& prefix) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return names;
  }
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() < prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    struct stat st;
    if (::stat((dir + "/" + name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

bool TruncateFile(const std::string& path, std::uint64_t size) {
  return ::truncate(path.c_str(), static_cast<off_t>(size)) == 0;
}

bool RemoveFile(const std::string& path) { return ::unlink(path.c_str()) == 0; }

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::uint64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

}  // namespace cuckoo
