// Process-level test harness: fork/exec the real cuckoo_kv_server binary,
// wait for its READY banner, and talk to it over its unix or TCP socket.
// Shared by the crash-injection suite (tests/crash_recovery_test.cc) and the
// replication failover/conformance suites (tests/repl_*_test.cc).
//
// Every consumer must be compiled with KV_SERVER_BINARY pointing at the
// server executable (see tests/CMakeLists.txt).
#ifndef TESTS_PROCESS_HARNESS_H_
#define TESTS_PROCESS_HARNESS_H_

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/file_util.h"

#ifndef KV_SERVER_BINARY
#error "KV_SERVER_BINARY must point at the cuckoo_kv_server executable"
#endif

namespace cuckoo {
namespace testsupport {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "cuckoo_proc_XXXXXX";
    path = ::mkdtemp(tmpl.data());
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    for (const std::string& name : ListFilesWithPrefix(path, "")) {
      RemoveFile(path + "/" + name);
    }
    ::rmdir(path.c_str());
  }
};

class ServerProcess {
 public:
  // Starts cuckoo_kv_server and blocks until it prints READY (plus whichever
  // of the METRICS/VLOG/REPL banner lines the flags imply), so the process
  // is fully serving before the constructor returns.
  ServerProcess(const std::string& wal_dir, const std::string& sock_path,
                const std::string& fsync_policy,
                const std::vector<std::string>& extra_args = {}) {
    Launch(wal_dir, sock_path, fsync_policy, extra_args);  // ASSERTs live there
  }

 private:
  void Launch(const std::string& wal_dir, const std::string& sock_path,
              const std::string& fsync_policy,
              const std::vector<std::string>& extra_args) {
    sock_path_ = sock_path;
    ::unlink(sock_path.c_str());
    // Build argv before fork(): the child of a multi-threaded parent may
    // only make async-signal-safe calls, and an allocation there can block
    // forever on an allocator lock another parent thread held at the fork.
    std::vector<std::string> args = {KV_SERVER_BINARY, "--wal-dir=" + wal_dir,
                                     "--fsync-policy=" + fsync_policy, "--unix=" + sock_path,
                                     "--event-threads=2"};
    for (const std::string& a : extra_args) {
      args.push_back(a);
    }
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    int out_pipe[2];
    ASSERT_EQ(::pipe(out_pipe), 0);
    pid_ = ::fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      ::execv(KV_SERVER_BINARY, argv.data());
      ::_exit(127);
    }
    ::close(out_pipe[1]);
    stdout_fd_ = out_pipe[0];
    // Wait for the READY line (recovery may take a moment), then consume the
    // banner lines the flags imply, in the order server_main prints them:
    //   READY <tcp_port> <unix_path>
    //   METRICS <port>                 (--metrics-port)
    //   VLOG <dir> ...                 (--vlog-dir)
    //   REPL <role> ack=<level>        (--wal-dir, i.e. always here)
    const std::string line = ReadStdoutLine();
    ASSERT_EQ(line.rfind("READY ", 0), 0u) << "server said: " << line;
    tcp_port_ = std::atoi(line.c_str() + 6);
    bool has_metrics = false;
    bool has_vlog = false;
    for (const std::string& a : extra_args) {
      has_metrics |= a.rfind("--metrics-port", 0) == 0;
      has_vlog |= a.rfind("--vlog-dir", 0) == 0;
    }
    if (has_metrics) {
      const std::string metrics = ReadStdoutLine();
      ASSERT_EQ(metrics.rfind("METRICS ", 0), 0u) << "server said: " << metrics;
      metrics_port_ = std::atoi(metrics.c_str() + 8);
      ASSERT_GT(metrics_port_, 0);
    }
    if (has_vlog) {
      const std::string vlog = ReadStdoutLine();
      ASSERT_EQ(vlog.rfind("VLOG ", 0), 0u) << "server said: " << vlog;
    }
    const std::string repl = ReadStdoutLine();
    ASSERT_EQ(repl.rfind("REPL ", 0), 0u) << "server said: " << repl;
    repl_role_ = repl.substr(5, repl.find(' ', 5) - 5);
  }

  std::string ReadStdoutLine() {
    std::string line;
    char c = 0;
    while (::read(stdout_fd_, &c, 1) == 1 && c != '\n') {
      line.push_back(c);
    }
    return line;
  }

 public:
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
    }
  }

  // SIGKILL: simulated crash. Returns once the process is reaped.
  void Kill9() {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    EXPECT_TRUE(WIFSIGNALED(status));
    pid_ = -1;
  }

  // SIGTERM: graceful shutdown; asserts a clean exit 0.
  void Terminate() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    EXPECT_TRUE(WIFEXITED(status)) << "server did not exit cleanly";
    EXPECT_EQ(WEXITSTATUS(status), 0);
    pid_ = -1;
  }

  const std::string& sock_path() const { return sock_path_; }
  int tcp_port() const { return tcp_port_; }
  int metrics_port() const { return metrics_port_; }
  // "primary" or "replica" as announced at startup (runtime promotion via
  // `replicaof none` does not update this).
  const std::string& repl_role() const { return repl_role_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int tcp_port_ = 0;
  int metrics_port_ = 0;
  std::string sock_path_;
  std::string repl_role_;
};

class Client {
 public:
  // Connect over the unix socket.
  explicit Client(const std::string& sock_path) { ConnectUnix(sock_path); }
  // Connect over loopback TCP (how replicas are reached in cluster tests).
  explicit Client(int tcp_port) { ConnectTcp(tcp_port); }
  ~Client() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool connected() const { return fd_ >= 0; }

  // Send a command and read until the response ends with `terminator`.
  // Returns the full response, or "" on EOF/reset (server died mid-command).
  std::string Roundtrip(const std::string& command, const std::string& terminator) {
    if (!WriteAll(command)) {
      return "";
    }
    std::string response;
    char buf[4096];
    while (response.size() < terminator.size() ||
           response.compare(response.size() - terminator.size(), terminator.size(),
                            terminator) != 0) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) {
        return "";
      }
      response.append(buf, static_cast<std::size_t>(n));
    }
    return response;
  }

  // Raw pipelining: send bytes without reading, then read what arrived.
  bool Send(const std::string& bytes) { return WriteAll(bytes); }
  // One blocking read appended to *buffer; returns bytes read (0 = EOF).
  long Read(std::string* buffer) {
    char buf[4096];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      buffer->append(buf, static_cast<std::size_t>(n));
    }
    return static_cast<long>(n);
  }

  bool Set(const std::string& key, const std::string& value) {
    return Roundtrip("set " + key + " 0 0 " + std::to_string(value.size()) + "\r\n" +
                         value + "\r\n",
                     "\r\n") == "STORED\r\n";
  }

  // Returns the value for `key`, or "" if missing.
  std::string Get(const std::string& key) {
    const std::string response = Roundtrip("get " + key + "\r\n", "END\r\n");
    const std::size_t data_start = response.find("\r\n");
    if (response.rfind("VALUE ", 0) != 0 || data_start == std::string::npos) {
      return "";
    }
    const std::size_t data_end = response.rfind("\r\nEND\r\n");
    return response.substr(data_start + 2, data_end - data_start - 2);
  }

 private:
  void ConnectUnix(const std::string& sock_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock_path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << "connect " << sock_path << ": " << std::strerror(errno);
  }

  void ConnectTcp(int tcp_port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(tcp_port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << "connect 127.0.0.1:" << tcp_port << ": " << std::strerror(errno);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  bool WriteAll(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      // MSG_NOSIGNAL: a write racing a kill -9 must fail, not SIGPIPE the test.
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  int fd_ = -1;
};

// Fetch a path from the server's metrics HTTP endpoint (plain HTTP/1.0 over
// loopback TCP). Returns the raw response, or "" on any socket failure.
inline std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::write(fd, request.data() + off, request.size() - off);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

// Extracts the value of "STAT <name> <value>\r\n" from a stats response, or
// -1 if the line is absent.
inline long long StatValue(const std::string& stats, const std::string& name) {
  const std::string needle = "STAT " + name + " ";
  const std::size_t pos = stats.find(needle);
  if (pos == std::string::npos) {
    return -1;
  }
  return std::atoll(stats.c_str() + pos + needle.size());
}

}  // namespace testsupport
}  // namespace cuckoo

#endif  // TESTS_PROCESS_HARNESS_H_
