// A deliberately tiny HTTP/1.0 exposition endpoint for /metrics.
//
// One background thread, blocking accept (poll with a short timeout so Stop()
// is prompt), one request per connection, loopback TCP only. This is a
// scrape target, not a web server: a Prometheus scraper sends one GET every
// few seconds, so there is nothing to pipeline or multiplex — and keeping it
// off the epoll front end means a wedged scraper can never interfere with
// the KV data plane.
#ifndef SRC_OBS_METRICS_HTTP_H_
#define SRC_OBS_METRICS_HTTP_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "src/obs/catalog.h"

namespace cuckoo {
namespace obs {

class MetricsHttpServer {
 public:
  // Serves `catalog->RenderPrometheus()` at GET /metrics. The catalog must
  // outlive the server.
  explicit MetricsHttpServer(const MetricCatalog* catalog) : catalog_(catalog) {}
  ~MetricsHttpServer() { Stop(); }

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  // Bind 127.0.0.1:`port` (0 = ephemeral; read back via port()) and start
  // the serving thread. Returns false on socket errors.
  bool Start(std::uint16_t port);

  // Close the listener and join the thread. Idempotent.
  void Stop();

  std::uint16_t port() const noexcept { return port_; }
  std::uint64_t RequestsServed() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void Serve();
  void HandleConnection(int fd);

  const MetricCatalog* catalog_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::thread thread_;
};

}  // namespace obs
}  // namespace cuckoo

#endif  // SRC_OBS_METRICS_HTTP_H_
