// Tests for the metric catalog's Prometheus renderer, the slowlog ring, and
// the /metrics HTTP endpoint (fetched over a real TCP socket).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/kvserver/socket_server.h"
#include "src/obs/catalog.h"
#include "src/obs/histogram.h"
#include "src/obs/metrics_http.h"
#include "src/obs/slowlog.h"

namespace cuckoo {
namespace obs {
namespace {

// A catalog holding one group: `fill` adds the group's entries.
template <typename S>
MetricCatalog::Handle RegisterOne(MetricCatalog& catalog, std::string name,
                                  std::function<S()> snapshot,
                                  const std::function<void(MetricGroupBuilder<S>&)>& fill) {
  MetricGroupBuilder<S> group(std::move(name), std::move(snapshot));
  fill(group);
  return catalog.Register({group.Build()});
}

TEST(MetricsTextTest, CounterAndGaugeFormat) {
  MetricCatalog catalog;
  const auto handle = RegisterOne<int>(catalog, "app", [] { return 0; }, [](auto& g) {
    g.Counter("ops", "Operations.", [](int) { return 42; }).As("app_ops_total");
  });
  std::string out = catalog.RenderPrometheus();
  EXPECT_NE(out.find("# HELP app_ops_total Operations.\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE app_ops_total counter\n"), std::string::npos);
  EXPECT_NE(out.find("app_ops_total 42\n"), std::string::npos);

  MetricCatalog gauges;
  const auto gauge = RegisterOne<int>(gauges, "app", [] { return 0; }, [](auto& g) {
    g.Gauge("items", "Items.", [](int) { return 7.5; }).As("app_items");
  });
  out = gauges.RenderPrometheus();
  EXPECT_NE(out.find("# TYPE app_items gauge\n"), std::string::npos);
  EXPECT_NE(out.find("app_items 7.5\n"), std::string::npos);
}

// An integer gauge past 1e9 keeps every digit on both surfaces.
TEST(MetricsTextTest, LargeIntegerGaugeIsExactOnBothSurfaces) {
  MetricCatalog catalog;
  const auto handle = RegisterOne<int>(catalog, "wal", [] { return 0; }, [](auto& g) {
    g.Gauge("wal_durable_lsn", "Durable LSN.", [](int) { return std::uint64_t{1073741825}; });
  });
  std::string stats;
  catalog.RenderStats(StatsLevel::kPlain, &stats);
  EXPECT_EQ(stats, "STAT wal_durable_lsn 1073741825\r\n");
  EXPECT_NE(catalog.RenderPrometheus().find("\ncuckoo_wal_durable_lsn 1073741825\n"),
            std::string::npos)
      << catalog.RenderPrometheus();
}

TEST(MetricsTextTest, LatencySummaryQuantilesAndScale) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(static_cast<std::uint64_t>(i) * 1000);  // 1us .. 1ms in ns
  }
  MetricCatalog catalog;
  const auto handle = RegisterOne<HistogramSnapshot>(
      catalog, "op", [&h] { return h.Snapshot(); }, [](auto& g) {
        g.Histogram("op_ns", "Op latency.", std::identity{}).As("op_seconds");
      });
  const std::string out = catalog.RenderPrometheus();
  EXPECT_NE(out.find("# TYPE op_seconds summary\n"), std::string::npos);
  for (const char* q : {"0.5", "0.9", "0.99", "0.999"}) {
    EXPECT_NE(out.find(std::string("op_seconds{quantile=\"") + q + "\"} "),
              std::string::npos)
        << out;
  }
  EXPECT_NE(out.find("op_seconds_count 1000\n"), std::string::npos);
  EXPECT_NE(out.find("op_seconds_sum "), std::string::npos);
  EXPECT_NE(out.find("op_seconds_max "), std::string::npos);
}

TEST(MetricCatalogTest, RendersGroupsInRegistrationOrder) {
  MetricCatalog catalog;
  const auto first = RegisterOne<int>(catalog, "first", [] { return 1; }, [](auto& g) {
    g.Gauge("first", "First.", [](int n) { return n; }).As("first");
  });
  const auto second = RegisterOne<int>(catalog, "second", [] { return 2; }, [](auto& g) {
    g.Gauge("second", "Second.", [](int n) { return n; }).As("second");
  });
  const std::string page = catalog.RenderPrometheus();
  EXPECT_LT(page.find("first 1"), page.find("second 2"));
}

TEST(SlowlogTest, ThresholdZeroDisables) {
  Slowlog log(0, 8);
  EXPECT_FALSE(log.enabled());
  EXPECT_FALSE(log.MaybeRecord(1000000, "set", "k"));
  EXPECT_EQ(log.TotalLogged(), 0u);
}

TEST(SlowlogTest, RecordsOnlyAboveThresholdAndCapsRing) {
  Slowlog log(100, 4);
  EXPECT_FALSE(log.MaybeRecord(99, "get", "fast"));
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(log.MaybeRecord(100 + i, "set", "key" + std::to_string(i)));
  }
  EXPECT_EQ(log.TotalLogged(), 10u);
  const std::vector<Slowlog::Entry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 4u);  // ring capped; oldest evicted
  EXPECT_EQ(entries.front().detail, "key6");
  EXPECT_EQ(entries.back().detail, "key9");
  EXPECT_EQ(entries.back().latency_ns, 109u);
  EXPECT_EQ(entries.back().op, "set");
  log.Clear();
  EXPECT_TRUE(log.Entries().empty());
  EXPECT_EQ(log.TotalLogged(), 10u);  // total survives Clear
}

// Fetch a path from the local metrics server; returns the raw HTTP response.
std::string HttpGet(std::uint16_t port, const std::string& path) {
  SocketClient client("127.0.0.1", port);
  if (!client.connected()) {
    return "";
  }
  if (!client.Send("GET " + path + " HTTP/1.0\r\n\r\n")) {
    return "";
  }
  std::string response;
  while (client.Receive(&response) > 0) {
  }
  return response;
}

TEST(MetricsHttpTest, ServesRegistryOnEphemeralPort) {
  MetricCatalog catalog;
  const auto handle = RegisterOne<int>(catalog, "demo", [] { return 5; }, [](auto& g) {
    g.Counter("demo", "Demo.", [](int n) { return n; }).As("demo_total");
  });
  MetricsHttpServer server(&catalog);
  ASSERT_TRUE(server.Start(0));
  ASSERT_NE(server.port(), 0);

  const std::string response = HttpGet(server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("demo_total 5\n"), std::string::npos);

  EXPECT_NE(HttpGet(server.port(), "/health").find("ok"), std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/nope").find("404"), std::string::npos);
  server.Stop();
}

TEST(MetricsHttpTest, ConcurrentScrapesAllSucceed) {
  MetricCatalog catalog;
  const auto handle = RegisterOne<int>(catalog, "scrape", [] { return 1; }, [](auto& g) {
    g.Counter("scrape", "Scrapes.", [](int n) { return n; }).As("scrape_total");
  });
  MetricsHttpServer server(&catalog);
  ASSERT_TRUE(server.Start(0));
  constexpr int kThreads = 4;
  std::vector<std::thread> team;
  std::vector<int> ok(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        if (HttpGet(server.port(), "/metrics").find("scrape_total 1") !=
            std::string::npos) {
          ++ok[t];
        }
      }
    });
  }
  for (auto& th : team) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ok[t], 8);
  }
  EXPECT_GE(server.RequestsServed(), static_cast<std::uint64_t>(kThreads) * 8);
  server.Stop();
}

// A scraper that half-closes, reads a little of a large page and then
// resets the connection: the server's next send fails with EPIPE. That must
// be an error return (MSG_NOSIGNAL), not a SIGPIPE killing this process, and
// the endpoint keeps serving.
TEST(MetricsHttpTest, ScraperResetMidPageLeavesServerServing) {
  const std::string big(8u << 20, 'x');
  MetricCatalog catalog;
  const auto handle = RegisterOne<int>(catalog, "big", [] { return 0; }, [&big](auto& g) {
    g.Info("big", "A large page.", "blob", [&big](int) { return big; });
    g.Counter("after", "Rendered after the large entry.", [](int) { return 3; });
  });
  MetricsHttpServer server(&catalog);
  ASSERT_TRUE(server.Start(0));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  ::shutdown(fd, SHUT_WR);  // the server's side is now in CLOSE_WAIT
  char buf[16384];
  std::size_t got = 0;
  while (got < sizeof(buf)) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf) - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  const linger reset{1, 0};  // close with unread data: RST, not FIN
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  ::close(fd);

  // The next scrape is served once the reset one is dropped.
  const std::string response = HttpGet(server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("cuckoo_after_total 3\n"), std::string::npos);
  EXPECT_GE(server.RequestsServed(), 2u);
  server.Stop();
}

}  // namespace
}  // namespace obs
}  // namespace cuckoo
