// Memcached-protocol codec and KvService end-to-end behaviour, including
// partial-input streaming, pipelining, malformed input, and concurrent
// connections sharing one service.
#include <string>
#include <thread>
#include <vector>

#include "src/cuckoo/simd_probe.h"
#include "src/kvserver/kv_service.h"
#include "src/kvserver/protocol.h"
#include "src/obs/catalog.h"

#include <gtest/gtest.h>

namespace cuckoo {
namespace {

// ---- Parser ---------------------------------------------------------------

TEST(RequestParserTest, ParsesGet) {
  RequestParser parser;
  parser.Feed("get hello\r\n");
  Request req;
  ASSERT_EQ(parser.Next(&req), ParseStatus::kOk);
  EXPECT_EQ(req.type, RequestType::kGet);
  EXPECT_EQ(req.key, "hello");
  EXPECT_EQ(parser.Next(&req), ParseStatus::kNeedMore);
}

TEST(RequestParserTest, ParsesSetWithData) {
  RequestParser parser;
  parser.Feed("set k1 7 0 5\r\nabcde\r\n");
  Request req;
  ASSERT_EQ(parser.Next(&req), ParseStatus::kOk);
  EXPECT_EQ(req.type, RequestType::kSet);
  EXPECT_EQ(req.key, "k1");
  EXPECT_EQ(req.flags, 7u);
  EXPECT_EQ(req.data, "abcde");
}

TEST(RequestParserTest, HandlesBinaryDataWithEmbeddedCrlf) {
  RequestParser parser;
  std::string payload = "ab\r\ncd";  // length 6, contains CRLF
  parser.Feed("set k 0 0 6\r\n" + payload + "\r\n");
  Request req;
  ASSERT_EQ(parser.Next(&req), ParseStatus::kOk);
  EXPECT_EQ(req.data, payload);
}

TEST(RequestParserTest, ByteAtATimeStreaming) {
  RequestParser parser;
  const std::string stream = "set key 1 2 3\r\nxyz\r\nget key\r\n";
  std::vector<Request> requests;
  Request req;
  for (char c : stream) {
    parser.Feed(std::string_view(&c, 1));
    while (parser.Next(&req) == ParseStatus::kOk) {
      requests.push_back(req);
    }
  }
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].type, RequestType::kSet);
  EXPECT_EQ(requests[0].data, "xyz");
  EXPECT_EQ(requests[1].type, RequestType::kGet);
}

TEST(RequestParserTest, PipelinedRequests) {
  RequestParser parser;
  parser.Feed("get a\r\nget b\r\ndelete c\r\nstats\r\n");
  Request req;
  ASSERT_EQ(parser.Next(&req), ParseStatus::kOk);
  EXPECT_EQ(req.key, "a");
  ASSERT_EQ(parser.Next(&req), ParseStatus::kOk);
  EXPECT_EQ(req.key, "b");
  ASSERT_EQ(parser.Next(&req), ParseStatus::kOk);
  EXPECT_EQ(req.type, RequestType::kDelete);
  ASSERT_EQ(parser.Next(&req), ParseStatus::kOk);
  EXPECT_EQ(req.type, RequestType::kStats);
  EXPECT_EQ(parser.Next(&req), ParseStatus::kNeedMore);
}

TEST(RequestParserTest, MalformedLinesAreErrorsNotCrashes) {
  const char* bad[] = {
      "bogus\r\n",
      "get\r\n",               // missing key
      "set k x 0 5\r\n",       // non-numeric flags
      "set k 0 0\r\n",         // missing byte count
      "set k 0 0 99999999999999\r\n",  // absurd length
      " get a\r\n",            // leading space
  };
  for (const char* input : bad) {
    RequestParser parser;
    parser.Feed(input);
    Request req;
    EXPECT_EQ(parser.Next(&req), ParseStatus::kError) << input;
  }
}

TEST(RequestParserTest, ParsesMultiKeyGet) {
  RequestParser parser;
  parser.Feed("get a b c\r\ngets x y\r\n");
  Request req;
  ASSERT_EQ(parser.Next(&req), ParseStatus::kOk);
  EXPECT_EQ(req.type, RequestType::kGet);
  ASSERT_EQ(req.keys.size(), 3u);
  EXPECT_EQ(req.keys[0], "a");
  EXPECT_EQ(req.keys[1], "b");
  EXPECT_EQ(req.keys[2], "c");
  EXPECT_EQ(req.key, "a");
  ASSERT_EQ(parser.Next(&req), ParseStatus::kOk);
  EXPECT_EQ(req.type, RequestType::kGets);
  ASSERT_EQ(req.keys.size(), 2u);
  EXPECT_EQ(req.keys[1], "y");
}

TEST(RequestParserTest, MultiKeyGetRespectsKeyCountCap) {
  RequestParser parser;
  std::string line = "get";
  for (std::size_t i = 0; i <= RequestParser::kMaxGetKeys; ++i) {
    line += " k" + std::to_string(i);  // one key over the cap
  }
  parser.Feed(line + "\r\n");
  Request req;
  EXPECT_EQ(parser.Next(&req), ParseStatus::kError);
}

// Regression (parser desync): a rejected set/cas command line still announces
// a data block; the parser must swallow it, or the payload bytes get reparsed
// as commands and the connection desyncs.
TEST(RequestParserTest, MalformedSetSwallowsAnnouncedDataBlock) {
  struct Case {
    const char* name;
    std::string line;
  };
  const Case cases[] = {
      {"non-numeric flags", "set k x 0 19\r\n"},
      {"oversize key", "set " + std::string(300, 'k') + " 0 0 19\r\n"},
      {"extra token", "set k 0 0 19 junk\r\n"},
      {"cas with bad id", "cas k 0 0 19 notanumber\r\n"},
  };
  for (const Case& c : cases) {
    RequestParser parser;
    // The 19-byte payload ("delete victim\r\nabcd") spells protocol commands;
    // it must NOT execute. The final \r\n is the block terminator.
    parser.Feed(c.line + "delete victim\r\nabcd\r\n" + "get ok\r\n");
    Request req;
    EXPECT_EQ(parser.Next(&req), ParseStatus::kError) << c.name;
    ASSERT_EQ(parser.Next(&req), ParseStatus::kOk) << c.name;
    EXPECT_EQ(req.type, RequestType::kGet) << c.name;
    EXPECT_EQ(req.key, "ok") << c.name;
  }
}

TEST(RequestParserTest, MalformedSetSwallowsDataArrivingLater) {
  // The announced block may arrive in a later Feed() — swallow must span
  // reads like normal data blocks do.
  RequestParser parser;
  Request req;
  parser.Feed("set k x 0 5\r\n");
  EXPECT_EQ(parser.Next(&req), ParseStatus::kError);
  EXPECT_EQ(parser.Next(&req), ParseStatus::kNeedMore) << "waiting to swallow the block";
  parser.Feed("abc");
  EXPECT_EQ(parser.Next(&req), ParseStatus::kNeedMore);
  parser.Feed("de\r\nget ok\r\n");
  ASSERT_EQ(parser.Next(&req), ParseStatus::kOk);
  EXPECT_EQ(req.key, "ok");
}

TEST(RequestParserTest, UnswallowableBlockMarksParserBroken) {
  RequestParser parser;
  parser.Feed("set k 0 0 99999999999\r\n");  // parseable but un-bufferable
  Request req;
  EXPECT_EQ(parser.Next(&req), ParseStatus::kError);
  EXPECT_TRUE(parser.Broken()) << "stream cannot be resynced; connection should close";
  parser.Feed("get ok\r\n");
  EXPECT_EQ(parser.Next(&req), ParseStatus::kError) << "broken parser stays broken";
}

TEST(RequestParserTest, RecoversAfterError) {
  RequestParser parser;
  parser.Feed("garbage line\r\nget ok\r\n");
  Request req;
  EXPECT_EQ(parser.Next(&req), ParseStatus::kError);
  ASSERT_EQ(parser.Next(&req), ParseStatus::kOk);
  EXPECT_EQ(req.key, "ok");
}

TEST(RequestParserTest, BadDataTerminatorIsError) {
  RequestParser parser;
  parser.Feed("set k 0 0 3\r\nabcXX");  // XX instead of \r\n
  Request req;
  EXPECT_EQ(parser.Next(&req), ParseStatus::kError);
}

TEST(RequestParserTest, OversizedKeyRejected) {
  RequestParser parser;
  parser.Feed("get " + std::string(300, 'k') + "\r\n");
  Request req;
  EXPECT_EQ(parser.Next(&req), ParseStatus::kError);
}

TEST(RequestParserTest, UnterminatedFloodIsBounded) {
  RequestParser parser;
  // The line-length bound now admits a full multi-get line (64 keys of 250
  // bytes); anything past that with no CRLF is a flood.
  parser.Feed(std::string(40000, 'x'));  // no CRLF ever
  Request req;
  EXPECT_EQ(parser.Next(&req), ParseStatus::kError);
  EXPECT_EQ(parser.BufferedBytes(), 0u) << "flood must be discarded";
}

// ---- Serializers ------------------------------------------------------------

TEST(ProtocolSerializeTest, ValueResponseFormat) {
  std::string out;
  AppendValueResponse("k", 7, "abc", &out);
  AppendEnd(&out);
  EXPECT_EQ(out, "VALUE k 7 3\r\nabc\r\nEND\r\n");
}

TEST(ProtocolSerializeTest, StatLine) {
  obs::MetricCatalog catalog;
  const obs::MetricCatalog::Handle handle = catalog.Register(
      {obs::MetricGroupBuilder<int>("items", [] { return 42; })
           .Gauge("curr_items", "Items.", [](int n) { return n; })
           .Build()});
  std::string out;
  catalog.RenderStats(obs::StatsLevel::kPlain, &out);
  EXPECT_EQ(out, "STAT curr_items 42\r\n");
}

// ---- Service ---------------------------------------------------------------

TEST(KvServiceTest, SetGetDeleteRoundTrip) {
  KvService service;
  auto conn = service.Connect();
  std::string out;
  conn.Drive("set greeting 3 0 5\r\nhello\r\n", &out);
  EXPECT_EQ(out, "STORED\r\n");
  out.clear();
  conn.Drive("get greeting\r\n", &out);
  EXPECT_EQ(out, "VALUE greeting 3 5\r\nhello\r\nEND\r\n");
  out.clear();
  conn.Drive("delete greeting\r\n", &out);
  EXPECT_EQ(out, "DELETED\r\n");
  out.clear();
  conn.Drive("get greeting\r\n", &out);
  EXPECT_EQ(out, "END\r\n");
  out.clear();
  conn.Drive("delete greeting\r\n", &out);
  EXPECT_EQ(out, "NOT_FOUND\r\n");
}

TEST(KvServiceTest, SetOverwrites) {
  KvService service;
  auto conn = service.Connect();
  std::string out;
  conn.Drive("set k 0 0 1\r\na\r\nset k 9 0 2\r\nbc\r\nget k\r\n", &out);
  EXPECT_EQ(out, "STORED\r\nSTORED\r\nVALUE k 9 2\r\nbc\r\nEND\r\n");
  EXPECT_EQ(service.ItemCount(), 1u);
}

TEST(KvServiceTest, StatsReflectTraffic) {
  KvService service;
  auto conn = service.Connect();
  std::string out;
  conn.Drive("set a 0 0 1\r\nx\r\nget a\r\nget missing\r\n", &out);
  out.clear();
  conn.Drive("stats\r\n", &out);
  EXPECT_NE(out.find("STAT curr_items 1\r\n"), std::string::npos);
  EXPECT_NE(out.find("STAT get_hits 1\r\n"), std::string::npos);
  EXPECT_NE(out.find("STAT get_misses 1\r\n"), std::string::npos);
  EXPECT_NE(out.find("STAT cmd_set 1\r\n"), std::string::npos);
}

TEST(KvServiceTest, ErrorResponsesForGarbage) {
  KvService service;
  auto conn = service.Connect();
  std::string out;
  conn.Drive("nonsense\r\nget k\r\n", &out);
  EXPECT_EQ(out, "ERROR\r\nEND\r\n");
}

TEST(KvServiceTest, MultiKeyGetReturnsOneValueBlockPerHit) {
  KvService service;
  auto conn = service.Connect();
  std::string out;
  conn.Drive("set a 1 0 2\r\naa\r\nset c 3 0 2\r\ncc\r\n", &out);
  out.clear();
  conn.Drive("get a missing c\r\n", &out);
  EXPECT_EQ(out, "VALUE a 1 2\r\naa\r\nVALUE c 3 2\r\ncc\r\nEND\r\n");
  EXPECT_EQ(service.GetHits(), 2u);
  EXPECT_EQ(service.GetMisses(), 1u);
}

TEST(KvServiceTest, MultiKeyGetsCarriesCasIds) {
  KvService service;
  auto conn = service.Connect();
  std::string out;
  conn.Drive("set a 0 0 1\r\nx\r\nset b 0 0 1\r\ny\r\n", &out);
  out.clear();
  conn.Drive("gets a b\r\n", &out);
  // Two VALUE lines, each with 5 tokens (VALUE key flags bytes cas).
  ASSERT_EQ(out.substr(0, 6), "VALUE ");
  std::size_t first_line_end = out.find("\r\n");
  std::string first_line = out.substr(0, first_line_end);
  int spaces = 0;
  for (char ch : first_line) {
    spaces += ch == ' ' ? 1 : 0;
  }
  EXPECT_EQ(spaces, 4) << first_line;
  EXPECT_NE(out.find("VALUE b 0 1 "), std::string::npos);
  EXPECT_EQ(out.substr(out.size() - 5), "END\r\n");
}

TEST(KvServiceTest, LargeMultiGetBatch) {
  // Drives the batched (prefetch-pipelined) lookup path with more keys than
  // the pipeline depth.
  KvService service;
  auto conn = service.Connect();
  std::string out;
  std::string get_line = "get";
  for (int i = 0; i < 32; ++i) {
    std::string key = "bulk" + std::to_string(i);
    out.clear();
    conn.Drive("set " + key + " 0 0 2\r\nvv\r\n", &out);
    get_line += " " + key;
  }
  out.clear();
  conn.Drive(get_line + "\r\n", &out);
  for (int i = 0; i < 32; ++i) {
    EXPECT_NE(out.find("VALUE bulk" + std::to_string(i) + " 0 2\r\nvv\r\n"),
              std::string::npos);
  }
  EXPECT_EQ(out.substr(out.size() - 5), "END\r\n");
  EXPECT_EQ(service.GetHits(), 32u);
}

// Regression (parser desync, service level): after a malformed set the
// payload must not execute as commands; the very next command on the same
// connection works normally.
TEST(KvServiceTest, MalformedSetDoesNotExecutePayloadAsCommands) {
  KvService service;
  auto conn = service.Connect();
  std::string out;
  conn.Drive("set victim 0 0 1\r\nv\r\n", &out);
  out.clear();
  // Bad flags token; the 19-byte payload would delete `victim` if reparsed.
  conn.Drive("set k BAD 0 19\r\ndelete victim\r\nabcd\r\nget victim\r\n", &out);
  EXPECT_EQ(out, "ERROR\r\nVALUE victim 0 1\r\nv\r\nEND\r\n");
  EXPECT_EQ(service.ItemCount(), 1u) << "payload must not have executed";
}

TEST(KvServiceTest, StatsIncludeTableCounters) {
  KvService service;
  auto conn = service.Connect();
  std::string out;
  conn.Drive("set a 0 0 1\r\nx\r\nget a\r\n", &out);
  out.clear();
  conn.Drive("stats\r\n", &out);
  EXPECT_NE(out.find("STAT table_lookups "), std::string::npos);
  EXPECT_NE(out.find("STAT table_read_retries "), std::string::npos);
  EXPECT_NE(out.find("STAT table_path_searches "), std::string::npos);
  EXPECT_NE(out.find("STAT table_expansions "), std::string::npos);
}

TEST(KvServiceTest, StatsExposeHugepageBytesAndProbeKernel) {
  KvService service;
  auto conn = service.Connect();
  std::string out;
  conn.Drive("stats\r\n", &out);
  EXPECT_NE(out.find("STAT table_hugepage_bytes "), std::string::npos);
  // probe_kernel is detail-only (a string enum, not a counter).
  EXPECT_EQ(out.find("STAT probe_kernel "), std::string::npos);
  out.clear();
  conn.Drive("stats detail\r\n", &out);
  const std::string want = std::string("STAT probe_kernel ") +
                           simd::ProbeLevelName(simd::ActiveProbeLevel()) + "\r\n";
  EXPECT_NE(out.find(want), std::string::npos) << out;

  const std::string metrics = service.metrics().RenderPrometheus();
  EXPECT_NE(metrics.find("cuckoo_table_hugepage_bytes 0\n"), std::string::npos);
  const std::string active = std::string("cuckoo_probe_kernel{level=\"") +
                             simd::ProbeLevelName(simd::ActiveProbeLevel()) + "\"} 1\n";
  EXPECT_NE(metrics.find(active), std::string::npos) << metrics;
  // Exactly one level reports 1.
  std::size_t ones = 0;
  for (std::size_t pos = metrics.find("cuckoo_probe_kernel{"); pos != std::string::npos;
       pos = metrics.find("cuckoo_probe_kernel{", pos + 1)) {
    if (metrics.compare(metrics.find('}', pos), 4, "} 1\n") == 0) {
      ++ones;
    }
  }
  EXPECT_EQ(ones, 1u);
}

TEST(KvServiceTest, HugepageOptionReportsGrantedBytes) {
  KvService::Options o;
  o.initial_bucket_count_log2 = 8;
  o.hugepages = true;
  KvService service(o);
  auto conn = service.Connect();
  std::string out;
  conn.Drive("stats\r\n", &out);
  // The grant is advisory (kernel may decline); the stat must exist either
  // way, and a granted value must be a positive byte count.
  const std::size_t pos = out.find("STAT table_hugepage_bytes ");
  ASSERT_NE(pos, std::string::npos);
}

TEST(KvServiceTest, RegisteredEntryAppearsAndDisappearsWithItsHandle) {
  KvService service;
  auto conn = service.Connect();
  std::string out;
  {
    const obs::MetricCatalog::Handle handle = service.metrics().Register(
        {obs::MetricGroupBuilder<int>("custom", [] { return 7; })
             .Counter("server_custom", "Custom.", [](int n) { return n; })
             .Build()});
    conn.Drive("stats\r\n", &out);
    EXPECT_NE(out.find("STAT server_custom 7\r\n"), std::string::npos);
    EXPECT_EQ(out.substr(out.size() - 5), "END\r\n");
    EXPECT_NE(service.metrics().RenderPrometheus().find("cuckoo_server_custom_total 7\n"),
              std::string::npos);
  }
  out.clear();
  conn.Drive("stats\r\n", &out);
  EXPECT_EQ(out.find("server_custom"), std::string::npos) << out;
  EXPECT_EQ(out.substr(out.size() - 5), "END\r\n");
  EXPECT_EQ(service.metrics().RenderPrometheus().find("cuckoo_server_custom"),
            std::string::npos);
}

TEST(KvServiceTest, ConcurrentConnectionsShareTheStore) {
  KvService service;
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, t] {
      auto conn = service.Connect();
      std::string out;
      for (int i = 0; i < kKeysPerThread; ++i) {
        std::string key = "k" + std::to_string(t) + "_" + std::to_string(i);
        std::string value = "v" + std::to_string(i);
        out.clear();
        conn.Drive("set " + key + " 0 0 " + std::to_string(value.size()) + "\r\n" + value +
                       "\r\n",
                   &out);
        EXPECT_EQ(out, "STORED\r\n");
        out.clear();
        conn.Drive("get " + key + "\r\n", &out);
        EXPECT_NE(out.find(value), std::string::npos);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(service.ItemCount(), static_cast<std::size_t>(kThreads * kKeysPerThread));
}

TEST(KvServiceTest, LargeBinaryValues) {
  KvService service;
  auto conn = service.Connect();
  std::string blob(100000, '\0');
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<char>(i * 31);
  }
  std::string out;
  conn.Drive("set blob 0 0 " + std::to_string(blob.size()) + "\r\n" + blob + "\r\n", &out);
  EXPECT_EQ(out, "STORED\r\n");
  out.clear();
  conn.Drive("get blob\r\n", &out);
  const std::string expected_prefix = "VALUE blob 0 " + std::to_string(blob.size()) + "\r\n";
  ASSERT_EQ(out.substr(0, expected_prefix.size()), expected_prefix);
  EXPECT_EQ(out.substr(expected_prefix.size(), blob.size()), blob);
}

}  // namespace
}  // namespace cuckoo
