// Tests for util/log.h: level filtering, structured rendering (text and
// NDJSON), and concurrent writers (the latter doubles as the TSan pin
// for the logger's locking).

#include "util/log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "server/json.h"

namespace karl::util {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Fresh (removed) temp path: Logger::Open appends, so a stale file from
// a previous run would skew line counts.
std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(LogLevelTest, ParseAcceptsTheFourLevels) {
  ASSERT_TRUE(ParseLogLevel("debug").ok());
  EXPECT_EQ(ParseLogLevel("debug").value(), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("info").value(), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("warn").value(), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error").value(), LogLevel::kError);
  EXPECT_FALSE(ParseLogLevel("verbose").ok());
  EXPECT_FALSE(ParseLogLevel("INFO").ok());
  EXPECT_FALSE(ParseLogLevel("").ok());
}

TEST(LoggerTest, LevelFilteringDropsBelowMinimum) {
  const std::string path = TempPath("log_level_filter.log");
  {
    Logger::Options options;
    options.min_level = LogLevel::kWarn;
    auto logger = Logger::Open(path, options);
    ASSERT_TRUE(logger.ok()) << logger.status().ToString();
    Logger& log = *logger.value();
    EXPECT_FALSE(log.enabled(LogLevel::kDebug));
    EXPECT_FALSE(log.enabled(LogLevel::kInfo));
    EXPECT_TRUE(log.enabled(LogLevel::kWarn));
    log.Log(LogLevel::kDebug, "dropped");
    log.Log(LogLevel::kInfo, "dropped");
    log.Log(LogLevel::kWarn, "kept");
    log.Log(LogLevel::kError, "kept");
  }
  const auto lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("WARN kept"), std::string::npos);
  EXPECT_NE(lines[1].find("ERROR kept"), std::string::npos);
}

TEST(LoggerTest, NdjsonLinesAreValidJsonWithTypedFields) {
  const std::string path = TempPath("log_ndjson.log");
  {
    Logger::Options options;
    options.ndjson = true;
    auto logger = Logger::Open(path, options);
    ASSERT_TRUE(logger.ok()) << logger.status().ToString();
    logger.value()->Log(LogLevel::kInfo, "request",
                        {{"peer", "127.0.0.1:1234"},
                         {"rows", static_cast<uint64_t>(17)},
                         {"eval_us", 12.5},
                         {"delta", static_cast<int64_t>(-3)},
                         {"ok", true},
                         {"note", "quote \" and\nnewline"}});
  }
  const auto lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 1u);
  auto parsed = server::Json::Parse(lines[0]);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << lines[0];
  const server::Json& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.Find("level")->string_value(), "info");
  EXPECT_EQ(root.Find("event")->string_value(), "request");
  EXPECT_EQ(root.Find("peer")->string_value(), "127.0.0.1:1234");
  EXPECT_EQ(root.Find("rows")->number_value(), 17.0);
  EXPECT_EQ(root.Find("eval_us")->number_value(), 12.5);
  EXPECT_EQ(root.Find("delta")->number_value(), -3.0);
  EXPECT_TRUE(root.Find("ok")->bool_value());
  EXPECT_EQ(root.Find("note")->string_value(), "quote \" and\nnewline");
  ASSERT_NE(root.Find("ts"), nullptr);  // ISO-8601 UTC timestamp.
  EXPECT_NE(root.Find("ts")->string_value().find('T'), std::string::npos);
}

TEST(LoggerTest, TextFormatIsSingleLineKeyValue) {
  const std::string path = TempPath("log_text.log");
  {
    auto logger = Logger::Open(path, Logger::Options{});
    ASSERT_TRUE(logger.ok()) << logger.status().ToString();
    logger.value()->Log(LogLevel::kInfo, "server.start",
                        {{"port", static_cast<int64_t>(7070)},
                         {"model", "a b"},
                         {"embedded", "line\nbreak"}});
  }
  const auto lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 1u);  // Escaping keeps one event on one line.
  EXPECT_NE(lines[0].find("INFO server.start"), std::string::npos);
  EXPECT_NE(lines[0].find("port=7070"), std::string::npos);
  EXPECT_NE(lines[0].find("model=\"a b\""), std::string::npos);
  EXPECT_NE(lines[0].find("\\n"), std::string::npos);
}

TEST(LoggerTest, ConcurrentWritersNeverInterleaveLines) {
  const std::string path = TempPath("log_concurrent.log");
  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  {
    Logger::Options options;
    options.ndjson = true;
    auto logger = Logger::Open(path, options);
    ASSERT_TRUE(logger.ok()) << logger.status().ToString();
    Logger* log = logger.value().get();
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([log, t] {
        for (int i = 0; i < kLines; ++i) {
          log->Log(LogLevel::kInfo, "tick",
                   {{"thread", static_cast<int64_t>(t)},
                    {"i", static_cast<int64_t>(i)}});
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }
  const auto lines = ReadLines(path);
  ASSERT_EQ(lines.size(), static_cast<size_t>(kThreads) * kLines);
  for (const std::string& line : lines) {
    auto parsed = server::Json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << "interleaved line: " << line;
  }
}

TEST(LoggerTest, NullSafeFreeFunctionIsANoOp) {
  Log(nullptr, LogLevel::kError, "nobody listening", {{"x", 1.0}});
}

}  // namespace
}  // namespace karl::util
