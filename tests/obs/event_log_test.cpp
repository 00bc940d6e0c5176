#include "stalecert/obs/event_log.hpp"
#include "support/temp_path.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace stalecert::obs {
namespace {

TEST(LogLevelTest, RoundTripsNames) {
  EXPECT_EQ(to_string(LogLevel::kDebug), "debug");
  EXPECT_EQ(to_string(LogLevel::kInfo), "info");
  EXPECT_EQ(to_string(LogLevel::kWarn), "warn");
  EXPECT_EQ(to_string(LogLevel::kError), "error");
  for (const auto level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                           LogLevel::kError}) {
    EXPECT_EQ(parse_log_level(to_string(level)), level);
  }
}

TEST(LogLevelTest, ParseIsCaseInsensitiveAndAcceptsWarning) {
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("WARNING"), LogLevel::kWarn);
  EXPECT_FALSE(parse_log_level("loud").has_value());
  EXPECT_FALSE(parse_log_level("").has_value());
}

TEST(LogLevelTest, EnvFallback) {
  EXPECT_EQ(log_level_from_env(nullptr, LogLevel::kInfo), LogLevel::kInfo);
  EXPECT_EQ(log_level_from_env("debug", LogLevel::kInfo), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_env("nonsense", LogLevel::kWarn), LogLevel::kWarn);
}

TEST(EventLogTest, RetainsEventsInTail) {
  EventLog log;
  log.enable_stderr(false);
  log.info("first", {{"k", "v"}});
  log.warn("second");
  const auto events = log.tail(10);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].message, "first");
  EXPECT_EQ(events[0].level, LogLevel::kInfo);
  ASSERT_EQ(events[0].fields.size(), 1u);
  EXPECT_EQ(events[0].fields[0].first, "k");
  EXPECT_EQ(events[1].message, "second");
  EXPECT_LT(events[0].sequence, events[1].sequence);
  EXPECT_EQ(log.total_events(), 2u);
}

TEST(EventLogTest, LevelFiltersCheaply) {
  EventLog log;
  log.enable_stderr(false);
  log.set_level(LogLevel::kWarn);
  log.debug("dropped");
  log.info("dropped too");
  log.warn("kept");
  log.error("kept too");
  const auto events = log.tail(10);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].message, "kept");
  EXPECT_EQ(events[1].message, "kept too");
  EXPECT_EQ(log.total_events(), 2u);
}

TEST(EventLogTest, RingOverwritesOldestPerThread) {
  EventLog log(4);
  log.enable_stderr(false);
  for (int i = 0; i < 10; ++i) log.info("event " + std::to_string(i));
  const auto events = log.tail(100);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().message, "event 6");
  EXPECT_EQ(events.back().message, "event 9");
  EXPECT_EQ(log.total_events(), 10u);
}

TEST(EventLogTest, TailMergesThreadsBySequence) {
  EventLog log;
  log.enable_stderr(false);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < 8; ++i) {
        log.info("t" + std::to_string(t) + " e" + std::to_string(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto events = log.tail(1000);
  ASSERT_EQ(events.size(), 32u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].sequence, events[i].sequence);
  }
}

TEST(EventLogTest, JsonlSinkWritesOneObjectPerLine) {
  const std::string path =
      testutil::unique_temp_path("stalecert_event_log_test.jsonl");
  {
    EventLog log;
    log.enable_stderr(false);
    ASSERT_TRUE(log.open_jsonl(path));
    log.info("hello \"world\"", {{"key", "value"}});
    log.error("bad");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(lines[0].find("hello \\\"world\\\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"key\":\"value\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"level\":\"error\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(EventLogTest, OpenJsonlFailsOnBadPath) {
  EventLog log;
  log.enable_stderr(false);
  EXPECT_FALSE(log.open_jsonl("/nonexistent-dir-zzz/x.jsonl"));
}

TEST(EventLogRenderTest, HumanFormat) {
  LogEvent event;
  event.level = LogLevel::kWarn;
  event.since_start = std::chrono::milliseconds(1234);
  event.message = "slow request";
  event.fields = {{"endpoint", "stale"}, {"total_us", "1500.0"}};
  const std::string line = to_human(event);
  EXPECT_NE(line.find("WARN"), std::string::npos);
  EXPECT_NE(line.find("slow request"), std::string::npos);
  EXPECT_NE(line.find("endpoint=stale"), std::string::npos);
  EXPECT_NE(line.find("total_us=1500.0"), std::string::npos);
}

TEST(EventLogRenderTest, JsonlFormatEscapes) {
  LogEvent event;
  event.message = "tab\there";
  event.fields = {{"path", "a\\b"}};
  const std::string line = to_jsonl(event);
  EXPECT_NE(line.find("tab\\there"), std::string::npos);
  EXPECT_NE(line.find("a\\\\b"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

// TSan-targeted: hammer one log from many threads while a reader tails.
TEST(EventLogConcurrencyTest, ConcurrentWritersAndReaders) {
  EventLog log(64);
  log.enable_stderr(false);
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&log, t] {
      for (int i = 0; i < 500; ++i) {
        log.info("w" + std::to_string(t), {{"i", std::to_string(i)}});
      }
    });
  }
  std::thread reader([&log] {
    for (int i = 0; i < 50; ++i) (void)log.tail(32);
  });
  for (auto& writer : writers) writer.join();
  reader.join();
  EXPECT_EQ(log.total_events(), 8u * 500u);
}

}  // namespace
}  // namespace stalecert::obs
