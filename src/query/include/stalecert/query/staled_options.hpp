#pragma once

#include <optional>
#include <string>
#include <vector>

#include "stalecert/net/server.hpp"
#include "stalecert/obs/event_log.hpp"

namespace stalecert::query {

/// Parsed staled command line. Split out of the daemon so flag handling is
/// unit-testable without spawning a process.
struct StaledOptions {
  net::HttpServer::Options server;
  std::string archive_path;
  /// --log-file PATH: mirror events as JSONL here (stderr stays on).
  std::string log_file;
  /// Effective level: --log-level beats STALECERT_LOG_LEVEL beats info.
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  /// True when the level came from an explicit --log-level flag (the env
  /// fallback is skipped in that case).
  bool log_level_from_flag = false;
  /// --feed-dir PATH: enable feed mode — apply .scwd deltas found here at
  /// startup, then poll for new ones. Empty = feed mode off.
  std::string feed_dir;
  /// --feed-poll-ms N: delta poll interval in feed mode.
  unsigned feed_poll_ms = 1000;
  /// --shard k/N: serve shard k of an N-way cluster partition (k counts
  /// from 0). shard_count == 0 means unsharded, the default.
  unsigned shard_index = 0;
  unsigned shard_count = 0;
};

/// Outcome of parsing: either options or a usage error message.
struct StaledOptionsResult {
  std::optional<StaledOptions> options;
  std::string error;  // non-empty iff !options

  [[nodiscard]] bool ok() const { return options.has_value(); }
};

/// Parses staled's argv (excluding argv[0]). `env_log_level` is the value
/// of STALECERT_LOG_LEVEL (nullptr when unset) — injected so tests don't
/// have to mutate the process environment.
StaledOptionsResult parse_staled_options(const std::vector<std::string>& args,
                                         const char* env_log_level);

/// One-line flag synopsis for usage messages.
std::string staled_usage_line();

}  // namespace stalecert::query
