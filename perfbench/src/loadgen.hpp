// Open-loop HTTP load: requests leave on a fixed schedule whether or not
// the server has answered the previous ones (HTTP/1.1 pipelining over a few
// keep-alive connections), and each latency is timed from the request's due
// time, so a stall is charged to every request queued behind it. The
// generator's own lateness (send time minus due time) is reported beside
// the latencies; a high value means the generator, not the server, fell
// behind.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// Generator threads, and keep-alive connections each: 4 connections, no
/// more than a 4-core machine has cores.
inline constexpr unsigned kGeneratorThreads = 2;
inline constexpr unsigned kConnectionsPerThread = 2;

struct OpenLoopOptions {
  std::uint16_t port = 0;
  /// Offered rate over all generator threads, requests per second.
  double rate = 1000.0;
  double seconds = 1.0;
  std::uint64_t seed = 1;
  /// CPUs generator thread t is pinned to (cpus[t % size]); empty = no pin.
  std::vector<int> cpus;
  /// When enabled, one span per request (due time to response).
  SpanRecorder* spans = nullptr;
  std::size_t parent_span = kNoSpan;
};

struct OpenLoopResult {
  /// Per completed request, microseconds from its due time to its response.
  std::vector<double> latency_us;
  /// Parallel to latency_us: each request's due time, seconds after the
  /// schedule began.
  std::vector<double> due_s;
  /// Per sent request, microseconds from its due time to its send.
  std::vector<double> lateness_us;
  /// Parallel to lateness_us: each sent request's due time, as in due_s.
  std::vector<double> sent_due_s;
  /// Every scheduled request; a non-200 answer, a dropped connection or no
  /// answer within 3 s of the schedule's end is a failure.
  Tally tally;
  /// Requests still unanswered when the schedule ended.
  std::uint64_t backlog_at_end = 0;
  double offered_rate = 0.0;
};

/// Sends requests drawn uniformly (per-thread seeded) from `wire`, each a
/// complete HTTP/1.1 request, to 127.0.0.1:port on the options' schedule.
OpenLoopResult run_open_loop(const std::vector<std::string>& wire,
                             const OpenLoopOptions& options);

/// The run's p99 as a quantile (`across`) of its per-window p99s (see
/// windowed_quantile), over windows just long enough to hold 1000 samples
/// (at least 100 ms). By default the 10th percentile: the tail the server
/// produces in the calmest tenth of the run, without the windows in which
/// the shared host preempted it. A change that slows every request, or
/// stalls in every window, still moves it.
double windowed_p99_us(const OpenLoopResult& result, double across = 0.1);

/// The generator's lateness p99 by the same windowed rule.
double windowed_lateness_p99_us(const OpenLoopResult& result);

struct SearchResult {
  double max_qps = 0.0;
  unsigned probes = 0;
  Tally tally;
};

/// Highest offered rate whose windowed p99 stays within 1 ms with no
/// growing backlog and a generator that kept to its schedule (windowed
/// lateness p99 within 250 us; judged over the whole probe, the host's
/// stalls of the generator ended the search anywhere from 60k to 100k/s
/// while the server's p99 stayed far below its limit). 1 s probes
/// grow the rate by 1.25x from `start_rate` until one fails, then bisect
/// geometrically until the bounds are within 4% or `budget_seconds` are
/// spent; while no rate has passed, the rate halves past the budget. A
/// probe that fails without a runaway backlog is repeated once and fails
/// only if the repeat fails too, so one transient stall does not end the
/// search low.
SearchResult search_max_qps(const std::vector<std::string>& wire,
                            OpenLoopOptions base, double start_rate,
                            double budget_seconds);

}  // namespace perfbench
