#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <iostream>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "stalecert/net/codec.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kTimerTag = UINT32_MAX;
constexpr std::chrono::milliseconds kDrain{3000};

// read_max_qps search.
constexpr double kLimitUs = 1000.0;  // windowed p99 latency limit
constexpr double kProbeSeconds = 1.0;
constexpr double kGrowth = 1.25;     // rate step until a probe fails
constexpr double kPrecision = 0.04;  // stop when fail / pass is this close
constexpr double kMaxRate = 400'000.0;
constexpr unsigned kMaxProbes = 24;

/// One file descriptor, closed on destruction.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("loadgen: socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    throw std::runtime_error("loadgen: connect failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

struct Pending {
  Clock::time_point due;
  std::uint64_t id = 0;
};

struct Connection {
  std::unique_ptr<Fd> fd;
  stalecert::net::Http1ResponseCodec codec;
  std::string out;
  std::size_t out_pos = 0;
  std::deque<Pending> inflight;
  std::uint32_t tag = 0;  // epoll tag: index into the generator's list
  bool writing = false;  // EPOLLOUT armed
  bool dead = false;
};

/// One generator thread: its own connections, its own slice of the
/// schedule (every threads-th slot), its own results.
class Generator {
 public:
  Generator(const std::vector<std::string>& wire, const OpenLoopOptions& options,
            unsigned index, Clock::time_point begin)
      : wire_(wire),
        options_(options),
        index_(index),
        begin_(begin),
        rng_(options.seed * 1'000'003 + index) {
    interval_ = std::chrono::duration<double>(1.0 / options.rate *
                                              kGeneratorThreads);
    offset_ = interval_ * (static_cast<double>(index) / kGeneratorThreads);
    slots_ = static_cast<std::uint64_t>(
        std::floor(options.seconds * options.rate / kGeneratorThreads));
    epoll_ = std::make_unique<Fd>(::epoll_create1(EPOLL_CLOEXEC));
    timer_ = std::make_unique<Fd>(
        ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
    if (epoll_->get() < 0 || timer_->get() < 0) {
      throw std::runtime_error("loadgen: epoll/timerfd failed");
    }
    watch(timer_->get(), EPOLLIN, kTimerTag);
    for (unsigned c = 0; c < kConnectionsPerThread; ++c) {
      auto connection = std::make_unique<Connection>();
      connection->fd = std::make_unique<Fd>(connect_loopback(options.port));
      connection->tag = c;
      watch(connection->fd->get(), EPOLLIN, c);
      connections_.push_back(std::move(connection));
    }
    result_.latency_us.reserve(slots_);
    result_.due_s.reserve(slots_);
    result_.lateness_us.reserve(slots_);
    result_.sent_due_s.reserve(slots_);
  }

  OpenLoopResult run() {
    // Precise wakeups: the default 50 us timer slack would show up as
    // generator lateness at high rates.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    if (!options_.cpus.empty()) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(options_.cpus[index_ % options_.cpus.size()], &set);
      ::sched_setaffinity(0, sizeof set, &set);
    }
    const Clock::time_point end = begin_ + seconds(options_.seconds);
    const Clock::time_point give_up = end + kDrain;
    bool backlog_recorded = false;
    std::vector<epoll_event> events(64);
    while (true) {
      Clock::time_point now = Clock::now();
      while (next_ < slots_ && due(next_) <= now) send(next_++, now);
      for (auto& connection : connections_) flush(*connection);
      const std::uint64_t outstanding = in_flight();
      if (next_ >= slots_) {
        if (!backlog_recorded && now >= end) {
          result_.backlog_at_end = outstanding;
          backlog_recorded = true;
        }
        if (outstanding == 0 && backlog_recorded) break;
        if (now >= give_up) {
          fail_outstanding();
          break;
        }
      }
      arm(next_ < slots_ ? due(next_) : (backlog_recorded ? give_up : end));
      const int n = ::epoll_wait(epoll_->get(), events.data(),
                                 static_cast<int>(events.size()), -1);
      if (n < 0 && errno != EINTR) throw std::runtime_error("loadgen: epoll");
      for (int i = 0; i < n; ++i) {
        const std::uint32_t tag = events[i].data.u32;
        if (tag == kTimerTag) {
          std::uint64_t expirations = 0;
          (void)::read(timer_->get(), &expirations, sizeof expirations);
          continue;
        }
        Connection& connection = *connections_[tag];
        if ((events[i].events & EPOLLOUT) != 0) flush(connection);
        if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
          receive(connection);
        }
      }
    }
    result_.offered_rate = options_.rate;
    return std::move(result_);
  }

 private:
  static std::chrono::nanoseconds seconds(double s) {
    return std::chrono::nanoseconds(static_cast<std::int64_t>(s * 1e9));
  }

  [[nodiscard]] Clock::time_point due(std::uint64_t slot) const {
    return begin_ + std::chrono::duration_cast<Clock::duration>(
                        offset_ + interval_ * static_cast<double>(slot));
  }

  void watch(int fd, std::uint32_t events, std::uint32_t tag) {
    epoll_event event{};
    event.events = events;
    event.data.u32 = tag;
    if (::epoll_ctl(epoll_->get(), EPOLL_CTL_ADD, fd, &event) != 0) {
      throw std::runtime_error("loadgen: epoll_ctl failed");
    }
  }

  void set_writing(Connection& connection, bool writing) {
    if (connection.writing == writing || connection.dead) return;
    connection.writing = writing;
    epoll_event event{};
    event.events = EPOLLIN | (writing ? EPOLLOUT : 0U);
    event.data.u32 = connection.tag;
    ::epoll_ctl(epoll_->get(), EPOLL_CTL_MOD, connection.fd->get(), &event);
  }

  void arm(Clock::time_point at) {
    itimerspec spec{};
    const auto ns = at.time_since_epoch().count();
    spec.it_value.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
    spec.it_value.tv_nsec = static_cast<long>(ns % 1'000'000'000);
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
      spec.it_value.tv_nsec = 1;
    }
    ::timerfd_settime(timer_->get(), TFD_TIMER_ABSTIME, &spec, nullptr);
  }

  void send(std::uint64_t slot, Clock::time_point now) {
    const Clock::time_point due_at = due(slot);
    Connection& connection =
        *connections_[slot % connections_.size()];
    if (connection.dead) {
      result_.tally.add(false);
      return;
    }
    const std::string& request = wire_[rng_() % wire_.size()];
    connection.out.append(request);
    const std::uint64_t id =
        (static_cast<std::uint64_t>(index_) << 40) | (slot + 1);
    connection.inflight.push_back({due_at, id});
    result_.lateness_us.push_back(
        std::chrono::duration<double, std::micro>(now - due_at).count());
    result_.sent_due_s.push_back(
        std::chrono::duration<double>(due_at - begin_).count());
  }

  void flush(Connection& connection) {
    while (!connection.dead && connection.out_pos < connection.out.size()) {
      const ssize_t n = ::send(connection.fd->get(),
                               connection.out.data() + connection.out_pos,
                               connection.out.size() - connection.out_pos,
                               MSG_NOSIGNAL);
      if (n > 0) {
        connection.out_pos += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_writing(connection, true);
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        kill(connection);
        return;
      }
    }
    connection.out.clear();
    connection.out_pos = 0;
    set_writing(connection, false);
  }

  void receive(Connection& connection) {
    char buffer[64 * 1024];
    while (!connection.dead) {
      const ssize_t n = ::recv(connection.fd->get(), buffer, sizeof buffer, 0);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        kill(connection);
        return;
      }
      auto state = connection.codec.consume(
          std::string_view(buffer, static_cast<std::size_t>(n)));
      const Clock::time_point now = Clock::now();
      while (state == stalecert::net::Http1ResponseCodec::State::kComplete) {
        const auto response = connection.codec.take_response();
        state = connection.codec.consume({});
        if (connection.inflight.empty()) {
          kill(connection);  // an answer nobody asked for
          return;
        }
        const Pending pending = connection.inflight.front();
        connection.inflight.pop_front();
        const bool ok = response.status == 200;
        result_.tally.add(ok);
        if (ok) {
          result_.latency_us.push_back(
              std::chrono::duration<double, std::micro>(now - pending.due)
                  .count());
          result_.due_s.push_back(
              std::chrono::duration<double>(pending.due - begin_).count());
        }
        if (options_.spans != nullptr) {
          options_.spans->add("http.request", pending.due, now,
                              options_.parent_span, pending.id);
        }
      }
      if (state == stalecert::net::Http1ResponseCodec::State::kError) {
        kill(connection);
        return;
      }
    }
  }

  void kill(Connection& connection) {
    if (connection.dead) return;
    ::epoll_ctl(epoll_->get(), EPOLL_CTL_DEL, connection.fd->get(), nullptr);
    connection.dead = true;
    for (std::size_t i = 0; i < connection.inflight.size(); ++i) {
      result_.tally.add(false);
    }
    connection.inflight.clear();
  }

  void fail_outstanding() {
    for (auto& connection : connections_) {
      for (std::size_t i = 0; i < connection->inflight.size(); ++i) {
        result_.tally.add(false);
      }
      connection->inflight.clear();
    }
  }

  [[nodiscard]] std::uint64_t in_flight() const {
    std::uint64_t total = 0;
    for (const auto& connection : connections_) {
      total += connection->inflight.size();
    }
    return total;
  }

  const std::vector<std::string>& wire_;
  const OpenLoopOptions& options_;
  unsigned index_;
  Clock::time_point begin_;
  std::mt19937_64 rng_;
  std::chrono::duration<double> interval_{};
  std::chrono::duration<double> offset_{};
  std::uint64_t slots_ = 0;
  std::uint64_t next_ = 0;
  std::unique_ptr<Fd> epoll_;
  std::unique_ptr<Fd> timer_;
  std::vector<std::unique_ptr<Connection>> connections_;
  OpenLoopResult result_;
};

}  // namespace

OpenLoopResult run_open_loop(const std::vector<std::string>& wire,
                             const OpenLoopOptions& options) {
  if (wire.empty() || options.rate <= 0.0) {
    throw std::invalid_argument("run_open_loop: empty request pool or schedule");
  }
  // Connections are opened before the schedule starts, so connect time is
  // never charged to a request.
  const Clock::time_point begin = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::unique_ptr<Generator>> generators;
  for (unsigned t = 0; t < kGeneratorThreads; ++t) {
    generators.push_back(
        std::make_unique<Generator>(wire, options, t, begin));
  }
  std::vector<OpenLoopResult> results(kGeneratorThreads);
  std::vector<std::string> errors(kGeneratorThreads);
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < kGeneratorThreads; ++t) {
      threads.emplace_back([&, t] {
        try {
          results[t] = generators[t]->run();
        } catch (const std::exception& e) {
          errors[t] = e.what();
        }
      });
    }
  }
  OpenLoopResult merged;
  merged.offered_rate = options.rate;
  for (unsigned t = 0; t < kGeneratorThreads; ++t) {
    if (!errors[t].empty()) throw std::runtime_error(errors[t]);
    auto& r = results[t];
    merged.latency_us.insert(merged.latency_us.end(), r.latency_us.begin(),
                             r.latency_us.end());
    merged.due_s.insert(merged.due_s.end(), r.due_s.begin(), r.due_s.end());
    merged.lateness_us.insert(merged.lateness_us.end(), r.lateness_us.begin(),
                              r.lateness_us.end());
    merged.sent_due_s.insert(merged.sent_due_s.end(), r.sent_due_s.begin(),
                             r.sent_due_s.end());
    merged.tally += r.tally;
    merged.backlog_at_end += r.backlog_at_end;
  }
  return merged;
}

namespace {

double p99_window_s(const OpenLoopResult& result) {
  return std::max(0.1, 1000.0 / result.offered_rate);
}

}  // namespace

double windowed_p99_us(const OpenLoopResult& result, double across) {
  return windowed_quantile(result.due_s, result.latency_us,
                           p99_window_s(result), 0.99, across);
}

double windowed_lateness_p99_us(const OpenLoopResult& result) {
  return windowed_quantile(result.sent_due_s, result.lateness_us,
                           p99_window_s(result), 0.99, 0.1);
}

SearchResult search_max_qps(const std::vector<std::string>& wire,
                            OpenLoopOptions base, double start_rate,
                            double budget_seconds) {
  SearchResult result;
  double pass = 0.0;  // highest passing rate so far
  double fail = 0.0;  // lowest failing rate so far (0 = none yet)
  double rate = start_rate;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(
                         static_cast<std::int64_t>(budget_seconds * 1e3));
  // One probe: pass, or fail with whether the failure was borderline (no
  // runaway backlog) and so worth one repeat.
  struct Verdict {
    bool pass = false;
    bool borderline = false;
  };
  const auto probe_at = [&](double offered) {
    base.rate = offered;
    base.seconds = kProbeSeconds;
    const OpenLoopResult probe = run_open_loop(wire, base);
    ++result.probes;
    result.tally += probe.tally;
    const double p99 = windowed_p99_us(probe);
    const double lateness_p99 = windowed_lateness_p99_us(probe);
    // A backlog of more than ~2 ms of arrivals at the end of the schedule
    // means the server was falling behind; a generator running late means
    // the rate was not really offered. The backlog is read at one instant,
    // so a stall of the host just then fails the probe too: only ten times
    // that backlog (a runaway) makes a failure final without a repeat.
    const double backlog_limit = std::max(16.0, offered * 0.002);
    const auto backlog = static_cast<double>(probe.backlog_at_end);
    Verdict verdict;
    verdict.pass = probe.tally.failed == 0 && p99 > 0.0 && p99 <= kLimitUs &&
                   backlog <= backlog_limit && lateness_p99 <= kLimitUs / 4;
    verdict.borderline = !verdict.pass && backlog <= 10 * backlog_limit;
    std::cout << "  search: " << format_number(offered) << "/s p99 "
              << format_number(p99) << " us, backlog " << probe.backlog_at_end
              << ", lateness p99 " << format_number(lateness_p99) << " us -> "
              << (verdict.pass ? "pass" : "fail") << '\n';
    return verdict;
  };
  // Past the deadline the search goes on only while no rate has passed;
  // halving from there soon reaches one that does.
  while ((Clock::now() < deadline || pass == 0.0) && result.probes < kMaxProbes) {
    Verdict verdict = probe_at(rate);
    if (verdict.borderline) verdict = probe_at(rate);
    if (verdict.pass) {
      pass = std::max(pass, rate);
    } else {
      fail = fail == 0.0 ? rate : std::min(fail, rate);
    }
    if (fail == 0.0) {
      if (rate >= kMaxRate) break;
      rate = std::min(rate * kGrowth, kMaxRate);
    } else if (pass == 0.0) {
      rate /= kGrowth;
    } else if (fail / pass <= 1.0 + kPrecision) {
      break;
    } else {
      rate = std::sqrt(pass * fail);
    }
  }
  result.max_qps = pass;
  return result;
}

}  // namespace perfbench
