#include "open_loop.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <unordered_map>

#include "net/socket.hpp"

namespace perfbench {

using namespace streamsched;

std::string body_after_tag(const std::string& line) {
  const std::string head = "SUBMIT tag=";
  if (line.rfind(head, 0) != 0) throw std::invalid_argument("not a tagged SUBMIT: " + line);
  const std::size_t space = line.find(' ', head.size());
  if (space == std::string::npos) throw std::invalid_argument("SUBMIT without a body");
  return line.substr(space);
}

namespace {

/// How long replies are awaited after the window closes.
constexpr double kDrainS = 10.0;

struct Pending {
  Clock::time_point due;
  std::size_t body = 0;
};

}  // namespace

OpenLoopResult run_open_loop(const OpenLoopSpec& spec) {
  OpenLoopResult out;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake at the due time, not up to 50 us after it
  net::Fd fd = net::connect_unix(spec.socket_path);
  net::set_nonblocking(fd.get(), true);
  const auto at = [&](std::size_t n) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(n) / spec.rate));
  };
  const Clock::time_point window_end = start + std::chrono::duration_cast<Clock::duration>(
                                                   std::chrono::duration<double>(spec.window_s));
  const Clock::time_point mid = start + (window_end - start) / 2;
  const Clock::time_point give_up = window_end + std::chrono::duration_cast<Clock::duration>(
                                                     std::chrono::duration<double>(kDrainS));
  const std::vector<std::string>& bodies = *spec.bodies;

  std::unordered_map<std::size_t, Pending> pending;
  std::string outbuf;
  std::size_t out_off = 0;
  std::string inbuf;
  std::size_t next = 0;
  std::size_t answered = 0;
  bool mid_taken = false;
  bool end_taken = false;
  Clock::time_point last_reply = start;

  // How many requests were due by `t` (capped at the window).
  const auto due_by = [&](Clock::time_point t) {
    std::size_t n = 0;
    while (at(n) <= t && at(n) < window_end) ++n;
    return n;
  };

  char buf[1 << 16];
  for (;;) {
    Clock::time_point now = Clock::now();
    while (next != SIZE_MAX && at(next) <= now) {
      if (at(next) >= window_end) {
        next = SIZE_MAX;
        break;
      }
      const std::size_t body = next % bodies.size();
      outbuf += "SUBMIT tag=";
      outbuf += std::to_string(next);
      outbuf += bodies[body];
      outbuf += '\n';
      pending.emplace(next, Pending{at(next), body});
      out.lag_us.push_back(us_between(at(next), now));
      ++out.sent;
      ++next;
    }
    if (!mid_taken && now >= mid) {
      mid_taken = true;
      out.backlog_mid = due_by(mid) - std::min(answered, due_by(mid));
    }
    if (!end_taken && now >= window_end) {
      end_taken = true;
      out.backlog_end = out.sent - answered;
    }
    if (end_taken && pending.empty()) break;
    if (now >= give_up) break;

    while (out_off < outbuf.size()) {
      const ssize_t n = net::send_some(fd.get(), outbuf.data() + out_off, outbuf.size() - out_off);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw std::runtime_error("open loop: send failed");
      }
      out_off += static_cast<std::size_t>(n);
    }
    if (out_off == outbuf.size()) {
      outbuf.clear();
      out_off = 0;
    }

    Clock::time_point wake = give_up;
    if (next != SIZE_MAX) wake = std::min(wake, at(next));
    if (!mid_taken) wake = std::min(wake, mid);
    if (!end_taken) wake = std::min(wake, window_end);
    const auto wait = std::max<Clock::duration>(wake - Clock::now(), Clock::duration::zero());
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
    pollfd pfd{fd.get(), static_cast<short>(POLLIN | (outbuf.empty() ? 0 : POLLOUT)), 0};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("open loop: poll failed");
    if (ready <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    for (;;) {
      const ssize_t n = net::recv_some(fd.get(), buf, sizeof buf);
      if (n > 0) {
        inbuf.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) throw std::runtime_error("open loop: server closed the connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      throw std::runtime_error("open loop: recv failed");
    }
    const Clock::time_point got = Clock::now();
    std::size_t line_start = 0;
    for (std::size_t nl; (nl = inbuf.find('\n', line_start)) != std::string::npos;
         line_start = nl + 1) {
      const std::string line = inbuf.substr(line_start, nl - line_start);
      const net::Response resp = net::parse_response(line);
      const auto it = pending.find(std::stoull(resp.field("tag")));
      if (it == pending.end()) throw std::runtime_error("open loop: reply to an unknown tag");
      ++answered;
      last_reply = got;
      switch (spec.check(resp, it->second.body)) {
        case ReplyVerdict::kOk:
          ++out.ok;
          out.latency_us.push_back(us_between(it->second.due, got));
          out.due_s.push_back(std::chrono::duration<double>(it->second.due - start).count());
          break;
        case ReplyVerdict::kBusy:
          ++out.busy;
          break;
        case ReplyVerdict::kFailed:
          ++out.failed;
          if (out.failures.size() < 4) out.failures.push_back(line.substr(0, 200));
          break;
      }
      pending.erase(it);
    }
    inbuf.erase(0, line_start);
  }
  out.unanswered = pending.size();
  const double active_s = std::chrono::duration<double>(last_reply - start).count();
  out.goodput_per_s = active_s > 0.0 ? static_cast<double>(out.ok) / active_s : 0.0;
  return out;
}

}  // namespace perfbench
