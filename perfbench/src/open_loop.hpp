// Open-loop SUBMIT generator: requests are issued on a fixed schedule,
// whatever the server does, over one non-blocking connection. Each request is timed from the moment it was due, so a
// stall also charges the requests queued behind it; how late the
// generator itself issued requests is reported separately.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/wire.hpp"

namespace perfbench {

enum class ReplyVerdict { kOk, kBusy, kFailed };

struct OpenLoopSpec {
  std::string socket_path;
  double rate = 500.0;      ///< offered SUBMITs per second
  double window_s = 1.0;    ///< requests are due during [start, start + window)
  /// Request bodies: a line is "SUBMIT tag=<n>" + body; request n uses
  /// body n % bodies.size().
  const std::vector<std::string>* bodies = nullptr;
  /// Classifies one reply to request body `body`.
  std::function<ReplyVerdict(const streamsched::net::Response&, std::size_t body)> check;
};

struct OpenLoopResult {
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t busy = 0;
  std::size_t failed = 0;      ///< error replies other than BUSY, or failed checks
  std::size_t unanswered = 0;  ///< no reply within the drain time
  std::vector<double> latency_us;  ///< from the due time, OK replies only
  std::vector<double> due_s;       ///< parallel to latency_us: due time, seconds from start
  std::vector<double> lag_us;      ///< issue time minus due time
  std::size_t backlog_mid = 0;
  std::size_t backlog_end = 0;
  double goodput_per_s = 0.0;  ///< OK replies per second, window start to last reply
  std::vector<std::string> failures;  ///< first few failed replies, for diagnostics
};

[[nodiscard]] OpenLoopResult run_open_loop(const OpenLoopSpec& spec);

/// Splits `line` ("SUBMIT tag=<tag> ...") into the body that follows the
/// tag, for OpenLoopSpec::bodies.
[[nodiscard]] std::string body_after_tag(const std::string& line);

}  // namespace perfbench
