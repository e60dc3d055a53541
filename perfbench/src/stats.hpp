// Statistics of the benchmark: the percentile rule, open-loop rung
// verdicts and output digests. Pure functions, unit-tested in
// perfbench/tests/test_perfbench.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// The tail percentile a sample of `n` supports: the highest of 99.9, 99,
/// 90 and 50 with at least ten samples beyond it under the nearest rank
/// (n - ceil(q n) >= 10). Returns 0 when not even the median qualifies.
[[nodiscard]] double supported_tail(std::size_t n);

/// The quantile `q` of `samples` when the sample supports it (at least ten
/// samples beyond it), else the supported tail. `used_q` receives the
/// quantile actually reported.
[[nodiscard]] double tail_at_most(const std::vector<double>& samples, double q, double& used_q);

/// A sample stamped with when it happened (seconds since its phase began).
struct Stamped {
  double at_s = 0.0;
  double value = 0.0;
};

/// A run's figures from fixed time blocks: each block of `block_s` seconds
/// with at least `min_samples` samples gives its own p50, p90 and rate
/// (samples per second). A run reports the fast quartile of those: the
/// first quartile of the block p50s and p90s, the third of the rates. On a
/// shared host, slow phases of the host lengthen some blocks and never
/// shorten any, so the fast blocks are the ones that show what the code
/// costs; a slower code path slows every block.
struct BlockFigures {
  std::size_t blocks = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double rate = 0.0;
};
[[nodiscard]] BlockFigures block_figures(const std::vector<Stamped>& samples, double block_s,
                                         std::size_t min_samples);

/// The same figures from blocks already split by the caller (for example
/// one block per repetition of a fixed piece of work): `p50s`, `p90s` and
/// `rates` hold one value per block.
[[nodiscard]] BlockFigures fast_quartile(const std::vector<double>& p50s,
                                         const std::vector<double>& p90s,
                                         const std::vector<double>& rates);

/// One rung of an open-loop rate ladder, as the generator saw it.
struct Rung {
  double rate = 0.0;            ///< offered requests per second
  std::size_t sent = 0;         ///< requests due in the window
  std::size_t refused = 0;      ///< BUSY or error replies, or no reply
  double p50_us = 0.0;          ///< latency from the due time
  double p99_us = 0.0;
  double lag_p99_us = 0.0;      ///< how late the generator issued requests
  std::size_t backlog_mid = 0;  ///< due but unanswered, half-way through
  std::size_t backlog_end = 0;  ///< due but unanswered, at the window's end
};

struct RungLimits {
  double p99_us = 5000.0;         ///< latency limit on the p99
  double max_lag_us = 1000.0;     ///< generator lateness that voids a rung
  std::size_t backlog_slack = 8;  ///< backlog growth tolerated
};

enum class RungVerdict { kPass, kFail, kInvalid };

/// kInvalid when the generator itself fell behind (its lag p99 exceeds the
/// limit), kPass when the p99 meets the limit, nothing was refused and
/// the backlog did not grow, kFail otherwise.
[[nodiscard]] RungVerdict judge_rung(const Rung& rung, const RungLimits& limits);
[[nodiscard]] const char* verdict_name(RungVerdict verdict);

/// Highest offered rate among the rungs that pass; 0 when none does.
[[nodiscard]] double max_passing_rate(const std::vector<Rung>& rungs, const RungLimits& limits);

/// Order-sensitive FNV-1a digest of a sequence of records.
class Digest {
 public:
  Digest& add(const std::string& record);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
