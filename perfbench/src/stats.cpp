#include "stats.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr double kTailLadder[] = {0.999, 0.99, 0.9, 0.5};

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

bool supports(std::size_t n, double q) { return n > 0 && n - nearest_rank(n, q) >= 10; }

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t k = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double supported_tail(std::size_t n) {
  for (double q : kTailLadder) {
    if (supports(n, q)) return q;
  }
  return 0.0;
}

double tail_at_most(const std::vector<double>& samples, double q, double& used_q) {
  used_q = supports(samples.size(), q) ? q : supported_tail(samples.size());
  return used_q > 0.0 ? quantile(samples, used_q) : quantile(samples, 0.5);
}

BlockFigures block_figures(const std::vector<Stamped>& samples, double block_s,
                           std::size_t min_samples) {
  std::vector<std::vector<double>> blocks;
  for (const Stamped& s : samples) {
    if (s.at_s < 0.0) continue;
    const auto b = static_cast<std::size_t>(s.at_s / block_s);
    if (b >= blocks.size()) blocks.resize(b + 1);
    blocks[b].push_back(s.value);
  }
  std::vector<double> p50s, p90s, rates;
  for (const auto& block : blocks) {
    if (block.size() < std::max<std::size_t>(min_samples, 1)) continue;
    p50s.push_back(quantile(block, 0.5));
    p90s.push_back(quantile(block, 0.9));
    rates.push_back(static_cast<double>(block.size()) / block_s);
  }
  return fast_quartile(p50s, p90s, rates);
}

BlockFigures fast_quartile(const std::vector<double>& p50s, const std::vector<double>& p90s,
                           const std::vector<double>& rates) {
  BlockFigures out;
  out.blocks = p50s.size();
  out.p50 = quantile(p50s, 0.25);
  out.p90 = quantile(p90s, 0.25);
  out.rate = quantile(rates, 0.75);
  return out;
}

RungVerdict judge_rung(const Rung& rung, const RungLimits& limits) {
  if (rung.lag_p99_us > limits.max_lag_us) return RungVerdict::kInvalid;
  const bool grew = rung.backlog_end > rung.backlog_mid + limits.backlog_slack;
  if (rung.sent == 0 || rung.refused > 0 || grew || rung.p99_us > limits.p99_us) {
    return RungVerdict::kFail;
  }
  return RungVerdict::kPass;
}

const char* verdict_name(RungVerdict verdict) {
  switch (verdict) {
    case RungVerdict::kPass: return "pass";
    case RungVerdict::kFail: return "fail";
    case RungVerdict::kInvalid: return "invalid";
  }
  return "?";
}

double max_passing_rate(const std::vector<Rung>& rungs, const RungLimits& limits) {
  double best = 0.0;
  for (const Rung& rung : rungs) {
    if (judge_rung(rung, limits) == RungVerdict::kPass) best = std::max(best, rung.rate);
  }
  return best;
}

Digest& Digest::add(const std::string& record) {
  for (unsigned char ch : record) {
    h_ ^= ch;
    h_ *= 0x100000001b3ULL;
  }
  h_ ^= 0xff;  // record separator: ("ab","c") != ("a","bc")
  h_ *= 0x100000001b3ULL;
  return *this;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

}  // namespace perfbench
