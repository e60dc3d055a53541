// Unit tests of the benchmark's own logic: the percentile rule, block
// medians, the speed gauge's scale, span self time, the hit_max_rate rung
// choice, digest stability and the snapshot hygiene that makes every
// workload start cold. A plain executable: exits non-zero when a check
// fails.
//
//   perfbench_tests        (run from any writable directory)
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "gauge.hpp"
#include "net/client.hpp"
#include "service/persistence.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "util/log.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                              \
  do {                                                                           \
    if (!(cond)) {                                                               \
      ++g_failures;                                                              \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK failed: " #cond "\n"; \
    }                                                                            \
  } while (0)

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted on purpose
  return v;
}

void percentile_rule() {
  // The highest of p99.9 / p99 / p90 / p50 with at least ten samples beyond it.
  CHECK(supported_tail(0) == 0.0);
  CHECK(supported_tail(19) == 0.0);
  CHECK(supported_tail(20) == 0.5);
  CHECK(supported_tail(99) == 0.5);
  CHECK(supported_tail(100) == 0.9);
  CHECK(supported_tail(999) == 0.9);
  CHECK(supported_tail(1000) == 0.99);
  CHECK(supported_tail(9999) == 0.99);
  CHECK(supported_tail(10000) == 0.999);

  CHECK(quantile({}, 0.5) == 0.0);
  CHECK(quantile(ramp(100), 0.5) == 50.0);
  CHECK(quantile(ramp(100), 0.9) == 90.0);
  CHECK(quantile(ramp(1000), 0.99) == 990.0);  // exactly ten samples beyond

  double used = 0.0;
  CHECK(tail_at_most(ramp(1000), 0.99, used) == 990.0 && used == 0.99);
  CHECK(tail_at_most(ramp(500), 0.99, used) == 450.0 && used == 0.9);  // p99 unsupported
  CHECK(tail_at_most(ramp(10), 0.9, used) == 5.0 && used == 0.0);       // median only
}

void block_statistics() {
  // Four one-second blocks of 100 samples; the third ran ten times slower.
  // The fast quartile of the blocks ignores it, pooled percentiles would not.
  std::vector<Stamped> samples;
  for (int b = 0; b < 4; ++b) {
    const int n = b == 2 ? 50 : 100;  // the slow block also completed less
    for (int i = 0; i < n; ++i) {
      const double value = (b == 2 ? 10.0 : 1.0) * (i + 1);
      samples.push_back({b + i / 100.0, value});
    }
  }
  samples.push_back({4.5, 1e9});  // a lone sample in a fifth block is skipped
  const BlockFigures m = block_figures(samples, 1.0, 10);
  CHECK(m.blocks == 4);
  CHECK(m.p50 == 50.0);
  CHECK(m.p90 == 90.0);
  CHECK(m.rate == 100.0);
  CHECK(block_figures({}, 1.0, 1).blocks == 0);

  // Quartiles of per-block values: first for latencies, third for rates.
  const BlockFigures q = fast_quartile({4, 1, 3, 2}, {40, 10, 30, 20}, {1, 4, 2, 3});
  CHECK(q.blocks == 4 && q.p50 == 1 && q.p90 == 10 && q.rate == 3);
}

Span span(std::uint32_t id, std::uint32_t parent, std::int64_t start, std::int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void gauge_scale() {
  // Reference speed: kReferenceMs over the median kernel time.
  CHECK(time_scale({}) == 1.0);
  CHECK(time_scale({kReferenceMs}) == 1.0);
  CHECK(time_scale({2 * kReferenceMs, kReferenceMs / 2, 2 * kReferenceMs}) == 0.5);
  CHECK(time_scale({kReferenceMs / 2, 100 * kReferenceMs, kReferenceMs / 2}) == 2.0);

  SpeedGauge gauge;
  gauge.sample();
  gauge.sample_every(3600.0);  // too soon: no second sample
  CHECK(gauge.kernel_ms().size() == 1);
  CHECK(gauge.kernel_ms().front() > 0.0);
  BackgroundGauge background(3600.0);
  CHECK(background.stop() > 0.0);  // sampled once at start, then stopped
}

void span_self_time() {
  const Span parent = span(1, 0, 0, 100);
  CHECK(self_time_ns(parent, {}) == 100);
  // Overlapping children count once; the part outside the parent is ignored.
  CHECK(self_time_ns(parent, {span(2, 1, 10, 30), span(3, 1, 20, 40), span(4, 1, 90, 120)}) == 60);
  // Nested grandchild intervals inside a child change nothing.
  CHECK(self_time_ns(parent, {span(2, 1, 10, 50), span(3, 1, 20, 30)}) == 60);
  CHECK(self_time_ns(parent, {span(2, 1, -5, 200)}) == 0);

  Tracer tracer;
  const std::uint32_t root = tracer.begin("root", 7);
  const std::uint32_t child = tracer.begin("child", 7, root);
  tracer.end(child);
  tracer.end(root);
  const auto total = tracer.durations_us("root");
  const auto self = tracer.self_times_us("root");
  CHECK(total.size() == 1 && self.size() == 1);
  CHECK(self[0] <= total[0] && self[0] >= 0.0);
  CHECK(std::abs(total[0] - self[0] - tracer.durations_us("child")[0]) < 1e-6);
  CHECK(tracer.span(child).request == 7 && tracer.span(child).parent == root);
}

Rung rung(double rate, double p99, std::size_t refused = 0, double lag = 10.0,
          std::size_t mid = 1, std::size_t end = 1) {
  Rung r;
  r.rate = rate;
  r.sent = 1000;
  r.refused = refused;
  r.p50_us = p99 / 2;
  r.p99_us = p99;
  r.lag_p99_us = lag;
  r.backlog_mid = mid;
  r.backlog_end = end;
  return r;
}

void rung_choice() {
  const RungLimits limits;
  CHECK(judge_rung(rung(500, 800), limits) == RungVerdict::kPass);
  CHECK(judge_rung(rung(500, 5001), limits) == RungVerdict::kFail);            // p99 limit
  CHECK(judge_rung(rung(500, 800, 1), limits) == RungVerdict::kFail);          // one refusal
  CHECK(judge_rung(rung(500, 800, 0, 10, 2, 40), limits) == RungVerdict::kFail);  // backlog grew
  CHECK(judge_rung(rung(500, 800, 0, 10, 2, 9), limits) == RungVerdict::kPass);   // within slack
  CHECK(judge_rung(rung(500, 800, 0, 5000), limits) == RungVerdict::kInvalid);    // generator late
  CHECK(judge_rung(Rung{}, limits) == RungVerdict::kFail);                        // nothing sent

  // Highest passing rung wins, even above a failed one; invalid rungs never pass.
  CHECK(max_passing_rate({rung(500, 800), rung(1000, 900), rung(2000, 9000)}, limits) == 1000);
  CHECK(max_passing_rate({rung(500, 800), rung(1000, 9000), rung(2000, 900)}, limits) == 2000);
  CHECK(max_passing_rate({rung(500, 800), rung(1000, 900, 0, 4000)}, limits) == 500);
  CHECK(max_passing_rate({rung(500, 9000)}, limits) == 0);
}

void digest_stability() {
  const auto of = [](const std::vector<std::string>& records) {
    Digest d;
    for (const auto& r : records) d.add(r);
    return d.hex();
  };
  CHECK(of({"a 1", "b 2"}) == of({"a 1", "b 2"}));
  CHECK(of({"a 1", "b 2"}) != of({"b 2", "a 1"}));  // order-sensitive
  CHECK(of({"ab", "c"}) != of({"a", "bc"}));        // records are delimited
  CHECK(of({}) == "cbf29ce484222325");               // FNV-1a offset basis
  CHECK(of({"cold c0_0 00000000deadbeef 2 3 41.5"}).size() == 16);
  // Pinned: a change to the digest would make old and new runs incomparable.
  CHECK(of({"x", "y"}) == "725f725716f98d94");
  CHECK(of({"x"}) != of({"x", ""}));
}

void snapshot_hygiene() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::absolute("perfbench_tests_tmp");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string base = (dir / "svc.snapshot").string();
  for (const char* name : {"svc.snapshot", "svc.snapshot.g1", "svc.snapshot.g12",
                           "svc.snapshot.g3.tmp", "svc.snapshot.tmp", "other.snapshot.g1"}) {
    std::ofstream(dir / name) << "x";
  }
  remove_snapshot_generations(base);
  std::size_t left = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    ++left;
    CHECK(e.path().filename() == "other.snapshot.g1");
  }
  CHECK(left == 1);
  fs::remove(dir / "other.snapshot.g1");

  // A server that stops cleanly leaves a generation behind; without the
  // removal the next server starts warm, with it the next starts cold.
  const auto config = server_config("perfbench_tests_tmp", "svc", 4, 4);
  const std::string line = submit_line(make_dag(3, 0, 26), streamsched::FaultModel::count(1),
                                       streamsched::net::QosClass::kInteractive, "t0");
  const auto restored_after_start = [&] {
    ServerThread server(make_cluster(8), config);
    auto client = streamsched::net::Client::connect_unix_path(server.socket_path());
    const auto stats = client.stats();
    CHECK(client.roundtrip(line).ok);
    server.stop();
    return stats.field_u64("restored");
  };
  CHECK(restored_after_start() == 0);
  CHECK(!streamsched::list_snapshot_generations(config.snapshot_path).empty());
  CHECK(restored_after_start() == 1);  // the stale generation is loaded
  remove_snapshot_generations(config.snapshot_path);
  CHECK(restored_after_start() == 0);
  fs::remove_all(dir);
}

}  // namespace

int main() {
  streamsched::set_log_level(streamsched::LogLevel::kError);
  percentile_rule();
  block_statistics();
  gauge_scale();
  span_self_time();
  rung_choice();
  digest_stability();
  snapshot_hygiene();
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench_tests: all checks passed\n";
  return 0;
}
