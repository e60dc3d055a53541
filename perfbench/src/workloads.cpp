// The four untraced workloads (README.md gives the why of each).
#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "core/fingerprint.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "net/client.hpp"
#include "gauge.hpp"
#include "open_loop.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/survival.hpp"
#include "service/churn.hpp"
#include "service/daemon.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace streamsched;

namespace {

std::string fmt(double v) {
  std::ostringstream s;
  s << v;
  return s.str();
}

/// Fills in the end-to-end metrics every workload reports: the timings
/// measured in the run, taken to reference speed with the run's gauge
/// `scale` (gauge.hpp).
void put_metrics(Result& r, double scale, double setup_s, double p50_us, double p90_us,
                 double throughput_per_s, double rss_mb = peak_rss_mb()) {
  r.metrics = {{"setup_s", setup_s * scale, "s"},
               {"p50_us", p50_us * scale, "us"},
               {"p90_us", p90_us * scale, "us"},
               {"throughput_per_s", throughput_per_s / scale, "1/s"},
               {"peak_rss_mb", rss_mb, "MB"}};
  const double expected = static_cast<double>(std::max<std::uint64_t>(r.attempted, 1));
  r.put("setup_s", setup_s, "s");
  r.put("speed_scale", scale, "factor");
  r.put("failed_share", static_cast<double>(r.failed) / expected, "fraction");
  r.put("peak_rss_mb", rss_mb, "MB");
}

/// Median of a few set-up repetitions.
double median_of(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The cache every socket workload must start from: empty, nothing restored.
void require_cold_start(Result& r, net::Client& client, const char* workload) {
  const net::Response stats = client.stats();
  if (!stats.ok || stats.field_u64("restored") != 0 || stats.field_u64("cache_size") != 0) {
    r.problem(std::string(workload) + ": server did not start cold (restored=" +
              stats.field("restored") + " cache_size=" + stats.field("cache_size") + ")");
  }
  r.note("start_cold", stats.ok && stats.field_u64("restored") == 0 ? "1" : "0");
}

/// Pipelines `lines` over one connection and returns the replies in order
/// of the request index encoded in each tag ("<prefix><index>").
std::vector<net::Response> pipeline(net::Client& client, const std::vector<std::string>& lines) {
  for (const std::string& line : lines) client.send_line(line);
  std::vector<net::Response> out(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    net::Response resp = client.read_response();
    const std::string& tag = resp.field("tag");
    const std::size_t at = tag.find_first_of("0123456789");
    const std::size_t idx = at == std::string::npos ? i : std::stoull(tag.substr(at));
    out.at(idx) = std::move(resp);
  }
  return out;
}

/// Pipelines `first` and `second` over two connections at once (one per QoS
/// lane in the callers) and returns both reply vectors.
std::pair<std::vector<net::Response>, std::vector<net::Response>> pipeline_pair(
    const std::string& socket, const std::vector<std::string>& first,
    const std::vector<std::string>& second) {
  net::Client a = net::Client::connect_unix_path(socket);
  net::Client b = net::Client::connect_unix_path(socket);
  std::vector<net::Response> ra;
  std::exception_ptr error;
  std::thread other([&] {
    try {
      ra = pipeline(a, first);
    } catch (...) {
      error = std::current_exception();
    }
  });
  std::vector<net::Response> rb;
  try {
    rb = pipeline(b, second);
  } catch (...) {
    other.join();
    throw;
  }
  other.join();
  if (error) std::rethrow_exception(error);
  return {std::move(ra), std::move(rb)};
}

// ---------------------------------------------------------------- hit_stream --

struct HitRung {
  double rate;
  double share;  ///< of --seconds spent issuing this rung
};
constexpr HitRung kHitRungs[] = {{500, 0.35}, {1000, 0.10}, {2000, 0.10},
                                 {4000, 0.08}, {8000, 0.04}, {16000, 0.03}};
/// Share of --seconds of the closed-loop saturation phase.
constexpr double kSaturationShare = 0.20;
constexpr std::size_t kSaturationDepth = 32;

/// Hit replies per second with `depth` SUBMITs always outstanding on one
/// connection: the hit path's capacity, with a bounded backlog. Taken
/// from half-second blocks.
double saturated_hits_per_s(const std::string& socket, const std::vector<std::string>& lines,
                            const std::vector<std::string>& fps, double window_s, Result& r) {
  net::Client c = net::Client::connect_unix_path(socket);
  std::size_t sent = 0;
  std::size_t done = 0;
  const auto send_next = [&] {
    const std::size_t d = sent % lines.size();
    c.send_line("SUBMIT tag=" + std::to_string(d) + body_after_tag(lines[d]));
    ++sent;
  };
  for (std::size_t k = 0; k < kSaturationDepth; ++k) send_next();
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  std::vector<Stamped> completions;
  while (done < sent) {
    const net::Response resp = c.read_response();
    ++done;
    ++r.attempted;
    const std::size_t d = std::stoull(resp.field("tag"));
    if (!resp.ok || resp.field("src") != "hit" || resp.field("fp") != fps.at(d)) {
      ++r.failed;
      r.problem("hit_stream saturation reply: " + (resp.ok ? resp.field("src") : resp.message));
    }
    elapsed = seconds_since(start);
    if (elapsed < window_s) {
      completions.push_back({elapsed, 1.0});
      send_next();
    }
  }
  std::vector<int> per_block;
  for (const Stamped& c : completions) {
    const auto b = static_cast<std::size_t>(c.at_s / 0.5);
    if (b >= per_block.size()) per_block.resize(b + 1);
    ++per_block[b];
  }
  std::string row;
  for (int n : per_block) row += std::to_string(n * 2) + " ";
  r.note("saturation_blocks", row);
  return block_figures(completions, 0.5, 1).rate;
}

}  // namespace

Result run_hit_stream(const Options& opt) {
  Result r;
  constexpr std::size_t kDags = kHitDags;
  std::vector<std::string> lines(kDags);
  for (std::size_t d = 0; d < kDags; ++d) {
    lines[d] = hit_line(opt.seed, d, net::QosClass::kInteractive, "h" + std::to_string(d));
  }
  std::vector<std::string> bodies;
  for (const std::string& line : lines) bodies.push_back(body_after_tag(line));
  const auto config = server_config(opt.workdir, "hit_stream", 64, 64);

  // Set-up: a cold server admits the 64 DAGs (split over both lanes).
  // Repeated; the last server stays up for the measurement.
  BackgroundGauge gauge(1.0);
  std::vector<double> setups;
  std::vector<std::string> fps(kDags);
  std::unique_ptr<ServerThread> server;
  for (int rep = 0; rep < 5; ++rep) {
    if (server) server->stop();  // a clean stop saves a snapshot generation
    server.reset();
    remove_snapshot_generations(config.snapshot_path);
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<ServerThread>(make_cluster(kProcs), config);
    if (rep == 0) {
      net::Client c = net::Client::connect_unix_path(server->socket_path());
      require_cold_start(r, c, "hit_stream");
    }
    std::vector<std::string> first(lines.begin(), lines.begin() + kDags / 2);
    std::vector<std::string> second;
    for (std::size_t d = kDags / 2; d < kDags; ++d) {
      second.push_back(
          hit_line(opt.seed, d, net::QosClass::kBatch, "h" + std::to_string(d - kDags / 2)));
    }
    const auto [ra, rb] = pipeline_pair(server->socket_path(), first, second);
    setups.push_back(seconds_since(t0));
    for (std::size_t d = 0; d < kDags; ++d) {
      const net::Response& resp = d < kDags / 2 ? ra[d] : rb[d - kDags / 2];
      if (!resp.ok || resp.field("src") != "cold") {
        r.problem("hit_stream setup: DAG " + std::to_string(d) + " not admitted cold: " +
                  (resp.ok ? resp.field("src") : resp.message));
        return r;
      }
      if (rep > 0 && fps[d] != resp.field("fp")) {
        r.problem("hit_stream setup: DAG " + std::to_string(d) + " fingerprint changed between set-ups");
      }
      fps[d] = resp.field("fp");
    }
  }

  const double saturated =
      saturated_hits_per_s(server->socket_path(), lines, fps, kSaturationShare * opt.seconds, r);
  const RungLimits limits;
  std::vector<Rung> rungs;
  std::vector<double> base_latency;
  std::vector<Stamped> base_stamped;
  double base_rss_mb = 0.0;
  for (const HitRung& hr : kHitRungs) {
    OpenLoopSpec spec;
    spec.socket_path = server->socket_path();
    spec.rate = hr.rate;
    spec.window_s = hr.share * opt.seconds;
    spec.bodies = &bodies;
    spec.check = [&](const net::Response& resp, std::size_t body) {
      if (!resp.ok) return resp.code == net::WireCode::kBusy ? ReplyVerdict::kBusy
                                                              : ReplyVerdict::kFailed;
      return resp.field("src") == "hit" && resp.field("fp") == fps[body] ? ReplyVerdict::kOk
                                                                         : ReplyVerdict::kFailed;
    };
    const OpenLoopResult ol = run_open_loop(spec);
    Rung rung;
    rung.rate = hr.rate;
    rung.sent = ol.sent;
    rung.refused = ol.busy + ol.failed + ol.unanswered;
    rung.p50_us = quantile(ol.latency_us, 0.5);
    double used_q = 0.0;
    rung.p99_us = tail_at_most(ol.latency_us, 0.99, used_q);
    // An unanswered or refused request misses the rung's limit.
    if (rung.refused > 0) rung.p99_us = std::max(rung.p99_us, limits.p99_us + 1.0);
    rung.lag_p99_us = quantile(ol.lag_us, 0.99);
    rung.backlog_mid = ol.backlog_mid;
    rung.backlog_end = ol.backlog_end;
    rungs.push_back(rung);
    r.attempted += ol.sent;
    r.failed += ol.failed + ol.unanswered;
    if (hr.rate == kHitRungs[0].rate) {
      for (std::size_t k = 0; k < ol.latency_us.size(); ++k) {
        base_stamped.push_back({ol.due_s[k], ol.latency_us[k]});
      }
      // Peak memory while serving the base rate; the overload rungs add
      // whatever their backlog buffers, which depends on how far behind
      // the server falls.
      base_rss_mb = peak_rss_mb();
      base_latency = ol.latency_us;
      r.failed += ol.busy;  // the base rate is expected to be served in full
    }
    for (const std::string& f : ol.failures) r.problem("hit_stream reply: " + f);
    std::ostringstream row;
    row << "sent=" << ol.sent << " ok=" << ol.ok << " busy=" << ol.busy
        << " failed=" << ol.failed << " unanswered=" << ol.unanswered << " p50_us=" << rung.p50_us
        << " p99_us=" << rung.p99_us << " lag_p99_us=" << rung.lag_p99_us
        << " backlog_mid=" << ol.backlog_mid << " backlog_end=" << ol.backlog_end
        << " goodput_per_s=" << ol.goodput_per_s
        << " verdict=" << verdict_name(judge_rung(rung, limits));
    r.note("rung_" + fmt(hr.rate), row.str());
  }
  {
    net::Client client = net::Client::connect_unix_path(server->socket_path());
    const net::Response stats = client.stats();
    if (!stats.ok || stats.field_u64("cold") != kDags) {
      r.problem("hit_stream: the timed stream reached the cold path (cold=" +
                stats.field("cold") + ")");
    }
    const double hits = static_cast<double>(stats.field_u64("hits"));
    const double lookups = hits + static_cast<double>(stats.field_u64("misses"));
    // The set-up's cold admissions are the only misses the stream may see.
    const double ratio = hits / std::max(1.0, lookups - static_cast<double>(kDags));
    r.put("hit_ratio", ratio, "fraction");
    if (ratio != 1.0) r.problem("hit_stream: hit ratio " + fmt(ratio) + " != 1 after set-up");
  }
  const double scale = gauge.stop();
  server->stop();
  remove_snapshot_generations(config.snapshot_path);

  double used_q = 0.0;
  const double p50 = quantile(base_latency, 0.5);
  const double p99 = tail_at_most(base_latency, 0.99, used_q);
  r.put("hit_p50_us", p50, "us");
  r.put(used_q == 0.99 ? "hit_p99_us" : "hit_tail_us", p99, "us");
  r.put("hit_max_rate", max_passing_rate(rungs, limits), "req/s");
  r.put("hit_samples", static_cast<double>(base_latency.size()), "count");
  r.put("hit_saturated_per_s", saturated, "1/s");
  r.put("overload_peak_rss_mb", peak_rss_mb(), "MB");
  // The gated figures come from one-second blocks of the base rung.
  const BlockFigures blocks = block_figures(base_stamped, 1.0, 100);
  put_metrics(r, scale, median_of(setups), blocks.p50, blocks.p90, saturated, base_rss_mb);
  return r;
}

// ---------------------------------------------------------------- cold_admit --

namespace {

struct ColdRecord {
  std::string tag;
  std::size_t mix = 0;
  std::uint64_t index = 0;
  double rtt_us = 0.0;
  double done_s = 0.0;  ///< completion, seconds since the stream began
  std::string fp, eps, stages, latency;
};

}  // namespace

Result run_cold_admit(const Options& opt) {
  Result r;
  const auto config = server_config(opt.workdir, "cold_admit", 4, 1);
  // The shed probes cycle over a few 200-task DAGs: the cost of admitting
  // one such DAG varies by tens of percent from DAG to DAG, and the set-up
  // admits them all.
  constexpr std::size_t kProbeDags = 8;
  const FaultModel probe_model = FaultModel::parse("count:eps=1");
  std::vector<std::string> probe_lines;
  for (std::size_t k = 0; k < kProbeDags; ++k) {
    probe_lines.push_back(submit_line(make_dag(opt.seed, (1u << 30) + k, 200), probe_model,
                                      net::QosClass::kBatch, "shed" + std::to_string(k)));
  }

  // Set-up: start a cold server and admit the shed probes' DAGs, so a
  // probe that slips into the lane is a cheap hit.
  BackgroundGauge gauge(1.0);
  std::vector<double> setups;
  std::unique_ptr<ServerThread> server;
  for (int rep = 0; rep < 5; ++rep) {
    if (server) server->stop();  // a clean stop saves a snapshot generation
    server.reset();
    remove_snapshot_generations(config.snapshot_path);
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<ServerThread>(make_cluster(kProcs), config);
    net::Client c = net::Client::connect_unix_path(server->socket_path());
    if (rep == 0) require_cold_start(r, c, "cold_admit");
    for (const std::string& line : probe_lines) {
      const net::Response resp = c.roundtrip(line);
      if (!resp.ok) {
        r.problem("cold_admit setup: shed probe DAG not admitted: " + resp.message);
        return r;
      }
    }
    setups.push_back(seconds_since(t0));
  }

  const auto dag_for = [&](std::size_t stream, std::uint64_t i) {
    return std::make_pair(cold_dag(opt.seed, stream, i),
                          FaultModel::parse(kColdMix[cold_mix_index(stream, i)].model));
  };

  std::atomic<bool> stop{false};
  std::mutex mu;
  std::vector<ColdRecord> records;
  std::vector<double> shed_rtts;
  std::size_t probes_admitted = 0;
  std::size_t busy_retries = 0;
  std::vector<std::string> errors;
  const Clock::time_point start = Clock::now();
  const double window = opt.seconds;

  const auto stream = [&](std::size_t s) {
    try {
      const net::QosClass qos = s == 0 ? net::QosClass::kInteractive : net::QosClass::kBatch;
      net::Client c = net::Client::connect_unix_path(server->socket_path());
      // Whole cycles only, so every run measures the same mix.
      for (std::uint64_t i = 0; i % kColdCycle != 0 || seconds_since(start) < window; ++i) {
        auto [dag, model] = dag_for(s, i);
        const std::string tag = "c" + std::to_string(s) + "_" + std::to_string(i);
        const std::string line = submit_line(dag, model, qos, tag);
        net::Response resp;
        Clock::time_point t0;
        for (;;) {
          t0 = Clock::now();
          resp = c.roundtrip(line);
          if (resp.ok || resp.code != net::WireCode::kBusy) break;
          // The shed probe slipped into the one-slot batch lane: retry.
          {
            const std::lock_guard<std::mutex> lock(mu);
            ++busy_retries;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        const double rtt = us_between(t0, Clock::now());
        const std::lock_guard<std::mutex> lock(mu);
        if (!resp.ok || resp.field("src") != "cold") {
          errors.push_back(tag + ": " + (resp.ok ? "src=" + resp.field("src") : resp.message));
          continue;
        }
        records.push_back({tag, cold_mix_index(s, i), i, rtt, seconds_since(start), resp.field("fp"), resp.field("eps"),
                           resp.field("stages"), resp.field("latency")});
      }
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mu);
      errors.push_back(std::string("stream: ") + e.what());
    }
  };
  // Shed probes: 200-task batch SUBMITs at a fixed 50/s into the full lane.
  const auto prober = [&] {
    try {
      net::Client c = net::Client::connect_unix_path(server->socket_path());
      for (std::uint64_t k = 0; !stop.load(); ++k) {
        std::this_thread::sleep_until(start + std::chrono::milliseconds(20 * k));
        if (stop.load()) break;
        const Clock::time_point t0 = Clock::now();
        const net::Response resp = c.roundtrip(probe_lines[k % kProbeDags]);
        const double rtt = us_between(t0, Clock::now());
        const std::lock_guard<std::mutex> lock(mu);
        if (!resp.ok && resp.code == net::WireCode::kBusy) {
          shed_rtts.push_back(rtt);
        } else if (resp.ok) {
          ++probes_admitted;
        } else {
          errors.push_back("shed probe: " + resp.message);
        }
      }
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mu);
      errors.push_back(std::string("prober: ") + e.what());
    }
  };
  std::thread t_inter(stream, 0);
  std::thread t_batch(stream, 1);
  std::thread t_probe(prober);
  t_inter.join();
  t_batch.join();
  const double elapsed = seconds_since(start);
  stop = true;
  t_probe.join();
  const double scale = gauge.stop();
  net::Client client = net::Client::connect_unix_path(server->socket_path());
  const net::Response stats = client.stats();
  server->stop();
  remove_snapshot_generations(config.snapshot_path);

  for (const std::string& e : errors) r.problem("cold_admit: " + e);
  r.attempted = records.size() + errors.size() + shed_rtts.size() + probes_admitted;
  r.failed = errors.size();
  if (shed_rtts.empty()) r.problem("cold_admit: no shed probe was refused BUSY");

  // Determinism: the first cycle of each stream, re-admitted by an
  // independent in-process daemon, must give the same placements; the
  // digest over them is printed so runs at one seed can be compared.
  std::sort(records.begin(), records.end(),
            [](const ColdRecord& a, const ColdRecord& b) { return a.tag < b.tag; });
  Digest digest;
  PlacementDaemon twin(make_cluster(kProcs), DaemonConfig{});
  for (const ColdRecord& rec : records) {
    if (rec.index >= kColdCycle) continue;
    auto [dag, model] = dag_for(rec.tag[1] == '0' ? 0 : 1, rec.index);
    PlacementRequest req;
    req.dag = std::move(dag);
    req.model = model;
    const PlacementResponse resp = twin.admit(std::move(req));
    const std::string fp = resp.ok ? hex16(schedule_fingerprint(resp.placement->schedule)) : "";
    if (fp != rec.fp) r.problem("cold_admit: " + rec.tag + " differs from an in-process admission");
    digest.add(rec.tag + " " + rec.fp + " " + rec.eps + " " + rec.stages + " " + rec.latency);
  }
  r.note("cold_digest", digest.hex());

  std::vector<double> cold_us;
  std::vector<std::vector<double>> by_mix(kColdCycle);
  for (const ColdRecord& rec : records) {
    cold_us.push_back(rec.rtt_us);
    by_mix[rec.mix].push_back(rec.rtt_us);
  }
  std::ostringstream mix_row;
  for (std::size_t m = 0; m < kColdCycle; ++m) {
    mix_row << kColdMix[m].tasks << "@" << kColdMix[m].model << "=" << quantile(by_mix[m], 0.5) / 1e3
            << "ms ";
  }
  r.note("cold_mix_p50", mix_row.str());
  double used_q = 0.0;
  const double p90 = tail_at_most(cold_us, 0.9, used_q);
  const double cold_per_s = static_cast<double>(records.size()) / elapsed;
  r.put("cold_p50_ms", quantile(cold_us, 0.5) / 1e3, "ms");
  r.put(used_q == 0.9 ? "cold_p90_ms" : "cold_tail_ms", p90 / 1e3, "ms");
  r.put("cold_per_s", cold_per_s, "admissions/s");
  r.put("shed_p50_us", quantile(shed_rtts, 0.5), "us");
  r.put("cold_samples", static_cast<double>(records.size()), "count");
  r.put("shed_samples", static_cast<double>(shed_rtts.size()), "count");
  r.put("shed_probes_admitted", static_cast<double>(probes_admitted), "count");
  r.put("busy_retries", static_cast<double>(busy_retries), "count");
  r.put("lane_shed", static_cast<double>(stats.ok ? stats.field_u64("batch_shed") : 0), "count");
  // The gated figures come from two-second blocks of the window.
  std::vector<Stamped> stamped;
  for (const ColdRecord& rec : records) {
    if (rec.done_s < window) stamped.push_back({rec.done_s, rec.rtt_us});
  }
  const BlockFigures blocks = block_figures(stamped, 2.0, 20);
  put_metrics(r, scale, median_of(setups), blocks.p50, blocks.p90, blocks.rate);
  return r;
}

// -------------------------------------------------------------- churn_events --

namespace {

struct Certify {
  std::vector<std::shared_ptr<const CachedPlacement>> entries;
  ProcSet failed;
};

}  // namespace

Result run_churn_events(const Options& opt) {
  Result r;
  const auto config = server_config(opt.workdir, "churn_events", 64, 64);
  std::vector<std::string> lines(kChurnDags);
  for (std::size_t d = 0; d < kChurnDags; ++d) {
    lines[d] = submit_line(churn_dag(opt.seed, d), churn_dag_model(d), net::QosClass::kInteractive,
                           "e" + std::to_string(d), /*degraded_ok=*/true);
  }
  std::vector<std::string> bodies;
  for (const std::string& line : lines) bodies.push_back(body_after_tag(line));

  BackgroundGauge gauge(1.0);
  std::vector<double> setups;
  std::unique_ptr<ServerThread> server;
  for (int rep = 0; rep < 3; ++rep) {
    if (server) server->stop();  // a clean stop saves a snapshot generation
    server.reset();
    remove_snapshot_generations(config.snapshot_path);
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<ServerThread>(make_cluster(kProcs), config);
    if (rep == 0) {
      net::Client c = net::Client::connect_unix_path(server->socket_path());
      require_cold_start(r, c, "churn_events");
    }
    std::vector<std::string> first(lines.begin(), lines.begin() + kChurnDags / 2);
    std::vector<std::string> second;
    for (std::size_t d = kChurnDags / 2; d < kChurnDags; ++d) {
      std::string line = lines[d];
      line.replace(line.find("qos=interactive"), 15, "qos=batch");
      line.replace(0, line.find(' ', 11), "SUBMIT tag=e" + std::to_string(d - kChurnDags / 2));
      second.push_back(line);
    }
    const auto [ra, rb] = pipeline_pair(server->socket_path(), first, second);
    setups.push_back(seconds_since(t0));
    for (std::size_t d = 0; d < kChurnDags; ++d) {
      const net::Response& resp = d < kChurnDags / 2 ? ra[d] : rb[d - kChurnDags / 2];
      if (!resp.ok || resp.field("src") != "cold") {
        r.problem("churn_events setup: DAG " + std::to_string(d) + " not admitted cold");
        return r;
      }
    }
  }

  const Platform& platform = server->server().daemon().platform();
  const FaultModel churn = FaultModel::parse(kChurnModel);
  ChurnTraceConfig tcfg;
  tcfg.steps = kChurnSteps;
  tcfg.quiet_tail = kChurnQuietTail;
  tcfg.min_alive = 2;

  // Hits at 500/s with degraded_ok alongside the event stream.
  OpenLoopSpec spec;
  spec.socket_path = server->socket_path();
  spec.rate = 500.0;
  spec.window_s = opt.seconds;
  spec.bodies = &bodies;
  std::atomic<std::size_t> degraded_replies{0};
  spec.check = [&](const net::Response& resp, std::size_t) {
    if (!resp.ok) return ReplyVerdict::kFailed;
    const std::string& src = resp.field("src");
    if (src == "degraded") ++degraded_replies;
    return src == "hit" || src == "degraded" ? ReplyVerdict::kOk : ReplyVerdict::kFailed;
  };
  OpenLoopResult hits;
  std::string hit_error;
  std::thread hit_thread([&] {
    try {
      hits = run_open_loop(spec);
    } catch (const std::exception& e) {
      hit_error = e.what();
    }
  });

  std::vector<double> event_us;
  std::vector<Stamped> event_stamped;
  std::vector<Certify> checks;
  std::size_t event_errors = 0;
  std::uint64_t cycles = 0;
  std::size_t degraded_peak = 0;
  const Clock::time_point start = Clock::now();
  {
    net::Client c = net::Client::connect_unix_path(server->socket_path());
    ProcSet failed(kProcs);
    for (; cycles == 0 || seconds_since(start) < opt.seconds; ++cycles) {
      const ChurnTrace trace =
          generate_churn_trace(churn, platform, opt.seed * 1000 + cycles, tcfg);
      for (const auto& step : trace.steps) {
        for (const ClusterEvent& ev : step) {
          net::EventFrame frame;
          frame.failure = ev.kind == ClusterEvent::Kind::kFailure;
          frame.proc = ev.proc;
          frame.tag = "ev";
          const Clock::time_point t0 = Clock::now();
          const net::Response resp = c.event(frame);
          event_us.push_back(us_between(t0, Clock::now()));
          if (seconds_since(start) < opt.seconds) {
            event_stamped.push_back({seconds_since(start), event_us.back()});
          }
          if (!resp.ok) ++event_errors;
          if (frame.failure) {
            failed.set(ev.proc);
          } else {
            failed.reset(ev.proc);
          }
        }
        checks.push_back({server->server().daemon().snapshot_entries(), failed});
        degraded_peak = std::max(degraded_peak, server->server().daemon().degraded_count());
      }
    }
  }
  hit_thread.join();
  const double elapsed = seconds_since(start);
  const double scale = gauge.stop();
  if (!hit_error.empty()) r.problem("churn_events hit stream: " + hit_error);

  // The trace ends with every processor recovered; background re-heal must
  // bring every entry back to its full guarantee.
  const Clock::time_point heal_deadline = Clock::now() + std::chrono::seconds(20);
  while (server->server().daemon().degraded_count() != 0 && Clock::now() < heal_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const DaemonStats ds = server->server().daemon().stats();
  const auto final_entries = server->server().daemon().snapshot_entries();
  server->stop();
  remove_snapshot_generations(config.snapshot_path);

  // Re-certify every entry after every step on a fresh oracle (off the
  // timed path: the entries are immutable snapshots).
  std::size_t certified = 0;
  std::size_t cert_failures = 0;
  {
    std::set<std::pair<const CachedPlacement*, std::string>> seen;
    std::set<const CachedPlacement*> full_checked;
    std::vector<std::uint64_t> scratch;
    BatchScratch batch;
    for (const Certify& chk : checks) {
      std::string key;
      for (std::size_t p = 0; p < kProcs; ++p) key += chk.failed.test(p) ? '1' : '0';
      for (const auto& entry : chk.entries) {
        if (!seen.insert({entry.get(), key}).second) continue;
        ++certified;
        // Degraded entries claim their residual tolerance under the live
        // set; full-guarantee entries claim the admitted ε on the full
        // cluster and must survive the live set.
        SurvivalOracle fresh(entry->schedule);
        bool ok = fresh.survives(chk.failed, scratch);
        if (entry->degraded) {
          ok = ok && entry->eps_have < entry->eps_want &&
               achieved_tolerance(fresh, chk.failed, entry->eps_want, batch) == entry->eps_have;
        } else {
          ok = ok && entry->eps_have == entry->eps_want;
          if (ok && full_checked.insert(entry.get()).second) {
            ok = check_fault_tolerance(entry->schedule, entry->eps_want).valid;
          }
        }
        if (!ok) {
          ++cert_failures;
        }
      }
    }
  }
  std::size_t still_degraded = 0;
  for (const auto& entry : final_entries) still_degraded += entry->degraded ? 1 : 0;

  r.attempted = hits.sent + event_us.size();
  r.failed = hits.failed + hits.unanswered + hits.busy + event_errors + cert_failures;
  for (const std::string& f : hits.failures) r.problem("churn_events reply: " + f);
  if (cert_failures > 0) {
    r.problem("churn_events: " + std::to_string(cert_failures) +
              " entries fail re-certification on a fresh oracle");
  }
  if (still_degraded > 0 || final_entries.size() != kChurnDags) {
    r.problem("churn_events: " + std::to_string(still_degraded) + " of " +
              std::to_string(final_entries.size()) + " entries not re-healed by trace end");
  }
  if (ds.event_repairs == 0 || ds.rebuilds == 0 || ds.reheals == 0) {
    r.problem("churn_events: the trace did not exercise the ladder (repairs=" +
              std::to_string(ds.event_repairs) + " rebuilds=" + std::to_string(ds.rebuilds) +
              " reheals=" + std::to_string(ds.reheals) + ")");
  }
  if (ds.verify_failures != 0) r.problem("churn_events: daemon verify_failures != 0");

  double used_q = 0.0;
  const double hit_p99 = tail_at_most(hits.latency_us, 0.99, used_q);
  double used_e = 0.0;
  const double ev_p90 = tail_at_most(event_us, 0.9, used_e);
  const double events_per_s = static_cast<double>(event_us.size()) / elapsed;
  r.put("hit_p50_us", quantile(hits.latency_us, 0.5), "us");
  r.put(used_q == 0.99 ? "hit_p99_us" : "hit_tail_us", hit_p99, "us");
  r.put("event_p50_us", quantile(event_us, 0.5), "us");
  r.put(used_e == 0.9 ? "event_p90_us" : "event_tail_us", ev_p90, "us");
  r.put("events_per_s", events_per_s, "1/s");
  r.put("events", static_cast<double>(event_us.size()), "count");
  r.put("trace_cycles", static_cast<double>(cycles), "count");
  r.put("event_repairs", static_cast<double>(ds.event_repairs), "count");
  r.put("rebuilds", static_cast<double>(ds.rebuilds), "count");
  r.put("reheals", static_cast<double>(ds.reheals), "count");
  r.put("degraded_peak", static_cast<double>(degraded_peak), "count");
  r.put("degraded_replies", static_cast<double>(degraded_replies.load()), "count");
  r.put("certified_entries", static_cast<double>(certified), "count");
  const BlockFigures blocks = block_figures(event_stamped, 2.0, 20);
  put_metrics(r, scale, median_of(setups), blocks.p50, blocks.p90, blocks.rate);
  return r;
}

// --------------------------------------------------------------- paper_sweep --

std::string sweep_digest(const std::vector<PointStats>& points) {
  Digest d;
  const auto bits = [](double v) { return hex16(std::bit_cast<std::uint64_t>(v)); };
  for (const PointStats& p : points) {
    d.add(bits(p.granularity) + " " + std::to_string(p.instances) + " " + bits(p.ff_sim0) + " " +
          std::to_string(p.starved));
    for (const AlgoSeries& s : p.series) {
      d.add(s.name + " " + bits(s.ub) + " " + bits(s.sim0) + " " + bits(s.simc) + " " +
            bits(s.stages) + " " + bits(s.comms) + " " + bits(s.repairs) + " " +
            bits(s.period_factor) + " " + std::to_string(s.failures));
    }
  }
  return d.hex();
}

SweepConfig paper_sweep_config(bool fig4, std::uint64_t seed, std::size_t threads) {
  SweepConfig config;
  config.algos = {"ltf", "rltf"};
  config.eps = fig4 ? 3 : 1;
  config.crashes = fig4 ? 2 : 1;
  config.graphs_per_point = kSweepGraphsPerPoint;
  config.seed = seed;
  config.threads = threads;
  return config;
}

Result run_paper_sweep(const Options& opt) {
  Result r;
  SpeedGauge gauge;
  const std::size_t nproc = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // Set-up: the reference records at nproc threads, run as three strided
  // shards of both figures; setup_s is three times the median shard time.
  constexpr std::size_t kSetupShards = 3;
  std::vector<double> setups;
  std::vector<SweepRecords> ref_parts[2];
  for (std::size_t k = 0; k < kSetupShards; ++k) {
    gauge.sample();
    const Clock::time_point t0 = Clock::now();
    for (int fig = 0; fig < 2; ++fig) {
      SweepConfig config = paper_sweep_config(fig == 1, opt.seed, nproc);
      config.shard = ShardSpec{k, kSetupShards};
      ref_parts[fig].push_back(run_sweep_records(config));
    }
    setups.push_back(kSetupShards * seconds_since(t0));
  }
  std::string ref[2];
  std::size_t total[2] = {0, 0};
  for (int fig = 0; fig < 2; ++fig) {
    const SweepRecords merged = merge_sweep_records(std::move(ref_parts[fig]));
    ref[fig] = sweep_digest(aggregate_sweep_records(merged));
    total[fig] = merged.total();
  }
  if (total[0] != total[1]) throw std::logic_error("paper_sweep: the figures' grids differ");
  r.note("fig3_digest", ref[0]);
  r.note("fig4_digest", ref[1]);

  // Passes over the same instances at 1 thread, one instance per
  // run_sweep_records call (a shard of one), so each instance is timed on
  // its own; the gauge samples between instances. A complete pass is
  // merged and aggregated like a sharded sweep and must match the
  // reference; the last pass may stop at the end of the window
  // (`sweep_passes` counts the complete ones).
  std::vector<std::vector<double>> instance_us(total[0] + total[1]);
  std::size_t instances = 0;
  std::size_t passes = 0;
  const Clock::time_point start = Clock::now();
  const auto timed_out = [&] { return passes > 0 && seconds_since(start) >= opt.seconds; };
  for (bool complete = true; complete && !timed_out();) {
    for (int fig = 0; fig < 2 && complete; ++fig) {
      SweepConfig config = paper_sweep_config(fig == 1, opt.seed, 1);
      std::vector<SweepRecords> parts;
      for (std::size_t i = 0; i < total[fig] && !timed_out(); ++i) {
        gauge.sample_every(1.0);
        config.shard = ShardSpec{i, total[fig]};
        const Clock::time_point t0 = Clock::now();
        parts.push_back(run_sweep_records(config));
        instance_us[(fig == 1 ? total[0] : 0) + i].push_back(us_between(t0, Clock::now()));
        ++instances;
      }
      complete = parts.size() == total[fig];
      if (!complete) break;
      ++r.attempted;
      if (sweep_digest(aggregate_sweep_records(merge_sweep_records(std::move(parts)))) !=
          ref[fig]) {
        ++r.failed;
        r.problem(std::string("paper_sweep: ") + (fig ? "fig4" : "fig3") +
                  " digest at 1 thread differs from the run at " + std::to_string(nproc) +
                  " threads");
      }
    }
    if (complete) ++passes;
  }
  const double elapsed = seconds_since(start);
  gauge.sample();

  // Per instance, the median over passes. Both figures sweep the same
  // grid of seeded DAGs, so instance i of Figure 3 and of Figure 4 is one
  // DAG scheduled at ε=1 and at ε=3: a cell of the paper's grid, and the
  // unit the latencies are taken over (single instances fall into two
  // clusters, one per figure, with the median between them). Everything
  // is scaled to reference speed.
  std::vector<double> per_instance_us;
  double sum_s = 0.0;
  for (const auto& times : instance_us) {
    per_instance_us.push_back(quantile(times, 0.5));
    sum_s += per_instance_us.back() / 1e6;
  }
  std::vector<double> cell_us;
  for (std::size_t i = 0; i < total[0]; ++i) {
    cell_us.push_back(per_instance_us[i] + per_instance_us[total[0] + i]);
  }
  r.put("sweep_instances_per_s", static_cast<double>(instances) / elapsed, "instances/s");
  r.put("sweep_instances", static_cast<double>(instances), "count");
  r.put("sweep_passes", static_cast<double>(passes), "count");
  put_metrics(r, gauge.scale(), median_of(setups), quantile(cell_us, 0.5), quantile(cell_us, 0.9),
              static_cast<double>(per_instance_us.size()) / sum_s);
  return r;
}

Result run_workload(const Options& opt) {
  if (opt.workload == "hit_stream") return run_hit_stream(opt);
  if (opt.workload == "cold_admit") return run_cold_admit(opt);
  if (opt.workload == "churn_events") return run_churn_events(opt);
  if (opt.workload == "paper_sweep") return run_paper_sweep(opt);
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

}  // namespace perfbench
