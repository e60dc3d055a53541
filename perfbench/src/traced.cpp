// The traced run. It replays the hit, cold, churn and sweep streams
// against in-process twins of the service (a PlacementDaemon on the same
// platform) and records a span around every call the benchmark makes into
// a layer's public API; spans of one request share its id. Per-layer
// metrics are medians over those spans. Nothing inside src/ is
// instrumented: a layer's internal phases are timed by calling the same
// public functions the layer itself calls.
//
// The replay of the selected workload's stream is also run once without
// spans; the difference between the two is the tracing overhead.
#include <algorithm>
#include <memory>

#include "common.hpp"
#include "core/fingerprint.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "net/client.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/metrics.hpp"
#include "schedule/survival.hpp"
#include "service/churn.hpp"
#include "service/daemon.hpp"
#include "service/persistence.hpp"
#include "sim/engine.hpp"
#include "sim/program.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace streamsched;

namespace {

/// Per-request wall times of one replay (taken with or without spans).
struct Replay {
  std::vector<double> request_us;
};

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

bool out_of_time(Clock::time_point start, double budget_s, std::size_t done, std::size_t min_done) {
  return done >= min_done && seconds_since(start) >= budget_s;
}

// ------------------------------------------------------------------ hit path --

struct HitTwin {
  std::unique_ptr<PlacementDaemon> daemon;
  std::vector<std::string> lines;  ///< tagged SUBMIT lines, one per DAG
};

/// The hit stream's 64 DAGs (the same inputs as the hit_stream workload),
/// admitted cold into a fresh twin.
HitTwin make_hit_twin(std::uint64_t seed) {
  HitTwin twin;
  twin.daemon = std::make_unique<PlacementDaemon>(make_cluster(kProcs), DaemonConfig{});
  for (std::size_t d = 0; d < kHitDags; ++d) {
    twin.lines.push_back(
        hit_line(seed, d, net::QosClass::kInteractive, "h" + std::to_string(d)));
    net::Request req = net::parse_request(twin.lines.back());
    PlacementRequest pr;
    pr.dag = std::move(req.submit.dag);
    pr.model = req.submit.model;
    (void)twin.daemon->admit(std::move(pr));
  }
  return twin;
}

/// What the server's worker does for one SUBMIT, split at the public calls.
Replay replay_hits(HitTwin& twin, Tracer* tracer, double budget_s, Result& r) {
  Replay out;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; !out_of_time(start, budget_s, i, 64); ++i) {
    const std::string& line = twin.lines[i % twin.lines.size()];
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan root(tracer, "request.hit", i);
      net::Request req;
      {
        ScopedSpan s(tracer, "net.parse_request", i, root.id());
        req = net::parse_request(line);
      }
      PlacementRequest pr;
      pr.dag = std::move(req.submit.dag);
      pr.variant = AlgoVariant::parse(req.submit.variant_spec);
      pr.model = req.submit.model;
      PlacementResponse resp;
      {
        ScopedSpan s(tracer, "service.admit_hit", i, root.id());
        resp = twin.daemon->admit(std::move(pr));
      }
      if (!resp.ok || !resp.cache_hit) {
        r.problem("traced hit replay: request " + std::to_string(i) + " missed the cache");
        return out;
      }
      std::uint64_t fp = 0;
      {
        ScopedSpan s(tracer, "core.schedule_fingerprint", i, root.id());
        fp = schedule_fingerprint(resp.placement->schedule);
      }
      {
        ScopedSpan s(tracer, "service.format", i, root.id());
        const Schedule& sched = resp.placement->schedule;
        const std::string reply = net::OkBuilder()
                                      .add("tag", req.submit.tag)
                                      .add("src", "hit")
                                      .add("fp", hex16(fp))
                                      .add("stages", std::uint64_t{num_stages(sched)})
                                      .add("latency", latency_upper_bound(sched))
                                      .str();
        if (reply.empty()) r.problem("traced hit replay: empty reply");
      }
    }
    out.request_us.push_back(us_between(t0, Clock::now()));
    if (tracer != nullptr) {
      // Sub-work of the calls above, measured on its own under the same
      // request id: the DAG build inside parse_request and the DAG
      // fingerprint inside admit.
      const std::size_t at = line.find(" dag=");
      const std::string dag_token = line.substr(at + 5);
      const Dag dag = [&] {
        ScopedSpan s(tracer, "graph.dag_build", i);
        return net::parse_dag_wire(dag_token);
      }();
      ScopedSpan s(tracer, "core.dag_fingerprint", i);
      (void)dag_fingerprint(dag);
    }
  }
  return out;
}

/// Socket-side numbers of the hit path: HEALTH and hit SUBMIT round trips,
/// lane counters and BUSY replies of a saturated batch lane.
struct SocketSide {
  double health_p50_us = 0.0;
  double hit_rtt_p50_us = 0.0;
  double frame_bytes = 0.0;
  std::uint64_t busy = 0;
  std::uint64_t lane_accepted = 0;
  std::uint64_t lane_shed = 0;
};

SocketSide measure_socket(const Options& opt, const HitTwin& twin, Tracer* tracer,
                          double budget_s, Result& r) {
  SocketSide out;
  auto config = server_config(opt.workdir, "traced", 64, 1);
  remove_snapshot_generations(config.snapshot_path);
  {
    ServerThread server(make_cluster(kProcs), config);
    net::Client c = net::Client::connect_unix_path(server.socket_path());
    for (const std::string& line : twin.lines) {
      if (!c.roundtrip(line).ok) r.problem("traced: socket admission failed");
    }
    std::vector<double> health;
    std::vector<double> hits;
    double bytes = 0.0;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; !out_of_time(start, budget_s, i, 200); ++i) {
      {
        ScopedSpan s(tracer, "net.health_rtt", 1u << 30 | i);
        const Clock::time_point t0 = Clock::now();
        if (!c.health().ok) r.problem("traced: HEALTH failed");
        health.push_back(us_between(t0, Clock::now()));
      }
      const std::string& line = twin.lines[i % twin.lines.size()];
      ScopedSpan s(tracer, "net.submit_rtt", 1u << 30 | i);
      const Clock::time_point t0 = Clock::now();
      const net::Response resp = c.roundtrip(line);
      hits.push_back(us_between(t0, Clock::now()));
      bytes += static_cast<double>(line.size() + 1);
      if (!resp.ok || resp.field("src") != "hit") r.problem("traced: socket SUBMIT missed");
    }
    out.health_p50_us = median(health);
    out.hit_rtt_p50_us = median(hits);
    out.frame_bytes = bytes / static_cast<double>(hits.size());

    // Saturate the one-slot batch lane with a cold 104-task admission,
    // then probe it: every probe behind the blocker is refused BUSY.
    net::Client blocker = net::Client::connect_unix_path(server.socket_path());
    blocker.send_line(submit_line(make_dag(opt.seed, 9000000, 104), FaultModel::parse("prob:R=0.99"),
                                  net::QosClass::kBatch, "blk"));
    blocker.send_line(net::format_stats());  // barrier: the blocker is in the lane
    for (;;) {
      const net::Response resp = blocker.read_response();
      if (resp.has_field("cache_size")) break;
    }
    for (std::size_t k = 0; k < 8; ++k) {
      std::string probe = twin.lines[k];
      probe.replace(probe.find("qos=interactive"), 15, "qos=batch");
      const net::Response resp = c.roundtrip(probe);
      if (!resp.ok && resp.code == net::WireCode::kBusy) ++out.busy;
    }
    (void)blocker.read_response();
    out.lane_accepted = server.server().lane_stats(net::QosClass::kInteractive).accepted +
                        server.server().lane_stats(net::QosClass::kBatch).accepted;
    out.lane_shed = server.server().lane_stats(net::QosClass::kInteractive).shed +
                    server.server().lane_stats(net::QosClass::kBatch).shed;
    server.stop();
  }
  remove_snapshot_generations(config.snapshot_path);
  return out;
}

// ----------------------------------------------------------------- cold path --

struct ColdTotals {
  double factor_sum = 0.0;
  double repair_comms = 0.0;
  std::size_t admissions = 0;
  std::vector<double> residual_us;
};

/// The cold admissions of the cold_admit mix, split at the phases the
/// daemon's cold path calls, then admitted whole by a twin.
Replay replay_cold(std::uint64_t seed, Tracer* tracer, double budget_s, ColdTotals& totals,
                   Result& r) {
  constexpr std::size_t kStream = 2;  // DAGs neither socket stream uses
  Replay out;
  PlacementDaemon twin(make_cluster(kProcs), DaemonConfig{});
  const Platform& platform = twin.platform();
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i % kColdCycle != 0 || !out_of_time(start, budget_s, i, 8); ++i) {
    const Dag dag = cold_dag(seed, kStream, i);
    const FaultModel model = FaultModel::parse(kColdMix[cold_mix_index(kStream, i)].model);
    const Clock::time_point t0 = Clock::now();
    double phases_us = 0.0;
    {
      ScopedSpan root(tracer, "request.cold", i);
      const auto timed = [&](const char* name, auto&& fn) {
        ScopedSpan s(tracer, name, i, root.id());
        const Clock::time_point p0 = Clock::now();
        fn();
        phases_us += us_between(p0, Clock::now());
      };
      double period = 0.0;
      timed("core.calibrate", [&] {
        const CopyId eps = model.derive_eps(platform, dag.num_tasks());
        period = calibrate_period(dag, platform, eps, 2.0, 1.0);
      });
      SchedulerOptions options;
      options.fault_model = model;
      options.repair = true;
      options.period = period;
      std::pair<ScheduleResult, double> escalated;
      timed("core.escalate", [&] {
        escalated =
            schedule_with_period_escalation(AlgoVariant("rltf"), dag, platform, period, options);
      });
      if (!escalated.first.ok()) {
        r.problem("traced cold replay: request " + std::to_string(i) + " infeasible");
        return out;
      }
      const Schedule& sched = *escalated.first.schedule;
      timed("schedule.oracle_compile", [&] { const SurvivalOracle oracle(sched); });
      if (model.is_probabilistic()) {
        // The daemon estimates reliability itself only when repair did not;
        // the residual counts the estimate only where the daemon runs it.
        ScopedSpan s(tracer, "schedule.reliability", i, root.id());
        const Clock::time_point p0 = Clock::now();
        (void)schedule_reliability(sched);
        if (escalated.first.repair.reliability < 0.0) phases_us += us_between(p0, Clock::now());
      }
      totals.factor_sum += escalated.second;
      totals.repair_comms += escalated.first.repair.added_comms;
      ++totals.admissions;

      PlacementRequest pr;
      pr.dag = dag;
      pr.model = model;
      ScopedSpan s(tracer, "service.admit_cold", i, root.id());
      const Clock::time_point a0 = Clock::now();
      const PlacementResponse resp = twin.admit(std::move(pr));
      const double admit_us = us_between(a0, Clock::now());
      if (!resp.ok || resp.cache_hit) r.problem("traced cold replay: admission not cold");
      totals.residual_us.push_back(admit_us - phases_us);
    }
    out.request_us.push_back(us_between(t0, Clock::now()));
  }
  return out;
}

// ---------------------------------------------------------------- churn path --

struct ChurnTotals {
  DaemonStats stats;
  std::size_t degraded_peak = 0;
};

/// The churn_events cache and trace against a twin with background re-heal
/// off; re-heal passes run between trace steps.
Replay replay_churn(std::uint64_t seed, Tracer* tracer, double budget_s, ChurnTotals& totals) {
  Replay out;
  DaemonConfig dcfg;
  dcfg.auto_reheal = false;
  PlacementDaemon twin(make_cluster(kProcs), dcfg);
  for (std::size_t d = 0; d < kChurnDags; ++d) {
    PlacementRequest pr;
    pr.dag = churn_dag(seed, d);
    pr.model = churn_dag_model(d);
    pr.degraded_ok = true;
    (void)twin.admit(std::move(pr));
  }
  const FaultModel churn = FaultModel::parse(kChurnModel);
  ChurnTraceConfig tcfg;
  tcfg.steps = kChurnSteps;
  tcfg.quiet_tail = kChurnQuietTail;
  const ChurnTrace trace = generate_churn_trace(churn, twin.platform(), seed, tcfg);
  ProcSet failed(kProcs);
  BatchScratch batch;
  std::vector<std::uint64_t> survive_scratch;
  std::uint64_t request = 0;
  const Clock::time_point start = Clock::now();
  for (const auto& step : trace.steps) {
    for (const ClusterEvent& ev : step) {
      const bool failure = ev.kind == ClusterEvent::Kind::kFailure;
      // Entries as the event finds them, for the repair kernel below.
      const auto before = tracer != nullptr && failure
                              ? twin.snapshot_entries()
                              : std::vector<std::shared_ptr<const CachedPlacement>>{};
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan s(tracer, "service.on_event", ++request);
        twin.on_event(ev);
      }
      out.request_us.push_back(us_between(t0, Clock::now()));
      if (failure) {
        failed.set(ev.proc);
      } else {
        failed.reset(ev.proc);
      }
      // The kernels the event walk calls, on every 16th entry: repair of a
      // private copy of an entry the failure broke, and residual tolerance.
      for (std::size_t k = 0; k < before.size(); k += 16) {
        const CachedPlacement& p = *before[k];
        if (p.oracle.survives(failed, survive_scratch)) continue;
        Schedule copy = p.schedule;
        SurvivalOracle oracle(copy);
        ScopedSpan s(tracer, "schedule.repair_failure_set", request);
        (void)repair_for_failure_set(copy, oracle, failed);
      }
      if (tracer != nullptr && failed.count() > 0) {
        const auto entries = twin.snapshot_entries();
        for (std::size_t k = 0; k < entries.size(); k += 16) {
          ScopedSpan s(tracer, "schedule.achieved_tolerance", request);
          (void)achieved_tolerance(entries[k]->oracle, failed, entries[k]->eps_want, batch);
        }
      }
    }
    totals.degraded_peak = std::max(totals.degraded_peak, twin.degraded_count());
    {
      ScopedSpan s(tracer, "service.reheal_pass", ++request);
      twin.reheal_now();
    }
    if (seconds_since(start) >= budget_s) break;
  }
  totals.stats = twin.stats();
  return out;
}

// ---------------------------------------------------------------- sweep path --

/// The Figure 3 sweep (eps = 1): instances one by one through
/// run_instance, the schedulers and the compiled simulator on the same
/// generated instances, then aggregation.
Replay replay_sweep(std::uint64_t seed, Tracer* tracer, double budget_s) {
  Replay out;
  SweepConfig config;
  config.algos = {"ltf", "rltf"};
  config.eps = 1;
  config.crashes = 1;
  config.graphs_per_point = 1;
  config.threads = 1;
  config.seed = seed;
  const Clock::time_point start = Clock::now();
  std::uint64_t request = 0;
  for (std::size_t i = 0; !out_of_time(start, budget_s, i, 10); ++i) {
    const double g = config.g_min + config.g_step * static_cast<double>(i % 10);
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan s(tracer, "exp.run_instance", ++request);
      (void)run_instance(config, g, seed * 1000 + i);
    }
    out.request_us.push_back(us_between(t0, Clock::now()));
    if (tracer == nullptr) continue;
    Rng rng(seed * 1000 + i);
    const Instance inst = make_instance(config.workload, g, config.eps, rng);
    for (const char* algo : {"ltf", "rltf"}) {
      SchedulerOptions options;
      options.eps = config.eps;
      options.repair = true;
      std::pair<ScheduleResult, double> res;
      {
        ScopedSpan s(tracer, algo == std::string("ltf") ? "core.escalate_ltf" : "core.escalate_rltf",
                    request);
        res = schedule_with_period_escalation(AlgoVariant(algo), inst, options);
      }
      if (!res.first.ok()) continue;
      SimOptions sim;
      sim.num_items = config.sim_items;
      sim.warmup_items = config.sim_warmup;
      std::unique_ptr<SimProgram> program;
      {
        ScopedSpan s(tracer, "sim.compile", request);
        program = std::make_unique<SimProgram>(*res.first.schedule, sim);
      }
      SimState state;
      ScopedSpan s(tracer, "sim.run", request);
      (void)program->run(state);
    }
  }
  if (tracer != nullptr) {
    const SweepRecords records = run_sweep_records(config);
    ScopedSpan s(tracer, "exp.aggregate", ++request);
    (void)aggregate_sweep_records(records);
  }
  return out;
}

}  // namespace

Result run_traced(const Options& opt) {
  Result r;
  Tracer tracer;
  const double slice = opt.seconds / 6.0;

  // Snapshot save and load of the hit twin's cache.
  HitTwin twin = make_hit_twin(opt.seed);
  const std::string snap = opt.workdir + "/traced_twin.snapshot";
  remove_snapshot_generations(snap);
  for (std::uint64_t k = 0; k < 3; ++k) {
    {
      ScopedSpan s(&tracer, "service.snapshot_save", k);
      (void)save_cache_generation(*twin.daemon, snap, 1);
    }
    PlacementDaemon restored(make_cluster(kProcs), DaemonConfig{});
    ScopedSpan s(&tracer, "service.snapshot_load", k);
    const GenerationLoadResult loaded = load_newest_cache_generation(restored, snap);
    if (!loaded.loaded || loaded.stats.restored != twin.lines.size()) {
      r.problem("traced: snapshot round trip lost entries");
    }
  }
  remove_snapshot_generations(snap);

  const SocketSide sock = measure_socket(opt, twin, &tracer, slice, r);
  const ScheduleCache::Stats before = twin.daemon->cache_stats();
  const Replay hits = replay_hits(twin, &tracer, slice, r);
  const ScheduleCache::Stats after = twin.daemon->cache_stats();
  ColdTotals cold;
  const Replay colds = replay_cold(opt.seed, &tracer, slice, cold, r);
  ChurnTotals churn;
  const Replay events = replay_churn(opt.seed, &tracer, slice, churn);
  const Replay sweeps = replay_sweep(opt.seed, &tracer, slice);

  // The selected workload's stream once more without spans.
  double traced_p50 = 0.0;
  double plain_p50 = 0.0;
  if (opt.workload == "hit_stream") {
    traced_p50 = median(hits.request_us);
    plain_p50 = median(replay_hits(twin, nullptr, slice, r).request_us);
  } else if (opt.workload == "cold_admit") {
    ColdTotals scratch;
    traced_p50 = median(colds.request_us);
    plain_p50 = median(replay_cold(opt.seed, nullptr, slice, scratch, r).request_us);
  } else if (opt.workload == "churn_events") {
    ChurnTotals scratch;
    traced_p50 = median(events.request_us);
    plain_p50 = median(replay_churn(opt.seed, nullptr, slice, scratch).request_us);
  } else if (opt.workload == "paper_sweep") {
    traced_p50 = median(sweeps.request_us);
    plain_p50 = median(replay_sweep(opt.seed, nullptr, slice).request_us);
  } else {
    throw std::invalid_argument("unknown workload: " + opt.workload);
  }

  const auto p50_us = [&](const char* name) { return median(tracer.durations_us(name)); };
  const auto p50_ms = [&](const char* name) { return p50_us(name) / 1e3; };
  const double parse = p50_us("net.parse_request");
  const double admit_hit = p50_us("service.admit_hit");
  const double sched_fp = p50_us("core.schedule_fingerprint");
  const double hit_lookups = static_cast<double>((after.hits - before.hits) +
                                                 (after.misses - before.misses));
  const DaemonStats& cs = churn.stats;

  r.metrics = {
      {"net.transport_rtt_us", sock.health_p50_us, "us"},
      {"net.parse_request_us", parse, "us"},
      {"net.frame_bytes", sock.frame_bytes, "bytes"},
      {"net.busy_responses", static_cast<double>(sock.busy), "count"},
      {"graph.dag_build_us", p50_us("graph.dag_build"), "us"},
      {"core.dag_fingerprint_us", p50_us("core.dag_fingerprint"), "us"},
      {"core.schedule_fingerprint_us", sched_fp, "us"},
      {"service.admit_hit_us", admit_hit, "us"},
      {"service.format_us", p50_us("service.format"), "us"},
      {"service.unattributed_us", sock.hit_rtt_p50_us - sock.health_p50_us - parse - admit_hit - sched_fp,
       "us"},
      {"core.calibrate_us", p50_us("core.calibrate"), "us"},
      {"core.escalate_us", p50_us("core.escalate"), "us"},
      {"schedule.oracle_compile_us", p50_us("schedule.oracle_compile"), "us"},
      {"schedule.reliability_us", p50_us("schedule.reliability"), "us"},
      {"service.admit_cold_ms", p50_ms("service.admit_cold"), "ms"},
      {"service.cold_residual_us", median(cold.residual_us), "us"},
      {"core.escalation_factor_mean", cold.factor_sum / std::max<double>(1, cold.admissions),
       "factor"},
      {"schedule.repair_comms", cold.repair_comms / std::max<double>(1, cold.admissions), "count"},
      {"service.on_event_us", p50_us("service.on_event"), "us"},
      {"schedule.achieved_tolerance_us", p50_us("schedule.achieved_tolerance"), "us"},
      {"schedule.repair_failure_set_us", p50_us("schedule.repair_failure_set"), "us"},
      {"service.reheal_pass_ms", p50_ms("service.reheal_pass"), "ms"},
      {"service.event_repairs", static_cast<double>(cs.event_repairs), "count"},
      {"service.rebuilds", static_cast<double>(cs.rebuilds), "count"},
      {"service.reheals", static_cast<double>(cs.reheals), "count"},
      {"service.degraded_peak", static_cast<double>(churn.degraded_peak), "count"},
      {"service.verify_failures", static_cast<double>(cs.verify_failures), "count"},
      {"service.snapshot_save_ms", p50_ms("service.snapshot_save"), "ms"},
      {"service.snapshot_load_ms", p50_ms("service.snapshot_load"), "ms"},
      {"service.cache_hit_ratio",
       static_cast<double>(after.hits - before.hits) / std::max(1.0, hit_lookups), "fraction"},
      {"service.lane_accepted", static_cast<double>(sock.lane_accepted), "count"},
      {"service.lane_shed", static_cast<double>(sock.lane_shed), "count"},
      {"exp.run_instance_ms", p50_ms("exp.run_instance"), "ms"},
      {"core.escalate_ltf_us", p50_us("core.escalate_ltf"), "us"},
      {"core.escalate_rltf_us", p50_us("core.escalate_rltf"), "us"},
      {"sim.compile_us", p50_us("sim.compile"), "us"},
      {"sim.run_us", p50_us("sim.run"), "us"},
      {"exp.aggregate_ms", p50_ms("exp.aggregate"), "ms"},
      {"trace.overhead_us", traced_p50 - plain_p50, "us"},
      {"trace.spans", static_cast<double>(tracer.spans().size()), "count"},
  };
  r.report = r.metrics;
  r.put("trace.request_self_us",
        median(tracer.self_times_us("request.hit")), "us");
  r.attempted = hits.request_us.size() + colds.request_us.size() + events.request_us.size() +
                sweeps.request_us.size();
  if (cs.verify_failures != 0) r.problem("traced churn replay: verify_failures != 0");
  const std::string spans = opt.workdir + "/spans-" + opt.workload + "-" +
                            std::to_string(opt.seed) + ".csv";
  tracer.write_csv(spans);
  r.note("spans", spans);
  return r;
}

}  // namespace perfbench
