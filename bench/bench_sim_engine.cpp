// Microbench of the compiled simulation engine (sim/program.hpp) against
// the legacy per-call engine (`simulate_legacy`), across platform sizes
// m ∈ {8, 16, 32, 64}, on repeated crash trials: `--trials` fail-silent
// crash sets (uniform c-subsets, c = min(2, eps), so every repaired
// schedule survives and the full event simulation runs) are drawn once and
// replayed by both engines — legacy recompiles the schedule per trial, the
// compiled path pays `SimProgram` compilation once and replays an
// allocation-free `SimState` arena.
//
// Both engines must agree bit-for-bit: every per-trial SimResult metric
// (latencies, period, makespan, busy vectors) is compared. Any mismatch
// aborts with exit code 1. The compiled-vs-legacy trial speedup at m = 16
// is additionally gated by `--gate` (default 5x; 0 disables) — the
// acceptance threshold of the compiled-engine PR.
//
// Results are printed and written to `--json` (default BENCH_sim.json) via
// bench/emit_bench_json.hpp so CI can archive the perf trajectory next to
// BENCH_survival.json.
//
// Flags: --trials N (crash trials per engine, default 200), --items N
// (pipeline items per trial, default 40; the sweep's sim_items), --reps N
// (timing repetitions, best-of; default 3), --seed S, --eps E (replication
// degree, default 2), --gate X, --json PATH.
#include <chrono>
#include <cmath>
#include <iostream>
#include <limits>
#include <vector>

#include "core/rltf.hpp"
#include "emit_bench_json.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "sim/engine.hpp"
#include "sim/program.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace streamsched;

/// Best-of-`reps` wall time of fn() in seconds.
template <typename Fn>
double best_seconds(std::int64_t reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (std::int64_t rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Full bitwise comparison of two SimResults (trace excluded: the bench
/// runs without trace collection).
bool identical(const SimResult& a, const SimResult& b) {
  return a.complete == b.complete && a.starved_items == b.starved_items &&
         a.item_latencies == b.item_latencies && a.mean_latency == b.mean_latency &&
         a.max_latency == b.max_latency && a.min_latency == b.min_latency &&
         a.achieved_period == b.achieved_period &&
         a.max_completion_gap == b.max_completion_gap && a.makespan == b.makespan &&
         a.proc_busy == b.proc_busy && a.send_busy == b.send_busy &&
         a.recv_busy == b.recv_busy;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto trials = static_cast<std::size_t>(cli.get_int("trials", 200, "STREAMSCHED_TRIALS"));
  const auto items = static_cast<std::size_t>(cli.get_int("items", 40, ""));
  const std::int64_t reps = cli.get_int("reps", 3, "STREAMSCHED_REPS");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, "STREAMSCHED_SEED"));
  const auto eps = static_cast<CopyId>(cli.get_int("eps", 2, ""));
  const double gate = cli.get_double("gate", 5.0, "");
  const std::string json_path = cli.get_string("json", "BENCH_sim.json", "");
  cli.finish();

  bench::BenchJson doc("sim_engine");
  doc.meta()
      .add("trials", static_cast<std::uint64_t>(trials))
      .add("items", static_cast<std::uint64_t>(items))
      .add("reps", static_cast<std::int64_t>(reps))
      .add("seed", seed)
      .add("eps", static_cast<std::int64_t>(eps))
      .add("gate", gate);

  bool ok = true;
  for (const std::size_t m : {8, 16, 32, 64}) {
    Rng rng(seed + 0x9e3779b97f4a7c15ULL * m);
    const Platform platform = make_reliability_heterogeneous(rng, m, 0.02, 0.08);
    const Dag dag = make_random_layered(rng, 2 * m + 8, 5, 0.3, WeightRanges{});
    const double period = calibrate_period(dag, platform, eps, 2.0, 1.0);
    SchedulerOptions options;
    options.eps = eps;
    options.repair = true;
    ScheduleResult r;
    for (double factor : period_escalation_ladder()) {
      options.period = period * factor;
      r = rltf_schedule(dag, platform, options);
      if (r.ok()) break;
    }
    if (!r.ok()) {
      std::cerr << "m=" << m << ": scheduling failed (" << r.error << "), skipping\n";
      if (m == 16 && gate > 0.0) {
        // The gated configuration must actually be measured — skipping it
        // silently would let CI pass without the speedup/identity checks.
        std::cerr << "GATE m=16: gated configuration could not be scheduled\n";
        ok = false;
      }
      continue;
    }
    const Schedule& schedule = *r.schedule;
    std::cout << "m=" << m << "  tasks=" << dag.num_tasks() << "  copies=" << schedule.copies()
              << "  comms=" << schedule.comms().size() << '\n';

    // --- repeated crash trials ------------------------------------------
    // All crash sets are pre-drawn (c <= eps: the repaired schedule
    // survives every set, so both engines run the full event simulation).
    const auto crashes = std::min<std::uint32_t>(2, eps);
    Rng crash_rng(seed * 31 + m);
    std::vector<std::vector<ProcId>> crash_sets(trials);
    for (auto& set : crash_sets) {
      const auto drawn =
          crash_rng.sample_without_replacement(static_cast<std::uint32_t>(m), crashes);
      set.assign(drawn.begin(), drawn.end());
    }
    SimOptions sim_options;
    sim_options.num_items = items;
    sim_options.warmup_items = std::min<std::size_t>(10, items - 1);

    const double t_legacy = best_seconds(reps, [&] {
      for (std::size_t i = 0; i < trials; ++i) {
        SimOptions o = sim_options;
        o.failed = crash_sets[i];
        (void)simulate_legacy(schedule, o);
      }
    });
    const SimProgram program(schedule, sim_options);
    SimState state;
    const double t_compiled = best_seconds(reps, [&] {
      for (std::size_t i = 0; i < trials; ++i) {
        SimOptions o = sim_options;
        o.failed = crash_sets[i];
        (void)program.run(o, state);
      }
    });

    // Metric-identity check over every trial.
    bool match = true;
    for (std::size_t i = 0; i < trials && match; ++i) {
      SimOptions o = sim_options;
      o.failed = crash_sets[i];
      match = identical(simulate_legacy(schedule, o), program.run(o, state));
    }
    if (!match) {
      std::cerr << "MISMATCH m=" << m << ": compiled trial metrics diverge from legacy\n";
      ok = false;
    }

    const double speedup = t_legacy / t_compiled;
    std::cout << "  trials x" << trials << " (c=" << crashes << ", items=" << items
              << ")  legacy=" << t_legacy * 1e3 << "ms  compiled=" << t_compiled * 1e3
              << "ms  speedup=" << speedup << "x  identical=" << (match ? "yes" : "NO")
              << '\n';
    doc.add_result()
        .add("m", static_cast<std::uint64_t>(m))
        .add("mode", "trials")
        .add("engine", "legacy")
        .add("crashes", static_cast<std::uint64_t>(crashes))
        .add("seconds", t_legacy)
        .add("trials_per_sec", static_cast<double>(trials) / t_legacy);
    doc.add_result()
        .add("m", static_cast<std::uint64_t>(m))
        .add("mode", "trials")
        .add("engine", "compiled")
        .add("crashes", static_cast<std::uint64_t>(crashes))
        .add("seconds", t_compiled)
        .add("trials_per_sec", static_cast<double>(trials) / t_compiled)
        .add("speedup_vs_legacy", speedup)
        .add("match_legacy", match);
    if (m == 16 && gate > 0.0 && speedup < gate) {
      std::cerr << "GATE m=16: compiled speedup " << speedup << "x below required " << gate
                << "x\n";
      ok = false;
    }
  }

  doc.write(json_path);
  std::cout << "(wrote " << json_path << ")\n";
  if (!ok) {
    std::cerr << "engine mismatch or gate failure — see above\n";
    return 1;
  }
  return 0;
}
