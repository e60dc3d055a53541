// Microbench of the library's survival kernel (schedule/survival.hpp,
// the bit-sliced batch estimator of schedule/fault_tolerance.hpp) against
// the reference serial estimator (reference/reliability.hpp) with its two
// per-set predicates — the per-set compiled oracle ("oracle") and the
// comm-record vector<bool> walk ("legacy") — across platform sizes
// m ∈ {8, 16, 32, 64}:
//
//   - exact mode: end-to-end `schedule_reliability` latency and enumerated
//     sets/sec under the default truncation budget (reported only for the
//     m whose enumeration fits the budget — larger platforms fall to MC),
//     legacy vs per-set oracle vs batch;
//   - Monte-Carlo mode (enumeration budget forced to 0): the 20k-sample
//     importance-sampled path, legacy vs per-set oracle vs batch;
//   - repair mode: end-to-end `repair_to_reliability` on an unrepaired
//     schedule (exact estimates, truncation loosened so m = 32 stays
//     enumerable): the reference loop, which re-estimates from scratch
//     every round with either predicate (the legacy one at m = 16 only),
//     vs the library's incremental killing-set cache;
//   - count-repair mode: end-to-end `repair_fault_tolerance` at m = 16,
//     ε = 2 and 3, on 52- and 104-task DAGs at a calibrated period
//     (rounds, added channels, time; no gate).
//
// Library and reference must agree: exact reliabilities bit-identical, MC
// estimates identical at a fixed seed, repair stats (rounds, added
// channels, achieved reliability) identical. A mismatch aborts with exit
// code 1.
//
// Results are printed and written to `--json` (default BENCH_survival.json)
// via bench/emit_bench_json.hpp so CI can archive the perf trajectory.
//
// Flags: --mc-samples N (default 20000), --reps N (timing repetitions,
// best-of; default 3), --seed S, --eps E (replication degree of the benched schedules, default 2),
// --gate X (fail unless batch exact speedup over the per-set oracle at
// m=16 is >= X; 0 disables), --json PATH.
#include <chrono>
#include <cmath>
#include <iostream>
#include <limits>
#include <optional>
#include <vector>

#include "core/rltf.hpp"
#include "emit_bench_json.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "reference/reliability.hpp"
#include "schedule/fault_tolerance.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto mc_samples =
      static_cast<std::uint64_t>(cli.get_int("mc-samples", 20000, "STREAMSCHED_MC_SAMPLES"));
  const std::int64_t reps = cli.get_int("reps", 3, "STREAMSCHED_REPS");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, "STREAMSCHED_SEED"));
  const auto eps = static_cast<CopyId>(cli.get_int("eps", 2, ""));
  const double gate = cli.get_double("gate", 0.0, "");
  const std::string json_path = cli.get_string("json", "BENCH_survival.json", "");
  cli.finish();

  bench::BenchJson doc("survival_kernel");
  doc.meta()
      .add("mc_samples", mc_samples)
      .add("reps", static_cast<std::int64_t>(reps))
      .add("seed", seed)
      .add("eps", static_cast<std::int64_t>(eps))
      .add("gate", gate);

  bool ok = true;
  double gate_speedup = -1.0;  // batch-over-per-set exact at m=16
  for (const std::size_t m : {8, 16, 32, 64}) {
    Rng rng(seed + 0x9e3779b97f4a7c15ULL * m);
    const Platform platform = make_reliability_heterogeneous(rng, m, 0.02, 0.08);
    const Dag dag = make_random_layered(rng, 2 * m + 8, 5, 0.3, WeightRanges{});
    SchedulerOptions options;
    options.eps = eps;
    options.period = std::numeric_limits<double>::infinity();
    options.repair = true;
    const ScheduleResult r = rltf_schedule(dag, platform, options);
    if (!r.ok()) {
      std::cerr << "m=" << m << ": scheduling failed (" << r.error << "), skipping\n";
      continue;
    }
    const Schedule& schedule = *r.schedule;
    std::cout << "m=" << m << "  tasks=" << dag.num_tasks() << "  copies=" << schedule.copies()
              << "  comms=" << schedule.comms().size() << '\n';

    constexpr auto kLegacy = reference::Predicate::kLegacy;
    constexpr auto kOracle = reference::Predicate::kOracle;
    const ReliabilityOptions opts;

    // --- exact mode (only when the default budget keeps it exact) -------
    const ReliabilityEstimate probe = schedule_reliability(schedule, opts);
    if (probe.exact) {
      const double t_legacy = best_seconds(
          reps, [&] { (void)reference::schedule_reliability(schedule, opts, kLegacy); });
      const double t_oracle = best_seconds(
          reps, [&] { (void)reference::schedule_reliability(schedule, opts, kOracle); });
      const double t_batch =
          best_seconds(reps, [&] { (void)schedule_reliability(schedule, opts); });
      const ReliabilityEstimate legacy = reference::schedule_reliability(schedule, opts, kLegacy);
      const ReliabilityEstimate oracle = reference::schedule_reliability(schedule, opts, kOracle);
      const auto k_max = static_cast<std::uint64_t>(probe.k_max);
      if (legacy.reliability != probe.reliability ||
          legacy.sets_checked != probe.sets_checked ||
          oracle.reliability != probe.reliability) {
        std::cerr << "MISMATCH m=" << m << " exact: legacy=" << legacy.reliability
                  << " oracle=" << oracle.reliability << " batch=" << probe.reliability << '\n';
        ok = false;
      }
      const double speedup_oracle = t_legacy / t_oracle;
      const double speedup_batch = t_legacy / t_batch;
      const double batch_vs_oracle = t_oracle / t_batch;
      if (m == 16) gate_speedup = batch_vs_oracle;
      std::cout << "  exact  k_max=" << k_max << "  sets=" << probe.sets_checked
                << "  legacy=" << t_legacy * 1e3 << "ms  oracle=" << t_oracle * 1e3 << "ms ("
                << speedup_oracle << "x)  batch=" << t_batch * 1e3 << "ms (" << speedup_batch
                << "x legacy, " << batch_vs_oracle << "x oracle)\n";
      doc.add_result()
          .add("m", static_cast<std::uint64_t>(m))
          .add("mode", "exact")
          .add("kernel", "legacy")
          .add("k_max", k_max)
          .add("sets_checked", legacy.sets_checked)
          .add("seconds", t_legacy)
          .add("sets_per_sec", static_cast<double>(legacy.sets_checked) / t_legacy)
          .add("reliability", legacy.reliability);
      doc.add_result()
          .add("m", static_cast<std::uint64_t>(m))
          .add("mode", "exact")
          .add("kernel", "oracle")
          .add("k_max", k_max)
          .add("sets_checked", oracle.sets_checked)
          .add("seconds", t_oracle)
          .add("sets_per_sec", static_cast<double>(oracle.sets_checked) / t_oracle)
          .add("reliability", oracle.reliability)
          .add("speedup_vs_legacy", speedup_oracle)
          .add("match_legacy", legacy.reliability == oracle.reliability);
      doc.add_result()
          .add("m", static_cast<std::uint64_t>(m))
          .add("mode", "exact")
          .add("kernel", "batch")
          .add("k_max", k_max)
          .add("sets_checked", probe.sets_checked)
          .add("seconds", t_batch)
          .add("sets_per_sec", static_cast<double>(probe.sets_checked) / t_batch)
          .add("reliability", probe.reliability)
          .add("speedup_vs_legacy", speedup_batch)
          .add("speedup_vs_oracle", batch_vs_oracle)
          .add("match_legacy", legacy.reliability == probe.reliability);
    } else {
      std::cout << "  exact  skipped (enumeration beyond budget)\n";
      doc.add_result()
          .add("m", static_cast<std::uint64_t>(m))
          .add("mode", "exact")
          .add("kernel", "none")
          .add("skipped", true)
          .add("reason", "enumeration beyond max_sets budget");
    }

    // --- Monte-Carlo mode (forced) --------------------------------------
    ReliabilityOptions mc_opts = opts;
    mc_opts.max_sets = 0;
    mc_opts.mc_samples = mc_samples;

    const double t_mc_legacy = best_seconds(
        reps, [&] { (void)reference::schedule_reliability(schedule, mc_opts, kLegacy); });
    const double t_mc_oracle = best_seconds(
        reps, [&] { (void)reference::schedule_reliability(schedule, mc_opts, kOracle); });
    const double t_mc_batch =
        best_seconds(reps, [&] { (void)schedule_reliability(schedule, mc_opts); });
    const ReliabilityEstimate mc_l = reference::schedule_reliability(schedule, mc_opts, kLegacy);
    const ReliabilityEstimate mc_o = reference::schedule_reliability(schedule, mc_opts, kOracle);
    const ReliabilityEstimate mc_b = schedule_reliability(schedule, mc_opts);
    if (mc_l.reliability != mc_o.reliability || mc_o.reliability != mc_b.reliability) {
      std::cerr << "MISMATCH m=" << m << " mc: legacy=" << mc_l.reliability
                << " oracle=" << mc_o.reliability << " batch=" << mc_b.reliability << '\n';
      ok = false;
    }
    std::cout << "  mc     samples=" << mc_samples << "  legacy=" << t_mc_legacy * 1e3
              << "ms  oracle=" << t_mc_oracle * 1e3 << "ms (" << t_mc_legacy / t_mc_oracle
              << "x)  batch=" << t_mc_batch * 1e3 << "ms (" << t_mc_legacy / t_mc_batch
              << "x)\n";
    doc.add_result()
        .add("m", static_cast<std::uint64_t>(m))
        .add("mode", "mc")
        .add("kernel", "legacy")
        .add("sets_checked", mc_l.sets_checked)
        .add("seconds", t_mc_legacy)
        .add("sets_per_sec", static_cast<double>(mc_l.sets_checked) / t_mc_legacy)
        .add("reliability", mc_l.reliability);
    doc.add_result()
        .add("m", static_cast<std::uint64_t>(m))
        .add("mode", "mc")
        .add("kernel", "oracle")
        .add("sets_checked", mc_o.sets_checked)
        .add("seconds", t_mc_oracle)
        .add("sets_per_sec", static_cast<double>(mc_o.sets_checked) / t_mc_oracle)
        .add("reliability", mc_o.reliability)
        .add("speedup_vs_legacy", t_mc_legacy / t_mc_oracle)
        .add("match_legacy", mc_l.reliability == mc_o.reliability);
    doc.add_result()
        .add("m", static_cast<std::uint64_t>(m))
        .add("mode", "mc")
        .add("kernel", "batch")
        .add("sets_checked", mc_b.sets_checked)
        .add("seconds", t_mc_batch)
        .add("sets_per_sec", static_cast<double>(mc_b.sets_checked) / t_mc_batch)
        .add("reliability", mc_b.reliability)
        .add("speedup_vs_legacy", t_mc_legacy / t_mc_batch)
        .add("speedup_vs_oracle", t_mc_oracle / t_mc_batch)
        .add("match_legacy", mc_l.reliability == mc_b.reliability);
  }

  // --- repair loop ------------------------------------------------------
  // End-to-end `repair_to_reliability` on an UNREPAIRED schedule, so the
  // killing-set verification loop actually wires channels over several
  // rounds. Failure probabilities and truncation are chosen so the exact
  // estimator stays enumerable at m = 32 (k_max ~ 5): this is the regime
  // where the library's incremental cache replaces the reference loop's
  // full per-round re-enumeration. All three must produce the same rounds,
  // channels and achieved reliability.
  for (const std::size_t m : {16, 32}) {
    Rng rng(seed + 0xb5297a4d3ac2f1ULL * m);
    const Platform platform = make_reliability_heterogeneous(rng, m, 0.002, 0.008);
    const Dag dag = make_random_layered(rng, 2 * m + 8, 5, 0.3, WeightRanges{});
    SchedulerOptions options;
    options.eps = eps;
    options.period = std::numeric_limits<double>::infinity();
    options.repair = false;  // leave killing sets for repair_to_reliability
    const ScheduleResult r = rltf_schedule(dag, platform, options);
    if (!r.ok()) {
      std::cerr << "repair m=" << m << ": scheduling failed (" << r.error << "), skipping\n";
      continue;
    }
    ReliabilityOptions ropts;
    ropts.tail_tolerance = 1e-6;
    const double target = 0.999999;

    struct KernelRun {
      const char* name;
      std::optional<reference::Predicate> predicate;  // empty: the library
      double seconds = 0.0;
      RepairStats stats;
      ReliabilityEstimate achieved;
    };
    // The legacy predicate's repair loop takes ~37 s per repetition at
    // m = 32 and no gate reads it, so m = 32 runs the oracle reference and
    // the library only, and checks them against each other.
    std::vector<KernelRun> runs;
    if (m <= 16) runs.push_back({"legacy", reference::Predicate::kLegacy, 0.0, {}, {}});
    runs.push_back({"oracle", reference::Predicate::kOracle, 0.0, {}, {}});
    runs.push_back({"batch", std::nullopt, 0.0, {}, {}});
    for (KernelRun& run : runs) {
      run.seconds = best_seconds(reps, [&] {
        Schedule clone = *r.schedule;
        run.stats = run.predicate ? reference::repair_to_reliability(clone, target, ropts,
                                                                     *run.predicate, &run.achieved)
                                  : repair_to_reliability(clone, target, ropts, &run.achieved);
      });
    }
    const KernelRun& base = runs.front();  // legacy where it ran, else the oracle
    const bool has_legacy = base.predicate == reference::Predicate::kLegacy;
    const KernelRun& oracle = runs[runs.size() - 2];
    const KernelRun& batch = runs.back();
    for (const KernelRun& run : runs) {
      if (run.stats.added_comms != base.stats.added_comms ||
          run.stats.rounds != base.stats.rounds ||
          run.achieved.reliability != base.achieved.reliability) {
        std::cerr << "MISMATCH repair m=" << m << " kernel=" << run.name
                  << ": added=" << run.stats.added_comms << "/" << base.stats.added_comms
                  << " rounds=" << run.stats.rounds << "/" << base.stats.rounds
                  << " achieved=" << run.achieved.reliability << "/"
                  << base.achieved.reliability << " (vs " << base.name << ")\n";
        ok = false;
      }
    }
    std::cout << "repair m=" << m << "  rounds=" << base.stats.rounds
              << "  added=" << base.stats.added_comms << "  exact="
              << (base.achieved.exact ? "yes" : "no");
    if (has_legacy) std::cout << "  legacy=" << base.seconds * 1e3 << "ms";
    std::cout << "  oracle=" << oracle.seconds * 1e3 << "ms";
    if (has_legacy) std::cout << " (" << base.seconds / oracle.seconds << "x)";
    std::cout << "  batch=" << batch.seconds * 1e3 << "ms (";
    if (has_legacy) std::cout << base.seconds / batch.seconds << "x legacy, ";
    std::cout << oracle.seconds / batch.seconds << "x oracle)\n";
    for (const KernelRun& run : runs) {
      auto& row = doc.add_result()
                      .add("m", static_cast<std::uint64_t>(m))
                      .add("mode", "repair")
                      .add("kernel", run.name)
                      .add("rounds", static_cast<std::uint64_t>(run.stats.rounds))
                      .add("added_comms", static_cast<std::uint64_t>(run.stats.added_comms))
                      .add("exact", run.achieved.exact)
                      .add("achieved", run.achieved.reliability)
                      .add("seconds", run.seconds);
      if (has_legacy) {
        row.add("match_legacy", run.achieved.reliability == base.achieved.reliability);
        if (run.predicate != reference::Predicate::kLegacy) {
          row.add("speedup_vs_legacy", base.seconds / run.seconds);
        }
      } else if (run.predicate != reference::Predicate::kOracle) {
        row.add("match_oracle", run.achieved.reliability == oracle.achieved.reliability);
      }
      if (!run.predicate) row.add("speedup_vs_oracle", oracle.seconds / run.seconds);
    }
  }

  // --- count-model repair ---------------------------------------------
  // End-to-end `repair_fault_tolerance` at m = 16 on unrepaired R-LTF
  // schedules at the placement service's calibrated period (headroom 2,
  // period escalation as on the daemon's cold path), where replica chains
  // cross and repair wires many channels per killing set. Reported, not
  // gated.
  for (const std::size_t tasks : {52, 104}) {
    for (const CopyId count_eps : {CopyId{2}, CopyId{3}}) {
      const std::size_t m = 16;
      Rng rng(seed + 0x2545f4914f6cdd1dULL * (tasks + count_eps));
      const Platform platform = make_reliability_heterogeneous(rng, m, 0.02, 0.08);
      const Dag dag = make_random_layered(rng, tasks, 5, 0.3, WeightRanges{});
      SchedulerOptions options;
      options.eps = count_eps;
      options.repair = false;  // leave killing sets for repair_fault_tolerance
      const double period = calibrate_period(dag, platform, count_eps, 2.0, 1.0);
      const auto [r, factor] =
          schedule_with_period_escalation(AlgoVariant("rltf"), dag, platform, period, options);
      if (!r.ok()) {
        std::cerr << "count repair tasks=" << tasks << " eps=" << count_eps
                  << ": scheduling failed (" << r.error << "), skipping\n";
        continue;
      }
      RepairStats stats;
      const double seconds = best_seconds(reps, [&] {
        Schedule clone = *r.schedule;
        stats = repair_fault_tolerance(clone, count_eps);
      });
      if (!stats.success) {
        std::cerr << "count repair tasks=" << tasks << " eps=" << count_eps << " failed\n";
        ok = false;
      }
      std::cout << "count repair m=" << m << "  tasks=" << tasks << "  eps=" << count_eps
                << "  factor=" << factor << "  rounds=" << stats.rounds
                << "  added=" << stats.added_comms << "  " << seconds * 1e3 << "ms\n";
      doc.add_result()
          .add("m", static_cast<std::uint64_t>(m))
          .add("mode", "count_repair")
          .add("tasks", static_cast<std::uint64_t>(tasks))
          .add("eps", static_cast<std::uint64_t>(count_eps))
          .add("period_factor", factor)
          .add("rounds", static_cast<std::uint64_t>(stats.rounds))
          .add("added_comms", static_cast<std::uint64_t>(stats.added_comms))
          .add("seconds", seconds);
    }
  }

  doc.write(json_path);
  std::cout << "(wrote " << json_path << ")\n";
  if (!ok) {
    std::cerr << "kernel mismatch detected — see above\n";
    return 1;
  }
  if (gate > 0.0) {
    if (gate_speedup < 0.0) {
      std::cerr << "gate: no m=16 exact measurement available\n";
      return 1;
    }
    if (gate_speedup < gate) {
      std::cerr << "gate: batch exact speedup over per-set oracle at m=16 is " << gate_speedup
                << "x, below the required " << gate << "x\n";
      return 1;
    }
    std::cout << "gate: batch " << gate_speedup << "x over per-set oracle at m=16 (>= " << gate
              << "x)\n";
  }
  return 0;
}
