// Parity suite for the repair loops (schedule/fault_tolerance.hpp). The
// library repairs a failure set in one topological pass that wires every
// dead task as the walk reaches it. The reference below is the plain
// one-task-per-step loop, written on public APIs only: recompute the whole
// set's computability (SurvivalOracle::computable), wire the topologically
// first dead task, patch the oracle, repeat. Both must wire the same comms
// in the same order and report the same RepairStats and reliability bits,
// for the count repair at ε = 1, 2, 3, the one-failure-set repair, the
// probabilistic repair of the library and of the reference loop
// (reference/reliability.hpp) in exact mode, and a 65-copy schedule on the
// multi-word mask layout. The estimator-parity suites cannot catch a change
// to the loop itself: the library and the reference loop share it. In
// Monte-Carlo mode, which has no one-task-per-step counterpart here, the
// library must match the reference loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/rltf.hpp"
#include "exp/workload.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "platform/generators.hpp"
#include "reference/reliability.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/survival.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kMaxKillingSets = 64;  // killing sets one estimate records

// ------------------------------------------------------------- reference --

std::uint32_t reference_max_steps(const Schedule& schedule) {
  return static_cast<std::uint32_t>(schedule.copies() * schedule.copies() *
                                        schedule.dag().num_edges() +
                                    16);
}

ReplicaRef reference_supplier(const Schedule& schedule, ReplicaRef r, TaskId pred,
                              const std::vector<std::uint64_t>& alive, std::size_t words) {
  const ProcId here = schedule.placed(r).proc;
  ReplicaRef best{kInvalidTask, 0};
  double best_cost = kInf;
  for (CopyId c = 0; c < schedule.copies(); ++c) {
    const ReplicaRef cand{pred, c};
    if (!replica_mask_test(alive.data() + pred * words, c)) continue;
    if (schedule.has_supplier(r, cand)) continue;
    const ProcId from = schedule.placed(cand).proc;
    double cost = 0.0;
    if (from != here) {
      const EdgeId e = schedule.dag().find_edge(pred, r.task);
      cost = schedule.platform().comm_time(schedule.dag().edge(e).volume, from, here) +
             std::max(schedule.cout(from), schedule.cin(here));
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = cand;
    }
  }
  return best;
}

bool reference_fed(const Schedule& schedule, ReplicaRef r, TaskId pred,
                   const std::vector<std::uint64_t>& alive, std::size_t words) {
  for (ReplicaRef sup : schedule.suppliers(r, pred)) {
    if (replica_mask_test(alive.data() + pred * words, sup.copy)) return true;
  }
  return false;
}

// One step: recompute everything under `failed`, wire the topologically
// first dead task, patch the oracle. False when that task is beyond repair.
bool reference_step(Schedule& schedule, SurvivalOracle& oracle, const ProcSet& failed,
                    RepairStats& stats) {
  std::vector<std::uint64_t> alive;
  oracle.computable(failed, alive);
  const std::size_t words = oracle.mask_words();
  const Dag& dag = schedule.dag();
  for (TaskId t : dag.topological_order()) {
    bool dead = true;
    for (std::size_t w = 0; w < words && dead; ++w) dead = alive[t * words + w] == 0;
    if (!dead) continue;
    ReplicaRef target{kInvalidTask, 0};
    std::size_t best_missing = std::numeric_limits<std::size_t>::max();
    for (CopyId c = 0; c < schedule.copies(); ++c) {
      const ReplicaRef r{t, c};
      if (failed.test(schedule.placed(r).proc)) continue;
      std::size_t missing = 0;
      for (TaskId pred : dag.predecessors(t)) {
        if (!reference_fed(schedule, r, pred, alive, words)) ++missing;
      }
      if (missing < best_missing) {
        best_missing = missing;
        target = r;
      }
    }
    if (target.task == kInvalidTask) return false;
    for (TaskId pred : dag.predecessors(t)) {
      if (reference_fed(schedule, target, pred, alive, words)) continue;
      const ReplicaRef sup = reference_supplier(schedule, target, pred, alive, words);
      if (sup.task == kInvalidTask) return false;
      CommRecord comm;
      comm.edge = dag.find_edge(pred, t);
      comm.src = sup;
      comm.dst = target;
      comm.start = comm.finish = schedule.placed(sup).finish;
      comm.repair = true;
      oracle.add_comm(schedule.comms()[schedule.add_comm(comm)]);
      ++stats.added_comms;
    }
    return true;
  }
  return true;
}

void reference_period_excess(const Schedule& schedule, RepairStats& stats) {
  if (!stats.success || !std::isfinite(schedule.period())) return;
  for (ProcId u = 0; u < schedule.platform().num_procs(); ++u) {
    if (schedule.cin(u) > schedule.period() || schedule.cout(u) > schedule.period()) {
      stats.period_exceeded = true;
      return;
    }
  }
}

// Count repair: each step re-enumerates from the first size-eps set and
// repairs the first one that kills the schedule. `repeats` counts the steps
// that repaired the same set as the step before.
RepairStats reference_repair_count(Schedule& schedule, std::uint32_t eps,
                                   std::uint64_t& repeats) {
  SurvivalOracle oracle(schedule);
  const std::size_t m = schedule.platform().num_procs();
  const std::uint32_t max_steps = reference_max_steps(schedule);
  RepairStats stats;
  ProcSet failed(m);
  ProcSet killer(m);
  std::vector<ProcId> previous;
  for (stats.rounds = 0; stats.rounds < max_steps; ++stats.rounds) {
    bool found = false;
    for_each_failure_set(m, eps, failed, [&](const ProcSet& f, const std::vector<ProcId>& set) {
      if (oracle.survives(f)) return true;
      if (set == previous) ++repeats;
      previous = set;
      killer.assign(set);
      found = true;
      return false;
    });
    if (!found) {
      stats.success = true;
      break;
    }
    EXPECT_TRUE(reference_step(schedule, oracle, killer, stats));
  }
  reference_period_excess(schedule, stats);
  return stats;
}

RepairStats reference_repair_set(Schedule& schedule, SurvivalOracle& oracle,
                                 const ProcSet& failed) {
  const std::uint32_t max_steps = reference_max_steps(schedule);
  RepairStats stats;
  for (stats.rounds = 0; stats.rounds < max_steps; ++stats.rounds) {
    if (oracle.survives(failed)) {
      stats.success = true;
      break;
    }
    if (!reference_step(schedule, oracle, failed, stats)) break;
  }
  reference_period_excess(schedule, stats);
  return stats;
}

// Probabilistic repair in exact mode: every round re-estimates from
// scratch, then repairs the first 64 killing sets in enumeration order.
RepairStats reference_repair_prob(Schedule& schedule, double target,
                                  const ReliabilityOptions& options,
                                  ReliabilityEstimate& achieved) {
  SurvivalOracle oracle(schedule);
  const std::size_t m = schedule.platform().num_procs();
  const std::uint32_t max_steps = reference_max_steps(schedule);
  RepairStats stats;
  ReliabilityEstimate est;
  bool current = false;
  ProcSet failed(m);
  for (stats.rounds = 0; stats.rounds < max_steps; ++stats.rounds) {
    est = schedule_reliability(schedule, options);
    EXPECT_TRUE(est.exact) << "the reference covers exact estimates only";
    current = true;
    if (est.reliability >= target) {
      stats.success = true;
      break;
    }
    std::vector<std::vector<ProcId>> kills;
    for (std::size_t k = 0; k <= est.k_max && kills.size() < kMaxKillingSets; ++k) {
      for_each_failure_set(m, static_cast<std::uint32_t>(k), failed,
                           [&](const ProcSet& f, const std::vector<ProcId>& set) {
                             for (ProcId u : set) {
                               if (schedule.platform().failure_prob(u) <= 0.0) return true;
                             }
                             if (!oracle.survives(f)) kills.push_back(set);
                             return kills.size() < kMaxKillingSets;
                           });
    }
    const std::uint32_t before = stats.added_comms;
    for (const std::vector<ProcId>& kill : kills) {
      failed.assign(kill);
      for (std::uint32_t guard = 0; guard < max_steps; ++guard) {
        if (oracle.survives(failed)) break;
        if (!reference_step(schedule, oracle, failed, stats)) break;
        current = false;
      }
    }
    if (stats.added_comms == before) break;
  }
  reference_period_excess(schedule, stats);
  achieved = current ? est : schedule_reliability(schedule, options);
  return stats;
}

// ---------------------------------------------------------------- checks --

void expect_same_comms(const Schedule& lib, const Schedule& ref, const std::string& where) {
  ASSERT_EQ(lib.comms().size(), ref.comms().size()) << where;
  for (std::size_t i = 0; i < lib.comms().size(); ++i) {
    const CommRecord& x = lib.comms()[i];
    const CommRecord& y = ref.comms()[i];
    EXPECT_EQ(x.edge, y.edge) << where << " comm " << i;
    EXPECT_EQ(x.src.task, y.src.task) << where << " comm " << i;
    EXPECT_EQ(x.src.copy, y.src.copy) << where << " comm " << i;
    EXPECT_EQ(x.dst.task, y.dst.task) << where << " comm " << i;
    EXPECT_EQ(x.dst.copy, y.dst.copy) << where << " comm " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.start), std::bit_cast<std::uint64_t>(y.start))
        << where << " comm " << i;
    EXPECT_EQ(x.repair, y.repair) << where << " comm " << i;
  }
}

void expect_same_stats(const RepairStats& lib, const RepairStats& ref, const std::string& where) {
  EXPECT_EQ(lib.success, ref.success) << where;
  EXPECT_EQ(lib.added_comms, ref.added_comms) << where;
  EXPECT_EQ(lib.rounds, ref.rounds) << where;
  EXPECT_EQ(lib.period_exceeded, ref.period_exceeded) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lib.reliability),
            std::bit_cast<std::uint64_t>(ref.reliability))
      << where;
}

// An unrepaired R-LTF schedule at a calibrated (tight) period, so replica
// chains cross and repair has work to do; falls back to an unbounded
// period when the calibrated one is infeasible. Dag and platform storage
// is the caller's: the schedule references both.
Schedule unrepaired(std::uint64_t seed, std::size_t m, const FaultModel& model, Dag& dag,
                    Platform& platform) {
  Rng rng(seed);
  platform = make_reliability_heterogeneous(rng, m, 0.02, 0.12);
  dag = make_random_layered(rng, 10 + seed % 15, 4, 0.4, WeightRanges{});
  SchedulerOptions options;
  options.fault_model = model;
  options.period = calibrate_period(dag, platform, model.derive_eps(platform, dag.num_tasks()),
                                    2.0, 1.0);
  ScheduleResult r = rltf_schedule(dag, platform, options);
  if (!r.ok()) {
    options.period = kInf;
    r = rltf_schedule(dag, platform, options);
  }
  EXPECT_TRUE(r.ok()) << r.error;
  return std::move(*r.schedule);
}

constexpr std::uint64_t kSeeds = 100;

TEST(RepairParity, CountRepairMatchesOneTaskPerStepAtEps1To3) {
  std::uint64_t repaired = 0;
  std::uint64_t repeats = 0;
  for (std::uint32_t eps = 1; eps <= 3; ++eps) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      Dag dag;
      Platform platform;
      const Schedule proto = unrepaired(seed, 10, FaultModel::count(eps), dag, platform);
      Schedule lib = proto;
      Schedule ref = proto;
      const RepairStats a = repair_fault_tolerance(lib, eps);
      const RepairStats b = reference_repair_count(ref, eps, repeats);
      const std::string where = "eps " + std::to_string(eps) + " seed " + std::to_string(seed);
      expect_same_stats(a, b, where);
      expect_same_comms(lib, ref, where);
      EXPECT_TRUE(a.success) << where;
      if (a.added_comms > 0) ++repaired;
    }
  }
  EXPECT_GT(repaired, kSeeds) << "the seeds must exercise repair";
  // Sets that need several tasks wired exercise the pass past its first
  // dead task.
  EXPECT_GT(repeats, 0u);
}

TEST(RepairParity, FailureSetRepairMatchesOneTaskPerStep) {
  std::uint64_t beyond = 0;
  std::uint64_t repaired = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Dag dag;
    Platform platform;
    const std::uint32_t eps = 1 + seed % 3;
    const Schedule proto = unrepaired(seed, 10, FaultModel::count(eps), dag, platform);
    // Live sets up to one beyond the replication degree, so both the
    // repaired and the beyond-repair outcomes occur.
    Rng rng(seed * 7919 + 1);
    for (int trial = 0; trial < 4; ++trial) {
      const auto k = static_cast<std::uint32_t>(rng.uniform_int(1, eps + 1));
      const auto set = rng.sample_without_replacement(10, k);
      ProcSet failed(10);
      failed.assign(set);
      Schedule lib = proto;
      Schedule ref = proto;
      SurvivalOracle lib_oracle(lib);
      SurvivalOracle ref_oracle(ref);
      const RepairStats a = repair_for_failure_set(lib, lib_oracle, failed);
      const RepairStats b = reference_repair_set(ref, ref_oracle, failed);
      const std::string where = "seed " + std::to_string(seed) + " trial " + std::to_string(trial);
      expect_same_stats(a, b, where);
      expect_same_comms(lib, ref, where);
      if (!a.success) ++beyond;
      if (a.added_comms > 0) ++repaired;
    }
  }
  EXPECT_GT(beyond, 0u);
  EXPECT_GT(repaired, 0u);
}

void expect_same_estimate(const ReliabilityEstimate& lib, const ReliabilityEstimate& ref,
                          const std::string& where) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lib.reliability),
            std::bit_cast<std::uint64_t>(ref.reliability))
      << where;
  EXPECT_EQ(lib.worst_failure, ref.worst_failure) << where;
  EXPECT_EQ(lib.sets_checked, ref.sets_checked) << where;
}

// Exact mode: the library's incremental loop and the reference loop (full
// re-estimate every round, repair_for_failure_set per killing set) must
// both match the one-task-per-step loop.
TEST(RepairParity, ReliabilityRepairMatchesOneTaskPerStepOnBothExactKernels) {
  std::uint64_t repaired = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Dag dag;
    Platform platform;
    const FaultModel model = FaultModel::parse(seed % 2 == 0 ? "prob:R=0.99" : "prob:R=0.999");
    const Schedule proto = unrepaired(seed, 10, model, dag, platform);
    const ReliabilityOptions options;
    const double target = model.target_reliability();
    Schedule step = proto;
    ReliabilityEstimate step_est;
    const RepairStats b = reference_repair_prob(step, target, options, step_est);

    Schedule lib = proto;
    ReliabilityEstimate lib_est;
    const RepairStats a = repair_to_reliability(lib, target, options, &lib_est);
    Schedule ref = proto;
    ReliabilityEstimate ref_est;
    const RepairStats r = reference::repair_to_reliability(
        ref, target, options, reference::Predicate::kOracle, &ref_est);
    const auto expect_matches_step = [&](const std::string& name, const RepairStats& got,
                                         const Schedule& repaired_schedule,
                                         const ReliabilityEstimate& est) {
      const std::string where = "seed " + std::to_string(seed) + " " + name;
      expect_same_stats(got, b, where);
      expect_same_comms(repaired_schedule, step, where);
      expect_same_estimate(est, step_est, where);
    };
    expect_matches_step("library", a, lib, lib_est);
    expect_matches_step("reference", r, ref, ref_est);
    if (a.added_comms > 0) ++repaired;
  }
  EXPECT_GT(repaired, 0u) << "the seeds must exercise repair";
}

// Monte-Carlo mode (max_sets = 0): every estimate draws from a fresh seed,
// and the library must wire the same comms, report the same stats and
// reach the same estimate bits as the reference loop. Even seeds test
// survival with the comm-record walk, odd seeds with the per-set oracle.
TEST(RepairParity, MonteCarloRepairMatchesReferenceLoop) {
  std::uint64_t repaired = 0;
  std::uint64_t multi_round = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Dag dag;
    Platform platform;
    const FaultModel model = FaultModel::parse(seed % 2 == 0 ? "prob:R=0.99" : "prob:R=0.999");
    const Schedule proto = unrepaired(seed, 10, model, dag, platform);
    ReliabilityOptions options;
    options.max_sets = 0;
    options.mc_samples = 400;
    options.seed = 0x5eed + seed;
    const double target = model.target_reliability();
    Schedule lib = proto;
    ReliabilityEstimate lib_est;
    const RepairStats a = repair_to_reliability(lib, target, options, &lib_est);
    Schedule ref = proto;
    ReliabilityEstimate ref_est;
    const RepairStats b = reference::repair_to_reliability(
        ref, target, options,
        seed % 2 == 0 ? reference::Predicate::kLegacy : reference::Predicate::kOracle, &ref_est);
    const std::string where = "seed " + std::to_string(seed);
    EXPECT_FALSE(lib_est.exact) << where;
    expect_same_stats(a, b, where);
    expect_same_comms(lib, ref, where);
    expect_same_estimate(lib_est, ref_est, where);
    if (a.added_comms > 0) ++repaired;
    if (a.rounds > 1) ++multi_round;
  }
  EXPECT_GT(repaired, kSeeds / 2) << "the seeds must exercise repair";
  EXPECT_GT(multi_round, 0u) << "some repairs must re-estimate with a fresh seed";
}

// 65 replicas per task: two mask words per row. Every copy of b and c
// feeds from copy 0 of its predecessor, so one failure on P0 kills the
// whole chain and each repair wires across the word boundary.
TEST(RepairParity, WideMasksMatchOneTaskPerStep) {
  const std::size_t m = 66;
  Dag dag = make_chain(3, 1.0, 1.0);
  Platform platform = Platform::uniform(m, 1.0, 0.5);
  Schedule proto(dag, platform, 64, kInf);
  ASSERT_EQ(proto.copies(), 65u);
  for (CopyId c = 0; c < 65; ++c) {
    test::place_at(proto, {0, c}, c, 0.0);
    test::place_at(proto, {1, c}, (c + 1) % 65, 2.0, 2);
    test::place_at(proto, {2, c}, c, 4.0, 3);
  }
  for (CopyId c = 0; c < 65; ++c) {
    test::wire(proto, 0, 0, 1, c);
    test::wire(proto, 1, 64, 2, c);
  }
  ASSERT_EQ(SurvivalOracle(proto).mask_words(), 2u);

  for (const std::uint32_t eps : {1u, 2u}) {
    Schedule lib = proto;
    Schedule ref = proto;
    const RepairStats a = repair_fault_tolerance(lib, eps);
    std::uint64_t repeats = 0;
    const RepairStats b = reference_repair_count(ref, eps, repeats);
    const std::string where = "wide eps " + std::to_string(eps);
    expect_same_stats(a, b, where);
    expect_same_comms(lib, ref, where);
    EXPECT_TRUE(a.success) << where;
    EXPECT_GT(a.added_comms, 0u) << where;
  }
  for (const std::vector<ProcId>& set :
       {std::vector<ProcId>{0}, std::vector<ProcId>{0, 64}, std::vector<ProcId>{63, 64, 65}}) {
    ProcSet failed(m);
    failed.assign(set);
    Schedule lib = proto;
    Schedule ref = proto;
    SurvivalOracle lib_oracle(lib);
    SurvivalOracle ref_oracle(ref);
    const RepairStats a = repair_for_failure_set(lib, lib_oracle, failed);
    const RepairStats b = reference_repair_set(ref, ref_oracle, failed);
    expect_same_stats(a, b, "wide set");
    expect_same_comms(lib, ref, "wide set");
    EXPECT_TRUE(a.success);
  }
}

}  // namespace
}  // namespace streamsched
