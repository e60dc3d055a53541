// Parity and determinism suite for the compiled survival kernel
// (schedule/survival.hpp): the oracle — per-set AND bit-sliced batch, in
// full and ragged blocks, on single- and multi-word replica masks, before
// and after repair patches — must agree boolean-for-boolean with the
// legacy `survives_failures` / `computable_replicas` walk (all failure
// sets for small m, sampled sets for large m), the incremental enumerator
// must reproduce the legacy lexicographic order, exact-mode reliabilities
// must be bit-identical across all three kernels, Monte-Carlo estimates
// identical to the legacy stream at one thread and across thread counts
// 1/2/4, and the incremental repair cache equivalent to full per-round
// re-verification.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <limits>
#include <vector>

#include "core/rltf.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "platform/generators.hpp"
#include "schedule/fault_tolerance.hpp"
#include "schedule/survival.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace streamsched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Builds a random R-LTF schedule into caller-owned dag/platform storage
// (the Schedule references both; locals would dangle).
Schedule random_schedule(std::uint64_t seed, std::size_t m, std::size_t tasks, CopyId eps,
                         Dag& dag, Platform& platform, double fail_lo = 0.05,
                         double fail_hi = 0.2) {
  Rng rng(seed);
  platform = make_reliability_heterogeneous(rng, m, fail_lo, fail_hi);
  dag = make_random_layered(rng, tasks, 4, 0.4, WeightRanges{});
  SchedulerOptions options;
  options.eps = eps;
  options.period = kInf;
  ScheduleResult r = rltf_schedule(dag, platform, options);
  EXPECT_TRUE(r.ok()) << r.error;
  return std::move(*r.schedule);
}

// Compares the oracle (per-set, single-lane batch, and computability
// masks) against the legacy kernel under one failure set.
void expect_parity(const Schedule& schedule, SurvivalOracle& oracle,
                   const std::vector<ProcId>& set) {
  const std::size_t m = schedule.platform().num_procs();
  std::vector<bool> failed_legacy(m, false);
  for (ProcId p : set) failed_legacy[p] = true;
  ProcSet failed(m);
  failed.assign(set);

  const bool legacy_survives = survives_failures(schedule, failed_legacy);
  EXPECT_EQ(oracle.survives(failed), legacy_survives);
  BatchScratch batch;
  EXPECT_EQ(oracle.survives_batch(failed.words(), 1, batch), legacy_survives ? 1u : 0u);

  const auto legacy = computable_replicas(schedule, failed_legacy);
  std::vector<std::uint64_t> alive;
  oracle.computable(failed, alive);
  const std::size_t words = oracle.mask_words();
  for (TaskId t = 0; t < schedule.dag().num_tasks(); ++t) {
    for (CopyId c = 0; c < schedule.copies(); ++c) {
      EXPECT_EQ(replica_mask_test(alive.data() + t * words, c), legacy[t][c])
          << "task " << t << " copy " << c;
    }
  }
}

TEST(ProcSet, BasicsAcrossWordBoundaries) {
  ProcSet set(130);
  EXPECT_EQ(set.size(), 130u);
  EXPECT_EQ(set.num_words(), 3u);
  EXPECT_EQ(set.count(), 0u);
  set.set(0);
  set.set(63);
  set.set(64);
  set.set(129);
  EXPECT_TRUE(set.test(0));
  EXPECT_TRUE(set.test(63));
  EXPECT_TRUE(set.test(64));
  EXPECT_TRUE(set.test(129));
  EXPECT_FALSE(set.test(1));
  EXPECT_FALSE(set.test(128));
  EXPECT_EQ(set.count(), 4u);
  set.reset(63);
  EXPECT_FALSE(set.test(63));
  EXPECT_EQ(set.count(), 3u);
  set.clear();
  EXPECT_EQ(set.count(), 0u);
  set.assign(std::vector<ProcId>{2, 65});
  EXPECT_EQ(set.count(), 2u);
  EXPECT_TRUE(set.test(2));
  EXPECT_TRUE(set.test(65));
}

TEST(Survival, EnumeratorMatchesLegacyOrder) {
  // Reference lexicographic combinations of {0..6} choose 3.
  std::vector<std::vector<ProcId>> expected;
  for (ProcId a = 0; a < 7; ++a) {
    for (ProcId b = a + 1; b < 7; ++b) {
      for (ProcId c = b + 1; c < 7; ++c) expected.push_back({a, b, c});
    }
  }

  ProcSet failed(7);
  std::vector<std::vector<ProcId>> seen;
  const std::uint64_t visited =
      for_each_failure_set(7, 3, failed, [&](const ProcSet& f, const std::vector<ProcId>& set) {
        seen.push_back(set);
        // The incrementally maintained bits must mirror the subset exactly.
        std::size_t bits = 0;
        for (std::size_t p = 0; p < 7; ++p) bits += f.test(p) ? 1 : 0;
        EXPECT_EQ(bits, set.size());
        for (ProcId p : set) EXPECT_TRUE(f.test(p));
        return true;
      });
  EXPECT_EQ(visited, expected.size());
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(failed.count(), 0u);  // left cleared after a full enumeration

  // Early stop reports the number of sets actually visited.
  std::uint64_t stopped = for_each_failure_set(
      7, 3, failed, [&](const ProcSet&, const std::vector<ProcId>&) { return false; });
  EXPECT_EQ(stopped, 1u);

  // k = 0 visits exactly the empty set.
  std::uint64_t empty_visits = 0;
  EXPECT_EQ(for_each_failure_set(7, 0, failed,
                                 [&](const ProcSet& f, const std::vector<ProcId>& set) {
                                   ++empty_visits;
                                   EXPECT_TRUE(set.empty());
                                   EXPECT_EQ(f.count(), 0u);
                                   return true;
                                 }),
            1u);
  EXPECT_EQ(empty_visits, 1u);
}

TEST(Survival, OracleMatchesLegacyOnRandomSchedulesAndAfterRepair) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    const std::size_t m = 6;
    Dag dag;
    Platform platform;
    Schedule schedule = random_schedule(seed, m, 14, seed % 2 == 0 ? 1 : 2, dag, platform);
    SurvivalOracle oracle(schedule);

    // Every subset of the 6 processors, as sets of ids.
    std::vector<std::vector<ProcId>> subsets;
    for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
      std::vector<ProcId> set;
      for (ProcId p = 0; p < m; ++p) {
        if ((mask >> p) & 1) set.push_back(p);
      }
      subsets.push_back(std::move(set));
    }
    for (const auto& set : subsets) expect_parity(schedule, oracle, set);

    // Repair rewires supply channels; the patched oracle (add_comm per new
    // channel) must keep parity with the legacy kernel AND with an oracle
    // recompiled from scratch.
    const std::size_t before = schedule.comms().size();
    (void)repair_to_reliability(schedule, 0.999);
    for (std::size_t i = before; i < schedule.comms().size(); ++i) {
      oracle.add_comm(schedule.comms()[i]);
    }
    SurvivalOracle fresh(schedule);
    ProcSet failed(m);
    for (const auto& set : subsets) {
      expect_parity(schedule, oracle, set);
      failed.assign(set);
      EXPECT_EQ(oracle.survives(failed), fresh.survives(failed));
    }
  }
}

TEST(Survival, OracleParitySampledOnLargePlatform) {
  const std::size_t m = 40;
  Dag dag;
  Platform platform;
  Schedule schedule = random_schedule(7, m, 60, 2, dag, platform, 0.02, 0.1);
  SurvivalOracle oracle(schedule);
  Rng rng(99);
  for (int trial = 0; trial < 250; ++trial) {
    const auto k = static_cast<std::uint32_t>(rng.uniform_int(0, 6));
    const auto sample = rng.sample_without_replacement(static_cast<std::uint32_t>(m), k);
    expect_parity(schedule, oracle, std::vector<ProcId>(sample.begin(), sample.end()));
  }
}

TEST(Survival, BatchMatchesPerSetInBlocksAndRaggedTails) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    const std::size_t m = 6;
    Dag dag;
    Platform platform;
    Schedule schedule = random_schedule(seed, m, 14, seed % 2 == 0 ? 1 : 2, dag, platform);
    const SurvivalOracle oracle(schedule);

    // All 64 subsets of the 6 processors, one single-word row each — the
    // subset mask IS the failure-set row.
    std::vector<std::uint64_t> rows(64);
    std::vector<bool> expected(64);
    std::vector<std::uint64_t> scratch;
    for (std::uint64_t mask = 0; mask < 64; ++mask) {
      rows[mask] = mask;
      expected[mask] = oracle.survives_words(&rows[mask], scratch);
    }

    BatchScratch batch;
    const std::uint64_t full = oracle.survives_batch(rows.data(), 64, batch);
    for (std::size_t lane = 0; lane < 64; ++lane) {
      EXPECT_EQ(((full >> lane) & 1) != 0, expected[lane]) << "lane " << lane;
    }

    // Ragged partitions: every block size leaves a different tail < 64,
    // and reusing one scratch across blocks must not leak lanes.
    for (const std::size_t block : {1u, 5u, 23u, 63u}) {
      for (std::size_t begin = 0; begin < 64; begin += block) {
        const std::size_t count = std::min<std::size_t>(block, 64 - begin);
        const std::uint64_t lanes = oracle.survives_batch(rows.data() + begin, count, batch);
        EXPECT_EQ(lanes & ~batch_lane_mask(count), 0u) << "stale lanes beyond the tail";
        for (std::size_t lane = 0; lane < count; ++lane) {
          EXPECT_EQ(((lanes >> lane) & 1) != 0, expected[begin + lane])
              << "block " << block << " begin " << begin << " lane " << lane;
        }
      }
    }
  }
}

TEST(Survival, BatchMatchesPerSetOnPatchedOracleAfterRepair) {
  for (std::uint64_t seed : {21u, 42u}) {
    const std::size_t m = 6;
    Dag dag;
    Platform platform;
    Schedule schedule = random_schedule(seed, m, 14, 1, dag, platform);
    SurvivalOracle oracle(schedule);
    const std::size_t before = schedule.comms().size();
    (void)repair_to_reliability(schedule, 0.999);
    for (std::size_t i = before; i < schedule.comms().size(); ++i) {
      oracle.add_comm(schedule.comms()[i]);
    }

    std::vector<std::uint64_t> rows(64);
    std::vector<std::uint64_t> scratch;
    BatchScratch batch;
    for (std::uint64_t mask = 0; mask < 64; ++mask) rows[mask] = mask;
    const std::uint64_t lanes = oracle.survives_batch(rows.data(), 64, batch);
    for (std::uint64_t mask = 0; mask < 64; ++mask) {
      EXPECT_EQ(((lanes >> mask) & 1) != 0, oracle.survives_words(&rows[mask], scratch))
          << "set mask " << mask;
    }
  }
}

TEST(Survival, ExactReliabilityBitIdenticalAcrossKernels) {
  for (std::uint64_t seed : {3u, 5u, 8u}) {
    Dag dag;
    Platform platform;
    const Schedule schedule = random_schedule(seed, 6, 14, 2, dag, platform);
    ReliabilityOptions batch_opts;  // defaults: kBatch, exact for m = 6
    ReliabilityOptions oracle_opts;
    oracle_opts.kernel = SurvivalKernel::kOracle;
    ReliabilityOptions legacy_opts;
    legacy_opts.kernel = SurvivalKernel::kLegacy;
    const ReliabilityEstimate a = schedule_reliability(schedule, batch_opts);
    const ReliabilityEstimate o = schedule_reliability(schedule, oracle_opts);
    const ReliabilityEstimate b = schedule_reliability(schedule, legacy_opts);
    ASSERT_TRUE(a.exact);
    ASSERT_TRUE(o.exact);
    ASSERT_TRUE(b.exact);
    EXPECT_EQ(a.reliability, b.reliability);  // bit-identical, not just near
    EXPECT_EQ(a.sets_checked, b.sets_checked);
    EXPECT_EQ(a.worst_failure, b.worst_failure);
    EXPECT_EQ(a.worst_failure_prob, b.worst_failure_prob);
    EXPECT_EQ(o.reliability, b.reliability);
    EXPECT_EQ(o.sets_checked, b.sets_checked);
    EXPECT_EQ(o.worst_failure, b.worst_failure);
    EXPECT_EQ(o.worst_failure_prob, b.worst_failure_prob);
  }
}

TEST(Survival, ExactReliabilityDeterministicAcrossThreadCounts) {
  // Large enough that the parallel exact path engages (the size floor is
  // 4096 enumerated sets): the partitioned survival fan-out plus ordered
  // reduction must be bit-identical for every exact_threads value AND to
  // the serial kernels (oracle and legacy walk the same arithmetic).
  Dag dag;
  Platform platform;
  const Schedule schedule = random_schedule(23, 16, 30, 2, dag, platform);
  ReliabilityOptions serial;  // exact_threads = 1
  const ReliabilityEstimate reference = schedule_reliability(schedule, serial);
  ASSERT_TRUE(reference.exact);
  ASSERT_GT(reference.sets_checked, 4096u) << "scenario too small to engage the fan-out";
  ReliabilityOptions legacy;
  legacy.kernel = SurvivalKernel::kLegacy;
  const ReliabilityEstimate legacy_est = schedule_reliability(schedule, legacy);
  EXPECT_EQ(reference.reliability, legacy_est.reliability);
  for (const std::size_t threads : {2u, 4u}) {
    ReliabilityOptions options;
    options.exact_threads = threads;
    const ReliabilityEstimate est = schedule_reliability(schedule, options);
    ASSERT_TRUE(est.exact);
    EXPECT_EQ(est.reliability, reference.reliability) << "threads=" << threads;
    EXPECT_EQ(est.sets_checked, reference.sets_checked) << "threads=" << threads;
    EXPECT_EQ(est.k_max, reference.k_max) << "threads=" << threads;
    EXPECT_EQ(est.worst_failure, reference.worst_failure) << "threads=" << threads;
    EXPECT_EQ(est.worst_failure_prob, reference.worst_failure_prob)
        << "threads=" << threads;
  }
}

TEST(Survival, MonteCarloIdenticalToLegacyAtOneThread) {
  Dag dag;
  Platform platform;
  const Schedule schedule = random_schedule(13, 10, 24, 1, dag, platform);
  ReliabilityOptions base;
  base.max_sets = 0;  // force the Monte-Carlo path
  base.mc_samples = 3000;
  ReliabilityOptions per_set = base;
  per_set.kernel = SurvivalKernel::kOracle;
  ReliabilityOptions legacy = base;
  legacy.kernel = SurvivalKernel::kLegacy;
  const ReliabilityEstimate a = schedule_reliability(schedule, base);
  const ReliabilityEstimate o = schedule_reliability(schedule, per_set);
  const ReliabilityEstimate b = schedule_reliability(schedule, legacy);
  ASSERT_FALSE(a.exact);
  ASSERT_FALSE(o.exact);
  ASSERT_FALSE(b.exact);
  EXPECT_EQ(a.reliability, b.reliability);  // same stream, same reduction order
  EXPECT_EQ(a.sets_checked, b.sets_checked);
  EXPECT_EQ(a.worst_failure, b.worst_failure);
  EXPECT_EQ(a.worst_failure_prob, b.worst_failure_prob);
  EXPECT_EQ(o.reliability, b.reliability);
  EXPECT_EQ(o.worst_failure, b.worst_failure);
}

TEST(Survival, MonteCarloDeterministicAcrossThreadCounts) {
  Dag dag;
  Platform platform;
  const Schedule schedule = random_schedule(17, 10, 24, 1, dag, platform);
  ReliabilityOptions base;
  base.max_sets = 0;
  base.mc_samples = 4000;
  ReliabilityEstimate reference;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ReliabilityOptions options = base;
    options.mc_threads = threads;
    const ReliabilityEstimate est = schedule_reliability(schedule, options);
    if (threads == 1) {
      reference = est;
      continue;
    }
    EXPECT_EQ(est.reliability, reference.reliability) << "threads=" << threads;
    EXPECT_EQ(est.sets_checked, reference.sets_checked) << "threads=" << threads;
    EXPECT_EQ(est.worst_failure, reference.worst_failure) << "threads=" << threads;
    EXPECT_EQ(est.worst_failure_prob, reference.worst_failure_prob) << "threads=" << threads;
  }
}

TEST(Survival, RepairToReliabilityParityAcrossKernels) {
  for (std::uint64_t seed : {4u, 9u}) {
    Dag dag;
    Platform platform;
    Schedule with_batch = random_schedule(seed, 6, 14, 1, dag, platform);
    Schedule with_oracle = with_batch;
    Schedule with_legacy = with_batch;
    ReliabilityOptions batch_opts;  // kBatch: incremental killing-set cache
    ReliabilityOptions oracle_opts;  // kOracle: full re-enumeration per round
    oracle_opts.kernel = SurvivalKernel::kOracle;
    ReliabilityOptions legacy_opts;
    legacy_opts.kernel = SurvivalKernel::kLegacy;
    ReliabilityEstimate achieved_batch;
    ReliabilityEstimate achieved_oracle;
    ReliabilityEstimate achieved_legacy;
    const RepairStats a =
        repair_to_reliability(with_batch, 0.995, batch_opts, &achieved_batch);
    const RepairStats o =
        repair_to_reliability(with_oracle, 0.995, oracle_opts, &achieved_oracle);
    const RepairStats b =
        repair_to_reliability(with_legacy, 0.995, legacy_opts, &achieved_legacy);
    EXPECT_EQ(a.success, b.success);
    EXPECT_EQ(a.added_comms, b.added_comms);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(achieved_batch.reliability, achieved_legacy.reliability);
    EXPECT_EQ(with_batch.comms().size(), with_legacy.comms().size());
    EXPECT_EQ(o.success, b.success);
    EXPECT_EQ(o.added_comms, b.added_comms);
    EXPECT_EQ(o.rounds, b.rounds);
    EXPECT_EQ(achieved_oracle.reliability, achieved_legacy.reliability);
    EXPECT_EQ(with_oracle.comms().size(), with_legacy.comms().size());
  }
}

// The incremental killing-set cache (kBatch exact repair) must reproduce
// the full per-round re-verification exactly on a schedule that is
// guaranteed to need repair: both copies of task b feed from a's copy on
// P0, so killing sets exist, channels get wired, and later rounds
// re-verify cached killed sets against the patched channels.
TEST(Survival, IncrementalRepairMatchesFullReverification) {
  Dag dag = make_chain(2, 4.0, 2.0);
  Platform platform = Platform::uniform(4, 1.0, 0.5);
  for (ProcId u = 0; u < 4; ++u) platform.set_failure_prob(u, 0.3);
  Schedule proto(dag, platform, 1, 1000.0);
  test::place_at(proto, {0, 0}, 0, 0.0);
  test::place_at(proto, {0, 1}, 2, 0.0);
  proto.place({1, 0}, 1, 10.0, 14.0, 2);
  proto.place({1, 1}, 3, 10.0, 14.0, 2);
  test::wire(proto, 0, 0, 1, 0);
  test::wire(proto, 0, 0, 1, 1);

  Schedule incremental = proto;
  Schedule full = proto;
  ReliabilityOptions batch_opts;  // kBatch: cached rows, killed-only re-verify
  ReliabilityOptions oracle_opts;  // kOracle: from-scratch enumeration per round
  oracle_opts.kernel = SurvivalKernel::kOracle;
  ReliabilityEstimate achieved_inc;
  ReliabilityEstimate achieved_full;
  const RepairStats a = repair_to_reliability(incremental, 0.8, batch_opts, &achieved_inc);
  const RepairStats b = repair_to_reliability(full, 0.8, oracle_opts, &achieved_full);
  EXPECT_GT(a.added_comms, 0u) << "scenario must actually exercise repair";
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.added_comms, b.added_comms);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(achieved_inc.reliability, achieved_full.reliability);
  EXPECT_EQ(achieved_inc.sets_checked, achieved_full.sets_checked);
  EXPECT_EQ(achieved_inc.worst_failure, achieved_full.worst_failure);
  ASSERT_EQ(incremental.comms().size(), full.comms().size());
  for (std::size_t i = 0; i < incremental.comms().size(); ++i) {
    EXPECT_EQ(incremental.comms()[i].src.task, full.comms()[i].src.task) << "comm " << i;
    EXPECT_EQ(incremental.comms()[i].src.copy, full.comms()[i].src.copy) << "comm " << i;
    EXPECT_EQ(incremental.comms()[i].dst.task, full.comms()[i].dst.task) << "comm " << i;
    EXPECT_EQ(incremental.comms()[i].dst.copy, full.comms()[i].dst.copy) << "comm " << i;
  }
}

// The same parity at the placement service's probabilistic admission
// scale (16 processors, 26 tasks, R = 0.99 so ε = 3): the enumeration
// kills far more than the 64 recorded killing sets per round, and many
// killed rows hold every replica host of some task, so the incremental
// loop's decode skip and its killed-for-good rows are both exercised.
// Seed 6's worst failure set comes after the killing-set list is full;
// the first seed repairs over three rounds.
TEST(Survival, IncrementalRepairMatchesFullReverificationAtAdmissionScale) {
  for (const std::uint64_t seed : {0x5eedc105e5ULL, 6ULL}) {
    Rng rng(seed);
    const Platform platform = make_reliability_heterogeneous(rng, 16, 0.02, 0.08);
    const Dag dag = make_random_layered(rng, 26, 4, 0.4, WeightRanges{});
    SchedulerOptions options;
    options.fault_model = FaultModel::parse("prob:R=0.99");
    options.period = kInf;
    ScheduleResult r = rltf_schedule(dag, platform, options);
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.schedule->eps(), 3u);

    // More than kMaxKillingSets (64) killing sets before any repair.
    SurvivalOracle oracle(*r.schedule);
    ProcSet failed(16);
    std::size_t killing = 0;
    for (std::uint32_t k = 0; k <= 4; ++k) {
      for_each_failure_set(16, k, failed, [&](const ProcSet& f, const std::vector<ProcId>&) {
        if (!oracle.survives(f)) ++killing;
        return true;
      });
    }
    ASSERT_GT(killing, 64u) << "seed " << seed;

    Schedule incremental = *r.schedule;
    Schedule full = *r.schedule;
    ReliabilityOptions batch_opts;   // kBatch: cached rows, open-row re-verify
    ReliabilityOptions oracle_opts;  // kOracle: from-scratch enumeration per round
    oracle_opts.kernel = SurvivalKernel::kOracle;
    ReliabilityEstimate achieved_inc;
    ReliabilityEstimate achieved_full;
    const RepairStats a = repair_to_reliability(incremental, 0.99, batch_opts, &achieved_inc);
    const RepairStats b = repair_to_reliability(full, 0.99, oracle_opts, &achieved_full);
    EXPECT_GE(a.rounds, 1u) << "scenario must re-verify cached rows";
    EXPECT_EQ(a.success, b.success) << "seed " << seed;
    EXPECT_EQ(a.added_comms, b.added_comms) << "seed " << seed;
    EXPECT_EQ(a.rounds, b.rounds) << "seed " << seed;
    EXPECT_EQ(a.period_exceeded, b.period_exceeded) << "seed " << seed;
    EXPECT_EQ(a.reliability, b.reliability) << "seed " << seed;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(achieved_inc.reliability),
              std::bit_cast<std::uint64_t>(achieved_full.reliability))
        << "seed " << seed;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(achieved_inc.worst_failure_prob),
              std::bit_cast<std::uint64_t>(achieved_full.worst_failure_prob))
        << "seed " << seed;
    EXPECT_EQ(achieved_inc.worst_failure, achieved_full.worst_failure) << "seed " << seed;
    EXPECT_EQ(achieved_inc.sets_checked, achieved_full.sets_checked) << "seed " << seed;
    ASSERT_EQ(incremental.comms().size(), full.comms().size()) << "seed " << seed;
    for (std::size_t i = 0; i < incremental.comms().size(); ++i) {
      const CommRecord& x = incremental.comms()[i];
      const CommRecord& y = full.comms()[i];
      EXPECT_EQ(x.edge, y.edge) << "seed " << seed << " comm " << i;
      EXPECT_EQ(x.src.task, y.src.task) << "seed " << seed << " comm " << i;
      EXPECT_EQ(x.src.copy, y.src.copy) << "seed " << seed << " comm " << i;
      EXPECT_EQ(x.dst.task, y.dst.task) << "seed " << seed << " comm " << i;
      EXPECT_EQ(x.dst.copy, y.dst.copy) << "seed " << seed << " comm " << i;
    }
  }
}

// Replication degrees beyond one 64-bit mask word run natively on the
// multi-word oracle (no legacy fallback required anymore): checkers,
// batch queries, exact reliability and repair all work and stay
// kernel-identical.
TEST(Survival, MultiWordMasksAboveSixtyFourCopies) {
  const std::size_t m = 66;
  Dag dag;
  dag.add_task("a", 1.0);
  dag.add_task("b", 1.0);
  dag.add_edge(0, 1, 1.0);
  Platform platform = Platform::uniform(m, 1.0, 0.5);
  for (ProcId u = 0; u < m; ++u) platform.set_failure_prob(u, 0.01);
  Schedule s(dag, platform, 64, kInf);  // 65 replicas per task
  ASSERT_EQ(s.copies(), 65u);
  for (CopyId c = 0; c < 65; ++c) {
    test::place_at(s, {0, c}, c, 0.0);
    test::place_at(s, {1, c}, c, 2.0, 2);
    test::wire(s, 0, c, 1, c);  // colocated disjoint chains
  }

  SurvivalOracle oracle(s);
  EXPECT_EQ(oracle.mask_words(), 2u);
  const FtCheckResult check = check_fault_tolerance(s, 1);
  EXPECT_TRUE(check.valid);
  EXPECT_EQ(check.sets_checked, m);
  Rng rng(3);
  EXPECT_TRUE(check_fault_tolerance_sampled(s, 2, 32, rng).valid);

  // Per-set vs single-lane batch vs legacy over sampled failure sets.
  Rng sample_rng(17);
  for (int trial = 0; trial < 60; ++trial) {
    const auto k = static_cast<std::uint32_t>(sample_rng.uniform_int(0, 4));
    const auto sample = sample_rng.sample_without_replacement(static_cast<std::uint32_t>(m), k);
    expect_parity(s, oracle, std::vector<ProcId>(sample.begin(), sample.end()));
  }

  // Exact reliability (truncation loose enough to fit the set budget at
  // m = 66) must be bit-identical across all three kernels.
  ReliabilityOptions exact_opts;
  exact_opts.tail_tolerance = 1e-2;
  ReliabilityOptions exact_oracle = exact_opts;
  exact_oracle.kernel = SurvivalKernel::kOracle;
  ReliabilityOptions exact_legacy = exact_opts;
  exact_legacy.kernel = SurvivalKernel::kLegacy;
  const ReliabilityEstimate ea = schedule_reliability(s, exact_opts);
  const ReliabilityEstimate eo = schedule_reliability(s, exact_oracle);
  const ReliabilityEstimate el = schedule_reliability(s, exact_legacy);
  ASSERT_TRUE(ea.exact) << "truncated enumeration must fit the default budget";
  EXPECT_EQ(ea.reliability, el.reliability);
  EXPECT_EQ(ea.sets_checked, el.sets_checked);
  EXPECT_EQ(eo.reliability, el.reliability);

  EXPECT_EQ(repair_fault_tolerance(s, 1).success, true);
  ReliabilityOptions options;
  options.max_sets = 0;  // exercise the MC path too
  options.mc_samples = 200;
  const ReliabilityEstimate est = schedule_reliability(s, options);
  EXPECT_GE(est.reliability, 0.0);
  ReliabilityEstimate achieved;
  const RepairStats stats = repair_to_reliability(s, 0.5, options, &achieved);
  EXPECT_TRUE(stats.success);
}

// The crash-trial precheck must be outcome-equivalent to running the full
// event simulation: same completeness verdict, same starvation accounting,
// same measured latency, for both surviving and killed sampled sets.
TEST(Survival, SimulationPrecheckMatchesFullSimulation) {
  Dag dag = make_chain(2, 4.0, 2.0);
  Platform platform = Platform::uniform(4, 1.0, 0.5);
  for (ProcId u = 0; u < 4; ++u) platform.set_failure_prob(u, 0.3);
  // Crossed chains: both copies of task b feed from a's copy on P0, so a
  // P0 failure kills the schedule while other singletons are survivable.
  Schedule s(dag, platform, 1, 1000.0);
  test::place_at(s, {0, 0}, 0, 0.0);
  test::place_at(s, {0, 1}, 2, 0.0);
  s.place({1, 0}, 1, 10.0, 14.0, 2);
  s.place({1, 1}, 3, 10.0, 14.0, 2);
  test::wire(s, 0, 0, 1, 0);
  test::wire(s, 0, 0, 1, 1);

  const FaultModel model = FaultModel::probabilistic(0.9);
  const SurvivalOracle oracle(s);
  Rng rng_plain(31);
  Rng rng_precheck(31);
  bool saw_killed = false;
  bool saw_survived = false;
  for (int trial = 0; trial < 40; ++trial) {
    const SimResult plain = simulate_with_sampled_failures(s, model, 0, rng_plain);
    const SimResult checked =
        simulate_with_sampled_failures(s, model, 0, rng_precheck, {}, &oracle);
    EXPECT_EQ(plain.complete, checked.complete) << "trial " << trial;
    EXPECT_EQ(plain.starved_items, checked.starved_items) << "trial " << trial;
    EXPECT_EQ(plain.mean_latency, checked.mean_latency) << "trial " << trial;
    (plain.complete ? saw_survived : saw_killed) = true;
  }
  // The failure probability of 0.3 per processor makes both outcomes near
  // certain over 40 trials; losing one side would leave the precheck
  // untested.
  EXPECT_TRUE(saw_killed);
  EXPECT_TRUE(saw_survived);
}

TEST(Survival, SharedGlobalPoolPinsBitIdenticalEstimates) {
  // Every parallel consumer (exact enumeration, MC estimation, the sweep,
  // the placement daemon) now shares ONE lazily-built process pool instead
  // of spinning a transient pool per call.
  ThreadPool& pool = global_thread_pool();
  EXPECT_EQ(&pool, &global_thread_pool());
  EXPECT_GT(pool.size(), 0u);

  // A parallel_for issued from inside another parallel_for body must run
  // inline (re-entering the shared queue could deadlock with every worker
  // blocked on its peers) and still cover every index exactly once.
  std::atomic<int> covered{0};
  pool.parallel_for(4, [&](std::size_t) {
    global_thread_pool().parallel_for(8, [&](std::size_t) { ++covered; });
  });
  EXPECT_EQ(covered.load(), 32);

  // Routing the exact and Monte-Carlo fan-outs through the shared pool
  // must keep estimates bit-identical to the serial kernels (fixed result
  // slots, ordered reductions — same guarantee the per-call pools gave).
  Dag dag;
  Platform platform;
  const Schedule schedule = random_schedule(29, 12, 22, 2, dag, platform);
  ReliabilityOptions serial;
  const ReliabilityEstimate exact_ref = schedule_reliability(schedule, serial);
  ReliabilityOptions exact_par;
  exact_par.exact_threads = 0;  // hardware concurrency via the shared pool
  const ReliabilityEstimate exact_est = schedule_reliability(schedule, exact_par);
  EXPECT_EQ(exact_est.reliability, exact_ref.reliability);
  EXPECT_EQ(exact_est.sets_checked, exact_ref.sets_checked);
  EXPECT_EQ(exact_est.worst_failure, exact_ref.worst_failure);

  ReliabilityOptions mc_serial;
  mc_serial.max_sets = 0;
  mc_serial.mc_samples = 2000;
  const ReliabilityEstimate mc_ref = schedule_reliability(schedule, mc_serial);
  ReliabilityOptions mc_par = mc_serial;
  mc_par.mc_threads = 0;
  const ReliabilityEstimate mc_est = schedule_reliability(schedule, mc_par);
  EXPECT_EQ(mc_est.reliability, mc_ref.reliability);
  EXPECT_EQ(mc_est.sets_checked, mc_ref.sets_checked);
  EXPECT_EQ(mc_est.worst_failure, mc_ref.worst_failure);
}

}  // namespace
}  // namespace streamsched
