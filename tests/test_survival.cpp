// Parity and determinism suite for the compiled survival kernel
// (schedule/survival.hpp): the oracle — per-set AND bit-sliced batch, in
// full and ragged blocks, on single- and multi-word replica masks, before
// and after repair patches — must agree boolean-for-boolean with the
// reference `survives_failures` / `computable_replicas` walk (all failure
// sets for small m, sampled sets for large m), the incremental enumerator
// must reproduce the lexicographic order, the library estimator must match
// the reference serial estimator bit for bit in exact and Monte-Carlo mode
// under both reference predicates, and the incremental repair cache must
// match the reference loop's full per-round re-verification.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <limits>
#include <string>
#include <vector>

#include "core/rltf.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "platform/generators.hpp"
#include "reference/reliability.hpp"
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
// masks) against the reference comm-record walk under one failure set.
void expect_parity(const Schedule& schedule, SurvivalOracle& oracle,
                   const std::vector<ProcId>& set) {
  const std::size_t m = schedule.platform().num_procs();
  std::vector<bool> failed_legacy(m, false);
  for (ProcId p : set) failed_legacy[p] = true;
  ProcSet failed(m);
  failed.assign(set);

  const bool legacy_survives = reference::survives_failures(schedule, failed_legacy);
  EXPECT_EQ(oracle.survives(failed), legacy_survives);
  BatchScratch batch;
  EXPECT_EQ(oracle.survives_batch(failed.words(), 1, batch), legacy_survives ? 1u : 0u);

  const auto legacy = reference::computable_replicas(schedule, failed_legacy);
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
    // channel) must keep parity with the reference walk AND with an oracle
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

// 65 replicas per task (two mask words per row) on 66 processors, copy c
// of both tasks on processor c. Disjoint chains survive any failure short
// of all 65 hosts; crossed ones feed every copy of b from copy 0 of a, so
// losing processor 0 kills the schedule.
Schedule wide_schedule(const Dag& dag, const Platform& platform, bool crossed = false) {
  Schedule s(dag, platform, 64, kInf);
  for (CopyId c = 0; c < 65; ++c) {
    test::place_at(s, {0, c}, c, 0.0);
    test::place_at(s, {1, c}, c, 2.0, 2);
    test::wire(s, 0, crossed ? 0 : c, 1, c);
  }
  return s;
}

void expect_same_estimate(const ReliabilityEstimate& lib, const ReliabilityEstimate& ref,
                          const std::string& where) {
  EXPECT_EQ(lib.exact, ref.exact) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lib.reliability),
            std::bit_cast<std::uint64_t>(ref.reliability))
      << where;
  EXPECT_EQ(lib.sets_checked, ref.sets_checked) << where;
  EXPECT_EQ(lib.k_max, ref.k_max) << where;
  EXPECT_EQ(lib.worst_failure, ref.worst_failure) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lib.worst_failure_prob),
            std::bit_cast<std::uint64_t>(ref.worst_failure_prob))
      << where;
}

TEST(Survival, ExactReliabilityBitIdenticalAcrossKernels) {
  for (std::uint64_t seed : {3u, 5u, 8u}) {
    Dag dag;
    Platform platform;
    const Schedule schedule = random_schedule(seed, 6, 14, 2, dag, platform);
    const ReliabilityOptions options;  // exact for m = 6
    const ReliabilityEstimate lib = schedule_reliability(schedule, options);
    const ReliabilityEstimate legacy =
        reference::schedule_reliability(schedule, options, reference::Predicate::kLegacy);
    const ReliabilityEstimate per_set =
        reference::schedule_reliability(schedule, options, reference::Predicate::kOracle);
    ASSERT_TRUE(lib.exact);
    ASSERT_TRUE(legacy.exact);
    ASSERT_TRUE(per_set.exact);
    const std::string where = "seed " + std::to_string(seed);
    expect_same_estimate(lib, legacy, where + " legacy");
    expect_same_estimate(lib, per_set, where + " oracle");
  }
}

TEST(Survival, MonteCarloIdenticalToLegacyAtOneThread) {
  Dag dag;
  Platform platform;
  const Schedule schedule = random_schedule(13, 10, 24, 1, dag, platform);
  ReliabilityOptions options;
  options.max_sets = 0;  // force the Monte-Carlo path
  options.mc_samples = 3000;
  const ReliabilityEstimate lib = schedule_reliability(schedule, options);
  const ReliabilityEstimate legacy =
      reference::schedule_reliability(schedule, options, reference::Predicate::kLegacy);
  const ReliabilityEstimate per_set =
      reference::schedule_reliability(schedule, options, reference::Predicate::kOracle);
  ASSERT_FALSE(lib.exact);
  ASSERT_FALSE(legacy.exact);
  ASSERT_FALSE(per_set.exact);
  expect_same_estimate(lib, legacy, "legacy");  // same stream, same reduction order
  expect_same_estimate(lib, per_set, "oracle");
}

// The library estimator (materialized rows, 64 per bit-sliced pass) must
// reproduce the reference serial loop bit for bit, in exact and in
// Monte-Carlo mode and under both reference predicates, over 120 seeded
// schedules of varying size, replication degree and failure probabilities
// (every seventh with a never-failing processor, whose sets carry zero
// weight), plus a crossed 65-copy schedule on the multi-word mask layout.
TEST(Survival, EstimatorMatchesReferenceOverSeeds) {
  const auto check = [](const Schedule& schedule, const ReliabilityOptions& options,
                        const std::string& where) {
    const ReliabilityEstimate lib = schedule_reliability(schedule, options);
    expect_same_estimate(
        lib, reference::schedule_reliability(schedule, options, reference::Predicate::kLegacy),
        where + " legacy");
    expect_same_estimate(
        lib, reference::schedule_reliability(schedule, options, reference::Predicate::kOracle),
        where + " oracle");
    return lib;
  };
  std::uint64_t killed_exact = 0;
  std::uint64_t killed_mc = 0;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    Dag dag;
    Platform platform;
    const std::size_t m = 6 + seed % 5;
    const Schedule schedule =
        random_schedule(seed, m, 10 + seed % 8, seed % 2 == 0 ? 1 : 2, dag, platform, 0.03,
                        0.25);
    if (seed % 7 == 0) platform.set_failure_prob(0, 0.0);
    const std::string where = "seed " + std::to_string(seed);

    const ReliabilityEstimate exact = check(schedule, ReliabilityOptions{}, where + " exact");
    EXPECT_TRUE(exact.exact) << where;
    if (!exact.worst_failure.empty()) ++killed_exact;

    ReliabilityOptions mc;
    mc.max_sets = 0;  // force the Monte-Carlo path
    mc.mc_samples = 300;
    mc.seed = 0x5eed + seed;
    const ReliabilityEstimate sampled = check(schedule, mc, where + " mc");
    EXPECT_FALSE(sampled.exact) << where;
    if (!sampled.worst_failure.empty()) ++killed_mc;
  }
  // Most seeds must kill some sets, or the killing-set fields go unchecked.
  EXPECT_GT(killed_exact, 60u);
  EXPECT_GT(killed_mc, 60u);

  Dag dag;
  dag.add_task("a", 1.0);
  dag.add_task("b", 1.0);
  dag.add_edge(0, 1, 1.0);
  Platform platform = Platform::uniform(66, 1.0, 0.5);
  for (ProcId u = 0; u < 66; ++u) platform.set_failure_prob(u, 0.01);
  const Schedule wide = wide_schedule(dag, platform, /*crossed=*/true);
  ReliabilityOptions exact;
  exact.tail_tolerance = 1e-2;  // loose enough to fit the set budget at m = 66
  const ReliabilityEstimate wide_exact = check(wide, exact, "wide exact");
  EXPECT_TRUE(wide_exact.exact);
  EXPECT_EQ(wide_exact.worst_failure, std::vector<ProcId>{0});
  ReliabilityOptions mc;
  mc.max_sets = 0;
  mc.mc_samples = 200;
  const ReliabilityEstimate wide_mc = check(wide, mc, "wide mc");
  EXPECT_FALSE(wide_mc.exact);
  EXPECT_FALSE(wide_mc.worst_failure.empty());
}

TEST(Survival, RepairToReliabilityParityAcrossKernels) {
  for (std::uint64_t seed : {4u, 9u}) {
    Dag dag;
    Platform platform;
    const Schedule proto = random_schedule(seed, 6, 14, 1, dag, platform);
    Schedule lib = proto;
    ReliabilityEstimate achieved_lib;
    const RepairStats a = repair_to_reliability(lib, 0.995, {}, &achieved_lib);
    for (const reference::Predicate predicate :
         {reference::Predicate::kLegacy, reference::Predicate::kOracle}) {
      Schedule ref = proto;
      ReliabilityEstimate achieved_ref;
      const RepairStats b = reference::repair_to_reliability(ref, 0.995, {}, predicate,
                                                             &achieved_ref);
      EXPECT_EQ(a.success, b.success);
      EXPECT_EQ(a.added_comms, b.added_comms);
      EXPECT_EQ(a.rounds, b.rounds);
      EXPECT_EQ(achieved_lib.reliability, achieved_ref.reliability);
      EXPECT_EQ(lib.comms().size(), ref.comms().size());
    }
  }
}

// The incremental killing-set cache (exact-mode repair) must reproduce
// the reference loop's full per-round re-verification exactly on a schedule that is
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

  Schedule incremental = proto;  // library: cached rows, killed-only re-verify
  Schedule full = proto;         // reference: from-scratch enumeration per round
  ReliabilityEstimate achieved_inc;
  ReliabilityEstimate achieved_full;
  const RepairStats a = repair_to_reliability(incremental, 0.8, {}, &achieved_inc);
  const RepairStats b = reference::repair_to_reliability(
      full, 0.8, {}, reference::Predicate::kOracle, &achieved_full);
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

    Schedule incremental = *r.schedule;  // library: cached rows, open-row re-verify
    Schedule full = *r.schedule;         // reference: from-scratch enumeration per round
    ReliabilityEstimate achieved_inc;
    ReliabilityEstimate achieved_full;
    const RepairStats a = repair_to_reliability(incremental, 0.99, {}, &achieved_inc);
    const RepairStats b = reference::repair_to_reliability(
        full, 0.99, {}, reference::Predicate::kOracle, &achieved_full);
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
// multi-word oracle: checkers, batch queries, exact reliability and repair
// all work and match the reference.
TEST(Survival, MultiWordMasksAboveSixtyFourCopies) {
  const std::size_t m = 66;
  Dag dag;
  dag.add_task("a", 1.0);
  dag.add_task("b", 1.0);
  dag.add_edge(0, 1, 1.0);
  Platform platform = Platform::uniform(m, 1.0, 0.5);
  for (ProcId u = 0; u < m; ++u) platform.set_failure_prob(u, 0.01);
  Schedule s = wide_schedule(dag, platform);  // 65 replicas per task
  ASSERT_EQ(s.copies(), 65u);

  SurvivalOracle oracle(s);
  EXPECT_EQ(oracle.mask_words(), 2u);
  const FtCheckResult check = check_fault_tolerance(s, 1);
  EXPECT_TRUE(check.valid);
  EXPECT_EQ(check.sets_checked, m);
  Rng rng(3);
  EXPECT_TRUE(check_fault_tolerance_sampled(s, 2, 32, rng).valid);

  // Per-set vs single-lane batch vs the reference walk over sampled sets.
  Rng sample_rng(17);
  for (int trial = 0; trial < 60; ++trial) {
    const auto k = static_cast<std::uint32_t>(sample_rng.uniform_int(0, 4));
    const auto sample = sample_rng.sample_without_replacement(static_cast<std::uint32_t>(m), k);
    expect_parity(s, oracle, std::vector<ProcId>(sample.begin(), sample.end()));
  }

  // Exact reliability (truncation loose enough to fit the set budget at
  // m = 66) must be bit-identical to the reference.
  ReliabilityOptions exact_opts;
  exact_opts.tail_tolerance = 1e-2;
  const ReliabilityEstimate ea = schedule_reliability(s, exact_opts);
  ASSERT_TRUE(ea.exact) << "truncated enumeration must fit the default budget";
  expect_same_estimate(
      ea, reference::schedule_reliability(s, exact_opts, reference::Predicate::kLegacy),
      "wide exact");

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
  // Every parallel consumer (the sweep, the placement daemon) shares ONE
  // lazily-built process pool instead of spinning a transient pool per
  // call.
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
}

}  // namespace
}  // namespace streamsched
