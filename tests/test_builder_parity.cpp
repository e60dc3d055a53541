// Parity suite for the list-scheduler builders (core/build_state.hpp and
// its callers). The digests below fold, over 240 seeded instances, every
// escalation rung each scheduler variant tried: the rung's factor, its
// failure text or the built schedule's `schedule_fingerprint`, and the
// repair statistics. They were computed once and pinned, so any change to
// candidate evaluation, supplier choice or the tie-breaks that moves a
// single replica, comm or failure message shows up as a digest mismatch.
//
// Coverage: ltf, rltf, heft, stage_pack and fault_free; ε = 0..3 and
// prob:R=0.99; the one_to_one=off, rule1=off and chunk=4 variants; repair
// on and off; tight calibrated periods, so some rungs fail and escalate.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/variant.hpp"
#include "exp/sweep.hpp"
#include "exp/workload.hpp"
#include "schedule/fault_model.hpp"
#include "util/rng.hpp"

namespace streamsched {
namespace {

constexpr std::uint64_t kSeeds = 240;

struct PinnedDigest {
  const char* spec;
  const char* digest;  ///< hex of the folded Fnv64
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Instance and fault model of one seed: 8–40 tasks on 10 processors with
// failure probabilities, ε = seed % 4 except every fifth seed, which asks
// for prob:R=0.99; repair alternates in blocks of five seeds and the
// calibrated headroom cycles 0.6/0.9/1.2 so the first rungs often fail.
struct SeedCase {
  Instance inst;
  FaultModel model = FaultModel::count(0);
  bool repair = false;
};

SeedCase make_case(std::uint64_t seed) {
  WorkloadParams params;
  params.v_min = 8;
  params.v_max = 40;
  params.num_procs = 10;
  params.fail_prob_lo = 0.005;
  params.fail_prob_hi = 0.03;
  params.headroom = 0.6 + 0.3 * static_cast<double>(seed % 3);
  const bool prob = seed % 5 == 4;
  const auto eps = static_cast<CopyId>(prob ? 1 : seed % 4);
  static const double kGranularity[] = {0.5, 1.0, 2.0};
  Rng rng(seed * 7919 + 17);
  SeedCase out{make_instance(params, kGranularity[seed % 3], eps, rng)};
  out.model = prob ? FaultModel::probabilistic(0.99) : FaultModel::count(eps);
  out.repair = (seed / 5) % 2 == 1;
  return out;
}

void fold_result(Fnv64& h, double factor, const ScheduleResult& result) {
  h.f64(factor).u64(result.ok() ? 1 : 0);
  if (!result.ok()) {
    h.str(result.error);
    return;
  }
  h.u64(schedule_fingerprint(*result.schedule));
  const RepairStats& r = result.repair;
  h.u64(r.success).u64(r.added_comms).u64(r.rounds).u64(r.period_exceeded).f64(r.reliability);
}

std::uint64_t variant_digest(const std::string& spec) {
  const AlgoVariant variant = AlgoVariant::parse(spec);
  Fnv64 h;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const SeedCase c = make_case(seed);
    SchedulerOptions options;
    options.fault_model = c.model;
    options.repair = c.repair;
    h.u64(seed);
    // The escalation of schedule_with_period_escalation, with every rung's
    // outcome folded in (the function itself reports only the last one).
    for (double factor : period_escalation_ladder()) {
      options.period = c.inst.period * factor;
      const ScheduleResult result = variant.schedule(c.inst.dag, c.inst.platform, options);
      fold_result(h, factor, result);
      if (result.ok()) break;
    }
  }
  return h.value();
}

TEST(BuilderParity, ScheduleDigestsMatchPinnedValues) {
  const std::vector<PinnedDigest> pinned = {
      {"ltf", "b99ff45dd3969b6f"},
      {"rltf", "bc1d248cc43c587e"},
      {"heft", "05955c3d500bde82"},
      {"stage_pack", "c5b06a23b0818398"},
      {"fault_free", "a473576d39f42072"},
      {"ltf[one_to_one=off]", "1fc0714b96393189"},
      {"ltf[chunk=4]", "46942c5843d36d72"},
      {"rltf[one_to_one=off]", "ed9718d445abb436"},
      {"rltf[rule1=off]", "4b7797b93f314ae3"},
      {"rltf[chunk=4]", "8f186cdb079e1998"},
  };
  for (const PinnedDigest& p : pinned) {
    EXPECT_EQ(hex(variant_digest(p.spec)), p.digest) << p.spec;
  }
}

// The digests would be vacuous if every rung failed or every rung
// succeeded: the seeded cases must exercise escalation, failure texts,
// repairs and the probabilistic model.
TEST(BuilderParity, SeededCasesExerciseEscalationAndRepair) {
  const AlgoVariant ltf = AlgoVariant::parse("ltf");
  std::size_t escalated = 0, exhausted = 0, repaired = 0, prob_ok = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const SeedCase c = make_case(seed);
    SchedulerOptions options;
    options.fault_model = c.model;
    options.repair = c.repair;
    auto [result, factor] =
        schedule_with_period_escalation(ltf, c.inst.dag, c.inst.platform, c.inst.period,
                                        options);
    if (factor != 1.0) ++escalated;
    if (!result.ok()) {
      ++exhausted;
      continue;
    }
    if (result.repair.added_comms > 0) ++repaired;
    if (c.model.is_probabilistic()) ++prob_ok;
  }
  EXPECT_GE(escalated, 10u);
  EXPECT_GE(repaired, 10u);
  EXPECT_GE(prob_ok, 10u);
  EXPECT_GE(exhausted, 1u);  // every rung failed: the failure text is the result
  EXPECT_LT(exhausted, kSeeds / 2);
}

}  // namespace
}  // namespace streamsched
