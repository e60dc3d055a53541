#include "reference/reliability.hpp"

#include <algorithm>
#include <cmath>

#include "schedule/survival.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace streamsched::reference {

std::vector<std::vector<bool>> computable_replicas(const Schedule& schedule,
                                                   const std::vector<bool>& failed) {
  const Dag& dag = schedule.dag();
  SS_REQUIRE(failed.size() == schedule.platform().num_procs(),
             "failure vector must have one entry per processor");
  std::vector<std::vector<bool>> computable(
      dag.num_tasks(), std::vector<bool>(schedule.copies(), false));
  for (TaskId t : dag.topological_order()) {
    const auto preds = dag.predecessors(t);
    for (CopyId c = 0; c < schedule.copies(); ++c) {
      const ReplicaRef r{t, c};
      if (!schedule.is_placed(r)) continue;
      if (failed[schedule.placed(r).proc]) continue;
      bool ok = true;
      for (TaskId pred : preds) {
        bool fed = false;
        for (std::uint32_t idx : schedule.in_comms(r)) {
          const CommRecord& comm = schedule.comms()[idx];
          if (comm.src.task != pred) continue;
          if (computable[pred][comm.src.copy]) {
            fed = true;
            break;
          }
        }
        if (!fed) {
          ok = false;
          break;
        }
      }
      computable[t][c] = ok;
    }
  }
  return computable;
}

bool survives_failures(const Schedule& schedule, const std::vector<bool>& failed) {
  const auto computable = computable_replicas(schedule, failed);
  for (TaskId t = 0; t < schedule.dag().num_tasks(); ++t) {
    if (std::none_of(computable[t].begin(), computable[t].end(), [](bool b) { return b; })) {
      return false;
    }
  }
  return true;
}

namespace {

constexpr std::size_t kMaxKillingSets = 64;  // killing sets one estimate records

void record_kill(std::vector<std::vector<ProcId>>* kills, ReliabilityEstimate& est,
                 const std::vector<ProcId>& set, double prob) {
  if (prob > est.worst_failure_prob) {
    est.worst_failure_prob = prob;
    est.worst_failure = set;
  }
  if (kills == nullptr || kills->size() >= kMaxKillingSets) return;
  if (std::find(kills->begin(), kills->end(), set) == kills->end()) kills->push_back(set);
}

// `oracle` must be compiled from the schedule's current channels.
ReliabilityEstimate estimate(const Schedule& schedule, const SurvivalOracle& oracle,
                             const ReliabilityOptions& options, Predicate predicate,
                             std::vector<std::vector<ProcId>>* kills) {
  const std::size_t m = schedule.platform().num_procs();
  std::vector<bool> mask;
  std::vector<std::uint64_t> scratch;
  const auto survives = [&](const ProcSet& failed, const std::vector<ProcId>& set) {
    if (predicate == Predicate::kOracle) return oracle.survives(failed, scratch);
    mask.assign(m, false);
    for (ProcId u : set) mask[u] = true;
    return survives_failures(schedule, mask);
  };
  std::vector<double> p(m);
  std::vector<double> odds(m);
  double base = 1.0;
  for (ProcId u = 0; u < m; ++u) {
    p[u] = schedule.platform().failure_prob(u);
    base *= 1.0 - p[u];
    odds[u] = p[u] / (1.0 - p[u]);
  }

  // Truncation point: the smallest size whose Poisson-binomial tail mass
  // (dist[j] = P(exactly j failures)) is within tolerance.
  std::vector<double> dist(m + 1, 0.0);
  dist[0] = 1.0;
  for (std::size_t u = 0; u < m; ++u) {
    for (std::size_t j = u + 1; j > 0; --j) dist[j] = dist[j] * (1.0 - p[u]) + dist[j - 1] * p[u];
    dist[0] *= 1.0 - p[u];
  }
  ReliabilityEstimate est;
  est.k_max = m;
  double cumulative = 0.0;
  for (std::size_t k = 0; k <= m; ++k) {
    cumulative += dist[k];
    if (1.0 - cumulative <= options.tail_tolerance) {
      est.k_max = k;
      break;
    }
  }
  double total_sets = 0.0;
  for (std::size_t k = 0; k <= est.k_max; ++k) {
    double c = 1.0;
    for (std::size_t i = 0; i < k; ++i) {
      c *= static_cast<double>(m - i) / static_cast<double>(i + 1);
    }
    total_sets += c;
  }

  ProcSet failed(m);
  if (total_sets <= static_cast<double>(options.max_sets)) {
    // Exact truncated enumeration, sizes ascending (mass mostly up front).
    double reliable_mass = 0.0;
    for (std::size_t k = 0; k <= est.k_max; ++k) {
      est.sets_checked += for_each_failure_set(
          m, static_cast<std::uint32_t>(k), failed,
          [&](const ProcSet& f, const std::vector<ProcId>& set) {
            double w = base;
            for (ProcId u : set) w *= odds[u];
            if (w <= 0.0) return true;  // contains a never-failing processor
            if (survives(f, set)) {
              reliable_mass += w;
            } else {
              record_kill(kills, est, set, w);
            }
            return true;
          });
    }
    est.reliability = reliable_mass;
    est.exact = true;
    return est;
  }

  // Importance-sampled Monte Carlo: propose failures with inflated
  // probabilities q_u so killing sets are actually drawn, reweight by the
  // true/proposal likelihood ratio.
  Rng rng(options.seed);
  std::vector<double> q(m);
  for (std::size_t u = 0; u < m; ++u) {
    q[u] = p[u] == 0.0 ? 0.0 : std::max(p[u], options.mc_proposal_floor);
  }
  std::vector<ProcId> set;
  double failure_mass = 0.0;
  for (std::uint64_t i = 0; i < options.mc_samples; ++i) {
    set.clear();
    double weight = 1.0;
    for (std::size_t u = 0; u < m; ++u) {
      if (rng.bernoulli(q[u])) {
        weight *= p[u] / q[u];
        set.push_back(static_cast<ProcId>(u));
      } else {
        weight *= (1.0 - p[u]) / (1.0 - q[u]);
      }
    }
    failed.assign(set);
    ++est.sets_checked;
    if (!survives(failed, set)) {
      failure_mass += weight;
      double prob = base;
      for (ProcId u : set) prob *= odds[u];
      record_kill(kills, est, set, prob);
    }
  }
  est.reliability =
      std::clamp(1.0 - failure_mass / static_cast<double>(options.mc_samples), 0.0, 1.0);
  est.exact = false;
  return est;
}

}  // namespace

ReliabilityEstimate schedule_reliability(const Schedule& schedule,
                                         const ReliabilityOptions& options, Predicate predicate) {
  const SurvivalOracle oracle(schedule);
  return estimate(schedule, oracle, options, predicate, nullptr);
}

RepairStats repair_to_reliability(Schedule& schedule, double target_reliability,
                                  const ReliabilityOptions& options, Predicate predicate,
                                  ReliabilityEstimate* achieved) {
  SurvivalOracle oracle(schedule);  // patched by repair_for_failure_set
  const auto max_rounds = static_cast<std::uint32_t>(
      schedule.copies() * schedule.copies() * schedule.dag().num_edges() + 16);
  std::uint64_t estimates = 0;
  const auto fresh_estimate = [&](std::vector<std::vector<ProcId>>* kills) {
    ReliabilityOptions o = options;
    o.seed = options.seed + 0x9e3779b97f4a7c15ULL * ++estimates;
    return estimate(schedule, oracle, o, predicate, kills);
  };

  RepairStats stats;
  ReliabilityEstimate est;
  bool current = false;
  ProcSet failed(schedule.platform().num_procs());
  for (stats.rounds = 0; stats.rounds < max_rounds; ++stats.rounds) {
    std::vector<std::vector<ProcId>> kills;
    est = fresh_estimate(&kills);
    current = true;
    if (est.reliability >= target_reliability) {
      stats.success = true;
      break;
    }
    const std::uint32_t before = stats.added_comms;
    for (const std::vector<ProcId>& kill : kills) {
      failed.assign(kill);
      const std::uint32_t added = repair_for_failure_set(schedule, oracle, failed).added_comms;
      if (added == 0) continue;
      stats.added_comms += added;
      current = false;
    }
    if (stats.added_comms == before) break;  // nothing repairable remains
  }

  if (stats.success && std::isfinite(schedule.period())) {
    for (ProcId u = 0; u < schedule.platform().num_procs(); ++u) {
      if (schedule.cin(u) > schedule.period() || schedule.cout(u) > schedule.period()) {
        stats.period_exceeded = true;
        break;
      }
    }
  }
  if (achieved != nullptr) *achieved = current ? est : fresh_estimate(nullptr);
  return stats;
}

}  // namespace streamsched::reference
