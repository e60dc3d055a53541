// Reference implementations the library's survival code is measured and
// checked against. Nothing under src/ links this target: only the tests
// and the benches do.
//
// - `computable_replicas` / `survives_failures`: the original comm-record
//   walk. Per failure set it allocates a vector<vector<bool>> and re-walks
//   every CommRecord; `SurvivalOracle` must agree with it boolean for
//   boolean.
// - `schedule_reliability`: the plain serial estimator. Exact mode loops
//   over `for_each_failure_set` and tests one set at a time; Monte-Carlo
//   mode draws one sample at a time from the seed's stream and tests it on
//   the spot. The per-set test is the `Predicate`: the comm-record walk
//   above (kLegacy) or `SurvivalOracle::survives` (kOracle). The library
//   estimator must reproduce its result bit for bit.
// - `repair_to_reliability`: the repair loop without the library's
//   incremental bookkeeping. Every round re-estimates from scratch, then
//   runs `repair_for_failure_set` on each recorded killing set.
#pragma once

#include <vector>

#include "schedule/fault_tolerance.hpp"
#include "schedule/schedule.hpp"

namespace streamsched::reference {

/// Computability of every replica under the given failure set
/// (failed[u] == true means processor u is down), indexed [task][copy].
[[nodiscard]] std::vector<std::vector<bool>> computable_replicas(const Schedule& schedule,
                                                                 const std::vector<bool>& failed);

/// True when every task keeps at least one computable replica under F.
[[nodiscard]] bool survives_failures(const Schedule& schedule, const std::vector<bool>& failed);

/// The per-set survival test of the reference estimator.
enum class Predicate {
  kLegacy,  // survives_failures: the comm-record walk
  kOracle,  // SurvivalOracle::survives: the compiled per-set pass
};

/// The serial estimator: same options, same result fields, one failure
/// set at a time.
[[nodiscard]] ReliabilityEstimate schedule_reliability(const Schedule& schedule,
                                                       const ReliabilityOptions& options,
                                                       Predicate predicate);

/// Probabilistic repair that re-estimates from scratch every round (with
/// the library's fresh Monte-Carlo seed per estimate) and repairs each
/// recorded killing set with `repair_for_failure_set`.
RepairStats repair_to_reliability(Schedule& schedule, double target_reliability,
                                  const ReliabilityOptions& options, Predicate predicate,
                                  ReliabilityEstimate* achieved = nullptr);

}  // namespace streamsched::reference
