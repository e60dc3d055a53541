#include "core/stage_pack.hpp"

#include <algorithm>
#include <numeric>

#include "core/build_state.hpp"
#include "graph/levels.hpp"
#include "schedule/metrics.hpp"
#include "util/assert.hpp"

namespace streamsched {

namespace {

// Assignment of one task: which packing stage and which bin inside it.
struct Slot {
  std::uint32_t stage = 0;
  std::uint32_t bin = 0;
  bool assigned = false;
};

}  // namespace

ScheduleResult stage_pack_schedule(const Dag& dag, const Platform& platform,
                                   const SchedulerOptions& raw_options) {
  SS_REQUIRE(dag.num_tasks() > 0, "cannot schedule an empty graph");
  const SchedulerOptions options = raw_options.resolved(platform, dag.num_tasks());
  SS_REQUIRE(options.eps < platform.num_procs(),
             "eps must be smaller than the processor count");

  const CopyId copies = options.eps + 1;
  const std::size_t m = platform.num_procs();
  SS_REQUIRE(m >= copies, "lane replication needs at least eps+1 processors");

  // Disjoint lanes: lane g owns processors {g, g + copies, g + 2*copies, ...}.
  std::vector<std::vector<ProcId>> lanes(copies);
  for (ProcId u = 0; u < m; ++u) lanes[u % copies].push_back(u);
  std::size_t bins = lanes[0].size();
  for (const auto& lane : lanes) bins = std::min(bins, lane.size());

  BuildState state(dag, platform, options.eps, options.period);

  // Deterministic topological traversal (Kahn order, smallest id first).
  const std::vector<TaskId> order = dag.topological_order();

  std::vector<Slot> slots(dag.num_tasks());
  std::uint32_t current_stage = 0;

  // Tries to place every copy of `t` into `bin` of the current stage;
  // commits on success.
  auto try_bin = [&](TaskId t, std::uint32_t bin) -> bool {
    const auto preds = dag.predecessors(t);
    std::vector<BuildState::Candidate> cands(copies);
    for (CopyId g = 0; g < copies; ++g) {
      const ProcId u = lanes[g][bin];
      std::vector<std::vector<ReplicaRef>> suppliers(preds.size());
      for (std::size_t i = 0; i < preds.size(); ++i) suppliers[i] = {{preds[i], g}};
      BuildState::Candidate cand = state.evaluate(t, u, suppliers);
      if (!cand.valid) return false;
      cands[g] = std::move(cand);
    }
    for (CopyId g = 0; g < copies; ++g) state.commit(t, g, cands[g]);
    slots[t] = Slot{current_stage, bin, true};
    return true;
  };

  for (TaskId t : order) {
    const auto preds = dag.predecessors(t);

    for (int attempt = 0; attempt < 2; ++attempt) {
      // Bins that host a predecessor assigned to the *current* stage: a
      // same-stage dependence must stay on one processor chain.
      std::vector<std::uint32_t> forced;
      bool has_current_stage_pred = false;
      for (TaskId p : preds) {
        SS_CHECK(slots[p].assigned, "predecessor not packed yet");
        if (slots[p].stage == current_stage) {
          has_current_stage_pred = true;
          forced.push_back(slots[p].bin);
        }
      }

      bool placed = false;
      if (has_current_stage_pred) {
        std::sort(forced.begin(), forced.end());
        forced.erase(std::unique(forced.begin(), forced.end()), forced.end());
        for (std::uint32_t bin : forced) {
          if (try_bin(t, bin)) {
            placed = true;
            break;
          }
        }
      } else {
        // First fit by current lane-0 load (lightest bin first).
        std::vector<std::uint32_t> bin_order(bins);
        std::iota(bin_order.begin(), bin_order.end(), 0u);
        std::stable_sort(bin_order.begin(), bin_order.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                           return state.schedule().sigma(lanes[0][a]) <
                                  state.schedule().sigma(lanes[0][b]);
                         });
        for (std::uint32_t bin : bin_order) {
          if (try_bin(t, bin)) {
            placed = true;
            break;
          }
        }
      }

      if (placed) break;
      if (attempt == 1) {
        return ScheduleResult::failure("stage-pack: task '" + dag.name(t) +
                                       "' does not fit within period " +
                                       std::to_string(options.period));
      }
      ++current_stage;  // close the stage and retry once
    }
  }

  Schedule schedule = std::move(state).take();
  recompute_stages(schedule);

  ScheduleResult result;
  if (options.repair) {
    result.repair = repair_for_model(schedule, options.model());
  }
  result.schedule.emplace(std::move(schedule));
  return result;
}

ParamSpace stage_pack_param_space() { return scheduler_base_params(); }

}  // namespace streamsched
