#include "core/build_state.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace streamsched {

BuildState::BuildState(const Dag& dag, const Platform& platform, CopyId eps, double period)
    : dag_(&dag),
      platform_(&platform),
      schedule_(dag, platform, eps, period),
      proc_free_(platform.num_procs(), 0.0),
      send_free_(platform.num_procs(), 0.0),
      recv_free_(platform.num_procs(), 0.0) {}

double BuildState::arrival_estimate(ReplicaRef src, EdgeId edge, ProcId dst) const {
  const PlacedReplica& p = schedule_.placed(src);
  return p.finish + platform_->comm_time(dag_->edge(edge).volume, p.proc, dst);
}

BuildState::Candidate BuildState::evaluate(
    TaskId task, ProcId u, const std::vector<std::vector<ReplicaRef>>& suppliers) const {
  const auto in = dag_->in_edges(task);
  SS_REQUIRE(suppliers.size() == in.size(),
             "need one supplier set per predecessor, in predecessor order");

  Candidate cand;
  cand.proc = u;

  const double period = schedule_.period();
  const double exec = platform_->exec_time(dag_->work(task), u);

  // Compute-load part of condition (1).
  bool loads_ok = schedule_.sigma(u) + exec <= period;

  // Reserve ports in increasing source-finish order (FCFS by data-ready
  // time), deterministic tie-break by replica identity. Each supplier's
  // placement is looked up once, into its sort key.
  order_.clear();
  for (std::size_t i = 0; i < in.size(); ++i) {
    SS_REQUIRE(!suppliers[i].empty(), "empty supplier set for a predecessor");
    const TaskId pred = dag_->edge(in[i]).src;
    for (ReplicaRef src : suppliers[i]) {
      SS_REQUIRE(src.task == pred, "supplier does not belong to the right predecessor");
      const PlacedReplica& sp = schedule_.placed(src);
      order_.push_back(SupplierKey{sp.finish, src, static_cast<std::uint32_t>(i), sp.proc,
                                   sp.stage});
    }
  }
  std::sort(order_.begin(), order_.end(), [](const SupplierKey& a, const SupplierKey& b) {
    if (a.finish != b.finish) return a.finish < b.finish;
    return a.src < b.src;
  });

  // Plan every supplier communication under greedy FCFS port reservation
  // on scratch copies of the cursors (commit re-runs this plan), folding
  // in each predecessor's earliest arrival (ANY-of) and the paper's stage
  // rule: max over communicating suppliers of stage + η.
  double recv_cursor = recv_free_[u];
  send_cursor_.assign(send_free_.begin(), send_free_.end());
  double added_cin = 0.0;
  added_cout_.assign(send_free_.size(), 0.0);
  earliest_.assign(in.size(), std::numeric_limits<double>::infinity());
  cand.stage = 1;
  cand.suppliers.reserve(order_.size());
  for (const SupplierKey& key : order_) {
    SupplierUse use;
    use.src = key.src;
    use.edge = in[key.pred_index];
    if (key.proc == u) {
      use.remote = false;
      use.comm_start = key.finish;
      use.arrival = key.finish;
    } else {
      const double duration = platform_->comm_time(dag_->edge(use.edge).volume, key.proc, u);
      const double start = std::max({key.finish, send_cursor_[key.proc], recv_cursor});
      use.remote = true;
      use.comm_start = start;
      use.arrival = start + duration;
      send_cursor_[key.proc] = use.arrival;
      recv_cursor = use.arrival;
      added_cin += duration;
      added_cout_[key.proc] += duration;
    }
    earliest_[key.pred_index] = std::min(earliest_[key.pred_index], use.arrival);
    cand.stage = std::max(cand.stage, key.stage + (use.remote ? 1u : 0u));
    cand.suppliers.push_back(use);
  }

  // Port-load parts of condition (1).
  if (schedule_.cin(u) + added_cin > period) loads_ok = false;
  for (ProcId h = 0; h < added_cout_.size(); ++h) {
    if (added_cout_[h] > 0.0 && schedule_.cout(h) + added_cout_[h] > period) loads_ok = false;
  }

  // Readiness: the latest of the per-predecessor earliest arrivals.
  double ready = 0.0;
  for (double earliest : earliest_) ready = std::max(ready, earliest);

  cand.start = std::max(ready, proc_free_[u]);
  cand.finish = cand.start + exec;
  cand.valid = loads_ok;
  return cand;
}

void BuildState::commit(TaskId task, CopyId copy, const Candidate& candidate) {
  SS_REQUIRE(candidate.proc != kInvalidProc, "cannot commit an empty candidate");
  const ProcId u = candidate.proc;
  schedule_.place(ReplicaRef{task, copy}, u, candidate.start, candidate.finish,
                  candidate.stage);
  proc_free_[u] = std::max(proc_free_[u], candidate.finish);
  for (const SupplierUse& use : candidate.suppliers) {
    CommRecord comm;
    comm.edge = use.edge;
    comm.src = use.src;
    comm.dst = ReplicaRef{task, copy};
    comm.start = use.comm_start;
    comm.finish = use.arrival;
    schedule_.add_comm(comm);
    if (use.remote) {
      const ProcId from = schedule_.placed(use.src).proc;
      send_free_[from] = std::max(send_free_[from], use.arrival);
      recv_free_[u] = std::max(recv_free_[u], use.arrival);
    }
  }
}

bool BuildState::hosts_copy_of(TaskId task, ProcId u) const {
  for (CopyId c = 0; c < schedule_.copies(); ++c) {
    const ReplicaRef r{task, c};
    if (schedule_.is_placed(r) && schedule_.placed(r).proc == u) return true;
  }
  return false;
}

}  // namespace streamsched
