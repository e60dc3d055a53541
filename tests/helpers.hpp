// Shared helpers for the streamsched test suite: hand-built schedules,
// convenience wiring for small graphs, and snapshot-file cleanup.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "graph/dag.hpp"
#include "platform/platform.hpp"
#include "schedule/schedule.hpp"

namespace streamsched::test {

/// Places a replica computing its timeline from explicit start time.
inline void place_at(Schedule& s, ReplicaRef r, ProcId proc, double start,
                     std::uint32_t stage = 1) {
  const double exec = s.platform().exec_time(s.dag().work(r.task), proc);
  s.place(r, proc, start, start + exec, stage);
}

/// Adds a supply comm with a consistent timeline: starts when the source
/// finishes (plus optional extra delay), lasts volume * delay.
inline std::uint32_t wire(Schedule& s, TaskId src_task, CopyId src_copy, TaskId dst_task,
                          CopyId dst_copy, double start_offset = 0.0) {
  const EdgeId e = s.dag().find_edge(src_task, dst_task);
  CommRecord comm;
  comm.edge = e;
  comm.src = ReplicaRef{src_task, src_copy};
  comm.dst = ReplicaRef{dst_task, dst_copy};
  const auto& sp = s.placed(comm.src);
  const auto& dp = s.placed(comm.dst);
  comm.start = sp.finish + start_offset;
  comm.finish = comm.start + s.platform().comm_time(s.dag().edge(e).volume, sp.proc, dp.proc);
  return s.add_comm(comm);
}

/// Removes every generation (and stale tmp) of a snapshot base path, on
/// construction and destruction, so tests that save through a server
/// leave no `<base>.g<n>` files behind.
struct GenerationGuard {
  std::string base;
  explicit GenerationGuard(std::string b) : base(std::move(b)) { clean(); }
  ~GenerationGuard() { clean(); }
  void clean() const {
    std::remove(base.c_str());
    std::remove((base + ".tmp").c_str());
    for (std::uint64_t seq = 0; seq <= 16; ++seq) {
      std::remove((base + ".g" + std::to_string(seq)).c_str());
      std::remove((base + ".g" + std::to_string(seq) + ".tmp").c_str());
    }
  }
};

}  // namespace streamsched::test
