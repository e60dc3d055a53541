// Shared pieces of the benchmark workloads: options, the result record
// that main() prints, inputs drawn from the seed, the in-thread server and
// its snapshot hygiene.
#pragma once

#include <atomic>
#include <chrono>
#include <iterator>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "graph/dag.hpp"
#include "service/server.hpp"
#include "net/wire.hpp"
#include "platform/platform.hpp"
#include "schedule/fault_model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";  ///< sockets, snapshots and span dumps go here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `metrics` holds the metrics named in
/// BENCHMARK.json; `report` the workload's own metrics under the names the
/// README defines (printed for people, not parsed).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< error replies + failed checks on requests expected to succeed
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  std::vector<Metric> report;
  std::vector<std::pair<std::string, std::string>> notes;  ///< digests, rung tables, ...

  [[nodiscard]] bool correct() const { return problems.empty() && failed == 0; }
  void problem(std::string what) { problems.push_back(std::move(what)); }
  void put(std::string name, double value, std::string unit) {
    report.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
};

/// 16 lower-case hex digits, the wire spelling of fingerprints.
[[nodiscard]] std::string hex16(std::uint64_t v);

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Removes the snapshot base file, every rotated generation `<base>.g*`
/// and leftover temporaries, so no workload starts warm from an earlier
/// run in the same directory.
void remove_snapshot_generations(const std::string& base);

/// The benchmark's cluster: `procs` processors with heterogeneous failure
/// probabilities, the same on every run. The seed draws the traffic, not
/// the deployment: the cost of a `prob:` admission depends on the failure
/// probabilities (a 52-task `prob:R=0.99` admission took 67 ms on one
/// seeded cluster and 93 ms on another), so a cluster drawn per seed would
/// make one run's figures differ from the next by the cluster alone.
[[nodiscard]] streamsched::Platform make_cluster(std::size_t procs);

/// A random layered DAG of `tasks` tasks drawn from (seed, index).
[[nodiscard]] streamsched::Dag make_dag(std::uint64_t seed, std::uint64_t index,
                                        std::size_t tasks);

/// Processors of the benchmark cluster.
inline constexpr std::size_t kProcs = 16;

// Workload inputs, shared by the untraced workloads and the traced replays.

/// hit_stream: 64 DAGs of 26, 52 and 104 tasks, admitted under count:eps=2.
inline constexpr std::size_t kHitDags = 64;
[[nodiscard]] std::string hit_line(std::uint64_t seed, std::size_t d,
                                   streamsched::net::QosClass qos, const std::string& tag);

/// cold_admit: one cycle of (tasks, fault model); prob:R=0.99 only at 52
/// tasks or fewer.
struct ColdMix {
  std::size_t tasks;
  const char* model;
};
inline constexpr ColdMix kColdMix[] = {
    {26, "count:eps=1"}, {26, "count:eps=2"}, {26, "prob:R=0.99"},  {52, "count:eps=1"},
    {52, "count:eps=2"}, {52, "prob:R=0.99"}, {104, "count:eps=1"}, {104, "count:eps=2"}};
inline constexpr std::size_t kColdCycle = std::size(kColdMix);
/// Position in kColdMix of request `i` of cold stream `stream`.
[[nodiscard]] inline std::size_t cold_mix_index(std::size_t stream, std::uint64_t i) {
  return (i + stream * kColdCycle / 2) % kColdCycle;
}
/// Request `i` of cold stream `stream`: a DAG no other request uses.
[[nodiscard]] streamsched::Dag cold_dag(std::uint64_t seed, std::size_t stream, std::uint64_t i);

/// churn_events: 128 DAGs of 26 tasks under count:eps=2 and count:eps=3,
/// and a churn model whose storms push the alive count low enough on 16
/// processors that event repairs, degraded rebuilds and re-heals all occur.
inline constexpr std::size_t kChurnDags = 128;
inline constexpr const char* kChurnModel = "churn:R=0.9,amp=12,period=8,recover=0.2";
inline constexpr std::uint64_t kChurnSteps = 24;
inline constexpr std::uint64_t kChurnQuietTail = 6;
[[nodiscard]] streamsched::Dag churn_dag(std::uint64_t seed, std::size_t d);
[[nodiscard]] streamsched::FaultModel churn_dag_model(std::size_t d);

/// paper_sweep: graphs per granularity point of each figure (10 points, so
/// 300 instances per figure). Instance costs are heavy-tailed, so the
/// run's figures need this many distinct DAGs to repeat from one seed to
/// the next.
inline constexpr std::size_t kSweepGraphsPerPoint = 30;

/// A SUBMIT line for `dag`.
[[nodiscard]] std::string submit_line(const streamsched::Dag& dag,
                                      const streamsched::FaultModel& model,
                                      streamsched::net::QosClass qos, const std::string& tag,
                                      bool degraded_ok = false);

/// Server configuration used by every socket workload: one worker per
/// lane, unix socket and snapshot base inside `workdir`.
[[nodiscard]] streamsched::net::ServerConfig server_config(const std::string& workdir,
                                                          const std::string& name,
                                                          std::size_t interactive_bound,
                                                          std::size_t batch_bound);

/// A Server running on its own thread; stopped and joined on destruction.
class ServerThread {
 public:
  ServerThread(streamsched::Platform platform, streamsched::net::ServerConfig config);
  ~ServerThread();
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  [[nodiscard]] streamsched::net::Server& server() { return server_; }
  [[nodiscard]] const std::string& socket_path() const { return socket_path_; }
  /// Shuts down (saving the snapshot when configured) and joins.
  void stop();

 private:
  std::string socket_path_;
  streamsched::net::Server server_;
  std::thread thread_;
};

/// Keeps every CPU from halting while it lives: one spinning thread per CPU
/// at SCHED_IDLE priority, which runs only when nothing else wants that
/// CPU. On a virtual machine a halted CPU can take milliseconds to wake,
/// and that delay would otherwise land on whichever request woke it; this
/// is the in-process equivalent of booting with idle=poll.
class KeepAwake {
 public:
  explicit KeepAwake(std::size_t threads);
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Per-workload entry points (workloads.cpp, traced.cpp).
Result run_hit_stream(const Options& opt);
Result run_cold_admit(const Options& opt);
Result run_churn_events(const Options& opt);
Result run_paper_sweep(const Options& opt);
/// The traced run: per-layer metrics from spans around layer API calls,
/// plus the tracing overhead on `opt.workload`.
Result run_traced(const Options& opt);
/// Runs `opt.workload` untraced.
Result run_workload(const Options& opt);

}  // namespace perfbench
