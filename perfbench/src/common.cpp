#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "graph/generators.hpp"
#include "platform/generators.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace streamsched;

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void remove_snapshot_generations(const std::string& base) {
  namespace fs = std::filesystem;
  const fs::path base_path(base);
  const fs::path dir = base_path.has_parent_path() ? base_path.parent_path() : fs::path(".");
  const std::string stem = base_path.filename().string();
  std::error_code ec;
  if (!fs::exists(dir, ec)) return;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const bool generation = name.rfind(stem + ".g", 0) == 0;
    const bool temporary = name.rfind(stem, 0) == 0 && name.size() > 4 &&
                           name.compare(name.size() - 4, 4, ".tmp") == 0;
    if (name == stem || generation || temporary) fs::remove(entry.path(), ec);
  }
}

Platform make_cluster(std::size_t procs) {
  Rng rng(0x5eedc105e5ULL);
  return make_reliability_heterogeneous(rng, procs, 0.02, 0.08);
}

Dag make_dag(std::uint64_t seed, std::uint64_t index, std::size_t tasks) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + index + 1);
  return make_random_layered(rng, tasks, std::max<std::size_t>(4, tasks / 13), 0.4,
                             WeightRanges{});
}

std::string hit_line(std::uint64_t seed, std::size_t d, net::QosClass qos,
                     const std::string& tag) {
  constexpr std::size_t kSizes[] = {26, 52, 104};
  return submit_line(make_dag(seed, d, kSizes[d % 3]), FaultModel::count(2), qos, tag);
}

Dag cold_dag(std::uint64_t seed, std::size_t stream, std::uint64_t i) {
  return make_dag(seed, (stream + 1) * 1000000 + i, kColdMix[cold_mix_index(stream, i)].tasks);
}

Dag churn_dag(std::uint64_t seed, std::size_t d) { return make_dag(seed, 5000000 + d, 26); }

FaultModel churn_dag_model(std::size_t d) { return FaultModel::count(d % 2 == 0 ? 2 : 3); }

std::string submit_line(const Dag& dag, const FaultModel& model, net::QosClass qos,
                        const std::string& tag, bool degraded_ok) {
  net::SubmitFrame frame;
  frame.qos = qos;
  frame.tag = tag;
  frame.model = model;
  frame.degraded_ok = degraded_ok;
  frame.dag = dag;
  return net::format_submit(frame);
}

net::ServerConfig server_config(const std::string& workdir, const std::string& name,
                                std::size_t interactive_bound, std::size_t batch_bound) {
  net::ServerConfig config;
  config.unix_path = workdir + "/" + name + ".sock";
  config.snapshot_path = workdir + "/" + name + ".snapshot";
  auto& interactive = config.lanes[static_cast<std::size_t>(net::QosClass::kInteractive)];
  auto& batch = config.lanes[static_cast<std::size_t>(net::QosClass::kBatch)];
  interactive.workers = 1;
  interactive.bound = interactive_bound;
  batch.workers = 1;
  batch.bound = batch_bound;
  return config;
}

KeepAwake::KeepAwake(std::size_t threads) {
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
      // pause: yields the core's shared resources to a sibling hardware
      // thread, which the host may be running another vCPU on.
      while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
    });
  }
}

KeepAwake::~KeepAwake() {
  stop_ = true;
  for (std::thread& t : threads_) t.join();
}

ServerThread::ServerThread(Platform platform, net::ServerConfig config)
    : socket_path_(config.unix_path), server_(std::move(platform), std::move(config)) {
  thread_ = std::thread([this] { server_.run(); });
}

ServerThread::~ServerThread() { stop(); }

void ServerThread::stop() {
  server_.shutdown();
  if (thread_.joinable()) thread_.join();
}

}  // namespace perfbench
