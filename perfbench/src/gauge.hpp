// The host's speed, read from a fixed reference kernel (README.md, "Speed
// gauge").
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Time of one reference kernel, in ms, on the machine the benchmark was
/// tuned on when that machine was quiet. Scaled timings read close to raw
/// ones there.
inline constexpr double kReferenceMs = 18.0;

/// Multiplier that takes a time measured in a run to reference speed:
/// kReferenceMs over the median of the run's kernel times (1 when there
/// are none). Throughputs are divided by it.
[[nodiscard]] double time_scale(const std::vector<double>& kernel_ms);

/// A speed gauge for a shared virtual machine. The memory-bound speed of
/// such a host drifts by 10-30% over tens of seconds as other tenants come
/// and go, and a whole run can fall into a slow phase, which no statistic
/// inside the run removes. The gauge times a reference kernel — sorting
/// and node-based map inserts on a fixed input, code the library does not
/// share — in the pauses of a workload, and the run's timings are reported
/// at reference speed (time_scale). A change to the library leaves the
/// kernel alone, so it moves the scaled figures in full.
class SpeedGauge {
 public:
  SpeedGauge();

  /// Runs the kernel once and records its time.
  void sample();
  /// Samples when `every_s` or more passed since the last sample (or none
  /// was taken yet).
  void sample_every(double every_s);

  [[nodiscard]] const std::vector<double>& kernel_ms() const { return ms_; }
  [[nodiscard]] double scale() const { return time_scale(ms_); }

 private:
  std::vector<std::uint32_t> input_;
  std::vector<double> ms_;
  Clock::time_point last_{};
  std::uint64_t sink_ = 0;
};

/// Samples a SpeedGauge every `every_s` seconds on a thread of its own
/// while it lives, for workloads whose load runs on other threads.
class BackgroundGauge {
 public:
  explicit BackgroundGauge(double every_s);
  ~BackgroundGauge();
  BackgroundGauge(const BackgroundGauge&) = delete;
  BackgroundGauge& operator=(const BackgroundGauge&) = delete;

  /// Stops sampling (idempotent) and returns the scale of the samples.
  double stop();

 private:
  SpeedGauge gauge_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace perfbench
