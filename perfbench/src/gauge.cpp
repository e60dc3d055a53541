#include "gauge.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "stats.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSortItems = 100000;
constexpr std::size_t kHashInserts = 50000;
constexpr std::size_t kTreeInserts = 20000;

}  // namespace

double time_scale(const std::vector<double>& kernel_ms) {
  if (kernel_ms.empty()) return 1.0;
  return kReferenceMs / quantile(kernel_ms, 0.5);
}

SpeedGauge::SpeedGauge() : input_(kSortItems) {
  // A fixed input (splitmix64 from a constant), the same on every run.
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t& v : input_) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    v = static_cast<std::uint32_t>(z ^ (z >> 31));
  }
}

void SpeedGauge::sample() {
  const Clock::time_point t0 = Clock::now();
  std::vector<std::uint32_t> sorted = input_;
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<std::uint32_t, std::uint32_t> hash;
  for (std::size_t i = 0; i < kHashInserts; ++i) hash[input_[i]] = static_cast<std::uint32_t>(i);
  std::map<std::uint32_t, std::uint32_t> tree;
  for (std::size_t i = 0; i < kTreeInserts; ++i) tree[input_[i]] = static_cast<std::uint32_t>(i);
  sink_ += sorted[kSortItems / 2] + hash.size() + tree.begin()->second;
  last_ = Clock::now();
  ms_.push_back(us_between(t0, last_) / 1e3);
}

void SpeedGauge::sample_every(double every_s) {
  if (ms_.empty() || seconds_since(last_) >= every_s) sample();
}

BackgroundGauge::BackgroundGauge(double every_s) {
  thread_ = std::thread([this, every_s] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      gauge_.sample();
      lock.lock();
      cv_.wait_for(lock, std::chrono::duration<double>(every_s), [this] { return stop_; });
    }
  });
}

BackgroundGauge::~BackgroundGauge() { (void)stop(); }

double BackgroundGauge::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  return gauge_.scale();
}

}  // namespace perfbench
