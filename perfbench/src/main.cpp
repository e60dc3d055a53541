// perfbench: the repository benchmark.
//
//   perfbench --workload <hit_stream|cold_admit|churn_events|paper_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Prints the run metadata, the workload's metrics by name with units and
// its notes, then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set of
// the traced run (--trace 1). Exits 1 when a correctness check failed.

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/log.hpp"

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  std::ostringstream s;
  s << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return s.str();
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <hit_stream|cold_admit|churn_events|paper_sweep>"
               " --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value != "0";
      } else if (flag == "--workdir") {
        opt.workdir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (opt.seconds <= 0.0) return usage("--seconds must be positive");
  streamsched::set_log_level(streamsched::LogLevel::kWarn);

  std::cout << "meta build_type=" << PERFBENCH_BUILD_TYPE << " compiler=" << PERFBENCH_COMPILER
            << " nproc=" << std::thread::hardware_concurrency() << " workload=" << opt.workload
            << " seed=" << opt.seed << " seconds=" << opt.seconds << " trace=" << opt.trace
            << '\n';

  Result result;
  try {
    // Latency-bound socket workloads run with every CPU kept awake; the
    // CPU-bound ones without, so idle spinners do not compete with them
    // for the host's time slices.
    const bool latency_bound =
        opt.trace || opt.workload == "hit_stream" || opt.workload == "churn_events";
    const KeepAwake awake(latency_bound ? std::thread::hardware_concurrency() : 0);
    result = opt.trace ? run_traced(opt) : run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what() << '\n';
    return 1;
  }

  for (const Metric& m : result.report) {
    std::cout << "metric " << m.name << " " << number(m.value) << " " << m.unit << '\n';
  }
  for (const auto& [key, value] : result.notes) std::cout << "note " << key << " " << value << '\n';
  for (const std::string& p : result.problems) std::cout << "problem " << p << '\n';

  std::ostringstream json;
  json << "{\"correct\": " << (result.correct() ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(result.attempted, 1)
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    json << (i ? ", " : "") << '"' << json_escape(m.name) << "\": {\"value\": " << number(m.value)
         << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return result.correct() ? 0 : 1;
}
