#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t self_time_ns(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> parts;
  for (const Span& child : children) {
    const std::int64_t lo = std::max(child.start_ns, span.start_ns);
    const std::int64_t hi = std::min(child.end_ns, span.end_ns);
    if (lo < hi) parts.emplace_back(lo, hi);
  }
  std::sort(parts.begin(), parts.end());
  std::int64_t covered = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [lo, hi] : parts) {
    if (hi <= reach) continue;
    covered += hi - std::max(lo, reach);
    reach = hi;
  }
  return span.duration_ns() - covered;
}

std::uint32_t Tracer::begin(std::string name, std::uint64_t request, std::uint32_t parent) {
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id) { spans_[id - 1].end_ns = now_ns(); }

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= s.start_ns) out.push_back(s.duration_ns() / 1e3);
  }
  return out;
}

std::vector<double> Tracer::self_times_us(const std::string& name) const {
  std::vector<std::vector<Span>> children(spans_.size() + 1);
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= s.start_ns) {
      out.push_back(self_time_ns(s, children[s.id]) / 1e3);
    }
  }
  return out;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "id,parent,request,name,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    out << s.id << ',' << s.parent << ',' << s.request << ',' << s.name << ',' << s.start_ns
        << ',' << s.end_ns << '\n';
  }
}

}  // namespace perfbench
