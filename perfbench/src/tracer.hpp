// In-memory span recorder for the traced run. The benchmark opens a span
// around each call it makes into a layer's public API; spans of one
// request share a request id, and a span may name the span that caused it
// as its parent. Spans stay in memory and are written out once, when the
// run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t id = 0;      ///< 1-based; 0 = none
  std::uint32_t parent = 0;  ///< causing span, 0 for a root
  std::uint64_t request = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Duration of `span` minus the part of its interval that `children`
/// cover (overlapping children count once; parts outside the span are
/// ignored).
[[nodiscard]] std::int64_t self_time_ns(const Span& span, const std::vector<Span>& children);

class Tracer {
 public:
  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span and returns its id.
  std::uint32_t begin(std::string name, std::uint64_t request, std::uint32_t parent = 0);
  void end(std::uint32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const Span& span(std::uint32_t id) const { return spans_[id - 1]; }

  /// Durations in µs of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;
  /// Self times in µs of every closed span called `name`.
  [[nodiscard]] std::vector<double> self_times_us(const std::string& name) const;

  /// One line per span: id,parent,request,name,start_ns,end_ns.
  void write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span, recorded only when a tracer is given: the same code path
/// runs traced and untraced.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t request, std::uint32_t parent = 0)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, request, parent) : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
