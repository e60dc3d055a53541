#include "net/wire.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string_view>

#include "util/assert.hpp"

namespace streamsched::net {

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw WireError(WireCode::kBadRequest, message);
}

/// Splits on a single character; keeps empty items (the caller decides).
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

// Number tokens take a from_chars fast path when it consumes the whole
// token (and, for doubles, yields a finite value); every other token goes
// through the strtoull/strtod checks, so the accepted spellings (leading
// '+', whitespace, hex floats, inf/nan, underflow), the values and the
// error texts are those of the strto* parse.
std::uint64_t parse_u64(std::string_view token, std::string_view what) {
  if (token.empty()) bad("empty " + std::string(what));
  std::uint64_t fast = 0;
  const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), fast);
  if (ec == std::errc() && ptr == token.data() + token.size()) return fast;
  const std::string text(token);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size() || text[0] == '-') {
    bad("malformed " + std::string(what) + " '" + text + "'");
  }
  return static_cast<std::uint64_t>(v);
}

double parse_double(std::string_view token, std::string_view what) {
  if (token.empty()) bad("empty " + std::string(what));
  double fast = 0.0;
  const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), fast);
  if (ec == std::errc() && ptr == token.data() + token.size() && std::isfinite(fast)) {
    return fast;
  }
  const std::string text(token);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    bad("malformed " + std::string(what) + " '" + text + "'");
  }
  return v;
}

/// Calls `fn` on every `sep`-separated item of `s`, empty items included
/// (the caller decides), without copying them.
template <typename Fn>
void for_each_item(std::string_view s, char sep, Fn&& fn) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t at = s.find(sep, start);
    if (at == std::string_view::npos) {
      fn(s.substr(start));
      return;
    }
    fn(s.substr(start, at - start));
    start = at + 1;
  }
}

}  // namespace

std::string wire_double(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double parse_wire_double(const std::string& token) { return parse_double(token, "number"); }

const char* wire_code_name(WireCode code) {
  switch (code) {
    case WireCode::kOk: return "OK";
    case WireCode::kBadRequest: return "BAD_REQUEST";
    case WireCode::kBusy: return "BUSY";
    case WireCode::kInfeasible: return "INFEASIBLE";
    case WireCode::kDegraded: return "DEGRADED";
    case WireCode::kShuttingDown: return "SHUTTING_DOWN";
    case WireCode::kInternal: return "INTERNAL";
  }
  return "?";
}

WireCode parse_wire_code(const std::string& name) {
  for (WireCode code : {WireCode::kOk, WireCode::kBadRequest, WireCode::kBusy,
                        WireCode::kInfeasible, WireCode::kDegraded, WireCode::kShuttingDown,
                        WireCode::kInternal}) {
    if (name == wire_code_name(code)) return code;
  }
  bad("unknown wire code '" + name + "'");
}

// ----------------------------------------------------------------- DagWire --

std::string format_dag_wire(const Dag& dag) {
  std::string out = "n" + std::to_string(dag.num_tasks()) + ";w";
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    if (t > 0) out += ',';
    out += wire_double(dag.work(t));
  }
  out += ";e";
  for (EdgeId e = 0; e < dag.num_edges(); ++e) {
    const Dag::Edge& edge = dag.edge(e);
    if (e > 0) out += ',';
    out += std::to_string(edge.src) + "-" + std::to_string(edge.dst) + ":" +
           wire_double(edge.volume);
  }
  return out;
}

Dag parse_dag_wire(std::string_view wire) {
  std::string_view sections[3];
  std::size_t count = 0;
  for_each_item(wire, ';', [&](std::string_view section) {
    if (count < 3) sections[count] = section;
    ++count;
  });
  const std::string_view head = sections[0];
  const std::string_view works = sections[1];
  const std::string_view edges = sections[2];
  if (count != 3 || head.empty() || head[0] != 'n' || works.empty() || works[0] != 'w' ||
      edges.empty() || edges[0] != 'e') {
    bad("DagWire needs 'n<tasks>;w...;e...' sections, got '" + std::string(wire) + "'");
  }
  const std::uint64_t tasks = parse_u64(head.substr(1), "DagWire task count");

  std::vector<double> work_list;
  if (works.size() > 1) {
    for_each_item(works.substr(1), ',', [&](std::string_view item) {
      const double work = parse_double(item, "DagWire work");
      if (!(work >= 0.0)) {
        bad("DagWire work must be non-negative, got '" + std::string(item) + "'");
      }
      work_list.push_back(work);
    });
  }
  if (work_list.size() != tasks) {
    bad("DagWire lists " + std::to_string(work_list.size()) + " works for n" +
        std::to_string(tasks));
  }

  // Edges are collected until the first malformed one; the bulk build then
  // rejects the earliest invalid edge before it, so errors come in the
  // order an edge-by-edge build would raise them.
  std::vector<Dag::Edge> edge_list;
  std::optional<WireError> malformed;
  if (edges.size() > 1) {
    try {
      for_each_item(edges.substr(1), ',', [&](std::string_view item) {
        const std::size_t dash = item.find('-');
        const std::size_t colon =
            item.find(':', dash == std::string_view::npos ? 0 : dash + 1);
        if (dash == std::string_view::npos || colon == std::string_view::npos) {
          bad("DagWire edge needs '<src>-<dst>:<volume>', got '" + std::string(item) + "'");
        }
        const std::uint64_t src = parse_u64(item.substr(0, dash), "DagWire edge src");
        const std::uint64_t dst =
            parse_u64(item.substr(dash + 1, colon - dash - 1), "DagWire edge dst");
        if (src >= tasks || dst >= tasks) {
          bad("DagWire edge endpoint out of range: " + std::string(item));
        }
        const double volume = parse_double(item.substr(colon + 1), "DagWire edge volume");
        edge_list.push_back(
            Dag::Edge{static_cast<TaskId>(src), static_cast<TaskId>(dst), volume});
      });
    } catch (const WireError& e) {
      malformed = e;
    }
  }
  Dag dag;
  try {
    dag = Dag::from_edges(work_list, edge_list);
  } catch (const std::exception& e) {
    bad(std::string("DagWire edge rejected: ") + e.what());
  }
  if (malformed) throw *malformed;
  return dag;
}

// ------------------------------------------------------------ ScheduleWire --

std::string format_schedule_wire(const Schedule& schedule) {
  std::string out = "eps" + std::to_string(schedule.eps()) + ";p" +
                    wire_double(schedule.period()) + ";r";
  bool first = true;
  for (TaskId t = 0; t < schedule.dag().num_tasks(); ++t) {
    for (CopyId c = 0; c < schedule.copies(); ++c) {
      const ReplicaRef r{t, c};
      if (!schedule.is_placed(r)) continue;
      const PlacedReplica& p = schedule.placed(r);
      if (!first) out += ',';
      first = false;
      out += std::to_string(t) + ":" + std::to_string(c) + ":" + std::to_string(p.proc) +
             ":" + wire_double(p.start) + ":" + wire_double(p.finish) + ":" +
             std::to_string(p.stage);
    }
  }
  out += ";c";
  for (std::size_t i = 0; i < schedule.comms().size(); ++i) {
    const CommRecord& comm = schedule.comms()[i];
    if (i > 0) out += ',';
    out += std::to_string(comm.edge) + ":" + std::to_string(comm.src.task) + ":" +
           std::to_string(comm.src.copy) + ":" + std::to_string(comm.dst.task) + ":" +
           std::to_string(comm.dst.copy) + ":" + wire_double(comm.start) + ":" +
           wire_double(comm.finish) + ":" + (comm.repair ? "1" : "0");
  }
  return out;
}

Schedule parse_schedule_wire(const std::string& wire, const Dag& dag,
                             const Platform& platform) {
  const std::vector<std::string> sections = split(wire, ';');
  if (sections.size() != 4 || sections[0].rfind("eps", 0) != 0 || sections[1].empty() ||
      sections[1][0] != 'p' || sections[2].empty() || sections[2][0] != 'r' ||
      sections[3].empty() || sections[3][0] != 'c') {
    bad("ScheduleWire needs 'eps<e>;p<period>;r...;c...' sections");
  }
  const std::uint64_t eps = parse_u64(sections[0].substr(3), "ScheduleWire eps");
  const double period = parse_double(sections[1].substr(1), "ScheduleWire period");
  // Validate the header before constructing: the Schedule constructor
  // enforces the same bounds with SS_REQUIRE, but untrusted wire input
  // must surface as WireError, not as an assertion escape. The eps bound
  // also rejects values a CopyId cast would silently wrap.
  if (eps >= platform.num_procs()) {
    bad("ScheduleWire eps" + std::to_string(eps) + " needs more than " +
        std::to_string(platform.num_procs()) + " processors");
  }
  if (!(period > 0.0)) bad("ScheduleWire period must be positive");
  Schedule schedule(dag, platform, static_cast<CopyId>(eps), period);
  const std::string replicas = sections[2].substr(1);
  if (!replicas.empty()) {
    for (const std::string& item : split(replicas, ',')) {
      const std::vector<std::string> f = split(item, ':');
      if (f.size() != 6) bad("ScheduleWire replica needs 6 fields, got '" + item + "'");
      const std::uint64_t task = parse_u64(f[0], "replica task");
      const std::uint64_t copy = parse_u64(f[1], "replica copy");
      const std::uint64_t proc = parse_u64(f[2], "replica proc");
      if (task >= dag.num_tasks() || copy > eps || proc >= platform.num_procs()) {
        bad("ScheduleWire replica out of range: '" + item + "'");
      }
      try {
        schedule.place(ReplicaRef{static_cast<TaskId>(task), static_cast<CopyId>(copy)},
                       static_cast<ProcId>(proc), parse_double(f[3], "replica start"),
                       parse_double(f[4], "replica finish"),
                       static_cast<std::uint32_t>(parse_u64(f[5], "replica stage")));
      } catch (const std::exception& e) {
        // Duplicate replica, finish < start, zero stage, ...: the
        // schedule's own invariants, reported as a parse rejection.
        bad(std::string("ScheduleWire replica rejected: ") + e.what());
      }
    }
  }
  const std::string comms = sections[3].substr(1);
  if (!comms.empty()) {
    for (const std::string& item : split(comms, ',')) {
      const std::vector<std::string> f = split(item, ':');
      if (f.size() != 8) bad("ScheduleWire comm needs 8 fields, got '" + item + "'");
      CommRecord comm;
      const std::uint64_t edge = parse_u64(f[0], "comm edge");
      if (edge >= dag.num_edges()) bad("ScheduleWire comm edge out of range: '" + item + "'");
      comm.edge = static_cast<EdgeId>(edge);
      comm.src = ReplicaRef{static_cast<TaskId>(parse_u64(f[1], "comm src task")),
                            static_cast<CopyId>(parse_u64(f[2], "comm src copy"))};
      comm.dst = ReplicaRef{static_cast<TaskId>(parse_u64(f[3], "comm dst task")),
                            static_cast<CopyId>(parse_u64(f[4], "comm dst copy"))};
      comm.start = parse_double(f[5], "comm start");
      comm.finish = parse_double(f[6], "comm finish");
      if (f[7] != "0" && f[7] != "1") bad("ScheduleWire comm repair flag must be 0/1");
      comm.repair = f[7] == "1";
      try {
        schedule.add_comm(comm);
      } catch (const std::exception& e) {
        bad(std::string("ScheduleWire comm rejected: ") + e.what());
      }
    }
  }
  return schedule;
}

// ------------------------------------------------------------- QoS classes --

const char* qos_class_name(QosClass qos) {
  return qos == QosClass::kInteractive ? "interactive" : "batch";
}

QosClass parse_qos_class(const std::string& name) {
  if (name == "interactive") return QosClass::kInteractive;
  if (name == "batch") return QosClass::kBatch;
  bad("unknown QoS class '" + name + "' (expected interactive|batch)");
}

// ---------------------------------------------------------------- requests --

namespace {

/// key=value tokens after the verb; keys must be unique and known.
std::vector<std::pair<std::string, std::string>> parse_fields(
    const std::vector<std::string>& tokens, std::size_t first) {
  std::vector<std::pair<std::string, std::string>> fields;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    if (tokens[i].empty()) continue;  // tolerate doubled spaces
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0) bad("expected key=value, got '" + tokens[i] + "'");
    fields.emplace_back(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
  }
  return fields;
}

}  // namespace

Request parse_request(const std::string& line) {
  // Views into `line`: the verb, then its key=value fields in order. Empty
  // tokens (doubled spaces) are skipped, except that an empty verb or a
  // trailing empty token after a field-less verb is an error.
  std::vector<std::string_view> tokens;
  for_each_item(line, ' ', [&](std::string_view token) { tokens.push_back(token); });
  if (tokens[0].empty()) bad("empty request");
  Request request;
  const std::string_view verb = tokens[0];
  if (verb == "STATS" || verb == "HEALTH" || verb == "SHUTDOWN") {
    if (tokens.size() > 1) bad(std::string(verb) + " takes no fields");
    request.verb = verb == "STATS"    ? Verb::kStats
                   : verb == "HEALTH" ? Verb::kHealth
                                      : Verb::kShutdown;
    return request;
  }
  std::vector<std::pair<std::string_view, std::string_view>> fields;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    if (tokens[i].empty()) continue;  // tolerate doubled spaces
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string_view::npos || eq == 0) {
      bad("expected key=value, got '" + std::string(tokens[i]) + "'");
    }
    fields.emplace_back(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
  }
  if (verb == "SUBMIT") {
    request.verb = Verb::kSubmit;
    SubmitFrame& f = request.submit;
    bool have_dag = false;
    for (const auto& [key, value] : fields) {
      if (key == "qos") {
        f.qos = parse_qos_class(std::string(value));
      } else if (key == "tag") {
        f.tag = value;
      } else if (key == "algo") {
        try {
          (void)AlgoVariant::parse(std::string(value));  // validate against the registry
        } catch (const std::exception& e) {
          bad(std::string("bad algo: ") + e.what());
        }
        f.variant_spec = value;
      } else if (key == "model") {
        try {
          f.model = FaultModel::parse(std::string(value));
        } catch (const std::exception& e) {
          bad(std::string("bad model: ") + e.what());
        }
      } else if (key == "period") {
        f.period = parse_double(value, "period");
      } else if (key == "headroom") {
        f.headroom = parse_double(value, "headroom");
      } else if (key == "comm_share") {
        f.comm_share = parse_double(value, "comm_share");
      } else if (key == "degraded_ok") {
        if (value == "1") {
          f.degraded_ok = true;
        } else if (value == "0") {
          f.degraded_ok = false;
        } else {
          bad("degraded_ok must be 0|1, got '" + std::string(value) + "'");
        }
      } else if (key == "dag") {
        f.dag = parse_dag_wire(value);
        have_dag = true;
      } else {
        bad("unknown SUBMIT field '" + std::string(key) + "'");
      }
    }
    if (!have_dag) bad("SUBMIT needs a dag= field");
    return request;
  }
  if (verb == "EVENT") {
    request.verb = Verb::kEvent;
    EventFrame& f = request.event;
    bool have_kind = false;
    bool have_proc = false;
    for (const auto& [key, value] : fields) {
      if (key == "kind") {
        if (value == "fail") {
          f.failure = true;
        } else if (value == "recover") {
          f.failure = false;
        } else {
          bad("EVENT kind must be fail|recover, got '" + std::string(value) + "'");
        }
        have_kind = true;
      } else if (key == "proc") {
        f.proc = static_cast<ProcId>(parse_u64(value, "EVENT proc"));
        have_proc = true;
      } else if (key == "tag") {
        f.tag = value;
      } else {
        bad("unknown EVENT field '" + std::string(key) + "'");
      }
    }
    if (!have_kind || !have_proc) bad("EVENT needs kind= and proc=");
    return request;
  }
  bad("unknown verb '" + std::string(verb) + "'");
}

std::string format_submit(const SubmitFrame& frame) {
  std::string out = "SUBMIT";
  if (!frame.tag.empty()) out += " tag=" + frame.tag;
  out += std::string(" qos=") + qos_class_name(frame.qos);
  out += " algo=" + frame.variant_spec;
  out += " model=" + frame.model.to_string();
  if (frame.period > 0.0) out += " period=" + wire_double(frame.period);
  if (frame.headroom != SubmitFrame{}.headroom) {
    out += " headroom=" + wire_double(frame.headroom);
  }
  if (frame.comm_share != SubmitFrame{}.comm_share) {
    out += " comm_share=" + wire_double(frame.comm_share);
  }
  if (frame.degraded_ok) out += " degraded_ok=1";
  out += " dag=" + format_dag_wire(frame.dag);
  return out;
}

std::string format_event(const EventFrame& frame) {
  std::string out = "EVENT";
  if (!frame.tag.empty()) out += " tag=" + frame.tag;
  out += std::string(" kind=") + (frame.failure ? "fail" : "recover");
  out += " proc=" + std::to_string(frame.proc);
  return out;
}

std::string format_stats() { return "STATS"; }

std::string format_health() { return "HEALTH"; }

std::string format_shutdown() { return "SHUTDOWN"; }

// --------------------------------------------------------------- responses --

const std::string& Response::field(const std::string& key) const {
  static const std::string kEmpty;
  for (const auto& [k, v] : fields) {
    if (k == key) return v;
  }
  return kEmpty;
}

bool Response::has_field(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

double Response::field_double(const std::string& key) const {
  if (!has_field(key)) bad("response lacks field '" + key + "'");
  return parse_double(field(key), "response field " + key);
}

std::uint64_t Response::field_u64(const std::string& key) const {
  if (!has_field(key)) bad("response lacks field '" + key + "'");
  return parse_u64(field(key), "response field " + key);
}

OkBuilder& OkBuilder::add(const std::string& key, const std::string& value) {
  SS_REQUIRE(value.find(' ') == std::string::npos, "wire field values must be space-free");
  line_ += " " + key + "=" + value;
  return *this;
}

OkBuilder& OkBuilder::add(const std::string& key, const char* value) {
  return add(key, std::string(value));
}

OkBuilder& OkBuilder::add(const std::string& key, double value) {
  return add(key, wire_double(value));
}

OkBuilder& OkBuilder::add(const std::string& key, std::uint64_t value) {
  return add(key, std::to_string(value));
}

std::string OkBuilder::str() const { return line_; }

std::string format_error(WireCode code, const std::string& message, const std::string& tag,
                         std::uint64_t retry_ms) {
  std::string out = std::string("ERR ") + wire_code_name(code);
  if (!tag.empty()) out += " tag=" + tag;
  if (retry_ms > 0) out += " retry_ms=" + std::to_string(retry_ms);
  if (!message.empty()) out += " " + message;
  return out;
}

Response parse_response(const std::string& line) {
  const std::vector<std::string> tokens = split(line, ' ');
  if (tokens.empty() || tokens[0].empty()) bad("empty response");
  Response resp;
  if (tokens[0] == "OK") {
    resp.ok = true;
    resp.code = WireCode::kOk;
    for (const auto& [key, value] : parse_fields(tokens, 1)) {
      resp.fields.emplace_back(key, value);
    }
    return resp;
  }
  if (tokens[0] == "ERR") {
    if (tokens.size() < 2) bad("ERR response lacks a code");
    resp.ok = false;
    resp.code = parse_wire_code(tokens[1]);
    std::size_t first_message = 2;
    if (tokens.size() > first_message && tokens[first_message].rfind("tag=", 0) == 0) {
      resp.fields.emplace_back("tag", tokens[first_message].substr(4));
      ++first_message;
    }
    if (tokens.size() > first_message && tokens[first_message].rfind("retry_ms=", 0) == 0) {
      resp.fields.emplace_back("retry_ms", tokens[first_message].substr(9));
      ++first_message;
    }
    for (std::size_t i = first_message; i < tokens.size(); ++i) {
      if (i > first_message) resp.message += ' ';
      resp.message += tokens[i];
    }
    return resp;
  }
  bad("response must start with OK or ERR, got '" + tokens[0] + "'");
}

}  // namespace streamsched::net
