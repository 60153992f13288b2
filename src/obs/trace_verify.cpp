#include "obs/trace_verify.h"

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "util/json.h"

namespace sitam::obs {

namespace {

constexpr std::size_t kMaxProblems = 20;

void add_problem(TraceVerifyResult& result, std::string problem) {
  if (result.problems.size() < kMaxProblems) {
    result.problems.push_back(std::move(problem));
  }
}

/// A string member that is present and non-empty.
bool nonempty_string(const JsonValue* v) {
  return v != nullptr && v->is_string() && !v->as_string().empty();
}

/// A numeric member that is present and not negative.
bool nonnegative_number(const JsonValue* v) {
  return v != nullptr && v->is_number() && v->as_double() >= 0;
}

void verify_event(const JsonValue& event, int index, TraceVerifyResult& result,
                  std::map<std::pair<std::int64_t, std::int64_t>, double>&
                      last_ts_by_track) {
  const auto tag = [index](const char* what) {
    std::ostringstream os;
    os << "traceEvents[" << index << "]: " << what;
    return os.str();
  };
  if (!event.is_object()) {
    add_problem(result, tag("not an object"));
    return;
  }
  const JsonValue* ph = event.find("ph");
  if (!nonempty_string(ph)) {
    add_problem(result, tag("missing string \"ph\""));
    return;
  }
  if (!nonempty_string(event.find("name"))) {
    add_problem(result, tag("missing string \"name\""));
  }
  const JsonValue* pid = event.find("pid");
  const JsonValue* tid = event.find("tid");
  if (pid == nullptr || tid == nullptr || !pid->is_integer() ||
      !tid->is_integer()) {
    add_problem(result, tag("pid/tid must be integers"));
    return;
  }
  if (ph->as_string() != "X") return;  // Metadata events carry no timestamps.

  ++result.span_events;
  const JsonValue* ts = event.find("ts");
  if (!nonnegative_number(ts)) {
    add_problem(result, tag("\"X\" event needs numeric ts >= 0"));
    return;
  }
  if (!nonnegative_number(event.find("dur"))) {
    add_problem(result, tag("\"X\" event needs numeric dur >= 0"));
  }
  const double when = ts->as_double();
  const auto [it, inserted] = last_ts_by_track.emplace(
      std::make_pair(pid->as_int(), tid->as_int()), when);
  if (inserted) {
    ++result.tracks;
  } else if (when < it->second) {
    add_problem(result, tag("ts decreases within its (pid, tid) track"));
  } else {
    it->second = when;
  }
}

}  // namespace

std::string TraceVerifyResult::summary() const {
  std::string out = ok ? "trace ok: " : "trace invalid: ";
  out += std::to_string(events) + " events (" + std::to_string(span_events) +
         " spans) on " + std::to_string(tracks) + " tracks";
  if (!problems.empty()) {
    out += ", " + std::to_string(problems.size()) + " problem(s):";
    for (const std::string& problem : problems) {
      out += "\n  " + problem;
    }
  }
  return out;
}

TraceVerifyResult verify_chrome_trace(const std::string& text) {
  TraceVerifyResult result;
  JsonValue document;
  try {
    document = parse_json(text);
  } catch (const JsonParseError& error) {
    add_problem(result, std::string("JSON parse error: ") + error.what());
    return result;
  }
  if (!document.is_object()) {
    add_problem(result, "top-level value is not an object");
    return result;
  }
  const JsonValue* events = document.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    add_problem(result, "missing \"traceEvents\" array");
    return result;
  }
  std::map<std::pair<std::int64_t, std::int64_t>, double> last_ts_by_track;
  const std::vector<JsonValue>& items = events->as_array();
  for (std::size_t i = 0; i < items.size(); ++i) {
    ++result.events;
    verify_event(items[i], static_cast<int>(i), result, last_ts_by_track);
  }
  result.ok = result.problems.empty();
  return result;
}

TraceVerifyResult verify_chrome_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    TraceVerifyResult result;
    result.problems.push_back("cannot open " + path);
    return result;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return verify_chrome_trace(text.str());
}

}  // namespace sitam::obs
