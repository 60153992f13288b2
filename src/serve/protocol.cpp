#include "serve/protocol.h"

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.h"

namespace sitam::serve {

namespace {

/// Ids are echoed into every response; bound them so a hostile line cannot
/// make the server amplify megabytes per response.
constexpr std::size_t kMaxIdLength = 256;

/// Truncation bound for strings echoed inside error messages.
constexpr std::size_t kMaxEchoLength = 64;

std::string echo(const std::string& text) {
  if (text.size() <= kMaxEchoLength) return text;
  return text.substr(0, kMaxEchoLength) + "...";
}

int int_field(const JsonValue& value, const std::string& name) {
  if (!value.is_integer()) {
    throw std::invalid_argument("field '" + name + "' must be an integer");
  }
  const std::int64_t v = value.as_int();
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("field '" + name + "' is out of range");
  }
  return static_cast<int>(v);
}

/// The error for field `name` over its limit (`unit` follows the number).
std::invalid_argument over_limit(const std::string& name, std::int64_t limit,
                                 const std::string& unit = "") {
  return std::invalid_argument("field '" + name + "' exceeds its limit of " +
                               std::to_string(limit) + unit);
}

/// `[1,2,4]` or a bare integer: at most `max_entries` elements, each in
/// [1, max_value].
std::vector<int> int_list_field(const JsonValue& value,
                                const std::string& name,
                                std::size_t max_entries, int max_value) {
  std::vector<int> list;
  if (value.is_array()) {
    if (value.as_array().size() > max_entries) {
      throw over_limit(name, static_cast<std::int64_t>(max_entries),
                       " entries");
    }
    for (const JsonValue& item : value.as_array()) {
      list.push_back(int_field(item, name));
    }
  } else {
    list.push_back(int_field(value, name));
  }
  if (list.empty()) {
    throw std::invalid_argument("field '" + name + "' must not be empty");
  }
  for (const int v : list) {
    if (v < 1) {
      throw std::invalid_argument("field '" + name +
                                  "' entries must be >= 1");
    }
    if (v > max_value) throw over_limit(name, max_value);
  }
  return list;
}

bool bool_field(const JsonValue& value, const std::string& name) {
  if (!value.is_bool()) {
    throw std::invalid_argument("field '" + name + "' must be a boolean");
  }
  return value.as_bool();
}

const std::string& string_field(const JsonValue& value,
                                const std::string& name) {
  if (!value.is_string()) {
    throw std::invalid_argument("field '" + name + "' must be a string");
  }
  return value.as_string();
}

RequestOp parse_op(const std::string& op) {
  if (op == "optimize") return RequestOp::kOptimize;
  if (op == "sweep") return RequestOp::kSweep;
  if (op == "cancel") return RequestOp::kCancel;
  if (op == "ping") return RequestOp::kPing;
  if (op == "stats") return RequestOp::kStats;
  if (op == "shutdown") return RequestOp::kShutdown;
  throw std::invalid_argument("unknown op '" + echo(op) + "'");
}

JobPriority parse_priority(const std::string& priority) {
  if (priority == "high") return JobPriority::kHigh;
  if (priority == "normal") return JobPriority::kNormal;
  if (priority == "low") return JobPriority::kLow;
  throw std::invalid_argument("unknown priority '" + echo(priority) + "'");
}

const char* op_name(RequestOp op) {
  switch (op) {
    case RequestOp::kOptimize: return "optimize";
    case RequestOp::kSweep: return "sweep";
    case RequestOp::kCancel: return "cancel";
    case RequestOp::kPing: return "ping";
    case RequestOp::kStats: return "stats";
    case RequestOp::kShutdown: return "shutdown";
  }
  return "?";
}

}  // namespace

Request parse_request(const std::string& line) {
  const JsonValue root = parse_json(line);
  if (!root.is_object()) {
    throw std::invalid_argument("request must be a JSON object");
  }

  Request request;
  bool saw_op = false;
  for (const JsonValue::Member& member : root.as_object()) {
    const std::string& field = member.first;
    const JsonValue& value = member.second;
    if (field == "op") {
      request.op = parse_op(string_field(value, field));
      saw_op = true;
    } else if (field == "id") {
      request.id = string_field(value, field);
    } else if (field == "soc") {
      request.soc = string_field(value, field);
    } else if (field == "soc_text") {
      request.soc_text = string_field(value, field);
    } else if (field == "nr") {
      if (!value.is_integer() || value.as_int() < 0) {
        throw std::invalid_argument(
            "field 'nr' must be a non-negative integer");
      }
      request.pattern_count = value.as_int();
      if (request.pattern_count > kMaxPatternCount) {
        throw over_limit(field, kMaxPatternCount);
      }
    } else if (field == "seed") {
      if (!value.is_integer()) {
        throw std::invalid_argument("field 'seed' must be an integer");
      }
      request.seed = static_cast<std::uint64_t>(value.as_int());
    } else if (field == "parts") {
      request.groupings =
          int_list_field(value, field, kMaxPartsCount, kMaxParts);
    } else if (field == "widths") {
      request.widths =
          int_list_field(value, field, kMaxWidthCount, kMaxWidth);
    } else if (field == "wmax") {
      request.widths = {int_field(value, field)};
      if (request.widths.front() < 1) {
        throw std::invalid_argument("field 'wmax' must be >= 1");
      }
      if (request.widths.front() > kMaxWidth) {
        throw over_limit(field, kMaxWidth);
      }
    } else if (field == "restarts") {
      request.restarts = int_field(value, field);
      if (request.restarts < 1) {
        throw std::invalid_argument("field 'restarts' must be >= 1");
      }
      if (request.restarts > kMaxRestarts) {
        throw over_limit(field, kMaxRestarts);
      }
    } else if (field == "no_delta") {
      request.delta_eval = !bool_field(value, field);
    } else if (field == "no_cache") {
      // Accepted and type-checked, with no effect: the evaluator has no
      // memo. Kept only because bench/e2e still sends it (ROADMAP item 7).
      (void)bool_field(value, field);
    } else if (field == "priority") {
      request.priority = parse_priority(string_field(value, field));
    } else if (field == "trace") {
      request.trace = bool_field(value, field);
    } else {
      throw std::invalid_argument("unknown field '" + echo(field) + "'");
    }
  }
  if (!saw_op) {
    throw std::invalid_argument("missing required field 'op'");
  }

  const bool is_job =
      request.op == RequestOp::kOptimize || request.op == RequestOp::kSweep;
  if (is_job || request.op == RequestOp::kCancel) {
    if (request.id.empty()) {
      throw std::invalid_argument(std::string("op '") + op_name(request.op) +
                                  "' requires a non-empty 'id'");
    }
    if (request.id.size() > kMaxIdLength) {
      throw std::invalid_argument("field 'id' exceeds " +
                                  std::to_string(kMaxIdLength) + " bytes");
    }
  }
  if (is_job && !request.soc.empty() && !request.soc_text.empty()) {
    throw std::invalid_argument("'soc' and 'soc_text' are mutually exclusive");
  }
  // Benchmark names are short identifiers; inline models go in soc_text.
  // Bounding here keeps a hostile megabyte name out of the job path.
  if (request.soc.size() > kMaxIdLength) {
    throw std::invalid_argument("field 'soc' exceeds " +
                                std::to_string(kMaxIdLength) + " bytes");
  }
  return request;
}

std::string error_response(const std::string& id,
                           const std::string& message) {
  JsonWriter json;
  json.begin_object().kv("type", "error");
  if (!id.empty()) json.kv("id", id);
  json.kv("error", message).end_object();
  return json.str();
}

std::string ack_response(const Request& request) {
  JsonWriter json;
  json.begin_object()
      .kv("type", "ack")
      .kv("id", request.id)
      .kv("op", op_name(request.op))
      .end_object();
  return json.str();
}

std::string progress_response(const std::string& id,
                              const std::string& stage) {
  JsonWriter json;
  json.begin_object()
      .kv("type", "progress")
      .kv("id", id)
      .kv("stage", stage)
      .end_object();
  return json.str();
}

std::string cancelled_response(const std::string& id) {
  JsonWriter json;
  json.begin_object().kv("type", "cancelled").kv("id", id).end_object();
  return json.str();
}

std::string pong_response() {
  JsonWriter json;
  json.begin_object().kv("type", "pong").end_object();
  return json.str();
}

std::string bye_response() {
  JsonWriter json;
  json.begin_object().kv("type", "bye").end_object();
  return json.str();
}

namespace {

void write_stats(JsonWriter& json, const EvaluatorStats& stats) {
  json.key("stats").begin_object();
  json.kv("evaluations", stats.evaluations);
  json.kv("cache_hits", stats.cache_hits);
  json.kv("delta_hits", stats.delta_hits);
  json.kv("cache_misses", stats.cache_misses);
  json.end_object();
}

void write_architecture(JsonWriter& json, const OptimizeResult& result) {
  json.kv("t_in", result.evaluation.t_in);
  json.kv("t_si", result.evaluation.t_si);
  json.kv("t_soc", result.evaluation.t_soc);
  json.key("rails").begin_array();
  for (std::size_t r = 0; r < result.architecture.rails.size(); ++r) {
    const TestRail& rail = result.architecture.rails[r];
    json.begin_object();
    json.kv("width", std::int64_t{rail.width});
    json.key("cores").begin_array();
    for (const int c : rail.cores) json.value(std::int64_t{c});
    json.end_array();
    json.kv("time_in", result.evaluation.rails[r].time_in);
    json.kv("time_si", result.evaluation.rails[r].time_si);
    json.end_object();
  }
  json.end_array();
}

}  // namespace

std::string result_response(const std::string& id, const Request& request,
                            const FlowResult& result,
                            const std::string& extra_json) {
  JsonWriter json;
  json.begin_object()
      .kv("type", "result")
      .kv("id", id)
      .kv("op", op_name(request.op))
      .kv("n_r", request.pattern_count);
  if (result.mode == FlowMode::kOptimize) {
    json.kv("w_max", std::int64_t{request.widths.front()})
        .kv("parts", std::int64_t{request.groupings.front()});
    write_architecture(json, result.optimize);
    write_stats(json, result.optimize.stats);
    json.kv("lower_bound", result.lower_bound)
        .kv("si_wrapper_extra_ge", result.area.si_extra_ge);
  } else {
    json.key("widths").begin_array();
    for (const int w : request.widths) json.value(std::int64_t{w});
    json.end_array();
    json.key("rows").begin_array();
    EvaluatorStats total;
    for (const ExperimentOutcome& row : result.sweep.rows) {
      json.begin_object();
      json.kv("w_max", std::int64_t{row.w_max});
      json.kv("t_baseline", row.t_baseline);
      json.key("t_g").begin_array();
      for (const OptimizeResult& r : row.per_grouping) {
        json.value(r.evaluation.t_soc);
        total += r.stats;
      }
      json.end_array();
      json.kv("t_min", row.t_min);
      json.end_object();
    }
    json.end_array();
    write_stats(json, total);
  }
  json.end_object();

  std::string out = json.str();
  if (!extra_json.empty()) {
    // Splice the (independently well-formed) observability object in as
    // the last member; the deterministic payload above stays untouched.
    SITAM_CHECK(!out.empty() && out.back() == '}');
    out.pop_back();
    out += ",\"observability\":";
    out += extra_json;
    out += '}';
  }
  return out;
}

}  // namespace sitam::serve
