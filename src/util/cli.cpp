#include "util/cli.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <system_error>

namespace sitam {
namespace {

// Parses all of `text` as a T, or throws std::invalid_argument naming the
// flag and the value (e.g. "--wmax: expected an integer, got '32x'").
// Unlike std::stoll/std::stod, trailing garbage is rejected.
template <typename T>
T parse_number(const std::string& flag, const std::string& text,
               const char* what) {
  T out{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("--" + flag + ": expected " + what +
                                " in range, got '" + text + "'");
  }
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("--" + flag + ": expected " + what +
                                ", got '" + text + "'");
  }
  return out;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() == 2) {
      throw std::invalid_argument("unexpected argument: " + arg);
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--name value" if the next token is not itself a flag, else boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

void CliArgs::require_known(const std::vector<std::string>& accepted) const {
  for (const auto& entry : values_) {
    if (std::find(accepted.begin(), accepted.end(), entry.first) ==
        accepted.end()) {
      throw std::invalid_argument("unknown flag --" + entry.first);
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::optional<std::string> CliArgs::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& name,
                            std::string fallback) const {
  const auto v = get(name);
  return v ? *v : std::move(fallback);
}

std::int64_t CliArgs::get_or(const std::string& name,
                             std::int64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return parse_number<std::int64_t>(name, *v, "an integer");
}

double CliArgs::get_or(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return parse_number<double>(name, *v, "a number");
}

std::vector<std::int64_t> CliArgs::get_list_or(
    const std::string& name, std::vector<std::int64_t> fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  std::vector<std::int64_t> out;
  std::size_t pos = 0;
  while (pos <= v->size()) {
    const auto comma = v->find(',', pos);
    const std::string tok =
        v->substr(pos, comma == std::string::npos ? std::string::npos
                                                  : comma - pos);
    if (!tok.empty()) {
      out.push_back(parse_number<std::int64_t>(name, tok, "an integer"));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<std::string> CliArgs::get_strings_or(
    const std::string& name, std::vector<std::string> fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= v->size()) {
    const auto comma = v->find(',', pos);
    std::string tok =
        v->substr(pos, comma == std::string::npos ? std::string::npos
                                                  : comma - pos);
    if (!tok.empty()) out.push_back(std::move(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace sitam
