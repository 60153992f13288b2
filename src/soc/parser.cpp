#include "soc/parser.h"

#include <charconv>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

namespace sitam {

namespace {

/// Splits a line into whitespace-separated tokens, dropping '#' comments.
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() &&
           (line[pos] == ' ' || line[pos] == '\t' || line[pos] == '\r')) {
      ++pos;
    }
    if (pos >= line.size() || line[pos] == '#') break;
    std::size_t end = pos;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t' &&
           line[end] != '\r' && line[end] != '#') {
      ++end;
    }
    tokens.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  return tokens;
}

std::int64_t parse_int(std::string_view token, int line) {
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    throw SocParseError(line, "expected integer, got '" + std::string(token) +
                                  "'");
  }
  return value;
}

/// parse_int for a field held in an int: a value the int cannot hold is
/// an error, never a wrapped number.
int parse_int32(std::string_view token, int line) {
  const std::int64_t value = parse_int(token, line);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw SocParseError(line, "integer " + std::string(token) +
                                  " is out of range");
  }
  return static_cast<int>(value);
}

/// Parses a scan-chain spec token: either "L" or "NxL".
void parse_chain_spec(std::string_view token, int line,
                      std::vector<int>& chains) {
  const auto x = token.find('x');
  if (x == std::string_view::npos) {
    chains.push_back(parse_int32(token, line));
    return;
  }
  const std::int64_t count = parse_int(token.substr(0, x), line);
  const int length = parse_int32(token.substr(x + 1), line);
  if (count <= 0) {
    throw SocParseError(line, "chain repeat count must be positive");
  }
  // No real core has a six-figure scan-chain count; reject rather than
  // allocate unbounded memory on malformed/hostile input.
  if (count > kMaxChainRepeat) {
    throw SocParseError(line, "chain repeat count " + std::to_string(count) +
                                  " is implausibly large");
  }
  chains.insert(chains.end(), static_cast<std::size_t>(count), length);
}

/// Rejects a module, or a SOC, whose terminals exceed the implausibility
/// bounds: they size a prepare's per-terminal tables.
void check_terminals(const Module& m, std::int64_t soc_terminals, int line) {
  const std::int64_t terminals = std::int64_t{m.inputs} + m.outputs + m.bidirs;
  if (terminals > kMaxModuleTerminals) {
    throw SocParseError(line, "module " + std::to_string(m.id) + " has " +
                                  std::to_string(terminals) +
                                  " terminals, implausibly many");
  }
  if (soc_terminals + terminals > kMaxSocTerminals) {
    throw SocParseError(line, "the SOC's terminals exceed " +
                                  std::to_string(kMaxSocTerminals));
  }
}

}  // namespace

Soc parse_soc(std::string_view text) {
  Soc soc;
  std::optional<Module> current;
  bool saw_soc_line = false;
  std::int64_t soc_terminals = 0;  // of the modules ended so far

  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? std::string_view::npos
                                                      : nl - pos);
    ++line_no;
    pos = (nl == std::string_view::npos) ? text.size() + 1 : nl + 1;

    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string_view keyword = tokens[0];

    if (keyword == "Soc") {
      if (saw_soc_line) throw SocParseError(line_no, "duplicate Soc line");
      if (tokens.size() != 2) {
        throw SocParseError(line_no, "Soc expects exactly one name");
      }
      soc.name = std::string(tokens[1]);
      saw_soc_line = true;
    } else if (keyword == "Module") {
      if (!saw_soc_line) {
        throw SocParseError(line_no, "Module before Soc line");
      }
      if (current) {
        throw SocParseError(line_no, "Module without End for previous module");
      }
      if (tokens.size() < 2 || tokens.size() > 3) {
        throw SocParseError(line_no, "Module expects: Module <id> [<name>]");
      }
      Module m;
      m.id = parse_int32(tokens[1], line_no);
      m.name = tokens.size() == 3 ? std::string(tokens[2])
                                  : "module" + std::to_string(m.id);
      current = std::move(m);
    } else if (keyword == "End") {
      if (!current) throw SocParseError(line_no, "End without Module");
      soc_terminals += std::int64_t{current->inputs} + current->outputs +
                       current->bidirs;
      soc.modules.push_back(std::move(*current));
      current.reset();
    } else if (keyword == "Inputs" || keyword == "Outputs" ||
               keyword == "Bidirs" || keyword == "Patterns" ||
               keyword == "BistPatterns") {
      if (!current) {
        throw SocParseError(line_no, std::string(keyword) +
                                         " outside of a Module block");
      }
      if (tokens.size() != 2) {
        throw SocParseError(line_no,
                            std::string(keyword) + " expects one integer");
      }
      if (keyword == "Inputs") {
        current->inputs = parse_int32(tokens[1], line_no);
      } else if (keyword == "Outputs") {
        current->outputs = parse_int32(tokens[1], line_no);
      } else if (keyword == "Bidirs") {
        current->bidirs = parse_int32(tokens[1], line_no);
      } else if (keyword == "BistPatterns") {
        current->bist_patterns = parse_int(tokens[1], line_no);
      } else {
        current->patterns = parse_int(tokens[1], line_no);
      }
      check_terminals(*current, soc_terminals, line_no);
    } else if (keyword == "ScanChains") {
      if (!current) {
        throw SocParseError(line_no, "ScanChains outside of a Module block");
      }
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        parse_chain_spec(tokens[i], line_no, current->scan_chains);
      }
    } else {
      throw SocParseError(line_no,
                          "unknown directive '" + std::string(keyword) + "'");
    }
  }

  if (current) {
    throw SocParseError(line_no, "missing End for module " +
                                     std::to_string(current->id));
  }
  if (!saw_soc_line) throw SocParseError(1, "missing Soc line");

  try {
    validate(soc);
  } catch (const std::invalid_argument& err) {
    throw SocParseError(line_no, err.what());
  }
  return soc;
}

Soc load_soc_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open SOC file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_soc(buffer.str());
}

}  // namespace sitam
