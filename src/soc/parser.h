// Parser for the sitam `.soc` format, a line-oriented dialect of the ITC'02
// SOC test benchmark format.
//
// Grammar (one directive per line, '#' starts a comment, blank lines ok):
//
//   Soc <name>
//   Module <id> [<name>]
//     Inputs <n>
//     Outputs <n>
//     Bidirs <n>
//     ScanChains <spec>...     # spec is either "L" or "NxL" (N chains of
//                              # length L); directive may repeat / be absent
//     Patterns <n>
//   End
//   ... more modules ...
//
// Unknown directives raise errors (fail fast beats silent misparse for
// benchmark data).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "soc/soc.h"

namespace sitam {

/// Implausibility bounds of the parser: no real core or SOC comes near
/// them (the ITC'02 SOCs have at most a few thousand boundary cells), and
/// they keep a hostile file from sizing allocations without bound — a
/// chain list, or a prepare's per-terminal tables (the kernel rows' rank
/// table, the care-set index's terminal -> core map).
inline constexpr std::int64_t kMaxChainRepeat = 100000;  ///< N of "NxL".
inline constexpr std::int64_t kMaxModuleTerminals = 100000;
inline constexpr std::int64_t kMaxSocTerminals = 1000000;

/// Parses a SOC description from text. Throws SocParseError (derived from
/// std::runtime_error) with a line number on any syntax or semantic
/// problem, an integer its field cannot hold, or a count beyond the bounds
/// above; the result always passes validate().
[[nodiscard]] Soc parse_soc(std::string_view text);

/// Reads and parses a `.soc` file; throws std::runtime_error when the file
/// cannot be read.
[[nodiscard]] Soc load_soc_file(const std::string& path);

class SocParseError : public std::runtime_error {
 public:
  SocParseError(int line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}

  [[nodiscard]] int line() const noexcept { return line_; }

 private:
  int line_;
};

}  // namespace sitam
