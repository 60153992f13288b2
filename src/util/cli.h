// Minimal command-line flag parsing shared by the bench and example
// binaries: `--name=value`, `--name value` and boolean `--name` forms.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sitam {

class CliArgs {
 public:
  /// Parses argv; throws std::invalid_argument on malformed flags
  /// (anything not starting with "--").
  CliArgs(int argc, const char* const* argv);

  /// Throws std::invalid_argument naming the first parsed flag (in name
  /// order) that is not in `accepted`, e.g. "unknown flag --bogus". Each
  /// binary calls it once with every flag it reads.
  void require_known(const std::vector<std::string>& accepted) const;

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name,
                                   std::string fallback) const;
  /// The numeric getters parse the whole value or throw
  /// std::invalid_argument naming the flag and the value, e.g.
  /// "--wmax: expected an integer, got '32x'".
  [[nodiscard]] std::int64_t get_or(const std::string& name,
                                    std::int64_t fallback) const;
  [[nodiscard]] double get_or(const std::string& name, double fallback) const;

  /// Parses a comma-separated integer list, e.g. --widths=8,16,24; throws
  /// like get_or on a malformed element.
  [[nodiscard]] std::vector<std::int64_t> get_list_or(
      const std::string& name, std::vector<std::int64_t> fallback) const;

  /// Parses a comma-separated string list, e.g. --socs=d695,p93791.
  /// Empty tokens are dropped ("a,,b" -> {"a","b"}).
  [[nodiscard]] std::vector<std::string> get_strings_or(
      const std::string& name, std::vector<std::string> fallback) const;

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace sitam
