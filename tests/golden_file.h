// Byte-for-byte comparison against a checked-in file under tests/golden/
// (SITAM_GOLDEN_DIR, defined by the test's CMake target). Running a test
// with SITAM_UPDATE_GOLDEN=1 rewrites the file instead and skips.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace sitam::golden {

inline void expect_matches_golden(const std::string& name,
                                  const std::string& actual) {
  namespace fs = std::filesystem;
  const fs::path path = fs::path(SITAM_GOLDEN_DIR) / name;
  if (std::getenv("SITAM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden regenerated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (run with SITAM_UPDATE_GOLDEN=1 to create it)";
  std::ostringstream expected;
  expected << in.rdbuf();
  if (expected.str() == actual) return;
  // Name the first line that moved rather than printing both documents.
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  int line = 1;
  while (std::getline(want, want_line) && std::getline(got, got_line) &&
         want_line == got_line) {
    ++line;
  }
  ADD_FAILURE() << "golden mismatch for " << name << " at line " << line
                << "\n  golden: " << want_line << "\n  actual: " << got_line;
}

}  // namespace sitam::golden
