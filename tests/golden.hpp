// Golden-bytes helper for tests that pin simulator output to a committed
// fixture under tests/data/ (IOGUARD_TEST_DATA_DIR, injected by
// tests/CMakeLists.txt). A mismatch reports the first differing line and
// writes the produced bytes to `<name>.actual` in the test's working
// directory; replace the fixture with it only when a change of result bytes
// is intended and documented.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

namespace ioguard::testing {

inline std::string golden_path(const std::string& name) {
  return std::string(IOGUARD_TEST_DATA_DIR) + "/" + name;
}

inline void expect_matches_golden(const std::string& name,
                                  const std::string& actual) {
  std::ifstream in(golden_path(name), std::ios::binary);
  std::ostringstream expected;
  expected << in.rdbuf();
  if (in && expected.str() == actual) return;

  std::ofstream(name + ".actual", std::ios::binary) << actual;
  ASSERT_TRUE(in) << "missing fixture " << golden_path(name)
                  << "; produced bytes written to " << name << ".actual";
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  for (std::size_t line = 1;; ++line) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) break;
    if (more_want != more_got || want_line != got_line) {
      ADD_FAILURE() << name << " differs from its fixture at line " << line
                    << "\n  fixture: " << (more_want ? want_line : "<eof>")
                    << "\n  actual:  " << (more_got ? got_line : "<eof>")
                    << "\nproduced bytes written to " << name << ".actual";
      return;
    }
  }
  ADD_FAILURE() << name << " differs from its fixture in line endings";
}

}  // namespace ioguard::testing
