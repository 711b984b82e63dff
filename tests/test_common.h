#pragma once

// Minimal dependency-free test harness: CHECK/CHECK_EQ macros and a runner.
// Each test file defines TESTS as a list of {name, fn} and calls RUN_TESTS.
// RHTM_TEST_REPEAT=N in the environment repeats every case N times.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

namespace rhtm::test {

inline int g_failures = 0;

#define CHECK(cond)                                                               \
  do {                                                                            \
    if (!(cond)) {                                                                \
      std::printf("    CHECK failed at %s:%d: %s\n", __FILE__, __LINE__, #cond);  \
      ++rhtm::test::g_failures;                                                   \
    }                                                                             \
  } while (0)

#define CHECK_EQ(a, b)                                                                        \
  do {                                                                                        \
    const auto va = (a);                                                                      \
    const auto vb = (b);                                                                      \
    if (!(va == vb)) {                                                                        \
      std::printf("    CHECK_EQ failed at %s:%d: %s (%llu) != %s (%llu)\n", __FILE__,         \
                  __LINE__, #a, static_cast<unsigned long long>(va), #b,                      \
                  static_cast<unsigned long long>(vb));                                       \
      ++rhtm::test::g_failures;                                                               \
    }                                                                                         \
  } while (0)

struct TestCase {
  const char* name;
  std::function<void()> fn;
};

/// RHTM_TEST_REPEAT=N runs every case N times (default 1), so a flaky
/// concurrent case can be driven until it fails.
inline unsigned test_repeat() {
  const char* env = std::getenv("RHTM_TEST_REPEAT");
  const unsigned long n = env != nullptr ? std::strtoul(env, nullptr, 10) : 1;
  return n < 1 ? 1u : static_cast<unsigned>(n);
}

inline int run_tests(const std::vector<TestCase>& tests) {
  std::setvbuf(stdout, nullptr, _IONBF, 0);  // survive a timeout kill with output intact
  const unsigned repeat = test_repeat();
  int failed = 0;
  for (const TestCase& t : tests) {
    std::printf("[ RUN  ] %s\n", t.name);
    unsigned rep = 0;
    for (; rep < repeat; ++rep) {
      const int before = g_failures;
      t.fn();
      if (g_failures != before) break;
    }
    if (rep == repeat) {
      std::printf("[  OK  ] %s\n", t.name);
      continue;
    }
    std::printf("[ FAIL ] %s", t.name);
    if (repeat > 1) std::printf(" (repetition %u of %u)", rep + 1, repeat);
    std::printf("\n");
    ++failed;
  }
  if (failed == 0) {
    std::printf("ALL %zu TESTS PASSED\n", tests.size());
    return 0;
  }
  std::printf("%d TEST(S) FAILED\n", failed);
  return 1;
}

}  // namespace rhtm::test
