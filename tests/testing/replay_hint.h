// The replay instruction every seeded test's failure message ends with.

#ifndef F2DB_TESTS_TESTING_REPLAY_HINT_H_
#define F2DB_TESTS_TESTING_REPLAY_HINT_H_

#include <cstdint>
#include <string>

#include "gtest/gtest.h"

namespace f2db::testing {

/// "replay: F2DB_PROPERTY_SEED=<base> ctest -R '^<Suite.Test>$' ...": the
/// BASE seed (what PropertySeed() returned — the test re-derives its
/// sub-seeds from it) and a filter selecting exactly the running test.
inline std::string ReplayHint(std::uint64_t base_seed) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string name =
      test == nullptr ? std::string()
                      : std::string(test->test_suite_name()) + "." +
                            test->name();
  return "replay: F2DB_PROPERTY_SEED=" + std::to_string(base_seed) +
         " ctest -R '^" + name + "$' --output-on-failure";
}

}  // namespace f2db::testing

#endif  // F2DB_TESTS_TESTING_REPLAY_HINT_H_
