// The one fault-injection registry: trigger modes, fault kinds, the spec
// grammar shared by logical (engine.*, ts.*, math.*) and I/O (io.*) sites,
// and F2DB_FAILPOINTS.

#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <vector>

namespace f2db {
namespace {

using failpoint::FaultKind;
using failpoint::Policy;

F2DB_DEFINE_FAILPOINT(kTestSite, "test.failpoint_site");

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisableAll(); }
  void TearDown() override { failpoint::DisableAll(); }
};

TEST_F(FailpointTest, OffByDefault) {
  EXPECT_FALSE(failpoint::AnyEnabled());
  EXPECT_FALSE(failpoint::Triggered(kTestSite));
  EXPECT_EQ(failpoint::Triggers(kTestSite), 0u);
}

TEST_F(FailpointTest, StaticRegistrationShowsUpInRegisteredSites) {
  const std::vector<std::string> sites = failpoint::RegisteredSites();
  EXPECT_NE(std::find(sites.begin(), sites.end(), "test.failpoint_site"),
            sites.end());
}

TEST_F(FailpointTest, AlwaysTriggersEveryEvaluation) {
  failpoint::Enable(kTestSite, Policy::Always());
  EXPECT_TRUE(failpoint::AnyEnabled());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(failpoint::Triggered(kTestSite));
  EXPECT_EQ(failpoint::Evaluations(kTestSite), 5u);
  EXPECT_EQ(failpoint::Triggers(kTestSite), 5u);
}

TEST_F(FailpointTest, MaxTriggersDisarmsAfterBudget) {
  failpoint::Enable(kTestSite, Policy::Always(/*max_triggers=*/2));
  EXPECT_TRUE(failpoint::Triggered(kTestSite));
  EXPECT_TRUE(failpoint::Triggered(kTestSite));
  EXPECT_FALSE(failpoint::Triggered(kTestSite));
  EXPECT_FALSE(failpoint::Triggered(kTestSite));
  EXPECT_EQ(failpoint::Triggers(kTestSite), 2u);
  EXPECT_EQ(failpoint::Evaluations(kTestSite), 4u);
}

TEST_F(FailpointTest, EveryNthFiresOnMultiplesOfN) {
  failpoint::Enable(kTestSite, Policy::EveryNth(3));
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(failpoint::Triggered(kTestSite));
  const std::vector<bool> expected{false, false, true, false, false,
                                   true,  false, false, true};
  EXPECT_EQ(fired, expected);
}

TEST_F(FailpointTest, ProbabilityIsDeterministicPerSeed) {
  auto run = [&](std::uint64_t seed) {
    failpoint::Enable(kTestSite, Policy::WithProbability(0.5, seed));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(failpoint::Triggered(kTestSite));
    }
    return fired;
  };
  EXPECT_EQ(run(7), run(7));  // re-arming resets the stream: identical
  EXPECT_NE(run(7), run(8));  // a different seed gives a different stream
}

TEST_F(FailpointTest, ProbabilityZeroNeverFiresOneAlwaysFires) {
  failpoint::Enable(kTestSite, Policy::WithProbability(0.0));
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(failpoint::Triggered(kTestSite));
  failpoint::Enable(kTestSite, Policy::WithProbability(1.0));
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(failpoint::Triggered(kTestSite));
}

TEST_F(FailpointTest, DisableStopsTriggeringAndClearsGuard) {
  failpoint::Enable(kTestSite, Policy::Always());
  EXPECT_TRUE(failpoint::Triggered(kTestSite));
  failpoint::Disable(kTestSite);
  EXPECT_FALSE(failpoint::AnyEnabled());
  EXPECT_FALSE(failpoint::Triggered(kTestSite));
}

TEST_F(FailpointTest, InjectedFailureIsUnavailableAndNamesTheSite) {
  const Status status = failpoint::InjectedFailure(kTestSite);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("test.failpoint_site"), std::string::npos);
}

TEST_F(FailpointTest, EnableFromSpecArmsMultipleSites) {
  ASSERT_TRUE(failpoint::EnableFromSpec(
                  "test.failpoint_site = always:1 ; test.spec_site=nth:2")
                  .ok());
  EXPECT_TRUE(failpoint::Triggered(kTestSite));
  EXPECT_FALSE(failpoint::Triggered(kTestSite));  // max_triggers=1
  EXPECT_FALSE(failpoint::Triggered("test.spec_site"));
  EXPECT_TRUE(failpoint::Triggered("test.spec_site"));
}

TEST_F(FailpointTest, EnableFromSpecParsesProbabilityWithSeed) {
  ASSERT_TRUE(
      failpoint::EnableFromSpec("test.failpoint_site=prob:1.0:9").ok());
  EXPECT_TRUE(failpoint::Triggered(kTestSite));
}

TEST_F(FailpointTest, MalformedSpecRejectedWithoutArmingAnything) {
  for (const char* spec : {
           "test.failpoint_site=always;oops",
           "test.failpoint_site=nth:0",
           "=always",
           "test.failpoint_site=prob:1.5",
           "test.failpoint_site=off:1",
           // A negative max would fire without limit; a non-finite
           // probability would arm a site that never fires.
           "t.a=always:-1",
           "t.a=nth:2:-5",
           "io.x=short:nth:3:-1",
           "t.a=prob:nan",
           "t.a=prob:inf",
       }) {
    EXPECT_EQ(failpoint::EnableFromSpec(spec).code(),
              StatusCode::kInvalidArgument)
        << spec;
    EXPECT_FALSE(failpoint::AnyEnabled()) << spec;  // atomic: nothing armed
  }
}

TEST_F(FailpointTest, EveryDocumentedSpecParsesToItsPolicy) {
  // Every spec quoted in README.md, DESIGN.md and the headers, the forms the
  // logical-site and I/O-site grammars accepted before they were one, and a
  // spec mixing both kinds of site.
  using Mode = Policy::Mode;
  struct Armed {
    std::string site;
    Mode mode;
    FaultKind fault;
    int err;
    std::size_t every_n = 0;
    double probability = 0.0;
    std::uint64_t seed = 42;
  };
  const Armed refit_prob{"engine.refit", Mode::kProbability, FaultKind::kError,
                         EIO, 0, 0.1};
  const std::vector<std::pair<std::string, std::vector<Armed>>> cases = {
      {"engine.refit=prob:0.1", {refit_prob}},
      {"engine.refit=prob:0.1;ts.ets_fit=nth:3",
       {refit_prob,
        {"ts.ets_fit", Mode::kEveryNth, FaultKind::kError, EIO, 3}}},
      {"engine.refit=always;engine.insert=nth:3;ts.arima_fit=prob:0.1:7",
       {{"engine.refit", Mode::kAlways, FaultKind::kError, EIO},
        {"engine.insert", Mode::kEveryNth, FaultKind::kError, EIO, 3},
        {"ts.arima_fit", Mode::kProbability, FaultKind::kError, EIO, 0, 0.1,
         7}}},
      {"io.wal_append=eio:nth:3;io.wal_create=enospc;"
       "io.wal_fsync=short:prob:0.1:7",
       {{"io.wal_append", Mode::kEveryNth, FaultKind::kError, EIO, 3},
        {"io.wal_create", Mode::kAlways, FaultKind::kError, ENOSPC},
        {"io.wal_fsync", Mode::kProbability, FaultKind::kShortWrite, EIO, 0,
         0.1, 7}}},
      {"io.wal_append=eio; io.segment_write=short:prob:0.01:7",
       {{"io.wal_append", Mode::kAlways, FaultKind::kError, EIO},
        {"io.segment_write", Mode::kProbability, FaultKind::kShortWrite, EIO,
         0, 0.01, 7}}},
      {"io.wal_append=always",
       {{"io.wal_append", Mode::kAlways, FaultKind::kError, EIO}}},
      {"engine.refit=always;engine.insert=nth:3;io.wal_append=eio:prob:0.1:7",
       {{"engine.refit", Mode::kAlways, FaultKind::kError, EIO},
        {"engine.insert", Mode::kEveryNth, FaultKind::kError, EIO, 3},
        {"io.wal_append", Mode::kProbability, FaultKind::kError, EIO, 0, 0.1,
         7}}},
  };
  for (const auto& [spec, want] : cases) {
    SCOPED_TRACE(spec);
    const auto parsed = failpoint::ParseSpec(spec);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed.value().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const auto& [site, policy] = parsed.value()[i];
      EXPECT_EQ(site, want[i].site);
      EXPECT_EQ(policy.mode, want[i].mode);
      EXPECT_EQ(policy.fault, want[i].fault);
      EXPECT_EQ(policy.err, want[i].err);
      EXPECT_EQ(policy.every_n, want[i].every_n);
      EXPECT_DOUBLE_EQ(policy.probability, want[i].probability);
      EXPECT_EQ(policy.seed, want[i].seed);
      EXPECT_EQ(policy.max_triggers, 0u);
    }
  }
}

TEST_F(FailpointTest, ScopedDisableAllCleansUp) {
  {
    failpoint::ScopedDisableAll guard;
    failpoint::Enable(kTestSite, Policy::Always());
    EXPECT_TRUE(failpoint::AnyEnabled());
  }
  EXPECT_FALSE(failpoint::AnyEnabled());
}

/// RAII env-var override so InitFromEnv tests cannot leak state into other
/// tests in this binary.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST_F(FailpointTest, InitFromEnvAppliesWellFormedSpec) {
  ScopedEnv spec("F2DB_FAILPOINTS", "test.failpoint_site=always");
  EXPECT_EQ(failpoint::InitFromEnv(), "test.failpoint_site=always");
  EXPECT_TRUE(failpoint::AnyEnabled());
  EXPECT_TRUE(failpoint::Triggered(kTestSite));
}

TEST_F(FailpointTest, InitFromEnvIgnoresMalformedSpecWithoutStrict) {
  ScopedEnv spec("F2DB_FAILPOINTS", "test.failpoint_site=bogus_policy");
  ScopedEnv strict("F2DB_FAILPOINTS_STRICT", "0");
  EXPECT_EQ(failpoint::InitFromEnv(), "");
  EXPECT_FALSE(failpoint::AnyEnabled());  // nothing silently armed either
}

TEST_F(FailpointTest, InitFromEnvAbortsOnMalformedSpecUnderStrict) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ::setenv("F2DB_FAILPOINTS", "test.failpoint_site=bogus_policy", 1);
        ::setenv("F2DB_FAILPOINTS_STRICT", "1", 1);
        failpoint::InitFromEnv();
      },
      "F2DB_FAILPOINTS malformed \\(strict mode, aborting\\)");
}

TEST_F(FailpointTest, InitFromEnvStrictAcceptsWellFormedSpec) {
  ScopedEnv spec("F2DB_FAILPOINTS", "test.failpoint_site=nth:2");
  ScopedEnv strict("F2DB_FAILPOINTS_STRICT", "1");
  EXPECT_EQ(failpoint::InitFromEnv(), "test.failpoint_site=nth:2");
  EXPECT_TRUE(failpoint::AnyEnabled());
}

}  // namespace
}  // namespace f2db
