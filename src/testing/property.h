// Property-test plumbing: seeds and iteration budgets.
//
// Every property/differential test derives all randomness from one 64-bit
// base seed so a reported failure replays exactly; each failure message
// ends with the hint of tests/testing/replay_hint.h:
//
//   F2DB_PROPERTY_SEED=<base> ctest -R '^<Suite.Test>$' --output-on-failure
//
// The iteration budget scales with F2DB_PROPERTY_ITERATIONS (a multiplier;
// the nightly CI job runs the `property` ctest label with 100). Both knobs
// default to fixed values so `ctest -L property` is deterministic out of
// the box: same seed -> same workloads -> same verdict.

#ifndef F2DB_TESTING_PROPERTY_H_
#define F2DB_TESTING_PROPERTY_H_

#include <cstdint>
#include <string>

namespace f2db::testing {

/// The default seed used when F2DB_PROPERTY_SEED is unset.
inline constexpr std::uint64_t kDefaultPropertySeed = 0xF2DB2026ULL;

/// The run's base seed: F2DB_PROPERTY_SEED (decimal or 0x-hex) when set and
/// parseable, `fallback` otherwise.
std::uint64_t PropertySeed(std::uint64_t fallback = kDefaultPropertySeed);

/// True when the seed came from the environment (a replay run). Replay runs
/// may want to log more aggressively.
bool PropertySeedFromEnv();

/// The iteration-budget multiplier from F2DB_PROPERTY_ITERATIONS (>= 1);
/// 1 when unset or unparseable.
std::size_t PropertyBudgetMultiplier();

/// base * PropertyBudgetMultiplier(), saturating.
std::size_t PropertyIterations(std::size_t base);

/// Derives a per-test sub-seed from the base seed and a stable label, so
/// independent suites draw independent deterministic streams.
std::uint64_t SubSeed(std::uint64_t base, const std::string& label);

}  // namespace f2db::testing

#endif  // F2DB_TESTING_PROPERTY_H_
