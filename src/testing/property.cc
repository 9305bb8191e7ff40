#include "testing/property.h"

#include <cstdlib>
#include <limits>

namespace f2db::testing {

namespace {

bool ParseUint64(const char* text, std::uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(value);
  return true;
}

}  // namespace

std::uint64_t PropertySeed(std::uint64_t fallback) {
  std::uint64_t seed = 0;
  if (ParseUint64(std::getenv("F2DB_PROPERTY_SEED"), &seed)) return seed;
  return fallback;
}

bool PropertySeedFromEnv() {
  std::uint64_t seed = 0;
  return ParseUint64(std::getenv("F2DB_PROPERTY_SEED"), &seed);
}

std::size_t PropertyBudgetMultiplier() {
  std::uint64_t value = 0;
  if (!ParseUint64(std::getenv("F2DB_PROPERTY_ITERATIONS"), &value)) return 1;
  if (value == 0) return 1;
  return static_cast<std::size_t>(value);
}

std::size_t PropertyIterations(std::size_t base) {
  const std::size_t multiplier = PropertyBudgetMultiplier();
  if (base != 0 &&
      multiplier > std::numeric_limits<std::size_t>::max() / base) {
    return std::numeric_limits<std::size_t>::max();
  }
  return base * multiplier;
}

std::uint64_t SubSeed(std::uint64_t base, const std::string& label) {
  // FNV-1a over the label folded into the base seed; stable across runs
  // and platforms.
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : label) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return base ^ hash;
}

}  // namespace f2db::testing
