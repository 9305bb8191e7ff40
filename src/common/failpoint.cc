#include "common/failpoint.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "common/rng.h"
#include "common/string_util.h"

namespace f2db {
namespace failpoint {
namespace {

/// One registered site. Counters reset whenever the site is (re-)armed.
struct Site {
  Policy policy;
  std::size_t evaluations = 0;
  std::size_t triggers = 0;
  std::unique_ptr<Rng> rng;  ///< Seeded stream for kProbability sites.
};

/// Registry state. `g_any_enabled` is the hot-path guard: Evaluate() reads
/// it with one relaxed load and bails before touching the mutex when no
/// site is armed anywhere.
std::atomic<bool> g_any_enabled{false};

std::mutex& RegistryMutex() {
  static std::mutex mutex;
  return mutex;
}

std::map<std::string, Site>& Registry() {
  static auto* registry = new std::map<std::string, Site>();
  return *registry;
}

/// Recomputes the fast-path guard. Caller holds RegistryMutex().
void RefreshAnyEnabledLocked() {
  bool any = false;
  for (const auto& [name, site] : Registry()) {
    if (site.policy.mode != Policy::Mode::kOff) {
      any = true;
      break;
    }
  }
  g_any_enabled.store(any, std::memory_order_relaxed);
}

/// Evaluates an armed site's policy. Caller holds RegistryMutex().
Fault EvaluateLocked(Site& site) {
  const Policy& policy = site.policy;
  if (policy.mode == Policy::Mode::kOff) return {};
  ++site.evaluations;
  if (policy.max_triggers > 0 && site.triggers >= policy.max_triggers) {
    return {};
  }
  bool fire = false;
  switch (policy.mode) {
    case Policy::Mode::kOff:
      break;
    case Policy::Mode::kAlways:
      fire = true;
      break;
    case Policy::Mode::kEveryNth:
      fire = policy.every_n >= 1 && site.evaluations % policy.every_n == 0;
      break;
    case Policy::Mode::kProbability:
      if (site.rng == nullptr) site.rng = std::make_unique<Rng>(policy.seed);
      fire = site.rng->NextDouble() < policy.probability;
      break;
  }
  if (!fire) return {};
  ++site.triggers;
  return Fault{policy.fault, policy.err};
}

/// Parses one "<site>=off | [<fault>][:<mode>]" entry.
Result<std::pair<std::string, Policy>> ParseEntry(std::string_view entry) {
  const auto invalid = [&](const char* what) {
    return Status::InvalidArgument(std::string("failpoint spec ") + what +
                                   ": " + std::string(entry));
  };
  const auto parse_max = [&](const std::string& text) -> Result<std::size_t> {
    F2DB_ASSIGN_OR_RETURN(const std::int64_t max, ParseInt(text));
    if (max < 0) return invalid("max must be >= 0");
    return static_cast<std::size_t>(max);
  };
  const std::size_t eq = entry.find('=');
  if (eq == std::string_view::npos) return invalid("entry missing '='");
  const std::string site{TrimWhitespace(entry.substr(0, eq))};
  if (site.empty()) return invalid("entry has empty site");
  const std::vector<std::string> parts =
      SplitString(TrimWhitespace(entry.substr(eq + 1)), ':');
  if (parts.empty() || parts[0].empty()) {
    return invalid("entry has empty policy");
  }
  if (parts[0] == "off") {
    if (parts.size() != 1) return invalid("'off' takes no arguments");
    return std::make_pair(site, Policy::Off());
  }

  // An optional fault keyword leads; on its own it means "always".
  Policy policy = Policy::Always();
  std::size_t at = 1;
  if (parts[0] == "short") {
    policy.fault = FaultKind::kShortWrite;
  } else if (parts[0] == "enospc") {
    policy.err = ENOSPC;
  } else if (parts[0] != "eio") {
    at = 0;
  }
  if (at == parts.size()) return std::make_pair(site, policy);

  const std::string& mode = parts[at];
  const std::size_t args = parts.size() - at - 1;
  if (mode == "always" && args <= 1) {
    if (args == 1) {
      F2DB_ASSIGN_OR_RETURN(policy.max_triggers, parse_max(parts[at + 1]));
    }
  } else if (mode == "nth" && (args == 1 || args == 2)) {
    F2DB_ASSIGN_OR_RETURN(const std::int64_t n, ParseInt(parts[at + 1]));
    if (n < 1) return invalid("nth period must be >= 1");
    policy.mode = Policy::Mode::kEveryNth;
    policy.every_n = static_cast<std::size_t>(n);
    if (args == 2) {
      F2DB_ASSIGN_OR_RETURN(policy.max_triggers, parse_max(parts[at + 2]));
    }
  } else if (mode == "prob" && (args == 1 || args == 2)) {
    F2DB_ASSIGN_OR_RETURN(const double p, ParseDouble(parts[at + 1]));
    // Written so NaN fails too: it would arm a site that never fires.
    if (!(p >= 0.0 && p <= 1.0)) {
      return invalid("probability must be in [0, 1]");
    }
    policy.mode = Policy::Mode::kProbability;
    policy.probability = p;
    if (args == 2) {
      F2DB_ASSIGN_OR_RETURN(const std::int64_t seed, ParseInt(parts[at + 2]));
      policy.seed = static_cast<std::uint64_t>(seed);
    }
  } else {
    return invalid("has an unknown policy");
  }
  return std::make_pair(site, policy);
}

}  // namespace

void Register(const std::string& site) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Registry().try_emplace(site);
}

std::vector<std::string> RegisteredSites() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<std::string> out;
  out.reserve(Registry().size());
  for (const auto& [name, site] : Registry()) out.push_back(name);
  return out;  // std::map iterates in sorted order
}

void Enable(const std::string& site, const Policy& policy) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Site& entry = Registry()[site];
  entry.policy = policy;
  entry.evaluations = 0;
  entry.triggers = 0;
  entry.rng.reset();
  RefreshAnyEnabledLocked();
}

void Disable(const std::string& site) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  const auto it = Registry().find(site);
  if (it != Registry().end()) {
    it->second.policy = Policy::Off();
    it->second.rng.reset();
  }
  RefreshAnyEnabledLocked();
}

void DisableAll() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (auto& [name, site] : Registry()) {
    site.policy = Policy::Off();
    site.evaluations = 0;
    site.triggers = 0;
    site.rng.reset();
  }
  g_any_enabled.store(false, std::memory_order_relaxed);
}

bool AnyEnabled() { return g_any_enabled.load(std::memory_order_relaxed); }

std::size_t Evaluations(const std::string& site) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  const auto it = Registry().find(site);
  return it == Registry().end() ? 0 : it->second.evaluations;
}

std::size_t Triggers(const std::string& site) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  const auto it = Registry().find(site);
  return it == Registry().end() ? 0 : it->second.triggers;
}

Fault Evaluate(const char* site) {
  if (site == nullptr) return {};
  if (!g_any_enabled.load(std::memory_order_relaxed)) return {};
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Site& entry = Registry()[site];
  return EvaluateLocked(entry);
}

Result<std::vector<std::pair<std::string, Policy>>> ParseSpec(
    const std::string& spec) {
  std::vector<std::pair<std::string, Policy>> parsed;
  for (const std::string& raw : SplitString(spec, ';')) {
    const std::string_view entry = TrimWhitespace(raw);
    if (entry.empty()) continue;
    F2DB_ASSIGN_OR_RETURN(auto armed, ParseEntry(entry));
    parsed.push_back(std::move(armed));
  }
  return parsed;
}

Status EnableFromSpec(const std::string& spec) {
  // Validate the whole spec before arming anything, so a malformed entry
  // cannot leave the registry half-configured.
  F2DB_ASSIGN_OR_RETURN(const auto parsed, ParseSpec(spec));
  for (const auto& [site, policy] : parsed) Enable(site, policy);
  return Status::OK();
}

std::string InitFromEnv() {
  const char* spec = std::getenv("F2DB_FAILPOINTS");
  if (spec == nullptr || spec[0] == '\0') return "";
  const Status status = EnableFromSpec(spec);
  if (!status.ok()) {
    // A silently ignored spec means a fault-injection test run that tests
    // nothing. Under F2DB_FAILPOINTS_STRICT=1 that is fatal; otherwise the
    // legacy behavior (warn and run un-injected) is kept for benches.
    const char* strict = std::getenv("F2DB_FAILPOINTS_STRICT");
    if (strict != nullptr && strict[0] == '1') {
      std::fprintf(stderr,
                   "F2DB_FAILPOINTS malformed (strict mode, aborting): %s\n",
                   status.ToString().c_str());
      std::abort();
    }
    std::fprintf(stderr, "F2DB_FAILPOINTS ignored: %s\n",
                 status.ToString().c_str());
    return "";
  }
  return spec;
}

Status InjectedFailure(const char* site) {
  return Status::Unavailable(std::string("failpoint '") + site +
                             "' injected failure");
}

}  // namespace failpoint
}  // namespace f2db
