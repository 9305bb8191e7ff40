// Failpoints: named fault-injection sites threaded through the hot paths.
//
// A failpoint is a named site in library code that tests and benches can
// arm with a trigger policy — always, every-Nth evaluation, or a
// probability drawn from a seeded deterministic Rng. There are two kinds of
// site, armed and evaluated through this one registry:
//
//   - Logical sites (engine.*, ts.*, math.*: model fitting, optimizer
//     convergence, insert ingestion, catalog decoding, lazy re-estimation).
//     A site that triggers makes the surrounding operation fail with
//     StatusCode::kUnavailable exactly as a real transient failure would,
//     which is how the engine's graceful-degradation ladder is exercised end
//     to end (DESIGN.md §7, "Failure semantics and the degradation ladder").
//   - I/O sites (io.*), at the storage/fsio choke points every durable write
//     routes through. A site that triggers fails the I/O call with the
//     policy's errno (EIO unless armed with enospc) or tears it with a short
//     write (DESIGN.md §15, "Disk-fault policy").
//
// Cost model: when no failpoint is armed anywhere, Triggered() and
// Evaluate() are a single relaxed atomic load — safe to leave in production
// hot paths. While any site is armed, evaluations serialize on one registry
// mutex (fault injection is a test/bench mode, not a production mode).
//
// Sites self-register at static-initialization time via F2DB_DEFINE_FAILPOINT
// so tests can enumerate every site linked into the binary
// (failpoint::RegisteredSites) and fire each one.

#ifndef F2DB_COMMON_FAILPOINT_H_
#define F2DB_COMMON_FAILPOINT_H_

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace f2db {
namespace failpoint {

/// What a fired site injects. Only I/O sites distinguish the kinds; a
/// logical site fails its operation the same way for either.
enum class FaultKind {
  kNone,        ///< Did not fire; perform the real operation.
  kError,       ///< Fail immediately with `err`; an I/O call writes nothing.
  kShortWrite,  ///< Write a prefix of the buffer for real, then fail with
                ///< `err` (a torn mid-call write).
};

/// One evaluation's outcome; `err` is 0 when the site did not fire.
struct Fault {
  FaultKind kind = FaultKind::kNone;
  int err = 0;
  bool injected() const { return kind != FaultKind::kNone; }
};

/// Per-site trigger policy: when the site fires, and what it injects.
struct Policy {
  enum class Mode {
    kOff,          ///< Never triggers.
    kAlways,       ///< Triggers on every evaluation.
    kEveryNth,     ///< Triggers on every n-th evaluation (n, 2n, 3n, ...).
    kProbability,  ///< Triggers with probability p per evaluation (seeded).
  };

  Mode mode = Mode::kOff;
  std::size_t every_n = 0;      ///< kEveryNth period (>= 1).
  double probability = 0.0;     ///< kProbability trigger chance in [0, 1].
  std::uint64_t seed = 42;      ///< Seeds the site's deterministic Rng.
  /// Stop triggering after this many triggers; 0 = unlimited. The site
  /// stays armed (counters keep advancing) but no longer fires — this is
  /// how a bounded fault window is expressed.
  std::size_t max_triggers = 0;
  FaultKind fault = FaultKind::kError;  ///< What an I/O site injects.
  int err = EIO;                        ///< errno an I/O site surfaces.

  static Policy Off() { return {}; }
  static Policy Always(std::size_t max_triggers = 0) {
    Policy p;
    p.mode = Mode::kAlways;
    p.max_triggers = max_triggers;
    return p;
  }
  static Policy EveryNth(std::size_t n, std::size_t max_triggers = 0) {
    Policy p;
    p.mode = Mode::kEveryNth;
    p.every_n = n;
    p.max_triggers = max_triggers;
    return p;
  }
  static Policy WithProbability(double probability, std::uint64_t seed = 42,
                                std::size_t max_triggers = 0) {
    Policy p;
    p.mode = Mode::kProbability;
    p.probability = probability;
    p.seed = seed;
    p.max_triggers = max_triggers;
    return p;
  }

  /// This policy, injecting errno `error` (e.g. ENOSPC) at an I/O site.
  Policy WithErrno(int error) const {
    Policy p = *this;
    p.err = error;
    return p;
  }
  /// This policy, tearing the write at an I/O site instead of failing it
  /// cleanly.
  Policy WithShortWrite() const {
    Policy p = *this;
    p.fault = FaultKind::kShortWrite;
    return p;
  }
};

/// Registers a site name (idempotent). Normally invoked through
/// F2DB_DEFINE_FAILPOINT at static-initialization time.
void Register(const std::string& site);

/// Names of all registered sites, sorted (sites linked into the binary via
/// F2DB_DEFINE_FAILPOINT plus any site ever armed or evaluated).
std::vector<std::string> RegisteredSites();

/// Arms `site` with `policy` (registering it if unknown) and resets the
/// site's counters and Rng stream.
void Enable(const std::string& site, const Policy& policy);

/// Disarms one site (counters are kept for post-mortem assertions).
void Disable(const std::string& site);

/// Disarms every site and clears all counters.
void DisableAll();

/// True while at least one site is armed.
bool AnyEnabled();

/// Evaluations of `site` since it was last armed.
std::size_t Evaluations(const std::string& site);

/// Triggers fired by `site` since it was last armed.
std::size_t Triggers(const std::string& site);

/// Decides whether — and how — `site` fails now. The fast path (no site
/// armed anywhere) is one relaxed atomic load. `site` may be nullptr
/// (anonymous I/O, never injected).
Fault Evaluate(const char* site);

/// Decides whether `site` fails now; Evaluate() for logical sites.
inline bool Triggered(const char* site) { return Evaluate(site).injected(); }

/// Parses a spec string into (site, policy) pairs without arming anything:
///   "engine.refit=always;engine.insert=nth:3;io.wal_append=eio:prob:0.1:7"
/// Entry grammar (';'-separated, whitespace ignored):
///   <site>=off | [<fault>][:<mode>]
///   <fault> := eio | enospc | short      (short = partial write + EIO)
///   <mode>  := always[:max] | nth:<n>[:max] | prob:<p>[:seed]
/// A fault keyword on its own means always; a mode on its own injects EIO
/// at an I/O site. <n> >= 1, <max> >= 0 (0 = unlimited), <p> in [0, 1].
/// Any malformed entry fails the whole spec with InvalidArgument.
Result<std::vector<std::pair<std::string, Policy>>> ParseSpec(
    const std::string& spec);

/// Arms every site of a ParseSpec() spec. Unknown sites are registered. A
/// malformed spec arms nothing.
Status EnableFromSpec(const std::string& spec);

/// Applies the F2DB_FAILPOINTS environment variable via EnableFromSpec
/// (no-op when unset). Returns the applied spec, empty when none. A
/// malformed spec is reported on stderr and ignored — unless
/// F2DB_FAILPOINTS_STRICT=1 is also set, in which case the process aborts
/// so a test run can never silently proceed with fault injection disabled.
std::string InitFromEnv();

/// Builds the Status an armed site injects: kUnavailable with the site name
/// in the message, so callers can tell injected/transient faults from
/// programmer errors.
Status InjectedFailure(const char* site);

/// RAII guard for tests: disarms every failpoint on destruction.
class ScopedDisableAll {
 public:
  ScopedDisableAll() = default;
  ScopedDisableAll(const ScopedDisableAll&) = delete;
  ScopedDisableAll& operator=(const ScopedDisableAll&) = delete;
  ~ScopedDisableAll() { DisableAll(); }
};

/// Static registrar behind F2DB_DEFINE_FAILPOINT.
class Registrar {
 public:
  explicit Registrar(const char* site) { Register(site); }
};

}  // namespace failpoint
}  // namespace f2db

/// Defines a failpoint site: a constant with the site name plus a static
/// registrar so the site shows up in failpoint::RegisteredSites() even
/// before its first evaluation. Use at namespace scope in the .cc (or
/// header) owning the site.
#define F2DB_DEFINE_FAILPOINT(identifier, site_name)                        \
  inline constexpr char identifier[] = site_name;                           \
  namespace f2db_failpoint_registrars {                                     \
  inline const ::f2db::failpoint::Registrar identifier##_registrar{         \
      site_name};                                                           \
  }

/// Injects a failure from a Status/Result-returning function when `site`
/// triggers.
#define F2DB_INJECT_FAILPOINT(site)                           \
  do {                                                        \
    if (::f2db::failpoint::Triggered(site)) {                 \
      return ::f2db::failpoint::InjectedFailure(site);        \
    }                                                         \
  } while (false)

#endif  // F2DB_COMMON_FAILPOINT_H_
