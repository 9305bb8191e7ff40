#!/usr/bin/env bash
# Flake audit (satellite f): run the concurrency-sensitive suites —
# concurrent engine stress, thread pool, fault injection, the TCP server
# integration tests, the shared series panels, the flat model tables
# (parameter/state split, allocation-free publication) and the durable
# log's timing-dependent background thread, with the read-only and scrub
# suites that poll it — repeatedly under
# ThreadSanitizer until one fails or the repeat budget is exhausted. A
# test that cannot survive REPEATS back-to-back runs under tsan is flaky
# by definition and must be deflaked, not retried.
#
# Usage: scripts/flake_audit.sh [REPEATS]
#   REPEATS   repeats per test (default 50; CI uses the default)
#
# Writes a per-suite PASS/FAIL table to
# $BUILD_DIR/flake_audit_summary.txt and exits nonzero on any failure.

set -u -o pipefail

REPEATS="${1:-50}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$REPO_ROOT/build-tsan"
SUMMARY="$BUILD_DIR/flake_audit_summary.txt"

# The audit surface: the concurrency-sensitive suites (the tsan preset
# itself runs the whole suite once), split so the summary attributes a
# failure to a suite rather than to "the run".
SUITES=(
  "Concurrent"
  "ThreadPool"
  "FaultInjection"
  "ServerIntegration"
  "TimeSeries"
  "Graph"
  "ModelContract"
  "Arima"
  "PublicationAllocation"
  "BackgroundScheduler"
  "ReadOnly"
  "Scrub"
)

cd "$REPO_ROOT"

echo "== flake audit: configuring tsan preset =="
cmake --preset tsan >/dev/null
echo "== flake audit: building =="
cmake --build --preset tsan -j "$(nproc)" >/dev/null

: > "$SUMMARY"
overall=0
for suite in "${SUITES[@]}"; do
  echo "== flake audit: $suite x$REPEATS under tsan =="
  if (cd "$BUILD_DIR" && \
      TSAN_OPTIONS="halt_on_error=1:suppressions=$REPO_ROOT/tsan.supp" \
      ctest -R "$suite" --repeat "until-fail:$REPEATS" \
            --output-on-failure 2>&1 | tail -5); then
    echo "PASS  $suite (x$REPEATS)" >> "$SUMMARY"
  else
    echo "FAIL  $suite (x$REPEATS)" >> "$SUMMARY"
    overall=1
  fi
done

echo "== flake audit summary =="
cat "$SUMMARY"
exit "$overall"
