#!/usr/bin/env bash
# Configure, build and run the sensitive suites under sanitizers with
# one command — the recipe ROADMAP.md used to carry as prose.
#
#   asan (default): storage/join/fuzz/kernel-differential/plan/
#                   governor/fault-injection/session/lazy-once suites
#                   under ASan + UBSan (the session suite pins catalog
#                   snapshots across replaces — the UAF regression lives
#                   there).
#   tsan:           the threaded suites (morsel scheduler, join probe,
#                   fused pipelines, the differential fuzz harness and
#                   the operator differentials against the reference
#                   evaluator — which run every operator at threads=7 — the
#                   governor's cross-thread cancellation storms, the
#                   concurrent-session suite with mid-flight catalog
#                   republishes, and the shared-relation lazy caches)
#                   under ThreadSanitizer; then the session, morsel,
#                   lazy-once, governor and plan suites again with
#                   --gtest_repeat=20, since a race shows up only on some
#                   interleavings (the shared filter pass runs every
#                   filtered scan and fused join probe on morsel
#                   workers).
#   all:            both, sequentially.
#
# Usage:
#   tools/run_sanitizers.sh                  # asan, 40 fuzz cases
#   tools/run_sanitizers.sh tsan             # ThreadSanitizer pass
#   tools/run_sanitizers.sh all
#   EVIDENT_FUZZ_ITERS=400 tools/run_sanitizers.sh tsan
#   tools/run_sanitizers.sh asan -R 'storage_test'   # extra args to ctest
#
# Uses the "asan"/"tsan" CMake presets (CMakePresets.json) when the
# local cmake supports presets, and falls back to the equivalent
# explicit flags otherwise. The sanitized trees live in build-asan/ and
# build-tsan/, separate from the regular build/.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-asan}"
case "${MODE}" in
  asan|tsan|all) shift || true ;;
  -*) MODE=asan ;;  # bare ctest args: keep the old default behaviour
  *) echo "usage: $0 [asan|tsan|all] [ctest args...]" >&2; exit 2 ;;
esac

: "${EVIDENT_FUZZ_ITERS:=40}"
export EVIDENT_FUZZ_ITERS

run_pass() {
  local preset="$1"; shift
  local build_dir="build-${preset}"
  local flags
  case "${preset}" in
    asan) flags="-fsanitize=address,undefined -fno-sanitize-recover=all" ;;
    tsan) flags="-fsanitize=thread -fno-sanitize-recover=all" ;;
  esac
  local targets=(storage_test join_test fuzz_differential_test
                 kernel_differential_test plan_test morsel_test governor_test
                 fault_injection_test session_test lazy_once_test)
  local filter='^(storage_test|join_test|fuzz_differential_test|kernel_differential_test|plan_test|morsel_test|governor_test|fault_injection_test|session_test|lazy_once_test)$'

  if cmake --list-presets >/dev/null 2>&1; then
    cmake --preset "${preset}" || {
      echo "error: cmake configure failed for preset '${preset}'" \
           "(see output above; is a sanitizer-capable compiler installed?)" >&2
      exit 1
    }
  else
    cmake -B "${build_dir}" -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DEVIDENT_BUILD_BENCHES=OFF \
      -DEVIDENT_BUILD_EXAMPLES=OFF \
      -DCMAKE_CXX_FLAGS="${flags}" || {
      echo "error: cmake configure failed for '${build_dir}'" \
           "(see output above; is a sanitizer-capable compiler installed?)" >&2
      exit 1
    }
  fi

  cmake --build "${build_dir}" -j "$(nproc)" --target "${targets[@]}"

  echo "== ${preset}: running sanitized suites (EVIDENT_FUZZ_ITERS=${EVIDENT_FUZZ_ITERS}) =="
  ctest --test-dir "${build_dir}" --output-on-failure -R "${filter}" "$@"

  if [[ "${preset}" == tsan ]]; then
    local suite
    for suite in session_test morsel_test lazy_once_test governor_test \
                 plan_test; do
      echo "== tsan: ${suite} --gtest_repeat=20 =="
      "${build_dir}/${suite}" --gtest_repeat=20 --gtest_brief=1
    done
  fi
}

case "${MODE}" in
  asan) run_pass asan "$@" ;;
  tsan) run_pass tsan "$@" ;;
  all)  run_pass asan "$@"; run_pass tsan "$@" ;;
esac
