#!/usr/bin/env bash
# Local verification, mirroring .github/workflows/ci.yml:
#
#   tier1       RelWithDebInfo build (-DREFIT_WERROR=ON) + the whole ctest
#               suite, including the `gate` ctests: refit-check, golden
#               GEMM/figure hashes, REFIT_THREADS=1-vs-4 identity, bench
#               smoke, bench-diff and the observability captures
#               (docs/tooling.md)
#   asan-ubsan  the suite without the gates under AddressSanitizer + UBSan
#   tsan        parallel-backend, device, store, detector, eval, train-step,
#               update and obs tests under ThreadSanitizer (REFIT_THREADS=4)
#
# All stages run even when an earlier one fails; a per-stage summary prints
# at the end and the exit status is non-zero if any stage failed. Extra
# arguments are forwarded to the tier-1 ctest invocation.
set -uo pipefail
cd "$(dirname "$0")/.."

declare -a STAGE_NAMES=() STAGE_RESULTS=()
stage() {  # stage <name> <description> <command>...
  local name=$1 rc=0
  echo
  echo "==================================================================="
  echo "== $name: $2"
  echo "==================================================================="
  shift 2
  "$@" || rc=1
  STAGE_NAMES+=("$name")
  STAGE_RESULTS+=("$rc")
}

tier1() {
  cmake -B build -S . -DREFIT_WERROR=ON &&
    cmake --build build -j &&
    ctest --test-dir build --output-on-failure -j "$(nproc)" "$@"
}

asan() {
  cmake -B build-asan -S . -DREFIT_SANITIZE=address,undefined &&
    cmake --build build-asan -j &&
    ctest --test-dir build-asan --output-on-failure -j "$(nproc)" -LE gate
}

# Runs the same GEMM kernel the flows run. The Device, CrossbarStore and
# Detector suites cover the tile-parallel lanes that write cells and bump
# per-tile mutation counts (tick_noise, program_tiles, detect_store); the
# Evaluate, TrainStep, Threshold and ObsTest suites cover the eval and
# train-step sample chunks, the weight-gradient items, the one update pass
# across stores and the span rule inside pool chunks.
tsan() {
  cmake -B build-tsan -S . -DREFIT_SANITIZE=thread &&
    cmake --build build-tsan -j --target test_backend test_device \
      test_crossbar_store test_detector test_network test_threshold \
      test_obs &&
    (cd build-tsan && REFIT_THREADS=4 ctest --output-on-failure \
       -R '^Backend|^Device|^CrossbarStore|^Detector|^Evaluate|^TrainStep|^Threshold|^ObsTest')
}

stage tier1 "build (-Werror) + full test suite with gates" tier1 "$@"
stage asan-ubsan "test suite under ASan + UBSan" asan
stage tsan "backend/device/store/detector/eval/train-step/update/obs tests under TSan (REFIT_THREADS=4)" tsan

echo
overall=0
for i in "${!STAGE_NAMES[@]}"; do
  if [[ ${STAGE_RESULTS[$i]} -eq 0 ]]; then
    printf '  %-12s PASS\n' "${STAGE_NAMES[$i]}"
  else
    printf '  %-12s FAIL\n' "${STAGE_NAMES[$i]}"
    overall=1
  fi
done
if [[ $overall -eq 0 ]]; then
  echo "All checks passed."
else
  echo "Some checks FAILED — see the stage output above."
fi
exit $overall
