#!/usr/bin/env bash
# Local verification, mirroring .github/workflows/ci.yml:
#
#   tier1       RelWithDebInfo build (-DREFIT_WERROR=ON) + full ctest suite
#               (the build includes the header self-sufficiency stubs)
#   check       refit-check static analysis (lint, audit, flow and det rule
#               families) over src/tests/bench/examples/tools
#   det-smoke   dynamic determinism check: the backend GEMM hash and the
#               soft-fault result rows must be byte-identical at
#               REFIT_THREADS=1 and REFIT_THREADS=4
#   bench-smoke figure-reproduction benches end to end under REFIT_FAST=1
#   obs-smoke   quickstart with --trace-out/--metrics-out; both outputs must
#               be valid JSON with the expected top-level shape
#   obs-report  timeseries/event JSONL byte-identical at REFIT_THREADS=1 vs 4
#               under --manual-clock; refit-report renders the HTML dashboard;
#               refit-bench-diff gates fresh REFIT_FAST runs vs BENCH_*.json
#   asan-ubsan  full suite under AddressSanitizer + UBSan
#   tsan        parallel-backend tests under ThreadSanitizer (REFIT_THREADS=4)
#
# All stages run even when an earlier one fails; a per-stage summary prints
# at the end and the exit status is non-zero if any stage failed. Extra
# arguments are forwarded to the tier-1 ctest invocation.
set -uo pipefail
cd "$(dirname "$0")/.."

declare -a STAGE_NAMES=() STAGE_RESULTS=()
record() {  # record <name> <exit-code>
  STAGE_NAMES+=("$1")
  STAGE_RESULTS+=("$2")
}

banner() {
  echo
  echo "==================================================================="
  echo "== $1"
  echo "==================================================================="
}

banner "tier1: build (-Werror) + full test suite"
tier1_rc=1
if cmake -B build -S . -DREFIT_WERROR=ON &&
   cmake --build build -j &&
   ctest --test-dir build --output-on-failure -j "$@"; then
  tier1_rc=0
fi
record tier1 $tier1_rc

banner "check: refit-check static analysis"
check_rc=1
if [[ ! -x build/tools/refit_check ]]; then
  # The tier-1 build failed before producing the analyzer; try to build
  # just it.
  cmake --build build -j --target refit_check || true
fi
if ./build/tools/refit_check; then
  check_rc=0
fi
record check $check_rc

banner "det-smoke: artifacts byte-identical at REFIT_THREADS=1 vs 4"
# The dynamic half of the determinism contract refit-check's det rules
# check statically: the deterministic artifact fields (backend
# gemm_output_hash, device result rows) must not change with the
# worker-thread count. Provenance
# fields (hardware_threads, scaling_valid, timings) are excluded — those
# describe the host and the run, not the computation.
detsmoke_rc=0
smoke_dir=$(mktemp -d)
for t in 1 4; do
  if ! REFIT_FAST=1 REFIT_THREADS=$t \
       REFIT_BENCH_OUT="$smoke_dir/backend_$t.json" \
       ./build/bench/bench_backend > /dev/null; then
    echo "  bench_backend (REFIT_THREADS=$t) FAILED"
    detsmoke_rc=1
  fi
  if ! REFIT_FAST=1 REFIT_THREADS=$t \
       REFIT_BENCH_OUT="$smoke_dir/device_$t.json" \
       ./build/bench/soft_faults > /dev/null 2>&1; then
    echo "  soft_faults (REFIT_THREADS=$t) FAILED"
    detsmoke_rc=1
  fi
done
if [[ $detsmoke_rc -eq 0 ]]; then
  python3 - "$smoke_dir" <<'EOF' || detsmoke_rc=1
import json, sys
d = sys.argv[1]
b1 = json.load(open(d + "/backend_1.json"))
b4 = json.load(open(d + "/backend_4.json"))
assert b1["gemm_output_hash"] == b4["gemm_output_hash"], (
    "gemm_output_hash differs across REFIT_THREADS: "
    + b1["gemm_output_hash"] + " != " + b4["gemm_output_hash"])
r1 = json.load(open(d + "/device_1.json"))["results"]
r4 = json.load(open(d + "/device_4.json"))["results"]
assert r1 == r4, "soft_faults result rows differ across REFIT_THREADS"
print("  gemm_output_hash " + b1["gemm_output_hash"] + " and "
      + str(len(r1)) + " device rows identical at REFIT_THREADS=1 and 4")
EOF
fi
rm -rf "$smoke_dir"
record det-smoke $detsmoke_rc

banner "bench-smoke: figure benches under REFIT_FAST=1"
bench_rc=0
for b in fig1_motivation fig6_detection fig7a_entire_cnn fig7b_fc_only \
         ablation_modulo ablation_remap ablation_wear_leveling \
         ablation_detection_period ablation_ir_drop; do
  if REFIT_FAST=1 "./build/bench/$b" > /dev/null; then
    echo "  $b OK"
  else
    echo "  $b FAILED"
    bench_rc=1
  fi
done
# Device/encoding bench: runs the three scenario families and must emit a
# parseable BENCH_device.json (provenance header + results array).
device_json=$(mktemp)
if REFIT_FAST=1 REFIT_BENCH_OUT="$device_json" ./build/bench/soft_faults \
     > /dev/null 2>&1 &&
   python3 -c "import json,sys; d = json.load(open(sys.argv[1]));
assert d['bench'] == 'device' and d['results'], 'empty device results'
assert 'provenance' in d, 'missing provenance header'" "$device_json"; then
  echo "  soft_faults OK ($(grep -c '"family"' "$device_json") rows)"
else
  echo "  soft_faults FAILED"
  bench_rc=1
fi
rm -f "$device_json"
# Golden-GEMM gate: the deterministic matmul_512 output hash in the backend
# bench must match bench/gemm_golden_hash.txt. Any kernel change that alters
# bits fails here; regenerate the golden file only with a bit-identity
# justification (see docs/kernels.md).
bench_json=$(mktemp)
if REFIT_FAST=1 REFIT_BENCH_OUT="$bench_json" ./build/bench/bench_backend \
     > /dev/null; then
  want=$(cat bench/gemm_golden_hash.txt)
  got=$(sed -n 's/.*"gemm_output_hash": "\([0-9a-f]*\)".*/\1/p' "$bench_json")
  if [[ "$got" == "$want" ]]; then
    echo "  bench_backend OK (gemm_output_hash $got)"
  else
    echo "  bench_backend FAILED: gemm_output_hash $got != golden $want"
    bench_rc=1
  fi
  # Roofline sanity: the peak probe runs at the dispatched kernel's width,
  # so no single-lane row may beat it by more than timing noise.
  if ! python3 - "$bench_json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
isa = d["provenance"]["gemm_isa"]
over = [(r["name"], r["frac_peak"]) for r in d["results"]
        if r["threads"] == 1 and r.get("frac_peak", 0.0) > 1.05]
for name, frac in over:
    print("  bench_backend FAILED: %s at 1 thread reports frac_peak %.3f > 1.05"
          " of the %s peak" % (name, frac, isa))
if not over:
    print("  bench_backend OK (1-lane frac_peak <= 1.05 of the %s peak)" % isa)
sys.exit(1 if over else 0)
EOF
  then
    bench_rc=1
  fi
else
  echo "  bench_backend FAILED"
  bench_rc=1
fi
rm -f "$bench_json"
# Figure golden gate: the REFIT_FAST=1 stdout of the paper-figure drivers
# (their CSVs) must hash to bench/figure_golden_hashes.txt at
# REFIT_THREADS=1 and 4. Regenerate only with a bit-identity justification.
while read -r fig want; do
  for t in 1 4; do
    got=$(REFIT_FAST=1 REFIT_THREADS=$t "./build/bench/$fig" 2> /dev/null |
          sha256sum | cut -d' ' -f1)
    if [[ "$got" == "$want" ]]; then
      echo "  $fig OK at REFIT_THREADS=$t (sha256 matches golden)"
    else
      echo "  $fig FAILED at REFIT_THREADS=$t: sha256 $got != golden $want"
      bench_rc=1
    fi
  done
done < bench/figure_golden_hashes.txt
record bench-smoke $bench_rc

banner "obs-smoke: trace + metrics capture through quickstart"
obs_rc=1
obs_dir=$(mktemp -d)
if REFIT_FAST=1 ./build/examples/quickstart \
     "--trace-out=$obs_dir/trace.json" \
     "--metrics-out=$obs_dir/metrics.json" > /dev/null &&
   python3 - "$obs_dir" <<'EOF'
import json, sys
d = sys.argv[1]
trace = json.load(open(d + "/trace.json"))
assert isinstance(trace["traceEvents"], list) and trace["traceEvents"], \
    "trace has no events"
phases = [e for e in trace["traceEvents"] if e["cat"] == "phase"]
assert phases, "no phase spans in trace"
metrics = json.load(open(d + "/metrics.json"))
names = [m["name"] for m in metrics["metrics"]]
assert names == sorted(names), "metrics snapshot not sorted"
for want in ("engine.iterations", "store.writes", "pool.parallel_for.calls"):
    assert want in names, "missing metric " + want
print("  trace events:", len(trace["traceEvents"]),
      "| phase spans:", len(phases), "| metrics:", len(names))
EOF
then
  obs_rc=0
fi
rm -rf "$obs_dir"
record obs-smoke $obs_rc

banner "obs-report: timeseries/event determinism, HTML report, bench gate"
# Three checks (docs/observability.md, docs/tooling.md):
#   1. Under --manual-clock the quickstart timeseries + event JSONL are
#      byte-identical at REFIT_THREADS=1 and 4 — the dynamic half of the
#      golden tests in tests/test_timeseries.cpp / test_events.cpp.
#   2. refit-report renders one self-contained HTML page from the captures
#      with all four payloads embedded.
#   3. refit-bench-diff gates fresh REFIT_FAST bench runs against the
#      checked-in BENCH_*.json baselines (deterministic fields exact;
#      timing noise-gated by provenance/scaling_valid).
report_rc=0
report_dir=$(mktemp -d)
for t in 1 4; do
  if ! REFIT_FAST=1 REFIT_THREADS=$t ./build/examples/quickstart \
       --manual-clock \
       "--trace-out=$report_dir/trace_$t.json" \
       "--metrics-out=$report_dir/metrics_$t.json" \
       "--timeseries-out=$report_dir/ts_$t.jsonl" \
       "--events-out=$report_dir/events_$t.jsonl" > /dev/null; then
    echo "  quickstart (REFIT_THREADS=$t) FAILED"
    report_rc=1
  fi
done
if [[ $report_rc -eq 0 ]]; then
  if cmp -s "$report_dir/ts_1.jsonl" "$report_dir/ts_4.jsonl"; then
    echo "  timeseries JSONL byte-identical at REFIT_THREADS=1 and 4" \
         "($(wc -c < "$report_dir/ts_1.jsonl") bytes)"
  else
    echo "  timeseries JSONL DIFFERS across REFIT_THREADS"
    report_rc=1
  fi
  if cmp -s "$report_dir/events_1.jsonl" "$report_dir/events_4.jsonl"; then
    echo "  event JSONL byte-identical at REFIT_THREADS=1 and 4" \
         "($(wc -l < "$report_dir/events_1.jsonl") events)"
  else
    echo "  event JSONL DIFFERS across REFIT_THREADS"
    report_rc=1
  fi
fi
if [[ ! -x build/tools/refit_report ]]; then
  cmake --build build -j --target refit_report || true
fi
if ./build/tools/refit_report \
     --trace "$report_dir/trace_1.json" \
     --metrics "$report_dir/metrics_1.json" \
     --timeseries "$report_dir/ts_1.jsonl" \
     --events "$report_dir/events_1.jsonl" \
     --title "check.sh quickstart" \
     --out "$report_dir/report.html" 2> /dev/null &&
   python3 - "$report_dir/report.html" <<'EOF'
import json, sys
html = open(sys.argv[1]).read()
for pid in ("refit-trace", "refit-metrics", "refit-timeseries", "refit-events"):
    marker = 'id="%s"' % pid
    assert marker in html, "report missing embedded payload " + pid
start = html.index('id="refit-metrics"')
payload = html[html.index(">", start) + 1:html.index("</script>", start)]
metrics = json.loads(payload.replace("<\\/", "</"))
assert metrics["metrics"], "embedded metrics payload is empty"
assert html.count("<svg") >= 3, "expected at least 3 rendered charts"
print("  report.html OK (%d bytes, %d charts, %d metrics embedded)"
      % (len(html), html.count("<svg"), len(metrics["metrics"])))
EOF
then
  :
else
  echo "  refit-report FAILED"
  report_rc=1
fi
if [[ ! -x build/tools/refit_bench_diff ]]; then
  cmake --build build -j --target refit_bench_diff || true
fi
for gate in "BENCH_backend.json bench_backend" "BENCH_device.json soft_faults"; do
  base=${gate% *}
  bin=${gate#* }
  if REFIT_FAST=1 REFIT_BENCH_OUT="$report_dir/fresh.json" \
       "./build/bench/$bin" > /dev/null 2>&1 &&
     ./build/tools/refit_bench_diff --baseline "$base" \
       --candidate "$report_dir/fresh.json" 2>&1 | sed 's/^/  /'; then
    echo "  bench-diff vs $base OK"
  else
    echo "  bench-diff vs $base FAILED"
    report_rc=1
  fi
done
rm -rf "$report_dir"
record obs-report $report_rc

banner "asan-ubsan: full test suite under ASan + UBSan"
asan_rc=1
if cmake -B build-asan -S . -DREFIT_SANITIZE=address,undefined &&
   cmake --build build-asan -j &&
   ctest --test-dir build-asan --output-on-failure -j; then
  asan_rc=0
fi
record asan-ubsan $asan_rc

banner "tsan: backend + device tests under TSan (REFIT_THREADS=4, fast reduce)"
# REFIT_FAST_REDUCE=1 exercises the opt-in fast reduction mode under TSan;
# the backend determinism assertions still hold because fast mode is
# thread-count-invariant per element (see docs/kernels.md). The Device
# suites cover the tile-parallel tick_noise / classify_soft paths.
tsan_rc=1
if cmake -B build-tsan -S . -DREFIT_SANITIZE=thread &&
   cmake --build build-tsan -j --target test_backend test_device &&
   (cd build-tsan &&
    REFIT_THREADS=4 REFIT_FAST_REDUCE=1 ctest --output-on-failure \
      -R '^Backend|^Device'); then
  tsan_rc=0
fi
record tsan $tsan_rc

banner "summary"
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
