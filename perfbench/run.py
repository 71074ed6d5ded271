#!/usr/bin/env python3
"""End-to-end benchmark of REFIT's paper flows.

Run from the repository root:

    python3 perfbench/run.py --workload cnn_fig7a --seed 7 --seconds 15 --trace 0

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later calls rebuild incrementally. The program
then runs the workload with the library's pool at
REFIT_THREADS = min(available CPUs, 4), checks every curve's digest and
prints, as its last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Lines before it give the provenance and a readable table.
See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "refit_perfbench")
REFERENCE = os.path.join(HERE, "reference_digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("mlp_online", "cnn_fig7a", "cnn_fig7b_fc")
# The seed whose digests are recorded in reference_digests.json.
DEFAULT_SEED = 1
# Every run must end within this many seconds, build excluded.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """A failure that leaves no result to print."""


def run_child(cmd, timeout=None, **kwargs):
    """Run `cmd` in its own process group and return (returncode, stdout).

    On a timeout, or when this script is interrupted or terminated, the
    whole group is stopped and waited for, so no compiler or driver process
    outlives the benchmark. SIGTERM comes first so that make deletes the
    half-written target instead of leaving it to look up to date.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, text=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        stop_group(proc)
        raise
    return proc.returncode, out


def stop_group(proc):
    """Signal `proc`'s process group until no member is left."""
    for sig, grace_s in ((signal.SIGTERM, 10.0), (signal.SIGKILL, 10.0)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        end = time.monotonic() + grace_s
        while time.monotonic() < end:
            proc.poll()  # reap the leader, so only live members count
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                proc.wait()
                return
            time.sleep(0.05)
    proc.wait()


def pool_threads():
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found at %s" % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(pool_threads())])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        code, _ = run_child(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if code != 0:
            raise BenchError("build step failed: %s" % " ".join(cmd))


def run_driver(workload, seed, seconds, mode, size, threads, deadline):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--mode", mode, "--size", size]
    env = dict(os.environ, REFIT_THREADS=str(threads))
    timeout = max(1.0, deadline - time.monotonic())
    try:
        code, out = run_child(cmd, timeout=timeout, env=env,
                              stdout=subprocess.PIPE, stderr=sys.stderr)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % " ".join(cmd))
    if code != 0:
        raise BenchError("%s exited with %d" % (" ".join(cmd), code))
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("%s printed nothing" % " ".join(cmd))
    return json.loads(lines[-1])


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (SPEC, e))


def reference_digests(workload):
    with open(REFERENCE) as f:
        ref = json.load(f)
    if ref.get("seed") != DEFAULT_SEED or workload not in ref["workloads"]:
        raise BenchError("reference_digests.json has no entry for %s" % workload)
    return ref["workloads"][workload]


def count_mismatches(series_list, expected):
    """Curves in any pass of `series_list` whose digest differs from `expected`."""
    bad = 0
    for series in series_list:
        for p in series["passes"]:
            for curve, digest in p["digests"].items():
                if expected.get(curve) != digest:
                    bad += 1
    return bad


def first_digests(series):
    if not series["passes"]:
        raise BenchError("no pass completed: %s" % "; ".join(series["errors"]))
    return series["passes"][0]["digests"]


def measure(args, threads, deadline):
    res = run_driver(args.workload, args.seed, args.seconds, "measure",
                     args.size, threads, deadline)
    series = res["untraced"]
    attempted, failed = series["attempted"], series["failed"]
    if args.seed == DEFAULT_SEED and args.size == "full":
        expected = reference_digests(args.workload)
    else:
        # Any other seed: the same curves at one thread are the reference.
        ref = run_driver(args.workload, args.seed, 0, "measure", args.size, 1,
                         deadline)
        attempted += ref["untraced"]["attempted"]
        failed += ref["untraced"]["failed"]
        expected = first_digests(ref["untraced"])
    failed += count_mismatches([series], expected)
    first_digests(series)

    sim = res["simulated"]
    walls = [p["wall_s"] for p in series["passes"]]
    setups = [p["setup_s"] for p in series["passes"]] + res["setup_only_s"]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "detect_precision": (sim["detect_precision"], "ratio"),
        "detect_recall": (sim["detect_recall"], "ratio"),
    }
    shown = dict(metrics)
    shown["acc_final"] = (sim["acc_final"], "ratio")
    shown["device_writes_M"] = (sim["device_writes_M"], "Mwrites")
    shown["detect_cycles"] = (sim["detect_cycles"], "cycles")
    shown["passes"] = (len(walls), "count")
    return dict(provenance=res["provenance"], digests=series["passes"][0]["digests"],
                attempted=attempted, failed=failed, metrics=metrics, shown=shown)


def trace(args, threads, deadline):
    res = run_driver(args.workload, args.seed, args.seconds, "trace",
                     args.size, threads, deadline)
    runs = [res["untraced"], res["traced"], res["traced_1t"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # Traced and 1-thread passes must reproduce the untraced curves exactly.
    expected = first_digests(res["untraced"])
    if args.seed == DEFAULT_SEED and args.size == "full":
        if reference_digests(args.workload) != expected:
            failed += len(expected)
    failed += count_mismatches(runs, expected)
    if "metrics" not in res:
        raise BenchError("traced run produced no metrics")
    metrics = {k: (v["value"], v["unit"]) for k, v in res["metrics"].items()}
    return dict(provenance=res["provenance"], digests=expected,
                attempted=attempted, failed=failed, metrics=metrics, shown=metrics)


def record_reference():
    """Rewrite reference_digests.json from 1-thread runs at DEFAULT_SEED."""
    build()
    ref = {"seed": DEFAULT_SEED, "workloads": {}}
    for w in WORKLOADS:
        deadline = time.monotonic() + RUN_LIMIT_S
        res = run_driver(w, DEFAULT_SEED, 0, "measure", "full", 1, deadline)
        ref["workloads"][w] = first_digests(res["untraced"])
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %s" % REFERENCE)


def terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record-reference", action="store_true",
                    help="re-record reference_digests.json and exit")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the benchmark's own smoke size")
    args = ap.parse_args(argv)

    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        spec = load_spec()
        build()
        deadline = time.monotonic() + RUN_LIMIT_S
        threads = pool_threads()
        run = trace if args.trace else measure
        result = run(args, threads, deadline)
        listed = spec["per_layer" if args.trace else "end_to_end"]
        out = {}
        for m in listed:
            if m["name"] not in result["metrics"]:
                raise BenchError("metric %s missing" % m["name"])
            value, unit = result["metrics"][m["name"]]
            if unit != m["unit"]:
                raise BenchError("metric %s has unit %s, not %s" % (m["name"], unit, m["unit"]))
            out[m["name"]] = {"value": value, "unit": unit}
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    print(json.dumps({"provenance": result["provenance"], "trace": args.trace,
                      "digests": result["digests"]}))
    for name in sorted(result["shown"]):
        value, unit = result["shown"][name]
        print("%-32s %16.6g %s" % (name, value, unit))
    failed = result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
