#!/usr/bin/env python3
"""Checks behind the `gate` ctests (docs/tooling.md).

Each subcommand asserts one contract, prints one line naming what it
checked, and exits 1 when the contract does not hold:

  run [--exit N] [--expect TEXT] [--sha256 FILE NAME] -- CMD...
      run CMD: it must exit N (default 0), TEXT must appear in its
      stdout+stderr, and the sha256 of its stdout must equal NAME's
      value in FILE (lines of "<name> <sha256>").
  gemm-hash BACKEND_JSON GOLDEN   gemm_output_hash equals the GOLDEN file
  roofline BACKEND_JSON           no 1-thread row beats the peak probe
  same FIELD A_JSON B_JSON        FIELD is equal in both artifacts
  device DEVICE_JSON              soft_faults artifact has rows + provenance
  trace TRACE_JSON                trace has phase spans
  metrics METRICS_JSON NAME...    snapshot is sorted and has every NAME
  csv-metric METRICS_CSV NAME     CSV snapshot has a row named NAME
  report HTML                     report embeds all payloads and charts
"""
import argparse
import csv
import hashlib
import json
import subprocess
import sys


class GateFailure(Exception):
    pass


def check(cond, message):
    if not cond:
        raise GateFailure(message)


def load(path):
    with open(path) as f:
        return json.load(f)


def run(args):
    check(args.cmd, "run needs a command after --")
    proc = subprocess.run(args.cmd, capture_output=True)
    output = (proc.stdout + proc.stderr).decode(errors="replace")
    sys.stdout.write(output)
    check(proc.returncode == args.exit,
          "exit status %d, want %d" % (proc.returncode, args.exit))
    if args.expect is not None:
        check(args.expect in output, "output lacks %r" % args.expect)
    if args.sha256 is not None:
        path, name = args.sha256
        with open(path) as f:
            golden = dict(line.split() for line in f if line.strip())
        got = hashlib.sha256(proc.stdout).hexdigest()
        check(got == golden[name],
              "%s stdout sha256 %s != golden %s" % (name, got, golden[name]))
    return "exit %d" % proc.returncode


def gemm_hash(args):
    got = load(args.json)["gemm_output_hash"]
    with open(args.golden) as f:
        want = f.read().strip()
    check(got == want, "gemm_output_hash %s != golden %s" % (got, want))
    return "gemm_output_hash " + got


def roofline(args):
    # The peak probe runs at the dispatched kernel's width, so no
    # single-lane row may beat it by more than timing noise.
    d = load(args.json)
    isa = d["provenance"]["gemm_isa"]
    over = ["%s frac_peak %.3f" % (r["name"], r["frac_peak"])
            for r in d["results"]
            if r["threads"] == 1 and r.get("frac_peak", 0.0) > 1.05]
    check(not over, "1-thread rows above 1.05 of the %s peak: %s"
          % (isa, ", ".join(over)))
    return "1-lane frac_peak <= 1.05 of the %s peak" % isa


def same(args):
    a = load(args.a)[args.field]
    b = load(args.b)[args.field]
    check(a == b, "%s differs between %s and %s" % (args.field, args.a, args.b))
    return "%s identical (%d bytes of JSON)" % (args.field, len(json.dumps(a)))


def device(args):
    d = load(args.json)
    check(d["bench"] == "device" and d["results"], "empty device results")
    check("provenance" in d, "missing provenance header")
    return "%d device rows" % len(d["results"])


def trace(args):
    events = load(args.json)["traceEvents"]
    phases = [e for e in events if e["cat"] == "phase"]
    check(phases, "no phase spans in trace")
    return "%d events, %d phase spans" % (len(events), len(phases))


def metrics(args):
    names = [m["name"] for m in load(args.json)["metrics"]]
    check(names == sorted(names), "metrics snapshot not sorted")
    missing = [n for n in args.names if n not in names]
    check(not missing, "missing metrics: " + ", ".join(missing))
    return "%d sorted metrics" % len(names)


def csv_metric(args):
    with open(args.csv) as f:
        rows = list(csv.DictReader(f))
    check(any(r["name"] == args.name for r in rows),
          "no %s row in the CSV snapshot" % args.name)
    return "%d CSV rows, %s present" % (len(rows), args.name)


def report(args):
    with open(args.html) as f:
        html = f.read()
    for pid in ("refit-trace", "refit-metrics", "refit-timeseries",
                "refit-events"):
        check('id="%s"' % pid in html, "report missing embedded payload " + pid)
    start = html.index('id="refit-metrics"')
    payload = html[html.index(">", start) + 1:html.index("</script>", start)]
    embedded = json.loads(payload.replace("<\\/", "</"))["metrics"]
    check(embedded, "embedded metrics payload is empty")
    charts = html.count("<svg")
    check(charts >= 3, "expected at least 3 charts, found %d" % charts)
    return "%d bytes, %d charts, %d metrics" % (len(html), charts, len(embedded))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("run")
    s.add_argument("--exit", type=int, default=0)
    s.add_argument("--expect")
    s.add_argument("--sha256", nargs=2, metavar=("FILE", "NAME"))
    s.add_argument("cmd", nargs=argparse.REMAINDER)
    s.set_defaults(fn=run)

    s = sub.add_parser("gemm-hash")
    s.add_argument("json")
    s.add_argument("golden")
    s.set_defaults(fn=gemm_hash)

    for name, fn, arg in (("roofline", roofline, "json"),
                          ("device", device, "json"),
                          ("trace", trace, "json"),
                          ("report", report, "html")):
        s = sub.add_parser(name)
        s.add_argument(arg)
        s.set_defaults(fn=fn)

    s = sub.add_parser("same")
    s.add_argument("field")
    s.add_argument("a")
    s.add_argument("b")
    s.set_defaults(fn=same)

    s = sub.add_parser("metrics")
    s.add_argument("json")
    s.add_argument("names", nargs="*")
    s.set_defaults(fn=metrics)

    s = sub.add_parser("csv-metric")
    s.add_argument("csv")
    s.add_argument("name")
    s.set_defaults(fn=csv_metric)

    args = p.parse_args()
    if getattr(args, "cmd", None) and args.cmd[0] == "--":
        args.cmd = args.cmd[1:]
    try:
        print("gate %s: OK (%s)" % (args.command, args.fn(args)))
    except GateFailure as e:
        print("gate %s: FAILED: %s" % (args.command, e))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
