#!/usr/bin/env python3
"""Smoke-check the admission-control service surface (ISSUE-9).

With no third-party dependencies:
  * drives ioguard_admitd over a scripted admit -> churn -> re-admit
    session and asserts one well-formed JSON response per request line;
  * repeats the identical session with --no-memoize and asserts the
    decision streams are byte-identical (the incremental re-analysis
    contract; stats lines are excluded since counters legitimately differ);
  * injects malformed lines mid-session and asserts the daemon answers an
    {"ok": false, "code": ...} diagnostic and keeps serving (exit 0 at EOF);
  * admits a VM of utilization exactly 3/4, whose server synthesis meets an
    exactly-zero Theorem 4 slack, and asserts an "ok":true,"admitted":false
    decision with the daemon still serving;
  * optionally validates that BENCH_admission_service.json carries finite
    admissions_per_second / incremental_speedup metrics (threshold gating
    lives in check_bench.py --min-metric=incremental_speedup:5).

Usage: check_admission_service.py --daemon=PATH [--bench=FILE.json]
Exit status: 0 all checks pass, 1 any failure, 2 usage errors.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

FAILURES = []


def fail(msg):
    FAILURES.append(msg)
    print(f"FAIL: {msg}", file=sys.stderr)


def vm_tasks(base_id):
    return [
        {"id": base_id, "period": 100, "wcet": 3, "deadline": 90},
        {"id": base_id + 1, "period": 400, "wcet": 8},
    ]


# Utilization 17/102 + 82/141 + 1/564 = 3/4 exactly: synthesis tries
# Theta = 15 at Pi = 20, where the Theorem 4 slack is exactly zero but its
# double rounds to +1.1e-16. It must be rejected, not sized into a check
# bound of ~1e17 slots.
ZERO_SLACK_ADMIT = (
    '{"op":"admit","tenant":"t0","vm":"vm1","tasks":['
    '{"id":1,"period":102,"wcet":17,"deadline":102},'
    '{"id":2,"period":141,"wcet":82,"deadline":141},'
    '{"id":3,"period":564,"wcet":1,"deadline":564}]}')


def build_session():
    """admit -> churn (evict / update / query) -> re-admit, with malformed
    lines and comments interleaved. Returns (lines, expected_responses,
    index of the zero-slack admit's response)."""
    lines = ["# admission service CI smoke"]
    for v in range(6):
        lines.append(json.dumps({
            "op": "admit", "tenant": f"t{v % 2}", "vm": f"vm{v}",
            "tasks": vm_tasks(16 * v),
        }))
    zero_slack = len(lines) - 1  # responses so far: one per admit
    lines.append(ZERO_SLACK_ADMIT)
    lines += [
        "",  # blank: ignored
        "this is not json",
        json.dumps({"op": "evict", "tenant": "t0", "vm": "vm2"}),
        json.dumps({"op": "admit"}),  # schema violation
        json.dumps({"op": "update", "tenant": "t1", "vm": "vm3",
                    "tasks": vm_tasks(48)}),
        json.dumps({"op": "query"}),
        # re-admit the evicted profile byte-for-byte
        json.dumps({"op": "admit", "tenant": "t0", "vm": "vm2",
                    "tasks": vm_tasks(32)}),
        json.dumps({"op": "evict_tenant", "tenant": "t1"}),
        json.dumps({"op": "stats"}),
    ]
    expected = sum(1 for l in lines if l and not l.startswith("#"))
    return lines, expected, zero_slack


def run_daemon(daemon, extra_flags, stdin_text):
    argv = [daemon, "--hyperperiod=500", "--busy-every=5"] + extra_flags
    try:
        proc = subprocess.run(argv, input=stdin_text, capture_output=True,
                              text=True, timeout=120)
    except OSError as e:
        fail(f"cannot run {daemon}: {e}")
        return None
    except subprocess.TimeoutExpired:
        fail(f"{daemon} did not reach EOF within 120 s")
        return None
    if proc.returncode != 0:
        fail(f"{daemon} exited {proc.returncode}: {proc.stderr.strip()}")
        return None
    return proc.stdout.splitlines()


def check_daemon(daemon):
    lines, expected, zero_slack = build_session()
    stdin_text = "\n".join(lines) + "\n"

    streams = {}
    for label, flags in (("memoized", []), ("full", ["--no-memoize"])):
        out = run_daemon(daemon, flags, stdin_text)
        if out is None:
            return
        if len(out) != expected:
            fail(f"{label}: expected {expected} response lines, got "
                 f"{len(out)}")
            return
        if '"ok":true' not in out[zero_slack] or \
                '"admitted":false' not in out[zero_slack]:
            fail(f"{label}: zero-slack admit not rejected: "
                 f"{out[zero_slack]!r}")
        decisions = []
        errors = 0
        for line in out:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                fail(f"{label}: response is not JSON: {line!r}")
                return
            if not obj.get("ok", False):
                errors += 1
                if "code" not in obj or "error" not in obj:
                    fail(f"{label}: error response lacks code/error: "
                         f"{line!r}")
            elif "stats" in obj:
                if obj["stats"].get("requests", 0) <= 0:
                    fail(f"{label}: stats carries no request count: "
                         f"{line!r}")
            else:
                decisions.append(line)
        if errors != 2:
            fail(f"{label}: expected 2 diagnostics for the malformed "
                 f"lines, saw {errors}")
        streams[label] = decisions

    if len(streams) == 2 and streams["memoized"] != streams["full"]:
        for a, b in zip(streams["memoized"], streams["full"]):
            if a != b:
                fail("memoized and --no-memoize decision streams diverge:\n"
                     f"  memoized: {a}\n  full:     {b}")
                return
        fail("memoized and --no-memoize decision streams diverge in length")


def check_bench_report(path):
    p = Path(path)
    if not p.is_file():
        fail(f"{path}: bench report missing")
        return
    try:
        report = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        fail(f"{path}: not valid JSON ({e})")
        return
    metrics = report.get("metrics", {})
    for name in ("admissions_per_second", "incremental_speedup"):
        v = metrics.get(name)
        if not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0:
            fail(f"{path}: metrics.{name} missing or non-positive: {v!r}")


def main(argv):
    daemon = None
    bench = None
    for arg in argv[1:]:
        if arg.startswith("--daemon="):
            daemon = arg.split("=", 1)[1]
        elif arg.startswith("--bench="):
            bench = arg.split("=", 1)[1]
        else:
            print(__doc__, file=sys.stderr)
            return 2
    if daemon is None:
        print(__doc__, file=sys.stderr)
        return 2

    check_daemon(daemon)
    if bench is not None:
        check_bench_report(bench)

    if FAILURES:
        print(f"{len(FAILURES)} admission-service check(s) failed",
              file=sys.stderr)
        return 1
    print("admission service smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
