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
  * admits two VMs whose Theorem 4 slack is tiny but positive: one whose
    check bound of ~5e9 slots must not be held step by step in memory,
    and one whose bound does not fit 64 bits. Each must get an "ok":true,
    "admitted":false decision whose local verdict for that VM is not
    schedulable, with the daemon still serving. The daemon runs under a
    2 GiB address-space limit (RLIMIT_AS, set in the child only), unless it
    carries the ASan or TSan runtime (an IOGUARD_SANITIZE build with address
    or thread), which reserves terabytes of address space up front;
  * optionally validates that BENCH_admission_service.json carries finite
    admissions_per_second / incremental_speedup metrics (threshold gating
    lives in check_bench.py --min-metric=incremental_speedup:5).

Usage: check_admission_service.py --daemon=PATH [--bench=FILE.json]
Exit status: 0 all checks pass, 1 any failure, 2 usage errors.
"""

import json
import math
import resource
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


# Theorem 4 slack c' = 1/2 - 4/10 - 100000/1000003 ~ 3e-7 sizes a check
# bound of ~5e9 slots; the violation is at t = 10, the second demand step.
# A check that held every step below the bound would need ~4 GB.
TINY_SLACK_ADMIT = (
    '{"op":"admit","tenant":"t2","vm":"tiny","server":{"pi":1000,"theta":500},'
    '"tasks":[{"id":1,"period":10,"wcet":4},'
    '{"id":2,"period":1000003,"wcet":100000}]}')

# c' ~ 1.1e-12 and max(T - D) ~ 3.5e13 size a check bound near 3e25 slots,
# past 2^64, which must count as non-positive slack: cast to 64 bits it
# becomes a bound of 1 (x86-64 GCC) that checks nothing and admits the VM,
# although task 2 alone misses at t = 1.
OVERFLOW_ADMIT = (
    '{"op":"admit","tenant":"t2","vm":"overflow",'
    '"server":{"pi":1000,"theta":999},'
    '"tasks":[{"id":1,"period":1099511627776,"wcet":1098412116147},'
    '{"id":2,"period":35184372088832,"wcet":1,"deadline":1}]}')

ADDRESS_SPACE_CAP = 2 << 30


def build_session():
    """admit -> churn (evict / update / query) -> re-admit, with malformed
    lines and comments interleaved. Returns (lines, expected_responses,
    {response index: (label, local VM or None)} for the admits that must be
    rejected)."""
    lines = ["# admission service CI smoke"]
    for v in range(6):
        lines.append(json.dumps({
            "op": "admit", "tenant": f"t{v % 2}", "vm": f"vm{v}",
            "tasks": vm_tasks(16 * v),
        }))
    rejected = {}
    for label, line, vm in (("zero-slack", ZERO_SLACK_ADMIT, None),
                            ("tiny-slack", TINY_SLACK_ADMIT, ("t2", "tiny")),
                            ("overflow", OVERFLOW_ADMIT, ("t2", "overflow"))):
        responses = sum(1 for l in lines if l and not l.startswith("#"))
        rejected[responses] = (label, vm)
        lines.append(line)
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
    return lines, expected, rejected


def sanitized(daemon):
    """True when the daemon carries the ASan or TSan runtime."""
    try:
        image = Path(daemon).read_bytes()
    except OSError:
        return False
    return b"__asan_init" in image or b"__tsan_init" in image


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def run_daemon(daemon, extra_flags, stdin_text, capped):
    argv = [daemon, "--hyperperiod=500", "--busy-every=5"] + extra_flags
    try:
        proc = subprocess.run(argv, input=stdin_text, capture_output=True,
                              text=True, timeout=120,
                              preexec_fn=cap_address_space if capped else None)
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


def check_rejected(label, what, line, vm):
    """An "ok":true,"admitted":false reply; when `vm` is given, that VM's
    local (Theorem 4) verdict must not be schedulable either."""
    if '"ok":true' not in line or '"admitted":false' not in line:
        fail(f"{label}: {what} admit not rejected: {line!r}")
        return
    if vm is None:
        return
    tenant, name = vm
    try:
        per_vm = json.loads(line).get("per_vm", [])
    except json.JSONDecodeError:
        fail(f"{label}: {what} admit reply is not JSON: {line!r}")
        return
    for v in per_vm:
        if (v.get("tenant"), v.get("vm")) == (tenant, name):
            if v.get("local", {}).get("schedulable") is not False:
                fail(f"{label}: {what} admit has a schedulable local "
                     f"verdict: {line!r}")
            return
    fail(f"{label}: {what} admit carries no verdict for {tenant}/{name}: "
         f"{line!r}")


def check_daemon(daemon):
    lines, expected, rejected = build_session()
    stdin_text = "\n".join(lines) + "\n"
    capped = not sanitized(daemon)

    streams = {}
    for label, flags in (("memoized", []), ("full", ["--no-memoize"])):
        out = run_daemon(daemon, flags, stdin_text, capped)
        if out is None:
            return
        if len(out) != expected:
            fail(f"{label}: expected {expected} response lines, got "
                 f"{len(out)}")
            return
        for index, (what, vm) in rejected.items():
            check_rejected(label, what, out[index], vm)
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
