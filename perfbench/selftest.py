#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py

Checks that
  1. a wrong expected digest fails the run and counts every op as failed;
  2. a seed's op list is identical across runs and differs across seeds;
  3. fig7_sweep's merged Prometheus bytes (with every trial summary) are
     identical at 1 and 2 workers: a fig7_sweep run is correct, and its
     output check re-runs the first batch of each system on a 1-worker
     runner and compares those bytes with the 2-worker ones;
  4. without the repository's sources beside it, the benchmark exits non-zero
     without printing a result;
  5. every workload's seed-1 run matches the digest committed in
     digests.json.
Exit status 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own entry point)

WORKLOADS = run.WORKLOADS
failures = []


def check(name, ok, detail=""):
    print("%s %s%s" % ("PASS" if ok else "FAIL", name, (": " + detail) if detail else ""))
    if not ok:
        failures.append(name)


def perfbench(binary, *args):
    scratch = os.path.join(run.build_dir(), "scratch", "selftest")
    os.makedirs(scratch, exist_ok=True)
    try:
        proc = subprocess.run([binary, "--scratch", scratch] + list(args),
                              stdout=subprocess.PIPE, text=True, cwd=run.ROOT,
                              timeout=run.RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, proc.stdout.strip().splitlines()


def main():
    binary = run.build(run.build_dir())

    # 1. A wrong expected digest.
    code, lines = perfbench(binary, "--workload", "admit_churn", "--seed", "1",
                            "--seconds", "0.5", "--expect-digest", "0" * 16)
    result = json.loads(lines[-1]) if lines else {}
    check("wrong digest fails the run",
          code == 1 and result.get("correct") is False
          and result.get("attempted", 0) > 0
          and result.get("failed") == result.get("attempted"),
          "exit %d, result %s" % (code, {k: result.get(k) for k in
                                         ("correct", "attempted", "failed")}))

    # 2. Op lists: same seed, same list; another seed, another list.
    for workload in WORKLOADS:
        prints = []
        for seed in (7, 7, 8):
            code, lines = perfbench(binary, "--workload", workload, "--seed",
                                    str(seed), "--op-list")
            prints.append(lines[-1].split()[-1] if code == 0 and lines else None)
        check("%s op list is a function of the seed" % workload,
              None not in prints and prints[0] == prints[1] != prints[2],
              " ".join(str(p) for p in prints))

    # 3. fig7_sweep at 1 and 2 workers.
    code, lines = perfbench(binary, "--workload", "fig7_sweep", "--seed", "3",
                            "--seconds", "0.5")
    result = json.loads(lines[-1]) if lines else {}
    check("fig7_sweep bytes match at 1 and 2 workers",
          code == 0 and result.get("correct") is True
          and result.get("failed") == 0,
          "exit %d, correct %s" % (code, result.get("correct")))

    # 4. A directory holding only BENCHMARK.json and the benchmark.
    bare = os.path.join(run.build_dir(), "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cosim_mesh", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    shutil.rmtree(bare, ignore_errors=True)
    check("no sources: non-zero exit, no result",
          proc.returncode != 0 and not proc.stdout.strip(),
          "exit %d" % proc.returncode)

    # 5. The committed digests (a change that alters result bytes on purpose
    #    must commit new ones).
    for workload in WORKLOADS:
        code, lines = perfbench(binary, "--workload", workload, "--seed", "1",
                                "--seconds", "0.5", "--expect-digest",
                                run.expected_digest(workload, 1))
        result = json.loads(lines[-1]) if lines else {}
        check("%s seed-1 digest matches digests.json" % workload,
              code == 0 and result.get("correct") is True,
              "exit %d" % code)

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
