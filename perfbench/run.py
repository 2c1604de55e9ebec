#!/usr/bin/env python3
"""Host-time benchmark of the I/O-GUARD simulator (see perfbench/README.md).

Builds the benchmark program together with the repository's src/ into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and prints its result as the last line of standard output:

    python3 perfbench/run.py --workload ioguard_dense --seed 1 --seconds 20 --trace 0

Exit status: 0 when every output check passed, 1 when one failed (the
result line then says "correct": false), 2 on a build or usage error (no
result line).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ioguard_dense", "fig7_sweep", "admit_churn", "cosim_mesh")
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build(bdir):
    """Configures once, then builds incrementally; compiler output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "ioguard_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT, env=env).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "ioguard_perfbench")


def expected_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        committed = json.load(f)
    if seed != committed["seed"]:
        return None
    return committed["digests"].get(workload)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    bdir = build_dir()
    binary = build(bdir)
    scratch = os.path.join(bdir, "scratch", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    digest = expected_digest(args.workload, args.seed)
    if digest:
        cmd += ["--expect-digest", digest]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die("ioguard_perfbench exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(args.trace)
    if got != want:
        die("metrics %s do not match BENCHMARK.json %s" % (got, want))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
