#!/usr/bin/env python3
"""End-to-end benchmark of `adtc serve`; see perfbench/NOTES.md.

One measurement (the last line of standard output is the result, one JSON
object with the keys correct, attempted, failed and metrics):

    python3 perfbench/run.py --workload hot-queue --seed 1 --seconds 10 --trace 0

Steadiness: K runs with seeds N..N+K-1, then each metric's median,
quartiles and relative spread (quartile distance over median):

    python3 perfbench/run.py --steady 10 --workload cold-symtab --seed 1

Oracle self-test against the reference rewriter, on every workload:

    python3 perfbench/run.py --selftest

Run from anywhere inside a checkout of the repository. adtc and the
benchmark program are built from the checkout's sources into .bench_build/.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "dune")
ADTC = os.path.join(BUILD_DIR, "default", "bin", "adtc.exe")
BENCH = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["hot-queue", "cold-symtab", "restart-db"]
SOURCES = ["dune-project", "bin", "lib", "specs", "perfbench"]

# A run's own limit: the timed phase plus set-up, preparation and replays.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def child_env():
    # the GC policy and the rewrite engine would change what is measured;
    # bench.exe passes this environment on to the servers and replays
    env = dict(os.environ)
    env.pop("OCAMLRUNPARAM", None)
    env.pop("ADTC_ENGINE", None)
    return env


def build():
    for path in SOURCES + ["bin/adtc.ml", "specs/queue.adt"]:
        if not os.path.exists(path):
            fail("%s is missing: run inside a checkout of the repository" % path, 2)
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--profile", "release", "bin/adtc.exe", "perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=850, env=child_env())
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("build failed")
    # write the build's files back now, not during the timed phase
    os.sync()


def source_digest():
    """SHA-256 over the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(workload, seed, seconds, trace):
    """One run of the benchmark program: its stdout lines and its result."""
    cmd = [BENCH, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--adtc", ADTC]
    # its own process group, so a run that overstays is ended together with
    # the servers it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s seed %d did not finish within %d s" % (workload, seed, RUN_TIMEOUT_S))
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s seed %d failed (exit code %d)" % (workload, seed, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s seed %d printed no result" % (workload, seed))
    return lines, result


def spread_table(runs):
    names = list(runs[0]["metrics"])
    rows = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        rows[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "min": min(values), "max": max(values),
        }
    return rows


def steady(args):
    runs = []
    for i in range(args.steady):
        seed = args.seed + i
        _, result = measure(args.workload, seed, args.seconds, args.trace)
        if not result["correct"]:
            fail("%s seed %d: incorrect result %s" % (args.workload, seed, json.dumps(result)))
        print("# %s seed %d %s" % (args.workload, seed, json.dumps(result["metrics"])),
              flush=True)
        runs.append(result)
    rows = spread_table(runs)
    print("%-24s %-7s %14s %14s %14s %8s" % ("metric", "unit", "median", "q1", "q3", "spread"))
    for name, row in rows.items():
        spread = "-" if row["spread"] is None else "%.4f" % row["spread"]
        print("%-24s %-7s %14.6g %14.6g %14.6g %8s" % (
            name, row["unit"], row["median"], row["q1"], row["q3"], spread))
    print(json.dumps({"workload": args.workload, "runs": len(runs), "metrics": rows}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="K",
                        help="run K times with consecutive seeds and report the spread")
    parser.add_argument("--selftest", action="store_true",
                        help="check the reply oracle against Rewrite.Reference")
    args = parser.parse_args()
    os.chdir(ROOT)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.steady is not None and args.steady < 2:
        parser.error("--steady needs at least 2 runs")
    build()
    if args.selftest:
        sys.exit(subprocess.run([BENCH, "selftest", "--seed", str(args.seed)],
                                env=child_env()).returncode)
    print("# env " + json.dumps({
        "nproc": os.cpu_count(), "git_revision": git_revision(),
        "source_sha256": source_digest()}), flush=True)
    if args.steady is not None:
        steady(args)
        return
    lines, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
