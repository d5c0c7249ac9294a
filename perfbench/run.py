#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

One run, as the benchmark contract calls it, from the checkout root:

    python3 perfbench/run.py --workload flood --seed 1 --seconds 45 --trace 0

prints a host line and, as its last line, one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
BENCHMARK.json gates on flood and cholesky; dag runs the same way but is
not gated, because the host's drift moves it more than any bound allows
(see README.md).

Other modes:

    python3 perfbench/run.py --steadiness    # two rounds of ten runs, gated workloads
    python3 perfbench/run.py --ledger        # layer ledger, one row per workload
    python3 perfbench/run.py --selfcheck     # checks must reject bad graphs

The build goes to .bench_build/perfbench under the checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("flood", "cholesky", "dag")
RUN_TIMEOUT_S = 170
STEADY_RUNS = 10
STEADY_ROUNDS = 2


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the Release binary; output to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "include" / "ats").is_dir():
        fail(f"the ats sources are missing from {ROOT}; nothing to benchmark")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_sha():
    """The checkout's git commit, or "unknown" outside a repository."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return sha.stdout.strip() if sha.returncode == 0 and sha.stdout.strip() else "unknown"


def run_binary(workload, seed, seconds, trace, sha, deadline):
    """One benchmark process, killed at `deadline` (time.monotonic());
    returns (stdout lines, exit code)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--git-sha", sha]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} run did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    return proc.stdout.splitlines(), proc.returncode


def run_once(workload, seed, seconds, trace, sha):
    """One benchmark run: one process for the whole run, so its medians
    are over every graph and block of it.  Returns (lines to print,
    result or None, exit code)."""
    lines, code = run_binary(workload, seed, seconds, trace, sha,
                             time.monotonic() + RUN_TIMEOUT_S)
    result = json.loads(lines[-1]) if code == 0 and lines else None
    return lines, result, code


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def steadiness(spec, seconds, sha):
    """What the bounds in BENCHMARK.json are judged by: STEADY_ROUNDS
    rounds of STEADY_RUNS runs of each gated workload, every run with its own
    seed.  Per round, each end-to-end metric's median and quartile spread
    ((q3 - q1) / median) must stay within its bound; from round to round,
    its median must not get worse by more than its bound.  setup_s's
    spread is shown but, as the benchmark contract has it, not judged."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        medians = []
        for r in range(STEADY_ROUNDS):
            values = {}
            for seed in range(r * STEADY_RUNS + 1, (r + 1) * STEADY_RUNS + 1):
                _, result, code = run_once(workload, seed, seconds, 0, sha)
                if result is None or not result["correct"]:
                    print(f"{workload} seed {seed}: run failed (exit {code})")
                    return 1
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            print(f"\n{workload} round {r + 1}: {STEADY_RUNS} runs of {seconds} s")
            print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} "
                  f"{'spread':>8} {'bound':>6}")
            round_medians = {}
            for name, vals in values.items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                round_medians[name] = med
                spread = (q3 - q1) / med
                bound = bounds[name]["bound"]
                verdict = "steady" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
                if name == "setup_s":
                    verdict += " (not judged)"
                elif spread > bound:
                    ok = False
                print(f"  {name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {bound:>6} {verdict}")
            medians.append(round_medians)
        print(f"\n{workload}: median change, round 1 -> round {STEADY_ROUNDS} "
              "(positive = worse)")
        for name, first in medians[0].items():
            last = medians[-1][name]
            worse = (last - first) / first
            if bounds[name]["better"] == "higher":
                worse = -worse
            bound = bounds[name]["bound"]
            agree = worse <= bound
            ok = ok and agree
            print(f"  {name:<16} {first:>14.6g} {last:>14.6g} {worse:>+8.4f} "
                  f"{bound:>6} {'agree' if agree else 'WORSE THAN BOUND'}")
    return 0 if ok else 1


def ledger(seed, seconds, sha):
    """The layer ledger: per-task layer costs next to end-to-end cost."""
    columns = ("memory_ns", "deps_ns", "sched_ns", "layer_sum_ns", "e2e_ns",
               "unexplained_frac", "body_ns_p50")
    rows = []
    for workload in WORKLOADS:
        lines, code = run_binary(workload, seed, seconds, 1, sha,
                                 time.monotonic() + RUN_TIMEOUT_S)
        row = next((l for l in lines if l.startswith("ledger ")), None)
        if code != 0 or row is None:
            fail(f"traced {workload} run failed (exit {code})")
        fields = dict(kv.split("=") for kv in row.split()[2:])
        rows.append((workload, fields))
    print(f"{'workload':<10}" + "".join(f"{c:>18}" for c in columns))
    for workload, fields in rows:
        print(f"{workload:<10}" + "".join(f"{fields[c]:>18}" for c in columns))
    print("\nlayer_sum_ns = memory.remote_free_ns + deps.register_ns + "
          "deps.release_ns + sched.add_get_ns; e2e_ns = 1e9 / tasks_per_s; "
          "unexplained_frac = 1 - layer_sum_ns / e2e_ns")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--ledger", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.steadiness or args.ledger or args.selfcheck):
        parser.error("give --workload, --steadiness, --ledger or --selfcheck")

    build()
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    sha = git_sha()
    if args.steadiness:
        return steadiness(spec, seconds, sha)
    if args.ledger:
        return ledger(args.seed, seconds, sha)
    if args.selfcheck:
        return subprocess.run([str(BINARY), "--selfcheck"], timeout=RUN_TIMEOUT_S).returncode
    lines, _, code = run_once(args.workload, args.seed, seconds, args.trace, sha)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
