#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

One run of one workload:

    python3 perfbench/run.py --workload ecommerce --seed 1 --seconds 20 --trace 0

builds the daemon (bin/main.exe) and the benchmark program with dune,
then runs the program, on ecommerce pinned to one CPU with the daemon
it spawns; its last line of standard output is the JSON result. Build
output goes to standard error. The exit status is the program's: 0
when every answer checked out, non-zero otherwise.

Steadiness report:

    python3 perfbench/run.py --steadiness 5 [--trace 0|1]

repeats each workload with seeds 1..N, each run as long as
BENCHMARK.json's run_seconds, and prints, per metric, the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, flagging any end-to-end spread above a tenth.
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ["ecommerce", "audit"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            cmd + ["build", "--root", ".", "bin/main.exe", "perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def pin(workload):
    """Pin this process, and so the daemon it spawns, to one CPU on
    ecommerce. Its lockstep rounds hand every request from the client to
    the daemon and back; on a shared host a hand-off to another CPU
    waits for the hypervisor to wake that CPU."""
    if workload == "ecommerce":
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def option(args, name, default):
    if name in args:
        i = args.index(name)
        return args[i + 1]
    return default


def steadiness(args):
    runs = int(option(args, "--steadiness", "5"))
    with open("BENCHMARK.json") as f:
        seconds = str(json.load(f)["run_seconds"])
    trace = option(args, "--trace", "0")
    failed = False
    for w in WORKLOADS:
        values = {}
        steal = []
        for seed in range(1, runs + 1):
            out = subprocess.run(
                [EXE, "--workload", w, "--seed", str(seed), "--seconds", seconds,
                 "--trace", trace],
                stdout=subprocess.PIPE, text=True, preexec_fn=lambda: pin(w))
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                print(f"{w} seed {seed}: exit {out.returncode}")
                failed = True
                continue
            result = json.loads(last)
            m = re.search(r"host steal ([0-9.]+)%", out.stdout)
            steal.append(m.group(1) if m else "?")
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"== {w}: {runs} runs, seeds 1..{runs}, {seconds} s each; "
              f"host steal % per run: {' '.join(steal)}")
        for name, (unit, xs) in values.items():
            if len(xs) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            flag = "  <-- spread above 0.1" if trace == "0" and spread > 0.1 else ""
            print(f"  {name:40s} median {q2:12.5g} {unit:6s} q1 {q1:12.5g} "
                  f"q3 {q3:12.5g} spread {spread:6.3f}{flag}")
            print("      runs: " + " ".join(f"{x:.4g}" for x in xs))
    return 1 if failed else 0


def main():
    args = sys.argv[1:]
    if not build():
        return 1
    if "--steadiness" in args:
        return steadiness(args)
    pin(option(args, "--workload", ""))
    os.execv(EXE, [EXE] + args)


if __name__ == "__main__":
    sys.exit(main())
