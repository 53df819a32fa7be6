"""Paired cold-start wall times of two trees, one line per command.

    python tools/cold_start.py TREE_A TREE_B [--runs K]

Runs every command below as `python -m tricavity.cli ...` in a fresh
interpreter, with `PYTHONPATH=TREE/src` and `OMP_NUM_THREADS=1`, K times per
tree (default 10). The runs form K pairs, A then B in even pairs and B then A
in odd ones, so that drift of the machine falls on both trees alike. Prints
per command each tree's median wall time with its quartiles, and in how many
pairs B was faster. Times include interpreter start. It is a script, not a
test: its numbers depend on the machine, and at the default K a run starts
280 interpreters (about 65 s on a 2-core x86-64 VM).
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

COMMANDS = (
    "--version",
    "phase-boundary",
    "sweep --branch coherent,even,odd",
    "sweep",
    "validate --level fast",
    "sweep --branch exact --mu 1.5 --n-atoms 4,8",
    "photon-dist --mu 1.5 --branch coherent,even,odd",
)


def wall_time(tree: Path, args: str) -> float:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tricavity.cli", *args.split()],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=tree, env=env, check=False,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{tree}: `{args}` exited {proc.returncode}\n{proc.stderr.decode()[-2000:]}")
    return elapsed


def summary(times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return f"{median:.3f} ({q1:.3f}-{q3:.3f})"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--runs", type=int, default=10, help="pairs per command (>= 2)")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    trees = (args.tree_a.resolve(), args.tree_b.resolve())
    print(f"# A = {trees[0]}\n# B = {trees[1]}")
    print(f"# median (q1-q3) wall seconds of {args.runs} pairs; B wins")
    for command in COMMANDS:
        times = ([], [])
        for run in range(args.runs):
            for k in (0, 1) if run % 2 == 0 else (1, 0):
                times[k].append(wall_time(trees[k], command))
        wins = sum(b < a for a, b in zip(*times))
        print(
            f"A {summary(times[0])}  B {summary(times[1])}  {wins}/{args.runs}  {command}",
            flush=True,
        )


if __name__ == "__main__":
    main()
