"""tricavity benchmark: seeded closed-loop workloads through the public API.

    python3 perfbench/run.py --workload variational --seed 1 --seconds 44 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Workloads (see README.md in this directory): variational, exact-scan.
Each run makes two passes, each in a fresh interpreter, over
the same seeded invocations. Pass 1 runs as many whole cycles as fit in
``--seconds``/2 (at least one); pass 2 repeats the same cycles. Every output is gated, and the
two passes must produce identical bytes.

--trace 0 prints the end-to-end metrics. --trace 1 runs one cycle untraced
and the same cycle traced, and prints the per-layer metrics; spans go to
``perfbench/out``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every operation passed the gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
PASS = os.path.join(HERE, "passrun.py")
SETUP_PROBES = 3
TAIL_BEYOND = 10
PASS_TIMEOUT_S = 170


def _python(args: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter to completion."""
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{' '.join(args[:2])} exited with {done.returncode}")
    return done


def _pass(args: list[str]) -> dict:
    return json.loads(_python([PASS, *args]).stdout.splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest order statistic with at
    least TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n


def import_times() -> dict:
    """Cumulative import times from ``-X importtime`` of tricavity.cli."""
    code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import tricavity.cli"
    cumulative = {}
    for line in _python(["-X", "importtime", "-c", code]).stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if match:
            cumulative[(len(match.group(2)), match.group(3))] = int(match.group(1)) * 1e-6
    scipy_optimize = sum(t for (_, name), t in cumulative.items() if name == "scipy.optimize")
    top = min(depth for depth, _ in cumulative)
    own = sum(
        t
        for (depth, name), t in cumulative.items()
        if depth == top and (name == "tricavity" or name.startswith("tricavity."))
    )
    return {
        "setup.import_scipy_optimize_s": (scipy_optimize, "s"),
        "setup.import_tricavity_s": (own, "s"),
    }


def source_hash() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "tricavity")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def gate_passes(invocations: list[dict], per_cycle: int, first: dict, second: dict):
    """(attempted, failed, messages) over both passes, bytes compared."""
    attempted = failed = 0
    messages = []
    for number, result in enumerate((first, second), start=1):
        if len(result["records"]) != len(invocations):
            raise RuntimeError(f"pass {number} ran {len(result['records'])} invocations")
        for i, (inv, rec) in enumerate(zip(invocations, result["records"])):
            bad = rec["failed"]
            reasons = [reason for _, reason in rec["failures"]]
            if number == 2 and rec["digest"] != first["records"][i]["digest"]:
                bad = rec["ops"]
                reasons.append("output bytes differ from pass 1")
            attempted += rec["ops"]
            failed += bad
            if bad:
                messages.append(
                    f"pass {number}, cycle {i // per_cycle}, invocation {i % per_cycle}: "
                    f"{workloads.describe(inv)}: {'; '.join(reasons)}"
                )
    return attempted, failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tricavity", "cli.py")):
        print(f"no tricavity sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.trace:
        spans_path = os.path.join(OUT, f"spans-{tag}.jsonl")
        first = _pass(base + ["--cycles", "1"])
        second = _pass(base + ["--cycles", "1", "--trace", spans_path])
    else:
        probes = [_pass(["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
        first = _pass(base + ["--budget", str(args.seconds / 2)])
        second = _pass(base + ["--cycles", str(first["cycles"])])
    cycles = [workloads.cycle(args.workload, args.seed, c) for c in range(first["cycles"])]
    invocations = [inv for cycle in cycles for inv in cycle]
    attempted, failed, messages = gate_passes(invocations, len(cycles[0]), first, second)
    environment = {
        **first["environment"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "cycles": first["cycles"],
        "invocations": len(invocations),
        "invocations_sha256": workloads.digest(invocations),
    }

    lines = [f"{key} = {value}" for key, value in environment.items()]
    if args.trace:
        layers = dict(second["layers"])
        layers.update(import_times())
        layers["trace.pass_s"] = (second["loop_s"], "s")
        layers["trace.overhead_frac"] = (second["loop_s"] / first["loop_s"] - 1.0, "ratio")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(layers.items())}
        for name in second["missing"]:
            messages.append(f"declared span or counter {name} never fired on {args.workload}")
    else:
        setup = probes + [first["setup_s"], second["setup_s"]]
        samples = [r["seconds"] for p in (first, second) for r in p["records"]]
        tail_s, tail_pct, n = tail(samples)
        loop_s = first["loop_s"] + second["loop_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": attempted / loop_s, "unit": "1/s"},
            "cmd_p50_s": {"value": statistics.median(samples), "unit": "s"},
            "cmd_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {
                "value": max(first["peak_rss_mb"], second["peak_rss_mb"]),
                "unit": "MB",
            },
        }
        lines.append(f"setup_s samples = {', '.join(f'{t:.3f}' for t in setup)} s")
        lines.append(
            f"ops = {attempted} in {loop_s:.3f} s of pass wall time"
            f" (passes {first['loop_s']:.3f} s, {second['loop_s']:.3f} s)"
        )
        lines.append(
            f"cmd_tail_s percentile = p{tail_pct:.1f} of {n} invocations"
            + (f" ({TAIL_BEYOND} beyond it)" if n > TAIL_BEYOND else " (too few: maximum)")
        )
    lines.append(f"fail_frac = {failed / attempted if attempted else 1.0} ({failed} of {attempted} ops)")
    for name, metric in metrics.items():
        lines.append(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for message in messages:
        lines.append(f"FAILED {message}")

    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as handle:
        json.dump(
            {
                "environment": environment,
                "metrics": metrics,
                "failures": messages,
                "invocations": [
                    [workloads.describe(inv), a["seconds"], b["seconds"]]
                    for inv, a, b in zip(invocations, first["records"], second["records"])
                ],
            },
            handle,
            indent=1,
        )
    print("\n".join(lines))
    correct = not messages
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        sys.exit(1)
