"""One benchmark pass, run in a fresh interpreter by run.py.

    python3 perfbench/passrun.py --setup-only
    python3 perfbench/passrun.py --workload W --seed N (--budget S | --cycles C) [--trace FILE]

The first thing the pass does is import ``tricavity.cli`` from the
checkout's ``src`` and build the argument parser, timing both: that is one
``setup_s`` sample. It then runs one untimed warm-up invocation and the
timed closed loop: one client, one in-process invocation at a time, as many
whole cycles of the workload's stream as fit in ``--budget`` seconds (at
least one), or exactly ``--cycles`` cycles. Outputs are gated after the loop. The result
is one JSON line on standard output.
"""

import os
import sys
import time


def _import_program() -> tuple[float, object]:
    """Import tricavity.cli from the checkout and build its parser, timed."""
    start = time.perf_counter()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import tricavity.cli

    tricavity.cli.build_parser()
    elapsed = time.perf_counter() - start
    origin = os.path.dirname(os.path.dirname(os.path.abspath(tricavity.cli.__file__)))
    if origin != src:
        raise ImportError(f"tricavity was imported from {origin}, not from {src}")
    return elapsed, tricavity.cli


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


def run_invocation(cli, checks, inv: dict) -> tuple[int, str, float]:
    """(exit code, output text, seconds) of one in-process invocation."""
    import contextlib
    import io
    import traceback

    out = io.StringIO()
    start = time.perf_counter()
    try:
        if inv["kind"] == "checks":
            results = checks.run_checks("fast", seed=inv["seed"])
            code = 0
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(inv["argv"])
    except SystemExit as exc:  # argparse rejects bad flags with exit 2
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed invocation, not a failed pass
        code = 1
        out.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    if inv["kind"] == "checks" and code == 0:
        out.write(
            "".join(f"{r.name}|{r.status}|{r.max_dev!r}|{r.detail}\n" for r in results)
        )
    return code, out.getvalue(), elapsed


def run_pass(cli, workload, invocations_of, budget=None, cycles=None, warmup=True, tracer=None):
    """Run whole cycles of the stream; return (records, cycles run, loop seconds).

    ``invocations_of(k)`` gives cycle k. With ``budget`` the loop starts
    another cycle only if one more cycle as long as the last still ends within
    ``budget`` seconds, so at least one cycle runs and the count changes only
    when the cycle time crosses budget/2, budget/3, ...
    """
    import hashlib

    from tricavity import checks

    import gate
    import workloads

    registry_size = len(checks.HARD_CHECKS) + len(checks.INFO_CHECKS)
    if tracer is not None:
        tracer.install()
    try:
        if warmup:
            run_invocation(cli, checks, workloads.WARMUP[workload])
        if tracer is not None:
            tracer.reset()
        runs = []
        start = time.perf_counter()
        done = 0
        while True:
            cycle_start = time.perf_counter()
            for inv in invocations_of(done):
                if tracer is not None:
                    tracer.invocation = len(runs)
                runs.append((inv, *run_invocation(cli, checks, inv)))
            done += 1
            now = time.perf_counter()
            if cycles is not None:
                if done >= cycles:
                    break
            elif now - start + (now - cycle_start) > budget:
                break
        loop_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()

    records = []
    for inv, code, text, elapsed in runs:
        ops, failures = gate.check(inv, code, text, registry_size)
        records.append(
            {
                "seconds": elapsed,
                "exit": code,
                "ops": ops,
                "failed": gate.failed_ops(ops, failures),
                "failures": [[i, reason] for i, reason in failures],
                "digest": hashlib.sha256(f"{code}\n{text}".encode()).hexdigest(),
            }
        )
    return records, done, loop_s


def main(argv=None) -> int:
    setup_s, cli = _import_program()

    import argparse
    import json
    import resource

    import numpy
    import scipy

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--budget", type=float)
    parser.add_argument("--cycles", type=int)
    parser.add_argument("--trace", help="write spans here and report layer metrics")
    args = parser.parse_args(argv)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        import tracing
        import workloads

        tracer = tracing.Tracer() if args.trace else None
        records, cycles, loop_s = run_pass(
            cli,
            args.workload,
            lambda k: workloads.cycle(args.workload, args.seed, k),
            budget=args.budget,
            cycles=args.cycles,
            tracer=tracer,
        )
        result.update(
            records=records,
            cycles=cycles,
            loop_s=loop_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            environment={
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "blas_threads": blas_threads(),
            },
        )
        if tracer is not None:
            with open(args.trace, "w") as handle:
                for span in tracer.spans_as_records():
                    handle.write(json.dumps(span) + "\n")
            result["layers"] = tracing.layer_metrics(
                tracer.spans, tracer.counts, tracer.max_sector_dim
            )
            result["missing"] = tracing.missing(args.workload, tracer.spans, tracer.counts)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
