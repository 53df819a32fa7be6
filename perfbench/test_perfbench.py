"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return passrun._import_program()[1]


def _output(cli, argv):
    from tricavity import checks

    code, text, _ = passrun.run_invocation(cli, checks, {"kind": "cli", "argv": argv})
    assert code == 0, text
    return text


def _replace_cell(text, row, column, value):
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].split(",").index(column)
    cells = lines[header + 1 + row].split(",")
    cells[col] = value
    lines[header + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_invocations(workload):
    first = workloads.cycle(workload, 7, 0)
    assert first == workloads.cycle(workload, 7, 0)
    assert workloads.digest(first) == workloads.digest(workloads.cycle(workload, 7, 0))
    assert workloads.digest(first) != workloads.digest(workloads.cycle(workload, 8, 0))
    assert workloads.digest(first) != workloads.digest(workloads.cycle(workload, 7, 1))


def test_gate_catches_corrupted_sweep_rows(cli):
    argv = ["sweep", "--mu", "0.3:1.2:2", "--branch", "coherent,even,odd"]
    inv = {"kind": "cli", "argv": argv, "ops": 2}
    text = _output(cli, argv)
    assert gate.check(inv, 0, text, 0) == (2, [])
    for column, value in (
        ("coherent_a11", "0.5"),
        ("even_energy", "1.0e+00"),
        ("odd_entropy", "1.0"),
        ("coherent_a22", "NA"),
    ):
        ops, failures = gate.check(inv, 0, _replace_cell(text, 1, column, value), 0)
        assert [i for i, _ in failures] == [1], column
        assert gate.failed_ops(ops, failures) == 1
    assert gate.failed_ops(*gate.check(inv, 3, text, 0)) == 2
    assert gate.failed_ops(*gate.check(inv, 0, text.rsplit("\n", 2)[0] + "\n", 0)) == 2


def test_gate_catches_corrupted_exact_and_spectrum(cli):
    argv = ["sweep", "--mu", "0.4", "--branch", "exact", "--n-atoms", "2,3"]
    inv = {"kind": "cli", "argv": argv, "ops": 2}
    text = _output(cli, argv)
    assert gate.check(inv, 0, text, 0) == (2, [])
    ops, failures = gate.check(inv, 0, _replace_cell(text, 0, "exact_parity", "0"), 0)
    assert [i for i, _ in failures] == [0]

    argv = ["spectrum", "--mu", "1.0", "--k", "6", "--nu-max", "30"]
    inv = {"kind": "cli", "argv": argv, "ops": 1}
    text = _output(cli, argv)
    assert gate.check(inv, 0, text, 0) == (1, [])
    *head, low, high = text.splitlines()
    (low_key, low_e), (high_key, high_e) = low.rsplit(",", 1), high.rsplit(",", 1)
    swapped = head + [f"{low_key},{high_e}", f"{high_key},{low_e}"]
    assert gate.failed_ops(*gate.check(inv, 0, "\n".join(swapped) + "\n", 0)) == 1


def test_gate_catches_failed_registry_check_and_byte_drift():
    inv = {"kind": "checks", "seed": 1}
    text = "a|PASS|0.0|x\nb|INFO|0.0|y\n"
    assert gate.check(inv, 0, text, 2) == (2, [])
    assert gate.check(inv, 0, text.replace("PASS", "FAIL"), 2)[1] == [(0, "a FAIL")]

    invocations = workloads.cycle("variational", 3, 0)
    n = len(invocations)
    record = {"ops": 2, "failed": 0, "failures": [], "digest": "same"}
    first = {"records": [dict(record) for _ in range(n)]}
    second = {"records": [dict(record) for _ in range(n)]}
    assert run.gate_passes(invocations, n, first, second)[:2] == (4 * n, 0)
    second["records"][2]["digest"] = "other"
    attempted, failed, messages = run.gate_passes(invocations, n, first, second)
    assert failed == 2
    assert "invocation 2" in messages[0] and "bytes differ" in messages[0]


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0, 40)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_with_tracing(cli, workload):
    from tricavity import surface

    original = surface.minimize_surface
    tracer = tracing.Tracer()
    # The first invocation of each kind (CLI call, registry call) in the cycle.
    first = list({inv["kind"]: inv for inv in reversed(workloads.cycle(workload, 1, 0))}.values())
    records, cycles, loop_s = passrun.run_pass(
        cli,
        workload,
        lambda k: first,
        cycles=1,
        warmup=False,
        tracer=tracer,
    )
    assert surface.minimize_surface is original
    assert cycles == 1 and len(records) == len(first) and loop_s > 0
    for record in records:
        assert record["exit"] == 0 and record["failed"] == 0, record["failures"]
    assert tracer.spans
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, tracer.max_sector_dim)
    assert all(value >= 0 for value, _ in metrics.values())
