"""Every span and counter a benchmark workload declares still fires on it.

A refactor that stops calling a traced function silences a layer metric of
``perfbench``; one traced cycle of each workload, run in-process, catches it
here instead of only when the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import passrun  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_cycle_fires_every_required_span(workload):
    cli = passrun._import_program()[1]
    tracer = tracing.Tracer()
    passrun.run_pass(
        cli,
        workload,
        lambda k: workloads.cycle(workload, 5, k),
        cycles=1,
        warmup=False,
        tracer=tracer,
    )
    assert tracing.missing(workload, tracer.spans, tracer.counts) == []
