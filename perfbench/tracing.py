"""Spans and counters around the layers of tricavity, installed from outside.

The tracer replaces public module attributes with timing wrappers, at the
place where callers look them up: the module globals that both the other
modules (``surface.minimize_surface(...)``) and the defining module itself
(``minimize_surface(...)`` inside ``boundary_coupling``) resolve at call
time. Spans stay in memory until ``Tracer.spans_as_records`` is called at the
end of the pass.

Layers are named after the modules: cli, surface, sacs, vconfig, fock,
checks. ``model`` and ``errors`` do no measurable work and are not wrapped.
"""

from __future__ import annotations

import inspect
from collections import Counter
from time import perf_counter

# Full-space operator constructors counted as fock.operator_builds.
FOCK_OPERATORS = ("transition", "annihilation", "photon_number", "m_operator", "parity_operator")
FOCK_SPANS = FOCK_OPERATORS + (
    "build_hamiltonian",
    "ground_states",
    "converged_ground_states",
    "parity_sectors",
    "sector_spectrum",
    "build_sacs_vector",
    "counter_rotating_part",
    "excitation_rotation_deviation",
)
SURFACE_SPANS = ("minimize_surface", "boundary_coupling", "coherent_expectations")

# Spans that must fire on the workload built to exercise them; a run where
# one stays silent fails, so a refactor cannot quietly zero a layer metric.
REQUIRED = {
    "variational": (
        "cli.main",
        "surface.minimize_surface",
        "surface.boundary_coupling",
        "surface.coherent_expectations",
        "sacs.sacs_energy",
        "vconfig.limit_observables",
        "vconfig.mu_critical",
        "vconfig.critical_point_v",
        "checks.run_checks",
        "checks.check_oracle_equivalence",
        "checks.check_minimizer_closed_form",
        "fock.transition",
        "fock.build_hamiltonian",
        "fock.build_sacs_vector",
        "fock.converged_ground_states",
        "sacs.expect_one_body",
    ),
    "exact-scan": (
        "cli.main",
        "fock.converged_ground_states",
        "fock.ground_states",
        "fock.build_hamiltonian",
        "fock.parity_sectors",
        "fock.sector_spectrum",
        "fock.transition",
        "fock.photon_number",
        "fock.m_operator",
    ),
}
REQUIRED_COUNTS = {
    "variational": ("surface.energy_evals", "surface.nelder_mead_runs", "fock.basis_states_built"),
    "exact-scan": ("fock.basis_states_built",),
}


class Tracer:
    """Span recorder. A span is [name, layer, start, end, parent, invocation]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.max_sector_dim = 0
        self.invocation = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span(self, layer: str, name: str, fn, after=None):
        spans, stack = self.spans, self._stack
        full = f"{layer}.{name}"

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [full, layer, perf_counter(), 0.0, stack[-1] if stack else -1, self.invocation]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn, after=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the layer entry points of the imported tricavity modules."""
        from tricavity import checks, cli, fock, sacs, surface, vconfig

        self._patch(cli, "main", self._span("cli", "main", cli.main))
        self._patch(checks, "run_checks", self._span("checks", "run_checks", checks.run_checks))
        for group in ("HARD_CHECKS", "INFO_CHECKS"):
            wrapped = tuple(self._span("checks", f.__name__, f) for f in getattr(checks, group))
            self._patch(checks, group, wrapped)

        for name in SURFACE_SPANS:
            self._patch(surface, name, self._span("surface", name, getattr(surface, name)))
        self._patch(
            surface,
            "reduced_radial_energy",
            self._counted("surface.energy_evals", surface.reduced_radial_energy),
        )

        def nelder_mead_outcome(result):
            if not result.success:
                self.counts["surface.nonconverged"] += 1

        self._patch(
            surface,
            "minimize",
            self._counted("surface.nelder_mead_runs", surface.minimize, nelder_mead_outcome),
        )

        def sector_sizes(result):
            for indices in result:
                d = len(indices)
                self.max_sector_dim = max(self.max_sector_dim, d)
                if d <= fock.DENSE_CUTOFF:
                    self.counts["fock.dense_bytes_computed"] += 8 * d * d

        for name in FOCK_SPANS:
            after = sector_sizes if name == "parity_sectors" else None
            self._patch(fock, name, self._span("fock", name, getattr(fock, name), after))

        space_init = fock.TruncatedSpace.__init__
        counts = self.counts

        def counted_init(space, *args, **kwargs):
            space_init(space, *args, **kwargs)
            counts["fock.basis_states_built"] += space.dimension

        self._patch(fock.TruncatedSpace, "__init__", counted_init)

        for module, layer in ((sacs, "sacs"), (vconfig, "vconfig")):
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if not name.startswith("_") and fn.__module__ == module.__name__:
                    self._patch(module, name, self._span(layer, name, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.max_sector_dim = 0

    def spans_as_records(self) -> list[dict]:
        keys = ("name", "layer", "start", "end", "parent", "invocation")
        return [dict(zip(keys, span)) for span in self.spans]


def layer_metrics(spans: list[list], counts: Counter, max_sector_dim: int) -> dict:
    """Per-layer metrics from a pass's spans and counters.

    A span's self time is its duration minus that of its direct children. A
    layer's time ``<layer>.s`` counts only its outermost spans (those not
    called from the same layer), so nested calls are not counted twice.
    """
    n = len(spans)
    child = [0.0] * n
    for start, end, parent in ((s[2], s[3], s[4]) for s in spans):
        if parent >= 0:
            child[parent] += end - start
    by_name: Counter = Counter()
    time_of: Counter = Counter()
    self_of_layer: Counter = Counter()
    self_of_name: Counter = Counter()
    entries: Counter = Counter()
    entry_time: Counter = Counter()
    for i, (name, layer, start, end, parent, _) in enumerate(spans):
        duration = end - start
        by_name[name] += 1
        time_of[name] += duration
        self_of_layer[layer] += duration - child[i]
        self_of_name[name] += duration - child[i]
        if parent < 0 or spans[parent][1] != layer:
            entries[layer] += 1
            entry_time[layer] += duration

    solves = by_name["fock.converged_ground_states"] + sum(
        1
        for s in spans
        if s[0] == "fock.ground_states"
        and (s[4] < 0 or spans[s[4]][0] != "fock.converged_ground_states")
    )
    minimize_calls = by_name["surface.minimize_surface"]
    metrics = {
        "surface.minimize_calls": (minimize_calls, "count"),
        "surface.minimize_s": (time_of["surface.minimize_surface"], "s"),
        "surface.energy_evals": (counts["surface.energy_evals"], "count"),
        "surface.evals_per_minimize": (
            counts["surface.energy_evals"] / minimize_calls if minimize_calls else 0.0,
            "count/call",
        ),
        "surface.nelder_mead_runs": (counts["surface.nelder_mead_runs"], "count"),
        "surface.nonconverged": (counts["surface.nonconverged"], "count"),
        "surface.boundary_calls": (by_name["surface.boundary_coupling"], "count"),
        "surface.boundary_s": (time_of["surface.boundary_coupling"], "s"),
        "surface.expectations_s": (time_of["surface.coherent_expectations"], "s"),
        "surface.self_s": (self_of_layer["surface"], "s"),
        "fock.solves": (solves, "count"),
        "fock.cutoff_attempts": (by_name["fock.ground_states"], "count"),
        "fock.attempts_per_solve": (
            by_name["fock.ground_states"] / solves if solves else 0.0,
            "count/call",
        ),
        "fock.solve_self_s": (self_of_name["fock.ground_states"], "s"),
        "fock.max_sector_dim": (max_sector_dim, "count"),
        "fock.dense_bytes_computed": (counts["fock.dense_bytes_computed"], "bytes"),
        "fock.spectrum_s": (time_of["fock.sector_spectrum"], "s"),
        "fock.hamiltonian_builds": (by_name["fock.build_hamiltonian"], "count"),
        "fock.hamiltonian_s": (time_of["fock.build_hamiltonian"], "s"),
        "fock.basis_states_built": (counts["fock.basis_states_built"], "count"),
        "fock.operator_builds": (sum(by_name[f"fock.{op}"] for op in FOCK_OPERATORS), "count"),
        "fock.operator_s": (sum(time_of[f"fock.{op}"] for op in FOCK_OPERATORS), "s"),
        "fock.self_s": (self_of_layer["fock"], "s"),
        "sacs.calls": (entries["sacs"], "count"),
        "sacs.s": (entry_time["sacs"], "s"),
        "sacs.self_s": (self_of_layer["sacs"], "s"),
        "vconfig.calls": (entries["vconfig"], "count"),
        "vconfig.s": (entry_time["vconfig"], "s"),
        "vconfig.self_s": (self_of_layer["vconfig"], "s"),
        "checks.calls": (
            sum(k for name, k in by_name.items() if name.startswith("checks."))
            - by_name["checks.run_checks"],
            "count",
        ),
        "checks.self_s": (self_of_layer["checks"], "s"),
        "cli.invocations": (by_name["cli.main"], "count"),
        "cli.self_s": (self_of_layer["cli"], "s"),
    }
    return metrics


def missing(workload: str, spans: list[list], counts: Counter) -> list[str]:
    """Declared spans and counters that never fired on their workload."""
    fired = {s[0] for s in spans}
    gone = [name for name in REQUIRED[workload] if name not in fired]
    return gone + [key for key in REQUIRED_COUNTS[workload] if not counts[key]]
