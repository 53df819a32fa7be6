"""Output gate: invariants every benchmark operation must satisfy.

An operation is one sweep grid point, one phase boundary, one spectrum call
or one registry check. ``check`` returns the number of operations an
invocation performed and one (operation index, reason) pair per broken
invariant; index None means the whole invocation failed.
"""

from __future__ import annotations

import math

# Rounding allowance for identities that hold exactly in real arithmetic.
POPULATION_TOL = 1e-9
ENERGY_TOL = 1e-9
ENTROPY_FLOOR = -1e-12
PARITY_BRANCHES = ("even", "odd")


def parse_csv(text: str) -> tuple[list[str], list[list]]:
    """(columns, rows) of a CSV table after its '#' metadata; NA becomes None."""
    body = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
    if not body:
        raise ValueError("no table in the output")
    columns, rows = body[0], []
    for cells in body[1:]:
        if len(cells) != len(columns):
            raise ValueError(f"row of {len(cells)} cells under {len(columns)} columns")
        rows.append([_cell(c) for c in cells])
    return columns, rows


def _cell(text: str):
    if text == "NA":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def _sweep_row(row: dict) -> list[str]:
    """Broken invariants of one sweep row."""
    bad = []
    for approx in ("coherent", "even", "odd", "exact"):
        pops = [row.get(f"{approx}_a{k}{k}", "absent") for k in (1, 2, 3)]
        if "absent" in pops:
            continue
        if all(p is None for p in pops) and approx in PARITY_BRANCHES:
            continue  # degenerate parity-adapted state: the program prints NA
        if any(p is None for p in pops):
            bad.append(f"{approx} populations missing")
        elif abs(sum(pops) - 1.0) > POPULATION_TOL:
            bad.append(f"{approx} a11+a22+a33 = {sum(pops)!r}")
    coherent = row.get("coherent_energy")
    parity = [row.get(f"{b}_energy") for b in PARITY_BRANCHES]
    parity = [e for e in parity if e is not None]
    if coherent is not None and parity:
        if min(parity) > coherent + ENERGY_TOL * max(1.0, abs(coherent)):
            bad.append(f"min(even, odd) energy {min(parity)!r} > coherent {coherent!r}")
    for key, value in row.items():
        if key.endswith("_entropy") and value is not None:
            if not ENTROPY_FLOOR <= value < 1.0:
                bad.append(f"{key} = {value!r} outside [0, 1)")
    if "exact_parity" in row and row["exact_parity"] not in (1.0, -1.0):
        bad.append(f"exact_parity = {row['exact_parity']!r}")
    return bad


def check_sweep(text: str, expected: int) -> list:
    columns, rows = parse_csv(text)
    if len(rows) != expected:
        return [(None, f"{len(rows)} rows, expected {expected}")]
    failures = []
    for i, cells in enumerate(rows):
        failures += [(i, r) for r in _sweep_row(dict(zip(columns, cells)))]
    return failures


def check_boundary(text: str, lo: float, hi: float) -> list:
    columns, rows = parse_csv(text)
    if len(rows) != 1:
        return [(None, f"{len(rows)} rows, expected 1")]
    value = dict(zip(columns, rows[0])).get("numeric_boundary")
    if not isinstance(value, float) or not lo <= value <= hi:
        return [(0, f"numeric_boundary {value!r} outside [{lo}, {hi}]")]
    return []


def check_spectrum(text: str, k: int) -> list:
    columns, rows = parse_csv(text)
    sectors = {}
    for cells in rows:
        row = dict(zip(columns, cells))
        sectors.setdefault(row["sector"], []).append(row["energy"])
    failures = []
    if sorted(sectors) != ["even", "odd"]:
        failures.append((0, f"sectors {sorted(sectors)}"))
    for name, values in sorted(sectors.items()):
        if not 1 <= len(values) <= k:
            failures.append((0, f"{name}: {len(values)} eigenvalues, asked for {k}"))
        if any(not isinstance(v, float) or math.isnan(v) for v in values):
            failures.append((0, f"{name}: non-numeric eigenvalue"))
        elif values != sorted(values):
            failures.append((0, f"{name} spectrum not sorted"))
    return failures


def check_registry(lines: list[tuple[str, str]]) -> list:
    """``lines`` are (name, status) pairs; every hard check must pass."""
    return [(i, f"{name} {status}") for i, (name, status) in enumerate(lines) if status == "FAIL"]


def check(inv: dict, exit_code: int, text: str, registry_size: int) -> tuple[int, list]:
    """(operations, failures) of one invocation's output.

    A registry invocation performs ``registry_size`` checks; its output has
    one ``name|status|...`` line per check.
    """
    ops = registry_size if inv["kind"] == "checks" else inv["ops"]
    if exit_code != 0:
        return ops, [(None, f"exit code {exit_code}")]
    if inv["kind"] == "checks":
        lines = [tuple(line.split("|", 2)[:2]) for line in text.splitlines()]
        if len(lines) != registry_size:
            return ops, [(None, f"{len(lines)} results, expected {registry_size}")]
        return ops, check_registry(lines)
    argv = inv["argv"]
    try:
        if argv[0] == "sweep":
            return ops, check_sweep(text, ops)
        if argv[0] == "phase-boundary":
            lo, hi = (float(v) for v in argv[argv.index("--mu") + 1].split(":"))
            return ops, check_boundary(text, lo, hi)
        return ops, check_spectrum(text, int(argv[argv.index("--k") + 1]))
    except (ValueError, KeyError) as exc:
        return ops, [(None, f"unreadable output: {exc}")]


def failed_ops(ops: int, failures: list) -> int:
    """Operations that broke at least one invariant."""
    if any(index is None for index, _ in failures):
        return ops
    return len({index for index, _ in failures})
