"""Seeded invocation streams for the two benchmark workloads.

A workload is an endless stream of invocation cycles. Every cycle follows
the same slot template (scheme, regime, RWA flag, frequency frame, atom
counts); the workload seed draws the continuous inputs inside each slot.
The slot ranges keep each slot in one cost class (same regime, same photon
cutoff schedule), so runs with different seeds do the same kind of work and
their timings can be compared.

This module imports nothing from the package under test: the program sees
only the generated argument lists.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("variational", "exact-scan")
SCHEMES = ("v", "xi", "lambda")


def local_instability(scheme, theta, rwa, omega1=0.0, omega3=1.0):
    """Coupling magnitude where the origin of the radial surface turns unstable.

    Second-order expansion of the zero-phase surface about the origin, with
    the field frequency and the middle level at 1. Grids are placed around
    this value so that they straddle the normal/collective boundary.
    """
    f = 2.0 if rwa else 4.0
    d2, d3 = 1.0 - omega1, omega3 - omega1
    c, s = math.cos(theta), math.sin(theta)
    if scheme == "v":
        return 2.0 / (f * math.sqrt(c * c / d2 + s * s / d3))
    return 2.0 * math.sqrt(d2 if scheme == "xi" else d3) / (f * c)


def _num(x: float) -> str:
    return f"{x:.6f}"


def _frame_args(rng: random.Random, shifted: bool) -> tuple[list[str], float, float]:
    if not shifted:
        return [], 0.0, 1.0
    omega1 = rng.uniform(0.1, 0.3)
    omega3 = rng.uniform(1.2, 1.6)
    return ["--omega1", _num(omega1), "--omega3", _num(omega3)], omega1, omega3


def _system_args(scheme: str, theta: float, n_atoms, rwa: bool) -> list[str]:
    args = ["--theta", _num(theta), "--n-atoms", str(n_atoms), "--atom-config", scheme]
    return args + (["--rwa"] if rwa else [])


def _theta(rng: random.Random, scheme: str) -> float:
    # Xi and Lambda couple the ground level through mu cos(theta) alone, so
    # theta stays away from pi/2 where their boundary runs off to infinity.
    return rng.uniform(0.5, 1.07) if scheme == "v" else rng.uniform(0.4, 0.9)


def _variational_sweep(rng, scheme, rwa, n_atoms, shifted):
    theta = _theta(rng, scheme)
    frame, omega1, omega3 = _frame_args(rng, shifted)
    mu_c = local_instability(scheme, theta, rwa, omega1, omega3)
    # One grid point on each side of the boundary.
    lo = rng.uniform(0.5, 0.7) * mu_c
    hi = rng.uniform(1.6, 2.0) * mu_c
    argv = ["sweep", "--mu", f"{_num(lo)}:{_num(hi)}:2", "--branch", "coherent,even,odd"]
    argv += _system_args(scheme, theta, n_atoms, rwa) + frame
    return {"kind": "cli", "argv": argv, "ops": 2}


def _variational_boundary(rng, scheme, rwa, shifted):
    theta = _theta(rng, scheme)
    frame, omega1, omega3 = _frame_args(rng, shifted)
    mu_c = local_instability(scheme, theta, rwa, omega1, omega3)
    lo = rng.uniform(0.4, 0.6) * mu_c
    hi = rng.uniform(1.6, 2.0) * mu_c
    argv = ["phase-boundary", "--mu", f"{_num(lo)}:{_num(hi)}"]
    argv += _system_args(scheme, theta, 2, rwa) + frame
    return {"kind": "cli", "argv": argv, "ops": 1}


def variational_cycle(rng: random.Random) -> list[dict]:
    """Ten straddling 2-point sweeps, three boundary bisections and two calls
    of the fast validation registry.

    Every scheme runs with and without RWA; two sweeps and one bisection use
    a shifted frame (omega1 > 0, omega3 != 1). The atom counts are a shuffle
    of one fixed multiset, so every cycle has the same mix of N = 1..4. Each
    registry call has its own seed, drawn from the workload seed.
    """
    slots = [(scheme, rwa, False) for scheme in SCHEMES for rwa in (False, True)]
    slots += [(rng.choice(SCHEMES), False, False), (rng.choice(SCHEMES), True, False)]
    slots += [("xi", False, True), ("lambda", True, True)]
    atoms = [1, 2, 3, 4, 1, 2, 3, 4, 2, 3]
    rng.shuffle(atoms)
    out = [
        _variational_sweep(rng, scheme, rwa, n_atoms, shifted)
        for (scheme, rwa, shifted), n_atoms in zip(slots, atoms)
    ]
    out.append(_variational_boundary(rng, "v", True, False))
    out.append(_variational_boundary(rng, rng.choice(SCHEMES), False, False))
    out.append(_variational_boundary(rng, rng.choice(SCHEMES), False, True))
    out += [{"kind": "checks", "seed": rng.randrange(2**31)} for _ in range(2)]
    return out


def _exact_sweep(rng, scheme, atoms, collective, rwa):
    # Couplings stay inside one cutoff class: 1.4-1.6 converges at nu_max 80
    # for N >= 4 without RWA (40 with it), 0.3-0.45 converges at 40.
    mu = rng.uniform(1.4, 1.6) if collective else rng.uniform(0.3, 0.45)
    theta = rng.uniform(0.65, 0.92)
    argv = ["sweep", "--mu", _num(mu), "--branch", "exact"]
    argv += _system_args(scheme, theta, ",".join(map(str, atoms)), rwa)
    return {"kind": "cli", "argv": argv, "ops": len(atoms)}


def _spectrum(rng, n_atoms):
    argv = ["spectrum", "--mu", _num(rng.uniform(0.3, 1.6)), "--k", "6"]
    argv += _system_args(rng.choice(SCHEMES), rng.uniform(0.65, 0.92), n_atoms, False)
    return {"kind": "cli", "argv": argv, "ops": 1}


def _exact_block(rng: random.Random, singles: range) -> list[dict]:
    low, high = range(2, 7), range(7, 11)
    out = []
    for scheme in SCHEMES:
        out.append(_exact_sweep(rng, scheme, (2, 3, 4), True, False))
        out.append(_exact_sweep(rng, scheme, (5, 6), True, False))
    # One scheme per heavy point, so the largest sectors (and the peak
    # memory) are the same for every seed.
    for scheme, n_atoms in zip(("xi", "lambda", "v", "v"), singles):
        out.append(_exact_sweep(rng, scheme, (n_atoms,), True, False))
    for scheme, rwa in (("v", False), (rng.choice(("xi", "lambda")), True)):
        out.append(_exact_sweep(rng, scheme, low, False, rwa))
        out.append(_exact_sweep(rng, scheme, high, False, rwa))
    out.append(_spectrum(rng, 3))
    out.append(_spectrum(rng, 6))
    return out


def exact_scan_cycle(rng: random.Random) -> list[dict]:
    """Exact sweeps over N = 2..10 in both regimes and all schemes.

    Two blocks with their own draws; the second has single-N collective
    points only up to N = 8. The N axis is split across invocations so that
    no single call dominates a cycle. N >= 13 is left out: its sectors pass
    fock.DENSE_CUTOFF and the Lanczos path runs, which is not deterministic
    across in-process calls.
    """
    return _exact_block(rng, range(7, 11)) + _exact_block(rng, range(7, 9))


_CYCLES = {
    "variational": variational_cycle,
    "exact-scan": exact_scan_cycle,
}

# Untimed first invocation of every pass: pays lazy imports and first-call
# costs so that they do not land in the timed loop.
WARMUP = {
    # Also touches the fock layer that the registry calls use.
    "variational": {
        "kind": "cli",
        "argv": ["sweep", "--mu", "1.0", "--branch", "coherent,even,odd,exact"],
    },
    "exact-scan": {
        "kind": "cli",
        "argv": ["sweep", "--mu", "1.5", "--branch", "exact", "--n-atoms", "2,4"],
    },
}


def cycle(workload: str, seed: int, index: int) -> list[dict]:
    """Invocations of cycle ``index`` of a workload's stream."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return _CYCLES[workload](rng)


def digest(invocations: list[dict]) -> str:
    """sha256 of the canonical JSON of an invocation list."""
    text = json.dumps(invocations, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def describe(inv: dict) -> str:
    if inv["kind"] == "checks":
        return f"run_checks('fast', seed={inv['seed']})"
    return "tricavity " + " ".join(inv["argv"])
