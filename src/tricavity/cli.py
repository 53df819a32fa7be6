"""Command-line front end: sweeps, boundary location, photon tables, spectra.

Subcommands
-----------
sweep           observables of the requested approximations over a grid
phase-boundary  bisect the coupling where the minimizing field turns on
photon-dist     photon-number table of the variational states at one coupling
spectrum        lowest eigenvalues of the truncated-space Hamiltonian
validate        run the cross-validation registry

Output is CSV with '#'-prefixed metadata (or a JSON mirror via --format):
deterministic byte for byte for fixed flags and numpy/scipy build. The exact
solver sets OpenBLAS to one thread (README); with another BLAS the thread
count must be fixed too.
Exit codes: 0 ok, 1 validation failure, 2 bad input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from functools import cache, partial

import numpy as np

from . import __version__, sacs, surface, vconfig
from .errors import DegenerateState, TricavityError
from .model import (
    MAX_DIMENSION,
    AtomicConfiguration,
    ModelParams,
    ParityBranch,
    StateObservables,
    couplings_from_magnitude,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3

CONFIG_NAMES = {
    "v": AtomicConfiguration.V,
    "xi": AtomicConfiguration.XI,
    "lambda": AtomicConfiguration.LAMBDA,
}
APPROX_ORDER = ("coherent", "even", "odd", "exact")
OUTPUT_GROUPS = {
    "energy": ("energy",),
    "photons": ("photons",),
    "populations": ("a11", "a22", "a33"),
    "m": ("m_mean", "m_var"),
    "q": ("q_m",),
    "entropy": ("entropy",),
    "distribution": ("dist_mean", "dist_std"),
}
DEFAULT_OUTPUTS = "energy,photons,populations,m,q,entropy"
UNITS_NOTE = (
    "energy, photons and populations are per atom; "
    "M moments and distribution statistics are totals"
)


def _parse_axis(text: str, name: str) -> list[float]:
    """A single value or start:stop:count[:log]."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) not in (3, 4):
            raise ValueError
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        scale = parts[3] if len(parts) == 4 else "linear"
        if count < 1 or scale not in ("linear", "log"):
            raise ValueError
        if scale == "log":
            if start <= 0 or stop <= 0:
                raise ValueError
            return [float(v) for v in np.geomspace(start, stop, count)]
        return [float(v) for v in np.linspace(start, stop, count)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{name} must be a number or start:stop:count[:log], got {text!r}"
        ) from None


def _parse_atoms(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",")]
        if not values or any(v < 1 for v in values):
            raise ValueError
        return values
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--n-atoms must be a positive integer or comma list, got {text!r}"
        ) from None


def _parse_list(text: str, name: str, allowed: tuple[str, ...]) -> tuple[str, ...]:
    items = tuple(s.strip() for s in text.split(",") if s.strip())
    if not items or any(item not in allowed for item in items):
        raise argparse.ArgumentTypeError(
            f"{name} entries must come from {','.join(allowed)}; got {text!r}"
        )
    return tuple(sorted(set(items), key=allowed.index))


def _checked(convert, accept, what: str):
    """argparse type: ``convert(text)``, rejected unless ``accept`` holds."""

    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return parse


def _make_params(args, mu: float, theta: float, n_atoms: int) -> ModelParams:
    config = CONFIG_NAMES[args.atom_config]
    try:
        couplings = couplings_from_magnitude(config, mu, theta)
        return ModelParams(
            omega=args.omega,
            omega1=args.omega1,
            omega2=args.omega2,
            omega3=args.omega3,
            n_atoms=n_atoms,
            config=config,
            rwa=args.rwa,
            **couplings,
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _checked_space(
    n_atoms: int, nu_max: int, dark_level: int | None = None
) -> fock.TruncatedSpace:
    """The truncated space, with its basis-size limit reported as bad input."""
    from . import fock
    try:
        return fock.TruncatedSpace(n_atoms, nu_max, dark_level)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--nu-max {nu_max}: {exc}") from None


def _columns(n: int, obs: StateObservables) -> dict:
    """Sweep columns of one state: energy, photons and populations per atom."""
    one = obs.one_body
    return {
        "energy": obs.energy / n,
        "photons": one.n_photons / n,
        "a11": one.a11 / n,
        "a22": one.a22 / n,
        "a33": one.a33 / n,
        "m_mean": obs.m_mean,
        "m_var": obs.m_var,
        "q_m": obs.q_m,
        "entropy": obs.entropy,
        "dist_mean": one.n_photons,
        "dist_std": math.sqrt(max(obs.photon_var, 0.0)),
    }


def _sacs_columns(params: ModelParams, crit: surface.CriticalPoint, branch: ParityBranch) -> dict:
    try:
        obs = sacs.branch_observables(params, crit.as_point(), branch)
    except DegenerateState:
        return {key: None for cols in OUTPUT_GROUPS.values() for key in cols}
    return _columns(params.n_atoms, obs)


def _exact_columns(params: ModelParams, nu_max: int | None) -> dict:
    from . import fock
    if nu_max is not None:
        space = fock.TruncatedSpace(params.n_atoms, nu_max, fock.dark_level(params))
        result = fock.ground_states(params, space)
    else:
        result = fock.converged_ground_states(params)
    ground = result.global_ground
    obs = fock.ground_observables(ground, params)
    return {**_columns(params.n_atoms, obs), "parity": float(ground.sector.sign)}


def _evaluate_point(params: ModelParams, approxes, nu_max: int | None) -> dict:
    """Every column of each treatment at one grid point, or raises."""
    row = {}
    need_surface = any(a in approxes for a in ("coherent", "even", "odd"))
    crit = surface.minimize_surface(params) if need_surface else None
    for approx in approxes:
        if approx == "coherent":
            obs = surface.coherent_expectations(params, crit.as_point())
            cols = _columns(params.n_atoms, obs)
        elif approx in ("even", "odd"):
            cols = _sacs_columns(params, crit, ParityBranch[approx.upper()])
        else:
            cols = _exact_columns(params, nu_max)
        row.update((f"{approx}_{key}", cell) for key, cell in cols.items())
    return row


def _fmt(value, na: str) -> str:
    if value is None:
        return na
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.16e}"


def _emit(args, metadata: dict, columns: list[str], rows: list[list]) -> None:
    if args.format == "json":
        payload = {"metadata": metadata, "columns": columns, "rows": rows}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        na = getattr(args, "na", None)  # only sweep and phase-boundary take --na
        lines = [f"# tricavity {__version__}"]
        for key in sorted(metadata):
            lines.append(f"# {key} = {metadata[key]}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v, "NA" if na is None else na) for v in row))
        text = "\n".join(lines) + "\n"
    if args.out in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"--out {args.out}: {exc.strerror}") from None


def _base_metadata(args, command: str) -> dict:
    return {
        "command": command,
        "atom_config": args.atom_config,
        "omega": args.omega,
        "omega1": args.omega1,
        "omega2": args.omega2,
        "omega3": args.omega3,
        "rwa": args.rwa,
        "units": UNITS_NOTE,
    }


def _single_point(args, command: str) -> tuple[ModelParams, dict]:
    """Parameters and metadata of a command that takes one coupling point."""
    mu = _parse_axis(args.mu, "--mu")
    theta = _parse_axis(args.theta, "--theta")
    atoms = _parse_atoms(args.n_atoms)
    if len(mu) > 1 or len(theta) > 1 or len(atoms) > 1:
        raise argparse.ArgumentTypeError(
            f"{command} takes single --mu, --theta and --n-atoms values"
        )
    metadata = _base_metadata(args, command)
    metadata.update({"mu": mu[0], "theta": theta[0], "n_atoms": atoms[0]})
    return _make_params(args, mu[0], theta[0], atoms[0]), metadata


def cmd_sweep(args) -> int:
    mu_axis = _parse_axis(args.mu, "--mu")
    theta_axis = _parse_axis(args.theta, "--theta")
    atoms_axis = _parse_atoms(args.n_atoms)
    axes = {"mu": mu_axis, "theta": theta_axis, "n_atoms": atoms_axis}
    swept = [name for name, axis in axes.items() if len(axis) > 1]
    if len(swept) > 1:
        raise argparse.ArgumentTypeError(
            f"only one axis may carry a grid; got ranges for {swept}"
        )
    grid_var = swept[0] if swept else "mu"
    approxes = args.branch
    if "exact" in approxes:
        from . import fock  # before the pool starts, so that forked workers inherit it
    outputs = args.outputs
    if args.nu_max is not None:
        if "exact" not in approxes:
            raise argparse.ArgumentTypeError(
                "--nu-max is the exact branch's cutoff; --branch has no exact"
            )
        frame = _make_params(args, mu_axis[0], theta_axis[0], max(atoms_axis))
        _checked_space(frame.n_atoms, args.nu_max, fock.dark_level(frame))

    values, points = [], []
    for n_atoms in atoms_axis:
        for theta in theta_axis:
            for mu in mu_axis:
                values.append({"mu": mu, "theta": theta, "n_atoms": n_atoms}[grid_var])
                points.append(_make_params(args, mu, theta, n_atoms))

    columns = [grid_var]
    for approx in approxes:
        for group in outputs:
            columns.extend(f"{approx}_{key}" for key in OUTPUT_GROUPS[group])
        if approx == "exact":
            columns.append("exact_parity")

    evaluate = partial(_evaluate_point, approxes=approxes, nu_max=args.nu_max)
    rows = []  # rows[k] is the row of points[k], so a failure is at values[len(rows)]
    if args.jobs > 1:
        from multiprocessing import Pool
    # Leaving the block at a failure terminates the pool: no later point runs on.
    with Pool(min(args.jobs, len(points))) if args.jobs > 1 else nullcontext() as pool:
        try:
            for row in (pool.imap if pool else map)(evaluate, points):
                rows.append([values[len(rows)], *(row.get(col) for col in columns[1:])])
        except (TricavityError, ValueError, ArithmeticError) as exc:
            value = values[len(rows)]
            print(f"numerical failure at {grid_var}={value:.6g}: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL

    metadata = _base_metadata(args, "sweep")
    metadata.update(
        {
            "grid": f"{grid_var}:{len(points)} points",
            "mu": args.mu,
            "theta": args.theta,
            "n_atoms": args.n_atoms,
            "branch": ",".join(approxes),
            "outputs": ",".join(outputs),
            "nu_max": "auto" if args.nu_max is None else args.nu_max,
        }
    )
    _emit(args, metadata, columns, rows)
    return EXIT_OK


def cmd_phase_boundary(args) -> int:
    try:
        mu_lo, mu_hi = map(float, args.mu.split(":"))
        if not mu_lo < mu_hi:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--mu must be lo:hi with lo < hi for phase-boundary, got {args.mu!r}"
        ) from None
    theta = _parse_axis(args.theta, "--theta")
    atoms = _parse_atoms(args.n_atoms)
    if len(theta) > 1 or len(atoms) > 1:
        raise argparse.ArgumentTypeError("phase-boundary takes single --theta and --n-atoms values")

    def make(mu):
        return _make_params(args, mu, theta[0], atoms[0])

    numeric = surface.boundary_coupling(make, mu_lo, mu_hi, coupling_tol=args.tol)
    analytic = None
    if args.atom_config == "v" and args.omega2 == args.omega3:
        analytic = vconfig.mu_critical(args.omega, args.omega3 - args.omega1, rwa=args.rwa)
    metadata = _base_metadata(args, "phase-boundary")
    metadata.update(
        {
            "bracket": args.mu,
            "theta": theta[0],
            "n_atoms": atoms[0],
            "tolerance": args.tol,
        }
    )
    _emit(args, metadata, ["numeric_boundary", "analytic_boundary"], [[numeric, analytic]])
    return EXIT_OK


def cmd_photon_dist(args) -> int:
    params, metadata = _single_point(args, "photon-dist")
    approxes = args.branch
    point = surface.minimize_surface(params).as_point()
    alpha_sq = abs(point.alpha) ** 2
    top = args.nu_max
    if top is None:
        top = int(math.ceil(alpha_sq + 12.0 * math.sqrt(alpha_sq + 1.0) + 25.0))
        if top >= MAX_DIMENSION:
            raise argparse.ArgumentTypeError(
                f"the default table runs to nu = {top}, past {MAX_DIMENSION} rows; "
                "--nu-max sets a shorter one"
            )
    if args.fit and top < 3:
        raise argparse.ArgumentTypeError(f"--fit needs at least 4 rows, got --nu-max {top}")
    nus = np.arange(top + 1)

    tables = {}
    for approx in approxes:
        if approx == "exact":
            from . import fock
            dist = fock.converged_ground_states(params).global_ground.state.photon_distribution()
            tables[approx] = np.pad(dist[: top + 1], (0, max(top + 1 - dist.size, 0)))
        elif approx == "coherent":
            tables[approx] = sacs.poisson_distribution(alpha_sq, nus)
        else:
            branch = ParityBranch[approx.upper()]
            tables[approx] = sacs.photon_distribution(params, point, branch, nus)

    metadata.update({"nu_max": top, "branch": ",".join(approxes)})
    if args.fit:
        for approx in approxes:
            mean, sigma = vconfig.fit_gaussian(nus, tables[approx])
            metadata[f"fit_{approx}_mean"] = f"{mean:.16e}"
            metadata[f"fit_{approx}_sigma"] = f"{sigma:.16e}"
    columns = ["nu"] + [f"p_{approx}" for approx in approxes]
    rows = [
        [int(nu)] + [float(tables[approx][k]) for approx in approxes]
        for k, nu in enumerate(nus)
    ]
    _emit(args, metadata, columns, rows)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    from . import fock
    params, metadata = _single_point(args, "spectrum")
    space = _checked_space(params.n_atoms, args.nu_max)
    rows = []
    spectra = fock.sector_spectrum(params, space, k=args.k)
    for branch, values in zip(ParityBranch, spectra):
        rows.extend(
            [branch.name.lower(), idx, float(val)] for idx, val in enumerate(values)
        )
    metadata.update({"nu_max": args.nu_max, "eigenvalues_per_sector": args.k})
    _emit(args, metadata, ["sector", "index", "energy"], rows)
    return EXIT_OK


def cmd_validate(args) -> int:
    from . import checks
    results = checks.run_checks(args.level)
    failed = False
    for res in results:
        print(f"[{res.status}] {res.name}: max deviation {res.max_dev:.3e}")
        print(f"       {res.detail}")
        failed = failed or (not res.info and not res.passed)
    return EXIT_VALIDATION if failed else EXIT_OK


def _add_common(
    sub: argparse.ArgumentParser, mu_default: str, mu_help: str, na: bool = False
) -> None:
    sub.add_argument("--config", help="flat key = value file; flags override it")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    if na:
        sub.add_argument(
            "--na", help="CSV sentinel for indeterminate values (default NA; JSON writes null)"
        )
    sub.add_argument("--mu", default=mu_default, help=mu_help)
    sub.add_argument(
        "--theta",
        default=repr(math.pi / 4),
        help="coupling mixing angle in radians (single value or range)",
    )
    sub.add_argument(
        "--n-atoms", default="2", help="atom count (single value or comma list)"
    )
    sub.add_argument(
        "--atom-config",
        choices=tuple(CONFIG_NAMES),
        default="v",
        help="level-connectivity scheme",
    )
    sub.add_argument("--omega", type=float, default=1.0, help="field frequency")
    sub.add_argument("--omega1", type=float, default=0.0, help="lowest level energy")
    sub.add_argument("--omega2", type=float, default=1.0, help="middle level energy")
    sub.add_argument("--omega3", type=float, default=1.0, help="top level energy")
    sub.add_argument(
        "--rwa", action="store_true", help="drop the counter-rotating coupling"
    )


def _add_nu_max(sub: argparse.ArgumentParser, default: int | None, help_text: str) -> None:
    sub.add_argument(
        "--nu-max",
        type=_checked(int, lambda v: v >= 0, "an integer >= 0"),
        default=default,
        help=help_text,
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricavity",
        description=(
            "Ground-state observables of three-level atoms coupled to a "
            "single field mode: variational product and parity-adapted "
            "approximations next to exact truncated-space diagonalization."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    sweep = subparsers.add_parser(
        "sweep",
        help="observables over a coupling grid",
        description=(
            "Tabulate ground-state observables over a grid in the coupling "
            "magnitude (or angle, or atom count): energy per atom, photon "
            "numbers, level populations, excitation moments and statistics, "
            "and matter linear entropy, one column block per approximation."
        ),
    )
    _add_common(sweep, "0:2:201", "coupling magnitude (single value or range)", na=True)
    _add_nu_max(sweep, None, "photon cutoff of the exact branch (default: auto-converged)")
    sweep.add_argument(
        "--jobs", type=_checked(int, lambda v: v >= 1, "an integer >= 1"), default=1,
        help="parallel workers for grid points",
    )
    sweep.add_argument(
        "--branch",
        type=lambda s: _parse_list(s, "--branch", APPROX_ORDER),
        default=APPROX_ORDER,
        help="approximations: comma list from coherent,even,odd,exact",
    )
    sweep.add_argument(
        "--outputs",
        type=lambda s: _parse_list(s, "--outputs", tuple(OUTPUT_GROUPS)),
        default=tuple(DEFAULT_OUTPUTS.split(",")),
        help=f"observable groups: comma list from {','.join(OUTPUT_GROUPS)}",
    )
    sweep.set_defaults(func=cmd_sweep)

    boundary = subparsers.add_parser(
        "phase-boundary",
        help="locate the normal/collective transition coupling",
        description=(
            "Bisect the coupling magnitude where the numeric minimizer's "
            "field amplitude first exceeds 1e-6; prints the closed-form "
            "boundary alongside when one exists (degenerate-pair scheme)."
        ),
    )
    _add_common(boundary, "0.05:3", "bracket lo:hi for the bisection", na=True)
    boundary.add_argument(
        "--tol", type=_checked(float, lambda v: 0 < v < math.inf, "a finite number > 0"),
        default=1e-6,
        help="bisection tolerance in the coupling",
    )
    boundary.set_defaults(func=cmd_phase_boundary)

    dist = subparsers.add_parser(
        "photon-dist",
        help="photon-number distribution table",
        description=(
            "Photon-number table P(nu) of the parity-adapted and product "
            "trial states at their shared surface minimum (closed forms, "
            "any scheme and frequency frame), optionally with the exact "
            "ground state and a least-squares normal-curve fit."
        ),
    )
    _add_common(dist, "3.0", "coupling magnitude (single value)")
    _add_nu_max(dist, None, "last photon number of the table (default: from the surface minimum)")
    dist.add_argument(
        "--branch",
        type=lambda s: _parse_list(s, "--branch", APPROX_ORDER),
        default=("even", "odd", "coherent"),
        help="columns: comma list from coherent,even,odd,exact",
    )
    dist.add_argument(
        "--fit",
        action="store_true",
        help="append fitted normal-curve mean/sigma to the metadata",
    )
    dist.set_defaults(func=cmd_photon_dist)

    spectrum = subparsers.add_parser(
        "spectrum",
        help="lowest eigenvalues per parity sector",
        description=(
            "Diagonalize the truncated-space Hamiltonian and dump the "
            "lowest eigenvalues of the even and odd excitation-parity "
            "sectors."
        ),
    )
    _add_common(spectrum, "1.0", "coupling magnitude (single value)")
    _add_nu_max(spectrum, 120, "photon cutoff (default 120, fixed and not certified)")
    spectrum.add_argument(
        "--k", type=_checked(int, lambda v: v >= 1, "an integer >= 1"), default=6,
        help="eigenvalues per sector",
    )
    spectrum.set_defaults(func=cmd_spectrum)

    validate = subparsers.add_parser(
        "validate",
        help="run the cross-validation registry",
        description=(
            "Run every closed form against its independent evaluation and "
            "print one line per check; informational checks report known "
            "closed-form discrepancies without failing."
        ),
    )
    validate.add_argument(
        "--level", choices=("fast", "full"), default="fast", help="effort level"
    )
    validate.set_defaults(func=cmd_validate)
    return parser


def _load_config_argv(path: str) -> list[str]:
    argv = []
    with open(path) as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "config":
                raise ValueError("config files cannot include 'config'")
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    argv.append(flag)
            else:
                argv.extend([flag, value])
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            injected = _load_config_argv(args.config)
        except (OSError, ValueError) as exc:
            print(f"bad config file: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        args = parser.parse_args([argv[0]] + injected + argv[1:])
    try:
        if getattr(args, "format", None) == "json" and getattr(args, "na", None) is not None:
            raise argparse.ArgumentTypeError("--na is the CSV sentinel; JSON writes null")
        out = getattr(args, "out", None)  # checked here so that a bad path costs no computing
        if out not in (None, "-"):
            parent = os.path.dirname(out) or "."
            if not out or not os.path.exists(parent):
                raise argparse.ArgumentTypeError(f"--out {out}: No such file or directory")
            if not os.path.isdir(parent):
                raise argparse.ArgumentTypeError(f"--out {out}: Not a directory")
            if os.path.isdir(out):
                raise argparse.ArgumentTypeError(f"--out {out}: Is a directory")
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except TricavityError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
