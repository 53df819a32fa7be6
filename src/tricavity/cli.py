"""Command-line front end: sweeps, boundary location, photon tables, spectra.

Subcommands
-----------
sweep           observables of the requested approximations over a grid
phase-boundary  bisect the coupling where the minimizing field turns on
photon-dist     photon-number table of the variational states at one coupling
spectrum        lowest eigenvalues of the truncated-space Hamiltonian
validate        run the cross-validation registry

Output is CSV with '#'-prefixed metadata (or a JSON mirror via --format):
deterministic byte for byte for fixed flags. Exit codes: 0 ok, 1 validation
failure, 2 bad input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, checks, fock, sacs, surface, vconfig
from .errors import DegenerateState, IndeterminateQ, TricavityError
from .model import (
    AtomicConfiguration,
    ModelParams,
    ParityBranch,
    Regime,
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


def _make_params(args, mu: float, theta: float, n_atoms: int) -> ModelParams:
    config = CONFIG_NAMES[args.atom_config]
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


def _printed_v_frame(params: ModelParams):
    """VParams when the section-specific closed-form limits apply."""
    if params.config is not AtomicConfiguration.V:
        return None
    try:
        vp = vconfig.VParams.from_model_params(params)
    except ValueError:
        return None
    if vp.omega == 1.0 and vp.omega3 == 1.0:
        return vp
    return None


def _coherent_columns(params: ModelParams, crit: surface.CriticalPoint) -> dict:
    n = params.n_atoms
    rep = surface.coherent_expectations(params, crit.as_point())
    try:
        q_m = rep.q_mandel
    except IndeterminateQ:
        q_m = None
    return {
        "energy": rep.energy / n,
        "photons": rep.n_photons / n,
        "a11": rep.populations[0] / n,
        "a22": rep.populations[1] / n,
        "a33": rep.populations[2] / n,
        "m_mean": rep.m_mean,
        "m_var": rep.m_var,
        "q_m": q_m,
        "entropy": 0.0,
        "dist_mean": rep.n_photons,
        "dist_std": math.sqrt(max(rep.var_photons, 0.0)),
    }


def _sacs_columns(
    params: ModelParams, crit: surface.CriticalPoint, branch: ParityBranch
) -> dict:
    vp = _printed_v_frame(params)
    if vp is not None and vp.regime() is Regime.NORMAL:
        approx = (
            vconfig.Approximation.SACS_EVEN
            if branch is ParityBranch.EVEN
            else vconfig.Approximation.SACS_ODD
        )
        limits = vconfig.limit_observables(vp, approx)
        return {
            "energy": limits["energy"],
            "photons": limits["photons"],
            "a11": limits["a11"],
            "a22": limits["a22"],
            "a33": limits["a33"],
            "m_mean": limits["m_mean"],
            "m_var": limits["m_var"],
            "q_m": limits["q_m"],
            "entropy": limits["entropy"],
            "dist_mean": limits["photon_mean"],
            "dist_std": limits["photon_std"],
        }
    n = params.n_atoms
    sp = sacs.SacsPoint(
        point=crit.as_point(), branch=branch, config=params.config, n_atoms=n
    )
    try:
        one = sacs.expect_one_body(sp)
        n_mean, n_sq = sacs.expect_photon_moments(sp)
        mom = sacs.expect_m_moments(sp)
        energy = sacs.sacs_energy(params, sp)
        entropy = sacs.linear_entropy(sp)
    except DegenerateState:
        return {key: None for cols in OUTPUT_GROUPS.values() for key in cols}
    try:
        q_m = mom.q_mandel
    except IndeterminateQ:
        q_m = None
    return {
        "energy": energy / n,
        "photons": one.n_photons / n,
        "a11": one.a11 / n,
        "a22": one.a22 / n,
        "a33": one.a33 / n,
        "m_mean": mom.mean,
        "m_var": mom.variance,
        "q_m": q_m,
        "entropy": entropy,
        "dist_mean": n_mean,
        "dist_std": math.sqrt(max(n_sq - n_mean**2, 0.0)),
    }


def _exact_columns(params: ModelParams, nu_max: int | None) -> dict:
    if nu_max is not None:
        space = fock.TruncatedSpace(params.n_atoms, nu_max)
        result = fock.ground_states(params, space, certify=False)
    else:
        result = fock.converged_ground_states(params)
    ground = result.global_ground
    vec = ground.state
    space = vec.space
    n = params.n_atoms
    nop = fock.photon_number(space)
    mop = fock.m_operator(space, params.config)
    m_mean = vec.expectation(mop).real
    m_var = vec.expectation(mop @ mop).real - m_mean**2
    rho = vec.atomic_density_matrix()
    dist = vec.photon_distribution()
    nus = np.arange(dist.size)
    dist_mean = float(nus @ dist)
    dist_var = float(nus**2 @ dist) - dist_mean**2
    return {
        "energy": ground.energy / n,
        "photons": vec.expectation(nop).real / n,
        "a11": vec.expectation(fock.transition(space, 1, 1)).real / n,
        "a22": vec.expectation(fock.transition(space, 2, 2)).real / n,
        "a33": vec.expectation(fock.transition(space, 3, 3)).real / n,
        "m_mean": m_mean,
        "m_var": m_var,
        "q_m": (m_var / m_mean - 1.0) if m_mean > 1e-12 else None,
        "entropy": 1.0 - float(np.sum(np.abs(rho) ** 2)),
        "dist_mean": dist_mean,
        "dist_std": math.sqrt(max(dist_var, 0.0)),
        "parity": float(ground.sector.sign),
    }


def _evaluate_point(task):
    """One grid point -> (label, row dict) or raises TricavityError."""
    label, value, params, approxes, outputs, nu_max = task
    row = {}
    need_surface = any(a in approxes for a in ("coherent", "even", "odd"))
    crit = surface.minimize_surface(params) if need_surface else None
    for approx in approxes:
        if approx == "coherent":
            cols = _coherent_columns(params, crit)
        elif approx == "even":
            cols = _sacs_columns(params, crit, ParityBranch.EVEN)
        elif approx == "odd":
            cols = _sacs_columns(params, crit, ParityBranch.ODD)
        else:
            cols = _exact_columns(params, nu_max)
            row["exact_parity"] = cols["parity"]
        for group in outputs:
            for key in OUTPUT_GROUPS[group]:
                row[f"{approx}_{key}"] = cols[key]
    return label, value, row


def _evaluate_point_safe(task):
    try:
        return _evaluate_point(task)
    except (TricavityError, ValueError, ArithmeticError) as exc:
        return task[0], task[1], exc


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
        payload = {
            "metadata": metadata,
            "columns": columns,
            "rows": [
                [None if v is None else v for v in row] for row in rows
            ],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"# tricavity {__version__}"]
        for key in sorted(metadata):
            lines.append(f"# {key} = {metadata[key]}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v, args.na) for v in row))
        text = "\n".join(lines) + "\n"
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)


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


def cmd_sweep(args, parser) -> int:
    mu_axis = _parse_axis(args.mu, "--mu")
    theta_axis = _parse_axis(args.theta, "--theta")
    atoms_axis = _parse_atoms(args.n_atoms)
    axes = {"mu": mu_axis, "theta": theta_axis, "n_atoms": atoms_axis}
    swept = [name for name, axis in axes.items() if len(axis) > 1]
    if len(swept) > 1:
        parser.error(f"only one axis may carry a grid; got ranges for {swept}")
    grid_var = swept[0] if swept else "mu"
    approxes = args.branch
    outputs = args.outputs

    tasks = []
    for n_atoms in atoms_axis:
        for theta in theta_axis:
            for mu in mu_axis:
                value = {"mu": mu, "theta": theta, "n_atoms": n_atoms}[grid_var]
                params = _make_params(args, mu, theta, n_atoms)
                tasks.append(
                    (grid_var, value, params, approxes, outputs, args.nu_max)
                )

    columns = [grid_var]
    for approx in approxes:
        for group in outputs:
            columns.extend(f"{approx}_{key}" for key in OUTPUT_GROUPS[group])
        if approx == "exact":
            columns.append("exact_parity")

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_evaluate_point_safe, tasks))
    else:
        results = [_evaluate_point_safe(task) for task in tasks]

    rows = []
    for label, value, outcome in results:
        if isinstance(outcome, Exception):
            print(
                f"numerical failure at {label}={value:.6g}: {outcome}",
                file=sys.stderr,
            )
            return EXIT_NUMERICAL
        if label == "n_atoms":
            row = [int(value)]
        else:
            row = [value]
        row.extend(outcome.get(col) for col in columns[1:])
        rows.append(row)

    metadata = _base_metadata(args, "sweep")
    metadata.update(
        {
            "grid": f"{grid_var}:{len(tasks)} points",
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


def cmd_phase_boundary(args, parser) -> int:
    parts = args.mu.split(":")
    if len(parts) != 2:
        parser.error(f"--mu must be lo:hi for phase-boundary, got {args.mu!r}")
    try:
        mu_lo, mu_hi = float(parts[0]), float(parts[1])
    except ValueError:
        parser.error(f"--mu must be lo:hi for phase-boundary, got {args.mu!r}")
    theta = _parse_axis(args.theta, "--theta")
    atoms = _parse_atoms(args.n_atoms)
    if len(theta) > 1 or len(atoms) > 1:
        parser.error("phase-boundary takes single --theta and --n-atoms values")

    def make(mu):
        return _make_params(args, mu, theta[0], atoms[0])

    numeric = surface.boundary_coupling(make, mu_lo, mu_hi, coupling_tol=args.tol)
    probe = make(max(mu_lo, 1e-6))
    analytic = None
    if (
        probe.config is AtomicConfiguration.V
        and probe.omega2 == probe.omega3
    ):
        analytic = vconfig.mu_critical(
            probe.omega, probe.omega3 - probe.omega1, rwa=probe.rwa
        )
    metadata = _base_metadata(args, "phase-boundary")
    metadata.update(
        {
            "bracket": args.mu,
            "theta": theta[0],
            "n_atoms": atoms[0],
            "tolerance": args.tol,
        }
    )
    _emit(
        args,
        metadata,
        ["numeric_boundary", "analytic_boundary"],
        [[numeric, analytic]],
    )
    return EXIT_OK


def cmd_photon_dist(args, parser) -> int:
    mu_axis = _parse_axis(args.mu, "--mu")
    theta_axis = _parse_axis(args.theta, "--theta")
    atoms_axis = _parse_atoms(args.n_atoms)
    if len(mu_axis) > 1 or len(theta_axis) > 1 or len(atoms_axis) > 1:
        parser.error("photon-dist takes single --mu, --theta and --n-atoms values")
    vp = vconfig.VParams(
        mu=mu_axis[0], theta=theta_axis[0], n_atoms=atoms_axis[0], rwa=args.rwa
    )
    approxes = args.branch
    if vp.regime() is Regime.NORMAL:
        top = 4
    else:
        nb = vconfig.nu_bar(vp)
        top = int(math.ceil(nb + 12.0 * math.sqrt(nb + 1.0) + 25.0))
    if args.nu_max is not None:
        top = args.nu_max
    nus = np.arange(top + 1)

    tables = {}
    for approx in approxes:
        if approx == "exact":
            result = fock.converged_ground_states(vp.to_model_params())
            dist = result.global_ground.state.photon_distribution()
            padded = np.zeros(top + 1)
            upto = min(top + 1, dist.size)
            padded[:upto] = dist[:upto]
            tables[approx] = padded
        else:
            name = {
                "coherent": vconfig.Approximation.COHERENT,
                "even": vconfig.Approximation.SACS_EVEN,
                "odd": vconfig.Approximation.SACS_ODD,
            }[approx]
            tables[approx] = vconfig.photon_dist_v(vp, name, nus)

    metadata = _base_metadata(args, "photon-dist")
    metadata.update(
        {
            "mu": mu_axis[0],
            "theta": theta_axis[0],
            "n_atoms": atoms_axis[0],
            "nu_max": top,
            "branch": ",".join(approxes),
        }
    )
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


def cmd_spectrum(args, parser) -> int:
    mu_axis = _parse_axis(args.mu, "--mu")
    theta_axis = _parse_axis(args.theta, "--theta")
    atoms_axis = _parse_atoms(args.n_atoms)
    if len(mu_axis) > 1 or len(theta_axis) > 1 or len(atoms_axis) > 1:
        parser.error("spectrum takes single --mu, --theta and --n-atoms values")
    params = _make_params(args, mu_axis[0], theta_axis[0], atoms_axis[0])
    nu_max = args.nu_max if args.nu_max is not None else 120
    space = fock.TruncatedSpace(params.n_atoms, nu_max)
    rows = []
    for branch in (ParityBranch.EVEN, ParityBranch.ODD):
        values = fock.sector_spectrum(params, space, branch, k=args.k)
        rows.extend(
            [branch.name.lower(), idx, float(val)] for idx, val in enumerate(values)
        )
    metadata = _base_metadata(args, "spectrum")
    metadata.update(
        {
            "mu": mu_axis[0],
            "theta": theta_axis[0],
            "n_atoms": atoms_axis[0],
            "nu_max": nu_max,
            "eigenvalues_per_sector": args.k,
        }
    )
    _emit(args, metadata, ["sector", "index", "energy"], rows)
    return EXIT_OK


def cmd_validate(args, parser) -> int:
    results = checks.run_checks(args.level)
    failed = False
    for res in results:
        print(f"[{res.status}] {res.name}: max deviation {res.max_dev:.3e}")
        print(f"       {res.detail}")
        failed = failed or (not res.info and not res.passed)
    return EXIT_VALIDATION if failed else EXIT_OK


def _add_common(sub: argparse.ArgumentParser, mu_default: str, mu_help: str) -> None:
    sub.add_argument("--config", help="flat key = value file; flags override it")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    sub.add_argument("--na", default="NA", help="sentinel for indeterminate values")
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
    sub.add_argument(
        "--nu-max",
        type=int,
        default=None,
        help="photon cutoff override (default: auto-converged)",
    )
    sub.add_argument(
        "--jobs", type=int, default=1, help="parallel workers for grid points"
    )


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
    _add_common(sweep, "0:2:201", "coupling magnitude (single value or range)")
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
    _add_common(boundary, "0.05:3", "bracket lo:hi for the bisection")
    boundary.add_argument(
        "--tol", type=float, default=1e-6, help="bisection tolerance in the coupling"
    )
    boundary.set_defaults(func=cmd_phase_boundary)

    dist = subparsers.add_parser(
        "photon-dist",
        help="photon-number distribution table",
        description=(
            "Photon-number table P(nu) of the parity-adapted and product "
            "trial states at their shared minimum (closed forms, fixed "
            "frequency frame), optionally with the exact ground state and "
            "a least-squares normal-curve fit."
        ),
    )
    _add_common(dist, "3.0", "coupling magnitude (single value)")
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
    spectrum.add_argument(
        "--k", type=int, default=6, help="eigenvalues per sector"
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
        "--level", choices=tuple(checks.LEVELS), default="fast", help="effort level"
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
        return args.func(args, parser)
    except argparse.ArgumentTypeError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except TricavityError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
