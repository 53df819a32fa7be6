"""End-to-end behavior of the command-line interface.

Most commands run in-process through ``cli.main``; the properties of the
process itself (byte determinism across interpreters, ``--jobs`` workers and
the ``python -m`` entry point) run in a fresh interpreter.
"""

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import connected_components

from tricavity import checks, cli, fock, sacs, surface
from tricavity.errors import DegenerateState
from tricavity.model import AtomicConfiguration, ParityBranch

from helpers import arpack_gives_up_or_lapack_fails

CMD = [sys.executable, "-m", "tricavity.cli"]


def _check_exit(proc, expect: int):
    assert proc.returncode == expect, (
        f"exit {proc.returncode} (wanted {expect})\nstderr: {proc.stderr[-2000:]}"
    )
    return proc


def run_cli(*args, expect: int = 0):
    """``cli.main(args)`` in-process; an uncaught exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse exits 2 on bad flags
            code = 0 if exc.code is None else exc.code
    proc = SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())
    return _check_exit(proc, expect)


def run_cli_process(*args, expect: int = 0):
    """The same command in a fresh ``python -m tricavity.cli`` interpreter."""
    proc = subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=300
    )
    return _check_exit(proc, expect)


SCIPY_PROBE = """
import contextlib, io, sys
from tricavity import cli
cli.build_parser()
argv = {argv!r}
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(argv) if argv else 0
    except SystemExit as exc:  # --version
        code = exc.code
print(code, *sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def scipy_modules_after(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code and the scipy modules loaded, in a fresh interpreter, by
    importing the CLI, building its parser and running ``argv`` (if any)."""
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE.format(argv=argv)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, *modules = proc.stdout.split()
    return int(code), modules


class FirstPointRuns:
    """Stand-in for `cli._evaluate_point` on a mu grid from 600 down.

    Every point appends its mu to the file `log`; mu = 600 then runs for
    real, and any other point sleeps for SLEEP seconds. An instance of a
    module-level class, so that a --jobs pool can send it to its workers.
    """

    SLEEP = 60.0

    def __init__(self, log: str):
        self.log = log

    def __call__(self, params, approxes, nu_max):
        mu = math.hypot(params.mu12, params.mu13)
        with open(self.log, "a") as handle:
            handle.write(f"{mu:.6g}\n")
        if mu < 599:
            time.sleep(self.SLEEP)
        return EVALUATE_POINT(params, approxes, nu_max)


EVALUATE_POINT = cli._evaluate_point


def parse_csv(text: str):
    lines = text.strip().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    header = data[0].split(",")
    rows = [line.split(",") for line in data[1:]]
    return meta, header, rows


def column(header, rows, name, na=None):
    k = header.index(name)
    return [na if r[k] == "NA" else float(r[k]) for r in rows]


class TestSweep:
    def test_small_grid_structure(self):
        proc = run_cli("sweep", "--mu", "0:2:5", "--branch", "coherent,even")
        meta, header, rows = parse_csv(proc.stdout)
        assert any(line.startswith("# command = sweep") for line in meta)
        assert header[0] == "mu"
        assert "coherent_energy" in header and "even_entropy" in header
        assert "odd_energy" not in header
        assert len(rows) == 5

    def test_byte_determinism(self):
        args = ("sweep", "--mu", "0.2:1.4:4", "--branch", "even,odd", "--outputs", "energy,q")
        first = run_cli_process(*args).stdout
        second = run_cli_process(*args).stdout
        assert first == second

    @pytest.mark.parametrize(
        "args",
        [
            ("sweep", "--mu", "0.3:1.2:4", "--branch", "coherent,odd", "--outputs", "energy"),
            # cmd_sweep imports fock before the pool starts, for the workers.
            ("sweep", "--mu", "1.2:1.6:3", "--branch", "exact", "--n-atoms", "3"),
        ],
        ids=["variational", "exact"],
    )
    def test_parallel_matches_serial(self, args):
        serial = run_cli_process(*args).stdout
        parallel = run_cli_process(*args, "--jobs", "2").stdout
        assert serial == parallel

    def test_import_leaves_scipy_optimize_out(self):
        # Only `photon-dist --fit` needs scipy.optimize; it imports it there.
        code = "import sys, tricavity.cli; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert proc.stdout.strip() == "False", proc.stderr[-2000:]

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--version"],
            ["phase-boundary"],
            ["sweep", "--branch", "coherent,even,odd", "--mu", "0:2:5"],
            ["sweep", "--branch", "coherent,even,odd", "--mu", "0:2:5", "--rwa"],
        ],
        ids=["import", "version", "phase-boundary", "variational-sweep", "variational-sweep-rwa"],
    )
    def test_variational_commands_load_no_scipy(self, argv):
        # The closed forms need numpy alone; fock, checks and the Poisson
        # terms load scipy in the commands that use them.
        assert scipy_modules_after(argv) == (0, [])

    @pytest.mark.parametrize("branch", ["coherent,even,odd", "exact"])
    def test_photon_dist_loads_the_solver_only_for_exact(self, branch):
        code, modules = scipy_modules_after(["photon-dist", "--mu", "1.5", "--branch", branch])
        assert code == 0
        # The default table's length is checked against model.MAX_DIMENSION.
        solver = {"scipy.linalg", "scipy.sparse"}
        assert solver & set(modules) == (solver if branch == "exact" else set())

    def test_exact_sweep_leaves_scipy_special_out(self):
        code, modules = scipy_modules_after(
            ["sweep", "--branch", "exact", "--mu", "1.5", "--n-atoms", "4"]
        )
        assert code == 0
        assert "scipy.linalg" in modules  # the probe sees what the solver loads
        assert "scipy.special" not in modules

    def test_validate_level_choices_are_the_registry_levels(self):
        subcommands = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        level = next(a for a in subcommands.choices["validate"]._actions if a.dest == "level")
        assert level.choices == tuple(checks.LEVELS)

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_module_entry_point_matches_in_process_run(self):
        args = ("sweep", "--mu", "0.9", "--branch", "coherent,exact", "--outputs", "energy,q")
        assert run_cli_process(*args).stdout == run_cli(*args).stdout

    def test_expected_values_on_both_sides_of_transition(self):
        run_cli("sweep", "--mu", "0.3:1", "--branch", "coherent", expect=2)
        proc = run_cli("sweep", "--mu", "0.3", "--branch", "even,odd", "--outputs", "energy")
        _, header, rows = parse_csv(proc.stdout)
        assert column(header, rows, "even_energy") == [0.0]
        # (1 - mu)/N: the one-excitation ground, above the exact odd ground 0.3131.
        assert abs(column(header, rows, "odd_energy")[0] - 0.35) < 1e-12
        proc = run_cli("sweep", "--mu", "1", "--branch", "coherent", "--outputs", "energy")
        _, header, rows = parse_csv(proc.stdout)
        assert abs(column(header, rows, "coherent_energy")[0] + 0.5625) < 1e-10

    def test_exact_branch_reports_parity(self):
        proc = run_cli(
            "sweep", "--mu", "1", "--branch", "exact", "--outputs", "energy,m"
        )
        _, header, rows = parse_csv(proc.stdout)
        assert abs(column(header, rows, "exact_energy")[0] + 0.5771402725761373) < 1e-9
        assert column(header, rows, "exact_parity") == [1.0]

    def test_exact_q_defined_at_tiny_nonzero_excitation(self):
        # <M> = 5e-15 and Var(M) = 1e-14: Q tends to +1 like the even SACS.
        proc = run_cli("sweep", "--mu", "1e-7", "--branch", "exact", "--outputs", "m,q")
        _, header, rows = parse_csv(proc.stdout)
        assert 0.0 < column(header, rows, "exact_m_mean")[0] < 1e-12
        assert abs(column(header, rows, "exact_q_m")[0] - 1.0) < 1e-9

    def test_json_mirror(self):
        proc = run_cli(
            "sweep", "--mu", "0.9", "--branch", "coherent", "--outputs", "energy",
            "--format", "json",
        )
        payload = json.loads(proc.stdout)
        assert payload["columns"] == ["mu", "coherent_energy"]
        assert payload["metadata"]["command"] == "sweep"
        assert len(payload["rows"]) == 1

    def test_atom_axis_sweep(self):
        proc = run_cli(
            "sweep", "--mu", "1", "--n-atoms", "1,2,4", "--branch", "coherent",
            "--outputs", "energy",
        )
        _, header, rows = parse_csv(proc.stdout)
        assert header[0] == "n_atoms"
        energies = column(header, rows, "coherent_energy")
        # Energy per atom at fixed coupling is size independent here.
        assert max(abs(e + 0.5625) for e in energies) < 1e-9

    def test_shifted_ground_level_even_branch_below_coherent(self):
        # At omega1 = 0.6 the boundary sits at sqrt(0.4)/2 = 0.316, so
        # mu = 0.4 is collective and the even projection lowers the energy.
        proc = run_cli(
            "sweep", "--mu", "0.4", "--omega1", "0.6", "--branch", "coherent,even,odd",
            "--outputs", "energy",
        )
        _, header, rows = parse_csv(proc.stdout)
        even = column(header, rows, "even_energy")[0]
        assert even <= column(header, rows, "coherent_energy")[0]

    def test_conserving_vacuum_at_large_n(self):
        # Under the RWA below the boundary the exact ground state is the
        # vacuum: energy 0 in the even sector, also at N = 20.
        proc = run_cli(
            "sweep", "--mu", "0.3", "--rwa", "--n-atoms", "20", "--branch", "exact",
            "--outputs", "energy",
        )
        _, header, rows = parse_csv(proc.stdout)
        assert column(header, rows, "exact_energy") == [0.0]
        assert column(header, rows, "exact_parity") == [1.0]

    def test_bright_block_reaches_large_n(self):
        # At double resonance the solve runs on the n_d = 0 block: 51 x 683
        # states, where the full space would need 1326 x 683.
        proc = run_cli("sweep", "--branch", "exact", "--mu", "3", "--n-atoms", "50")
        _, header, rows = parse_csv(proc.stdout)
        assert len(rows) == 1
        values = [float(cell) for cell in rows[0]]
        assert all(math.isfinite(v) for v in values)
        assert abs(sum(column(header, rows, f"exact_a{k}{k}")[0] for k in (1, 2, 3)) - 1) < 1e-12
        proc = run_cli(
            "sweep", "--branch", "exact", "--mu", "3", "--n-atoms", "50", "--omega2", "0.9",
            expect=3,
        )
        assert "basis limit" in proc.stderr

    def test_bright_block_vacuum_at_zero_coupling(self):
        proc = run_cli("sweep", "--branch", "exact", "--mu", "0", "--outputs", "populations")
        _, header, rows = parse_csv(proc.stdout)
        assert column(header, rows, "exact_a11") == [1.0]
        assert column(header, rows, "exact_a22") == column(header, rows, "exact_a33") == [0.0]

    @pytest.mark.parametrize("flags", [("--omega", "2"), ("--atom-config", "xi")])
    def test_normal_regime_branches_in_other_frames(self, flags):
        proc = run_cli("sweep", "--mu", "0.3", "--branch", "even,odd", *flags)
        _, header, rows = parse_csv(proc.stdout)
        assert not any(cell == "NA" for row in rows for cell in row)
        assert column(header, rows, "even_q_m") == [1.0]
        assert column(header, rows, "odd_q_m") == [-1.0]
        assert column(header, rows, "odd_m_mean") == [1.0]

    @pytest.mark.parametrize("flags", [(), ("--omega2", "0.9")])
    def test_explicit_nu_max_exact_path(self, flags):
        # The default frame solves the bright block, omega2 = 0.9 the full space.
        proc = run_cli(
            "sweep", "--mu", "1", "--branch", "exact", "--nu-max", "40", "--outputs", "energy",
            *flags,
        )
        meta, header, rows = parse_csv(proc.stdout)
        assert "# nu_max = 40" in meta
        args = cli.build_parser().parse_args(["sweep", *flags])
        p = cli._make_params(args, 1.0, math.pi / 4, 2)
        assert (fock.dark_level(p) is None) == bool(flags)
        space = fock.TruncatedSpace(2, 40, fock.dark_level(p))
        expected = fock.ground_states(p, space).global_ground.energy / 2
        assert column(header, rows, "exact_energy") == [expected]

    def test_na_sentinel_marks_indeterminate_cells(self):
        # The exact ground at mu = 0 is the vacuum: <M> = 0 leaves Q undefined.
        for na in ("X", ""):
            proc = run_cli(
                "sweep", "--mu", "0", "--branch", "odd,exact", "--outputs", "q", "--na", na
            )
            _, header, rows = parse_csv(proc.stdout)
            assert rows[0][header.index("exact_q_m")] == na
            assert column(header, rows, "odd_q_m") == [-1.0]

    def test_degenerate_branch_prints_na_cells(self, monkeypatch):
        # A branch whose SACS has zero norm leaves its cells indeterminate;
        # the other approximations of the row still print numbers.
        evaluate = sacs.branch_observables

        def odd_degenerate(params, point, branch):
            if branch is ParityBranch.ODD:
                raise DegenerateState("odd SACS has zero norm at this point")
            return evaluate(params, point, branch)

        monkeypatch.setattr(sacs, "branch_observables", odd_degenerate)
        args = (
            "sweep", "--mu", "1.2:1.6:3", "--branch", "coherent,even,odd",
            "--outputs", ",".join(cli.OUTPUT_GROUPS),
        )
        for na, flags in (("NA", ()), ("X", ("--na", "X"))):
            _, header, rows = parse_csv(run_cli(*args, *flags).stdout)
            assert "odd_energy" in header and len(rows) == 3
            for k, name in enumerate(header[1:], start=1):
                cells = [row[k] for row in rows]
                if name.startswith("odd_"):
                    assert cells == [na] * 3, name
                else:
                    assert all(math.isfinite(float(cell)) for cell in cells), name

    def test_log_grid(self):
        proc = run_cli(
            "sweep", "--mu", "0.1:10:3:log", "--branch", "coherent", "--outputs", "energy"
        )
        _, header, rows = parse_csv(proc.stdout)
        assert column(header, rows, "mu") == [float(v) for v in np.geomspace(0.1, 10, 3)]
        proc = run_cli("sweep", "--mu", "0:10:3:log", expect=2)
        assert "start:stop:count[:log]" in proc.stderr

    def test_one_surface_minimization_per_point(self, monkeypatch):
        # The exact cutoff estimate reuses the minimum the variational
        # branches found; each minimization scans its lattice once.
        scan, scans = surface._lattice_minima, []

        def counted(*args, **kwargs):
            scans.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(surface, "_lattice_minima", counted)
        surface.minimize_surface.cache_clear()
        run_cli("sweep", "--mu", "0.5:1.5:3", "--branch", "coherent,even,odd,exact")
        assert len(scans) == 3

    def test_critical_coupling_keeps_the_polished_point(self):
        # At mu_c the profile Hessian is singular to rounding; the polish
        # stops there instead of failing the row.
        run_cli("sweep", "--mu", "0.5", "--theta", "0.7755578947368421", "--n-atoms", "1",
                "--branch", "coherent")

    def test_lattice_finds_the_first_order_minimum_at_large_n(self):
        # The profile is N times a function of the atomic radii, so its
        # minimum per atom does not depend on N.
        proc = run_cli("sweep", "--atom-config", "lambda", "--theta", "1.05", "--mu", "1.0",
                       "--n-atoms", "1,10000", "--branch", "coherent", "--outputs", "energy")
        _, header, rows = parse_csv(proc.stdout)
        one, many = column(header, rows, "coherent_energy")
        assert one < -0.2 and abs(many - one) < 1e-12

    def test_parity_branch_entropies_at_large_n(self, monkeypatch):
        # The closed-form entropy never enumerates the (N+1)(N+2)/2 occupations.
        def refuse(n_atoms):
            raise AssertionError(f"enumerated the occupations of {n_atoms} atoms")

        monkeypatch.setattr(sacs, "symmetric_occupations", refuse, raising=False)
        proc = run_cli("sweep", "--mu", "1.5", "--n-atoms", "100000", "--branch", "even,odd")
        _, header, rows = parse_csv(proc.stdout)
        for name in ("even_entropy", "odd_entropy"):
            assert abs(column(header, rows, name)[0] - 0.5) < 1e-12

    def test_two_grids_rejected(self):
        run_cli("sweep", "--mu", "0:1:3", "--theta", "0:1:3", expect=2)

    def test_serial_sweep_stops_at_its_first_failing_point(self, monkeypatch, tmp_path):
        # mu = 600 is past the basis limit and fails; every later point logs
        # itself and sleeps instead of solving. Patched before a --jobs pool
        # forks, so the workers run the same stand-in.
        monkeypatch.setattr(cli, "_evaluate_point", FirstPointRuns(str(tmp_path / "started")))
        args = ("sweep", "--branch", "exact", "--n-atoms", "1", "--mu", "600:40:6")
        line = (
            "numerical failure at mu=600: no converged cutoff below the basis limit at "
            "nu_max=366021: basis dimension 732044 exceeds the limit 500000\n"
        )
        for jobs in (1, 2):
            (tmp_path / "started").write_text("")
            start = time.monotonic()
            proc = run_cli(*args, "--jobs", str(jobs), expect=3)
            assert time.monotonic() - start < FirstPointRuns.SLEEP / 2
            assert (proc.stdout, proc.stderr) == ("", line)
            started = (tmp_path / "started").read_text().split()
            assert "600" in started and len(started) <= (1 if jobs == 1 else jobs + 1)

    @pytest.mark.parametrize("name", ["missing/table.csv", ".", "file/table.csv", ""])
    def test_unwritable_out_is_bad_input(self, monkeypatch, tmp_path, name):
        # A missing directory, a directory itself, a regular file as the
        # parent and an empty path, each found before any point runs.
        points = []
        monkeypatch.setattr(cli, "_evaluate_point", lambda *args, **kwargs: points.append(args))
        (tmp_path / "file").write_text("")
        target = tmp_path / name if name else ""
        reason = {
            "missing/table.csv": "No such file or directory",
            ".": "Is a directory",
            "file/table.csv": "Not a directory",
            "": "No such file or directory",
        }[name]
        proc = run_cli("sweep", "--out", str(target), expect=2)
        assert (proc.stdout, proc.stderr) == ("", f"bad input: --out {target}: {reason}\n")
        assert points == []

    def test_out_dash_is_stdout(self):
        args = ("sweep", "--mu", "0.4", "--branch", "even", "--outputs", "energy")
        assert run_cli(*args, "--out", "-").stdout == run_cli(*args).stdout

    def test_out_file(self, tmp_path):
        target = tmp_path / "table.csv"
        run_cli("sweep", "--mu", "0.4", "--branch", "even", "--outputs", "energy",
                "--out", str(target))
        meta, header, rows = parse_csv(target.read_text())
        assert header == ["mu", "even_energy"]
        assert len(rows) == 1


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--nu-max", "-1"),
        ("spectrum", "--nu-max", "200000"),
        ("sweep", "--mu", "1", "--nu-max", "200000", "--branch", "exact"),
        ("sweep", "--mu", "1", "--jobs", "0"),
        ("spectrum", "--k", "0"),
        ("sweep", "--mu", "1", "--omega", "-1"),
        ("photon-dist", "--mu", "3", "--nu-max", "-3"),
        ("photon-dist", "--mu", "-1"),
        ("spectrum", "--mu", "nan"),
        ("photon-dist", "--mu", "inf"),
        ("sweep", "--mu", "nan"),
        ("sweep", "--mu", "1", "--omega", "nan"),
        ("sweep", "--mu", "1", "--omega", "inf"),
        ("phase-boundary", "--mu", "0.1:1", "--tol", "0"),
        ("phase-boundary", "--mu", "1:0.1"),
        ("sweep", "--mu", "1", "--theta", "nan"),
        ("photon-dist", "--nu-max", "2", "--fit"),
        ("phase-boundary", "--tol", "inf"),
        ("spectrum", "--mu", "1", "--k", "1", "--jobs", "3"),
        ("photon-dist", "--jobs", "3"),
        ("phase-boundary", "--jobs", "3"),
        ("phase-boundary", "--nu-max", "5"),
        ("sweep", "--mu", "1", "--branch", "coherent", "--nu-max", "40"),
        ("sweep", "--format", "json", "--na", "X"),
        ("photon-dist", "--na", "X"),
        ("spectrum", "--na", "X"),
        ("sweep", "--mu", "1:2"),
        ("sweep", "--n-atoms", "0"),
        ("sweep", "--n-atoms", "a"),
        ("sweep", "--branch", "foo"),
        ("spectrum", "--k", "x"),
        ("spectrum", "--mu", "0:1:3"),
        ("phase-boundary", "--mu", "1"),
        ("phase-boundary", "--mu", "a:b"),
        ("phase-boundary", "--theta", "0:1:3"),
    ],
)
def test_bad_input_exits_2(args):
    proc = run_cli(*args, expect=2)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--mu", "0:1:3"),
        ("sweep", "--mu", "0:1:3", "--theta", "0:1:3"),
        ("sweep", "--mu", "1", "--branch", "coherent", "--nu-max", "40"),
        ("phase-boundary", "--mu", "1"),
        ("phase-boundary", "--mu", "a:b"),
        ("phase-boundary", "--mu", "1:0.1"),
        ("phase-boundary", "--theta", "0:1:3"),
        ("sweep", "--format", "json", "--na", "X"),
    ],
)
def test_rejection_after_parsing_is_one_line(args):
    # Checks made once argparse has parsed the flags print no usage.
    stderr = run_cli(*args, expect=2).stderr
    assert stderr.startswith("bad input: ") and stderr.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ("sweep", "--mu", "1e308", "--branch", "coherent"),
        ("phase-boundary", "--mu", "0:1e160"),
        ("phase-boundary", "--omega", "1e-300"),
        ("photon-dist", "--mu", "1e160", "--nu-max", "5"),
        ("photon-dist", "--omega", "1e-300", "--mu", "1"),
    ],
)
def test_overflowing_surface_is_numerical_failure(args):
    stderr = run_cli(*args, expect=3).stderr
    assert "the coherent surface overflows" in stderr and stderr.count("\n") == 1


def test_sacs_photon_moment_overflow_is_numerical_failure():
    # The even and odd <(a'a)^2> square |alpha|^2 = 2e200; the coherent branch alone prints.
    proc = run_cli("sweep", "--branch", "coherent,even,odd", "--mu", "1e100", expect=3)
    assert (proc.stdout, proc.stderr) == ("", (
        "numerical failure at mu=1e+100: the SACS photon moments overflow floats at "
        "|alpha|^2 = 2.000000e+200\n"
    ))
    _, header, rows = parse_csv(run_cli("sweep", "--branch", "coherent", "--mu", "1e100").stdout)
    assert header[1] == "coherent_energy" and len(rows) == 1


def test_sacs_second_photon_moment_past_floats_is_numerical_failure():
    # |alpha|^2 = 1.19e154 squares to a finite float, which the SACS term
    # then doubles past the range: an inf moment, not a printed row.
    args = ("sweep", "--branch", "even", "--mu", "7.7e76", "--outputs", "photons,distribution,m")
    proc = run_cli(*args, expect=3)
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "numerical failure at mu=7.7e+76: the SACS photon moments overflow floats at |alpha|^2 = "
    ) and proc.stderr.count("\n") == 1
    _, header, rows = parse_csv(run_cli("sweep", "--branch", "coherent", "--mu", "7.7e76").stdout)
    assert header[1] == "coherent_energy" and len(rows) == 1


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 0.7\nbranch = coherent\noutputs = energy\nrwa = true\n")
        proc = run_cli("sweep", "--config", str(cfg))
        _, header, rows = parse_csv(proc.stdout)
        assert header == ["mu", "coherent_energy"]
        assert column(header, rows, "coherent_energy") == [0.0]  # rwa: still normal
        proc = run_cli("sweep", "--config", str(cfg), "--mu", "1.2")
        _, header, rows = parse_csv(proc.stdout)
        assert float(rows[0][0]) == 1.2

    def test_blank_and_comment_lines_are_skipped(self, tmp_path):
        plain = tmp_path / "plain.cfg"
        plain.write_text("mu = 0.7\nbranch = coherent,even\n")
        commented = tmp_path / "commented.cfg"
        commented.write_text(
            "# one coupling, two branches\n\nmu = 0.7  # below the boundary\n   \n#\n"
            "branch = coherent,even\n"
        )
        plain_out, commented_out = (
            run_cli("sweep", "--config", str(cfg)).stdout for cfg in (plain, commented)
        )
        assert plain_out and commented_out == plain_out

    def test_config_na_counts_as_given(self, tmp_path):
        cfg = tmp_path / "na.cfg"
        cfg.write_text("na = X\n")
        run_cli("sweep", "--config", str(cfg), "--format", "json", expect=2)
        run_cli("photon-dist", "--config", str(cfg), expect=2)

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mu : 0.7\n")
        run_cli("sweep", "--config", str(cfg), expect=2)
        cfg.write_text("config = other.cfg\n")
        run_cli("sweep", "--config", str(cfg), expect=2)
        run_cli("sweep", "--config", str(tmp_path / "missing.cfg"), expect=2)


class TestPhaseBoundary:
    def test_full_and_conserving_boundaries(self):
        proc = run_cli("phase-boundary", "--tol", "1e-4")
        _, header, rows = parse_csv(proc.stdout)
        numeric = column(header, rows, "numeric_boundary")[0]
        analytic = column(header, rows, "analytic_boundary")[0]
        assert analytic == 0.5
        assert abs(numeric - 0.5) < 5e-4
        proc = run_cli("phase-boundary", "--rwa", "--tol", "1e-4")
        _, header, rows = parse_csv(proc.stdout)
        assert abs(column(header, rows, "numeric_boundary")[0] - 1.0) < 5e-4

    def test_shifted_ground_level_boundary(self):
        proc = run_cli("phase-boundary", "--omega1", "0.6", "--tol", "1e-5")
        _, header, rows = parse_csv(proc.stdout)
        expected = math.sqrt(1.0 - 0.6) / 2.0
        assert abs(column(header, rows, "numeric_boundary")[0] - expected) < 1e-5
        assert abs(column(header, rows, "analytic_boundary")[0] - expected) < 1e-12

    def test_missing_transition_is_numerical_failure(self):
        run_cli("phase-boundary", "--mu", "0.8:3", "--tol", "1e-3", expect=3)


class TestPhotonDist:
    def test_columns_sum_to_one(self):
        proc = run_cli("photon-dist", "--mu", "3")
        _, header, rows = parse_csv(proc.stdout)
        assert header == ["nu", "p_even", "p_odd", "p_coherent"]
        for name in header[1:]:
            total = sum(column(header, rows, name))
            assert abs(total - 1.0) < 1e-10

    def test_fit_metadata(self):
        proc = run_cli("photon-dist", "--mu", "3", "--fit")
        meta, _, _ = parse_csv(proc.stdout)
        fits = {
            line.split("=")[0].strip("# "): float(line.split("=")[1])
            for line in meta
            if line.startswith("# fit_")
        }
        for approx in ("even", "odd", "coherent"):
            assert abs(fits[f"fit_{approx}_mean"] - 17.74) < 0.36
            assert abs(fits[f"fit_{approx}_sigma"] - 4.23) < 0.13

    def test_failed_fit_is_numerical_failure(self):
        # Below the boundary the even and coherent tables are delta_0, which
        # no normal curve fits.
        proc = run_cli("photon-dist", "--mu", "0.3", "--fit", expect=3)
        assert "Traceback" not in proc.stderr

    def test_exact_basis_limit_is_numerical_failure(self):
        # N = 200 needs 31 x 20301 states at the first cutoff, over the limit.
        # Off double resonance: the default frame solves 31 x 201 states.
        proc = run_cli(
            "photon-dist", "--branch", "exact", "--mu", "0.3", "--n-atoms", "200",
            "--omega2", "0.9", expect=3,
        )
        assert "Traceback" not in proc.stderr
        assert "basis limit" in proc.stderr

    @pytest.mark.parametrize(
        "flags",
        [
            ("--omega", "2"),
            ("--omega1", "0.2"),
            ("--atom-config", "xi"),
            ("--atom-config", "lambda", "--rwa"),
        ],
    )
    def test_frame_and_scheme_flags_are_honoured(self, flags):
        from tricavity import cli, fock, surface
        from tricavity.model import ParityBranch

        proc = run_cli("photon-dist", "--mu", "3", *flags)
        _, header, rows = parse_csv(proc.stdout)
        args = cli.build_parser().parse_args(["photon-dist", "--mu", "3", *flags])
        params = cli._make_params(args, 3.0, math.pi / 4, 2)
        point = surface.minimize_surface(params).as_point()
        space = fock.TruncatedSpace(2, fock.suggested_nu_max(point.alpha))
        for branch in ParityBranch:
            vec = fock.build_sacs_vector(point, branch, params.config, space)
            oracle = vec.photon_distribution()
            table = np.array(column(header, rows, f"p_{branch.name.lower()}"))
            size = max(oracle.size, table.size)
            oracle, table = (np.pad(p, (0, size - p.size)) for p in (oracle, table))
            assert np.max(np.abs(table - oracle)) < 1e-12

    def test_default_table_past_the_basis_limit_is_bad_input(self):
        # |alpha|^2 is about 2e10 here: the default table would have 2e10 rows.
        proc = run_cli("photon-dist", "--mu", "1e5", expect=2)
        assert "--nu-max sets a shorter one" in proc.stderr
        _, header, rows = parse_csv(run_cli("photon-dist", "--mu", "1e5", "--nu-max", "5").stdout)
        assert column(header, rows, "nu") == [0, 1, 2, 3, 4, 5]

    def test_exact_column_available(self):
        proc = run_cli(
            "photon-dist", "--mu", "1.2", "--branch", "even,exact", "--nu-max", "40"
        )
        _, header, rows = parse_csv(proc.stdout)
        assert header == ["nu", "p_even", "p_exact"]
        total = sum(column(header, rows, "p_exact"))
        assert abs(total - 1.0) < 1e-10


class TestSpectrumAndValidate:
    def test_spectrum_whose_lanczos_gives_up_is_a_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(fock, "eigsh", arpack_gives_up_or_lapack_fails)
        proc = run_cli("spectrum", "--mu", "1", expect=3)
        assert proc.stdout == ""
        assert proc.stderr.startswith("numerical failure: no eigenpairs of a ")
        assert proc.stderr.count("\n") == 1 and "ARPACK error -1" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        (
            ("--mu", "0.0001", "--n-atoms", "3"),
            ("--mu", "0.001", "--theta", "1.5707963267948966", "--n-atoms", "3", "--k", "8"),
        ),
        ids=("mu-1e-4", "mu-1e-3-theta-pi/2"),
    )
    def test_weak_coupling_spectrum_matches_dense_components(self, args):
        # Clustered weak-coupling spectra that plain Lanczos, with ARPACK's
        # default Krylov subspace, did not resolve (exit 3). Shift-invert on
        # the banded factor of each large component converges; every value
        # is within 1e-12 of a dense solve of every connected component.
        namespace = cli.build_parser().parse_args(["spectrum", *args])
        params = cli._single_point(namespace, "spectrum")[0]
        space = fock.TruncatedSpace(params.n_atoms, namespace.nu_max)
        h = fock.build_hamiltonian(params, space)
        parity = fock.m_diagonal(space, params.config) % 2
        labels = connected_components(h, directed=False)[1]
        reference = {"even": [], "odd": []}
        for label in range(labels.max() + 1):
            part = np.flatnonzero(labels == label)
            values = scipy.linalg.eigvalsh(h[np.ix_(part, part)].toarray())
            reference[("even", "odd")[parity[part[0]]]].extend(values)
        assert max(np.bincount(labels)) > fock.DENSE_CUTOFF
        _, _, rows = parse_csv(run_cli("spectrum", *args).stdout)
        found = {"even": [], "odd": []}
        for sector, _, value in rows:
            found[sector].append(float(value))
        for sector, values in found.items():
            assert len(values) == namespace.k
            expected = sorted(reference[sector])[: namespace.k]
            assert np.max(np.abs(np.array(values) - expected)) <= 1e-12

    def test_spectrum_tables_sorted_sector_energies(self):
        proc = run_cli("spectrum", "--mu", "1", "--nu-max", "40", "--k", "3")
        _, header, rows = parse_csv(proc.stdout)
        assert header == ["sector", "index", "energy"]
        sectors = {}
        for row in rows:
            sectors.setdefault(row[0], []).append(float(row[2]))
        assert sorted(sectors) == ["even", "odd"]
        for vals in sectors.values():
            assert vals == sorted(vals) and len(vals) == 3
        assert abs(sectors["even"][0] + 1.1542805451522746) < 1e-8

    def test_spectrum_builds_the_hamiltonian_once(self, monkeypatch):
        # Both sectors are sliced from one Hamiltonian.
        build, builds = fock.build_hamiltonian, []

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(fock, "build_hamiltonian", counted)
        run_cli("spectrum", "--mu", "1")
        assert len(builds) == 1

    def test_spectrum_keeps_degenerate_copies_at_zero_coupling(self):
        # H is diagonal at mu = 0, so every state is a block of its own and
        # each degenerate copy is exact. Each sector is larger than
        # DENSE_CUTOFF; Lanczos on one block per sector misses the even
        # vacuum and leaves the copies off by rounding.
        even, odd = fock.parity_sectors(fock.TruncatedSpace(2, 120), AtomicConfiguration.V)
        assert min(even.size, odd.size) > fock.DENSE_CUTOFF
        _, _, rows = parse_csv(run_cli("spectrum", "--mu", "0").stdout)
        sectors = {"even": [], "odd": []}
        for sector, _, value in rows:
            sectors[sector].append(float(value))
        assert sectors == {
            "even": [0.0, 2.0, 2.0, 2.0, 2.0, 2.0],
            "odd": [1.0, 1.0, 1.0, 3.0, 3.0, 3.0],
        }

    def test_validate_fast_byte_determinism(self):
        first = run_cli_process("validate", "--level", "fast")
        second = run_cli_process("validate", "--level", "fast")
        assert (first.stdout, first.stderr) == (second.stdout, second.stderr)

    def test_validate_fast_passes(self):
        proc = run_cli("validate", "--level", "fast")
        lines = [l for l in proc.stdout.splitlines() if l.startswith("[")]
        assert len(lines) >= 14
        assert all(l.startswith(("[PASS]", "[INFO]")) for l in lines)
