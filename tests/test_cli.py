"""End-to-end behavior of the command-line interface."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

CMD = [sys.executable, "-m", "tricavity.cli"]


def run_cli(*args, expect: int = 0):
    proc = subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} (wanted {expect})\nstderr: {proc.stderr[-2000:]}"
    )
    return proc


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
        first = run_cli(*args).stdout
        second = run_cli(*args).stdout
        assert first == second

    def test_parallel_matches_serial(self):
        args = ("sweep", "--mu", "0.3:1.2:4", "--branch", "coherent,odd", "--outputs", "energy")
        serial = run_cli(*args).stdout
        parallel = run_cli(*args, "--jobs", "2").stdout
        assert serial == parallel

    def test_expected_values_on_both_sides_of_transition(self):
        run_cli("sweep", "--mu", "0.3:1", "--branch", "coherent", expect=2)
        proc = run_cli("sweep", "--mu", "0.3", "--branch", "even,odd", "--outputs", "energy")
        _, header, rows = parse_csv(proc.stdout)
        assert column(header, rows, "even_energy") == [0.0]
        assert abs(column(header, rows, "odd_energy")[0] - 0.25) < 1e-12
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

    def test_two_grids_rejected(self):
        run_cli("sweep", "--mu", "0:1:3", "--theta", "0:1:3", expect=2)

    def test_out_file(self, tmp_path):
        target = tmp_path / "table.csv"
        run_cli("sweep", "--mu", "0.4", "--branch", "even", "--outputs", "energy",
                "--out", str(target))
        meta, header, rows = parse_csv(target.read_text())
        assert header == ["mu", "even_energy"]
        assert len(rows) == 1


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

    def test_exact_column_available(self):
        proc = run_cli(
            "photon-dist", "--mu", "1.2", "--branch", "even,exact", "--nu-max", "40"
        )
        _, header, rows = parse_csv(proc.stdout)
        assert header == ["nu", "p_even", "p_exact"]
        total = sum(column(header, rows, "p_exact"))
        assert abs(total - 1.0) < 1e-10


class TestSpectrumAndValidate:
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

    def test_validate_fast_passes(self):
        proc = run_cli("validate", "--level", "fast")
        lines = [l for l in proc.stdout.splitlines() if l.startswith("[")]
        assert len(lines) >= 14
        assert all(l.startswith(("[PASS]", "[INFO]")) for l in lines)
