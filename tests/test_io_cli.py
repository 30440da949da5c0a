import importlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from phdisk import (
    BoundaryFunction,
    GridFunction,
    emit_slice,
    load,
    load_csv,
    load_phd1,
    make_grid,
    save,
    save_csv,
    save_phd1,
)


class TestPhd1:
    def test_grid_round_trip_exact(self, grid128, tmp_path):
        rng = np.random.default_rng(40)
        vals = rng.standard_normal((128, 256)) + 1j * rng.standard_normal((128, 256))
        f = GridFunction(grid128, vals)
        p = tmp_path / "f.phd1"
        save_phd1(p, f)
        g = load_phd1(p)
        assert isinstance(g, GridFunction)
        assert np.array_equal(g.values, f.values)

    def test_boundary_round_trip(self, tmp_path):
        # bit for bit, signed zeros included: 1 - 0j and -0 - 0j used to
        # come back with imaginary part +0
        vals = BoundaryFunction.from_function(256, lambda th: np.exp(1j * th) + 2).values
        vals[:2] = complex(1.0, -0.0), complex(-0.0, -0.0)
        b = BoundaryFunction(vals)
        p = tmp_path / "b.phd1"
        save_phd1(p, b)
        g = load_phd1(p)
        assert isinstance(g, BoundaryFunction)
        assert g.values.tobytes() == b.values.tobytes()
        assert np.signbit(g.values[:2].view(float)).tolist() == [False, True, True, True]

    def test_mask_round_trips_as_nan(self, grid128, tmp_path):
        vals = np.ones((128, 256), dtype=complex)
        vals[3, 7] = np.inf
        f = GridFunction(grid128, vals)
        p = tmp_path / "m.phd1"
        save_phd1(p, f)
        g = load_phd1(p)
        assert g.mask is not None and g.mask[3, 7]

    @pytest.mark.parametrize("name", ["m.phd1", "m.csv"])
    def test_boundary_mask_round_trips_as_nan(self, tmp_path, name):
        vals = np.ones(16, dtype=complex)
        vals[[2, 9]] = np.nan, np.inf
        b = BoundaryFunction(vals)
        save(tmp_path / name, b)
        if name.endswith(".phd1"):
            stored = np.frombuffer((tmp_path / name).read_bytes(), dtype="<f8", offset=12)
        else:
            stored = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)[:, 2:].ravel()
        pairs = np.isnan(stored.reshape(16, 2))
        assert np.flatnonzero(pairs.all(axis=1)).tolist() == [2, 9] and pairs.sum() == 4
        back = load(tmp_path / name)
        assert isinstance(back, BoundaryFunction)
        assert np.flatnonzero(back.mask).tolist() == [2, 9]
        assert np.array_equal(back.values, b.values)

    def test_magic_check(self, tmp_path):
        p = tmp_path / "junk.phd1"
        p.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ValueError, match="not a PHD1"):
            load_phd1(p)

    def test_short_header(self, tmp_path):
        # 6 bytes used to fail inside numpy: "buffer size must be a
        # multiple of element size"
        p = tmp_path / "short.phd1"
        p.write_bytes(b"PHD1\x01\x00")
        with pytest.raises(ValueError, match="short.phd1: truncated header"):
            load_phd1(p)

    def test_byte_determinism(self, grid128, tmp_path):
        f = GridFunction(grid128, grid128.nodes_z())
        p1, p2 = tmp_path / "a.phd1", tmp_path / "b.phd1"
        save_phd1(p1, f)
        save_phd1(p2, f)
        assert p1.read_bytes() == p2.read_bytes()

    def test_disk_radius_refused(self, tmp_path):
        f = GridFunction.zeros(make_grid(16, 8, outer_radius=4.0))
        with pytest.raises(ValueError, match="CSV"):
            save_phd1(tmp_path / "f.phd1", f)
        assert not (tmp_path / "f.phd1").exists()


class TestCsv:
    def test_round_trip(self, tmp_path):
        g = make_grid(8, 4)
        f = GridFunction(g, g.nodes_z())
        p = tmp_path / "f.csv"
        save_csv(p, f)
        back = load_csv(p)
        assert np.max(np.abs(back.values - f.values)) == 0.0

    def test_boundary_round_trip(self, tmp_path):
        b = BoundaryFunction.from_function(8, lambda th: np.cos(th).astype(complex))
        p = tmp_path / "b.csv"
        save_csv(p, b)
        back = load_csv(p)
        assert isinstance(back, BoundaryFunction)
        assert np.max(np.abs(back.values - b.values)) == 0.0

    def test_disk_radius_round_trip(self, tmp_path):
        g = make_grid(16, 8, outer_radius=4.0)
        f = GridFunction(g, g.nodes_z())
        p = tmp_path / "f.csv"
        save_csv(p, f)
        back = load_csv(p)
        assert back.grid.outer_radius == 4.0
        assert np.array_equal(back.grid.radii, g.radii)
        assert np.max(np.abs(back.values - f.values)) == 0.0

    @pytest.mark.parametrize("which", ["radii", "angles"])
    def test_off_grid_rejected(self, tmp_path, which):
        radii = np.array([0.25, 0.5, 0.75, 1.0])
        thetas = 2.0 * np.pi * np.arange(8) / 8
        if which == "radii":
            radii[0] = 0.3
        else:
            thetas[1] *= 1.01
        p = tmp_path / "f.csv"
        rows = ["r,theta,re,im"] + [f"{float(r)!r},{float(t)!r},0.0,0.0" for r in radii for t in thetas]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=which):
            load_csv(p)

    def test_bytes_match_csv_writer(self, tmp_path):
        # reference: one csv.writer row of repr floats per node, "\r\n" ends
        import csv

        g = make_grid(64, 20, outer_radius=2.0)
        vals = g.nodes_z() - 0.3
        vals[0, 0] = complex(-0.0, 0.0)
        vals[1, 2] = complex(1e-300, -0.0)
        vals[2, 5] = complex(np.nan, 1.0)  # masked: written as nan, nan
        # an explicit mask over finite values: a whole ring and scattered nodes
        mask = np.zeros((g.n_r, g.n_theta), bool)
        mask[3] = True
        mask[::7, ::5] = True
        masked = GridFunction(g, g.nodes_z() ** 2, mask=mask)
        assert masked.mask is not None and not np.any(np.isnan(masked.values))
        # a real field stored with imaginary parts -0.0
        real = GridFunction(g, np.conj(np.exp(g.nodes_z().real).astype(complex)))
        assert np.all(np.signbit(real.values.imag))
        b = BoundaryFunction(np.exp(1j * g.thetas) * 1e20)
        for name, f, radii in (
            ("grid.csv", GridFunction(g, vals), g.radii),
            ("masked.csv", masked, g.radii),
            ("real.csv", real, g.radii),
            ("ring.csv", b, [1.0]),
        ):
            ref = tmp_path / f"ref_{name}"
            values = np.atleast_2d(f.values.copy())
            if f.mask is not None:
                values[np.atleast_2d(f.mask)] = complex(np.nan, np.nan)
            with open(ref, "w", newline="") as fh:
                wr = csv.writer(fh)
                wr.writerow(["r", "theta", "re", "im"])
                for j, r in enumerate(radii):
                    for k, t in enumerate(g.thetas):
                        v = values[j, k]
                        wr.writerow([repr(float(r)), repr(float(t)), repr(float(v.real)), repr(float(v.imag))])
            save_csv(tmp_path / name, f)
            assert (tmp_path / name).read_bytes() == ref.read_bytes()

    def test_round_trip_leaves_numpy_ma_unimported(self, tmp_path):
        """A fresh interpreter saves and reloads a CSV grid, masked nodes
        included, without importing numpy.ma (about 15 ms of a cold CLI run)."""
        probe = textwrap.dedent(
            """
            import sys
            import numpy as np
            import phdisk as ph
            g = ph.make_grid(16, 8, outer_radius=2.0)
            mask = np.zeros((8, 16), bool)
            mask[2, 3] = True
            f = ph.GridFunction(g, g.nodes_z(), mask=mask)
            ph.save_csv(sys.argv[1], f)
            back = ph.load_csv(sys.argv[1])
            assert back.mask[2, 3] and back.mask.sum() == 1 and back.grid.outer_radius == 2.0
            print("numpy.ma" in sys.modules)
            """
        )
        p = tmp_path / "f.csv"
        res = subprocess.run([sys.executable, "-c", probe, str(p)], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_header_check(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y,z\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(p)

    @pytest.mark.parametrize(
        "body",
        [
            "",
            "".join(f"1.0,{2.0 * np.pi * k / 8!r},0.0\n" for k in range(8)),
            "".join(f"1.0,{2.0 * np.pi * k / 8!r},0.0,0.0,9.0\n" for k in range(8)),
        ],
        ids=["header-only", "3-fields", "5-fields"],
    )
    def test_malformed_rows_rejected(self, tmp_path, body):
        # on-grid rows: the header-only and 3-field files used to raise
        # IndexError, and the fifth field used to be dropped
        p = tmp_path / "h.csv"
        p.write_text("r,theta,re,im\n" + body)
        with pytest.raises(ValueError, match="h.csv: expected one or more rows of 4 fields"):
            load_csv(p)

    @pytest.mark.parametrize(
        "body",
        [
            "",
            "".join(f"1.0,{2.0 * np.pi * k / 8!r},0.0{',0.0' * (k % 2)}\n" for k in range(8)),
            "1.0,0.0,0.0,zero\n",
        ],
        ids=["header-only", "ragged", "non-numeric"],
    )
    def test_unparsable_rows_rejected_without_warning(self, tmp_path, body):
        p = tmp_path / "h.csv"
        p.write_text("r,theta,re,im\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="h.csv: expected one or more rows of 4 fields"):
                load_csv(p)


class TestSlices:
    def test_radius_slice(self, grid128, tmp_path):
        z = grid128.nodes_z()
        f = GridFunction(grid128, np.exp(z.real))
        p = tmp_path / "slice.csv"
        emit_slice(f, "radius", 1.0, p)
        rows = p.read_text().strip().splitlines()
        assert rows[0] == "coordinate,re,im,abs,flag"
        first = rows[1].split(",")
        assert abs(float(first[1]) - np.exp(np.cos(0.0))) < 1e-12

    def test_angle_slice(self, grid128, tmp_path):
        z = grid128.nodes_z()
        f = GridFunction(grid128, (np.abs(z) ** 2 - 1).astype(complex))
        p = tmp_path / "slice.csv"
        emit_slice(f, "angle", 0.0, p)
        rows = p.read_text().strip().splitlines()
        vals = [float(r.split(",")[1]) for r in rows[1:]]
        assert abs(vals[0] - (grid128.radii[0] ** 2 - 1)) < 1e-12

    def test_masked_row_flagged(self, grid128, tmp_path):
        vals = np.ones((128, 256), dtype=complex)
        vals[-1, 0] = np.nan
        f = GridFunction(grid128, vals)
        p = tmp_path / "slice.csv"
        emit_slice(f, "radius", 1.0, p)
        rows = p.read_text().strip().splitlines()
        assert rows[1].endswith("masked")

    def test_off_grid_rejected(self, grid128, tmp_path):
        f = GridFunction.zeros(grid128)
        with pytest.raises(ValueError, match="not on the grid"):
            emit_slice(f, "radius", 0.123, tmp_path / "x.csv")

    @pytest.mark.parametrize("along", ["radius", "angle"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_slice_rejected(self, grid128, tmp_path, along, value):
        # inf used to raise OverflowError and NaN "cannot convert float NaN to integer"
        f = GridFunction.zeros(grid128)
        with pytest.raises(ValueError, match=f"{along} {value} is not on the grid"):
            emit_slice(f, along, value, tmp_path / "x.csv")

    def test_boundary_function_rejected(self, tmp_path):
        # used to raise AttributeError (no grid), so the CLI's
        # {"field": "psi_sharp"} slice exited "internal"
        f = BoundaryFunction.from_function(16, np.cos)
        with pytest.raises(ValueError, match="slices are taken of grid functions"):
            emit_slice(f, "radius", 1.0, tmp_path / "x.csv")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "phdisk.cli", *args], capture_output=True, text=True
    )


class TestCli:
    def test_selftest(self, tmp_path):
        res = run_cli("selftest", "--out", str(tmp_path))
        assert res.returncode == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True

    def test_missing_config_is_validation_error(self, tmp_path):
        res = run_cli("solve-riesz", "--out", str(tmp_path))
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "validation"

    def test_solve_riesz_end_to_end(self, tmp_path):
        g = make_grid(256, 64)
        save_phd1(tmp_path / "alpha.phd1", GridFunction.zeros(g))
        save_phd1(tmp_path / "psi.phd1", BoundaryFunction.from_function(256, np.cos))
        cfg = {
            "command": "solve-riesz",
            "inputs": {"alpha": str(tmp_path / "alpha.phd1"), "psi": str(tmp_path / "psi.phd1")},
            "params": {"c": 0.0},
            "solver": {"tol": 1e-10, "max_iter": 50},
            "emit_slices": [{"field": "w", "radius": 1.0}],
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out1 = tmp_path / "run1"
        res = run_cli("solve-riesz", "--config", str(tmp_path / "cfg.json"), "--out", str(out1))
        assert res.returncode == 0, res.stderr
        w = load(out1 / "w.phd1")
        expected = np.cos(w.grid.thetas) + 1j * np.sin(w.grid.thetas)
        assert np.max(np.abs(w.values[-1] - expected)) < 1e-10
        report = json.loads((out1 / "report.json").read_text())
        assert report["solve"]["converged"] is True
        # the classical case: ||e^{i theta}||_{L^2(T)} / ||cos||_{L^2(T)} = sqrt(2)
        assert 0.5 <= report["solve"]["measured_constant"] <= 2.0
        assert (out1 / "w_radius_1.csv").exists()

        # idempotence: identical config gives bit-identical grid files
        out2 = tmp_path / "run2"
        res2 = run_cli("solve-riesz", "--config", str(tmp_path / "cfg.json"), "--out", str(out2))
        assert res2.returncode == 0
        assert (out1 / "w.phd1").read_bytes() == (out2 / "w.phd1").read_bytes()

    def test_readme_example_config_runs(self, tmp_path, monkeypatch):
        # the README's example, verbatim, on a small grid: its solver block
        # used to name p, which the validator no longer knows
        from phdisk import cli

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
        cfg = json.loads(block)
        assert cfg["command"] == "solve-riesz"
        monkeypatch.chdir(tmp_path)
        g = make_grid(64, 32)
        save_phd1("alpha.phd1", GridFunction.constant(g, 0.5))
        save_phd1("psi.phd1", BoundaryFunction.from_function(64, lambda th: np.exp(np.cos(th))))
        Path("cfg.json").write_text(block)
        assert cli.main(["solve-riesz", "--config", "cfg.json", "--out", "results"]) == 0
        report = json.loads(Path("results/report.json").read_text())
        assert report["config"] == cfg
        assert report["solve"]["converged"] is True
        assert Path("results/w_radius_1.csv").exists()

    def test_solve_conductivity_end_to_end(self, tmp_path):
        g = make_grid(256, 64)
        save_phd1(tmp_path / "sigma.phd1", GridFunction.constant(g, 1.0))
        save_phd1(tmp_path / "psi.phd1", BoundaryFunction.from_function(256, np.cos))
        cfg = {
            "inputs": {"sigma": str(tmp_path / "sigma.phd1"), "psi": str(tmp_path / "psi.phd1")},
            "solver": {"tol": 1e-10},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = run_cli("solve-conductivity", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o"))
        assert res.returncode == 0, res.stderr
        u = load(tmp_path / "o" / "u.phd1")
        z = u.grid.nodes_z()
        assert np.max(np.abs(u.values - z.real)) < 1e-10
        # the nested solve reports its coarse level (128 x 32) next to the
        # conductivity wrapper's own keys
        extra = json.loads((tmp_path / "o" / "report.json").read_text())["solve"]["extra"]
        assert set(extra) == {"coarse_iterations", "pde_residual", "weighted_boundary_match"}
        assert len(extra["coarse_iterations"]) == 1

    def test_nonconvergence_exit_code(self, tmp_path):
        g = make_grid(256, 64)
        save_phd1(tmp_path / "alpha.phd1", GridFunction.constant(g, 0.5))
        save_phd1(
            tmp_path / "psi.phd1",
            BoundaryFunction.from_function(256, lambda th: np.exp(np.cos(th))),
        )
        cfg = {
            "inputs": {"alpha": str(tmp_path / "alpha.phd1"), "psi": str(tmp_path / "psi.phd1")},
            "solver": {"tol": 1e-13, "max_iter": 2},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = run_cli("solve-riesz", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o2"))
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["error"] == "non-convergence"
        assert err["report"]["iterations"] == 2

    def test_solver_block_validated(self, tmp_path):
        save_phd1(tmp_path / "sigma.phd1", GridFunction.constant(make_grid(16, 8), 1.0))
        save_phd1(tmp_path / "psi.phd1", BoundaryFunction.from_function(16, np.cos))
        cfg = {
            "inputs": {"sigma": str(tmp_path / "sigma.phd1"), "psi": str(tmp_path / "psi.phd1")},
            "solver": {"max_iter": 0},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = run_cli("solve-conductivity", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "validation"
        assert "max_iter" in err["message"]

    def test_complex_sigma_rejected(self, tmp_path):
        g = make_grid(16, 8)
        save_phd1(tmp_path / "sigma.phd1", GridFunction(g, np.full((8, 16), 1.0 + 0.5j)))
        save_phd1(tmp_path / "psi.phd1", BoundaryFunction.from_function(16, np.cos))
        cfg = {"inputs": {"sigma": str(tmp_path / "sigma.phd1"), "psi": str(tmp_path / "psi.phd1")}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = run_cli("solve-conductivity", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "validation"
        assert "sigma must be real-valued" in err["message"]
        assert not (tmp_path / "o" / "u.phd1").exists()

    @pytest.mark.parametrize(
        "block, key",
        [
            ({"max_iter": 2.7}, "max_iter"),
            ({"max_iter": "2.7"}, "max_iter"),
            ({"zero_threshold": "abc"}, "solver keys"),
            ({"zero_threshold": 0}, "solver keys"),
            ({"p": 2.0}, "solver keys"),
            ({"gamma": 0.7}, "solver keys"),
            ({"damping": 0.5}, "solver keys"),
        ],
        ids=[
            "max_iter=2.7", "max_iter='2.7'", "zero_threshold=abc", "zero_threshold=0", "p=2.0",
            "gamma=0.7", "damping=0.5",
        ],
    )
    def test_solver_block_rejects_bad_values(self, tmp_path, block, key):
        # 2.7 used to run as 2 iterations; 'abc' used to fail inside the
        # solve; gamma, which no solver reads, used to be accepted; damping
        # is gone, the fixed-point loop picks its own mixing weight; so are
        # p (the Riesz report is at p = 2) and zero_threshold (the
        # parametrizations use the relative default)
        save_phd1(tmp_path / "alpha.phd1", GridFunction.constant(make_grid(16, 8), 0.5))
        save_phd1(tmp_path / "psi.phd1", BoundaryFunction.from_function(16, np.cos))
        cfg = {
            "inputs": {"alpha": str(tmp_path / "alpha.phd1"), "psi": str(tmp_path / "psi.phd1")},
            "solver": block,
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = run_cli("solve-riesz", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "validation"
        assert err["message"].startswith(f"{key} must")
        assert next(iter(block)) in err["message"]

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("solve-riesz", {"solver": {"tol": None}}, "tol must be a number"),
            ("solve-riesz", {"solver": {"p": [2]}}, "solver keys must be among tol, max_iter; got p"),
            ("solve-riesz", {"params": {"c": "one"}}, "c must be a number"),
            ("solve-dbar", {"params": {"lambda": None}}, "lambda must be a number"),
            ("solve-dbar", {"params": {"theta0": [0.3]}}, "theta0 must be a number"),
            ("diagnose", {"diagnostic": "ap", "params": {"p": None}}, "p must be a number"),
            ("diagnose", {"diagnostic": "multiplier", "params": {"gamma": {}}}, "gamma must be a number"),
            ("transform", {"transform": "cauchy2", "params": {"R": None}}, "R must be a number"),
            ("solve-riesz", {"emit_slices": [{"field": "w", "radius": None}]}, "radius must be a number"),
            ("diagnose", {"diagnostic": "bmo", "params": {"max_level": None}}, "max_level must be a number"),
            ("diagnose", {"diagnostic": "ap", "params": {"max_level": 2.7}}, "max_level must be an integer"),
            ("diagnose", {"diagnostic": "jn", "params": {"arc": 5}}, "arc must be a list of 2 numbers"),
            ("diagnose", {"diagnostic": "jn", "params": {"arc": [0.0, np.pi, 1.0]}}, "arc must be a list of 2"),
            ("diagnose", {"diagnostic": "exp-integrability", "params": {"ells": "ab"}}, "ells must be a non-empty list"),
            ("diagnose", {"diagnostic": "exp-integrability", "params": {"ells": 2}}, "ells must be a non-empty list"),
            ("diagnose", {"diagnostic": "c2-growth", "params": {"radii": [1, None]}}, "radii[1] must be a number"),
            ("diagnose", {"diagnostic": "equicontinuity", "params": {"side_lengths": "x"}}, "side_lengths must be a"),
            ("factorize", {"params": {"zero_threshold": [1]}}, "factorize reads no params key zero_threshold"),
            ("factorize", {"params": {"zero_threshold": -1}}, "factorize reads no params key zero_threshold"),
            ("solve-dbar", {"params": {"lamda": 0.3}}, "solve-dbar reads no params key lamda (it reads lambda, theta0)"),
            ("transform", {"transform": "cauchy", "params": {"R": 2.0}}, "transform reads no params key R"),
            ("solve-riesz", {"params": [1, 2]}, "params must be a JSON object"),
            ("transform", {"transform": "cauchy2", "params": {"R": 10**400}}, "R must be a finite number"),
            ("solve-riesz", {"solver": {"max_iter": 10**400}}, "max_iter must be a finite number"),
            ("transform", {"transform": "cauchy", "emit_slices": 5}, "emit_slices must be a list"),
            (
                "transform",
                {"transform": "cauchy", "emit_slices": [{"field": ["out"], "radius": 0.5}]},
                "emit_slices refers to unknown field ['out']",
            ),
            ("transform", {"transform": "cauchy", "inputs": {"h": 5}}, "config inputs must map 'h' to a file path"),
            ("transform", {"transform": "cauchy", "format": "CSV"}, "format must be 'phd1' or 'csv'; got 'CSV'"),
        ],
        ids=[
            "tol", "solver-p", "c", "lambda", "theta0", "ap-p", "gamma", "R", "slice-radius",
            "max_level=null", "max_level=2.7", "arc=5", "arc-of-3", "ells=ab", "ells=2",
            "radii-null", "side_lengths=x", "zero_threshold=[1]", "zero_threshold=-1", "lamda", "cauchy-R",
            "params-list",
            "R=1e400", "max_iter=1e400", "emit_slices=5", "slice-field-list", "inputs-h=5", "format=CSV",
        ],
    )
    def test_config_number_of_wrong_type_is_validation_error(self, tmp_path, capsys, command, extra, message):
        # these used to exit as "internal", with a traceback, except
        # max_level = 2.7, which ran at level 2, an arc of three numbers,
        # which used the first two, format = "CSV", which wrote PHD1, and
        # params keys the command does not read, which were ignored: the
        # misspelt lamda ran at lambda = 0, and zero_threshold is gone
        from phdisk import cli

        g = make_grid(16, 8)
        inputs = {}
        for name in ("alpha", "a", "h", "f", "g", "w", "beta"):
            inputs[name] = str(tmp_path / f"{name}.phd1")
            save_phd1(inputs[name], GridFunction.constant(g, 0.5))
        for name in ("psi", "weight"):
            inputs[name] = str(tmp_path / f"{name}.phd1")
            save_phd1(inputs[name], BoundaryFunction.from_function(16, lambda th: 2.0 + np.cos(th)))
        (tmp_path / "cfg.json").write_text(json.dumps({"inputs": inputs, **extra}))
        code = cli.main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["message"].startswith(message)

    @pytest.mark.parametrize(
        "diagnostic, params, message",
        [
            ("jn", {"arc": [0.04, np.pi + 0.04]}, "arc ends (0.04, "),
            ("jn", {"arc": [0.0, 4.0 * np.pi]}, "arc (0.0, 12.56"),
            ("trace-convergence", {"p": 0.0}, "p must be positive"),
            ("trace-convergence", {"p": -1.0}, "p must be positive"),
            ("equicontinuity", {"side_lengths": [0.5, 0]}, "side length 0.0 must be finite and positive"),
            ("exp-integrability", {"ells": [1.0, 0]}, "ell 0.0 must be finite and positive"),
        ],
        ids=["jn-off-grid-arc", "jn-arc-4pi", "trace-p=0", "trace-p=-1", "equicontinuity-side=0", "exp-integrability-ell=0"],
    )
    def test_diagnostic_value_out_of_range_is_validation_error(self, tmp_path, capsys, diagnostic, params, message):
        # the arcs used to be rounded to (0, pi) and run at length 4 pi;
        # p = 0 exited "internal" (ZeroDivisionError) and p = -1 printed
        # numbers; side 0 exited "internal" (ZeroDivisionError); ell 0
        # printed a report marked satisfied
        from phdisk import cli

        inputs = {
            "h": str(tmp_path / "h.phd1"),
            "w": str(tmp_path / "w.phd1"),
            "beta": str(tmp_path / "w.phd1"),
            "f": str(tmp_path / "w.phd1"),
        }
        save_phd1(inputs["h"], BoundaryFunction.from_function(64, np.cos))
        g = make_grid(64, 16)
        save_phd1(inputs["w"], GridFunction(g, g.nodes_z()))
        cfg = {"diagnostic": diagnostic, "inputs": inputs, "params": params}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert cli.main(["diagnose", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "d")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["message"].startswith(message)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"field": "nope", "radius": 0.5}, "emit_slices refers to unknown field 'nope'"),
            ({"field": "out", "radius": 0.123}, "radius 0.123 is not on the grid"),
        ],
        ids=["unknown-field", "off-grid-radius"],
    )
    def test_bad_slice_spec_writes_no_output(self, tmp_path, capsys, spec, message):
        # both used to exit "validation" with out.phd1 already written and
        # no report.json: the specs were checked after the grid outputs
        from phdisk import cli

        save_phd1(tmp_path / "h.phd1", GridFunction.constant(make_grid(16, 8), 0.5))
        cfg = {"transform": "cauchy", "inputs": {"h": str(tmp_path / "h.phd1")}, "emit_slices": [spec]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert cli.main(["transform", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["message"].startswith(message)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("fmt, ext", [(None, ".phd1"), ("phd1", ".phd1"), ("csv", ".csv")])
    def test_format_values_are_read(self, tmp_path, fmt, ext):
        from phdisk import cli

        save_phd1(tmp_path / "h.phd1", GridFunction.constant(make_grid(16, 8), 0.5))
        cfg = {"transform": "cauchy", "inputs": {"h": str(tmp_path / "h.phd1")}}
        if fmt is not None:
            cfg["format"] = fmt
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert cli.main(["transform", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]) == 0
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == sorted([f"out{ext}", "report.json"])
        assert isinstance(load(tmp_path / "o" / f"out{ext}"), GridFunction)

    @pytest.mark.parametrize("value", [3, 3.0, "3"])
    def test_integral_max_level_is_read(self, tmp_path, capsys, value):
        from phdisk import cli

        save_phd1(tmp_path / "h.phd1", BoundaryFunction.from_function(16, np.cos))
        cfg = {"diagnostic": "bmo", "inputs": {"h": str(tmp_path / "h.phd1")}, "params": {"max_level": value}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert cli.main(["diagnose", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "d")]) == 0
        per_arc = json.loads((tmp_path / "d" / "report.json").read_text())["diagnostic"]["per_arc"]
        assert len(per_arc) == 1 + 2 + 4 + 8

    @pytest.mark.parametrize("value", [50, 50.0, "50", "50.0", " 50 "])
    def test_solver_block_accepts_integral_max_iter(self, value):
        from phdisk import cli

        assert cli._solver_config({"solver": {"max_iter": value}}).max_iter == 50

    def test_unexpected_failure_is_internal_error(self, tmp_path, monkeypatch, capsys):
        from phdisk import cli, transforms

        def broken(h):
            raise RuntimeError("transform bug")

        monkeypatch.setattr(transforms, "cauchy", broken)
        save_phd1(tmp_path / "h.phd1", GridFunction.constant(make_grid(16, 8), 1.0))
        cfg = {"transform": "cauchy", "inputs": {"h": str(tmp_path / "h.phd1")}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = cli.main(["transform", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "t")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "internal"
        assert "RuntimeError: transform bug" in err["message"]

    def test_multiplier_gamma_defaults_to_quarter_pi(self, tmp_path, monkeypatch):
        from phdisk import cli, diagnostics

        seen = []

        def stub(f, g, p, gamma):
            seen.append(gamma)
            return diagnostics.DiagnosticReport("multiplier_ratio", [1.0], None, [True], 0.0)

        monkeypatch.setattr(diagnostics, "multiplier_ratio", stub)
        one = GridFunction.constant(make_grid(16, 8), 1.0)
        save_phd1(tmp_path / "one.phd1", one)
        inputs = {"f": str(tmp_path / "one.phd1"), "g": str(tmp_path / "one.phd1")}
        cfg = {"diagnostic": "multiplier", "inputs": inputs}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = cli.main(["diagnose", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "d")])
        assert code == 0
        assert seen == [math.pi / 4]

    def test_misspelt_params_key_fails_before_the_solve(self, tmp_path, monkeypatch, capsys):
        # the check ran after the command: this exited 2, "non-convergence",
        # after a C + R pass on each level, without naming C
        from phdisk import cli, solvers

        g = make_grid(64, 64)
        z = g.nodes_z()
        L = np.log(np.e / np.abs(z))
        alpha = GridFunction(g, 4.0 * np.exp(1j * np.angle(z)) / (np.abs(z) * L**0.75))
        save_phd1(tmp_path / "alpha.phd1", alpha)
        save_phd1(tmp_path / "psi.phd1", BoundaryFunction.from_function(64, lambda th: np.exp(np.cos(th))))
        cfg = {
            "inputs": {"alpha": str(tmp_path / "alpha.phd1"), "psi": str(tmp_path / "psi.phd1")},
            "params": {"C": 0.3},
            "solver": {"max_iter": 1},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        calls = []
        modes = solvers._cauchy_reflect_modes

        def counted(*args):
            calls.append(None)
            return modes(*args)

        monkeypatch.setattr(solvers, "_cauchy_reflect_modes", counted)
        assert cli.main(["solve-riesz", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["message"] == "solve-riesz reads no params key C (it reads c)"
        assert calls == []

    @pytest.mark.parametrize(
        "command, extra, target",
        [
            ("selftest", {}, "cli._run_selftest"),
            ("transform", {"transform": "cauchy"}, "transforms.cauchy"),
            ("transform", {"transform": "cauchy2", "params": {"R": 2.0}}, "transforms.cauchy_renormalized"),
            ("factorize", {}, "similarity.factorize"),
            ("solve-dbar", {}, "transforms.solve_dbar"),
            ("solve-beltrami", {}, "solvers.parametrize_imag"),
            ("solve-riesz", {}, "solvers.solve_riesz"),
            ("solve-conductivity", {}, "solvers.solve_conductivity"),
            ("diagnose", {"diagnostic": "bmo"}, "diagnostics.bmo_oscillation"),
            ("diagnose", {"diagnostic": "ap"}, "diagnostics.ap_constant"),
            ("diagnose", {"diagnostic": "jn"}, "diagnostics.jn_exp_check"),
            ("diagnose", {"diagnostic": "exp-integrability"}, "diagnostics.exp_integrability_report"),
            ("diagnose", {"diagnostic": "equicontinuity"}, "diagnostics.equicontinuity_modulus"),
            ("diagnose", {"diagnostic": "c2-growth"}, "diagnostics.c2_growth_curve"),
            ("diagnose", {"diagnostic": "multiplier"}, "diagnostics.multiplier_ratio"),
            ("diagnose", {"diagnostic": "trace-convergence"}, "diagnostics.trace_convergence"),
            ("diagnose", {"diagnostic": "boundary-sobolev"}, "diagnostics.boundary_sobolev_seminorm"),
        ],
        ids=[
            "selftest", "cauchy", "cauchy2", "factorize", "solve-dbar", "solve-beltrami", "solve-riesz",
            "solve-conductivity", "bmo", "ap", "jn", "exp-integrability", "equicontinuity", "c2-growth",
            "multiplier", "trace-convergence", "boundary-sobolev",
        ],
    )
    def test_unread_params_key_fails_before_the_work(self, tmp_path, monkeypatch, capsys, command, extra, target):
        # every command checks its params once it has read them, before
        # the library call it runs
        from phdisk import cli

        module, name = target.split(".")
        calls = []
        monkeypatch.setattr(importlib.import_module(f"phdisk.{module}"), name, lambda *a: calls.append(a))
        g = make_grid(16, 8)
        inputs = {}
        for key in ("alpha", "a", "h", "f", "g", "w", "beta", "F", "sigma"):
            inputs[key] = str(tmp_path / f"{key}.phd1")
            save_phd1(inputs[key], GridFunction.constant(g, 0.5))
        for key in ("psi", "weight"):
            inputs[key] = str(tmp_path / f"{key}.phd1")
            save_phd1(inputs[key], BoundaryFunction.from_function(16, lambda th: 2.0 + np.cos(th)))
        if command == "diagnose" and extra["diagnostic"] in ("bmo", "jn", "boundary-sobolev"):
            inputs["h"] = inputs["g"] = inputs["psi"]
        params = {**extra.get("params", {}), "nope": 1}
        (tmp_path / "cfg.json").write_text(json.dumps({**extra, "inputs": inputs, "params": params}))
        assert cli.main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["message"].startswith(f"{command} reads no params key nope")
        assert calls == []

    def test_diagnostic_on_a_grid_off_the_unit_disk(self, tmp_path, capsys):
        # trace_convergence read the ring r = 2 as T and reported satisfied
        from phdisk import cli

        g = make_grid(64, 64, outer_radius=2.0)
        save_csv(tmp_path / "w.csv", GridFunction(g, g.nodes_z()))
        cfg = {"diagnostic": "trace-convergence", "inputs": {"w": str(tmp_path / "w.csv")}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert cli.main(["diagnose", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "d")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert "outer radius 1, not 2.0" in err["message"]
        assert not (tmp_path / "d" / "report.json").exists()

    def test_thread_cap_precedes_numpy(self):
        # a meta-path finder records the pool setting when numpy is first imported
        probe = textwrap.dedent(
            """
            import os, sys
            seen = []
            class Probe:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" and not seen:
                        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
            sys.meta_path.insert(0, Probe())
            import phdisk.cli
            print(seen)
            """
        )
        pools = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in pools}
        env["PHDISK_THREADS"] = "1"
        res = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "['1']"

    def test_header_only_csv_is_validation_error(self, tmp_path):
        (tmp_path / "h.csv").write_text("r,theta,re,im\n")
        cfg = {"transform": "cauchy", "inputs": {"h": str(tmp_path / "h.csv")}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = run_cli("transform", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "t"))
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "validation"
        assert "h.csv" in err["message"]

    def test_transform_command(self, tmp_path):
        g = make_grid(256, 64)
        save_phd1(tmp_path / "h.phd1", GridFunction.constant(g, 1.0))
        cfg = {"transform": "cauchy", "inputs": {"h": str(tmp_path / "h.phd1")}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = run_cli("transform", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "t"))
        assert res.returncode == 0, res.stderr
        out = load(tmp_path / "t" / "out.phd1")
        z = out.grid.nodes_z()
        assert np.max(np.abs(out.values - np.conj(z))) < 1e-12

    def test_factorize_command(self, tmp_path):
        g = make_grid(256, 64)
        z = g.nodes_z()
        save_phd1(tmp_path / "w.phd1", GridFunction(g, np.exp(z.real)))
        save_phd1(tmp_path / "alpha.phd1", GridFunction.constant(g, 0.5))
        cfg = {
            "inputs": {"w": str(tmp_path / "w.phd1"), "alpha": str(tmp_path / "alpha.phd1")},
            "params": {"normalization": "real_on_T"},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = run_cli("factorize", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "f"))
        assert res.returncode == 0, res.stderr
        s = load(tmp_path / "f" / "s.phd1")
        assert np.max(np.abs(s.values - z.real)) < 1e-10
        report = json.loads((tmp_path / "f" / "report.json").read_text())
        assert report["factorization"]["residual_holo"] < 1e-6

    def test_solve_dbar_command(self, tmp_path):
        # a = 1, psi = 0: A = conj(z) - z
        g = make_grid(64, 64)
        save_phd1(tmp_path / "a.phd1", GridFunction.constant(g, 1.0))
        save_phd1(tmp_path / "psi.phd1", BoundaryFunction.zeros(64))
        cfg = {"inputs": {"a": str(tmp_path / "a.phd1"), "psi": str(tmp_path / "psi.phd1")}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = run_cli("solve-dbar", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "d"))
        assert res.returncode == 0, res.stderr
        A = load(tmp_path / "d" / "A.phd1")
        z = A.grid.nodes_z()
        assert np.max(np.abs(A.values - (np.conj(z) - z))) < 1e-13
        report = json.loads((tmp_path / "d" / "report.json").read_text())
        assert report["residuals"]["trace"] < 1e-12 and report["residuals"]["mean"] < 1e-12

    def _beltrami(self, tmp_path, alpha, psi, params):
        g = alpha.grid
        save_phd1(tmp_path / "alpha.phd1", alpha)
        save_phd1(tmp_path / "F.phd1", GridFunction.constant(g, 1.0))
        save_phd1(tmp_path / "psi.phd1", psi)
        cfg = {
            "inputs": {name: str(tmp_path / f"{name}.phd1") for name in ("alpha", "F", "psi")},
            "params": params,
            "solver": {"tol": 1e-10},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        return run_cli("solve-beltrami", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "b"))

    def test_solve_beltrami_real_on_T(self, tmp_path):
        # criterion 06's data: alpha = 1/2, F = 1, tr Re s = cos, s = x
        g = make_grid(64, 64)
        psi = BoundaryFunction.from_function(64, np.cos)
        res = self._beltrami(tmp_path, GridFunction.constant(g, 0.5), psi, {"normalization": "real_on_T"})
        assert res.returncode == 0, res.stderr
        s = load(tmp_path / "b" / "s.phd1")
        assert np.max(np.abs(s.values - g.nodes_z().real)) < 1e-8
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report["solve"]["converged"] is True
        assert set(report["solve"]["normalization_defects"]) == {"re_trace", "im_mean"}

    def test_solve_beltrami_imaginary_on_T(self, tmp_path):
        # the manufactured non-harmonic case: s = a x^2 + i(b y + c r^2 + d r^2 x)
        g = make_grid(64, 64)
        z = g.nodes_z()
        a, b, c, d = 0.3, 0.4, 0.28, 0.32
        x, y = z.real, z.imag
        r2 = x**2 + y**2
        s_exact = a * x**2 + 1j * (b * y + c * r2 + d * r2 * x)
        dbar_s = 0.5 * (
            2 * a * x - b - 2 * c * y - 2 * d * x * y + 1j * (2 * c * x + d * (3 * x**2 + y**2))
        )
        alpha = GridFunction(g, dbar_s * np.exp(2j * s_exact.imag))
        psi = BoundaryFunction.from_function(64, lambda t: b * np.sin(t) + c + d * np.cos(t))
        params = {"normalization": "imaginary_on_T", "lambda": a * np.pi}
        res = self._beltrami(tmp_path, alpha, psi, params)
        assert res.returncode == 0, res.stderr
        s = load(tmp_path / "b" / "s.phd1")
        assert np.max(np.abs(s.values - s_exact)) < 1e-8
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        # the fixed point is not phi = 0: the coarsest level takes more than one step
        assert report["solve"]["converged"] is True and report["solve"]["extra"]["coarse_iterations"][0] > 1
        assert set(report["solve"]["normalization_defects"]) == {"im_trace", "re_mean"}

    def test_solve_beltrami_rejects_unknown_normalization(self, tmp_path):
        # "imaginary_on_t" used to run parametrize_real
        g = make_grid(64, 64)
        psi = BoundaryFunction.from_function(64, np.cos)
        res = self._beltrami(tmp_path, GridFunction.constant(g, 0.5), psi, {"normalization": "imaginary_on_t"})
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "validation"
        assert "imaginary_on_t" in err["message"]
        assert not (tmp_path / "b" / "s.phd1").exists()

    def test_diagnose_command(self, tmp_path):
        save_phd1(tmp_path / "wgt.phd1", BoundaryFunction.from_function(256, lambda th: 2.0 + 0 * th))
        cfg = {"diagnostic": "ap", "inputs": {"weight": str(tmp_path / "wgt.phd1")}, "params": {"p": 2.0}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        res = run_cli("diagnose", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "d"))
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "d" / "report.json").read_text())
        assert report["diagnostic"]["value"] == 1.0


ROOT = Path(__file__).resolve().parent.parent


class TestVersion:
    def test_pyproject_holds_no_version_literal(self):
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

        project = tomllib.loads((ROOT / "pyproject.toml").read_text())
        assert "version" not in project["project"]
        assert "version" in project["project"]["dynamic"]
        dynamic = project["tool"]["setuptools"]["dynamic"]["version"]
        assert dynamic == {"attr": "phdisk.__version__"}

    def test_version_read_without_numpy(self):
        """setuptools reads the literal statically: numpy is never imported."""
        pytest.importorskip("setuptools")
        code = textwrap.dedent(
            """
            import sys
            sys.modules["numpy"] = None  # any import of numpy fails
            from setuptools.config.expand import read_attr
            print(read_attr("phdisk.__version__", package_dir={"": "src"}, root_dir="."))
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True
        )
        import phdisk

        assert out.stdout.strip() == phdisk.__version__
