import json
import os
import subprocess
import sys
import textwrap
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
        b = BoundaryFunction.from_function(256, lambda th: np.exp(1j * th) + 2)
        p = tmp_path / "b.phd1"
        save_phd1(p, b)
        g = load_phd1(p)
        assert isinstance(g, BoundaryFunction)
        assert np.array_equal(g.values, b.values)

    def test_mask_round_trips_as_nan(self, grid128, tmp_path):
        vals = np.ones((128, 256), dtype=complex)
        vals[3, 7] = np.inf
        f = GridFunction(grid128, vals)
        p = tmp_path / "m.phd1"
        save_phd1(p, f)
        g = load_phd1(p)
        assert g.mask is not None and g.mask[3, 7]

    def test_magic_check(self, tmp_path):
        p = tmp_path / "junk.phd1"
        p.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ValueError, match="not a PHD1"):
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

    @pytest.mark.parametrize(
        "block, key",
        [
            ({"max_iter": 2.7}, "max_iter"),
            ({"max_iter": "2.7"}, "max_iter"),
            ({"zero_threshold": "abc"}, "zero_threshold"),
            ({"gamma": 0.7}, "solver keys"),
        ],
        ids=["max_iter=2.7", "max_iter='2.7'", "zero_threshold=abc", "gamma=0.7"],
    )
    def test_solver_block_rejects_bad_values(self, tmp_path, block, key):
        # 2.7 used to run as 2 iterations; 'abc' used to fail inside the
        # solve; gamma, which no solver reads, used to be accepted
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

    @pytest.mark.parametrize("value", [50, 50.0, "50", "50.0", " 50 "])
    def test_solver_block_accepts_integral_max_iter(self, value):
        from phdisk import cli, solvers

        assert cli._solver_config({"solver": {"max_iter": value}}, solvers).max_iter == 50

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
