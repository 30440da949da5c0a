"""The benchmark's workloads: inputs made from the seed, timed calls, checks.

A workload is a list of operations run in rounds; every round repeats the
same inputs.  An operation is a `call` into phdisk, which the runner
times, and a `check` of its outputs against closed forms, independent
computations or properties the method must have, which raises
`CheckFailed` when one does not hold.  `run.py` imports phdisk before
this module, after the thread caps are set; functions are looked up on
the package at call time so that a traced run sees every call.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import phdisk as ph

SOLVER = {"tol": 1e-10, "max_iter": 200}
CFG = ph.SolverConfig(**SOLVER)


class CheckFailed(AssertionError):
    pass


def check(what: str, err: float, tol: float) -> None:
    if not err <= tol:  # also rejects nan
        raise CheckFailed(f"{what}: error {err:.3e} exceeds {tol:.0e}")


@dataclass
class Op:
    name: str
    call: Callable[[], Any]  # the timed calls into phdisk
    check: Callable[[Any], None]  # raises CheckFailed on a wrong output
    known_fault: bool = False


def _max_err(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _hardy2(vals: np.ndarray, grid) -> float:
    """max over interior rings of (int_{T_rho} |f|^2 |dxi|)^{1/2}."""
    rho = grid.radii[:-1, None]
    ring = np.sum(np.abs(vals[:-1]) ** 2 * rho, axis=1) * 2.0 * np.pi / grid.n_theta
    return float(np.sqrt(np.max(ring)))


def _rel_l2(a, b, r_max=0.9) -> float:
    """||a - b|| / ||b|| in L^2(D_{r_max})."""
    return ph.lp_norm_disk(a - b, 2.0, r_max=r_max) / ph.lp_norm_disk(b, 2.0, r_max=r_max)


class Workload:
    name = ""
    grids: tuple = ()  # (n_theta, n_r) grids whose radial engines set-up builds
    in_process = True  # False: the operations run phdisk in child processes

    def __init__(self, seed: int, out_dir: Path, traced: bool):
        self.rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        self.traced = traced

    def warm(self) -> None:
        """In-process set-up: the first transform on each grid builds its engine."""
        if self.in_process:
            for n_theta, n_r in self.grids:
                ph.cauchy(ph.GridFunction.zeros(ph.make_grid(n_theta, n_r)))

    def ops(self) -> list[Op]:
        raise NotImplementedError


class Riesz256(Workload):
    """solve_riesz and solve_conductivity on 256 x 256."""

    name = "riesz_256"
    grids = ((256, 256),)

    def __init__(self, seed, out_dir, traced):
        super().__init__(seed, out_dir, traced)
        g = self.grid = ph.make_grid(256, 256)
        self.x = g.nodes_z().real
        self.half = ph.GridFunction.constant(g, 0.5)
        self.psi_exp = ph.BoundaryFunction.from_function(256, lambda t: np.exp(np.cos(t)))
        # psi = 1 + sum_{m<=5} a_m cos(m t + phi_m) with sum a_m < 0.8: positive
        self.data = []
        for _ in range(2):
            a = 0.4 * self.rng.uniform(0.5, 1.0, 5) * 0.5 ** np.arange(5)
            phase = self.rng.uniform(0.0, 2.0 * np.pi, 5)
            c = float(self.rng.uniform(-0.5, 0.5))
            vals = 1.0 + sum(a[m] * np.cos((m + 1) * g.thetas + phase[m]) for m in range(5))
            self.data.append((vals, c))
        (va, ca), (vb, cb) = self.data
        self.data.append((va + vb, ca + cb))
        self.sigma = ph.GridFunction(g, np.exp(2.0 * self.x))
        self.psi_cond = ph.BoundaryFunction.from_function(256, lambda t: np.exp(-2.0 * np.cos(t)))
        self.solutions = {}

    def check_exp(self, out):
        w, psi_sharp, _ = out
        check("w = e^x", _max_err(w.values, np.exp(self.x)), 1e-8)
        check("psi_sharp = 0", float(np.max(np.abs(psi_sharp.values))), 1e-8)

    def call_seeded(self, k):
        vals, c = self.data[k]
        return ph.solve_riesz(self.half, ph.BoundaryFunction(vals.astype(complex)), c, CFG)

    def check_seeded(self, k, out):
        vals, c = self.data[k]
        w = out[0].values
        trace = w[-1]
        check("Re w_T = psi", _max_err(trace.real, vals), 1e-10)
        check("int_T Im w_T = c", abs(float(np.sum(trace.imag)) * 2.0 * np.pi / 256 - c), 1e-10)
        self.solutions[k] = w
        if k == 2:
            if 0 not in self.solutions or 1 not in self.solutions:
                raise CheckFailed("real-linearity: a summand's solve failed")
            defect = w - self.solutions[0] - self.solutions[1]
            check("real-linearity in H^2", _hardy2(defect, self.grid) / _hardy2(w, self.grid), 1e-7)

    def check_conductivity(self, out):
        check("u = e^{-2x}", _max_err(out[0].values, np.exp(-2.0 * self.x)), 1e-8)

    def ops(self):
        self.solutions.clear()
        seeded = [
            Op(f"solve_riesz {label}", lambda k=k: self.call_seeded(k),
               lambda out, k=k: self.check_seeded(k, out))
            for k, label in enumerate(("seeded A", "seeded B", "A+B"))
        ]
        return [
            Op("solve_riesz e^x",
               lambda: ph.solve_riesz(self.half, self.psi_exp, 0.0, CFG), self.check_exp),
            *seeded,
            Op("solve_conductivity e^{2x}",
               lambda: ph.solve_conductivity(self.sigma, self.psi_cond, CFG),
               self.check_conductivity),
        ]


class Beltrami256(Workload):
    """parametrize_real (criterion 06 data) and parametrize_imag with a
    non-harmonic exact exponent, on 256 x 256."""

    name = "beltrami_256"
    grids = ((256, 256),)

    def __init__(self, seed, out_dir, traced):
        super().__init__(seed, out_dir, traced)
        g = ph.make_grid(256, 256)
        z = g.nodes_z()
        x, y = z.real, z.imag
        self.F1 = ph.GridFunction.constant(g, 1.0)
        self.half = ph.GridFunction.constant(g, 0.5)
        self.cos = ph.BoundaryFunction.from_function(256, np.cos)
        self.s_real = ph.GridFunction(g, x.astype(complex))
        # s = a x^2 + i (b y + c |z|^2 + d |z|^2 x): Im s is not harmonic, in
        # mode 0 and in mode 1.  With F = 1 the coefficient is
        # alpha = dbar s e^{2i Im s}, written out here.
        a, b, c, d = self.rng.uniform([0.25, 0.35, 0.25, 0.25], [0.35, 0.45, 0.35, 0.35])
        r2 = x**2 + y**2
        s = a * x**2 + 1j * (b * y + c * r2 + d * r2 * x)
        dbar_s = 0.5 * (2 * a * x - b - 2 * c * y - 2 * d * x * y
                        + 1j * (2 * c * x + d * (3 * x**2 + y**2)))
        self.s_imag = ph.GridFunction(g, s)
        self.alpha_imag = ph.GridFunction(g, dbar_s * np.exp(2j * s.imag))
        self.psi_imag = ph.BoundaryFunction.from_function(
            256, lambda t: b * np.sin(t) + c + d * np.cos(t))
        self.lam_imag = a * math.pi  # int_T a cos^2

    def ops(self):
        return [
            Op("parametrize_real alpha=1/2",
               lambda: ph.parametrize_real(self.half, self.F1, self.cos, 0.0, CFG),
               lambda out: check("parametrize_real s = x in W^{1,2}",
                                 ph.w12_norm(out[0] - self.s_real), 1e-8)),
            Op("parametrize_imag non-harmonic",
               lambda: ph.parametrize_imag(self.alpha_imag, self.F1, self.psi_imag,
                                           self.lam_imag, CFG),
               lambda out: check("parametrize_imag s exact in W^{1,2}",
                                 ph.w12_norm(out[0] - self.s_imag), 1e-8)),
        ]


class Transforms512(Workload):
    """C, B, R, P on seeded band-limited fields and c2_growth_curve, 512 x 512."""

    name = "transforms_512"
    grids = ((512, 512),)
    n_fields = 3
    growth_radii = (1.0, 10.0, 100.0)

    def __init__(self, seed, out_dir, traced):
        super().__init__(seed, out_dir, traced)
        g = self.grid = ph.make_grid(512, 512)
        z = self.z = g.nodes_z()
        self.fields = [self._field() for _ in range(self.n_fields)]
        self.one = ph.GridFunction.constant(g, 1.0)
        self.zf = ph.GridFunction(g, z)
        self.four = ph.GridFunction.constant(g, 4.0)
        r2m1 = np.abs(z) ** 2 - 1.0
        self.closed_forms = (
            ("C(1) = conj z", np.conj(z)), ("C(z) = |z|^2 - 1", r2m1),
            ("B(z) = conj z", np.conj(z)), ("R(1) = -z", -z), ("P(4) = |z|^2 - 1", r2m1),
        )

    def _field(self):
        """Mode-n profile r^{|n|} e^{-|n|/16} (c0 + c1 r^2 + c2 r^4), |n| <= n_theta/4."""
        g = self.grid
        rows = np.zeros((g.n_theta, g.n_r), dtype=complex)
        for idx, n in enumerate(g.mode_numbers):
            if abs(n) <= g.n_theta // 4:
                c = self.rng.standard_normal(3) + 1j * self.rng.standard_normal(3)
                with np.errstate(under="ignore"):
                    rows[idx] = (c[0] + c[1] * g.radii**2 + c[2] * g.radii**4) * (
                        g.radii ** abs(n) * np.exp(-abs(n) / 16.0)
                    )
        return ph.GridFunction(g, np.fft.ifft(rows.T * g.n_theta, axis=1))

    def call_closed_forms(self):
        return (ph.cauchy(self.one), ph.cauchy(self.zf), ph.beurling(self.zf),
                ph.reflect_transform(self.one), ph.green_potential(self.four))

    def check_closed_forms(self, out):
        for (what, want), got in zip(self.closed_forms, out):
            check(what, _max_err(got.values, want), 1e-10)

    @staticmethod
    def call_sweep(h):
        return ph.cauchy(h), ph.beurling(h), ph.reflect_transform(h), ph.green_potential(h)

    @staticmethod
    def check_sweep(h, out):
        C, B, R, P = out
        dC, dbarC = ph.wirtinger_derivatives(C)
        _, dbarR = ph.wirtinger_derivatives(R)
        check("dbar C(h) = h", _rel_l2(dbarC, h), 1e-6)
        check("d C(h) = B(h)", _rel_l2(dC, B), 1e-6)
        check("dbar R(h) = 0", ph.lp_norm_disk(dbarR, 2.0, r_max=0.9) / ph.lp_norm_disk(R, 2.0), 1e-6)
        check("Laplacian P(h) = h", _rel_l2(ph.laplacian(P), h), 1e-6)

    def check_growth(self, rep):
        # ||C_2(chi_D)||^2 on D_R is pi/2 + 2 pi log R, and ||chi_D||^2 = pi.
        # At R = 1 the evaluation radii are the source nodes and the
        # quadrature is exact for chi_D, so only rounding is allowed there.
        for R, got in zip(self.growth_radii, rep.measured):
            want = math.sqrt(math.pi / 2 + 2 * math.pi * math.log(R)) / (
                R * (1 + math.sqrt(math.log(R))) * math.sqrt(math.pi)
            )
            check(f"c2 growth at R={R:g}", abs(got - want) / want, 1e-10 if R == 1.0 else 1e-4)

    def ops(self):
        sweeps = [
            Op(f"sweep field {k}", lambda h=h: self.call_sweep(h),
               lambda out, h=h: self.check_sweep(h, out))
            for k, h in enumerate(self.fields)
        ]
        return [
            Op("closed forms", self.call_closed_forms, self.check_closed_forms),
            *sweeps,
            Op("c2_growth_curve chi_D",
               lambda: ph.c2_growth_curve(self.one, self.growth_radii), self.check_growth),
        ]


def write_phd1(path: Path, vals: np.ndarray) -> None:
    """PHD1 written from the format description, not through phdisk.io."""
    vals = np.atleast_2d(np.asarray(vals, dtype=complex))
    flat = np.empty(vals.size * 2, dtype="<f8")
    flat[0::2], flat[1::2] = vals.real.ravel(), vals.imag.ravel()
    path.write_bytes(b"PHD1" + np.array(vals.shape, dtype="<u4").tobytes() + flat.tobytes())


class Cli256(Workload):
    """python -m phdisk.cli children on PHD1 inputs at 256 x 256."""

    name = "cli_256"
    grids = ((256, 256),)
    in_process = False

    def __init__(self, seed, out_dir, traced):
        super().__init__(seed, out_dir, traced)
        g = ph.make_grid(256, 256)
        z = g.nodes_z()
        self.x = z.real
        inputs = out_dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        files = {
            "half": np.full((256, 256), 0.5),
            "psi_exp": np.exp(np.cos(g.thetas)),
            "sigma": np.exp(2.0 * self.x),
            "psi_cond": np.exp(-2.0 * np.cos(g.thetas)),
            "f": (1.0 - np.abs(z) ** 2) * self.x,
            "one": np.ones((256, 256)),
        }
        for name, vals in files.items():
            write_phd1(inputs / f"{name}.phd1", vals)
        inp = {k: str(inputs / f"{k}.phd1") for k in files}
        configs = {
            "riesz": ("solve-riesz", {"inputs": {"alpha": inp["half"], "psi": inp["psi_exp"]},
                                      "params": {"c": 0.0}, "solver": SOLVER}),
            "conductivity": ("solve-conductivity", {
                "inputs": {"sigma": inp["sigma"], "psi": inp["psi_cond"]},
                "solver": SOLVER, "format": "csv"}),
            "multiplier": ("diagnose", {"diagnostic": "multiplier",
                                        "inputs": {"f": inp["f"], "g": inp["one"]},
                                        "params": {"p": 2.0, "gamma": math.pi / 4}}),
            "cauchy2": ("transform", {"transform": "cauchy2", "inputs": {"h": inp["one"]},
                                      "params": {"R": 4.0}, "format": "csv"}),
        }
        self.argv = {}
        for key, (command, cfg) in configs.items():
            (inputs / f"{key}.json").write_text(json.dumps(cfg))
            self.argv[key] = [command, "--config", str(inputs / f"{key}.json"),
                              "--out", str(out_dir / key)]
        from scipy.special import i0

        rho = g.radii[:-1]
        self.multiplier_exact = math.sqrt(float(np.max(rho * i0(2.0 * rho * (1.0 - rho**2)))))
        self.env = dict(os.environ, PYTHONPATH=str(Path(ph.__file__).resolve().parents[1]))

    def call_cli(self, key: str) -> Path:
        out = self.out_dir / key
        shutil.rmtree(out, ignore_errors=True)
        if self.traced:
            # in-process, with the engine cache emptied as a fresh child has it
            ph.radial._ENGINES.clear()
            code, err = ph.cli.main(self.argv[key]), ""
        else:
            proc = subprocess.run([sys.executable, "-m", "phdisk.cli", *self.argv[key]],
                                  env=self.env, cwd=self.out_dir, capture_output=True,
                                  text=True, timeout=150)
            code, err = proc.returncode, proc.stderr
        if code != 0:
            raise CheckFailed(f"phdisk {self.argv[key][0]} exited {code}: {err.strip()[-300:]}")
        return out

    def check_riesz(self, out):
        w = ph.io.load(out / "w.phd1")
        psi_sharp = ph.io.load(out / "psi_sharp.phd1")
        check("reloaded w = e^x", _max_err(w.values, np.exp(self.x)), 1e-8)
        check("reloaded psi_sharp = 0", float(np.max(np.abs(psi_sharp.values))), 1e-8)

    def check_conductivity(self, out):
        u = ph.io.load(out / "u.csv")
        check("reloaded u = e^{-2x}", _max_err(u.values, np.exp(-2.0 * self.x)), 1e-8)

    def check_multiplier(self, out):
        got = json.loads((out / "report.json").read_text())["diagnostic"]["measured"][0]
        check("multiplier ratio", abs(got - self.multiplier_exact) / self.multiplier_exact, 1e-10)

    @staticmethod
    def check_cauchy2(out):
        got = ph.io.load(out / "out.csv")
        if got.grid.outer_radius != 4.0:
            raise CheckFailed(f"cauchy2 CSV reloads on outer radius {got.grid.outer_radius}, not 4")
        z = got.grid.nodes_z()
        want = np.where(np.abs(z) <= 1.0, np.conj(z), 1.0 / z)
        check("reloaded C_2(1) on D_4", _max_err(got.values, want), 1e-10)

    def ops(self):
        return [
            Op("cli solve-riesz", lambda: self.call_cli("riesz"), self.check_riesz),
            Op("cli solve-conductivity", lambda: self.call_cli("conductivity"),
               self.check_conductivity),
            Op("cli diagnose multiplier", lambda: self.call_cli("multiplier"),
               self.check_multiplier),
            # io.save_csv writes the unit-grid radii, so a D_4 output reloads
            # on the unit disk: a fault of the program, failing every round
            Op("cli transform cauchy2 CSV round trip", lambda: self.call_cli("cauchy2"),
               self.check_cauchy2, known_fault=True),
        ]


WORKLOADS = {w.name: w for w in (Riesz256, Beltrami256, Transforms512, Cli256)}
