import warnings

import numpy as np
import pytest
from helpers import exw_F, random_initial_s

from phdisk import (
    BoundaryFunction,
    GridFunction,
    SolverConfig,
    SolverDivergence,
    boundary_trace,
    conductivity_residual,
    green_potential,
    hardy_norm,
    lp_norm_disk,
    make_grid,
    parametrize_imag,
    parametrize_real,
    solve_conductivity,
    solve_riesz,
    w12_norm,
    wirtinger_derivatives,
)
from phdisk import solvers
from phdisk.solvers import DAMPING_FLOOR, _picard

CFG = SolverConfig(tol=1e-10, max_iter=200)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(damping=1.5)

    @pytest.mark.parametrize(
        "bad",
        [
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"max_iter": 0},
            {"max_iter": 2.5},
            {"p": 0.5},
            {"zero_threshold": -1.0},
            {"zero_threshold": float("nan")},
            {"zero_threshold": float("inf")},
            {"zero_threshold": "abc"},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must"):
            SolverConfig(**bad)

    @pytest.mark.parametrize("zt", [None, 0.0, 1e-9, 2])
    def test_accepts_zero_thresholds(self, zt):
        assert SolverConfig(zero_threshold=zt).zero_threshold == zt


class TestParametrizeImag:
    def test_manufactured_exponent(self, grid256):
        z = grid256.nodes_z()
        alpha = GridFunction(grid256, -0.5 * np.exp(2j * z.imag))
        F = GridFunction.constant(grid256, 1.0)
        psi = BoundaryFunction.from_function(256, np.sin)
        s, rep = parametrize_imag(alpha, F, psi, 0.0, CFG)
        assert w12_norm(s - GridFunction(grid256, 1j * z.imag)) <= 1e-4
        assert rep.converged and rep.iterations <= 100
        assert rep.residual_beltrami <= 1e-5

    def test_zero_coefficient_zero_data(self, grid256):
        s, rep = parametrize_imag(
            GridFunction.zeros(grid256),
            GridFunction.constant(grid256, 1.0),
            BoundaryFunction.zeros(256),
            0.0,
            CFG,
        )
        assert w12_norm(s) <= 1e-10

    def test_zero_coefficient_holomorphic_normalization(self, grid256):
        z = grid256.nodes_z()
        s, rep = parametrize_imag(
            GridFunction.zeros(grid256),
            GridFunction(grid256, z),
            BoundaryFunction.from_function(256, np.cos),
            0.0,
            CFG,
        )
        assert w12_norm(s - GridFunction(grid256, 1j * z)) <= 1e-8
        assert rep.normalization_defects["re_mean"] <= 1e-10

    def test_empirical_uniqueness(self, grid256):
        rng = np.random.default_rng(21)
        z = grid256.nodes_z()
        alpha = GridFunction(grid256, -0.5 * np.exp(2j * z.imag))
        F = GridFunction.constant(grid256, 1.0)
        psi = BoundaryFunction.from_function(256, np.sin)
        s1, _ = parametrize_imag(alpha, F, psi, 0.0, CFG)
        s2, _ = parametrize_imag(alpha, F, psi, 0.0, CFG, initial_s=random_initial_s(grid256, rng))
        assert w12_norm(s1 - s2) <= 10 * CFG.tol

    def test_non_harmonic_exponent(self, grid256):
        # s = a x^2 + i(b y + c|z|^2 + d|z|^2 x): Im s is not harmonic (modes
        # 0 and 1), so the fixed point is not phi = 0.  With F = 1 the
        # coefficient is alpha = dbar s e^{2i Im s}, written out.
        a, b, c, d = 0.3, 0.4, 0.28, 0.32
        z = grid256.nodes_z()
        x, y = z.real, z.imag
        r2 = x**2 + y**2
        s_exact = a * x**2 + 1j * (b * y + c * r2 + d * r2 * x)
        dbar_s = 0.5 * (
            2 * a * x - b - 2 * c * y - 2 * d * x * y + 1j * (2 * c * x + d * (3 * x**2 + y**2))
        )
        alpha = GridFunction(grid256, dbar_s * np.exp(2j * s_exact.imag))
        psi = BoundaryFunction.from_function(256, lambda t: b * np.sin(t) + c + d * np.cos(t))
        s, rep = parametrize_imag(alpha, GridFunction.constant(grid256, 1.0), psi, a * np.pi, CFG)
        assert w12_norm(s - GridFunction(grid256, s_exact)) <= 1e-8
        assert rep.converged and 1 < rep.iterations <= 100

    def test_rejects_zero_F(self, grid256):
        with pytest.raises(ValueError, match="identically zero"):
            parametrize_imag(
                GridFunction.zeros(grid256),
                GridFunction.zeros(grid256),
                BoundaryFunction.zeros(256),
                0.0,
                CFG,
            )


class TestParametrizeReal:
    def test_manufactured_exponent(self, grid256):
        z = grid256.nodes_z()
        alpha = GridFunction.constant(grid256, 0.5)
        F = GridFunction.constant(grid256, 1.0)
        psi = BoundaryFunction.from_function(256, np.cos)
        s, rep = parametrize_real(alpha, F, psi, 0.0, CFG)
        assert w12_norm(s - GridFunction(grid256, z.real.astype(complex))) <= 1e-4
        assert rep.converged and rep.iterations <= 100
        assert rep.residual_beltrami <= 1e-5

    def test_zero_case(self, grid256):
        s, _ = parametrize_real(
            GridFunction.zeros(grid256),
            GridFunction.constant(grid256, 1.0),
            BoundaryFunction.zeros(256),
            0.0,
            CFG,
        )
        assert w12_norm(s) <= 1e-10

    def test_homogeneous_lemma_residual(self, grid256):
        # alpha = 1/2, psi = 0: assert the argument equation, not a closed form
        alpha = GridFunction.constant(grid256, 0.5)
        s, rep = parametrize_real(
            alpha, GridFunction.constant(grid256, 1.0), BoundaryFunction.zeros(256), 0.0, CFG
        )
        _, dbar_s = wirtinger_derivatives(s)
        defect = dbar_s.values - 0.5 * np.exp(-2j * s.values.imag)
        assert lp_norm_disk(GridFunction(grid256, defect), 2.0, r_max=0.9) <= 1e-6
        assert np.max(np.abs(boundary_trace(s).values.real)) <= 1e-8

    def test_empirical_uniqueness(self, grid256):
        rng = np.random.default_rng(22)
        alpha = GridFunction.constant(grid256, 0.5)
        F = GridFunction.constant(grid256, 1.0)
        psi = BoundaryFunction.from_function(256, np.cos)
        s1, _ = parametrize_real(alpha, F, psi, 0.0, CFG)
        s2, _ = parametrize_real(alpha, F, psi, 0.0, CFG, initial_s=random_initial_s(grid256, rng))
        assert w12_norm(s1 - s2) <= 10 * CFG.tol


    def test_one_green_map_per_iteration(self, grid256, monkeypatch):
        # criterion 06's data: phi and its trace u are one fixed point, so
        # each reported step runs exactly one Green map
        calls = []

        def counted(psi):
            calls.append(1)
            return green_potential(psi)

        monkeypatch.setattr(solvers, "green_potential", counted)
        _, rep = parametrize_real(
            GridFunction.constant(grid256, 0.5),
            GridFunction.constant(grid256, 1.0),
            BoundaryFunction.from_function(256, np.cos),
            0.0,
            CFG,
        )
        assert rep.converged
        assert len(calls) == rep.iterations <= 60

    def test_divergence_raises_with_report(self, grid256):
        with pytest.raises(SolverDivergence, match="parametrize_real") as err:
            parametrize_real(
                GridFunction.constant(grid256, 0.5),
                GridFunction.constant(grid256, 1.0),
                BoundaryFunction.from_function(256, np.cos),
                0.0,
                SolverConfig(tol=1e-13, max_iter=2),
            )
        rep = err.value.report
        assert rep.iterations == 2 and len(rep.increment_history) == 2
        assert not rep.converged


class TestSolveRiesz:
    def test_classical_riesz(self, grid256):
        z = grid256.nodes_z()
        w, psi_sharp, rep = solve_riesz(
            GridFunction.zeros(grid256), BoundaryFunction.from_function(256, np.cos), 0.0, CFG
        )
        assert np.max(np.abs(w.values - z)) < 1e-12
        assert np.max(np.abs(psi_sharp.values - np.sin(grid256.thetas))) < 1e-12

    def test_classical_riesz_with_constant(self, grid256):
        w, _, _ = solve_riesz(GridFunction.zeros(grid256), BoundaryFunction.zeros(256), 2 * np.pi, CFG)
        assert np.max(np.abs(w.values - 1j)) < 1e-12

    def test_riesz_extension_formula(self, grid256):
        # alpha = 0 reproduces psi + i psi~ + i c/(2 pi) at spectral accuracy
        psi = BoundaryFunction.from_function(256, lambda th: np.cos(2 * th) - 0.5 * np.sin(5 * th))
        c = 1.7
        w, _, _ = solve_riesz(GridFunction.zeros(grid256), psi, c, CFG)
        from phdisk import conjugate_function, poisson_extend

        expected = poisson_extend(
            BoundaryFunction(psi.values.real + 1j * conjugate_function(psi).values.real), grid256
        ).values + 1j * c / (2 * np.pi)
        assert np.max(np.abs(w.values - expected)) < 1e-12

    def test_manufactured_exponential(self, grid256):
        z = grid256.nodes_z()
        alpha = GridFunction.constant(grid256, 0.5)
        psi = BoundaryFunction.from_function(256, lambda th: np.exp(np.cos(th)))
        w, psi_sharp, rep = solve_riesz(alpha, psi, 0.0, CFG)
        assert np.max(np.abs(w.values - np.exp(z.real))) <= 1e-4
        # the measured iteration count and error (2.3e-12) of the loop on
        # values are kept by the loop on angular modes
        assert rep.iterations == 18
        assert np.max(np.abs(w.values - np.exp(z.real))) <= 1e-11
        assert np.max(np.abs(psi_sharp.values)) <= 1e-8
        assert rep.normalization_defects["im_trace_sup"] <= 1e-8

    def test_homogeneous_in_data(self):
        # (psi, c) -> scale (psi, c) takes w to scale w, s unchanged; at
        # this scale |w|^2 underflows
        scale = 1e-160
        g = make_grid(128, 64)
        alpha = GridFunction.constant(g, 0.5)
        psi = BoundaryFunction.from_function(128, lambda th: np.exp(np.cos(th)))
        w, _, rep = solve_riesz(alpha, psi, 0.2, CFG)
        ws, _, rep_s = solve_riesz(alpha, BoundaryFunction(scale * psi.values), 0.2 * scale, CFG)
        assert rep_s.iterations == rep.iterations
        assert np.max(np.abs(ws.values / scale - w.values)) <= 1e-12 * np.max(np.abs(w.values))

    def test_trivial_data(self, grid256):
        w, psi_sharp, rep = solve_riesz(GridFunction.constant(grid256, 0.5), BoundaryFunction.zeros(256), 0.0, CFG)
        assert np.max(np.abs(w.values)) == 0.0
        assert rep.converged

    def test_empirical_uniqueness(self, grid256):
        rng = np.random.default_rng(23)
        alpha = GridFunction.constant(grid256, 0.5)
        psi = BoundaryFunction.from_function(256, lambda th: np.exp(np.cos(th)))
        w1, _, _ = solve_riesz(alpha, psi, 0.0, CFG)
        w2, _, _ = solve_riesz(alpha, psi, 0.0, CFG, initial_s=random_initial_s(grid256, rng))
        assert hardy_norm(GridFunction(grid256, w1.values - w2.values), 2.0) <= 1e-6

    def test_real_linearity(self, grid256):
        # strictly positive data keeps the iterates zero-free, the regime
        # where discrete uniqueness is clean
        alpha = GridFunction.constant(grid256, 0.5)
        psiA = BoundaryFunction.from_function(256, lambda th: 2.0 + 0.5 * np.cos(2 * th))
        psiB = BoundaryFunction.from_function(256, lambda th: 1.0 + 0.3 * np.sin(th))
        wA, _, _ = solve_riesz(alpha, psiA, 0.3, CFG)
        wB, _, _ = solve_riesz(alpha, psiB, -0.1, CFG)
        wAB, _, _ = solve_riesz(alpha, BoundaryFunction(psiA.values + psiB.values), 0.2, CFG)
        diff = hardy_norm(GridFunction(grid256, wAB.values - wA.values - wB.values), 2.0)
        assert diff <= 10 * CFG.tol

    def test_measured_constant_stability(self, grid256):
        rng = np.random.default_rng(24)
        alpha = GridFunction.constant(grid256, 0.5)
        consts = []
        for _ in range(10):
            coef = rng.standard_normal(5) * np.exp(-0.4 * np.arange(5))
            ph = rng.uniform(0, 2 * np.pi, 5)
            psi = BoundaryFunction.from_function(
                256, lambda th: 1.0 + sum(coef[m] * np.cos((m + 1) * th + ph[m]) for m in range(5))
            )
            _, _, rep = solve_riesz(alpha, psi, 0.0, CFG)
            consts.append(rep.measured_constant)
        assert max(consts) <= 2.0 * min(consts)

    def test_report_scale_free(self):
        # w scales with psi; the report's norms must not overflow at 1e200
        grid = make_grid(256, 64)
        alpha = GridFunction.constant(grid, 0.5)
        reps = []
        for scale in (1.0, 1e200):
            psi = BoundaryFunction.from_function(256, lambda th: scale * np.exp(np.cos(th)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                reps.append(solve_riesz(alpha, psi, 0.0, CFG)[2])
        plain, big = reps
        assert big.iterations == plain.iterations
        assert np.isfinite([big.boundary_mismatch, big.measured_constant]).all()
        gap = abs(big.measured_constant - plain.measured_constant)
        assert gap <= 1e-12 * plain.measured_constant
        assert big.boundary_mismatch <= 1e-14 * 1e200

    def test_homeomorphism_probe(self, grid256):
        # perturbing the holomorphic factor moves w by O(delta) in G^p
        z = grid256.nodes_z()
        alpha = GridFunction.constant(grid256, 0.5)
        F0 = GridFunction(grid256, 1.0 + 0.3 * z)
        pert = GridFunction(grid256, (z**2).astype(complex))
        zerob = BoundaryFunction.zeros(256)
        s0, _ = parametrize_real(alpha, F0, zerob, 0.0, CFG)
        w0 = np.exp(s0.values) * F0.values
        ratios = []
        for delta in (1e-2, 1e-3, 1e-4):
            Fd = GridFunction(grid256, F0.values + delta * pert.values)
            sd, _ = parametrize_real(alpha, Fd, zerob, 0.0, CFG)
            wd = np.exp(sd.values) * Fd.values
            ratios.append(hardy_norm(GridFunction(grid256, wd - w0), 2.0) / delta)
        assert max(ratios) <= 2.0 * min(ratios)
        assert max(ratios) < 100.0

    def test_rotation_equivariance(self, grid256):
        # w(e^{-i phi} z) solves dbar w = alpha_phi conj(w) with
        # alpha_phi(z) = e^{i phi} alpha(e^{-i phi} z) and data psi(theta - phi):
        # constant alpha rotates along, so alpha = 1/2 alone is not symmetric
        k = 37
        phi = 2 * np.pi * k / 256
        amp = 0.3 * 2.0 ** (1 - np.arange(1, 6))
        phases = np.array([0.4, 1.9, 3.1, 4.4, 5.6])
        psi = BoundaryFunction.from_function(
            256, lambda th: 1.0 + sum(amp[m] * np.cos((m + 1) * th + phases[m]) for m in range(5))
        )
        w, _, rep = solve_riesz(GridFunction.constant(grid256, 0.5), psi, 0.2, CFG)
        w_rot, _, rep_rot = solve_riesz(
            GridFunction.constant(grid256, 0.5 * np.exp(1j * phi)),
            BoundaryFunction(np.roll(psi.values, k)),
            0.2,
            CFG,
        )
        assert rep_rot.iterations == rep.iterations
        assert np.max(np.abs(w_rot.values - np.roll(w.values, k, axis=1))) <= 1e-12

    def test_divergence_reports(self, grid256):
        alpha = GridFunction.constant(grid256, 0.5)
        psi = BoundaryFunction.from_function(256, lambda th: np.exp(np.cos(th)))
        tight = SolverConfig(tol=1e-13, max_iter=2)
        with pytest.raises(SolverDivergence) as err:
            solve_riesz(alpha, psi, 0.0, tight)
        assert err.value.report.iterations == 2
        assert len(err.value.report.increment_history) == 2

    def test_hardy_counterexample_growth(self):
        # the real-normalized holomorphic factor of the log-singular member
        # leaves every H^2 bound behind as the rim is refined
        norms = []
        # n_theta = 8 n_r resolves the rim singularity (see circle_norm)
        for n_r in (128, 256, 512):
            g = make_grid(8 * n_r, n_r)
            norms.append(hardy_norm(GridFunction.from_function(g, exw_F), 2.0))
        assert norms[0] < norms[1] < norms[2]


class TestPicardLoop:
    """The shared fixed-point loop on maps of known behaviour."""

    N = 64

    @staticmethod
    def _norm(d):
        return float(np.linalg.norm(d))

    def _affine_map(self, lin, conj_lin, rng):
        # g(u) = lin u + conj_lin conj(u) + c, only real-linear, fixed point x*
        x_star = rng.standard_normal(self.N) + 1j * rng.standard_normal(self.N)
        c = x_star - lin * x_star - conj_lin * np.conj(x_star)
        return (lambda u: lin * u + conj_lin * np.conj(u) + c), x_star

    def test_beats_plain_iteration(self):
        rng = np.random.default_rng(31)
        lin = 0.6 * rng.uniform(0.5, 1.0, self.N) * np.exp(2j * np.pi * rng.uniform(size=self.N))
        conj_lin = 0.3 * np.exp(2j * np.pi * rng.uniform(size=self.N))
        g, x_star = self._affine_map(lin, conj_lin, rng)
        tol = 1e-12
        # plain iteration (tau = 1, no history) under the same stopping rule
        u, plain = np.zeros(self.N, dtype=complex), 0
        while True:
            gu = g(u)
            plain += 1
            if self._norm(gu - u) < tol:
                break
            u = gu
        x0 = np.zeros(self.N, dtype=complex)
        x, history, converged, tau = _picard(x0, g, self._norm, SolverConfig(tol=tol, max_iter=500))
        assert converged and tau == 1.0
        assert len(history) < plain
        assert np.max(np.abs(x - x_star)) <= 1e-10
        assert np.max(np.abs(u - x_star)) <= 1e-10
        assert np.all(x0 == 0.0)  # the caller's initial state is left alone

    def test_expanding_map_reaches_floor(self):
        rng = np.random.default_rng(32)
        g, _ = self._affine_map(np.full(self.N, 2.0), np.full(self.N, 0.5j), rng)
        _, history, converged, tau = _picard(
            np.zeros(self.N, dtype=complex), g, self._norm, SolverConfig(tol=1e-12, max_iter=200)
        )
        assert not converged
        assert tau == DAMPING_FLOOR
        assert len(history) < 200


class TestConductivity:
    def test_laplace_reduction(self, grid256):
        z = grid256.nodes_z()
        u, v, w, rep = solve_conductivity(
            GridFunction.constant(grid256, 1.0), BoundaryFunction.from_function(256, np.cos), CFG
        )
        assert np.max(np.abs(u.values - z.real)) < 1e-12
        assert np.max(np.abs(v.values - z.imag)) < 1e-12

    def test_constant_conductivity_scales_out(self, grid256):
        z = grid256.nodes_z()
        u, _, _, _ = solve_conductivity(
            GridFunction.constant(grid256, 4.0), BoundaryFunction.from_function(256, np.cos), CFG
        )
        assert np.max(np.abs(u.values - z.real)) < 1e-12

    def test_rejects_nonpositive_sigma(self, grid256):
        vals = np.ones((grid256.n_r, grid256.n_theta), dtype=complex)
        vals[3, 3] = -1.0
        with pytest.raises(ValueError, match="positive"):
            solve_conductivity(GridFunction(grid256, vals), BoundaryFunction.zeros(256), CFG)

    def test_exp_sobolev_coefficient_vs_fd_oracle(self, grid256):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        from scipy.interpolate import RegularGridInterpolator

        def sig_fn(x, y):
            return np.exp(2 * x)

        def psi_fn(th):
            return 1.5 + np.cos(th) + 0.3 * np.sin(2 * th)

        z = grid256.nodes_z()
        sigma = GridFunction(grid256, sig_fn(z.real, z.imag).astype(complex))
        psi = BoundaryFunction.from_function(256, psi_fn)
        u, v, w, rep = solve_conductivity(sigma, psi, CFG)
        assert rep.extra["pde_residual"] <= 1e-4 * lp_norm_disk(u, 2.0)
        assert rep.extra["weighted_boundary_match"] <= 1e-8

        # independent Shortley-Weller 5-point oracle on an overlaid
        # Cartesian grid, Dirichlet data read off the circle
        n = 401
        xs = np.linspace(-1.0, 1.0, n)
        h = xs[1] - xs[0]
        inside = (xs[:, None] ** 2 + xs[None, :] ** 2) < 1.0 - 1e-12
        ids = np.where(inside.ravel())[0]
        idx = -np.ones(n * n, dtype=int)
        idx[ids] = np.arange(len(ids))
        rows, cols, vals, rhs = [], [], [], np.zeros(len(ids))
        for k, flat in enumerate(ids):
            i, j = divmod(flat, n)
            x, y = xs[i], xs[j]
            arms = []
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                xi, yj = x + dx * h, y + dy * h
                if xi * xi + yj * yj < 1.0 - 1e-12:
                    arms.append((h, idx[(i + dx) * n + (j + dy)], None))
                else:
                    b = x * dx + y * dy
                    t = max(-b + np.sqrt(b * b + 1.0 - x * x - y * y), 1e-3 * h)
                    arms.append((t, -1, psi_fn(np.arctan2(y + t * dy, x + t * dx))))
            (tE, iE, bE), (tW, iW, bW), (tN, iN, bN), (tS, iS, bS) = arms
            cE = 2.0 * sig_fn(x + tE / 2, y) / (tE * (tE + tW))
            cW = 2.0 * sig_fn(x - tW / 2, y) / (tW * (tE + tW))
            cN = 2.0 * sig_fn(x, y + tN / 2) / (tN * (tN + tS))
            cS = 2.0 * sig_fn(x, y - tS / 2) / (tS * (tN + tS))
            rows.append(k), cols.append(k), vals.append(-(cE + cW + cN + cS))
            for coef, ii, bv in ((cE, iE, bE), (cW, iW, bW), (cN, iN, bN), (cS, iS, bS)):
                if ii >= 0:
                    rows.append(k), cols.append(ii), vals.append(coef)
                else:
                    rhs[k] -= coef * bv
        A = sp.csr_matrix((vals, (rows, cols)), shape=(len(ids), len(ids)))
        full = np.full(n * n, np.nan)
        full[ids] = spla.spsolve(A, rhs)
        interp = RegularGridInterpolator((xs, xs), full.reshape(n, n))

        K = int(0.9 * grid256.n_r)
        pts = np.stack([z.real[:K].ravel(), z.imag[:K].ravel()], axis=1)
        u_oracle = interp(pts).reshape(K, grid256.n_theta)
        wts, _ = grid256.interior_weights_upto(0.9)
        l2 = np.sqrt(
            np.sum(np.abs(u.values.real[:K] - u_oracle) ** 2 * wts[:, None] * 2 * np.pi / 256)
        )
        assert l2 <= 1e-3

    def test_residual_examples(self, grid256):
        z = grid256.nodes_z()
        one = GridFunction.constant(grid256, 1.0)
        assert conductivity_residual(one, GridFunction(grid256, z.real.astype(complex))) <= 1e-8
        res = conductivity_residual(one, GridFunction(grid256, (np.abs(z) ** 2).astype(complex)))
        assert abs(res - 4 * np.sqrt(0.81 * np.pi)) < 0.05

    def test_exact_exponential_pair(self, grid256):
        # u = e^{-2x} solves div(e^{2x} grad u) = 0
        z = grid256.nodes_z()
        sigma = GridFunction(grid256, np.exp(2 * z.real))
        u = GridFunction(grid256, np.exp(-2 * z.real))
        assert conductivity_residual(sigma, u) <= 1e-6


class TestContracts:
    def test_riesz_rejects_complex_psi(self, grid256):
        with pytest.raises(ValueError, match="real"):
            solve_riesz(
                GridFunction.zeros(grid256),
                BoundaryFunction.from_function(256, lambda th: np.exp(1j * th)),
                0.0,
                CFG,
            )

    def test_parametrize_rejects_complex_psi(self, grid256):
        with pytest.raises(ValueError, match="real"):
            parametrize_imag(
                GridFunction.zeros(grid256),
                GridFunction.constant(grid256, 1.0),
                BoundaryFunction.from_function(256, lambda th: np.exp(1j * th)),
                0.0,
                CFG,
            )
