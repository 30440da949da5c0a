import dataclasses
import warnings

import numpy as np
import pytest
from helpers import exw_F, perturb_starts

from phdisk import (
    BoundaryFunction,
    GridFunction,
    SolverConfig,
    SolverDivergence,
    boundary_trace,
    cauchy,
    conductivity_residual,
    factorize,
    hardy_norm,
    lp_norm_disk,
    make_grid,
    parametrize_imag,
    parametrize_real,
    reconstruct,
    reflect_transform,
    riesz_extension,
    solve_conductivity,
    solve_dbar,
    solve_riesz,
    w12_norm,
    wirtinger_derivatives,
)
from phdisk import solvers
from phdisk.solvers import DAMPING_FLOOR, RESTART, _gmres, _picard

CFG = SolverConfig(tol=1e-10, max_iter=200)


def complex_alpha(g):
    z = g.nodes_z()
    return GridFunction(g, 0.6 * np.exp(1j * z.real) + 0.4j * z**2 - 0.3 * np.conj(z))


def scipy_riesz(alpha, psi, c, restart=60):
    """Oracle: SciPy's GMRES on the real 2N view of
    A w = w - (C + R)(alpha conj(w)) = H, H = riesz_extension(psi) + i c / 2 pi."""
    spla = pytest.importorskip("scipy.sparse.linalg")
    LinearOperator, gmres = spla.LinearOperator, spla.gmres

    g = alpha.grid
    H = riesz_extension(psi, g).values + 1j * c / (2 * np.pi)

    def matvec(u):
        w = np.ascontiguousarray(u, dtype=float).reshape(-1).view(complex).reshape(H.shape)
        h = GridFunction(g, alpha.values * np.conj(w))
        Aw = w - cauchy(h).values - reflect_transform(h).values
        return np.ascontiguousarray(Aw).reshape(-1).view(float)

    n = 2 * H.size
    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    b = np.ascontiguousarray(H).reshape(-1).view(float)
    sol, info = gmres(op, b, rtol=1e-13, atol=0.0, restart=restart, maxiter=10)
    assert info == 0
    return sol.view(complex).reshape(H.shape)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"max_iter": 0},
            {"max_iter": 2.5},
            # a boolean is not a number, nor is a numeric string: True ran
            # one step as max_iter and was 1.0 as tol, and "1e-8" raised
            # TypeError
            {"max_iter": True},
            {"tol": True},
            {"tol": "1e-8"},
            # fields that are gone, whatever their value: the Riesz report
            # is taken at p = 2, and the parametrizations use the relative
            # zero threshold of `beltrami_values`
            {"p": 0.5},
            {"p": 2.0},
            {"zero_threshold": -1.0},
            {"zero_threshold": float("nan")},
            {"zero_threshold": float("inf")},
            {"zero_threshold": "abc"},
            {"zero_threshold": None},
            {"zero_threshold": 0.0},
            {"zero_threshold": 1e-9},
            {"zero_threshold": 2},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_rejects_bad_values(self, bad):
        key = next(iter(bad))
        if key in ("p", "zero_threshold"):
            error, message = TypeError, f"unexpected keyword argument '{key}'"
        else:
            error, message = ValueError, f"^{key} must"
        with pytest.raises(error, match=message):
            SolverConfig(**bad)

    def test_fields_are_the_stopping_rule(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tol", "max_iter"]


class TestParametrizeImag:
    def test_manufactured_exponent(self, grid256):
        z = grid256.nodes_z()
        alpha = GridFunction(grid256, -0.5 * np.exp(2j * z.imag))
        F = GridFunction.constant(grid256, 1.0)
        psi = BoundaryFunction.from_function(256, np.sin)
        s, rep = parametrize_imag(alpha, F, psi, 0.0, CFG)
        assert w12_norm(s - GridFunction(grid256, 1j * z.imag)) <= 1e-8
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

    def test_empirical_uniqueness(self, grid256, monkeypatch):
        rng = np.random.default_rng(21)
        z = grid256.nodes_z()
        alpha = GridFunction(grid256, -0.5 * np.exp(2j * z.imag))
        F = GridFunction.constant(grid256, 1.0)
        psi = BoundaryFunction.from_function(256, np.sin)
        s1, _ = parametrize_imag(alpha, F, psi, 0.0, CFG)
        perturb_starts(monkeypatch, rng)
        s2, _ = parametrize_imag(alpha, F, psi, 0.0, CFG)
        assert w12_norm(s1 - s2) <= 10 * CFG.tol

    def test_non_harmonic_exponent(self, grid256):
        # s = a x^2 + i(b y + c|z|^2 + d|z|^2 x): Im s is not harmonic (modes
        # 0 and 1), so the fixed point is not phi = 0 and the coarsest level
        # takes more than one step.  With F = 1 the
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
        F = GridFunction.constant(grid256, 1.0)
        s, rep = parametrize_imag(alpha, F, psi, a * np.pi, CFG)
        assert w12_norm(s - GridFunction(grid256, s_exact)) <= 1e-8
        assert rep.converged and rep.iterations <= 100 and rep.extra["coarse_iterations"][0] > 1
        # s - H is the real_on_T exponent of the factorization of e^s F
        H = riesz_extension(psi, grid256) * 1j + a / 2
        again = factorize(reconstruct(s, F), alpha, "real_on_T").s
        assert w12_norm(again - (s - H)) <= 1e-9

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
        assert w12_norm(s - GridFunction(grid256, z.real.astype(complex))) <= 1e-8
        assert rep.converged and rep.iterations <= 100
        assert rep.residual_beltrami <= 1e-5
        # s - H is the imaginary_on_T exponent of the factorization of e^s F
        H = riesz_extension(psi, grid256)
        again = factorize(reconstruct(s, F), alpha, "imaginary_on_T").s
        assert w12_norm(again - (s - H)) <= 1e-9

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

    def test_empirical_uniqueness(self, grid256, monkeypatch):
        rng = np.random.default_rng(22)
        alpha = GridFunction.constant(grid256, 0.5)
        F = GridFunction.constant(grid256, 1.0)
        psi = BoundaryFunction.from_function(256, np.cos)
        s1, _ = parametrize_real(alpha, F, psi, 0.0, CFG)
        perturb_starts(monkeypatch, rng)
        s2, _ = parametrize_real(alpha, F, psi, 0.0, CFG)
        assert w12_norm(s1 - s2) <= 10 * CFG.tol


    def test_one_cauchy_reflect_per_iteration(self, grid256, monkeypatch):
        # criterion 06's data: on every level of the descent each step runs
        # one C + R pass, and one more assembles s from the fixed point
        calls = []
        cauchy_reflect = solvers.cauchy_reflect

        def counted(h, sign):
            calls.append(sign)
            return cauchy_reflect(h, sign)

        monkeypatch.setattr(solvers, "cauchy_reflect", counted)
        _, rep = parametrize_real(
            GridFunction.constant(grid256, 0.5),
            GridFunction.constant(grid256, 1.0),
            BoundaryFunction.from_function(256, np.cos),
            0.0,
            CFG,
        )
        steps = rep.extra["coarse_iterations"] + [rep.iterations]
        assert rep.converged and rep.iterations <= 30 and len(steps) == 4
        assert calls == [1.0] * sum(n + 1 for n in steps)

    def test_strong_coefficient_keeps_trace(self):
        # at alpha = 2 the source beta e^{-2i phi} reaches mode
        # 1 - n_theta/2, and tr Re s = psi holds only if R keeps the
        # partner of C's Nyquist column
        g = make_grid(128, 128)
        s, rep = parametrize_real(
            GridFunction.constant(g, 2.0),
            GridFunction.constant(g, 1.0),
            BoundaryFunction.from_function(128, np.cos),
            0.0,
            CFG,
        )
        assert rep.converged
        assert rep.normalization_defects["re_trace"] <= 1e-12
        tr = boundary_trace(s).values.real
        assert np.max(np.abs(tr - np.cos(g.thetas))) <= 1e-12

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
        # the measured fine-grid operator applications and error (9.7e-12)
        # of the nested linear solve; a cold start from H takes 15
        assert rep.iterations == 1
        assert np.max(np.abs(w.values - np.exp(z.real))) <= 1e-11
        assert np.max(np.abs(psi_sharp.values)) <= 1e-8
        assert rep.normalization_defects["re_trace_sup"] <= 1e-8

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

    def test_empirical_uniqueness(self, grid256, monkeypatch):
        rng = np.random.default_rng(23)
        alpha = GridFunction.constant(grid256, 0.5)
        psi = BoundaryFunction.from_function(256, lambda th: np.exp(np.cos(th)))
        w1, _, _ = solve_riesz(alpha, psi, 0.0, CFG)
        perturb_starts(monkeypatch, rng)
        w2, _, _ = solve_riesz(alpha, psi, 0.0, CFG)
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

    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_riesz_estimate_at_p(self, p):
        # the M. Riesz estimate ||w||_{H^p} <= C (||psi||_{L^p(T)} + |c|)
        # away from p = 2, through the public norms: the measured constant
        # settles as the grid is refined
        c, consts = 0.3, []
        for n in (64, 128, 256):
            grid = make_grid(n, n)
            psi = BoundaryFunction.from_function(n, lambda th: np.exp(np.cos(th)))
            w, _, _ = solve_riesz(GridFunction.constant(grid, 0.5), psi, c, CFG)
            consts.append(hardy_norm(w, p) / (psi.lp_norm(p) + abs(c)))
        assert np.all(np.isfinite(consts))
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

    def test_matches_scipy_gmres(self):
        # oracle: SciPy's GMRES on the real 2N view of the same equation,
        # with a non-constant complex alpha; 32 x 16 never coarsens
        g = make_grid(32, 16)
        alpha = complex_alpha(g)
        psi = BoundaryFunction.from_function(32, lambda th: 1.0 + 0.5 * np.cos(th) - 0.3 * np.sin(2 * th))
        ref = scipy_riesz(alpha, psi, 0.4, restart=2 * g.n_r * g.n_theta)
        w, _, rep = solve_riesz(alpha, psi, 0.4, SolverConfig(tol=1e-12))
        assert rep.converged and "coarse_iterations" not in rep.extra
        assert np.max(np.abs(w.values - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_nested_matches_scipy_gmres(self):
        # 64^2 is solved on 32^2 first, and the fine loop starts from there
        g = make_grid(64, 64)
        alpha = complex_alpha(g)
        psi = BoundaryFunction.from_function(64, lambda th: 1.0 + 0.5 * np.cos(th) - 0.3 * np.sin(2 * th))
        ref = scipy_riesz(alpha, psi, 0.4)
        w, _, rep = solve_riesz(alpha, psi, 0.4, SolverConfig(tol=1e-12))
        assert rep.converged and len(rep.extra["coarse_iterations"]) == 1
        assert rep.iterations < rep.extra["coarse_iterations"][0]
        assert np.max(np.abs(w.values - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_nested_start_is_fine_grid_accurate(self):
        # e^x at 128^2 from 64^2 and 32^2: the prolonged start is within
        # reach of the fine stopping rule (2 applications, 15 cold)
        g = make_grid(128, 128)
        psi = BoundaryFunction.from_function(128, lambda th: np.exp(np.cos(th)))
        w, _, rep = solve_riesz(GridFunction.constant(g, 0.5), psi, 0.0, CFG)
        assert len(rep.extra["coarse_iterations"]) == 2
        assert rep.increment_history[0] <= 1e-8
        assert rep.iterations <= 4
        assert np.max(np.abs(w.values - np.exp(g.nodes_z().real))) <= 1e-9

    @pytest.mark.parametrize("entry", ["solve_riesz", "solve_conductivity"])
    def test_passes_equal_reported_applications(self, grid256, monkeypatch, entry):
        # every C + R pass of a nested solve is an application its report
        # counts: each level closes from the residual GMRES holds, not with
        # a pass of its own
        calls = []
        modes = solvers._cauchy_reflect_modes

        def counted(*args):
            calls.append(None)
            return modes(*args)

        monkeypatch.setattr(solvers, "_cauchy_reflect_modes", counted)
        psi = BoundaryFunction.from_function(256, lambda th: np.exp(np.cos(th)))
        if entry == "solve_riesz":
            _, _, rep = solve_riesz(GridFunction.constant(grid256, 0.5), psi, 0.0, CFG)
        else:
            sigma = GridFunction(grid256, np.exp(2.0 * grid256.nodes_z().real))
            rep = solve_conductivity(sigma, psi, CFG)[3]
        assert rep.converged and len(rep.extra["coarse_iterations"]) == 3
        assert len(calls) == rep.iterations + sum(rep.extra["coarse_iterations"])

    def test_closing_step_after_restarts(self):
        # constant kappa = 3 at 64^2 restarts on both levels; the closing
        # w = x + r, r the residual GMRES carries through its restarts, is
        # still the plain step H + (C + R)(alpha conj(w)) and keeps both
        # boundary conditions at rounding
        g = make_grid(64, 64)
        alpha = GridFunction.constant(g, 3.0)
        psi = BoundaryFunction(np.exp(6.0 * np.cos(g.thetas)))
        w, _, rep = solve_riesz(alpha, psi, 0.0, SolverConfig(tol=1e-12))
        assert rep.converged and rep.iterations > RESTART + 1
        assert rep.extra["coarse_iterations"][0] > RESTART + 1
        assert rep.normalization_defects["re_trace_sup"] <= 1e-12
        assert rep.normalization_defects["im_mean"] <= 1e-12
        h = GridFunction(g, alpha.values * np.conj(w.values))
        step = riesz_extension(psi, g).values + cauchy(h).values + reflect_transform(h).values
        assert np.max(np.abs(w.values - step)) <= 1e-12 * np.max(np.abs(w.values))

    def test_unconverged_coarse_level_is_not_used(self):
        # the critical closed form at t = 8 stalls on every level; the fine
        # loop must start from H, with ||A H - H|| / ||H|| its first entry,
        # and the solve raises instead of returning a wrong answer
        g = make_grid(64, 64)
        z = g.nodes_z()
        L = np.log(np.e / np.abs(z))
        alpha = GridFunction(g, -8.0 * z / (2.0 * np.abs(z) ** 2 * L))
        psi = BoundaryFunction(np.ones(64))
        with pytest.raises(SolverDivergence) as err:
            solve_riesz(alpha, psi, 0.0)
        rep = err.value.report
        assert not rep.converged and rep.iterations == SolverConfig().max_iter
        assert rep.extra["coarse_iterations"] == [SolverConfig().max_iter]
        H = riesz_extension(psi, g)
        h = GridFunction(g, alpha.values * np.conj(H.values))
        r = cauchy(h).values + reflect_transform(h).values
        expected = np.linalg.norm(r) / np.linalg.norm(H.values)
        assert abs(rep.increment_history[0] - expected) <= 1e-12 * expected

    def test_unconverged_coarse_level_ends_the_descent(self):
        # t = 8 at 128^2: the 32^2 level stalls, so 64^2 is not solved and
        # the given grid starts from H (200 + 200 applications, not 600)
        g = make_grid(128, 128)
        z = g.nodes_z()
        alpha = GridFunction(g, -8.0 * z / (2.0 * np.abs(z) ** 2 * np.log(np.e / np.abs(z))))
        with pytest.raises(SolverDivergence) as err:
            solve_riesz(alpha, BoundaryFunction(np.ones(128)), 0.0)
        rep = err.value.report
        assert rep.iterations == SolverConfig().max_iter
        assert rep.extra["coarse_iterations"] == [SolverConfig().max_iter]

    @pytest.mark.parametrize(
        "psi",
        [np.arange(64) % 2.0, np.cos(32 * np.arange(64) * 2 * np.pi / 64)],
        ids=["k-mod-2", "cos-32t"],
    )
    def test_nyquist_mode_is_kept(self, psi):
        # the Nyquist mode of psi is its own conjugate: the extension keeps
        # it with weight 1 (weight 0 left re_trace_sup at 0.5 and 1.0)
        g = make_grid(64, 64)
        w, _, rep = solve_riesz(GridFunction.constant(g, 0.5), BoundaryFunction(psi), 0.0, CFG)
        assert rep.converged
        assert rep.normalization_defects["re_trace_sup"] <= 1e-14
        assert np.max(np.abs(w.values[-1].real - psi)) <= 1e-14

    def test_nested_levels_share_the_engine_cache(self, monkeypatch):
        # 512^2 runs five levels, 512 down to 32; with fewer cached engines
        # than levels, every solve would rebuild all five
        from phdisk import radial

        g = make_grid(512, 512)
        psi = BoundaryFunction.from_function(512, np.cos)
        solve_riesz(GridFunction.zeros(g), psi, 0.0, CFG)
        builds = []
        monkeypatch.setattr(radial, "RadialEngine", lambda *a: builds.append(a))
        _, _, rep = solve_riesz(GridFunction.zeros(g), psi, 0.0, CFG)
        assert len(rep.extra["coarse_iterations"]) == 4 and builds == []

    def test_data_vanishing_on_the_half_grid(self):
        # psi = 1 on odd samples only: the half-grid problem has H = 0 and
        # its solution w = 0 starts the fine loop
        g = make_grid(64, 64)
        alpha = GridFunction.constant(g, 0.5)
        psi = BoundaryFunction(np.arange(64) % 2.0)
        w, _, rep = solve_riesz(alpha, psi, 0.0, SolverConfig(tol=1e-12))
        assert rep.converged and rep.extra["coarse_iterations"] == [0]
        ref = scipy_riesz(alpha, psi, 0.0)
        assert np.max(np.abs(w.values - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_prolongation_exact_on_quintic_bandlimited(self):
        # radial quintics and angular modes below the coarse Nyquist mode
        # (and its cosine) are reproduced to rounding; the half grid keeps
        # the odd rows and even columns
        g = make_grid(64, 32)
        r, th = g.radii[:, None], g.thetas[None, :]
        radial = 1.0 + r - 2.0 * r**2 + 0.5 * r**3 - 0.7 * r**4 + 0.3 * r**5
        f = radial * (np.exp(1j * th) + 0.3 * np.exp(-15j * th) + np.cos(16 * th))
        out = solvers._prolong(f[1::2, ::2])
        assert np.max(np.abs(out - f)) <= 1e-13

    def test_prolongation_order(self):
        # on a smooth field that no radial polynomial reproduces, the error
        # falls at order 6 per doubling (measured 6.04, 6.02, 6.01)
        errors = []
        for n in (64, 128, 256, 512):
            z = make_grid(n, n).nodes_z()
            f = np.exp(z.real) * np.cos(z.imag) + 1j * np.sin(2.0 * z.imag) * np.exp(-z.real)
            errors.append(np.max(np.abs(solvers._prolong(f[1::2, ::2]) - f)))
        assert np.all(np.log2(np.divide(errors[:-1], errors[1:])) >= 5.5)

    def test_hardy_counterexample_growth(self):
        # the real-normalized holomorphic factor of the log-singular member
        # leaves every H^2 bound behind as the rim is refined
        norms = []
        # n_theta = 8 n_r resolves the rim singularity (see circle_norm)
        for n_r in (128, 256, 512):
            g = make_grid(8 * n_r, n_r)
            norms.append(hardy_norm(GridFunction.from_function(g, exw_F), 2.0))
        assert norms[0] < norms[1] < norms[2]


class TestDescent:
    @pytest.mark.parametrize("entry", ["solve_riesz", "parametrize_imag", "parametrize_real"])
    def test_unconverged_coarse_level_ends_the_descent(self, monkeypatch, entry):
        # two steps cannot reach tol on 32^2: the descent ends there, and
        # 64^2 starts cold (from H, or phi = 0), as 32^2 did, not from the
        # unconverged prolongation
        g = make_grid(64, 64)
        cfg = SolverConfig(tol=1e-12, max_iter=2)
        alpha = GridFunction.constant(g, 0.5)
        psi = BoundaryFunction.from_function(64, np.cos)
        if entry == "solve_riesz":
            name, is_cold = "_gmres", lambda rhs, x, *_: np.array_equal(x, rhs)
            run = lambda: solve_riesz(alpha, psi, 0.0, cfg)
        else:
            name, is_cold = "_picard", lambda x, *_: not np.any(x)
            fn = parametrize_imag if entry == "parametrize_imag" else parametrize_real
            run = lambda: fn(alpha, GridFunction.constant(g, 1.0), psi, 0.0, cfg)
        loop, cold = getattr(solvers, name), []

        def spy(*args):
            cold.append(is_cold(*args))
            return loop(*args)

        monkeypatch.setattr(solvers, name, spy)
        with pytest.raises(SolverDivergence, match=entry) as err:
            run()
        rep = err.value.report
        assert rep.iterations == 2 and rep.extra["coarse_iterations"] == [2]
        assert cold == [True, True]

    @pytest.mark.parametrize("entry", ["solve_riesz", "parametrize_imag", "parametrize_real"])
    def test_initial_s_is_not_a_keyword(self, entry):
        # no solver takes a start from its caller: every level starts from
        # the prolonged coarse solution or cold
        g = make_grid(64, 64)
        one = GridFunction.constant(g, 1.0)
        psi = BoundaryFunction.from_function(64, np.cos)
        args = (one, psi, 0.0) if entry == "solve_riesz" else (one, one, psi, 0.0)
        with pytest.raises(TypeError, match="unexpected keyword argument 'initial_s'"):
            getattr(solvers, entry)(*args, initial_s=one)


class TestPicardLoop:
    """The shared fixed-point loop on maps of known behaviour."""

    N = 64

    @staticmethod
    def _norm(d):
        return float(np.linalg.norm(d))

    def _affine_map(self, lin, conj_lin, rng):
        # g(v) = lin v + conj_lin conj(v) + c on C^N, only real-linear, fixed
        # point x*; the loop runs on its real view u = (Re v, Im v) in R^{2N}
        N = self.N
        x_star = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        c = x_star - lin * x_star - conj_lin * np.conj(x_star)

        def g(u):
            v = u[:N] + 1j * u[N:]
            gv = lin * v + conj_lin * np.conj(v) + c
            return np.concatenate([gv.real, gv.imag])

        return g, np.concatenate([x_star.real, x_star.imag])

    def test_beats_plain_iteration(self):
        rng = np.random.default_rng(31)
        lin = 0.6 * rng.uniform(0.5, 1.0, self.N) * np.exp(2j * np.pi * rng.uniform(size=self.N))
        conj_lin = 0.3 * np.exp(2j * np.pi * rng.uniform(size=self.N))
        g, x_star = self._affine_map(lin, conj_lin, rng)
        tol = 1e-12
        # plain iteration (tau = 1, no history) under the same stopping rule
        u, plain = np.zeros(2 * self.N), 0
        while True:
            gu = g(u)
            plain += 1
            if self._norm(gu - u) < tol:
                break
            u = gu
        x0 = np.zeros(2 * self.N)
        x, history, converged, tau = _picard(x0, g, self._norm, SolverConfig(tol=tol, max_iter=500))
        assert converged and tau == 1.0
        assert len(history) < plain
        assert np.max(np.abs(x - x_star)) <= 1e-10
        assert np.max(np.abs(u - x_star)) <= 1e-10
        assert np.all(x0 == 0.0)  # the caller's initial state is left alone

    @staticmethod
    def _dense_anderson(g, x0, norm, tol, window=3):
        """Reference Anderson(window), type II with beta = 1 (Walker & Ni 2011):
        x+ = x + f - (dX + dF) gamma, gamma = argmin ||f - dF gamma||, dX and
        dF the last min(window, k) differences of iterates and residuals as
        columns.  Returns every iterate, the one after the last step included."""
        xs, fs = [np.array(x0, dtype=float)], []
        while True:
            k = len(xs) - 1
            fs.append(g(xs[k]) - xs[k])
            cols = range(k - min(window, k), k)
            dX = np.stack([xs[i + 1] - xs[i] for i in cols] or [0 * x0], axis=1)
            dF = np.stack([fs[i + 1] - fs[i] for i in cols] or [0 * x0], axis=1)
            gamma = np.linalg.lstsq(dF, fs[k], rcond=None)[0]
            xs.append(xs[k] + fs[k] - (dX + dF) @ gamma)
            if norm(fs[k]) < tol:
                return xs

    def test_matches_dense_reference(self):
        # the contracting map of test_beats_plain_iteration, where tau stays 1
        rng = np.random.default_rng(31)
        lin = 0.6 * rng.uniform(0.5, 1.0, self.N) * np.exp(2j * np.pi * rng.uniform(size=self.N))
        conj_lin = 0.3 * np.exp(2j * np.pi * rng.uniform(size=self.N))
        g, _ = self._affine_map(lin, conj_lin, rng)
        tol = 1e-12
        seen = []

        def recorded(u):
            seen.append(u.copy())
            return g(u)

        x0 = np.zeros(2 * self.N)
        x, history, converged, tau = _picard(x0, recorded, self._norm, SolverConfig(tol=tol, max_iter=500))
        ref = self._dense_anderson(g, x0, self._norm, tol)
        assert converged and tau == 1.0
        assert len(ref) == len(seen) + 1 == len(history) + 1
        for u, v in zip(seen + [x], ref):
            assert np.max(np.abs(u - v)) <= 1e-12

    def test_expanding_map_reaches_floor(self):
        rng = np.random.default_rng(32)
        g, _ = self._affine_map(np.full(self.N, 2.0), np.full(self.N, 0.5j), rng)
        _, history, converged, tau = _picard(
            np.zeros(2 * self.N), g, self._norm, SolverConfig(tol=1e-12, max_iter=200)
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

    def test_high_contrast_exponential(self):
        # sigma = e^{4x}, contrast e^8: the factorization iteration raised
        # SolverDivergence after 35 steps here; the linear solve takes 23
        # operator applications (boundary match 4.4e-15, PDE residual 4.4e-7)
        g = make_grid(128, 128)
        z = g.nodes_z()
        psi = BoundaryFunction.from_function(128, lambda th: 1.5 + np.cos(th) + 0.3 * np.sin(2 * th))
        u, _, _, rep = solve_conductivity(GridFunction(g, np.exp(4.0 * z.real)), psi, CFG)
        assert rep.converged
        assert rep.extra["weighted_boundary_match"] <= 1e-10
        assert rep.extra["pde_residual"] <= 1e-5

    def test_critical_power_matches_scipy_gmres(self):
        # sigma = log(e/|z|)^8: GMRES(8) started from H stalls here (relative
        # residual 0.63); the nested start converges (35 applications at
        # 64^2) to the solution of SciPy's GMRES(60)
        g = make_grid(64, 64)
        sigma = GridFunction(g, np.log(np.e / np.abs(g.nodes_z())) ** 8)
        psi = BoundaryFunction.from_function(64, lambda th: 1.5 + np.cos(th) + 0.3 * np.sin(2 * th))
        u, _, w, rep = solve_conductivity(sigma, psi, CFG)
        assert rep.converged
        assert set(rep.extra) == {"coarse_iterations", "pde_residual", "weighted_boundary_match"}
        assert rep.extra["weighted_boundary_match"] <= 1e-10
        alpha = wirtinger_derivatives(GridFunction(g, 0.5 * np.log(sigma.values.real).astype(complex)))[1]
        ref = scipy_riesz(alpha, psi, 0.0)
        assert np.max(np.abs(w.values - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_rejects_nonpositive_sigma(self, grid256):
        vals = np.ones((grid256.n_r, grid256.n_theta), dtype=complex)
        vals[3, 3] = -1.0
        with pytest.raises(ValueError, match="positive"):
            solve_conductivity(GridFunction(grid256, vals), BoundaryFunction.zeros(256), CFG)

    def test_rejects_complex_sigma(self):
        # the imaginary part used to be dropped without a word; below
        # 1e-10 it is rounding, as for psi
        g = make_grid(64, 64)
        sigma = np.exp(2.0 * g.nodes_z().real)
        psi = BoundaryFunction.from_function(64, np.cos)
        with pytest.raises(ValueError, match="^sigma must be real-valued"):
            solve_conductivity(GridFunction(g, sigma + 1e-6j), psi, CFG)
        u = solve_conductivity(GridFunction(g, sigma + 1e-12j), psi, CFG)[0]
        assert np.array_equal(u.values, solve_conductivity(GridFunction(g, sigma), psi, CFG)[0].values)

    def test_exp_sobolev_coefficient_vs_fd_oracle(self, grid256):
        sp = pytest.importorskip("scipy.sparse")
        spla = pytest.importorskip("scipy.sparse.linalg")
        RegularGridInterpolator = pytest.importorskip("scipy.interpolate").RegularGridInterpolator

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

    def test_residual_equals_the_whole_grid_formula(self):
        # formed on the rows of D_0.9 and the two above them only, the
        # residual is that of the whole-grid derivatives to rounding
        g = make_grid(64, 64)
        z = g.nodes_z()
        sigma = GridFunction(g, np.exp(z.real) * (1.0 + 0.3 * z.imag**2))
        u = GridFunction(g, (np.cos(2.0 * z.real) * np.exp(z.imag)).astype(complex))
        flux = sigma.values.real * wirtinger_derivatives(u)[1].values
        div = 4.0 * wirtinger_derivatives(GridFunction(g, flux))[0].values.real
        expected = lp_norm_disk(GridFunction(g, div), 2.0, r_max=0.9)
        assert abs(conductivity_residual(sigma, u) - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("other", [(64, 64, 2.0), (32, 64, 1.0)], ids=["outer-radius-2", "64x32"])
    def test_residual_operands_on_different_grids(self, other):
        # against the 64^2 unit grid: a 64^2 grid of outer radius 2, whose
        # values were read as if on the unit grid, and a (64, 32) grid,
        # which met a bare broadcast error
        g, h = make_grid(64, 64), make_grid(*other)
        u = GridFunction(g, (np.abs(g.nodes_z()) ** 2).astype(complex))
        with pytest.raises(ValueError, match="grid mismatch between operands"):
            conductivity_residual(GridFunction.constant(h, 1.0), u)

    def test_exact_exponential_pair(self, grid256):
        # u = e^{-2x} solves div(e^{2x} grad u) = 0, and the nested solve
        # recovers it from its trace
        z = grid256.nodes_z()
        sigma = GridFunction(grid256, np.exp(2 * z.real))
        u = GridFunction(grid256, np.exp(-2 * z.real))
        assert conductivity_residual(sigma, u) <= 1e-6
        psi = BoundaryFunction(np.exp(-2.0 * np.cos(grid256.thetas)))
        got, _, _, rep = solve_conductivity(sigma, psi)
        assert rep.converged and np.max(np.abs(got.values - u.values)) < 1e-6


class TestGmres:
    def test_restarted_solve_keeps_rhs_and_matches_dense_solve(self):
        # A v = v + M v + N conj(v) on a 4 x 6 complex array, real-linear
        # but not complex-linear; to tol 1e-12 the loop restarts
        rng = np.random.default_rng(7)
        shape, n = (4, 6), 24
        M, N = (0.05 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) for _ in range(2))

        def apply(v, out):
            u = v.reshape(-1)
            out[...] = (u + M @ u + N @ np.conj(u)).reshape(shape)

        rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kept = rhs.copy()
        x = np.zeros(shape, dtype=complex)
        history, converged, r = _gmres(rhs, x, apply, SolverConfig(tol=1e-12))
        assert converged and len(history) > RESTART + 1
        assert rhs.tobytes() == kept.tobytes()
        # the returned r is rhs - A x after restarts: at convergence, and in
        # a run cut short by max_iter, where r is far from zero
        Ax = np.empty(shape, dtype=complex)
        bnorm = np.linalg.norm(rhs)
        apply(x, Ax)
        assert np.linalg.norm(r - (rhs - Ax)) <= 1e-12 * bnorm
        y = np.zeros(shape, dtype=complex)
        history, converged, r = _gmres(rhs, y, apply, SolverConfig(tol=1e-12, max_iter=RESTART + 3))
        assert not converged and len(history) == RESTART + 3
        apply(y, Ax)
        assert np.linalg.norm(r) >= 1e-6 * bnorm
        assert np.linalg.norm(r - (rhs - Ax)) <= 1e-12 * bnorm
        # the dense real 2n x 2n view, column by column
        cols = []
        for e in np.eye(2 * n):
            out = np.empty(shape, dtype=complex)
            apply(e.view(complex).reshape(shape), out)
            cols.append(out.reshape(-1).view(float))
        ref = np.linalg.solve(np.array(cols).T, rhs.reshape(-1).view(float)).view(complex)
        assert np.max(np.abs(x.reshape(-1) - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_real_dot_is_re_vdot(self):
        # the sum runs in einsum's fixed order, not BLAS's, so it equals
        # Re vdot to the classical bound 2n eps sum |a_i b_i|; on complex,
        # real, strided and transposed arrays
        rng = np.random.default_rng(8)
        a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        b = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        for x, y in ((a, b), (a.real.copy(), b.imag.copy()), (a.real, b.real), (a.T, b.T)):
            bound = 2 * x.size * np.finfo(float).eps * float(np.sum(np.abs(x) * np.abs(y)))
            assert abs(solvers._real_dot(x, y) - np.vdot(x, y).real) <= bound


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

    @pytest.mark.parametrize(
        "entry",
        ["solve_riesz", "solve_dbar", "parametrize_real", "parametrize_imag", "riesz_extension", "solve_conductivity"],
    )
    def test_psi_on_other_angles_rejected(self, entry):
        # 32 samples on a 64-angle grid used to fail inside numpy
        # broadcasting, "operands could not be broadcast together"
        g = make_grid(64, 64)
        one = GridFunction.constant(g, 1.0)
        psi = BoundaryFunction.from_function(32, np.cos)
        calls = {
            "solve_riesz": lambda: solve_riesz(one, psi, 0.0),
            "solve_dbar": lambda: solve_dbar(one, psi, 0.0),
            "parametrize_real": lambda: parametrize_real(one, one, psi, 0.0),
            "parametrize_imag": lambda: parametrize_imag(one, one, psi, 0.0),
            "riesz_extension": lambda: riesz_extension(psi, g),
            "solve_conductivity": lambda: solve_conductivity(one, psi),
        }
        with pytest.raises(ValueError, match="^boundary function does not match grid angles: psi has 32 samples"):
            calls[entry]()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "entry, name",
        [
            ("solve_riesz", "c"),
            ("parametrize_real", "lam"),
            ("parametrize_imag", "lam"),
            ("solve_dbar", "lam"),
            ("solve_dbar", "theta0"),
        ],
    )
    def test_non_finite_scalars_rejected(self, entry, name, value):
        # these used to pass every check, warn, and then raise an unrelated
        # MaskedValueError such as "boundary ring is fully masked"
        g = make_grid(64, 64)
        one = GridFunction.constant(g, 1.0)
        psi = BoundaryFunction.from_function(64, np.cos)
        calls = {
            "solve_riesz": lambda: solve_riesz(one, psi, value),
            "parametrize_real": lambda: parametrize_real(one, one, psi, value),
            "parametrize_imag": lambda: parametrize_imag(one, one, psi, value),
            "solve_dbar": lambda: solve_dbar(one, psi, **{"lam": 0.0, name: value}),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                calls[entry]()
