import subprocess
import sys
import textwrap

import numpy as np
import pytest
from helpers import random_smooth_bandlimited

from phdisk import (
    BoundaryFunction,
    GridFunction,
    MaskedValueError,
    area_integral,
    beurling,
    boundary_trace,
    cauchy,
    cauchy_renormalized,
    conjugate_function,
    green_potential,
    harmonic_conjugate,
    laplacian,
    lp_norm_disk,
    make_grid,
    poisson_extend,
    reflect_transform,
    riesz_extension,
    solve_dbar,
    wirtinger_derivatives,
)
from phdisk.radial import RadialEngine
from phdisk.solvers import parametrize_imag, solve_riesz
from phdisk.transforms import cauchy_reflect

UNIT_DISK_OPERATORS = {
    "cauchy": lambda h, psi: cauchy(h),
    "beurling": lambda h, psi: beurling(h),
    "reflect_transform": lambda h, psi: reflect_transform(h),
    "green_potential": lambda h, psi: green_potential(h),
    "cauchy_reflect": lambda h, psi: cauchy_reflect(h, 1.0),
    "poisson_extend": lambda h, psi: poisson_extend(psi, h.grid),
    "riesz_extension": lambda h, psi: riesz_extension(psi, h.grid),
    "solve_dbar": lambda h, psi: solve_dbar(h, psi, 0.0),
    "solve_riesz": lambda h, psi: solve_riesz(h, psi, 0.0),
    "parametrize_imag": lambda h, psi: parametrize_imag(h, h, psi, 0.0),
}


@pytest.mark.parametrize("name", UNIT_DISK_OPERATORS)
def test_rejects_grids_off_the_unit_disk(monkeypatch, name):
    # these read the outer ring as T: on D_2, cauchy(1) was off by 0.5 in D,
    # poisson_extend wrote psi on r = 2, and solve_riesz diverged after
    # 200 coarse and 200 fine applications
    g = make_grid(64, 64, outer_radius=2.0)
    h = GridFunction.constant(g, 0.5)
    psi = BoundaryFunction.from_function(64, np.cos)
    sweeps = []
    monkeypatch.setattr(RadialEngine, "sweep", lambda *args, **kwargs: sweeps.append(args))
    with pytest.raises(ValueError, match="outer radius 1, not 2.0"):
        UNIT_DISK_OPERATORS[name](h, psi)
    assert not sweeps  # raised before any C +- R pass


class TestCauchy:
    def test_characteristic_function(self, grid256):
        z = grid256.nodes_z()
        C = cauchy(GridFunction.constant(grid256, 1.0))
        assert np.max(np.abs(C.values - np.conj(z))) < 1e-13

    def test_linear_source(self, grid256):
        z = grid256.nodes_z()
        C = cauchy(GridFunction(grid256, z))
        assert np.max(np.abs(C.values - (np.abs(z) ** 2 - 1))) < 1e-13

    def test_zero(self, grid256):
        assert np.max(np.abs(cauchy(GridFunction.zeros(grid256)).values)) == 0.0

    def test_dbar_inverse_on_random_family(self, grid256):
        rng = np.random.default_rng(1)
        for _ in range(10):
            h = random_smooth_bandlimited(grid256, rng, grid256.n_theta // 4)
            _, dbar = wirtinger_derivatives(cauchy(h))
            rel = lp_norm_disk(dbar - h, 2.0, r_max=0.9) / lp_norm_disk(h, 2.0, r_max=0.9)
            assert rel <= 1e-6


def test_transforms_leave_numpy_ma_unimported():
    """A fresh interpreter runs cauchy and cauchy_renormalized without
    importing numpy.ma (about 15 ms of every cold CLI run)."""
    probe = textwrap.dedent(
        """
        import sys
        import numpy as np
        import phdisk as ph
        g = ph.make_grid(64, 64)
        h = ph.GridFunction(g, g.nodes_z() + 1.0)
        ph.cauchy(h)
        ph.cauchy_renormalized(h, 2.0)
        print("numpy.ma" in sys.modules)
        """
    )
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


class TestBeurling:
    def test_characteristic_function(self, grid256):
        B = beurling(GridFunction.constant(grid256, 1.0))
        assert np.max(np.abs(B.values)) < 1e-13

    def test_linear_source(self, grid256):
        z = grid256.nodes_z()
        B = beurling(GridFunction(grid256, z))
        assert np.max(np.abs(B.values - np.conj(z))) < 1e-13

    def test_zero(self, grid256):
        assert np.max(np.abs(beurling(GridFunction.zeros(grid256)).values)) == 0.0

    def test_equals_d_of_cauchy(self, grid256):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h = random_smooth_bandlimited(grid256, rng, grid256.n_theta // 4)
            d, _ = wirtinger_derivatives(cauchy(h))
            rel = lp_norm_disk(d - beurling(h), 2.0, r_max=0.9) / lp_norm_disk(
                h, 2.0, r_max=0.9
            )
            assert rel <= 1e-6


class TestRenormalizedCauchy:
    @pytest.mark.parametrize(
        "R, n_r",
        [(1.0, 256), (2.0, 256), (4.0, 256), (1.7, 300), (3.0, 700)],
        ids=["1.0", "2.0", "4.0", "1.7-300", "3.0-700"],
    )
    def test_characteristic_piecewise_form(self, grid256, R, n_r):
        # sources rho^k e^{-+i m theta} with k <= 3, which the local cubics
        # integrate exactly: m = k = 0 is the characteristic function of D,
        # k = m gives conj(z)^m and z^m, and m = 40, 120 reach high kernel
        # exponents; with n_r != 256 the eval radii fall between the source
        # nodes (partial cells)
        eg = make_grid(256, n_r, outer_radius=R)
        z, ze = grid256.nodes_z(), eg.nodes_z()
        rho, th, r, the = np.abs(z), np.angle(z), np.abs(ze), np.angle(ze)
        inside = r <= 1.0 + 1e-12
        cases = [
            # inward modes: 2 r^{k+1}/(m+k+2) continued by r^{-(m+1)} beyond T
            (-m, 2.0 / (m + k + 2) * np.where(inside, r ** (k + 1), r ** -(m + 1.0)), k)
            for m, k in [(0, 0), (1, 1), (2, 2), (3, 3), (40, 1), (120, 3)]
        ] + [
            # outward modes: 2 (r^{k+1} - r^{m-1})/(k-m+2), zero beyond T
            (m, np.where(inside, 2.0 * (r ** (k + 1) - r ** (m - 1)) / (k - m + 2), 0.0), k)
            for m, k in [(1, 1), (2, 2), (40, 1), (120, 3)]
        ]
        for n, profile, k in cases:
            C2 = cauchy_renormalized(GridFunction(grid256, rho**k * np.exp(1j * n * th)), R, eg)
            expected = profile * np.exp(1j * (n - 1) * the)
            assert np.max(np.abs(C2.values - expected)) < 1e-12

    @pytest.mark.parametrize("R", [1.0, 2.0, 4.0])
    def test_mean_identity(self, grid256, R):
        # both sides of the mean identity equal -1/(2 R^2) for h(t) = t
        z = grid256.nodes_z()
        eg = make_grid(256, 256, outer_radius=R)
        C2 = cauchy_renormalized(GridFunction(grid256, z), R, eg)
        mean = area_integral(C2) / (np.pi * R**2)
        assert abs(mean - (-1.0 / (2 * R**2))) < 1e-8

    def test_linear_source_vanishes_outside(self, grid256):
        z = grid256.nodes_z()
        eg = make_grid(256, 512, outer_radius=2.0)
        C2 = cauchy_renormalized(GridFunction(grid256, z), 2.0, eg)
        assert np.max(np.abs(C2.values[eg.radii > 1.0 + 1e-12])) < 1e-12
        # quartic integrand: beyond the rule's cubic exactness, so not machine
        norm_sq = lp_norm_disk(C2, 2.0) ** 2
        assert abs(norm_sq - np.pi / 3) < 1e-8

    def test_zero(self, grid256):
        C2 = cauchy_renormalized(GridFunction.zeros(grid256), 3.0)
        assert np.max(np.abs(C2.values)) == 0.0

    def test_rejects_small_radius(self, grid256):
        with pytest.raises(ValueError, match=">= 1"):
            cauchy_renormalized(GridFunction.zeros(grid256), 0.5)

    def test_rejects_nan_radius(self, grid256):
        # NaN passed both radius checks and returned C_2 on the eval grid's D_2
        with pytest.raises(ValueError, match="R must be >= 1"):
            cauchy_renormalized(GridFunction.zeros(grid256), float("nan"), make_grid(256, 256, 2.0))


class TestReflect:
    def test_constant(self, grid256):
        z = grid256.nodes_z()
        R = reflect_transform(GridFunction.constant(grid256, 1.0))
        assert np.max(np.abs(R.values + z)) < 1e-13

    def test_zero(self, grid256):
        assert np.max(np.abs(reflect_transform(GridFunction.zeros(grid256)).values)) == 0.0

    def test_combination_imaginary_on_circle(self, grid256):
        z = grid256.nodes_z()
        one = GridFunction.constant(grid256, 1.0)
        comb = cauchy(one) + reflect_transform(one)
        assert np.max(np.abs(comb.values - (np.conj(z) - z))) < 1e-13
        assert np.max(np.abs(boundary_trace(comb).values.real)) < 1e-13

    def test_discrete_holomorphy_and_origin(self, grid256):
        # the defect is radial FD differentiation error on r^{k+1} profiles,
        # so the absolute 1e-8 bar calls for a moderate witness band
        rng = np.random.default_rng(3)
        beta = random_smooth_bandlimited(grid256, rng, grid256.n_theta // 16)
        R = reflect_transform(beta)
        _, dbar = wirtinger_derivatives(R)
        assert lp_norm_disk(dbar, 2.0, r_max=0.9) <= 1e-8
        # R(beta)(0) = 0: value at the innermost ring is O(r_1)
        assert np.max(np.abs(R.values[0])) < 0.05 * max(np.max(np.abs(R.values)), 1e-30) + 1e-12


class TestGreenPotential:
    def test_constant_source(self, grid256):
        z = grid256.nodes_z()
        P = green_potential(GridFunction.constant(grid256, 4.0))
        assert np.max(np.abs(P.values - (np.abs(z) ** 2 - 1))) < 1e-12

    def test_zero(self, grid256):
        assert np.max(np.abs(green_potential(GridFunction.zeros(grid256)).values)) == 0.0

    @pytest.mark.parametrize("k", [1, 7, 40, 120, -100])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_monomial_modes(self, grid256, j, k):
        """P(rho^j e^{ik theta}) = (r^{j+2} - r^|k|) / ((j+2)^2 - k^2) e^{ik theta}."""
        r = grid256.radii[:, None]
        phase = np.exp(1j * k * grid256.thetas[None, :])
        P = green_potential(GridFunction(grid256, r**j * phase))
        exact = (r ** (j + 2) - r ** abs(k)) / ((j + 2) ** 2 - k**2) * phase
        assert np.max(np.abs(P.values - exact)) < 1e-10 * np.max(np.abs(exact))

    def test_boundary_ring_exactly_zero(self, grid256):
        rng = np.random.default_rng(4)
        psi = random_smooth_bandlimited(grid256, rng, 32, real=True)
        P = green_potential(psi)
        assert np.max(np.abs(P.values[-1])) == 0.0

    def test_laplacian_identity(self, grid256):
        rng = np.random.default_rng(5)
        for _ in range(3):
            psi = random_smooth_bandlimited(grid256, rng, grid256.n_theta // 4, real=True)
            P = green_potential(psi)
            rel = lp_norm_disk(laplacian(P) - psi, 2.0, r_max=0.9) / lp_norm_disk(
                psi, 2.0, r_max=0.9
            )
            assert rel <= 1e-5

    def test_radial_bump_vs_ode_oracle(self, grid256):
        solve_banded = pytest.importorskip("scipy.linalg").solve_banded

        def psi_fn(rr):
            return np.exp(-(((rr - 0.4) / 0.15) ** 2))

        def radial_bvp_oracle(n):
            # node-centered second-order FD for (1/r)(r u')' = psi, u(1) = 0
            h = 1.0 / n
            ri = h * np.arange(n)
            main = np.zeros(n)
            lo = np.zeros(n)
            up = np.zeros(n)
            rhs = psi_fn(ri)
            main[0] = -4.0 / h**2
            up[1] = 4.0 / h**2
            for i in range(1, n):
                rm, rp = ri[i] - h / 2, ri[i] + h / 2
                lo[i - 1] = rm / (h**2 * ri[i])
                main[i] = -(rm + rp) / (h**2 * ri[i])
                if i + 1 < n:
                    up[i + 1] = rp / (h**2 * ri[i])
            ab = np.zeros((3, n))
            ab[0], ab[1], ab[2] = up, main, lo
            return solve_banded((1, 1), ab, rhs)

        psi = GridFunction(
            grid256, np.broadcast_to(psi_fn(grid256.radii)[:, None], (256, 256)).astype(complex)
        )
        P = green_potential(psi)
        n = 4096
        u = radial_bvp_oracle(n)
        step = n // 256
        oracle = np.array([0.0 if j * step == n else u[j * step] for j in range(1, 257)])
        assert np.max(np.abs(P.values[:, 0].real - oracle)) <= 1e-6


class TestPoissonAndConjugates:
    def test_harmonic_monomials(self, grid128):
        u = BoundaryFunction.from_function(256, lambda th: np.cos(3 * th))
        E = poisson_extend(u, grid128)
        r, th = grid128.radii[:, None], grid128.thetas[None, :]
        assert np.max(np.abs(E.values - r**3 * np.cos(3 * th))) < 1e-12

    def test_constant(self, grid128):
        E = poisson_extend(BoundaryFunction.from_function(256, lambda th: 1.0 + 0 * th), grid128)
        assert np.max(np.abs(E.values - 1)) < 1e-13

    def test_linearity(self, grid128):
        u = BoundaryFunction.from_function(256, lambda th: np.cos(th) + 3 * np.sin(2 * th))
        E = poisson_extend(u, grid128)
        r, th = grid128.radii[:, None], grid128.thetas[None, :]
        expected = r * np.cos(th) + 3 * r**2 * np.sin(2 * th)
        assert np.max(np.abs(E.values - expected)) < 1e-12

    def test_extension_restores_trace(self, grid128):
        u = BoundaryFunction.from_function(256, lambda th: np.exp(np.cos(th)))
        E = poisson_extend(u, grid128)
        assert np.max(np.abs(boundary_trace(E).values - u.values)) == 0.0

    def test_harmonic_conjugate_pairs(self, grid128):
        r, th = grid128.radii[:, None], grid128.thetas[None, :]
        u = GridFunction(grid128, (r**2 * np.cos(2 * th)).astype(complex))
        v = harmonic_conjugate(u)
        assert np.max(np.abs(v.values - r**2 * np.sin(2 * th))) < 1e-12
        const = harmonic_conjugate(GridFunction.constant(grid128, 1.0))
        assert np.max(np.abs(const.values)) < 1e-13
        u2 = GridFunction(grid128, (r * np.sin(th)).astype(complex))
        v2 = harmonic_conjugate(u2)
        assert np.max(np.abs(v2.values + r * np.cos(th))) < 1e-12

    @pytest.mark.parametrize("n", [1, 5, 33, 64])
    def test_conjugate_function_multiplier(self, n):
        psi = BoundaryFunction.from_function(256, lambda th: np.cos(n * th))
        tilde = conjugate_function(psi)
        th = 2 * np.pi * np.arange(256) / 256
        assert np.max(np.abs(tilde.values - np.sin(n * th))) < 1e-12

    def test_conjugate_of_constant(self):
        psi = BoundaryFunction.from_function(256, lambda th: 1.0 + 0 * th)
        assert np.max(np.abs(conjugate_function(psi).values)) < 1e-14

    def test_involution_on_zero_mean(self):
        rng = np.random.default_rng(6)
        vals = rng.standard_normal(256)
        vals -= vals.mean()
        psi = BoundaryFunction(vals.astype(complex))
        twice = conjugate_function(conjugate_function(psi))
        assert np.max(np.abs(twice.values + psi.values)) < 1e-13

    def test_characteristic_arc_vs_pv_oracle(self):
        # truncated principal-value quadrature of the conjugate integral
        N = 1024
        th = 2 * np.pi * np.arange(N) / N
        dth = 2 * np.pi / N
        a = round((np.pi / 3) / dth) * dth
        b = round((4 * np.pi / 3) / dth) * dth
        chi = BoundaryFunction(((th >= a) & (th < b)).astype(complex))
        tilde = conjugate_function(chi)

        def pv(k):
            diff = th[k] - th
            with np.errstate(divide="ignore"):
                ker = 1.0 / np.tan(diff / 2.0)
            ker[k] = 0.0
            return float(np.sum(chi.values.real * ker) * dth / (2 * np.pi))

        with np.errstate(divide="ignore"):
            closed = (1 / np.pi) * np.log(
                np.abs(np.sin((th - a) / 2) / np.sin((th - b) / 2))
            )
        for k in range(20, N, 97):
            if min(abs(th[k] - a), abs(th[k] - b)) < 0.2:
                continue
            assert abs(tilde.values[k].real - pv(k)) < 0.02
            assert abs(tilde.values[k].real - closed[k]) < 0.02


class TestSolveDbar:
    def test_holomorphic_case(self, grid256):
        z = grid256.nodes_z()
        A, res = solve_dbar(
            GridFunction.zeros(grid256), BoundaryFunction.from_function(256, np.cos), 0.0
        )
        assert np.max(np.abs(A.values - z)) < 1e-13
        assert res.dbar < 1e-8 and res.trace < 1e-12 and res.mean < 1e-12

    def test_constant_source(self, grid256):
        z = grid256.nodes_z()
        A, res = solve_dbar(GridFunction.constant(grid256, 1.0), BoundaryFunction.zeros(256), 0.0)
        assert np.max(np.abs(A.values - (np.conj(z) - z))) < 1e-13
        assert res.trace < 1e-12

    def test_pure_imaginary_mean(self, grid256):
        A, res = solve_dbar(GridFunction.zeros(grid256), BoundaryFunction.zeros(256), 2 * np.pi)
        assert np.max(np.abs(A.values - 1j)) < 1e-13
        assert res.mean < 1e-12

    def test_rotated_frame(self, grid256):
        # theta0 = -pi/2 prescribes Im-trace data instead
        z = grid256.nodes_z()
        psi = BoundaryFunction.from_function(256, np.sin)
        A, res = solve_dbar(GridFunction.zeros(grid256), psi, 0.0, theta0=-np.pi / 2)
        tr = boundary_trace(A * np.exp(-1j * np.pi / 2))
        assert np.max(np.abs(tr.values.real - np.sin(grid256.thetas))) < 1e-12

    def test_deterministic_and_holomorphic_output(self, grid256):
        rng = np.random.default_rng(7)
        a = random_smooth_bandlimited(grid256, rng, 16)
        psi = BoundaryFunction.from_function(256, lambda th: np.cos(2 * th))
        A1, _ = solve_dbar(a, psi, 0.5)
        A2, _ = solve_dbar(a, psi, 0.5)
        assert np.array_equal(A1.values, A2.values)
        A0, _ = solve_dbar(GridFunction.zeros(grid256), psi, 0.5)
        _, dbar = wirtinger_derivatives(A0)
        assert lp_norm_disk(dbar, 2.0, r_max=0.9) <= 1e-8

    def test_full_band_source(self):
        # content in every mode, source mode 1 - n_theta/2 (C's Nyquist
        # output) included: A is (C + R) of the rotated source plus the
        # Riesz shift, rotated back, and trace and mean hold at rounding
        grid = make_grid(64, 32)
        rng = np.random.default_rng(17)
        a = GridFunction(grid, rng.standard_normal((32, 64)) + 1j * rng.standard_normal((32, 64)))
        psi = BoundaryFunction(rng.standard_normal(64))
        lam, theta0 = 0.5, 0.7
        A, res = solve_dbar(a, psi, lam, theta0)
        assert res.trace <= 1e-12 and res.mean <= 1e-12
        rot = np.exp(1j * theta0)
        shift = riesz_extension(psi, grid).values + 1j * lam / (2 * np.pi)
        ref = np.conj(rot) * (cauchy_reflect(a * rot, 1.0).values + shift)
        assert np.max(np.abs(A.values - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_rejects_complex_psi(self, grid256):
        with pytest.raises(ValueError, match="real"):
            solve_dbar(
                GridFunction.zeros(grid256),
                BoundaryFunction.from_function(256, lambda th: np.exp(1j * th)),
                0.0,
            )


class TestPotentialConsistency:
    def test_green_map_equals_cauchy_reflect_combination(self, grid256):
        # P(4 Im d g) = Im[(C - R)(g)] ties the three kernels together
        z = grid256.nodes_z()
        g = GridFunction(grid256, 0.5 * np.exp(-2j * z.imag))
        dg, _ = wirtinger_derivatives(g)
        P = green_potential(GridFunction(grid256, 4.0 * dg.values.imag.astype(complex)))
        combo = cauchy(g) - reflect_transform(g)
        assert lp_norm_disk(P - GridFunction(grid256, combo.values.imag.astype(complex)), 2.0, r_max=0.9) < 1e-9


def seeded_field(grid, seed):
    """Smooth non-polynomial field with seeded coefficients."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    z = grid.nodes_z()
    return GridFunction(
        grid,
        a[0] * np.exp(-np.abs(z) ** 2) * np.cos(3.0 * z.real)
        + a[1] * np.sin(2.0 * z.imag) * np.conj(z)
        + a[2] / (2.0 - z)
        + a[3] * np.exp(np.conj(z)) * np.abs(z),
    )


class TestCauchyReflect:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_matches_separate_transforms(self, n, sign):
        grid = make_grid(n, n)
        beta = seeded_field(grid, n)
        ref = cauchy(beta).values + sign * reflect_transform(beta).values
        got = cauchy_reflect(beta, sign).values
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [64, 128])
    def test_boundary_identities_over_the_full_band(self, n):
        # C + R is pure imaginary and C - R real on T for a source with
        # content at every mode, 1 - n_theta/2 (C's Nyquist output) included
        grid = make_grid(n, n)
        rng = np.random.default_rng(n + 1)
        h = GridFunction(grid, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        bound = 1e-14 * np.max(np.abs(h.values))
        assert np.max(np.abs(cauchy_reflect(h, 1.0).values[-1].real)) <= bound
        assert np.max(np.abs(cauchy_reflect(h, -1.0).values[-1].imag)) <= bound

    @pytest.mark.parametrize("imaginary_on_T", [False, True])
    def test_masked_source_raises(self, grid128, imaginary_on_T):
        vals = seeded_field(grid128, 3).values.copy()
        vals[5, 7] = np.nan
        beta = GridFunction(grid128, vals)
        with pytest.raises(MaskedValueError):
            cauchy_reflect(beta, 1.0 if imaginary_on_T else -1.0)

    @pytest.mark.parametrize(
        "op",
        [
            cauchy,
            beurling,
            reflect_transform,
            green_potential,
            lambda h: cauchy_renormalized(h, 2.0),
            lambda h: cauchy_reflect(h, -1.0),
        ],
        ids=["cauchy", "beurling", "reflect", "green", "renormalized", "cauchy_reflect"],
    )
    def test_outputs_c_contiguous(self, grid128, op):
        assert op(seeded_field(grid128, 4)).values.flags.c_contiguous


class TestModeRepresentation:
    def test_nodal_modal_round_trip(self, grid128):
        # the per-mode radial profiles are the transforms' working form;
        # the round trip must be lossless
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((128, 256)) + 1j * rng.standard_normal((128, 256))
        f = GridFunction(grid128, vals)
        modes = np.fft.fft(f.values, axis=1) / grid128.n_theta
        back = np.fft.ifft(modes * grid128.n_theta, axis=1)
        assert np.max(np.abs(back - vals)) < 1e-12

    def test_poisson_after_trace_fixes_harmonics(self, grid128):
        u = poisson_extend(
            BoundaryFunction.from_function(256, lambda th: np.cos(th) - 2 * np.sin(3 * th)),
            grid128,
        )
        again = poisson_extend(boundary_trace(u), grid128)
        assert np.max(np.abs(again.values - u.values)) < 1e-13

    def test_harmonicity_defect(self, grid128):
        from phdisk import harmonicity_defect

        u = poisson_extend(BoundaryFunction.from_function(256, np.cos), grid128)
        assert harmonicity_defect(u) < 1e-13
        z = grid128.nodes_z()
        bad = GridFunction(grid128, (np.abs(z) ** 2).astype(complex))
        assert harmonicity_defect(bad) > 0.1
