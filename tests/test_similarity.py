import numpy as np
import pytest
from helpers import random_smooth_bandlimited

from phdisk import (
    GridFunction,
    MaskedValueError,
    alpha_from_pair,
    boundary_trace,
    cauchy,
    factorize,
    lp_norm_disk,
    make_grid,
    reconstruct,
    residual_beltrami,
    w12_norm,
    wirtinger_derivatives,
)
from phdisk.similarity import beltrami_ratio


@pytest.fixture(scope="module")
def exp_pair(grid256):
    z = grid256.nodes_z()
    w = GridFunction(grid256, np.exp(z.real))
    alpha = GridFunction.constant(grid256, 0.5)
    return z, w, alpha


class TestFactorize:
    def test_real_normalization(self, grid256, exp_pair):
        z, w, alpha = exp_pair
        fac = factorize(w, alpha, "real_on_T")
        assert np.max(np.abs(fac.s.values - z.real)) < 1e-12
        assert np.max(np.abs(fac.F.values - 1.0)) < 1e-12
        assert fac.residual_holo < 1e-6
        assert fac.residual_beltrami < 1e-6

    def test_imaginary_normalization(self, grid256, exp_pair):
        z, w, alpha = exp_pair
        fac = factorize(w, alpha, "imaginary_on_T")
        assert np.max(np.abs(fac.s.values + 1j * z.imag)) < 1e-12
        assert np.max(np.abs(fac.F.values - np.exp(z))) < 1e-12

    def test_normalization_invariants(self, grid256, exp_pair):
        z, w, alpha = exp_pair
        fr = factorize(w, alpha, "real_on_T")
        tr = boundary_trace(fr.s)
        assert np.max(np.abs(tr.values.imag)) <= 1e-8
        assert abs(tr.integral().real) <= 1e-8
        fi = factorize(w, alpha, "imaginary_on_T")
        tri = boundary_trace(fi.s)
        assert np.max(np.abs(tri.values.real)) <= 1e-8
        assert abs(tri.integral().imag) <= 1e-8

    def test_boundary_modulus_imaginary_case(self, grid256):
        # |w_T| = |F^i_T| pointwise for the imaginary normalization
        rng = np.random.default_rng(10)
        s = random_smooth_bandlimited(grid256, rng, 8) * 0.3
        F = GridFunction(grid256, 1.0 + 0.4 * grid256.nodes_z())
        w = reconstruct(s, F)
        alpha = alpha_from_pair(s, F)
        fac = factorize(w, alpha, "imaginary_on_T")
        wT = np.abs(boundary_trace(w).values)
        FT = np.abs(boundary_trace(fac.F).values)
        assert np.max(np.abs(wT - FT)) <= 1e-8 * np.max(wT)

    def test_degenerate_zero_input(self, grid256):
        fac = factorize(GridFunction.zeros(grid256), GridFunction.constant(grid256, 0.5))
        assert np.max(np.abs(fac.F.values)) == 0.0
        assert fac.s.mask is not None

    def test_sum_of_normalizations(self, grid256, exp_pair):
        # s^r + s^i = 2 C(beta)
        z, w, alpha = exp_pair
        beta = beltrami_ratio(w, alpha)
        fr = factorize(w, alpha, "real_on_T")
        fi = factorize(w, alpha, "imaginary_on_T")
        twice = 2.0 * cauchy(beta).values
        assert np.max(np.abs(fr.s.values + fi.s.values - twice)) <= 1e-8

    @pytest.mark.parametrize("normalization", ["real_on_T", "imaginary_on_T"])
    def test_dbar_s_equals_beta(self, grid256, normalization):
        rng = np.random.default_rng(11)
        s0 = random_smooth_bandlimited(grid256, rng, 8) * 0.3
        F0 = GridFunction.constant(grid256, 1.0)
        w = reconstruct(s0, F0)
        alpha = alpha_from_pair(s0, F0)
        fac = factorize(w, alpha, normalization)
        beta = beltrami_ratio(w, alpha)
        _, dbar_s = wirtinger_derivatives(fac.s)
        assert lp_norm_disk(dbar_s - beta, 2.0, r_max=0.9) <= 1e-6

    def test_round_trip(self, grid256):
        rng = np.random.default_rng(12)
        for norm in ("real_on_T", "imaginary_on_T"):
            s0 = random_smooth_bandlimited(grid256, rng, 8) * 0.2
            F0 = GridFunction(grid256, 1.0 + 0.3 * grid256.nodes_z() ** 2)
            w = reconstruct(s0, F0)
            alpha = alpha_from_pair(s0, F0)
            base = residual_beltrami(w, alpha)
            fac = factorize(w, alpha, norm)
            again = residual_beltrami(reconstruct(fac.s, fac.F), alpha)
            assert again <= 2.0 * base + 1e-6

    def test_rejects_unknown_normalization(self, grid256):
        with pytest.raises(ValueError, match="normalization"):
            factorize(GridFunction.zeros(grid256), GridFunction.zeros(grid256), "sideways")


class TestBeltramiRatio:
    @staticmethod
    def _reference(wv, av, thr):
        # the quotient form: alpha conj(w)/w, zero where |w| <= thr
        with np.errstate(invalid="ignore", divide="ignore"):
            phase = np.where(np.abs(wv) <= thr, 0.0, np.conj(wv) / np.where(wv == 0, 1.0, wv))
        return av * phase

    def test_matches_quotient_form(self, grid128):
        rng = np.random.default_rng(13)
        shape = (grid128.n_r, grid128.n_theta)
        wv = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        wv[3, 4], wv[5, 6], wv[7, 8] = 0.0, 1e-14, 1e-11
        av = 0.5 + 0.2j * rng.standard_normal(shape)
        w, alpha = GridFunction(grid128, wv), GridFunction(grid128, av)
        thr = 1e-12 * np.max(np.abs(wv))
        beta = beltrami_ratio(w, alpha).values
        ref = self._reference(wv, av, thr)
        assert np.max(np.abs(beta - ref)) <= 1e-15 * np.max(np.abs(ref))
        assert np.all(beta[np.abs(wv) <= thr] == 0.0)
        assert beta[7, 8] != 0.0

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-300], ids=lambda scale: f"relative-{scale}")
    def test_scale_free(self, grid128, scale):
        # |w|^2 overflows above about 1.3e154 and underflows below about
        # 1e-154 while conj(w)/w stays defined; the threshold scales with w
        rng = np.random.default_rng(14)
        shape = (grid128.n_r, grid128.n_theta)
        wv = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        alpha = GridFunction.constant(grid128, 0.5)
        beta = beltrami_ratio(GridFunction(grid128, wv), alpha).values
        scaled = beltrami_ratio(GridFunction(grid128, scale * wv), alpha).values
        assert np.max(np.abs(scaled - beta)) <= 1e-15

    def test_tiny_nodes_under_zero_threshold(self, grid128):
        # the threshold is relative: among O(1) nodes, w = 0, a node of
        # 1e-200 and a subnormal node are zeroed; in a field of 1e-300
        # nodes, which is all tiny, a subnormal node keeps its phase
        rng = np.random.default_rng(15)
        shape = (grid128.n_r, grid128.n_theta)
        wv = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        wv[1, 2], wv[3, 4], wv[5, 6] = 0.0, (1 - 2j) * 1e-200, -5e-320j
        alpha = GridFunction.constant(grid128, 0.5)
        beta = beltrami_ratio(GridFunction(grid128, wv), alpha).values
        assert np.all(np.isfinite(beta))
        assert beta[1, 2] == beta[3, 4] == beta[5, 6] == 0.0
        assert np.count_nonzero(beta) == beta.size - 3
        tiny = np.full(shape, 1e-300 * (1 - 2j))
        tiny[5, 6] = -1e-310j
        beta = beltrami_ratio(GridFunction(grid128, tiny), alpha).values
        assert beta[3, 4] == pytest.approx(0.5 * (1 + 2j) / (1 - 2j), abs=1e-15)
        assert beta[5, 6] == pytest.approx(-0.5, abs=1e-15)

    @pytest.mark.parametrize("fn", [beltrami_ratio, factorize, alpha_from_pair], ids=lambda fn: fn.__name__)
    def test_zero_threshold_is_not_a_keyword(self, grid128, fn):
        # one zero convention, 1e-12 max|w|; the keyword that chose another is gone
        one = GridFunction.constant(grid128, 1.0)
        with pytest.raises(TypeError, match="unexpected keyword argument 'zero_threshold'"):
            fn(one, one, zero_threshold=None)

    def test_masked_w_raises(self, grid128):
        vals = np.ones((grid128.n_r, grid128.n_theta), dtype=complex)
        vals[2, 3] = np.inf
        with pytest.raises(MaskedValueError):
            beltrami_ratio(GridFunction(grid128, vals), GridFunction.constant(grid128, 0.5))


class TestReconstruct:
    def test_zero_exponent(self, grid256):
        F = GridFunction(grid256, grid256.nodes_z())
        out = reconstruct(GridFunction.zeros(grid256), F)
        assert np.array_equal(out.values, F.values)

    def test_real_exponent(self, grid256):
        z = grid256.nodes_z()
        out = reconstruct(GridFunction(grid256, z.real.astype(complex)), GridFunction.constant(grid256, 1.0))
        assert np.max(np.abs(out.values - np.exp(z.real))) < 1e-14

    def test_unimodular_field(self, grid256):
        z = grid256.nodes_z()
        out = reconstruct(GridFunction(grid256, 1j * z.imag), GridFunction.constant(grid256, 1.0))
        assert np.max(np.abs(np.abs(out.values) - 1.0)) < 1e-14

    def test_mask_propagates_from_overflow(self, grid256):
        vals = np.zeros((grid256.n_r, grid256.n_theta), dtype=complex)
        vals[5, 5] = 1e9  # exp overflow at one node
        out = reconstruct(GridFunction(grid256, vals), GridFunction.constant(grid256, 1.0))
        assert out.mask is not None and out.mask[5, 5]


class TestResidualBeltrami:
    def test_exact_pair_small(self, grid256, exp_pair):
        _, w, alpha = exp_pair
        assert residual_beltrami(w, alpha) <= 1e-6

    def test_holomorphic_zero_alpha(self, grid256):
        z = grid256.nodes_z()
        assert residual_beltrami(GridFunction(grid256, z), GridFunction.zeros(grid256)) <= 1e-10

    def test_antiholomorphic_defect(self, grid256):
        z = grid256.nodes_z()
        res = residual_beltrami(GridFunction(grid256, np.conj(z)), GridFunction.zeros(grid256))
        # dbar zbar = 1; interior norm just below ||1||_{L^2(D_0.9)}
        assert abs(res - np.sqrt(0.81 * np.pi)) < 0.02

    def test_equals_the_whole_grid_formula(self):
        # formed on the rows of D_0.9 only, the residual of a pair far from
        # a solution is the norm of the whole-grid defect to rounding
        g = make_grid(64, 64)
        z = g.nodes_z()
        w = GridFunction(g, np.exp(z.real - 0.5j * z.imag) + np.cos(2.0 * z.imag) * np.conj(z) ** 3)
        alpha = GridFunction(g, 0.5 + 0.3j * z**2)
        defect = wirtinger_derivatives(w)[1].values - alpha.values * np.conj(w.values)
        expected = lp_norm_disk(GridFunction(g, defect), 2.0, r_max=0.9)
        assert abs(residual_beltrami(w, alpha) - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("other", [(64, 64, 2.0), (32, 64, 1.0)], ids=["outer-radius-2", "64x32"])
    def test_operands_on_different_grids(self, other):
        # against the 64^2 unit grid: a 64^2 grid of outer radius 2, whose
        # values were read as if on the unit grid, and a (64, 32) grid,
        # which met a bare broadcast error
        g, h = make_grid(64, 64), make_grid(*other)
        w = GridFunction(g, np.exp(g.nodes_z().real))
        with pytest.raises(ValueError, match="grid mismatch between operands"):
            residual_beltrami(w, GridFunction.constant(h, 0.5))


class TestAlphaFromPair:
    def test_real_exponent(self, grid256):
        z = grid256.nodes_z()
        a = alpha_from_pair(GridFunction(grid256, z.real.astype(complex)), GridFunction.constant(grid256, 1.0))
        assert np.max(np.abs(a.values - 0.5)) < 1e-10

    def test_imaginary_exponent(self, grid256):
        z = grid256.nodes_z()
        a = alpha_from_pair(GridFunction(grid256, 1j * z.imag), GridFunction.constant(grid256, 1.0))
        assert np.max(np.abs(a.values + 0.5 * np.exp(2j * z.imag))) < 1e-10

    def test_zero_s(self, grid256):
        a = alpha_from_pair(GridFunction.zeros(grid256), GridFunction(grid256, grid256.nodes_z()))
        assert np.max(np.abs(a.values)) < 1e-12

    def test_rejects_zero_F(self, grid256):
        with pytest.raises(ValueError, match="identically zero"):
            alpha_from_pair(GridFunction.zeros(grid256), GridFunction.zeros(grid256))

    def test_threshold_zeroes_quotient(self, grid256):
        # F = z - z_k vanishes at the grid node z_k: F/conj(F) is taken as 0
        # there, and the quotient dbar s e^{2i Im s} F/conj(F) elsewhere
        z = grid256.nodes_z()
        F = GridFunction(grid256, z - z[40, 7])
        assert F.values[40, 7] == 0.0
        a = alpha_from_pair(GridFunction(grid256, z.real.astype(complex)), F)
        assert a.values[40, 7] == 0.0
        away = np.ones(z.shape, bool)
        away[40, 7] = False
        Fa = F.values[away]
        assert np.max(np.abs(a.values[away] - 0.5 * Fa / np.conj(Fa))) < 1e-10
