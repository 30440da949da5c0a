import numpy as np
import pytest
from helpers import random_smooth_bandlimited

from phdisk import (
    ArcFamily,
    BoundaryFunction,
    GridFunction,
    MaskedValueError,
    SolverConfig,
    ap_constant,
    area_integral,
    bmo_oscillation,
    boundary_sobolev_seminorm,
    boundary_trace,
    c2_growth_curve,
    conjugate_function,
    equicontinuity_modulus,
    exp_integrability_report,
    jn_exp_check,
    localized_oscillation_sup,
    lp_norm_disk,
    make_grid,
    multiplier_ratio,
    poisson_extend,
    solve_riesz,
    trace_convergence,
    w12_norm,
)
from phdisk import diagnostics
from phdisk.radial import RadialEngine

FAMILY = ArcFamily(6)


def random_boundary(rng, n=256, modes=8, offset=0.0):
    coef = rng.standard_normal(modes) * np.exp(-0.3 * np.arange(modes))
    ph = rng.uniform(0, 2 * np.pi, modes)
    th = 2 * np.pi * np.arange(n) / n
    vals = offset + sum(coef[k] * np.cos((k + 1) * th + ph[k]) for k in range(modes))
    return BoundaryFunction(vals.astype(complex))


class TestBmo:
    def test_constant_has_zero_oscillation(self):
        h = BoundaryFunction.from_function(256, lambda th: 3.0 + 0 * th)
        sem, table = bmo_oscillation(h, FAMILY)
        assert sem == 0.0
        assert all(v == 0.0 for v in table.values())

    def test_jump_on_straddling_arc(self):
        # the full circle straddles the semicircle jump half-and-half
        h = BoundaryFunction.from_function(256, lambda th: (th < np.pi).astype(complex))
        sem, table = bmo_oscillation(h, FAMILY)
        assert abs(table[(0, 0)] - 0.5) < 1e-14
        assert abs(sem - 0.5) < 1e-14

    def test_cosine_vs_fine_quadrature_oracle(self):
        h = BoundaryFunction.from_function(256, np.cos)
        sem, table = bmo_oscillation(h, FAMILY)
        h4 = BoundaryFunction.from_function(1024, np.cos)
        _, table4 = bmo_oscillation(h4, FAMILY)
        assert abs(table[(0, 0)] - table4[(0, 0)]) < 1e-3

    def test_localized_sup_monotone_in_arc(self):
        rng = np.random.default_rng(30)
        h = random_boundary(rng)
        fam = ArcFamily(5)
        for level in range(1, 5):
            for m in range(1 << level):
                inner = localized_oscillation_sup(h, fam, level, m)
                outer = localized_oscillation_sup(h, fam, level - 1, m // 2)
                assert inner <= outer + 1e-15


class TestApConstant:
    def test_constant_weight_is_one(self):
        w = BoundaryFunction.from_function(256, lambda th: 2.0 + 0 * th)
        assert ap_constant(w, 2.0, FAMILY) == 1.0
        # fractional exponents cancel only up to power-function roundoff
        assert abs(ap_constant(w, 3.5, FAMILY) - 1.0) < 1e-12

    def test_exponential_weight_vs_fine_oracle(self):
        w = BoundaryFunction.from_function(256, lambda th: np.exp(np.cos(th)))
        val = ap_constant(w, 2.0, FAMILY)
        w4 = BoundaryFunction.from_function(1024, lambda th: np.exp(np.cos(th)))
        fine = ap_constant(w4, 2.0, ArcFamily(8))
        assert val >= 1.0
        assert abs(val - fine) <= 0.02 * fine

    def test_vanishing_type_weight_finite(self):
        # |e^{i theta} - z0| with the zero between nodes at both resolutions
        z0 = np.exp(1j * 2 * np.pi * 0.37 / 256)
        w = BoundaryFunction.from_function(256, lambda th: np.abs(np.exp(1j * th) - z0))
        val = ap_constant(w, 2.0, FAMILY)
        w4 = BoundaryFunction.from_function(1024, lambda th: np.abs(np.exp(1j * th) - z0))
        fine = ap_constant(w4, 2.0, ArcFamily(8))
        assert np.isfinite(val)
        assert val <= 2.0 * fine and fine <= 2.0 * val

    def test_translation_invariance(self):
        rng = np.random.default_rng(31)
        h = random_boundary(rng)
        w1 = BoundaryFunction(np.exp(h.values.real))
        w2 = BoundaryFunction(np.exp(h.values.real + 2.7))
        assert ap_constant(w1, 2.0, FAMILY) == ap_constant(w2, 2.0, FAMILY)

    def test_duality(self):
        rng = np.random.default_rng(32)
        w = BoundaryFunction(np.exp(random_boundary(rng).values.real))
        p = 2.6
        lhs = ap_constant(w, p, FAMILY)
        dual = BoundaryFunction(w.values.real ** (-1.0 / (p - 1.0)))
        rhs = ap_constant(dual, p / (p - 1.0), FAMILY) ** (p - 1.0)
        assert abs(lhs - rhs) <= 1e-10 * lhs

    def test_rejects_nonpositive(self):
        vals = np.ones(256)
        vals[0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            ap_constant(BoundaryFunction(vals.astype(complex)), 2.0, FAMILY)

    @pytest.mark.parametrize("p", [1.0, 0.5, np.nan, np.inf])
    def test_rejects_p_not_finite_above_one(self, p):
        # NaN used to return NaN and inf the largest arc mean of w (2.918 here)
        w = BoundaryFunction(np.exp(np.cos(2 * np.pi * np.arange(256) / 256)).astype(complex))
        with pytest.raises(ValueError, match=f"p must be finite and exceed 1 \\(got {p!r}\\)"):
            ap_constant(w, p, FAMILY)


class TestJohnNirenberg:
    def test_small_cosine_full_circle(self):
        h = BoundaryFunction.from_function(256, lambda th: 0.1 * np.cos(th))
        rep = jn_exp_check(h, (0.0, 2 * np.pi))
        assert rep.satisfied[0]

    def test_mixed_harmonics_semicircle(self):
        h = BoundaryFunction.from_function(256, lambda th: np.cos(th) + 2 * np.sin(3 * th))
        rep = jn_exp_check(h, (0.0, np.pi))
        assert rep.satisfied[0]

    def test_constant_raises(self):
        h = BoundaryFunction.from_function(256, lambda th: 1.0 + 0 * th)
        with pytest.raises(ValueError, match="constant"):
            jn_exp_check(h, (0.0, np.pi))

    @pytest.mark.parametrize(
        "arc", [(0.04, np.pi + 0.04), (0.0, np.pi + 1e-9), (np.nan, np.pi), (0.0, np.inf)],
        ids=["shifted", "end-off-by-1e-9", "nan", "inf"],
    )
    def test_off_grid_end_raises(self, arc):
        # (0.04, pi + 0.04) used to be rounded to (0, pi) on 64 angles
        h = BoundaryFunction.from_function(64, np.cos)
        with pytest.raises(ValueError, match="not grid angles"):
            jn_exp_check(h, arc)

    def test_grid_ends_within_tolerance_are_read(self):
        h = BoundaryFunction.from_function(64, np.cos)
        rep = jn_exp_check(h, (1e-13, np.pi - 1e-13))
        assert rep.details["arc_length"] == jn_exp_check(h, (0.0, np.pi)).details["arc_length"]

    @pytest.mark.parametrize("arc", [(0.0, 4 * np.pi), (-np.pi, 3 * np.pi)], ids=["4pi", "shifted-4pi"])
    def test_arc_longer_than_circle_raises(self, arc):
        # (0, 4 pi) used to report arc_length 4 pi
        h = BoundaryFunction.from_function(64, np.cos)
        with pytest.raises(ValueError, match="node count of at most 64"):
            jn_exp_check(h, arc)

    def test_random_family_slack_zero(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            h = random_boundary(rng)
            for arc in ((0.0, 2 * np.pi), (np.pi / 2, np.pi), (0.0, np.pi / 4)):
                assert jn_exp_check(h, arc).satisfied[0]


# The per-arc loops that the dyadic-arc kernel replaced, kept as its reference.


def _ref_arc(v, level, m):
    count = v.size >> level
    return v[m * count : (m + 1) * count]


def _ref_oscillation(vals):
    mean = np.mean(vals)
    return float(np.mean(np.abs(vals - mean)))


def _ref_arcs(family):
    return [(level, m) for level in range(family.max_level + 1) for m in range(1 << level)]


def ref_bmo_table(h, family):
    return {(k, m): _ref_oscillation(_ref_arc(h.values, k, m)) for k, m in _ref_arcs(family)}


def ref_localized_sup(h, family, level, m):
    best = 0.0
    for k in range(level, family.max_level + 1):
        for mm in range(m << (k - level), (m + 1) << (k - level)):
            best = max(best, _ref_oscillation(_ref_arc(h.values, k, mm)))
    return best


def ref_ap_constant(weight, p, family):
    w = weight.values.real
    winv = w ** (-1.0 / (p - 1.0))
    best = 0.0
    for k, m in _ref_arcs(family):
        ratio = np.mean(_ref_arc(w, k, m)) * np.mean(_ref_arc(winv, k, m)) ** (p - 1.0)
        best = max(best, float(ratio))
    return best


def ref_jn_M(h, arc):
    dtheta = 2.0 * np.pi / h.n_theta
    i0, i1 = int(round(arc[0] / dtheta)), int(round(arc[1] / dtheta))
    vals = np.take(h.values.real, np.arange(i0, i1), mode="wrap")
    M, level_count = 0.0, i1 - i0
    while level_count >= 1:
        blocks = vals.reshape(-1, level_count)
        means = blocks.mean(axis=1)
        M = max(M, float(np.max(np.mean(np.abs(blocks - means[:, None]), axis=1))))
        level_count //= 2
    return M


class TestArcKernelAgainstLoops:
    """The vectorized dyadic-arc kernel equals the per-arc loops exactly."""

    @staticmethod
    def cases(n, seed):
        rng = np.random.default_rng(seed)
        real = random_boundary(rng, n=n, modes=12)
        rough = BoundaryFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        families = (ArcFamily(0), ArcFamily(5), ArcFamily(n.bit_length() - 1))
        return real, rough, families

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_bmo_table(self, n):
        real, rough, families = self.cases(n, 40 + n)
        for h in (real, rough):
            for fam in families:
                sem, table = bmo_oscillation(h, fam)
                ref = ref_bmo_table(h, fam)
                assert list(table) == list(ref)
                assert table == ref
                assert sem == max(ref.values())

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_localized_sup(self, n):
        real, rough, families = self.cases(n, 41 + n)
        for h in (real, rough):
            for fam in families[1:]:
                for level in range(3):
                    for m in range(1 << level):
                        got = localized_oscillation_sup(h, fam, level, m)
                        assert got == ref_localized_sup(h, fam, level, m)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.5])
    def test_ap_constant(self, n, p):
        real, rough, families = self.cases(n, 42 + n)
        for v in (real.values.real, rough.values.real):
            w = BoundaryFunction(np.exp(v))
            for fam in families:
                assert ap_constant(w, p, fam) == ref_ap_constant(w, p, fam)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_jn_oscillation_sup(self, n):
        real, rough, _ = self.cases(n, 43 + n)
        for h in (real, rough):
            for arc in ((0, 2 * np.pi), (np.pi / 2, np.pi), (0, np.pi / 4), (1.5 * np.pi, 2.5 * np.pi)):
                assert jn_exp_check(h, arc).details["M_h"] == ref_jn_M(h, arc)

    def test_family_deeper_than_resolution_raises(self):
        # the old per-arc loop of ap_constant took means of empty slices
        # here, warned, and returned the ArcFamily(3) value
        rng = np.random.default_rng(44)
        h = BoundaryFunction(rng.standard_normal(8))
        w = BoundaryFunction(np.exp(h.values.real))
        for call in (
            lambda: ap_constant(w, 2.0, ArcFamily(5)),
            lambda: bmo_oscillation(h, ArcFamily(5)),
            lambda: localized_oscillation_sup(h, ArcFamily(5), 0, 0),
        ):
            with pytest.raises(ValueError, match="deeper than the boundary resolution"):
                call()

    def test_arc_outside_family_raises(self):
        h = random_boundary(np.random.default_rng(45))
        for level, m in ((6, 0), (-1, 0), (2, 4), (2, -1)):
            with pytest.raises(ValueError, match="not in the family"):
                localized_oscillation_sup(h, ArcFamily(5), level, m)


class TestExpIntegrability:
    def test_zero_field(self, grid128):
        rep = exp_integrability_report(GridFunction.zeros(grid128), ells=(1.0, 2.0))
        for detail in rep.details.values():
            assert np.allclose(detail["log_integrals"], np.log(np.pi))
        assert all(rep.satisfied)

    def test_separable_oracle(self, grid256):
        quad = pytest.importorskip("scipy.integrate").quad

        z = grid256.nodes_z()
        f = GridFunction(grid256, z.real.astype(complex))
        rep = exp_integrability_report(f, ells=(2.0,))
        ours = area_integral(GridFunction(grid256, np.exp(2 * np.abs(z.real)))).real
        oracle = quad(lambda x: np.exp(2 * abs(x)) * 2 * np.sqrt(1 - x * x), -1, 1, limit=200)[0]
        assert abs(ours - oracle) <= 1e-4 * oracle
        assert all(rep.satisfied)

    def test_loglog_family_finite(self, grid256):
        # the pole sits between angular nodes so every sample is finite
        quad = pytest.importorskip("scipy.integrate").quad

        z0 = np.exp(1j * np.pi / 256)
        f = GridFunction.from_function(grid256, lambda z: np.log(np.log(3.0 / np.abs(z - z0))))
        assert f.mask is None
        rep = exp_integrability_report(f, ells=(1.0, 2.0))
        assert all(np.isfinite(v) for d in rep.details.values() for v in d["log_integrals"])
        assert all(rep.satisfied)
        ours = area_integral(GridFunction(grid256, np.exp(np.abs(f.values.real)))).real
        # level sets of |z - z0| are circular arcs of length 2 t arccos(t/2)
        oracle = quad(
            lambda t: np.exp(np.abs(np.log(np.log(3.0 / t))))
            * 2.0 * t * np.arccos(np.clip(t / 2, -1, 1)),
            1e-9,
            2.0,
            points=[3.0 / np.e],
            limit=400,
        )[0]
        assert abs(ours - oracle) <= 1e-3 * oracle

    def test_singular_node_raises(self, grid256):
        f = GridFunction.from_function(grid256, lambda z: np.log(np.log(3.0 / np.abs(z - 1.0))))
        assert f.mask is not None
        with pytest.raises(MaskedValueError):
            exp_integrability_report(f, ells=(1.0,))

    def test_overflow_advice(self, grid128):
        f = GridFunction.constant(grid128, 300.0)
        with pytest.raises(MaskedValueError, match="lambda range"):
            exp_integrability_report(f, ells=(3.0,))

    @pytest.mark.parametrize("ell", [0.0, -2.0, np.nan, np.inf, -np.inf])
    def test_rejects_ell_not_finite_positive(self, grid128, ell):
        # 0 used to report slope -5e-18 and satisfied; nan and +-inf raised
        # "area integral over masked nodes is not defined"
        f = GridFunction(grid128, grid128.nodes_z().real.astype(complex))
        with pytest.raises(ValueError, match=f"ell {ell!r} must be finite and positive"):
            exp_integrability_report(f, ells=(1.0, ell))


class TestEquicontinuity:
    def test_zero_field(self, grid128):
        rep = equicontinuity_modulus(GridFunction.zeros(grid128))
        assert all(m == 0.0 for m in rep.measured)

    def test_characteristic_function_modulus_shrinks(self, grid128):
        rep = equicontinuity_modulus(GridFunction.constant(grid128, 1.0), (0.5, 0.25, 0.125, 0.0625))
        assert all(np.diff(rep.measured) < 0)

    def test_concentrated_bump_localizes(self, grid128):
        z = grid128.nodes_z()
        bump = np.exp(-(np.abs(z - 0.5) ** 2) / 0.01).astype(complex)
        f = GridFunction(grid128, bump)
        f = f * (1.0 / lp_norm_disk(f, 2.0))
        rep = equicontinuity_modulus(f, (0.25,))
        # compare the max local derivative mass near the bump with the far field
        from phdisk import cauchy, wirtinger_derivatives

        d, dbar = wirtinger_derivatives(cauchy(f))
        wts = grid128.area_weights()
        near = np.abs(z - 0.5) < 0.125
        far = np.abs(z + 0.5) < 0.125
        m_near = np.sqrt(np.sum((np.abs(d.values) ** 2 + np.abs(dbar.values) ** 2)[near] * wts[near]))
        m_far = np.sqrt(np.sum((np.abs(d.values) ** 2 + np.abs(dbar.values) ** 2)[far] * wts[far]))
        assert m_near >= 10 * m_far

    @pytest.mark.parametrize("side", [0.0, -0.5, np.nan, np.inf])
    def test_rejects_side_not_finite_positive(self, grid128, side):
        # 0 used to raise ZeroDivisionError, -0.5 "negative dimensions"
        beta = GridFunction(grid128, grid128.nodes_z())
        with pytest.raises(ValueError, match=f"side length {side!r} must be finite and positive"):
            equicontinuity_modulus(beta, (0.5, side))

    @pytest.mark.parametrize("side", [3.0, 4.0, 8.0])
    def test_large_side_measures_whole_disk(self, side):
        # 8 used to raise "zero-size array": one bin a side leaves no 2x2 block
        g = make_grid(64, 64)
        rep = equicontinuity_modulus(GridFunction(g, g.nodes_z()), (side,))
        # beta = z: ||d C|| = ||dbar C|| = ||z||_{L^2(D)} = sqrt(pi/2)
        assert abs(rep.measured[0] - np.sqrt(2.0 * np.pi)) < 1e-12


class TestC2Growth:
    def test_characteristic_closed_form(self, grid256):
        one = GridFunction.constant(grid256, 1.0)
        rep = c2_growth_curve(one, (1.0, 10.0, 100.0))
        for R, m in zip((1.0, 10.0, 100.0), rep.measured):
            exact = np.sqrt(np.pi / 2 + 2 * np.pi * np.log(R)) / (
                R * (1 + np.sqrt(np.log(R))) * np.sqrt(np.pi)
            )
            assert abs(m - exact) <= 5e-3 * exact
        assert all(rep.satisfied)

    def test_zero(self, grid128):
        rep = c2_growth_curve(GridFunction.zeros(grid128), (1.0, 2.0))
        assert all(m == 0.0 for m in rep.measured)

    def test_rejects_small_radius(self, grid128):
        with pytest.raises(ValueError):
            c2_growth_curve(GridFunction.constant(grid128, 1.0), (0.5,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_radius(self, bad):
        # these used to raise numpy's "cannot convert float NaN to integer"
        # and an OverflowError from the grid size int(n_r R)
        with pytest.raises(ValueError, match="radii must be finite"):
            c2_growth_curve(GridFunction.constant(make_grid(16, 8), 1.0), [1.0, bad])


class TestMultiplier:
    def test_zero_exponent_contraction(self, grid128):
        g = poisson_extend(BoundaryFunction.from_function(256, np.cos), grid128)
        rep = multiplier_ratio(GridFunction.zeros(grid128), g, 2.0, np.pi / 4)
        assert rep.measured[0] <= 1.0

    def test_w120_sample_stable_under_refinement(self):
        vals = []
        for n_r in (128, 256):
            g = make_grid(256, n_r)
            z = g.nodes_z()
            f = GridFunction(g, ((1 - np.abs(z) ** 2) * z.real).astype(complex))
            rep = multiplier_ratio(f, GridFunction.constant(g, 1.0), 2.0, np.pi / 4)
            vals.append(rep.measured[0])
        assert abs(vals[1] - vals[0]) <= 0.05 * vals[0]

    def test_scaling_family_grows_but_finite(self, grid128):
        z = grid128.nodes_z()
        ratios = []
        for lam in (1.0, 2.0, 4.0):
            f = GridFunction(grid128, (lam * (1 - np.abs(z) ** 2)).astype(complex))
            rep = multiplier_ratio(f, GridFunction.constant(grid128, 1.0), 2.0, np.pi / 4)
            ratios.append(rep.measured[0])
        assert ratios[0] < ratios[1] < ratios[2]
        assert np.isfinite(ratios).all()

    def test_rejects_nonzero_trace(self, grid128):
        f = GridFunction.constant(grid128, 1.0)
        with pytest.raises(ValueError, match="trace"):
            multiplier_ratio(f, GridFunction.constant(grid128, 1.0), 2.0, np.pi / 4)


UNIT_DISK_DIAGNOSTICS = {
    "trace_convergence": lambda w: trace_convergence(w, 2.0),
    "multiplier_ratio": lambda w: multiplier_ratio(w * 0.0, w, 2.0, np.pi / 4),
    "multiplier_ratio-g": lambda w: multiplier_ratio(GridFunction.zeros(make_grid(64, 64)), w, 2.0, np.pi / 4),
    "equicontinuity_modulus": equicontinuity_modulus,
    "c2_growth_curve": c2_growth_curve,
}


@pytest.mark.parametrize("name", UNIT_DISK_DIAGNOSTICS)
def test_rejects_grids_off_the_unit_disk(monkeypatch, name):
    # these read the outer ring as T: on D_2, trace_convergence of w = z
    # reported satisfied over rings converging to r = 2, and
    # multiplier_ratio measured 2.76
    g = make_grid(64, 64, outer_radius=2.0)
    w = GridFunction(g, g.nodes_z())
    sweeps = []
    monkeypatch.setattr(RadialEngine, "sweep", lambda *args, **kwargs: sweeps.append(args))
    monkeypatch.setattr(diagnostics, "_lp_rows", lambda *args: sweeps.append(args))
    monkeypatch.setattr(diagnostics, "hardy_norm", lambda *args: sweeps.append(args))
    with pytest.raises(ValueError, match="outer radius 1, not 2.0"):
        UNIT_DISK_DIAGNOSTICS[name](w)
    assert not sweeps  # raised before any sweep


class TestTraceConvergence:
    def test_smooth_function_decays(self, grid256):
        z = grid256.nodes_z()
        rep = trace_convergence(GridFunction(grid256, np.exp(z)), 2.0)
        assert rep.satisfied[0]
        assert rep.measured[0] > rep.measured[-1]

    def test_constant_is_flat_zero(self, grid256):
        rep = trace_convergence(GridFunction.constant(grid256, 1.0), 2.0)
        assert all(m == 0.0 for m in rep.measured)
        assert rep.satisfied[0]

    def test_riesz_output(self, grid256):
        alpha = GridFunction.constant(grid256, 0.5)
        psi = BoundaryFunction.from_function(256, lambda th: np.exp(np.cos(th)))
        w, _, _ = solve_riesz(alpha, psi, 0.0, SolverConfig(tol=1e-10, max_iter=200))
        rep = trace_convergence(w, 2.0)
        assert rep.satisfied[0]


class TestBoundarySobolev:
    def test_constant_vanishes(self):
        g = BoundaryFunction.from_function(256, lambda th: 5.0 + 0 * th)
        assert boundary_sobolev_seminorm(g) == 0.0

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    def test_matches_difference_loop(self, n):
        """The spectral sum against the direct sum over arc distances d, on
        smooth, rough and half-order data."""

        def loop(v):
            dtheta = 2.0 * np.pi / n
            total = 0.0
            for d in range(1, n):
                lam = min(d, n - d) * dtheta
                total += float(np.sum(np.abs(v - np.roll(v, -d)) ** 2)) / lam**2
            return np.sqrt(total * dtheta * dtheta)

        rng = np.random.default_rng(n)
        th = 2.0 * np.pi * np.arange(n) / n
        modes = np.zeros(n, dtype=complex)
        modes[1 : n // 2] = np.exp(2j * np.pi * rng.random(n // 2 - 1)) / np.arange(1, n // 2)
        data = {
            "smooth": np.exp(np.cos(th)) + 1j * np.sin(2.0 * th),
            "rough": rng.standard_normal(n) + 1j * rng.standard_normal(n),
            # |theta - pi|^{1/2}, and modes decaying like 1/m: half-order only
            "half-order": np.abs(th - np.pi) ** 0.5 + n * np.fft.ifft(modes),
        }
        for name, v in data.items():
            ref = loop(v)
            got = boundary_sobolev_seminorm(BoundaryFunction(v))
            assert abs(got - ref) <= 1e-12 * ref, name

    def test_exponential_vs_refinement_oracle(self):
        coarse = boundary_sobolev_seminorm(BoundaryFunction.from_function(256, lambda th: np.exp(1j * th)))
        fine = boundary_sobolev_seminorm(BoundaryFunction.from_function(1024, lambda th: np.exp(1j * th)))
        assert abs(coarse - fine) <= 0.01 * fine

    def test_vmo_embedding_chain(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            g = random_boundary(rng)
            sem, _ = bmo_oscillation(g, FAMILY)
            assert sem <= boundary_sobolev_seminorm(g)

    def test_weighted_conjugation_probe(self, grid256):
        # Hunt-Muckenhoupt-Wheeden boundedness restated as a measured ratio
        rng = np.random.default_rng(35)
        s = random_smooth_bandlimited(grid256, rng, 8)
        s = s * (1.0 / w12_norm(s))
        weight = np.exp(2 * boundary_trace(s).values.real)
        ratios = []
        for _ in range(10):
            psi = random_boundary(rng)
            tilde = conjugate_function(psi)
            num = np.sum(np.abs(tilde.values) ** 2 * weight)
            den = np.sum(np.abs(psi.values) ** 2 * weight)
            ratios.append(num / den)
        assert max(ratios) <= 4.0 * np.median(ratios)
