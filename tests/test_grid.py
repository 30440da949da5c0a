import re

import numpy as np
import pytest

from phdisk import (
    BoundaryFunction,
    Cone,
    GridFunction,
    MaskedValueError,
    area_integral,
    boundary_trace,
    circle_norm,
    conjugate_function,
    hardy_norm,
    lp_norm_disk,
    make_grid,
    nontangential_max,
    sobolev_norm,
    w12_norm,
    wirtinger_derivatives,
)
from phdisk.grid import (
    _FD2_FORWARD,
    _FD2_INTERIOR,
    _FD2_SKEW1,
    _FD_FORWARD,
    _FD_INTERIOR,
    _FD_SKEW1,
    _apply_radial_stencils,
    _cone_mask,
    _wirtinger_rows,
    w12_norm_modes,
)


class TestMakeGrid:
    def test_small_grid_nodes(self):
        g = make_grid(8, 4)
        assert g.n_theta * g.n_r == 32
        assert np.allclose(g.radii, [0.25, 0.5, 0.75, 1.0])
        assert g.boundary_ring_index == 3

    def test_reference_resolution(self):
        g = make_grid(256, 256)
        assert g.radii[0] > 0 and g.radii[-1] == 1.0
        assert np.all(np.diff(g.radii) > 0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            make_grid(6, 4)

    def test_rejects_tiny_radial_count(self):
        with pytest.raises(ValueError):
            make_grid(8, 3)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((8, 8, float("nan")), "outer_radius"),
            ((8, 8, float("inf")), "outer_radius"),
            ((8, 8, 0.5), "outer_radius"),
            ((8, 8.0), "n_r"),
            ((8.0, 8), "n_theta"),
        ],
        ids=["R=nan", "R=inf", "R=0.5", "n_r=8.0", "n_theta=8.0"],
    )
    def test_rejects_bad_geometry(self, args, name):
        # NaN and inf radii used to be accepted, and float sizes failed
        # with TypeErrors inside the quadrature and power-of-two checks
        with pytest.raises(ValueError, match=f"^{name} must be"):
            make_grid(*args)

    def test_node_indices_round_trip(self):
        g = make_grid(64, 48, outer_radius=2.5)
        assert [g.radius_index(r) for r in g.radii] == list(range(48))
        assert [g.angle_index(t) for t in g.thetas] == list(range(64))
        assert g.radius_index(2.5 * 7 / 48 + 5e-13) == 6

    @pytest.mark.parametrize("method, value", [
        ("radius_index", 0.0), ("radius_index", 1.0 + 1 / 48), ("radius_index", 0.5 + 1e-9),
        ("angle_index", 2.0 * np.pi), ("angle_index", -0.1), ("angle_index", 0.05),
    ])
    def test_node_index_off_grid_raises(self, method, value):
        g = make_grid(64, 48)
        with pytest.raises(ValueError, match=f"{method.split('_')[0]} {value} is not on the grid"):
            getattr(g, method)(value)

    def test_accepts_numpy_sizes(self):
        g = make_grid(np.int64(8), np.int32(4), np.float64(2.0))
        assert (g.n_theta, g.n_r, g.outer_radius) == (8, 4, 2.0)


class TestQuadrature:
    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_radial_moments_exact(self, grid256, a):
        z = grid256.nodes_z()
        f = GridFunction(grid256, (np.abs(z) ** a).astype(complex))
        exact = 2 * np.pi / (a + 2)
        assert abs(area_integral(f).real - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("n", [1, 2, 7, 32, 127])
    def test_angular_modes_vanish(self, grid256, n):
        z = grid256.nodes_z()
        f = GridFunction(grid256, np.abs(z) * np.exp(1j * n * np.angle(z)))
        assert abs(area_integral(f)) <= 1e-12

    def test_trig_times_polynomial(self, grid256):
        # degree-2 radial polynomial times a mid-band harmonic
        z = grid256.nodes_z()
        r = np.abs(z)
        f = GridFunction(grid256, (1 + 2 * r - 0.5 * r**2).astype(complex))
        exact = 2 * np.pi * (1 / 2 + 2 / 3 - 0.5 / 4)
        assert abs(area_integral(f).real - exact) <= 1e-12 * exact

    def test_area_examples(self, grid256):
        z = grid256.nodes_z()
        assert abs(area_integral(GridFunction.constant(grid256, 1.0)) - np.pi) < 1e-12
        assert abs(area_integral(GridFunction(grid256, z))) < 1e-12
        f = GridFunction(grid256, (np.abs(z) ** 2).astype(complex))
        assert abs(area_integral(f).real - np.pi / 2) < 1e-12

    def test_masked_integral_raises(self, grid256):
        vals = np.ones((grid256.n_r, grid256.n_theta), dtype=complex)
        vals[10, 10] = np.inf
        f = GridFunction(grid256, vals)
        with pytest.raises(MaskedValueError):
            area_integral(f)

    def test_parseval_every_radius(self, grid256):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((grid256.n_r, grid256.n_theta)) + 1j * rng.standard_normal(
            (grid256.n_r, grid256.n_theta)
        )
        f = GridFunction(grid256, vals)
        modes = np.fft.fft(f.values, axis=1) / grid256.n_theta
        lhs = np.sum(np.abs(vals) ** 2, axis=1) * 2 * np.pi / grid256.n_theta
        rhs = 2 * np.pi * np.sum(np.abs(modes) ** 2, axis=1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(lhs)


class TestCircleAndHardy:
    def test_constant_on_unit_circle(self, grid256):
        f = GridFunction.constant(grid256, 1.0)
        assert abs(circle_norm(f, 1.0, 2.0) - np.sqrt(2 * np.pi)) < 1e-12

    def test_arclength_of_half_circle(self, grid256):
        f = GridFunction.constant(grid256, 1.0)
        assert abs(circle_norm(f, 0.5, 1.0) - np.pi) < 1e-12

    @pytest.mark.parametrize("n,p", [(1, 2.0), (3, 1.5), (5, 4.0)])
    def test_monomial_closed_form(self, grid256, n, p):
        z = grid256.nodes_z()
        f = GridFunction(grid256, z**n)
        rho = grid256.radii[100]
        expected = (2 * np.pi * rho) ** (1.0 / p) * rho**n
        assert abs(circle_norm(f, rho, p) - expected) < 1e-12

    def test_off_grid_radius_raises(self, grid256):
        f = GridFunction.constant(grid256, 1.0)
        with pytest.raises(ValueError, match="radius 0.12345 is not on the grid"):
            circle_norm(f, 0.12345, 2.0)

    @pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf, 1e308])
    def test_non_finite_radius_raises_value_error(self, grid256, rho):
        # inf used to raise OverflowError and NaN "cannot convert float NaN to integer"
        f = GridFunction.constant(grid256, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"radius {rho} is not on the grid")):
            circle_norm(f, rho, 2.0)

    def test_hardy_norm_monomial(self, grid256):
        z = grid256.nodes_z()
        n = 3
        f = GridFunction(grid256, z**n)
        r_max = grid256.radii[-2]
        expected = np.sqrt(2 * np.pi * r_max) * r_max**n
        assert abs(hardy_norm(f, 2.0) - expected) < 1e-12

    def test_hardy_norm_zero(self, grid256):
        assert hardy_norm(GridFunction.zeros(grid256), 2.0) == 0.0

    def test_hardy_norm_matches_summed_powers(self, grid256):
        z = grid256.nodes_z()
        f = GridFunction(grid256, np.exp(z) + 0.3j * np.conj(z) ** 2)
        dtheta = 2 * np.pi / 256
        for p in (1.0, 2.0, 3.5):
            sums = np.sum(np.abs(f.values[:-1]) ** p, axis=1) * grid256.radii[:-1] * dtheta
            expected = np.max(sums ** (1.0 / p))
            assert abs(hardy_norm(f, p) - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_norms_scale_free(self, grid256, scale):
        # |v|^p of these values over- or underflows; the norms must not
        z = grid256.nodes_z()
        f = GridFunction(grid256, np.exp(z) + 0.3j * np.conj(z) ** 2)
        big = GridFunction(grid256, scale * f.values)
        pairs = [
            (hardy_norm(big, 2.0), hardy_norm(f, 2.0)),
            (circle_norm(big, grid256.radii[100], 3.0), circle_norm(f, grid256.radii[100], 3.0)),
            (lp_norm_disk(big, 2.0), lp_norm_disk(f, 2.0)),
            (lp_norm_disk(big, 4.0, r_max=0.9), lp_norm_disk(f, 4.0, r_max=0.9)),
            (boundary_trace(big).lp_norm(2.0), boundary_trace(f).lp_norm(2.0)),
        ]
        for scaled, plain in pairs:
            assert abs(scaled - scale * plain) <= 1e-14 * scale * plain

    @pytest.mark.parametrize("p", [0.0, -1.0, np.nan], ids=["0", "-1", "nan"])
    def test_nonpositive_p_raises(self, p):
        # 1/p used to divide by zero at p = 0 and return numbers at p < 0
        g = make_grid(16, 8)
        f = GridFunction(g, g.nodes_z() + 1.0)
        norms = [
            lambda: lp_norm_disk(f, p),
            lambda: circle_norm(f, g.radii[3], p),
            lambda: hardy_norm(f, p),
            lambda: boundary_trace(f).lp_norm(p),
        ]
        for norm in norms:
            with pytest.raises(ValueError, match="p must be positive"):
                norm()

    def test_hardy_norm_masked_interior_raises(self, grid256):
        vals = np.ones((256, 256), dtype=complex)
        vals[-1, 5] = np.nan  # a masked rim node is off the interior circles
        expected = np.sqrt(2 * np.pi * grid256.radii[-2])
        assert abs(hardy_norm(GridFunction(grid256, vals), 2.0) - expected) < 1e-12
        vals[40, 7] = np.inf
        with pytest.raises(MaskedValueError):
            hardy_norm(GridFunction(grid256, vals), 2.0)

    def test_circle_norm_monotone_for_holomorphic(self, grid256):
        z = grid256.nodes_z()
        f = GridFunction(grid256, z**4)
        norms = [circle_norm(f, rho, 2.0) for rho in grid256.radii[::16]]
        assert np.all(np.diff(norms) >= 0)

    def test_hardy_counterexample_stable_under_doubling(self):
        # the G^2 member with log-singular boundary point stays bounded
        def w_exw(z):
            t = np.abs(z - 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / (np.log(3.0 / t) * np.sqrt(z - 1.0))

        vals = []
        for n_r in (128, 256):
            g = make_grid(256, n_r)
            vals.append(hardy_norm(GridFunction.from_function(g, w_exw), 2.0))
        assert np.isfinite(vals).all()
        assert abs(vals[1] - vals[0]) <= 0.05 * vals[0]


class TestWirtinger:
    def test_holomorphic_monomial(self, grid256):
        z = grid256.nodes_z()
        d, dbar = wirtinger_derivatives(GridFunction(grid256, z))
        assert np.max(np.abs(d.values - 1)) < 1e-10
        assert np.max(np.abs(dbar.values)) < 1e-10

    def test_antiholomorphic(self, grid256):
        z = grid256.nodes_z()
        d, dbar = wirtinger_derivatives(GridFunction(grid256, np.conj(z)))
        assert np.max(np.abs(d.values)) < 1e-10
        assert np.max(np.abs(dbar.values - 1)) < 1e-10

    def test_modulus_squared(self, grid256):
        z = grid256.nodes_z()
        d, dbar = wirtinger_derivatives(GridFunction(grid256, (np.abs(z) ** 2).astype(complex)))
        assert np.max(np.abs(d.values - np.conj(z))) < 1e-10
        assert np.max(np.abs(dbar.values - z)) < 1e-10

    @pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (0, 5), (4, 1), (1, 4)])
    def test_mixed_monomials(self, grid256, m, n):
        z = grid256.nodes_z()
        f = GridFunction(grid256, z**m * np.conj(z) ** n)
        d, dbar = wirtinger_derivatives(f)
        K = int(0.9 * grid256.n_r)
        expect_d = m * z ** max(m - 1, 0) * np.conj(z) ** n if m else 0 * z
        expect_db = n * z**m * np.conj(z) ** max(n - 1, 0) if n else 0 * z
        assert np.max(np.abs(d.values - expect_d)[:K]) < 1e-8
        assert np.max(np.abs(dbar.values - expect_db)[:K]) < 1e-8

    @pytest.mark.parametrize("rows", [6, 57, 62, 63, 64])
    def test_leading_rows_equal_the_whole_grid(self, rows):
        # d alone, dbar alone, or both on the first rows, from the values
        # on the rows their stencils read, are the whole grid's rows bit
        # for bit (the radial closures differ only on the last two rows)
        g = make_grid(32, 64)
        z = g.nodes_z()
        v = np.exp(z.real - 0.5j * z.imag) + np.cos(2.0 * z.imag) * np.conj(z) ** 3
        d, dbar = wirtinger_derivatives(GridFunction(g, v))
        part = v[: min(rows + 2, g.n_r)].copy()
        assert np.array_equal(_wirtinger_rows(part, g, rows, True, False)[0], d.values[:rows])
        assert np.array_equal(_wirtinger_rows(part, g, rows, False, True)[1], dbar.values[:rows])
        both = _wirtinger_rows(part, g, rows, True, True)
        assert np.array_equal(both[0], d.values[:rows]) and np.array_equal(both[1], dbar.values[:rows])
        if rows < g.n_r:
            with pytest.raises(ValueError, match="rows of values"):
                _wirtinger_rows(part[:-1], g, rows, True, True)


class TestSobolev:
    def test_constant(self, grid256):
        assert abs(sobolev_norm(GridFunction.constant(grid256, 1.0), 2.0) - np.sqrt(np.pi)) < 1e-9

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_linear(self, grid256, conjugate):
        z = grid256.nodes_z()
        f = GridFunction(grid256, np.conj(z) if conjugate else z)
        expected = np.sqrt(np.pi / 2) + np.sqrt(np.pi)
        assert abs(sobolev_norm(f, 2.0) - expected) < 1e-9

    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_w12_norm_matches_grid_derivatives(self, n):
        # w12_norm works on angular modes (Parseval); sobolev_norm(f, 2)
        # differentiates on the grid and is the reference.  Same arithmetic
        # up to summation order: 1e-14 relative is about 45 ulp.
        g = make_grid(n, n)
        z = g.nodes_z()
        rng = np.random.default_rng(n)
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for vals in (np.exp(z.real), z**3, np.conj(z) ** 2 + 0.3 * z, noise, np.cos(5 * z) * np.abs(z) ** 2):
            f = GridFunction(g, vals)
            ref = sobolev_norm(f, 2.0)
            assert abs(w12_norm(f) - ref) <= 1e-14 * ref
            # the solvers' form: unnormalized angular modes, left unchanged
            modes = np.fft.fft(vals, axis=1)
            kept = modes.copy()
            assert abs(w12_norm_modes(modes, g) - ref) <= 1e-14 * ref
            assert abs(w12_norm_modes(modes, g) - w12_norm(f)) <= 1e-14 * ref
            assert np.array_equal(modes, kept)
            assert w12_norm(GridFunction(g, np.asfortranarray(vals))) == w12_norm(f)


def _reference_radial_stencils(values, interior, forward, skew, mirror_sign):
    """Sliding-window einsum form of the radial stencils, the oracle."""
    out = np.empty_like(values)
    nf, ns = len(forward), len(skew)
    out[0] = np.tensordot(forward, values[0:nf], axes=(0, 0))
    out[1] = np.tensordot(skew, values[0:ns], axes=(0, 0))
    core = np.lib.stride_tricks.sliding_window_view(values, 5, axis=0)
    np.einsum("s,jks->jk", interior, core, out=out[2:-2])
    out[-2] = mirror_sign * np.tensordot(skew[::-1], values[-ns:], axes=(0, 0))
    out[-1] = mirror_sign * np.tensordot(forward[::-1], values[-nf:], axes=(0, 0))
    return out


class TestRadialStencils:
    STENCILS = {
        "first": (_FD_INTERIOR, _FD_FORWARD, _FD_SKEW1, -1.0),
        "second": (_FD2_INTERIOR, _FD2_FORWARD, _FD2_SKEW1, 1.0),
    }

    @pytest.mark.parametrize("order", STENCILS)
    @pytest.mark.parametrize("n", [64, 256])
    def test_matches_sliding_window_reference(self, n, order):
        # the taps are paired by symmetry and nested, so only rounding
        # differs from the einsum: 1e-15 of the largest value is ~5 ulp
        stencil = self.STENCILS[order]
        rng = np.random.default_rng(100 + n)
        vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ref = _reference_radial_stencils(vals, *stencil)
        for layout in (vals, np.asfortranarray(vals)):
            got = _apply_radial_stencils(layout, *stencil)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestBoundaryTrace:
    def test_identity_trace(self, grid256):
        z = grid256.nodes_z()
        tr = boundary_trace(GridFunction(grid256, z))
        assert np.max(np.abs(tr.values - np.exp(1j * grid256.thetas))) < 1e-14

    def test_modulus_trace(self, grid256):
        z = grid256.nodes_z()
        tr = boundary_trace(GridFunction(grid256, (np.abs(z) ** 2).astype(complex)))
        assert np.max(np.abs(tr.values - 1)) < 1e-14

    def test_singular_node_propagates_mask(self, grid256):
        f = GridFunction.from_function(
            grid256, lambda z: np.log(np.log(3.0 / np.abs(z - 1.0)))
        )
        tr = boundary_trace(f)
        assert tr.mask is not None and tr.mask[0]
        th = grid256.thetas[5]
        expected = np.log(np.log(3.0 / abs(np.exp(1j * th) - 1.0)))
        assert abs(tr.values[5] - expected) < 1e-12


class TestNontangentialMax:
    def test_constant(self, grid128):
        M = nontangential_max(GridFunction.constant(grid128, -2.5), np.pi / 4)
        assert np.max(np.abs(M.values - 2.5)) < 1e-14

    def test_identity_function(self, grid128):
        z = grid128.nodes_z()
        M = nontangential_max(GridFunction(grid128, z), np.pi / 4)
        r_max = grid128.radii[-2]
        assert np.max(np.abs(M.values - r_max)) < 1e-14

    def test_poisson_cosine_vs_dense_oracle(self, grid128):
        from phdisk import poisson_extend

        u = poisson_extend(BoundaryFunction.from_function(256, np.cos), grid128)
        M = nontangential_max(u, np.pi / 4)
        # brute-force oracle over a 4x finer sampling of the same function
        rr = np.linspace(1 / 512, 1 - 1 / 512, 511)
        tt = 2 * np.pi * np.arange(1024) / 1024
        Z = (rr[:, None] * np.exp(1j * tt[None, :])).ravel()
        V = np.abs(Z.real)
        for k in range(0, 256, 31):
            cone = Cone(complex(np.exp(1j * grid128.thetas[k])), np.pi / 4)
            oracle = V[cone.contains(Z)].max()
            assert abs(oracle - M.values[k].real) <= 2.0 / grid128.n_r

    def test_domination_invariant(self, grid128):
        from helpers import random_smooth_bandlimited

        rng = np.random.default_rng(2)
        f = random_smooth_bandlimited(grid128, rng, 16)
        M = nontangential_max(f, 0.6)
        z = grid128.nodes_z()[: grid128.n_r - 1]
        vals = np.abs(f.values[: grid128.n_r - 1])
        for k in range(0, 256, 63):
            cone = Cone(complex(np.exp(1j * grid128.thetas[k])), 0.6)
            sel = cone.contains(z)
            assert M.values[k].real >= vals[sel].max() - 1e-14

    @pytest.mark.parametrize(
        "n, gamma", [(256, np.pi / 4), (128, 0.6), (64, 1.2), (256, 0.3)]
    )
    def test_rolled_cone_matches_per_vertex_oracle(self, n, gamma):
        """Each rolled mask equals Cone.contains at its own vertex, node for node."""
        grid = make_grid(n, n)
        z = grid.nodes_z()[: n - 1]
        base = _cone_mask(grid, gamma)
        rng = np.random.default_rng(n)
        f = GridFunction(grid, rng.standard_normal((n, n)))
        M = nontangential_max(f, gamma).values.real
        vals = np.abs(f.values[: n - 1])
        for k, theta in enumerate(grid.thetas):
            sel = Cone(complex(np.exp(1j * theta)), gamma).contains(z)
            assert np.array_equal(np.roll(base, k, axis=1), sel), k
            assert M[k] == vals[sel].max()

    @pytest.mark.parametrize(
        "n_theta, n_r, gamma", [(8, 5, 0.1), (64, 33, 0.9), (128, 512, 0.02), (512, 64, 1.5)]
    )
    def test_cone_rings_are_centred_arcs(self, n_theta, n_r, gamma):
        """What the window maximum relies on: each ring of the cone mask is an
        arc centred on column 0 (or the whole ring), narrowing towards the rim."""
        base = _cone_mask(make_grid(n_theta, n_r), gamma)
        half = np.minimum(base.sum(axis=1) // 2, n_theta // 2)
        k = np.arange(n_theta)
        assert np.array_equal(np.minimum(k, n_theta - k)[None, :] <= half[:, None], base)
        assert np.all(np.diff(half) <= 0)

    def test_rings_beyond_the_circle_hold_no_cone_node(self):
        """On a grid reaching past T the outer rings miss every cone; the
        maximum is that of the rolled mask over the rings inside."""
        grid = make_grid(64, 64, outer_radius=4.0)
        rng = np.random.default_rng(9)
        f = GridFunction(grid, rng.standard_normal((64, 64)))
        base = _cone_mask(grid, 0.7)
        assert not np.all(np.any(base, axis=1))
        vals = np.abs(f.values[:63])
        oracle = [vals[np.roll(base, k, axis=1)].max() for k in range(64)]
        assert np.array_equal(nontangential_max(f, 0.7).values.real, oracle)


class TestConeGeometry:
    def test_region_composition(self):
        cone = Cone(1.0 + 0j, np.pi / 6)
        s = np.sin(np.pi / 6)
        # central disk belongs to the region
        assert cone.contains(np.array([0.3j]))[0]
        # near-vertex points along the axis belong
        assert cone.contains(np.array([0.95 + 0j]))[0]
        # a point outside the opening does not
        assert not cone.contains(np.array([0.9 + 0.4j]))[0]
        # beyond the tangent disk on the far side: outside the bounded component
        assert not cone.contains(np.array([-0.9 + 0j]))[0] or s > 0.9


class TestBoundaryMasks:
    def test_masked_boundary_norm_raises(self):
        vals = np.ones(256, dtype=complex)
        vals[3] = np.nan
        b = BoundaryFunction(vals)
        with pytest.raises(MaskedValueError):
            b.lp_norm(2.0)

    def test_arithmetic_keeps_masks(self):
        vals = np.ones(256, dtype=complex)
        vals[3] = np.nan
        b = BoundaryFunction(vals)
        c = BoundaryFunction.from_function(256, np.cos)
        for out in (b + 1, b - 1, b * 2, 2 * b, -b, b + c, c - b, c * b):
            assert out.mask is not None and np.flatnonzero(out.mask).tolist() == [3]
            with pytest.raises(MaskedValueError):
                out.lp_norm(2.0)
        assert (c + c).mask is None

    def test_arithmetic_rejects_other_lengths(self):
        # numpy used to raise "operands could not be broadcast together"
        a = BoundaryFunction.from_function(32, np.cos)
        b = BoundaryFunction.from_function(64, np.cos)
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b * a):
            with pytest.raises(ValueError, match="^boundary length mismatch between operands"):
                op()

    def test_trace_arithmetic_keeps_mask(self, grid128):
        vals = np.ones((128, 256), dtype=complex)
        vals[-1, 7] = np.inf
        tr = boundary_trace(GridFunction(grid128, vals)) + 0
        assert tr.mask is not None and tr.mask[7]
        with pytest.raises(MaskedValueError):
            tr.mean()

    def test_fully_masked_ring_rejected(self, grid128):
        vals = np.ones((128, 256), dtype=complex)
        vals[-1, :] = np.nan
        with pytest.raises(MaskedValueError, match="fully masked"):
            boundary_trace(GridFunction(grid128, vals))


class TestBoundaryModes:
    def test_modes_follow_values_edited_in_place(self):
        # modes() used to cache its first FFT: after values[:] = 0 it still
        # gave 0.5 at mode 1, and conjugate_function still returned sin
        b = BoundaryFunction.from_function(16, np.cos)
        assert abs(b.modes()[1] - 0.5) < 1e-15
        b.values[:] = 0.0
        assert np.array_equal(b.modes(), np.zeros(16))
        assert np.array_equal(conjugate_function(b).values, np.zeros(16))
        b.values[:] = np.sin(b.thetas)
        assert np.max(np.abs(conjugate_function(b).values + np.cos(b.thetas))) < 1e-14

    def test_modes_leave_values_alone(self):
        b = BoundaryFunction.from_function(16, lambda t: np.cos(2 * t))
        before = b.values.copy()
        b.modes()[:] = 7.0
        conjugate_function(b)
        assert np.array_equal(b.values, before)
        assert abs(b.modes()[2] - 0.5) < 1e-15


class TestOddRadialCount:
    @pytest.mark.parametrize("n_r", [5, 7, 255])
    def test_moments_exact_with_three_eighths_closure(self, n_r):
        g = make_grid(8, n_r)
        z = g.nodes_z()
        for a in (0, 1, 2):
            f = GridFunction(g, (np.abs(z) ** a).astype(complex))
            exact = 2 * np.pi / (a + 2)
            assert abs(area_integral(f).real - exact) <= 1e-13 * exact
