"""Radial engine against closed forms, and its engine cache.

The engine interpolates each cell by a cubic, so node profiles rho^j with
j <= 3 are integrated exactly and the cumulative integrals have closed
forms at every exponent.  Column k of a profile holds its value at
rho_{k+1} = (k+1)/n_r.
"""

import numpy as np
import pytest

from phdisk import radial
from phdisk.radial import RadialEngine, _moments, _whole_cell_moments

SIZES = [(64, 34), (256, 130)]
POWERS = np.arange(4)


@pytest.fixture(scope="module", params=SIZES, ids=lambda s: f"{s[0]}-{s[1]}")
def case(request):
    """Engine, node radii, and one row rho^j per (exponent, power) pair."""
    n_r, a_max = request.param
    eng = RadialEngine(n_r, a_max)
    r = np.arange(1, n_r + 1) / n_r
    exps = np.repeat(np.arange(a_max + 1), len(POWERS))
    js = np.tile(POWERS, a_max + 1)
    profiles = r[None, :] ** js[:, None]
    return eng, r, exps, js, profiles


def rough_profiles(seed, M, n_r):
    """Complex normal node values: no stencil layout reproduces them by accident."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((M, n_r)) + 1j * rng.standard_normal((M, n_r))


def test_cumulative_in_closed_form(case):
    eng, r, exps, js, profiles = case
    S = eng.cumulative_in(profiles, exps)
    exact = r[None, :] ** (js + 1)[:, None] / (exps + js + 1)[:, None]
    assert np.max(np.abs(S - exact) / exact) < 1e-12


def test_cumulative_out_closed_form(case):
    eng, r, exps, js, profiles = case
    T = eng.cumulative_out(profiles, exps)
    d = (js + 1 - exps)[:, None]
    rb = r[None, :] ** exps[:, None]
    # r^b (1 - r^d) / d written without r^d, which overflows for large b
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = np.where(d == 0, -rb * np.log(r), (rb - r[None, :] ** (js + 1)[:, None]) / d)
    err = np.max(np.abs(T - exact), axis=1) / np.max(np.abs(exact), axis=1)
    assert np.max(err) < 1e-12


def test_full_moment_closed_form(case):
    eng, r, exps, js, profiles = case
    full = eng.full_moment(profiles, exps)
    exact = 1.0 / (exps + js + 1)
    assert np.max(np.abs(full - exact) / exact) < 1e-13


def test_folded_weights_match_cell_cubics(case):
    """Folded weights reproduce h int cubic * kernel cell by cell for a rough profile."""
    eng, r, exps, js, profiles = case
    prof = rough_profiles(3, len(exps), eng.n_r)
    cells = np.arange(eng.n_r, dtype=float)
    coeffs = eng.cell_coeffs(prof)
    for table, inner in ((eng.w_in, True), (eng.w_out, False)):
        nu = np.stack([_moments(cells, 0.0, 1.0, a, inner) for a in exps])
        ref = eng.h * np.einsum("miq,miq->mi", coeffs, nu)
        if not inner:
            ref[:, 0] = 0.0
        got = np.empty(prof.shape[::-1], dtype=complex)  # radius-major
        eng._cell_integrals(table, prof.T, eng._exp_index(exps), got)
        got = got.T
        assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


def test_cumulative_out_rholog_closed_form(case):
    """int_r^1 rho^j rho log(rho) drho = -1/J^2 - r^J log(r)/J + r^J/J^2, J = j + 2."""
    eng, r, exps, js, profiles = case
    prof = r[None, :] ** POWERS[:, None]
    T = eng.cumulative_out_rholog(prof)
    J = (POWERS + 2.0)[:, None]
    rJ = r[None, :] ** J
    exact = -1.0 / J**2 - rJ * np.log(r) / J + rJ / J**2
    err = np.max(np.abs(T - exact), axis=1) / np.max(np.abs(exact), axis=1)
    assert np.max(err) < 1e-12


def test_rholog_weights_match_cell_cubics(case):
    """The folded rho log rho weights reproduce h int cubic * rho log rho cell
    by cell for a rough profile (moments by a 40-node rule in rho itself)."""
    eng, r, exps, js, profiles = case
    prof = rough_profiles(6, 8, eng.n_r)
    xg, wg = np.polynomial.legendre.leggauss(40)
    x = 0.5 * (xg + 1.0)
    rho = eng.h * (np.arange(1, eng.n_r)[:, None] + x)
    mom = (rho * np.log(rho) * 0.5 * wg) @ x[:, None] ** np.arange(4)  # (cells 1.., q)
    cells = eng.h * np.einsum("miq,iq->mi", eng.cell_coeffs(prof)[:, 1:], mom)
    ref = np.zeros(prof.shape, dtype=complex)
    ref[:, :-1] = np.cumsum(cells[:, ::-1], axis=1)[:, ::-1]
    got = eng.cumulative_out_rholog(prof)
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


def partial_targets(n_r):
    """About 50 off-node radii in (0, 1), the first cell included, plus node radii."""
    rng = np.random.default_rng(11)
    off = np.concatenate([rng.uniform(0.0, 1.0, 46), rng.uniform(0.0, 1.0 / n_r, 4)])
    nodes = np.array([1, 2, 3, n_r // 2, n_r - 1, n_r]) / n_r
    return np.concatenate([off, nodes])


def test_cumulative_in_at_closed_form(case):
    """S_a(t) = int_0^t rho^j (rho/t)^a drho = t^{j+1}/(a+j+1) off and on the nodes.

    Relative to the larger of the value and its value at the first node:
    inside the origin cell S falls like t^{j+1}, while the extrapolated
    cubic's coefficients carry rounding of the size of the first nodes.
    """
    eng, r, exps, js, profiles = case
    t = partial_targets(eng.n_r)
    S = eng.cumulative_in_at(profiles, exps, t)
    exact = t[None, :] ** (js + 1)[:, None] / (exps + js + 1)[:, None]
    floor = r[0] ** (js + 1)[:, None] / (exps + js + 1)[:, None]
    assert np.max(np.abs(S - exact) / np.maximum(exact, floor)) < 1e-12


def test_cumulative_out_at_closed_form(case):
    """T_b(t) = int_t^1 rho^j (t/rho)^b drho = (t^b - t^{j+1})/(j+1-b), or -t^b log t."""
    eng, r, exps, js, profiles = case
    t = partial_targets(eng.n_r)
    T = eng.cumulative_out_at(profiles, exps, t)
    d = (js + 1 - exps)[:, None]
    tb = t[None, :] ** exps[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = np.where(d == 0, -tb * np.log(t), (tb - t[None, :] ** (js + 1)[:, None]) / d)
    err = np.max(np.abs(T - exact), axis=1) / np.max(np.abs(exact), axis=1)
    assert np.max(err) < 1e-12


@pytest.mark.parametrize("inner", [True, False], ids=["inner", "outer"])
def test_node_targets_read_the_sweep(case, inner):
    """At every node radius, r = 1 included, the arbitrary-radius integrals
    are the sweep's node values exactly: no partial cell is added."""
    eng, r, exps, js, profiles = case
    prof = rough_profiles(6, len(exps), eng.n_r)
    at, sweep = (
        (eng.cumulative_in_at, eng.cumulative_in) if inner
        else (eng.cumulative_out_at, eng.cumulative_out)
    )
    assert np.array_equal(at(prof, exps, r), sweep(prof, exps))


def test_node_targets_skip_partial_cells(monkeypatch):
    """`cauchy_renormalized` on D_1 and D_4 evaluates at node radii and the
    unit circle only, so no target reaches the partial-cell quadrature."""
    from phdisk import GridFunction, cauchy_renormalized, make_grid

    seen = []
    partial = RadialEngine._partial

    def counting(self, profiles, exps, targets, inner):
        seen.append(len(targets))
        return partial(self, profiles, exps, targets, inner)

    monkeypatch.setattr(RadialEngine, "_partial", counting)
    g = make_grid(256, 256)
    h = GridFunction(g, np.exp(-np.abs(g.nodes_z()) ** 2))
    for R in (1.0, 4.0):
        cauchy_renormalized(h, R)
    assert sum(seen) == 0


@pytest.mark.parametrize("target", [0.0, 1.5, np.nan])
@pytest.mark.parametrize("method", ["cumulative_in_at", "cumulative_out_at"])
def test_target_outside_unit_interval_raises(method, target):
    eng = RadialEngine(16, 5)
    with pytest.raises(ValueError):
        getattr(eng, method)(np.ones((2, 16)), np.array([1, 2]), np.array([0.5, target]))


@pytest.mark.parametrize("inner", [True, False], ids=["inner", "outer"])
def test_partial_cells_match_cell_cubics(case, inner):
    """The partial-cell integral of a rough profile is h sum_q c_q nu_q over the
    target's cell, c its cubic's coefficients: cubic profiles are reproduced by
    any consistent stencil, so only a rough one checks the stencil layout."""
    eng, r, exps, js, profiles = case
    prof = rough_profiles(5, len(exps), eng.n_r)
    t = partial_targets(eng.n_r)
    cell, x, part = eng._partial(prof, exps, t, inner)
    x0, x1 = (0.0, x) if inner else (x, 1.0)
    nu = _moments(cell, x0, x1, exps[:, None], inner)
    ref = eng.h * np.einsum("mkq,mkq->mk", eng.cell_coeffs(prof)[:, cell], nu)
    assert np.max(np.abs(part - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("inner", [True, False], ids=["inner", "outer"])
def test_whole_cell_moments_against_quad(inner):
    """Whole-cell moments against scipy's adaptive quadrature in x itself,
    not through the exponential substitution of `_moments`, at n_r = 256
    and the exponents of a 256-angle grid (a_max = 130): cells next to the
    origin, where the kernel is steepest, a middle and the last cell.  Both
    routes are checked, the general rule and the engine's shared nodes;
    (2, 130) and (4, 130) sit on either side of the cap (e log((i+1)/i)
    is 52.7 and 29.0 against _Y_CAP = 45)."""
    from scipy.integrate import quad

    n_r, a_max = 256, 130
    pairs = [(1, a_max), (3, a_max), (10, 60), (100, 1), (n_r - 1, a_max), (2, a_max), (4, a_max)]
    for i, e in pairs:

        def integrand(x, q):
            return x**q * ((i + x) / (i + 1.0) if inner else i / (i + x)) ** e

        ref = np.array([
            quad(integrand, 0.0, 1.0, args=(q,), epsabs=1e-17, epsrel=2e-14, limit=200)[0]
            for q in range(4)
        ])
        general = _moments(i, 0.0, 1.0, e, inner)
        shared = _whole_cell_moments(np.array([float(i)]), np.array([float(e)]), inner)[0, 0]
        for got in (general, shared):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (i, e)


@pytest.mark.parametrize("inner", [True, False], ids=["inner", "outer"])
@pytest.mark.parametrize("n_r, a_max", [(64, 34), (256, 130), (512, 258)], ids=["64", "256", "512"])
def test_shared_node_moments_match_general_rule(n_r, a_max, inner):
    """The engine's shared-node moments equal `_moments` on every (cell,
    exponent) pair, relative to each cell's largest moment: the shared
    form on the uncapped pairs, the general rule's own values on the origin
    cell, e = 0 and the capped pairs (472 of 33,536 pairs at 256, 1,283
    at 512)."""
    cells = np.arange(n_r, dtype=float)
    exps = np.arange(a_max + 1.0)
    got = _whole_cell_moments(cells, exps, inner)
    ref = np.stack([_moments(cells, 0.0, 1.0, e, inner) for e in exps], axis=1)
    scale = np.max(np.abs(ref), axis=(1, 2), keepdims=True)
    assert np.max(np.abs(got - ref) / scale) < 1e-14


def test_full_weights_match_scatter(case):
    """The full-moment weights, summed onto the stencil nodes by shifted
    slices, equal an `np.add.at` scatter through the gather indices,
    relative to each exponent's largest weight."""
    eng = case[0]
    cells = np.arange(eng.n_r, dtype=float)
    reach = ((cells + 1.0) / eng.n_r)[:, None] ** np.arange(eng.a_max + 1.0)
    ref = np.zeros((eng.n_r, eng.a_max + 1))
    np.add.at(ref, eng.gather.T, eng.w_in * reach)
    assert np.max(np.abs(eng.w_full - ref) / np.max(np.abs(ref), axis=0)) < 1e-15


def test_full_moment_is_last_node_of_cumulative_in(case):
    eng, r, exps, js, profiles = case
    prof = rough_profiles(4, len(exps), eng.n_r)
    S = eng.cumulative_in(prof, exps)[:, -1]
    assert np.max(np.abs(eng.full_moment(prof, exps) - S)) < 1e-14 * np.max(np.abs(S))


@pytest.mark.parametrize("step", [1, -1], ids=["ascending", "descending"])
def test_exponent_runs_index_by_slices(case, step):
    """Runs of consecutive exponents, the transforms' column layout, read the
    tables through slices (views) and meet the same closed forms."""
    eng, r, exps, js, profiles = case
    run = np.arange(eng.a_max + 1)[::step]
    assert isinstance(eng._exp_index(run), slice)
    for j in POWERS:
        prof = np.repeat(r[None, :] ** j, len(run), axis=0)
        S = eng.cumulative_in(prof, run)
        exact_in = r[None, :] ** (j + 1) / (run + j + 1)[:, None]
        assert np.max(np.abs(S - exact_in) / exact_in) < 1e-12
        T = eng.cumulative_out(prof, run)
        d = (j + 1 - run)[:, None]
        rb = r[None, :] ** run[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            exact_out = np.where(d == 0, -rb * np.log(r), (rb - r[None, :] ** (j + 1)) / d)
        err = np.max(np.abs(T - exact_out), axis=1) / np.max(np.abs(exact_out), axis=1)
        assert np.max(err) < 1e-12
        full = eng.full_moment(prof, run)
        assert np.max(np.abs(full - 1.0 / (run + j + 1)) * (run + j + 1)) < 1e-13


@pytest.mark.parametrize("method", ["cumulative_in", "cumulative_out", "full_moment"])
def test_exponent_beyond_table_raises(method):
    eng = RadialEngine(16, 5)
    with pytest.raises(ValueError):
        getattr(eng, method)(np.ones((2, 16)), np.array([1, 6]))


def test_engine_cache_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(radial, "_ENGINES", {})
    keys = [(8, a) for a in range(1, radial._MAX_ENGINES + 1)]
    first = [radial.get_engine(*k) for k in keys]
    assert radial.get_engine(*keys[0]) is first[0]  # a hit refreshes recency
    radial.get_engine(8, 99)
    assert len(radial._ENGINES) == radial._MAX_ENGINES
    assert keys[1] not in radial._ENGINES
    assert radial.get_engine(*keys[0]) is first[0]
    assert radial.get_engine(*keys[2]) is first[2]


def sweep_layouts(n_theta, n_r):
    """The transforms' block layouts on random modes: C +- R's pair and the
    Green potential's five, as (P, exponent index, inner) blocks."""
    N, half = n_theta, n_theta // 2
    B = rough_profiles(7, N + 1, n_r).T  # radius-major source modes
    rB = rough_profiles(8, N, n_r).T
    neg = slice(N - 1, half - 1, -1)
    return {
        "cauchy-reflect": [
            (B[:, 1:half], slice(0, half - 1), False),
            (B[:, N:half:-1], slice(1, half + 1), True),
        ],
        "green": [
            (rB[:, :1], slice(0, 1), True),
            (B[:, 1:half], slice(2, half + 1), True),
            (B[:, neg], slice(2, half + 2), True),
            (rB[:, 1:half], slice(1, half), False),
            (rB[:, neg], slice(1, half + 1), False),
        ],
    }


@pytest.mark.parametrize("layout", ["cauchy-reflect", "green"])
@pytest.mark.parametrize("n_theta, n_r", [(32, 32), (64, 48), (256, 256)], ids=["32", "64x48", "256"])
def test_one_sweep_equals_blocks_swept_alone(n_theta, n_r, layout):
    """Columns do not interact: one sweep over a mixed set of blocks equals,
    bit for bit, each block swept alone, and every column equals explicit
    cumulative sums of its cell integrals scaled by node-radius powers, no
    recurrence, to 1e-13 of the column's largest value.  The same blocks
    with every direction turned are a second layout on the same engine."""
    eng = RadialEngine(n_r, n_theta // 2 + 2)
    rho = np.arange(1.0, n_r + 1)  # node radii over h
    for turn in (False, True):
        blocks = [(P, e, inner != turn) for P, e, inner in sweep_layouts(n_theta, n_r)[layout]]
        X = eng.sweep(blocks)
        c = 0
        for P, e, inner in blocks:
            cols = slice(c, c + P.shape[1])
            c = cols.stop
            assert np.array_equal(X[:, cols], eng.sweep([(P, e, inner)]))
            got = X[:, cols] if inner else X[::-1, cols]
            # row i: cell i (inner) or cell i + 1 (outer), normalized at rho_{i+1}
            cells = np.empty(P.shape, dtype=complex)
            eng._cell_integrals(eng.w_in if inner else eng.w_out, P, e, cells, skip_origin=not inner)
            if not inner:
                cells[-1] = 0.0
            # scale[j, i]: (rho_{i+1}/rho_{j+1})^a over i <= j, or its inverse over i >= j
            ratio = rho[None, :] / rho[:, None] if inner else rho[:, None] / rho[None, :]
            keep = np.tri(n_r, dtype=bool) if inner else np.tri(n_r, dtype=bool).T
            ref = np.empty_like(cells)
            for m, a in enumerate(np.arange(eng.a_max + 1)[e]):
                with np.errstate(over="ignore"):  # the half masked out
                    ref[:, m] = np.where(keep, ratio**a, 0.0) @ cells[:, m]
            err = np.max(np.abs(got - ref), axis=0) / np.max(np.abs(ref), axis=0)
            assert np.max(err) < 1e-13, (inner, np.max(err))
