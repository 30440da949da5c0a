"""Radial product quadrature for the per-mode kernel integrals.

Every kernel in the disk transforms (Cauchy, Beurling, reflection, Green)
diagonalizes over angular modes, leaving cumulative radial integrals of
the form

    S_a(r) = int_0^r  f(rho) (rho/r)^a drho        (inner),
    T_b(r) = int_r^1  f(rho) (r/rho)^b drho        (outer),

with mode-dependent integer exponents up to n_theta/2 + 2.  The kernels
vary by many orders of magnitude across a single radial cell for large
exponents, so node-based quadrature of the product is hopeless.  Instead
each cell carries the local cubic interpolant of f and the kernel is
integrated exactly against it (moments computed by a 24-node Gauss-
Legendre rule after an exponential substitution that flattens the kernel).
The 24-node rule is as accurate as a 48-node one: both stay within 1e-13
of mpmath, relative to each cell's largest moment, and 24 nodes carry less
roundoff (see `_GL_NODES`); 16 nodes would leave errors near 2e-8.
On whole cells that substitution puts the nodes at the same places for
every exponent, so the engine's tables take the moments of a block of
cells and all exponents from one exp and one batched matmul on shared
nodes (`_whole_cell_moments`); the one general rule, `_moments`, serves
the partial cells at off-node radii and the pairs the shared nodes do
not cover (the origin cell, exponent 0 and the capped pairs).

The cubic of cell i is a fixed linear map of the four node values of its
stencil, and every integral folds that map into its moments:
W[s, i, a] = h sum_q nu[a, i, q] coeff_maps[i, q, s] is the weight of
stencil node s in the integral over cell i.  Whole cells are folded when
the engine is built (both kernels per exponent, and rho log rho for the
Green potential's mode 0); a call contracts node values with W[:, :, a_m]
by four shifted slices.  At arbitrary radii, node radii read the sweep;
only a radius inside a cell folds its partial-cell moments onto that
cell's nodes.  No transform forms the cubics.  Cumulation uses
recurrences whose scaling factors are powers of ratios <= 1 (tabulated
once per engine), so nothing overflows no matter the exponent.  The full
integral int_0^1 f rho^a drho needs no recurrence: its node weights (the
inner weights times ((i+1)/n_r)^a <= 1, summed onto the stencil nodes)
are tabulated too, and it is one dot product per mode.

Layout: the engine computes radius-major, on (n_r, M) arrays whose
columns are node profiles, the layout `np.fft.fft(values, axis=1)` gives
the transforms.  Every table keeps the exponent on its last axis, so the
weights of a run of consecutive exponents are a view and no table is
gathered per call; C +- R and the Green potential order their source
columns so that every run ascends.  numpy's ufuncs run several times
slower on column slices, so a cell contraction copies its source rows
chunk by chunk to contiguous scratch.  `RadialEngine.sweep` lays all of
its column blocks side by side in one (n_r, sum M) array, the outward
blocks radius-reversed: one Python loop steps both recurrences through
the same rows at one multiply and one add a node.  `cumulative_in`,
`cumulative_out` and `full_moment` keep their (M, n_r) interface by
passing transposed views.
"""

from __future__ import annotations

import numpy as np

# Gauss-Legendre nodes of the moment rule.  Against mpmath on whole cells
# (inner and outer, cells 1 to 255 and exponents 1 to 130 sampled), the
# worst moment error relative to its cell's largest moment is 2.6e-14 with
# 24 nodes, 8.2e-14 with 48 (more roundoff, no less truncation) and 2e-8
# with 16: 24 is the smallest rule that keeps the tables at rounding level.
_GL_NODES = 24
_Y_CAP = 45.0  # kernel factor e^{-y}; beyond this the tail is below 3e-20
# floats of kernel weights per block of cells when the engine builds its
# tables: the (cells, nodes, exponents) buffer stays near 1 MB at any size
_BLOCK_FLOATS = 1 << 17
# elements of a cell contraction's scratch chunk: 128 KB of complex, so
# the chunk's source rows, sum and product stay in cache
_CHUNK = 1 << 13

_GL_REF = np.polynomial.legendre.leggauss(_GL_NODES)
_Q = np.arange(4.0)


def _moments(i, x0, x1, e, inner: bool) -> np.ndarray:
    """nu_q = int_{x0}^{x1} x^q K(x) dx, q = 0..3, x local in cell i.

    K = ((i+x)/(i+x1))^e for inner integrals and ((i+x0)/(i+x))^e for
    outer ones: 1 at one end of [x0, x1] and decaying away from it.  The
    substitution y = e |log((i+x)/anchor)| flattens K to e^{-y}, and
    Gauss-Legendre runs in y up to _Y_CAP.  Closed forms cover e = 0 and
    the inner cell touching the origin (i + x0 = 0), where K = (x/x1)^e.
    Cells, bounds and exponents broadcast; q is a trailing axis.
    """
    i, x0, x1, e = (np.asarray(v, dtype=float)[..., None] for v in (i, x0, x1, e))
    lo, hi = i + x0, i + x1
    origin = lo == 0.0
    es = np.where(e > 0.0, e, 1.0)
    xr, wr = _GL_REF
    half = 0.5 * np.minimum(es * np.log(hi / np.where(origin, hi, lo)), _Y_CAP)
    # three node buffers, filled in place in the operation order of the
    # formulas noted; ratio = (i+x)/anchor = e^{-+y/e}
    base = half * -(xr + 1.0)  # -y
    if inner:  # x = max(hi ratio - i, x0), |dx/dy| = (hi/e) ratio
        ratio = base / es
        np.exp(ratio, out=ratio)
        x = hi * ratio
        x -= i
        np.maximum(x, x0, out=x)
        jac = hi / es
    else:  # x = min(lo expm1(y/e) + x0, x1), |dx/dy| = (lo/e) ratio
        ratio = base / -es
        x = np.expm1(ratio)
        x *= lo
        x += x0
        np.minimum(x, x1, out=x)
        np.exp(ratio, out=ratio)
        jac = lo / es
    np.exp(base, out=base)  # base = e^{-y} |dx/dy| w_y
    base *= jac
    base *= ratio
    base *= np.multiply(half, wr, out=ratio)
    nu = np.empty(base.shape[:-1] + (4,))
    nu[..., 0] = np.add.reduce(base, axis=-1)
    nu[..., 1] = np.add.reduce(np.multiply(x, base, out=ratio), axis=-1)
    x2 = np.multiply(x, x, out=ratio)
    np.multiply(x2, x, out=x)
    nu[..., 2] = np.add.reduce(np.multiply(x2, base, out=x2), axis=-1)
    nu[..., 3] = np.add.reduce(np.multiply(x, base, out=x), axis=-1)
    if inner:
        nu = np.where(origin, x1 ** (_Q + 1.0) / (_Q + e + 1.0), nu)
    return np.where(e == 0.0, (x1 ** (_Q + 1.0) - x0 ** (_Q + 1.0)) / (_Q + 1.0), nu)


def _whole_cell_moments(cells, exps, inner: bool) -> np.ndarray:
    """nu[i, e, q] = `_moments`(cells[i], 0, 1, exps[e], inner), (cells, exps, 4).

    On a whole cell with the cap inactive (e log((i+1)/i) <= _Y_CAP),
    `_moments`' Gauss nodes sit at y/e = t_k = L (1 + x_k)/2, L =
    log((i+1)/i), whatever the exponent: the node positions and the
    Jacobian's L (i+1)/2 (inner) or L i/2 (outer) are shared, and only the
    kernel weight e^{-(e+1) t_k} (inner) or e^{-(e-1) t_k} (outer) moves.
    So nu is one exp of a (cells, nodes, exps) block and one batched
    matmul with the (cells, q, nodes) table of w_k x_k^q times that
    factor.  `_moments` fills the pairs this form does not cover: the
    origin cell, e = 0 and the capped pairs.  The result is a view of a
    (cells, q, exps) array.
    """
    xr, wr = _GL_REF
    lo = cells[:, None]
    hi = lo + 1.0
    origin = lo == 0.0
    # L formed as `_moments` forms it, so both agree on the capped pairs; 0 at the origin
    span = np.log(hi / np.where(origin, hi, lo))
    t = 0.5 * span * (xr + 1.0)
    if inner:  # i + x = (i+1) e^{-t}
        x = np.maximum(hi * np.exp(-t) - lo, 0.0)
        scale, shift = 0.5 * hi * span, 1.0
    else:  # i + x = i e^{t}
        x = np.minimum(lo * np.expm1(t), 1.0)
        scale, shift = 0.5 * lo * span, -1.0
    node_moments = (wr * scale)[:, None, :] * x[:, None, :] ** _Q[:, None]  # (cells, q, k)
    kernel = np.multiply(t[:, :, None], -(exps + shift))  # (cells, k, exps)
    nu = np.matmul(node_moments, np.exp(kernel, out=kernel)).transpose(0, 2, 1)
    ci, ei = np.nonzero((exps * span > _Y_CAP) | (exps == 0.0) | origin)
    nu[ci, ei] = _moments(cells[ci], 0.0, 1.0, exps[ei], inner)
    return nu


def _stencil_data(n_r: int):
    """Cubic-interpolation stencils per cell in local coordinates.

    Cell i spans [rho_i, rho_{i+1}] with rho_i = i*h (rho_0 = 0 holds no
    data; its cubic extrapolates the first four nodes).  Returns the
    (n_cells, 4) gather indices into the node values and the (n_cells,
    4, 4) coefficient matrices mapping stencil values to monomial
    coefficients in x = rho/h - i, x in [0, 1].
    """
    cells = np.arange(n_r)
    start = np.clip(cells - 2, 0, n_r - 4)
    gather = start[:, None] + np.arange(4)[None, :]
    delta = start + 1 - cells  # leftmost stencil node in local coordinates
    # only four offsets occur: 1 and 0 (cells 0, 1), -1 (inner), -2 (last)
    xs = np.arange(-2.0, 2.0)[:, None] + np.arange(4.0)[None, :]
    inv = np.linalg.inv(xs[:, :, None] ** np.arange(4)[None, None, :])
    coeff_maps = inv[delta + 2]  # (n_cells, 4, 4): q <- node
    return gather, coeff_maps


class RadialEngine:
    """Cached stencils and folded kernel weights for one radial grid size.

    The tables are radius-major with the exponent last, W[s, i, a] and
    ratio[j, a], so that the weights of a run of consecutive exponents
    (ascending or descending) are a view: the transforms order their mode
    columns that way and never copy a table.
    """

    def __init__(self, n_r: int, a_max: int):
        self.n_r = n_r
        self.a_max = a_max
        self.h = 1.0 / n_r
        self.gather, self.coeff_maps = _stencil_data(n_r)
        cells = np.arange(n_r, dtype=float)
        exps = np.arange(a_max + 1.0)
        maps = self.h * self.coeff_maps
        maps_t = maps.transpose(0, 2, 1)  # (cell, s, q)
        block = max(1, _BLOCK_FLOATS // ((a_max + 1) * _GL_NODES))

        def fold(inner: bool) -> np.ndarray:
            """W[s, i, a] = sum_q maps[i, q, s] nu[i, a, q], one matmul per block of cells."""
            w = np.empty((4, n_r, a_max + 1))
            by_cell = w.transpose(1, 0, 2)  # (cell, s, exponent)
            for b in range(0, n_r, block):
                cut = slice(b, b + block)
                nu = _whole_cell_moments(cells[cut], exps, inner)
                np.matmul(maps_t[cut], nu.transpose(0, 2, 1), out=by_cell[cut])
            return w

        self.w_in = fold(True)
        self.w_out = fold(False)
        self.w_out[:, 0] = 0.0  # the cell touching the origin has no outer part
        # S at r = 1 is sum_i c_i ((i+1)/n_r)^a; summed onto the stencil nodes
        reach = np.power(((cells + 1.0) / n_r)[:, None], exps[None, :])
        part = self.w_in * reach
        self.w_full = np.zeros((n_r, a_max + 1))
        for s in range(4):  # the stencil layout of `_cell_integrals`
            self.w_full[s : n_r - 3 + s] += part[s, 2:-1]
        self.w_full[:4] += part[:, 0] + part[:, 1]
        self.w_full[-4:] += part[:, -1]
        # rho log rho = h (i+x) (log h + log(i+x)), so cell i's moments are
        # h (log h int x^q (i+x) dx + int x^q (i+x) log(i+x) dx): the first
        # in closed form, the second by Gauss-Legendre (cells i >= 1; the
        # origin cell is never an outer cell); a table of one exponent
        xr, wr = _GL_REF
        x = 0.5 * (xr + 1.0)
        ix = cells[1:, None] + x
        log_mom = np.zeros((n_r, 4))
        log_mom[1:] = (ix * np.log(ix) * (0.5 * wr)) @ x[:, None] ** _Q
        rholog = np.log(self.h) * (cells[:, None] / (_Q + 1.0) + 1.0 / (_Q + 2.0)) + log_mom
        self.w_rholog = np.empty((4, n_r, 1))
        np.matmul(rholog[:, None], self.h * maps, out=self.w_rholog.transpose(1, 2, 0))
        # node ratio (rho_{j+1}/rho_{j+2})^a of both recurrences, (n_r - 1, a)
        j = np.arange(1.0, n_r)
        self.ratio = np.power((j / (j + 1.0))[:, None], exps[None, :])
        self._ratio_tables: dict[str, np.ndarray] = {}

    def cell_coeffs(self, profiles: np.ndarray) -> np.ndarray:
        """Local cubic coefficients, (M, n_cells, 4), profiles (M, n_r); the tests' reference."""
        vals = profiles[:, self.gather]  # (M, n_cells, 4)
        return np.einsum("iqs,mis->miq", self.coeff_maps, vals)

    def cumulative_out_rholog(self, profiles: np.ndarray) -> np.ndarray:
        """T[m, j] = int_{rho_{j+1}}^1 prof_m(rho) rho log(rho) drho.

        The rho log rho factor is integrated exactly against the local
        cubics; interpolating through the log would leave a rough error
        that discrete Laplacians amplify.
        """
        P = np.asarray(profiles).T
        T = np.empty(P.shape, dtype=np.result_type(P, float))
        # row j holds cell j + 1; T[j] sums the rows from j to the rim
        self._cell_integrals(self.w_rholog, P, slice(None), T, skip_origin=True)
        T[-1] = 0.0
        np.cumsum(T[-2::-1], axis=0, out=T[-2::-1])
        return T.T

    def _exp_index(self, exps) -> slice | np.ndarray:
        """Exponent index into the tables: a slice when the exponents step
        by a constant, so that the weights are views, else the array."""
        exps = np.asarray(exps)
        if exps.size and (exps.min() < 0 or exps.max() > self.a_max):
            raise ValueError("exponent outside the cached table range")
        if exps.size > 1:
            step = int(exps[1] - exps[0])
            if step and np.all(np.diff(exps) == step):
                stop = int(exps[-1]) + step
                return slice(int(exps[0]), stop if stop >= 0 else None, step)
        return exps

    def _cell_integrals(self, table, P, e, out, skip_origin=False) -> np.ndarray:
        """out[i, m] = sum_s table[s, i, e_m] P[gather[i, s], m], radius-major.

        P is (n_r, M), column m a node profile with exponent e_m (a table
        of one exponent, e = slice(None), serves every column).  Four
        shifted slices for the cells whose stencil starts at i - 2; cells
        0 and 1 share nodes 0..3 and the last cell takes the last four
        nodes (the layout of `_stencil_data`).  With
        skip_origin, row i of out holds cell i + 1 and the last row is
        left alone.
        """
        w = table[:, :, e]
        n = self.n_r
        k = int(skip_origin)
        # ufuncs run several times faster on contiguous rows: each chunk of
        # cells copies its source rows and sums in scratch (see `_CHUNK`)
        step = max(1, _CHUNK // P.shape[1])
        mid = np.empty((min(step, n - 3), P.shape[1]), np.result_type(P, table))
        tmp = np.empty_like(mid)
        for a in range(0, n - 3, step):
            rows = np.ascontiguousarray(P[a : a + step + 3])
            m = len(rows) - 3
            cells = slice(a + 2, a + 2 + m)
            acc = np.multiply(w[0, cells], rows[:m], out=mid[:m])
            for s in range(1, 4):
                acc += np.multiply(w[s, cells], rows[s : s + m], out=tmp[:m])
            out[a + 2 - k : a + 2 - k + m] = acc
        out[: 2 - k] = np.einsum("sim,sm->im", w[:, k:2], P[:4])
        out[n - 1 - k] = np.einsum("sm,sm->m", w[:, -1], P[-4:])
        return out

    def _ratios(self, blocks) -> np.ndarray:
        """Node ratios of a sweep's layout, (n_r - 1, sum M): row t - 1
        scales row t - 1 into row t, ratio[t - 1, e] for an inward block
        and ratio[n_r - 1 - t, e] for an outward one.  One block reads a
        view; the table of several is built once per layout."""
        if len(blocks) == 1:
            ((_, e, inner),) = blocks
            return self.ratio[:, e] if inner else self.ratio[::-1, e]
        key = str([(e if isinstance(e, slice) else e.tolist(), inner) for _, e, inner in blocks])
        if key not in self._ratio_tables:
            self._ratio_tables[key] = np.concatenate([self._ratios([b]) for b in blocks], axis=1)
        return self._ratio_tables[key]

    def sweep(self, blocks, out=None) -> np.ndarray:
        """Cumulative integrals of several column blocks in one radial pass.

        Each block is (P, e, inner): radius-major node profiles P (n_r, M),
        their exponent index (see `_exp_index`) and the direction, S from
        the origin out (inner) or T from the rim in.  Returns one (n_r,
        sum M) array, the blocks' columns side by side in order: an inward
        block's rows are S at rho_1, ..., rho_{n_r}, an outward block's are
        T radius-reversed, so X[::-1, cols] reads T at rho_1, ...  Both
        recurrences then step through the same rows, and one Python loop
        costs one multiply and one add per node, scaled by the node ratios
        <= 1 of `_ratios`.  `out`, an array of that shape whose rows are
        contiguous and which no P overlaps, takes the result when given.
        """
        if out is None:
            shape = (self.n_r, sum(P.shape[1] for P, _, _ in blocks))
            out = np.empty(shape, np.result_type(*(P for P, _, _ in blocks), float))
        X = out
        c = 0
        for P, e, inner in blocks:
            cols = X[:, c : c + P.shape[1]]
            c += P.shape[1]
            if inner:
                self._cell_integrals(self.w_in, P, e, cols)
            else:
                # row n - 1 - j holds cell j + 1; row 0 is T at the rim
                self._cell_integrals(self.w_out, P, e, cols[::-1], skip_origin=True)
                cols[0] = 0.0
        tmp = np.empty(X.shape[1], X.dtype)
        rows = list(X)
        for q, prev, row in zip(self._ratios(blocks), rows, rows[1:]):
            row += np.multiply(q, prev, out=tmp)
        return X

    def _cumulative(self, profiles, exps, inner: bool) -> np.ndarray:
        P = np.asarray(profiles).T
        X = self.sweep([(P, self._exp_index(exps), inner)])
        return (X if inner else X[::-1]).T

    def cumulative_in(self, profiles: np.ndarray, exps: np.ndarray) -> np.ndarray:
        """S[m, j] = int_0^{rho_{j+1}} prof_m(rho) (rho/rho_{j+1})^{a_m} drho."""
        return self._cumulative(profiles, exps, True)

    def cumulative_out(self, profiles: np.ndarray, exps: np.ndarray) -> np.ndarray:
        """T[m, j] = int_{rho_{j+1}}^1 prof_m(rho) (rho_{j+1}/rho)^{b_m} drho."""
        return self._cumulative(profiles, exps, False)

    def full_moments(self, P: np.ndarray, e) -> np.ndarray:
        """int_0^1 P[:, m](rho) rho^{e_m} drho for radius-major P (n_r, M)."""
        return np.einsum("jm,jm->m", self.w_full[:, e], P)

    def full_moment(self, profiles: np.ndarray, exps: np.ndarray) -> np.ndarray:
        """int_0^1 prof_m(rho) rho^{a_m} drho (kernel normalized at r=1)."""
        return self.full_moments(np.asarray(profiles).T, self._exp_index(exps))

    def _partial(self, profiles, exps, targets, inner: bool):
        """Each target's cell and local position x, and h int prof K over
        [0, x] (inner) or [x, 1] (outer) of that cell, (M, targets)."""
        pos = np.asarray(targets, dtype=float) / self.h
        cell = np.minimum(np.floor(pos + 1e-9).astype(int), self.n_r - 1)
        x = pos - cell
        x0, x1 = (0.0, x) if inner else (x, 1.0)
        nu = _moments(cell, x0, x1, exps[:, None], inner)
        # fold each target's moments onto its own cell's stencil nodes
        w = np.matmul(nu[:, :, None], self.h * self.coeff_maps[cell])[:, :, 0]
        vals = np.asarray(profiles)[:, self.gather[cell]]
        return cell, x, np.einsum("mks,mks->mk", w, vals)

    def _at(self, profiles, exps, targets, inner: bool) -> np.ndarray:
        """S (inner) or T at radii in (0, 1]: node radii read the sweep, others
        scale a node of their cell by (smaller / larger radius)^e and add the partial cell."""
        t = np.asarray(targets, dtype=float)
        if not np.all((t > 0.0) & (t <= 1.0)):
            raise ValueError("target radii must lie in (0, 1]")
        node = (self.cumulative_in if inner else self.cumulative_out)(profiles, exps)
        k = np.floor(t / self.h + 1e-9).astype(int)
        off = (t / self.h - k >= 1e-9) | (k == 0)
        out = node[:, k - 1]  # column j of the sweep is radius rho_{j+1}
        if np.any(off):
            cell, x, part = self._partial(profiles, exps, t[off], inner)
            # the node at the cell's inner (S) or outer (T) end; T is 0 at r = 1
            j = cell + (not inner)
            ratio = np.minimum(j, cell + x) / np.maximum(j, cell + x)
            at_j = np.where(j >= 1, node[:, j - 1], 0.0)
            out[:, off] = np.power(ratio, exps[:, None].astype(float)) * at_j + part
        return out

    def cumulative_in_at(self, profiles, exps, targets) -> np.ndarray:
        """S at arbitrary radii in (0, 1], shape (M, len(targets))."""
        return self._at(profiles, exps, targets, True)

    def cumulative_out_at(self, profiles, exps, targets) -> np.ndarray:
        """T at arbitrary radii in (0, 1], shape (M, len(targets))."""
        return self._at(profiles, exps, targets, False)


# a nested Riesz solve uses one engine per level, coarsest first: a
# cache smaller than its chain (five engines at 512^2, 512 down to 32)
# would evict every engine before its next use
_MAX_ENGINES = 8
# least recently used first: a hit moves its engine to the end
_ENGINES: dict[tuple[int, int], RadialEngine] = {}


def get_engine(n_r: int, a_max: int) -> RadialEngine:
    key = (n_r, a_max)
    eng = _ENGINES.pop(key, None)
    if eng is None:
        eng = RadialEngine(n_r, a_max)
        if len(_ENGINES) >= _MAX_ENGINES:
            del _ENGINES[next(iter(_ENGINES))]
    _ENGINES[key] = eng
    return eng
