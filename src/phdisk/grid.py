"""Polar discretization of the closed unit disk.

Nodes are the tensor product of uniform angles theta_k = 2*pi*k/n_theta
(n_theta a power of two, so angular work is spectral) and radii
r_j = j/n_r, j = 1..n_r.  The origin is excluded (coordinate singularity)
and r = 1 is kept as an explicit boundary ring, so traces and Hardy-type
suprema over interior circles are exact grid objects.

Radial quadrature weights integrate f |-> int_0^1 f(r) r dr with the
Jacobian folded in; the rule (composite Simpson, 3/8 closure for odd n_r)
is exact for radial polynomials of degree <= 2, which the area-integral
contract requires.  Functions may carry a mask for isolated singular
nodes; integrals over masked nodes raise instead of silently skipping.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiskGrid",
    "GridFunction",
    "BoundaryFunction",
    "Cone",
    "MaskedValueError",
    "make_grid",
    "area_integral",
    "lp_norm_disk",
    "circle_norm",
    "hardy_norm",
    "wirtinger_derivatives",
    "laplacian",
    "sobolev_norm",
    "w12_norm",
    "boundary_trace",
    "nontangential_max",
]


class MaskedValueError(ValueError):
    """Raised when an operation meets masked (singular) nodes it cannot use."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _node_index(value: float, nodes: np.ndarray, step: float, first: int, what: str) -> int:
    """Index j of value among the nodes (j + first) * step, to 1e-12, else
    a ValueError naming value (NaN and inf included)."""
    k = float(value) / step
    if math.isfinite(k):
        j = round(k) - first
        if 0 <= j < len(nodes) and abs(nodes[j] - value) <= 1e-12:
            return j
    raise ValueError(f"{what} {value} is not on the grid")


def _simpson_coeffs(n_cells: int) -> np.ndarray:
    """Newton-Cotes coefficients on nodes 0..n_cells, exact for cubics."""
    if n_cells < 2:
        raise ValueError("need at least 2 radial cells")
    w = np.zeros(n_cells + 1)
    if n_cells % 2 == 0:
        w[0] = w[-1] = 1.0 / 3.0
        w[1:-1:2] = 4.0 / 3.0
        w[2:-1:2] = 2.0 / 3.0
    elif n_cells == 3:
        w[:] = [3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0]
    else:
        # Simpson on the first n_cells-3 cells, 3/8 rule on the last three.
        head = _simpson_coeffs(n_cells - 3)
        w[: n_cells - 2] = head
        w[n_cells - 3] += 3.0 / 8.0
        w[n_cells - 2 :] = [9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0]
    return w


class DiskGrid:
    """Polar tensor grid on the disk of radius `outer_radius` (default 1).

    Attributes
    ----------
    n_theta, n_r : grid sizes (angles, radii)
    thetas : angles theta_k = 2*pi*k/n_theta
    radii : radii r_j = outer_radius * j/n_r, j = 1..n_r (r=0 excluded)
    radial_weights : weights w_j with sum_j w_j f(r_j) ~ int_0^R f(r) r dr
    boundary_ring_index : index (n_r - 1) of the circle r = outer_radius
    """

    def __init__(self, n_theta: int, n_r: int, outer_radius: float = 1.0):
        for name, n in (("n_theta", n_theta), ("n_r", n_r)):
            if not isinstance(n, numbers.Integral):
                raise ValueError(f"{name} must be an integer (got {n!r})")
        if not _is_power_of_two(n_theta) or n_theta < 8:
            raise ValueError(
                f"n_theta must be a power of two >= 8 (got {n_theta}); "
                "angular transforms are spectral"
            )
        if n_r < 4:
            raise ValueError(f"n_r must be >= 4 (got {n_r})")
        if not 1.0 <= outer_radius < math.inf:
            raise ValueError(f"outer_radius must be finite and >= 1 (got {outer_radius!r})")
        self.n_theta = int(n_theta)
        self.n_r = int(n_r)
        self.outer_radius = float(outer_radius)
        self.thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
        h = outer_radius / n_r
        self.radial_step = h
        self.radii = h * np.arange(1, n_r + 1)
        # node j carries Simpson coefficient times h times the r dr Jacobian;
        # the virtual node r=0 contributes nothing since the integrand f(r)*r
        # vanishes there.
        coeffs = _simpson_coeffs(n_r)
        self.radial_weights = coeffs[1:] * h * self.radii
        self.boundary_ring_index = n_r - 1
        self.mode_numbers = np.fft.fftfreq(n_theta, 1.0 / n_theta).astype(int)
        for arr in (self.thetas, self.radii, self.radial_weights, self.mode_numbers):
            arr.setflags(write=False)

    @functools.cached_property
    def mode_powers(self) -> np.ndarray:
        """r_j^{|n|} per radius and angular mode (FFT order), (n_r, n_theta).

        Built on first use and kept with the grid: harmonic extension and
        the reflection transform scale mode n by it.
        """
        powers = np.power(self.radii[:, None], np.abs(self.mode_numbers)[None, :].astype(float))
        powers.setflags(write=False)
        return powers

    def nodes_z(self) -> np.ndarray:
        """Complex node positions, shape (n_r, n_theta)."""
        return self.radii[:, None] * np.exp(1j * self.thetas[None, :])

    def area_weights(self) -> np.ndarray:
        """Per-node quadrature weights for int f dm, shape (n_r, n_theta)."""
        dtheta = 2.0 * np.pi / self.n_theta
        return np.broadcast_to(
            self.radial_weights[:, None] * dtheta, (self.n_r, self.n_theta)
        )

    def interior_weights_upto(self, r_max: float) -> tuple[np.ndarray, int]:
        """Radial weights for the subdisk r <= r_max (largest node K below it).

        Returns (weights over nodes 0..K, K).  Used for norms on D_{0.9},
        where one-sided rim stencils are excluded by contract.
        """
        K = int(math.floor(r_max / self.radial_step + 1e-12))
        K = min(K, self.n_r)
        if K < 4:
            raise ValueError("r_max too small for this grid")
        coeffs = _simpson_coeffs(K)
        return coeffs[1:] * self.radial_step * self.radii[:K], K

    def radius_index(self, rho: float) -> int:
        """Row of the grid radius rho, else a ValueError naming rho."""
        return _node_index(rho, self.radii, self.radial_step, 1, "radius")

    def angle_index(self, theta: float) -> int:
        """Column of the grid angle theta in [0, 2 pi), else a ValueError naming theta."""
        return _node_index(theta, self.thetas, 2.0 * np.pi / self.n_theta, 0, "angle")

    def same_as(self, other: "DiskGrid") -> bool:
        return (
            self.n_theta == other.n_theta
            and self.n_r == other.n_r
            and self.outer_radius == other.outer_radius
        )

    def __repr__(self) -> str:  # pragma: no cover
        extra = f", outer_radius={self.outer_radius}" if self.outer_radius != 1.0 else ""
        return f"DiskGrid(n_theta={self.n_theta}, n_r={self.n_r}{extra})"


def make_grid(n_theta: int, n_r: int, outer_radius: float = 1.0) -> DiskGrid:
    """Build the polar grid; rejects non-power-of-two n_theta."""
    return DiskGrid(n_theta, n_r, outer_radius)


class _Samples:
    """Complex samples with a mask of singular nodes.

    The contract shared by GridFunction and BoundaryFunction: non-finite
    values are masked and stored as 0, an operation that needs every value
    raises MaskedValueError, and arithmetic joins the operands' masks.
    Subclasses provide `with_values` and `_check_match`, the test that
    two operands sample the same nodes.
    """

    _nodes = "nodes"  # what require_unmasked calls the samples

    def _store(self, values: np.ndarray, mask) -> None:
        if mask is None and not np.all(np.isfinite(values)):
            mask = ~np.isfinite(values)
        self.mask = None if mask is None or not np.any(mask) else np.asarray(mask, bool)
        self.values = values if self.mask is None else np.where(self.mask, 0.0, values)

    def require_unmasked(self, what: str) -> np.ndarray:
        if self.mask is not None:
            raise MaskedValueError(f"{what} over masked {self._nodes} is not defined")
        return self.values

    def _apply(self, op, other):
        if isinstance(other, type(self)):
            self._check_match(other)
            return self.with_values(op(self.values, other.values), _join(self, other))
        return self.with_values(op(self.values, other), self.mask)

    def __add__(self, other):
        return self._apply(np.add, other)

    def __sub__(self, other):
        return self._apply(np.subtract, other)

    def __mul__(self, other):
        return self._apply(np.multiply, other)

    __rmul__ = __mul__

    def __neg__(self):
        return self.with_values(-self.values, self.mask)


class GridFunction(_Samples):
    """Complex samples of a function on a DiskGrid, optionally masked."""

    def __init__(self, grid: DiskGrid, values: np.ndarray, mask: np.ndarray | None = None):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.n_r, grid.n_theta):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({grid.n_r}, {grid.n_theta})"
            )
        self.grid = grid
        self._store(values, mask)

    @classmethod
    def from_function(cls, grid: DiskGrid, fn) -> "GridFunction":
        """Sample fn(z); non-finite values become masked nodes."""
        with np.errstate(all="ignore"):
            vals = np.asarray(fn(grid.nodes_z()), dtype=complex)
        vals = np.broadcast_to(vals, (grid.n_r, grid.n_theta)).copy()
        return cls(grid, vals)

    @classmethod
    def constant(cls, grid: DiskGrid, c: complex) -> "GridFunction":
        return cls(grid, np.full((grid.n_r, grid.n_theta), c, dtype=complex))

    @classmethod
    def zeros(cls, grid: DiskGrid) -> "GridFunction":
        return cls(grid, np.zeros((grid.n_r, grid.n_theta), dtype=complex))

    def with_values(self, values: np.ndarray, mask=None) -> "GridFunction":
        return GridFunction(self.grid, values, mask)

    def _check_match(self, other: "GridFunction") -> None:
        if not self.grid.same_as(other.grid):
            raise ValueError("grid mismatch between operands")

    def conj(self) -> "GridFunction":
        return GridFunction(self.grid, np.conj(self.values), self.mask)

    def __repr__(self) -> str:  # pragma: no cover
        m = ", masked" if self.mask is not None else ""
        return f"GridFunction({self.grid!r}{m})"


def _join(a, b):
    """Union of the masks of two GridFunctions or two BoundaryFunctions."""
    if a.mask is None and b.mask is None:
        return None
    out = np.zeros(a.values.shape, bool)
    if a.mask is not None:
        out |= a.mask
    if b.mask is not None:
        out |= b.mask
    return out


class BoundaryFunction(_Samples):
    """Complex samples on the unit circle at angles theta_k = 2*pi*k/n_theta."""

    _nodes = "boundary nodes"

    def __init__(self, values: np.ndarray, mask: np.ndarray | None = None):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 1 or not _is_power_of_two(values.size) or values.size < 8:
            raise ValueError("boundary values must be 1-D with power-of-two length >= 8")
        self._store(values, mask)
        self.n_theta = values.size
        self.thetas = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta
        self.mode_numbers = np.fft.fftfreq(self.n_theta, 1.0 / self.n_theta).astype(int)

    @classmethod
    def from_function(cls, n_theta: int, fn) -> "BoundaryFunction":
        thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
        with np.errstate(all="ignore"):
            vals = np.asarray(fn(thetas), dtype=complex)
        return cls(np.broadcast_to(vals, (n_theta,)).copy())

    @classmethod
    def zeros(cls, n_theta: int) -> "BoundaryFunction":
        return cls(np.zeros(n_theta, dtype=complex))

    def with_values(self, values: np.ndarray, mask=None) -> "BoundaryFunction":
        return BoundaryFunction(values, mask)

    def _check_match(self, other: "BoundaryFunction") -> None:
        if self.n_theta != other.n_theta:
            raise ValueError(
                f"boundary length mismatch between operands ({self.n_theta} and {other.n_theta} samples)"
            )

    def modes(self) -> np.ndarray:
        """Fourier coefficients (DFT of values / n_theta), FFT order."""
        return np.fft.fft(self.require_unmasked("Fourier transform")) / self.n_theta

    def mean(self) -> complex:
        """Arclength mean (1/2pi) int_T."""
        self.require_unmasked("mean")
        return complex(np.mean(self.values))

    def integral(self) -> complex:
        """Arclength integral int_T (measure 2*pi in total)."""
        self.require_unmasked("integral")
        return complex(np.sum(self.values) * 2.0 * np.pi / self.n_theta)

    def lp_norm(self, p: float) -> float:
        """L^p(T) norm with respect to (unnormalized) arclength."""
        v = self.require_unmasked("L^p norm")
        return float(_lp_rows(v[None, :], p)[0] * (2.0 * np.pi / self.n_theta) ** (1.0 / p))


@dataclass(frozen=True)
class Cone:
    """Non-tangential approach region Gamma_{xi,gamma}.

    The region is the union of the closed disk of radius sin(gamma) and the
    bounded component of the open cone with vertex `vertex`, half-opening
    `gamma`, symmetric about the ray through the origin, minus that disk.
    """

    vertex: complex
    gamma: float

    def __post_init__(self):
        if not (0.0 < self.gamma < np.pi / 2):
            raise ValueError("gamma must lie in (0, pi/2)")
        if abs(abs(self.vertex) - 1.0) > 1e-12:
            raise ValueError("cone vertex must lie on the unit circle")

    def contains(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        s = math.sin(self.gamma)
        xi = self.vertex
        core = np.abs(z) <= s + 1e-15
        d = xi - z
        dn = np.abs(d)
        with np.errstate(invalid="ignore", divide="ignore"):
            cosang = np.real(d * np.conj(xi)) / np.where(dn == 0, 1.0, dn)
        in_cone = (dn > 0) & (cosang >= math.cos(self.gamma) - 1e-15)
        # bounded component: the segment [vertex, z] stays outside D_{sin g}
        seg = z - xi
        seg2 = np.abs(seg) ** 2
        t = np.clip(
            -np.real(xi * np.conj(seg)) / np.where(seg2 == 0, 1.0, seg2), 0.0, 1.0
        )
        dist0 = np.abs(xi + t * seg)
        return core | (in_cone & (dist0 > s))


def _lp_rows(v: np.ndarray, p: float) -> np.ndarray:
    """(sum_k |v[j, k]|^p)^{1/p} for each row j of a 2-D array.

    Each row is divided by its largest modulus before the power, as
    np.linalg.norm does, so |v|^p neither overflows nor underflows where
    the norm itself is a finite float.  p must be positive.
    """
    if not p > 0:  # false for NaN as well
        raise ValueError(f"p must be positive (got {p!r})")
    a = np.abs(v)
    top = np.max(a, axis=1)
    a /= np.where(top > 0.0, top, 1.0)[:, None]
    return top * np.sum(a**p, axis=1) ** (1.0 / p)


def _circle_norms(f: GridFunction, rows: slice, p: float) -> np.ndarray:
    """circle_norm on each grid circle of `rows`; masked nodes there raise."""
    if f.mask is not None and np.any(f.mask[rows]):
        raise MaskedValueError("circle norm over masked nodes is not defined")
    g = f.grid
    return _lp_rows(f.values[rows], p) * (g.radii[rows] * (2.0 * np.pi / g.n_theta)) ** (1.0 / p)


def area_integral(f: GridFunction) -> complex:
    """Quadrature for int_D f dm; masked or non-finite nodes raise."""
    v = f.require_unmasked("area integral")
    return complex(np.sum(v * f.grid.area_weights()))


def lp_norm_disk(f: GridFunction, p: float, r_max: float | None = None) -> float:
    """L^p area norm, optionally restricted to the subdisk r <= r_max.

    The restricted quadrature uses a closed composite rule on the radial
    nodes below r_max, so "D_{0.9}" means the disk of the largest grid
    radius not exceeding 0.9.
    """
    v = f.require_unmasked("L^p norm")
    if r_max is None:
        w = f.grid.radial_weights
    else:
        w, K = f.grid.interior_weights_upto(r_max)
        v = v[:K]
    return _ring_norm(v, w, f.grid.n_theta, p)


def _ring_norm(v: np.ndarray, w: np.ndarray, n_theta: int, p: float) -> float:
    """L^p area norm of the rows v, row j carrying radial weight w[j]."""
    # the norm of the per-ring norms, so neither power leaves the floats
    rings = _lp_rows(v, p) * (w * (2.0 * np.pi / n_theta)) ** (1.0 / p)
    return float(_lp_rows(rings[None, :], p)[0])


def _defect_norm(v: np.ndarray, w: np.ndarray, n_theta: int) -> float:
    """L^2 area norm of the rows v, as `_ring_norm`; a non-finite value
    raises MaskedValueError, as it does in lp_norm_disk once masked."""
    if not np.all(np.isfinite(v)):
        raise MaskedValueError("L^p norm over masked nodes is not defined")
    return _ring_norm(v, w, n_theta, 2.0)


def circle_norm(f: GridFunction, rho: float, p: float) -> float:
    """(int_{T_rho} |f|^p |dxi|)^{1/p} on a grid circle, arclength measure.

    The trapezoid rule in theta is accurate only when the angular step
    2 pi/n_theta is small next to the circle's distance to any boundary
    singularity of f.  For f = (z-1)^{-1/2} (p = 2) on the last interior
    ring rho = 1 - 1/n_r, the relative error of the squared norm measured
    15-19% at n_theta = n_r, 0.3% at 4 n_r, 4e-5 at 8 n_r and 1e-8 at 16 n_r
    (n_r = 64 to 256); use n_theta >= 8 n_r for such f.
    """
    j = f.grid.radius_index(rho)
    return float(_circle_norms(f, slice(j, j + 1), p)[0])


def hardy_norm(f: GridFunction, p: float) -> float:
    """Discrete Hardy norm: max of circle_norm over interior grid radii.

    The open-disk supremum is approximated over r_j < 1 only; refinement
    studies stand in for the continuum sup.  Each circle norm carries the
    angular accuracy condition of circle_norm.  For holomorphic f the
    circle means increase with rho, so the sup is taken on the last
    interior ring, at distance 1/n_r from T; if f is singular at a point
    of T this needs n_theta >= 8 n_r.
    """
    return float(np.max(_circle_norms(f, slice(0, f.grid.n_r - 1), p), initial=0.0))


def _fd_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for the given derivative order on integer offsets."""
    n = len(offsets)
    V = np.vander(offsets.astype(float), n, increasing=True).T
    rhs = np.zeros(n)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(V, rhs)


# fourth-order radial differentiation stencils (one-sided closures at the rim)
_FD_INTERIOR = _fd_weights(np.arange(-2, 3), 1)
_FD_FORWARD = _fd_weights(np.arange(0, 5), 1)
_FD_SKEW1 = _fd_weights(np.arange(-1, 4), 1)
_FD2_INTERIOR = _fd_weights(np.arange(-2, 3), 2)
_FD2_FORWARD = _fd_weights(np.arange(0, 6), 2)
_FD2_SKEW1 = _fd_weights(np.arange(-1, 5), 2)


def _apply_radial_stencils(values, interior, forward, skew, mirror_sign, out=None) -> np.ndarray:
    """Apply a 5-point interior stencil with one-sided rim closures.

    mirror_sign is -1 for odd-order derivatives (reversed stencils flip
    sign, and the interior one is antisymmetric, with no centre tap) and
    +1 for even orders (symmetric).  The stencils are real, so they act
    on the real view of complex values.  The interior is shifted-slice
    taps in `out`, paired by that symmetry and nested as
    ((v_{-2} +- v_2) c_0/c_1 + v_{-1} +- v_1) c_1 [+ c_2 v_0] (c_1 and,
    for even orders, c_2 are nonzero), so no scratch array is needed.
    """
    n_r = values.shape[0]
    if n_r < max(5, len(forward)):
        raise ValueError("radial stencils need a deeper grid")
    if out is None:
        out = np.empty(values.shape, dtype=values.dtype)
    v = _real_view(values)
    o = out.view(float) if np.iscomplexobj(out) else out
    nf, ns = len(forward), len(skew)
    o[0] = np.tensordot(forward, v[0:nf], axes=(0, 0))
    o[1] = np.tensordot(skew, v[0:ns], axes=(0, 0))
    pair = np.add if mirror_sign > 0 else np.subtract
    c0, c1, c2 = interior[:3]
    core = pair(v[0 : n_r - 4], v[4:n_r], out=o[2:-2])
    core *= c0 / c1
    core += v[1 : n_r - 3]
    pair(core, v[3 : n_r - 1], out=core)
    if mirror_sign > 0:
        core *= c1 / c2
        core += v[2 : n_r - 2]
        core *= c2
    else:
        core *= c1
    o[-2] = mirror_sign * np.tensordot(skew[::-1], v[-ns:], axes=(0, 0))
    o[-1] = mirror_sign * np.tensordot(forward[::-1], v[-nf:], axes=(0, 0))
    return out


def _real_view(a: np.ndarray) -> np.ndarray:
    """Real and imaginary parts interleaved along the last axis: a view of
    `a` if it is C-contiguous, else of a C-contiguous copy."""
    a = np.ascontiguousarray(a)
    return a.view(float) if np.iscomplexobj(a) else a


def _radial_derivative(values: np.ndarray, h: float) -> np.ndarray:
    out = _apply_radial_stencils(values, _FD_INTERIOR, _FD_FORWARD, _FD_SKEW1, -1.0)
    out /= h
    return out


def _wirtinger_rows(v: np.ndarray, g: DiskGrid, rows: int, d: bool, dbar: bool):
    """(dr, t): d f in dr if `d`, dbar f in t if `dbar`, on grid rows 0..rows-1.

    v holds the values of f on at least min(rows + 2, n_r) rows: the
    radial stencil of a row reads the two rows above it, and only the
    grid's last two rows take the one-sided rim closures.  d =
    e^{-i theta} (f_r - i f_theta / r) / 2 and dbar its conjugate
    counterpart are built in place: f_r in dr, i f_theta / r in the
    angular modes' buffer t, then d over dr and dbar over t (for both,
    one block of rows at a time), so that no other array of their size
    is formed.  A buffer whose derivative was not asked for holds no
    result and is the caller's to reuse.
    """
    need = min(rows + 2, g.n_r)
    if v.shape[0] < need:
        raise ValueError(f"{rows} derivative rows need {need} rows of values")
    dr = _radial_derivative(v[:need], g.radial_step)[:rows]
    # products keep the operand order of the out-of-place formulas, which
    # complex multiplication needs for the same bits
    t = np.fft.fft(v[:rows], axis=1)
    np.multiply(1j * g.mode_numbers, t, out=t)
    np.fft.ifft(t, axis=1, out=t)
    np.multiply(1j * (1.0 / g.radii[:rows, None]), t, out=t)
    if d and dbar:
        # (dr, t) -> (dr - t, dr + t), blocks of about 4096 values
        step = max(1, 4096 // g.n_theta)
        tmp = np.empty((step, g.n_theta), dtype=complex)
        for j in range(0, rows, step):
            a, b = dr[j : j + step], t[j : j + step]
            diff = np.subtract(a, b, out=tmp[: len(a)])
            b += a
            a[...] = diff
    elif d:
        dr -= t
    else:
        t += dr
    phase = np.exp(-1j * g.thetas)
    if d:
        np.multiply(0.5 * phase, dr, out=dr)
    if dbar:
        np.multiply(0.5 * np.conj(phase), t, out=t)
    return dr, t


def wirtinger_derivatives(f: GridFunction) -> tuple[GridFunction, GridFunction]:
    """(d f, dbar f) via spectral d_theta and 4th-order radial differences
    (`_wirtinger_rows` on every row)."""
    v = f.require_unmasked("differentiation")
    dr, t = _wirtinger_rows(v, f.grid, f.grid.n_r, True, True)
    return f.with_values(dr), f.with_values(t)


def laplacian(f: GridFunction) -> GridFunction:
    """Polar Laplacian d_rr + d_r/r + d_{theta theta}/r^2, spectral in theta."""
    v = f.require_unmasked("Laplacian")
    g = f.grid
    modes = np.fft.fft(v, axis=1)
    dtt = np.fft.ifft(-(g.mode_numbers[None, :] ** 2.0) * modes, axis=1)
    drr = _apply_radial_stencils(v, _FD2_INTERIOR, _FD2_FORWARD, _FD2_SKEW1, 1.0) / g.radial_step**2
    dr = _radial_derivative(v, g.radial_step)
    r = g.radii[:, None]
    return f.with_values(drr + dr / r + dtt / r**2)


def sobolev_norm(f: GridFunction, p: float) -> float:
    """||f||_{L^p} + ||d f||_{L^p} + ||dbar f||_{L^p} with area quadrature."""
    d, dbar = wirtinger_derivatives(f)
    return lp_norm_disk(f, p) + lp_norm_disk(d, p) + lp_norm_disk(dbar, p)


def _row_sq(a: np.ndarray) -> np.ndarray:
    """sum_k |a[j, k]|^2 for each row j, with no temporary array."""
    re = _real_view(a)
    return np.einsum("jk,jk->j", re, re)


def w12_norm(f: GridFunction) -> float:
    """Discrete W^{1,2} norm sobolev_norm(f, 2); the solvers' convergence metric.

    One angular FFT of f, then `w12_norm_modes`; the value equals
    sobolev_norm(f, 2) up to rounding.
    """
    v = f.require_unmasked("differentiation")
    return w12_norm_modes(np.fft.fft(v, axis=1), f.grid)


def w12_norm_modes(modes: np.ndarray, grid: DiskGrid) -> float:
    """sobolev_norm(f, 2) of the f whose angular modes are `modes`.

    `modes` is np.fft.fft(f.values, axis=1): radius-major, FFT order,
    unnormalized.  By Parseval, |d f| and |dbar f| are
    |f_r -+ i f_theta / r| / 2, whose angular modes are (D V +- n V / r) / 2
    with D the radial stencils of wirtinger_derivatives.  No derivative
    grids, phase factors or inverse FFT are formed, and `modes` is left
    alone.
    """
    modes = np.ascontiguousarray(modes)
    dr, nv = np.empty((2,) + modes.shape, dtype=complex)
    h = grid.radial_step
    # h (f_r -+ i f_theta / r) has modes D V -+ (h n / r) V
    _apply_radial_stencils(modes, _FD_INTERIOR, _FD_FORWARD, _FD_SKEW1, -1.0, out=dr)
    hn = np.repeat(h * grid.mode_numbers, 2)  # per real and imaginary part
    rnv = np.multiply(_real_view(modes), hn, out=nv.view(float))
    rnv *= (1.0 / grid.radii)[:, None]
    # Parseval: sum_k |v_k|^2 = sum_n |V_n|^2 / n_theta
    w = grid.radial_weights * (2.0 * np.pi / grid.n_theta**2)
    norm_f = math.sqrt(w @ _row_sq(modes))
    dr -= nv
    norm_dbar = math.sqrt(w @ _row_sq(dr))
    dr += nv
    dr += nv
    norm_d = math.sqrt(w @ _row_sq(dr))
    return norm_f + (0.5 / h) * (norm_d + norm_dbar)


def boundary_trace(f: GridFunction) -> BoundaryFunction:
    """Values on the boundary ring j = n_r; isolated masks propagate."""
    j = f.grid.boundary_ring_index
    mask = None if f.mask is None else f.mask[j]
    if mask is not None and np.all(mask):
        raise MaskedValueError("boundary ring is fully masked")
    return BoundaryFunction(f.values[j].copy(), mask)


def _cone_mask(grid: DiskGrid, gamma: float) -> np.ndarray:
    """Interior nodes in the cone Gamma_{1,gamma}, shape (n_r - 1, n_theta).

    The grid is invariant under rotation by whole angular steps, so the
    cone at the boundary node theta_k holds the nodes of this mask rolled
    by k along the angles.  The cone is convex, symmetric about the real
    axis and holds the disk of radius sin(gamma), so on each ring it is an
    arc centred on column 0 (the whole ring inside that disk), and the
    arcs narrow towards the rim.
    """
    z = grid.nodes_z()[: grid.n_r - 1]
    return Cone(1.0 + 0.0j, gamma).contains(z)


def _dilate(v: np.ndarray, width: int) -> np.ndarray:
    """Circular window maximum, out[k] = max of v[k - width .. k + width]."""
    for _ in range(width):
        v = np.maximum(np.maximum(v, np.roll(v, 1)), np.roll(v, -1))
    return v


def nontangential_max(f: GridFunction, gamma: float) -> BoundaryFunction:
    """Non-tangential maximal function M_gamma f on the boundary nodes.

    For each xi the maximum of |f| over interior grid nodes inside the
    approach cone Gamma_{xi,gamma}, the cone at theta = 0 rolled to xi.
    Ring j of the cone is the arc of half-width w_j about xi and w_j does
    not grow outwards, so one pass from the centre dilates the running
    maximum by w_{j-1} - w_j before taking ring j, and by the last w_j.
    Raises if the cones capture no node (grid too coarse for this gamma).
    """
    v = np.abs(f.require_unmasked("maximal function"))
    g = f.grid
    counts = np.count_nonzero(_cone_mask(g, gamma), axis=1)
    rings = np.flatnonzero(counts)  # rings beyond the unit circle hold none
    if rings.size == 0:
        raise ValueError(
            "empty cone at the grid resolution; use a finer grid or larger gamma"
        )
    half = np.minimum(counts[rings] // 2, g.n_theta // 2)
    acc = v[rings[0]]
    for j, shrink in zip(rings[1:], half[:-1] - half[1:]):
        acc = np.maximum(_dilate(acc, shrink), v[j])
    return BoundaryFunction(_dilate(acc, half[-1]).astype(complex))
