"""Numerical realizations of the weight-theory and appendix inequalities.

Dyadic arc families stand in for suprema over all arcs (the standard
computational surrogate, within an absolute factor of the true sups).
Inequalities that come with explicit constants (the John-Nirenberg form
with 4e and 1+e) are asserted at zero slack; inequalities whose constants
the theory leaves unspecified are measured and reported, never asserted
against an invented number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    BoundaryFunction,
    GridFunction,
    MaskedValueError,
    _lp_rows,
    area_integral,
    boundary_trace,
    hardy_norm,
    lp_norm_disk,
    make_grid,
    nontangential_max,
    wirtinger_derivatives,
)
from .transforms import _require_unit_disk, cauchy, cauchy_renormalized

__all__ = [
    "ArcFamily",
    "DiagnosticReport",
    "bmo_oscillation",
    "localized_oscillation_sup",
    "ap_constant",
    "jn_exp_check",
    "exp_integrability_report",
    "equicontinuity_modulus",
    "c2_growth_curve",
    "multiplier_ratio",
    "trace_convergence",
    "boundary_sobolev_seminorm",
]

EXP_SCAN_LAMBDAS = (0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class ArcFamily:
    """All dyadic arcs of T down to length 2*pi*2^{-max_level}.

    Level k holds the 2^k arcs [2 pi m 2^{-k}, 2 pi (m+1) 2^{-k}); they
    tile the circle at every level.
    """

    max_level: int

    def __post_init__(self):
        if self.max_level < 0:
            raise ValueError("max_level must be >= 0")


@dataclass
class DiagnosticReport:
    name: str
    measured: list
    bound: list | None
    satisfied: list
    slack: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": list(self.measured),
            "bound": None if self.bound is None else list(self.bound),
            "satisfied": [bool(s) for s in self.satisfied],
            "slack": self.slack,
            "details": self.details,
        }


def _arcs(v: np.ndarray, level: int) -> np.ndarray:
    """The 2^level dyadic arcs of one level of v, as the rows of a view."""
    if (1 << level) > v.size:
        raise ValueError("arc family deeper than the boundary resolution")
    return v.reshape(1 << level, -1)


def _oscillations(v: np.ndarray, level: int) -> np.ndarray:
    """Mean oscillation (1/Lambda(I)) int_I |v - v_I| of every arc I of one level."""
    rows = _arcs(v, level)
    return np.mean(np.abs(rows - rows.mean(axis=1, keepdims=True)), axis=1)


def _oscillation_sup(v: np.ndarray, depth: int) -> float:
    """Sup of the mean oscillation over v, as one arc, and its dyadic
    subarcs down to `depth` levels below it."""
    return max(float(np.max(_oscillations(v, k))) for k in range(depth + 1))


def bmo_oscillation(h: BoundaryFunction, family: ArcFamily):
    """Discrete BMO seminorm and the per-arc oscillation table.

    Returns (seminorm, table) with table[(level, m)] the mean oscillation
    (1/Lambda(I)) int_I |h - h_I|.
    """
    v = h.require_unmasked("BMO oscillation")
    table: dict[tuple[int, int], float] = {}
    for level in range(family.max_level + 1):
        for m, osc in enumerate(_oscillations(v, level).tolist()):
            table[(level, m)] = osc
    return max(table.values()), table


def localized_oscillation_sup(
    h: BoundaryFunction, family: ArcFamily, level: int, m: int
) -> float:
    """M_h(I): sup of mean oscillation over I and its dyadic subarcs."""
    v = h.require_unmasked("localized oscillation")
    if not (0 <= level <= family.max_level and 0 <= m < 1 << level):
        raise ValueError(f"arc ({level}, {m}) is not in the family")
    return _oscillation_sup(_arcs(v, level)[m], family.max_level - level)


def ap_constant(weight: BoundaryFunction, p: float, family: ArcFamily) -> float:
    """Muckenhoupt constant: sup over the family of (avg w)(avg w^{-1/(p-1)})^{p-1}."""
    w = weight.require_unmasked("A_p constant").real
    if np.any(w <= 0.0):
        raise ValueError("weight must be strictly positive")
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"p must be finite and exceed 1 (got {p!r})")
    winv = w ** (-1.0 / (p - 1.0))
    # the power is taken per arc on floats: numpy's vectorized power may
    # round differently from the scalar one
    return max(
        a * b ** (p - 1.0)
        for level in range(family.max_level + 1)
        for a, b in zip(
            _arcs(w, level).mean(axis=1).tolist(), _arcs(winv, level).mean(axis=1).tolist()
        )
    )


def jn_exp_check(h: BoundaryFunction, arc: tuple[float, float]) -> DiagnosticReport:
    """John-Nirenberg integral form on one arc, asserted at zero slack:

        int_I e^{|h|/(4e M_h(I))} <= (1+e) Lambda(I) e^{|h_I|/(4e M_h(I))}.

    The arc's ends must be grid angles (to 1e-12; they are not rounded)
    and its node count a power of two, at most the circle's, so the
    dyadic subdivision used for M_h(I) is exact.
    """
    v = h.require_unmasked("John-Nirenberg check").real
    n = h.n_theta
    dtheta = 2.0 * np.pi / n
    ends = np.asarray(arc, dtype=float)
    nodes = np.round(ends / dtheta)
    if not (np.all(np.isfinite(ends)) and np.all(np.abs(nodes * dtheta - ends) <= 1e-12)):
        raise ValueError(f"arc ends {tuple(arc)} are not grid angles (multiples of 2 pi/{n})")
    i0, i1 = (int(k) for k in nodes)
    count = i1 - i0
    if not 0 < count <= n or count & (count - 1):
        raise ValueError(f"arc {tuple(arc)} must span a power-of-two node count of at most {n}")
    vals = np.take(v, np.arange(i0, i1), mode="wrap")

    # M_h(I): sup over I and its dyadic subdivision down to single nodes
    M = _oscillation_sup(vals, count.bit_length() - 1)
    if M == 0.0:
        raise ValueError("h is constant on the arc: M_h(I) = 0 degenerates the bound")

    lam = count * dtheta
    scale = 4.0 * math.e * M
    lhs = float(np.sum(np.exp(np.abs(vals) / scale)) * dtheta)
    rhs = float((1.0 + math.e) * lam * math.exp(abs(np.mean(vals)) / scale))
    return DiagnosticReport(
        name="jn_exp_check",
        measured=[lhs],
        bound=[rhs],
        satisfied=[lhs <= rhs],
        slack=0.0,
        details={"M_h": M, "arc_length": lam},
    )


def exp_integrability_report(f: GridFunction, ells=(1.0, 2.0, 3.0)) -> DiagnosticReport:
    """Exp-summability growth scan for the Trudinger-Moser type bound.

    For the scaled family lambda*f it fits log int_D e^{ell lambda |f|}
    against a + b lambda^2 and flags at-most-quadratic exponent growth
    (quadratic fit explaining >= 0.95 of what a cubic alternative does).
    Each ell must be finite and positive.  The integrals run over the
    grid's own disk D_R, so any outer radius R is read.
    """
    for ell in ells:
        if not (math.isfinite(ell) and ell > 0.0):
            raise ValueError(f"ell {ell!r} must be finite and positive")
    v = f.require_unmasked("exp-integrability scan").real
    lambdas = np.asarray(EXP_SCAN_LAMBDAS)
    measured, satisfied = [], []
    details = {}
    for ell in ells:
        ys = []
        for lam in lambdas:
            with np.errstate(over="raise"):
                try:
                    integral = area_integral(f.with_values(np.exp(ell * lam * np.abs(v))))
                except FloatingPointError:
                    raise MaskedValueError(
                        "exp overflow in the scan; reduce the lambda range"
                    ) from None
            ys.append(math.log(float(integral.real)))
        ys = np.asarray(ys)
        A2 = np.stack([np.ones_like(lambdas), lambdas**2], axis=1)
        A3 = np.stack([np.ones_like(lambdas), lambdas**2, lambdas**3], axis=1)
        fits = [(A, np.linalg.lstsq(A, ys, rcond=None)[0]) for A in (A2, A3)]
        sstot = float(np.sum((ys - ys.mean()) ** 2))
        r2 = [1.0 - float(np.sum((ys - A @ coef) ** 2)) / sstot if sstot > 0 else 1.0 for A, coef in fits]
        measured.append(float(fits[0][1][1]))  # the quadratic fit's slope in lambda^2
        satisfied.append(r2[0] >= 0.95 * max(r2[1], 1e-12))
        details[f"ell={ell}"] = {"log_integrals": ys.tolist(), "r2_quadratic": r2[0], "r2_cubic": r2[1]}
    return DiagnosticReport(
        name="exp_integrability",
        measured=measured,
        bound=None,
        satisfied=satisfied,
        slack=0.05,
        details=details,
    )


def equicontinuity_modulus(
    beta: GridFunction, side_lengths=(0.5, 0.25, 0.125, 0.0625)
) -> DiagnosticReport:
    """Local L^2 mass of dC(beta), dbar C(beta) versus that of beta.

    For each square side epsilon, the maximum over a sliding lattice
    (stride epsilon/2) of ||dC||+||dbar C|| on Q cap D, paired with the
    maximum local mass of beta itself, so the modulus-of-continuity
    dependence is observable.  Sides must be finite and positive; a side
    >= 2 spans the disk (the lattice keeps at least 2 bins a side).
    """
    for eps in side_lengths:
        if not (math.isfinite(eps) and eps > 0.0):
            raise ValueError(f"side length {eps!r} must be finite and positive")
    beta.require_unmasked("equicontinuity modulus")
    Cb = cauchy(beta)
    d, dbar = wirtinger_derivatives(Cb)
    g = beta.grid
    z = g.nodes_z().ravel()
    wts = g.area_weights().ravel()
    dmass = (np.abs(d.values.ravel()) ** 2) * wts
    dbmass = (np.abs(dbar.values.ravel()) ** 2) * wts
    bmass = (np.abs(beta.values.ravel()) ** 2) * wts
    measured, companions = [], []
    for eps in side_lengths:
        half = eps / 2.0
        nbins = max(2, math.ceil(2.0 / half))
        ix = np.clip(((z.real + 1.0) / half).astype(int), 0, nbins - 1)
        iy = np.clip(((z.imag + 1.0) / half).astype(int), 0, nbins - 1)
        acc = np.zeros((3, nbins, nbins))
        np.add.at(acc[0], (ix, iy), dmass)
        np.add.at(acc[1], (ix, iy), dbmass)
        np.add.at(acc[2], (ix, iy), bmass)
        # a square of side eps is a 2x2 block of half-step bins
        block = acc[:, :-1, :-1] + acc[:, 1:, :-1] + acc[:, :-1, 1:] + acc[:, 1:, 1:]
        der = np.sqrt(block[0]) + np.sqrt(block[1])
        measured.append(float(der.max()))
        companions.append(float(np.sqrt(block[2]).max()))
    return DiagnosticReport(
        name="equicontinuity_modulus",
        measured=measured,
        bound=None,
        satisfied=[True] * len(measured),
        slack=0.0,
        details={"side_lengths": list(side_lengths), "beta_local_mass": companions},
    )


def c2_growth_curve(h: GridFunction, radii=(1.0, 10.0, 100.0)) -> DiagnosticReport:
    """Growth of the renormalized transform: the measured constant in

        ||C_2(h)||_{L^2(D_R)} / (R (1 + sqrt(log R))) <= C ||h||_{L^2(D_R)}.

    The constant is reported per R and flagged as bounded when the curve
    does not grow beyond small slack; no theoretical value is asserted.
    """
    if not all(math.isfinite(R) and R >= 1.0 for R in radii):
        raise ValueError(f"radii must be finite and >= 1; got {list(radii)}")
    norm_h = lp_norm_disk(h, 2.0)
    measured = []
    for R in radii:
        if norm_h == 0.0:
            measured.append(0.0)
            continue
        n_r = min(max(h.grid.n_r, int(h.grid.n_r * R)), 4096)
        eg = make_grid(h.grid.n_theta, n_r, outer_radius=float(R))
        C2 = cauchy_renormalized(h, float(R), eg)
        norm = lp_norm_disk(C2, 2.0)
        measured.append(norm / (R * (1.0 + math.sqrt(math.log(R))) * norm_h))
    satisfied = [m <= measured[0] * 1.05 for m in measured]
    return DiagnosticReport(
        name="c2_growth_curve",
        measured=measured,
        bound=None,
        satisfied=satisfied,
        slack=0.05,
        details={"radii": list(radii)},
    )


def multiplier_ratio(
    f: GridFunction, g: GridFunction, p: float, gamma: float
) -> DiagnosticReport:
    """Ratio of the multiplier bound: sup_rho ||e^f g||_{L^p(T_rho)} over
    ||M_gamma g||_{L^p(T)}.

    Requires f real with (numerically) zero boundary trace, the class the
    multiplier theorem covers, on a grid of outer radius 1: the outer
    ring is read as T.
    """
    _require_unit_disk(f.grid)
    _require_unit_disk(g.grid)
    fv = f.require_unmasked("multiplier ratio").real
    tr_sup = float(np.max(np.abs(boundary_trace(f).values.real)))
    if tr_sup > 1e-8:
        raise ValueError("f must have zero boundary trace (W^{1,2}_0 class)")
    gv = g.require_unmasked("multiplier ratio")
    grid = f.grid
    with np.errstate(over="ignore"):
        prod = GridFunction(grid, np.exp(fv) * gv)
    lhs = hardy_norm(prod, p)
    rhs = nontangential_max(g, gamma).lp_norm(p)
    if rhs == 0.0:
        raise ValueError("maximal function vanishes; ratio undefined")
    return DiagnosticReport(
        name="multiplier_ratio",
        measured=[lhs / rhs],
        bound=None,
        satisfied=[math.isfinite(lhs / rhs)],
        slack=0.0,
        details={"lhs": lhs, "rhs": rhs},
    )


def trace_convergence(w: GridFunction, p: float) -> DiagnosticReport:
    """Hardy trace convergence: ||tr w_rho - w_T||_{L^p(T)} over the top
    quartile of interior radii, flagged when it falls by at least 2x.
    The outer ring is read as T, so the grid's outer radius must be 1."""
    grid = w.grid
    _require_unit_disk(grid)
    v = w.require_unmasked("trace convergence")
    j0 = int(math.ceil(0.75 * grid.n_r)) - 1
    diff = v[j0 : grid.n_r - 1] - v[grid.boundary_ring_index]
    table = (_lp_rows(diff, p) * (2.0 * np.pi / grid.n_theta) ** (1.0 / p)).tolist()
    ok = (table[0] == 0.0 and table[-1] == 0.0) or table[-1] <= table[0] / 2.0
    return DiagnosticReport(
        name="trace_convergence",
        measured=table,
        bound=None,
        satisfied=[ok],
        slack=0.0,
        details={"radii": grid.radii[j0 : grid.n_r - 1].tolist()},
    )


def boundary_sobolev_seminorm(g: BoundaryFunction) -> float:
    """Half-order boundary seminorm by tensor quadrature, diagonal excluded:

        ( sum_{j != k} |g_j - g_k|^2 / Lambda_{jk}^2 dtheta^2 )^{1/2},

    with Lambda the arc distance.  Integrable integrand for half-order
    data; the committed diagonal error is quantified by refinement.  By
    Parseval it is (4/n) sum_m |G_m|^2 sum_d sin^2(pi m d/n)/Lambda_d^2, G = DFT(g)."""
    v = g.require_unmasked("boundary seminorm")
    n = g.n_theta
    # Lambda_d = steps_d dtheta, and dtheta^2 cancels against the quadrature weight
    steps = np.minimum(np.arange(n), np.arange(n, 0, -1)).astype(float)
    steps[0] = np.inf  # the diagonal is excluded
    K = 0.5 * (np.sum(steps**-2.0) - np.fft.fft(steps**-2.0).real)
    K[0] = 0.0  # the mean drops out of every difference
    return math.sqrt(4.0 / n * float(np.dot(np.abs(np.fft.fft(v)) ** 2, K)))
