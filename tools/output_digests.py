"""Print a SHA-1 digest of every phdisk output on fixed inputs, one per line.

    PYTHONPATH=src python3 tools/output_digests.py > digests.txt

Run it on two checkouts and `diff` the files: equal digests mean equal
bytes, so a change meant to keep every output is checked bit for bit.
The digests do not depend on the BLAS thread count; CI checks that at
one and two threads.
The inputs are smooth closed-form fields at 64^2 and 256^2; the engine
tables, every transform, `cauchy_renormalized` at R = 2.5, the five
solvers and `solve_dbar` (solution and report), `c2_growth_curve` and
`exp_integrability_report` are covered.  So are `beltrami_ratio`,
`factorize` under both normalizations (s, F and the report) and
`alpha_from_pair`, on a w with exact zeros and with nodes on, just under
and just over the zero threshold 1e-12 max|w|, and one subnormal node.

After the digests come the solvers' step counts on hard cases, one line
each: "counts <n> <case> fine <k> coarse [<levels>] total <sum>", with
"diverged" appended where the solve raised SolverDivergence.  At 64^2,
128^2 and 256^2, with L = log(e/|z|):
  riesz t=<t>       alpha = -t z / (2 |z|^2 L) (dbar log L^t), psi = 1,
                    t in {1/2, 1, 2, 4, 8}, default tol (t = 8 diverges);
  conductivity t=<t>  sigma = L^{2t}, psi = 1.5 + cos + 0.3 sin 2 theta,
                    t in {1/2, 1, 2, 4}, default tol;
  kappa=<k>         constant alpha = k, psi = e^{2k cos theta} (w = e^{2kx}),
                    k in {1/2, 1, 2, 3}, tol 1e-12;
  critical          alpha = 4 e^{i theta} / (|z| L^{3/4}), psi = e^{cos theta},
                    tol 1e-10;
and, at 64^2 only, sigma=L^8 tol=1e-10: conductivity t = 4 at tol 1e-10.
The counts too are equal at one and two BLAS threads.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

import phdisk as ph
from phdisk.radial import get_engine


def digest(obj) -> str:
    if isinstance(obj, ph.GridFunction):
        obj = obj.values
    if isinstance(obj, ph.BoundaryFunction):
        obj = obj.values
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj).tobytes()
    else:  # a report: its dict, floats written exactly
        data = json.dumps(obj.to_dict(), sort_keys=True, default=repr).encode()
    return hashlib.sha1(data).hexdigest()


def outputs(n: int):
    g = ph.make_grid(n, n)
    z = g.nodes_z()
    x, y = z.real, z.imag
    eng = get_engine(n, n // 2 + 2)
    yield "w_in", eng.w_in
    yield "w_out", eng.w_out
    yield "w_rholog", eng.w_rholog
    h = ph.GridFunction(g, np.exp(x - 0.5j * y) * (1.0 + 0.3 * z**3) + np.cos(2.0 * y) * np.conj(z))
    yield "cauchy", ph.cauchy(h)
    yield "beurling", ph.beurling(h)
    yield "reflect_transform", ph.reflect_transform(h)
    yield "green_potential", ph.green_potential(h)
    yield "cauchy_renormalized", ph.cauchy_renormalized(h, 2.5)

    cfg = ph.SolverConfig(tol=1e-10, max_iter=200)
    alpha = ph.GridFunction.constant(g, 0.5)
    psi = ph.BoundaryFunction.from_function(n, lambda t: np.exp(np.cos(t)) + 0.2 * np.sin(3 * t))
    w, psi_sharp, rep = ph.solve_riesz(alpha, psi, 0.3, cfg)
    yield "solve_riesz", w
    yield "solve_riesz.psi_sharp", psi_sharp
    yield "solve_riesz.report", rep
    sigma = ph.GridFunction(g, np.exp(2.0 * x))
    u, v, w, rep = ph.solve_conductivity(sigma, psi, cfg)
    yield "solve_conductivity.u", u
    yield "solve_conductivity.v", v
    yield "solve_conductivity.w", w
    yield "solve_conductivity.report", rep
    F = ph.GridFunction.constant(g, 1.0)
    cos = ph.BoundaryFunction.from_function(n, np.cos)
    beltrami = alpha * ph.GridFunction(g, 1.0 + 0.2 * x)
    for fn in (ph.parametrize_imag, ph.parametrize_real):
        s, rep = fn(beltrami, F, cos, 0.4, cfg)
        yield fn.__name__, s
        yield f"{fn.__name__}.report", rep
    A, res = ph.solve_dbar(ph.GridFunction(g, np.exp(-np.abs(z) ** 2)), cos, 1.0, 0.3)
    yield "solve_dbar", A
    yield "solve_dbar.residuals", np.array([res.dbar, res.trace, res.mean])
    yield from similarity_outputs(g, x, z)
    yield "c2_growth_curve", ph.c2_growth_curve(h, (1.0, 2.5, 10.0))
    yield "exp_integrability_report", ph.exp_integrability_report(ph.GridFunction(g, x))


def similarity_outputs(g, x, z):
    """The similarity factorization of a w whose zeros the threshold decides."""
    wv = np.exp(0.3 * x) * (z**2 - 0.25) + 0.1 * np.conj(z)
    top = float(np.max(np.abs(wv)))
    wv[::9, ::7] = 0.0
    wv[4::13, 1::6] = 1e-12 * top  # at the threshold: zeroed
    wv[6::13, 3::6] = 0.5e-12j * top  # under it: zeroed
    wv[8::13, 5::6] = -2e-12 * top  # over it: kept
    wv[10, 10] = 5e-320
    w = ph.GridFunction(g, wv)
    alpha = ph.GridFunction(g, 0.5 * (1.0 + 0.2 * x) + 0.1j * z.imag)
    yield "beltrami_ratio", ph.beltrami_ratio(w, alpha)
    for norm in ("real_on_T", "imaginary_on_T"):
        fac = ph.factorize(w, alpha, norm)
        yield f"factorize.{norm}.s", fac.s
        yield f"factorize.{norm}.F", fac.F
        yield f"factorize.{norm}.report", fac
    yield "alpha_from_pair", ph.alpha_from_pair(ph.GridFunction(g, 0.2 * x + 0.1j * x * z.imag), w)


def hard_cases(n: int):
    """(name, thunk) of each hard case on the n^2 grid; a thunk returns the report."""
    g = ph.make_grid(n, n)
    z = g.nodes_z()
    L = np.log(np.e / np.abs(z))
    one = ph.BoundaryFunction(np.ones(n))
    smooth = ph.BoundaryFunction.from_function(n, lambda t: 1.5 + np.cos(t) + 0.3 * np.sin(2 * t))
    for t in (0.5, 1, 2, 4, 8):
        alpha = ph.GridFunction(g, -t * z / (2.0 * np.abs(z) ** 2 * L))
        yield f"riesz t={t}", lambda a=alpha: ph.solve_riesz(a, one, 0.0)[2]
    for t in (0.5, 1, 2, 4):
        sigma = ph.GridFunction(g, L ** (2 * t))
        yield f"conductivity t={t}", lambda s=sigma: ph.solve_conductivity(s, smooth)[3]
    tight = ph.SolverConfig(tol=1e-12)
    for k in (0.5, 1, 2, 3):
        psi = ph.BoundaryFunction.from_function(n, lambda t, k=k: np.exp(2 * k * np.cos(t)))
        yield f"kappa={k}", lambda a=ph.GridFunction.constant(g, k), p=psi: ph.solve_riesz(a, p, 0.0, tight)[2]
    cfg = ph.SolverConfig(tol=1e-10)
    alpha = ph.GridFunction(g, 4.0 * np.exp(1j * np.angle(z)) / (np.abs(z) * L**0.75))
    psi = ph.BoundaryFunction.from_function(n, lambda t: np.exp(np.cos(t)))
    yield "critical", lambda: ph.solve_riesz(alpha, psi, 0.0, cfg)[2]
    if n == 64:
        sigma = ph.GridFunction(g, L**8)
        yield "sigma=L^8 tol=1e-10", lambda: ph.solve_conductivity(sigma, smooth, cfg)[3]


def count_line(n: int, name: str, solve) -> str:
    try:
        rep, tail = solve(), ""
    except ph.SolverDivergence as err:
        rep, tail = err.report, " diverged"
    coarse = rep.extra.get("coarse_iterations", [])
    total = rep.iterations + sum(coarse)
    return f"counts {n} {name} fine {rep.iterations} coarse {coarse} total {total}{tail}"


if __name__ == "__main__":
    for n in (64, 256):
        for name, obj in outputs(n):
            print(f"{n} {name} {digest(obj)}")
    for n in (64, 128, 256):
        for name, solve in hard_cases(n):
            print(count_line(n, name, solve))
