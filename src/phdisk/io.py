"""Grid file formats.

PHD1 binary: magic "PHD1", little-endian u32 n_r, u32 n_theta, then
n_r * n_theta complex values as interleaved little-endian float64
(re, im), row-major by radius.  Boundary functions use n_r = 1.  Masked
nodes round-trip as NaN pairs.

PHD1 has no field for the outer radius, so it holds unit-disk grids
only; grids on D_R (R > 1) are saved as CSV.

CSV alternative: header "r,theta,re,im", one row per node in the same
order; masked nodes carry nan fields.  The r column holds the true radii
R j/n_r, so the loader recovers R from the largest one; boundary
functions are written at r = 1.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .grid import BoundaryFunction, GridFunction, make_grid

__all__ = ["save_phd1", "load_phd1", "save_csv", "load_csv", "save", "load", "emit_slice"]

MAGIC = b"PHD1"


def _payload(f) -> tuple[int, int, np.ndarray]:
    if isinstance(f, GridFunction):
        vals = f.values.copy()
        if f.mask is not None:
            vals[f.mask] = complex(np.nan, np.nan)
        return f.grid.n_r, f.grid.n_theta, vals
    if isinstance(f, BoundaryFunction):
        vals = f.values.copy()
        if f.mask is not None:
            vals[f.mask] = complex(np.nan, np.nan)
        return 1, f.n_theta, vals.reshape(1, -1)
    raise TypeError(f"cannot serialize {type(f).__name__}")


def save_phd1(path, f) -> None:
    if isinstance(f, GridFunction) and f.grid.outer_radius != 1.0:
        raise ValueError(
            f"PHD1 holds unit-disk grids only (outer radius {f.grid.outer_radius}); "
            "save as CSV to keep the radius"
        )
    n_r, n_theta, vals = _payload(f)
    flat = np.empty(n_r * n_theta * 2, dtype="<f8")
    flat[0::2] = vals.real.ravel()
    flat[1::2] = vals.imag.ravel()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array([n_r, n_theta], dtype="<u4").tobytes())
        fh.write(flat.tobytes())


def load_phd1(path):
    """Load a PHD1 file; n_r = 1 payloads come back as BoundaryFunction."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a PHD1 file")
    n_r, n_theta = np.frombuffer(raw[4:12], dtype="<u4")
    n_r, n_theta = int(n_r), int(n_theta)
    flat = np.frombuffer(raw[12:], dtype="<f8")
    if flat.size != 2 * n_r * n_theta:
        raise ValueError(f"{path}: truncated payload")
    vals = (flat[0::2] + 1j * flat[1::2]).reshape(n_r, n_theta)
    if n_r == 1:
        return BoundaryFunction(vals[0].copy())
    return GridFunction(make_grid(n_theta, n_r), vals.copy())


def save_csv(path, f) -> None:
    """Write the CSV format; the bytes are those of csv.writer rows of repr floats.

    One radius at a time: each radius and each angle is formatted once,
    and per node only the two value fields.
    """
    n_r, n_theta, vals = _payload(f)
    radii = [1.0] if n_r == 1 else f.grid.radii.tolist()
    thetas = [f"{t!r}," for t in (2.0 * np.pi * np.arange(n_theta) / n_theta).tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("r,theta,re,im\r\n")
        for r, row in zip(radii, vals):
            head = f"{r!r},"
            fh.write("".join([
                f"{head}{t}{a!r},{b!r}\r\n"
                for t, a, b in zip(thetas, row.real.tolist(), row.imag.tolist())
            ]))


def load_csv(path):
    rows = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if [c.strip() for c in header] != ["r", "theta", "re", "im"]:
            raise ValueError(f"{path}: expected header r,theta,re,im")
        for row in rd:
            rows.append([float(x) for x in row])
    arr = np.asarray(rows)
    if arr.ndim != 2 or arr.shape[1] != 4:  # header only, or rows of other lengths
        raise ValueError(f"{path}: expected one or more rows of 4 fields r,theta,re,im")
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    radii = np.unique(arr[:, 0])
    thetas = np.unique(arr[:, 1])
    n_r, n_theta = len(radii), len(thetas)
    if n_r * n_theta != len(arr):
        raise ValueError(f"{path}: nodes do not form a tensor grid")
    R = max(float(radii[-1]), 1.0)
    for name, got, want in (
        ("radii", radii, R * np.arange(1, n_r + 1) / n_r),
        ("angles", thetas, 2.0 * np.pi * np.arange(n_theta) / n_theta),
    ):
        if np.any(np.abs(got - want) > 1e-12 * np.abs(want)):
            raise ValueError(f"{path}: {name} do not lie on a polar grid")
    vals = (arr[:, 2] + 1j * arr[:, 3]).reshape(n_r, n_theta)
    if n_r == 1:
        return BoundaryFunction(vals[0].copy())
    return GridFunction(make_grid(n_theta, n_r, outer_radius=R), vals.copy())


def save(path, f) -> None:
    if str(path).endswith(".csv"):
        save_csv(path, f)
    else:
        save_phd1(path, f)


def load(path):
    if str(path).endswith(".csv"):
        return load_csv(path)
    return load_phd1(path)


def emit_slice(f: GridFunction, along: str, value: float, path) -> None:
    """1-D CSV slice along a grid radius or a grid angle.

    Columns: coordinate, re, im, abs, flag ("masked" at masked nodes).
    """
    g = f.grid
    if along == "radius":
        j = int(round(value / g.radial_step)) - 1
        if j < 0 or j >= g.n_r or abs(g.radii[j] - value) > 1e-12:
            raise ValueError(f"radius {value} is not on the grid")
        coords = g.thetas
        vals = f.values[j]
        masks = f.mask[j] if f.mask is not None else np.zeros(g.n_theta, bool)
    elif along == "angle":
        dtheta = 2.0 * np.pi / g.n_theta
        k = int(round(value / dtheta))
        if k < 0 or k >= g.n_theta or abs(g.thetas[k] - value) > 1e-12:
            raise ValueError(f"angle {value} is not on the grid")
        coords = g.radii
        vals = f.values[:, k]
        masks = f.mask[:, k] if f.mask is not None else np.zeros(g.n_r, bool)
    else:
        raise ValueError("along must be 'radius' or 'angle'")
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["coordinate", "re", "im", "abs", "flag"])
        for c, v, m in zip(coords, vals, masks):
            wr.writerow(
                [repr(float(c)), repr(float(v.real)), repr(float(v.imag)),
                 repr(float(abs(v))), "masked" if m else ""]
            )
