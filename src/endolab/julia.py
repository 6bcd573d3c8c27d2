"""Julia-set approximants along independent characterizations, plus
agreement metrics and chaos probes.

Grids classify by cell centers only; every statement is at a declared
resolution.  For n >= 2 an escape grid covers the plane of the first
coordinate z_1, with the remaining coordinates fixed.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .maps import PolyMap, Window, map_kernel
from .periodic import find_periodic


@dataclass(frozen=True)
class EscapeGrid:
    window: Window  # its first complex coordinate z_1 is gridded
    res: tuple  # (rows, cols) = (re z_1 cells, im z_1 cells)
    escape_iter: np.ndarray  # int (rows, cols), -1 where bounded
    fixed: tuple  # values of the remaining real coordinates re z_2, im z_2, ...

    @property
    def escaped(self):
        return self.escape_iter >= 0

    @property
    def cellwidth(self):
        return float((self.window.widths[:2] / self.res).max())

    def centers(self):
        """Complex cell centers, shape (rows, cols, n)."""
        return _slice_centers(self.window, self.res[0], self.fixed)


def _slice_centers(window, res, fixed):
    out = np.empty((res * res, window.n), dtype=complex)
    out[:, :1] = Window(window.bounds[:2]).grid_centers(res)
    out[:, 1:] = window.to_complex(np.asarray(fixed, dtype=float))
    return out.reshape(res, res, window.n)


def escape_grid(pmap, window, res, n_max, R, fixed=()):
    """Iterate every center of z_1's res x res grid, the other real
    coordinates at `fixed`; mark cells whose orbit leaves ||.||_inf <= R.

    Deterministic: classification depends only on the center orbit.  Each
    step maps only the live cells, those still inside, since map_kernel's
    rows do not depend on their batch.
    """
    if res < 2:
        raise ValueError("res must be >= 2 per axis")
    if len(fixed) != 2 * window.n - 2:
        raise ValueError(f"fixed needs 2n - 2 = {2 * window.n - 2} values")
    if not np.isfinite(fixed).all():
        raise ValueError("fixed values must be finite")
    z = _slice_centers(window, res, fixed).reshape(-1, pmap.n)
    inside = np.abs(z).max(axis=-1) <= R
    esc_iter = np.where(inside, -1, 0)
    live = np.flatnonzero(inside)
    z = z[live]
    for k in range(1, n_max + 1):
        if live.size == 0:
            break
        z, _, reached = map_kernel(pmap, z)
        with np.errstate(over="ignore", invalid="ignore"):
            # an overflowing cell escapes at this step
            out = (reached == 0) | (np.abs(z).max(axis=-1) > R)
        if out.any():
            esc_iter[live[out]] = k
            live, z = live[~out], z[~out]
    return EscapeGrid(window=window, res=(res, res), fixed=tuple(fixed),
                      escape_iter=esc_iter.reshape(res, res))


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray  # (N, n) complex
    tag: str

    def __len__(self):
        return len(self.points)


def dedup_points(pts, tol=1e-8):
    """Deterministic dedup at sup-norm tol, preserving sorted order: sort
    by (re p_1..re p_n, im p_1..im p_n), drop each point within tol of a
    kept one."""
    pts = np.asarray(pts, dtype=complex)
    pts = pts.reshape(-1, pts.shape[-1])
    pts = pts[np.lexsort(np.hstack([pts.real, pts.imag]).T[::-1])]
    # points first[i]..i-1 are the ones within tol of point i on re p_1
    lead = pts[:, 0].real
    first = np.searchsorted(lead, lead - tol, side="right")
    kept = np.zeros(len(pts), dtype=bool)
    for i, j in enumerate(first):
        near = pts[j:i][kept[j:i]]
        kept[i] = not (np.abs(near - pts[i]).max(axis=-1) < tol).any()
    return pts[kept]


def boundary_extract(grid):
    """Centers of bounded cells 4-adjacent to an escaped cell.

    Empty (with a warning flag in the tag) when the grid is all-bounded or
    all-escaped.
    """
    esc = grid.escaped
    if esc.all() or not esc.any():
        return PointCloud(points=np.empty((0, grid.window.n), dtype=complex),
                          tag="boundary:empty")
    nb = np.zeros_like(esc)
    nb[1:, :] |= esc[:-1, :]
    nb[:-1, :] |= esc[1:, :]
    nb[:, 1:] |= esc[:, :-1]
    nb[:, :-1] |= esc[:, 1:]
    mask = (~esc) & nb
    centers = grid.centers()[mask]
    return PointCloud(points=centers.reshape(-1, grid.window.n),
                      tag="boundary")


def repeller_cloud(pmap, m_max, window, seeds=1024, tol=1e-10, seed=0,
                   include_saddles=False):
    """All orbit points of repelling (optionally also saddle) cycles."""
    cycles = find_periodic(pmap, m_max, window, seeds=seeds, tol=tol, seed=seed)
    kinds = {"repelling"} | ({"saddle"} if include_saddles else set())
    pts = [np.asarray(q).reshape(pmap.n)
           for c in cycles if c.klass in kinds for q in c.points]
    if not pts:
        return PointCloud(points=np.empty((0, pmap.n), dtype=complex),
                          tag="repellers")
    return PointCloud(points=dedup_points(np.array(pts)), tag="repellers")


def hausdorff(A, B):
    """Symmetric Hausdorff distance in sup-norm between finite clouds."""
    if len(A) == 0 or len(B) == 0:
        raise ValueError("hausdorff of an empty cloud")
    return float(max(directed_distance(A, B), directed_distance(B, A)))


def directed_distance(A, B, chunk=1024):
    """sup over A of the distance to B (one direction only)."""
    if len(A) == 0 or len(B) == 0:
        raise ValueError("distance from/to an empty cloud")
    b = B.points
    worst = 0.0
    for s in range(0, len(A), chunk):
        a = A.points[s : s + chunk]
        d = np.abs(a[:, None, :] - b[None, :, :]).max(axis=-1)
        worst = max(worst, float(d.min(axis=1).max()))
    return worst


def cloud_to_csv(cloud, n):
    buf = io.StringIO()
    buf.write(",".join(f"re_{i+1},im_{i+1}" for i in range(n)) + "\n")
    for p in cloud.points:
        buf.write(",".join(f"{v:.12g}" for z in p for v in (z.real, z.imag)))
        buf.write("\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# probes


def spread_probe(pmap, cellU, cellV, k_max, samples=256, R=None, seed=0):
    """Smallest k <= k_max with f^k(sample of U) meeting V, else None."""
    pts = np.concatenate([cellU.sample(samples, seed=seed),
                          cellU.grid_centers(2)])
    if R is None:
        R = 1e6
    x = pts.copy()
    alive = np.ones(len(x), dtype=bool)
    for k in range(1, k_max + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            return None
        x[idx], _, reached = map_kernel(pmap, x[idx])
        alive[idx[reached == 0]] = False  # overflow: no longer alive
        idx = idx[reached == 1]
        far = np.abs(x[idx]).max(axis=-1) > R
        alive[idx[far]] = False
        idx = idx[~far]
        if idx.size and bool(cellV.contains(x[idx]).any()):
            return k
    return None


def cycle_through(pmap, cellU, cellV, m_max, seeds=1024, tol=1e-10, seed=0,
                  window=None):
    """A repelling cycle with points in both cells, if the finder sees one."""
    if window is None:
        lo = np.minimum(cellU.lo, cellV.lo) - 1.0
        hi = np.maximum(cellU.hi, cellV.hi) + 1.0
        window = Window(bounds=tuple(zip(lo.tolist(), hi.tolist())))
    cycles = find_periodic(pmap, m_max, window, seeds=seeds, tol=tol, seed=seed)
    for c in cycles:
        if c.klass != "repelling":
            continue
        inU = any(bool(cellU.contains(q)) for q in c.points)
        inV = any(bool(cellV.contains(q)) for q in c.points)
        if inU and inV:
            return c
    return None


def inverse_iteration_cloud(pmap, depth=12, keep_last=8, seed=0):
    """Classical 1-D cross-check: random backward orbits of a polynomial.

    Pulls a generic start back through random preimages (roots of
    f(z) = w from NumPy's companion-matrix `polyroots`) and keeps the tail.
    """
    if pmap.n != 1 or not pmap.is_polynomial():
        raise ValueError("inverse iteration is for 1-D polynomial maps")
    deg = pmap.degree()
    coeffs = np.zeros(deg + 1, dtype=complex)
    for exps, c in pmap.components[0]:
        coeffs[exps[0]] = c
    rng = np.random.default_rng(seed)
    w = complex(2.0 + 0.5j)
    pts = []
    for k in range(depth):
        shifted = coeffs.copy()
        shifted[0] -= w
        roots = np.polynomial.polynomial.polyroots(shifted)
        w = complex(roots[rng.integers(len(roots))])
        if k >= depth - keep_last:
            pts.extend(complex(r) for r in roots)
    arr = np.array(pts, dtype=complex).reshape(-1, 1)
    return PointCloud(points=dedup_points(arr), tag="inverse_iteration")


# ---------------------------------------------------------------------------
# PGM output


def grid_to_pgm(grid):
    """Binary PGM, escape iteration scaled to 0..255 (bounded cells = 0)."""
    it = grid.escape_iter.astype(float)
    img = np.zeros(grid.res, dtype=np.uint8)
    esc = grid.escaped
    if esc.any():
        top = max(1.0, it[esc].max())
        img[esc] = np.clip(
            np.round(55 + 200 * it[esc] / top), 0, 255
        ).astype(np.uint8)
    header = f"P5\n{grid.res[1]} {grid.res[0]}\n255\n".encode()
    return header + img.tobytes()


def mask_to_pgm(mask):
    mask = np.asarray(mask, dtype=bool)
    img = np.where(mask, 255, 0).astype(np.uint8)
    header = f"P5\n{mask.shape[1]} {mask.shape[0]}\n255\n".encode()
    return header + img.tobytes()
