"""Julia-set approximants along independent characterizations, plus
agreement metrics.

Grids classify by cell centers only; every statement is at a declared
resolution.  For n >= 2 an escape grid covers the plane of the first
coordinate z_1, with the remaining coordinates fixed.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .maps import Window, _step, sup_norm
from .periodic import _dedup, find_periodic


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
    step maps only the live cells, those still inside, since a step's rows
    do not depend on their batch.
    """
    if res < 2:
        raise ValueError("res must be >= 2 per axis")
    if len(fixed) != 2 * window.n - 2:
        raise ValueError(f"fixed needs 2n - 2 = {2 * window.n - 2} values")
    if not np.isfinite(fixed).all():
        raise ValueError("fixed values must be finite")
    z = _slice_centers(window, res, fixed).reshape(-1, pmap.n)
    inside = sup_norm(z) <= R
    esc_iter = np.where(inside, -1, 0)
    live = np.flatnonzero(inside)
    z = z[live]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_max + 1):
            if live.size == 0:
                break
            z, _, norm, ok = _step(pmap, z, False)
            out = ~ok | (norm > R)  # an overflowing cell escapes here too
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
    return _dedup(pts, np.zeros(len(pts)), tol)[0]  # ties keep the first


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
        d = sup_norm(a[:, None, :] - b[None, :, :])
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
