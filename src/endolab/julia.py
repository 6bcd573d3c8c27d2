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

from .maps import InputError, Window, _step, sup_norm
from .orbits import _repeats
from .periodic import dedup_points, find_periodic

# escape_grid steps its cells in tiles of this many (CHANGES.md records the
# sweeps); a tile pays Python overhead per step until its last cell escapes
# or repeats, up to n_max steps
_TILE_CELLS = 32768


@dataclass(frozen=True)
class EscapeGrid:
    window: Window  # its first complex coordinate z_1 is gridded
    res: tuple  # (rows, cols) = (re z_1 cells, im z_1 cells)
    escape_iter: np.ndarray  # int (rows, cols), -1 where bounded
    centers: np.ndarray  # complex (rows, cols, n), the cell centers stepped

    @property
    def escaped(self):
        return self.escape_iter >= 0

    @property
    def cellwidth(self):
        return float((self.window.widths[:2] / self.res).max())


def escape_grid(pmap, window, res, n_max, R, fixed=()):
    """Iterate every center of z_1's res x res grid, the other real
    coordinates at `fixed`; mark cells whose orbit leaves ||.||_inf <= R.
    The centers are `window.grid_centers(res, fixed)`, and the returned
    grid keeps them.

    Deterministic: classification depends only on the center orbit.  Each
    step maps only the live cells, those still inside, since a step's rows
    do not depend on their batch.  For the same reason the cells run one
    tile of ``_TILE_CELLS`` at a time, so that a tile's temporaries stay
    in L2, and every ``orbits._REPEAT_STEPS`` steps a cell whose state
    equals, word for word, its state that many steps earlier is retired
    bounded (-1): a step maps it by its state alone, so every later state
    was seen already and stayed inside.  Neither changes a bit.
    """
    if res < 2:
        raise InputError("res must be at least 2")
    if len(fixed) != 2 * window.n - 2 or not np.isfinite(fixed).all():
        raise InputError(f"slice needs 2n - 2 = {2 * window.n - 2} values "
                         "past z_1, all finite")
    centers = window.grid_centers(res, fixed)
    inside = sup_norm(centers) <= R
    esc_iter = np.where(inside, -1, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, len(centers), _TILE_CELLS):
            live = s + np.flatnonzero(inside[s:s + _TILE_CELLS])
            z, kept = centers[live], None
            for k in range(1, n_max + 1):
                if live.size == 0:
                    break
                z, _, norm, ok = _step(pmap, z, False)
                out = ~ok | (norm > R)  # an overflowing cell escapes here too
                if out.any():
                    esc_iter[live[out]] = k
                    live, z = live[~out], z[~out]
                same, kept = _repeats(k, live, z, kept)
                if same is not None:  # periodic from here: stays -1
                    live, z = live[~same], z[~same]
    return EscapeGrid(window=window, res=(res, res),
                      escape_iter=esc_iter.reshape(res, res),
                      centers=centers.reshape(res, res, window.n))


def boundary_extract(grid):
    """The grid's centers at its bounded cells 4-adjacent to an escaped
    cell, (N, n) complex; N = 0 when the grid is all-bounded or
    all-escaped."""
    esc = grid.escaped
    nb = np.zeros_like(esc)
    nb[1:, :] |= esc[:-1, :]
    nb[:-1, :] |= esc[1:, :]
    nb[:, 1:] |= esc[:, :-1]
    nb[:, :-1] |= esc[:, 1:]
    return grid.centers[~esc & nb]


def repeller_cloud(pmap, m_max, window, seeds=1024, tol=1e-10, seed=0):
    """All orbit points of repelling and saddle cycles, deduped, (N, n)
    complex.  A 1-D cycle has one multiplier, so it is never a saddle."""
    cycles = find_periodic(pmap, m_max, window, seeds=seeds, tol=tol, seed=seed)
    pts = [q for c in cycles if c.klass in ("repelling", "saddle")
           for q in c.points]
    return dedup_points(np.reshape(pts, (-1, pmap.n)))


def hausdorff(A, B):
    """Symmetric Hausdorff distance in sup-norm between finite clouds,
    (N, n) arrays."""
    if len(A) == 0 or len(B) == 0:
        raise ValueError("hausdorff of an empty cloud")
    return float(max(directed_distance(A, B), directed_distance(B, A)))


def directed_distance(A, B):
    """sup over A of the distance to B (one direction only), for (N, n)
    arrays; A runs in chunks of 1024 points."""
    if len(A) == 0 or len(B) == 0:
        raise ValueError("distance from/to an empty cloud")
    worst = 0.0
    for s in range(0, len(A), 1024):
        d = sup_norm(A[s:s + 1024, None, :] - B[None, :, :])
        worst = max(worst, float(d.min(axis=1).max()))
    return worst


def cloud_to_csv(cloud, n):
    buf = io.StringIO()
    buf.write(",".join(f"re_{i+1},im_{i+1}" for i in range(n)) + "\n")
    for p in cloud:
        buf.write(",".join(f"{v:.12g}" for z in p for v in (z.real, z.imag)))
        buf.write("\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# image output


def grid_image(grid):
    """(rows, cols) uint8 image: escape iteration scaled to 55..255,
    bounded cells 0."""
    it = grid.escape_iter.astype(float)
    img = np.zeros(grid.res, dtype=np.uint8)
    esc = grid.escaped
    if esc.any():
        top = max(1.0, it[esc].max())
        img[esc] = np.clip(
            np.round(55 + 200 * it[esc] / top), 0, 255
        ).astype(np.uint8)
    return img
