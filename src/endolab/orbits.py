"""Orbit iteration with escape detection, and a batched basin predicate.

Basin membership, an open condition, is tested at the given points to a
declared horizon: a "true" answer is evidence at those points, never a
proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .maps import _step, escape_radius, sup_norm

N_MAX_DEFAULT = 2000
SHELL_POINTS = 16  # per dimension pair, plus the center


@dataclass(frozen=True)
class Orbit:
    points: np.ndarray  # (k+1, n) complex
    escaped: bool
    escape_index: Optional[int]

    @property
    def last(self):
        return self.points[-1]


def orbit(pmap, p, n_max, R):
    """Iterate until the sup-norm exceeds R or n_max steps elapse.

    Overflow counts as escape at the step where it happened.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    x = np.asarray(p, dtype=complex).reshape(1, pmap.n)
    pts, k, norm = [x], 0, sup_norm(x)
    with np.errstate(over="ignore", invalid="ignore"):
        while not norm > R:  # a NaN start fails at step 1
            if k == n_max:
                return Orbit(points=np.concatenate(pts), escaped=False,
                             escape_index=None)
            k += 1
            x, _, norm, ok = _step(pmap, x, False)
            if not ok:  # an overflowing point is not kept
                break
            pts.append(x)
    return Orbit(points=np.concatenate(pts), escaped=True, escape_index=k)


def _default_radius(pmap, cycle):
    try:
        R = escape_radius(pmap)
    except ValueError:
        R = 1.0
    top = max(float(np.abs(np.asarray(q)).max()) for q in cycle.points)
    return max(R, 2.0 * top + 1.0)


def shell_points(center, radius, n, per_pair=SHELL_POINTS):
    """Center plus SHELL_POINTS points per complex coordinate on the sphere
    of the given radius (each point offsets one coordinate on a circle)."""
    center = np.asarray(center, dtype=complex).reshape(n)
    pts = [center]
    ang = 2 * np.pi * np.arange(per_pair) / per_pair
    for j in range(n):
        off = radius * np.exp(1j * ang)
        for w in off:
            q = center.copy()
            q[j] += w
            pts.append(q)
    return np.array(pts)


# ---------------------------------------------------------------------------
# basin membership


def basin_mask(pmap, cycle, points, n_max=N_MAX_DEFAULT, tol=1e-6, R=None):
    """Which points lie in the cycle's basin, by their orbits; a bool array.

    A point passes iff its subsampled orbit f^{mk}(p) enters and stays
    within tol of a single cycle point through the horizon, never
    overflowing or leaving the sup-norm ball of radius R.
    """
    if cycle.klass not in ("attracting", "super_attracting"):
        raise ValueError("cycle must be attracting")
    pts = np.asarray(points, dtype=complex).reshape(-1, pmap.n)
    if R is None:
        R = _default_radius(pmap, cycle)
    m = cycle.period
    cyc = np.array([np.asarray(q).reshape(pmap.n) for q in cycle.points])
    # live points: index, point, locked cycle point (-1 while unlocked)
    live, x, locked = np.arange(len(pts)), pts, np.full(len(pts), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max(1, n_max // m)):
            if live.size == 0:
                break
            ok = True
            for _ in range(m):  # an overflowing point dies
                x, _, norm, good = _step(pmap, x, False)
                ok = ok & good
            d = sup_norm(x[:, None, :] - cyc[None, :, :])
            j = d.argmin(axis=1)
            near = d[np.arange(len(live)), j] < tol
            fresh = locked < 0
            broke = ~fresh & (~near | (j != locked))
            locked = np.where(near & fresh, j, locked)
            dead = ~ok | (norm > R) | broke
            if dead.any():
                live, x, locked = live[~dead], x[~dead], locked[~dead]
    return np.isin(np.arange(len(pts)), live[locked >= 0])
