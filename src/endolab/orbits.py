"""Orbit iteration, escape detection, omega-limits, basin membership tests
and a sampling proxy for robust non-expulsion.

The open-condition notions (basins, robust non-expulsion) are realized as
finite sampling probes with declared sample counts: a "true" answer is
evidence at the sampled points, never a proof.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .julia import dedup_points
from .maps import _step, escape_radius, map_kernel, sup_norm

N_MAX_DEFAULT = 2000
BURN_IN_DEFAULT = 500
SAMPLES_DEFAULT = 500
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


def orbit_to_csv(o):
    buf = io.StringIO()
    n = o.points.shape[1]
    buf.write("k," + ",".join(f"re_{i+1},im_{i+1}" for i in range(n)) + "\n")
    for k, p in enumerate(o.points):
        row = [str(k)] + [f"{v:.12g}" for z in p for v in (z.real, z.imag)]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def omega_limit(pmap, p, R, burn_in=BURN_IN_DEFAULT, samples=SAMPLES_DEFAULT,
                cluster_tol=1e-3):
    """Cluster representatives of the orbit tail, in sorted order.

    Dedup at cluster_tol in sup-norm (julia.dedup_points); raises if the
    orbit escapes before the sampling window completes.
    """
    o = orbit(pmap, p, burn_in + samples, R)
    if o.escaped:
        raise ValueError("orbit escaped")
    return list(dedup_points(o.points[burn_in:], tol=cluster_tol))


# ---------------------------------------------------------------------------
# basin tests (the four-way basin lemma, realized as two sampled probes)


def basin_test_B1(pmap, cycle, p, n_max=N_MAX_DEFAULT, tol=1e-6, R=None):
    """basin_mask at the single point p."""
    p = np.asarray(p, dtype=complex).reshape(1, pmap.n)
    return bool(basin_mask(pmap, cycle, p, n_max=n_max, tol=tol, R=R)[0])


def basin_test_B2prime(pmap, cycle, p, radius, n_max=N_MAX_DEFAULT, tol=1e-6,
                       R=None):
    """Uniform version: all points of a shell around p must enter the
    tol-neighbourhood of the cycle set by the horizon, simultaneously."""
    if cycle.klass not in ("attracting", "super_attracting"):
        raise ValueError("cycle must be attracting")
    p = np.asarray(p, dtype=complex).reshape(pmap.n)
    if R is None:
        R = _default_radius(pmap, cycle)
    x = shell_points(p, radius, pmap.n)
    cyc = np.array([np.asarray(q).reshape(pmap.n) for q in cycle.points])
    entered = np.zeros(len(x), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_max):
            x, _, norm, ok = _step(pmap, x, False)
            if not ok.all() or (norm > R).any():
                return False
            d = sup_norm(x[:, None, :] - cyc[None, :, :]).min(axis=-1)
            entered |= d < tol
            if entered.all():
                # trapped: attracting cycles do not release a tol-neighbourhood
                return True
    return False


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
# vectorized basin mask (basin_test_B1 is this at one point)


def basin_mask(pmap, cycle, points, n_max=N_MAX_DEFAULT, tol=1e-6, R=None):
    """The B1 predicate at many points at once; returns a bool array.

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


# ---------------------------------------------------------------------------
# robust non-expulsion probe


def rne_probe(pmap, p, nbhd_radius, K, pert_count=8, pert_eps=1e-3,
              horizon=N_MAX_DEFAULT, seed=0):
    """Sampling proxy for robust non-expulsion of p.

    Perturbs the map pert_count times (coefficient noise with sampled
    sup-norm <= pert_eps on K) and iterates a shell of starts around p
    under each; true iff every sampled orbit stays inside K through the
    horizon.  True is evidence, not proof.
    """
    from .perturb import random_perturbation

    p = np.asarray(p, dtype=complex).reshape(pmap.n)
    if not bool(K.contains(p)):
        raise ValueError("p must lie in K")
    starts = shell_points(p, nbhd_radius, pmap.n)
    maps = [pmap] + [
        random_perturbation(pmap, pert_eps, K, seed=seed + i)
        for i in range(pert_count)
    ]
    for g in maps:
        x = starts.copy()
        for _ in range(horizon):
            if not bool(K.contains(x).all()):
                return False
            x, _, steps = map_kernel(g, x)
            if (steps < 1).any():
                return False
        if not bool(K.contains(x).all()):
            return False
    return True
