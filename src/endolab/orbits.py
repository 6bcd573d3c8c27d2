"""Orbit tables and a batched basin predicate.

Basin membership, an open condition, is tested at the given points to a
declared horizon: a "true" answer is evidence at those points, never a
proof.
"""

from __future__ import annotations

import numpy as np

from .maps import _as_points, _step, escape_radius, sup_norm

N_MAX_DEFAULT = 2000
SHELL_POINTS = 16  # per dimension pair, plus the center
# the orbit loops compare states this many steps apart; 12 = lcm(1..4)
_REPEAT_STEPS = 12


def orbit(pmap, p, k):
    """The orbit table f^0(p), ..., f^k(p) of a batch p (..., n), or of one
    bare (n,) point: ``(points, steps)``.

    ``points`` (k + 1, ..., n) steps the whole batch with ``_step``: row 0
    is p, and row j >= 1 has the bits of ``map_kernel(pmap, p, j)[0]``.
    ``steps`` (...) counts the steps each point made inside the finite
    range, as ``map_kernel``'s does: rows 0..steps of a point mean
    something, the rest do not.  Callers read their own stop rule off the
    table.
    """
    x, bare = _as_points(p, pmap.n)
    pts = [x]
    ok = np.zeros((k + 1,) + x.shape[:-1], dtype=bool)  # row k stays False
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(k):
            x, _, _, ok[j] = _step(pmap, x, False)
            pts.append(x)
    pts, steps = np.stack(pts), ok.argmin(axis=0)
    return (pts[:, 0], steps[0]) if bare else (pts, steps)


def _repeats(k, live, x, kept):
    """At every _REPEAT_STEPS-th count k of an orbit loop: which rows of
    x, the states of the sorted row indices `live`, equal word for word
    their states at the last check, and what to keep for the next one,
    ``(same, kept)``.  ``same`` is None at other counts, at the first check
    (which only keeps) and when no row repeats.

    A step maps each row by its state alone, so a row whose state repeats
    is periodic from there on: every later state was seen already and
    passed the loop's tests, and the loop may retire it.  Comparing words
    leaves ±0 and NaN no argument.  Rows only leave ``live`` between
    checks, so the kept states of the rest are gathered once per check.
    """
    if k % _REPEAT_STEPS:
        return None, kept
    words = x.view(np.int64)  # (rows, 2n)
    if kept is None:
        return None, (live, words)
    rows, old = kept
    if len(rows) != len(live):  # mark the rows still live: a binary
        base = rows[0]  # search per row costs 4x as much
        mark = np.zeros(rows[-1] - base + 1, dtype=bool)
        mark[live - base] = True
        old = old.take(np.flatnonzero(mark[rows - base]), axis=0)
    same = words[:, 0] == old[:, 0]  # column by column: a short axis
    for j in range(1, words.shape[1]):  # reduces slowly
        same &= words[:, j] == old[:, j]
    return (same if same.any() else None), (live, words)


def _default_radius(pmap, cycle):
    try:
        R = escape_radius(pmap)
    except ValueError:
        R = 1.0
    top = max(float(np.abs(np.asarray(q)).max()) for q in cycle.points)
    return max(R, 2.0 * top + 1.0)


def shell_points(center, radius, n):
    """Center plus SHELL_POINTS points per complex coordinate on the sphere
    of the given radius (each point offsets one coordinate on a circle)."""
    center = np.asarray(center, dtype=complex).reshape(n)
    ang = 2 * np.pi * np.arange(SHELL_POINTS) / SHELL_POINTS
    pts = np.tile(center, (n, SHELL_POINTS, 1))
    j = np.arange(n)
    pts[j, :, j] += radius * np.exp(1j * ang)  # one coordinate per block
    return np.concatenate([center[None], pts.reshape(-1, n)])


# ---------------------------------------------------------------------------
# basin membership


def basin_mask(pmap, cycle, points, n_max=N_MAX_DEFAULT, tol=1e-6, R=None):
    """Which points lie in the cycle's basin, by their orbits; a bool array.

    A point passes iff its subsampled orbit f^{mk}(p) enters and stays
    within tol of a single cycle point through the horizon, never
    overflowing or leaving the sup-norm ball of radius R.

    Each round of m steps maps only the live points.  Every
    ``_REPEAT_STEPS`` rounds, from the second check on, a point whose
    state equals, word for word, its state that many rounds earlier is
    retired with the verdict ``locked >= 0``: a round maps it by its state
    alone, so every later round repeats one that passed already.  Nor can
    the lock change: that earlier state was tested too, so had it come
    within tol of a cycle point unlocked, it would have locked then.  No
    bit of the mask moves.
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
    passed, kept = np.zeros(len(pts), dtype=bool), None
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, max(1, n_max // m) + 1):
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
            same, kept = _repeats(r, live, x, kept)
            if same is not None:
                passed[live[same & (locked >= 0)]] = True
                live, x, locked = live[~same], x[~same], locked[~same]
    passed[live[locked >= 0]] = True
    return passed
