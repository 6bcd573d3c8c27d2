"""Periodic points: Newton search, minimal periods, multipliers, stability.

The finder runs damped Newton on f^m(x) - x from a batch of scrambled
low-discrepancy seeds, dedups the converged roots, groups them into
cycles and classifies each cycle from the eigenvalues of the iterated
Jacobian at a base point.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .maps import InputError, map_kernel, sup_norm
from .orbits import orbit

DEDUP_TOL = 1e-8
UNIT_MARGIN = 1e-6  # |lambda| within this of 1 counts as borderline
SUPER_TOL = 1e-8  # Jacobian entries below this: derivative treated as zero


@dataclass(frozen=True)
class Cycle:
    points: tuple  # orbit as 1-D complex arrays, length = minimal period
    multipliers: tuple  # eigenvalues of D f^m at points[0], |.| descending
    klass: str
    transverse: bool
    newton_residual: float

    @property
    def period(self):
        return len(self.points)


# ---------------------------------------------------------------------------
# eigenvalues of small complex matrices (n <= 3)


def eigenvalues(M):
    """Eigenvalues of complex matrices (..., n, n), n <= 3, |.| descending."""
    M = np.asarray(M, dtype=complex)
    if M.shape[-1] > 3:
        raise ValueError("n <= 3 only")
    lam = np.linalg.eigvals(M)
    order = np.lexsort((lam.real, -np.abs(lam)), axis=-1)
    return np.take_along_axis(lam, order, axis=-1)


# ---------------------------------------------------------------------------
# classification


def classify_multipliers(multipliers, jacobian=None):
    """Stability class from multiplier moduli with a declared unit margin;
    a batch of multipliers (..., n) gives a list of classes."""
    mods = np.abs(np.asarray(multipliers, dtype=complex))
    zero = (jacobian is not None
            and np.abs(jacobian).max(axis=(-2, -1)) < SUPER_TOL)
    klass = np.select([zero, (np.abs(mods - 1.0) <= UNIT_MARGIN).any(-1),
                       (mods < 1.0).all(-1), (mods > 1.0).all(-1)],
                      ["super_attracting", "non_hyperbolic", "attracting",
                       "repelling"], "saddle")
    return klass.tolist()


def classify(pmap, points):
    """Build a Cycle record from verified orbit points.

    ``points``: the full cycle, in orbit order; multipliers come from the
    iterated Jacobian over one full period at points[0], as a one-row
    ``_cycle_records`` batch: the bits find_periodic gives the cycle.  The
    residual is max |f^m(points[0]) - points[0]|."""
    block = np.array([np.reshape(p, pmap.n) for p in points], dtype=complex)
    return _cycle_records(pmap, block[None], None)[0]


def _cycle_records(pmap, block, residual):
    """Records of k cycles of period m, block (k, m, n) in orbit order, from
    one iterated jet at the base points block[:, 0] and one eigvals."""
    base = block[:, 0]
    jt = pmap.iterated_jet(base, block.shape[1])
    if residual is None:  # jt.value has the bits of iterate(base, m)
        residual = sup_norm(jt.value - base)
    lam = eigenvalues(jt.jacobian)
    klass = classify_multipliers(lam, jacobian=jt.jacobian)
    transverse = (np.abs(lam - 1.0) > UNIT_MARGIN).all(axis=-1)
    return [Cycle(tuple(p), tuple(mu), c, bool(t), float(r)) for p, mu, c, t, r
            in zip(block, lam, klass, transverse, np.reshape(residual, -1))]


# ---------------------------------------------------------------------------
# Newton search


def _newton_batch(pmap, x0, m, tol, max_steps=50, max_halvings=30):
    """Damped Newton on g(x) = f^m(x) - x for a batch of seeds.

    ``m`` is an int or, as ``map_kernel`` takes it, a per-seed count that
    does not increase along the batch; each seed keeps its bits either way.
    Returns (points, residuals).  A seed's residual is max |g| at the
    last point where g was evaluated; a converged seed's is below tol.
    Seeds whose Newton system goes singular or whose orbit overflows are
    dropped.  A dropped seed, or one that runs out of max_steps, keeps its
    last finite residual; only a seed that overflows at its first
    evaluation keeps residual inf.

    Each Newton step s is damped: x moves to x - 2^-k s for the first
    k < max_halvings at which max |g| is no larger than at x (a trial
    whose orbit overflows has max |g| = inf and fails), and where no such
    k passes, to x - 2^-max_halvings s, which is not evaluated.
    """
    x = np.array(x0, dtype=complex)
    m = np.broadcast_to(m, len(x))
    res = np.full(len(x), np.inf)
    active = np.ones(len(x), dtype=bool)
    eye = np.eye(pmap.n, dtype=complex)

    for _ in range(max_steps):
        idx = np.flatnonzero(active)
        xs = x[idx]
        fx, J, steps = map_kernel(pmap, xs, m[idx], jacobian=True)
        ok = steps == m[idx]  # seeds whose orbit overflows are dropped
        active[idx[~ok]] = False
        idx = idx[ok]
        g, J = fx[ok] - xs[ok], J[ok] - eye
        r = sup_norm(g)
        res[idx] = r
        done = r < tol
        active[idx[done]] = False
        idx = idx[~done]
        g, J, r = g[~done], J[~done], r[~done]
        with np.errstate(all="ignore"):
            try:
                step = np.linalg.solve(J, g[..., None])[..., 0]
            except np.linalg.LinAlgError:
                # the same LU finds a zero pivot exactly where the sign of
                # the determinant is 0; those seeds are singular
                ok = np.linalg.slogdet(J)[0] != 0
                step = np.full_like(g, np.nan)
                step[ok] = np.linalg.solve(J[ok], g[ok, :, None])[..., 0]
        ok = np.isfinite(step).all(axis=-1)
        active[idx[~ok]] = False
        idx, step, r = idx[ok], step[ok], r[ok]
        if idx.size == 0:  # every seed has converged or been dropped
            break
        # damping (see above): every row tries k = 0; the rows that fail try
        # k = 1 ... max_halvings - 1 as one ladder batch, one map_kernel call
        best = x[idx] - step
        with np.errstate(over="ignore", invalid="ignore"):  # overflowed rows
            fb, _, steps = map_kernel(pmap, best, m[idx])
            rn = np.where(steps == m[idx], sup_norm(fb - best), np.inf)
            fail = np.flatnonzero(~(rn <= r))
            if fail.size and max_halvings:
                t = np.ldexp(1.0, -np.arange(1, max_halvings + 1))
                ladder = x[idx[fail], None] - t[:, None] * step[fail, None]
                trial = ladder[:, :-1].reshape(-1, pmap.n)
                mt = np.repeat(m[idx[fail]], max_halvings - 1)
                fb, _, steps = map_kernel(pmap, trial, mt)
                rn = np.where(steps == mt, sup_norm(fb - trial), np.inf)
                up = ~(rn.reshape(len(fail), -1) <= r[fail, None])
                # the first level that passes, or the last where none does
                k = np.logical_and.accumulate(up, axis=1).sum(axis=1)
                best[fail] = ladder[np.arange(len(fail)), k]
        x[idx] = best
    return x, res


def find_periodic(pmap, m_max, window, seeds=1024, tol=1e-10, seed=0):
    """All cycles found with minimal period <= m_max and base point in the
    window, sorted by period then lexicographically by base point.

    One Newton batch holds every period's seeds, highest period first, so
    the seeds still stepping are a prefix (``map_kernel``).  The roots go
    to ``_collect_cycles`` listed by period, then seed."""
    if m_max < 1 or seeds < 1:
        raise InputError("m_max and seeds must be >= 1")
    # a root accepted at residual tol is resolved only to about tol: above
    # DEDUP_TOL the dedup cannot merge its copies.  NaN fails the test too
    if not 0 < tol <= DEDUP_TOL:
        raise InputError(f"tol must lie in (0, {DEDUP_TOL:g}]")
    m = np.repeat(np.arange(1, m_max + 1), seeds)[::-1]
    x0 = np.concatenate([window.sample(seeds, seed=seed + k)
                         for k in range(1, m_max + 1)])[::-1]
    pts, res = (a[::-1] for a in _newton_batch(pmap, x0, m, tol))
    return _collect_cycles(pmap, pts[res < tol], res[res < tol], m_max,
                           window, tol)


def _collect_cycles(pmap, points, resid, m_max, window, tol):
    """Cycles from roots (N, n) with residuals (N,), in root order.

    The roots are deduped (``_dedup``); one batched orbit gives each rep's
    minimal period.  In rep order, a rep whose orbit meets the window
    starts a cycle unless an earlier cycle passed within 10 DEDUP_TOL of
    it; a rep whose orbit misses the window marks nothing.  Per period, the
    cycles are rolled to their base points and classified in one batch."""
    reps, resid = _dedup(points, resid, DEDUP_TOL)

    # table[k] = f^k(reps); a rep's period is the first k <= m_max at which
    # its orbit returns, which is minimal: no smaller k passed the test
    table, steps = orbit(pmap, reps, m_max)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = sup_norm(table[1:] - reps)
    back = (steps == m_max) & (gap < max(tol, DEDUP_TOL))
    period = np.where(back.any(axis=0), back.argmax(axis=0) + 1, 0)
    inside = window.contains(table[:-1]) & (np.arange(m_max)[:, None] < period)

    starts, used = [], np.zeros(len(reps), dtype=bool)
    for i in np.flatnonzero(inside.any(axis=0)):
        if not used[i]:
            near = sup_norm(reps[:, None, :] - table[:period[i], i])
            used |= (near < 10 * DEDUP_TOL).any(axis=1)
            starts.append(i)
    starts, cycles = np.array(starts, dtype=np.intp), []
    for m in np.unique(period[starts]):
        s = starts[period[starts] == m]
        block = table[:m, s].swapaxes(0, 1)  # (k, m, n)
        keys = np.round(np.concatenate([block.real, block.imag], axis=-1), 9)
        # base point: the orbit point inside the window of least key, the
        # first on a tie; the cycle starts at the first point near it
        low = inside[:m, s].T
        for key in np.moveaxis(keys, -1, 0):
            low &= key == np.where(low, key, np.inf).min(1, keepdims=True)
        rows = np.arange(len(s))[:, None]
        base = block[rows, low.argmax(axis=1)[:, None]]
        shift = (sup_norm(block - base) < DEDUP_TOL).argmax(axis=1)
        block = block[rows, (np.arange(m) + shift[:, None]) % m]
        order = np.lexsort(keys[rows[:, 0], shift].T[::-1])  # stable
        cycles += _cycle_records(pmap, block[order], resid[s[order]])
    return cycles


def _dedup(points, resid, tol):
    """First-hit dedup at tol in sup-norm, as one pass over the points in
    order runs it: a point joins the first rep within reach, which keeps
    the point of lower residual (the first on a tie), and a point in reach
    of no rep opens one.  Returns (reps, resid) in the order they opened.

    Points within reach are linked, and linked groups never meet under the
    rule, so it runs per group.  Sorting on each real coordinate in turn
    and cutting at gaps above 2 tol splits the points into runs of whole
    groups.  In a run whose box is under tol / 2 wide in each coordinate,
    all points are in reach of each other: its first point opens the rep,
    which keeps the run's lowest residual.  Every other run takes the pass
    over its own points.  No pairs of points are built."""
    reals = np.concatenate([points.real, points.imag], axis=1)
    run = np.zeros(len(points), dtype=np.intp)
    for axis in reals.T:
        order = np.lexsort((axis, run))
        cut = np.diff(axis[order], prepend=-np.inf) > 2 * tol
        run[order] = np.cumsum(cut | (np.diff(run[order], prepend=-1) != 0))
    order = np.lexsort((resid, run))  # stable: the first point on a tie
    at = np.flatnonzero(np.diff(run[order], prepend=-1))
    width = (np.maximum.reduceat(reals[order], at)
             - np.minimum.reduceat(reals[order], at))
    one = (np.hypot(*np.split(width, 2, axis=1)) < tol / 2).all(axis=1)
    opened, kept = list(np.minimum.reduceat(order, at)[one]), []
    for a, size in zip(at[~one], np.diff(at, append=len(points))[~one]):
        mine = []  # the point each rep of this run keeps, by opening
        for i in np.sort(order[a:a + size]):
            hit = np.flatnonzero(sup_norm(points[mine] - points[i]) < tol)
            if hit.size == 0:
                opened.append(i)
                mine.append(i)
            elif resid[i] < resid[mine[hit[0]]]:
                mine[hit[0]] = i
        kept += mine
    kept = np.r_[order[at[one]], kept].astype(np.intp)[np.argsort(opened)]
    return points[kept], resid[kept]


# ---------------------------------------------------------------------------
# aggregate report and CSV


def hyperbolicity_report(pmap, m_max, window, seeds=1024, tol=1e-10, seed=0):
    cycles = find_periodic(pmap, m_max, window, seeds=seeds, tol=tol, seed=seed)
    return {
        "cycles": cycles,
        "all_transverse": all(c.transverse for c in cycles),
        "all_hyperbolic": all(c.klass != "non_hyperbolic" for c in cycles),
    }


def cycles_to_csv(cycles, n):
    """One deterministic row per cycle:
    period, re/im of each base-point coordinate, multiplier moduli,
    class, transverse, residual."""
    buf = io.StringIO()
    head = ["period"]
    head += [f"{ax}(p_{i+1})" for i in range(n) for ax in ("re", "im")]
    head += [f"|lambda_{i+1}|" for i in range(n)]
    head += ["class", "transverse", "residual"]
    buf.write(",".join(head) + "\n")
    for c in cycles:
        p = np.asarray(c.points[0]).ravel()
        row = [str(c.period)]
        row += [f"{v:.12g}" for z in p for v in (z.real, z.imag)]
        row += [f"{abs(l):.12g}" for l in c.multipliers]
        row += [c.klass, str(c.transverse).lower(), f"{c.newton_residual:.3g}"]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()
