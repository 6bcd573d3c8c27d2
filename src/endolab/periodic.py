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

from .maps import map_kernel, sup_norm

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
    """Eigenvalues of an n x n complex matrix (n <= 3), |.| descending."""
    M = np.asarray(M, dtype=complex)
    if M.shape[0] > 3:
        raise ValueError("n <= 3 only")
    lam = np.linalg.eigvals(M)
    order = np.lexsort((lam.real, -np.abs(lam)))
    return lam[order]


# ---------------------------------------------------------------------------
# classification


def classify_multipliers(multipliers, jacobian=None):
    """Stability class from multiplier moduli with a declared unit margin."""
    mods = np.abs(np.asarray(multipliers, dtype=complex))
    if jacobian is not None and np.abs(jacobian).max() < SUPER_TOL:
        return "super_attracting"
    if np.any(np.abs(mods - 1.0) <= UNIT_MARGIN):
        return "non_hyperbolic"
    if np.all(mods < 1.0):
        return "attracting"
    if np.all(mods > 1.0):
        return "repelling"
    return "saddle"


def classify(pmap, points, residual=None):
    """Build a Cycle record from verified orbit points.

    ``points``: the full cycle, in orbit order; multipliers come from the
    iterated Jacobian over one full period at points[0].
    """
    points = [np.asarray(p, dtype=complex).reshape(pmap.n) for p in points]
    m = len(points)
    jt = pmap.iterated_jet(points[0], m)
    if residual is None:  # jt.value has the bits of iterate(points[0], m)
        residual = float(np.abs(jt.value - points[0]).max())
    lam = eigenvalues(jt.jacobian)
    klass = classify_multipliers(lam, jacobian=jt.jacobian)
    transverse = bool(np.all(np.abs(lam - 1.0) > UNIT_MARGIN))
    return Cycle(
        points=tuple(points),
        multipliers=tuple(lam),
        klass=klass,
        transverse=transverse,
        newton_residual=residual,
    )


def minimal_period(pmap, p, m, tol):
    """Smallest divisor d of m with ||f^d(p) - p|| < tol."""
    p = np.asarray(p, dtype=complex).reshape(pmap.n)
    if float(np.abs(pmap.iterate(p, m) - p).max()) >= tol:
        raise ValueError("not periodic at tolerance")
    for d in sorted(k for k in range(1, m + 1) if m % k == 0):
        if float(np.abs(pmap.iterate(p, d) - p).max()) < tol:
            return d
    return m


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
    """
    x = np.array(x0, dtype=complex)
    m = np.broadcast_to(m, len(x))
    res = np.full(len(x), np.inf)
    active = np.ones(len(x), dtype=bool)
    eye = np.eye(pmap.n, dtype=complex)

    for k in range(max_steps):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        xs = x[idx]
        fx, J, steps = map_kernel(pmap, xs, m[idx], jacobian=eye)
        ok = steps == m[idx]  # seeds whose orbit overflows are dropped
        active[idx[~ok]] = False
        idx = idx[ok]
        if idx.size == 0:
            break
        g, J = fx[ok] - xs[ok], J[ok] - eye
        r = sup_norm(g)
        res[idx] = r
        done = r < tol
        active[idx[done]] = False
        idx = idx[~done]
        if idx.size == 0:
            break
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
        if idx.size == 0:
            break
        # damping: halve until the residual no longer increases; a trial
        # point whose orbit overflows has residual inf.  Only the halved
        # rows are evaluated again, and only they can get worse.
        t_damp = np.ones(len(idx))
        best = x[idx] - step
        trial = np.arange(len(idx))
        for _ in range(max_halvings):
            fb, _, steps = map_kernel(pmap, best[trial], m[idx[trial]])
            ok = steps == m[idx[trial]]
            rn = np.full(len(trial), np.inf)
            rn[ok] = sup_norm(fb[ok] - best[trial[ok]])
            trial = trial[~(rn <= r[trial])
                          & (t_damp[trial] > 2.0 ** -float(max_halvings))]
            if trial.size == 0:
                break
            t_damp[trial] *= 0.5
            best[trial] = x[idx[trial]] - t_damp[trial, None] * step[trial]
        x[idx] = best
    return x, res


def find_periodic(pmap, m_max, window, seeds=1024, tol=1e-10, seed=0):
    """All cycles found with minimal period <= m_max and base point in the
    window, sorted by period then lexicographically by base point.

    One Newton batch holds every period's seeds, highest period first, so
    the seeds still stepping are a prefix (``map_kernel``).  Roots are then
    listed by period, then seed: the dedup keeps the first rep in reach."""
    if m_max < 1 or seeds < 1:
        raise ValueError("m_max and seeds must be >= 1")
    # a root accepted at residual tol is resolved only to about tol: above
    # DEDUP_TOL the dedup cannot merge its copies.  NaN fails the test too
    if not 0 < tol <= DEDUP_TOL:
        raise ValueError(f"tol must lie in (0, {DEDUP_TOL:g}]")
    m = np.repeat(np.arange(1, m_max + 1), seeds)[::-1]
    x0 = np.concatenate([window.sample(seeds, seed=seed + k)
                         for k in range(1, m_max + 1)])[::-1]
    pts, res = _newton_batch(pmap, x0, m, tol)
    roots = [(p, float(r)) for p, r in zip(pts[::-1], res[::-1]) if r < tol]
    return _collect_cycles(pmap, roots, m_max, window, tol)


def _collect_cycles(pmap, roots, m_max, window, tol):
    # dedup at DEDUP_TOL in sup-norm: a root joins the first rep within
    # reach, which keeps the point of lower residual; the rep order decides
    # which point starts each cycle
    reps = np.empty((len(roots), pmap.n), dtype=complex)
    resid = np.empty(len(roots))
    count = 0
    for p, r in roots:
        hit = np.flatnonzero(sup_norm(reps[:count] - p) < DEDUP_TOL)
        if hit.size == 0:
            reps[count], resid[count] = p, r
            count += 1
        elif r < resid[hit[0]]:
            reps[hit[0]], resid[hit[0]] = p, r
    reps, resid = reps[:count], resid[:count]

    # orbit[k] = f^k(reps); a rep's period is the first k <= m_max at which
    # its orbit returns, which is minimal: no smaller k passed the test
    orbit = [reps]
    ok = np.ones(count, dtype=bool)
    for _ in range(m_max):
        x, _, steps = map_kernel(pmap, orbit[-1])
        ok &= steps == 1
        orbit.append(x)
    orbit = np.stack(orbit)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = sup_norm(orbit[1:] - reps)
    back = ok & (gap < max(tol, DEDUP_TOL))
    period = np.where(back.any(axis=0), back.argmax(axis=0) + 1, 0)

    cycles = []
    used = np.zeros(count, dtype=bool)
    for i in np.flatnonzero(period):
        if used[i]:
            continue
        cyc = orbit[:period[i], i].copy()
        inside = window.contains(cyc)
        if not inside.any():
            continue
        # base point: lexicographically smallest orbit point inside window
        base = min(cyc[inside], key=_lex_key)
        k = np.flatnonzero(sup_norm(cyc - base) < DEDUP_TOL)[0]
        cyc = np.roll(cyc, -k, axis=0)
        near = sup_norm(reps[:, None, :] - cyc[None, :, :])
        used |= (near < 10 * DEDUP_TOL).any(axis=1)
        cycles.append(classify(pmap, list(cyc), residual=float(resid[i])))
    cycles.sort(key=lambda c: (c.period, _lex_key(c.points[0])))
    return cycles


def _lex_key(p):
    p = np.asarray(p, dtype=complex).ravel()
    return tuple(np.round(v, 9) for v in
                 np.concatenate([p.real, p.imag]))


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
