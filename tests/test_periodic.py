"""Periodic point finding, multipliers, and classification."""

import numpy as np
import pytest

from endolab import periodic
from endolab.maps import PolyMap, Window, map_kernel, sup_norm
from endolab.periodic import (
    DEDUP_TOL,
    SUPER_TOL,
    UNIT_MARGIN,
    Cycle,
    _collect_cycles,
    _newton_batch,
    classify,
    classify_multipliers,
    cycles_to_csv,
    eigenvalues,
    find_periodic,
    hyperbolicity_report,
)

Z2 = PolyMap.from_coeffs_1d([0, 0, 1])
BASILICA = PolyMap.from_coeffs_1d([-1, 0, 1])
W2 = Window.square(1, -2, 2)
# maps of the joint-batch tests, each with a point where D f - I is
# singular, so that Newton's first system there is singular
CUBIC = PolyMap.from_coeffs_1d([0.1 + 0.2j, 0.25, 0, 1])  # f'(1/2) = 1
TRI2 = PolyMap.from_terms(2, [[((2, 0), 1), ((0, 0), -0.5)],
                              [((0, 2), 1), ((1, 0), 0.3)]])
TRI3 = PolyMap.from_terms(3, [[((2, 0, 0), 1), ((0, 0, 0), -0.3)],
                              [((0, 2, 0), 1), ((1, 0, 0), 0.2)],
                              [((0, 0, 2), 1), ((0, 1, 0), 0.1 + 0.1j)]])
JOINT_CASES = {  # map -> (window, seed with a singular Newton system)
    "z2": (Z2, W2, 0.5),
    "basilica": (BASILICA, W2, 0.5),
    "cubic": (CUBIC, W2, 0.5),
    "tri2": (TRI2, Window.square(2, -2, 2), (0.5, 0.1j)),
    "tri3": (TRI3, Window.square(3, -2, 2), (0.5, 0.1j, -0.2)),
}

# a seed within an ulp of the critical point 16^(-1/15) of z^16 - z: its
# Newton step (about 3.5e15) overflows z^16 at the first few levels
OVERFLOW_TRIAL = {"z2": 0.8312378961427878}


def mobius(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def cycles_of_period(m):
    """Cycles of minimal period m of z^2 within |z| <= 1 (unit circle
    dynamics is angle doubling on Q/Z with odd denominators)."""
    def pts(k):
        return 2 ** k - 1
    total = sum(mobius(m // d) * pts(d) for d in divisors(m))
    count = total // m
    if m == 1:
        count += 1  # the superattracting fixed point 0
    return count


def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


class TestEigenvalues:
    def test_matches_lapack(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            for _ in range(25):
                M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                mine = np.array(sorted(eigenvalues(M),
                                       key=lambda z: (round(z.real, 8),
                                                      round(z.imag, 8))))
                ref = np.array(sorted(np.linalg.eigvals(M),
                                      key=lambda z: (round(z.real, 8),
                                                     round(z.imag, 8))))
                scale = max(1.0, float(np.abs(ref).max()))
                assert np.abs(mine - ref).max() / scale < 1e-8

    def test_trace_det_consistency(self):
        rng = np.random.default_rng(5)
        for n in (2, 3):
            for _ in range(25):
                M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                ev = np.array(eigenvalues(M))
                assert abs(ev.sum() - np.trace(M)) < 1e-8 * max(
                    1.0, abs(np.trace(M)))
                assert abs(np.prod(ev) - np.linalg.det(M)) < 1e-8 * max(
                    1.0, abs(np.linalg.det(M)))


    def test_clustered_multipliers_fall_back_to_lapack(self):
        # D f^2 at a 2-cycle of a triangular 3-D quadratic (the cycles
        # benchmark's quad3_2 entry 1): three distinct multipliers
        # clustered near |lambda| ~ 5, where root-finding on the
        # characteristic polynomial loses accuracy
        M = np.array([
            [4.4076261130547678 + 0.41541085284006923j,
             7.5220545478098247e-03 + 2.7318335475087264e-02j,
             -4.9416286959897965e-05 - 1.6582909393168813e-04j],
            [-0.0, 4.8915313159377778 + 0.68547415679795209j,
             7.7963434457906430e-03 + 2.8475470045668218e-02j],
            [-0.0, -0.0, 4.6941560943231613 + 0.60969412134539192j],
        ])
        ev = np.array(eigenvalues(M))
        diag = np.diag(M)
        expect = diag[np.argsort(-np.abs(diag))]
        assert np.abs(ev - expect).max() < 1e-12 * np.abs(diag).max()


class TestNewtonBatch:
    @pytest.mark.parametrize("f,m,bad,res_bad", [
        (BASILICA, 2, 1e80, np.inf),  # the orbit overflows
        (Z2, 1, 0.5, 0.25),  # J = f'(0.5) - 1 = 0: the system is singular
    ], ids=["overflow", "singular"])
    def test_overflowing_seed_is_dropped(self, f, m, bad, res_bad):
        seeds = W2.sample(64, seed=3)
        pts, res = _newton_batch(f, seeds, m, 1e-10)
        more = np.vstack([seeds, [[bad + 0j]]])
        pts2, res2 = _newton_batch(f, more, m, 1e-10)
        # the other seeds are unchanged, bit for bit; the bad one is dropped
        # where it started, with the residual it had there
        assert np.array_equal(pts2[:-1], pts)
        assert np.array_equal(res2[:-1], res)
        assert pts2[-1, 0] == bad and res2[-1] == res_bad
        assert (res < 1e-10).sum() > 32

    @pytest.mark.parametrize("max_halvings", [30, 3])
    @pytest.mark.parametrize("name", sorted(JOINT_CASES))
    def test_ladder_matches_halving_loop(self, name, max_halvings,
                                         monkeypatch):
        f, window, singular = JOINT_CASES[name]
        blocks = [window.sample(48, seed=11 + m) for m in range(1, 5)]
        # a few ulps off the singular seed, D f - I is nearly singular: the
        # step is huge and fails every level, so the row takes the fallback
        near = np.array(singular, dtype=complex).reshape(f.n)
        near[0] += 4 * 2.0 ** -53
        blocks[0] = np.vstack([blocks[0], near])
        if name in OVERFLOW_TRIAL:
            blocks[3] = np.vstack([blocks[3],
                                   np.full((1, f.n), OVERFLOW_TRIAL[name])])
        m = np.concatenate([np.full(len(b), k) for k, b in
                            enumerate(blocks, start=1)])[::-1]
        x0 = np.concatenate(blocks)[::-1]
        log = dict(levels=np.zeros(max_halvings + 1, dtype=np.intp),
                   overflow=0, full=0, failed=0, iterations=0, ladders=0)
        want = halving_loop_newton(f, x0, m, 1e-10, log,
                                   max_halvings=max_halvings)
        calls = []  # rows of each map_kernel call without a Jacobian

        def counted(pmap, p, m=1, jacobian=False):
            if jacobian is False:
                calls.append(len(p))
            return map_kernel(pmap, p, m, jacobian)

        monkeypatch.setattr(periodic, "map_kernel", counted)
        got = _newton_batch(f, x0, m, 1e-10, max_halvings=max_halvings)
        for a, b in zip(got, want):
            assert np.array_equal(words(a), words(b))
        # one call at the full step per Newton step and one ladder where a
        # row failed it, max_halvings - 1 levels per failed row: the
        # fallback 2^-max_halvings is never evaluated
        assert len(calls) == log["iterations"] + log["ladders"]
        assert sum(calls) == log["full"] + log["failed"] * (max_halvings - 1)
        levels = log["levels"]
        assert levels[0] > 0 and levels[-1] > 0  # the full step, the fallback
        if max_halvings == 30:
            assert levels[4:-1].any()  # a deep level
        if name in OVERFLOW_TRIAL:
            assert log["overflow"] > 0


def halving_loop_newton(pmap, x0, m, tol, log, max_steps=50, max_halvings=30):
    """_newton_batch as it ran with one map_kernel call per halving level,
    the reference for its ladder batch.  ``log`` counts the level each
    damped row took (max_halvings: the fallback), the trials whose orbit
    overflowed, the rows damped and the rows that failed the full step,
    and the Newton steps damped and those in which a row failed it."""
    x = np.array(x0, dtype=complex)
    m = np.broadcast_to(m, len(x))
    res = np.full(len(x), np.inf)
    active = np.ones(len(x), dtype=bool)
    eye = np.eye(pmap.n, dtype=complex)
    for _ in range(max_steps):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        xs = x[idx]
        fx, J, steps = map_kernel(pmap, xs, m[idx], jacobian=eye)
        ok = steps == m[idx]
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
                ok = np.linalg.slogdet(J)[0] != 0
                step = np.full_like(g, np.nan)
                step[ok] = np.linalg.solve(J[ok], g[ok, :, None])[..., 0]
        ok = np.isfinite(step).all(axis=-1)
        active[idx[~ok]] = False
        idx, step, r = idx[ok], step[ok], r[ok]
        if idx.size == 0:
            break
        t_damp = np.ones(len(idx))
        best = x[idx] - step
        trial = np.arange(len(idx))
        level = np.zeros(len(idx), dtype=np.intp)
        for h in range(max_halvings):
            fb, _, steps = map_kernel(pmap, best[trial], m[idx[trial]])
            ok = steps == m[idx[trial]]
            rn = np.full(len(trial), np.inf)
            rn[ok] = sup_norm(fb[ok] - best[trial[ok]])
            log["overflow"] += int((~ok).sum())
            trial = trial[~(rn <= r[trial])
                          & (t_damp[trial] > 2.0 ** -float(max_halvings))]
            if h == 0:
                log["failed"] += len(trial)
                log["ladders"] += bool(trial.size)
            if trial.size == 0:
                break
            level[trial] += 1
            t_damp[trial] *= 0.5
            best[trial] = x[idx[trial]] - t_damp[trial, None] * step[trial]
        log["levels"] += np.bincount(level, minlength=max_halvings + 1)
        log["full"] += len(idx)
        log["iterations"] += 1
        x[idx] = best
    return x, res


def words(a):
    return np.asarray(a).view(np.int64)


def per_period_newton(pmap, blocks, tol):
    """The loop find_periodic ran before its joint batch: one Newton batch
    per period, blocks[m - 1] holding period m's seeds."""
    out = [_newton_batch(pmap, x0, m, tol)
           for m, x0 in enumerate(blocks, start=1)]
    return (np.concatenate([p for p, _ in out]),
            np.concatenate([r for _, r in out]))


def joint_newton(pmap, blocks, tol):
    """One batch over every block, highest period first, as find_periodic
    runs it; the rows come back in the order of per_period_newton."""
    m = np.concatenate([np.full(len(b), k) for k, b in
                        enumerate(blocks, start=1)])[::-1]
    pts, res = _newton_batch(pmap, np.concatenate(blocks)[::-1], m, tol)
    return pts[::-1], res[::-1]


def cycle_words(cycles):
    return [(c.period, words(np.array(c.points)).tolist(),
             words(np.array(c.multipliers)).tolist(), c.klass, c.transverse,
             words(c.newton_residual).tolist()) for c in cycles]


class TestJointNewtonBatch:
    @pytest.mark.parametrize("m_max", [1, 4, 9])
    @pytest.mark.parametrize("name", sorted(JOINT_CASES))
    def test_matches_per_period_loop(self, name, m_max):
        f, window, singular = JOINT_CASES[name]
        tol, seeds, seed = 1e-10, 48, 11
        blocks = [window.sample(seeds, seed=seed + m)
                  for m in range(1, m_max + 1)]
        # find_periodic's cycles, word for word
        pts, res = per_period_newton(f, blocks, tol)
        want = _collect_cycles(f, pts[res < tol], res[res < tol], m_max,
                               window, tol)
        got = find_periodic(f, m_max, window, seeds=seeds, tol=tol,
                            seed=seed)
        assert len(got) > 0 and cycle_words(got) == cycle_words(want)
        # the Newton rows, with a seed whose first system is singular in
        # period 1's block and one that overflows at once in period m_max's
        blocks[0] = np.vstack([blocks[0], [singular]])
        at = len(blocks[0]) - 1
        blocks[-1] = np.vstack([blocks[-1], np.full((1, f.n), 1e200 + 1e200j)])
        want = per_period_newton(f, blocks, tol)
        got = joint_newton(f, blocks, tol)
        for a, b in zip(got, want):
            assert np.array_equal(words(a), words(b))
        pts, res = got
        # both are dropped where they started
        assert res[-1] == np.inf and np.array_equal(pts[-1], blocks[-1][-1])
        assert np.array_equal(pts[at], singular * np.ones(f.n))
        assert tol < res[at] < np.inf
        assert (res < tol).sum() > len(res) // 8

    @pytest.mark.parametrize("f,m,bad,res_bad", [
        (BASILICA, 2, 1e80, np.inf),  # the orbit overflows
        (Z2, 1, 0.5, 0.25),  # J = f'(0.5) - 1 = 0: the system is singular
    ], ids=["overflow", "singular"])
    def test_rows_stay_independent_across_periods(self, f, m, bad, res_bad):
        blocks = [W2.sample(64, seed=3 + k) for k in range(1, 4)]
        pts, res = joint_newton(f, blocks, 1e-10)
        at = sum(len(b) for b in blocks[:m])  # the bad seed's row
        blocks[m - 1] = np.vstack([blocks[m - 1], [[bad + 0j]]])
        pts2, res2 = joint_newton(f, blocks, 1e-10)
        keep = np.arange(len(pts2)) != at
        assert np.array_equal(words(pts2[keep]), words(pts))
        assert np.array_equal(words(res2[keep]), words(res))
        assert pts2[at, 0] == bad and res2[at] == res_bad
        assert (res < 1e-10).sum() > 96


def lex_key(p):
    p = np.asarray(p, dtype=complex).ravel()
    return tuple(np.round(v, 9) for v in np.concatenate([p.real, p.imag]))


def sequential_classify(pmap, cyc, residual):
    """One cycle's record from its own iterated jet, one eigvals call and
    the class rules in their first-match order."""
    jac = pmap.iterated_jet(cyc[0], len(cyc)).jacobian
    lam = np.linalg.eigvals(jac)
    lam = lam[np.lexsort((lam.real, -np.abs(lam)))]
    mods = np.abs(lam)
    if np.abs(jac).max() < SUPER_TOL:
        klass = "super_attracting"
    elif np.any(np.abs(mods - 1.0) <= UNIT_MARGIN):
        klass = "non_hyperbolic"
    elif np.all(mods < 1.0):
        klass = "attracting"
    elif np.all(mods > 1.0):
        klass = "repelling"
    else:
        klass = "saddle"
    return Cycle(points=tuple(cyc), multipliers=tuple(lam), klass=klass,
                 transverse=bool(np.all(np.abs(lam - 1.0) > UNIT_MARGIN)),
                 newton_residual=residual)


def sequential_collect_cycles(pmap, points, resid, m_max, window, tol):
    """_collect_cycles as one pass per root, one base-point search and one
    classify per cycle: the loop find_periodic ran before it batched them."""
    reps = np.empty((len(points), pmap.n), dtype=complex)
    kept = np.empty(len(points))
    count = 0
    for p, r in zip(points, resid):
        hit = np.flatnonzero(sup_norm(reps[:count] - p) < DEDUP_TOL)
        if hit.size == 0:
            reps[count], kept[count] = p, r
            count += 1
        elif r < kept[hit[0]]:
            reps[hit[0]], kept[hit[0]] = p, r
    reps, kept = reps[:count], kept[:count]
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
        base = min(cyc[inside], key=lex_key)
        k = np.flatnonzero(sup_norm(cyc - base) < DEDUP_TOL)[0]
        cyc = np.roll(cyc, -k, axis=0)
        near = sup_norm(reps[:, None, :] - cyc[None, :, :])
        used |= (near < 10 * DEDUP_TOL).any(axis=1)
        cycles.append(sequential_classify(pmap, cyc, float(kept[i])))
    cycles.sort(key=lambda c: (c.period, lex_key(c.points[0])))
    return cycles


PARABOLIC = PolyMap.from_coeffs_1d([0, 1, 1])  # z + z^2
QUARTER = PolyMap.from_coeffs_1d([0.25, 0, 1])  # z^2 + 1/4
REAL_CASES = {name: JOINT_CASES[name][:2]
              for name in ("z2", "basilica", "cubic", "tri2", "tri3")}
REAL_CASES.update(parabolic=(PARABOLIC, W2), quarter=(QUARTER, W2))
IDENTITY = PolyMap.from_coeffs_1d([0, 1])  # every point is fixed
IDENTITY2 = PolyMap.from_terms(2, [[((1, 0), 1)], [((0, 1), 1)]])
D = DEDUP_TOL
CHAIN = [0.9 * D * k for k in range(25)]  # 0.9 DEDUP_TOL apart
SYNTHETIC = {  # name -> (map, roots, residuals, cycles)
    # along a chain of roots, each within reach of the next only, a root
    # joins the rep behind it or opens one two links on; 13 reps 1.8
    # DEDUP_TOL apart give 3 cycles, 10 DEDUP_TOL being the cycle's reach
    "chain": (IDENTITY, [0.3 + x for x in CHAIN], np.arange(1, 26) * 1e-12,
              3),
    # falling residuals: the rep moves down the chain, root by root
    "chain_moved": (IDENTITY, [0.3 + x for x in CHAIN],
                    np.arange(25, 0, -1) * 1e-12, 1),
    # in C^2 the roots agree in z_1 and chain in z_2
    "chain_2d": (IDENTITY2, [[0.1, 0.2 + 1j * x] for x in CHAIN],
                 np.arange(1, 26) * 1e-12, 3),
    # equal residuals: the first root keeps the rep, in a group where all
    # roots are in reach of each other and in a chain
    "ties": (IDENTITY, [0.5, 0.5 + 1e-12, 0.5 - 1e-12, 0.5 + 2e-12j,
                        0.7, 0.7 + 0.6 * D, 0.7 + 0.6 * D + 1e-13,
                        0.7 + 1.2 * D],
             [2e-11, 1e-11, 1e-11, 1e-11, 2e-11, 1e-11, 1e-11, 3e-11], 2),
    # the rep just outside the window comes first and marks nothing, so
    # the later one inside, 5 DEDUP_TOL away, starts the cycle
    "outside_first": (IDENTITY, [-2 - 3 * D, 1.5, -2 + 2 * D],
                      [1e-11, 1e-11, 1e-11], 2),
    # conjugate pairs share their real parts; pairs closer than
    # DEDUP_TOL merge, by the box test (0.4 DEDUP_TOL apart) or by the
    # pass (0.6 apart), and those 1.2 apart do not
    "conjugates": (IDENTITY,
                   [0.2 + 0.3j, 0.2 - 0.3j, 0.2 + 0.3j + 1e-13,
                    0.2 - 0.3j - 1e-13j, 0.6 + 0.2j * D, 0.6 - 0.2j * D,
                    -0.4 + 0.3j * D, -0.4 - 0.3j * D, 0.9 + 0.6j * D,
                    0.9 - 0.6j * D],
                   [3e-11, 3e-11, 1e-11, 2e-11, 1e-11, 1e-11, 2e-11, 1e-11,
                    1e-11, 1e-11], 5),
}


class TestCollectCycles:
    """The batched dedup, base points and classify against the sequential
    pass, word for word."""

    @pytest.mark.parametrize("name", sorted(REAL_CASES))
    def test_real_roots_match_sequential(self, name):
        # real maps give conjugate pairs; the parabolic ones give roots
        # strewn about their multiple fixed points
        f, window = REAL_CASES[name]
        tol, seeds, m_max = 1e-10, 256, 4
        blocks = [window.sample(seeds, seed=7 + m)
                  for m in range(1, m_max + 1)]
        pts, res = joint_newton(f, blocks, tol)
        pts, res = pts[res < tol], res[res < tol]
        got = _collect_cycles(f, pts, res, m_max, window, tol)
        want = sequential_collect_cycles(f, pts, res, m_max, window, tol)
        assert len(got) > 0 and cycle_words(got) == cycle_words(want)
        assert [type(c.klass) for c in got] == [str] * len(got)

    @pytest.mark.parametrize("name", sorted(SYNTHETIC))
    def test_synthetic_roots_match_sequential(self, name):
        f, roots, resid, count = SYNTHETIC[name]
        window = Window.square(f.n, -2, 2)
        pts = np.array(roots, dtype=complex).reshape(-1, f.n)
        resid = np.array(resid, dtype=float)
        got = _collect_cycles(f, pts, resid, 1, window, 1e-10)
        want = sequential_collect_cycles(f, pts, resid, 1, window, 1e-10)
        assert len(got) == count and cycle_words(got) == cycle_words(want)

    def test_no_roots_no_cycles(self):
        none = np.empty((0, 1), dtype=complex)
        assert _collect_cycles(Z2, none, np.empty(0), 3, W2, 1e-10) == []


class TestClassification:
    def test_kinds(self):
        assert classify_multipliers((0.5 + 0j,)) == "attracting"
        assert classify_multipliers((2.0 + 0j,)) == "repelling"
        assert classify_multipliers((0.5 + 0j, 2.0 + 0j)) == "saddle"
        assert classify_multipliers((1.0 + 0j,)) == "non_hyperbolic"
        assert classify_multipliers(
            (0.0 + 0j,), jacobian=np.zeros((1, 1))) == "super_attracting"
        # without the Jacobian, zero eigenvalues alone are just attracting
        assert classify_multipliers((0.0 + 0j,)) == "attracting"
        # a batch of rows gets one class per row
        assert classify_multipliers([[0.5], [2.0], [1.0]], jacobian=np.ones(
            (3, 1, 1))) == ["attracting", "repelling", "non_hyperbolic"]

    def test_super_attracting_needs_zero_jacobian(self):
        # eigenvalues both zero but Jacobian nilpotent non-zero: attracting
        J = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert classify_multipliers((0j, 0j), jacobian=J) == "attracting"
        assert classify_multipliers((0j, 0j),
                                    jacobian=np.zeros((2, 2))) == \
            "super_attracting"

    def test_classify_z2_fixed_points(self):
        c0 = classify(Z2, [np.array([0j])])
        assert c0.klass == "super_attracting" and c0.period == 1
        c1 = classify(Z2, [np.array([1.0 + 0j])])
        assert c1.klass == "repelling"
        assert abs(c1.multipliers[0] - 2.0) < 1e-12
        assert c1.transverse

    def test_fixed_point_multiplier_one_not_transverse(self):
        f = PolyMap.from_coeffs_1d([0, 1, 1])  # z + z^2
        c = classify(f, [np.array([0j])])
        assert c.klass == "non_hyperbolic"
        assert not c.transverse


class TestFindPeriodic:
    def test_z2_counts_match_divisor_oracle(self):
        cycles = find_periodic(Z2, 6, W2, seeds=4096, seed=0)
        by_m = {}
        for c in cycles:
            by_m[c.period] = by_m.get(c.period, 0) + 1
        for m in range(1, 7):
            assert by_m.get(m, 0) == cycles_of_period(m), f"period {m}"

    def test_z2_locations_and_multipliers(self):
        cycles = find_periodic(Z2, 5, W2, seeds=2048, seed=0)
        for c in cycles:
            for p in c.points:
                r = abs(p[0])
                assert min(abs(r - 1.0), r) < 1e-8
            if c.klass == "repelling":
                assert abs(abs(c.multipliers[0]) - 2 ** c.period) < 1e-6

    def test_basilica_superattracting_two_cycle(self):
        cycles = find_periodic(BASILICA, 2, Window.square(1, -2, 2),
                               seeds=512, seed=0)
        two = [c for c in cycles if c.period == 2]
        assert len(two) == 1
        c = two[0]
        assert c.klass == "super_attracting"
        got = sorted((p[0] for p in c.points), key=lambda z: z.real)
        assert abs(got[0] + 1.0) < 1e-9 and abs(got[1]) < 1e-9

    def test_base_point_invariance(self):
        # multipliers computed from any cycle point agree (conjugacy)
        cycles = find_periodic(BASILICA, 3, W2, seeds=1024, seed=0)
        for c in cycles:
            if c.period < 2:
                continue
            base = np.array(sorted(c.multipliers, key=lambda z: -abs(z)))
            for p in c.points:
                jt = BASILICA.iterated_jet(np.asarray(p), c.period)
                ev = np.array(sorted(np.linalg.eigvals(jt.jacobian),
                                     key=lambda z: -abs(z)))
                assert np.abs(ev - base).max() < 1e-7 * max(
                    1.0, float(np.abs(base).max()))

    @pytest.mark.parametrize("tol", [1e-7, 1e-6, float("inf"), float("nan"),
                                     0.0, -1e-10])
    def test_tol_must_lie_within_dedup(self, tol):
        # at tol 1e-7, 256 seeds give 6 basilica cycles of period <= 2
        # instead of 3: roots resolved to about tol escape the 1e-8 dedup
        with pytest.raises(ValueError, match="tol"):
            find_periodic(BASILICA, 2, W2, seeds=256, tol=tol)

    def test_tol_at_dedup_counts_right(self):
        cycles = find_periodic(BASILICA, 2, W2, seeds=256, tol=DEDUP_TOL)
        assert sorted(c.period for c in cycles) == [1, 1, 2]

    def test_deterministic_under_seed(self):
        a = find_periodic(Z2, 3, W2, seeds=512, seed=5)
        b = find_periodic(Z2, 3, W2, seeds=512, seed=5)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert ca.period == cb.period
            assert np.abs(np.array(ca.points) - np.array(cb.points)).max() \
                == 0.0


class TestReports:
    def test_hyperbolicity_report_z2(self):
        rep = hyperbolicity_report(Z2, 3, W2, seeds=512, seed=0)
        assert rep["all_transverse"]
        # 0 is superattracting, the rest repelling: all hyperbolic
        assert rep["all_hyperbolic"]

    def test_cycles_to_csv_shape(self):
        cycles = find_periodic(Z2, 2, W2, seeds=256, seed=0)
        text = cycles_to_csv(cycles, 1)
        lines = text.strip().split("\n")
        assert lines[0].startswith("period")
        assert len(lines) == 1 + len(cycles)
