"""Orbit iteration and the basin predicate."""

import numpy as np
import pytest

from endolab import orbits
from endolab.maps import PolyMap, Window, _step, map_kernel
from endolab.orbits import basin_mask, orbit, shell_points
from endolab.periodic import classify, find_periodic
from endolab.perturb import hakim_map, monomials

Z2 = PolyMap.from_coeffs_1d([0, 0, 1])
BASILICA = PolyMap.from_coeffs_1d([-1, 0, 1])


def basilica_cycle():
    cycles = find_periodic(BASILICA, 2, Window.square(1, -2, 2),
                           seeds=256, seed=0)
    return [c for c in cycles if c.period == 2][0]


def b1_pointwise(f, cycle, p, n_max, tol, R=3.0):
    """The B1 predicate at one point, one step at a time: the orbit
    f^{mk}(p), k = 1..n_max // m, must stay within R, come within tol of
    a cycle point and then stay within tol of that same point.  R = 3 is
    basin_mask's default radius for z^2 - 1, its escape radius."""
    m = cycle.period
    x = np.asarray(p, dtype=complex).reshape(1, f.n)
    locked = None
    for _ in range(max(1, n_max // m)):
        for _ in range(m):
            x = f.eval(x)
        if np.abs(x).max() > R:
            return False
        d = [np.abs(x[0] - q).max() for q in cycle.points]
        j = int(np.argmin(d))
        if locked is None:
            if d[j] < tol:
                locked = j
        elif j != locked or d[j] >= tol:
            return False
    return locked is not None


def words(a):
    return np.asarray(a).view(np.int64)


def random_map(n, degree, rng):
    comps = [[(e, complex(*rng.normal(scale=0.6, size=2)))
              for e in monomials(n, degree) if rng.random() < 0.7 or
              sum(e) == degree] for _ in range(n)]
    return PolyMap.from_terms(n, comps)


def orbit_per_kernel_call(f, p, k):
    """orbit as one map_kernel call per step on a bare point, which keeps
    stepping a point that left the finite range, as the table does: the
    table must match it word for word.  Returns (points, steps)."""
    pts, steps = [np.asarray(p, dtype=complex).reshape(f.n)], k
    for j in range(k):
        x, _, made = map_kernel(f, pts[-1])
        if made < 1:
            steps = min(steps, j)
        pts.append(x)
    return np.array(pts), steps


def count_steps(monkeypatch):
    """Make orbits._step count the rows it maps; returns the count, a
    one-item list."""
    rows = [0]

    def counted(pmap, p, jacobian):
        rows[0] += len(p)
        return _step(pmap, p, jacobian)

    monkeypatch.setattr(orbits, "_step", counted)
    return rows


def basin_mask_all_points(f, cycle, pts, n_max, tol, R):
    """basin_mask as a gather and scatter over every point at each step,
    for the live-set loop to match; also counts how points died."""
    m = cycle.period
    cyc = np.array(cycle.points)
    x = pts.copy()
    alive = np.ones(len(pts), dtype=bool)
    locked = np.full(len(pts), -1)
    died = {"overflow": 0, "escape": 0, "broke": 0}
    for _ in range(max(1, n_max // m)):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        x[idx], _, reached = map_kernel(f, x[idx], m)
        over = reached < m
        alive[idx[over]], locked[idx[over]] = False, -1
        died["overflow"] += int(over.sum())
        idx = idx[~over]
        if idx.size == 0:
            break
        esc = np.abs(x[idx]).max(axis=-1) > R
        alive[idx[esc]], locked[idx[esc]] = False, -1
        died["escape"] += int(esc.sum())
        idx = idx[~esc]
        d = np.abs(x[idx][:, None, :] - cyc[None, :, :]).max(axis=-1)
        j = d.argmin(axis=1)
        near = d[np.arange(len(idx)), j] < tol
        fresh = locked[idx] < 0
        locked[idx[near & fresh]] = j[near & fresh]
        broke = ~fresh & (~near | (j != locked[idx]))
        alive[idx[broke]], locked[idx[broke]] = False, -1
        died["broke"] += int(broke.sum())
    return locked >= 0, died


class TestOrbit:
    def test_steps_match_one_kernel_call_per_step(self):
        rng = np.random.default_rng(21)
        maps = [hakim_map(1), hakim_map(2)]
        maps += [random_map(n, d, rng) for n in (1, 2, 3) for d in (2, 5)]
        seen = {"step_0": 0, "later": 0, "none": 0}
        for f in maps:
            starts = np.array([
                np.full(f.n, -0.2 + 0.01j),
                0.4 * (rng.normal(size=f.n) + 1j * rng.normal(size=f.n)),
                np.full(f.n, 2.5 - 1.5j), np.full(f.n, 4.0 + 0j),
                np.full(f.n, 1e80 + 0j),  # |f| ~ 1e160 overflows at once
                np.full(f.n, complex(np.nan, 0.0))])  # fails at step 0
            table, steps = orbit(f, starts, 60)
            assert table.shape == (61,) + starts.shape
            assert steps.shape == (len(starts),)
            assert steps[-1] == steps[-2] == 0
            for i, p in enumerate(starts):
                want, made = orbit_per_kernel_call(f, p, 60)
                got, got_steps = orbit(f, p, 60)
                assert got.shape == want.shape == (61, f.n)
                assert got_steps == made == steps[i]
                assert np.array_equal(words(got), words(want))
                assert np.array_equal(words(table[:, i]), words(want))
                seen["step_0" if made == 0 else "none" if made == 60
                     else "later"] += 1
            # any leading batch shape; a shorter table is a prefix
            short, few = orbit(f, starts.reshape(2, 3, f.n), 4)
            assert np.array_equal(words(short),
                                  words(table[:5].reshape(5, 2, 3, f.n)))
            assert np.array_equal(few, np.minimum(steps, 4).reshape(2, 3))
        # most random maps send every start out: the hakim maps keep theirs
        assert min(seen.values()) >= 3, seen

    def test_zero_steps_is_the_start(self):
        p = np.array([0.3 - 0.1j, 2.0 + 0j])
        pts, steps = orbit(hakim_map(2), p, 0)
        assert pts.shape == (1, 2) and steps == 0
        assert np.array_equal(words(pts[0]), words(p))

    def test_bounded_orbit(self):
        pts, steps = orbit(Z2, np.array([0.5 + 0j]), 50)
        assert steps == 50
        assert pts.shape == (51, 1)
        assert abs(pts[-1, 0]) < 1e-9

    def test_escaping_orbit(self):
        # 1.5^(2^j) passes 1e150 at j = 10: step 9 is the first to fail
        pts, steps = orbit(Z2, np.array([1.5 + 0j]), 50)
        assert steps == 9
        assert abs(pts[9, 0]) <= 1e150 < abs(pts[10, 0])


class TestBasinTests:
    def test_basilica_immediate_basin(self):
        c = basilica_cycle()
        assert basin_mask(BASILICA, c, np.array([0.05 + 0j]))[0]

    def test_outside_point_rejected(self):
        c = basilica_cycle()
        assert not basin_mask(BASILICA, c, np.array([2.5 + 0j]))[0]

    def test_monotone_horizon(self):
        c = basilica_cycle()
        rng = np.random.default_rng(3)
        xy = rng.uniform(-0.4, 0.4, size=(20, 2))
        pts = xy[:, :1] + 1j * xy[:, 1:]
        inside = basin_mask(BASILICA, c, pts, n_max=400, tol=1e-6)
        assert inside.any()
        for n in (800, 1600):
            mask = basin_mask(BASILICA, c, pts, n_max=n, tol=1e-6)
            assert mask[inside].all()

    def test_basin_mask_matches_pointwise(self):
        c = basilica_cycle()
        rng = np.random.default_rng(4)
        pts = (rng.uniform(-1.5, 1.5, size=(64, 1))
               + 1j * rng.uniform(-1.5, 1.5, size=(64, 1)))
        mask = basin_mask(BASILICA, c, pts, n_max=1000, tol=1e-6)
        assert mask.any() and not mask.all()
        for i, p in enumerate(pts):
            assert mask[i] == b1_pointwise(BASILICA, c, p, 1000, 1e-6)

    # each tol is wide enough that some points lock and then leave it
    @pytest.mark.parametrize("f,cycle_points,tol", [
        (Z2, [[0j]], 1.2),
        (BASILICA, [[0j], [-1 + 0j]], 0.6),
        (PolyMap.from_terms(2, ((((2, 0), 1.0), ((0, 0), -1.0)),
                                (((0, 2), 1.0), ((1, 0), 0.1)))),
         None, 0.6),
        # the airplane z^2 + c: 0 lies on a super-attracting 3-cycle
        (PolyMap.from_coeffs_1d([-1.7548776662466927, 0, 1]), None, 0.5),
    ], ids=["z2_fixed", "basilica_2", "quad_2d", "airplane_3"])
    def test_live_set_matches_all_point_loop(self, f, cycle_points, tol,
                                             monkeypatch):
        if cycle_points is None:  # the orbit of the origin
            cycle_points = orbit(f, np.zeros(f.n), 60)[0][-3:]
            if f.n == 2:
                cycle_points = cycle_points[-2:]
        cycle = classify(f, [np.asarray(q, dtype=complex)
                             for q in cycle_points])
        assert cycle.klass in ("attracting", "super_attracting")
        pts = Window.square(f.n, -2.2, 2.2).sample(600, seed=2)
        pts[:20] *= 1e80  # |f| ~ 1e160 overflows at once
        seen = {"overflow": 0, "escape": 0, "broke": 0}
        # past a radius this small, points would come back and lock
        top = max(np.abs(q).max() for q in cycle.points)
        rows, default = count_steps(monkeypatch), orbits._REPEAT_STEPS
        for R in (top + 0.5, 3.0, 1e200):
            # 1000 steps reach past the second check, and past the
            # hundreds of steps in which quad_2d's imaginary parts
            # underflow to 0, so its locked points repeat too
            for n_max in (1, 7, 300, 1000):
                want, died = basin_mask_all_points(f, cycle, pts, n_max,
                                                   tol, R)
                stepped = {}
                # points whose state repeats are retired every round,
                # every 12 rounds, or never within the horizon
                for every in (1, default, n_max + 1):
                    monkeypatch.setattr(orbits, "_REPEAT_STEPS", every)
                    rows[0] = 0
                    got = basin_mask(f, cycle, pts, n_max=n_max, tol=tol,
                                     R=R)
                    stepped[every] = rows[0]
                    assert got.dtype == bool
                    assert np.array_equal(got, want)
                assert stepped[1] <= stepped[n_max + 1]
                assert stepped[default] <= stepped[n_max + 1]
                for why in seen:
                    seen[why] += died[why]
            # on the longest horizon some locked points repeat and retire
            assert stepped[default] < stepped[n_max + 1]
        assert got.any() and not got.all()
        assert min(seen.values()) > 0, seen

    def test_bounded_cycle_that_never_locks(self, monkeypatch):
        # 1.0 is a fixed point of z^2 at distance 1 from the cycle at 0,
        # and -1.0 lands on it: both states repeat, unlocked, so both are
        # retired failing.  0.5 locks, reaches 0 by underflow and is
        # retired passing
        cycle = classify(Z2, [np.zeros(1, dtype=complex)])
        pts = np.array([[1.0 + 0j], [-1.0 + 0j], [0.5 + 0j]])
        want, _ = basin_mask_all_points(Z2, cycle, pts, 300, 1e-6, 3.0)
        assert want.tolist() == [False, False, True]
        rows, stepped = count_steps(monkeypatch), {}
        default = orbits._REPEAT_STEPS
        for every in (1, default, 301):
            monkeypatch.setattr(orbits, "_REPEAT_STEPS", every)
            rows[0] = 0
            got = basin_mask(Z2, cycle, pts, n_max=300, tol=1e-6, R=3.0)
            stepped[every] = rows[0]
            assert np.array_equal(got, want)
        assert stepped[301] == 3 * 300
        assert stepped[1] < stepped[default] < stepped[301]

    def test_state_periodic_from_the_start(self, monkeypatch):
        # -1.75 z^3 + 3.75 z^2 fixes 0, super-attracting, and swaps 1 and 2
        # exactly in floats.  From 1 the orbit leaves tol 1.5 of 0, comes
        # back and locks at round 2, and breaks at round 3: it fails.  Its
        # start repeats at every even round, but was never tested, so the
        # first check keeps states and compares none
        f = PolyMap.from_coeffs_1d([0, 0, 3.75, -1.75])
        cycle = classify(f, [np.zeros(1, dtype=complex)])
        assert cycle.klass == "super_attracting"
        pts = np.array([[1.0 + 0j], [0.1 + 0j]])
        want, _ = basin_mask_all_points(f, cycle, pts, 100, 1.5, 10.0)
        assert want.tolist() == [False, True]
        for every in (1, 2, orbits._REPEAT_STEPS, 101):
            monkeypatch.setattr(orbits, "_REPEAT_STEPS", every)
            got = basin_mask(f, cycle, pts, n_max=100, tol=1.5, R=10.0)
            assert np.array_equal(got, want)

    def test_requires_attracting_cycle(self):
        cycles = find_periodic(Z2, 1, Window.square(1, -2, 2), seeds=128,
                               seed=0)
        rep = [c for c in cycles if c.klass == "repelling"][0]
        with pytest.raises(ValueError):
            basin_mask(Z2, rep, np.array([0.1 + 0j]))


class TestRepeats:
    def test_compares_every_word_of_its_own_row(self, monkeypatch):
        monkeypatch.setattr(orbits, "_REPEAT_STEPS", 3)
        rng = np.random.default_rng(5)
        live = np.array([1, 4, 5, 7, 9, 10, 12, 20])
        x = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
        x[5, 1] = 0j
        assert orbits._repeats(2, live, x, "kept") == (None, "kept")
        same, kept = orbits._repeats(3, live, x, None)  # only keeps
        assert same is None and np.array_equal(kept[0], live)
        # rows 4, 7 and 20 leave.  Rows 1 and 12 keep their states; 5, 9
        # and 10 each change one word: the last, the first, and +0 to -0
        rest = [0, 2, 4, 5, 6]
        y = x[rest]
        y[1, 1] = complex(y[1, 1].real, np.nextafter(y[1, 1].imag, 9.0))
        y[2, 0] = complex(np.nextafter(y[2, 0].real, 9.0), y[2, 0].imag)
        y[3, 1] = complex(0.0, -0.0)
        same, kept = orbits._repeats(6, live[rest], y, kept)
        assert same.tolist() == [True, False, False, False, True]
        assert np.array_equal(kept[0], live[rest])
        # nothing repeats: None, and the states are kept all the same
        same, kept = orbits._repeats(9, live[rest], y + 1, kept)
        assert same is None and kept[1].shape == (5, 4)


class TestShellPoints:
    def test_matches_per_point_loop_word_for_word(self):
        ang = 2 * np.pi * np.arange(16) / 16
        for n, center in ((1, [0j]), (2, [0.5 + 0j, complex(-0.0, -0.0)]),
                          (3, [0.1 - 0.2j, -0.0, 2j])):
            center = np.array(center, dtype=complex)
            want = [center]
            for j in range(n):
                for w in 0.05 * np.exp(1j * ang):
                    q = center.copy()
                    q[j] += w
                    want.append(q)
            got = shell_points(center, 0.05, n)
            assert np.array_equal(words(got), words(np.array(want)))

    def test_count_and_radius(self):
        pts = shell_points(np.array([0.5 + 0j, 0j]), 0.1, 2)
        assert pts.shape[1] == 2
        assert len(pts) == 1 + 2 * 16
        d = np.abs(pts[1:] - np.array([0.5 + 0j, 0j])).max(axis=1)
        assert np.allclose(d, 0.1)
