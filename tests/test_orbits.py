"""Orbit iteration and the basin predicate."""

import numpy as np
import pytest

from endolab import PolyMap, Window, find_periodic, orbit
from endolab.maps import EntireNode, map_kernel
from endolab.orbits import basin_mask, shell_points
from endolab.periodic import classify
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


def orbit_per_kernel_call(f, p, n_max, R):
    """orbit as one map_kernel call per step, which tests |z| again for
    R: the loop orbit must match word for word.  Returns (points, index)."""
    pts = [np.asarray(p, dtype=complex).reshape(f.n)]
    for k in range(n_max + 1):
        if np.abs(pts[-1]).max() > R:
            return np.array(pts), k
        if k == n_max:
            break
        x, _, steps = map_kernel(f, pts[-1])
        if steps < 1:
            return np.array(pts), k + 1
        pts.append(x)
    return np.array(pts), None


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
        maps += [PolyMap.entire_1d(node) for node in (
            EntireNode("exp"), EntireNode("sin"),
            EntireNode("poly", (0.3j, 0.0, 1.0), EntireNode("sin")),
            EntireNode("exp", EntireNode("poly", (0.5, 0.0, -1.0))))]
        seen = {"step_0": 0, "R": 0, "overflow": 0, "n_max": 0}
        for f in maps:
            starts = [np.full(f.n, -0.2 + 0.01j),
                      0.4 * (rng.normal(size=f.n) + 1j * rng.normal(size=f.n)),
                      np.full(f.n, 2.5 - 1.5j), np.full(f.n, 4.0 + 0j),
                      np.full(f.n, complex(np.nan, 0.0))]  # fails at step 1
            for p in starts:
                for R in (3.0, 1e200):
                    got = orbit(f, p, 60, R)
                    pts, index = orbit_per_kernel_call(f, p, 60, R)
                    assert got.escape_index == index
                    assert got.escaped == (index is not None)
                    assert got.points.shape == pts.shape
                    assert np.array_equal(words(got.points), words(pts))
                    last = np.abs(pts[-1]).max()
                    seen["step_0" if index == 0 else "n_max" if index is None
                         else "R" if last > R else "overflow"] += 1
        assert min(seen.values()) >= 5, seen

    def test_bounded_orbit(self):
        o = orbit(Z2, np.array([0.5 + 0j]), 50, 2.0)
        assert not o.escaped
        assert len(o.points) == 51
        assert abs(o.last[0]) < 1e-9

    def test_escaping_orbit(self):
        o = orbit(Z2, np.array([1.5 + 0j]), 50, 2.0)
        assert o.escaped
        # 1.5 -> 2.25 crosses R = 2 after one step
        assert o.escape_index == 1


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
    def test_live_set_matches_all_point_loop(self, f, cycle_points, tol):
        if cycle_points is None:  # the orbit of the origin
            cycle_points = orbit(f, np.zeros(f.n), 60, 10.0).points[-3:]
            if f.n == 2:
                cycle_points = cycle_points[-2:]
        cycle = classify(f, [np.asarray(q, dtype=complex)
                             for q in cycle_points], residual=0.0)
        assert cycle.klass in ("attracting", "super_attracting")
        pts = Window.square(f.n, -2.2, 2.2).sample(600, seed=2)
        pts[:20] *= 1e80  # |f| ~ 1e160 overflows at once
        seen = {"overflow": 0, "escape": 0, "broke": 0}
        # past a radius this small, points would come back and lock
        top = max(np.abs(q).max() for q in cycle.points)
        for R in (top + 0.5, 3.0, 1e200):
            for n_max in (1, 7, 300):
                got = basin_mask(f, cycle, pts, n_max=n_max, tol=tol, R=R)
                want, died = basin_mask_all_points(f, cycle, pts, n_max,
                                                   tol, R)
                assert got.dtype == bool
                assert np.array_equal(got, want)
                for why in seen:
                    seen[why] += died[why]
        assert got.any() and not got.all()
        assert min(seen.values()) > 0, seen

    def test_requires_attracting_cycle(self):
        cycles = find_periodic(Z2, 1, Window.square(1, -2, 2), seeds=128,
                               seed=0)
        rep = [c for c in cycles if c.klass == "repelling"][0]
        with pytest.raises(ValueError):
            basin_mask(Z2, rep, np.array([0.1 + 0j]))


class TestShellPoints:
    def test_count_and_radius(self):
        pts = shell_points(np.array([0.5 + 0j, 0j]), 0.1, 2)
        assert pts.shape[1] == 2
        assert len(pts) == 1 + 2 * 16
        d = np.abs(pts[1:] - np.array([0.5 + 0j, 0j])).max(axis=1)
        assert np.allclose(d, 0.1)
