"""Orbit iteration, omega limits, basin tests, and the rne probe."""

import numpy as np
import pytest

from endolab import (
    PolyMap,
    Window,
    basin_test_B1,
    basin_test_B2prime,
    find_periodic,
    omega_limit,
    orbit,
    rne_probe,
)
from endolab.orbits import basin_mask, orbit_to_csv, shell_points

Z2 = PolyMap.from_coeffs_1d([0, 0, 1])
BASILICA = PolyMap.from_coeffs_1d([-1, 0, 1])
HALF = PolyMap.from_coeffs_1d([0, 0.5])


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


class TestOrbit:
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

    def test_csv(self):
        o = orbit(Z2, np.array([0.5 + 0j]), 3, 2.0)
        lines = orbit_to_csv(o).strip().split("\n")
        assert lines[0] == "k,re_1,im_1"
        assert len(lines) == 1 + len(o.points)


class TestOmegaLimit:
    def test_basilica_interior_point(self):
        reps = omega_limit(BASILICA, np.array([0.1 + 0.1j]), 3.0)
        got = sorted((r[0] for r in reps), key=lambda z: z.real)
        assert len(got) == 2
        assert abs(got[0] + 1.0) < 1e-3 and abs(got[1]) < 1e-3

    def test_fixed_point(self):
        reps = omega_limit(Z2, np.array([0.3 + 0.2j]), 2.0)
        assert len(reps) == 1 and abs(reps[0][0]) < 1e-3

    def test_escaping_raises(self):
        with pytest.raises(ValueError):
            omega_limit(Z2, np.array([1.5 + 0j]), 2.0)


class TestBasinTests:
    def test_basilica_immediate_basin(self):
        c = basilica_cycle()
        assert basin_test_B1(BASILICA, c, np.array([0.05 + 0j]))
        assert basin_test_B2prime(BASILICA, c, np.array([0.05 + 0j]), 0.02)

    def test_outside_point_rejected(self):
        c = basilica_cycle()
        assert not basin_test_B1(BASILICA, c, np.array([2.5 + 0j]))
        assert not basin_test_B2prime(BASILICA, c, np.array([2.5 + 0j]), 0.02)

    def test_b1_b2prime_agree_on_random_points(self):
        # away from the Julia set the two sampled probes coincide
        c = basilica_cycle()
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1.6, 1.6, size=(200, 2))
        agree = 0
        for re, im in pts:
            p = np.array([re + 1j * im])
            b1 = basin_test_B1(BASILICA, c, p, n_max=2000, tol=1e-6)
            b2 = basin_test_B2prime(BASILICA, c, p, 1e-4, n_max=2000,
                                    tol=1e-6)
            agree += (b1 == b2)
        # shells can straddle the Julia set at its filaments; near-total
        # agreement is the most a sampled proxy certifies
        assert agree >= 195

    def test_monotone_horizon(self):
        c = basilica_cycle()
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.4, 0.4, size=(20, 2))
        for re, im in pts:
            p = np.array([re + 1j * im])
            if basin_test_B1(BASILICA, c, p, n_max=400, tol=1e-6):
                for n in (800, 1600):
                    assert basin_test_B1(BASILICA, c, p, n_max=n, tol=1e-6)

    def test_basin_mask_matches_pointwise(self):
        c = basilica_cycle()
        rng = np.random.default_rng(4)
        pts = (rng.uniform(-1.5, 1.5, size=(64, 1))
               + 1j * rng.uniform(-1.5, 1.5, size=(64, 1)))
        mask = basin_mask(BASILICA, c, pts, n_max=1000, tol=1e-6)
        assert mask.any() and not mask.all()
        for i, p in enumerate(pts):
            assert mask[i] == b1_pointwise(BASILICA, c, p, 1000, 1e-6)

    def test_requires_attracting_cycle(self):
        cycles = find_periodic(Z2, 1, Window.square(1, -2, 2), seeds=128,
                               seed=0)
        rep = [c for c in cycles if c.klass == "repelling"][0]
        with pytest.raises(ValueError):
            basin_test_B1(Z2, rep, np.array([0.1 + 0j]))


class TestShellPoints:
    def test_count_and_radius(self):
        pts = shell_points(np.array([0.5 + 0j, 0j]), 0.1, 2)
        assert pts.shape[1] == 2
        assert len(pts) == 1 + 2 * 16
        d = np.abs(pts[1:] - np.array([0.5 + 0j, 0j])).max(axis=1)
        assert np.allclose(d, 0.1)


class TestRneProbe:
    def test_interior_of_attractor_is_rne(self):
        K = Window.square(1, -1.0, 1.0)
        assert rne_probe(HALF, np.array([0j]), 0.05, K, pert_count=4,
                         pert_eps=1e-3, horizon=200)

    def test_near_escape_is_not_rne(self):
        K = Window.square(1, -2.0, 2.0)
        assert not rne_probe(Z2, np.array([1.3 + 0j]), 0.05, K,
                             pert_count=2, pert_eps=1e-3, horizon=200)

    def test_point_outside_K_rejected(self):
        K = Window.square(1, -1.0, 1.0)
        with pytest.raises(ValueError):
            rne_probe(Z2, np.array([1.5 + 0j]), 0.05, K)
