"""Jet-interpolation corrections, orbit surgery, and the parabolic lab."""

import numpy as np
import pytest

from endolab.cli import main
from endolab.maps import InputError, MapOverflowError, PolyMap, Window
from endolab.orbits import orbit
from endolab.perturb import (
    InfeasibleError,
    _delta_map,
    _monomial_table,
    close_orbit,
    escaping_construction,
    hakim_experiment,
    interpolate_correction,
    make_periodic_point,
    monomials,
    random_perturbation,
    sampled_sup_norm,
)

Z2 = PolyMap.from_coeffs_1d([0, 0, 1])
BASILICA = PolyMap.from_coeffs_1d([-1, 0, 1])
HUGE = PolyMap.from_coeffs_1d([0, 0, 1e200])  # f(0.5) overflows
K = Window.square(1, -1.5, 1.5)


def coeff_norm(f, corr):
    """Euclidean norm of the coefficient vector of the correction h - f."""
    delta = {(i, e): c for i, comp in enumerate(corr.corrected.components)
             for e, c in comp}
    for i, comp in enumerate(f.components):
        for e, c in comp:
            delta[i, e] -= c
    return float(np.linalg.norm(list(delta.values())))


def scalar_monomial_table(pts, basis):
    """The basis values and derivatives one point and one monomial at a
    time, with NumPy scalar arithmetic in coordinate order."""
    vals, ders = [], []
    for p in pts:
        vals.append([])
        ders.append([])
        for exps in basis:
            v = 1.0 + 0.0j
            for z, e in zip(p, exps):
                v *= z ** e
            vals[-1].append(v)
            ders[-1].append([])
            for j in range(len(p)):
                v = 0.0 + 0.0j
                if exps[j]:
                    v = complex(exps[j])
                    for k, (z, e) in enumerate(zip(p, exps)):
                        v *= z ** (e - 1 if k == j else e)
                ders[-1][-1].append(v)
    return np.array(vals, dtype=complex), np.array(ders, dtype=complex)


class TestMonomialTable:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_scalar_products_word_for_word(self, n):
        rng = np.random.default_rng(n)
        pts = (rng.uniform(-1.5, 1.5, (24, n))
               + 1j * rng.uniform(-1.5, 1.5, (24, n)))
        pts[0] = 0.0
        pts[1] = pts[1].real  # the real axis
        pts[2] = 1j * pts[2].imag  # the imaginary axis
        pts[3, 0] = complex(-0.0, -0.0)
        pts[4, -1] = complex(-0.7, -0.0)
        for degree in range(9):
            basis = monomials(n, degree)
            want_v, want_d = scalar_monomial_table(pts, basis)
            vals, derivs = _monomial_table(pts, basis, True)
            assert vals.shape == want_v.shape and derivs.shape == want_d.shape
            # int64 words: signed zeros and last bits both count
            assert (vals.view(np.int64) == want_v.view(np.int64)).all()
            assert (derivs.view(np.int64) == want_d.view(np.int64)).all()
            alone, none = _monomial_table(pts, basis, False)
            assert none is None
            assert (alone.view(np.int64) == want_v.view(np.int64)).all()


QUAD_2D = PolyMap.from_terms(2, (
    (((2, 0), 1.0 + 0j), ((0, 1), 0.3 + 0j)),
    (((0, 2), 1.0 + 0j), ((1, 0), 0.2 + 0j)),
))
QUAD_3D = PolyMap.from_terms(3, (
    (((2, 0, 0), 1.0 + 0j), ((0, 1, 0), 0.3 + 0j)),
    (((0, 2, 0), 1.0 + 0j), ((0, 0, 1), -0.2 + 0.1j)),
    (((0, 0, 2), 1.0 + 0j), ((1, 0, 0), 0.4 + 0j), ((0, 0, 0), 0.1j)),
))


class TestInterpolateCorrection:
    def test_pinning_fidelity(self):
        # value+jet constraints are met to near machine accuracy; row i of
        # a target Jacobian is component i's gradient, and the 2-D and 3-D
        # targets are not symmetric, so a transposed derivative-row layout
        # fails
        for f, points, budget in ((Z2, 1, 6), (QUAD_2D, 3, 5),
                                  (QUAD_3D, 2, 4)):
            rng = np.random.default_rng(f.n)
            at, tgt = (rng.uniform(-0.6, 0.6, (2, points, f.n))
                       + 1j * rng.uniform(-0.6, 0.6, (2, points, f.n)))
            jac = (rng.uniform(-2, 2, (points, f.n, f.n))
                   + 1j * rng.uniform(-2, 2, (points, f.n, f.n)))
            if f.n > 1:
                skew = np.abs(jac - jac.transpose(0, 2, 1)).max(axis=(1, 2))
                assert skew.min() > 0.1
            corr = interpolate_correction(f, at, tgt, jac, budget,
                                          Window.square(f.n, -1.5, 1.5))
            jt = corr.corrected.jet(at)
            assert np.abs(jt.value - tgt).max() < 1e-10
            assert np.abs(jt.jacobian - jac).max() < 1e-10
            assert corr.constraint_residual < 1e-8

    def test_zero_constraint_gives_zero_delta(self):
        at = np.array([0.3 + 0j])
        jp = Z2.jet(at)
        corr = interpolate_correction(Z2, at, jp.value, jp.jacobian, 5, K)
        assert coeff_norm(Z2, corr) < 1e-12
        assert corr.sup_norm_on_K < 1e-10

    def test_malformed_constraints_rejected(self):
        with pytest.raises(ValueError, match="no constraint points"):
            interpolate_correction(Z2, np.zeros((0, 1)), np.zeros((0, 1)),
                                   None, 5, K)
        # one target per point: a short list is not broadcast
        at = [0.1 + 0j, 0.5 + 0j]
        with pytest.raises(ValueError):
            interpolate_correction(Z2, at, [0.2 + 0j], None, 5, K)
        with pytest.raises(ValueError):
            interpolate_correction(Z2, at, [0.2, 0.3], [[[1.0]]], 5, K)

    def test_least_norm_among_feasible_solutions(self):
        # any other delta meeting the same constraints has larger
        # coefficient norm; build alternatives by pinning extra points
        at = np.array([0.5 + 0.1j])
        tgt = np.array([0.1 - 0.2j])
        corr = interpolate_correction(Z2, at, tgt, None, 5, K)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.normal(scale=0.7, size=1) + 1j * rng.normal(scale=0.7,
                                                                size=1)
            alt = interpolate_correction(
                Z2, np.concatenate([at, p]),
                np.concatenate([tgt, Z2.eval(p)
                                + 0.05 * rng.standard_normal()]),
                None, 5, K)
            assert coeff_norm(Z2, alt) >= coeff_norm(Z2, corr) - 1e-12

    def test_infeasible_budget(self):
        # two independent jet constraints cannot fit in an affine map
        with pytest.raises(InfeasibleError):
            interpolate_correction(Z2, [0.0 + 0j, 1.0 + 0j], [0.5, 0.5],
                                   [[[2.0 + 0j]], [[-2.0 + 0j]]], 1, K)

    def test_clustered_points_rejected_honestly(self):
        # nearly coincident constraint points make the system so
        # ill-conditioned that the built polynomial cannot reproduce the
        # targets; this must surface as InfeasibleError, not bad output
        pts = [0.5 + k * 1e-5 + 0j for k in range(12)]
        tgt = [0.1 * (-1) ** k + 0j for k in range(12)]
        with pytest.raises(InfeasibleError):
            interpolate_correction(Z2, pts, tgt, None, 14, K)
        # coincident points (below the dedup tolerance) are a usage error
        with pytest.raises(ValueError):
            interpolate_correction(Z2, [0.5 + 0j, 0.5 + 1e-13j],
                                   [0.1 + 0j, 0.9 + 0j], None, 8, K)

    def test_sup_minimization_not_worse(self):
        at = np.array([1.3 + 0.4j])
        tgt = np.array([0.2 + 0j])
        a = interpolate_correction(Z2, at, tgt, None, 8, K, minimize="coeff")
        b = interpolate_correction(Z2, at, tgt, None, 8, K, minimize="sup")
        assert b.sup_norm_on_K <= a.sup_norm_on_K * 1.05


class TestCloseOrbit:
    def test_multiplier_law(self):
        q = np.array([0.37 + 0.21j])
        pj = np.array([[0.05 + 0.02j]])
        out = close_orbit(Z2, q, 3, pj, K, budget=10)
        cyc = out["cycle"]
        assert cyc.period == 4
        got = sorted(cyc.multipliers, key=abs)
        want = sorted(out["expected_multipliers"], key=abs)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-7 * max(1.0, abs(b))

    def test_orbit_points_pinned(self):
        q = np.array([0.37 + 0.21j])
        pj = np.array([[0.1 + 0j]])
        out = close_orbit(Z2, q, 2, pj, K, budget=10)
        h = out["h"]
        x = q
        for _ in range(2):
            assert np.abs(h.eval(x) - Z2.eval(x)).max() < 1e-9
            x = Z2.eval(x)
        # closing step returns to q
        assert np.abs(h.eval(x) - q).max() < 1e-9

    def test_overflowing_orbit_raises(self):
        with pytest.raises(MapOverflowError):
            close_orbit(HUGE, np.array([0.5 + 0j]), 2,
                        np.array([[0.5 + 0j]]), K, budget=8)

    def test_colliding_orbit_rejected(self):
        with pytest.raises(ValueError):
            close_orbit(Z2, np.array([1.0 + 0j]), 2,
                        np.array([[0.5 + 0j]]), K, budget=8)


class TestMakePeriodic:
    def test_kinds(self):
        q = np.array([0.41 + 0.13j])
        for kind in ("super_attracting", "repelling"):
            out = make_periodic_point(Z2, q, 2, kind, K, budget=10)
            assert out["cycle"].klass == kind
            assert out["cycle"].period == 3

    def test_saddle_needs_dimension(self):
        with pytest.raises(ValueError):
            make_periodic_point(Z2, np.array([0.4 + 0j]), 2, "saddle", K,
                                budget=8)

    def test_saddle_in_2d(self):
        q = np.array([0.31 + 0.11j, -0.22 + 0.14j])
        K2 = Window.square(2, -1.5, 1.5)
        out = make_periodic_point(QUAD_2D, q, 1, "saddle", K2, budget=6)
        assert out["cycle"].klass == "saddle"


class TestEscaping:
    WINDOWS = tuple(Window.square(1, -r, r) for r in (2, 3, 4, 5))

    def test_staged_escape_with_caps(self):
        q = np.array([1.1 + 0j])
        # the orbit of q overflows within the interior walk's 199 steps,
        # after its first point outside the first window: that is no error
        assert orbit(Z2, q, 199)[1] < 199
        out = escaping_construction(Z2, q, self.WINDOWS, eps=1.0,
                                    budget=30, seed=0)
        assert out["m"] == 3
        eps = 1.0
        for s, nm in enumerate(out["stage_norms"]):
            assert nm <= eps / 2 ** (s + 1)
        w = out["witness"]
        assert not bool(self.WINDOWS[-1].contains(w[-1]))
        # the witness follows the original interior orbit
        x = q
        for k in range(out["m"]):
            assert np.abs(w[k] - x).max() < 1e-9
            x = Z2.eval(x)

    def test_overflow_inside_the_walk_raises(self):
        # f(q) = 2.5e199 is the first point outside the first window, and
        # the step to it overflows
        with pytest.raises(MapOverflowError):
            escaping_construction(HUGE, np.array([0.5 + 0j]), self.WINDOWS,
                                  eps=1.0, budget=30)

    def test_trapped_point_infeasible(self):
        # q in the superattracting basin never leaves the first window
        with pytest.raises(InfeasibleError) as ei:
            escaping_construction(BASILICA, np.array([0.05 + 0j]),
                                  self.WINDOWS, eps=1.0, budget=20)
        assert ei.value.stage == 0

    def test_stage_attached_to_failure(self):
        q = np.array([1.1 + 0j])
        with pytest.raises(InfeasibleError) as ei:
            escaping_construction(Z2, q, self.WINDOWS, eps=1e-9,
                                  budget=30, seed=0)
        assert ei.value.stage is not None


class TestRandomPerturbation:
    def test_eps_scaling(self):
        g = random_perturbation(Z2, 0.01, K, seed=0)
        diff = PolyMap.from_terms(1, (tuple(
            (e, c) for e, c in _poly_minus(g, Z2)),))
        assert abs(sampled_sup_norm(diff, K, seed=0) - 0.01) < 1e-12

    def test_seed_determinism_and_zero_eps(self):
        a = random_perturbation(Z2, 0.05, K, seed=3)
        b = random_perturbation(Z2, 0.05, K, seed=3)
        c = random_perturbation(Z2, 0.05, K, seed=4)
        assert a == b
        assert a != c
        assert random_perturbation(Z2, 0.0, K, seed=0) == Z2
        with pytest.raises(ValueError):
            random_perturbation(Z2, -0.1, K)


def _poly_minus(g, f):
    terms = {}
    for e, c in g.components[0]:
        terms[e] = terms.get(e, 0) + c
    for e, c in f.components[0]:
        terms[e] = terms.get(e, 0) - c
    return [(e, c) for e, c in sorted(terms.items()) if c != 0]


class TestHakim:
    def test_parabolic_decay_and_multiplier(self):
        out = hakim_experiment(1, np.array([-0.5 + 0j]), steps=4000)
        kx = out["k_times_norm"]
        tail = kx[-1000:]
        assert np.abs(tail - 1.0).max() < 0.1
        assert out["multipliers"] == (1.0 + 0j,)

    def test_derivative_growth_on_shell(self):
        out = hakim_experiment(1, np.array([-0.5 + 0j]), steps=100,
                               growth_checkpoints=(4, 8, 16))
        g = out["derivative_growth"]
        assert g[4] < g[8] < g[16]

    def test_bad_start_rejected(self):
        with pytest.raises(ValueError):
            hakim_experiment(1, np.array([0.5 + 0j]), steps=100)
        with pytest.raises(ValueError):
            hakim_experiment(3, np.array([-0.5, -0.5, -0.5]))

    def test_dim2_double_multiplier_is_exact(self):
        # D f(0) is the identity: the double multiplier 1 to criterion 5's
        # 1e-12
        out = hakim_experiment(2, np.array([-0.2 + 0j, -0.3 + 0j]), steps=100)
        assert len(out["multipliers"]) == 2
        assert np.abs(np.array(out["multipliers"]) - 1.0).max() < 1e-12

    def test_orbit_leaving_the_petal_is_rejected(self, tmp_path):
        # in the strip -1 < Re < 0, but f(start) = -25.25 leaves |z| <= 10.
        # Only iterating finds that: it is no config error, and the CLI
        # does not exit 2 on it
        with pytest.raises(ValueError, match="start not in petal") as ei:
            hakim_experiment(1, np.array([-0.5 + 5j]), steps=100)
        assert not isinstance(ei.value, InputError)
        with pytest.raises(ValueError, match="start not in petal") as ei:
            main(["hakim", "--out", str(tmp_path / "o"),
                  "--set", "start", "[[-0.5, 5.0]]"])
        assert not isinstance(ei.value, InputError)

    def test_overflowing_shell_point_gives_inf_growth(self):
        # on |z| = 2 the orbit of z + z^2 escapes and D f^k overflows
        out = hakim_experiment(1, np.array([-0.5 + 0j]), steps=10,
                               shell_radius=2.0, growth_checkpoints=(2, 16))
        g = out["derivative_growth"]
        assert np.isfinite(g[2]) and g[16] == np.inf
