"""Core map evaluation, jets, windows, Halton points and serialization."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import endolab
from endolab import maps
from endolab.maps import (
    MapOverflowError,
    PolyMap,
    Window,
    _step,
    escape_radius,
    halton,
    map_kernel,
    sup_norm,
)

RNG = np.random.default_rng(1234)


def random_map(n, degree=2, scale=0.5, rng=RNG):
    from endolab.perturb import monomials

    comps = []
    for _ in range(n):
        terms = []
        for e in monomials(n, degree):
            if sum(e) == 0:
                continue
            c = rng.normal(scale=scale) + 1j * rng.normal(scale=scale)
            terms.append((tuple(e), complex(c)))
        comps.append(tuple(terms))
    return PolyMap.from_terms(n, comps)


def words(a):
    return np.asarray(a).view(np.int64)


def per_term_step(pmap, p, jacobian):
    """Reference step without the term table: each term starts from
    np.full(batch, c) and scans every exponent, zeros included."""
    batch, n = p.shape[:-1], pmap.n
    value = np.zeros(batch + (n,), dtype=complex)
    jac = np.zeros(batch + (n, n), dtype=complex) if jacobian else None
    ones = np.ones(batch, dtype=complex) if jacobian else None
    pows, dpows = [], []
    for j, top in enumerate(pmap._max_exponents):
        pows.append([None, p[..., j]])
        dpows.append([None, ones])
        for _ in range(2, top + 1):
            if jacobian:
                dpows[j].append(dpows[j][-1] * pows[j][1] + pows[j][-1])
            pows[j].append(pows[j][-1] * pows[j][1])
    for i, comp in enumerate(pmap.components):
        for exps, c in comp:
            val = np.full(batch, c, dtype=complex)
            grad = np.zeros(batch + (n,), dtype=complex) if jacobian else None
            for j, e in enumerate(exps):
                if e == 0:
                    continue
                if jacobian:
                    grad = grad * pows[j][e][..., None]
                    grad[..., j] += val * dpows[j][e]
                val = val * pows[j][e]
            value[..., i] += val
            if jacobian:
                jac[..., i, :] += grad
    return value, jac


def fd_jacobian(pmap, p, h=1e-6):
    """Central-difference Jacobian in the complex sense (holomorphic)."""
    n = pmap.n
    J = np.zeros((n, n), dtype=complex)
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = h
        J[:, j] = (pmap.eval(p + e) - pmap.eval(p - e)) / (2 * h)
    return J


class TestJets:
    def test_ad_matches_finite_differences_100_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            f = random_map(n, rng=rng)
            p = rng.normal(scale=0.8, size=n) + 1j * rng.normal(scale=0.8,
                                                                size=n)
            jt = f.jet(p)
            J = fd_jacobian(f, p)
            denom = max(1.0, float(np.abs(J).max()))
            assert np.abs(jt.jacobian - J).max() / denom < 1e-6

    def test_jet_value_matches_eval(self):
        # word for word, on bare points and batches: classify and
        # close_orbit read f and f^m off the jets they compute anyway
        rng = np.random.default_rng(21)
        maps = [random_map(n, degree=d, rng=rng)
                for n in (1, 2, 3) for d in (1, 2, 5, 8)]
        for f in maps:
            pts = 0.3 * (rng.normal(size=(5, f.n))
                         + 1j * rng.normal(size=(5, f.n)))
            pts[0] = 0.0
            pts[1] = complex(-0.0, -0.0)
            pts[2, 0] = complex(-0.0, 0.2)
            pts[3, -1] = complex(0.1, -0.0)
            for p in list(pts) + [pts]:
                value = words(f.eval(p))
                assert np.array_equal(words(f.jet(p).value), value)
                assert np.array_equal(words(f.iterated_jet(p, 1).value), value)
                assert np.array_equal(words(f.iterated_jet(p, 3).value),
                                      words(f.iterate(p, 3)))

    def test_chain_rule_factorization(self):
        # word for word: the iterated Jacobian is the product J_m ... J_1 of
        # one-row jet Jacobians along the orbit, J_1 taken as it is
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            for d in (2, 3, 5):
                f = random_map(n, degree=d, rng=rng)
                for _ in range(5):
                    p = 0.5 * (rng.normal(size=(1, n))
                               + 1j * rng.normal(size=(1, n)))
                    x, prod = p, None
                    for m in range(1, 5):
                        step = f.jet(x)
                        prod = (step.jacobian if prod is None
                                else step.jacobian @ prod)
                        x = step.value
                        jt = f.iterated_jet(p, m)
                        assert np.array_equal(words(jt.value), words(x))
                        assert np.array_equal(words(jt.jacobian), words(prod))
                    jt, one = f.jet(p), f.iterated_jet(p, 1)
                    assert np.array_equal(words(jt.value), words(one.value))
                    assert np.array_equal(words(jt.jacobian),
                                          words(one.jacobian))

    def test_power_law_for_z_squared(self):
        f = PolyMap.from_coeffs_1d([0, 0, 1])
        z = np.array([0.7 + 0.3j])
        m = 5
        jt = f.iterated_jet(z, m)
        # (z^(2^m))' = 2^m z^(2^m - 1)
        expect = 2 ** m * z[0] ** (2 ** m - 1)
        assert abs(jt.jacobian[0, 0] - expect) / abs(expect) < 1e-8
        assert abs(jt.value[0] - z[0] ** (2 ** m)) < 1e-8

    def test_batched_jet_equals_loop(self):
        f = random_map(2)
        pts = RNG.normal(size=(17, 2)) + 1j * RNG.normal(size=(17, 2))
        jt = f.jet(pts)
        for i in range(len(pts)):
            one = f.jet(pts[i])
            assert np.allclose(jt.value[i], one.value)
            assert np.allclose(jt.jacobian[i], one.jacobian)

    def test_kernel_masks_overflowing_row(self):
        rng = np.random.default_rng(11)
        f = random_map(2, rng=rng)
        pts = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
        pts[4] = 1e80  # |f| ~ 1e160 > 1e150
        good = np.arange(9) != 4
        value, _, steps = map_kernel(f, pts)
        _, jac, jsteps = map_kernel(f, pts, jacobian=True)
        it, itjac, itsteps = map_kernel(f, pts, 3, jacobian=True)
        assert np.array_equal(steps == 1, good)
        assert np.array_equal(jsteps == 1, good)
        assert np.array_equal(itsteps == 3, good)
        assert itsteps[4] == 0
        # the other rows are the single-point results, bit for bit
        for i in np.flatnonzero(good):
            assert np.array_equal(value[i], f.eval(pts[i]))
            one = f.jet(pts[i])
            assert np.array_equal(jac[i], one.jacobian)
            assert np.array_equal(value[i], one.value)
            three = f.iterated_jet(pts[i], 3)
            assert np.array_equal(it[i], three.value)
            assert np.array_equal(itjac[i], three.jacobian)
            assert np.array_equal(it[i], f.iterate(pts[i], 3))

    def test_batch_rows_match_one_row_batches(self):
        # word for word at every public entry point: a bare (n,) point is
        # a (1, n) batch, which goes through the same array loops as its
        # row in a (k, n) batch, overflowing rows included
        from endolab.orbits import orbit
        from endolab.periodic import classify, eigenvalues

        rng = np.random.default_rng(8)
        maps = [random_map(n, degree=d, rng=rng)
                for n in (1, 2, 3) for d in (1, 2, 3, 5, 8)]
        for f in maps:
            n = f.n
            pts = 0.5 * (rng.normal(size=(8, n))
                         + 1j * rng.normal(size=(8, n)))
            pts[0] = complex(-0.0, -0.0)
            pts[6] = 1e200  # overflows at step 0
            pts[7] = 1e40  # overflows at a later step from degree 2 on
            for m, jacobian in ((1, False), (1, True), (3, True)):
                whole = map_kernel(f, pts, m, jacobian=jacobian)
                for i, p in enumerate(pts):
                    bare = map_kernel(f, p, m, jacobian=jacobian)
                    one = map_kernel(f, pts[i:i + 1], m, jacobian=jacobian)
                    for a, b, c in zip(whole, bare, one):
                        if a is not None:
                            assert np.array_equal(words(b), words(a[i]))
                            assert np.array_equal(words(c[0]), words(a[i]))
            good = map_kernel(f, pts, 3)[2] == 3
            assert not good[6]
            batch = pts[good]
            value, jt = f.eval(batch), f.jet(batch)
            it, it2 = f.iterated_jet(batch, 3), f.iterated_jet(batch, 2)
            three = f.iterate(batch, 3)
            for i, p in enumerate(batch):
                for q, row in ((p, ...), (batch[i:i + 1], 0)):
                    got = (f.eval(q), f.jet(q).value, f.jet(q).jacobian,
                           f.iterated_jet(q, 3).value,
                           f.iterated_jet(q, 3).jacobian, f.iterate(q, 3))
                    want = (value, jt.value, jt.jacobian, it.value,
                            it.jacobian, three)
                    for a, b in zip(got, want):
                        assert np.array_equal(words(a[row]), words(b[i]))
                # classify reads one period's iterated jet at its base point
                for cyc, ref in (([p], jt), ([p, value[i]], it2)):
                    for base in (cyc[0], cyc[0][None]):
                        c = classify(f, [base] + cyc[1:])
                        want = eigenvalues(ref.jacobian[i])
                        res = float(np.abs(ref.value[i] - p).max())
                        assert np.array_equal(words(np.array(c.multipliers)),
                                              words(want))
                        assert np.array_equal(words(c.newton_residual),
                                              words(res))
            for i in np.flatnonzero(~good):
                for q in (pts[i], pts[i:i + 1]):
                    with pytest.raises(MapOverflowError):
                        f.iterate(q, 3)
            # an orbit table steps the batch: row 0 is pts, row k >= 1 is
            # f^k(pts), and its steps are map_kernel's, overflowing rows
            # included
            table, steps = orbit(f, pts, 3)
            assert np.array_equal(words(table[0]), words(pts))
            for k in range(1, 4):
                value, _, made = map_kernel(f, pts, k)
                assert np.array_equal(words(table[k]), words(value))
                assert np.array_equal(np.minimum(steps, k), made)
            assert steps[6] == 0
            for i, p in enumerate(pts):
                rows, made = orbit(f, p, 3)
                assert np.array_equal(words(rows), words(table[:, i]))
                assert made == steps[i]

    def test_step_matches_per_term_loop(self):
        # word for word: the term table starts each term from a 0-d
        # coefficient, which keeps the bits of np.full(batch, c)
        from endolab.perturb import monomials

        rng = np.random.default_rng(31)
        zeros = (0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                 complex(-0.0, -0.0))
        for trial in range(24):
            n, d = 1 + trial % 3, (1, 2, 3, 5, 8)[trial % 5]
            comps = []
            for i in range(n):
                # component 0 keeps a constant term and a degree-d term
                exps = [e for e in monomials(n, d) if rng.random() < 0.6
                        or i == 0 and sum(e) in (0, d) and e[0] == sum(e)]
                comps.append([(e, zeros[k % 4] if rng.random() < 0.2 else
                               complex(*rng.normal(size=2)))
                              for k, e in enumerate(exps)])
            f = PolyMap.from_terms(n, comps)
            pts = 0.6 * (rng.normal(size=(6, n))
                         + 1j * rng.normal(size=(6, n)))
            pts[0] = 0.0
            pts[1] = complex(-0.0, -0.0)
            pts[2, 0] = complex(-0.0, 0.3)
            pts[3, -1] = complex(0.2, -0.0)
            for p in list(pts) + [pts, pts[:1]]:
                for jacobian in (False, True):
                    got = _step(f, p, jacobian)
                    want = per_term_step(f, p, jacobian)
                    assert np.array_equal(words(got[0]), words(want[0]))
                    if jacobian:
                        assert np.array_equal(words(got[1]), words(want[1]))
                    else:
                        assert got[1] is None

    def test_kernel_rows_do_not_depend_on_batch(self, monkeypatch):
        # escape_grid steps a shrinking subset of its cells, and map_kernel
        # steps a long batch block by block; both rely on each row keeping
        # the bits it has in the whole batch.  At 7-row blocks the 40 rows
        # end in a ragged block of 5, and rows that overflow at step 0 (6,
        # 7) or at step 1 (13, 14, 20, 21) sit on both sides of a boundary
        rng = np.random.default_rng(5)
        for n, d in ((1, 2), (2, 3), (3, 5)):
            f = random_map(n, degree=d, rng=rng)
            pts = 0.5 * (rng.normal(size=(40, n))
                         + 1j * rng.normal(size=(40, n)))
            pts[0] = complex(-0.0, -0.0)
            pts[[6, 7], 0] = 1e200
            pts[[13, 14, 20, 21], 0] = 10.0 ** (100 / d)  # 1e100 at step 0
            sub = rng.permutation(40)[:13]
            for m, jacobian in ((1, False), (1, True), (3, True)):
                monkeypatch.setattr(maps, "_BLOCK_ROWS", 8192)
                whole = map_kernel(f, pts, m, jacobian=jacobian)
                steps = whole[2][[6, 7, 13, 14, 20, 21]]
                assert (steps[:2] == 0).all() and (steps[2:] > 0).all()
                assert m == 1 or (steps[2:] < m).all()
                monkeypatch.setattr(maps, "_BLOCK_ROWS", 7)
                blocked = map_kernel(f, pts, m, jacobian=jacobian)
                part = map_kernel(f, pts[sub], m, jacobian=jacobian)
                for a, b, c in zip(whole, blocked, part):
                    if a is not None:
                        assert np.array_equal(words(a), words(b))
                        assert np.array_equal(words(a[sub]), words(c))

    def test_per_point_m_matches_int_m_rows(self, monkeypatch):
        # a non-increasing per-point m steps a prefix of the batch; each
        # row keeps the bits (and step count) of its own int-m call, also
        # when the batch runs in 7-row blocks (the last one ragged) with
        # overflowing rows on both sides of the boundaries at 7 and 14
        rng = np.random.default_rng(23)
        for n, d in ((1, 2), (2, 3), (3, 2)):
            f = random_map(n, degree=d, rng=rng)
            pts = 0.8 * (rng.normal(size=(30, n))
                         + 1j * rng.normal(size=(30, n)))
            pts[[3, 17, 29]] = 1e80  # overflow at step 0, 1 or 2
            pts[[3, 17, 29], 0] = (1e80, 1e60, 1e40)
            pts[[6, 7], 0] = 1e200
            pts[[13, 14], 0] = 10.0 ** (100 / d)  # 1e100 at step 0
            m = np.sort(rng.integers(1, 6, size=30))[::-1]
            m[:15] = np.maximum(m[:15], 3)
            for block in (8192, 7):
                monkeypatch.setattr(maps, "_BLOCK_ROWS", block)
                for jacobian in (False, True):
                    got = map_kernel(f, pts, m, jacobian=jacobian)
                    assert (got[2][[6, 7]] == 0).all()
                    assert (got[2][[13, 14]] > 0).all()
                    assert (got[2][[13, 14]] < m[[13, 14]]).all()
                    for i in range(30):
                        one = map_kernel(f, pts[i:i + 1], int(m[i]),
                                         jacobian=jacobian)
                        for a, b in zip(got, one):
                            if a is not None:
                                assert np.array_equal(words(a[i]),
                                                      words(b[0]))

    def test_eval_does_not_mutate_input(self):
        f = random_map(1)
        pts = np.array([[0.1 + 0.2j], [0.3 - 0.1j]])
        keep = pts.copy()
        f.eval(pts)
        f.jet(pts)
        assert np.array_equal(pts, keep)

    def test_overflow_raises_with_orbit_index(self):
        f = PolyMap.from_coeffs_1d([0, 0, 1])
        with pytest.raises(MapOverflowError,
                           match="^numeric overflow at orbit index 0$"):
            f.iterate(np.array([1e200 + 0j]), 4)
        # 1e120 is finite, 1e240 is not
        with pytest.raises(MapOverflowError,
                           match="^numeric overflow at orbit index 1$"):
            f.iterate(np.array([1e60 + 0j]), 4)


class TestSupNorm:
    def test_matches_abs_max_word_for_word(self):
        # a max is exact and np.maximum propagates NaN as the reduction does
        rng = np.random.default_rng(17)
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e150,
                            -1e150, np.nextafter(1e150, np.inf), 0.75])
        pairs = np.array([complex(a, b) for a in special for b in special])
        for n in (1, 2, 3):
            x = rng.choice(pairs, size=(400, n))
            x[:100] = (rng.normal(size=(100, n)) + 1j * rng.normal(
                size=(100, n))) * 10.0 ** rng.integers(-5, 5, size=(100, n))
            for p in [x, x.reshape(4, 100, n), x[:0]] + list(x):
                got, want = sup_norm(p), np.abs(p).max(axis=-1)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).dtype == want.dtype
                assert np.array_equal(words(got), words(want))


class TestIterate:
    def test_iterate_is_repeated_eval(self):
        f = random_map(2)
        p = np.array([0.2 + 0.1j, -0.3 + 0.2j])
        x = p
        for _ in range(3):
            x = f.eval(x)
        assert np.allclose(f.iterate(p, 3), x)

    def test_m_below_one_is_rejected(self):
        f = random_map(2, rng=np.random.default_rng(42))
        p = np.array([0.4 + 0.1j, -0.2j])
        for q in (p, p[None], np.stack([p, p])):
            for call in (f.iterate, f.iterated_jet):
                with pytest.raises(ValueError, match="m must be >= 1"):
                    call(q, 0)
            for jacobian in (False, True):
                with pytest.raises(ValueError, match="m must be >= 1"):
                    map_kernel(f, q, 0, jacobian=jacobian)

    def test_negative_m_is_rejected(self):
        f = random_map(2, rng=np.random.default_rng(42))
        p = np.array([0.4 + 0.1j, -0.2j])
        for q in (p, p[None], np.stack([p, p])):
            for call in (f.iterate, f.iterated_jet):
                with pytest.raises(ValueError, match="m must be >= 1"):
                    call(q, -3)
            for jacobian in (False, True):
                with pytest.raises(ValueError, match="m must be >= 1"):
                    map_kernel(f, q, -1, jacobian=jacobian)

    def test_per_point_m_must_be_positive(self):
        # a per-point 0 once dropped rows: [1, 0] on two rows gave one
        f = random_map(2, rng=np.random.default_rng(42))
        q = np.stack([np.array([0.4 + 0.1j, -0.2j])] * 2)
        for m in ([1, 0], [0, 0], [2, -1]):
            for jacobian in (False, True):
                with pytest.raises(ValueError, match="m must be >= 1"):
                    map_kernel(f, q, np.array(m), jacobian=jacobian)
        assert map_kernel(f, q, np.array([2, 1]))[0].shape == (2, 2)

    def test_per_point_m_must_not_increase(self, monkeypatch):
        # an increasing m once stepped the wrong rows: [1, 2] on z^2 - 1
        # gave -0.4375 and -0.91 where the rows' own calls give -0.75 and
        # -0.1719; so did a 2-D m, whose prefix ran over the first axis
        f = PolyMap.from_coeffs_1d([-1, 0, 1])
        p = np.array([[0.5 + 0j], [0.3 + 0j], [0.1 + 0j]])
        bad = [(p, [1, 2, 2]), (p, [2, 1, 2]), (p, [3, 3, 4]), (p, [2, 1]),
               (p[None], [3, 2, 1]), (np.stack([p, p]), [[2, 1, 1]] * 2)]
        for q, m in bad:
            for jacobian in (False, True):
                with pytest.raises(ValueError, match="non-increasing"):
                    map_kernel(f, q, np.array(m), jacobian=jacobian)
        got = map_kernel(f, p, np.array([3, 3, 1]))[0]
        for i, m in enumerate((3, 3, 1)):
            assert np.array_equal(words(got[i]), words(f.iterate(p[i], m)))
        # each 3-row block of this m is non-increasing, the whole is not
        monkeypatch.setattr(maps, "_BLOCK_ROWS", 3)
        q = np.concatenate([p, p])
        for m in ([3, 2, 2, 4, 1, 1], [2, 2, 1, 2, 1, 1]):
            for jacobian in (False, True):
                with pytest.raises(ValueError, match="non-increasing"):
                    map_kernel(f, q, np.array(m), jacobian=jacobian)
        got = map_kernel(f, q, np.array([4, 3, 2, 2, 1, 1]))[0]
        for i, m in enumerate((4, 3, 2, 2, 1, 1)):
            assert np.array_equal(words(got[i]), words(f.iterate(q[i], m)))

    def test_zero_d_point_and_non_bool_jacobian_are_rejected(self):
        # a 1x1 jacobian must not be read as its truth value
        from endolab.orbits import orbit

        rng = np.random.default_rng(43)
        for n in (1, 2, 3):
            f = random_map(n, rng=rng)
            calls = (f.eval, f.jet, lambda q: f.iterate(q, 2),
                     lambda q: f.iterated_jet(q, 2),
                     lambda q: map_kernel(f, q, jacobian=True),
                     lambda q: orbit(f, q, 2))
            for call in calls:
                for q in (0.1, np.complex128(0.1 + 0.2j)):
                    with pytest.raises(ValueError, match=f"dimension {n}"):
                        call(q)
            p = np.full(n, 0.1 + 0.2j)
            for jacobian in (np.eye(n), np.eye(n, dtype=complex)[None],
                             np.True_, 1, None):
                for q in (p, p[None]):
                    with pytest.raises(TypeError, match="must be a bool"):
                        map_kernel(f, q, 2, jacobian=jacobian)


class TestEscapeRadius:
    def test_z_squared(self):
        f = PolyMap.from_coeffs_1d([0, 0, 1])
        assert escape_radius(f) == pytest.approx(2.0)

    def test_basilica(self):
        f = PolyMap.from_coeffs_1d([-1, 0, 1])
        assert escape_radius(f) == pytest.approx(3.0)

    def test_radius_is_an_escape_certificate(self):
        # sampled oracle: orbits starting just outside R grow monotonically
        rng = np.random.default_rng(5)
        for coeffs in ([0, 0, 1], [-1, 0, 1], [0.3, 0.1, 0.5 + 0.2j]):
            f = PolyMap.from_coeffs_1d(coeffs)
            R = escape_radius(f)
            theta = rng.uniform(0, 2 * np.pi, size=50)
            z = (R + 0.01) * np.exp(1j * theta)[:, None]
            for _ in range(5):
                w = f.eval(z)
                assert (np.abs(w) > np.abs(z)).all()
                z = w

    def test_linear_map_has_no_bound(self):
        f = PolyMap.from_coeffs_1d([0, 0.5])
        with pytest.raises(ValueError):
            escape_radius(f)

    def test_dominated_cross_terms_rejected(self):
        # w^2 in the z-component has total degree equal to the leading
        # term, so no radius certificate of the required form exists
        f = PolyMap.from_terms(2, (
            (((2, 0), 1.0), ((0, 2), 1.0)),
            (((0, 2), 1.0),),
        ))
        with pytest.raises(ValueError):
            escape_radius(f)


class TestSerialization:
    def test_round_trip(self):
        for n in (1, 2, 3):
            f = random_map(n)
            text = json.dumps(f.to_json_dict())
            g = PolyMap.from_json_dict(json.loads(text))
            assert g == f
            p = RNG.normal(size=n) + 1j * RNG.normal(size=n)
            assert np.allclose(f.eval(p), g.eval(p))

    def test_bad_json_raises(self):
        with pytest.raises((ValueError, KeyError)):
            PolyMap.from_json_dict({"n": 1})
        # a key the reader does not know is an error, never skipped: the
        # basilica z^2 - 1 plus an "entire" key is no polynomial map
        basilica = PolyMap.from_coeffs_1d([-1, 0, 1]).to_json_dict()
        for d in ({"n": 1, "entire": {"kind": "sin"}},
                  {**basilica, "entire": {"kind": "sin"}},
                  {**basilica, "degree": 2}):
            with pytest.raises(ValueError, match="unknown map keys"):
                PolyMap.from_json_dict(d)


def signed_zero_window(n):
    """An off-centre window on 2n real axes, with -0.0 as a bound."""
    bounds = [(-0.0, 1.5), (-2.1, -0.0), (-1.3, 0.9), (0.2, 0.7),
              (-0.4, -0.0), (-3.0, 1.1)]
    return Window(bounds=tuple(bounds[:2 * n]))


def meshgrid_lattice(ticks):
    """The product of one tick array per real axis, written out with
    meshgrid, row-major, each complex coordinate as re + 1j * im."""
    mesh = [m.ravel() for m in np.meshgrid(*ticks, indexing="ij")]
    return np.stack([re + 1j * im for re, im in zip(mesh[0::2], mesh[1::2])],
                    axis=-1)


class TestWindow:
    def test_contains_and_sample(self):
        w = Window.square(2, -1.5, 1.5)
        pts = w.sample(64, seed=3)
        assert pts.shape == (64, 2)
        assert bool(w.contains(pts).all())

    def test_sample_deterministic(self):
        w = Window.square(1, -2, 2)
        assert np.array_equal(w.sample(32, seed=9), w.sample(32, seed=9))
        assert not np.array_equal(w.sample(32, seed=9), w.sample(32, seed=10))

    def test_reals_complex_round_trip(self):
        w = Window.square(2, -1, 1)
        pts = w.sample(8, seed=0)
        assert np.allclose(w.to_complex(w.reals(pts)), pts)

    def test_grid_centers_count(self):
        w = Window.square(1, -1, 1)
        assert len(w.grid_centers(3)) == 9

    def test_lattice_word_for_word(self):
        # tick counts differ per axis, and the ticks include -0.0 bounds
        for n in (1, 2, 3):
            win = signed_zero_window(n)
            ticks = [np.linspace(lo, hi, 2 + a)
                     for a, (lo, hi) in enumerate(win.bounds)]
            assert any((np.signbit(t) & (t == 0)).any() for t in ticks)
            got = win.lattice(ticks)
            want = meshgrid_lattice(ticks)
            assert got.shape == want.shape == (np.prod([len(t) for t in ticks]),
                                               n)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_grid_centers_word_for_word(self):
        # every count of pinned axes, pinned at +-0.0 and below zero
        values = (-0.0, 0.0, -0.75, 0.3, -2.5, -0.0)
        for n in (1, 2, 3):
            win = signed_zero_window(n)
            for pinned in range(2 * n):
                fixed = values[:pinned]
                per = 4
                ticks = [lo + (hi - lo) / per * (np.arange(per) + 0.5)
                         for lo, hi in win.bounds[:2 * n - pinned]]
                ticks += [np.array([v]) for v in fixed]
                got = win.grid_centers(per, fixed)
                want = meshgrid_lattice(ticks)
                assert got.shape == (per ** (2 * n - pinned), n)
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64)), (n, fixed)

    def test_invalid_bounds(self):
        for interval in [(1.0, -1.0), (1.0, 1.0), (-np.inf, 1.0),
                         (0.0, np.inf), (np.nan, 1.0)]:
            with pytest.raises(ValueError):
                Window(bounds=(interval, (-1.0, 1.0)))


# n at 0, 1 and b^k - 1, b^k, b^k + 1 for bases 2, 3 and 13 (the 1st, 2nd
# and 6th primes), where the digit table grows by one more digit
HALTON_NS = sorted({0, 1, 8192} | {b ** k + off for b, ks in
                                   ((2, (1, 5, 10)), (3, (1, 4, 7)),
                                    (13, (1, 2, 3)))
                                   for k in ks for off in (-1, 0, 1)})


class TestHalton:
    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_bits_equal_scipy_scrambled_halton(self, d, seed):
        from scipy.stats import qmc

        for n in HALTON_NS:
            ref = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
            got = halton(d, n, seed)
            assert got.shape == ref.shape == (n, d)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), n

    def test_frozen_digest(self):
        # moves if SciPy's scrambling or this implementation changes
        digest = hashlib.sha256(halton(6, 4096, 3).tobytes()).hexdigest()
        assert digest == (
            "d44e906986e2d2a1e2f327ee19c520e2e3dab3515cea33fbfd7ac39af515066d")

    def test_runtime_does_not_import_scipy_stats(self):
        # importing scipy.stats costs most of a CLI process's start-up
        code = "\n".join([
            "import sys",
            "import endolab.cli, endolab.perturb",
            "from endolab.conley import build_box_map",
            "from endolab.maps import PolyMap, Window",
            "from endolab.periodic import find_periodic",
            "f = PolyMap.from_coeffs_1d([-1.0, 0.0, 1.0])",
            "w = Window.square(1, -2.0, 2.0)",
            "w.sample(16, seed=0)",
            "find_periodic(f, 2, w, seeds=16)",
            "build_box_map(f, w, 2, samples_per_box=4)",
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))",
        ])
        src = os.path.dirname(os.path.dirname(endolab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "[]"

    def test_periodic_and_julia_do_not_import_scipy(self, tmp_path):
        # conley loads scipy.sparse and perturb scipy.linalg; the periodic
        # and julia subcommands run on NumPy alone, and the package imports
        # no module of its own
        mapfile = tmp_path / "basilica.json"
        mapfile.write_text(json.dumps(
            PolyMap.from_coeffs_1d([-1, 0, 1]).to_json_dict()))
        code = "\n".join([
            "import sys",
            "import endolab",
            "print(sorted(m for m in sys.modules if m.startswith('endolab.')))",
            "from endolab.cli import main",
            "mapfile, out = sys.argv[1:]",
            "small = ['--set', 'm_max', '2', '--set', 'seeds', '16']",
            "assert main(['periodic', '--map', mapfile, '--out', out + '/p']"
            " + small) == 0",
            "assert main(['julia', '--map', mapfile, '--out', out + '/j',"
            " '--set', 'res', '16'] + small) == 0",
            "heavy = ('scipy.sparse', 'scipy.linalg', 'endolab.conley',"
            " 'endolab.perturb')",
            "print(sorted(m for m in heavy if m in sys.modules))",
        ])
        src = os.path.dirname(os.path.dirname(endolab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code, str(mapfile), str(tmp_path)],
            env=env, check=True, capture_output=True, text=True, timeout=120)
        assert out.stdout.split("\n")[:2] == ["[]", "[]"]

    def test_hakim_does_not_import_scipy(self, tmp_path):
        # the parabolic experiment runs on NumPy alone; perturb imports
        # scipy.linalg only inside interpolate_correction
        code = "\n".join([
            "import sys",
            "from endolab.cli import main",
            "assert main(['hakim', '--out', sys.argv[1], '--set', 'dim', '2',"
            " '--set', 'steps', '100']) == 0",
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))",
        ])
        src = os.path.dirname(os.path.dirname(endolab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                             env=env, check=True, capture_output=True,
                             text=True, timeout=120)
        assert out.stdout.strip() == "[]"
