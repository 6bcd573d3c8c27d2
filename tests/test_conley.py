"""Box-graph outer approximation, Morse graphs, Lyapunov, attractors."""

import itertools

import numpy as np
import pytest
from scipy.sparse import csr_array

from endolab import conley
from endolab.conley import (
    INFINITY,
    BoxGrid,
    _operator_norms,
    attractors,
    build_box_map,
    hurley_report,
    morse_graph,
    morse_to_dot,
    recurrent_mask,
    strong_components,
)
from endolab.maps import PolyMap, Window, map_kernel

BASILICA = PolyMap.from_coeffs_1d([-1, 0, 1])
HALF = PolyMap.from_coeffs_1d([0, 0.5])
DOUBLE = PolyMap.from_coeffs_1d([0, 2.0])
IDENT = PolyMap.from_coeffs_1d([0, 1.0])
W = Window.square(1, -1.75, 1.75)
ALPHA = (1 - 5 ** 0.5) / 2  # repelling fixed point of z^2 - 1, on J


def basilica_basin_violations(g, mg):
    """All boxes that item (iii) of hurley_report counts for z^2 - 1.

    These are recurrent boxes outside the class of the cycle {0, -1} whose
    centers lie in that cycle's basin; the report lists only the first 20.
    The basin test is plain NumPy: after 1000 steps the orbit is within
    1e-3 of 0 or -1 (escaping orbits are clamped at 3, where they stay).
    """
    z = g.grid.centers().ravel()
    for _ in range(1000):
        z = np.where(np.abs(z) > 3.0, 3.0, z * z - 1)
    in_basin = np.minimum(np.abs(z), np.abs(z + 1)) < 1e-3
    cycle = mg.class_of[int(g.grid.box_of_points(np.zeros((1, 1)))[0])]
    return [b for b in np.flatnonzero(recurrent_mask(mg))
            if in_basin[b] and mg.class_of[b] != cycle]


def julia_class(g, mg):
    """Chain class of the box holding the repelling fixed point alpha."""
    return mg.class_of[int(g.grid.box_of_points(np.array([[ALPHA]]))[0])]


def reference_box_map(f, win, depth, spb, pad_mode, seed=0):
    """build_box_map one box at a time: {box: sorted successor tuple}.

    Also returns the number of overflowing samples: those whose value or
    Jacobian leaves the map kernel's finite range.  The samples, the
    groups, the padded rectangles and the open-overlap test follow the
    build_box_map docstring, written out per box and per group.
    """
    grid = BoxGrid(window=win, depth=depth)
    d, per, w = grid.dims, grid.per_axis, grid.widths
    lo = np.array([b[0] for b in win.bounds])
    hi = np.array([b[1] for b in win.bounds])
    kind, _, arg = pad_mode.partition(":")
    split = int(arg) if kind == "subcell" else 0
    ticks = np.arange(split + 1) / split if split else np.array([0.0, 1.0])
    offs = [np.array(c) for c in itertools.product(ticks, repeat=d)]
    offs.append(np.full(d, 0.5))
    if spb:
        from scipy.stats import qmc

        offs.extend(qmc.Halton(d=d, scramble=True, seed=seed).random(spb))
    offs = np.array(offs)
    if split:
        cell = [tuple(np.minimum((o * split).astype(int), split - 1))
                for o in offs]
        groups = [[i for i, c in enumerate(cell) if c == sub]
                  for sub in itertools.product(range(split), repeat=d)]
    else:
        groups = [list(range(len(offs)))]
    rad = float(w.max()) / (2.0 * max(1, split))
    eps = 1e-12
    succ = {INFINITY: (INFINITY,)}
    overflows = 0
    for box in range(grid.count):
        base = lo + np.array(np.unravel_index(box, grid.shape)) * w
        zs = win.to_complex(base + offs * w)
        img, jac, ok = map_kernel(f, zs, jacobian=True)
        overflows += int((ok == 0).sum())
        targets = {INFINITY} if (ok == 0).any() else set()
        for group in groups:
            pts = [win.reals(img[i]) if ok[i] else np.zeros(d)
                   for i in group]
            pad = max(np.linalg.svd(jac[i], compute_uv=False).max()
                      if ok[i] else 0.0 for i in group) * rad
            a = np.min(pts, axis=0) - pad
            b = np.max(pts, axis=0) + pad
            if (a < lo - eps).any() or (b > hi + eps).any():
                targets.add(INFINITY)
            if (a >= hi).any() or (b <= lo).any():
                continue
            ca = np.floor((np.maximum(a, lo) - lo) / w + eps).astype(int)
            cb = np.ceil((np.minimum(b, hi) - lo) / w - eps).astype(int) - 1
            ca = np.clip(ca, 0, per - 1)
            cb = np.clip(cb, 0, per - 1)
            for c in itertools.product(*[range(ca[k], cb[k] + 1)
                                         for k in range(d)]):
                targets.add(grid.index(c))
        succ[box] = tuple(sorted(targets))
    return succ, overflows


def brute_scc(succ):
    """Quadratic-time SCC oracle via forward/backward reachability."""
    nodes = sorted(succ.keys())
    reach = {}
    for u in nodes:
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for v in succ[x]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reach[u] = seen
    comps = []
    assigned = set()
    for u in nodes:
        if u in assigned:
            continue
        comp = {v for v in reach[u] if u in reach[v]}
        assigned |= comp
        comps.append(frozenset(comp))
    return set(comps)


def off_centre_window(n):
    """A window with unequal, off-centre intervals on its 2n real axes."""
    return Window(bounds=tuple((-1.3 + 0.1 * a, 0.9 + 0.35 * a)
                               for a in range(2 * n)))


def meshgrid_centers(win, per_axis):
    """Box centers lo + w (i + 1/2), written out with meshgrid, row-major."""
    ticks = [lo + (hi - lo) / per_axis * (np.arange(per_axis) + 0.5)
             for lo, hi in win.bounds]
    mesh = np.meshgrid(*ticks, indexing="ij")
    r = np.stack([m.ravel() for m in mesh], axis=-1)
    return r[:, 0::2] + 1j * r[:, 1::2]


def box_bounds(grid, b):
    """Real bounds (lo, hi) of box b, from its lattice coordinates."""
    lo = (grid.window.lo
          + grid.widths * np.array(np.unravel_index(b, grid.shape)))
    return lo, lo + grid.widths


class TestBoxGrid:
    def test_index_lattice_round_trip(self):
        # 1-D at depth 7, 2-D at depth 3, 3-D (6 real axes) at depth 2
        for n, depth in ((1, 7), (2, 3), (3, 2)):
            grid = BoxGrid(window=off_centre_window(n), depth=depth)
            boxes = np.arange(grid.count)
            centers = grid.centers()
            assert np.array_equal(grid.box_of_points(centers), boxes)
            assert np.array_equal(
                grid.index(np.unravel_index(boxes, grid.shape)), boxes)
            reals = grid.window.reals(centers)
            for b in range(grid.count):
                assert grid.index(np.unravel_index(b, grid.shape)) == b
                lo, hi = box_bounds(grid, b)
                assert ((lo < reals[b]) & (reals[b] < hi)).all()

    def test_centers_word_for_word(self):
        for n, depth in ((1, 7), (2, 3), (3, 2)):
            win = off_centre_window(n)
            got = BoxGrid(window=win, depth=depth).centers()
            want = meshgrid_centers(win, 2 ** depth)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_shape_orders_boxes_last_axis_fastest(self):
        grid = BoxGrid(window=off_centre_window(2), depth=2)
        assert grid.shape == (4, 4, 4, 4)
        assert grid.index((1, 2, 3, 0)) == ((1 * 4 + 2) * 4 + 3) * 4 + 0
        assert grid.index((0, 1, 2, 3)) == 27

    def test_box_of_points(self):
        grid = BoxGrid(window=Window.square(1, -1, 1), depth=2)
        pts = np.array([[-0.9 + 0.9j], [0.9 - 0.9j], [3.0 + 0j]])
        idx = grid.box_of_points(pts)
        assert idx[2] == INFINITY
        for i in (0, 1):
            lo, hi = box_bounds(grid, int(idx[i]))
            z = pts[i, 0]
            assert lo[0] <= z.real <= hi[0] and lo[1] <= z.imag <= hi[1]

    def test_box_of_points_is_infinity_exactly_outside(self):
        # Window.contains is closed: faces and corners are inside, and one
        # ulp past a face is outside
        for n in (1, 2, 3):
            win = off_centre_window(n)
            grid = BoxGrid(window=win, depth=2)
            mid = (win.lo + win.hi) / 2
            levels = [(lo, hi, np.nextafter(lo, -np.inf),
                       np.nextafter(hi, np.inf), np.nextafter(lo, np.inf),
                       np.nextafter(hi, -np.inf))
                      for lo, hi in zip(win.lo, win.hi)]
            rows = []
            for k, vals in enumerate(levels):  # one face coordinate
                for v in vals:
                    rows.append(mid.copy())
                    rows[-1][k] = v
            rows += itertools.product(*[v[:4] for v in levels])  # corners
            pts = win.to_complex(np.array(rows))
            assert np.array_equal(win.reals(pts), np.array(rows))
            inside = win.contains(pts)
            assert inside.any() and not inside.all()
            idx = grid.box_of_points(pts)
            assert np.array_equal(idx == INFINITY, ~inside)
            assert ((idx[inside] >= 0) & (idx[inside] < grid.count)).all()

    def test_centers_inside_their_boxes(self):
        grid = BoxGrid(window=Window.square(1, -1, 1), depth=2)
        c = grid.centers()
        assert np.array_equal(grid.box_of_points(c), np.arange(grid.count))


class TestTarjan:
    """The brute-force SCC oracle against the csgraph step morse_graph uses."""

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            k = int(rng.integers(2, 40))
            succ = {u: tuple(sorted(set(
                int(v) for v in rng.integers(0, k, size=rng.integers(0, 5))
            ))) for u in range(k)}
            src = [u for u in range(k) for _ in succ[u]]
            dst = [v for u in range(k) for v in succ[u]]
            graph = csr_array((np.ones(len(src)), (src, dst)), shape=(k, k))
            count, labels = strong_components(graph)
            mine = {frozenset(np.flatnonzero(labels == c).tolist())
                    for c in range(count)}
            assert mine == brute_scc(succ)
            # classes are numbered by their minimal node
            firsts = [int(np.flatnonzero(labels == c)[0])
                      for c in range(count)]
            assert firsts == sorted(firsts)

    def test_matches_brute_force_on_box_graphs(self):
        for f, depth in ((BASILICA, 3), (HALF, 3), (DOUBLE, 2)):
            g = build_box_map(f, W, depth)
            classes = morse_graph(g).classes
            assert {frozenset(c) for c in classes} == brute_scc(g.succ)
            assert classes[-1] == [INFINITY]


class TestOperatorNorms:
    def test_2x2_within_2e_15_of_svd(self):
        # neither |J| (1 x 1) nor the Gram form (2 x 2) gives the SVD's
        # bits, only its value to a few units in the last place; a
        # subnormal norm carries fewer bits, so there the bound is one unit
        # in its last place.  The scales include 1e-130 and 1e130 and
        # points past them, where LAPACK rescales a 1 x 1 matrix
        rng = np.random.default_rng(72)

        def normal(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        u = normal(500)
        diag = np.zeros((500, 2, 2), dtype=complex)
        diag[:, 0, 0] = u
        diag[:, 1, 1] = np.abs(u) * np.exp(2j * np.pi * rng.uniform(size=500))
        # a [[1, t], [-conj t, 1]] is a multiple of a unitary matrix
        t = normal(500)
        conformal = np.stack([np.stack([np.ones(500), t], -1),
                              np.stack([-t.conj(), np.ones(500)], -1)], 1)
        conformal = (normal(500)[:, None, None] * conformal
                     + 1e-9 * normal(500, 2, 2))
        one = rng.uniform(-1, 1, size=(2, 4000))
        one[1, :500] = 0.0  # real and imaginary entries
        one[0, 500:1000] = 0.0
        one /= np.abs(one).max(axis=0)  # max(|Re J|, |Im J|) = 1
        families = {
            "1 x 1 zero": np.zeros((3, 1, 1), dtype=complex),
            "1 x 1": (one[0] + 1j * one[1]).reshape(-1, 1, 1),
            "zero": np.zeros((3, 2, 2), dtype=complex),
            "rank 1": normal(500, 2, 1) * normal(500, 1, 2),
            "diagonal |z| = |w|": diag,
            "nearly conformal": conformal,
            "random": normal(2000, 2, 2),
        }
        for scale in (1e-310, 1e-150, 1e-130 / 8, 1e-130, 1.0, 1e130,
                      1e130 * 8, 1e150, 1e300):
            for name, jac in families.items():
                jac = jac * scale
                got = _operator_norms(jac)
                want = np.linalg.svd(jac, compute_uv=False).max(axis=-1)
                bound = np.maximum(2e-15 * want, np.spacing(want))
                assert np.all(np.abs(got - want) <= bound), (scale, name)
                assert np.array_equal(got == 0, want == 0), (scale, name)

    @pytest.mark.parametrize("case,pad_mode", [
        (case, mode) for case in ("first", "second")
        for mode in ("jacobian", "subcell:2")
    ] + [("cardioid", "jacobian"), ("basilica", "subcell:2")])
    def test_2d_box_maps_keep_the_svd_edges(self, monkeypatch, case,
                                            pad_mode):
        # (z^2 + c1 + eps w, w^2 + c2) on [-1.75, 1.75]^4 at depth 3, as in
        # the benchmark's 2-D Conley jobs (which pad in the CLI's default
        # `jacobian` mode), and z^2 + c on [-1.75, 1.75]^2, a cardioid c at
        # depth 7 as in its 1-D ones and c = -1 at depth 6: neither |J|'s
        # nor the Gram form's last bits move an edge against the SVD's
        def term(exps, c):
            return {"exps": exps, "re": c.real, "im": c.imag}

        if case in ("first", "second"):
            c1, c2, eps = {
                "first": (0.2 + 0.1j, -0.1 + 0.2j, 0.03 + 0.01j),
                "second": (-0.15 - 0.25j, 0.22 - 0.05j, -0.02 + 0.04j),
            }[case]
            f = PolyMap.from_json_dict({"n": 2, "components": [
                [term([2, 0], 1), term([0, 0], c1), term([0, 1], eps)],
                [term([0, 2], 1), term([0, 0], c2)]]})
            win, depth = Window.square(2, -1.75, 1.75), 3
        else:
            # c = lam/2 - lam^2/4 for the fixed point's multiplier lam = i/2
            c, depth = {"cardioid": (0.0625 + 0.25j, 7),
                        "basilica": (-1.0, 6)}[case]
            f = PolyMap.from_coeffs_1d([c, 0, 1])
            win = Window.square(1, -1.75, 1.75)
        got = build_box_map(f, win, depth, pad_mode=pad_mode)
        monkeypatch.setattr(
            conley, "_operator_norms",
            lambda jac: np.linalg.svd(jac, compute_uv=False).max(axis=-1))
        want = build_box_map(f, win, depth, pad_mode=pad_mode)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)


class TestBoxGraph:
    def test_every_node_has_successors(self):
        g = build_box_map(BASILICA, W, 4)
        assert all(len(v) > 0 for v in g.succ.values())
        assert g.succ[INFINITY] == (INFINITY,)

    def test_outer_approximation_covers_true_images(self):
        # the exact image box of every sampled point is among the successors
        g = build_box_map(BASILICA, W, 4, seed=0)
        rng = np.random.default_rng(1)
        for b in rng.integers(0, g.grid.count, size=100):
            lo, hi = box_bounds(g.grid, int(b))
            pts = W.to_complex(rng.uniform(lo, hi, size=(16, len(lo))))
            img = BASILICA.eval(pts)
            tgt = g.grid.box_of_points(img)
            assert set(int(t) for t in tgt) <= set(g.succ[int(b)])

    @pytest.mark.parametrize("pad_mode", ["jacobian", "subcell:2"])
    @pytest.mark.parametrize("case", ["basilica", "overflow", "quad2"])
    def test_matches_per_box_reference(self, case, pad_mode):
        quad2 = PolyMap.from_json_dict({"n": 2, "components": [
            [{"exps": [2, 0], "re": 1.0, "im": 0.0},
             {"exps": [0, 0], "re": -0.2, "im": 0.1}],
            [{"exps": [0, 2], "re": 1.0, "im": 0.0},
             {"exps": [1, 0], "re": 0.03, "im": 0.0},
             {"exps": [0, 0], "re": 0.0, "im": 0.1}]]})
        f, win, depths = {
            "basilica": (BASILICA, W, (1, 2, 3)),
            # z^2 overflows the map kernel's 1e150 limit near the corners
            "overflow": (PolyMap.from_coeffs_1d([0, 0, 1.0]),
                         Window.square(1, -1e80, 1e80), (2,)),
            "quad2": (quad2, Window.square(2, -1.75, 1.75), (1, 2)),
        }[case]
        for depth in depths:
            g = build_box_map(f, win, depth, pad_mode=pad_mode, seed=3)
            ref, overflows = reference_box_map(f, win, depth, 8, pad_mode,
                                               seed=3)
            assert dict(g.succ) == ref
            assert any(INFINITY in ref[b] for b in range(g.grid.count))
            assert (overflows > 0) == (case == "overflow")

    def test_identity_map_all_recurrent(self):
        g = build_box_map(IDENT, Window.square(1, -1, 1), 3)
        mg = morse_graph(g)
        assert recurrent_mask(mg).all()


class TestMorseGraph:
    def test_condensation_acyclic_and_lyapunov_monotone(self):
        g = build_box_map(BASILICA, W, 4)
        mg = morse_graph(g)
        for u, v in mg.dag_edges:
            assert mg.lyapunov[u] > mg.lyapunov[v]
        L = mg.lyapunov[mg.class_of]  # INFINITY indexes node B
        for u, vs in g.succ.items():
            for v in vs:
                if mg.class_of[u] == mg.class_of[v]:
                    assert L[u] == L[v]
                else:
                    assert L[u] > L[v]

    def test_cyclic_condensation_is_an_invariant_breach(self):
        mg = morse_graph(build_box_map(HALF, Window.square(1, -1, 1), 2))
        assert len(mg.recurrent) >= 2
        cyclic = conley.MorseGraph(graph=mg.graph, class_of=mg.class_of,
                                   recurrent=mg.recurrent,
                                   dag_edges=np.array([[0, 1], [1, 0]]))
        with pytest.raises(RuntimeError, match="not acyclic"):
            cyclic.lyapunov

    def test_expanding_map_recurrence_is_origin_and_infinity(self):
        g = build_box_map(DOUBLE, Window.square(1, -1, 1), 4)
        mg = morse_graph(g)
        rec = [cid for cid in range(len(mg.classes)) if mg.recurrent[cid]]
        # origin cluster and the infinity node
        assert mg.infinity_class() in rec
        c = g.grid.centers()[recurrent_mask(mg).ravel()]
        assert np.abs(c).max() < 0.5

    def test_sink_classes_have_no_successor(self):
        plane = PolyMap.from_terms(2, ((((2, 0), 1.0), ((0, 0), -1.0)),
                                       (((0, 1), 0.5),)))
        for f, win, depth in ((BASILICA, W, 4),
                              (HALF, Window.square(1, -1, 1), 3),
                              (DOUBLE, Window.square(1, -1, 1), 3),
                              (plane, Window.square(2, -1.75, 1.75), 2)):
            mg = morse_graph(build_box_map(f, win, depth))
            leaving = set(mg.dag_edges[:, 0].tolist())
            want = [c for c in range(len(mg.recurrent)) if c not in leaving]
            assert mg.sink_classes().tolist() == want
            assert mg.infinity_class() in want

    def test_dot_output(self):
        g = build_box_map(HALF, Window.square(1, -1, 1), 3)
        mg = morse_graph(g)
        dot = morse_to_dot(mg)
        assert dot.startswith("digraph morse {")
        assert dot.count("doublecircle") == int(np.sum(mg.recurrent))


class TestAttractors:
    def test_half_map_attractors(self):
        g = build_box_map(HALF, Window.square(1, -1, 1), 4)
        finite = [U for U, _ in attractors(morse_graph(g)) if not U[-1]]
        assert len(finite) == 1
        c = g.grid.centers()[finite[0][:-1]]
        assert np.abs(c).max() < 0.25

    def test_absorbing_invariant(self):
        g = build_box_map(BASILICA, W, 4)
        for U, basin in attractors(morse_graph(g)):
            for b in np.flatnonzero(U):  # node B, infinity, too
                assert U[g.indices[g.indptr[b]:g.indptr[b + 1]]].all()
            assert (U <= basin).all()

    def test_basilica_cycle_attractor(self):
        # depth 6 is the first scale at which the cycle class separates
        # from the chain-recurrent collar and becomes a genuine sink
        g = build_box_map(BASILICA, W, 6)
        finite = [U for U, _ in attractors(morse_graph(g)) if not U[-1]]
        assert len(finite) == 1
        c = g.grid.centers()[finite[0][:-1]]
        # the attractor clusters around the 2-cycle {0, -1}
        d = np.minimum(np.abs(c - 0.0), np.abs(c + 1.0)).max()
        assert d < 3 * g.grid.widths.max()

    def test_recurrent_mask_shape(self):
        g = build_box_map(HALF, Window.square(1, -1, 1), 3)
        mg = morse_graph(g)
        mask = recurrent_mask(mg)
        assert mask.shape == (8, 8)
        assert mask.sum() == sum(len(c) - (INFINITY in c) for c, rec
                                 in zip(mg.classes, mg.recurrent) if rec)


class TestHurleyReport:
    def test_basilica_report_structure(self):
        report, g, mg, _ = hurley_report(BASILICA, W, 6, m_max=2,
                                         seeds=256, seed=0)
        assert report["items"]["i_nonrecurrent_in_basins"]["pass"]
        assert all(x["pass"] for x in
                   report["items"]["ii_cycle_is_sink_class"])
        # item (iii) counts recurrent basin boxes near J at this depth; all
        # of them lie in the Julia class (the class of alpha), so the basin
        # holds no chain class of its own
        viols = basilica_basin_violations(g, mg)
        assert sum(x["violation_count"] for x in
                   report["items"]["iii_basin_nonrecurrent"]) == len(viols)
        assert {mg.class_of[b] for b in viols} <= {julia_class(g, mg)}

    def test_bad_pad_mode(self):
        with pytest.raises(ValueError):
            build_box_map(HALF, W, 3, pad_mode="nonsense")

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            build_box_map(HALF, W, 0)
