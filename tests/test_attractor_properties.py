"""Property test: `conley.attractors` on box maps of random quadratics."""

from collections import deque

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from endolab.conley import attractors, build_box_map, morse_graph  # noqa: E402
from endolab.maps import PolyMap, Window  # noqa: E402


def successors(g, nodes):
    """Mask of the successors of the nodes in a mask."""
    out = np.zeros_like(nodes)
    for u in np.flatnonzero(nodes):
        out[g.indices[g.indptr[u]:g.indptr[u + 1]]] = True
    return out


def reaches(g, target):
    """Mask of the nodes with a path into `target`: a plain BFS over the
    reversed node graph."""
    preds = [[] for _ in range(len(g.indptr) - 1)]
    for u in range(len(preds)):
        for v in g.indices[g.indptr[u]:g.indptr[u + 1]]:
            preds[v].append(u)
    seen = target.copy()
    queue = deque(np.flatnonzero(target))
    while queue:
        for u in preds[queue.popleft()]:
            if not seen[u]:
                seen[u] = True
                queue.append(u)
    return seen


@st.composite
def box_maps(draw):
    """Box graphs of random quadratics of C or C^2 on [-2, 2]^2n, at
    depth <= 4 in 1-D and <= 2 in 2-D, in both pad modes.  The terms of
    degree d have coefficients of scale s_d; a small s_2 and s_1 give
    maps with finite attractors."""
    n = draw(st.integers(1, 2))
    depth = draw(st.integers(1, 4 if n == 1 else 2))
    scale = [draw(st.floats(lo, hi)) for lo, hi in
             ((0.0, 0.5), (0.0, 0.6), (0.05, 1.0))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    exps = [e for e in np.ndindex((3,) * n) if sum(e) <= 2]
    s = np.array([scale[sum(e)] for e in exps])
    coeffs = rng.normal(size=(n, len(exps), 2)) @ [1, 1j] * s
    f = PolyMap.from_terms(n, [list(zip(exps, c)) for c in coeffs])
    pad = draw(st.sampled_from(["jacobian", "subcell:2"]))
    return build_box_map(f, Window.square(n, -2, 2), depth, pad_mode=pad)


@given(box_maps())
def test_sink_classes_and_basins(g):
    mg = morse_graph(g)
    found = attractors(mg)
    sinks = [c for c in mg.sink_classes() if mg.recurrent[c]]
    assert len(found) == len(sinks)
    for cid, (U, basin) in zip(sinks, found):
        assert (U == (mg.class_of == cid)).all()
        # a recurrent sink class maps onto itself: it is its own attractor
        assert (successors(g, U) == U).all()
        assert (basin == reaches(g, U)).all()
