"""Combinatorial Conley decomposition on a box covering.

The window is tiled by 2^depth boxes per real axis.  Each box maps to the
set of boxes meeting the padded bounding rectangle of its sampled image;
anything leaving the window feeds a single absorbing `infinity` node with
a self-loop.  The graph is stored as CSR arrays over nodes 0..B, node B
being `infinity`.  SCCs of this graph stand in for chain-recurrence classes,
the condensation DAG carries an integer complete-Lyapunov ranking, and
sink classes yield combinatorial attractor/basin node masks.

The padding is a heuristic, not an enclosure: soundness holds at sample
level only (every sampled image lands in a successor box).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .maps import InputError, Window, halton, map_kernel
from .orbits import basin_mask
from .periodic import find_periodic

INFINITY = -1  # the absorbing point-at-infinity node; indexes node B


@dataclass(frozen=True)
class BoxGrid:
    window: Window
    depth: int  # boxes per real axis = 2**depth

    @property
    def per_axis(self):
        return 2 ** self.depth

    @property
    def dims(self):
        return 2 * self.window.n

    @property
    def count(self):
        return self.per_axis ** self.dims

    @property
    def shape(self):
        """(per_axis,) * dims: flat box indices are row-major over it."""
        return (self.per_axis,) * self.dims

    @property
    def widths(self):
        return self.window.widths / self.per_axis

    def index(self, lattice):
        return np.ravel_multi_index(tuple(lattice), self.shape)

    def box_of_points(self, points):
        """Complex points (..., n) -> flat box index, INFINITY where
        `Window.contains` is False."""
        r = self.window.reals(points)
        cell = np.clip(np.floor((r - self.window.lo) / self.widths), 0,
                       self.per_axis - 1)
        idx = self.index(np.moveaxis(cell.astype(np.int64), -1, 0))
        return np.where(self.window.contains(points), idx, INFINITY)

    def centers(self):
        """Complex centers of all boxes, (count, n)."""
        return self.window.grid_centers(self.per_axis)


@dataclass(eq=False)
class BoxGraph:
    """A box map as CSR arrays over nodes 0..B, where B = grid.count.

    Node B is `infinity`.  The successors of node u are
    indices[indptr[u]:indptr[u + 1]], ascending, so B comes last.
    """

    grid: BoxGrid
    indptr: np.ndarray
    indices: np.ndarray

    def matrix(self):
        """The graph as a (B+1, B+1) CSR matrix of ones, for csgraph."""
        n = len(self.indptr) - 1
        return csr_array((np.ones(len(self.indices)), self.indices,
                          self.indptr), shape=(n, n))

    @cached_property
    def succ(self):
        """Read-only {node: sorted tuple of successors}, with INFINITY
        standing for node B."""
        B = self.grid.count
        tgt = np.where(self.indices == B, INFINITY, self.indices)
        rows = np.split(tgt, self.indptr[1:-1])
        nodes = list(range(B)) + [INFINITY]
        return MappingProxyType({u: tuple(sorted(r.tolist()))
                                 for u, r in zip(nodes, rows)})


def pad_spec(pad_mode):
    """`pad_mode` -> subcells per axis: `jacobian` is 1, `subcell[:s]` is s.

    Raises InputError for a mode that build_box_map does not know.
    """
    m = re.fullmatch(r"(jacobian)|subcell(?::([1-9][0-9]*))?", str(pad_mode))
    if not m:
        raise InputError(f"unknown pad_mode {pad_mode!r}")
    return 1 if m[1] else int(m[2] or 2)


def _unique_sorted(keys):
    """Distinct values of an integer array, ascending; sorts `keys` in place.

    Sort + diff: np.unique's hash path is several times slower on the
    millions of edge keys of a box map.
    """
    keys.sort(kind="stable")
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def _operator_norms(jac):
    """Largest singular value of each matrix of jac (N, n, n).

    1 x 1: |J|, which np.abs takes as hypot(Re J, Im J), without overflow;
    it is within 4e-16 relative of the SVD but not bit for bit.
    2 x 2: from the Gram matrix A^H A = [[p, q], [conj(q), r]],
    sqrt((p + r)/2 + hypot((p - r)/2, |q|)), which subtracts nothing under
    the root.  A is jac scaled by 2^-e so that its largest |Re|, |Im|
    entry lies in [1/2, 1), so p, q and r neither overflow nor underflow.
    It is within 2e-15 relative of the SVD (one unit in the last place
    where the norm is subnormal) but not bit for bit.
    3 x 3: the SVD.
    """
    if jac.shape[1:] == (1, 1):
        return np.abs(jac[:, 0, 0])
    if jac.shape[1:] == (2, 2):
        x = np.ascontiguousarray(jac, dtype=complex).view(np.float64)
        e = np.frexp(np.abs(x).max(axis=(1, 2)))[1]
        # ldexp on the entries: a factor 2^-e overflows for subnormal ones
        a = np.ldexp(x, -e[:, None, None]).view(complex)
        p, r = (a.real ** 2 + a.imag ** 2).sum(axis=1).T
        q = np.abs((a[:, :, 0].conj() * a[:, :, 1]).sum(axis=1))
        return np.ldexp(np.sqrt((p + r) / 2 + np.hypot((p - r) / 2, q)), e)
    return np.linalg.svd(jac, compute_uv=False).max(axis=-1)


def build_box_map(pmap, window, depth, samples_per_box=8, pad_mode="subcell:2",
                  seed=0):
    """Outer approximation of the map on a box grid.

    Per box: split it into s^d subcells and evaluate at the subcell
    corner lattice, the box center and samples_per_box quasi-random
    interior points.  Each subcell's samples give one image rectangle,
    padded by their largest Jacobian operator norm times the subcell
    radius; the box links to every box meeting a padded rectangle.
    Images past the window edge, and samples whose value or Jacobian
    overflows, become edges to `infinity`.

    pad_mode:
      `subcell:s` (default s=2) - s subcells per axis.  Tighter as s grows.
      `jacobian` - `subcell:1`: one rectangle over all samples, padded by
          the largest sampled operator norm times the box radius.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    split = pad_spec(pad_mode)
    grid = BoxGrid(window=window, depth=depth)
    d = grid.dims
    per = grid.per_axis
    w = grid.widths
    lo, hi = window.lo, window.hi

    # shared in-box sample offsets (unit cube), same for every box: the
    # subcell corner lattice (includes the box corners) + center
    corners = np.indices((split + 1,) * d).reshape(d, -1).T / split
    offs = [corners, np.full((1, d), 0.5)]
    if samples_per_box > 0:
        offs.append(halton(d, samples_per_box, seed))
    offs = np.concatenate(offs, axis=0)  # (S, d)

    # group samples: one group per subcell
    cellpos = np.minimum((offs * split).astype(int), split - 1)
    group_of = np.ravel_multi_index(tuple(cellpos.T), (split,) * d)
    sels = [group_of == gidx for gidx in range(split ** d)]
    sels = [sel for sel in sels if sel.any()]

    B = grid.count
    # box corners lo + w i plus the shared offsets, (B*S, n) in C order
    base = window.lattice(lo[:, None] + w[:, None] * np.arange(per))
    zs = (base[:, None] + window.to_complex(offs * w)).reshape(-1, window.n)

    # a sample whose value or Jacobian overflows maps to infinity, and its
    # operator norm is 0; the extra edge to infinity only enlarges the map
    img, jac, reached = map_kernel(pmap, zs, jacobian=True)
    over = reached == 0
    img[over] = 0.0
    opn = np.zeros(len(zs))
    opn[~over] = _operator_norms(jac[~over])
    opn = opn.reshape(B, -1)
    img_r = window.reals(img).reshape(B, -1, d)
    over = over.reshape(B, -1)
    del base, zs, img, jac  # nothing below reads them

    # padded image rectangle [a, b] of each box and sample group, (B, G, d)
    rad = float(w.max()) / (2.0 * split)
    pad = np.stack([opn[:, sel].max(axis=1) * rad for sel in sels], 1)
    eps = 1e-12
    a = np.stack([img_r[:, sel].min(axis=1) for sel in sels], 1)
    a -= pad[..., None]
    b = np.stack([img_r[:, sel].max(axis=1) for sel in sels], 1)
    b += pad[..., None]
    to_inf = (over.any(axis=1)
              | ((a < lo - eps) | (b > hi + eps)).any(axis=(1, 2)))
    # open-overlap test: boxes sharing only a face are not linked.  Clipping
    # before the cast keeps rectangles far outside the window, which are
    # dropped, within the integer range.
    ca = np.floor((np.maximum(a, lo) - lo) / w + eps)
    cb = np.ceil((np.minimum(b, hi) - lo) / w - eps) - 1
    ca = np.clip(ca, 0, per - 1).astype(np.int64)
    cb = np.clip(cb, 0, per - 1).astype(np.int64)
    box, grp = np.nonzero(~((a >= hi) | (b <= lo) | (cb < ca)).any(axis=2))

    # one key src * (B + 1) + tgt per edge, node B being infinity; each
    # lattice block [ca, cb] is enumerated in mixed radix, last axis fastest
    corner = ca[box, grp]
    side = cb[box, grp] - corner + 1
    count = side.prod(axis=1)
    stride = per ** np.arange(d - 1, -1, -1)
    n_block = int(count.sum())
    inf_box = np.flatnonzero(to_inf)
    keys = np.empty(n_block + len(inf_box), dtype=np.int64)
    keys[:n_block] = np.repeat(box * (B + 1) + corner @ stride, count)
    digit = np.arange(n_block) - np.repeat(np.cumsum(count) - count, count)
    for k in range(d - 1, -1, -1):
        radix = np.repeat(side[:, k], count)
        keys[:n_block] += digit % radix * stride[k]
        digit //= radix
    del digit, radix  # two (E,) arrays fewer during the sort
    keys[n_block:] = inf_box * (B + 1) + B
    keys = _unique_sorted(keys)

    indptr = np.append(np.searchsorted(keys, np.arange(B + 1) * (B + 1)),
                       len(keys) + 1)
    indices = np.append(keys % (B + 1), B)
    return BoxGraph(grid=grid, indptr=indptr.astype(np.int32),
                    indices=indices.astype(np.int32))


# ---------------------------------------------------------------------------
# SCC condensation (csgraph) and Morse graph


def strong_components(graph):
    """SCCs of a square csgraph matrix: (count, class per node).

    Classes are numbered by their minimal node.
    """
    k, labels = connected_components(graph, directed=True,
                                     connection="strong")
    _, first = np.unique(labels, return_index=True)
    rank = np.empty(k, dtype=labels.dtype)
    rank[np.argsort(first)] = np.arange(k, dtype=labels.dtype)
    return k, rank[labels]


@dataclass(eq=False)
class MorseGraph:
    graph: BoxGraph
    class_of: np.ndarray  # class per node 0..B; class_of[INFINITY] = node B's
    recurrent: np.ndarray  # bool per class
    dag_edges: np.ndarray  # (m, 2) distinct (class_i, class_j), i != j, sorted

    @cached_property
    def classes(self):
        """Sorted node list per class, with INFINITY standing for node B."""
        nodes = np.arange(len(self.class_of))
        nodes[-1] = INFINITY
        order = np.argsort(self.class_of, kind="stable")
        ends = np.cumsum(np.bincount(self.class_of,
                                     minlength=len(self.recurrent)))
        return [c.tolist() for c in np.split(nodes[order], ends[:-1])]

    @cached_property
    def into(self):
        """The class DAG reversed, as a (k, k) CSR matrix: row j holds the
        classes with an edge into class j."""
        k = len(self.recurrent)
        src, dst = self.dag_edges.T
        return csr_array((np.ones(len(src)), (dst, src)), shape=(k, k))

    @cached_property
    def lyapunov(self):
        """Per class: the longest condensation-path distance to a sink.

        One Kahn peel from the sinks: round r removes the classes whose
        successors all went in earlier rounds, and gives them L = r.  L
        falls strictly along cross-class edges and is constant on classes;
        the integer range is trivially nowhere dense.  A peel that stalls
        before every class is removed means the condensation has a cycle.
        """
        k = len(self.recurrent)
        left = np.bincount(self.dag_edges[:, 0], minlength=k)  # successors
        L = np.full(k, -1)
        front = np.flatnonzero(left == 0)
        r = 0
        while front.size:
            L[front] = r
            pred = self.into[front].indices
            np.subtract.at(left, pred, 1)
            front = np.unique(pred[left[pred] == 0])
            r += 1
        if (L < 0).any():
            raise RuntimeError(
                "condensation is not acyclic (invariant breach)")
        return L

    def sink_classes(self):
        """The classes with no successor: round 0 of the Kahn peel."""
        return np.flatnonzero(self.lyapunov == 0)

    def infinity_class(self):
        return int(self.class_of[INFINITY])


def morse_graph(g):
    """Condense the box graph; classes numbered by minimal contained node,
    so the `infinity` class (node B) comes last.  Reads the Lyapunov
    values once, which checks that the condensation is acyclic."""
    k, class_of = strong_components(g.matrix())
    src = np.repeat(np.arange(len(class_of), dtype=class_of.dtype),
                    np.diff(g.indptr))
    recurrent = np.bincount(class_of, minlength=k) > 1
    recurrent[class_of[src[g.indices == src]]] = True  # self-loops
    cu = class_of[src]
    cv = class_of[g.indices]
    cross = cu != cv
    keys = _unique_sorted(cu[cross].astype(np.int64) * k + cv[cross])
    dag = np.stack([keys // k, keys % k], axis=1)
    mg = MorseGraph(graph=g, class_of=class_of, recurrent=recurrent,
                    dag_edges=dag)
    mg.lyapunov  # raises on a cyclic condensation
    return mg


# ---------------------------------------------------------------------------
# attractors and basins


def attractors(mg):
    """(U, basin) masks over nodes 0..B, one pair per recurrent sink class
    U of the condensation; node B is `infinity`, whose class yields the
    escape attractor.

    U is its own attractor: nothing leaves a sink class, and each of its
    nodes has a predecessor inside it, so U maps onto U.  The basin is
    every node whose class reaches U in the class DAG.
    """
    out = []
    for cid in mg.sink_classes():
        if not mg.recurrent[cid]:
            continue  # a rectless sink cannot occur (every box has an image)
        reach = np.zeros(len(mg.recurrent), dtype=bool)
        reach[breadth_first_order(mg.into, int(cid),
                                  return_predecessors=False)] = True
        out.append((mg.class_of == cid, reach[mg.class_of]))
    return out


# ---------------------------------------------------------------------------
# Hurley-style verification report


def hurley_report(pmap, window, depth, samples_per_box=8, pad_mode="subcell:2",
                  m_max=3, seeds=1024, seed=0, petal_threshold=None):
    """Combinatorial checks of the chain-recurrence decomposition;
    returns (report, box graph, Morse graph, the `attractors` masks).

    (i)   non-recurrent boxes are covered by basin-minus-attractor sets
          (the `infinity` attractor included);
    (ii)  each detected attracting cycle occupies a recurrent sink class;
    (iii) basin boxes of each such cycle (orbit-convergence test at box
          centers) outside the cycle class are non-recurrent.  This holds
          only in the limit: a box map's recurrent set converges to the
          chain-recurrent set as depth grows, so at finite depth the
          Julia class reaches past J into the basin.  For z^2 - 1 on
          [-1.75, 1.75]^2 all 440 violations at depth 6 lie in the class
          of the repelling fixed point alpha, and the farthest violating
          center lies 0.368 from J at depth 6 but 0.074 at depth 8, while
          the count grows to 2771.  A violating box in a class of its own
          means chain recurrence inside the basin, or over-padding (at
          depth 7 `subcell:2` makes two such classes);
    (iv)  optional petal check: the recurrent class of the origin box
          reaches past petal_threshold along the positive real axis.
    """
    g = build_box_map(pmap, window, depth, samples_per_box=samples_per_box,
                      pad_mode=pad_mode, seed=seed)
    mg = morse_graph(g)
    masks = attractors(mg)
    report = {"depth": depth, "classes": len(mg.recurrent),
              "recurrent_classes": int(np.sum(mg.recurrent)),
              "attractors": len(masks), "items": {}}

    B = g.grid.count
    box_class = mg.class_of[:B]
    recurrent_box = mg.recurrent[box_class]
    covered = np.zeros(B + 1, dtype=bool)
    for U, basin in masks:
        covered |= basin & ~U
    missing = np.flatnonzero(~recurrent_box & ~covered[:B])
    report["items"]["i_nonrecurrent_in_basins"] = {
        "pass": not missing.size, "missing_boxes": missing[:20].tolist(),
        "missing_count": int(missing.size),
    }

    cycles = [c for c in find_periodic(pmap, m_max, window, seeds=seeds,
                                       seed=seed)
              if c.klass in ("attracting", "super_attracting")]
    sink = mg.lyapunov == 0
    item2 = []
    item3 = []
    centers = g.grid.centers()
    for c in cycles:
        boxes = g.grid.box_of_points(np.asarray(c.points).reshape(-1, pmap.n))
        cids = np.unique(mg.class_of[boxes])
        one = len(cids) == 1
        ok2 = one and mg.recurrent[cids[0]] and sink[cids[0]]
        item2.append({"period": c.period, "pass": bool(ok2),
                      "classes": cids.tolist()})
        mask = basin_mask(pmap, c, centers, n_max=1000, tol=1e-3)
        cyc = box_class == cids[0] if one else np.isin(np.arange(B), boxes)
        bad = np.flatnonzero(mask & recurrent_box & ~cyc)
        item3.append({"period": c.period, "pass": not bad.size,
                      "violations": bad[:20].tolist(),
                      "violation_count": int(bad.size)})
    report["items"]["ii_cycle_is_sink_class"] = item2
    report["items"]["iii_basin_nonrecurrent"] = item3

    if petal_threshold is not None:
        origin = np.zeros((1, pmap.n), dtype=complex)
        cid = int(mg.class_of[g.grid.box_of_points(origin)[0]])
        hit = False
        best = -np.inf
        if mg.recurrent[cid]:
            reach = centers[box_class == cid].real.min(axis=1)
            if reach.size:
                best = float(reach.max())
                hit = bool((reach > petal_threshold).any())
        report["items"]["iv_petal_chain_recurrent"] = {
            "pass": hit, "origin_class": cid,
            "max_min_real_part": best,
        }
    report["pass"] = all(
        it["pass"] if isinstance(it, dict) else all(x["pass"] for x in it)
        for it in report["items"].values()
    )
    return report, g, mg, masks


# ---------------------------------------------------------------------------
# DOT output


def morse_to_dot(mg):
    """Condensation as DOT: nodes `id:size:L`, recurrent double-circled."""
    k = len(mg.recurrent)
    sizes = np.bincount(mg.class_of, minlength=k).tolist()
    inf = mg.infinity_class()
    lines = ["digraph morse {\n"]
    for cid, (size, L, rec) in enumerate(zip(sizes, mg.lyapunov.tolist(),
                                             mg.recurrent.tolist())):
        label = f"{cid}:{size}:{L}" + (":inf" if cid == inf else "")
        shape = "doublecircle" if rec else "circle"
        lines.append(f'  c{cid} [label="{label}", shape={shape}];\n')
    edges = mg.dag_edges
    lines.append("  c%d -> c%d;\n" * len(edges)
                 % tuple(edges.ravel().tolist()))
    lines.append("}\n")
    return "".join(lines)


def recurrent_mask(mg):
    """Boolean mask over boxes (1-D window slice ordering) of recurrence."""
    return mg.recurrent[mg.class_of[:-1]].reshape(mg.graph.grid.shape)
