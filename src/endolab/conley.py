"""Combinatorial Conley decomposition on a box covering.

The window is tiled by 2^depth boxes per real axis.  Each box maps to the
set of boxes meeting the padded bounding rectangle of its sampled image;
anything leaving the window feeds a single absorbing `infinity` node with
a self-loop.  SCCs of this graph stand in for chain-recurrence classes,
the condensation DAG carries an integer complete-Lyapunov ranking, and
sink classes yield combinatorial attractor/basin records.

The padding is a heuristic, not an enclosure: soundness holds at sample
level only (every sampled image lands in a successor box).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .maps import PolyMap, Window, map_kernel

INFINITY = -1  # the absorbing point-at-infinity node


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
    def widths(self):
        return self.window.widths / self.per_axis

    def lattice(self, index):
        """Flat index -> lattice coordinates (last axis fastest)."""
        coords = []
        for _ in range(self.dims):
            coords.append(index % self.per_axis)
            index //= self.per_axis
        return tuple(reversed(coords))

    def index(self, lattice):
        idx = 0
        for c in lattice:
            idx = idx * self.per_axis + int(c)
        return idx

    def box_of_reals(self, r):
        """Real coordinates (..., 2n) -> flat box index, INFINITY outside."""
        r = np.asarray(r, dtype=float)
        lo = np.array([b[0] for b in self.window.bounds])
        hi = np.array([b[1] for b in self.window.bounds])
        inside = np.all((r >= lo) & (r <= hi), axis=-1)
        cell = np.floor((r - lo) / self.widths).astype(np.int64)
        cell = np.clip(cell, 0, self.per_axis - 1)
        idx = np.zeros(r.shape[:-1], dtype=np.int64)
        for a in range(self.dims):
            idx = idx * self.per_axis + cell[..., a]
        return np.where(inside, idx, INFINITY)

    def box_of_points(self, points):
        return self.box_of_reals(self.window.reals(points))

    def centers(self):
        """Complex centers of all boxes, (count, n)."""
        axes = []
        lo = np.array([b[0] for b in self.window.bounds])
        w = self.widths
        mesh = np.meshgrid(
            *[lo[a] + w[a] * (np.arange(self.per_axis) + 0.5)
              for a in range(self.dims)],
            indexing="ij",
        )
        r = np.stack([m.ravel() for m in mesh], axis=-1)
        return self.window.to_complex(r)

    def box_bounds(self, index):
        lat = self.lattice(index)
        lo = np.array([b[0] for b in self.window.bounds])
        w = self.widths
        a = lo + w * np.array(lat)
        return a, a + w

    def box_samples(self, index, samples_per_box, seed=0):
        """Corners + center + quasi-random interior points, as reals."""
        a, b = self.box_bounds(index)
        d = self.dims
        corners = np.array(
            [[(b if (m >> k) & 1 else a)[k] for k in range(d)]
             for m in range(2 ** d)]
        )
        center = (a + b) / 2
        pts = [corners, center[None, :]]
        if samples_per_box > 0:
            from scipy.stats import qmc

            eng = qmc.Halton(d=d, scramble=True, seed=seed)
            u = eng.random(samples_per_box)
            pts.append(a + u * (b - a))
        return np.concatenate(pts, axis=0)


@dataclass
class BoxGraph:
    grid: BoxGrid
    succ: dict  # box index (or INFINITY) -> sorted tuple of successors

    def nodes(self):
        return sorted(self.succ.keys())

    def predecessors(self):
        pred = {u: [] for u in self.succ}
        for u, vs in self.succ.items():
            for v in vs:
                pred[v].append(u)
        return pred


def build_box_map(pmap, window, depth, samples_per_box=8, pad_mode="subcell:2",
                  seed=0):
    """Outer approximation of the map on a box grid.

    Per box: evaluate at corners + center + quasi-random interior points,
    bound the images by rectangles padded with a Jacobian-norm-based
    margin, and link to every box meeting a padded rectangle.  Images
    past the window edge (or overflow) become edges to `infinity`.

    pad_mode:
      `subcell:s` (default s=2) - split the box into s^d subcells, one
          rectangle per subcell from its corner images, pad = max corner
          operator norm times the subcell radius.  Tightest.
      `jacobian` - single rectangle over all samples, pad = max sampled
          operator norm times the box radius.  Coarse but cheap.
      `fixed:c` - single rectangle, constant pad c.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    grid = BoxGrid(window=window, depth=depth)
    d = grid.dims
    per = grid.per_axis
    w = grid.widths
    lo = np.array([b[0] for b in window.bounds])
    hi = np.array([b[1] for b in window.bounds])

    fixed_pad = None
    split = 0
    if pad_mode.startswith("fixed:"):
        fixed_pad = float(pad_mode.split(":", 1)[1])
    elif pad_mode == "subcell" or pad_mode.startswith("subcell:"):
        split = int(pad_mode.split(":", 1)[1]) if ":" in pad_mode else 2
    elif pad_mode != "jacobian":
        raise ValueError(f"unknown pad_mode {pad_mode!r}")

    # shared in-box sample offsets (unit cube), same for every box
    if split:
        # subcell corner lattice (includes the box corners) + center
        axes = [np.arange(split + 1) / split] * d
        lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        lattice = lattice.reshape(-1, d)
        offs = [lattice, np.full((1, d), 0.5)]
    else:
        corners = np.array(
            [[(m >> k) & 1 for k in range(d)] for m in range(2 ** d)],
            dtype=float,
        )
        offs = [corners, np.full((1, d), 0.5)]
    if samples_per_box > 0:
        from scipy.stats import qmc

        eng = qmc.Halton(d=d, scramble=True, seed=seed)
        offs.append(eng.random(samples_per_box))
    offs = np.concatenate(offs, axis=0)  # (S, d)
    S = len(offs)

    # group samples: one group per subcell (or a single group)
    groups = max(1, split ** d)
    group_of = np.zeros(S, dtype=int)
    if split:
        cellpos = np.minimum((offs * split).astype(int), split - 1)
        for a in range(d):
            group_of = group_of * split + cellpos[:, a]

    lat = np.stack(
        np.meshgrid(*[np.arange(per)] * d, indexing="ij"), axis=-1
    ).reshape(-1, d)
    base = lo + lat * w  # (B, d)
    B = len(base)
    samples = base[:, None, :] + offs[None, :, :] * w  # (B, S, d)
    zs = window.to_complex(samples.reshape(-1, d))  # (B*S, n)

    # an overflowing sample maps to infinity, and its operator norm is 0
    img, _, reached = map_kernel(pmap, zs)
    over = reached == 0
    img[over] = 0.0

    if fixed_pad is None:
        _, jac, reached = map_kernel(pmap, zs, jacobian=True)
        good = reached == 1
        opn = np.zeros(len(zs))
        opn[good] = np.linalg.svd(jac[good], compute_uv=False).max(axis=-1)
        opn = opn.reshape(B, S)
    img_r = window.reals(img).reshape(B, S, d)
    over = over.reshape(B, S)

    # per-box, per-group rectangle bounds and pads
    rad = float(w.max()) / (2.0 * max(1, split))
    rects = []  # (B, G, d) mins/maxs, (B, G) pad, (B, G) any-sample flag
    gmins = np.full((B, groups, d), np.inf)
    gmaxs = np.full((B, groups, d), -np.inf)
    gpad = np.zeros((B, groups))
    gok = np.zeros((B, groups), dtype=bool)
    for gidx in range(groups):
        sel = group_of == gidx
        if not sel.any():
            continue
        gok[:, gidx] = True
        gmins[:, gidx, :] = img_r[:, sel, :].min(axis=1)
        gmaxs[:, gidx, :] = img_r[:, sel, :].max(axis=1)
        if fixed_pad is None:
            gpad[:, gidx] = opn[:, sel].max(axis=1) * rad
        else:
            gpad[:, gidx] = fixed_pad

    succ = {}
    eps = 1e-12
    for bi in range(B):
        targets = set()
        if over[bi].any():
            targets.add(INFINITY)
        for gidx in range(groups):
            if not gok[bi, gidx]:
                continue
            a = gmins[bi, gidx] - gpad[bi, gidx]
            b = gmaxs[bi, gidx] + gpad[bi, gidx]
            if np.any(a < lo - eps) or np.any(b > hi + eps):
                targets.add(INFINITY)
            if np.any(a >= hi) or np.any(b <= lo):
                continue
            # open-overlap test: boxes sharing only a face are not linked
            ca = np.floor((np.maximum(a, lo) - lo) / w + eps).astype(int)
            cb = np.ceil((np.minimum(b, hi) - lo) / w - eps).astype(int) - 1
            ca = np.clip(ca, 0, per - 1)
            cb = np.clip(cb, 0, per - 1)
            if np.any(cb < ca):
                continue
            ranges = [range(ca[k], cb[k] + 1) for k in range(d)]
            targets.update(_lattice_block(ranges, per).tolist())
        succ[grid.index(tuple(lat[bi]))] = tuple(sorted(targets))
    succ[INFINITY] = (INFINITY,)
    return BoxGraph(grid=grid, succ=succ)


def _lattice_block(ranges, per):
    mesh = np.meshgrid(*[np.array(list(r)) for r in ranges], indexing="ij")
    idx = np.zeros(mesh[0].shape, dtype=np.int64)
    for m in mesh:
        idx = idx * per + m
    return idx.ravel()


# ---------------------------------------------------------------------------
# SCC condensation (iterative Tarjan) and Morse graph


def tarjan_scc(succ):
    """SCCs of a {node: iterable of nodes} graph, iterative Tarjan.

    Returned in reverse topological order (sinks first).
    """
    index = {}
    low = {}
    onstack = set()
    stack = []
    sccs = []
    counter = [0]
    for root in succ:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for u in it:
                if u not in index:
                    index[u] = low[u] = counter[0]
                    counter[0] += 1
                    stack.append(u)
                    onstack.add(u)
                    work.append((u, iter(succ[u])))
                    advanced = True
                    break
                elif u in onstack:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    onstack.discard(u)
                    comp.append(u)
                    if u == v:
                        break
                sccs.append(comp)
    return sccs


@dataclass
class MorseGraph:
    graph: BoxGraph
    classes: list  # sorted box-index lists, deterministic numbering
    recurrent: list  # bool per class
    dag_edges: set  # (class_i, class_j), i != j
    class_of: dict  # node -> class id
    lyapunov: Optional[list] = None  # per class, after lyapunov()

    def recurrent_boxes(self):
        out = []
        for cid, boxes in enumerate(self.classes):
            if self.recurrent[cid]:
                out.extend(b for b in boxes if b != INFINITY)
        return sorted(out)

    def sink_classes(self):
        has_out = {i for (i, _) in self.dag_edges}
        return [cid for cid in range(len(self.classes)) if cid not in has_out]

    def infinity_class(self):
        return self.class_of.get(INFINITY)


def morse_graph(g):
    """Condense the box graph; classes numbered by minimal contained box
    index (the `infinity` class last)."""
    comps = tarjan_scc(g.succ)
    comps = [sorted(c) for c in comps]

    def key(c):
        boxes = [b for b in c if b != INFINITY]
        return (1, 0) if not boxes else (0, min(boxes))

    comps.sort(key=key)
    class_of = {}
    for cid, c in enumerate(comps):
        for v in c:
            class_of[v] = cid
    recurrent = []
    for c in comps:
        if len(c) > 1:
            recurrent.append(True)
        else:
            v = c[0]
            recurrent.append(v in g.succ[v])
    edges = set()
    for u, vs in g.succ.items():
        cu = class_of[u]
        for v in vs:
            cv = class_of[v]
            if cu != cv:
                edges.add((cu, cv))
    mg = MorseGraph(graph=g, classes=comps, recurrent=recurrent,
                    dag_edges=edges, class_of=class_of)
    if _has_cycle(len(comps), edges):
        raise RuntimeError("condensation is not acyclic (invariant breach)")
    return mg


def _has_cycle(k, edges):
    succ = {i: [] for i in range(k)}
    indeg = {i: 0 for i in range(k)}
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    queue = [i for i in range(k) if indeg[i] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen != k


def lyapunov(mg):
    """Fill per-class values: longest condensation-path distance to a sink.

    Strictly decreasing along cross-class edges, constant on classes; the
    integer range is trivially nowhere dense.
    """
    k = len(mg.classes)
    succ = {i: [] for i in range(k)}
    for u, v in mg.dag_edges:
        succ[u].append(v)
    order = _topo_order(k, mg.dag_edges)
    L = [0] * k
    for u in reversed(order):
        L[u] = max((L[v] + 1 for v in succ[u]), default=0)
    mg.lyapunov = L
    return mg


def _topo_order(k, edges):
    succ = {i: [] for i in range(k)}
    indeg = {i: 0 for i in range(k)}
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    queue = sorted(i for i in range(k) if indeg[i] == 0)
    order = []
    while queue:
        u = queue.pop(0)
        order.append(u)
        for v in sorted(succ[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != k:
        raise RuntimeError("condensation is not acyclic (invariant breach)")
    return order


def box_lyapunov(mg):
    if mg.lyapunov is None:
        lyapunov(mg)
    return {b: mg.lyapunov[cid]
            for cid, boxes in enumerate(mg.classes) for b in boxes}


# ---------------------------------------------------------------------------
# attractors and basins


@dataclass(frozen=True)
class AttractorRecord:
    absorbing: frozenset  # box set U with successors(U) <= U
    attractor: frozenset  # eventual image of U
    basin: frozenset  # boxes with a path into U
    is_infinity: bool


def attractors(g, mg=None):
    """One record per recurrent sink class of the condensation.

    A sink class U satisfies successors(U) <= U by construction; the
    attractor is its eventual forward image, the basin its backward
    reachable set.  The `infinity` class yields the escape attractor.
    """
    if mg is None:
        mg = morse_graph(g)
    pred = g.predecessors()
    out = []
    for cid in mg.sink_classes():
        if not mg.recurrent[cid]:
            continue  # a rectless sink cannot occur (every box has an image)
        U = set(mg.classes[cid])
        # eventual image inside U
        A = set(U)
        while True:
            nxt = set()
            for b in A:
                nxt.update(v for v in g.succ[b] if v in U)
            if nxt == A:
                break
            A = nxt
        # backward reachability
        basin = set(U)
        frontier = list(U)
        while frontier:
            v = frontier.pop()
            for u in pred.get(v, ()):
                if u not in basin:
                    basin.add(u)
                    frontier.append(u)
        out.append(AttractorRecord(
            absorbing=frozenset(U),
            attractor=frozenset(A),
            basin=frozenset(basin),
            is_infinity=INFINITY in U,
        ))
    return out


# ---------------------------------------------------------------------------
# Hurley-style verification report


def hurley_report(pmap, window, depth, samples_per_box=8, pad_mode="subcell:2",
                  m_max=3, seeds=1024, seed=0, petal_threshold=None):
    """Combinatorial checks of the chain-recurrence decomposition.

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
    from .orbits import basin_mask
    from .periodic import find_periodic

    g = build_box_map(pmap, window, depth, samples_per_box=samples_per_box,
                      pad_mode=pad_mode, seed=seed)
    mg = lyapunov(morse_graph(g))
    recs = attractors(g, mg)
    report = {"depth": depth, "classes": len(mg.classes),
              "recurrent_classes": int(np.sum(mg.recurrent)),
              "attractors": len(recs), "items": {}}

    recurrent_boxes = set(mg.recurrent_boxes())
    all_boxes = set(b for b in g.succ if b != INFINITY)
    covered = set()
    for r in recs:
        covered |= (r.basin - r.attractor)
    missing = sorted(all_boxes - recurrent_boxes - covered)
    report["items"]["i_nonrecurrent_in_basins"] = {
        "pass": not missing, "missing_boxes": missing[:20],
        "missing_count": len(missing),
    }

    cycles = [c for c in find_periodic(pmap, m_max, window, seeds=seeds,
                                       seed=seed)
              if c.klass in ("attracting", "super_attracting")]
    item2 = []
    item3 = []
    centers = g.grid.centers()
    for c in cycles:
        boxes = {int(g.grid.box_of_points(np.asarray(q).reshape(1, pmap.n))[0])
                 for q in c.points}
        cids = {mg.class_of[b] for b in boxes}
        ok2 = (len(cids) == 1
               and mg.recurrent[next(iter(cids))]
               and next(iter(cids)) in mg.sink_classes())
        item2.append({"period": c.period, "pass": bool(ok2),
                      "classes": sorted(cids)})
        cid = next(iter(cids)) if len(cids) == 1 else None
        mask = basin_mask(pmap, c, centers, n_max=1000, tol=1e-3)
        cyc_boxes = set(mg.classes[cid]) if cid is not None else boxes
        bad = [int(b) for b in np.flatnonzero(mask)
               if b not in cyc_boxes and b in recurrent_boxes]
        item3.append({"period": c.period, "pass": not bad,
                      "violations": bad[:20], "violation_count": len(bad)})
    report["items"]["ii_cycle_is_sink_class"] = item2
    report["items"]["iii_basin_nonrecurrent"] = item3

    if petal_threshold is not None:
        origin = np.zeros(pmap.n, dtype=complex)
        ob = int(g.grid.box_of_points(origin.reshape(1, pmap.n))[0])
        cid = mg.class_of[ob]
        hit = False
        best = -np.inf
        if mg.recurrent[cid]:
            for b in mg.classes[cid]:
                if b == INFINITY:
                    continue
                c = centers[b]
                best = max(best, float(c.real.min()))
                if float(c.real.min()) > petal_threshold:
                    hit = True
        report["items"]["iv_petal_chain_recurrent"] = {
            "pass": hit, "origin_class": cid,
            "max_min_real_part": best,
        }
    report["pass"] = all(
        it["pass"] if isinstance(it, dict) else all(x["pass"] for x in it)
        for it in report["items"].values()
    )
    return report, g, mg, recs


# ---------------------------------------------------------------------------
# DOT output


def morse_to_dot(mg):
    """Condensation as DOT: nodes `id:size:L`, recurrent double-circled."""
    if mg.lyapunov is None:
        lyapunov(mg)
    buf = io.StringIO()
    buf.write("digraph morse {\n")
    for cid, boxes in enumerate(mg.classes):
        size = len(boxes)
        label = f"{cid}:{size}:{mg.lyapunov[cid]}"
        if INFINITY in boxes:
            label += ":inf"
        shape = "doublecircle" if mg.recurrent[cid] else "circle"
        buf.write(f'  c{cid} [label="{label}", shape={shape}];\n')
    for u, v in sorted(mg.dag_edges):
        buf.write(f"  c{u} -> c{v};\n")
    buf.write("}\n")
    return buf.getvalue()


def recurrent_mask(mg):
    """Boolean mask over boxes (1-D window slice ordering) of recurrence."""
    grid = mg.graph.grid
    mask = np.zeros(grid.count, dtype=bool)
    mask[list(mg.recurrent_boxes())] = True
    shape = (grid.per_axis,) * grid.dims
    return mask.reshape(shape)
