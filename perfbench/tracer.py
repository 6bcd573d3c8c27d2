"""Per-module spans around endolab's public functions, from outside.

install() replaces every public function of the traced modules with a
timing wrapper at each name its callers resolve: the defining module,
every endolab module that bound the name at import (julia.find_periodic,
perturb.classify, cli.escape_radius, the package namespace) and the
PolyMap methods on the class.  uninstall() restores the originals, so an
untraced pass runs the unmodified program.

Spans are aggregated per (name, parent) in memory; a span's self time is
its duration minus the time of the spans it called.  `wrapped` names every
function install() found, so a caller can tell a function that was not
called from one that no longer exists.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

MODULES = ("maps", "periodic", "orbits", "julia", "conley", "perturb",
           "reporting")
POLYMAP_METHODS = ("eval", "jet", "iterated_jet", "iterate")
KERNEL = ("maps.eval", "maps.jet")  # where MapOverflowError originates
WRITERS = ("write_json", "write_csv", "write_pgm", "write_dot")


def _points(p, n):
    """Number of points in a (..., n) batch (1 for a single point)."""
    size = getattr(p, "size", None)
    if size is None:
        return 1
    return max(1, size // n)


class Tracer:
    def __init__(self):
        self.agg = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counts = {}  # "module.function.stat" -> number
        self.wrapped = set()  # "module.function" names found by install()
        self._stack = []  # open frames: [name, child_s]
        self._patches = []  # (owner, attr, original)
        self._overflow = None

    # -- recording ---------------------------------------------------------

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _enter(self, name):
        frame = [name, 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        return frame, parent, perf_counter()

    def _exit(self, frame, parent, t0):
        dt = perf_counter() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dt
        rec = self.agg.get((frame[0], parent))
        if rec is None:
            rec = self.agg[(frame[0], parent)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[1]

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a whole job."""
        state = self._enter(name)
        try:
            yield
        finally:
            self._exit(*state)

    def _wrap(self, name, fn, hook, method=False):
        """Timing wrapper; a PolyMap `method` also counts its batch."""
        origin = name in KERNEL
        scalar = origin and "maps.scalar_calls"
        points = f"{name}.points"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if method:
                pts = _points(args[1] if len(args) > 1 else kwargs["p"],
                              args[0].n)
                self.add(points, pts)
                if scalar and pts == 1:
                    self.add(scalar, 1)
            state = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            except self._overflow:
                if origin:
                    self.add("maps.overflow", 1)
                raise
            finally:
                self._exit(*state)
            if hook is not None:
                # counting is tracing overhead: its own span, not the caller's
                state = self._enter("trace.hook")
                try:
                    hook(self, args, kwargs, out)
                finally:
                    self._exit(*state)
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        from endolab.maps import MapOverflowError, PolyMap

        self._overflow = MapOverflowError
        wrapped = {}  # original function -> wrapper
        for mod_name in MODULES:
            mod = importlib.import_module(f"endolab.{mod_name}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{mod_name}.{attr}"
                if mod_name == "reporting" and attr in WRITERS:
                    name = "reporting.write"
                wrapped[obj] = self._wrap(name, obj, HOOKS.get(name))
                self.wrapped.add(name)
        for meth in POLYMAP_METHODS:
            orig = PolyMap.__dict__.get(meth)
            if inspect.isfunction(orig):
                name = f"maps.{meth}"
                self._patch(PolyMap, meth,
                            self._wrap(name, orig, None, method=True))
                self.wrapped.add(name)
        mods = [m for k, m in list(sys.modules.items())
                if k == "endolab" or k.startswith("endolab.")]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def by_name(self):
        """name -> {"calls", "total_s", "self_s"} summed over parents."""
        out = {}
        for (name, _parent), (calls, total, own) in self.agg.items():
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            rec["calls"] += calls
            rec["total_s"] += total
            rec["self_s"] += own
        return out


# ---------------------------------------------------------------------------
# per-function counts, computed from arguments and results


def _bind(fn_name, args, kwargs):
    mod, attr = fn_name.split(".")
    fn = getattr(importlib.import_module(f"endolab.{mod}"), attr)
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _find_periodic(tr, args, kwargs, cycles):
    a = _bind("periodic.find_periodic", args, kwargs)
    tr.add("periodic.find_periodic.seeds", a["seeds"] * a["m_max"])
    tr.add("periodic.find_periodic.cycles", len(cycles))


def _basin_mask(tr, args, kwargs, mask):
    tr.add("orbits.basin_mask.points", len(mask))


def _escape_grid(tr, args, kwargs, grid):
    a = _bind("julia.escape_grid", args, kwargs)
    it = grid.escape_iter
    tr.add("julia.escape_grid.cells", int(it.size))
    tr.add("julia.escape_grid.cell_iters",
           int(it[it >= 0].sum()) + int((it < 0).sum()) * int(a["n_max"]))


def _hausdorff(tr, args, kwargs, _out):
    tr.add("julia.hausdorff.pairs", 2 * len(args[0]) * len(args[1]))


def _build_box_map(tr, args, kwargs, g):
    from endolab.conley import INFINITY

    tr.add("conley.build_box_map.boxes", g.grid.count)
    edges = inf_edges = 0
    for node, succ in g.succ.items():
        if node == INFINITY:
            continue
        edges += len(succ)
        inf_edges += INFINITY in succ
    tr.add("conley.build_box_map.edges", edges)
    tr.add("conley.build_box_map.inf_edges", inf_edges)


def _morse_graph(tr, args, kwargs, mg):
    tr.add("conley.morse_graph.classes", len(mg.classes))


def _write(tr, args, kwargs, _out):
    tr.add("reporting.write.bytes", os.path.getsize(args[0]))


HOOKS = {
    "periodic.find_periodic": _find_periodic,
    "orbits.basin_mask": _basin_mask,
    "julia.escape_grid": _escape_grid,
    "julia.hausdorff": _hausdorff,
    "conley.build_box_map": _build_box_map,
    "conley.morse_graph": _morse_graph,
    "reporting.write": _write,
}
