"""Seeded job lists for the endolab benchmark.

A job is one CLI invocation (map JSON + config JSON, as a user would run
it) or one library call shaped like an acceptance criterion.  Every slot
of a workload draws its parameters from a fixed pool of POOL entries; the
workload seed only chooses the entries.  That keeps the inputs varied
across seeds while bounding how much the cost of a pass can vary, and it
makes every job the benchmark can run enumerable, so the artifact digests
of the whole pool can be recorded once as a reference.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

POOL = 8

KINDS = ("periodic", "julia", "conley", "perturb", "hakim")

def _rng(*salt):
    """Generator for pool entry `salt`, independent of the workload seed."""
    digest = hashlib.sha256(repr(salt).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _disc(rng, radius):
    return radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


def _cardioid(rng, margin):
    """c in the main cardioid; its fixed point's |multiplier| <= margin."""
    mu = _disc(rng, margin)
    return mu / 2 - mu * mu / 4


def _bulb(rng, margin):
    """c in the period-2 disc: attracting 2-cycle, |multiplier| <= margin."""
    return -1 + _disc(rng, margin) / 4


def _outside(rng):
    """c well outside the Mandelbrot set: the critical orbit leaves |z| <= 2
    within 6 steps, so f is hyperbolic, the Julia set is a Cantor set and
    every cell of a res-1024 escape grid escapes within n_max = 200."""
    while True:
        c = complex(rng.uniform(0.4, 0.6), rng.uniform(-0.4, 0.4))
        z = 0j
        for _ in range(6):
            z = z * z + c
            if abs(z) > 2:
                return c


def _c(z):
    return [float(z.real), float(z.imag)]


def quadratic_1d(c):
    return {"n": 1, "components": [[
        {"exps": [0], "re": float(c.real), "im": float(c.imag)},
        {"exps": [2], "re": 1.0, "im": 0.0}]]}


def cubic_1d(c):
    return {"n": 1, "components": [[
        {"exps": [0], "re": float(c.real), "im": float(c.imag)},
        {"exps": [3], "re": 1.0, "im": 0.0}]]}


def triangular(cs, eps):
    """(z_1^2 + c_1 + eps z_2, ..., z_n^2 + c_n): a hyperbolic skew product
    when every c_i is hyperbolic and eps is small."""
    n = len(cs)
    comps = []
    for i, c in enumerate(cs):
        unit = [0] * n
        sq = [0] * n
        sq[i] = 2
        terms = [{"exps": sq, "re": 1.0, "im": 0.0},
                 {"exps": unit, "re": float(c.real), "im": float(c.imag)}]
        if i + 1 < n:
            nxt = [0] * n
            nxt[i + 1] = 1
            terms.append({"exps": nxt, "re": float(eps.real),
                          "im": float(eps.imag)})
        comps.append(terms)
    return {"n": n, "components": comps}


def random_quadratic(n, rng):
    """Seeded random quadratic without constant term, as in criterion 2."""
    comps = []
    for _ in range(n):
        terms = []
        for total in (1, 2):
            for exps in np.ndindex(*(total + 1,) * n):
                if sum(exps) != total:
                    continue
                c = rng.normal(scale=0.5) + 1j * rng.normal(scale=0.5)
                terms.append({"exps": [int(e) for e in exps],
                              "re": float(c.real), "im": float(c.imag)})
        comps.append(terms)
    return {"n": n, "components": comps}


def _square(n, half):
    return [[-half, half]] * (2 * n)


def _cli(kind, map_json, config, check):
    return {"kind": kind, "map": map_json, "config": config, "check": check}


# ---------------------------------------------------------------------------
# slots: name -> (pool entry index -> job)


def _cycles_slot(name, index):
    rng = _rng("cycles", name, index)
    seeds = 256
    family, m_max = name[:-1], int(name[-1])
    if family in ("card", "bulb", "out"):
        c = {"card": lambda: _cardioid(rng, 0.8),
             "bulb": lambda: _bulb(rng, 0.5),
             "out": lambda: _outside(rng)}[family]()
        return _cli("periodic", quadratic_1d(c),
                    {"m_max": m_max, "seeds": seeds, "seed": index},
                    {"oracle": "periodic", "exact_1d": True})
    if family == "cubic":
        return _cli("periodic", cubic_1d(_disc(rng, 0.3)),
                    {"m_max": m_max, "seeds": seeds, "seed": index},
                    {"oracle": "periodic", "exact_1d": True})
    n = {"quad2_": 2, "quad3_": 3}[family]
    cs = [_cardioid(rng, 0.6) for _ in range(n)]
    return _cli("periodic", triangular(cs, _disc(rng, 0.1)),
                {"m_max": m_max, "seeds": seeds, "seed": index},
                {"oracle": "periodic", "exact_1d": False})


def _grids_slot(name, index):
    rng = _rng("grids", name, index)
    win = _square(1, 1.75)
    julia = {"res": 1024, "n_max": 200, "m_max": 4, "seeds": 256,
             "seed": index, "window": win}
    if name == "j_card":
        return _cli("julia", quadratic_1d(_cardioid(rng, 0.5)), julia,
                    {"oracle": "julia", "interior": True})
    if name == "j_rabbit":
        c = complex(-0.1226, 0.7449) + _disc(rng, 0.03)
        return _cli("julia", quadratic_1d(c), julia,
                    {"oracle": "julia", "interior": True})
    if name == "j_empty":
        # dust maps, and the dendrite c = i as the last pool entry
        c = 1j if index == POOL - 1 else _outside(rng)
        return _cli("julia", quadratic_1d(c), julia,
                    {"oracle": "julia", "interior": False})
    if name == "j_slice":
        cs = [_cardioid(rng, 0.5) for _ in range(2)]
        w0 = (1 - np.sqrt(1 - 4 * cs[1])) / 2  # attracting fixed point
        cfg = dict(julia, res=256, m_max=3, window=_square(2, 1.75),
                   slice=_c(w0))
        return _cli("julia", triangular(cs, _disc(rng, 0.05)), cfg,
                    {"oracle": "julia", "interior": True, "slice": True})
    if name == "c_1d":
        return _cli("conley", quadratic_1d(_cardioid(rng, 0.6)),
                    {"depth": 7, "m_max": 2, "seed": index, "window": win},
                    {"oracle": "conley", "sink_item": True})
    cs = [_cardioid(rng, 0.5) for _ in range(2)]
    return _cli("conley", triangular(cs, _disc(rng, 0.05)),
                {"depth": 3, "m_max": 2, "seed": index,
                 "window": _square(2, 1.75)},
                # Hurley item (ii) never held at box width 0.44 for any 2-D
                # map tried: the padded images of the boxes around the
                # attracting cycle leave its class.  Reported, not asserted.
                {"oracle": "conley", "sink_item": False})


MAKE_PERIODIC_CLASSES = (
    (1, "super_attracting"), (1, "repelling"),
    (2, "super_attracting"), (2, "repelling"), (2, "saddle"),
    (3, "super_attracting"), (3, "saddle"),
)


def _make_periodic(n, kind, index, salt):
    rng = _rng(salt, n, kind, index)
    f = random_quadratic(n, rng)
    m = int(rng.integers(1, 4))
    q = rng.normal(scale=0.7, size=n) + 1j * rng.normal(scale=0.7, size=n)
    return _cli("perturb", f,
                {"operation": "make_periodic", "q": [_c(z) for z in q],
                 "m": m, "kind": kind, "K": _square(n, 2.0), "budget": 8},
                {"oracle": "make_periodic"})


def _surgery_slot(name, index):
    if name.startswith("mp_"):
        _, n, kind = name.split("_", 2)
        return _make_periodic(int(n), kind, index, "surgery")
    rng = _rng("surgery", name, index)
    if name == "escaping":
        q = complex(rng.uniform(1.2, 1.3), rng.uniform(0.02, 0.04))
        return _cli("perturb", quadratic_1d(0j),
                    {"operation": "escaping", "q": [_c(q)],
                     "radii": [2.0, 3.0, 4.0, 5.0], "eps": 1.0,
                     "budget": 30, "seed": index},
                    {"oracle": "escaping"})
    start = [_c(complex(rng.uniform(-0.5, -0.1), rng.uniform(-0.05, 0.05)))
             for _ in range(int(name[-1]))]
    return _cli("hakim", None,
                {"dim": len(start), "start": start, "steps": 10_000},
                {"oracle": "hakim"})


def _parabolic_slot(name, index):
    if name in ("p_quarter", "p_three_quarter"):
        c = 0.25 if name == "p_quarter" else -0.75
        return _cli("periodic", quadratic_1d(complex(c)),
                    {"m_max": 2, "seeds": 128, "seed": index},
                    {"oracle": "periodic", "exact_1d": False})
    if name == "hurley_petal":
        # criterion 5 at a smaller size; a library call, counted as conley
        return {"kind": "conley", "map": None,
                "library": "hurley_hakim",
                "config": {"dim": 1, "window": _square(1, 1.0), "depth": 6,
                           "m_max": 1, "seeds": 64, "seed": index,
                           "petal_threshold": 0.05},
                "check": {"oracle": "hurley_petal"}}
    if name == "hakim2":
        return _surgery_slot(name, index)
    return _make_periodic(3, "repelling", index, "parabolic")


# Workload -> slots.  Why each workload exists is in BENCHMARK.json; the
# parabolic one is not there, because its jobs fail at the seed commit and
# the benchmark's gated workloads must run without failures.
SLOTS = {
    # endolab periodic on hyperbolic maps: Newton and map jets on simple
    # roots, the m >= 9 overflow retries; no box maps, no surgery
    # (slot names end in m_max).  Each slot draws two entries: a job's
    # cost varies by up to 30% across its pool, and two draws halve the
    # variance that this adds to a pass.
    "cycles": ["card9", "card7", "bulb9", "bulb7", "out9", "out7", "cubic6",
               "quad2_4", "quad3_2"] * 2,
    # endolab julia and conley: escape grids and the per-box loop dominate
    "grids": ["j_card", "j_rabbit", "j_empty", "j_slice", "c_1d", "c_2d"],
    # endolab perturb and hakim: single-point map calls, small least
    # squares.  Slots repeat for the same reason as in cycles.
    "surgery": ([f"mp_{n}_{k}" for n, k in MAKE_PERIODIC_CLASSES] * 6
                + ["escaping", "hakim1"] * 4),
    # multiple roots, the mechanism of the over-count (criterion 5 smaller);
    # hakim2: the double multiplier 1 misses criterion 5's 1e-12 at seed;
    # mp_3_repelling: the triple multiplier 10 raises EigenvalueError
    "parabolic": ["p_quarter", "p_three_quarter", "hurley_petal",
                  "mp_3_repelling", "hakim2"],
}

# Pool entries of the gated workloads whose jobs fail at the seed commit
# (found by perfbench/record.py).  They are never drawn by their own
# workload; every parabolic run runs all of them, so the failures stay
# visible and are counted.
KNOWN_FAILURES = (
    ("surgery", "mp_1_repelling", 1),  # multiplier error 1.24e-7 > 1e-7
    ("surgery", "mp_3_saddle", 1),  # residual 2.8e-10, multiplier 1.8e-5 off
    # EigenvalueError: poly_roots cannot meet its 1e-14 step tolerance on
    # three distinct multipliers clustered near |lambda| ~ 5
    ("cycles", "quad3_2", 1), ("cycles", "quad3_2", 2),
    ("cycles", "quad3_2", 3), ("cycles", "quad3_2", 5),
    ("cycles", "quad3_2", 6),
)

_MAKERS = {"cycles": _cycles_slot, "grids": _grids_slot,
           "surgery": _surgery_slot, "parabolic": _parabolic_slot}


def job_key(job):
    """Stable identity of a job's inputs (map, config, call)."""
    blob = json.dumps({k: job.get(k) for k in ("kind", "map", "config",
                                                "library")},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def _entry(workload, slot, index):
    job = _MAKERS[workload](slot, index)
    job.update(workload=workload, slot=slot, pool_index=index)
    job["key"] = job_key(job)
    return job


def jobs_for(workload, seed):
    """The job list of one pass: each slot draws a pool entry from `seed`.

    A slot listed several times draws distinct entries.
    """
    rng = np.random.default_rng(seed)
    taken = {}
    jobs = []
    for slot in SLOTS[workload]:
        skip = taken.setdefault(slot, set()) | {
            i for w, s, i in KNOWN_FAILURES if (w, s) == (workload, slot)}
        free = [i for i in range(POOL) if i not in skip]
        index = free[int(rng.integers(len(free)))]
        taken[slot].add(index)
        jobs.append(_entry(workload, slot, index))
    if workload == "parabolic":
        jobs += [_entry(*known) for known in KNOWN_FAILURES]
    return jobs


def pool(workload):
    """Every job the workload can draw, for recording reference digests."""
    return [_entry(workload, slot, index)
            for slot in dict.fromkeys(SLOTS[workload])
            for index in range(POOL)]
