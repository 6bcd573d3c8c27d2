"""Closed-form checks of each job's artifacts.

Maps are re-evaluated here from their JSON terms with plain NumPy, not
with endolab.maps, so a defect in the map kernel cannot vouch for itself.
Each check returns (problems, stats): a list of failure strings (empty
when the job is correct) and the counts the benchmark aggregates.
"""

from __future__ import annotations

import csv
import json
import os
from collections import Counter

import numpy as np

# CSV artifacts print 12 significant digits; f^m amplifies that rounding by
# at most the cycle's multiplier, so a true periodic point re-verifies to
# PERIOD_TOL * max(1, |multiplier|).  A wrong point misses by O(0.1).
PERIOD_TOL = 1e-7
# criterion 2: multiplier error relative to |expected|, absolute below 1
# (its relative test has no scale at a super-attracting multiplier 0)
MULTIPLIER_RTOL = 1e-7
RESIDUAL_TOL = 1e-10  # criterion 2: constraint residual of the correction
DECAY_DEV = 0.1  # criterion 5: max relative deviation of k * |f^k(start)|
UNIT_TOL = 1e-12  # criterion 5: the parabolic multiplier is 1
BOUNDARY_CELLS = 3  # repellers lie within 3 cellwidths of the boundary


class Poly:
    """Polynomial self-map of C^n evaluated from its JSON term lists."""

    def __init__(self, spec):
        self.n = int(spec["n"])
        self.comps = [
            [(np.array(t["exps"], dtype=int), complex(t["re"], t["im"]))
             for t in comp]
            for comp in spec["components"]
        ]
        self.degree = max(int(e.sum()) for comp in self.comps
                          for e, _ in comp)

    def __call__(self, p):
        p = np.asarray(p, dtype=complex)
        out = np.zeros_like(p)
        for i, comp in enumerate(self.comps):
            acc = np.zeros(p.shape[:-1], dtype=complex)
            for e, c in comp:
                acc = acc + c * np.prod(p ** e, axis=-1)
            out[..., i] = acc
        return out

    def iterate(self, p, m):
        for _ in range(m):
            p = self(p)
        return p


def _mobius(k):
    mu, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if k > 1 else mu


def cycle_bound(d, n, m):
    """Most cycles of exact period m a degree-d map of C^n can have.

    1-D: the necklace count (1/m) sum_{k|m} mu(m/k) d^k, exact for maps
    whose cycles are all simple.  n-D: Bezout, the m points of each cycle
    are distinct isolated fixed points of f^m, at most d^(nm) of them.
    """
    if n == 1:
        return sum(_mobius(m // k) * d ** k
                   for k in range(1, m + 1) if m % k == 0) // m
    return d ** (n * m) // m


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


def _points(rows, n, col="{}_{}"):
    """Complex points from the re/im columns of CSV rows, shape (N, n)."""
    return np.array([[complex(float(r[col.format("re", i + 1)]),
                              float(r[col.format("im", i + 1)]))
                      for i in range(n)] for r in rows],
                    dtype=complex).reshape(-1, n)


def _load(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _cplx(v):
    return complex(v["re"], v["im"]) if isinstance(v, dict) else complex(v)


# ---------------------------------------------------------------------------


def check_periodic(job, out):
    f = Poly(job["map"])
    cfg = job["config"]
    rows = read_rows(os.path.join(out, "cycles.csv"))
    summary = _load(out, "summary.json")
    problems = []
    if summary["cycle_count"] != len(rows):
        problems.append("summary cycle_count disagrees with cycles.csv")
    counts = Counter(int(r["period"]) for r in rows)
    bounds = {m: cycle_bound(f.degree, f.n, m)
              for m in range(1, cfg["m_max"] + 1)}
    overcount = sum(max(0, k - bounds.get(m, 0)) for m, k in counts.items())
    if overcount:
        problems.append(f"{overcount} cycles above the degree bound "
                        f"(found {dict(sorted(counts.items()))})")
    pts = _points(rows, f.n, col="{}(p_{})")
    bad = 0
    for r, p in zip(rows, pts):
        m = int(r["period"])
        lam = max(float(r[f"|lambda_{i+1}|"]) for i in range(f.n))
        if np.abs(f.iterate(p, m) - p).max() > PERIOD_TOL * max(1.0, lam):
            bad += 1
    if bad:
        problems.append(f"{bad} base points are not periodic at "
                        f"{PERIOD_TOL:g} x multiplier")
    stats = {"overcount": overcount, "cycles": len(rows)}
    if job["check"].get("exact_1d"):
        stats["recall_found"] = len(rows)
        stats["recall_oracle"] = sum(bounds.values())
    return problems, stats


def _directed(a, b, chunk=512):
    worst = 0.0
    for s in range(0, len(a), chunk):
        d = np.abs(a[s:s + chunk, None, :] - b[None, :, :]).max(axis=-1)
        worst = max(worst, float(d.min(axis=1).max()))
    return worst


def check_julia(job, out):
    f = Poly(job["map"])
    want = job["check"]
    grid = _load(out, "grid.json")
    rep = _points(read_rows(os.path.join(out, "repellers.csv")), f.n)
    bnd = _points(read_rows(os.path.join(out, "boundary.csv")), f.n)
    problems = []
    if len(rep) == 0:
        problems.append("empty repeller cloud")
    m_max = job["config"]["m_max"]
    miss = np.full(len(rep), np.inf)
    x = rep.copy()
    for _ in range(m_max):
        x = f(x)
        miss = np.minimum(miss, np.abs(x - rep).max(axis=-1))
    if np.any(miss > PERIOD_TOL):
        problems.append(f"{int(np.sum(miss > PERIOD_TOL))} repellers are "
                        f"not periodic with period <= {m_max}")
    if want["interior"] == grid["boundary_empty_warning"]:
        problems.append("boundary_empty_warning is "
                        f"{grid['boundary_empty_warning']} for a map "
                        + ("with" if want["interior"] else "without")
                        + " bounded Fatou components")
    if want["interior"] and not want.get("slice") and len(rep) and len(bnd):
        d = _directed(rep, bnd)
        if d > BOUNDARY_CELLS * grid["cellwidth"]:
            problems.append(f"repeller {d:.4g} from the boundary > "
                            f"{BOUNDARY_CELLS} cellwidths")
    return problems, {"repellers": len(rep), "boundary": len(bnd)}


def parse_dot(path):
    labels, edges = {}, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if "->" in line:
                u, v = line.rstrip(";").split(" -> ")
                edges.append((int(u[1:]), int(v[1:])))
            elif line.startswith("c") and "label=" in line:
                label = line.split('label="', 1)[1].split('"', 1)[0]
                cid, _size, lyap = label.split(":")[:3]
                labels[int(cid)] = int(lyap)
    return labels, edges


def _hurley_problems(report, sink_item):
    problems = []
    if not report["items"]["i_nonrecurrent_in_basins"]["pass"]:
        problems.append("Hurley item (i): non-recurrent boxes outside basins")
    item2 = report["items"]["ii_cycle_is_sink_class"]
    unmet = sum(not x["pass"] for x in item2)
    if sink_item and unmet:
        problems.append(f"Hurley item (ii): {unmet} attracting cycles "
                        "not in a recurrent sink class")
    return problems, unmet


def check_conley(job, out):
    labels, edges = parse_dot(os.path.join(out, "morse.dot"))
    report = _load(out, "hurley.json")
    problems, unmet = _hurley_problems(report, job["check"]["sink_item"])
    rising = sum(labels[u] <= labels[v] for u, v in edges)
    if rising:
        problems.append(f"Lyapunov labels fail to decrease on {rising} "
                        "DAG edges")
    if report["classes"] != len(labels):
        problems.append("hurley.json class count disagrees with morse.dot")
    return problems, {"sink_unmet": unmet}


def check_hurley_petal(job, out):
    report = _load(out, "report.json")
    problems, unmet = _hurley_problems(report, sink_item=False)
    if not report["items"]["iv_petal_chain_recurrent"]["pass"]:
        problems.append("petal box does not reach past the threshold")
    # z + z^2 has one (double) fixed point: at most 2 cycles of period 1
    found = len(report["items"]["ii_cycle_is_sink_class"])
    bound = cycle_bound(2, job["config"]["dim"], 1)
    overcount = max(0, found - bound)
    if overcount:
        problems.append(f"{found} attracting fixed points reported, degree "
                        f"bound {bound}")
    return problems, {"overcount": overcount, "sink_unmet": unmet}


def _sorted_c(vals):
    return np.array(sorted((_cplx(v) for v in vals),
                           key=lambda z: (round(z.real, 9), round(z.imag, 9))))


def check_make_periodic(job, out):
    cfg = job["config"]
    ver = _load(out, "verification.json")
    h = Poly(_load(out, "produced_map.json"))
    problems = []
    if ver["kind"] != cfg["kind"] or ver["period"] != cfg["m"] + 1:
        problems.append(f"made a {ver['kind']} cycle of period "
                        f"{ver['period']}, asked {cfg['kind']} "
                        f"period {cfg['m'] + 1}")
    got, exp = _sorted_c(ver["multipliers"]), _sorted_c(
        ver["expected_multipliers"])
    err = float((np.abs(got - exp) / np.maximum(np.abs(exp), 1.0)).max())
    if err > MULTIPLIER_RTOL:
        problems.append(f"multiplier error {err:.2e} > {MULTIPLIER_RTOL:g}")
    if ver["constraint_residual"] > RESIDUAL_TOL:
        problems.append(f"constraint residual {ver['constraint_residual']:.2e}"
                        f" > {RESIDUAL_TOL:g}")
    q = np.array([complex(re, im) for re, im in cfg["q"]])
    lam = float(np.abs(got).max())
    if (np.abs(h.iterate(q, cfg["m"] + 1) - q).max()
            > PERIOD_TOL * max(1.0, lam)):
        problems.append("q is not periodic under the produced map")
    return problems, {}


def check_escaping(job, out):
    cfg = job["config"]
    ver = _load(out, "verification.json")
    h = Poly(_load(out, "produced_map.json"))
    problems = []
    caps = [cfg["eps"] / 2 ** (s + 1) for s in range(len(ver["stage_norms"]))]
    over = [s for s, (v, c) in enumerate(zip(ver["stage_norms"], caps))
            if v > c]
    if over:
        problems.append(f"stage norms above eps/2^(s+1) at stages {over}")
    q = np.array([complex(re, im) for re, im in cfg["q"]])
    steps = ver["m"] + len(cfg["radii"]) - 1
    final = np.abs(h.iterate(q, steps)).max()
    last = cfg["radii"][-1]
    if not ver["exits_last_window"] or not final > last:
        problems.append(f"orbit ends at sup-norm {final:.3g}, inside the "
                        f"last window {last:g}")
    return problems, {}


def check_hakim(job, out):
    cfg = job["config"]
    rows = read_rows(os.path.join(out, "decay.csv"))
    report = _load(out, "report.json")
    kx = np.array([float(r["k_times_norm"]) for r in rows
                   if int(r["k"]) >= cfg["steps"] // 10])
    c = float(np.median(kx))
    dev = float(np.abs(kx - c).max() / c)
    problems = []
    if dev > DECAY_DEV:
        problems.append(f"1/k decay deviation {dev:.3f} > {DECAY_DEV}")
    mults = [_cplx(v) for v in report["multipliers"]]
    if any(abs(v - 1.0) > UNIT_TOL for v in mults):
        problems.append(f"parabolic multipliers {mults} != 1")
    return problems, {}


CHECKS = {
    "periodic": check_periodic,
    "julia": check_julia,
    "conley": check_conley,
    "hurley_petal": check_hurley_petal,
    "make_periodic": check_make_periodic,
    "escaping": check_escaping,
    "hakim": check_hakim,
}


def check(job, out):
    return CHECKS[job["check"]["oracle"]](job, out)
