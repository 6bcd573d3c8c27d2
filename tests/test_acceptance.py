"""Acceptance criteria, one test and one printed pass/fail line each.

Each criterion is asserted against closed-form or independently computed
oracles.  Two of the paper's statements hold only in a limit, so their
clauses are asserted at the finite scale the method reaches:

* criterion 1, basilica clause: J is the closure of the repelling
  periodic points, but the points of period <= m follow the harmonic
  measure (Lyubich 1983), which is thin where two bounded Fatou
  components touch, near (sqrt(5) - 1)/2.  The complete set P_9 of
  repelling points of period <= 9 (974 points, computed here without
  endolab.periodic and certified complete by count) leaves boundary
  cells 0.1356 away at res 1024; that gap is 0.2049, 0.1921, 0.1356,
  0.1204 for m <= 7, 8, 9, 10, so 3 cellwidths (0.0103) would need
  period >= 22.  The clause asserts that every repeller lies within 3
  cellwidths of the boundary, and that the repeller cloud covers the
  boundary within 3 cellwidths of what P_9 itself covers.

* criterion 4, basin clause: the basin of {0, -1} minus the cycle holds
  no chain recurrence, but a box map only converges to the
  chain-recurrent set as depth grows (Kalies, Mischaikow & VanderVorst
  2005).  At depth 6, 440 recurrent boxes have centers in the basin;
  all of them lie in the class of the repelling fixed point alpha, the
  Julia class, which reaches past J into the basin by box-scale
  coarsening.  The clause asserts that no violating box lies outside
  the Julia class (the basin has no chain class of its own) and that
  the collar's width, the farthest violating center from the escape
  boundary, at least halves from depth 6 (0.368) to depth 8 (0.074).
"""

import filecmp
import json

import numpy as np

from endolab.cli import main as cli_main
from endolab.conley import build_box_map, hurley_report, morse_graph
from endolab.julia import (
    boundary_extract,
    directed_distance,
    escape_grid,
    hausdorff,
    repeller_cloud,
)
from endolab.maps import PolyMap, Window
from endolab.periodic import eigenvalues, find_periodic
from endolab.perturb import (
    InfeasibleError,
    close_orbit,
    escaping_construction,
    hakim_experiment,
    make_periodic_point,
    monomials,
)
from conftest import record_criterion
from test_conley import basilica_basin_violations, brute_scc, julia_class
from test_maps import fd_jacobian
from test_periodic import cycles_of_period, divisors, mobius

Z2 = PolyMap.from_coeffs_1d([0, 0, 1])
BASILICA = PolyMap.from_coeffs_1d([-1, 0, 1])
HALF = PolyMap.from_coeffs_1d([0, 0.5])
W175 = Window.square(1, -1.75, 1.75)
W2 = Window.square(1, -2, 2)


def random_quadratic(n, rng):
    comps = []
    for _ in range(n):
        terms = []
        for e in monomials(n, 2):
            if sum(e) == 0:
                continue
            terms.append((tuple(e),
                          rng.normal(scale=0.5) + 1j * rng.normal(scale=0.5)))
        comps.append(tuple(terms))
    return PolyMap.from_terms(n, comps)


def iterate_basilica(z, m):
    """f^m(z) and (f^m)'(z) for f(z) = z^2 - 1."""
    dz = np.ones_like(z)
    for _ in range(m):
        dz = 2 * z * dz
        z = z * z - 1
    return z, dz


def basilica_repellers(m_max):
    """Every repelling periodic point of z^2 - 1 of period <= m_max.

    Plain NumPy, independent of endolab.periodic.  For each m, Aberth
    iteration on f^m(z) - z, started from the 2^m m-th preimages of the
    fixed point beta, must end at 2^m distinct points, each with a checked
    residual and a negligible Newton step: a polynomial of degree 2^m has
    no other roots, so the set is complete.  Each point is kept at its
    exact period (whose count must match the Moebius sum), and the
    superattracting cycle {0, -1} is dropped.
    """
    out = []
    for m in range(1, m_max + 1):
        # beta nudged off the real axis: from beta itself Aberth stalls
        # at m = 2
        z = np.array([(1 + 5 ** 0.5) / 2 + 0.01j])
        for _ in range(m):
            r = np.sqrt(z + 1)
            z = np.concatenate([r, -r])
        for _ in range(100):
            fz, dfz = iterate_basilica(z, m)
            newton = (fz - z) / (dfz - 1)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            step = newton / (1 - newton * (1 / diff).sum(axis=1))
            z = z - step
            if np.abs(step).max() < 1e-14:
                break
        fz, dfz = iterate_basilica(z, m)
        sep = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(sep, np.inf)
        assert len(z) == 2 ** m and sep.min() > 1e-6, m
        assert np.abs(fz - z).max() < 1e-9, m
        assert np.abs((fz - z) / (dfz - 1)).max() < 1e-12, m
        exact = np.ones(len(z), dtype=bool)
        for k in divisors(m)[:-1]:
            exact &= np.abs(iterate_basilica(z, k)[0] - z) > 1e-8
        assert exact.sum() == sum(mobius(m // d) * 2 ** d
                                  for d in divisors(m)), m
        out.append(z[exact & (np.abs(dfz) > 1)])
    return np.concatenate(out)


def test_criterion_1_julia_characterizations_agree():
    # z^2: repellers (m_max=7) vs escape boundary (res 1024), H <= 0.05
    g = escape_grid(Z2, W175, 1024, 200, 2.0)
    b = boundary_extract(g)
    cloud = repeller_cloud(Z2, 7, W2, seeds=8192, seed=0)
    h_z2 = hausdorff(cloud, b)
    ok_z2 = h_z2 <= 0.05

    # z^2 - 1: repellers (m_max=9) vs escape boundary (res 1024), measured
    # against the complete period <= 9 set P_9 (see module docstring)
    gb = escape_grid(BASILICA, W175, 1024, 200, 3.0)
    bb = boundary_extract(gb)
    cloudb = repeller_cloud(BASILICA, 9, W2, seeds=8192, seed=0)
    p9 = basilica_repellers(9)
    tol_bas = 3 * gb.cellwidth
    d_on = directed_distance(cloudb, bb)
    ok_on = d_on <= tol_bas
    d_cover = directed_distance(bb, cloudb)
    d_cover_p9 = directed_distance(bb, p9[:, None])
    ok_cover = d_cover <= d_cover_p9 + tol_bas
    # points of different periods come within 4e-7 of each other; the
    # cloud's points match P_9 to 4e-11
    found = int((np.abs(p9[:, None] - cloudb[None, :, 0]).min(axis=1)
                 < 1e-9).sum())

    record_criterion(
        1, ok_z2 and ok_on and ok_cover,
        f"z^2 Hausdorff {h_z2:.4f} <= 0.05: {ok_z2}; basilica "
        f"cloud->boundary {d_on:.4f} <= {tol_bas:.4f}: {ok_on}; "
        f"boundary->cloud {d_cover:.4f} <= boundary->P_9 {d_cover_p9:.4f} "
        f"+ {tol_bas:.4f}: {ok_cover}; cloud holds {found}/{len(p9)} "
        f"points of P_9 (not asserted)")
    assert ok_z2, f"z^2 Hausdorff {h_z2}"
    assert ok_on, (
        f"a basilica repeller lies {d_on:.4f} > {tol_bas:.4f} from the "
        "escape boundary")
    assert ok_cover, (
        f"the basilica repeller cloud leaves a boundary cell {d_cover:.4f} "
        f"away, more than 3 cellwidths past the complete period <= 9 set "
        f"({d_cover_p9:.4f})")


def test_criterion_2_multiplier_law():
    rng = np.random.default_rng(7)
    worst = 0.0
    feasible = 0
    for _ in range(50):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        f = random_quadratic(n, rng)
        q = rng.normal(scale=0.7, size=n) + 1j * rng.normal(scale=0.7, size=n)
        J = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        K = Window.square(n, -2, 2)
        try:
            res = close_orbit(f, q, m, J, K, budget=8)
        except (InfeasibleError, ValueError):
            continue
        feasible += 1
        key = lambda z: (round(z.real, 9), round(z.imag, 9))
        got = np.array(sorted(res["cycle"].multipliers, key=key))
        exp = np.array(sorted(res["expected_multipliers"], key=key))
        worst = max(worst, float(
            (np.abs(got - exp) / np.maximum(np.abs(exp), 1e-12)).max()))
    ok_mult = worst <= 1e-7 and feasible >= 40

    rng = np.random.default_rng(11)
    kind_fails = 0
    kind_feasible = 0
    for _ in range(30):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        kind = str(rng.choice(["super_attracting", "repelling"] if n == 1
                              else ["super_attracting", "repelling",
                                    "saddle"]))
        f = random_quadratic(n, rng)
        q = rng.normal(scale=0.7, size=n) + 1j * rng.normal(scale=0.7, size=n)
        K = Window.square(n, -2, 2)
        try:
            res = make_periodic_point(f, q, m, kind, K, 8)
        except (InfeasibleError, ValueError):
            continue
        kind_feasible += 1
        if res["cycle"].klass != kind or res["cycle"].period != m + 1:
            kind_fails += 1
    ok_kind = kind_fails == 0 and kind_feasible >= 20

    record_criterion(
        2, ok_mult and ok_kind,
        f"{feasible}/50 feasible, worst multiplier error {worst:.2e} <= "
        f"1e-7: {ok_mult}; kinds achieved {kind_feasible - kind_fails}/"
        f"{kind_feasible}: {ok_kind}")
    assert ok_mult and ok_kind


def test_criterion_3_hurley_decomposition():
    oks = []
    for f, win, depth in ((BASILICA, W175, 6),
                          (HALF, Window.square(1, -1, 1), 4)):
        report, g, mg, _ = hurley_report(f, win, depth, m_max=2,
                                         seeds=512, seed=0)
        cover = report["items"]["i_nonrecurrent_in_basins"]["pass"]
        strict = all(mg.lyapunov[u] > mg.lyapunov[v]
                     for u, v in mg.dag_edges)
        oks.append(cover and strict)
    # brute-force SCC oracle vs the csgraph classes of morse_graph, d <= 3
    scc_ok = True
    for f, win in ((BASILICA, W175), (HALF, Window.square(1, -1, 1))):
        for depth in (1, 2, 3):
            g = build_box_map(f, win, depth)
            scc_ok &= ({frozenset(c) for c in morse_graph(g).classes}
                       == brute_scc(g.succ))
    ok = all(oks) and scc_ok
    record_criterion(
        3, ok,
        f"basin cover + strict Lyapunov (basilica d6, z/2 d4): {oks}; "
        f"csgraph SCCs match brute SCC at depth <= 3: {scc_ok}")
    assert ok


def test_criterion_4_attracting_cycle_chain_class():
    bb = boundary_extract(escape_grid(BASILICA, W175, 1024, 200, 3.0))
    counts, widths = {}, {}
    for depth in (6, 8):
        report, g, mg, _ = hurley_report(BASILICA, W175, depth, m_max=2,
                                         seeds=512, seed=0)
        viols = basilica_basin_violations(g, mg)
        counts[depth] = sum(x["violation_count"]
                            for x in report["items"]["iii_basin_nonrecurrent"]
                            if x["period"] == 2)
        assert counts[depth] == len(viols)
        centers = g.grid.centers()[viols]
        widths[depth] = directed_distance(centers, bb) if viols else 0.0
        if depth == 6:
            two = [x for x in report["items"]["ii_cycle_is_sink_class"]
                   if x["period"] == 2]
            ok_sink = bool(two) and all(x["pass"] for x in two)
            jc = julia_class(g, mg)
            stray = sum(mg.class_of[b] != jc for b in viols)
            ok_julia = stray == 0
    ok_shrink = widths[8] <= 0.5 * widths[6]
    record_criterion(
        4, ok_sink and ok_julia and ok_shrink,
        f"{{0,-1}} recurrent sink class: {ok_sink}; basin-box violations "
        f"{counts[6]} (d6), {counts[8]} (d8), outside the Julia class at "
        f"d6 {stray} == 0: {ok_julia}; collar width {widths[8]:.3f} (d8) "
        f"<= half of {widths[6]:.3f} (d6): {ok_shrink}")
    assert ok_sink
    assert ok_julia, (
        f"{stray} recurrent basin boxes at depth 6 lie outside the class "
        "of alpha: the basin of {0,-1} holds a chain class of its own")
    assert ok_shrink, (
        "the recurrent collar in the basin does not shrink with depth: "
        f"{widths[6]:.3f} at depth 6, {widths[8]:.3f} at depth 8")


def test_criterion_5_parabolic_behaviour():
    out = hakim_experiment(1, np.array([-0.2 + 0j]), steps=10_000)
    kx = out["k_times_norm"]
    seg = kx[999:10_000]
    c = float(np.median(seg))
    dev = float(np.abs(seg - c).max() / c)
    ok_decay = dev <= 0.1
    mult = out["multipliers"][0]
    ok_mult = abs(mult - 1.0) <= 1e-12

    report, g, mg, _ = hurley_report(
        out["map"], Window.square(1, -1, 1), 7, m_max=1, seeds=256,
        seed=0, petal_threshold=0.05)
    petal = report["items"]["iv_petal_chain_recurrent"]
    ok_petal = petal["pass"]
    ok = ok_decay and ok_mult and ok_petal
    record_criterion(
        5, ok,
        f"1/k decay deviation {dev:.3f} <= 0.1: {ok_decay}; multiplier "
        f"{mult} == 1: {ok_mult}; petal box real part "
        f"{petal['max_min_real_part']:.3f} > 0.05: {ok_petal}")
    assert ok


def test_criterion_6_periodic_oracle():
    cycles = find_periodic(Z2, 6, W2, seeds=4096, seed=0)
    loc_err = max(min(abs(abs(p[0]) - 1.0), abs(p[0]))
                  for c in cycles for p in c.points)
    ok_loc = loc_err <= 1e-8
    mult_err = max((abs(abs(c.multipliers[0]) - 2.0 ** c.period)
                    for c in cycles if c.klass == "repelling"), default=0.0)
    ok_mult = mult_err <= 1e-6
    by_m = {}
    for c in cycles:
        by_m[c.period] = by_m.get(c.period, 0) + 1
    ok_count = all(by_m.get(m, 0) == cycles_of_period(m)
                   for m in range(1, 7))
    ok = ok_loc and ok_mult and ok_count
    record_criterion(
        6, ok,
        f"locations on |z|=1 or 0 (err {loc_err:.1e}): {ok_loc}; "
        f"|multiplier| = 2^m (err {mult_err:.1e}): {ok_mult}; "
        f"cycle counts match divisor oracle: {ok_count}")
    assert ok


def test_criterion_7_escaping_construction():
    windows = tuple(Window.square(1, -r, r) for r in (2, 3, 4, 5))
    eps = 1.0  # declared deviation budget on the innermost window
    out = escaping_construction(Z2, np.array([1.1 + 0j]), windows, eps,
                                budget=30, seed=0)
    caps_ok = all(nm <= eps / 2 ** (s + 1)
                  for s, nm in enumerate(out["stage_norms"]))
    exits = not bool(windows[-1].contains(out["witness"][-1]))
    ok = caps_ok and exits
    norms = ", ".join(f"{v:.3g}" for v in out["stage_norms"])
    record_criterion(
        7, ok,
        f"stage norms [{norms}] under eps/2^(s+1) caps: {caps_ok}; "
        f"direct iteration exits K3: {exits}")
    assert ok


def test_criterion_8_numerical_backbone(tmp_path):
    # AD vs finite differences, 100 random cases at 1e-6
    rng = np.random.default_rng(77)
    worst_fd = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        f = random_quadratic(n, rng)
        p = rng.normal(scale=0.8, size=n) + 1j * rng.normal(scale=0.8,
                                                            size=n)
        J = fd_jacobian(f, p)
        worst_fd = max(worst_fd, float(
            np.abs(f.jet(p).jacobian - J).max()
            / max(1.0, float(np.abs(J).max()))))
    ok_fd = worst_fd <= 1e-6

    # eigenvalue trace/det consistency at 1e-8
    worst_ed = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ev = np.array(eigenvalues(M))
        worst_ed = max(
            worst_ed,
            abs(ev.sum() - np.trace(M)) / max(1.0, abs(np.trace(M))),
            abs(np.prod(ev) - np.linalg.det(M))
            / max(1.0, abs(np.linalg.det(M))))
    ok_ed = worst_ed <= 1e-8

    # chain-rule factorization at 1e-10
    worst_cr = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        f = random_quadratic(n, rng)
        p = rng.normal(scale=0.5, size=n) + 1j * rng.normal(scale=0.5,
                                                            size=n)
        jt = f.iterated_jet(p, 4)
        x, prod = p, np.eye(n, dtype=complex)
        for _ in range(4):
            step = f.jet(x)
            prod = step.jacobian @ prod
            x = step.value
        worst_cr = max(worst_cr, float(
            np.abs(jt.jacobian - prod).max()
            / max(1.0, float(np.abs(prod).max()))))
    ok_cr = worst_cr <= 1e-10

    # bitwise reproducibility of all CLI subcommand outputs
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps(Z2.to_json_dict()))
    runs = {
        "periodic": ["periodic", "--map", str(mapfile),
                     "--set", "m_max", "3", "--set", "seeds", "512"],
        "julia": ["julia", "--map", str(mapfile), "--set", "res", "64",
                  "--set", "m_max", "3", "--set", "seeds", "256"],
        "conley": ["conley", "--map", str(mapfile),
                   "--set", "depth", "4", "--set", "m_max", "2"],
        "perturb": ["perturb", "--map", str(mapfile),
                    "--set", "operation", "escaping",
                    "--set", "q", "[[1.1, 0.0]]"],
        "hakim": ["hakim", "--set", "steps", "2000",
                  "--set", "start", "[[-0.5, 0.0]]"],
    }
    ok_cli = True
    for name, argv in runs.items():
        dirs = []
        for tag in ("a", "b"):
            d = tmp_path / f"{name}_{tag}"
            assert cli_main(argv + ["--out", str(d)]) == 0
            dirs.append(str(d))
        cmp = filecmp.dircmp(*dirs)
        _, mismatch, errors = filecmp.cmpfiles(
            dirs[0], dirs[1], cmp.common_files, shallow=False)
        ok_cli &= not (cmp.left_only or cmp.right_only or mismatch or errors)

    ok = ok_fd and ok_ed and ok_cr and ok_cli
    record_criterion(
        8, ok,
        f"AD vs FD {worst_fd:.1e} <= 1e-6: {ok_fd}; trace/det "
        f"{worst_ed:.1e} <= 1e-8: {ok_ed}; chain rule {worst_cr:.1e} <= "
        f"1e-10: {ok_cr}; CLI outputs bitwise reproducible: {ok_cli}")
    assert ok
