"""Minimal-norm polynomial corrections with prescribed values and 1-jets,
and the constructions built on them: orbit closing with a prescribed
Jacobian, manufacturing super-attracting/repelling/saddle cycles, staged
escaping-orbit building, and the parabolic (z + z^2, ...) experiment.

"Small on K" is realized as minimal Euclidean norm of the correction's
coefficient vector; the sampled sup-norm on K is reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np
import scipy.linalg

from .maps import PolyMap, map_kernel
from .orbits import orbit, shell_points
from .periodic import classify, eigenvalues

RESIDUAL_TOL = 1e-10
SUP_NORM_SAMPLES = 10_000


class InfeasibleError(RuntimeError):
    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class JetConstraint:
    at: np.ndarray  # (n,) complex
    value: np.ndarray  # (n,) complex, target of (f + delta)
    jacobian: Optional[np.ndarray] = None  # (n, n) complex target, optional

    @staticmethod
    def make(at, value, jacobian=None):
        at = np.asarray(at, dtype=complex).reshape(-1)
        value = np.asarray(value, dtype=complex).reshape(-1)
        jac = None if jacobian is None else np.asarray(jacobian, dtype=complex)
        return JetConstraint(at=at, value=value, jacobian=jac)


@dataclass(frozen=True)
class Correction:
    base: PolyMap
    delta: PolyMap
    corrected: PolyMap
    sup_norm_on_K: float
    constraint_residual: float
    coeff_norm: float
    condition_number: float


def monomials(n, degree_budget):
    """Multi-indices of total degree <= budget, graded lexicographic."""
    out = []
    for total in range(degree_budget + 1):
        for exps in product(range(total + 1), repeat=n):
            if sum(exps) == total:
                out.append(exps)
    return out


def _constraint_rows(points_with_jets, basis, n):
    """Rows of the (shared-per-component) linear system.

    For each constraint point: one value row (the monomial values) and,
    when a Jacobian is prescribed, n derivative rows (d/dz_j of each
    monomial).  Returns (A, row layout descriptors).
    """
    rows = []
    for at, want_jac in points_with_jets:
        vals = np.array([_mono(at, e) for e in basis])
        rows.append(vals)
        if want_jac:
            for j in range(n):
                rows.append(np.array([_dmono(at, e, j) for e in basis]))
    return np.array(rows)


def _mono(p, exps):
    v = 1.0 + 0.0j
    for z, e in zip(p, exps):
        v *= z ** e
    return v


def _dmono(p, exps, j):
    if exps[j] == 0:
        return 0.0 + 0.0j
    v = complex(exps[j])
    for k, (z, e) in enumerate(zip(p, exps)):
        v *= z ** (e - 1 if k == j else e)
    return v


def _add_terms(pmap, basis, coeffs):
    """f plus the correction with the given per-component coefficients."""
    comps = []
    for i, comp in enumerate(pmap.components):
        d = {e: c for e, c in comp}
        for e, c in zip(basis, coeffs[:, i]):
            if c != 0:
                d[e] = d.get(e, 0.0) + complex(c)
        comps.append(tuple(sorted(d.items())))
    return PolyMap(n=pmap.n, components=tuple(comps))


def _delta_map(n, basis, coeffs):
    comps = []
    for i in range(n):
        comps.append(tuple(
            (e, complex(c)) for e, c in zip(basis, coeffs[:, i]) if c != 0
        ))
    return PolyMap(n=n, components=tuple(comps), allow_constant=True)


def _boundary_grid(K, per_axis):
    """Full grid over K including the boundary (where an analytic
    function's modulus peaks)."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in K.bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    reals = np.stack([m.ravel() for m in mesh], axis=-1)
    return reals[..., 0::2] + 1j * reals[..., 1::2]


def sampled_sup_norm(delta, K, samples=SUP_NORM_SAMPLES, seed=0):
    """Sup of the correction's sup-norm over quasi-random points of K."""
    pts = np.concatenate([K.sample(samples, seed=seed),
                          _boundary_grid(K, 9 if K.n == 1 else 5)])
    vals = delta.eval(pts)
    return float(np.abs(vals).max())


def interpolate_correction(f, constraints, degree_budget, K,
                           seed=0, minimize="coeff", suppress_points=()):
    """Least-norm coefficient correction meeting value/1-jet constraints.

    The linear system decouples per component (each component of the
    correction uses the same monomial basis), and is solved by
    column-pivoted QR (complete orthogonal factorization), which yields
    the minimum-norm solution of an underdetermined consistent system.

    minimize="coeff" returns that minimum-coefficient-norm solution;
    minimize="sup" then moves along the kernel of the constraint matrix
    to suppress the correction on K itself (least squares against
    quasi-random samples of K), which is what staged far-field targets
    need: large values outside K at small cost inside it.  Points in
    `suppress_points` (typically outside K) join that objective, keeping
    the correction at sup-level there without the cost of a hard zero.
    """
    n = f.n
    basis = monomials(n, degree_budget)
    pts = [np.asarray(c.at, dtype=complex).reshape(n) for c in constraints]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.abs(pts[i] - pts[j]).max() < 1e-8:
                raise ValueError("constraint points must be pairwise distinct")

    if not constraints:
        zero = np.zeros((len(basis), n), dtype=complex)
        delta = _delta_map(n, basis, zero)
        return Correction(base=f, delta=delta, corrected=f,
                          sup_norm_on_K=0.0, constraint_residual=0.0,
                          coeff_norm=0.0, condition_number=1.0)

    A = _constraint_rows(
        [(p, c.jacobian is not None) for p, c in zip(pts, constraints)],
        basis, n,
    )
    # right-hand side: what delta must contribute on top of f
    rhs_rows = []
    for p, c in zip(pts, constraints):
        jt = f.jet(p)
        rhs_rows.append(np.asarray(c.value, dtype=complex).reshape(n)
                        - jt.value)
        if c.jacobian is not None:
            want = np.asarray(c.jacobian, dtype=complex).reshape(n, n)
            diff = want - jt.jacobian
            for j in range(n):
                rhs_rows.append(diff[:, j])
    B = np.array(rhs_rows)  # (rows, n); column i is component i's rhs

    if A.shape[0] > A.shape[1]:
        raise InfeasibleError(
            "constraint system infeasible; raise degree_budget"
        )
    # column scaling: monomial columns span many orders of magnitude at
    # high degree, which defeats the solver's rank detection if left raw
    D = np.linalg.norm(A, axis=0)
    D[D == 0] = 1.0
    As = A / D
    y, _, _, _ = scipy.linalg.lstsq(As, B, lapack_driver="gelsy")
    x = y / D[:, None]
    # row-relative residual: high-degree monomial rows carry entries of
    # order |z|^degree, where an absolute test would only measure roundoff
    scale = np.abs(A) @ np.abs(x) + np.abs(B) + 1.0
    residual = float((np.abs(A @ x - B) / scale).max()) if A.size else 0.0
    if residual > 1e-8:
        raise InfeasibleError(
            "constraint system infeasible; raise degree_budget"
        )
    # true kernel of A from the well-scaled system, re-orthonormalized,
    # and the genuine minimum-norm solution by projecting the kernel out
    u_, s_, vh_ = np.linalg.svd(As)
    rank = int((s_ > 1e-10 * s_.max()).sum()) if s_.size else 0
    Vk = vh_[rank:].conj().T / D[:, None]
    if Vk.shape[1]:
        Vk, _ = np.linalg.qr(Vk)
        x = x - Vk @ (Vk.conj().T @ x)
    if minimize == "sup":
        if Vk.shape[1]:
            pts_s = [K.sample(512, seed=seed),
                     _boundary_grid(K, 17 if n == 1 else 5)]
            if len(suppress_points):
                pts_s.append(np.asarray(suppress_points,
                                        dtype=complex).reshape(-1, n))
            pts_s = np.concatenate(pts_s)
            Bs = np.array([[_mono(p, e) for e in basis] for p in pts_s])
            M = Bs @ Vk
            Dm = np.linalg.norm(M, axis=0)
            Dm[Dm == 0] = 1.0
            Ms = M / Dm
            rhs0 = Bs @ x
            # Lawson reweighting: repeated weighted least squares walks
            # the L2 fit toward the minimax (Chebyshev) solution
            w = np.ones(len(pts_s))
            best = None
            best_sup = np.inf
            for _ in range(60):
                a, _, _, _ = scipy.linalg.lstsq(w[:, None] * Ms,
                                                -w[:, None] * rhs0,
                                                lapack_driver="gelsy")
                resid = np.abs(rhs0 + Ms @ a).max(axis=1)
                sup = float(resid.max())
                if sup < best_sup:
                    best_sup, best = sup, a
                w = w * np.maximum(resid, 1e-14)
                w = w / w.max()
            x = x + Vk @ (best / Dm[:, None])
    elif minimize != "coeff":
        raise ValueError(f"unknown minimize mode {minimize!r}")
    sv = s_[:rank] if s_.size else s_
    cond = float(sv.max() / sv[sv > 0].min()) if sv.size else 1.0
    delta = _delta_map(n, basis, x)
    corrected = _add_terms(f, basis, x)
    # re-verify the built polynomial at the constraint points: with badly
    # conditioned interpolation (e.g. clustered points) the linear system
    # can be solved while the evaluated polynomial loses the constraints
    # to cancellation in its large coefficients
    row = 0
    viol = 0.0
    for p, c in zip(pts, constraints):
        jt_d = delta.jet(p)
        viol = max(viol, float((np.abs(jt_d.value - B[row])
                                / (1.0 + np.abs(B[row]))).max()))
        row += 1
        if c.jacobian is not None:
            for j in range(n):
                viol = max(viol, float((np.abs(jt_d.jacobian[:, j] - B[row])
                                        / (1.0 + np.abs(B[row]))).max()))
                row += 1
    residual = max(residual, viol)
    if viol > 1e-8:
        raise InfeasibleError(
            "correction evaluates inaccurately at the constraint points "
            "(ill-conditioned interpolation); move the points apart or "
            "change degree_budget"
        )
    sup = sampled_sup_norm(delta, K, seed=seed)
    return Correction(base=f, delta=delta, corrected=corrected,
                      sup_norm_on_K=sup, constraint_residual=residual,
                      coeff_norm=float(np.linalg.norm(x)),
                      condition_number=cond)


# ---------------------------------------------------------------------------
# orbit closing and manufactured cycles


def close_orbit(f, q, m, prescribed_jac, K, budget):
    """Close the length-m orbit of q into an (m+1)-cycle with a prescribed
    Jacobian at the closing point.

    The correction vanishes to first order along q, f(q), ..., f^{m-1}(q)
    and sends f^m(q) back to q with the prescribed derivative, so the new
    cycle's multiplier matrix is prescribed_jac . D(f^m)(q).
    """
    q = np.asarray(q, dtype=complex).reshape(f.n)
    orbit = [q]
    for _ in range(m):
        orbit.append(f.eval(orbit[-1]))
    for i in range(len(orbit)):
        for j in range(i + 1, len(orbit)):
            if np.abs(orbit[i] - orbit[j]).max() < 1e-8:
                raise ValueError("orbit points collide; pick another q or m")
    jt = f.iterated_jet(q, m)
    sv = np.linalg.svd(jt.jacobian, compute_uv=False)
    if sv.min() <= 1e-10 * max(sv.max(), 1.0):
        raise ValueError("degenerate orbit; cannot prescribe jet")
    prescribed_jac = np.asarray(prescribed_jac, dtype=complex).reshape(
        f.n, f.n
    )
    cons = []
    for p in orbit[:m]:
        jp = f.jet(p)
        cons.append(JetConstraint.make(p, jp.value, jp.jacobian))
    cons.append(JetConstraint.make(orbit[m], q, prescribed_jac))
    corr = interpolate_correction(f, cons, budget, K)
    h = corr.corrected
    cycle_pts = orbit[: m + 1]
    cyc = classify(h, cycle_pts)
    return {"h": h, "cycle": cyc, "correction": corr,
            "expected_multipliers": tuple(
                eigenvalues(prescribed_jac @ jt.jacobian)
            )}


def make_periodic_point(f, q, m, kind, K, budget, strength=10.0):
    """Manufacture a cycle of the requested stability through q.

    kind: super_attracting (closing Jacobian 0), repelling (scalar c times
    the inverse of D f^m(q), |c| > 1), or saddle (mixed diagonal after
    inverting D f^m(q); needs n >= 2).
    """
    if kind not in ("super_attracting", "repelling", "saddle"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "saddle" and f.n < 2:
        raise ValueError("saddle cycles need dimension >= 2")
    q = np.asarray(q, dtype=complex).reshape(f.n)
    jt = f.iterated_jet(q, m)
    if kind == "super_attracting":
        pj = np.zeros((f.n, f.n), dtype=complex)
    else:
        inv = np.linalg.inv(jt.jacobian)
        if kind == "repelling":
            pj = strength * inv
        else:
            diag = np.diag([0.5, 2.0, 4.0][: f.n]).astype(complex)
            pj = diag @ inv
    out = close_orbit(f, q, m, pj, K, budget)
    if out["cycle"].klass != kind:
        raise InfeasibleError(
            f"requested {kind} but produced {out['cycle'].klass}"
        )
    return out


# ---------------------------------------------------------------------------
# staged escaping-orbit construction


def escaping_construction(f, q, windows, eps, budget, seed=0):
    """Build h close to f whose orbit of q walks out through the windows.

    Stage s pins the orbit built so far by value constraints and sends
    its endpoint into the next window shell (outside the last window at
    the final stage), with the stage's sampled sup-norm on windows[s]
    below eps / 2^(s+1).  The geometric budget makes the total deviation
    on windows[0] less than eps.
    """
    q = np.asarray(q, dtype=complex).reshape(f.n)
    N = len(windows) - 1
    if N < 1:
        raise ValueError("need at least two nested windows")
    if N > 6:
        raise ValueError("desk scale: at most 7 windows")
    if not bool(windows[0].contains(q)):
        raise ValueError("q must lie in the first window")

    # step at which the f-orbit of q first leaves windows[0]
    m = None
    x = q
    for k in range(1, 200):
        x = f.eval(x)
        if not bool(windows[0].contains(x)):
            m = k
            break
    if m is None:
        raise InfeasibleError("orbit of q never leaves the first window",
                              stage=0)

    interior = [q]
    for _ in range(m - 1):
        interior.append(f.eval(interior[-1]))
    e = [f.eval(interior[-1])]  # e[0] = f^m(q), first point outside W0
    if not bool(windows[1].contains(e[0])):
        raise InfeasibleError(
            "f^m(q) overshoots the second window; widen the windows",
            stage=0)
    # plan the remaining waypoints up front: each stage suppresses its
    # correction at the future waypoints (soft, at sup-level), so the map
    # stays within O(eps) of f there and the plan remains valid.
    # Waypoints sit at the outer rim of their shell (as far from the
    # norm window as the shell allows), where interpolation is cheapest.
    for s in range(1, N):
        img = f.eval(e[-1])
        inner, outer = windows[s], windows[s + 1]
        if bool(outer.contains(img)) and not bool(inner.contains(img)):
            e.append(img)
        else:
            e.append(_rim_point(img, outer, frac=0.98))
    img = f.eval(e[-1])
    if bool(windows[N].contains(img)):
        img = _rim_point(img, windows[N], frac=1.5)
    e.append(img)  # e[N], outside the last window

    h = f
    stage_norms = []
    for s in range(N):
        cons = [JetConstraint.make(p, h.eval(p)) for p in interior]
        cons += [JetConstraint.make(e[t], h.eval(e[t])) for t in range(s)]
        cons.append(JetConstraint.make(e[s], e[s + 1]))
        future = [e[t] for t in range(s + 1, N)]
        try:
            corr = interpolate_correction(h, cons, budget, windows[s],
                                          seed=seed + s, minimize="sup",
                                          suppress_points=future)
        except InfeasibleError as exc:
            raise InfeasibleError(f"stage {s} infeasible at budget {budget}",
                                  stage=s) from exc
        cap = eps / 2.0 ** (s + 1)
        if corr.sup_norm_on_K > cap:
            raise InfeasibleError(
                f"stage {s} correction norm {corr.sup_norm_on_K:.3g} "
                f"exceeds budget {cap:.3g}", stage=s)
        stage_norms.append(corr.sup_norm_on_K)
        h = corr.corrected
    witness = [q]
    for _ in range(m + N):
        witness.append(h.eval(witness[-1]))
    return {"h": h, "m": m, "witness": np.array(witness),
            "stage_norms": stage_norms,
            "total_norm_bound": float(sum(stage_norms))}


def _rim_point(direction, window, frac):
    """Scale `direction` so its largest coordinate modulus is frac times
    the window's smallest half-width (frac<1: just inside; >1: outside)."""
    hw = min(abs(b[1]) for b in window.bounds)
    v = np.asarray(direction, dtype=complex).reshape(-1)
    nv = np.abs(v).max()
    if nv < 1e-12:
        v = np.ones_like(v)
        nv = 1.0
    return v * (frac * hw / nv)


# ---------------------------------------------------------------------------
# random coefficient perturbations


def random_perturbation(f, eps, K, seed=0, samples=2000):
    """Gaussian coefficient noise on all monomials up to the map's degree,
    rescaled so the sampled sup-norm of the delta on K equals eps."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0:
        return f
    n = f.n
    basis = monomials(n, max(1, f.degree()))
    rng = np.random.default_rng(seed)
    coeffs = (rng.standard_normal((len(basis), n))
              + 1j * rng.standard_normal((len(basis), n)))
    delta = _delta_map(n, basis, coeffs)
    sup = sampled_sup_norm(delta, K, samples=samples, seed=seed)
    coeffs *= eps / sup
    return _add_terms(f, basis, coeffs)


# ---------------------------------------------------------------------------
# parabolic fixed-point experiment


def hakim_map(dim):
    """(z_1 + z_1^2, ..., z_n + z_n^2): multiplier-1 fixed point at 0."""
    comps = []
    for i in range(dim):
        e1 = tuple(1 if j == i else 0 for j in range(dim))
        e2 = tuple(2 if j == i else 0 for j in range(dim))
        comps.append(((e1, 1.0 + 0.0j), (e2, 1.0 + 0.0j)))
    return PolyMap(n=dim, components=tuple(comps))


def hakim_experiment(dim, start, steps=10_000, shell_radius=0.05,
                     growth_checkpoints=(4, 8, 16, 32)):
    """Parabolic decay, multiplier at 0, and a non-normality proxy.

    Records ||f^k(start)|| along the orbit (expected ~ C/k decay per
    coordinate), the multiplier-1 classification of the origin, and the
    sampled sup of ||D f^k|| over a shell around 0, which grows without
    bound (derivatives blow up on the repelling side of the petal).
    """
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    f = hakim_map(dim)
    start = np.asarray(start, dtype=complex).reshape(dim)
    at_origin = np.abs(start).max() == 0.0
    if not at_origin and not np.all((start.real > -1.0) & (start.real < 0.0)):
        raise ValueError("start not in petal")
    o = orbit(f, start, steps, 10.0)
    if o.escaped:
        raise ValueError("start not in petal")
    norms = np.abs(o.points).max(axis=-1)
    ks = np.arange(len(norms))
    scaled = ks[1:] * norms[1:]  # ~ constant for parabolic decay

    jt = f.jet(np.zeros(dim, dtype=complex))
    multipliers = eigenvalues(jt.jacobian)

    shell = shell_points(np.zeros(dim, dtype=complex), shell_radius, dim)
    growth = []
    for k in growth_checkpoints:
        _, jac, made = map_kernel(f, shell, k, jacobian=np.eye(dim))
        ok = made == k  # an overflowing shell point counts as inf
        norm = np.full(len(shell), np.inf)
        norm[ok] = np.linalg.svd(jac[ok], compute_uv=False).max(axis=-1)
        growth.append(float(norm.max()))
    return {
        "map": f,
        "orbit_norms": norms,
        "k_times_norm": scaled,
        "multipliers": tuple(multipliers),
        "derivative_growth": dict(zip(growth_checkpoints, growth)),
    }
