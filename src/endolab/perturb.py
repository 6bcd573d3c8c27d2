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

import numpy as np

from .julia import dedup_points
from .maps import (InfeasibleError, InputError, PolyMap, _raise_overflow,
                   map_kernel, sup_norm)
from .orbits import orbit, shell_points
from .periodic import classify, eigenvalues

SUP_NORM_SAMPLES = 10_000


@dataclass(frozen=True)
class Correction:
    corrected: PolyMap
    sup_norm_on_K: float
    constraint_residual: float
    condition_number: float


def monomials(n, degree_budget):
    """Multi-indices of total degree <= budget, graded lexicographic."""
    return sorted((e for e in product(range(degree_budget + 1), repeat=n)
                   if sum(e) <= degree_budget), key=sum)


def _monomial_table(pts, basis, jacobian):
    """Every basis monomial at every point: values (N, M) and, when
    `jacobian`, the derivatives (N, M, n), entry [i, k, j] = d/dz_j of
    monomial k at point i.

    Each entry is a product over the last axis in coordinate order:
    z_0^e_0 * z_1^e_1 * ..., and e_j * z_0^a_0 * ... with a_j = e_j - 1
    for the derivative (exactly 0 where e_j = 0).  A short reduction
    multiplies in that order, so the entries carry the bits of the scalar
    products `z ** e`, which element-wise array products do not.
    """
    z = np.asarray(pts, dtype=complex)
    E = np.array(basis)
    values = np.power(z[:, None, :], E).prod(axis=-1)
    if not jacobian:
        return values, None
    lowered = np.maximum(E[:, None, :] - np.eye(E.shape[1], dtype=int), 0)
    powers = np.power(z[:, None, None, :], lowered)  # (N, M, n, n)
    lead = np.broadcast_to(E[..., None], powers.shape[:-1] + (1,))
    derivs = np.concatenate([lead, powers], axis=-1).prod(axis=-1)
    derivs[:, E == 0] = 0.0
    return values, derivs


def _jet_rows(values, jacobians):
    """Constraint rows in their layout: per point its value row, then,
    unless `jacobians` is None, its n rows d/dz_j, j = 0..n-1.

    values (N, K) and jacobians (N, K, n), for K outputs -> rows (R, K).
    """
    if jacobians is None:
        return values
    rows = np.concatenate([values[:, None], jacobians.transpose(0, 2, 1)], 1)
    return rows.reshape(-1, values.shape[1])


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
    comps = tuple(tuple((e, complex(c)) for e, c in zip(basis, col) if c != 0)
                  for col in coeffs.T)
    return PolyMap(n=n, components=comps, allow_constant=True)


def _boundary_grid(K, per_axis):
    """Full grid over K including the boundary (where an analytic
    function's modulus peaks)."""
    mesh = np.meshgrid(*np.linspace(K.lo, K.hi, per_axis, axis=1),
                       indexing="ij")
    return K.to_complex(np.stack([m.ravel() for m in mesh], axis=-1))


def sampled_sup_norm(delta, K, samples=SUP_NORM_SAMPLES, seed=0):
    """Sup of the correction's sup-norm over quasi-random points of K."""
    pts = np.concatenate([K.sample(samples, seed=seed),
                          _boundary_grid(K, 9 if K.n == 1 else 5)])
    vals = delta.eval(pts)
    return float(np.abs(vals).max())


def interpolate_correction(f, at, value, jacobian, degree_budget, K,
                           seed=0, minimize="coeff", suppress_points=()):
    """Least-norm coefficient correction h - f with h(at) = value and, unless
    `jacobian` is None, Dh(at) = jacobian.

    `at` and `value` are (N, n), `jacobian` (N, n, n) with row i the
    gradient of component i.  The linear system decouples per component
    (each component of the correction uses the same monomial basis).
    `_monomial_table` gives the basis values and derivatives at the
    points, and `_jet_rows` lays them out.  The right-hand side (target
    jet minus f's) and the re-verification of the built delta use the
    same layout.  The system is solved by
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
    import scipy.linalg  # here, so that hakim_experiment loads no SciPy

    n = f.n
    basis = monomials(n, degree_budget)
    pts = np.asarray(at, dtype=complex).reshape(-1, n)
    if not len(pts):
        raise ValueError("no constraint points given")
    if len(dedup_points(pts)) < len(pts):
        raise ValueError("constraint points must be pairwise distinct")

    pinned = jacobian is not None
    A = _jet_rows(*_monomial_table(pts, basis, pinned))
    # right-hand side: what delta must contribute on top of f
    jt = f.jet(pts)
    if pinned:  # a reshape to N points also checks the count
        jacobian = np.reshape(jacobian, (len(pts), n, n)) - jt.jacobian
    # (rows, n); column i is component i's rhs
    B = _jet_rows(np.reshape(value, pts.shape) - jt.value, jacobian)

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
    residual = float((np.abs(A @ x - B) / scale).max())
    if residual > 1e-8:
        raise InfeasibleError(
            "constraint system infeasible; raise degree_budget"
        )
    # true kernel of A from the well-scaled system, re-orthonormalized,
    # and the genuine minimum-norm solution by projecting the kernel out
    u_, s_, vh_ = np.linalg.svd(As)
    rank = int((s_ > 1e-10 * s_.max()).sum())
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
            Bs = _monomial_table(pts_s, basis, False)[0]
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
    cond = float(s_[0] / s_[rank - 1])
    delta = _delta_map(n, basis, x)
    corrected = _add_terms(f, basis, x)
    # re-verify the built polynomial at the constraint points: with badly
    # conditioned interpolation (e.g. clustered points) the linear system
    # can be solved while the evaluated polynomial loses the constraints
    # to cancellation in its large coefficients
    jt = delta.jet(pts)
    got = _jet_rows(jt.value, jt.jacobian if pinned else None)
    viol = float((np.abs(got - B) / (1.0 + np.abs(B))).max())
    residual = max(residual, viol)
    if viol > 1e-8:
        raise InfeasibleError(
            "correction evaluates inaccurately at the constraint points "
            "(ill-conditioned interpolation); move the points apart or "
            "change degree_budget"
        )
    sup = sampled_sup_norm(delta, K, seed=seed)
    return Correction(corrected=corrected, sup_norm_on_K=sup,
                      constraint_residual=residual,
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
    jt = f.iterated_jet(q, m)  # raises where the orbit overflows
    pts = orbit(f, q, m)[0]
    if len(dedup_points(pts)) < len(pts):
        raise ValueError("orbit points collide; pick another q or m")
    sv = np.linalg.svd(jt.jacobian, compute_uv=False)
    if sv.min() <= 1e-10 * max(sv.max(), 1.0):
        raise ValueError("degenerate orbit; cannot prescribe jet")
    prescribed_jac = np.asarray(prescribed_jac, dtype=complex).reshape(
        f.n, f.n
    )
    corr = interpolate_correction(
        f, pts, np.roll(pts, -1, axis=0),
        np.concatenate([f.jet(pts[:m]).jacobian, prescribed_jac[None]]),
        budget, K)
    h = corr.corrected
    cyc = classify(h, pts)
    return {"h": h, "cycle": cyc, "correction": corr,
            "expected_multipliers": tuple(
                eigenvalues(prescribed_jac @ jt.jacobian)
            )}


def make_periodic_point(f, q, m, kind, K, budget):
    """Manufacture a cycle of the requested stability through q.

    kind: super_attracting (closing Jacobian 0), repelling (10 times the
    inverse of D f^m(q)), or saddle (mixed diagonal after inverting
    D f^m(q); needs n >= 2).
    """
    if kind not in ("super_attracting", "repelling", "saddle"):
        raise InputError(f"unknown kind {kind!r}")
    if kind == "saddle" and f.n < 2:
        raise InputError("saddle cycles need dimension >= 2")
    q = np.asarray(q, dtype=complex).reshape(f.n)
    if kind == "super_attracting":
        pj = np.zeros((f.n, f.n), dtype=complex)
    else:
        inv = np.linalg.inv(f.iterated_jet(q, m).jacobian)
        if kind == "repelling":
            pj = 10.0 * inv
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
    on windows[0] less than eps.  Each window must strictly contain the
    one before it.
    """
    q = np.asarray(q, dtype=complex).reshape(f.n)
    N = len(windows) - 1
    if N < 1:
        raise InputError("need at least two nested windows")
    if N > 6:
        raise InputError("desk scale: at most 7 windows")
    if not all(((b.lo < a.lo) & (a.hi < b.hi)).all()
               for a, b in zip(windows, windows[1:])):
        raise InputError("each window must strictly contain the one before")
    if not bool(windows[0].contains(q)):
        raise InputError("q must lie in the first window")

    # the f-orbit of q up to its first point outside windows[0], f^m(q)
    pts, made = orbit(f, q, 199)
    m = int((~windows[0].contains(pts)).argmax())  # 0: it never leaves
    _raise_overflow(made, m or 199)
    if not m:
        raise InfeasibleError("orbit of q never leaves the first window",
                              stage=0)
    interior = pts[:m]
    e = [pts[m]]  # e[0] = f^m(q), first point outside W0
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
        # the orbit so far keeps its h-images; e[s] goes to e[s + 1]
        at = np.concatenate([interior, e[: s + 1]])
        value = np.concatenate([h.eval(at[:-1]), [e[s + 1]]])
        future = [e[t] for t in range(s + 1, N)]
        try:
            corr = interpolate_correction(
                h, at, value, None, budget, windows[s], seed=seed + s,
                minimize="sup", suppress_points=future)
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
    witness, made = orbit(h, q, m + N)
    _raise_overflow(made, m + N)
    return {"h": h, "m": m, "witness": witness,
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


def random_perturbation(f, eps, K, seed=0):
    """Gaussian coefficient noise on all monomials up to the map's degree,
    rescaled so the sup-norm of the delta on 2000 samples of K equals eps."""
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
    sup = sampled_sup_norm(delta, K, samples=2000, seed=seed)
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
        raise InputError("dim must be 1 or 2")
    if steps < 1:
        raise InputError("steps must be >= 1")
    f = hakim_map(dim)
    start = np.asarray(start, dtype=complex).reshape(dim)
    if start.any() and not ((start.real > -1.0) & (start.real < 0.0)).all():
        raise InputError("start must be the origin or lie in the strip "
                         "-1 < Re < 0")
    pts, made = orbit(f, start, steps)
    norms = sup_norm(pts)
    if made < steps or (norms > 10.0).any():
        raise ValueError("start not in petal")
    ks = np.arange(len(norms))
    scaled = ks[1:] * norms[1:]  # ~ constant for parabolic decay

    jt = f.jet(np.zeros(dim, dtype=complex))
    multipliers = eigenvalues(jt.jacobian)

    shell = shell_points(np.zeros(dim, dtype=complex), shell_radius, dim)
    growth = []
    for k in growth_checkpoints:
        _, jac, made = map_kernel(f, shell, k, jacobian=True)
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
