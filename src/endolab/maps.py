"""Polynomial (and 1-D entire) self-maps of C^n with forward-mode jets.

A map is stored as n sparse component term lists; each term is a
(multi-index, complex coefficient) pair.  Jacobians come from dual-number
propagation, so they are exact up to rounding and compose cleanly through
iteration.  All evaluation routines broadcast over a leading batch axis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

MAX_DIM = 3

_FINITE_LIMIT = 1e150  # values beyond this are treated as overflow


class MapOverflowError(ArithmeticError):
    """Evaluation left the representable range.

    ``index`` is the orbit step at which the overflow occurred (0 for a
    single evaluation).
    """

    def __init__(self, message="numeric overflow", index=0):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class EntireNode:
    """Node of a composition tree over {polynomial, exp, sin} (n=1 only)."""

    kind: str  # "poly" | "exp" | "sin"
    coeffs: tuple = ()  # dense low-to-high, for kind == "poly"
    inner: Optional["EntireNode"] = None  # None means the identity argument z

    def __post_init__(self):
        if self.kind not in ("poly", "exp", "sin"):
            raise ValueError(f"unknown entire node kind {self.kind!r}")
        if self.kind == "poly" and len(self.coeffs) == 0:
            raise ValueError("poly node needs coefficients")


@dataclass(frozen=True)
class PolyMap:
    """Endomorphism of C^n given by sparse multi-index terms per component."""

    n: int
    components: tuple  # n tuples of ((e_1..e_n), coeff) terms
    entire: Optional[EntireNode] = None
    # corrections/deltas may be constant or identically zero
    allow_constant: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}")
        if self.entire is not None:
            if self.n != 1:
                raise ValueError("entire builtins are 1-D only")
            return
        if len(self.components) != self.n:
            raise ValueError("component count must equal dimension")
        for comp in self.components:
            seen = set()
            for exps, _ in comp:
                if len(exps) != self.n:
                    raise ValueError("exponent vector length mismatch")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                if exps in seen:
                    raise ValueError(f"duplicate multi-index {exps}")
                seen.add(exps)
        if self.degree() < 1 and not self.allow_constant:
            raise ValueError("constant map: total degree >= 1 required")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_terms(n, components, allow_constant=False):
        comps = tuple(
            tuple((tuple(int(e) for e in exps), complex(c)) for exps, c in comp)
            for comp in components
        )
        return PolyMap(n=n, components=comps, allow_constant=allow_constant)

    @staticmethod
    def from_coeffs_1d(coeffs):
        """1-D map from dense coefficients, low degree first."""
        terms = [((k,), complex(c)) for k, c in enumerate(coeffs) if c != 0]
        return PolyMap.from_terms(1, [terms])

    @staticmethod
    def entire_1d(node: EntireNode):
        return PolyMap(n=1, components=((),), entire=node)

    # -- structure ------------------------------------------------------

    def degree(self):
        """Maximal total degree over all components (0 for empty)."""
        degs = [sum(e) for comp in self.components for e, _ in comp]
        return max(degs) if degs else 0

    def is_polynomial(self):
        return self.entire is None

    @cached_property
    def _max_exponents(self):
        """Highest exponent of each coordinate over all terms."""
        return tuple(max((exps[j] for comp in self.components
                          for exps, _ in comp), default=0)
                     for j in range(self.n))

    @cached_property
    def _terms(self):
        """Per component, each term as (c, ((j, e), ...)) with e > 0 only;
        a 0-d array c keeps a term's first product a ufunc loop."""
        return tuple(tuple((np.array(c, dtype=complex),
                            tuple((j, e) for j, e in enumerate(exps) if e))
                           for exps, c in comp) for comp in self.components)

    # -- evaluation -----------------------------------------------------

    def eval(self, p):
        """Evaluate at p, shape (..., n) complex; returns the same shape."""
        value, _, steps = map_kernel(self, p)
        _raise_overflow(steps, 1)
        return value

    def jet(self, p):
        """Value and Jacobian at p via forward-mode duals.

        Returns a Jet with value shape (..., n) and jacobian (..., n, n),
        row i holding the gradient of component i.
        """
        value, jac, steps = map_kernel(self, p, jacobian=True)
        _raise_overflow(steps, 1)
        return Jet(value=value, jacobian=jac)

    def iterated_jet(self, p, m):
        """Value and chain-rule Jacobian of the m-th iterate at p."""
        if m < 1:
            raise ValueError("m must be >= 1")
        value, jac, steps = map_kernel(self, p, m,
                                       jacobian=np.eye(self.n, dtype=complex))
        _raise_overflow(steps, m)
        return Jet(value=value, jacobian=jac)

    def iterate(self, p, m):
        """f^m(p) without derivative bookkeeping."""
        value, _, steps = map_kernel(self, p, m)
        _raise_overflow(steps, m)
        return value

    # -- JSON round trip ------------------------------------------------

    def to_json_dict(self):
        comps = [
            [
                {"exps": list(e), "re": c.real, "im": c.imag}
                for e, c in comp
            ]
            for comp in self.components
        ]
        d = {"n": self.n, "components": comps}
        if self.entire is not None:
            d["entire"] = _entire_to_json(self.entire)
        return d

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(d):
        n = int(d["n"])
        comps = [
            [(tuple(t["exps"]), complex(t.get("re", 0.0), t.get("im", 0.0)))
             for t in comp]
            for comp in d.get("components", [[]] * n)
        ]
        entire = d.get("entire")
        if entire is not None:
            if n != 1:
                raise ValueError("entire builtins are 1-D only")
            return PolyMap.entire_1d(_entire_from_json(entire))
        return PolyMap.from_terms(n, comps)

    @staticmethod
    def from_json(s):
        return PolyMap.from_json_dict(json.loads(s))


@dataclass(frozen=True)
class Jet:
    """Map value together with the n x n Jacobian at the same point."""

    value: np.ndarray
    jacobian: np.ndarray


# ---------------------------------------------------------------------------
# dual-number kernels


def _as_points(p, n):
    """p as a batch (..., n), and whether it was one bare point, (n,) or 0-d
    on a 1-D map; a bare point becomes a (1, n) batch."""
    p = np.asarray(p, dtype=complex)
    if p.shape[-1:] != (n,) and not (p.ndim == 0 and n == 1):
        raise ValueError(f"point of shape {p.shape} for a map of dimension {n}")
    bare = p.ndim <= 1
    return (p.reshape(1, n) if bare else p), bare


def map_kernel(pmap, p, m=1, jacobian=False):
    """f^m at a batch of points, with overflow as a mask, not an error.

    ``p`` has shape (..., n).  Returns ``(value, jac, steps)``:

    * ``value`` (..., n) is f^m(p);
    * ``jac`` is None when ``jacobian`` is False.  When it is True, jac is
      the Jacobian of f^m, the product of the step Jacobians; when it is
      an (n, n) matrix T, that product times T.  ``iterated_jet`` seeds
      the product with the identity and ``jet`` does not, which keeps
      both bit-identical to their step-by-step definitions;
    * ``steps`` (...) counts the steps each point made inside the finite
      range (every value and Jacobian entry finite, |value| <= 1e150).  A
      point is ok where ``steps == m``; otherwise its value and Jacobian
      mean nothing.

    A point's bits do not depend on the rest of the batch, so a caller
    drops the points that are not ok and keeps the rest (the orbit loops of
    ``orbits`` and ``julia`` call ``_step``, which holds the finite-range
    rule, on their live points alone).  A bare (n,) point is a (1, n) batch,
    squeezed on return, so it has the bits of its row in any batch.
    ``m`` >= 0; m = 0 returns a copy of p, and of T or the identity.  It
    may be per point (>= 1, non-increasing along an (S, n) batch, else
    ValueError): step k maps only the prefix with m > k, so rows keep
    their int-m bits.
    """
    p, bare = _as_points(p, pmap.n)
    m = np.asarray(m)
    if (m < (1 if m.ndim else 0)).any():
        raise ValueError("m must be >= 0, and >= 1 per point")
    if m.ndim and (m.shape != (len(p),) or p.ndim != 2
                   or (m[1:] > m[:-1]).any()):
        raise ValueError("a per-point m must be non-increasing, one per row "
                         "of an (S, n) batch")
    steps = np.full(p.shape[:-1], m)
    jac = None
    if jacobian is True and not m.any():  # f^0 is the identity
        jacobian = np.eye(pmap.n, dtype=complex)
    if not isinstance(jacobian, bool):
        jac = np.broadcast_to(jacobian, p.shape + (pmap.n,)).copy()
    x = p if m.any() else p.copy()  # m = 0 must not hand back p itself
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(m.max(initial=0)):
            live = ... if m.ndim == 0 else slice(np.count_nonzero(m > k))
            v, J, _, ok = _step(pmap, x[live], jacobian is not False)
            if k == 0:  # every point makes step 0: x and jac become ours
                x, jac = v, J if jac is None else J @ jac
            else:
                x[live] = v
                if J is not None:
                    jac[live] = J @ jac[live]
            if not ok.all():
                steps[live][~ok & (steps[live] > k)] = k  # first failed step
    if bare:
        return x[0], None if jac is None else jac[0], steps[0]
    return x, jac, steps


def sup_norm(x):
    """max_j |x_j| per point of x (..., n), the values of np.abs(x).max(-1)
    (a max is exact; np.maximum propagates NaN as max does), several times
    faster than that reduction over so short a last axis."""
    out = np.abs(x[..., 0])
    for j in range(1, x.shape[-1]):
        out = np.maximum(out, np.abs(x[..., j]))
    return out


def _raise_overflow(steps, m):
    """MapOverflowError at the first orbit step where a point overflowed."""
    if (steps < m).any():
        k = int(steps.min())
        raise MapOverflowError(f"numeric overflow at orbit index {k}",
                               index=k)


def _step(pmap, x, jacobian):
    """f once at points x (..., n), under the caller's errstate: (value,
    Jacobian or None, sup-norm of value, ok).  ok is the finite-range rule:
    value and Jacobian finite, sup-norm <= 1e150 (NaN fails it too)."""
    if pmap.entire is None:
        v, J = _poly_step(pmap, x, jacobian)
    else:
        z = x[..., 0]
        v, g = _entire_step(pmap.entire, z,
                            np.ones_like(z) if jacobian else None)
        v, J = v[..., None], None if g is None else g[..., None, None]
    norm = sup_norm(v)
    ok = norm <= _FINITE_LIMIT
    if J is not None:
        ok &= np.isfinite(J).all(axis=(-2, -1))
    return v, J, norm, ok


def _poly_step(pmap, p, jacobian):
    """f(p) and, when `jacobian`, Df(p) by forward-mode duals.  The
    derivative sweep only reads each term's running product, so the value
    has the same bits either way."""
    batch, n = p.shape[:-1], pmap.n
    value = np.zeros(batch + (n,), dtype=complex)
    jac = np.zeros(batch + (n, n), dtype=complex) if jacobian else None
    # pows[j][e] = p_j**e and dpows[j][e] its derivative, 1 <= e <= top
    ones = np.ones(batch, dtype=complex) if jacobian else None
    pows, dpows = [], []
    for j, top in enumerate(pmap._max_exponents):
        pows.append([None, p[..., j]])
        dpows.append([None, ones])
        for _ in range(2, top + 1):
            if jacobian:  # product rule on z^(e-1) * z
                dpows[j].append(dpows[j][-1] * pows[j][1] + pows[j][-1])
            pows[j].append(pows[j][-1] * pows[j][1])
    for i, terms in enumerate(pmap._terms):
        for c, factors in terms:
            val = c
            grad = np.zeros(batch + (n,), dtype=complex) if jacobian else None
            for j, e in factors:
                if jacobian:
                    grad = grad * pows[j][e][..., None]
                    grad[..., j] += val * dpows[j][e]
                val = val * pows[j][e]
            value[..., i] += val
            if jacobian:
                jac[..., i, :] += grad
    return value, jac


def _entire_step(node, z, dz):
    """Value at z and, unless dz is None, the derivative times dz."""
    if node is None:
        return z, dz
    x, dx = _entire_step(node.inner, z, dz)
    if node.kind == "exp":
        v = np.exp(x)
        return v, None if dx is None else v * dx
    if node.kind == "sin":
        return np.sin(x), None if dx is None else np.cos(x) * dx
    acc = dacc = np.zeros_like(x)
    for c in reversed(node.coeffs):
        if dx is not None:
            dacc = dacc * x + acc
        acc = acc * x + c
    return acc, None if dx is None else dacc * dx


def _entire_to_json(node):
    d = {"kind": node.kind}
    if node.kind == "poly":
        d["coeffs"] = [[c.real, c.imag] for c in map(complex, node.coeffs)]
    if node.inner is not None:
        d["inner"] = _entire_to_json(node.inner)
    return d


def _entire_from_json(d):
    inner = d.get("inner")
    return EntireNode(
        kind=d["kind"],
        coeffs=tuple(complex(re, im) for re, im in d.get("coeffs", [])),
        inner=_entire_from_json(inner) if inner is not None else None,
    )


# ---------------------------------------------------------------------------
# escape bounds


def escape_radius(pmap):
    """Conservative R with ||p||_inf > R  =>  ||f(p)||_inf >= 2 ||p||_inf.

    Coefficient-bound estimate: for each coordinate j, component j must
    contain a pure z_j^d term (d >= 2) dominating the rest of its terms,
    which all must have total degree <= d-1.  For the argmax coordinate
    that term then outgrows everything else once ||p||_inf is large.
    """
    if not pmap.is_polynomial():
        raise ValueError("no polynomial escape bound: entire map, supply R")
    if pmap.degree() < 2:
        raise ValueError("no polynomial escape bound")
    radii = []
    for j, comp in enumerate(pmap.components):
        lead = None  # (degree, coeff) of the dominant pure z_j power
        for exps, c in comp:
            if exps[j] == sum(exps) and exps[j] >= 2:
                if lead is None or exps[j] > lead[0]:
                    lead = (exps[j], c)
        if lead is None:
            raise ValueError(
                f"no polynomial escape bound: component {j} lacks a pure "
                f"z_{j}^d term with d >= 2"
            )
        d, cd = lead
        rest = 0.0
        for exps, c in comp:
            if (exps[j], sum(exps)) == (d, d):
                continue
            if sum(exps) > d - 1:
                raise ValueError(
                    f"no polynomial escape bound: component {j} has a "
                    f"degree-{sum(exps)} term competing with its z^{d} lead"
                )
            rest += abs(c)
        radii.append(max(1.0, (2.0 + rest) / abs(cd)))
    return float(max(radii))


# ---------------------------------------------------------------------------
# windows (boxes in the 2n real coordinates)


def halton(d, n, seed):
    """(n, d) scrambled Halton points in [0, 1)^d (Owen 2017, arXiv:1706.02808),
    the bits of SciPy's `Halton(d, scramble=True, seed=seed).random(n)`.  Base j
    is the j-th prime b; `default_rng(seed)` shuffles ceil(54/log2 b) - 1 digit
    permutations per base; point i sums perm_k[digit_k(i)] * b^-(k+1) in k order."""
    rng = np.random.default_rng(seed)
    bases = [p for p in range(2, d * d + 3) if all(p % q for q in range(2, p))][:d]
    out = np.empty((n, d))
    for j, b in enumerate(bases):
        acc, scale, count = np.zeros(1), 1.0, int(np.ceil(54 / np.log2(b))) - 1
        for perm in rng.permuted(np.tile(range(b), (count, 1)), axis=1).tolist():
            scale /= b
            if len(acc) < n:  # grow the table over i < b^(k+1) by digit k
                acc = (acc[None, :] + np.multiply(perm, scale)[:, None]).ravel()
            else:  # every point below b^k has digit k = 0
                acc += perm[0] * scale
        out[:, j] = acc[:n]
    return out


@dataclass(frozen=True)
class Window:
    """Closed box: one (lo, hi) interval per real coordinate, order
    (re_1, im_1, ..., re_n, im_n)."""

    bounds: tuple  # 2n pairs

    def __post_init__(self):
        if len(self.bounds) % 2 != 0 or not self.bounds:
            raise ValueError("need 2n interval bounds")
        for lo, hi in self.bounds:
            if not -np.inf < lo < hi < np.inf:
                raise ValueError(f"degenerate or infinite interval [{lo}, {hi}]")

    @property
    def n(self):
        return len(self.bounds) // 2

    @staticmethod
    def square(n, lo, hi):
        return Window(bounds=tuple((float(lo), float(hi)) for _ in range(2 * n)))

    def reals(self, points):
        """Complex points (..., n) -> real coordinates (..., 2n)."""
        points = np.asarray(points, dtype=complex)
        out = np.empty(points.shape[:-1] + (2 * self.n,))
        out[..., 0::2] = points.real
        out[..., 1::2] = points.imag
        return out

    def to_complex(self, reals):
        reals = np.asarray(reals, dtype=float)
        return reals[..., 0::2] + 1j * reals[..., 1::2]

    @cached_property
    def lo(self):
        """Lower bounds, a read-only (2n,) array."""
        return _read_only([b[0] for b in self.bounds])

    @cached_property
    def hi(self):
        """Upper bounds, a read-only (2n,) array."""
        return _read_only([b[1] for b in self.bounds])

    @property
    def widths(self):
        return self.hi - self.lo

    def contains(self, points):
        r = self.reals(points)
        return np.all((r >= self.lo) & (r <= self.hi), axis=-1)

    def sample(self, count, seed=0):
        """Complex points (count, n): `halton(2n, count, seed)` scaled to the
        window, the bits of SciPy's scrambled Halton (Owen 2017)."""
        return self.to_complex(self.lo + halton(2 * self.n, count, seed)
                               * self.widths)

    def grid_centers(self, per_axis):
        """Cell centers lo + w (i + 1/2) of a regular subdivision into
        per_axis cells per real axis, flattened to (per_axis^2n, n) complex
        in row-major cell order (last real axis fastest)."""
        ticks = (self.lo[:, None] + self.widths[:, None] / per_axis
                 * (np.arange(per_axis) + 0.5))
        mesh = np.meshgrid(*ticks, indexing="ij")
        return self.to_complex(np.stack([m.ravel() for m in mesh], axis=-1))


def _read_only(values):
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a
