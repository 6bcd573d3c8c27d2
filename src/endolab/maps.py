"""Polynomial self-maps of C^n with forward-mode jets.

A map is stored as n sparse component term lists; each term is a
(multi-index, complex coefficient) pair.  Jacobians come from dual-number
propagation, so they are exact up to rounding and compose cleanly through
iteration.  All evaluation routines broadcast over a leading batch axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MAX_DIM = 3

_FINITE_LIMIT = 1e150  # values beyond this are treated as overflow
# map_kernel steps a larger (S, n) batch in blocks of this many rows, so a
# block's temporaries stay in a 2 MiB L2 (CHANGES.md records the sweep)
_BLOCK_ROWS = 8192


class MapOverflowError(ArithmeticError):
    """Evaluation left the representable range: "numeric overflow at orbit
    index k", k the first step at which a point left it (0 for a single
    evaluation)."""


class InputError(ValueError):
    """An argument out of its function's range, raised before any work is
    done; `endolab` reports it as a config error (exit 2)."""


class InfeasibleError(RuntimeError):
    """A construction found infeasible by trying it; `endolab` exits 3."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class PolyMap:
    """Endomorphism of C^n given by sparse multi-index terms per component."""

    n: int
    components: tuple  # n tuples of ((e_1..e_n), coeff) terms
    # corrections/deltas may be constant or identically zero
    allow_constant: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}")
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
    def from_terms(n, components):
        comps = tuple(
            tuple((tuple(int(e) for e in exps), complex(c)) for exps, c in comp)
            for comp in components
        )
        return PolyMap(n=n, components=comps)

    @staticmethod
    def from_coeffs_1d(coeffs):
        """1-D map from dense coefficients, low degree first."""
        terms = [((k,), complex(c)) for k, c in enumerate(coeffs) if c != 0]
        return PolyMap.from_terms(1, [terms])

    # -- structure ------------------------------------------------------

    def degree(self):
        """Maximal total degree over all components (0 for empty)."""
        degs = [sum(e) for comp in self.components for e, _ in comp]
        return max(degs) if degs else 0

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
        value, jac, steps = map_kernel(self, p, m, jacobian=True)
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
        return {"n": self.n, "components": comps}

    @staticmethod
    def from_json_dict(d):
        """The map of a `to_json_dict` document.  Any other top-level key
        is a ValueError, so that no part of a document goes unread."""
        if not isinstance(d, dict):
            raise ValueError("a map is a JSON object")
        extra = set(d) - {"n", "components"}
        if extra:
            raise ValueError(f"unknown map keys {sorted(extra, key=str)}")
        comps = [
            [(tuple(t["exps"]), complex(t.get("re", 0.0), t.get("im", 0.0)))
             for t in comp]
            for comp in d["components"]
        ]
        return PolyMap.from_terms(int(d["n"]), comps)


@dataclass(frozen=True)
class Jet:
    """Map value together with the n x n Jacobian at the same point."""

    value: np.ndarray
    jacobian: np.ndarray


# ---------------------------------------------------------------------------
# dual-number kernels


def _as_points(p, n):
    """p, one point (n,) or a batch (..., n), as a batch, and whether it was
    one point, which becomes a (1, n) batch.  Any other shape, a 0-d point
    on a 1-D map included, is a ValueError."""
    p = np.asarray(p, dtype=complex)
    if p.shape[-1:] != (n,):
        raise ValueError(f"point of shape {p.shape} for a map of dimension {n}")
    bare = p.ndim == 1
    return (p.reshape(1, n) if bare else p), bare


def map_kernel(pmap, p, m=1, jacobian=False):
    """f^m at a batch of points, with overflow as a mask, not an error.

    ``p`` is one point (n,) or a batch (..., n).  ``m`` >= 1 is an int or
    one count per point, non-increasing along an (S, n) batch (else
    ValueError, checked over the whole batch): step k maps only the prefix
    with m > k, so rows keep their int-m bits.  ``jacobian`` is a bool (any
    other value is a TypeError, so that a 1x1 array is not read as its
    truth value).  Returns ``(value, jac, steps)``:

    * ``value`` (..., n) is f^m(p);
    * ``jac`` is None without ``jacobian``; with it, jac (..., n, n) is the
      Jacobian of f^m, the step Jacobians' product J_m ... J_1: step 0
      takes J_1 itself and step k multiplies J_(k+1) in on the left, which
      keeps ``jet`` and ``iterated_jet`` bit-identical to their
      step-by-step definitions;
    * ``steps`` (...) counts the steps each point made inside the finite
      range (every value and Jacobian entry finite, |value| <= 1e150).  A
      point is ok where ``steps == m``; otherwise its value and Jacobian
      mean nothing.

    A point's bits do not depend on the rest of the batch, so a caller
    drops the points that are not ok and keeps the rest (``orbits`` and
    ``julia`` call ``_step``, which holds the finite-range rule, on their
    own batches).  For the same reason an (S, n) batch of more than
    ``_BLOCK_ROWS`` rows runs one row block at a time, its per-point m
    sliced along, so that a block's temporaries stay in L2: that changes
    no bit.  A bare (n,) point is a (1, n) batch, squeezed on return, so
    it has the bits of its row in any batch.
    """
    if not isinstance(jacobian, bool):
        raise TypeError(f"jacobian must be a bool, not {type(jacobian)}")
    p, bare = _as_points(p, pmap.n)
    m = np.asarray(m)
    if (m < 1).any():
        raise ValueError("m must be >= 1")
    if m.ndim and (m.shape != (len(p),) or p.ndim != 2
                   or (m[1:] > m[:-1]).any()):
        raise ValueError("a per-point m must be non-increasing, one per row "
                         "of an (S, n) batch")
    steps = np.full(p.shape[:-1], m)
    if p.ndim == 2 and len(p) > _BLOCK_ROWS:
        x = np.empty_like(p)
        jac = np.empty(p.shape + (pmap.n,), dtype=complex) if jacobian else None
        for s in range(0, len(p), _BLOCK_ROWS):
            rows = slice(s, s + _BLOCK_ROWS)
            x[rows], J, steps[rows] = map_kernel(
                pmap, p[rows], m[rows] if m.ndim else m, jacobian)
            if jacobian:
                jac[rows] = J
        return x, jac, steps
    with np.errstate(over="ignore", invalid="ignore"):
        x, jac, _, ok = _step(pmap, p, jacobian)  # every point makes step 0
        steps[~ok] = 0
        for k in range(1, m.max(initial=1)):
            live = ... if m.ndim == 0 else slice(np.count_nonzero(m > k))
            v, J, _, ok = _step(pmap, x[live], jacobian)
            x[live] = v
            if jacobian:
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
        raise MapOverflowError(
            f"numeric overflow at orbit index {int(steps.min())}")


def _step(pmap, p, jacobian):
    """f once at points p (..., n), under the caller's errstate: (value,
    Jacobian or None, sup-norm of value, ok).  ok is the finite-range rule:
    value and Jacobian finite, sup-norm <= 1e150 (NaN fails it too).

    f(p) and, when `jacobian`, Df(p) come from forward-mode duals over the
    term table.  The derivative sweep only reads each term's running
    product, so the value has the same bits either way."""
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
    norm = sup_norm(value)
    ok = norm <= _FINITE_LIMIT
    if jacobian:
        ok &= np.isfinite(jac).all(axis=(-2, -1))
    return value, jac, norm, ok


# ---------------------------------------------------------------------------
# escape bounds


def escape_radius(pmap):
    """Conservative R with ||p||_inf > R  =>  ||f(p)||_inf >= 2 ||p||_inf.

    Coefficient-bound estimate: for each coordinate j, component j must
    contain a pure z_j^d term (d >= 2) dominating the rest of its terms,
    which all must have total degree <= d-1.  For the argmax coordinate
    that term then outgrows everything else once ||p||_inf is large.
    """
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

    def lattice(self, ticks):
        """`to_complex` of the product of one tick array per real axis,
        (prod of tick counts, n), row-major (last real axis fastest): every
        grid of points in endolab is one of these lattices."""
        mesh = np.meshgrid(*ticks, indexing="ij")
        return self.to_complex(np.stack([m.ravel() for m in mesh], axis=-1))

    def grid_centers(self, per_axis, fixed=()):
        """Cell centers lo + w (i + 1/2) of a regular subdivision into
        per_axis cells per free real axis, the last len(fixed) real axes
        pinned at the values `fixed`: the `lattice` of those ticks,
        (per_axis^(2n - len(fixed)), n) complex."""
        free = 2 * self.n - len(fixed)
        ticks = (self.lo[:free, None] + self.widths[:free, None] / per_axis
                 * (np.arange(per_axis) + 0.5))
        return self.lattice([*ticks, *np.reshape(fixed, (-1, 1))])


def _read_only(values):
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a
