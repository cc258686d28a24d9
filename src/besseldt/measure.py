"""The measure space ((0,inf), |.|, dm_lam) with dm_lam = y^(2*lam) dy.

Interval masses, comparability diagnostics, weighted Lebesgue norms, BMO over
a dyadic interval family and Muckenhoupt A_p characteristics for power
weights.  Integrals of piecewise-linear data against power weights are done
with exact antiderivatives; only genuinely non-polynomial integrands
(|f|^q for fractional q, callable-backed functions) fall back to per-cell
Gauss rules aligned with the sample grid.

Every integral of f over intervals takes one batched path: the cells of
all the intervals are laid out in one numpy pass (searchsorted into f's
grid and breakpoints), f is evaluated once on all their nodes and
per-interval sums are taken over the cells (_q_integrals, _signed_integrals).
_batched clips the intervals to f's support and groups them into blocks of
about _CELL_CHUNK cells, which bounds the memory.  The maximal function's
thousands of averages, a BMO family, the log-growth averages and a single
norm go through the same code; masses, A_p averages and comparability
ratios are exact power integrals over arrays of interval ends.

bmo_norm makes two such passes over its family: the signed means c_k, then
|f - c_k| with a shift of one c_k per interval (subtracted from the linear
pieces of a sampled f, from the values of a callable f in the Gauss cells).
Outside f's support |f - c_k| = |c_k|, and that part is added as
|c_k| m(I_k minus supp f) from exact power integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .functions import SampledFunction
from .quadrature import gauss_panels, jacobi_rule


@dataclass(frozen=True)
class LambdaSpace:
    """Half line with measure y^(2*lam) dy, lam > 0."""

    lam: float

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("lam must be positive and finite")

    @property
    def weight_exponent(self) -> float:
        return 2.0 * self.lam

    @property
    def dimension(self) -> float:
        """Homogeneous dimension: m(I(x, r)) ~ r^dimension for x <= r."""
        return 2.0 * self.lam + 1.0


@dataclass(frozen=True)
class Interval:
    """I(x, r) = (x - r, x + r) intersected with (0, inf), in canonical form.

    If x < r the interval equals (0, x + r) and is stored with center =
    radius = (x + r)/2, so center >= radius always holds after init.
    """

    center: float
    radius: float

    def __post_init__(self):
        x, r = float(self.center), float(self.radius)
        if not (r > 0 and math.isfinite(r) and math.isfinite(x)):
            raise ValueError("radius must be positive and finite")
        if x < r:
            half = 0.5 * (x + r)
            x, r = half, half
        object.__setattr__(self, "center", x)
        object.__setattr__(self, "radius", r)

    @property
    def left(self) -> float:
        return self.center - self.radius

    @property
    def right(self) -> float:
        return self.center + self.radius


@dataclass(frozen=True)
class PowerWeight:
    """omega(y) = y^delta."""

    delta: float

    def __call__(self, y):
        return np.asarray(y, dtype=float) ** self.delta

    def ap_bounds(self, space: LambdaSpace, p: float) -> tuple[float, float]:
        """Admissible delta range for membership in A_p(dm_lam)."""
        if not p > 1:
            raise ValueError("A_p requires p > 1")
        d = space.dimension
        return -d, d * (p - 1.0)

    def in_ap(self, space: LambdaSpace, p: float) -> bool:
        lo, hi = self.ap_bounds(space, p)
        return lo < self.delta < hi


# --------------------------------------------------------------------------
# exact power-integral primitives

def power_integral(a: float, b: float, p: float) -> float:
    """integral_a^b y^p dy, exact antiderivative; a >= 0, b >= a."""
    if b <= a:
        return 0.0
    return float(_power_integrals(np.float64(a), np.float64(b), p))


def measure_interval(space: LambdaSpace, iv: Interval) -> float:
    """m_lam(I) via the exact antiderivative."""
    return power_integral(iv.left, iv.right, space.weight_exponent)


@dataclass(frozen=True)
class ComparabilityReport:
    ratio_min: float
    ratio_max: float
    n_points: int
    spans_three_decades: bool


def comparability_check(space: LambdaSpace, sweep) -> ComparabilityReport:
    """Ratios m(I(x,r)) / (x^(2 lam) r + r^(2 lam + 1)) over a sweep of (x, r).

    The sweep is an iterable of pairs.  Whether it spans three decades in both
    coordinates is recorded as a flag (degenerate sweeps are allowed).
    """
    pts = np.array(list(sweep), dtype=float)
    if pts.size == 0:
        raise ValueError("sweep must be nonempty")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("sweep must be a sequence of (x, r) pairs")
    x, r = pts.T
    if not (np.all(x > 0) and np.all(r > 0)):
        raise ValueError("sweep points must be positive")
    ratios = interval_masses(space, x, r) / (
        x ** space.weight_exponent * r + r ** space.dimension)
    spans = (x.max() / x.min() >= 1e3) and (r.max() / r.min() >= 1e3)
    return ComparabilityReport(float(ratios.min()), float(ratios.max()),
                               x.size, bool(spans))


# --------------------------------------------------------------------------
# integration of SampledFunctions over intervals
#
# Integrals over many intervals run as one batch.  Each interval [A, B] is cut
# into cells whose edges are A, B and the alignment points of f strictly
# inside; the cells of all intervals form one flat list (`owner` gives each
# cell's interval), and per-interval results are sums over their cells.

#: cells per block of a batched integral (whole intervals are added to a
#: block until it holds this many); with at most 32 Gauss nodes per cell it
#: bounds the memory of one block
_CELL_CHUNK = 512


def _power_integrals(a, b, p):
    """integral_a^b y^p dy elementwise over arrays with b > a >= 0 (inf where
    it diverges at a = 0).  With L = log1p((b-a)/a) = log(b/a) and q = p+1
    it is L for q = 0, else b^q (1 - e^(-qL)) / q or a^q (e^(qL) - 1) / q,
    whichever power does not grow with L: full relative precision on narrow
    intervals far from 0, where b^q - a^q would cancel."""
    q = p + 1.0
    with np.errstate(divide="ignore"):
        L = np.log1p((b - a) / a)
        if q == 0.0:
            return L
        if q > 0.0:
            return b ** q * -np.expm1(-q * L) / q
        return a ** q * np.expm1(q * L) / q


def _power_integrals_or_zero(a, b, p):
    """_power_integrals where b > a, else 0 (it is nan at a = b = 0)."""
    out = np.zeros(a.shape)
    on = b > a
    out[on] = _power_integrals(a[on], b[on], p)
    return out


def _alignment_points(f):
    """Sorted points where the cells of an integral of f are cut: the grid,
    and for callable-backed f also its breakpoints."""
    if f.func is None:
        return f.grid
    return np.union1d(f.grid, np.asarray(f.breakpoints, dtype=float))


def _cells(pts, A, B):
    """Cells of the intervals [A_k, B_k] (B_k > A_k): the edges of interval k
    are A_k, the points of the sorted array `pts` strictly inside it, and B_k.
    Returns flat arrays (owner, a, b), cells in interval order, left to
    right."""
    lo = np.searchsorted(pts, A, side="right")
    count = np.searchsorted(pts, B, side="left") - lo + 1
    owner = np.repeat(np.arange(A.size), count)
    pos = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    k = lo[owner] + pos
    a = np.where(pos == 0, A[owner], pts[k - 1])
    b = np.where(pos == count[owner] - 1, B[owner],
                 pts[np.minimum(k, pts.size - 1)])
    return owner, a, b


def _gauss_cells(a, b, p, values, n):
    """Per cell [a_i, b_i], the n-node Gauss sum of values * y^p on the
    nodes and weights of quadrature.gauss_panels (Gauss-Jacobi absorbing
    y^p, which is not smooth at 0, on cells at 0); `values(y)` gives the
    integrand at the nodes y, one row per cell."""
    y, w = gauss_panels(a, b, n, p)
    return np.sum(w * values(y), axis=1)


def _gl_cells(f, A, B, p, transform):
    """integral_{A_k}^{B_k} transform(f(y), owner) y^p dy for arrays of
    interval ends, by 24-node Gauss-Legendre cells aligned with f's grid
    and breakpoints (callable-backed f); transform gets f's values one row
    per cell and the interval of each cell."""
    owner, a, b = _cells(_alignment_points(f), A, B)
    cell = _gauss_cells(a, b, p, lambda y: transform(
        f(y.ravel()).reshape(y.shape), owner), 24)
    return np.bincount(owner, cell, minlength=A.size)


def _linear_pieces(f, A, B):
    """Sample-backed f on the cells of [A_k, B_k] cut at f's grid: flat
    arrays (owner, a, b, alpha, beta) with f = alpha*y + beta on [a, b],
    tails following f's policies."""
    g, v = f.grid, f.values
    owner, a, b = _cells(g, A, B)
    slope = np.diff(v) / np.diff(g)
    alpha = np.concatenate([[0.0], slope, [0.0]])
    beta = np.concatenate([[v[0] if f.left == "hold" else 0.0],
                           v[:-1] - slope * g[:-1],
                           [v[-1] if f.right == "hold" else 0.0]])
    seg = np.searchsorted(g, a, side="right")
    return owner, a, b, alpha[seg], beta[seg]


def _split_at_zeros(owner, a, b, alpha, beta):
    """Cut each linear piece where alpha*y + beta changes sign inside it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        y0 = -beta / alpha
    cut = (alpha != 0.0) & (a < y0) & (y0 < b)
    n = 1 + cut
    idx = np.repeat(np.arange(a.size), n)
    second = np.zeros(idx.size, dtype=bool)
    second[np.cumsum(n)[cut] - 1] = True
    first = cut[idx] & ~second
    return (owner[idx], np.where(second, y0[idx], a[idx]),
            np.where(first, y0[idx], b[idx]), alpha[idx], beta[idx])


def _linear_integrals(a, b, alpha, beta, p):
    """integral_a^b (alpha*y + beta) y^p dy per piece, exact."""
    return (alpha * _power_integrals(a, b, p + 1.0)
            + beta * _power_integrals(a, b, p))


def _abs_linear_integrals(a, b, alpha, beta, p):
    """integral_a^b |alpha*y + beta| y^p dy per piece that does not change
    sign (see _split_at_zeros), exact."""
    mid = 0.5 * (a + b)
    sign = np.where(alpha * mid + beta >= 0, 1.0, -1.0)
    return sign * _linear_integrals(a, b, alpha, beta, p)


def _zero_end_q_integrals(a, b, fa, fb, q, p, n):
    """integral_a^b |f(y)|^q y^p dy per piece on which f is linear from fa
    to fb, keeps its sign and vanishes at exactly one end y0.  There
    |f|^q = |f(other end)|^q (|y - y0| / (b - a))^q is not smooth at y0, and
    an n-node Gauss-Jacobi rule absorbs |y - y0|^q.  Such a piece never
    starts at 0: a sampled grid is positive and f is constant below it."""
    out = np.empty(a.size)
    half = 0.5 * (b - a)
    for left_zero in (False, True):
        rows = np.flatnonzero((fa == 0.0) == left_zero)
        # weight (1 - u)^q at a zero end b, (1 + u)^q at a zero end a
        xj, wj = jacobi_rule(n, *((0.0, q) if left_zero else (q, 0.0)))
        y = a[rows, None] + half[rows, None] * (1.0 + xj)
        other = (fb if left_zero else fa)[rows]
        out[rows] = (half[rows] * (0.5 * np.abs(other)) ** q
                     * np.sum(wj * y ** p, axis=1))
    return out


def _signed_integrals(f, A, B, p):
    """integral_{A_k}^{B_k} f(y) y^p dy for arrays of interval ends with
    B > A; exact on sample-backed f."""
    if f.func is not None:
        return _gl_cells(f, A, B, p, lambda t, owner: t)
    owner, a, b, al, be = _linear_pieces(f, A, B)
    return np.bincount(owner, _linear_integrals(a, b, al, be, p),
                       minlength=A.size)


def _q_integrals(f, A, B, q, p, shift=None):
    """integral_{A_k}^{B_k} |f(y) - shift_k|^q y^p dy (shift 0 when None)
    for arrays of interval ends with B > A; exact for q in {1, 2} on
    sample-backed f.  For other q a piece of a sample-backed f that ends at
    a zero of f - shift_k gets a Gauss-Jacobi rule absorbing the zero
    (_zero_end_q_integrals), the others 16-node Gauss."""
    if f.func is not None:
        if shift is None:
            return _gl_cells(f, A, B, p, lambda t, owner: np.abs(t) ** q)
        return _gl_cells(f, A, B, p, lambda t, owner: (
            np.abs(t - shift[owner, None]) ** q))
    owner, a, b, al, be = _linear_pieces(f, A, B)
    if shift is not None:
        be = be - shift[owner]
    if q == 2.0:
        piece = (al * al * _power_integrals(a, b, p + 2.0)
                 + 2.0 * al * be * _power_integrals(a, b, p + 1.0)
                 + be * be * _power_integrals(a, b, p))
        return np.bincount(owner, piece, minlength=A.size)
    owner, a, b, al, be = _split_at_zeros(owner, a, b, al, be)
    if q == 1.0:
        piece = _abs_linear_integrals(a, b, al, be, p)
    else:
        # f(a), f(b), with a rounding-level value set to the zero it stands for
        fa, fb = al * a + be, al * b + be
        tiny = 4.0 * np.finfo(float).eps * (np.abs(al) * b + np.abs(be))
        fa[np.abs(fa) <= tiny] = 0.0
        fb[np.abs(fb) <= tiny] = 0.0
        zero_end = (fa == 0.0) != (fb == 0.0)
        piece = np.zeros(a.size)
        smooth = np.flatnonzero(~zero_end & (fa != 0.0))
        als, bes = al[smooth, None], be[smooth, None]
        piece[smooth] = _gauss_cells(
            a[smooth], b[smooth], p, lambda y: np.abs(als * y + bes) ** q, 16)
        piece[zero_end] = _zero_end_q_integrals(
            a[zero_end], b[zero_end], fa[zero_end], fb[zero_end], q, p, 16)
    return np.bincount(owner, piece, minlength=A.size)


def _batched(f, left, right, integrals):
    """Integrals over the intervals (left_k, right_k) clipped to f's
    support, [A_k, B_k]: integrals(idx, A, B) gives them for the intervals
    idx, one call per block of whole intervals with about _CELL_CHUNK cells;
    an interval that misses the support gets 0."""
    slo, shi = f.support()
    A = np.maximum(np.asarray(left, dtype=float), slo)
    B = np.minimum(np.asarray(right, dtype=float), shi)
    live = np.flatnonzero(B > A)
    out = np.zeros(A.shape)
    pts = _alignment_points(f)
    cells = (np.searchsorted(pts, B[live], side="left")
             - np.searchsorted(pts, A[live], side="right") + 1)
    block = (np.cumsum(cells) - cells) // _CELL_CHUNK
    for idx in np.split(live, np.flatnonzero(np.diff(block)) + 1):
        out[idx] = integrals(idx, A[idx], B[idx])
    return out


def interval_q_integrals(space: LambdaSpace, f: SampledFunction, left, right,
                         q: float) -> np.ndarray:
    """integral over (left_k, right_k) of |f|^q dm_lam for arrays of interval
    ends; exact for q in {1, 2} on sampled f."""
    if q < 1.0:
        raise ValueError("q must be at least 1")
    p = space.weight_exponent
    return _batched(f, left, right,
                    lambda idx, A, B: _q_integrals(f, A, B, q, p))


def _interval_ends(x, r):
    """Ends of I(x, r) for broadcast arrays of centers and radii,
    canonicalized with the float operations of Interval."""
    x, r = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(r, dtype=float))
    if not (np.all(r > 0) and np.all(np.isfinite(r))
            and np.all(np.isfinite(x))):
        raise ValueError("radius must be positive and finite")
    inside = x < r
    half = 0.5 * (x + r)
    x, r = np.where(inside, half, x), np.where(inside, half, r)
    return x - r, x + r


def interval_masses(space: LambdaSpace, x, r) -> np.ndarray:
    """m_lam(I(x, r)) for broadcast arrays of centers and radii."""
    return _power_integrals(*_interval_ends(x, r), space.weight_exponent)


def interval_q_averages(space: LambdaSpace, f: SampledFunction, x, r,
                        q: float) -> np.ndarray:
    """q-averages (1/m(I)) integral_I |f|^q dm_lam over I = I(x, r), for
    broadcast arrays of centers and radii (canonicalized as by Interval)."""
    left, right = _interval_ends(x, r)
    mass = _power_integrals(left, right, space.weight_exponent)
    return (interval_q_integrals(space, f, left.ravel(), right.ravel(), q)
            .reshape(left.shape) / mass)


def _family_ends(family):
    """Ends (left, right) of the intervals of a nonempty family, as arrays."""
    ends = np.array([(iv.left, iv.right) for iv in family], dtype=float)
    if ends.size == 0:
        raise ValueError("interval family must be nonempty")
    return ends[:, 0], ends[:, 1]


def bmo_norm(space: LambdaSpace, f: SampledFunction,
             family: Iterable[Interval]) -> float:
    """Max mean oscillation (1/m(I)) integral_I |f - f_I| dm_lam over the
    interval family (a BMO surrogate), f_I the dm-average over I."""
    left, right = _family_ends(family)
    p = space.weight_exponent
    mass = _power_integrals(left, right, p)
    c = _batched(f, left, right,
                 lambda idx, A, B: _signed_integrals(f, A, B, p)) / mass
    osc = _batched(f, left, right,
                   lambda idx, A, B: _q_integrals(f, A, B, 1.0, p, c[idx]))
    # outside the support f = 0, so |f - c| = |c| there
    slo, shi = f.support()
    below = _power_integrals_or_zero(left, np.clip(slo, left, right), p)
    above = _power_integrals_or_zero(np.clip(shi, left, right), right, p)
    return float(np.max((osc + np.abs(c) * (below + above)) / mass))


def dyadic_family(k_range=(-4, 4), m_range=(-4, 2)) -> tuple[Interval, ...]:
    """Intervals I(2^k, 2^m) over the given index ranges, canonicalized."""
    out = {}
    for k in range(k_range[0], k_range[1] + 1):
        for m in range(m_range[0], m_range[1] + 1):
            iv = Interval(2.0 ** k, 2.0 ** m)
            out[(iv.center, iv.radius)] = iv
    return tuple(out[key] for key in sorted(out))


def lp_norm(space: LambdaSpace, f: SampledFunction, p: float,
            weight: Optional[PowerWeight] = None) -> float:
    """L^p(omega dm_lam) norm.  p = inf takes the max over the sample grid.

    Returns inf when a nonzero hold-tail makes the integral diverge.
    """
    if not (p >= 1.0):
        raise ValueError("p must be >= 1 (or inf)")
    if math.isinf(p):
        return float(np.max(np.abs(f.values)))
    delta = weight.delta if weight is not None else 0.0
    pw = space.weight_exponent + delta
    slo, shi = f.support()
    if math.isinf(shi):
        return math.inf
    if slo == 0.0 and pw <= -1.0:
        return math.inf
    total = _q_integrals(f, np.array([slo]), np.array([shi]), p, pw)[0]
    return float(total) ** (1.0 / p)


def ap_characteristic(space: LambdaSpace, weight: PowerWeight, p: float,
                      family: Iterable[Interval]) -> float:
    """sup over the family of (avg_I omega) (avg_I omega^(-1/(p-1)))^(p-1),
    averages taken against dm_lam; exact power antiderivatives throughout."""
    if not (1.0 < p < math.inf):
        raise ValueError("p must be in (1, inf)")
    fam = list(family)
    left, right = _family_ends(fam)
    d = space.weight_exponent
    e1 = d + weight.delta
    e2 = d - weight.delta / (p - 1.0)
    at_zero = np.flatnonzero(left == 0.0)
    if at_zero.size and (e1 <= -1.0 or e2 <= -1.0):
        raise ValueError(f"weight y^{weight.delta} not integrable on "
                         f"{fam[at_zero[0]]} for p={p}")
    m = _power_integrals(left, right, d)
    a1 = _power_integrals(left, right, e1) / m
    a2 = _power_integrals(left, right, e2) / m
    return float(np.max(a1 * a2 ** (p - 1.0), initial=0.0))
