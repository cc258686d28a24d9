"""The measure space ((0,inf), |.|, dm_lam) with dm_lam = y^(2*lam) dy.

Masses of intervals, weighted Lebesgue norms, BMO over a dyadic interval family
and the A_p range of power weights.  Integrals of piecewise-linear data
against power weights are done with exact antiderivatives; only genuinely
non-polynomial integrands (|f|^q for fractional q, callable-backed
functions) fall back to per-cell Gauss rules aligned with the sample grid.

An interval is a pair of ends (left, right), and a family of them two
arrays.  The interval I(x, r) = (x - r, x + r) intersected with (0, inf) is
canonicalized in one place, _interval_ends: for x < r it is (0, x + r),
with center = radius = (x + r)/2.

Every integral of f over intervals takes one batched path, _batched: it
clips the intervals to f's support and cuts them into cells at f's grid
and breakpoints (searchsorted), and each interval's value is the sum of its
cells, left to right.  A sample-backed f is integrated on its linear pieces
(_linear_pieces, _q_integrals), in blocks of about _SAMPLED_CELLS cells.
On a callable-backed f (_gl_cells) a Gauss cell between two neighbouring
alignment points is built and summed once per call, however many intervals
span it; only each interval's two end cells are its own.  f is evaluated
once on every distinct cell's nodes, _CELL_CHUNK rows at a time, which
bounds the memory.  The maximal function's thousands of averages, a BMO
family, the log-growth averages and a single norm go through the same code;
masses are exact power integrals over arrays of interval ends.

Norms of many value rows on one grid (lp_norms) are one batch of linear
pieces: each row is one interval, its support, with its own slopes, and
bincount sums each row's pieces left to right, so a row has the bits of its
own lp_norm call.

bmo_norm makes two such passes over its family: the signed means c_k, then
|f - c_k| with a shift of one c_k per interval (subtracted from the linear
pieces of a sampled f, from the values of a callable f in the Gauss cells,
where a shared cell keeps its nodes' weights and f values and each interval
sums its own row).
Outside f's support |f - c_k| = |c_k|, and that part is added as
|c_k| m(I_k minus supp f) from exact power integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
class PowerWeight:
    """omega(y) = y^delta."""

    delta: float

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
# integration of SampledFunctions over intervals
#
# Integrals over many intervals run as one batch.  Each interval [A, B] is cut
# into cells whose edges are A, B and the alignment points of f strictly
# inside (f's grid, and for a callable-backed f also its breakpoints); per
# interval the result is the sum of its cells, left to right.

#: Gauss rows per gauss_panels call of a batched integral of a
#: callable-backed f: with at most 32 nodes a row it bounds the memory of
#: one call.  Blocks of whole intervals bound the rest: about as many
#: entries as the nodes of this many 24-node rows, counting 24 for each end
#: row and, per (interval, cell) pair, 1 for its gathered sum or, under a
#: shift, 24 for its gathered row
_CELL_CHUNK = 512

#: cells per block of whole intervals of a batched integral of a
#: sample-backed f: bounds the memory of its linear pieces.  perfbench's
#: maximal workload takes M(T_(-M,M) f) over 1,322 cells a call, one block
#: at this size and three at 512
_SAMPLED_CELLS = 4096


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
    """Sorted points where the Gauss cells of a callable-backed f are cut:
    its grid and its breakpoints."""
    return np.union1d(f.grid, np.asarray(f.breakpoints, dtype=float))


def _blocks(cost, budget):
    """Slices of consecutive items, one starting wherever the cost of the
    items before it reaches a multiple of budget; none for no items."""
    block = (np.cumsum(cost) - cost) // budget
    bounds = [0, *(np.flatnonzero(block[1:] != block[:-1]) + 1).tolist(),
              cost.size]
    return [slice(s, e) for s, e in zip(bounds, bounds[1:]) if e > s]


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


def _gl_cells(f, pts, A, B, p, q=None, shift=None):
    """integral_{A_k}^{B_k} |f(y) - shift_k|^q y^p dy (shift 0 when None),
    or f(y) y^p dy when q is None, for arrays of interval ends with B > A:
    a callable-backed f on 24-node Gauss-Legendre cells, the cells of
    _cells on f's sorted alignment points pts.

    Each cell is built once per call.  A gap [pts[g], pts[g+1]] is one row,
    shared by every interval that spans it; each interval's first and last
    cell are rows of their own.  The intervals go in blocks; a block builds
    its end rows and the gaps it is the first to span, _CELL_CHUNK rows per
    gauss_panels call and f evaluation, and sums each row.  Under a shift
    the gap rows keep their weights and f values, and each (interval, gap)
    pair sums its own row of |f - shift_k|^q.  Each interval's value is the
    bincount of its cell sums, left to right, so no sum depends on the
    batch."""
    n_gaps = pts.size - 1
    # per gap its row sum, and under a shift its weights and f values; the
    # spare last entry stands in for the end cells, which read their own rows
    gap_sum = np.zeros(n_gaps + 1)
    built = np.zeros(n_gaps, dtype=bool)
    if shift is not None:
        gap_w, gap_f = np.zeros((n_gaps + 1, 24)), np.zeros((n_gaps + 1, 24))

    def values(t):
        return t if q is None else np.abs(t) ** q

    def row_sums(new, a, b, row_shift):
        # the rows [a_i, b_i], the first new.size of them the gaps new
        y, w = gauss_panels(a, b, 24, p)
        t = f(y.ravel()).reshape(y.shape)
        if shift is not None:
            gap_w[new], gap_f[new] = w[:new.size], t[:new.size]
            t = t - row_shift[:, None]
        return np.sum(w * values(t), axis=1)

    def block_integrals(idx):
        lo_b, n, A_b, B_b = lo[idx], count[idx], A[idx], B[idx]
        two = np.flatnonzero(n > 1)
        # the gaps lo_k, ..., lo_k + n_k - 3 spanned by the intervals
        spans = n > 2
        new = np.flatnonzero(~built & (np.cumsum(
            np.bincount(lo_b[spans], minlength=n_gaps + 1)
            - np.bincount(lo_b[spans] + n[spans] - 2,
                          minlength=n_gaps + 1))[:-1] > 0))
        built[new] = True
        # rows: the new gaps, the first cells, then the last cells
        a = np.concatenate([pts[new], A_b, pts[lo_b[two] + n[two] - 2]])
        b = np.concatenate([pts[new + 1],
                            np.where(n > 1, pts[np.minimum(lo_b, n_gaps)],
                                     B_b),
                            B_b[two]])
        if shift is not None:
            shift_b = shift[idx]
            row_shift = np.concatenate([np.zeros(new.size), shift_b,
                                        shift_b[two]])
        # one row_sums call per chunk: its nodes are freed before the next
        chunks = (slice(s, s + _CELL_CHUNK)
                  for s in range(0, a.size, _CELL_CHUNK))
        sums = np.concatenate([
            row_sums(new[c], a[c], b[c],
                     None if shift is None else row_shift[c])
            for c in chunks])
        gap_sum[new] = sums[:new.size]
        # cell j of interval k lies on gap lo_k + j - 1, unless it is an end
        start = np.cumsum(n) - n
        owner = np.repeat(np.arange(n.size), n)
        g = np.arange(owner.size) - np.repeat(start - lo_b + 1, n)
        if shift is None:
            cell = gap_sum[g]
        else:
            cell = np.sum(gap_w[g] * values(gap_f[g] - shift_b[owner, None]),
                          axis=1)
        cell[start] = sums[new.size:new.size + n.size]
        cell[start[two] + n[two] - 1] = sums[new.size + n.size:]
        return np.bincount(owner, cell, minlength=n.size)

    lo = np.searchsorted(pts, A, side="right")
    count = np.searchsorted(pts, B, side="left") - lo + 1
    out = np.empty(A.size)
    for idx in _blocks(48 + count * (1 if shift is None else 24),
                       24 * _CELL_CHUNK):
        out[idx] = block_integrals(idx)
    return out


def _linear_pieces(g, v, left, right, A, B):
    """The linear interpolant of the values v on the grid g, with the tail
    policies left and right, on the cells of [A_k, B_k] cut at g: flat
    arrays (owner, a, b, alpha, beta) with it alpha*y + beta on [a, b].
    v is one row of values that every interval reads, or one row per
    interval (2-d), which then indexes alpha and beta by owner."""
    owner, a, b = _cells(g, A, B)
    slope = np.diff(v) / np.diff(g)
    zero = np.zeros((*v.shape[:-1], 1))
    alpha = np.concatenate([zero, slope, zero], axis=-1)
    beta = np.concatenate([v[..., :1] if left == "hold" else zero,
                           v[..., :-1] - slope * g[:-1],
                           v[..., -1:] if right == "hold" else zero], axis=-1)
    seg = np.searchsorted(g, a, side="right")
    at = seg if v.ndim == 1 else (owner, seg)
    return owner, a, b, alpha[at], beta[at]


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


def _q_integrals(pieces, n, q, p, shift=None):
    """integral_{A_k}^{B_k} |f(y) - shift_k|^q y^p dy (shift 0 when None)
    over n intervals, k < n, from the linear pieces of f on their cells
    (_linear_pieces); exact for q in {1, 2}.  For other q a piece that ends
    at a zero of f - shift_k gets a Gauss-Jacobi rule absorbing the zero
    (_zero_end_q_integrals), the others 16-node Gauss
    (quadrature.gauss_panels).  Each interval's value is the bincount of
    its pieces, left to right, so it does not depend on the batch."""
    owner, a, b, al, be = pieces
    if shift is not None:
        be = be - shift[owner]
    if q == 2.0:
        piece = (al * al * _power_integrals(a, b, p + 2.0)
                 + 2.0 * al * be * _power_integrals(a, b, p + 1.0)
                 + be * be * _power_integrals(a, b, p))
        return np.bincount(owner, piece, minlength=n)
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
        y, w = gauss_panels(a[smooth], b[smooth], 16, p)
        piece[smooth] = np.sum(
            w * np.abs(al[smooth, None] * y + be[smooth, None]) ** q, axis=1)
        piece[zero_end] = _zero_end_q_integrals(
            a[zero_end], b[zero_end], fa[zero_end], fb[zero_end], q, p, 16)
    return np.bincount(owner, piece, minlength=n)


def _batched(f, left, right, p, q=None, shift=None):
    """integral_{A_k}^{B_k} |f(y) - shift_k|^q y^p dy (shift 0 when None),
    or f(y) y^p dy when q is None, over the intervals (left_k, right_k)
    clipped to f's support, [A_k, B_k]; an interval that misses the support
    gets 0.  A callable-backed f takes one _gl_cells call over all of them,
    on its grid and breakpoints; a sample-backed f one call per block of
    whole intervals with about _SAMPLED_CELLS cells."""
    slo, shi = f.support()
    A = np.maximum(np.asarray(left, dtype=float), slo)
    B = np.minimum(np.asarray(right, dtype=float), shi)
    out = np.zeros(A.shape)
    live = np.flatnonzero(B > A)
    A, B = A[live], B[live]
    if shift is not None:
        shift = shift[live]
    if f.func is not None:
        out[live] = _gl_cells(f, _alignment_points(f), A, B, p, q, shift)
        return out
    cells = (np.searchsorted(f.grid, B, side="left")
             - np.searchsorted(f.grid, A, side="right") + 1)
    for idx in _blocks(cells, _SAMPLED_CELLS):
        pieces = _linear_pieces(f.grid, f.values, f.left, f.right, A[idx],
                                B[idx])
        n = idx.stop - idx.start
        if q is None:
            owner, a, b, al, be = pieces
            out[live[idx]] = np.bincount(
                owner, _linear_integrals(a, b, al, be, p), minlength=n)
        else:
            out[live[idx]] = _q_integrals(
                pieces, n, q, p, None if shift is None else shift[idx])
    return out


def interval_q_integrals(space: LambdaSpace, f: SampledFunction, left, right,
                         q: float) -> np.ndarray:
    """integral over (left_k, right_k) of |f|^q dm_lam for arrays of interval
    ends; exact for q in {1, 2} on sampled f."""
    if q < 1.0:
        raise ValueError("q must be at least 1")
    return _batched(f, left, right, space.weight_exponent, q)


def _interval_ends(x, r):
    """Ends (left, right) of I(x, r) for broadcast arrays of centers and
    radii: (x - r, x + r), or (0, x + r) from center = radius = (x + r)/2
    where x < r.  The one canonicalization of intervals."""
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
    broadcast arrays of centers and radii (canonicalized by _interval_ends)."""
    left, right = _interval_ends(x, r)
    mass = _power_integrals(left, right, space.weight_exponent)
    return (interval_q_integrals(space, f, left.ravel(), right.ravel(), q)
            .reshape(left.shape) / mass)


def bmo_norm(space: LambdaSpace, f: SampledFunction, left, right) -> float:
    """Max mean oscillation (1/m(I)) integral_I |f - f_I| dm_lam over the
    intervals I = (left_k, right_k) of a nonempty family given by arrays of
    ends (a BMO surrogate), f_I the dm-average over I."""
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if left.size == 0:
        raise ValueError("interval family must be nonempty")
    p = space.weight_exponent
    mass = _power_integrals(left, right, p)
    c = _batched(f, left, right, p) / mass
    osc = _batched(f, left, right, p, 1.0, c)
    # outside the support f = 0, so |f - c| = |c| there
    slo, shi = f.support()
    below = _power_integrals_or_zero(left, np.clip(slo, left, right), p)
    above = _power_integrals_or_zero(np.clip(shi, left, right), right, p)
    return float(np.max((osc + np.abs(c) * (below + above)) / mass))


def dyadic_family(k_range=(-4, 4), m_range=(-4, 2)):
    """Ends (left, right) of the distinct intervals I(2^k, 2^m) over the
    inclusive index ranges, as arrays in (center, radius) order."""
    x, r = np.meshgrid(2.0 ** np.arange(k_range[0], k_range[1] + 1),
                       2.0 ** np.arange(m_range[0], m_range[1] + 1),
                       indexing="ij")
    left, right = _interval_ends(x.ravel(), r.ravel())
    # keyed by twice (center, radius), which is exact on dyadic ends
    _, first = np.unique(np.column_stack([right + left, right - left]),
                         axis=0, return_index=True)
    return left[first], right[first]


def _norm_exponent(space: LambdaSpace, p: float,
                   weight: Optional[PowerWeight]) -> float:
    """The power of y in the L^p(omega dm_lam) integrand; ValueError unless
    p >= 1 (or inf)."""
    if not (p >= 1.0):
        raise ValueError("p must be >= 1 (or inf)")
    return space.weight_exponent + (weight.delta if weight is not None
                                    else 0.0)


def lp_norms(space: LambdaSpace, grid, rows, p: float,
             weight: Optional[PowerWeight] = None, left: str = "hold",
             right: str = "zero") -> np.ndarray:
    """The L^p(omega dm_lam) norm of each row of values sampled on grid, as
    of SampledFunction(grid, row, left, right) (by default held on the left
    and zero on the right, as an operator output on a grid), from one
    batched call: each row is one interval, its support, cut at the grid,
    and bincount sums its pieces left to right, so each row has the bits
    of its own lp_norm call.  p = inf takes each row's max |value|; a row
    whose nonzero hold tail makes the integral diverge gets inf."""
    pw = _norm_exponent(space, p, weight)
    rows = np.asarray(rows, dtype=float)
    if math.isinf(p):
        return np.max(np.abs(rows), axis=1)
    grid = np.asarray(grid, dtype=float)
    # each row's support, as SampledFunction.support gives it
    lo = np.where((left == "hold") & (rows[:, 0] != 0.0), 0.0, grid[0])
    hi = np.where((right == "hold") & (rows[:, -1] != 0.0), math.inf,
                  grid[-1])
    out = np.full(rows.shape[0], math.inf)
    live = np.flatnonzero(np.isfinite(hi) & ((lo > 0.0) | (pw > -1.0)))
    totals = _q_integrals(_linear_pieces(grid, rows[live], left, right,
                                         lo[live], hi[live]),
                          live.size, p, pw)
    # Python's pow per row, as a one-row call takes it
    out[live] = [t ** (1.0 / p) for t in totals.tolist()]
    return out


def lp_norm(space: LambdaSpace, f: SampledFunction, p: float,
            weight: Optional[PowerWeight] = None) -> float:
    """L^p(omega dm_lam) norm.  p = inf takes the max over the sample grid.

    Returns inf when a nonzero hold-tail makes the integral diverge.  A
    sample-backed f is a one-row lp_norms call.
    """
    if f.func is None:
        return float(lp_norms(space, f.grid, f.values[None], p, weight,
                              f.left, f.right)[0])
    pw = _norm_exponent(space, p, weight)
    if math.isinf(p):
        return float(np.max(np.abs(f.values)))
    slo, shi = f.support()
    if math.isinf(shi) or (slo == 0.0 and pw <= -1.0):
        return math.inf
    total = _gl_cells(f, _alignment_points(f), np.array([slo]),
                      np.array([shi]), pw, p)[0]
    return float(total) ** (1.0 / p)

