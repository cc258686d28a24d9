"""Windowed differential transforms of the Poisson semigroup.

For a time sequence {a_j} and bounded weights {v_j},

    T_N f = sum_{j=N1}^{N2} v_j (P_{a_{j+1}} f - P_{a_j} f),

with windowed kernel K_N(x,y) built from the same differences.  One
generator, _window_sums, adds the terms v_j (L_{j+1} - L_j) in j order over
levels L_j: the levels P_{a_j} f of a SemigroupTable for T_N f and its
prefix sums, and kernel levels P_{a_j}(x, y) for K_N and the partial-sum
bounds.  A table reads many windows as one batch (SemigroupTable.windows):
it computes all the levels the windows lack with one apply_at call, its
(level, x) points in one radial pass, and adds every window's terms in one
pass over j, each window its own row; a single window is a batch of one.
The truncated maximal operator

    T*_M f(x) = max over -M <= N1 < N2 <= M of |T_N f(x)|

is computed from prefix sums in one linear pass.  Verification ops check the
Calderon-Zygmund-type bounds of K_N, the tail partial-sum estimate on
lacunary sequences, a Cotlar-type domination of T*_M, and the Cauchy
behaviour of T_N f along growing windows.  A sweep of Cotlar checks over
caps on one f object shares one table and one M_q f: the module keeps the
last successful call's, and a call with the same f, setup, space, quad, q
and grid fills only the levels its cap adds (cotlar_check).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .functions import SampledFunction
from .kernel import apply_at, check_tail, kernel_values
from .lacunary import LacunarySetup, is_lacunary, is_regular
from .measure import (LambdaSpace, interval_masses, interval_q_averages,
                      lp_norm)
from .quadrature import QuadratureSpec, radial_sums


@dataclass(frozen=True)
class IndexWindow:
    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 >= self.n2:
            raise ValueError("window needs n1 < n2")

    @property
    def length(self) -> int:
        return self.n2 - self.n1 + 1


@dataclass(frozen=True)
class TruncationLevel:
    m_cap: int

    def __post_init__(self):
        if self.m_cap < 1:
            raise ValueError("cap must be at least 1")


def _check_window(setup: LacunarySetup, n1: int, n2: int):
    """IndexWindow's ValueError unless n1 < n2, and IndexError unless the
    window lies in the pair range."""
    IndexWindow(n1, n2)
    if not (setup.j_min <= n1 and n2 <= setup.j_max - 1):
        raise IndexError(
            f"window ({n1}, {n2}) outside pair range "
            f"[{setup.j_min}, {setup.j_max - 1}]")


class SemigroupTable:
    """Cache of P_{a_j} f on a fixed grid.

    A read computes every level it needs and the table lacks with one
    apply_at call: its (level, x) points share one radial pass.  Read many
    windows with one windows call, so that their levels are one fill.
    """

    def __init__(self, space: LambdaSpace, setup: LacunarySetup,
                 f: SampledFunction, grid,
                 quad: QuadratureSpec = QuadratureSpec()):
        self.space = space
        self.setup = setup
        self.f = f
        self.grid = np.asarray(grid, dtype=float)
        self.quad = quad
        self._levels: dict[int, np.ndarray] = {}
        self.max_tail = 0.0

    def _levels_of(self, js) -> list:
        """The levels P_{a_j} f, j in js (increasing), the missing ones
        computed together.  Their truncation-tail bounds are checked level
        by level in j order: the largest so far is kept in `max_tail`, and
        one above max(abs_tol, 1e-14) raises TailEstimateError
        (kernel.check_tail)."""
        missing = [j for j in js if j not in self._levels]
        if missing:
            times = np.array([self.setup.a_at(j) for j in missing])
            vals, tails = apply_at(self.space, self.f, times[:, None],
                                   self.grid, self.quad)
            for row, j in enumerate(missing):
                self.max_tail = max(self.max_tail,
                                    float(np.max(tails[row], initial=0.0)))
                check_tail(self.max_tail, self.quad)
                self._levels[j] = vals[row]
        return [self._levels[j] for j in js]

    def level(self, j: int) -> np.ndarray:
        """P_{a_j} f on the grid."""
        return self._levels_of([j])[0]

    def windows(self, wins) -> np.ndarray:
        """T_N f on the grid for each window N = (n1, n2) of the sequence
        wins, one row each.  The levels of all the windows are one read,
        and one pass over j adds the term v_j (p_{j+1} - p_j) to the rows
        whose window holds j: each row gets its terms one by one in j order
        (prefix differences would round differently), with the bits of a
        read of its window alone."""
        wins = list(wins)
        if not wins:
            raise ValueError("windows needs at least one window")
        for n1, n2 in wins:
            _check_window(self.setup, n1, n2)
        js = sorted({j for n1, n2 in wins for j in range(n1, n2 + 2)})
        have = dict(zip(js, self._levels_of(js)))
        n1, n2 = np.array(wins).T
        return deque(_window_sums(self.setup, js[0], (
            have.get(j) for j in range(js[0], js[-1] + 1)), n1, n2),
            maxlen=1).pop()

    def window(self, n1: int, n2: int) -> np.ndarray:
        """T_N f on the grid for N = (n1, n2): a windows read of one."""
        return self.windows([(n1, n2)])[0]

    def weighted_prefixes(self, m_cap: int) -> np.ndarray:
        """S[i] = sum_{j=-M}^{-M+i-1} v_j (p_{j+1} - p_j), i = 0..2M+1, each
        of a level's shape."""
        M = m_cap
        _check_window(self.setup, -M, M)
        sums = list(_window_sums(self.setup, -M, self._levels_of(
            range(-M, M + 2))))
        return np.stack([np.zeros_like(sums[0]), *sums])


def _window_sums(setup: LacunarySetup, j_lo: int, levels, n1=None,
                 n2=None):
    """The partial sums of sum_{j >= j_lo} v_j (L_{j+1} - L_j) over the
    levels L_{j_lo}, L_{j_lo + 1}, ..., one after each term: the terms are
    added in j order, and each level is read once.

    With arrays n1, n2 of windows the sums are rows, one per window, from
    exact zeros: row k takes the term of j only where n1_k <= j <= n2_k,
    so it has the bits of the sum over its window alone.  A j in no window
    reads no level, and its levels may be None."""
    levels = iter(levels)
    prev = next(levels)
    if n1 is None:
        total = 0.0
    else:
        total = np.zeros((len(n1), *prev.shape))
        n1, n2 = (np.reshape(n, (-1, *(1,) * prev.ndim)) for n in (n1, n2))
    for j, cur in enumerate(levels, start=j_lo):
        if n1 is None:
            total = total + setup.v_at(j) * (cur - prev)
        else:
            on = (n1 <= j) & (j <= n2)
            if on.any():
                total = np.where(on, total + setup.v_at(j) * (cur - prev),
                                 total)
        yield total
        prev = cur


# --------------------------------------------------------------------------
# the transform and its kernel

def window_kernel(space, setup, win: IndexWindow, x, y, kind="p"):
    """K_N(x, y), or for kind 'grad' its rows d/dx and d/dy, or for a tuple
    of kinds their rows stacked, as in kernel.kernel_values, vectorized."""
    _check_window(setup, win.n1, win.n2)
    return _window_sum(space, setup, win.n1, win.n2, x, y, kind)


def apply_transform(space, setup, win: IndexWindow, f: SampledFunction,
                    eval_grid, quad=QuadratureSpec()) -> SampledFunction:
    """T_N f on eval_grid through the sum-of-semigroups route; the attached
    closure sums a fresh table over the points it is called at."""
    def closure(ys):
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        return SemigroupTable(space, setup, f, ys, quad).window(win.n1, win.n2)

    return SampledFunction.from_callable(closure, eval_grid, left="hold")


def apply_transform_kernel_route(space, setup, win: IndexWindow,
                                 f: SampledFunction, xs,
                                 quad=QuadratureSpec()) -> np.ndarray:
    """T_N f(x) = integral K_N(x, y) f(y) dm(y): the cross-check route.

    Requires f supported up to its grid end (right tail policy "zero").
    """
    _check_window(setup, win.n1, win.n2)
    slo, shi = f.support()
    if math.isinf(shi):
        raise ValueError("kernel route needs a compactly supported f")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return radial_sums(slo, shi, xs, setup.a_at(win.n1),
                       f.quad_breakpoints(), quad.y_nodes_per_panel,
                       space.weight_exponent, lambda i, y, w: (
                           w * window_kernel(space, setup, win, xs[i], y)),
                       f)


# --------------------------------------------------------------------------
# maximal operators

def max_window_sum_abs(S: np.ndarray) -> np.ndarray:
    """max over i' >= i+2 of |S[i'] - S[i]| along axis 0, one linear pass.

    Matches enumerating all windows because each window value is a prefix
    difference with the two indices at least 2 apart.
    """
    if S.shape[0] < 3:
        raise ValueError("need at least three prefix rows")
    best = np.zeros(S.shape[1:])
    run_min = S[0].copy()
    run_max = S[0].copy()
    for ip in range(2, S.shape[0]):
        np.minimum(run_min, S[ip - 2], out=run_min)
        np.maximum(run_max, S[ip - 2], out=run_max)
        np.maximum(best, S[ip] - run_min, out=best)
        np.maximum(best, run_max - S[ip], out=best)
    return best


def _on_grid(grid, vals):
    """An operator output sampled on a grid, held on the left and zero on
    the right."""
    return SampledFunction(grid, vals, left="hold", right="zero")


def maximal_transform(table: SemigroupTable, cap: TruncationLevel):
    """T*_M f on table.grid via the prefix-sum pass."""
    return max_window_sum_abs(table.weighted_prefixes(cap.m_cap))


def maximal_transform_brute(table: SemigroupTable, cap: TruncationLevel):
    """Reference implementation: enumerate every admissible window."""
    M = cap.m_cap
    S = table.weighted_prefixes(M)
    best = np.zeros(S.shape[1:])
    for n1 in range(-M, M):
        for n2 in range(n1 + 1, M + 1):
            np.maximum(best, np.abs(S[n2 + M + 1] - S[n1 + M]), out=best)
    return best


def default_radius_grid() -> np.ndarray:
    """64 log-spaced radii from 1e-3 to 1e3; the sup over r is reported
    over this finite grid, a lower bound for the true maximal function."""
    return np.geomspace(1e-3, 1e3, 64)


def maximal_hl(space, f: SampledFunction, q: float, radius_grid,
               eval_pts) -> np.ndarray:
    """M_q f(x) = max over the radius grid of the I(x,r) q-average^(1/q);
    q = 1 is the Hardy-Littlewood maximal function.  All (x, r) averages
    come from one batched interval_q_averages call."""
    radius_grid = np.asarray(radius_grid, dtype=float)
    if radius_grid.size == 0:
        raise ValueError("radius grid is empty")
    if q < 1.0:
        raise ValueError("q must be at least 1")
    eval_pts = np.atleast_1d(np.asarray(eval_pts, dtype=float))
    avg = interval_q_averages(space, f, eval_pts[:, None],
                              radius_grid[None, :], q)
    return np.max(avg, axis=1, initial=0.0) ** (1.0 / q)


@dataclass(frozen=True)
class CotlarReport:
    m_cap: int
    sup_ratio: float
    ratios: np.ndarray
    n_degenerate: int


# (table, q, M_q f) of the last cotlar_check call that returned, under the
# one key "last"; dict.pop takes it atomically, so no two calls share it.
_cotlar_slot: dict = {}


def cotlar_check(space, setup, cap: TruncationLevel, f: SampledFunction,
                 q: float, eval_grid, quad=QuadratureSpec()) -> CotlarReport:
    """Pointwise ratio T*_M f / (M(T_(-M,M) f) + M_q f) over eval_grid, the
    maximal functions over default_radius_grid().  T*_M f and T_(-M,M) f
    come from one prefix pass of a SemigroupTable of f on eval_grid: its last
    row is T_(-M,M) f, summed as a read of that window.

    Where the denominator vanishes the numerator must too (asserted); such
    points count as degenerate with ratio 0.

    A sweep of caps on one f shares its table and M_q f: the module keeps
    the last call's (table, q, M_q f) in one slot, and a call reuses them
    when f and setup are the same objects (`is`: a callable f cannot be
    compared), space, quad and q are equal, and eval_grid equals the
    table's grid.  Such a call fills only the levels its cap adds and skips
    M_q f.  Each point's level and M_q f have the bits of a fresh call's,
    and new levels are tail-checked in j order above levels that have
    passed.  Any other call builds a fresh table and replaces the kept one.
    The slot is emptied before the work and set only when the call
    returns, so a call that raises leaves no half-filled table.  It holds
    strong references to one table and its f, so no id is reused while
    they are kept, and a new f object per call never reuses them.  The
    arrays of f and setup must not be changed in place between calls.
    """
    if q <= 1.0:
        raise ValueError("q must exceed 1")
    radius_grid = default_radius_grid()
    M = cap.m_cap
    last = _cotlar_slot.pop("last", None)
    if (last is not None and last[0].f is f and last[0].setup is setup
            and last[0].space == space and last[0].quad == quad
            and last[1] == q and np.array_equal(last[0].grid, eval_grid)):
        table, _, m_q = last
    else:
        table = SemigroupTable(space, setup, f, eval_grid, quad)
        m_q = None
    S = table.weighted_prefixes(M)
    tstar = max_window_sum_abs(S)
    full = _on_grid(table.grid, S[-1])
    m_of_t = maximal_hl(space, full, 1.0, radius_grid, table.grid)
    if m_q is None:
        m_q = maximal_hl(space, f, q, radius_grid, table.grid)
    denom = m_of_t + m_q
    ratios = np.zeros_like(denom)
    degenerate = denom <= 0.0
    if np.any(degenerate) and np.any(tstar[degenerate] > 1e-13):
        raise ContractError(
            "maximal transform nonzero where both maximal functions vanish")
    ok = ~degenerate
    ratios[ok] = tstar[ok] / denom[ok]
    _cotlar_slot["last"] = (table, q, m_q)
    return CotlarReport(M, float(ratios.max()), ratios,
                        int(np.count_nonzero(degenerate)))


# --------------------------------------------------------------------------
# bound verification

@dataclass(frozen=True)
class WindowBoundReport:
    sup_size: float        # |K_N| * m(I(x, |x-y|))
    sup_gradient: float | None  # (|dK/dx| + |dK/dy|) * m(I(x, |x-y|)) * |x-y|
    sup_size_near: float   # regime x <= 2|x-y|
    sup_size_far: float    # regime x > 2|x-y|
    n_points: int


def window_kernel_bounds(space, setup, win: IndexWindow, sweep,
                         gradient: bool = True) -> WindowBoundReport:
    """Fitted constants of the Calderon-Zygmund bounds of K_N.

    sweep: array of (x, y) with x != y covering both regimes x <= 2|x-y|
    and x > 2|x-y|.  With gradient=False the derivative kernels are not
    evaluated and sup_gradient is None.
    """
    pts = np.asarray(sweep, dtype=float)
    if pts.size == 0:
        raise ValueError("sweep must be nonempty")
    x, y = pts[:, 0], pts[:, 1]
    d = np.abs(x - y)
    if np.any(d == 0.0):
        raise ValueError("sweep must avoid the diagonal x = y")
    local = x <= 2.0 * d
    if not local.any() or local.all():
        raise ValueError("sweep must cover both regimes x <= 2|x-y| "
                         "and x > 2|x-y|")
    meas = interval_masses(space, x, d)
    # K_N and its gradient rows from one windowed kernel call
    rows = np.abs(window_kernel(space, setup, win, x, y,
                                ("p", "grad") if gradient else ("p",)))
    size = rows[0] * meas
    sup_grad = None
    if gradient:
        sup_grad = float((rows[1:].sum(axis=0) * meas * d).max())
    return WindowBoundReport(float(size.max()), sup_grad,
                             float(size[local].max()),
                             float(size[~local].max()), len(pts))


@dataclass(frozen=True)
class TailBoundReport:
    sup_ratio: float
    n_used: int
    n_rejected: int


def tail_sum_bound_ratio(space, setup, m: int, k: int, m_bot: int,
                         sweep) -> TailBoundReport:
    """Partial sum over j in [m_bot, m-1] against rho^-(k-m+1)/m(I(x, a_k))
    for points with a_k <= |x - y| <= a_{k+1}."""
    ok, _ = is_regular(setup)
    if not ok:
        raise ValueError("needs a regular setup (ratios within [rho, rho^2])")
    if k < m:
        raise ValueError("needs k >= m")
    pts = np.asarray(sweep, dtype=float)
    a_k, a_k1 = setup.a_at(k), setup.a_at(k + 1)
    d = np.abs(pts[:, 0] - pts[:, 1])
    keep = (d >= a_k) & (d <= a_k1)
    used = pts[keep]
    if used.size == 0:
        raise ValueError("no sweep points satisfy a_k <= |x - y| <= a_{k+1}")
    x, y = used[:, 0], used[:, 1]
    total = _window_sum(space, setup, m_bot, m - 1, x, y)
    meas = interval_masses(space, x, a_k)
    ratios = np.abs(total) * meas * setup.rho ** (k - m + 1)
    return TailBoundReport(float(ratios.max()), len(used),
                           int(np.count_nonzero(~keep)))


def _window_sum(space, setup, j_lo, j_hi, x, y, kind="p"):
    """sum_{j=j_lo}^{j_hi} v_j (P_{a_{j+1}} - P_{a_j})(x, y), or the same sum
    of a derivative kind or of a tuple of kinds (kernel.kernel_values' rows),
    over broadcast arrays x, y.  Every level comes
    from one kernel_values call with the times a_j as a column; the kernel
    is elementwise, so each level has the bits of a call of its own."""
    ndim = np.broadcast(x, y).ndim
    t = np.array([setup.a_at(j) for j in range(j_lo, j_hi + 2)])
    levels = kernel_values(space, t.reshape(-1, *(1,) * ndim), x, y, kind)
    # the rows of grad, dtgrad or a tuple lead: each level is levels[:, j]
    if levels.ndim > ndim + 1:
        levels = np.moveaxis(levels, 1, 0)
    return deque(_window_sums(setup, j_lo, levels), maxlen=1).pop()


# --------------------------------------------------------------------------
# convergence probe

@dataclass(frozen=True)
class ProbeReport:
    caps: tuple
    sup_diffs: np.ndarray      # max_x |T_(-L',L') f - T_(-L,L) f|
    tail_bounds: np.ndarray    # A + B closed-form bound at level L
    ratios: np.ndarray


def convergence_probe(space, setup, f: SampledFunction, eval_pts, caps,
                      quad=QuadratureSpec()) -> ProbeReport:
    """Cauchy check of T_(-L,L) f along growing L with the analytic tail
    bounds of the convergence proof.

    The increment from L to L' collects terms with L <= |j| < L'; its size
    is bounded by A(L) + B(L) where A(L) = rho^d/(rho^d - 1) *
    |f|_L1(dm) / a_L^d with d = 2 lam + 1 (upper tail) and B(L) =
    sqrt(rho)/(sqrt(rho) - 1) * sqrt(a_-L) * (Lip(f) + sup|f|) (lower tail).
    Reported ratios sup_diff/bound must stay bounded as L grows.
    """
    if f.lipschitz is None:
        raise ValueError("probe needs a test function with a declared "
                         "Lipschitz constant")
    ok, worst = is_lacunary(setup)
    if not ok:
        raise ValueError(f"not {setup.rho}-lacunary: worst ratio {worst}")
    caps = tuple(int(c) for c in caps)
    if any(c2 <= c1 for c1, c2 in zip(caps[:-1], caps[1:])):
        raise ValueError("caps must increase")
    eval_pts = np.asarray(eval_pts, dtype=float)
    table = SemigroupTable(space, setup, f, eval_pts, quad)
    vals = table.windows([(-L, L) for L in caps])
    sup_diffs = np.array([np.max(np.abs(b - a))
                          for a, b in zip(vals[:-1], vals[1:])])
    dim = space.dimension
    vmax = float(np.max(np.abs(setup.v)))
    l1 = lp_norm(space, f, 1.0)
    sup_f = float(np.max(np.abs(f.values)))
    rho = setup.rho
    bounds = []
    for L in caps[:-1]:
        a_up = setup.a_at(L)
        a_dn = setup.a_at(-L)
        A = rho ** dim / (rho ** dim - 1.0) * l1 / a_up ** dim
        B = (math.sqrt(rho) / (math.sqrt(rho) - 1.0) * math.sqrt(a_dn)
             * (f.lipschitz + sup_f))
        bounds.append(vmax * (A + B))
    bounds = np.array(bounds)
    return ProbeReport(caps, sup_diffs, bounds, sup_diffs / bounds)
