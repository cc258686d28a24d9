"""Poisson kernel of the Bessel operator -d^2/dx^2 - (2 lam / x) d/dx.

    P_t(x,y) = (2 lam t / pi) * integral_0^pi sin(th)^(2 lam - 1)
               / (x^2 + y^2 + t^2 - 2 x y cos(th))^(lam + 1) dth

The kernel itself is evaluated in closed form.  With c = (x-y)^2 + t^2,
B = 2xy and A = c + B, expanding in cos(th) gives
A^-(lam+1) B(lam, 1/2) 2F1((lam+1)/2, (lam+2)/2; lam+1/2; (B/A)^2), and the
Euler transformation (DLMF 15.8.1) moves the (1 - (B/A)^2)^-1 singularity
of the diagonal into an explicit factor:

    P_t(x,y) = (2 lam t / pi) B(lam, 1/2) A^(1-lam) / (c (c + 2B))
               * 2F1(lam/2, (lam-1)/2; lam+1/2; (B/A)^2)

with 1 - (B/A)^2 = c (c + 2B) / A^2 formed as a product, never by
subtraction, so relative accuracy holds uniformly in (t, x, y).

The derivatives in t, x, y still come from the angular integral,
differentiated under the integral sign (which only changes the exponent and
inserts polynomial moments).  After u = cos(th) the integrand carries the
Jacobi weight (1-u^2)^(lam-1).  For kappa = c / B >= 1 a single
Gauss-Jacobi rule converges geometrically.  Near the diagonal (kappa << 1)
the integrand develops a spike of width kappa at u = 1, so the rule switches
to geometrically graded panels in w = 1 - u with Jacobi end rules absorbing
w^(lam-1) and (2-w)^(lam-1).  Pointwise derivative values are verified by
doubling the node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import beta, hyp2f1

from .errors import QuadratureError, TailEstimateError
from .functions import SampledFunction
from .measure import LambdaSpace
from .quadrature import (QuadratureSpec, jacobi_rule, legendre_rule,
                         panel_edges, panel_sums, weighted_panel_nodes)

_MAX_BUCKET = 100
_CHUNK = 1 << 22  # max elements of one (points x nodes) block


@dataclass(frozen=True)
class KernelPoint:
    t: float
    x: float
    y: float

    def __post_init__(self):
        if not (self.t > 0 and self.x > 0 and self.y > 0):
            raise ValueError("t, x, y must all be positive")


def closed_form_lambda1(t, x, y):
    """Exact kernel for lam = 1: (4t/pi) / (((x-y)^2+t^2) ((x+y)^2+t^2))."""
    t = np.asarray(t, dtype=float)
    return (4.0 * t / np.pi) / (((x - y) ** 2 + t ** 2)
                                * ((x + y) ** 2 + t ** 2))


def _closed_form_p(lam, t, x, y):
    """P_t(x, y) for any lam > 0 through the Euler-transformed 2F1 (see the
    module docstring), vectorized over broadcast (t, x, y)."""
    t, x, y = np.broadcast_arrays(np.asarray(t, dtype=float),
                                  np.asarray(x, dtype=float),
                                  np.asarray(y, dtype=float))
    c = (x - y) ** 2 + t * t
    B = 2.0 * x * y
    A = c + B
    front = 2.0 * lam / math.pi * beta(lam, 0.5)
    hyp = hyp2f1(0.5 * lam, 0.5 * (lam - 1.0), lam + 0.5, (B / A) ** 2)
    return front * t * A ** (1.0 - lam) / (c * (c + 2.0 * B)) * hyp


# --------------------------------------------------------------------------
# angular quadrature engine (derivative kinds)

@lru_cache(maxsize=4096)
def _bucket_rule(lam: float, bucket: int, n: int):
    """Nodes w in (0,2) and weights absorbing w^(lam-1) (2-w)^(lam-1).

    bucket == 0: the single Gauss-Jacobi rule on u in (-1,1), re-expressed in
    w = 1-u.  bucket b >= 1: composite rule with first panel [0, 2^-b].
    """
    if bucket == 0:
        u, wj = jacobi_rule(n, lam - 1.0, lam - 1.0)
        w = 1.0 - u
        return w, wj.copy()
    delta = 2.0 ** (-bucket)
    nodes, weights = [], []
    # [0, delta]: Jacobi rule with weight w^(lam-1)
    uj, wj = jacobi_rule(n, 0.0, lam - 1.0)
    w0 = delta / 2.0 * (1.0 + uj)
    nodes.append(w0)
    weights.append(wj * (delta / 2.0) ** lam * (2.0 - w0) ** (lam - 1.0))
    # geometric middle panels [delta 2^i, delta 2^(i+1)] up to 1, then [1, 1.5]
    xl, wl = legendre_rule(n)
    edges = [delta * 2.0 ** i for i in range(bucket + 1)] + [1.5]
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        wm = a + half * (1.0 + xl)
        nodes.append(wm)
        weights.append(wl * half * wm ** (lam - 1.0) * (2.0 - wm) ** (lam - 1.0))
    # [1.5, 2]: Jacobi rule absorbing (2-w)^(lam-1)
    s = (1.0 + uj) / 4.0
    wlast = 2.0 - s
    nodes.append(wlast)
    weights.append(wj * 0.25 ** lam * wlast ** (lam - 1.0))
    return np.concatenate(nodes), np.concatenate(weights)


def _theta_sums(lam, c, B, n, n_exps=1, moment=False):
    """S[e, m] = integral_0^2 w^(lam-1+m) (2-w)^(lam-1) (c + B w)^(-e) dw
    for e = lam+1 .. lam+n_exps and m in {0} or {0, 1}, vectorized over the
    flat arrays c (= (x-y)^2 + t^2) and B (= 2xy)."""
    c = np.asarray(c, dtype=float).ravel()
    B = np.asarray(B, dtype=float).ravel()
    npts = c.size
    kap = c / B
    bucket = np.zeros(npts, dtype=np.int64)
    small = kap < 1.0
    with np.errstate(divide="ignore"):
        bucket[small] = np.minimum(
            np.ceil(-np.log2(kap[small])).astype(np.int64), _MAX_BUCKET)
    mom_range = (0, 1) if moment else (0,)
    out = {(e, m): np.empty(npts) for e in range(n_exps) for m in mom_range}
    for b in np.unique(bucket):
        idx = np.nonzero(bucket == b)[0]
        w, W0 = _bucket_rule(float(lam), int(b), int(n))
        rows = max(1, _CHUNK // w.size)
        for s in range(0, idx.size, rows):
            ii = idx[s:s + rows]
            base = c[ii, None] + B[ii, None] * w[None, :]
            powv = base ** (-(lam + 1.0))
            inv = 1.0 / base
            for e in range(n_exps):
                if e > 0:
                    powv = powv * inv
                out[(e, 0)][ii] = powv @ W0
                if moment:
                    out[(e, 1)][ii] = powv @ (W0 * w)
    return out


def _assemble(space, t, x, y, kind, n):
    """A kernel derivative by the angular rule, vectorized; `kind` in
    {'dt', 'dx', 'dy', 'dtdx', 'dtdy'}."""
    lam = space.lam
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t, x, y = np.broadcast_arrays(t, x, y)
    shape = t.shape
    t, x, y = t.ravel(), x.ravel(), y.ravel()
    c = (x - y) ** 2 + t * t
    B = 2.0 * x * y
    front = 2.0 * lam / math.pi
    if kind == "dt":
        S = _theta_sums(lam, c, B, n, n_exps=2)
        val = front * (S[(0, 0)] - 2.0 * (lam + 1.0) * t * t * S[(1, 0)])
    elif kind in ("dx", "dy"):
        S = _theta_sums(lam, c, B, n, n_exps=2, moment=True)
        d = (x - y) if kind == "dx" else (y - x)
        other = y if kind == "dx" else x
        val = -front * t * (lam + 1.0) * (2.0 * d * S[(1, 0)]
                                          + 2.0 * other * S[(1, 1)])
    elif kind in ("dtdx", "dtdy"):
        S = _theta_sums(lam, c, B, n, n_exps=3, moment=True)
        d = (x - y) if kind == "dtdx" else (y - x)
        other = y if kind == "dtdx" else x
        g1 = 2.0 * d * S[(1, 0)] + 2.0 * other * S[(1, 1)]
        g2 = 2.0 * d * S[(2, 0)] + 2.0 * other * S[(2, 1)]
        val = front * (-(lam + 1.0) * g1
                       + 2.0 * (lam + 1.0) * (lam + 2.0) * t * t * g2)
    else:  # pragma: no cover
        raise ValueError(f"unknown kind {kind!r}")
    return val.reshape(shape)


def _batch(space, t, x, y, quad, kind):
    """Batch evaluation.  The kernel is exact in closed form; a derivative
    doubles the per-panel node count until the whole batch moves by less
    than the tolerances, refining all points."""
    if kind == "p":
        return _closed_form_p(space.lam, t, x, y)
    n = quad.theta_nodes
    prev = _assemble(space, t, x, y, kind, n)
    while n < quad.theta_max_nodes:
        n = min(2 * n, quad.theta_max_nodes)
        cur = _assemble(space, t, x, y, kind, n)
        err = np.abs(cur - prev)
        tol = np.maximum(quad.abs_tol, quad.rel_tol * np.abs(cur))
        if np.all(err <= tol):
            return cur
        prev = cur
    raise QuadratureError(
        f"theta quadrature did not converge at {quad.theta_max_nodes} nodes")


def poisson_kernel_batch(space, t, x, y, quad=QuadratureSpec(), kind="p"):
    """Kernel (or derivative) values for arrays of (t, x, y); kind in
    {p, dt, dx, dy, dtdx, dtdy}.  'p' is the closed form; the derivatives
    use the angular rule, verified by node doubling."""
    return _batch(space, t, x, y, quad, kind)


def poisson_kernel(space: LambdaSpace, pt: KernelPoint,
                   quad: QuadratureSpec = QuadratureSpec()) -> float:
    return float(_batch(space, pt.t, pt.x, pt.y, quad, "p"))


def poisson_kernel_dt(space, pt, quad=QuadratureSpec()) -> float:
    return float(_batch(space, pt.t, pt.x, pt.y, quad, "dt"))


def poisson_kernel_dx(space, pt, quad=QuadratureSpec()) -> float:
    return float(_batch(space, pt.t, pt.x, pt.y, quad, "dx"))


def poisson_kernel_dy(space, pt, quad=QuadratureSpec()) -> float:
    return float(_batch(space, pt.t, pt.x, pt.y, quad, "dy"))


def kernel_values(space, t, x, y, quad=QuadratureSpec(), kind="p"):
    """Single-pass vectorized evaluation used inside radial integrals.

    'p' is the closed form, exact to rounding.  A derivative kind takes one
    pass of the angular rule at half the configured node count, without
    doubling: the composite rule is already far below integrator tolerances
    there, and integral-level checks (normalization, dual-route agreement)
    guard the end-to-end accuracy.
    """
    if kind == "p":
        return _closed_form_p(space.lam, t, x, y)
    return _assemble(space, t, x, y, kind, max(24, quad.theta_nodes // 2))


# --------------------------------------------------------------------------
# applying the semigroup

def _radial_end(lam: float, t: float, hold: float, base: float, quad):
    """End Y = base * 2^K of a radial integral against P_t of a function
    bounded by `hold` beyond base, with the tail beyond Y below half the
    tolerance: returns (Y, tail bound).  The tail is about C t hold / Y,
    C = 2 Gamma(lam+1) / (sqrt(pi) Gamma(lam+1/2)), doubled as a margin for
    finite-Y corrections."""
    target = 0.5 * max(quad.abs_tol, 1e-14)
    c_tail = 2.0 * math.gamma(lam + 1.0) / (math.sqrt(math.pi)
                                            * math.gamma(lam + 0.5)) * 2.0
    need = c_tail * t * max(hold, 1e-300) / (target * base)
    K = max(1, math.ceil(math.log2(max(need, 2.0))))
    if K > 200:
        raise TailEstimateError(
            f"tail truncation needs 2^{K} * {base:g}; not attainable")
    hi = base * 2.0 ** K
    return hi, c_tail * t * hold / hi


def apply_at(space: LambdaSpace, f: SampledFunction, t: float,
             xs, quad: QuadratureSpec = QuadratureSpec()):
    """(P_t f)(x) for an array of x, with a truncation-tail estimate.

    Returns (values, tail_bounds).  The radial integral runs over panels
    aligned with f's breakpoints and graded around y = x at scale t; an
    unbounded support (nonzero hold tail) is truncated where the analytic
    kernel-decay bound drops below the tolerance.  The nodes of all x are
    summed by one quadrature.panel_sums call.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs <= 0):
        raise ValueError("evaluation points must be positive")
    slo, shi = f.support()
    if shi <= slo:
        return np.zeros_like(xs), np.zeros_like(xs)
    tails = np.zeros_like(xs)

    def layouts():
        for k, x in enumerate(xs):
            hi = shi
            if math.isinf(shi):
                hi, tails[k] = _radial_end(space.lam, t,
                                           abs(float(f.values[-1])),
                                           max(x, t, f.grid[-1]), quad)
            edges = panel_edges(slo, hi, x, t,
                                breakpoints=f.quad_breakpoints(),
                                max_panels=quad.panel_count)
            yield weighted_panel_nodes(edges, quad.y_nodes_per_panel,
                                       space.weight_exponent)

    vals = panel_sums(xs, layouts(), lambda x, y, w: (
        w * kernel_values(space, t, x, y, quad) * f(y)))
    return vals, tails


def poisson_apply(space: LambdaSpace, f: SampledFunction, t: float,
                  eval_grid, quad: QuadratureSpec = QuadratureSpec()
                  ) -> SampledFunction:
    """P_t f as a function: sampled on eval_grid and exactly evaluable
    anywhere via the attached quadrature closure (so compositions like
    P_s(P_t f) do not pay interpolation error)."""
    eval_grid = np.asarray(eval_grid, dtype=float)
    vals, tails = apply_at(space, f, t, eval_grid, quad)
    bad = tails > max(quad.abs_tol, 1e-14)
    if np.any(bad):
        raise TailEstimateError(
            f"truncation tail {tails[bad].max():.3e} above tolerance")

    def closure(ys):
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        return apply_at(space, f, t, ys, quad)[0]

    return SampledFunction(eval_grid, vals, left="hold", right="zero",
                           func=closure)


def kernel_mass(space: LambdaSpace, t: float, x: float,
                quad: QuadratureSpec = QuadratureSpec()):
    """integral_0^inf P_t(x, y) dm(y) and the truncation-tail bound.

    Equals 1 for every (t, x); the distance to 1 measures end-to-end
    quadrature quality.
    """
    one = SampledFunction.from_callable(
        lambda y: np.ones_like(np.asarray(y, dtype=float)),
        np.geomspace(min(x, t), max(x, t) * 2.0, 8).clip(1e-300, None),
        left="hold", right="hold")
    vals, tails = apply_at(space, one, t, [x], quad)
    return float(vals[0]), float(tails[0])


def kernel_difference_l1(space: LambdaSpace, t1: float, t2: float, x: float,
                         quad: QuadratureSpec = QuadratureSpec()) -> float:
    """integral_0^inf |P_{t2}(x, y) - P_{t1}(x, y)| dm(y) for 0 < t1 < t2.

    Scale-invariant: simultaneous dilation of (t1, t2, x) leaves the value
    unchanged, so for a geometric time sequence it depends only on x/t1
    and t2/t1.
    """
    if not 0.0 < t1 < t2:
        raise ValueError("needs 0 < t1 < t2")
    hi, _ = _radial_end(space.lam, t2, 1.0, max(x, t2), quad)
    edges = panel_edges(0.0, hi, x, t1, breakpoints=(t1, t2, x + t1, x + t2),
                        max_panels=quad.panel_count)
    nodes, weights = weighted_panel_nodes(edges, quad.y_nodes_per_panel,
                                          space.weight_exponent)
    diff = np.abs(kernel_values(space, t2, np.full_like(nodes, x), nodes, quad)
                  - kernel_values(space, t1, np.full_like(nodes, x), nodes,
                                  quad))
    return float(np.sum(weights * diff))


# --------------------------------------------------------------------------
# kernel bound verification

_BOUND_ITEMS = ("i", "ii", "iii", "iv")


@dataclass(frozen=True)
class BoundReport:
    item: str
    sup_ratio: float
    sup_near: float     # over points with |x-y| <= t
    sup_far: float      # over points with |x-y| > t
    n_points: int


def _bound_denominator(space, item, t, x, y):
    lam = space.lam
    c = (x - y) ** 2 + t * t
    xy = x * y
    if item == "i":
        return np.minimum(t / c ** (lam + 1.0), t / (xy ** lam * c))
    if item == "ii":
        return np.minimum(t / c ** (lam + 1.5), t / (xy ** lam * c ** 1.5))
    if item == "iii":
        return np.minimum(1.0 / c ** (lam + 1.0), 1.0 / (xy ** lam * c))
    if item == "iv":
        return np.minimum(1.0 / c ** (lam + 1.5), 1.0 / (xy ** lam * c ** 1.5))
    raise ValueError(f"item must be one of {_BOUND_ITEMS}")


def kernel_bound_ratios(space, sweep, item, quad=QuadratureSpec()) -> BoundReport:
    """Size/smoothness bound check: sup over the sweep of |kernel quantity|
    divided by the corresponding two-form bound (constants set to 1).

    item 'i': kernel itself, 'ii': d/dx, 'iii': d/dt, 'iv': |d2/dtdx| +
    |d2/dtdy|.  The sweep must cover both regimes |x-y| <= t and |x-y| > t.
    """
    pts = np.asarray([(p.t, p.x, p.y) for p in sweep], dtype=float)
    if pts.size == 0:
        raise ValueError("sweep must be nonempty")
    t, x, y = pts[:, 0], pts[:, 1], pts[:, 2]
    near = np.abs(x - y) <= t
    if not near.any() or near.all():
        raise ValueError("sweep must cover both |x-y| <= t and |x-y| > t")
    if item == "i":
        num = np.abs(_batch(space, t, x, y, quad, "p"))
    elif item == "ii":
        num = np.abs(_batch(space, t, x, y, quad, "dx"))
    elif item == "iii":
        num = np.abs(_batch(space, t, x, y, quad, "dt"))
    elif item == "iv":
        num = (np.abs(_batch(space, t, x, y, quad, "dtdx"))
               + np.abs(_batch(space, t, x, y, quad, "dtdy")))
    else:
        raise ValueError(f"item must be one of {_BOUND_ITEMS}")
    ratio = num / _bound_denominator(space, item, t, x, y)
    return BoundReport(item, float(ratio.max()),
                       float(ratio[near].max()), float(ratio[~near].max()),
                       len(pts))


def kernel_sweep(rng: np.random.Generator, n: int,
                 t_range=(1e-2, 1e2), xy_range=(1e-2, 1e2)):
    """Log-uniform (t, x, y) sweep; one third of the points are forced near
    the diagonal so both bound regimes are populated."""
    t = np.exp(rng.uniform(*np.log(t_range), size=n))
    x = np.exp(rng.uniform(*np.log(xy_range), size=n))
    y = np.exp(rng.uniform(*np.log(xy_range), size=n))
    k = n // 3
    y[:k] = x[:k] * (1.0 + rng.uniform(-0.5, 0.5, size=k) * np.minimum(
        t[:k] / x[:k], 0.5))
    return [KernelPoint(*p) for p in zip(t, x, y)]
