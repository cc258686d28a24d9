"""Poisson kernel of the Bessel operator -d^2/dx^2 - (2 lam / x) d/dx.

    P_t(x,y) = (2 lam t / pi) * integral_0^pi sin(th)^(2 lam - 1)
               / (x^2 + y^2 + t^2 - 2 x y cos(th))^(lam + 1) dth

The kernel and its derivatives in t, x, y are evaluated in closed form.
With c = (x-y)^2 + t^2, B = 2xy, A = c + B, z = (B/A)^2 and kappa = c/B,
differentiating under the integral sign only changes the exponent and
inserts the moment 1 - cos(th), so everything is a combination of

    I_k = integral_0^pi sin(th)^(2 lam - 1) (A - B cos th)^-(lam+k) dth
        = B(lam, 1/2) A^(k-lam) (c (c + 2B))^-k
          * 2F1((lam+1-k)/2, (lam-k)/2; lam+1/2; z)
    J_k = integral_0^pi sin(th)^(2 lam - 1) cos(th) (A - B cos th)^-(lam+k) dth
        = (lam+k) (B/A) B(lam, 3/2) A^(k-lam) (c (c + 2B))^-k
          * 2F1((lam+2-k)/2, (lam+1-k)/2; lam+3/2; z)
    M_k = integral_0^pi sin(th)^(2 lam - 1) (1 - cos th)
                        (A - B cos th)^-(lam+k) dth

Expanding in cos(th) gives a 2F1 with c-a-b = -k, and the Euler
transformation (DLMF 15.8.1) moves its (1 - z)^-k singularity at the
diagonal into the explicit factor: 1 - z = c (c + 2B) / A^2 is formed as a
product, never by subtraction, and the transformed 2F1 has c-a-b = k, so it
is finite at z = 1.  Relative accuracy holds uniformly in (t, x, y).  The
moment is M_k = (I_(k-1) - c I_k) / B where kappa < 1 and M_k = I_k - J_k
where kappa >= 1, the form that does not cancel in each regime.  Then

    P_t     = (2 lam / pi) t I_1
    dP/dt   = (2 lam / pi) (I_1 - 2 (lam+1) t^2 I_2)
    dP/dx   = -(2 lam / pi) t (lam+1) (2 (x-y) I_2 + 2y M_2)

with dP/dy the same after swapping x and y, and the mixed derivatives
d2P/dtdx, d2P/dtdy adding the I_3, M_3 terms of d/dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import beta, hyp2f1

from .errors import TailEstimateError
from .functions import SampledFunction
from .measure import LambdaSpace
from .quadrature import QuadratureSpec, panel_sums, radial_layouts

_KINDS = ("p", "dt", "dx", "dy", "dtdx", "dtdy")


def closed_form_lambda1(t, x, y):
    """Exact kernel for lam = 1: (4t/pi) / (((x-y)^2+t^2) ((x+y)^2+t^2))."""
    t = np.asarray(t, dtype=float)
    return (4.0 * t / np.pi) / (((x - y) ** 2 + t ** 2)
                                * ((x + y) ** 2 + t ** 2))


def _i_k(lam, k, scale, A, q, z):
    """scale / B(lam, 1/2) times I_k, with q = c (c + 2B)."""
    # numpy's q ** 1 is a full power pass, and the kernel (k = 1) is hot
    qk = q if k == 1 else q ** k
    return (scale * A ** (k - lam) / qk
            * hyp2f1(0.5 * (lam - (k - 1)), 0.5 * (lam - k), lam + 0.5, z))


def _j_k(lam, k, scale, A, B, q, z):
    """scale / ((lam + k) B(lam, 3/2)) times J_k, with q = c (c + 2B)."""
    return (scale * (B / A) * A ** (k - lam) / q ** k
            * hyp2f1(0.5 * (lam - (k - 2)), 0.5 * (lam - (k - 1)),
                     lam + 1.5, z))


def kernel_values(space, t, x, y, kind="p"):
    """P_t(x, y) or one of its derivatives over broadcast arrays (t, x, y),
    in closed form (see the module docstring); kind is one of
    p, dt, dx, dy, dtdx, dtdy."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    lam = space.lam
    t, x, y = np.broadcast_arrays(np.asarray(t, dtype=float),
                                  np.asarray(x, dtype=float),
                                  np.asarray(y, dtype=float))
    c = (x - y) ** 2 + t * t
    B = 2.0 * x * y
    A = c + B
    z = (B / A) ** 2
    q = c * (c + 2.0 * B)
    # (2 lam / pi) B(lam, 1/2): every I_k below carries the kernel's factor
    front = 2.0 * lam / math.pi * beta(lam, 0.5)
    if kind == "p":
        return _i_k(lam, 1, front * t, A, q, z)
    if kind == "dt":
        return (_i_k(lam, 1, front, A, q, z)
                - 2.0 * (lam + 1.0) * t * t * _i_k(lam, 2, front, A, q, z))

    small = c < B
    large = ~small
    front_j = 2.0 * lam / math.pi * beta(lam, 1.5)

    def m_k(k, ik):
        """(2 lam / pi) M_k from (2 lam / pi) I_k, each regime on its mask."""
        out = np.empty_like(c)
        out[small] = (_i_k(lam, k - 1, front, A[small], q[small], z[small])
                      - c[small] * ik[small]) / B[small]
        out[large] = ik[large] - _j_k(lam, k, (lam + k) * front_j, A[large],
                                      B[large], q[large], z[large])
        return out

    d, other = (x - y, y) if kind in ("dx", "dtdx") else (y - x, x)
    i2 = _i_k(lam, 2, front, A, q, z)
    g1 = 2.0 * d * i2 + 2.0 * other * m_k(2, i2)
    if kind in ("dx", "dy"):
        return -t * (lam + 1.0) * g1
    i3 = _i_k(lam, 3, front, A, q, z)
    g2 = 2.0 * d * i3 + 2.0 * other * m_k(3, i3)
    return -(lam + 1.0) * g1 + 2.0 * (lam + 1.0) * (lam + 2.0) * t * t * g2


# --------------------------------------------------------------------------
# applying the semigroup

def _radial_end(lam: float, t: float, hold: float, base, quad):
    """Ends Y = base * 2^K of radial integrals against P_t of a function
    bounded by `hold` beyond base, for an array of bases, with the tail
    beyond Y below half the tolerance: returns (Y, tail bounds).  The tail is
    about C t hold / Y, C = 2 Gamma(lam+1) / (sqrt(pi) Gamma(lam+1/2)),
    doubled as a margin for finite-Y corrections."""
    target = 0.5 * max(quad.abs_tol, 1e-14)
    c_tail = 4.0 * math.exp(math.lgamma(lam + 1.0) - math.lgamma(lam + 0.5)
                            ) / math.sqrt(math.pi)
    base = np.asarray(base, dtype=float)
    need = c_tail * t * max(hold, 1e-300) / (target * base)
    K = np.maximum(1.0, np.ceil(np.log2(np.maximum(need, 2.0))))
    # base * 2^K must stay a finite float
    if np.any(K > 200) or np.any(np.log2(base) + K >= 1024):
        raise TailEstimateError(
            f"tail truncation needs 2^{K.max():g} * {base.max():g}; "
            "not attainable")
    hi = np.ldexp(base, K.astype(np.int64))
    return hi, c_tail * t * hold / hi


def check_tail(bound: float, quad: QuadratureSpec) -> None:
    """Raise TailEstimateError when a truncation-tail bound of apply_at is
    above max(abs_tol, 1e-14)."""
    if bound > max(quad.abs_tol, 1e-14):
        raise TailEstimateError(
            f"truncation tail {bound:.3e} above tolerance")


#: functions per radial layout of apply_at.  Level times of 16 bump
#: mixtures by batch size 1, 2, 4, 8, 16 (2-CPU Xeon, one BLAS thread, best
#: of three): 0.22, 0.14, 0.11, 0.12, 0.16 s at 4 grid points and lambda =
#: 1.5; 3.3, 2.8, 2.9, 3.5, 6.1 s at 96 points and lambda = 1.5; 1.5, 1.3,
#: 1.6, 3.0, 5.7 s at 96 points and lambda = 1, where the kernel costs half
#: as much.  Every function is evaluated on the union of the batch's nodes,
#: about 2.8 times one function's, and beyond four that outgrows the kernel
#: and layout saving; a batch of 50 needs 912 panels per point, above
#: MAX_RADIAL_PANELS.
_F_BATCH = 4


def apply_at(space: LambdaSpace,
             f: SampledFunction | tuple[SampledFunction, ...], t: float, xs,
             quad: QuadratureSpec = QuadratureSpec()):
    """(P_t f)(x) for an array of x, with a truncation-tail estimate; f is a
    SampledFunction or a tuple of them.

    Returns (values, tail_bounds): values of shape (x,) for one function
    and (n_f, x) for a tuple, and one tail bound per x that holds for every
    function.  A tuple is laid out in consecutive batches of _F_BATCH.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs <= 0):
        raise ValueError("evaluation points must be positive")
    fs = f if isinstance(f, tuple) else (f,)
    vals, tails = zip(*(_apply_batch(space, fs[i:i + _F_BATCH], t, xs, quad)
                        for i in range(0, len(fs), _F_BATCH)))
    vals = np.concatenate(vals)
    return (vals if isinstance(f, tuple) else vals[0]), np.maximum.reduce(
        tails)


def _apply_batch(space, fs, t, xs, quad):
    """apply_at of a tuple fs on one quadrature.radial_layouts layout of
    all x, aligned with the union of their breakpoints and support ends
    and graded around y = x at scale t, with one kernel evaluation summed
    by one quadrature.panel_sums call.  An unbounded support (nonzero hold
    tail) is truncated where the analytic kernel-decay bound for the
    largest hold drops below the tolerance."""
    starts, ends = zip(*(g.support() for g in fs))
    slo, shi = min(starts), max(ends)
    his, tails = np.full_like(xs, shi), np.zeros_like(xs)
    if math.isinf(shi):
        # beyond the last grid end every function is bounded by the
        # largest hold
        hold = max(abs(float(g.values[-1]))
                   for g, hi in zip(fs, ends) if math.isinf(hi))
        his, tails = _radial_end(space.lam, t, hold, np.maximum(
            xs, max(t, *(g.grid[-1] for g in fs))), quad)
    bps = np.unique(np.concatenate(
        [*(g.quad_breakpoints() for g in fs), starts, ends]))
    runs = radial_layouts(slo, his, xs, t, bps, quad.y_nodes_per_panel,
                          space.weight_exponent)

    def integrand(x, y, w):
        wk = w * kernel_values(space, t, x, y)
        terms = np.empty((len(fs), y.size))
        for row, g in zip(terms, fs):
            np.multiply(wk, g(y), out=row)
        return terms

    return panel_sums(xs, runs, integrand), tails


def poisson_apply(space: LambdaSpace, f: SampledFunction, t: float,
                  eval_grid, quad: QuadratureSpec = QuadratureSpec()
                  ) -> SampledFunction:
    """P_t f as a function: sampled on eval_grid and exactly evaluable
    anywhere via the attached quadrature closure (so compositions like
    P_s(P_t f) do not pay interpolation error).  Every evaluation checks its
    truncation tails (check_tail)."""
    def closure(ys):
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        vals, tails = apply_at(space, f, t, ys, quad)
        check_tail(float(np.max(tails, initial=0.0)), quad)
        return vals

    return SampledFunction.from_callable(closure, eval_grid, left="hold")


def kernel_mass(space: LambdaSpace, t: float, x: float,
                quad: QuadratureSpec = QuadratureSpec()):
    """integral_0^inf P_t(x, y) dm(y) and the truncation-tail bound.

    Equals 1 for every (t, x); the distance to 1 measures end-to-end
    quadrature quality.
    """
    one = SampledFunction.from_callable(
        lambda y: np.ones_like(np.asarray(y, dtype=float)),
        np.array([min(x, t), max(x, t) * 2.0]), left="hold", right="hold")
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
    runs = radial_layouts(0.0, hi, x, t1, (t1, t2, x + t1, x + t2),
                          quad.y_nodes_per_panel, space.weight_exponent)
    return float(panel_sums([x], runs, lambda x, y, w: w * np.abs(
        kernel_values(space, t2, x, y) - kernel_values(space, t1, x, y)))[0])


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


def kernel_bound_ratios(space, sweep, item) -> BoundReport:
    """Size/smoothness bound check: sup over the sweep of |kernel quantity|
    divided by the corresponding two-form bound (constants set to 1).

    The sweep is an (n, 3) array of points (t, x, y), all positive.  item
    'i': kernel itself, 'ii': d/dx, 'iii': d/dt, 'iv': |d2/dtdx| +
    |d2/dtdy|.  The sweep must cover both regimes |x-y| <= t and |x-y| > t.
    """
    pts = np.asarray(sweep, dtype=float)
    if pts.size == 0:
        raise ValueError("sweep must be nonempty")
    if not np.all(pts > 0):
        raise ValueError("t, x, y must all be positive")
    t, x, y = pts.T
    near = np.abs(x - y) <= t
    if not near.any() or near.all():
        raise ValueError("sweep must cover both |x-y| <= t and |x-y| > t")
    den = _bound_denominator(space, item, t, x, y)
    if item == "iv":
        num = (np.abs(kernel_values(space, t, x, y, "dtdx"))
               + np.abs(kernel_values(space, t, x, y, "dtdy")))
    else:
        kind = {"i": "p", "ii": "dx", "iii": "dt"}[item]
        num = np.abs(kernel_values(space, t, x, y, kind))
    ratio = num / den
    return BoundReport(item, float(ratio.max()),
                       float(ratio[near].max()), float(ratio[~near].max()),
                       len(pts))


def kernel_sweep(rng: np.random.Generator, n: int,
                 t_range=(1e-2, 1e2), xy_range=(1e-2, 1e2)):
    """Log-uniform sweep, an (n, 3) array of points (t, x, y); one third of
    the points are forced near the diagonal so both bound regimes are
    populated."""
    t = np.exp(rng.uniform(*np.log(t_range), size=n))
    x = np.exp(rng.uniform(*np.log(xy_range), size=n))
    y = np.exp(rng.uniform(*np.log(xy_range), size=n))
    k = n // 3
    y[:k] = x[:k] * (1.0 + rng.uniform(-0.5, 0.5, size=k) * np.minimum(
        t[:k] / x[:k], 0.5))
    return np.column_stack([t, x, y])
