"""The measure space ((0,inf), |.|, dm_lam) with dm_lam = y^(2*lam) dy.

Interval masses, comparability diagnostics, weighted Lebesgue norms, BMO over
a dyadic interval family and Muckenhoupt A_p characteristics for power
weights.  Integrals of piecewise-linear data against power weights are done
with exact antiderivatives; only genuinely non-polynomial integrands
(|f|^q for fractional q, callable-backed functions) fall back to per-cell
Gauss rules aligned with the sample grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .functions import SampledFunction
from .quadrature import legendre_rule


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

    def dilate(self, c: float) -> "Interval":
        return Interval(self.center, c * self.radius)


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
    if p == -1.0:
        if a == 0.0:
            return math.inf
        return math.log(b / a)
    q = p + 1.0
    if a == 0.0:
        if q <= 0.0:
            return math.inf
        return b ** q / q
    return (b ** q - a ** q) / q


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
    pts = [(float(x), float(r)) for x, r in sweep]
    if not pts:
        raise ValueError("sweep must be nonempty")
    ratios = []
    for x, r in pts:
        if not (x > 0 and r > 0):
            raise ValueError("sweep points must be positive")
        m = measure_interval(space, Interval(x, r))
        ratios.append(m / (x ** space.weight_exponent * r + r ** space.dimension))
    xs = [x for x, _ in pts]
    rs = [r for _, r in pts]
    spans = (max(xs) / min(xs) >= 1e3) and (max(rs) / min(rs) >= 1e3)
    return ComparabilityReport(min(ratios), max(ratios), len(pts), spans)


# --------------------------------------------------------------------------
# integration of SampledFunctions over intervals

def _segments(f: SampledFunction, A: float, B: float):
    """Yield (a, b, alpha, beta) linear pieces of f covering [A, B]; pieces
    where f vanishes are skipped.  Only for sample-backed f (func is None)."""
    g, v = f.grid, f.values
    if A < g[0]:
        if f.left == "hold" and v[0] != 0.0:
            yield A, min(B, g[0]), 0.0, v[0]
    lo = np.searchsorted(g, A, side="right") - 1
    hi = np.searchsorted(g, B, side="left")
    for i in range(max(lo, 0), min(hi, len(g) - 1)):
        a, b = max(A, g[i]), min(B, g[i + 1])
        if b <= a:
            continue
        alpha = (v[i + 1] - v[i]) / (g[i + 1] - g[i])
        beta = v[i] - alpha * g[i]
        if alpha == 0.0 and beta == 0.0:
            continue
        yield a, b, alpha, beta
    if B > g[-1]:
        if f.right == "hold" and v[-1] != 0.0:
            yield max(A, g[-1]), B, 0.0, v[-1]


def _linear_power(a, b, alpha, beta, p):
    """integral_a^b (alpha*y + beta) y^p dy, exact."""
    return alpha * power_integral(a, b, p + 1.0) + beta * power_integral(a, b, p)


def _gl_cells(f, A, B, p, transform, n=24):
    """Sum of per-cell Gauss-Legendre integrals of transform(f(y)) * y^p
    over [A, B], cells aligned with f's grid (callable-backed path)."""
    g = f.grid
    edges = [A]
    for gp in g:
        if A < gp < B:
            edges.append(float(gp))
    for bp in f.breakpoints:
        if A < bp < B:
            edges.append(float(bp))
    edges.append(B)
    edges = sorted(set(edges))
    xs, ws = legendre_rule(n)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(a + half * (1.0 + xs))
        weights.append(ws * half)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    vals = transform(f(nodes))
    return float(np.sum(weights * vals * nodes ** p))


def interval_integral(space: LambdaSpace, f: SampledFunction, iv: Interval,
                      delta: float = 0.0) -> float:
    """integral_I f(y) y^delta dm_lam(y)."""
    p = space.weight_exponent + delta
    A, B = iv.left, iv.right
    slo, shi = f.support()
    A, B = max(A, slo), min(B, shi)
    if B <= A:
        return 0.0
    if f.func is not None:
        return _gl_cells(f, A, B, p, lambda t: t)
    return sum(_linear_power(a, b, al, be, p)
               for a, b, al, be in _segments(f, A, B))


def interval_average(space: LambdaSpace, f: SampledFunction, iv: Interval) -> float:
    return interval_integral(space, f, iv) / measure_interval(space, iv)


def interval_q_integral(space: LambdaSpace, f: SampledFunction, iv: Interval,
                        q: float) -> float:
    """integral_I |f|^q dm_lam; exact for q in {1, 2} on sampled f."""
    if q < 1.0:
        raise ValueError("q must be at least 1")
    p = space.weight_exponent
    A, B = iv.left, iv.right
    slo, shi = f.support()
    A, B = max(A, slo), min(B, shi)
    if B <= A:
        return 0.0
    if f.func is not None:
        return _gl_cells(f, A, B, p, lambda t: np.abs(t) ** q)
    if q == 1.0:
        return _abs_dev_exact(f, A, B, 0.0, p)
    if q == 2.0:
        return sum(al * al * power_integral(a, b, p + 2.0)
                   + 2.0 * al * be * power_integral(a, b, p + 1.0)
                   + be * be * power_integral(a, b, p)
                   for a, b, al, be in _segments(f, A, B))
    xs, ws = legendre_rule(16)
    total = 0.0
    for a, b, al, be in _segments(f, A, B):
        cross = -be / al if al != 0.0 and a < -be / al < b else None
        for u, w in ((a, cross), (cross, b)) if cross else ((a, b),):
            half = 0.5 * (w - u)
            nodes = u + half * (1.0 + xs)
            total += half * float(np.sum(
                ws * np.abs(al * nodes + be) ** q * nodes ** p))
    return total


def _abs_dev_exact(f, A, B, c, p):
    """integral_A^B |f - c| y^p dy for piecewise-linear f, exact."""
    total = 0.0
    for a, b, al, be in _segments(f, A, B):
        be_c = be - c
        cross = None
        if al != 0.0:
            y0 = -be_c / al
            if a < y0 < b:
                cross = y0
        pieces = [(a, cross), (cross, b)] if cross else [(a, b)]
        for (u, w) in pieces:
            if w is None or u is None or w <= u:
                continue
            mid = 0.5 * (u + w)
            s = 1.0 if al * mid + be_c >= 0 else -1.0
            total += s * _linear_power(u, w, al, be_c, p)
    if c != 0.0:
        # regions where f == 0 contribute |c| * measure
        covered = [(a, b) for a, b, _, _ in _segments(f, A, B)]
        total += abs(c) * _gap_measure(A, B, covered, p)
    return total


def _gap_measure(A, B, covered, p):
    """Power-measure of [A,B] minus the covered sub-segments."""
    total = power_integral(A, B, p)
    for a, b in covered:
        total -= power_integral(a, b, p)
    return max(total, 0.0)


def oscillation(space: LambdaSpace, f: SampledFunction, iv: Interval) -> float:
    """integral_I |f - f_I| dm_lam with f_I the dm-average over I."""
    m = measure_interval(space, iv)
    c = interval_integral(space, f, iv) / m
    p = space.weight_exponent
    A, B = iv.left, iv.right
    if f.func is not None:
        return _gl_cells(f, A, B, p, lambda t: np.abs(t - c))
    slo, shi = f.support()
    a0, b0 = max(A, slo), min(B, shi)
    total = _abs_dev_exact(f, a0, b0, c, p) if b0 > a0 else 0.0
    # outside the support f == 0, deviation is |c|
    if c != 0.0:
        total += abs(c) * (power_integral(A, min(a0, B), p)
                           + power_integral(max(b0, A), B, p))
    return total


def bmo_norm(space: LambdaSpace, f: SampledFunction,
             family: Iterable[Interval]) -> float:
    """Max mean oscillation over the interval family (a BMO surrogate)."""
    fam = list(family)
    if not fam:
        raise ValueError("interval family must be nonempty")
    return max(oscillation(space, f, iv) / measure_interval(space, iv)
               for iv in fam)


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

    if f.func is not None:
        total = _gl_cells(f, slo, shi, pw, lambda t: np.abs(t) ** p)
        return total ** (1.0 / p)

    total = 0.0
    for a, b, al, be in _segments(f, slo, shi):
        zs = [a, b]
        if al != 0.0:
            y0 = -be / al
            if a < y0 < b:
                zs = [a, y0, b]
        for u, w in zip(zs[:-1], zs[1:]):
            if p == 1.0:
                total += abs(_linear_power(u, w, al, be, pw))
            elif p == 2.0:
                total += (al * al * power_integral(u, w, pw + 2.0)
                          + 2.0 * al * be * power_integral(u, w, pw + 1.0)
                          + be * be * power_integral(u, w, pw))
            else:
                xs, ws_ = legendre_rule(16)
                half = 0.5 * (w - u)
                y = u + half * (1.0 + xs)
                total += half * float(np.sum(
                    ws_ * np.abs(al * y + be) ** p * y ** pw))
    return total ** (1.0 / p)


def ap_characteristic(space: LambdaSpace, weight: PowerWeight, p: float,
                      family: Iterable[Interval]) -> float:
    """sup over the family of (avg_I omega) (avg_I omega^(-1/(p-1)))^(p-1),
    averages taken against dm_lam; exact power antiderivatives throughout."""
    if not (1.0 < p < math.inf):
        raise ValueError("p must be in (1, inf)")
    fam = list(family)
    if not fam:
        raise ValueError("interval family must be nonempty")
    d = space.weight_exponent
    e1 = d + weight.delta
    e2 = d - weight.delta / (p - 1.0)
    best = 0.0
    for iv in fam:
        if iv.left == 0.0 and (e1 <= -1.0 or e2 <= -1.0):
            raise ValueError(
                f"weight y^{weight.delta} not integrable on {iv} for p={p}")
        m = measure_interval(space, iv)
        a1 = power_integral(iv.left, iv.right, e1) / m
        a2 = power_integral(iv.left, iv.right, e2) / m
        best = max(best, a1 * a2 ** (p - 1.0))
    return best
