"""Modified Hankel transform diagonalizing the Bessel operator.

    (H f)(y) = integral_0^inf phi(x y) f(x) dm(x),
    phi(z)   = z^(-nu) J_nu(z),   nu = lam - 1/2,   dm(x) = x^(2 lam) dx.

With this normalization H is its own inverse on L2(dm), an isometry, and
exp(-x^2/2) is a fixed point.  The subordinated semigroup acts as a Fourier
multiplier: P_t f = H(exp(-t y) (H f)(y)), which provides a route to P_t f
completely independent of the kernel quadrature.

The transform of a whole grid of frequencies y is one quadrature.panel_sums
call.  Per frequency, panels of y_nodes_per_panel Gauss nodes at most one
oscillation period 2 pi/y of J_nu(x y) wide, aligned with f's breakpoints:
quadrature.panel_layouts, the one layout builder of the Gauss-panel
integrals, lays out all frequencies with array operations and yields them
in runs of about two million nodes, which panel_sums evaluates one at a
time.  The Bessel order nu = lam - 1/2 must lie in
[0, NU_MAX] = [0, 40.5], where scipy's jv is validated.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import jv

from .errors import NumericsError, TailEstimateError
from .functions import SampledFunction
from .measure import LambdaSpace, lp_norm
from .quadrature import QuadratureSpec, panel_layouts, panel_sums


#: largest order nu (lambda = 41) at which normalized_bessel is validated;
#: above about 42.5, jv(nu, z) / z^nu underflows to 0 or turns nan
NU_MAX = 40.5

#: budget of panels per frequency of a Hankel transform
MAX_HANKEL_PANELS = 20000


def normalized_bessel(nu: float, z) -> np.ndarray:
    """phi(z) = z^(-nu) J_nu(z), finite at 0 with value 2^(-nu)/Gamma(nu+1).

    scipy's jv over z^nu; below z = 1e-6 the two-term series
    (1 - z^2 / (4 (nu+1))) / (2^nu Gamma(nu+1)), exact to rounding there.
    Orders outside [0, NU_MAX] raise ValueError."""
    if not 0.0 <= nu <= NU_MAX:
        raise ValueError(f"nu must lie in [0, {NU_MAX:g}], got {nu:g}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z < 0):
        raise ValueError("argument must be nonnegative")
    out = np.empty_like(z)
    small = z < 1e-6
    zs = z[small]
    out[small] = ((1.0 - zs * zs / (4.0 * (nu + 1.0)))
                  / (2.0 ** nu * math.gamma(nu + 1.0)))
    zb = z[~small]
    out[~small] = jv(nu, zb) / zb ** nu
    return out


# --------------------------------------------------------------------------
# transform quadrature

def _period_layouts(lo: float, hi: float, freqs, breakpoints, n: int,
                    exponent: float):
    """quadrature.panel_layouts of [lo, hi], one point per frequency in
    `freqs`, with the budget MAX_HANKEL_PANELS: the breakpoints inside
    (lo, hi) are the base edges of every frequency, and panels are no wider
    than one oscillation period 2 pi/freq (nor than hi - lo)."""
    freqs = np.asarray(freqs, dtype=float)
    bps = np.asarray(breakpoints, dtype=float)
    base = np.unique(np.concatenate([[lo, hi], bps[(bps > lo) & (bps < hi)]]))
    two_pi = 2.0 * math.pi
    cap = two_pi / np.maximum(freqs, two_pi / (hi - lo))
    return panel_layouts(np.tile(base, freqs.size),
                         np.full(freqs.size, base.size),
                         np.repeat(cap, base.size - 1), n, exponent,
                         MAX_HANKEL_PANELS)


def hankel_transform(space: LambdaSpace, f: SampledFunction, eval_grid,
                     quad: QuadratureSpec = QuadratureSpec(),
                     extra_freq: float = 0.0) -> SampledFunction:
    """H f sampled on eval_grid, with a closure for exact re-evaluation.

    Requires f to vanish beyond its grid (right tail policy "zero"); a
    nonzero hold tail has no integrable truncation and raises ValueError.
    extra_freq adds to the panelization frequency when f itself oscillates
    (e.g. f is a transform supported up to extra_freq).  A frequency whose
    layout needs more than MAX_HANKEL_PANELS panels raises QuadratureError.
    """
    slo, shi = f.support()
    if math.isinf(shi):
        raise ValueError("hankel_transform needs right tail policy 'zero'")
    nu = space.lam - 0.5
    bps = f.quad_breakpoints()

    def closure(ys):
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        if shi <= slo:
            return np.zeros_like(ys)
        runs = _period_layouts(slo, shi, np.abs(ys) + extra_freq, bps,
                               quad.y_nodes_per_panel, space.weight_exponent)
        return panel_sums(ys, runs, lambda y, x, w: (
            w * f(x) * normalized_bessel(nu, x * y)))

    eval_grid = np.asarray(eval_grid, dtype=float)
    vals = closure(eval_grid)
    return SampledFunction(eval_grid, vals, left="hold", right="zero",
                           func=closure)


def spectral_poisson_apply(space: LambdaSpace, f: SampledFunction, t: float,
                           eval_grid,
                           quad: QuadratureSpec = QuadratureSpec()
                           ) -> SampledFunction:
    """P_t f through the multiplier route H(exp(-t y) H f).

    Truncates the frequency integral where exp(-t y) has decayed below
    roundoff; cost grows like 1/t, so this route suits moderate t.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    y_max = 40.0 / t
    y_grid = np.geomspace(y_max * 1e-5, y_max, 192)
    hf = hankel_transform(space, f, y_grid, quad)

    def damped_func(ys):
        ys = np.asarray(ys, dtype=float)
        return np.exp(-t * np.clip(ys, None, y_max)) * hf(ys)

    damped = SampledFunction(y_grid, damped_func(y_grid), left="hold",
                             right="zero", func=damped_func)
    # the damped transform itself oscillates at the scale of f's support
    return hankel_transform(space, damped, np.asarray(eval_grid, dtype=float),
                            quad, extra_freq=f.support()[1] + 0.5 * t)


def gaussian_fixed_point_defect(space: LambdaSpace, eval_pts,
                                quad: QuadratureSpec = QuadratureSpec()
                                ) -> float:
    """max over eval_pts of |H(exp(-x^2/2))(y) - exp(-y^2/2)|."""
    grid = np.geomspace(1e-6, 14.0, 256)
    g = SampledFunction.from_callable(
        lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2), grid,
        breakpoints=(0.5, 1.0, 2.0, 4.0, 8.0))
    eval_pts = np.asarray(eval_pts, dtype=float)
    hg = hankel_transform(space, g, eval_pts, quad)
    return float(np.max(np.abs(hg.values - np.exp(-0.5 * eval_pts ** 2))))


def involution_defect(space: LambdaSpace, f: SampledFunction, eval_pts,
                      y_max: float, n_y: int = 256,
                      quad: QuadratureSpec = QuadratureSpec()) -> float:
    """max |H(H f)(x) - f(x)| / max |f| over eval_pts.

    y_max truncates the outer frequency integral; the caller must choose it
    past the decay of H f (checked: the boundary sample of |H f| has to sit
    below 1e-6 of its peak, else TailEstimateError).
    """
    y_grid = np.geomspace(y_max * 1e-5, y_max, n_y)
    hf = hankel_transform(space, f, y_grid, quad)
    peak = float(np.max(np.abs(hf.values)))
    edge = float(np.abs(hf.values[-1]))
    if peak > 0 and edge > 1e-6 * peak:
        raise TailEstimateError(
            f"|Hf| at y_max is {edge / peak:.1e} of its peak; "
            "increase y_max")
    eval_pts = np.asarray(eval_pts, dtype=float)
    back = hankel_transform(space, hf, eval_pts, quad,
                            extra_freq=f.support()[1])
    scale = float(np.max(np.abs(f(eval_pts))))
    return float(np.max(np.abs(back.values - f(eval_pts)))) / scale


def plancherel_defect(space: LambdaSpace, f: SampledFunction,
                      y_max: float, n_y: int = 4096,
                      quad: QuadratureSpec = QuadratureSpec()):
    """(|f|_2, |Hf|_2, relative difference), the transform side integrated
    from a dense sampling of H f (period-resolving n_y is the caller's job).

    |Hf|^2 y^(2 lam) is smooth, so Simpson on the sample grid converges two
    orders faster than the piecewise-linear norm would.  An n_y too small
    to resolve H f can drive the Simpson sum negative: NumericsError.
    """
    from scipy.integrate import simpson

    if n_y < 16:
        raise ValueError(f"n_y must be at least 16, got {n_y}")
    y_grid = np.unique(np.concatenate([
        np.geomspace(y_max * 1e-6, y_max * 1e-2, n_y // 8),
        np.linspace(y_max * 1e-2, y_max, n_y)]))
    hf = hankel_transform(space, f, y_grid, quad)
    lhs = lp_norm(space, f, 2.0)
    integrand = hf.values ** 2 * y_grid ** space.weight_exponent
    rhs_sq = float(simpson(integrand, x=y_grid))
    if not rhs_sq >= 0.0:
        raise NumericsError(
            f"Simpson sum of |Hf|^2 y^(2 lam) is {rhs_sq:.3e} < 0: "
            f"n_y = {n_y} does not resolve H f")
    rhs = math.sqrt(rhs_sq)
    return lhs, rhs, abs(lhs - rhs) / lhs
