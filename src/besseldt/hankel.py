"""Modified Hankel transform diagonalizing the Bessel operator.

    (H f)(y) = integral_0^inf phi(x y) f(x) dm(x),
    phi(z)   = z^(-nu) J_nu(z),   nu = lam - 1/2,   dm(x) = x^(2 lam) dx.

With this normalization H is its own inverse on L2(dm), an isometry, and
exp(-x^2/2) is a fixed point.  The subordinated semigroup acts as a Fourier
multiplier: P_t f = H(exp(-t y) (H f)(y)), which provides a route to P_t f
completely independent of the kernel quadrature.  Its intermediates H f and
exp(-t y) H f, like the Gaussian of the fixed-point check, are read only
through their closures, so each is built on the two ends of its support.

The transform of a grid of frequencies y groups them into bands at the
panelization frequency |y| (plus extra_freq for an oscillating f): every
frequency at or below f0 = 2 pi/(hi - lo) of f's support [lo, hi] in one
band, and from the highest remaining frequency F down, every remaining one
above F/2 in the next.  The bands of a call are the points of one
quadrature.panel_layouts call, each laid out for its own F: panels of
y_nodes_per_panel Gauss nodes at most one period 2 pi/F wide, aligned with
f's breakpoints.  The bands share these base edges, so one call lays them
all out and pays numpy's per-call overhead once.  So each frequency's
panels are at most one of its own periods wide, at no more than twice its
own nodes, and f is evaluated once per band on that band's nodes, which
pays most where f is itself a transform (the nested transforms of
involution_defect and spectral_poisson_apply).  A band's sums are row sums
of phi(y x) w f(x), in blocks of at most quadrature._NODE_BLOCK entries; a
row sum does not depend on the block.  A value depends on its band, that
is on the other frequencies asked for with it, only within the Gauss
rule's error on the two layouts: at roundoff for f that 16 nodes resolve
(6.1e-16 of sup |H f| for x^2 exp(-x^2/2) at lambda = 0.6, 1.25 and 3.5),
up to 1.6e-9 for smooth_bump(2, 1), whose edges they do not.  The Bessel
order nu = lam - 1/2 must lie in [0, NU_MAX] = [0, 40.5].

Bessel values are almost all of a transform's cost, so normalized_bessel
reads phi from a table per order: a degree-14 polynomial on each piece
[2 j, 2 j + 2], interpolating phi at 15 Chebyshev points, which grows by
doubling up to z = 2^15 as arguments ask for it.  scipy's fastest accurate
route per argument builds the table and serves above it: the confluent
limit function 0F1 (DLMF 10.16.9) up to z = 512, spherical_jn at
half-integer orders (DLMF 10.47.3) above z = 1, and jv elsewhere.
_phi_scipy imports scipy.special when an order's table is first built, so
importing this module does not import it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError, TailEstimateError
from .functions import SampledFunction
from .measure import LambdaSpace, lp_norm
from . import piecewise, quadrature
from .quadrature import QuadratureSpec, panel_layouts


#: largest order nu (lambda = 41) at which normalized_bessel is checked
#: against mpmath; larger orders are unchecked and raise
NU_MAX = 40.5

#: budget of panels per frequency of a Hankel transform
MAX_HANKEL_PANELS = 20000


def normalized_bessel(nu: float, z) -> np.ndarray:
    """phi(z) = z^(-nu) J_nu(z), finite at 0 with value 2^(-nu)/Gamma(nu+1).

    Below z = _TABLE_CAP = 2^15 the value comes from the order's table
    (_phi_table), which first grows to cover the call's largest z below
    the cap; at and above it, and for nan, _phi_scipy serves.  phi is
    entire, so each piece's interpolant converges geometrically
    (Trefethen, Approximation Theory and Approximation Practice, ch. 8);
    at degree 14 on pieces 2 wide the table is as accurate as the scipy
    values it interpolates.
    Against 40-digit mpmath up to z = 4e4, at twelve orders in [0, 40.5],
    it is within 2.6e-14 of the envelope min(phi(0), sqrt(2/pi)
    z^(-nu-1/2)), as 0F1 is, except at nu = 40.25: 2e-13, from jv's error
    at the nodes of the piece (see _phi_scipy).  A table holds at most 2^14
    pieces of 15 coefficients, 2 MB per order.  A value does not depend on
    the other arguments of its call or on when the table grew.

    Per point, on one thread of a 2-CPU Xeon host with numpy 2.4.6 and
    scipy 1.17.1: 24-34 ns from the table on 2^21-entry blocks, against
    86-117 ns for 0F1 below z = 512, 215-226 ns for jv above it and 38-49
    ns for spherical_jn (n = 0, 1), each on 6e5 points.  Growing a table
    to its cap takes 16 ms at nu = 1/2 and 58-90 ms where jv builds it
    (nu = 0, 0.75, 40.25).

    Orders outside [0, NU_MAX] and negative arguments raise ValueError."""
    if not 0.0 <= nu <= NU_MAX:
        raise ValueError(f"nu must lie in [0, {NU_MAX:g}], got {nu:g}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z < 0):
        raise ValueError("argument must be nonnegative")
    flat = z.ravel()
    top = flat.max(initial=0.0)
    if top < _TABLE_CAP:
        return piecewise.horner(_phi_table(nu, top), z, _locate)
    near = flat < _TABLE_CAP
    out = np.empty_like(flat)
    out[near] = piecewise.horner(
        _phi_table(nu, np.max(flat, initial=0.0, where=near)), flat[near],
        _locate)
    out[~near] = _phi_scipy(nu, flat[~near])
    return out.reshape(z.shape)


# --------------------------------------------------------------------------
# the table of phi: polynomial pieces on [2 j, 2 j + 2] per order

#: pieces of a new table (it covers z < 512), and the cap of every table
#: at 2^14 pieces (z < 2^15, about 2 MB per order)
_FIRST_PIECES = 256
_TABLE_CAP = 2.0 ** 15

#: order nu -> (piecewise.TERMS, pieces) power-series coefficients of phi
#: in u = z - 2 j - 1 on the pieces [2 j, 2 j + 2], row k holding u^k's
_PHI_TABLES: dict = {}


def _phi_scipy(nu: float, z: np.ndarray) -> np.ndarray:
    """phi by scipy's fastest accurate route per argument, for z >= 0 in a
    flat array: the values the table interpolates, and the route at and
    above its cap.

    - z <= 512: 0F1(; nu+1; -z^2/4) / (2^nu Gamma(nu+1)) (DLMF 10.16.9),
      which also covers z = 0 and tiny z.  Within 2.6e-14 of the envelope
      min(phi(0), sqrt(2/pi) z^(-nu-1/2)) for every nu in [0, 40.5],
      where jv reaches 3.2e-13 at nu = 40.5.
    - z > 512, nu not a half-integer: jv(nu, z) / z^nu.  0F1 takes
      -z^2/4 and a square root back, which moves z by up to an ulp; the
      phase error then grows with z, from 5e-14 of the envelope at
      z = 525 to 2.1e-13 at z = 2000.
    - z > 1, half-integer nu = n + 1/2: sqrt(2/pi) j_n(z) / z^n
      (DLMF 10.47.3) through spherical_jn, within 4.8e-14 of the envelope
      for n up to 40.  Below z = 1 the 0F1 route serves, as z^n underflows
      at tiny z."""
    from scipy.special import hyp0f1, jv, spherical_jn

    n = nu - 0.5
    half_integer = n.is_integer()
    far = z > (1.0 if half_integer else 512.0)
    zn, zf = z[~far], z[far]
    out = np.empty_like(z)
    out[~far] = (hyp0f1(nu + 1.0, -0.25 * zn * zn)
                 / (2.0 ** nu * math.gamma(nu + 1.0)))
    if half_integer:
        out[far] = (math.sqrt(2.0 / math.pi) * spherical_jn(int(n), zf)
                    / zf ** n)
    else:
        out[far] = jv(nu, zf) / zf ** nu
    return out


def _phi_table(nu: float, top: float) -> np.ndarray:
    """The coefficients of phi's table for order nu, doubled from
    _FIRST_PIECES pieces until they cover z = top < _TABLE_CAP.

    A new piece interpolates phi at its own 15 nodes: Chebyshev
    coefficients from the values, then power-series coefficients from
    those, each a fixed-order sum, so a piece is the same whether the
    table grew to it in one step or in several."""
    coef = _PHI_TABLES.get(nu)
    have = 0 if coef is None else coef.shape[1]
    size = max(have, _FIRST_PIECES)
    while 2.0 * size <= top:
        size *= 2
    if size == have:
        return coef
    u = piecewise.interpolation()[0]
    centers = 2.0 * np.arange(have, size) + 1.0
    values = _phi_scipy(nu, (u[:, None] + centers).ravel()
                        ).reshape(piecewise.TERMS, -1)
    new = piecewise.coefficients(values)
    coef = new if coef is None else np.concatenate([coef, new], axis=1)
    _PHI_TABLES[nu] = coef
    return coef


def _locate(z: np.ndarray):
    """The piece [2 j, 2 j + 2] of each z and its u = z - 2 j - 1.

    phi is of exponential type 1, so by Cauchy's estimate the k-th
    coefficient of a piece is of order 1/k! of phi's size near it, and
    Horner's sum in u cancels nothing."""
    piece = (0.5 * z).astype(np.intp)
    u = z - 2.0 * piece
    u -= 1.0
    return piece, u


# --------------------------------------------------------------------------
# transform quadrature

def _period_layouts(lo: float, hi: float, freqs, breakpoints, n: int,
                    exponent: float):
    """quadrature.panel_layouts of [lo, hi] at many frequencies, one point
    per frequency, with the budget MAX_HANKEL_PANELS: each point's base
    edges are lo, hi and the breakpoints inside (lo, hi), and its panels
    are no wider than one oscillation period 2 pi/freq (nor than hi - lo).
    A point's nodes and weights are those of its own one-frequency call.

    Returns (nodes, weights, counts) as panel_layouts does."""
    bps = np.asarray(breakpoints, dtype=float)
    base = np.unique(np.concatenate([[lo, hi], bps[(bps > lo) & (bps < hi)]]))
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    two_pi = 2.0 * math.pi
    caps = two_pi / np.maximum(freqs, two_pi / (hi - lo))
    return panel_layouts(np.tile(base, freqs.size),
                         np.full(freqs.size, base.size),
                         np.repeat(caps, base.size - 1), n, exponent,
                         MAX_HANKEL_PANELS)


def hankel_transform(space: LambdaSpace, f: SampledFunction, eval_grid,
                     quad: QuadratureSpec = QuadratureSpec(),
                     extra_freq: float = 0.0) -> SampledFunction:
    """H f sampled on eval_grid, with a closure for exact re-evaluation.

    Requires f to vanish beyond its grid (right tail policy "zero"); a
    nonzero hold tail has no integrable truncation and raises ValueError.
    extra_freq adds to the panelization frequency |y| + extra_freq when f
    itself oscillates (e.g. f is a transform supported up to extra_freq).

    The closure sums its frequencies in bands, each on one layout and one
    evaluation of w f (module docstring): every frequency at or below
    f0 = 2 pi/(hi - lo) of f's support [lo, hi] in one band; from the
    highest remaining frequency F down, every remaining one above F/2 in
    the next.  The bands of a call are the points of one _period_layouts
    call, band k's at its top F_k, and are summed in that top-down order.
    The call's nodes are held at once: band tops at least halve, so they
    are at most about twice its top band's.  A layout that needs more than
    MAX_HANKEL_PANELS panels raises QuadratureError, naming the highest
    such band's count, before any band is summed.
    """
    slo, shi = f.support()
    if math.isinf(shi):
        raise ValueError("hankel_transform needs right tail policy 'zero'")
    nu = space.lam - 0.5
    bps = f.quad_breakpoints()

    def closure(ys):
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        out = np.zeros_like(ys)
        freqs = np.abs(ys) + extra_freq
        order = np.argsort(freqs)
        sorted_freqs = freqs[order]
        f0 = 2.0 * math.pi / (shi - slo)
        low = np.searchsorted(sorted_freqs, f0, side="right")
        # band k, top down, holds order[stops[k + 1]:stops[k]] and has
        # its top frequency at tops[k]
        stops, tops = [ys.size], []
        while stops[-1] > 0:
            top = sorted_freqs[stops[-1] - 1]
            tops.append(top)
            stops.append(0 if top <= f0 else max(low, np.searchsorted(
                sorted_freqs, 0.5 * top, side="right")))
        xs, ws, counts = _period_layouts(slo, shi, tops, bps,
                                         quad.y_nodes_per_panel,
                                         space.weight_exponent)
        cuts = np.cumsum(counts)[:-1]
        for x, w, start, stop in zip(np.split(xs, cuts), np.split(ws, cuts),
                                     stops[1:], stops):
            wf = w * f(x)
            band = order[start:stop]
            rows = max(1, quadrature._NODE_BLOCK // x.size)
            for first in range(0, band.size, rows):
                idx = band[first:first + rows]
                phi = normalized_bessel(nu, np.multiply.outer(ys[idx], x))
                out[idx] = np.sum(phi * wf, axis=1)
        return out

    return SampledFunction.from_callable(closure, eval_grid, left="hold")


def spectral_poisson_apply(space: LambdaSpace, f: SampledFunction, t: float,
                           eval_grid,
                           quad: QuadratureSpec = QuadratureSpec()
                           ) -> SampledFunction:
    """P_t f through the multiplier route H(exp(-t y) H f).

    Truncates the frequency integral at y_max = 40/t, where exp(-t y) has
    decayed below roundoff; cost grows like 1/t, so this route suits
    moderate t.  H f and exp(-t y) H f live on the support ends [y_max 1e-5,
    y_max]: the outer transform reads them only at its Gauss nodes.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    y_max = 40.0 / t
    ends = np.array([y_max * 1e-5, y_max])
    hf = hankel_transform(space, f, ends, quad)
    damped = SampledFunction.from_callable(
        lambda ys: np.exp(-t * ys) * hf(ys), ends, left="hold")
    # the damped transform itself oscillates at the scale of f's support
    return hankel_transform(space, damped, eval_grid, quad,
                            extra_freq=f.support()[1] + 0.5 * t)


def gaussian_fixed_point_defect(space: LambdaSpace, eval_pts,
                                quad: QuadratureSpec = QuadratureSpec()
                                ) -> float:
    """max over eval_pts of |H(exp(-x^2/2))(y) - exp(-y^2/2)|.

    The Gaussian's left tail is "hold" on its callable, so its support
    starts at 0 and the Gauss-Jacobi first panel takes the piece below the
    grid."""
    g = SampledFunction.from_callable(
        lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        np.array([1e-6, 14.0]), left="hold",
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
