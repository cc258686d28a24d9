"""Modified Hankel transform diagonalizing the Bessel operator.

    (H f)(y) = integral_0^inf phi(x y) f(x) dm(x),
    phi(z)   = z^(-nu) J_nu(z),   nu = lam - 1/2,   dm(x) = x^(2 lam) dx.

With this normalization H is its own inverse on L2(dm), an isometry, and
exp(-x^2/2) is a fixed point.  The subordinated semigroup acts as a Fourier
multiplier: P_t f = H(exp(-t y) (H f)(y)), which provides a route to P_t f
completely independent of the kernel quadrature.

The Bessel function is evaluated by an ascending series in extended
precision below a crossover argument and by the Hankel asymptotic expansion
(summed to its smallest term) above it; both branches stay within a few ulp
across the crossover.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureError, TailEstimateError
from .functions import SampledFunction
from .measure import LambdaSpace, lp_norm
from .quadrature import QuadratureSpec, jacobi_rule, legendre_rule


def _series_crossover(nu: float) -> float:
    # balance of the two error floors: the alternating series loses about
    # e^z * eps80 to cancellation, the asymptotic expansion is optimally
    # truncated at ~ sqrt(z) e^(-2z); they cross near z = 15.5
    return max(15.5, 2.0 * nu)


def normalized_bessel(nu: float, z) -> np.ndarray:
    """phi(z) = z^(-nu) J_nu(z), finite at 0 with value 2^(-nu)/Gamma(nu+1)."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z < 0):
        raise ValueError("argument must be nonnegative")
    out = np.empty_like(z)
    split = _series_crossover(nu)
    small = z <= split
    if small.any():
        out[small] = _phi_series(nu, z[small])
    big = ~small
    if big.any():
        zb = z[big]
        out[big] = zb ** (-nu) * _j_asymptotic(nu, zb)
    return out


def _phi_series(nu: float, z: np.ndarray) -> np.ndarray:
    # sum_k (-z^2/4)^k / (k! Gamma(nu+k+1) 2^nu); extended precision soaks
    # up the alternating-series cancellation near the crossover.  Allterm
    # factors must be formed in extended precision too, or their rounding
    # gets amplified by the cancellation.
    nu_l = np.longdouble(nu)
    zz = (z.astype(np.longdouble) ** 2) / 4.0
    term = np.full(z.shape, np.longdouble(2.0) ** (-nu_l)
                   / math.gamma(nu + 1.0), dtype=np.longdouble)
    acc = term.copy()
    for k in range(200):
        term = term * (-zz) / (np.longdouble(k + 1) * (nu_l + (k + 1)))
        acc += term
        if np.max(np.abs(term)) <= 1e-25 * max(np.max(np.abs(acc)), 1e-300):
            break
    return acc.astype(float)


def _j_asymptotic(nu: float, z: np.ndarray) -> np.ndarray:
    # J_nu(z) ~ sqrt(2/(pi z)) (P cos(chi) - Q sin(chi)), chi = z - nu pi/2
    # - pi/4; coefficients a_{k+1}/a_k = (4 nu^2 - (2k+1)^2)/(8 (k+1)),
    # summed until the terms stop decreasing (half-integer nu terminates).
    mu = 4.0 * nu * nu
    P = np.ones_like(z)
    Q = np.zeros_like(z)
    term = np.ones_like(z)
    k = 0
    last = np.inf
    while True:
        fac = (mu - (2 * k + 1) ** 2) / (8.0 * (k + 1))
        term = term * fac / z
        mag = np.max(np.abs(term))
        if mag <= 1e-18 or mag >= last:
            break
        # term k+1 of the combined series: odd indices feed Q, even feed P,
        # with sign pattern + + - - + + ...
        (Q if k % 2 == 0 else P)[...] += term * (-1.0) ** ((k + 1) // 2)
        last = mag
        k += 1
        if k > 60:  # pragma: no cover - unreachable past the crossover
            raise QuadratureError("asymptotic Bessel series diverged")
    chi = z - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * z)) * (P * np.cos(chi) - Q * np.sin(chi))


# --------------------------------------------------------------------------
# transform quadrature

def _osc_edges(lo: float, hi: float, freq: float, breakpoints,
               max_panels: int):
    """Panels of [lo, hi] no wider than one oscillation period pi/freq,
    aligned with `breakpoints`, log-graded away from 0."""
    cap = math.pi / max(freq, math.pi / (hi - lo))
    base = sorted({lo, hi, *[float(b) for b in breakpoints if lo < b < hi]})
    pieces = [np.array([lo])]
    count = 1
    for a, b in zip(base[:-1], base[1:]):
        cur = a
        # doubling region: panel width is capped by the left endpoint
        # (hides the x^(2 lam) grading near 0); usually skipped outright
        grown = []
        while 0.0 < cur < min(b, cap):
            nxt = min(b, 2.0 * cur, cur + cap)
            grown.append(nxt)
            cur = nxt
            if count + len(grown) > max_panels:
                raise QuadratureError(
                    f"oscillatory panelization exceeds {max_panels} panels "
                    f"on [{lo:g}, {hi:g}] at frequency {freq:g}")
        if grown:
            pieces.append(np.asarray(grown))
            count += len(grown)
        if cur < b:
            k = max(1, math.ceil((b - cur) / cap))
            if count + k > max_panels:
                raise QuadratureError(
                    f"oscillatory panelization exceeds {max_panels} panels "
                    f"on [{lo:g}, {hi:g}] at frequency {freq:g}")
            pieces.append(np.linspace(cur, b, k + 1)[1:])
            count += k
    return np.concatenate(pieces)


def hankel_transform(space: LambdaSpace, f: SampledFunction, eval_grid,
                     quad: QuadratureSpec = QuadratureSpec(),
                     max_panels: int = 20000,
                     extra_freq: float = 0.0) -> SampledFunction:
    """H f sampled on eval_grid, with a closure for exact re-evaluation.

    Requires f to vanish beyond its grid (right tail policy "zero"); a
    nonzero hold tail has no integrable truncation and raises ValueError.
    extra_freq adds to the panelization frequency when f itself oscillates
    (e.g. f is a transform supported up to extra_freq).
    """
    slo, shi = f.support()
    if math.isinf(shi):
        raise ValueError("hankel_transform needs right tail policy 'zero'")
    nu = space.lam - 0.5
    n = quad.y_nodes_per_panel
    xl, wl = legendre_rule(n)
    uj, wj = jacobi_rule(n, 0.0, space.weight_exponent)
    bps = f.quad_breakpoints()

    budget = 1 << 21  # flush the node buffer at ~2M entries

    def closure(ys):
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        vals = np.zeros_like(ys)
        if shi <= slo:
            return vals
        nodes_l, weights_l, offs, idx = [], [], [0], []
        pending = 0

        def flush():
            nonlocal nodes_l, weights_l, offs, idx, pending
            if not idx:
                return
            xs = np.concatenate(nodes_l)
            ws = np.concatenate(weights_l)
            yrep = np.repeat(ys[idx], np.diff(offs))
            contrib = ws * f(xs) * normalized_bessel(nu, xs * yrep)
            vals[idx] = np.add.reduceat(contrib, offs[:-1])
            nodes_l, weights_l, offs, idx = [], [], [0], []
            pending = 0

        for i, y in enumerate(ys):
            edges = _osc_edges(slo, shi, abs(y) + extra_freq, bps, max_panels)
            a, b = edges[0], edges[1]
            if a == 0.0:
                h = b - a
                xs0 = h / 2.0 * (1.0 + uj)
                ws0 = wj * (h / 2.0) ** (space.weight_exponent + 1.0)
            else:
                h2 = 0.5 * (b - a)
                xs0 = a + h2 * (1.0 + xl)
                ws0 = wl * h2 * xs0 ** space.weight_exponent
            mids_a = edges[1:-1]
            mids_b = edges[2:]
            half = 0.5 * (mids_b - mids_a)
            xsm = mids_a[:, None] + half[:, None] * (1.0 + xl)[None, :]
            wsm = half[:, None] * wl[None, :] * xsm ** space.weight_exponent
            nodes_l.append(np.concatenate([xs0, xsm.ravel()]))
            weights_l.append(np.concatenate([ws0, wsm.ravel()]))
            offs.append(offs[-1] + nodes_l[-1].size)
            idx.append(i)
            pending += nodes_l[-1].size
            if pending >= budget:
                flush()
        flush()
        return vals

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
    orders faster than the piecewise-linear norm would.
    """
    from scipy.integrate import simpson

    y_grid = np.unique(np.concatenate([
        np.geomspace(y_max * 1e-6, y_max * 1e-2, n_y // 8),
        np.linspace(y_max * 1e-2, y_max, n_y)]))
    hf = hankel_transform(space, f, y_grid, quad)
    lhs = lp_norm(space, f, 2.0)
    integrand = hf.values ** 2 * y_grid ** space.weight_exponent
    rhs = math.sqrt(float(simpson(integrand, x=y_grid)))
    return lhs, rhs, abs(lhs - rhs) / lhs
