"""Functions on the half line as the integral operators see them.

A SampledFunction carries samples on a strictly increasing positive grid plus
tail policies.  Between grid points it interpolates linearly unless an exact
evaluator `func` is attached, in which case quadratures call `func` directly
(samples then only serve plotting/norm grids).  `breakpoints` marks interior
points where the function is not smooth, so integrators can align panels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import math
import numpy as np

_TAILS = ("zero", "hold")


@dataclass(frozen=True)
class SampledFunction:
    grid: np.ndarray
    values: np.ndarray
    left: str = "zero"    # tail policy below grid[0]
    right: str = "zero"   # tail policy above grid[-1]
    func: Optional[Callable[[np.ndarray], np.ndarray]] = None
    breakpoints: tuple = ()
    lipschitz: Optional[float] = None   # analytic |f'| bound, when known

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size < 2:
            raise ValueError("grid must be 1-d with at least two points")
        if not np.all(np.diff(g) > 0):
            raise ValueError("grid must be strictly increasing")
        if g[0] <= 0:
            raise ValueError("grid must be positive")
        if v.shape != g.shape:
            raise ValueError("values shape must match grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if self.left not in _TAILS or self.right not in _TAILS:
            raise ValueError(f"tail policies must be one of {_TAILS}")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    # -- evaluation ---------------------------------------------------------
    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        if self.func is not None:
            out = np.asarray(self.func(y), dtype=float)
            if self.left == "zero":
                out = np.where(y < self.grid[0], 0.0, out)
            if self.right == "zero":
                out = np.where(y > self.grid[-1], 0.0, out)
            return out
        lo = self.values[0] if self.left == "hold" else 0.0
        hi = self.values[-1] if self.right == "hold" else 0.0
        return np.interp(y, self.grid, self.values, left=lo, right=hi)

    # -- support for quadrature --------------------------------------------
    def support(self) -> tuple[float, float]:
        """The interval outside which f vanishes (may be (0, inf))."""
        lo = 0.0 if (self.left == "hold" and self.values[0] != 0.0) else self.grid[0]
        hi = math.inf if (self.right == "hold" and self.values[-1] != 0.0) else self.grid[-1]
        return lo, hi

    def quad_breakpoints(self) -> np.ndarray:
        """Interior panel-alignment points for integrators."""
        if self.func is not None:
            return np.asarray(self.breakpoints, dtype=float)
        return self.grid

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def from_callable(func, grid, left="zero", right="zero", breakpoints=()):
        grid = np.asarray(grid, dtype=float)
        return SampledFunction(grid, np.asarray(func(grid), dtype=float),
                               left, right, func, tuple(breakpoints))


def indicator(b: float = 1.0, height: float = 1.0) -> SampledFunction:
    """chi_(0,b) scaled by `height`, represented exactly for quadrature
    (sampled at 64 points)."""
    if b <= 0:
        raise ValueError("b must be positive")
    grid = np.geomspace(b * 1e-4, b, 64)
    return SampledFunction.from_callable(
        lambda y: np.where(y <= b, height, 0.0), grid,
        left="hold", right="zero")


def constant_one() -> SampledFunction:
    """f = 1 on all of (0, inf), sampled at 32 points."""
    grid = np.geomspace(1e-3, 1e3, 32)
    return SampledFunction.from_callable(lambda y: np.ones_like(y), grid,
                                         left="hold", right="hold")


def gaussian(center: float = 0.0, width: float = 1.0,
             height: float = 1.0) -> SampledFunction:
    """height * exp(-((y-center)/width)^2 / 2), truncated where negligible."""
    if width <= 0:
        raise ValueError("width must be positive")
    grid = np.geomspace(max(1e-6 * width, 1e-8), abs(center) + 14.0 * width,
                        400)

    def f(y):
        return height * np.exp(-0.5 * ((y - center) / width) ** 2)

    return SampledFunction.from_callable(
        f, grid, breakpoints=_bump_scales(center, width))


def _bump_scales(center: float, width: float):
    """Quadrature alignment points of a bump: center and +- 1, 2, 4 widths."""
    pts = center + width * np.array([-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0])
    return tuple(sorted({p for p in pts if p > 0}))


def smooth_bump(center: float, width: float, height: float = 1.0) -> SampledFunction:
    """C-infinity bump supported on (center-width, center+width).

    lipschitz attribute gives an analytic bound on |f'| used by tail
    estimates of the convergence probe.
    """
    if not (center > 0 and 0 < width < center):
        raise ValueError("need 0 < width < center so the support stays in (0, inf)")
    lo, hi = center - width, center + width
    grid = np.geomspace(max(lo * 0.5, 1e-8), hi * 1.02, 200)

    def f(y):
        u = (np.asarray(y, dtype=float) - center) / width
        u2 = u * u
        safe = np.where(u2 < 1.0, 1.0 - u2, 1.0)
        return height * np.where(u2 < 1.0, np.exp(1.0 - 1.0 / safe), 0.0)

    bp = (lo, center - 0.5 * width, center, center + 0.5 * width, hi)
    sf = SampledFunction.from_callable(f, grid, breakpoints=bp)
    # max |d/du exp(1-1/(1-u^2))| = 2.1704 (at u = 0.7598) -> height/width
    return replace(sf, lipschitz=2.171 * height / width)


def smoothed_step(edge: float = 1.0, ramp: float = 0.2,
                  height: float = 1.0) -> SampledFunction:
    """height on (0, edge-ramp), linear ramp down to 0 at edge+ramp.

    Piecewise linear, so interval averages and norms of it are exact.
    """
    if not 0 < ramp < edge:
        raise ValueError("need 0 < ramp < edge")
    grid = np.array([edge * 1e-4, edge - ramp, edge + ramp])
    return SampledFunction(grid, np.array([height, height, 0.0]),
                           left="hold", right="zero",
                           lipschitz=abs(height) / (2.0 * ramp))


def bump_mixture(rng: np.random.Generator,
                 span=(1e-2, 1e2)) -> SampledFunction:
    """Random test function: sum of <= 5 Gaussian bumps with log-uniform
    centers in `span`, widths a random fraction of the center, random signs."""
    k = int(rng.integers(1, 6))
    lo, hi = span
    centers = np.exp(rng.uniform(np.log(lo), np.log(hi), size=k))
    widths = centers * rng.uniform(0.1, 0.6, size=k)
    signs = rng.choice([-1.0, 1.0], size=k)
    amps = signs * rng.uniform(0.5, 1.5, size=k)

    def f(y):
        y = np.asarray(y, dtype=float)
        acc = np.zeros_like(y)
        for c, w, a in zip(centers, widths, amps):
            acc += a * np.exp(-0.5 * ((y - c) / w) ** 2)
        return acc

    g_lo = max(1e-8, centers.min() * 1e-3)
    g_hi = centers.max() + 14.0 * widths.max()
    grid = np.geomspace(g_lo, g_hi, 300)
    bp = sorted({p for c, w in zip(centers, widths)
                 for p in _bump_scales(c, w) if g_lo < p < g_hi})
    return SampledFunction.from_callable(f, grid, breakpoints=bp)
