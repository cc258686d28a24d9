"""Gauss rules and panel builders shared by the kernel and Hankel integrators.

All weighted rules come from scipy's Golub-Welsch implementations; they are
cached because the same (n, alpha, beta) combinations recur for every panel
layout.  Panel layouts are deterministic functions of their inputs so that
repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import NumericsError


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy knobs for the radial and Hankel integrals.  The kernel and
    its derivatives are closed form and take no knob.

    y_nodes_per_panel Gauss-Legendre nodes per radial panel
    panel_count       budget cap on radial panels for one integral
    abs_tol           truncation-tail tolerance of the infinite integrals
    """

    y_nodes_per_panel: int = 16
    panel_count: int = 400
    abs_tol: float = 1e-10

    def __post_init__(self):
        if self.y_nodes_per_panel < 4:
            raise ValueError("y_nodes_per_panel must be >= 4")
        if self.panel_count < 4:
            raise ValueError("panel_count must be >= 4")
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")


@lru_cache(maxsize=512)
def jacobi_rule(n: int, alpha: float, beta: float):
    """Nodes/weights for integral_{-1}^{1} (1-u)^alpha (1+u)^beta f(u) du."""
    x, w = roots_jacobi(n, alpha, beta)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=64)
def legendre_rule(n: int):
    x, w = roots_legendre(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_edges(lo: float, hi: float, center: float, width: float,
                breakpoints=(), max_panels: int = 400) -> np.ndarray:
    """Geometrically graded panel edges on [lo, hi].

    Panels are sized so that a panel [a, b] satisfies both
      b - a <= 0.75*(width + dist([a,b], center))   (resolves a kernel peak of
                                                     scale `width` at `center`)
      b - a <= a                                    (ratio <= 2, keeps power
                                                     weights y^(2*lam) tame)
    except that a panel starting at lo == 0 is exempt from the ratio rule (the
    caller integrates it with a Jacobi endpoint rule).  `breakpoints` are
    always included as edges.
    """
    if not (hi > lo >= 0.0):
        raise ValueError("need hi > lo >= 0")
    width = max(float(width), 1e-300)

    edges = {lo, hi}
    for b in breakpoints:
        if lo < b < hi:
            edges.add(float(b))
    # ladder around the peak
    if center is not None:
        for sgn in (-1.0, 1.0):
            step = width
            while True:
                e = center + sgn * step
                if sgn < 0 and e <= lo:
                    break
                if sgn > 0 and e >= hi:
                    break
                edges.add(e)
                step *= 2.0
                if step > 4.0 * (hi - lo) + 4.0 * abs(center) + width:
                    break
        if lo < center < hi:
            edges.add(float(center))
    out = sorted(edges)

    # bisect panels violating the size rules
    def ok(a, b):
        if b - a <= 1e-15 * b:
            return True
        if center is None:
            dist = np.inf
        elif center < a:
            dist = a - center
        elif center > b:
            dist = center - b
        else:
            dist = 0.0
        if b - a > 0.75 * (width + dist):
            return False
        if a > 0.0 and b - a > a:
            return False
        return True

    i = 0
    while i < len(out) - 1:
        a, b = out[i], out[i + 1]
        if ok(a, b):
            i += 1
            continue
        if a == 0.0:
            # split on a geometric scale rather than midpoint
            m = min(b / 2.0, max(width, b * 1e-6))
        elif center is not None and a < center < b:
            m = center
        else:
            m = 0.5 * (a + b)
        if not (a < m < b):
            m = 0.5 * (a + b)
        out.insert(i + 1, m)
        if len(out) > max_panels + 1:
            raise QuadratureBudgetError(
                f"panel budget {max_panels} exhausted on [{lo}, {hi}]")
    return np.asarray(out)


class QuadratureBudgetError(NumericsError):
    """The radial panel layout needs more panels than its budget allows."""


def panel_nodes(edges: np.ndarray, n: int, zero_left_exponent: float | None = None):
    """Gauss nodes/weights for the panel list.

    Interior panels use Gauss-Legendre.  If `zero_left_exponent` is given and
    edges[0] == 0, the first panel uses a Gauss-Jacobi rule absorbing the
    weight y**zero_left_exponent; its weights already include that factor,
    weights of the other panels do not.
    Returns (nodes, weights, first_panel_weighted: bool).
    """
    edges = np.asarray(edges, dtype=float)
    xs, ws = legendre_rule(n)
    first_weighted = zero_left_exponent is not None and edges[0] == 0.0
    start = 1 if first_weighted else 0
    a = edges[start:-1]
    half = 0.5 * (edges[start + 1:] - a)
    nodes = (a[:, None] + half[:, None] * (1.0 + xs)).ravel()
    weights = (ws * half[:, None]).ravel()
    if first_weighted:
        h = edges[1]
        xj, wj = jacobi_rule(n, 0.0, zero_left_exponent)
        nodes = np.concatenate([h / 2.0 * (1.0 + xj), nodes])
        weights = np.concatenate(
            [wj * (h / 2.0) ** (zero_left_exponent + 1.0), weights])
    return nodes, weights, first_weighted


def weighted_panel_nodes(edges: np.ndarray, n: int, exponent: float):
    """Gauss nodes/weights of the panel list for integrals against
    y**exponent dy: the power is folded into every weight (a first panel
    starting at 0 gets it from its Jacobi rule, see panel_nodes)."""
    nodes, weights, first_weighted = panel_nodes(edges, n,
                                                 zero_left_exponent=exponent)
    k = n if first_weighted else 0
    weights[k:] *= nodes[k:] ** exponent
    return nodes, weights


#: nodes per block of panel_sums; bounds the memory of one integrand call
_NODE_BLOCK = 1 << 21


def panel_sums(points, layouts, integrand) -> np.ndarray:
    """Per point x_k, the sum over its (nodes, weights) layout of
    integrand(x_k, y, w).

    `layouts` yields one nonempty (nodes, weights) pair per point, in order.
    The integrand is vectorized: it gets the flat nodes y and weights w of a
    block of points, with each point repeated once per node of its layout,
    and returns the terms.  A block is closed once it holds _NODE_BLOCK
    nodes; a point's sum does not depend on how the points are blocked.
    """
    points = np.asarray(points, dtype=float)
    out = np.zeros(points.size)

    def flush(first, block):
        stop = first + len(block)
        counts = [y.size for y, _ in block]
        terms = integrand(np.repeat(points[first:stop], counts),
                          np.concatenate([y for y, _ in block]),
                          np.concatenate([w for _, w in block]))
        out[first:stop] = np.add.reduceat(terms, np.cumsum(counts) - counts)
        return stop

    first, block, pending = 0, [], 0
    for layout in layouts:
        block.append(layout)
        pending += layout[0].size
        if pending >= _NODE_BLOCK:
            first, block, pending = flush(first, block), [], 0
    if block:
        flush(first, block)
    return out
