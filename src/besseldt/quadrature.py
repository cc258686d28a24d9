"""Gauss rules and the one panel-layout builder of the Gauss-panel integrals.

All weighted rules come from scipy's Golub-Welsch implementations; they are
cached because the same (n, alpha, beta) combinations recur for every panel
layout.  Panel layouts are deterministic functions of their inputs so that
repeated runs are bit-identical.

panel_layouts lays out the panels and Gauss nodes of many points with array
operations: per point, base edges and a cap on the panel width of each gap
between them.  radial_layouts gives it the base edges and caps of the
radial integrals against the kernel (apply_at, kernel_difference_l1 and the
kernel route of T_N), which panel_sums evaluates in the runs of points that
panel_layouts yields, about _NODE_BLOCK nodes at a time.  The Hankel
transform gives it f's breakpoints and one oscillation period 2 pi/F of the
top frequency F of a band of frequencies within a factor 2 of F, and sums
the band on that one layout in blocks of at most _NODE_BLOCK (frequency,
node) pairs.  Its node step, gauss_panels, also makes the Gauss cells of
measure's interval integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import NumericsError, QuadratureError


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy knobs for the radial and Hankel integrals.  The kernel and
    its derivatives are closed form and take no knob.

    y_nodes_per_panel Gauss-Legendre nodes per radial panel
    abs_tol           truncation-tail tolerance of the infinite integrals
    """

    y_nodes_per_panel: int = 16
    abs_tol: float = 1e-10

    def __post_init__(self):
        if self.y_nodes_per_panel < 4:
            raise ValueError("y_nodes_per_panel must be >= 4")
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


def gauss_panels(left, right, n: int, exponent: float):
    """Gauss nodes and weights, one row of n per panel [left_i, right_i],
    for integrals against y**exponent dy: Gauss-Legendre with the power
    folded into the weights, and on a panel at 0, where the power is not
    smooth, the Gauss-Jacobi rule absorbing it."""
    xs, ws = legendre_rule(n)
    half = 0.5 * (right - left)[:, None]
    nodes = left[:, None] + half * (1.0 + xs)
    weights = ws * half
    weights *= nodes ** exponent
    zero = np.flatnonzero(left == 0.0)
    if zero.size:
        xj, wj = jacobi_rule(n, 0.0, exponent)
        nodes[zero] = half[zero] * (1.0 + xj)
        weights[zero] = wj * half[zero] ** (exponent + 1.0)
    return nodes, weights


#: nodes per run of panel_layouts; bounds the memory of one integrand call
_NODE_BLOCK = 1 << 21

#: budget of panels per point of radial_layouts
MAX_RADIAL_PANELS = 400


def panel_layouts(edges, counts, caps, n: int, exponent: float,
                  max_panels: int):
    """Gauss layouts of many points for integrals against y**exponent dy.

    Point i owns the next counts[i] >= 2 entries of `edges`, its sorted and
    distinct base edges; all of them are edges of its layout.  The gaps
    between base edges, in the same order, have panels no wider than their
    entry of `caps`.  In a gap [a, b] with 0 < a < min(b, cap) the edges
    first double, a 2^i, up to the first one at or past min(b, cap)
    (clipped to b); this log-grades the panels away from 0 and keeps each
    no wider than its left end.  The rest of the gap is cut into
    ceil(rest / cap) equal pieces.  A point whose layout needs more than
    max_panels panels raises QuadratureError.

    Yields runs of whole points, about _NODE_BLOCK nodes each, as
    (nodes, weights, counts): the flat gauss_panels nodes and weights of the
    run's points in order, counts[i] of them for point i.
    """
    edges = np.asarray(edges, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    cap = np.asarray(caps, dtype=float)
    starts = np.cumsum(counts) - counts
    inner = np.ones(edges.size, dtype=bool)
    inner[starts] = False
    a, b = edges[np.roll(inner, -1)], edges[inner]

    # per gap: m doubling edges up to cur, then k equal pieces; m is the
    # least m >= 1 with a 2^m >= min(b, cap), from a rounded log2
    top = np.minimum(b, cap)
    grows = (a > 0.0) & (a < top)
    log2_a = np.log2(np.where(a > 0.0, a, 1.0))
    m = np.where(grows, np.maximum(1.0, np.ceil(np.log2(top) - log2_a)), 0.0
                 ).astype(np.int64)
    m += grows & (np.ldexp(a, m) < top)
    m -= grows & (m > 1) & (np.ldexp(a, m - 1) >= top)
    cur = np.where(grows, np.minimum(b, np.ldexp(a, m)), a)
    rest = b - cur
    # counts stay floats up to the budget check: they may not fit an int64
    k = np.where(rest > 0.0, np.maximum(1.0, np.ceil(rest / cap)), 0.0)
    step = rest / np.maximum(k, 1.0)
    gap_panels = m + k
    first_gap = starts - np.arange(counts.size)
    panels = np.add.reduceat(gap_panels, first_gap)
    over = np.flatnonzero(panels > max_panels)
    if over.size:
        i = over[0]
        raise QuadratureError(
            f"panel layout of [{edges[starts[i]]:g}, "
            f"{edges[starts[i] + counts[i] - 1]:g}] needs {panels[i]:.0f} "
            f"panels, above the budget of {max_panels}")
    gap_panels, panels = gap_panels.astype(np.int64), panels.astype(np.int64)

    first_node = (np.cumsum(panels) - panels) * n
    cuts = [*(np.flatnonzero(np.diff(first_node // _NODE_BLOCK)) + 1)]
    gap_ends = [*first_gap[1:], a.size]
    for lo_pt, hi_pt in zip([0, *cuts], [*cuts, counts.size]):
        g = slice(first_gap[lo_pt], gap_ends[hi_pt - 1])
        count = gap_panels[g]
        ga, gb, gcur, gstep, gm, gk = (np.repeat(v[g], count)
                                       for v in (a, b, cur, step, m, k))
        # right edge number i of a gap: a 2^(i+1) while doubling, then
        # cur + j step as np.linspace(cur, b, k + 1) makes them
        i = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count,
                                                count)
        j = i - gm + 1
        right = np.where(
            i < gm, np.minimum(gb, np.ldexp(ga, np.minimum(i + 1, gm))),
            np.where(j == gk, gb, j * gstep + gcur))
        run = panels[lo_pt:hi_pt]
        left = np.empty_like(right)
        left[1:] = right[:-1]
        left[np.cumsum(run) - run] = edges[starts[lo_pt:hi_pt]]
        nodes, weights = gauss_panels(left, right, n, exponent)
        yield nodes.ravel(), weights.ravel(), run * n


def radial_layouts(lo: float, his, centers, width: float, breakpoints,
                   n: int, exponent: float):
    """panel_layouts of [lo, his_i] for radial integrals against a kernel
    that peaks at y = centers_i on the scale `width`, with the budget
    MAX_RADIAL_PANELS.

    The base edges of point i are lo, his_i and, inside (lo, his_i), the
    breakpoints, centers_i and the ladder centers_i +- width 2^k, k >= 0;
    the cap of a gap is 0.75 (width + its distance to centers_i).  So a
    panel [a, b] has b - a <= 0.75 (width + dist([a, b], centers_i)), which
    resolves the peak, and b - a <= a unless a = 0.
    """
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    his = np.broadcast_to(np.asarray(his, dtype=float), centers.shape)
    reach = float(np.max(np.maximum(his - centers, centers - lo)))
    rungs = np.ldexp(width, np.arange(
        max(0, math.ceil(math.log2(reach / width))) + 1))
    bps = np.asarray(breakpoints, dtype=float)
    # chunks of about _NODE_BLOCK / n candidate edges bound the memory of
    # the layout arrays when the points are many
    size = max(1, _NODE_BLOCK // (n * (bps.size + 2 * rungs.size + 3)))
    for first in range(0, centers.size, size):
        c = centers[first:first + size, None]
        top = his[first:first + size, None]
        inside = np.concatenate(
            [np.broadcast_to(bps, (c.size, bps.size)), c, c - rungs,
             c + rungs], axis=1)
        inside[~((inside > lo) & (inside < top))] = np.inf
        cand = np.sort(np.concatenate([np.full_like(c, lo), top, inside],
                                      axis=1), axis=1)
        keep = np.isfinite(cand)
        keep[:, 1:] &= cand[:, 1:] != cand[:, :-1]
        # a kept edge j > 0 closes the gap (cand[j-1], cand[j]): whatever
        # sits at j-1 equals the kept edge before it
        a, b = cand[:, :-1], cand[:, 1:]
        dist = np.maximum(np.maximum(a - c, c - b), 0.0)
        caps = (0.75 * (width + dist))[keep[:, 1:]]
        yield from panel_layouts(cand[keep], keep.sum(axis=1), caps, n,
                                 exponent, MAX_RADIAL_PANELS)


def panel_sums(points, runs, integrand) -> np.ndarray:
    """Per point x_k, the sum over its Gauss nodes y and weights w of
    integrand(x_k, y, w).

    `runs` yields (nodes, weights, counts) for consecutive points, as
    panel_layouts does: counts[i] flat nodes and weights for each.  The
    integrand is vectorized: it gets the nodes and weights of a run with
    each point repeated once per node, and returns the terms, one per node
    along its last axis; the sums have the terms' leading shape followed by
    the points'.  A point's sum does not depend on how the points are
    grouped into runs.  A non-finite sum raises NumericsError naming its
    point.
    """
    points = np.asarray(points, dtype=float)
    sums = []
    first = 0
    # an overflow in a layout or a term shows as a non-finite sum
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for nodes, weights, counts in runs:
            stop = first + counts.size
            terms = integrand(np.repeat(points[first:stop], counts), nodes,
                              weights)
            sums.append(np.add.reduceat(terms, np.cumsum(counts) - counts,
                                        axis=-1))
            first = stop
    sums = np.concatenate(sums, axis=-1)
    finite = np.isfinite(sums).reshape(-1, points.size).all(axis=0)
    if not finite.all():
        raise NumericsError(f"radial sum at x = {points[~finite][0]:g} is "
                            "not finite")
    return sums
