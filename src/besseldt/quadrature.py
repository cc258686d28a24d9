"""Gauss rules and the one panel-layout builder of the Gauss-panel integrals.

The rules that every lambda = 1 run reads (Gauss-Legendre at 16 and 24
nodes, Gauss-Jacobi (16, 0, 2) and (24, 0, 2)) are scipy's, held as
literals in besseldt.literals; every other rule comes from scipy's
Golub-Welsch implementations, imported on first use.  Rules are cached
because the same (n, alpha, beta) combinations recur for every panel
layout.  Panel layouts are deterministic functions of their inputs so that
repeated runs are bit-identical.

panel_layouts lays out the panels and Gauss nodes of many points with array
operations: per point, base edges and a cap on the panel width of each gap
between them.  radial_sums is the one call of the radial integrals against
the kernel (apply_at, kernel_difference_l1 and the kernel route of T_N): it
plans the same layouts from the radial rule's base edges and caps, with a
peak scale per point, so every (time, x) point of a semigroup table's fill
shares one call.  It sums a vectorized integrand on them in blocks of whole
points of at most _RADIAL_NODES nodes, counted from the planned panels
before any node is built.  The Hankel transform lays out all bands of a
call in one panel_layouts call, one point per band of frequencies within a
factor 2 of its top F: f's breakpoints, and one oscillation period 2 pi/F
as the cap.  It sums each band on its own layout in blocks of at most
_NODE_BLOCK (frequency, node) pairs.  panel_layouts' node step,
gauss_panels, also makes the Gauss cells of measure's interval integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import literals
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


def _read_only(rule):
    """A rule's (nodes, weights) as read-only float arrays."""
    out = tuple(np.array(v, dtype=float) for v in rule)
    for v in out:
        v.setflags(write=False)
    return out


@lru_cache(maxsize=512)
def jacobi_rule(n: int, alpha: float, beta: float):
    """Nodes/weights for integral_{-1}^{1} (1-u)^alpha (1+u)^beta f(u) du."""
    rule = literals.JACOBI.get((n, alpha, beta))
    if rule is None:
        from scipy.special import roots_jacobi
        rule = roots_jacobi(n, alpha, beta)
    return _read_only(rule)


@lru_cache(maxsize=64)
def legendre_rule(n: int):
    rule = literals.LEGENDRE.get(n)
    if rule is None:
        from scipy.special import roots_legendre
        rule = roots_legendre(n)
    return _read_only(rule)


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


#: (frequency, node) pairs of one block of a Hankel band: bounds the memory
#: of a block
_NODE_BLOCK = 1 << 21

#: candidate edges of one layout block of radial_sums, and nodes of one
#: integrand call unless one point has more: bounds the memory of a block.
#: With one function per layout, on a 2-CPU Xeon with one BLAS thread,
#: perfbench's semigroup workload reads a norm_wall_s of 0.0321 s and a
#: peak RSS of 59.6 MB at 4096, against 0.0326 s and 61.1 MB at 16384
#: (medians of three alternating pairs); the default uniform-l2 CLI run
#: took 4.58 s at 4096 and 4.33 s at 16384 (seven pairs, 16384 faster in
#: four).  Every output is the same at both sizes.
_RADIAL_NODES = 4096

#: budget of panels per point of radial_sums
MAX_RADIAL_PANELS = 400


def _layout_gaps(edges, counts, caps, max_panels: int):
    """The plan of panel_layouts before any node: per point its first edge
    and its panel count, and per gap between base edges (a, b, cur, step,
    m, k, panels), m doubling edges from a up to cur and then k pieces of
    width step up to b.  A point over max_panels panels raises
    QuadratureError."""
    edges = np.asarray(edges, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    cap = np.asarray(caps, dtype=float)
    starts = np.cumsum(counts) - counts
    inner = np.ones(edges.size, dtype=bool)
    inner[starts] = False
    # inner[0] is False: the gap ending at inner edge i starts at edge i-1
    a, b = edges[:-1][inner[1:]], edges[inner]

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
    panels = np.add.reduceat(gap_panels, starts - np.arange(counts.size))
    over = np.flatnonzero(panels > max_panels)
    if over.size:
        i = over[0]
        # in full near the budget, to three digits past int64
        count = f"{panels[i]:.0f}" if panels[i] < 1e9 else f"{panels[i]:.3g}"
        raise QuadratureError(
            f"panel layout of [{edges[starts[i]]:g}, "
            f"{edges[starts[i] + counts[i] - 1]:g}] needs {count} panels, "
            f"above the budget of {max_panels}")
    return (edges[starts], panels.astype(np.int64),
            (a, b, cur, step, m, k, gap_panels.astype(np.int64)))


def _gap_nodes(firsts, panels, gaps, n: int, exponent: float):
    """The flat gauss_panels nodes and weights of whole points laid out by
    _layout_gaps: their first edges, panel counts and gaps."""
    gap_panels = gaps[-1]
    ga, gb, gcur, gstep, gm, gk = (np.repeat(v, gap_panels)
                                   for v in gaps[:-1])
    # right edge number i of a gap: a 2^(i+1) while doubling, then
    # cur + j step as np.linspace(cur, b, k + 1) makes them
    i = np.arange(gap_panels.sum()) - np.repeat(
        np.cumsum(gap_panels) - gap_panels, gap_panels)
    j = i - gm + 1
    right = np.where(
        i < gm, np.minimum(gb, np.ldexp(ga, np.minimum(i + 1, gm))),
        np.where(j == gk, gb, j * gstep + gcur))
    left = np.empty_like(right)
    left[1:] = right[:-1]
    left[np.cumsum(panels) - panels] = firsts
    nodes, weights = gauss_panels(left, right, n, exponent)
    return nodes.ravel(), weights.ravel()


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

    Returns (nodes, weights, counts): the flat gauss_panels nodes and
    weights of the points in order, counts[i] of them for point i.
    """
    firsts, panels, gaps = _layout_gaps(edges, counts, caps, max_panels)
    return (*_gap_nodes(firsts, panels, gaps, n, exponent), panels * n)


def _radial_gaps(lo, c, top, width, breakpoints, ladder):
    """The base edge counts and the _layout_gaps plan of radial_sums' rule
    for the points c with ends `top` and peak scales `width`, all columns,
    and the rungs width 2^ladder."""
    rungs = np.ldexp(width, ladder)
    inside = np.concatenate(
        [np.broadcast_to(breakpoints, (c.size, breakpoints.size)), c,
         c - rungs, c + rungs], axis=1)
    inside[~((inside > lo) & (inside < top))] = np.inf
    cand = np.sort(np.concatenate([np.full_like(c, lo), top, inside],
                                  axis=1), axis=1)
    keep = np.isfinite(cand)
    keep[:, 1:] &= cand[:, 1:] != cand[:, :-1]
    # a kept edge j > 0 closes the gap (cand[j-1], cand[j]): whatever sits
    # at j-1 equals the kept edge before it
    a, b = cand[:, :-1], cand[:, 1:]
    dist = np.maximum(np.maximum(a - c, c - b), 0.0)
    caps = (0.75 * (width + dist))[keep[:, 1:]]
    counts = keep.sum(axis=1)
    return counts, _layout_gaps(cand[keep], counts, caps, MAX_RADIAL_PANELS)


def radial_sums(lo: float, his, centers, width, breakpoints, n: int,
                exponent: float, integrand) -> np.ndarray:
    """Per point x_i = centers_i, the sum of integrand(i, y, w) over the
    Gauss nodes y and weights w of a panel_layouts layout of [lo, his_i],
    for radial integrals against a kernel that peaks at y = x_i on the
    scale width_i, with the budget MAX_RADIAL_PANELS; his and width are
    scalars or arrays broadcast to centers.

    The base edges of point i are lo, his_i and, inside (lo, his_i), the
    breakpoints, x_i and the ladder x_i +- width_i 2^k, k >= 0; the cap of
    a gap is 0.75 (width_i + its distance to x_i).  So a panel [a, b] has
    b - a <= 0.75 (width_i + dist([a, b], x_i)), which resolves the peak,
    and b - a <= a unless a = 0.

    The points are planned in blocks of at most _RADIAL_NODES candidate
    edges, and summed in blocks of whole points of at most _RADIAL_NODES
    nodes (or one point with more), counted from the plan's panel counts
    before any node is built.  The integrand is vectorized: it gets the
    index i of each node's point, the nodes and the weights of a block, and
    returns the terms, one per node along its last axis; the sums have the
    terms' leading shape followed by the points'.  A point's sum does not
    depend on the blocks.  A non-finite sum raises NumericsError naming its
    point.
    """
    sums = []
    # an overflow in a layout or a term shows as a non-finite sum
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        centers = np.atleast_1d(np.asarray(centers, dtype=float))
        his, width = (np.broadcast_to(np.asarray(v, dtype=float),
                                      centers.shape) for v in (his, width))
        reach = float(np.max(np.maximum(his - centers, centers - lo) / width))
        ladder = np.arange(max(0, math.ceil(math.log2(reach))) + 1)
        bps = np.asarray(breakpoints, dtype=float)
        size = max(1, _RADIAL_NODES // (bps.size + 2 * ladder.size + 3))
        for first in range(0, centers.size, size):
            part = slice(first, first + size)
            counts, (firsts, panels, gaps) = _radial_gaps(
                lo, centers[part, None], his[part, None], width[part, None],
                bps, ladder)
            nodes = panels * n
            ends = np.cumsum(nodes)
            gap_ends = np.cumsum(counts - 1)
            i = 0
            while i < counts.size:
                # whole points up to _RADIAL_NODES nodes, at least one
                j = max(i + 1, int(np.searchsorted(
                    ends, ends[i] - nodes[i] + _RADIAL_NODES, "right")))
                g = slice(gap_ends[i] - counts[i] + 1, gap_ends[j - 1])
                y, w = _gap_nodes(firsts[i:j], panels[i:j],
                                  tuple(v[g] for v in gaps), n, exponent)
                # no block's terms outlive its sums
                sums.append(np.add.reduceat(integrand(
                    np.repeat(np.arange(first + i, first + j), nodes[i:j]),
                    y, w), np.cumsum(nodes[i:j]) - nodes[i:j], axis=-1))
                i = j
    sums = np.concatenate(sums, axis=-1)
    finite = np.isfinite(sums).reshape(-1, centers.size).all(axis=0)
    if not finite.all():
        raise NumericsError(f"radial sum at x = {centers[~finite][0]:g} is "
                            "not finite")
    return sums
