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
between them; its edge step, _gap_edges, gives the panel ends and its node
step, gauss_panels, the nodes and weights.  radial_sums is the one call of
the radial integrals against the kernel (apply_at, kernel_difference_l1
and the kernel route of T_N): it plans the same layouts from the radial
rule's base edges and caps, with a peak scale per point, so every (time, x)
point of a semigroup table's fill shares one call.  The points of a fill
share most of their panels: the rungs x +- t 2^k of dyadic times land on
the same edges at every level, and at large t every x is cut only at f's
breakpoints.  So radial_sums builds the nodes, weights and f values of
each distinct panel of a group of points once, and sums the weighted
kernel terms times f on them in blocks of whole points of at most
_RADIAL_NODES nodes, counted from the planned panels before any node is
built.  The Hankel transform lays out all bands of a call in one
panel_layouts call, one point per band of frequencies within a factor 2 of
its top F: f's breakpoints, and one oscillation period 2 pi/F as the cap.
It sums each band on its own layout in blocks of at most _NODE_BLOCK
(frequency, node) pairs.  gauss_panels also makes the Gauss cells of
measure's interval integrals.
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
#: With f built once per distinct panel, on a 2-CPU Xeon with one BLAS
#: thread, perfbench's semigroup workload reads a norm_wall_s of 0.0218 s
#: and a peak RSS of 59.6 MB at 4096, against 0.0193 s and 60.5 MB at 8192
#: (medians of six alternating pairs, 8192 faster in all six); the default
#: uniform-l2 CLI run took 1.00 and 1.20 times as long at 4096 as at 8192,
#: and weighted 1.07 and 1.09 (two sets of three pairs, e2e/run.py time).
#: So 8192 is faster, but not in the same memory.  Every output is the
#: same at both sizes.
_RADIAL_NODES = 4096

#: nodes of the panels of whole points that radial_sums lays out together
#: and builds once per distinct panel, unless one point has more: bounds
#: the distinct nodes, weights and f values held at once
_DISTINCT_NODES = 1 << 16

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


def _gap_edges(firsts, panels, gaps):
    """The panel ends (left, right), flat, of whole points laid out by
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
    return left, right


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
    nodes, weights = gauss_panels(*_gap_edges(firsts, panels, gaps), n,
                                  exponent)
    return nodes.ravel(), weights.ravel(), panels * n


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


def _runs(sizes, budget: int):
    """Runs [i, j) of consecutive items whose sizes add up to at most
    budget, or of one item that is larger, in order."""
    ends = np.cumsum(sizes)
    i = 0
    while i < sizes.size:
        j = max(i + 1, int(np.searchsorted(ends, ends[i] - sizes[i] + budget,
                                           "right")))
        yield i, j
        i = j


def _distinct_panels(left, right):
    """The distinct panels (left, right) of flat panel ends, and the row of
    each panel among them: one np.unique of the complex keys left + i right,
    which are exact."""
    key = np.empty(left.size, dtype=complex)
    key.real, key.imag = left, right
    key, rows = np.unique(key, return_inverse=True)
    return key.real, key.imag, rows


def radial_sums(lo: float, his, centers, width, breakpoints, n: int,
                exponent: float, integrand, f=None) -> np.ndarray:
    """Per point x_i = centers_i, the sum of integrand(i, y, w) f(y) over
    the Gauss nodes y and weights w of a panel_layouts layout of [lo, his_i],
    for radial integrals against a kernel that peaks at y = x_i on the
    scale width_i, with the budget MAX_RADIAL_PANELS; his and width are
    scalars or arrays broadcast to centers.  Without f the factor f(y) is
    left out.

    The base edges of point i are lo, his_i and, inside (lo, his_i), the
    breakpoints, x_i and the ladder x_i +- width_i 2^k, k >= 0; the cap of
    a gap is 0.75 (width_i + its distance to x_i).  So a panel [a, b] has
    b - a <= 0.75 (width_i + dist([a, b], x_i)), which resolves the peak,
    and b - a <= a unless a = 0.

    The points are planned in blocks of at most _RADIAL_NODES candidate
    edges.  Whole points of a block, up to _DISTINCT_NODES nodes (or one
    point with more), take their panel ends from the plan and share one
    gauss_panels call and one f evaluation on their distinct panels
    (_distinct_panels): at most max(_DISTINCT_NODES, n MAX_RADIAL_PANELS)
    distinct nodes, weights and f values are held at once, whatever the
    number of points.  They are summed in blocks of whole points of at most
    _RADIAL_NODES nodes (or one point with more), each point's node, weight
    and f rows gathered by panel.  The integrand is vectorized: it gets the
    index i of each node's point, the nodes and the weights of a block, and
    returns the weighted kernel terms, one per node along its last axis; a
    term times f(y) is summed, and the sums have the terms' leading shape
    followed by the points'.  No points give an empty array.  A point's
    sum depends neither on the blocks nor on the other points.  A non-finite
    sum raises NumericsError naming its point.
    """
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    if not centers.size:
        return np.zeros(0)
    sums = []
    # an overflow in a layout or a term shows as a non-finite sum
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
            gap_ends = np.cumsum(counts - 1)
            for gi, gj in _runs(panels * n, _DISTINCT_NODES):
                g = slice(gap_ends[gi] - counts[gi] + 1, gap_ends[gj - 1])
                left, right, panel = _distinct_panels(*_gap_edges(
                    firsts[gi:gj], panels[gi:gj], tuple(v[g] for v in gaps)))
                y, w = gauss_panels(left, right, n, exponent)
                fy = None if f is None else f(y.ravel()).reshape(y.shape)
                own = panels[gi:gj]
                ends = np.cumsum(own)
                for i, j in _runs(own * n, _RADIAL_NODES):
                    rows = panel[ends[i] - own[i]:ends[j - 1]]
                    nodes = own[i:j] * n
                    terms = integrand(
                        np.repeat(np.arange(first + gi + i, first + gi + j),
                                  nodes), y[rows].ravel(), w[rows].ravel())
                    if fy is not None:
                        terms = terms * fy[rows].ravel()
                    # no block's terms outlive its sums
                    sums.append(np.add.reduceat(
                        terms, np.cumsum(nodes) - nodes, axis=-1))
    sums = np.concatenate(sums, axis=-1)
    finite = np.isfinite(sums).reshape(-1, centers.size).all(axis=0)
    if not finite.all():
        raise NumericsError(f"radial sum at x = {centers[~finite][0]:g} is "
                            "not finite")
    return sums
