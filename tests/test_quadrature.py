import math

import numpy as np
import pytest
from scipy.integrate import quad as quad_ref
from scipy.special import beta as beta_fn, roots_jacobi, roots_legendre

import besseldt.quadrature as quadrature_mod
from besseldt import literals
from besseldt.errors import NumericsError, QuadratureError
from besseldt.functions import SampledFunction, bump_mixture, smooth_bump
from besseldt.hankel import hankel_transform
from besseldt.kernel import apply_at, kernel_difference_l1, kernel_values
from besseldt.lacunary import geometric
from besseldt.measure import LambdaSpace
from besseldt.quadrature import (MAX_RADIAL_PANELS, QuadratureSpec,
                                 gauss_panels, jacobi_rule, legendre_rule,
                                 radial_sums)
from besseldt.transform import IndexWindow, apply_transform_kernel_route

from conftest import assert_budget_boundary


def test_spec_validation():
    # the angular rule of the kernel derivatives and its knobs are gone
    with pytest.raises(TypeError):
        QuadratureSpec(theta_nodes=64)
    with pytest.raises(ValueError):
        QuadratureSpec(y_nodes_per_panel=2)
    # the radial panel budget is the module constant MAX_RADIAL_PANELS
    with pytest.raises(TypeError):
        QuadratureSpec(panel_count=400)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)


def test_jacobi_rule_moments():
    # an n-point rule integrates (1-u)^a (1+u)^b u^k exactly through
    # degree 2n-1; the oracle is adaptive quadrature (the binomial-sum
    # closed form cancels catastrophically at high k)
    a, b, n = 1.5, 2.0, 8
    x, w = jacobi_rule(n, a, b)
    assert abs(float(np.sum(w)) - 2.0 ** (a + b + 1) * beta_fn(a + 1, b + 1)) \
        < 1e-13
    for k in range(2 * n):
        want, err = quad_ref(lambda u: (1 - u) ** a * (1 + u) ** b * u ** k,
                             -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        got = float(np.sum(w * x ** k))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_legendre_rule_moments():
    x, w = legendre_rule(6)
    for k in range(12):
        want = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(float(np.sum(w * x ** k)) - want) < 1e-14


def _radial_case(rng):
    """A random radial layout case: lo, per-point or shared ends, points
    (some outside [lo, hi]), the peak scale t and breakpoints (some outside
    (lo, hi), some on points, some in the doubling range above lo)."""
    lo = float(rng.choice([0.0, 10.0 ** rng.uniform(-4.0, 0.0)]))
    size = int(rng.integers(1, 40))
    xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size))
    hi = lo + 10.0 ** rng.uniform(-1.0, 3.0)
    his = hi if rng.random() < 0.5 else hi * 2.0 ** rng.integers(0, 40, size)
    bps = np.concatenate([rng.uniform(lo - 1.0, hi + 1.0,
                                      int(rng.integers(0, 12))),
                          xs[:2], lo * 2.0 ** rng.integers(1, 8, 2)])
    return lo, his, xs, 2.0 ** rng.uniform(-10.0, 10.0), bps


def _radial_panels(monkeypatch, lo, his, xs, t, bps, n=4, exponent=1.4):
    """The layouts (nodes, weights, counts) of the integrand calls of one
    radial_sums call, one per block of points, and per point the panel ends
    (left, right) of its edge plan."""
    layouts, seen = [], []
    real_edges = quadrature_mod._gap_edges

    def record_edges(firsts, panels, gaps):
        left, right = real_edges(firsts, panels, gaps)
        seen.append((left.copy(), right.copy()))
        return left, right

    def integrand(i, y, w):
        layouts.append((y, w, np.unique(i, return_counts=True)[1]))
        return w

    with monkeypatch.context() as patch:
        patch.setattr(quadrature_mod, "_gap_edges", record_edges)
        radial_sums(lo, his, xs, t, bps, n, exponent, integrand)
    cuts = np.cumsum(np.concatenate([r[2] for r in layouts]) // n)[:-1]
    return (layouts, np.split(np.concatenate([s[0] for s in seen]), cuts),
            np.split(np.concatenate([s[1] for s in seen]), cuts))


def test_panel_edges_breakpoints_and_grading(monkeypatch):
    # radial layouts of random cases: a point's panels tile [lo, hi]; a
    # panel [a, b] resolves the peak, b - a <= 0.75 (t + dist([a, b], x)),
    # and is no wider than a unless a = 0; every breakpoint and x inside
    # (lo, hi) is an edge; and the layouts do not depend on how the points
    # are grouped into blocks
    rng = np.random.default_rng(3)
    for _ in range(150):
        lo, his, xs, t, bps = _radial_case(rng)
        blocks, lefts, rights = _radial_panels(monkeypatch, lo, his, xs, t,
                                               bps)
        for x, hi, a, b in zip(xs, np.broadcast_to(his, xs.shape), lefts,
                               rights):
            assert a[0] == lo and b[-1] == hi
            assert np.array_equal(a[1:], b[:-1]) and np.all(b > a)
            # equal pieces are cur + j step: rounding at the scale of b
            slack = 4.0 * np.spacing(b)
            dist = np.maximum(np.maximum(a - x, x - b), 0.0)
            assert np.all(b - a <= 0.75 * (t + dist) + slack)
            assert np.all((b - a <= a + slack) | (a == 0.0))
            edges = np.append(bps, x)
            assert np.all(np.isin(edges[(edges > lo) & (edges < hi)], b))
        whole = [np.concatenate(arrays) for arrays in zip(*blocks)]
        monkeypatch.setattr(quadrature_mod, "_RADIAL_NODES", 64)
        small = _radial_panels(monkeypatch, lo, his, xs, t, bps)[0]
        monkeypatch.undo()
        assert len(small) >= len(blocks)
        for got, want in zip(zip(*small), whole):
            assert np.array_equal(np.concatenate(got), want)


def test_panel_edges_validation_and_budget(monkeypatch):
    # the radial route shares the budget of panel_layouts: a point whose
    # layout has P panels passes with MAX_RADIAL_PANELS = P and raises
    # QuadratureError (exit 2) below it, naming the interval
    assert_budget_boundary(
        monkeypatch, quadrature_mod, "MAX_RADIAL_PANELS",
        lambda: _radial_panels(monkeypatch, 0.0, 8.0, [3.0, 0.5], 1e-3,
                               (1.0, 7.0), 16, 2.0)[0], 8)
    monkeypatch.setattr(quadrature_mod, "MAX_RADIAL_PANELS", 4)
    with pytest.raises(QuadratureError, match="above the budget of 4"):
        apply_at(LambdaSpace(1.0), smooth_bump(2.0, 1.0), 1e-3, [3.0])


def test_panel_layouts_budget_holds_past_int64():
    # a gap 1e40 caps wide: its count used to wrap negative in the int64
    # cast, pass the budget and fail in np.repeat
    with pytest.raises(QuadratureError, match=r"panel layout of \[1, 1e\+40\]"
                       r" needs 1e\+40 panels, above the budget of 400"):
        quadrature_mod.panel_layouts([1.0, 1e40], [2], [1.0], 4, 0.0, 400)


def test_panel_nodes_zero_left_jacobi():
    # a panel at 0 takes the Jacobi rule absorbing y^2 and the other folds
    # y^2 into its Gauss-Legendre weights, so integral_0^1 y^2 dy and
    # integral_0^1 y^2 * y dy come out exactly
    nodes, weights = gauss_panels(np.array([0.0, 0.5]), np.array([0.5, 1.0]),
                                  8, 2.0)
    assert abs(float(np.sum(weights)) - 1.0 / 3.0) < 1e-14
    assert abs(float(np.sum(weights * nodes)) - 1.0 / 4.0) < 1e-14


def test_panel_nodes_plain_legendre():
    nodes, weights = gauss_panels(np.array([1.0, 2.0]), np.array([2.0, 4.0]),
                                  6, 0.0)
    assert abs(float(np.sum(weights * nodes ** 3)) - (4.0 ** 4 - 1) / 4) < 1e-12


def _panel_nodes_loop(left, right, n, exponent):
    """Reference: the panel rule assembled one panel at a time."""
    xs, ws = legendre_rule(n)
    nodes, weights = [], []
    for a, b in zip(left, right):
        half = 0.5 * (b - a)
        if a == 0.0:
            xj, wj = jacobi_rule(n, 0.0, exponent)
            nodes.append(half * (1.0 + xj))
            # numpy's array power, which can differ from float ** float in
            # the last bit
            weights.append(wj * np.power([half], exponent + 1.0))
        else:
            y = a + half * (1.0 + xs)
            nodes.append(y)
            weights.append(ws * half * y ** exponent)
    return np.array(nodes), np.array(weights)


@pytest.mark.parametrize("lo", [0.0, 0.37])
@pytest.mark.parametrize("zl", [None, 0.6, 2.0])
def test_panel_nodes_bit_identical_to_panel_loop(lo, zl):
    # zl is the power folded into the weights; None folds none
    exponent = 0.0 if zl is None else zl
    rng = np.random.default_rng(7)
    for _ in range(20):
        edges = lo + np.concatenate(
            [[0.0], np.cumsum(10.0 ** rng.uniform(-3, 1, rng.integers(1, 40)))])
        for n in (8, 16):
            got = gauss_panels(edges[:-1], edges[1:], n, exponent)
            want = _panel_nodes_loop(edges[:-1], edges[1:], n, exponent)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
    # a single panel from 0: the Jacobi rule alone
    got = gauss_panels(np.array([0.0]), np.array([1.5]), 8, exponent)
    want = _panel_nodes_loop([0.0], [1.5], 8, exponent)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("lo", [0.0, 0.05])
def test_radial_sums_per_point_widths_are_separate_calls(lo):
    # a width and an end per point: each point is laid out and summed as a
    # call of that point alone with its scalar width, bit for bit
    rng = np.random.default_rng(13)
    xs = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 30))
    widths = 2.0 ** rng.uniform(-12.0, 8.0, 30)
    his = 4.0 * xs + 1.0
    bps = (0.3, 1.0, 7.0)

    def terms(x, width, y, w):
        near = width / ((y - x) ** 2 + width ** 2)
        return np.stack([w * near, w * near * np.cos(y)])

    together = radial_sums(lo, his, xs, widths, bps, 16, 1.4,
                           lambda i, y, w: terms(xs[i], widths[i], y, w))
    assert together.shape == (2, xs.size)
    for k, (x, width, hi) in enumerate(zip(xs, widths, his)):
        alone = radial_sums(lo, hi, x, width, bps, 16, 1.4,
                            lambda i, y, w: terms(x, width, y, w))
        assert np.array_equal(together[:, k], alone[:, 0])


def test_weighted_panel_nodes_folds_the_power(monkeypatch):
    # the layout weights carry y^1.4 on every panel: off a panel at 0 they
    # are the plain Gauss-Legendre weights times y^1.4, and they sum to
    # integral_lo^6 y^1.4 dy
    for lo in (0.0, 0.5):
        layouts, lefts, rights = _radial_panels(monkeypatch, lo, 6.0, [1.0],
                                                0.1, (), n=16)
        nodes, weights = gauss_panels(lefts[0], rights[0], 16, 1.4)
        plain_nodes, plain = gauss_panels(lefts[0], rights[0], 16, 0.0)
        k = 1 if lo == 0.0 else 0
        assert np.array_equal(nodes[k:], plain_nodes[k:])
        assert np.array_equal(weights[k:], plain[k:] * nodes[k:] ** 1.4)
        assert np.array_equal(layouts[0][1], weights.ravel())
        assert float(np.sum(weights)) == pytest.approx(
            (6.0 ** 2.4 - lo ** 2.4) / 2.4, rel=1e-13)


def test_radial_sums_blocking_is_bit_identical(monkeypatch):
    # blocks of whole points with the same sums as one block: integrand
    # calls of at most max(_RADIAL_NODES, n MAX_RADIAL_PANELS) nodes, more
    # than _RADIAL_NODES only for one point; apply_at and the Hankel bands
    # depend on neither _RADIAL_NODES nor _NODE_BLOCK
    rng = np.random.default_rng(5)
    points = rng.uniform(0.5, 3.0, 60)
    calls = []

    def sums():
        calls.clear()
        return radial_sums(0.0, 8.0, points, 0.1, (), 16, 1.4, integrand)

    def integrand(i, y, w):
        x = points[i]
        calls.append((x, y, w))
        return w * np.cos(x * y) * np.exp(-y)

    def point_counts(x):
        # nodes per point: the points are distinct, so one run of x each
        return np.diff(np.flatnonzero(np.r_[True, x[1:] != x[:-1], True]))

    space, f = LambdaSpace(0.7), smooth_bump(2.0, 1.0)
    xs = np.geomspace(0.05, 20.0, 40)
    with monkeypatch.context() as patch:
        patch.setattr(quadrature_mod, "_RADIAL_NODES", 1 << 21)
        whole = sums()
    [(x, y, w)] = calls
    counts = point_counts(x)
    assert np.array_equal(x, np.repeat(points, counts))
    applied = apply_at(space, f, 0.3, xs)[0]
    transformed = hankel_transform(space, f, xs).values

    for budget, size in (("_NODE_BLOCK", 1000), ("_NODE_BLOCK", 20000),
                         ("_RADIAL_NODES", 1), ("_RADIAL_NODES", 64),
                         ("_RADIAL_NODES", 500), ("_RADIAL_NODES", 3000)):
        with monkeypatch.context() as patch:
            patch.setattr(quadrature_mod, budget, size)
            assert np.array_equal(sums(), whole)
            assert len(calls) > 1
            nodes = quadrature_mod._RADIAL_NODES
            assert max(c[1].size for c in calls) <= max(
                nodes, 16 * MAX_RADIAL_PANELS)
            assert all(c[1].size <= nodes or point_counts(c[0]).size == 1
                       for c in calls)
            assert np.array_equal(
                np.concatenate([point_counts(c[0]) for c in calls]), counts)
            assert np.array_equal(apply_at(space, f, 0.3, xs)[0], applied)
            assert np.array_equal(hankel_transform(space, f, xs).values,
                                  transformed)
    cuts = np.cumsum(counts)[:-1]
    per_point = [np.sum(integrand(i, yp, wp)) for i, yp, wp in zip(
        range(points.size), np.split(y, cuts), np.split(w, cuts))]
    assert np.allclose(whole, per_point, rtol=1e-14, atol=0.0)


#: the levels 2^j, j = -10..10, and the points of a dyadic table fill
DYADIC_TIMES = 2.0 ** np.arange(-10, 11)
DYADIC_XS = np.array([0.25, 0.75, 1.5, 3.0])


def _counting(f):
    """f with its func wrapped to record the size of every argument, and
    the list of sizes, emptied after the sampling on f's grid."""
    sizes = []

    def func(y):
        sizes.append(np.size(y))
        return f.func(y)

    counted = SampledFunction.from_callable(func, f.grid, f.left, f.right,
                                            f.breakpoints)
    sizes.clear()
    return counted, sizes


def _recorded(monkeypatch, name):
    """Wrap quadrature's `name` to record each call's arguments and result;
    returns the list of (args, result)."""
    calls, real = [], getattr(quadrature_mod, name)

    def record(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(quadrature_mod, name, record)
    return calls


def test_fill_and_kernel_routes_equal_per_point_calls(monkeypatch):
    # a point's sum depends on no other point: a dyadic fill of 21 levels
    # at 4 points and the kernel route of T_N equal per-point calls, bit
    # for bit
    space = LambdaSpace(1.5)
    f = bump_mixture(np.random.default_rng(2), span=(1e-1, 1e1))
    fill = apply_at(space, f, DYADIC_TIMES[:, None], DYADIC_XS)[0]
    assert fill.shape == (21, 4)
    for t, row in zip(DYADIC_TIMES, fill):
        for x, value in zip(DYADIC_XS, row):
            assert value == apply_at(space, f, t, [x])[0][0]
    setup = geometric(2.0, -6, 6, v=(-1.0) ** np.arange(12))
    win, bump = IndexWindow(-3, 2), smooth_bump(1.0, 0.6)
    routed = apply_transform_kernel_route(space, setup, win, bump, DYADIC_XS)
    for x, value in zip(DYADIC_XS, routed):
        assert value == apply_transform_kernel_route(space, setup, win, bump,
                                                     [x])[0]
    # one point against the sum over its own gauss_panels nodes in panel
    # order, of (w K) f for apply_at and of w |K_t2 - K_t1| for
    # kernel_difference_l1
    edges = _recorded(monkeypatch, "_gap_edges")

    def own_nodes():
        [(_, (left, right))] = edges
        edges.clear()
        y, w = gauss_panels(left, right, 16, space.weight_exponent)
        return y.ravel(), w.ravel()

    for t, x in ((1 / 16, 1.0), (0.5, 3.0), (4.0, 0.25)):
        got = apply_at(space, f, t, [x])[0][0]
        y, w = own_nodes()
        terms = (w * kernel_values(space, t, x, y)) * f(y)
        assert got == np.add.reduceat(terms, [0])[0]
        got = kernel_difference_l1(space, t, 2 * t, x)
        y, w = own_nodes()
        terms = w * np.abs(kernel_values(space, 2 * t, x, y)
                           - kernel_values(space, t, x, y))
        assert got == np.add.reduceat(terms, [0])[0]


def test_f_sees_each_distinct_node_once(monkeypatch):
    # the points of a fill share their panels: f is evaluated once on the
    # nodes of each distinct panel of a group of points, and every node,
    # weight and f value a point sums is its own panel's
    space = LambdaSpace(1.5)
    f, sizes = _counting(smooth_bump(2.0, 1.0))
    edges = _recorded(monkeypatch, "_gap_edges")
    panels = _recorded(monkeypatch, "gauss_panels")
    apply_at(space, f, DYADIC_TIMES[:, None], DYADIC_XS)
    distinct = sum(np.unique(np.stack(out), axis=1).shape[1]
                   for _, out in edges)
    every = sum(out[0].size for _, out in edges)
    assert len(sizes) == len(panels) == len(edges)
    assert sum(sizes) == 16 * distinct
    assert [args[0].size for args, _ in panels] == [
        np.unique(np.stack(out), axis=1).shape[1] for _, out in edges]
    # most panels of a dyadic fill repeat
    assert 4 * distinct < every


@pytest.mark.parametrize("cap", [1, 200, 3000])
def test_distinct_node_cap_bounds_the_nodes_held(monkeypatch, cap):
    # groups of whole points up to _DISTINCT_NODES nodes, or one point with
    # more: a group builds at most max(_DISTINCT_NODES, n MAX_RADIAL_PANELS)
    # distinct nodes, however many points the call has, and the sums keep
    # their bits
    space = LambdaSpace(1.5)
    f, sizes = _counting(bump_mixture(np.random.default_rng(4),
                                      span=(1e-1, 1e1)))
    xs = np.geomspace(0.05, 20.0, 40)
    whole = apply_at(space, f, DYADIC_TIMES[:, None], xs)[0]
    groups = len(sizes)
    sizes.clear()
    edges = _recorded(monkeypatch, "_gap_edges")
    monkeypatch.setattr(quadrature_mod, "_DISTINCT_NODES", cap)
    assert np.array_equal(apply_at(space, f, DYADIC_TIMES[:, None], xs)[0],
                          whole)
    assert len(sizes) > groups
    bound = max(cap, 16 * MAX_RADIAL_PANELS)
    assert max(sizes) <= bound
    # a group's panels before the dedupe are within the cap too, unless the
    # group is one point
    for (firsts, counts, _), (left, _) in edges:
        assert 16 * left.size <= cap or counts.size == 1


def test_non_finite_layout_or_term_names_the_first_bad_point():
    # a weight y^400 overflows from y = 5.9: points whose ends pass it have
    # a non-finite layout; a term or an f value that is not finite fails
    # its point alone; the error names the first failing point
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    his = np.array([1.5, 3.0, 10.0, 12.0])

    def kernel(i, y, w):
        return w / (1.0 + (y - xs[i]) ** 2)

    assert np.all(np.isfinite(radial_sums(0.0, his[:2], xs[:2], 0.5, (), 16,
                                          400.0, kernel)))
    with pytest.raises(NumericsError, match=r"radial sum at x = 3 is not"):
        radial_sums(0.0, his, xs, 0.5, (), 16, 400.0, kernel)
    with pytest.raises(NumericsError, match=r"radial sum at x = 2 is not"):
        radial_sums(0.0, 5.0, xs, 0.5, (), 16, 2.0,
                    lambda i, y, w: np.where(xs[i] > 1.5, np.nan, w))
    with pytest.raises(NumericsError, match=r"radial sum at x = 3 is not"):
        radial_sums(0.0, his, xs, 0.5, (), 16, 2.0, kernel,
                    lambda y: np.where(y > 4.5, np.inf, 1.0))


def _legendre_moment(k):
    """integral_{-1}^{1} u^k du."""
    return 0.0 if k % 2 else 2.0 / (k + 1)


@pytest.mark.parametrize("n, weight", [(16, None), (24, None),
                                       (16, (0.0, 2.0)), (24, (0.0, 2.0))])
def test_literal_rules_are_scipys(n, weight):
    # the lambda = 1 rules are held as literals so that such a run does not
    # import scipy.special; they must be the installed scipy's rules
    if weight is None:
        rule, literal, want = (legendre_rule(n), literals.LEGENDRE[n],
                               roots_legendre(n))
    else:
        rule, literal, want = (jacobi_rule(n, *weight),
                               literals.JACOBI[(n, *weight)],
                               roots_jacobi(n, *weight))
    for got, values, ref in zip(rule, literal, want):
        np.testing.assert_array_max_ulp(np.array(values), ref, maxulp=1)
        np.testing.assert_array_equal(got, np.array(values))
        assert got.dtype == np.float64 and got.shape == (n,)
        # read-only, as scipy's rules were made
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0
    x, w = rule
    for k in range(2 * n):
        want_k = _legendre_moment(k)
        if weight is not None:
            # (1 + u)^2 u^k = u^k + 2 u^(k+1) + u^(k+2)
            want_k += 2.0 * _legendre_moment(k + 1) + _legendre_moment(k + 2)
        assert abs(float(np.sum(w * x ** k)) - want_k) < 1e-14


def test_rules_off_the_literals_are_read_only():
    for x in (*legendre_rule(7), *jacobi_rule(9, 0.0, 3.0)):
        assert not x.flags.writeable
    # the cache hands out the same arrays
    assert legendre_rule(7)[0] is legendre_rule(7)[0]
