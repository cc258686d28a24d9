import math

import numpy as np
import pytest
from scipy.integrate import quad as quad_ref
from scipy.special import beta as beta_fn

import besseldt.quadrature as quadrature_mod
from besseldt.errors import QuadratureError
from besseldt.functions import smooth_bump
from besseldt.hankel import hankel_transform
from besseldt.kernel import apply_at
from besseldt.measure import LambdaSpace
from besseldt.quadrature import (QuadratureSpec, gauss_panels, jacobi_rule,
                                 legendre_rule, panel_sums, radial_layouts)

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


def _radial_panels(monkeypatch, lo, his, xs, t, bps, n=4):
    """The runs of radial_layouts and, per point, the panel ends
    (left, right) that it hands gauss_panels."""
    seen = []
    real = quadrature_mod.gauss_panels

    def record(left, right, n, exponent):
        seen.append((left.copy(), right.copy()))
        return real(left, right, n, exponent)

    monkeypatch.setattr(quadrature_mod, "gauss_panels", record)
    runs = list(radial_layouts(lo, his, xs, t, bps, n, 1.4))
    monkeypatch.setattr(quadrature_mod, "gauss_panels", real)
    cuts = np.cumsum(np.concatenate([r[2] for r in runs]) // n)[:-1]
    return (runs, np.split(np.concatenate([s[0] for s in seen]), cuts),
            np.split(np.concatenate([s[1] for s in seen]), cuts))


def test_panel_edges_breakpoints_and_grading(monkeypatch):
    # radial layouts of random cases: a point's panels tile [lo, hi]; a
    # panel [a, b] resolves the peak, b - a <= 0.75 (t + dist([a, b], x)),
    # and is no wider than a unless a = 0; every breakpoint and x inside
    # (lo, hi) is an edge; and the layouts do not depend on how the points
    # are grouped into runs
    rng = np.random.default_rng(3)
    for _ in range(150):
        lo, his, xs, t, bps = _radial_case(rng)
        runs, lefts, rights = _radial_panels(monkeypatch, lo, his, xs, t, bps)
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
        whole = [np.concatenate(arrays) for arrays in zip(*runs)]
        monkeypatch.setattr(quadrature_mod, "_NODE_BLOCK", 64)
        small = list(radial_layouts(lo, his, xs, t, bps, 4, 1.4))
        monkeypatch.undo()
        assert len(small) >= len(runs)
        for got, want in zip(zip(*small), whole):
            assert np.array_equal(np.concatenate(got), want)


def test_panel_edges_validation_and_budget(monkeypatch):
    # the radial route shares the budget of panel_layouts: a point whose
    # layout has P panels passes with MAX_RADIAL_PANELS = P and raises
    # QuadratureError (exit 2) below it, naming the interval
    assert_budget_boundary(
        monkeypatch, quadrature_mod, "MAX_RADIAL_PANELS",
        lambda: radial_layouts(0.0, 8.0, [3.0, 0.5], 1e-3, (1.0, 7.0), 16,
                               2.0), 8)
    monkeypatch.setattr(quadrature_mod, "MAX_RADIAL_PANELS", 4)
    with pytest.raises(QuadratureError, match="above the budget of 4"):
        apply_at(LambdaSpace(1.0), smooth_bump(2.0, 1.0), 1e-3, [3.0])


def test_panel_layouts_budget_holds_past_int64():
    # a gap 1e40 caps wide: its count used to wrap negative in the int64
    # cast, pass the budget and fail in np.repeat
    with pytest.raises(QuadratureError, match=r"panel layout of \[1, 1e\+40\]"
                       r" needs \d{41} panels, above the budget of 400"):
        list(quadrature_mod.panel_layouts([1.0, 1e40], [2], [1.0], 4, 0.0,
                                          400))


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


def test_weighted_panel_nodes_folds_the_power(monkeypatch):
    # the layout weights carry y^1.4 on every panel: off a panel at 0 they
    # are the plain Gauss-Legendre weights times y^1.4, and they sum to
    # integral_lo^6 y^1.4 dy
    for lo in (0.0, 0.5):
        runs, lefts, rights = _radial_panels(monkeypatch, lo, 6.0, [1.0], 0.1,
                                             (), n=16)
        nodes, weights = gauss_panels(lefts[0], rights[0], 16, 1.4)
        plain_nodes, plain = gauss_panels(lefts[0], rights[0], 16, 0.0)
        k = 1 if lo == 0.0 else 0
        assert np.array_equal(nodes[k:], plain_nodes[k:])
        assert np.array_equal(weights[k:], plain[k:] * nodes[k:] ** 1.4)
        assert np.array_equal(runs[0][1], weights.ravel())
        assert float(np.sum(weights)) == pytest.approx(
            (6.0 ** 2.4 - lo ** 2.4) / 2.4, rel=1e-13)


def test_panel_sums_blocking_is_bit_identical(monkeypatch):
    rng = np.random.default_rng(5)
    points = rng.uniform(0.5, 3.0, 60)

    def runs():
        return radial_layouts(0.0, 8.0, points, 0.1, (), 16, 1.4)

    def integrand(x, y, w):
        return w * np.cos(x * y) * np.exp(-y)

    space, f = LambdaSpace(0.7), smooth_bump(2.0, 1.0)
    xs = np.geomspace(0.05, 20.0, 40)
    whole = panel_sums(points, runs(), integrand)
    applied = apply_at(space, f, 0.3, xs)[0]
    transformed = hankel_transform(space, f, xs).values

    calls = []

    def counted(x, y, w):
        calls.append(y.size)
        return integrand(x, y, w)

    monkeypatch.setattr(quadrature_mod, "_NODE_BLOCK", 1000)
    assert np.array_equal(panel_sums(points, runs(), counted), whole)
    assert len(calls) > 3 and max(calls) < 2000
    assert np.array_equal(apply_at(space, f, 0.3, xs)[0], applied)
    assert np.array_equal(hankel_transform(space, f, xs).values, transformed)
    per_point = []
    for nodes, weights, counts in runs():
        cuts = np.cumsum(counts)[:-1]
        per_point += [np.sum(integrand(x, y, w)) for x, y, w in zip(
            points[len(per_point):], np.split(nodes, cuts),
            np.split(weights, cuts))]
    assert np.allclose(whole, per_point, rtol=1e-14, atol=0.0)
