import numpy as np
import pytest
from scipy.integrate import quad as quad_ref
from scipy.special import beta as beta_fn

import besseldt.quadrature as quadrature_mod
from besseldt.functions import smooth_bump
from besseldt.hankel import hankel_transform
from besseldt.kernel import apply_at
from besseldt.measure import LambdaSpace
from besseldt.quadrature import (QuadratureBudgetError, QuadratureSpec,
                                 jacobi_rule, legendre_rule, panel_edges,
                                 panel_nodes, panel_sums,
                                 weighted_panel_nodes)


def test_spec_validation():
    # the angular rule of the kernel derivatives and its knobs are gone
    with pytest.raises(TypeError):
        QuadratureSpec(theta_nodes=64)
    with pytest.raises(ValueError):
        QuadratureSpec(y_nodes_per_panel=2)
    with pytest.raises(ValueError):
        QuadratureSpec(panel_count=1)
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


def test_panel_edges_breakpoints_and_grading():
    edges = panel_edges(0.0, 10.0, center=3.0, width=0.5,
                        breakpoints=(1.0, 7.0))
    assert edges[0] == 0.0 and edges[-1] == 10.0
    assert np.all(np.diff(edges) > 0)
    assert 1.0 in edges and 7.0 in edges
    # ratio rule: interior panels no wider than their left edge
    widths = np.diff(edges)
    interior = edges[:-1] > 0
    assert np.all(widths[interior] <= edges[:-1][interior] * (1 + 1e-12))


def test_panel_edges_validation_and_budget():
    with pytest.raises(ValueError):
        panel_edges(2.0, 1.0, 1.5, 0.1)
    with pytest.raises(QuadratureBudgetError):
        panel_edges(0.0, 1e6, center=1e-6, width=1e-9, max_panels=10)


def test_panel_nodes_zero_left_jacobi():
    # first panel starts at 0: the Jacobi rule absorbs y^alpha, so
    # integral_0^1 y^2 dy and integral_0^1 y^2 * y dy come out exactly.
    edges = np.array([0.0, 0.5, 1.0])
    nodes, weights, first_w = panel_nodes(edges, 8, zero_left_exponent=2.0)
    assert first_w
    n = 8
    f = np.ones_like(nodes)
    f[n:] *= nodes[n:] ** 2  # weight carried explicitly off the first panel
    assert abs(float(np.sum(weights * f)) - 1.0 / 3.0) < 1e-14
    g = nodes.copy()
    g[n:] *= nodes[n:] ** 2
    assert abs(float(np.sum(weights * g)) - 1.0 / 4.0) < 1e-14


def test_panel_nodes_plain_legendre():
    edges = np.array([1.0, 2.0, 4.0])
    nodes, weights, first_w = panel_nodes(edges, 6)
    assert not first_w
    assert abs(float(np.sum(weights * nodes ** 3)) - (4.0 ** 4 - 1) / 4) < 1e-12


def _panel_nodes_loop(edges, n, zero_left_exponent=None):
    """Reference: the panel rule assembled one panel at a time."""
    xs, ws = legendre_rule(n)
    nodes, weights = [], []
    first = zero_left_exponent is not None and edges[0] == 0.0
    if first:
        h = edges[1]
        xj, wj = jacobi_rule(n, 0.0, zero_left_exponent)
        nodes.append(h / 2.0 * (1.0 + xj))
        weights.append(wj * (h / 2.0) ** (zero_left_exponent + 1.0))
    for a, b in zip(edges[int(first):-1], edges[int(first) + 1:]):
        half = 0.5 * (b - a)
        nodes.append(a + half * (1.0 + xs))
        weights.append(ws * half)
    return np.concatenate(nodes), np.concatenate(weights), first


@pytest.mark.parametrize("lo", [0.0, 0.37])
@pytest.mark.parametrize("zl", [None, 0.6, 2.0])
def test_panel_nodes_bit_identical_to_panel_loop(lo, zl):
    rng = np.random.default_rng(7)
    for _ in range(20):
        hi = lo + rng.uniform(0.5, 50.0)
        edges = panel_edges(lo, hi, rng.uniform(lo, hi),
                            10.0 ** rng.uniform(-3, 0),
                            breakpoints=rng.uniform(lo, hi, 3),
                            max_panels=4000)
        for n in (8, 16):
            got = panel_nodes(edges, n, zero_left_exponent=zl)
            want = _panel_nodes_loop(edges, n, zero_left_exponent=zl)
            assert got[2] == want[2] == (zl is not None and lo == 0.0)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
    # a single panel from 0: the Jacobi rule alone
    got = panel_nodes(np.array([0.0, 1.5]), 8, zero_left_exponent=zl)
    want = _panel_nodes_loop(np.array([0.0, 1.5]), 8, zero_left_exponent=zl)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_weighted_panel_nodes_folds_the_power():
    for lo in (0.0, 0.5):
        edges = panel_edges(lo, 6.0, 1.0, 0.1)
        nodes, weights, first = panel_nodes(edges, 16, zero_left_exponent=1.4)
        k = 16 if first else 0
        want = weights.copy()
        want[k:] = weights[k:] * nodes[k:] ** 1.4
        got_nodes, got = weighted_panel_nodes(edges, 16, 1.4)
        assert np.array_equal(got_nodes, nodes)
        assert np.array_equal(got, want)
        assert float(np.sum(got)) == pytest.approx(
            (6.0 ** 2.4 - lo ** 2.4) / 2.4, rel=1e-13)


def test_panel_sums_blocking_is_bit_identical(monkeypatch):
    rng = np.random.default_rng(5)
    points = rng.uniform(0.5, 3.0, 60)
    layouts = [weighted_panel_nodes(panel_edges(0.0, 8.0, x, 0.1), 16, 1.4)
               for x in points]

    def integrand(x, y, w):
        return w * np.cos(x * y) * np.exp(-y)

    space, f = LambdaSpace(0.7), smooth_bump(2.0, 1.0)
    xs = np.geomspace(0.05, 20.0, 40)
    whole = panel_sums(points, iter(layouts), integrand)
    applied = apply_at(space, f, 0.3, xs)[0]
    transformed = hankel_transform(space, f, xs).values

    calls = []

    def counted(x, y, w):
        calls.append(y.size)
        return integrand(x, y, w)

    monkeypatch.setattr(quadrature_mod, "_NODE_BLOCK", 1000)
    assert np.array_equal(panel_sums(points, iter(layouts), counted), whole)
    assert len(calls) > 3 and max(calls) < 2000
    assert np.array_equal(apply_at(space, f, 0.3, xs)[0], applied)
    assert np.array_equal(hankel_transform(space, f, xs).values, transformed)
    per_point = [np.sum(integrand(x, y, w))
                 for x, (y, w) in zip(points, layouts)]
    assert np.allclose(whole, per_point, rtol=1e-14, atol=0.0)
