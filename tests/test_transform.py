import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import besseldt.transform as transform_mod
from besseldt.errors import ContractError, TailEstimateError
from besseldt.functions import (SampledFunction, bump_mixture, constant_one,
                                indicator, smooth_bump)
from besseldt.kernel import apply_at, closed_form_lambda1
from besseldt.lacunary import LacunarySetup, geometric, refine, remap_window
from besseldt.measure import (LambdaSpace, _interval_ends, interval_masses,
                              interval_q_integrals)
from besseldt.quadrature import QuadratureSpec
from besseldt.transform import (CotlarReport, IndexWindow, SemigroupTable,
                                TruncationLevel, apply_transform,
                                apply_transform_kernel_route,
                                convergence_probe, cotlar_check,
                                default_radius_grid, max_window_sum_abs,
                                maximal_hl, maximal_transform,
                                maximal_transform_brute, tail_sum_bound_ratio,
                                window_kernel, window_kernel_bounds)

GRID = np.geomspace(0.05, 20.0, 24)


def alternating(j_min, j_max):
    return np.power(-1.0, np.arange(j_min, j_max))


def test_window_and_cap_validation():
    with pytest.raises(ValueError):
        IndexWindow(2, 2)
    with pytest.raises(ValueError):
        IndexWindow(3, 1)
    with pytest.raises(ValueError):
        TruncationLevel(0)
    w = IndexWindow(-1, 2)
    assert w.length == 4


def test_window_must_fit_setup(space1):
    setup = geometric(2.0, -2, 2)
    f = indicator(1.0)
    with pytest.raises(IndexError):
        apply_transform(space1, setup, IndexWindow(-2, 2), f, GRID)
    # n2 = j_max - 1 is the last admissible pair index
    apply_transform(space1, setup, IndexWindow(-2, 1), f, GRID)


def test_kernel_window_example_lambda1(space1):
    # a = {1,2,4}, v = {1,-1}, N = (0,1), x = y = 1: the closed form gives
    # K = 2 P_2(1,1) - P_1(1,1) - P_4(1,1) = (10 - 16 - 1) / (20 pi)
    setup = LacunarySetup(np.array([1.0, 2.0, 4.0]), np.array([1.0, -1.0]),
                          2.0)
    got = window_kernel(space1, setup, IndexWindow(0, 1), 1.0, 1.0)
    assert float(got) == pytest.approx(-7.0 / (20.0 * math.pi), rel=1e-9)


def test_kernel_window_telescopes_for_unit_weights(space1):
    setup = geometric(2.0, -3, 3)
    x, y = 1.3, 0.4
    got = window_kernel(space1, setup, IndexWindow(-2, 1), x, y)
    want = (closed_form_lambda1(setup.a_at(2), x, y)
            - closed_form_lambda1(setup.a_at(-2), x, y))
    assert float(got) == pytest.approx(float(want), rel=1e-9)


def test_transform_telescoping_identity(space1):
    setup = geometric(2.0, -4, 4)
    f = smooth_bump(1.0, 0.5)
    tn = apply_transform(space1, setup, IndexWindow(-3, 2), f, GRID)
    hi, _ = apply_at(space1, f, setup.a_at(3), GRID)
    lo, _ = apply_at(space1, f, setup.a_at(-3), GRID)
    scale = np.max(np.abs(tn.values))
    assert np.max(np.abs(tn.values - (hi - lo))) <= 1e-13 * scale


def test_transform_annihilates_constants(space1):
    setup = geometric(2.0, -3, 3, v=alternating(-3, 3))
    tn = apply_transform(space1, setup, IndexWindow(-2, 1), constant_one(),
                         GRID)
    assert np.max(np.abs(tn.values)) <= 1e-13


def test_window_additivity(space1):
    setup = geometric(2.0, -4, 4, v=alternating(-4, 4))
    f = smooth_bump(1.0, 0.5)
    whole = apply_transform(space1, setup, IndexWindow(-3, 3), f, GRID)
    left = apply_transform(space1, setup, IndexWindow(-3, 0), f, GRID)
    right = apply_transform(space1, setup, IndexWindow(1, 3), f, GRID)
    scale = np.max(np.abs(whole.values))
    assert np.max(np.abs(whole.values - (left.values + right.values))) \
        <= 1e-13 * scale


def test_transform_linearity(space1):
    setup = geometric(2.0, -3, 3, v=alternating(-3, 3))
    f = smooth_bump(1.0, 0.5)
    win = IndexWindow(-2, 2)
    a = apply_transform(space1, setup, win, f, GRID)
    b = apply_transform(space1, setup, win, smooth_bump(1.0, 0.5, 3.0), GRID)
    assert np.allclose(3.0 * a.values, b.values, rtol=1e-12, atol=1e-15)


def test_refinement_preserves_transform(space1, rng):
    # ratios 2, 4, 8: the last pair needs one inserted time
    a = np.array([1.0, 2.0, 8.0, 64.0])
    v = rng.normal(size=3)
    setup = LacunarySetup(a, v, 2.0)
    refined, index_map = refine(setup)
    assert refined.a.size > a.size
    n1, n2 = 0, 2
    m1, m2 = remap_window(index_map, n1, n2)
    f = smooth_bump(1.0, 0.5)
    orig = apply_transform(space1, setup, IndexWindow(n1, n2), f, GRID)
    ref = apply_transform(space1, refined, IndexWindow(m1, m2), f, GRID)
    scale = np.max(np.abs(orig.values))
    assert np.max(np.abs(ref.values - orig.values)) < 1e-12 * scale


def test_dual_route_agreement(space1):
    setup = geometric(2.0, -4, 4, v=alternating(-4, 4))
    f = smooth_bump(1.0, 0.4)
    win = IndexWindow(-2, 1)
    pts = np.array([0.5, 1.1, 2.3])
    summed = apply_transform(space1, setup, win, f, pts)
    kernel_route = apply_transform_kernel_route(space1, setup, win, f, pts)
    scale = np.max(np.abs(summed.values))
    assert np.max(np.abs(summed.values - kernel_route)) <= 1e-8 * scale


def test_max_window_sum_abs_equals_enumeration(rng):
    for _ in range(20):
        rows = int(rng.integers(3, 12))
        S = rng.normal(size=(rows, 5))
        got = max_window_sum_abs(S)
        best = np.zeros(5)
        for i1 in range(rows):
            for i2 in range(i1 + 2, rows):
                best = np.maximum(best, np.abs(S[i2] - S[i1]))
        assert np.array_equal(got, best)


def test_maximal_prefix_equals_brute(space1):
    setup = geometric(2.0, -4, 4, v=alternating(-4, 4))
    f = smooth_bump(1.0, 0.5)
    cap = TruncationLevel(3)
    table = SemigroupTable(space1, setup, f, GRID)
    fast = maximal_transform(table, cap)
    brute = maximal_transform_brute(table, cap)
    assert np.array_equal(fast, brute)


def test_maximal_dominates_each_window(space1):
    setup = geometric(2.0, -4, 4, v=alternating(-4, 4))
    f = smooth_bump(1.0, 0.5)
    cap = TruncationLevel(2)
    tstar = maximal_transform(SemigroupTable(space1, setup, f, GRID), cap)
    for n1 in range(-2, 2):
        for n2 in range(n1 + 1, 3):
            tn = apply_transform(space1, setup, IndexWindow(n1, n2), f, GRID)
            assert np.all(np.abs(tn.values) <= tstar + 1e-13)


def test_maximal_hl_constant(space1):
    vals = maximal_hl(space1, constant_one(), 1.0, default_radius_grid(),
                      np.array([0.5, 2.0]))
    assert np.allclose(vals, 1.0, rtol=1e-10)


def test_maximal_hl_indicator_pin(space1):
    # closed form at x = 2: averages of chi_(0,1) vanish for r <= 1, equal
    # (1 - (2-r)^3) / ((2+r)^3 - (2-r)^3) on (1, 2], and decay like
    # (2+r)^-3 past r = 2, so the sup sits inside (1, 2)
    from scipy.optimize import minimize_scalar

    def avg(r):
        return (1.0 - (2.0 - r) ** 3) / ((2.0 + r) ** 3 - (2.0 - r) ** 3)

    res = minimize_scalar(lambda r: -avg(r), bounds=(1.0, 2.0),
                          method="bounded", options={"xatol": 1e-12})
    want = -res.fun
    assert want == pytest.approx(0.020468906681359977, rel=1e-9)
    vals = maximal_hl(space1, indicator(1.0), 1.0,
                      np.geomspace(1.0, 2.0, 4001), np.array([2.0]))
    assert vals[0] <= want * (1 + 1e-12)
    assert vals[0] == pytest.approx(want, rel=1e-6)
    # the default coarse grid reports a lower bound of the radius sup
    coarse = maximal_hl(space1, indicator(1.0), 1.0, default_radius_grid(),
                        np.array([2.0]))
    assert coarse[0] <= vals[0] * (1 + 1e-12)
    assert coarse[0] == pytest.approx(want, rel=5e-2)


def _maximal_hl_loop(space, f, q, radii, pts):
    """Reference: one interval average per (x, r), max over the radii."""
    out = []
    for x in pts:
        best = 0.0
        for r in radii:
            left, right = _interval_ends(x, r)
            best = max(best, interval_q_integrals(
                space, f, [left], [right], q)[0]
                / interval_masses(space, x, r))
        out.append(best ** (1.0 / q))
    return np.array(out)


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_maximal_hl_matches_per_interval_loop(lam):
    space = LambdaSpace(lam)
    grid = np.geomspace(0.05, 3.0, 40)
    sampled = SampledFunction(grid, np.sin(3.0 * grid), left="hold",
                              right="zero")
    fs = [indicator(1.0, 1.3), smooth_bump(2.0, 0.7), constant_one(),
          sampled]
    # radii below and above x, and centers past every support
    radii = np.concatenate([default_radius_grid(), [5e3]])
    pts = np.array([1e-3, 0.05, 0.3, 1.0, 1.7, 4.0, 30.0, 400.0])
    for f in fs:
        for q in (1.0, 1.5, 2.0):
            got = maximal_hl(space, f, q, radii, pts)
            want = _maximal_hl_loop(space, f, q, radii, pts)
            assert np.all(want > 0.0)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_maximal_hl_monotone_in_q(space1):
    f = smooth_bump(1.0, 0.5)
    pts = np.array([0.7, 1.0, 2.5])
    grid = default_radius_grid()
    m1 = maximal_hl(space1, f, 1.0, grid, pts)
    m2 = maximal_hl(space1, f, 2.0, grid, pts)
    assert np.all(m1 <= m2 + 1e-14)


def test_cotlar_trivial_cases(space1):
    setup = geometric(2.0, -5, 5, v=alternating(-5, 5))
    rep = cotlar_check(space1, setup, TruncationLevel(4), constant_one(),
                       2.0, np.array([0.5, 1.0, 2.0]))
    assert isinstance(rep, CotlarReport)
    assert rep.sup_ratio <= 1e-10
    assert rep.n_degenerate == 0


def test_cotlar_nontrivial(space1):
    setup = geometric(2.0, -5, 5, v=alternating(-5, 5))
    rep = cotlar_check(space1, setup, TruncationLevel(4), indicator(1.0),
                       2.0, np.geomspace(0.1, 10.0, 12))
    assert np.isfinite(rep.sup_ratio)
    assert 0 < rep.sup_ratio < 10.0
    assert rep.n_degenerate == 0


def test_table_keeps_largest_tail_bound(space1, monkeypatch):
    f = constant_one()
    setup = geometric(2.0, -3, 3)
    grid = np.array([0.5, 2.0])
    table = SemigroupTable(space1, setup, f, grid)
    table.level(0)
    table.level(2)
    want = max(float(np.max(apply_at(space1, f, setup.a_at(j), grid)[1]))
               for j in (0, 2))
    assert table.max_tail == want
    assert 0.0 < want <= max(QuadratureSpec().abs_tol, 1e-14)

    def loose_tail(space, f, t, xs, quad):
        vals, tails = apply_at(space, f, t, xs, quad)
        return vals, tails + 1e-6

    monkeypatch.setattr(transform_mod, "apply_at", loose_tail)
    with pytest.raises(TailEstimateError):
        table.level(1)


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_table_window_is_the_explicit_sum(lam):
    space = LambdaSpace(lam)
    setup = geometric(2.0, -5, 5, v=np.random.default_rng(3).normal(size=10))
    table = SemigroupTable(space, setup, smooth_bump(1.0, 0.5), GRID)
    S = table.weighted_prefixes(4)
    for n1, n2 in ((-5, 4), (-3, 2), (0, 1), (-4, 4)):
        want = np.zeros(GRID.size)
        for j in range(n1, n2 + 1):
            want += setup.v_at(j) * (table.level(j + 1) - table.level(j))
        got = table.window(n1, n2)
        assert np.array_equal(got, want)
        if -4 <= n1 and n2 <= 4:
            diff = S[n2 + 5] - S[n1 + 4]
            assert np.max(np.abs(got - diff)) <= 1e-13 * np.max(np.abs(got))
    for n1, n2 in ((-6, 0), (0, 5), (5, 6)):
        with pytest.raises(IndexError):
            table.window(n1, n2)


def test_batch_table_matches_single_tables():
    # one layout per level for the batch; each row within 1e-13 of the
    # scale of the single-function table.  Gaussian mixtures are analytic,
    # so both layouts resolve them to rounding (a smooth_bump's rows move
    # by its quadrature error, about 1e-9, between layouts)
    space = LambdaSpace(1.5)
    setup = geometric(2.0, -5, 5, v=np.random.default_rng(4).normal(size=10))
    rng = np.random.default_rng(8)
    fs = (*(bump_mixture(rng, span=(1e-1, 1e1)) for _ in range(3)),
          constant_one())
    batch = SemigroupTable(space, setup, fs, GRID)
    S = batch.weighted_prefixes(4)
    assert S.shape == (10, len(fs), GRID.size)
    wins = [(-5, 4), (-3, 2), (0, 1)]
    got = [batch.window(n1, n2) for n1, n2 in wins]
    for k, f in enumerate(fs):
        single = SemigroupTable(space, setup, f, GRID)
        scale = np.max(np.abs(single.level(-5)))
        want_S = single.weighted_prefixes(4)
        assert np.max(np.abs(S[:, k] - want_S)) <= 1e-13 * scale
        for (n1, n2), vals in zip(wins, got):
            want = single.window(n1, n2)
            assert np.max(np.abs(vals[k] - want)) <= 1e-13 * scale


def test_criterion_07_on_a_batch_table(space1):
    # the prefix pass equals the brute enumeration exactly, row by row
    rng = np.random.default_rng(11)
    grid = np.geomspace(0.05, 20.0, 16)
    setup = geometric(2.0, -8, 8, v=rng.choice([-1.0, 1.0], size=16))
    fs = tuple(bump_mixture(rng, span=(0.2, 5.0)) for _ in range(4))
    table = SemigroupTable(space1, setup, fs, grid)
    for M in (1, 3, 6):
        cap = TruncationLevel(M)
        fast = maximal_transform(table, cap)
        brute = maximal_transform_brute(table, cap)
        assert len(fast) == len(brute) == len(fs)
        for a, b in zip(fast, brute):
            assert np.array_equal(a, b)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(min_value=0.3, max_value=3.0),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       size=st.integers(min_value=1, max_value=4))
def test_batch_window_matches_single_windows(lam, seed, size):
    # the two layouts differ, so the levels differ by up to their
    # quadrature error: at most 1.2e-13 of the scale, and 1.5e-13 in a
    # window, over 60 random draws of these inputs
    space = LambdaSpace(lam)
    rng = np.random.default_rng(seed)
    fs = tuple(bump_mixture(rng, span=(1e-1, 1e1)) for _ in range(size))
    setup = geometric(2.0, -3, 3, v=alternating(-3, 3))
    grid = np.geomspace(0.05, 20.0, 6)
    got = SemigroupTable(space, setup, fs, grid).window(-3, 2)
    for row, f in zip(got, fs):
        single = SemigroupTable(space, setup, f, grid)
        want = single.window(-3, 2)
        scale = max(np.max(np.abs(single.level(j))) for j in range(-3, 4))
        assert np.max(np.abs(row - want)) <= 1e-12 * scale


def test_apply_transform_closure_reproduces_values(space1):
    setup = geometric(2.0, -4, 4, v=alternating(-4, 4))
    tn = apply_transform(space1, setup, IndexWindow(-3, 2),
                         smooth_bump(1.0, 0.5), GRID)
    assert np.array_equal(tn(GRID), tn.values)


def test_window_bounds_zero_weights(space1):
    setup = geometric(2.0, -3, 3, v=np.zeros(6))
    # one point per regime: x <= 2|x-y| and x > 2|x-y|
    sweep = np.array([[1.0, 3.0], [5.0, 4.5]])
    rep = window_kernel_bounds(space1, setup, IndexWindow(-2, 2), sweep)
    assert rep.sup_size == 0.0
    assert rep.sup_gradient == 0.0
    size_only = window_kernel_bounds(space1, setup, IndexWindow(-2, 2), sweep,
                                     gradient=False)
    assert size_only.sup_gradient is None
    assert size_only.sup_size == rep.sup_size
    with pytest.raises(ValueError):
        window_kernel_bounds(space1, setup, IndexWindow(-2, 2),
                             np.array([[1.0, 3.0]]))
    with pytest.raises(ValueError):
        window_kernel_bounds(space1, setup, IndexWindow(-2, 2),
                             np.array([[1.0, 1.0], [5.0, 4.5]]))


def test_tail_bound_constraint_filter(space1):
    setup = geometric(2.0, -6, 6, v=alternating(-6, 6))
    # need a_k <= |x - y| <= a_{k+1} with k = 2: distances in [4, 8]
    sweep = np.array([[1.0, 6.0], [1.0, 1.5], [2.0, 40.0]])
    rep = tail_sum_bound_ratio(space1, setup, 0, 2, -6, sweep)
    assert rep.n_used == 1 and rep.n_rejected == 2
    assert np.isfinite(rep.sup_ratio)
    with pytest.raises(ValueError):
        tail_sum_bound_ratio(space1, setup, 3, 2, -6, sweep)


def test_probe_requires_lipschitz(space1):
    setup = geometric(2.0, -5, 5, v=alternating(-5, 5))
    with pytest.raises(ValueError):
        convergence_probe(space1, setup, indicator(1.0),
                          np.array([1.0]), (2, 4))


def test_probe_caps_must_increase(space1):
    setup = geometric(2.0, -5, 5, v=alternating(-5, 5))
    with pytest.raises(ValueError):
        convergence_probe(space1, setup, smooth_bump(1.0, 0.5),
                          np.array([1.0]), (4, 2))


def test_probe_diffs_shrink(space1):
    setup = geometric(2.0, -7, 7, v=alternating(-7, 7))
    rep = convergence_probe(space1, setup, smooth_bump(1.0, 0.5),
                            np.geomspace(0.2, 5.0, 8), (2, 4, 6))
    assert rep.sup_diffs[1] < rep.sup_diffs[0]
    assert np.all(rep.ratios <= 1.0)
