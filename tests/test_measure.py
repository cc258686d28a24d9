import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad as quad_ref
from scipy.optimize import brentq

import besseldt.measure as measure_mod
from besseldt.functions import SampledFunction, bump_mixture, constant_one, \
    indicator, smooth_bump, smoothed_step
from besseldt.measure import (LambdaSpace, PowerWeight, _interval_ends,
                              bmo_norm, dyadic_family, interval_masses,
                              interval_q_averages, interval_q_integrals,
                              lp_norm, lp_norms)
from besseldt.transform import _on_grid


def test_space_validation():
    with pytest.raises(ValueError):
        LambdaSpace(0.0)
    with pytest.raises(ValueError):
        LambdaSpace(-1.0)
    s = LambdaSpace(0.75)
    assert s.weight_exponent == 1.5
    assert s.dimension == 2.5


def test_interval_canonical_form():
    assert _interval_ends(1.0, 3.0) == (0.0, 4.0)   # x < r: (0, x + r)
    assert _interval_ends(5.0, 1.0) == (4.0, 6.0)
    # arrays broadcast, and each entry takes its own branch
    left, right = _interval_ends(np.array([1.0, 5.0]), np.array([3.0, 1.0]))
    assert left.tolist() == [0.0, 4.0] and right.tolist() == [4.0, 6.0]
    with pytest.raises(ValueError):
        _interval_ends(1.0, 0.0)


def test_measure_interval_closed_form(space1):
    # m(I) = integral of y^2 over the interval for lambda = 1, for arrays
    # of centers and radii broadcast against each other
    got = interval_masses(space1, [3.0, 0.5], 1.0)
    assert got[0] == pytest.approx((4.0 ** 3 - 2.0 ** 3) / 3.0, rel=1e-14)
    # an interval reaching past 0 clips there
    assert got[1] == pytest.approx(1.5 ** 3 / 3.0, rel=1e-14)
    assert interval_masses(space1, 0.5, 2.0) == pytest.approx(
        2.5 ** 3 / 3.0, rel=1e-14)
    grid = interval_masses(space1, np.array([[1.0], [2.0]]),
                           np.array([0.5, 1.0, 4.0]))
    assert grid.shape == (2, 3)
    # I(x, r) with x <= r is (0, x + r): mass (x + r)^3 / 3
    assert grid[1, 2] == pytest.approx(6.0 ** 3 / 3.0, rel=1e-14)
    with pytest.raises(ValueError, match="radius"):
        interval_masses(space1, 1.0, 0.0)


def test_interval_integral_exact_piecewise(space1):
    # piecewise-linear f times y^2 integrates in closed form per segment
    # (f > 0 there, so its q = 1 integral is the signed one)
    f = SampledFunction(np.array([1.0, 2.0]), np.array([1.0, 3.0]))
    got = interval_q_integrals(space1, f, [1.0], [2.0], 1.0)
    want = quad_ref(lambda y: (2.0 * y - 1.0) * y ** 2, 1.0, 2.0,
                    epsabs=1e-14)[0]
    assert got[0] == pytest.approx(want, rel=1e-13)


def test_interval_average_and_q(space1):
    assert (interval_q_averages(space1, constant_one(), 2.0, 1.0, 1.0)
            == pytest.approx(1.0, rel=1e-12))
    f = smoothed_step(1.0, 0.2)
    q2 = interval_q_integrals(space1, f, [0.2], [0.8], 2.0)
    want = quad_ref(lambda y: f(y) ** 2 * y ** 2, 0.2, 0.8)[0]
    assert q2[0] == pytest.approx(want, rel=1e-8)


def _power_integral_mp(a, b, p):
    """integral_a^b y^p dy at 40 digits, 0 when b <= a (a float
    b^(p+1) - a^(p+1) would lose about 1e-13 to cancellation)."""
    if b <= a:
        return 0.0
    with mpmath.workdps(40):
        q = mpmath.mpf(p) + 1
        return float((mpmath.mpf(b) ** q - mpmath.mpf(a) ** q) / q)


def test_interval_q_integrals_batch():
    # many intervals in one call: some outside the support, some cut by it,
    # some reaching into the hold tails
    space = LambdaSpace(0.7)
    p = space.weight_exponent
    left = np.array([0.0, 0.01, 0.4, 1.1, 2.5, 0.02, 6.0])
    right = np.array([0.3, 2.0, 0.9, 5.0, 3.5, 4.0, 7.0])
    ind = indicator(1.0, 1.3)
    for q in (1.0, 1.5, 2.0):
        got = interval_q_integrals(space, ind, left, right, q)
        want = [1.3 ** q * _power_integral_mp(a, min(b, 1.0), p)
                for a, b in zip(left, right)]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        got = interval_q_integrals(space, constant_one(), left, right, q)
        want = [_power_integral_mp(a, b, p) for a, b in zip(left, right)]
        assert got == pytest.approx(want, rel=1e-13)
    grid = np.geomspace(0.05, 3.0, 12)
    sampled = SampledFunction(grid, np.cos(2.0 * grid), left="hold",
                              right="zero")
    bump = smooth_bump(1.5, 0.6)
    for f, q in ((sampled, 1.0), (sampled, 2.0), (bump, 1.0), (bump, 1.5),
                 (bump, 2.0)):
        got = interval_q_integrals(space, f, left, right, q)
        for k, (a, b) in enumerate(zip(left, right)):
            pts = [t for t in np.union1d(grid, bump.breakpoints) if a < t < b]
            want = quad_ref(lambda y: abs(float(f(y))) ** q * y ** p, a, b,
                            points=pts or None, limit=400, epsabs=1e-15,
                            epsrel=1e-13)[0]
            assert got[k] == pytest.approx(want, rel=1e-11, abs=1e-15)


def test_q_integrals_at_zeros_of_sampled_f():
    # |f|^q with q not in {1, 2} is not smooth at a zero of f, so the pieces
    # that end at one need Gauss-Jacobi rules: cos(2y) sampled crosses 0
    # between grid points, the second f is 0 at two of its grid points
    space = LambdaSpace(0.7)
    p = space.weight_exponent
    grid = np.geomspace(0.05, 3.0, 12)
    left = np.array([0.0, 0.3, 0.05, 1.0, 0.7, 0.2])
    right = np.array([3.0, 2.9, 1.0, 2.5, 0.9, 1.0])
    for f in (SampledFunction(grid, np.cos(2.0 * grid)),
              SampledFunction(np.array([0.25, 0.5, 1.0, 2.0]),
                              np.array([0.0, 1.0, 0.0, -0.7]))):
        g, v = f.grid, f.values
        cross = np.flatnonzero(v[:-1] * v[1:] < 0)
        zeros = g[cross] - v[cross] * (g[cross + 1] - g[cross]) / (
            v[cross + 1] - v[cross])
        kinks = np.concatenate([g, zeros])
        got = interval_q_integrals(space, f, left, right, 1.5)
        for k, (a, b) in enumerate(zip(left, right)):
            a, b = max(a, g[0]), min(b, g[-1])
            pts = [t for t in kinks if a < t < b]
            want = quad_ref(lambda y: abs(float(f(y))) ** 1.5 * y ** p, a, b,
                            points=pts or None, limit=400, epsabs=0.0,
                            epsrel=1e-13)[0]
            assert got[k] == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("chunk", [1, 512])
@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_callable_batch_equals_one_interval_calls(lam, chunk, monkeypatch):
    # a batch shares the Gauss rows of the gaps between alignment points
    # among its intervals; every sum must keep the bits of the interval
    # alone, with blocks of one row per gauss_panels call too
    space = LambdaSpace(lam)
    for f in (indicator(1.0, 1.3), smooth_bump(1.5, 0.6),
              bump_mixture(np.random.default_rng(0))):
        pts = np.union1d(f.grid, f.breakpoints)
        k = np.searchsorted(pts, 0.3)
        ends = [
            (pts[k] + 0.25 * (pts[k + 1] - pts[k]),
             pts[k] + 0.75 * (pts[k + 1] - pts[k])),    # inside one gap
            (0.0, 0.7), (0.0, 100.0), (0.0, pts[3]),   # from 0
            (0.3, pts[k + 3]), (pts[k], 0.9),           # ending, starting
            (pts[k - 5], pts[k + 5]),                   # on points
            (0.01, 50.0), (0.2, 0.8), (0.25, 0.9),     # sharing gaps
            (1e3, 2e3), (1e-12, 1e-11)]                 # past, below supp
        left, right = np.array(ends).T
        with monkeypatch.context() as m:
            m.setattr(measure_mod, "_CELL_CHUNK", chunk)
            empty = interval_q_integrals(space, f, [], [], 1.0)
            batch = {q: interval_q_integrals(space, f, left, right, q)
                     for q in (1.0, 1.5, 2.0)}
            osc = bmo_norm(space, f, left, right)
        assert empty.shape == (0,)
        for q, got in batch.items():
            want = [interval_q_integrals(space, f, [a], [b], q)[0]
                    for a, b in ends]
            assert np.array_equal(got, want), (f, q)
        # the shifted rows |f - c_k| of bmo_norm as well
        assert osc == max(bmo_norm(space, f, [a], [b]) for a, b in ends)


@pytest.mark.parametrize("cells", [1, 4096])
def test_sampled_batch_equals_one_interval_calls(cells, monkeypatch):
    # a sample-backed f is integrated in blocks of whole intervals; every
    # sum, shifted ones too, keeps the bits of the interval alone
    space = LambdaSpace(1.0)
    grid = np.geomspace(0.05, 3.0, 40)
    f = SampledFunction(grid, np.cos(2.0 * grid), left="hold", right="zero")
    left, right = _interval_ends(np.geomspace(1e-2, 10.0, 24)[:, None],
                                 np.geomspace(1e-2, 10.0, 8)[None, :])
    left, right = left.ravel(), right.ravel()
    with monkeypatch.context() as m:
        m.setattr(measure_mod, "_SAMPLED_CELLS", cells)
        batch = {q: interval_q_integrals(space, f, left, right, q)
                 for q in (1.0, 1.5, 2.0)}
        osc = bmo_norm(space, f, left, right)
    for q, got in batch.items():
        want = [interval_q_integrals(space, f, [a], [b], q)[0]
                for a, b in zip(left, right)]
        assert np.array_equal(got, want), q
    assert osc == max(bmo_norm(space, f, [a], [b])
                      for a, b in zip(left, right))


@pytest.mark.parametrize("lam", [0.05, 0.3, 2.5])
def test_interval_averages_of_one_are_one(lam):
    # I(400, 1e-3) is narrow and far from 0, where b^q - a^q cancels; I(0.1,
    # 3) and I(0.1, 0.5) start at 0, where y^(2 lam) is not smooth
    space = LambdaSpace(lam)
    for f, x, r in ((constant_one(), 400.0, 1e-3), (constant_one(), 0.1, 3.0),
                    (indicator(1.0), 0.1, 0.5)):
        for q in (1.0, 1.5, 2.0):
            avg = interval_q_averages(space, f, x, r, q)
            assert abs(float(avg) - 1.0) <= 1e-14, (f, x, r, q)


def test_lp_norm_indicator(space1):
    f = indicator(1.0)
    # ||chi||_p^p = integral_0^1 y^2 dy = 1/3
    assert lp_norm(space1, f, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert lp_norm(space1, f, 2.0) == pytest.approx(
        math.sqrt(1.0 / 3.0), rel=1e-10)
    s = LambdaSpace(0.3)
    assert lp_norm(s, f, 1.0) == pytest.approx(1.0 / 1.6, rel=1e-8)


def test_lp_norm_against_adaptive_quadrature(space1):
    f = smooth_bump(2.0, 0.8)
    for p in (1.0, 2.0, 3.0):
        want = quad_ref(lambda y: abs(f(y)) ** p * y ** 2, 1.2, 2.8,
                        epsabs=1e-13)[0] ** (1.0 / p)
        assert lp_norm(space1, f, p) == pytest.approx(want, rel=1e-7)


def test_lp_norm_divergent_tail(space1):
    assert lp_norm(space1, constant_one(), 1.0) == math.inf


def test_lp_norm_weighted(space1):
    f = indicator(1.0)
    w = PowerWeight(1.0)
    # integral_0^1 y^2 * y dy = 1/4
    assert lp_norm(space1, f, 1.0, weight=w) == pytest.approx(0.25, rel=1e-10)


@pytest.mark.parametrize("lam", [0.3, 1.5])
def test_row_norms_are_norms_of_their_own(lam):
    # one lp_norms call over many rows on a grid gives each row the bits of
    # lp_norm of that row as an operator output on the grid (held on the
    # left, zero on the right); a row with first value 0 starts at the grid,
    # and one whose hold tail diverges against the weight is inf
    space = LambdaSpace(lam)
    grid = np.geomspace(1e-3, 1e3, 9)
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(6, grid.size))
    rows[1, 0] = 0.0
    rows[2] = 0.0
    rows[3] = np.abs(rows[3])
    diverge = PowerWeight(-(space.weight_exponent + 1.2))
    for weight in (None, PowerWeight(0.7), diverge):
        for p in (1.0, 1.5, 2.0):
            got = lp_norms(space, grid, rows, p, weight)
            want = [lp_norm(space, _on_grid(grid, row), p, weight)
                    for row in rows]
            assert got.tolist() == want, (weight, p)
            if weight is None:
                # the one-f path of interval integrals over each support
                assert got.tolist() == [
                    interval_q_integrals(space, _on_grid(grid, row), [0.0],
                                         [math.inf], p)[0] ** (1.0 / p)
                    for row in rows]
            if weight is diverge:
                assert np.isinf(got).tolist() == [True, False, False, True,
                                                  True, True]
    assert lp_norms(space, grid, rows, math.inf).tolist() == [
        lp_norm(space, _on_grid(grid, row), math.inf) for row in rows]


def test_power_weight_ap_bounds(space1):
    w = PowerWeight(0.0)
    lo, hi = w.ap_bounds(space1, 2.0)
    assert (lo, hi) == (-3.0, 3.0)
    assert PowerWeight(2.9).in_ap(space1, 2.0)
    assert not PowerWeight(3.0).in_ap(space1, 2.0)   # boundary excluded
    assert not PowerWeight(-3.0).in_ap(space1, 2.0)
    with pytest.raises(ValueError):
        w.ap_bounds(space1, 1.0)


def test_oscillation_and_bmo(space1):
    c = constant_one()
    assert bmo_norm(space1, c, [1.0], [3.0]) == pytest.approx(0.0, abs=1e-13)
    fam = dyadic_family()
    assert bmo_norm(space1, c, *fam) == pytest.approx(0.0, abs=1e-13)
    f = smoothed_step(1.0, 0.2)
    assert bmo_norm(space1, f, *fam) > 0.1
    with pytest.raises(ValueError):
        bmo_norm(space1, f, [], [])


def _mean_oscillation_oracle(f, a, b, p):
    """scipy quad of (1/m(I)) integral_I |f - f_I| y^p dy over I = (a, b),
    split at f's grid and breakpoints and at the zeros of f - f_I; pieces
    starting at 0 take the algebraic weight y^p."""
    kinks = np.union1d(f.grid, np.asarray(f.breakpoints, dtype=float))

    m = (b ** (p + 1.0) - a ** (p + 1.0)) / (p + 1.0)

    def integral(g, pts):
        edges = [a, *sorted(t for t in set(pts) if a < t < b), b]
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            if lo == 0.0:
                total += quad_ref(g, lo, hi, weight="alg", wvar=(p, 0.0),
                                  epsabs=1e-17 * m, epsrel=1e-13, limit=200)[0]
            else:
                total += quad_ref(lambda y: g(y) * y ** p, lo, hi,
                                  epsabs=1e-17 * m, epsrel=1e-13, limit=200)[0]
        return total

    c = integral(lambda y: float(f(y)), kinks) / m
    # zeros of f - c: sign changes on a fine sampling, refined by brentq
    ys = np.union1d(np.linspace(a, b, 4001), kinks[(kinks > a) & (kinks < b)])
    d = f(ys) - c
    zeros = [brentq(lambda y: float(f(y)) - c, ys[i], ys[i + 1], xtol=1e-300,
                    rtol=1e-15)
             for i in np.flatnonzero(d[:-1] * d[1:] < 0.0)]
    return integral(lambda y: abs(float(f(y)) - c),
                    np.concatenate([kinks, zeros])) / m


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_mean_oscillation_against_quad(lam):
    # (1/m(I)) integral_I |f - f_I| dm through bmo_norm on one-interval
    # families: intervals inside, across and wholly outside the support,
    # some starting at 0.  Sampled f and the indicator are exact to
    # rounding; on smooth_bump the kink of |f - f_I| falls inside a Gauss
    # cell
    space = LambdaSpace(lam)
    p = space.weight_exponent
    grid = np.geomspace(0.05, 3.0, 12)
    cases = (
        (SampledFunction(grid, np.cos(2.0 * grid), left="hold",
                         right="zero"),
         ((0.2, 0.9), (2.0, 4.5), (3.5, 6.0), (0.0, 1.3), (0.0, 5.0)), 1e-14),
        (SampledFunction(grid, np.cos(2.0 * grid), left="zero",
                         right="hold"),
         ((0.0, 0.04), (0.01, 0.5), (0.0, 2.0), (2.5, 5.0)), 1e-14),
        (smoothed_step(1.0, 0.2),
         ((0.0, 0.5), (0.5, 1.1), (0.9, 2.0), (1.5, 3.0), (0.0, 2.0)), 1e-14),
        (indicator(1.0, 1.3),
         ((0.0, 0.5), (0.5, 1.5), (1.5, 2.5), (0.0, 3.0), (0.2, 0.9)), 1e-14),
        (smooth_bump(1.5, 0.6),
         ((1.0, 2.0), (0.5, 1.5), (0.0, 0.4), (2.5, 4.0), (0.0, 3.0),
          (1.4, 1.6)), 2e-6),
    )
    for f, ends, tol in cases:
        singles = []
        for a, b in ends:
            got = bmo_norm(space, f, [a], [b])
            want = _mean_oscillation_oracle(f, a, b, p)
            assert abs(got - want) <= tol, (f, (a, b), got, want)
            singles.append(got)
        # one batch over the family is the max of the single intervals
        left, right = np.array(ends).T
        assert bmo_norm(space, f, left, right) == max(singles)


def test_dyadic_family_size():
    left, right = dyadic_family((-2, 2), (-1, 1))
    # (k over 5 positions) x (m over 3 sizes) minus none: 15 intervals
    assert left.size == right.size == 15
    assert np.all(left >= 0.0) and np.all(right > left)


def test_comparability_two_sided(space1, rng):
    # m(I(x, r)) is comparable to x^(2 lam) r + r^(2 lam + 1), both ways,
    # uniformly over three decades of (x, r).  For lambda = 1 and u = x/r
    # the ratio is (1 + u)^3 / (3 (1 + u^2)) in [1/3, 4/3] for u <= 1 and
    # (2 u^2 + 2/3) / (u^2 + 1) in (4/3, 2) for u > 1
    x = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 400))
    r = np.exp(rng.uniform(np.log(1e-3), np.log(1e1), 400))
    ratios = interval_masses(space1, x, r) / (x ** 2 * r + r ** 3)
    assert 1.0 / 3.0 - 1e-14 <= ratios.min() <= ratios.max() <= 2.0
    # both ends of the range are approached
    assert ratios.min() < 0.4 and ratios.max() > 1.9
