import math

import numpy as np
import pytest
from scipy.integrate import quad as quad_ref
from scipy.optimize import brentq

from besseldt.functions import SampledFunction, constant_one, indicator, \
    smooth_bump, smoothed_step
from besseldt.measure import (Interval, LambdaSpace, PowerWeight,
                              ap_characteristic, bmo_norm,
                              comparability_check, dyadic_family,
                              interval_q_averages, interval_q_integrals,
                              lp_norm, measure_interval, power_integral)


def test_space_validation():
    with pytest.raises(ValueError):
        LambdaSpace(0.0)
    with pytest.raises(ValueError):
        LambdaSpace(-1.0)
    s = LambdaSpace(0.75)
    assert s.weight_exponent == 1.5
    assert s.dimension == 2.5


def test_interval_canonical_form():
    iv = Interval(1.0, 3.0)          # x < r: becomes (0, 4)
    assert iv.center == iv.radius == 2.0
    assert iv.left == 0.0 and iv.right == 4.0
    iv2 = Interval(5.0, 1.0)
    assert (iv2.left, iv2.right) == (4.0, 6.0)
    assert Interval(iv2.center, 2.0 * iv2.radius).left == 3.0
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)


def test_measure_interval_closed_form(space1):
    # m(I) = integral of y^2 over the interval for lambda = 1
    iv = Interval(3.0, 1.0)
    assert measure_interval(space1, iv) == pytest.approx(
        (4.0 ** 3 - 2.0 ** 3) / 3.0, rel=1e-14)
    # interval reaching past 0 clips there
    iv0 = Interval(0.5, 2.0)
    assert measure_interval(space1, iv0) == pytest.approx(
        2.5 ** 3 / 3.0, rel=1e-14)


def test_power_integral():
    assert power_integral(1.0, 2.0, 3.0) == pytest.approx(15.0 / 4.0)
    assert power_integral(0.0, 2.0, 0.0) == pytest.approx(2.0)


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
        want = [1.3 ** q * power_integral(a, min(b, 1.0), p)
                for a, b in zip(left, right)]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        got = interval_q_integrals(space, constant_one(), left, right, q)
        want = [power_integral(a, b, p) for a, b in zip(left, right)]
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


def test_power_weight_ap_bounds(space1):
    w = PowerWeight(0.0)
    lo, hi = w.ap_bounds(space1, 2.0)
    assert (lo, hi) == (-3.0, 3.0)
    assert PowerWeight(2.9).in_ap(space1, 2.0)
    assert not PowerWeight(3.0).in_ap(space1, 2.0)   # boundary excluded
    assert not PowerWeight(-3.0).in_ap(space1, 2.0)
    with pytest.raises(ValueError):
        w.ap_bounds(space1, 1.0)


def test_ap_characteristic_growth(space1):
    # characteristic grows monotonically toward the admissible boundary
    fam = dyadic_family()
    vals = [ap_characteristic(space1, PowerWeight(d), 2.0, fam)
            for d in (0.0, 1.5, 2.5, 2.9)]
    assert all(np.isfinite(vals))
    assert vals == sorted(vals)
    assert vals[0] >= 1.0


def test_ap_and_comparability_against_per_interval_loop():
    # the array forms against one power_integral per interval, and the
    # ValueErrors of bad input
    space = LambdaSpace(0.7)
    d = space.weight_exponent
    fam = dyadic_family((-3, 3), (-3, 1))
    w, p = PowerWeight(-1.2), 2.5
    want = max(power_integral(iv.left, iv.right, d + w.delta)
               * (power_integral(iv.left, iv.right, d - w.delta / (p - 1.0))
                  / measure_interval(space, iv)) ** (p - 1.0)
               / measure_interval(space, iv) for iv in fam)
    assert ap_characteristic(space, w, p, fam) == pytest.approx(want,
                                                               rel=1e-14)
    sweep = [(0.01, 3.0), (2.0, 0.5), (40.0, 1e-3)]
    rep = comparability_check(space, iter(sweep))
    ratios = [measure_interval(space, Interval(x, r))
              / (x ** d * r + r ** space.dimension) for x, r in sweep]
    assert rep.ratio_min == pytest.approx(min(ratios), rel=1e-14)
    assert rep.ratio_max == pytest.approx(max(ratios), rel=1e-14)
    assert (rep.n_points, rep.spans_three_decades) == (3, True)
    for bad, match in (([], "nonempty"), ([(1.0, 0.0)], "positive"),
                       ([(1.0, 2.0, 3.0)], "pairs")):
        with pytest.raises(ValueError, match=match):
            comparability_check(space, bad)
    with pytest.raises(ValueError, match="nonempty"):
        ap_characteristic(space, w, p, [])
    with pytest.raises(ValueError, match="p must be"):
        ap_characteristic(space, w, 1.0, fam)
    with pytest.raises(ValueError, match=r"not integrable on Interval\("
                                         r"center=0.5, radius=0.5\)"):
        ap_characteristic(space, PowerWeight(-3.0), p,
                          [Interval(4.0, 1.0), Interval(0.5, 0.5)])


def test_oscillation_and_bmo(space1):
    c = constant_one()
    iv = Interval(2.0, 1.0)
    assert bmo_norm(space1, c, [iv]) == pytest.approx(0.0, abs=1e-13)
    fam = dyadic_family()
    assert bmo_norm(space1, c, fam) == pytest.approx(0.0, abs=1e-13)
    f = smoothed_step(1.0, 0.2)
    assert bmo_norm(space1, f, fam) > 0.1


def _mean_oscillation_oracle(f, iv, p):
    """scipy quad of (1/m(I)) integral_I |f - f_I| y^p dy, split at f's grid
    and breakpoints and at the zeros of f - f_I; pieces starting at 0 take
    the algebraic weight y^p."""
    a, b = iv.left, iv.right
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
        fam = [Interval(0.5 * (a + b), 0.5 * (b - a)) for a, b in ends]
        singles = []
        for iv in fam:
            got = bmo_norm(space, f, [iv])
            want = _mean_oscillation_oracle(f, iv, p)
            assert abs(got - want) <= tol, (f, iv, got, want)
            singles.append(got)
        # one batch over the family is the max of the single intervals
        assert bmo_norm(space, f, fam) == max(singles)


def test_dyadic_family_size():
    fam = dyadic_family((-2, 2), (-1, 1))
    # (k over 5 positions) x (m over 3 sizes) minus none: 15 intervals
    assert len(fam) == 15
    assert all(iv.radius > 0 for iv in fam)


def test_comparability_two_sided(space1, rng):
    # m(I(x, r)) is comparable to x^(2 lam) r + r^(2 lam + 1), both ways,
    # uniformly over three decades of (x, r)
    sweep = np.column_stack([
        np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 80)),
        np.exp(rng.uniform(np.log(1e-3), np.log(1e1), 80))])
    rep = comparability_check(space1, sweep)
    assert rep.spans_three_decades
    assert 0.0 < rep.ratio_min <= rep.ratio_max < math.inf
    assert rep.ratio_max / rep.ratio_min < 10.0