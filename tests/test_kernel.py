import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as quad_ref

import besseldt.kernel as kernel_mod
from besseldt.errors import TailEstimateError
from besseldt.functions import (SampledFunction, bump_mixture, constant_one,
                                indicator, smooth_bump)
from besseldt.kernel import (_bound_denominator, apply_at,
                             closed_form_lambda1,
                             kernel_bound_ratios, kernel_difference_l1,
                             kernel_mass, kernel_sweep, kernel_values,
                             poisson_apply)
from besseldt.measure import LambdaSpace
from besseldt.quadrature import QuadratureSpec

from conftest import rel_err


def test_kernel_point_validation(space1):
    # a sweep is an (n, 3) array of points (t, x, y), all positive
    good = np.array([[1.0, 1.0, 1.5], [0.1, 1.0, 3.0]])
    assert kernel_bound_ratios(space1, good, "i").n_points == 2
    for row, col, value in ((0, 0, 0.0), (1, 1, -1.0), (0, 2, np.nan)):
        sweep = good.copy()
        sweep[row, col] = value
        with pytest.raises(ValueError, match="must all be positive"):
            kernel_bound_ratios(space1, sweep, "i")


def test_closed_form_match_lambda1(space1, rng):
    t = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 60))
    x = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 60))
    y = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 60))
    got = kernel_values(space1, t, x, y)
    want = closed_form_lambda1(t, x, y)
    assert rel_err(got, want) < 1e-14


def test_kernel_symmetry():
    s = LambdaSpace(0.7)
    a = float(kernel_values(s, 0.8, 1.7, 0.4))
    b = float(kernel_values(s, 0.8, 0.4, 1.7))
    assert a == pytest.approx(b, rel=1e-12)
    assert a > 0


def test_kernel_mass_normalization():
    for lam in (0.3, 2.5):
        s = LambdaSpace(lam)
        for t, x in ((0.5, 1.0), (2.0, 0.2)):
            mass, tail = kernel_mass(s, t, x)
            assert abs(mass - 1.0) < 1e-6
            assert tail < 1e-9


def test_derivatives_match_closed_form(space1):
    # central differences of the lambda = 1 closed form
    t, x, y = 0.9, 1.4, 0.6
    h = 1e-5
    want_dt = (closed_form_lambda1(t + h, x, y)
               - closed_form_lambda1(t - h, x, y)) / (2 * h)
    want_dx = (closed_form_lambda1(t, x + h, y)
               - closed_form_lambda1(t, x - h, y)) / (2 * h)
    want_dy = (closed_form_lambda1(t, x, y + h)
               - closed_form_lambda1(t, x, y - h)) / (2 * h)
    for kind, want in (("dt", want_dt), ("dx", want_dx), ("dy", want_dy)):
        assert float(kernel_values(space1, t, x, y, kind)) == pytest.approx(
            want, rel=1e-7)


def test_batch_kinds_match_scalar_wrappers(space1):
    t = np.array([0.5, 1.5])
    x = np.array([1.0, 2.0])
    y = np.array([0.7, 3.0])
    for kind in ("dt", "dx", "dy"):
        got = kernel_values(space1, t, x, y, kind=kind)
        want = [float(kernel_values(space1, *p, kind)) for p in zip(t, x, y)]
        assert np.allclose(got, want, rtol=1e-12)


def test_kernel_values_row(space1):
    ys = np.geomspace(0.1, 10.0, 32)
    row = kernel_values(space1, 0.8, np.full_like(ys, 1.2), ys)
    want = closed_form_lambda1(0.8, 1.2, ys)
    assert rel_err(row, want) < 1e-8


def test_apply_indicator_against_quad(space1):
    # (P_t chi_(0,1))(x) for lambda = 1 via the closed-form kernel
    f = indicator(1.0)
    t, x = 0.7, 1.3
    g = poisson_apply(space1, f, t, np.array([1.0, x]))
    want = quad_ref(lambda y: closed_form_lambda1(t, x, y) * y ** 2,
                    0.0, 1.0, epsabs=1e-13)[0]
    assert g(x) == pytest.approx(want, rel=1e-9)


def test_poisson_apply_composes_exactly(space1):
    # the returned function re-evaluates through quadrature, not interpolation
    f = indicator(1.0)
    g = poisson_apply(space1, f, 0.5, np.geomspace(0.1, 5.0, 12))
    off_grid = 1.2345
    direct = quad_ref(lambda y: closed_form_lambda1(0.5, off_grid, y) * y ** 2,
                      0.0, 1.0, epsabs=1e-13)[0]
    assert float(g(off_grid)[0]) == pytest.approx(direct, rel=1e-9)


def test_kernel_difference_l1(space1):
    got = kernel_difference_l1(space1, 1.0, 2.0, 3.0)
    # regression pin for the panel route
    assert got == pytest.approx(0.4753240709044234, abs=1e-12)
    # oracle: adaptive quadrature on the closed form, split where the
    # difference changes sign; the |.| kink limits agreement to ~1e-5
    def diff(y):
        return abs(closed_form_lambda1(2.0, 3.0, y)
                   - closed_form_lambda1(1.0, 3.0, y)) * y ** 2
    want = sum(quad_ref(diff, a, b, limit=200)[0]
               for a, b in ((0.0, 2.0), (2.0, 4.0), (4.0, 30.0), (30.0, 400.0)))
    want += quad_ref(diff, 400.0, np.inf, limit=200)[0]
    assert got == pytest.approx(want, abs=2e-5)


def test_kernel_difference_l1_validation(space1):
    with pytest.raises(ValueError):
        kernel_difference_l1(space1, 2.0, 1.0, 3.0)


def test_bound_ratios_finite(space1, rng):
    sweep = kernel_sweep(rng, 40, (1e-1, 1e1), (1e-1, 1e1))
    for item in ("i", "ii", "iii", "iv"):
        rep = kernel_bound_ratios(space1, sweep, item)
        assert np.isfinite(rep.sup_ratio)
        assert rep.sup_ratio > 0
        assert rep.n_points == 40


def test_hold_tail_truncation_bound(space1):
    # a held tail is truncated where the analytic decay bound meets the
    # tolerance, and the reported tail estimate respects it
    f = SampledFunction(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                        left="hold", right="hold")
    vals, tails = apply_at(space1, f, 1e3, np.array([1.0]))
    assert tails[0] <= 1e-10
    assert vals[0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("lam", [0.3, 1.5])
def test_batched_apply_matches_single_calls(lam):
    # one layout per batch of four on the union of the breakpoints and
    # support ends; a held tail sets the radial end of its whole batch
    space = LambdaSpace(lam)
    rng = np.random.default_rng(5)
    fs = (constant_one(),
          *(bump_mixture(rng, span=(1e-1, 1e1)) for _ in range(4)))
    xs = np.geomspace(0.02, 50.0, 12)
    for t in (0.05, 0.7, 6.0):
        vals, tails = apply_at(space, fs, t, xs)
        assert vals.shape == (len(fs), xs.size)
        for row, f in zip(vals, fs):
            want, _ = apply_at(space, f, t, xs)
            assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(tails, apply_at(space, fs[0], t, xs)[1])


def test_batch_of_one_is_the_single_call(space1):
    xs = np.geomspace(0.05, 20.0, 9)
    for f in (bump_mixture(np.random.default_rng(2)), constant_one(),
              indicator(1.0)):
        vals, tails = apply_at(space1, (f,), 0.4, xs)
        want, want_tails = apply_at(space1, f, 0.4, xs)
        assert vals.shape == (1, xs.size)
        assert np.array_equal(vals[0], want)
        assert np.array_equal(tails, want_tails)


def test_six_functions_are_two_batches(space1):
    # a tuple is laid out in consecutive batches of four: its values are
    # those of its first four and its last two, and its tails their max
    rng = np.random.default_rng(6)
    fs = tuple(bump_mixture(rng, span=(1e-1, 1e1)) for _ in range(6))
    xs = np.geomspace(0.02, 50.0, 10)
    for t in (0.05, 0.7, 6.0):
        vals, tails = apply_at(space1, fs, t, xs)
        head, head_tails = apply_at(space1, fs[:4], t, xs)
        rest, rest_tails = apply_at(space1, fs[4:], t, xs)
        assert np.array_equal(vals, np.concatenate([head, rest]))
        assert np.array_equal(tails, np.maximum(head_tails, rest_tails))


# -- closed form against an independent oracle --------------------------------

def mp_kernel(lam, t, x, y):
    """P_t(x, y) from the untransformed series in cos(theta) at 50 digits (or
    the caller's precision, if higher):
    (2 lam t / pi) B(lam, 1/2) A^-(lam+1)
    * 2F1((lam+1)/2, (lam+2)/2; lam+1/2; (B/A)^2)."""
    with mpmath.workdps(max(50, mpmath.mp.dps)):
        lam, t, x, y = (mpmath.mpf(v) for v in (lam, t, x, y))
        c = (x - y) ** 2 + t * t
        B = 2 * x * y
        A = c + B
        half = mpmath.mpf(1) / 2
        return (2 * lam * t / mpmath.pi * mpmath.beta(lam, half)
                * A ** (-(lam + 1))
                * mpmath.hyp2f1((lam + 1) / 2, (lam + 2) / 2, lam + half,
                                (B / A) ** 2))


def oracle_points(rng, n, kappa):
    """n log-uniform (t, x, y), then one near-diagonal point per entry of
    kappa = c / B, with c split between (x - y)^2 and t^2."""
    t = np.exp(rng.uniform(np.log(1e-4), np.log(1e3), n))
    x = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    y = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
    xd = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), kappa.size))
    half_c = kappa * xd * xd          # kappa * B / 2 with y ~ x
    yd = xd + np.sqrt(half_c)
    td = np.sqrt(kappa * 2.0 * xd * yd - (xd - yd) ** 2)
    return (np.concatenate(p) for p in ((t, td), (x, xd), (y, yd)))


ORACLE_LAMS = [0.05, 0.3, 0.6, 1.0, 1.25, 1.5, 3.5, 7.0]


@pytest.mark.parametrize("lam", ORACLE_LAMS)
def test_kernel_against_mpmath(lam):
    rng = np.random.default_rng(int(lam * 100))
    # near-diagonal sweep: kappa from 1 down to 1e-12
    t, x, y = oracle_points(rng, 24, np.geomspace(1.0, 1e-12, 13))
    space = LambdaSpace(lam)
    got = kernel_values(space, t, x, y)
    want = [mp_kernel(lam, *p) for p in zip(t, x, y)]
    err = max(abs(float((mpmath.mpf(float(g)) - w) / w))
              for g, w in zip(got, want))
    assert err < 1e-12
    # the radial integrals read the same closed form
    assert np.array_equal(kernel_values(space, t, x, y), got)


#: derivative kind -> (order in (t, x, y), bound item whose scale it is
#: measured on)
DERIVATIVES = {"dt": ((1, 0, 0), "iii"), "dx": ((0, 1, 0), "ii"),
               "dy": ((0, 0, 1), "ii"), "dtdx": ((1, 1, 0), "iv"),
               "dtdy": ((1, 0, 1), "iv")}


@pytest.mark.parametrize("lam", ORACLE_LAMS)
def test_kernel_derivatives_against_mpmath(lam):
    # oracle: the 50-digit kernel differentiated by mpmath at 40 digits; the
    # error is measured on the scale of the size/smoothness bound of the
    # kind, because a derivative vanishes where its sign changes
    rng = np.random.default_rng(int(lam * 100) + 1)
    t, x, y = oracle_points(rng, 8, np.geomspace(1.0, 1e-12, 7))
    space = LambdaSpace(lam)
    for kind, (order, item) in DERIVATIVES.items():
        got = kernel_values(space, t, x, y, kind)
        with mpmath.workdps(40):
            want = np.array([float(mpmath.diff(
                lambda *v: mp_kernel(lam, *v), p, order))
                for p in zip(t, x, y)])
        scale = _bound_denominator(space, item, t, x, y)
        err = float(np.max(np.abs(got - want) / scale))
        assert err <= 1e-12, (kind, err)


def test_poisson_apply_closure_checks_tails(space1, monkeypatch):
    # a held tail is truncated; the closure must check the tail bounds of
    # the points it evaluates, as the sampled grid is checked
    f = SampledFunction(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                        left="hold", right="hold")
    g = poisson_apply(space1, f, 0.5, np.array([1.0, 2.0]))
    radial_end = kernel_mod._radial_end
    monkeypatch.setattr(kernel_mod, "_radial_end",
                        lambda *a: (radial_end(*a)[0], 1e-6))
    with pytest.raises(TailEstimateError, match="1.000e-06"):
        g(np.array([1.5]))


# -- properties of the closed form -------------------------------------------

lams = st.sampled_from(ORACLE_LAMS)
log_pos = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lam=lams, t=log_pos, x=log_pos, y=log_pos)
def test_kernel_symmetric(lam, t, x, y):
    s = LambdaSpace(lam)
    a = float(kernel_values(s, t, x, y))
    b = float(kernel_values(s, t, y, x))
    assert a > 0
    assert a == pytest.approx(b, rel=1e-14)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lam=lams, t=log_pos, x=log_pos, y=log_pos,
       k=st.integers(min_value=-10, max_value=10))
def test_kernel_dilation_homogeneous(lam, t, x, y, k):
    # a power-of-two dilation scales the inputs exactly, so any defect is
    # the kernel's own rounding
    s = LambdaSpace(lam)
    d = 2.0 ** k
    scaled = float(kernel_values(s, d * t, d * x, d * y))
    base = float(kernel_values(s, t, x, y))
    assert scaled == pytest.approx(
        base * math.pow(d, -(2.0 * lam + 1.0)), rel=1e-13)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(min_value=0.3, max_value=3.0),
       center=st.floats(min_value=0.5, max_value=3.0),
       frac=st.floats(min_value=0.1, max_value=0.9),
       s=st.floats(min_value=0.2, max_value=2.0),
       t=st.floats(min_value=0.2, max_value=2.0))
def test_semigroup_law_on_random_bumps(lam, center, frac, s, t):
    # P_s (P_t f) = P_(s+t) f; P_t f is evaluated through its quadrature
    # closure, so the only truncation is its grid end, whose tail is
    # about s t / 1e3^(2 lam + 3)
    space = LambdaSpace(lam)
    f = smooth_bump(center, frac * center)
    pts = np.geomspace(0.05, 10.0, 8)
    g = poisson_apply(space, f, t, np.geomspace(1e-3, 1e3, 64))
    composed = apply_at(space, g, s, pts)[0]
    direct = apply_at(space, f, s + t, pts)[0]
    assert np.max(np.abs(composed - direct)) <= 1e-6 * np.max(f.values)
