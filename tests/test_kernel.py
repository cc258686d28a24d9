import builtins
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as quad_ref
import scipy.special
from scipy.special import beta, hyp2f1

import besseldt.kernel as kernel_mod
from besseldt import literals
from besseldt.errors import TailEstimateError
from besseldt.functions import SampledFunction, indicator, smooth_bump
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
    assert kernel_bound_ratios(space1, good, ("i",)).n_points == 2
    for row, col, value in ((0, 0, 0.0), (1, 1, -1.0), (0, 2, np.nan)):
        sweep = good.copy()
        sweep[row, col] = value
        with pytest.raises(ValueError, match="must all be positive"):
            kernel_bound_ratios(space1, sweep, ("i",))


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
    for kind, want in (("dt", want_dt), ("grad", [want_dx, want_dy])):
        assert kernel_values(space1, t, x, y, kind) == pytest.approx(
            np.array(want), rel=1e-7)


def test_batch_kinds_match_scalar_wrappers(space1):
    t = np.array([0.5, 1.5])
    x = np.array([1.0, 2.0])
    y = np.array([0.7, 3.0])
    for kind in ("dt", "grad"):
        got = kernel_values(space1, t, x, y, kind=kind)
        # one point per column of grad's rows
        want = np.stack([kernel_values(space1, *p, kind)
                         for p in zip(t, x, y)], axis=-1)
        assert got.shape == want.shape
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
    rep = kernel_bound_ratios(space1, sweep, ("i", "ii", "iii", "iv"))
    assert rep.items == ("i", "ii", "iii", "iv")
    assert np.all(np.isfinite(rep.sup_ratio))
    assert np.all(np.array(rep.sup_ratio) > 0)
    assert rep.n_points == 40


def test_hold_tail_truncation_bound(space1):
    # a held tail is truncated where the analytic decay bound meets the
    # tolerance, and the reported tail estimate respects it
    f = SampledFunction(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                        left="hold", right="hold")
    vals, tails = apply_at(space1, f, 1e3, np.array([1.0]))
    assert tails[0] <= 1e-10
    assert vals[0] == pytest.approx(1.0, abs=1e-6)


def test_unattainable_tail_end_names_the_first_failing_time():
    # rows of times, as a table's fill passes its levels: the error names
    # the first row that fails, as a call with that row alone does
    t = np.array([[0.5], [1e300], [1e305]])
    base = np.maximum(np.array([1.0, 2.0]), t)
    messages = []
    for row in (1, 2):
        with pytest.raises(TailEstimateError) as alone:
            kernel_mod._radial_end(1.0, t[row], 1.0, base[row],
                                   QuadratureSpec())
        messages.append(str(alone.value))
    assert messages[0] != messages[1]
    with pytest.raises(TailEstimateError) as together:
        kernel_mod._radial_end(1.0, t, 1.0, base, QuadratureSpec())
    assert str(together.value) == messages[0]


def test_unit_factors_at_lambda_one_change_no_bit(monkeypatch):
    # at lambda = 1 every 2F1 but I_3's has a or b = 0 and I_1's power has
    # exponent 0: kernel_values calls no hyp2f1 for p, dt and grad, and
    # every kind keeps the bits of the formula with scipy's 2F1 and numpy's
    # A ** 0 in place, near the diagonal (kappa down to 1e-12) too
    space = LambdaSpace(1.0)
    t, x, y = oracle_points(np.random.default_rng(12), 2000,
                            np.geomspace(1e-12, 1e3, 16))
    kinds = ("p", "dt", "grad", "dtgrad")
    with monkeypatch.context() as patch:
        patch.setattr(scipy.special, "hyp2f1", None)
        got = {kind: kernel_values(space, t, x, y, kind) for kind in kinds[:3]}
    got["dtgrad"] = kernel_values(space, t, x, y, "dtgrad")
    monkeypatch.setattr(kernel_mod, "_power", lambda A, e: A ** e)
    monkeypatch.setattr(kernel_mod, "_hyp2f1", lambda a, b, c, A, B, q: (
        hyp2f1(a, b, c, (B / A) ** 2)))
    for kind in kinds:
        assert np.array_equal(got[kind], kernel_values(space, t, x, y, kind)
                              ), kind


def test_front_factors_at_lambda_one_are_scipys():
    # held as literals so that a lambda = 1 run does not import
    # scipy.special; beta(1, 1/2) rounds to 1.9999999999999998, not 2
    assert literals.BETA == {(1.0, b): float(beta(1.0, b))
                             for b in (0.5, 1.5)}
    for lam in (1.0, 1.5, 0.3):
        assert kernel_mod._fronts(lam) == tuple(
            2.0 * lam / math.pi * beta(lam, b) for b in (0.5, 1.5))


@pytest.mark.parametrize("lam", [1.0, 1.5])
def test_kernel_values_runs_no_import_per_call(monkeypatch, lam):
    # scipy.special is imported where it is first needed; once a lambda's
    # front factors and tables are made, a call of p, dt or grad runs no
    # import statement (dtgrad's I_3 at lambda = 1 reads scipy's hyp2f1)
    space = LambdaSpace(lam)
    t, x, y = (np.geomspace(0.1, 10.0, 64) * s for s in (1.0, 1.3, 0.7))
    kinds = ("p", "dt", "grad", ("p", "dt", "grad"))
    for kind in kinds:
        kernel_values(space, t, x, y, kind)
    imports = []
    real_import = builtins.__import__

    def counted(name, *args, **kwargs):
        imports.append(name)
        return real_import(name, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "__import__", counted)
        for kind in kinds:
            kernel_values(space, t, x, y, kind)
    assert imports == []


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


def _kernel_oracle(lam):
    """The points (t, x, y), kernel_values there and its largest relative
    error against mp_kernel, on 24 points and a near-diagonal sweep of
    kappa from 1 down to 1e-12."""
    rng = np.random.default_rng(int(lam * 100))
    t, x, y = oracle_points(rng, 24, np.geomspace(1.0, 1e-12, 13))
    got = kernel_values(LambdaSpace(lam), t, x, y)
    want = [mp_kernel(lam, *p) for p in zip(t, x, y)]
    return (t, x, y), got, max(abs(float((mpmath.mpf(float(g)) - w) / w))
                               for g, w in zip(got, want))


@pytest.mark.parametrize("lam", ORACLE_LAMS)
def test_kernel_against_mpmath(lam):
    points, got, err = _kernel_oracle(lam)
    assert err < 1e-12
    # the radial integrals read the same closed form
    assert np.array_equal(kernel_values(LambdaSpace(lam), *points), got)


def test_kernel_against_mpmath_at_lambda_50():
    # the top of the accepted lambda, with the bound that kernel._TABLE_C_MAX
    # states for its tables there (1.1e-10 on these points)
    assert _kernel_oracle(kernel_mod.LAM_MAX)[2] < 2.7e-10


@pytest.mark.parametrize("kind", ["p", "dtgrad"])
def test_kernel_above_lambda_50_raises(kind):
    # no 2F1 table is checked there, and scipy's hyp2f1, which served it,
    # is 3.1e-2 off at lambda = 60
    with pytest.raises(ValueError, match="checked up to lambda = 50"):
        kernel_values(LambdaSpace(60.0), 1.0, 1.0, 2.0, kind)


def _counting_hyp2f1(monkeypatch):
    """Counts of the kernel's 2F1 evaluations, (calls, points), kept by a
    wrapper of kernel._hyp2f1."""
    counts = [0, 0]
    hyp = kernel_mod._hyp2f1

    def counted(a, b, c, A, B, q):
        counts[0] += 1
        counts[1] += np.size(q)
        return hyp(a, b, c, A, B, q)

    monkeypatch.setattr(kernel_mod, "_hyp2f1", counted)
    return counts


def _i_k(lam, k, scale, A, B, q):
    """scale / B(lam, 1/2) times I_k at (A, B, q), evaluated on its own."""
    qk = q if k == 1 else q ** k
    return (scale * kernel_mod._power(A, k - lam) / qk
            * kernel_mod._hyp2f1(0.5 * (lam - (k - 1)), 0.5 * (lam - k),
                                 lam + 0.5, A, B, q))


def _j_k(lam, k, scale, A, B, q):
    """scale / ((lam + k) B(lam, 3/2)) times J_k, evaluated on its own."""
    return (scale * (B / A) * kernel_mod._power(A, k - lam) / q ** k
            * kernel_mod._hyp2f1(0.5 * (lam - (k - 2)),
                                 0.5 * (lam - (k - 1)), lam + 1.5, A, B, q))


def _counting_powers(monkeypatch):
    """Counts of the kernel's passes A ** e (e != 0), (calls, points), kept
    by a wrapper of kernel._power."""
    counts = [0, 0]
    power = kernel_mod._power

    def counted(A, e):
        if e != 0:
            counts[0] += 1
            counts[1] += np.size(A)
        return power(A, e)

    monkeypatch.setattr(kernel_mod, "_power", counted)
    return counts


def _dtgrad_reevaluating_i2(space, t, x, y):
    """dtgrad as it was first written: M_3 on the kappa < 1 mask evaluates
    I_2 there again, and J_k evaluates its own power and q^k."""
    lam = space.lam
    c = (x - y) ** 2 + t * t
    B = 2.0 * x * y
    A = c + B
    q = c * (c + 2.0 * B)
    front = 2.0 * lam / math.pi * beta(lam, 0.5)
    front_j = 2.0 * lam / math.pi * beta(lam, 1.5)
    small, large = c < B, c >= B

    def m_k(k, ik):
        out = np.empty_like(c)
        out[small] = (_i_k(lam, k - 1, front, A[small], B[small], q[small])
                      - c[small] * ik[small]) / B[small]
        out[large] = ik[large] - _j_k(lam, k, (lam + k) * front_j, A[large],
                                      B[large], q[large])
        return out

    d, other = np.stack([x - y, y - x]), np.stack([y, x])
    i2 = _i_k(lam, 2, front, A, B, q)
    g1 = 2.0 * d * i2 + 2.0 * other * m_k(2, i2)
    i3 = _i_k(lam, 3, front, A, B, q)
    g2 = 2.0 * d * i3 + 2.0 * other * m_k(3, i3)
    return -(lam + 1.0) * g1 + 2.0 * (lam + 1.0) * (lam + 2.0) * t * t * g2


@pytest.mark.parametrize("lam", [0.6, 1.0, 3.5])
def test_each_kind_evaluates_each_2f1_once(monkeypatch, lam):
    # p reads I_1; dt I_1 and I_2; grad I_2, with I_1 where kappa < 1 and
    # J_2 where kappa >= 1; dtgrad adds I_3 and J_3, and reads I_2 on
    # kappa < 1 from the I_2 it has, with the bits of evaluating it there
    space = LambdaSpace(lam)
    t, x, y = oracle_points(np.random.default_rng(13), 300,
                            np.geomspace(1e-12, 1.0, 13))
    n, n_large = t.size, int(np.count_nonzero((x - y) ** 2 + t * t
                                              >= 2.0 * x * y))
    assert 0 < n_large < n
    want = {"p": (1, n), "dt": (2, 2 * n), "grad": (3, 2 * n),
            "dtgrad": (5, 3 * n + n_large)}
    # a tuple of kinds evaluates each 2F1 once for all of them: I_1 at
    # every point for p, I_2, I_3, and J_2, J_3 where kappa >= 1
    want[("p", "dt", "grad", "dtgrad")] = (5, 3 * n + 2 * n_large)
    want[("p", "grad")] = (3, 2 * n + n_large)
    # ... and each power A^(k - lam) once, J_k reading I_k's: I_1's where
    # kappa < 1 alone for grad and dtgrad; I_1's exponent is 0 at lam = 1
    i1 = 0 if lam == 1.0 else 1
    powers = {"p": (i1, i1 * n), "dt": (i1 + 1, (i1 + 1) * n),
              "grad": (i1 + 1, i1 * (n - n_large) + n),
              "dtgrad": (i1 + 2, i1 * (n - n_large) + 2 * n),
              ("p", "dt", "grad", "dtgrad"): (i1 + 2, (i1 + 2) * n),
              ("p", "grad"): (i1 + 1, (i1 + 1) * n)}
    for kind, pinned in want.items():
        with monkeypatch.context() as patch:
            counts = _counting_hyp2f1(patch)
            passes = _counting_powers(patch)
            kernel_values(space, t, x, y, kind)
        assert tuple(counts) == pinned, kind
        assert tuple(passes) == powers[kind], kind
    assert np.array_equal(kernel_values(space, t, x, y, "dtgrad"),
                          _dtgrad_reevaluating_i2(space, t, x, y))


@pytest.mark.parametrize("lam", [0.6, 1.0, 3.5])
def test_kinds_in_one_call_keep_their_bits(lam):
    # every subset and order of the kinds, in one call, stacks the rows of
    # one call per kind bit for bit: on arrays, on scalars and on a column
    # of times against a row of points (a window's levels)
    space = LambdaSpace(lam)
    t, x, y = oracle_points(np.random.default_rng(14), 60,
                            np.geomspace(1e-12, 1.0, 7))
    levels = np.geomspace(1e-2, 1e2, 5)[:, None]
    points = ((t, x, y), (0.8, 1.3, 0.9), (1.1, 0.7, 0.7 + 1e-9),
              (levels, x, y))
    kinds = ("p", "dt", "grad", "dtgrad")
    for args in points:
        shape = np.broadcast(*args).shape
        alone = {kind: np.reshape(kernel_values(space, *args, kind),
                                  (-1, *shape)) for kind in kinds}
        for r in range(1, len(kinds) + 1):
            for combo in itertools.permutations(kinds, r):
                got = kernel_values(space, *args, combo)
                want = np.concatenate([alone[kind] for kind in combo])
                assert got.shape == want.shape, combo
                assert np.array_equal(got, want), combo
    for bad in ((), ("p", "p"), ("grad", "dt", "grad"), ("p", "dx")):
        with pytest.raises(ValueError, match="distinct"):
            kernel_values(space, t, x, y, bad)


def _bound_denominator_alone(lam, item, t, x, y):
    """An item's two-form bound from powers of its own."""
    c = (x - y) ** 2 + t * t
    xy = x * y
    if item == "i":
        return np.minimum(t / c ** (lam + 1.0), t / (xy ** lam * c))
    if item == "ii":
        return np.minimum(t / c ** (lam + 1.5), t / (xy ** lam * c ** 1.5))
    if item == "iii":
        return np.minimum(1.0 / c ** (lam + 1.0), 1.0 / (xy ** lam * c))
    return np.minimum(1.0 / c ** (lam + 1.5), 1.0 / (xy ** lam * c ** 1.5))


def _bound_ratios_item_by_item(space, sweep, items):
    """kernel_bound_ratios as it was first written: per item, a
    kernel_values call of its own and its bound's powers."""
    t, x, y = np.asarray(sweep, dtype=float).T
    near = np.abs(x - y) <= t
    sups = []
    for item in items:
        kind = {"i": "p", "ii": "grad", "iii": "dt", "iv": "dtgrad"}[item]
        num = np.abs(kernel_values(space, t, x, y, kind))
        if item == "ii":
            num = num[0]
        elif item == "iv":
            num = num.sum(axis=0)
        ratio = num / _bound_denominator_alone(space.lam, item, t, x, y)
        sups.append((float(ratio.max()), float(ratio[near].max()),
                     float(ratio[~near].max())))
    return tuple(map(tuple, zip(*sups)))


@pytest.mark.parametrize("lam", [0.6, 1.0, 3.5])
def test_bound_items_in_one_call_keep_their_bits(lam):
    # one kernel_values call and one set of powers for every item give the
    # constants of one call per item, whatever the subset and order
    space = LambdaSpace(lam)
    sweep = kernel_sweep(np.random.default_rng(15), 300)
    for items in (("i", "ii", "iii", "iv"), ("iv", "iii", "ii", "i"),
                  ("ii",), ("iii", "i"), ("iv", "ii")):
        rep = kernel_bound_ratios(space, sweep, items)
        assert rep.items == items
        assert rep.n_points == 300
        assert (rep.sup_ratio, rep.sup_near, rep.sup_far) == (
            _bound_ratios_item_by_item(space, sweep, items)), items
        for item, den in zip(items, _bound_denominator(space, items,
                                                        *sweep.T)):
            assert np.array_equal(den, _bound_denominator_alone(
                lam, item, *sweep.T)), (items, item)
    for bad in ("i", (), ("i", "i"), ("v",)):
        with pytest.raises(ValueError, match="items must be"):
            kernel_bound_ratios(space, sweep, bad)


def _table_2f1s(lam):
    """The (a, b, c) of every 2F1 that kernel_values reads from a table at
    lam."""
    params = set()
    hyp = kernel_mod._hyp2f1

    def spy(a, b, c, A, B, q):
        params.add((a, b, c))
        return hyp(a, b, c, A, B, q)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_mod, "_hyp2f1", spy)
        for kind in ("dt", "dtgrad"):
            kernel_values(LambdaSpace(lam), *oracle_points(
                np.random.default_rng(0), 20, np.array([1e-3])), kind)
    return sorted(p for p in params if not any(
        v <= 0 and float(v).is_integer() for v in p[:2]))


def _table_at(a, b, c, w):
    """2F1(a, b; c; 1 - w) through kernel._hyp2f1, with A = 1 and q = w so
    that its w = q / A^2 is the given one."""
    return kernel_mod._hyp2f1(a, b, c, np.ones_like(w), np.sqrt(1.0 - w), w)


def _w_samples(rng, coef):
    """w log-uniform in [2^-64, 1], the ends of a few pieces, w = 1 and w
    below the last piece of a table with coefficients coef."""
    depth = (coef.shape[1] - 1) // 2
    ends = [0.5, 0.375, 0.75 * 2.0 ** -8, 2.0 ** -30, 1.5 * 2.0 ** -depth,
            2.0 ** -depth]
    return np.concatenate([np.exp(rng.uniform(-64.0 * math.log(2.0), 0.0,
                                              8)),
                           ends, [1.0, 2.0 ** -depth / 3.0]])


def _mp_2f1(a, b, c, w):
    with mpmath.workdps(30):
        return np.array([float(mpmath.hyp2f1(a, b, c, 1 - mpmath.mpf(v)))
                         for v in w])


@pytest.mark.parametrize("lam", [lam for lam in ORACLE_LAMS if lam != 1.0])
def test_2f1_tables_against_mpmath(lam):
    # every non-terminating 2F1 of kernel_values, from its table: within
    # 1e-14 of 30-digit mpmath, where scipy at the rounded z = 1 - w is off
    # by up to 2.5e-11 (I_1 at lambda = 7)
    rng = np.random.default_rng(int(lam * 100) + 2)
    params = _table_2f1s(lam)
    assert len(params) == 5
    for a, b, c in params:
        w = _w_samples(rng, kernel_mod._f_table(a, b, c))
        err = np.abs(_table_at(a, b, c, w) / _mp_2f1(a, b, c, w) - 1.0)
        assert err.max() <= 1e-14, (a, b, c, w[np.argmax(err)], err.max())


def test_2f1_tables_at_lambda_20_beat_scipy():
    # large lambda: I_1's F falls by 7e3 from w = 0 to w = 1/2; the worst
    # error of a table is 1.7e-13, of the top half-octaves' interpolants,
    # and scipy at z = 1 - w is 1.2e-12 off at w = 2^-4 and up to 2.1e-10
    # elsewhere
    rng = np.random.default_rng(20)
    for a, b, c in _table_2f1s(20.0):
        w = np.concatenate([[2.0 ** -4, 0.5, 0.74],
                            _w_samples(rng, kernel_mod._f_table(a, b, c))])
        want = _mp_2f1(a, b, c, w)
        err = np.abs(_table_at(a, b, c, w) / want - 1.0)
        scipy_err = np.abs(hyp2f1(a, b, c, 1.0 - w) / want - 1.0)
        assert err.max() <= 1e-12, (a, b, c, w[np.argmax(err)], err.max())
        assert err.max() <= scipy_err.max()


def test_2f1_table_value_depends_on_w_alone(monkeypatch):
    # a value does not depend on the other arguments of its call, on the
    # order in which the tables were built, or on a build after it
    rng = np.random.default_rng(4)
    w = np.concatenate([np.exp(rng.uniform(-70.0, 0.0, 600)), [1.0]])
    params = [p for lam in (0.6, 1.5, 3.5) for p in _table_2f1s(lam)]
    builds = []
    for order in (params, params[::-1]):
        monkeypatch.setattr(kernel_mod, "_F_TABLES", {})
        values = {p: _table_at(*p, w) for p in order}
        builds.append((dict(kernel_mod._F_TABLES), values))
    (first, values), (second, again) = builds
    for p in params:
        assert np.array_equal(first[p], second[p])
        assert np.array_equal(values[p], again[p])
        alone = np.array([_table_at(*p, w[i:i + 1])[0] for i in (0, 7, 600)])
        assert np.array_equal(alone, values[p][[0, 7, 600]])
        assert np.array_equal(_table_at(*p, w[::-1]), values[p][::-1])
        assert np.array_equal(_table_at(*p, w.reshape(-1, 1))[:, 0],
                              values[p])


#: derivative kind -> per row, (order in (t, x, y), bound item whose scale
#: it is measured on)
DERIVATIVES = {"dt": (((1, 0, 0), "iii"),),
               "grad": (((0, 1, 0), "ii"), ((0, 0, 1), "ii")),
               "dtgrad": (((1, 1, 0), "iv"), ((1, 0, 1), "iv"))}


@pytest.mark.parametrize("lam", ORACLE_LAMS)
def test_kernel_derivatives_against_mpmath(lam):
    # oracle: the 50-digit kernel differentiated by mpmath at 40 digits; the
    # error is measured on the scale of the size/smoothness bound of the
    # kind, because a derivative vanishes where its sign changes
    rng = np.random.default_rng(int(lam * 100) + 1)
    t, x, y = oracle_points(rng, 8, np.geomspace(1.0, 1e-12, 7))
    space = LambdaSpace(lam)
    for kind, rows in DERIVATIVES.items():
        got = kernel_values(space, t, x, y, kind).reshape(len(rows), -1)
        for row, (order, item) in zip(got, rows):
            with mpmath.workdps(40):
                want = np.array([float(mpmath.diff(
                    lambda *v: mp_kernel(lam, *v), p, order))
                    for p in zip(t, x, y)])
            scale = _bound_denominator(space, (item,), t, x, y)[0]
            err = float(np.max(np.abs(row - want) / scale))
            assert err <= 1e-12, (kind, order, err)


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
    # the d/dy row is the d/dx row with x and y swapped, bit for bit
    for kind in ("grad", "dtgrad"):
        assert (kernel_values(s, t, x, y, kind)[1]
                == kernel_values(s, t, y, x, kind)[0])


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
