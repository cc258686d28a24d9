import math

import numpy as np
import pytest
from scipy.special import jv

import besseldt.hankel as hankel_mod
import besseldt.quadrature as quadrature_mod
from besseldt.errors import NumericsError, QuadratureError, TailEstimateError
from besseldt.functions import (SampledFunction, constant_one, gaussian,
                                smooth_bump)
from besseldt.hankel import (_period_layouts, gaussian_fixed_point_defect,
                             hankel_transform, involution_defect,
                             normalized_bessel, plancherel_defect,
                             spectral_poisson_apply)
from besseldt.kernel import apply_at
from besseldt.measure import LambdaSpace
from besseldt.quadrature import jacobi_rule, legendre_rule, panel_sums

from conftest import assert_budget_boundary, rel_err


def test_normalized_bessel_against_scipy():
    # z^-nu J_nu(z) from moderate to large arguments
    z = np.geomspace(1e-3, 60.0, 400)
    for nu in (0.5, 1.2, 3.0):
        got = normalized_bessel(nu, z)
        want = jv(nu, z) / z ** nu
        # scipy's jv itself carries ~1e-13 relative noise at moderate z
        assert rel_err(got, want) < 5e-12


def test_normalized_bessel_against_mpmath():
    # error relative to the envelope min(phi(0), sqrt(2/pi) z^(-nu-1/2)) of
    # phi, against 40-digit mpmath, from z = 0 through the tiny-z series
    # into the oscillatory range
    mp = pytest.importorskip("mpmath")
    z = np.concatenate([[0.0], np.geomspace(1e-300, 1e-3, 40),
                        np.geomspace(1e-3, 4000.0, 200)])
    with mp.workdps(40):
        for nu in (0.0, 0.25, 0.75, 1.2, 3.0, 6.5):
            got = normalized_bessel(nu, z)
            at0 = 2.0 ** -nu / math.gamma(nu + 1.0)
            for zi, g in zip(z, got):
                if zi == 0.0:
                    want, env = mp.mpf(at0), at0
                else:
                    want = mp.besselj(nu, zi) / mp.mpf(zi) ** nu
                    env = min(at0, float(mp.sqrt(2 / mp.pi)
                                         * mp.mpf(zi) ** (-nu - 0.5)))
                assert float(abs(g - want)) <= 1e-13 * env, (nu, zi)


def test_normalized_bessel_at_zero_limit():
    # z -> 0 limit is 1 / (2^nu Gamma(nu + 1))
    from scipy.special import gamma
    nu = 0.5
    got = normalized_bessel(nu, np.array([1e-12]))
    assert got[0] == pytest.approx(1.0 / (2 ** nu * gamma(nu + 1)), rel=1e-13)


def test_gaussian_fixed_point(space1):
    pts = np.geomspace(0.05, 6.0, 12)
    assert gaussian_fixed_point_defect(space1, pts) < 1e-10


def test_gaussian_fixed_point_other_lambda():
    s = LambdaSpace(0.6)
    pts = np.geomspace(0.1, 4.0, 8)
    assert gaussian_fixed_point_defect(s, pts) < 1e-10


def test_hankel_rejects_hold_tail(space1):
    with pytest.raises(ValueError):
        hankel_transform(space1, constant_one(), np.array([1.0, 2.0]))


def test_involution_roundtrip(space1):
    # analytic pair: H(x^2 e^{-x^2/2}) = (2 lam + 1 - y^2) e^{-y^2/2},
    # both sides Gaussian-decaying, so a modest y_max truncation suffices
    grid = np.geomspace(1e-4, 12.0, 256)
    f = SampledFunction.from_callable(
        lambda x: x ** 2 * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        grid, breakpoints=(0.5, 1.0, 2.0, 4.0, 8.0))
    pts = np.geomspace(0.2, 5.0, 6)
    assert involution_defect(space1, f, pts, y_max=10.0) < 1e-8


def test_involution_forward_matches_analytic(space1):
    grid = np.geomspace(1e-4, 12.0, 256)
    f = SampledFunction.from_callable(
        lambda x: x ** 2 * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        grid, breakpoints=(0.5, 1.0, 2.0, 4.0, 8.0))
    ys = np.geomspace(0.3, 4.0, 8)
    hf = hankel_transform(space1, f, ys)
    want = (2.0 * space1.lam + 1.0 - ys ** 2) * np.exp(-0.5 * ys ** 2)
    assert np.max(np.abs(hf.values - want)) < 1e-10


def test_involution_guards_tail(space1):
    # y_max inside the transform's support raises instead of silently
    # truncating
    f = smooth_bump(2.0, 1.0)
    with pytest.raises(TailEstimateError):
        involution_defect(space1, f, np.array([1.0, 2.0]), y_max=3.0)


def test_plancherel_smooth_bump(space1):
    f = smooth_bump(2.0, 1.0)
    lhs, rhs, rel = plancherel_defect(space1, f, y_max=60.0, n_y=768)
    assert lhs > 0 and rhs > 0
    assert rel < 1e-5


def test_plancherel_rejects_unresolved_n_y(space1):
    # too few frequencies: Simpson's sum of |Hf|^2 y^(2 lam) goes negative,
    # and below 16 the geometric part of the grid cannot be built
    f = smooth_bump(2.0, 1.0)
    with pytest.raises(NumericsError, match="n_y = 32"):
        plancherel_defect(space1, f, 300.0, 32)
    with pytest.raises(ValueError, match="n_y must be at least 16"):
        plancherel_defect(space1, f, 300.0, 8)


def test_spectral_route_matches_direct(space1):
    f = smooth_bump(2.0, 1.0)
    pts = np.array([0.8, 1.9, 3.2])
    via_hankel = spectral_poisson_apply(space1, f, 0.6, pts)
    direct, _ = apply_at(space1, f, 0.6, pts)
    assert np.max(np.abs(via_hankel.values - direct)) < 1e-7


def test_normalized_bessel_at_the_largest_order():
    # nu = 40.5 (lambda = 41) is the largest order accepted; scipy's jv is
    # within 3e-13 of the envelope there (at z of several hundred), above
    # the 1e-13 it keeps up to nu = 6.5
    mp = pytest.importorskip("mpmath")
    nu = 40.5
    z = np.concatenate([[0.0, 1e-300, 1e-7], np.geomspace(1e-3, 4000.0, 120)])
    got = normalized_bessel(nu, z)
    at0 = 2.0 ** -nu / math.gamma(nu + 1.0)
    with mp.workdps(40):
        for zi, g in zip(z, got):
            if zi == 0.0:
                want, env = mp.mpf(at0), at0
            else:
                want = mp.besselj(nu, zi) / mp.mpf(zi) ** nu
                env = min(at0, float(mp.sqrt(2 / mp.pi)
                                     * mp.mpf(zi) ** (-nu - 0.5)))
            assert float(abs(g - want)) <= 5e-13 * env, zi


def test_normalized_bessel_rejects_orders_outside_the_validated_range():
    # above nu ~ 42.5 jv(nu, z) / z^nu underflows to 0 or turns nan
    assert np.all(np.isfinite(normalized_bessel(40.5, [0.0, 1.0, 73.0])))
    for nu in (40.6, 42.5, 60.0, -0.1):
        with pytest.raises(ValueError, match="nu must lie in"):
            normalized_bessel(nu, [1.0])


# --------------------------------------------------------------------------
# oscillatory panel layouts

def _osc_edges_loop(lo, hi, freq, breakpoints, periods=1.0):
    """Reference for the Hankel layouts, one frequency at a time: panels at
    most `periods` oscillation periods 2 pi/freq wide (nor wider than
    hi - lo), doubling edges a 2^i in a gap [a, b] that starts below the
    cap, then np.linspace for the rest of the gap."""
    cap = periods * 2.0 * math.pi / max(freq, periods * 2.0 * math.pi
                                        / (hi - lo))
    base = sorted({lo, hi, *[float(b) for b in breakpoints if lo < b < hi]})
    edges = [lo]
    for a, b in zip(base[:-1], base[1:]):
        cur = a
        while 0.0 < cur < min(b, cap):
            cur = min(b, 2.0 * cur, cur + cap)
            edges.append(cur)
        if cur < b:
            k = max(1, math.ceil((b - cur) / cap))
            edges.extend(np.linspace(cur, b, k + 1)[1:])
    return np.array(edges)


def _loop_nodes(edges, n, exponent):
    """Reference Gauss nodes and weights of a panel list for integrals
    against x**exponent dx, one panel at a time: Gauss-Legendre with the
    power folded into the weights, Gauss-Jacobi on a first panel at 0."""
    xs, ws = legendre_rule(n)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        if a == 0.0:
            xj, wj = jacobi_rule(n, 0.0, exponent)
            nodes.append(half * (1.0 + xj))
            weights.append(wj * half ** (exponent + 1.0))
        else:
            y = a + half * (1.0 + xs)
            nodes.append(y)
            weights.append(ws * half * y ** exponent)
    return np.concatenate(nodes), np.concatenate(weights)


def _per_frequency(runs):
    """The (nodes, weights) of each frequency in runs of panel_layouts."""
    for nodes, weights, counts in runs:
        cuts = np.cumsum(counts)[:-1]
        yield from zip(np.split(nodes, cuts), np.split(weights, cuts))


def _random_layout_case(rng, lo_zero):
    lo = 0.0 if lo_zero else float(rng.uniform(1e-5, 0.5))
    hi = lo + float(rng.uniform(0.2, 20.0))
    bps = rng.uniform(lo - 1.0, hi + 1.0, size=int(rng.integers(0, 10)))
    if not lo_zero:  # breakpoints in the doubling range above lo
        bps = np.append(bps, lo * 2.0 ** rng.integers(1, 8, size=2))
    freqs = np.exp(rng.uniform(-6.0, 6.0, size=int(rng.integers(1, 30))))
    return lo, hi, bps, freqs


@pytest.mark.parametrize("lo_zero", [True, False])
@pytest.mark.parametrize("block", [1 << 21, 2000])
def test_osc_layouts_match_per_frequency_loop(monkeypatch, lo_zero, block):
    # a small node block makes the builder lay out the frequencies in runs;
    # a first panel at 0 takes numpy's array power where the loop takes
    # float ** float, so its weights may differ in the last bit of the
    # power, at most 2 ulp after the product
    monkeypatch.setattr(quadrature_mod, "_NODE_BLOCK", block)
    rng = np.random.default_rng(11 + lo_zero)
    for _ in range(60):
        lo, hi, bps, freqs = _random_layout_case(rng, lo_zero)
        n = int(rng.choice([4, 8, 16]))
        expo = float(rng.choice([0.2, 1.2, 2.0, 3.7, 7.0]))
        got = list(_per_frequency(
            _period_layouts(lo, hi, freqs, bps, n, expo)))
        assert len(got) == freqs.size
        for freq, (nodes, weights) in zip(freqs, got):
            want_nodes, want_weights = _loop_nodes(
                _osc_edges_loop(lo, hi, freq, bps), n, expo)
            assert np.array_equal(nodes, want_nodes)
            k = n if lo == 0.0 else 0
            assert np.array_equal(weights[k:], want_weights[k:])
            assert np.all(np.abs(weights[:k] - want_weights[:k])
                          <= 2.0 * np.spacing(np.abs(want_weights[:k])))


def _panel_edges_of(nodes, n, lo, exponent):
    """Panel edges and widths recovered from a layout's Gauss nodes
    (Gauss-Jacobi on a first panel at 0, Gauss-Legendre elsewhere)."""
    rows = nodes.reshape(-1, n)
    xs = np.broadcast_to(legendre_rule(n)[0], rows.shape).copy()
    if lo == 0.0:
        xs[0] = jacobi_rule(n, 0.0, exponent)[0]
    width = 2.0 * (rows[:, -1] - rows[:, 0]) / (xs[:, -1] - xs[:, 0])
    left = rows[:, 0] - 0.5 * width * (1.0 + xs[:, 0])
    return np.append(left, left[-1] + width[-1]), width


@pytest.mark.parametrize("lo_zero", [True, False])
def test_osc_layouts_one_period_panels_on_breakpoints(lo_zero):
    rng = np.random.default_rng(5)
    for _ in range(40):
        lo, hi, bps, freqs = _random_layout_case(rng, lo_zero)
        for freq, (nodes, _) in zip(freqs, _per_frequency(_period_layouts(
                lo, hi, freqs, bps, 8, 2.0))):
            edges, width = _panel_edges_of(nodes, 8, lo, 2.0)
            tol = 1e-9 * hi
            assert abs(edges[0] - lo) <= tol and abs(edges[-1] - hi) <= tol
            assert np.all(width <= 2.0 * math.pi / freq + tol)
            for b in bps[(bps > lo) & (bps < hi)]:
                assert np.min(np.abs(edges - b)) <= tol, (freq, b)


def test_osc_layouts_panel_budget(monkeypatch):
    # the Hankel route shares the budget of panel_layouts: a frequency whose
    # layout has P panels passes with MAX_HANKEL_PANELS = P and raises
    # QuadratureError (exit 2) below it, naming the interval
    assert_budget_boundary(
        monkeypatch, hankel_mod, "MAX_HANKEL_PANELS",
        lambda: _period_layouts(0.0, 3.0, [2.0, 40.0, 80.0], (1.0, 2.0), 16,
                                2.0), 3)
    monkeypatch.setattr(hankel_mod, "MAX_HANKEL_PANELS", 4)
    with pytest.raises(QuadratureError, match="above the budget of 4"):
        hankel_transform(LambdaSpace(1.0), smooth_bump(2.0, 1.0),
                         np.array([0.5, 50.0]))


@pytest.mark.parametrize("lam", [0.6, 1.0, 3.5])
def test_hankel_transform_against_refined_rule(lam):
    # against 32 nodes on quarter-period panels, the one-period rule is
    # within twice the error of the half-period rule it replaced (or at the
    # rounding floor) of sup |Hf|
    space = LambdaSpace(lam)
    nu = lam - 0.5
    ys = np.geomspace(0.05, 300.0, 32)
    fs = {"gaussian(3, 0.5)": gaussian(3.0, 0.5),
          "x^2 exp(-x^2/2)": SampledFunction.from_callable(
              lambda x: np.asarray(x, dtype=float) ** 2
              * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
              np.geomspace(1e-4, 12.0, 256),
              breakpoints=(0.5, 1.0, 2.0, 4.0, 8.0))}
    for name, f in fs.items():
        lo, hi = f.support()
        bps = f.quad_breakpoints()

        def loop_rule(periods, n):
            def runs():  # one frequency per run
                for y in ys:
                    nodes, weights = _loop_nodes(
                        _osc_edges_loop(lo, hi, y, bps, periods), n,
                        space.weight_exponent)
                    yield nodes, weights, np.array([nodes.size])
            return panel_sums(ys, runs(), lambda y, x, w: (
                w * f(x) * normalized_bessel(nu, x * y)))

        ref = loop_rule(0.25, 32)
        scale = np.max(np.abs(ref))
        err_half = np.max(np.abs(loop_rule(0.5, 16) - ref)) / scale
        err = np.max(np.abs(hankel_transform(space, f, ys).values - ref)
                     ) / scale
        print(f"lambda {lam} {name}: one period {err:.2e}, "
              f"half period {err_half:.2e}")
        assert err <= max(2.0 * err_half, 2e-13), name
