import math

import numpy as np
import pytest
from scipy.special import jv

import besseldt.hankel as hankel_mod
from besseldt import piecewise
from besseldt.errors import NumericsError, QuadratureError, TailEstimateError
from besseldt.functions import (SampledFunction, constant_one, gaussian,
                                smooth_bump)
from besseldt.hankel import (_period_layouts, gaussian_fixed_point_defect,
                             hankel_transform, involution_defect,
                             normalized_bessel, plancherel_defect,
                             spectral_poisson_apply)
from besseldt.kernel import apply_at
from besseldt.measure import LambdaSpace
from besseldt.quadrature import jacobi_rule, legendre_rule

from conftest import assert_budget_boundary, rel_err


def test_normalized_bessel_against_scipy():
    # z^-nu J_nu(z) from moderate to large arguments
    z = np.geomspace(1e-3, 60.0, 400)
    for nu in (0.5, 1.2, 3.0):
        got = normalized_bessel(nu, z)
        want = jv(nu, z) / z ** nu
        # scipy's jv itself carries ~1e-13 relative noise at moderate z
        assert rel_err(got, want) < 5e-12


def _envelope_errors(nu, z):
    """|normalized_bessel(nu, z) - phi(z)| over the envelope
    min(phi(0), sqrt(2/pi) z^(-nu-1/2)) of phi, against 40-digit mpmath,
    one per z."""
    mp = pytest.importorskip("mpmath")
    got = normalized_bessel(nu, z)
    at0 = 2.0 ** -nu / math.gamma(nu + 1.0)
    errs = []
    with mp.workdps(40):
        for zi, g in zip(z, got):
            if zi == 0.0:
                want, env = mp.mpf(at0), at0
            else:
                want = mp.besselj(nu, zi) / mp.mpf(zi) ** nu
                env = min(at0, float(mp.sqrt(2 / mp.pi)
                                     * mp.mpf(zi) ** (-nu - 0.5)))
            errs.append(float(abs(g - want)) / env)
    return np.array(errs)


def test_normalized_bessel_against_mpmath():
    # from z = 0 into the oscillatory range up to the 20,000 of the
    # Plancherel row, with arguments on both sides of the crossovers of the
    # scipy routes that fill the table: z = 1 for the spherical_jn route of
    # half-integer orders, z = 512 for the others; and at the table's cap,
    # above which those routes serve directly
    cap = hankel_mod._TABLE_CAP
    crossings = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                 np.nextafter(512.0, 0.0), 512.0, np.nextafter(512.0, 1e3),
                 1.0 - 1e-6, 1.0 + 1e-6, 512.0 - 1e-3, 512.0 + 1e-3,
                 np.nextafter(cap, 0.0), cap, np.nextafter(cap, 2.0 * cap)]
    z = np.concatenate([[0.0], np.geomspace(1e-300, 1e-3, 40),
                        np.geomspace(1e-3, 4000.0, 200),
                        np.geomspace(4000.0, 20000.0, 40)[1:], crossings])
    for nu in (0.0, 0.25, 0.5, 0.75, 1.2, 1.5, 3.0, 3.5, 6.5, 20.5, 40.5):
        errs = _envelope_errors(nu, z)
        assert np.all(errs <= 1e-13), (nu, z[np.argmax(errs)])


def test_bessel_table_grown_in_steps_is_built_in_one(monkeypatch):
    # a piece's coefficients are a fixed-order sum over its own nodes, so
    # they do not depend on how many pieces were built with it
    for nu in (0.0, 0.75, 1.5):
        monkeypatch.setattr(hankel_mod, "_PHI_TABLES", {})
        normalized_bessel(nu, [100.0])
        normalized_bessel(nu, [3000.0])
        steps = hankel_mod._PHI_TABLES[nu]
        monkeypatch.setattr(hankel_mod, "_PHI_TABLES", {})
        normalized_bessel(nu, [3000.0])
        once = hankel_mod._PHI_TABLES[nu]
        assert steps.shape == once.shape == (piecewise.TERMS, 2048)
        assert np.array_equal(steps, once)


def test_bessel_table_is_bounded(monkeypatch):
    # arguments at and above the cap go through the scipy routes and do not
    # grow the table; just below it the table stops at 2^14 pieces (2 MB)
    monkeypatch.setattr(hankel_mod, "_PHI_TABLES", {})
    cap = hankel_mod._TABLE_CAP
    far = np.array([cap, np.nextafter(cap, 2.0 * cap), 4e4, 1e6, 1e12])
    for nu in (0.0, 0.75, 3.5):
        got = normalized_bessel(nu, far)
        assert np.array_equal(got, hankel_mod._phi_scipy(nu, far))
        assert hankel_mod._PHI_TABLES[nu].shape[1] == 256
        normalized_bessel(nu, np.append(far, np.nextafter(cap, 0.0)))
        table = hankel_mod._PHI_TABLES[nu]
        assert table.shape[1] == 2 ** 14
        assert table.nbytes <= 2 * 2 ** 20


def test_bessel_value_does_not_depend_on_table_growth(monkeypatch):
    # a value is the same before and after the table grew, alone or among
    # arguments that make it grow
    monkeypatch.setattr(hankel_mod, "_PHI_TABLES", {})
    z = np.concatenate([[0.0, 1e-9], np.geomspace(1e-3, 511.0, 300)])
    for nu in (0.0, 0.75, 1.5, 40.5):
        before = normalized_bessel(nu, z)
        grown = normalized_bessel(nu, np.append(z, 30000.0))
        assert hankel_mod._PHI_TABLES[nu].shape[1] == 2 ** 14
        assert np.array_equal(normalized_bessel(nu, z), before)
        assert np.array_equal(grown[:-1], before)


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


def test_gaussian_fixed_point_at_lambda_one_half():
    # the Gaussian's support starts at 0, so the piece below its grid is
    # integrated too (dropping [0, 1e-6] cost 5e-13 here)
    pts = np.geomspace(0.05, 6.0, 12)
    assert gaussian_fixed_point_defect(LambdaSpace(0.5), pts) < 1e-14


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


@pytest.mark.parametrize("lam", [0.5, 1.25, 3.5])
def test_spectral_route_reads_only_closures_and_support_ends(
        monkeypatch, lam):
    # H f and exp(-t y) H f are built on their two support ends: the values
    # are those of the 192-point sampling with a clip at y_max that the
    # route had, at fewer Bessel points (the 192 samples of each go)
    space = LambdaSpace(lam)
    f = smooth_bump(2.0, 1.0)
    t, pts = 1.0, np.array([0.8, 1.9])
    points = []
    real = hankel_mod.normalized_bessel

    def counted(nu, z):
        points.append(np.size(z))
        return real(nu, z)

    monkeypatch.setattr(hankel_mod, "normalized_bessel", counted)
    got = spectral_poisson_apply(space, f, t, pts).values
    now = sum(points)
    points.clear()
    y_max = 40.0 / t
    y_grid = np.geomspace(y_max * 1e-5, y_max, 192)
    hf = hankel_transform(space, f, y_grid)
    damped = SampledFunction.from_callable(
        lambda ys: np.exp(-t * np.clip(ys, None, y_max)) * hf(ys), y_grid,
        left="hold")
    want = hankel_transform(space, damped, pts,
                            extra_freq=f.support()[1] + 0.5 * t).values
    assert np.array_equal(got, want)
    assert now < sum(points)


def test_normalized_bessel_at_the_largest_order():
    # nu = 40.5 (lambda = 41) is the largest order accepted, and 40.25 is a
    # neighbour off the half-integers.  jv still builds the table above
    # z = 512 there, and it is within only 3e-13 of the envelope at these
    # orders (at z of several hundred), above the 1e-13 it keeps up to
    # nu = 6.5
    z = np.concatenate([[0.0, 1e-300, 1e-7], np.geomspace(1e-3, 4000.0, 120)])
    for nu in (40.5, 40.25):
        errs = _envelope_errors(nu, z)
        assert np.all(errs <= 5e-13), (nu, z[np.argmax(errs)])


def test_normalized_bessel_rejects_orders_outside_the_validated_range():
    # orders above NU_MAX are not checked against mpmath
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


def _random_layout_case(rng, lo_zero):
    lo = 0.0 if lo_zero else float(rng.uniform(1e-5, 0.5))
    hi = lo + float(rng.uniform(0.2, 20.0))
    bps = rng.uniform(lo - 1.0, hi + 1.0, size=int(rng.integers(0, 10)))
    if not lo_zero:  # breakpoints in the doubling range above lo
        bps = np.append(bps, lo * 2.0 ** rng.integers(1, 8, size=2))
    freqs = np.exp(rng.uniform(-6.0, 6.0, size=int(rng.integers(1, 30))))
    return lo, hi, bps, freqs


def _per_frequency(layouts, freqs):
    """(freq, nodes, weights) per frequency of a _period_layouts call."""
    nodes, weights, counts = layouts
    assert counts.size == len(freqs)
    ends = np.cumsum(counts)
    assert ends[-1] == nodes.size == weights.size
    for freq, end, count in zip(freqs, ends, counts):
        yield freq, nodes[end - count:end], weights[end - count:end]


@pytest.mark.parametrize("lo_zero", [True, False])
def test_osc_layouts_match_per_frequency_loop(lo_zero):
    # a first panel at 0 takes numpy's array power where the loop takes
    # float ** float, so its weights may differ in the last bit of the
    # power, at most 2 ulp after the product
    rng = np.random.default_rng(11 + lo_zero)
    for _ in range(60):
        lo, hi, bps, freqs = _random_layout_case(rng, lo_zero)
        n = int(rng.choice([4, 8, 16]))
        expo = float(rng.choice([0.2, 1.2, 2.0, 3.7, 7.0]))
        for freq, nodes, weights in _per_frequency(
                _period_layouts(lo, hi, freqs, bps, n, expo), freqs):
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
        for freq, nodes, _ in _per_frequency(
                _period_layouts(lo, hi, freqs, bps, 8, 2.0), freqs):
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
        lambda: [_period_layouts(0.0, 3.0, (2.0, 40.0, 80.0), (1.0, 2.0), 16,
                                 2.0)], 3)
    # a closure's bands share one layout call: an over-budget call names
    # its highest band, and no band is summed before it raises
    f, ys = smooth_bump(2.0, 1.0), np.array([0.5, 50.0])
    lo, hi = f.support()
    monkeypatch.setattr(hankel_mod, "MAX_HANKEL_PANELS", 10 ** 6)
    top = _period_layouts(lo, hi, ys[1:], f.quad_breakpoints(), 16,
                          2.0)[2][0] // 16
    assert top > 4
    monkeypatch.setattr(hankel_mod, "MAX_HANKEL_PANELS", 4)
    summed = []
    monkeypatch.setattr(hankel_mod, "normalized_bessel",
                        lambda nu, z: summed.append(z))
    with pytest.raises(QuadratureError,
                       match=f"needs {top} panels, above the budget of 4"):
        hankel_transform(LambdaSpace(1.0), f, ys)
    assert not summed


@pytest.mark.parametrize("lo_zero", [True, False])
def test_osc_layouts_of_many_frequencies_are_their_own(lo_zero):
    # each frequency's slice of a many-frequency call is its one-frequency
    # call, bit for bit
    rng = np.random.default_rng(17 + lo_zero)
    for _ in range(40):
        lo, hi, bps, freqs = _random_layout_case(rng, lo_zero)
        n = int(rng.choice([4, 8, 16]))
        expo = float(rng.choice([0.2, 1.2, 2.0, 3.7, 7.0]))
        for freq, nodes, weights in _per_frequency(
                _period_layouts(lo, hi, freqs, bps, n, expo), freqs):
            one_nodes, one_weights, one_count = _period_layouts(
                lo, hi, freq, bps, n, expo)
            assert np.array_equal(one_count, [nodes.size])
            assert np.array_equal(nodes, one_nodes)
            assert np.array_equal(weights, one_weights)


def _x2_gaussian():
    return SampledFunction.from_callable(
        lambda x: np.asarray(x, dtype=float) ** 2
        * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        np.geomspace(1e-4, 12.0, 256), breakpoints=(0.5, 1.0, 2.0, 4.0, 8.0))


@pytest.mark.parametrize("lam", [0.6, 1.25, 3.5])
def test_hankel_transform_band_independence(lam):
    # a frequency's value alone (its own band), beside 1.99 y (a band laid
    # out at 1.99 y) and in a 40-point batch (laid out at whatever tops its
    # band there) differs only by the Gauss rule's error on those layouts:
    # roundoff for x^2 exp(-x^2/2), which 16 nodes resolve; for
    # smooth_bump(2, 1), whose edges they do not (up to 1.6e-9 of sup |Hf|
    # at lambda = 0.6), at most twice the error of the one-frequency layout
    # against 32 nodes on quarter-period panels
    space = LambdaSpace(lam)
    nu = lam - 0.5
    batch = np.geomspace(0.05, 300.0, 40)
    for f, resolved in ((_x2_gaussian(), True),
                        (smooth_bump(2.0, 1.0), False)):
        lo, hi = f.support()
        h = hankel_transform(space, f, batch)
        alone = np.array([h(np.array([y]))[0] for y in batch])
        beside = np.array([h(np.array([y, 1.99 * y]))[0] for y in batch])
        moved = np.max(np.abs(np.concatenate([alone, beside]) - np.tile(
            h.values, 2))) / np.max(np.abs(h.values))
        if resolved:
            assert moved <= 1e-13, lam
            continue
        ref = np.empty_like(batch)
        for k, y in enumerate(batch):
            x, w = _loop_nodes(_osc_edges_loop(lo, hi, y,
                                               f.quad_breakpoints(), 0.25),
                               32, space.weight_exponent)
            ref[k] = np.sum(w * f(x) * normalized_bessel(nu, x * y))
        rule = np.max(np.abs(alone - ref)) / np.max(np.abs(h.values))
        assert moved <= 2.0 * rule, (lam, moved, rule)


def test_hankel_transform_evaluates_f_once_per_band():
    # bands: every frequency at or below f0 = 2 pi/(hi - lo) in one, then
    # each band holds the frequencies above half of its highest, so there
    # are at most ceil(log2(max freq / f0)) + 1 of them.  Their tops at
    # least halve from band to band, so f's points add up to about twice
    # those of the top frequency alone, plus a low-band layout per band
    # (one evaluation per frequency would be 10x that here)
    base = smooth_bump(2.0, 1.0)
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return base.func(x)

    f = SampledFunction(base.grid, base.values, base.left, base.right,
                        counted, base.breakpoints)
    lo, hi = f.support()
    f0 = 2.0 * math.pi / (hi - lo)
    ys = np.geomspace(0.01, 1000.0, 200)
    h = hankel_transform(LambdaSpace(1.0), f, ys[:2])
    sizes = {}
    for name, y in (("top", ys[-1:]), ("low", ys[:1]), ("all", ys)):
        calls.clear()
        h(y)
        sizes[name] = sum(calls)
    assert 0 < len(calls) <= math.ceil(math.log2(ys[-1] / f0)) + 1
    assert sizes["all"] <= 2 * sizes["top"] + len(calls) * sizes["low"]


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
            out = []
            for y in ys:
                x, w = _loop_nodes(_osc_edges_loop(lo, hi, y, bps, periods),
                                   n, space.weight_exponent)
                out.append(np.sum(w * f(x) * normalized_bessel(nu, x * y)))
            return np.array(out)

        ref = loop_rule(0.25, 32)
        scale = np.max(np.abs(ref))
        err_half = np.max(np.abs(loop_rule(0.5, 16) - ref)) / scale
        err = np.max(np.abs(hankel_transform(space, f, ys).values - ref)
                     ) / scale
        print(f"lambda {lam} {name}: one period {err:.2e}, "
              f"half period {err_half:.2e}")
        assert err <= max(2.0 * err_half, 2e-13), name


@pytest.mark.parametrize("route", ["fixed_point", "involution", "spectral"])
def test_hankel_closure_lays_out_its_bands_in_one_call(monkeypatch, route):
    # every call of a hankel_transform closure, the nested ones included,
    # makes exactly one panel_layouts call, before it evaluates f
    log = []
    real_layouts = hankel_mod.panel_layouts
    real_from_callable = SampledFunction.from_callable

    def layouts(*args):
        log.append("layout")
        return real_layouts(*args)

    def from_callable(func, grid, *args, **kwargs):
        if func.__qualname__ == "hankel_transform.<locals>.closure":
            closure = func

            def func(ys):
                log.append("call")
                return closure(ys)
        return real_from_callable(func, grid, *args, **kwargs)

    monkeypatch.setattr(hankel_mod, "panel_layouts", layouts)
    monkeypatch.setattr(SampledFunction, "from_callable",
                        staticmethod(from_callable))
    space = LambdaSpace(1.25)
    if route == "fixed_point":
        gaussian_fixed_point_defect(space, np.geomspace(0.01, 10.0, 24))
    elif route == "involution":
        involution_defect(space, _x2_gaussian(), np.array([0.8, 1.9]), 10.0)
    else:
        spectral_poisson_apply(space, smooth_bump(2.0, 1.0), 1.0,
                               np.array([0.8, 1.9]))
    assert len(log) >= 2
    assert log == ["call", "layout"] * (len(log) // 2)


@pytest.mark.parametrize("lam", [0.6, 1.25, 3.5])
def test_hankel_transform_is_its_band_by_band_sum(lam):
    # reference: the bands laid out one by one, each by a one-frequency
    # _period_layouts call at its top, and summed top down
    space = LambdaSpace(lam)
    nu = lam - 0.5
    batch = np.geomspace(0.05, 300.0, 40)
    for f in (_x2_gaussian(), smooth_bump(2.0, 1.0)):
        lo, hi = f.support()
        bps = f.quad_breakpoints()
        f0 = 2.0 * math.pi / (hi - lo)
        order = np.argsort(batch)
        want = np.zeros_like(batch)
        stop = batch.size
        while stop > 0:
            top = batch[order[stop - 1]]
            start = 0 if top <= f0 else max(
                int(np.sum(batch <= f0)), int(np.sum(batch <= 0.5 * top)))
            x, w, _ = _period_layouts(lo, hi, top, bps, 16,
                                      space.weight_exponent)
            band = order[start:stop]
            want[band] = np.sum(normalized_bessel(
                nu, np.multiply.outer(batch[band], x)) * (w * f(x)), axis=1)
            stop = start
        assert np.array_equal(hankel_transform(space, f, batch).values, want)
