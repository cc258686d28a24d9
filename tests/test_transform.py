import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import besseldt
import besseldt.cli as cli
import besseldt.measure as measure_mod
import besseldt.transform as transform_mod
from besseldt.errors import ContractError, TailEstimateError
from besseldt.functions import (SampledFunction, bump_mixture, constant_one,
                                indicator, smooth_bump)
from besseldt.kernel import apply_at, closed_form_lambda1, kernel_values
from besseldt.lacunary import LacunarySetup, geometric, refine, remap_window
from besseldt.measure import (LambdaSpace, _interval_ends, interval_masses,
                              interval_q_integrals)
from besseldt.quadrature import QuadratureSpec, gauss_panels
from besseldt.transform import (CotlarReport, IndexWindow, SemigroupTable,
                                TruncationLevel, WindowBoundReport,
                                apply_transform, apply_transform_kernel_route,
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


def test_maximal_hl_builds_each_gauss_cell_once(space1, monkeypatch):
    # the maximal workload's M_q f: 253 of its 384 intervals meet f's
    # support, with 12,173 cells between them.  Built once each, they are
    # 488 end cells and 62 gaps between f's 64 grid points, 550 rows
    rows = []

    def counted(left, right, n, exponent):
        rows.append(left.size)
        return gauss_panels(left, right, n, exponent)

    monkeypatch.setattr(measure_mod, "gauss_panels", counted)
    maximal_hl(space1, indicator(1.07), 2.0, default_radius_grid(),
               np.geomspace(1e-2, 1e2, 6))
    assert sum(rows) <= 600
    assert max(rows) <= measure_mod._CELL_CHUNK


#: tracemalloc peaks of the maximal_hl calls below, in bytes, when each
#: interval built its own Gauss cells in blocks of about _CELL_CHUNK cells
#: (580.2-580.7 KB and 1,408.2-1,409.8 KB over three runs, numpy 2.4.6,
#: Python 3.11); sharing the cells must not cost memory
_PEAK_PER_INTERVAL_CELLS = {"indicator": 580_000, "mixture": 1_408_000}


@pytest.mark.parametrize("name", sorted(_PEAK_PER_INTERVAL_CELLS))
def test_maximal_hl_peak_memory(space1, name):
    f, n = ((indicator(1.07), 6) if name == "indicator"
            else (bump_mixture(np.random.default_rng(0)), 96))
    args = (space1, f, 2.0, default_radius_grid(), np.geomspace(1e-2, 1e2, n))
    maximal_hl(*args)   # fills the cached Gauss rules
    tracemalloc.start()
    try:
        maximal_hl(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _PEAK_PER_INTERVAL_CELLS[name]


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


def test_cotlar_check_at_lambda_one_loads_no_scipy():
    # the maximal workload's path in a fresh interpreter: the Gauss cell at
    # 0 of the indicator's q-integrals reads the literal 24-node Jacobi
    # rule, so no scipy module loads
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from besseldt.functions import indicator\n"
        "from besseldt.lacunary import geometric\n"
        "from besseldt.measure import LambdaSpace\n"
        "from besseldt.transform import TruncationLevel, cotlar_check\n"
        "setup = geometric(2.0, -6, 6, v=np.power(-1.0, np.arange(-6, 6)))\n"
        "cotlar_check(LambdaSpace(1.0), setup, TruncationLevel(4),\n"
        "             indicator(1.07), 2.0, np.geomspace(1e-2, 1e2, 6))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    # the child imports the same besseldt as this suite
    root = str(Path(besseldt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# the maximal workload's inputs: alternating weights over 2^j, j in [-17, 17)
COTLAR_GRID = np.geomspace(1e-2, 1e2, 6)


def _cotlar_setup():
    return geometric(2.0, -17, 17, v=alternating(-17, 17))


def _report_bits(rep):
    return (rep.m_cap, rep.sup_ratio.hex(), rep.ratios.shape,
            rep.ratios.tobytes(), rep.n_degenerate)


def _count_cotlar_work(monkeypatch, f):
    """Patch transform.apply_at and transform.maximal_hl to count the
    (t, x) points filled and the maximal_hl calls on f."""
    work = {"points": 0, "m_q": 0}

    def counted_apply_at(space, g, t, xs, quad):
        work["points"] += np.broadcast(t, xs).size
        return apply_at(space, g, t, xs, quad)

    def counted_maximal_hl(space, g, q, radii, pts):
        work["m_q"] += g is f
        return maximal_hl(space, g, q, radii, pts)

    monkeypatch.setattr(transform_mod, "apply_at", counted_apply_at)
    monkeypatch.setattr(transform_mod, "maximal_hl", counted_maximal_hl)
    return work


@pytest.mark.parametrize("caps", [(4, 8, 16), (16, 8, 4)])
@pytest.mark.parametrize("lam", [1.0, 1.5])
def test_cotlar_sweep_equals_fresh_calls(lam, caps):
    # a sweep of caps on one f object shares one table and one M_q f; each
    # report has the bits of a call on a fresh f object
    space, setup = LambdaSpace(lam), _cotlar_setup()
    f = indicator(1.07, 1.3)
    swept = [cotlar_check(space, setup, TruncationLevel(M), f, 2.0,
                          COTLAR_GRID) for M in caps]
    for M, rep in zip(caps, swept):
        fresh = cotlar_check(space, setup, TruncationLevel(M),
                             indicator(1.07, 1.3), 2.0, COTLAR_GRID)
        assert _report_bits(rep) == _report_bits(fresh)


def test_cotlar_sweep_fills_each_level_once(space1, monkeypatch):
    # 4, 8, 16 on a 6-point grid: levels -16..17, 34 x 6 (t, x) points in
    # all (62 x 6 with a table per call), and M_q f once (three times)
    setup, f = _cotlar_setup(), indicator(1.07, 1.3)
    work = _count_cotlar_work(monkeypatch, f)
    for M in (4, 8, 16):
        cotlar_check(space1, setup, TruncationLevel(M), f, 2.0, COTLAR_GRID)
    assert work == {"points": 34 * 6, "m_q": 1}


_ONE_ULP_OFF = COTLAR_GRID.copy()
_ONE_ULP_OFF[2] = np.nextafter(_ONE_ULP_OFF[2], np.inf)


@pytest.mark.parametrize("key, value, reused", [
    (None, None, True),
    ("space", LambdaSpace(1.0), True),         # a new but equal space
    ("eval_grid", list(COTLAR_GRID), True),    # an equal grid as a list
    ("f", indicator(1.07, 1.3), False),        # a new but equal f
    ("setup", _cotlar_setup(), False),         # a new but equal setup
    ("q", 3.0, False),
    ("quad", QuadratureSpec(y_nodes_per_panel=24), False),
    ("space", LambdaSpace(1.5), False),
    ("eval_grid", _ONE_ULP_OFF, False),
])
def test_cotlar_reuse_needs_every_key(monkeypatch, key, value, reused):
    # a second cap-4 call fills no level and skips M_q f only when f and
    # setup are the same objects and space, quad, q and grid are equal
    f = indicator(1.07, 1.3)
    args = {"space": LambdaSpace(1.0), "setup": _cotlar_setup(),
            "cap": TruncationLevel(4), "f": f, "q": 2.0,
            "eval_grid": COTLAR_GRID, "quad": QuadratureSpec()}
    cotlar_check(**args)
    if key is not None:
        args[key] = value
    work = _count_cotlar_work(monkeypatch, args["f"])
    cotlar_check(**args)
    assert work == ({"points": 0, "m_q": 0} if reused
                    else {"points": 10 * 6, "m_q": 1})


@pytest.mark.parametrize("failure", ["error", "tail"])
def test_cotlar_failed_call_keeps_no_table(space1, monkeypatch, failure):
    # a call that raises, in apply_at or at a level's tail check after
    # earlier levels were stored, empties the slot: the next call on the
    # same f computes all its levels and M_q f and matches a fresh call
    setup, f = _cotlar_setup(), indicator(1.07, 1.3)
    cotlar_check(space1, setup, TruncationLevel(4), f, 2.0, COTLAR_GRID)
    state = {"armed": True}

    def fail_once(space, g, t, xs, quad):
        vals, tails = apply_at(space, g, t, xs, quad)
        if state.pop("armed", False):
            if failure == "error":
                raise RuntimeError("apply_at failed")
            tails = tails.copy()
            tails[-1] = 1e-6
        return vals, tails

    monkeypatch.setattr(transform_mod, "apply_at", fail_once)
    with pytest.raises(RuntimeError if failure == "error"
                       else TailEstimateError):
        cotlar_check(space1, setup, TruncationLevel(8), f, 2.0, COTLAR_GRID)
    work = _count_cotlar_work(monkeypatch, f)
    rep = cotlar_check(space1, setup, TruncationLevel(8), f, 2.0,
                       COTLAR_GRID)
    assert work == {"points": 18 * 6, "m_q": 1}
    fresh = cotlar_check(space1, setup, TruncationLevel(8),
                         indicator(1.07, 1.3), 2.0, COTLAR_GRID)
    assert _report_bits(rep) == _report_bits(fresh)


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


def test_table_fills_levels_in_one_call(monkeypatch):
    # a read computes every level it lacks with one apply_at call; each
    # level and max_tail equal those of per-level apply_at calls bit for
    # bit; the held tail makes the tail bounds nonzero
    space = LambdaSpace(1.5)
    setup = geometric(2.0, -5, 5, v=np.random.default_rng(4).normal(size=10))
    knots = np.geomspace(0.1, 10.0, 20)
    f = SampledFunction(knots, 1.0 + 0.5 * np.sin(np.log(knots)),
                        left="hold", right="hold")
    calls = []

    def counted(*args):
        calls.append(args[2])
        return apply_at(*args)

    monkeypatch.setattr(transform_mod, "apply_at", counted)
    table = SemigroupTable(space, setup, f, GRID)
    table.weighted_prefixes(4)
    table.window(-5, 4)
    table.level(3)
    assert [np.ravel(t).tolist() for t in calls] == [
        [setup.a_at(j) for j in range(-4, 6)], [setup.a_at(-5)]]
    want_tail = 0.0
    for j in range(-5, 6):
        want, tails = apply_at(space, f, setup.a_at(j), GRID)
        assert np.array_equal(table.level(j), want)
        want_tail = max(want_tail, float(np.max(tails)))
    assert len(calls) == 2
    assert table.max_tail == want_tail > 0.0


def test_table_tail_failure_raises_at_its_level(space1, monkeypatch):
    # the tails of a fill are checked level by level in j order: a bound
    # above tolerance from level 1 on raises with level 1's bound, keeps
    # the levels before it and computes no level again
    setup = geometric(2.0, -3, 3)
    table = SemigroupTable(space1, setup, constant_one(), np.array([0.5, 2.0]))

    def loose_tail(space, f, t, xs, quad):
        vals, tails = apply_at(space, f, t, xs, quad)
        return vals, np.where(t >= setup.a_at(1), 1e-6 * t / setup.a_at(1),
                              tails)

    monkeypatch.setattr(transform_mod, "apply_at", loose_tail)
    with pytest.raises(TailEstimateError, match="1.000e-06"):
        table.window(-2, 2)
    assert table.max_tail == 1e-6
    monkeypatch.setattr(transform_mod, "apply_at", None)
    for j in (-2, -1, 0):
        table.level(j)
    with pytest.raises(TypeError):
        table.level(1)


@pytest.mark.parametrize("lam", [1.0, 1.5])
def test_windows_are_reads_of_their_own(monkeypatch, lam):
    # overlapping, repeated and disjoint windows from one fill: each row
    # has the bits of a fresh table's window, and a level that no window
    # needs (the gap between disjoint windows) is not computed
    space = LambdaSpace(lam)
    setup = geometric(2.0, -6, 6, v=np.random.default_rng(5).normal(size=12))
    f = bump_mixture(np.random.default_rng(6), span=(1e-1, 1e1))
    calls = []

    def counted(*args):
        calls.append(np.ravel(args[2]).tolist())
        return apply_at(*args)

    monkeypatch.setattr(transform_mod, "apply_at", counted)
    batches = ([(-4, 0), (-2, 3), (-2, 3), (-6, 5), (1, 2)],
               [(-6, -5), (3, 5), (-6, -5)])
    for wins in batches:
        calls.clear()
        table = SemigroupTable(space, setup, f, GRID)
        got = table.windows(wins)
        js = sorted({j for n1, n2 in wins for j in range(n1, n2 + 2)})
        assert calls == [[setup.a_at(j) for j in js]]
        assert got.shape == (len(wins), GRID.size)
        for row, (n1, n2) in zip(got, wins):
            fresh = SemigroupTable(space, setup, f, GRID).window(n1, n2)
            assert np.array_equal(row, fresh)
    assert sorted(table._levels) == [-6, -5, -4, 3, 4, 5, 6]
    # a second read computes no level again
    calls.clear()
    assert np.array_equal(table.windows([(3, 5)])[0], got[1])
    assert calls == []


def test_windows_raise_as_window(space1, monkeypatch):
    # a window outside the pair range, reversed or of one term raises the
    # error of window before any level is computed
    setup = geometric(2.0, -5, 5)
    table = SemigroupTable(space1, setup, smooth_bump(1.0, 0.5), GRID)
    monkeypatch.setattr(transform_mod, "apply_at", None)
    for bad, err in (((-6, 0), IndexError), ((0, 5), IndexError),
                     ((2, 1), ValueError), ((2, 2), ValueError)):
        with pytest.raises(err) as alone:
            table.window(*bad)
        with pytest.raises(err) as batched:
            table.windows([(-2, 2), bad])
        assert str(batched.value) == str(alone.value)
    with pytest.raises(ValueError, match="at least one window"):
        table.windows([])
    assert table._levels == {}


def _loose_tail_from(level_time):
    def loose_tail(space, f, t, xs, quad):
        vals, tails = apply_at(space, f, t, xs, quad)
        return vals, np.where(t >= level_time, 1e-6 * t / level_time, tails)
    return loose_tail


def test_windows_tail_failure_exits_two(space1, monkeypatch, tmp_path,
                                        capsys):
    # a level whose tail bound fails raises TailEstimateError from the one
    # fill of a batch, and uniform-l2 exits 2 with the one-line message
    setup = geometric(2.0, -3, 3)
    table = SemigroupTable(space1, setup, constant_one(), np.array([0.5, 2.0]))
    monkeypatch.setattr(transform_mod, "apply_at",
                        _loose_tail_from(setup.a_at(1)))
    with pytest.raises(TailEstimateError, match="1.000e-06"):
        table.windows([(-3, -2), (-1, 1)])
    assert table.max_tail == 1e-6
    assert sorted(table._levels) == [-3, -2, -1, 0]
    monkeypatch.setattr(transform_mod, "apply_at",
                        _loose_tail_from(geometric(2.0, -4, 4).a_at(-4)))
    cfg = tmp_path / "u.cfg"
    cfg.write_text("experiment = uniform-l2\nf_count = 1\ngrid_points = 4\n"
                   "windows = 3\nj_min = -4\nj_max = 4\n")
    out = tmp_path / "u.csv"
    code = cli.main(["uniform-l2", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("numerical failure: truncation tail ")
    assert err.count("\n") == 1
    assert not out.exists()


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
    # reversed and one-term windows, as IndexWindow rejects them
    for n1, n2 in ((2, 1), (2, 2)):
        with pytest.raises(ValueError, match="window needs n1 < n2"):
            table.window(n1, n2)


def test_apply_transform_closure_reproduces_values(space1):
    setup = geometric(2.0, -4, 4, v=alternating(-4, 4))
    tn = apply_transform(space1, setup, IndexWindow(-3, 2),
                         smooth_bump(1.0, 0.5), GRID)
    assert np.array_equal(tn(GRID), tn.values)


def _window_sum_per_level(space, setup, j_lo, j_hi, x, y, kind="p"):
    """transform._window_sum with one kernel_values call per level."""
    return deque(transform_mod._window_sums(setup, j_lo, (
        kernel_values(space, setup.a_at(j), x, y, kind)
        for j in range(j_lo, j_hi + 2))), maxlen=1).pop()


@pytest.mark.parametrize("lam", [0.6, 1.0, 3.5])
def test_window_levels_in_one_call_keep_their_bits(monkeypatch, lam):
    # the kernel is elementwise, so a window's levels evaluated in one call
    # with the times as a column are those of one call per level
    space = LambdaSpace(lam)
    setup = geometric(2.0, -6, 6, v=alternating(-6, 6))
    rng = np.random.default_rng(9)
    x = np.exp(rng.uniform(-3.0, 3.0, 200))
    y = x * np.exp(rng.uniform(-2.0, 2.0, 200))
    win = IndexWindow(-3, 3)
    for kind in ("p", "grad"):
        want = _window_sum_per_level(space, setup, -4, 2, x, y, kind)
        assert np.array_equal(
            transform_mod._window_sum(space, setup, -4, 2, x, y, kind), want)
        assert np.array_equal(
            window_kernel(space, setup, win, x, y, kind),
            _window_sum_per_level(space, setup, win.n1, win.n2, x, y, kind))
        one = window_kernel(space, setup, win, 1.1, 0.7, kind)
        assert np.shape(one) == (() if kind == "p" else (2,))
        assert np.array_equal(one, _window_sum_per_level(
            space, setup, win.n1, win.n2, 1.1, 0.7, kind))
    sweep = np.column_stack([x, y])
    got = tail_sum_bound_ratio(space, setup, 0, 2, -5, sweep)
    monkeypatch.setattr(transform_mod, "_window_sum", _window_sum_per_level)
    assert got == tail_sum_bound_ratio(space, setup, 0, 2, -5, sweep)
    assert got.n_used > 0


def _window_bounds_two_calls(space, setup, win, sweep):
    """window_kernel_bounds with K_N and its gradient from a window_kernel
    call each."""
    x, y = sweep.T
    d = np.abs(x - y)
    local = x <= 2.0 * d
    meas = interval_masses(space, x, d)
    size = np.abs(window_kernel(space, setup, win, x, y)) * meas
    grad = np.abs(window_kernel(space, setup, win, x, y, kind="grad"))
    return WindowBoundReport(float(size.max()),
                             float((grad.sum(axis=0) * meas * d).max()),
                             float(size[local].max()),
                             float(size[~local].max()), len(sweep))


@pytest.mark.parametrize("lam", [0.6, 1.0, 3.5])
def test_window_bounds_from_one_call_match_two_calls(lam):
    # K_N and its gradient rows from one windowed kernel call are those of
    # a call each, and so are the fitted constants
    space = LambdaSpace(lam)
    setup = geometric(2.0, -4, 4, v=alternating(-4, 4))
    win = IndexWindow(-3, 3)
    rng = np.random.default_rng(10)
    x = np.exp(rng.uniform(-3.0, 3.0, 200))
    y = x * np.exp(rng.uniform(-2.0, 2.0, 200))
    sweep = np.column_stack([x, y])
    both = window_kernel(space, setup, win, x, y, ("p", "grad"))
    assert np.array_equal(both, np.concatenate([
        window_kernel(space, setup, win, x, y)[None],
        window_kernel(space, setup, win, x, y, "grad")]))
    want = _window_bounds_two_calls(space, setup, win, sweep)
    assert window_kernel_bounds(space, setup, win, sweep) == want
    size_only = window_kernel_bounds(space, setup, win, sweep,
                                     gradient=False)
    assert size_only == dataclasses.replace(want, sup_gradient=None)


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
