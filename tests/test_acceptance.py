"""Acceptance suite: eleven numbered checks, each printing the measured
quantity next to its tolerance.

The slow entries (the uniform-L2 sweep and the log-growth fits) run the
same code paths as the CLI experiments and take a few minutes combined.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from besseldt.functions import (SampledFunction, bump_mixture, constant_one,
                                gaussian, indicator, smooth_bump)
from besseldt.hankel import (gaussian_fixed_point_defect, involution_defect,
                             plancherel_defect)
from besseldt.kernel import (apply_at, closed_form_lambda1, kernel_mass,
                             kernel_values, poisson_apply)
from besseldt.lacunary import LacunarySetup, geometric, refine, remap_window
from besseldt.measure import LambdaSpace
from besseldt.quadrature import QuadratureSpec
from besseldt.transform import (IndexWindow, SemigroupTable, TruncationLevel,
                                apply_transform, apply_transform_kernel_route,
                                convergence_probe, cotlar_check,
                                maximal_transform, maximal_transform_brute,
                                tail_sum_bound_ratio, window_kernel_bounds)
from besseldt.lab import parse_config, run_log_growth, run_uniform_l2

SPACE1 = LambdaSpace(1.0)
QUAD = QuadratureSpec()


def alternating(j_min, j_max):
    return np.power(-1.0, np.arange(j_min, j_max))


def test_criterion_01_closed_form_lambda1():
    rng = np.random.default_rng(2024)
    n = 1000
    lo, hi = np.log(1e-2), np.log(1e2)
    t = np.exp(rng.uniform(lo, hi, n))
    x = np.exp(rng.uniform(lo, hi, n))
    y = np.exp(rng.uniform(lo, hi, n))
    start = time.perf_counter()
    worst = 0.0
    for i in range(n):
        got = float(kernel_values(SPACE1, t[i], x[i], y[i]))
        want = float(closed_form_lambda1(t[i], x[i], y[i]))
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst rel err {worst:.3e} (tol 1e-10), "
          f"{elapsed:.2f}s over {n} triples (limit 5s)")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_unit_mass():
    start = time.perf_counter()
    worst = 0.0
    grid = np.geomspace(0.1, 10.0, 10)
    for lam in (0.3, 1.0, 2.5):
        space = LambdaSpace(lam)
        for t in grid:
            for x in grid:
                mass, _ = kernel_mass(space, float(t), float(x), QUAD)
                worst = max(worst, abs(mass - 1.0))
    elapsed = time.perf_counter() - start
    print(f"criterion 2: worst |mass - 1| {worst:.3e} (tol 1e-6), "
          f"{elapsed:.1f}s over 300 (lambda, t, x) (limit 30s)")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_03_semigroup_law():
    f = gaussian(1.0, 0.5)
    sup_f = float(np.max(np.abs(f.values)))
    pts = np.geomspace(0.05, 10.0, 10)
    # P_t f truncated at 60: the composed tail contributes ~t/60^4 << tol
    g_grid = np.geomspace(1e-3, 60.0, 256)
    worst = 0.0
    for t_inner in (0.5, 1.0, 2.0):
        g = poisson_apply(SPACE1, f, t_inner, g_grid, QUAD)
        for s in (0.5, 1.0, 2.0):
            composed = apply_at(SPACE1, g, s, pts, QUAD)[0]
            direct = apply_at(SPACE1, f, s + t_inner, pts, QUAD)[0]
            worst = max(worst, float(np.max(np.abs(composed - direct))))
    print(f"criterion 3: sup |P_s P_t f - P_(s+t) f| = {worst:.3e} "
          f"(tol {1e-5 * sup_f:.1e})")
    assert worst <= 1e-5 * sup_f


def test_criterion_04_hankel_checks():
    fixed = gaussian_fixed_point_defect(SPACE1, np.geomspace(1e-2, 10.0, 16),
                                        QUAD)
    f_grid = np.geomspace(1e-4, 12.0, 256)
    f_inv = SampledFunction.from_callable(
        lambda x: np.asarray(x, dtype=float) ** 2
        * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2),
        f_grid, breakpoints=(0.5, 1.0, 2.0, 4.0, 8.0))
    inv = involution_defect(SPACE1, f_inv, np.geomspace(1e-2, 10.0, 12),
                            10.0, 256, QUAD)
    f_mix = bump_mixture(np.random.default_rng(0), span=(1e-1, 1e1))
    lhs, rhs, _ = plancherel_defect(SPACE1, f_mix, 300.0, 2048, QUAD)
    ratio_err = abs(lhs / rhs - 1.0)
    print(f"criterion 4: fixed point {fixed:.3e} (tol 1e-8), involution "
          f"{inv:.3e} (tol 1e-6), plancherel |ratio - 1| {ratio_err:.3e} "
          f"(tol 1e-4)")
    assert fixed <= 1e-8
    assert inv <= 1e-6
    assert ratio_err <= 1e-4


def test_criterion_05_dual_route():
    rng = np.random.default_rng(7)
    setup = geometric(2.0, -5, 5, v=alternating(-5, 5))
    pts = np.geomspace(0.3, 4.0, 4)
    worst = 0.0
    for _ in range(20):
        f = bump_mixture(rng, span=(0.2, 5.0))
        length = int(rng.integers(1, 5))
        n1 = int(rng.integers(-5, 5 - length))
        win = IndexWindow(n1, n1 + length)
        summed = apply_transform(SPACE1, setup, win, f, pts, QUAD)
        kernel_route = apply_transform_kernel_route(SPACE1, setup, win, f,
                                                    pts, QUAD)
        scale = max(float(np.max(np.abs(summed.values))), 1e-6)
        worst = max(worst, float(np.max(np.abs(summed.values
                                               - kernel_route))) / scale)
    print(f"criterion 5: worst dual-route rel disagreement {worst:.3e} "
          f"(tol 1e-8) over 20 (f, window) pairs")
    assert worst <= 1e-8


def test_criterion_06_algebraic_identities():
    grid = np.geomspace(0.05, 20.0, 24)
    f = smooth_bump(1.0, 0.5)

    # telescoping for v = 1
    setup1 = geometric(2.0, -4, 4)
    tn = apply_transform(SPACE1, setup1, IndexWindow(-3, 2), f, grid, QUAD)
    hi = apply_at(SPACE1, f, setup1.a_at(3), grid, QUAD)[0]
    lo = apply_at(SPACE1, f, setup1.a_at(-3), grid, QUAD)[0]
    scale = float(np.max(np.abs(tn.values)))
    tele = float(np.max(np.abs(tn.values - (hi - lo)))) / scale

    # T_N of a constant vanishes
    setup_a = geometric(2.0, -3, 3, v=alternating(-3, 3))
    t_one = apply_transform(SPACE1, setup_a, IndexWindow(-2, 1),
                            constant_one(), grid, QUAD)
    const = float(np.max(np.abs(t_one.values)))

    # window additivity
    setup_b = geometric(2.0, -4, 4, v=alternating(-4, 4))
    whole = apply_transform(SPACE1, setup_b, IndexWindow(-3, 3), f, grid,
                            QUAD)
    left = apply_transform(SPACE1, setup_b, IndexWindow(-3, 0), f, grid,
                           QUAD)
    right = apply_transform(SPACE1, setup_b, IndexWindow(1, 3), f, grid,
                            QUAD)
    add = float(np.max(np.abs(whole.values - (left.values + right.values)))
                / np.max(np.abs(whole.values)))

    # refinement leaves the transform unchanged
    rng = np.random.default_rng(5)
    rough = LacunarySetup(np.array([1.0, 2.0, 8.0, 64.0]),
                          rng.normal(size=3), 2.0)
    refined, index_map = refine(rough)
    m1, m2 = remap_window(index_map, 0, 2)
    orig = apply_transform(SPACE1, rough, IndexWindow(0, 2), f, grid, QUAD)
    ref = apply_transform(SPACE1, refined, IndexWindow(m1, m2), f, grid,
                          QUAD)
    refn = float(np.max(np.abs(ref.values - orig.values))
                 / np.max(np.abs(orig.values)))

    print(f"criterion 6: telescoping {tele:.2e}, T_N const {const:.2e}, "
          f"additivity {add:.2e} (tol 1e-13); refinement {refn:.2e} "
          f"(tol 1e-12)")
    assert tele <= 1e-13
    assert const <= 1e-13
    assert add <= 1e-13
    assert refn <= 1e-12


def test_criterion_07_maximal_prefix_pass():
    rng = np.random.default_rng(11)
    grid = np.geomspace(0.05, 20.0, 16)
    for trial in range(20):
        M = int(rng.integers(1, 7))
        v = rng.choice([-1.0, 1.0], size=16)
        setup = geometric(2.0, -8, 8, v=v)
        f = bump_mixture(rng, span=(0.2, 5.0))
        cap = TruncationLevel(M)
        table = SemigroupTable(SPACE1, setup, f, grid, QUAD)
        fast = maximal_transform(table, cap)
        brute = maximal_transform_brute(table, cap)
        assert np.array_equal(fast, brute), \
            f"trial {trial}: M={M}"
    print("criterion 7: prefix pass == brute enumeration exactly, "
          "20 random inputs, M in 1..6")


def _scale_sweep(rng, n):
    """(x, y) with |x - y| log-uniform in [0.25, 4] and x/|x-y| log-uniform
    in [0.05, 50], so both kernel-bound regimes are hit at every scale the
    windows below can reach."""
    d = np.exp(rng.uniform(np.log(0.25), np.log(4.0), n))
    s = np.exp(rng.uniform(np.log(0.05), np.log(50.0), n))
    x = s * d
    side = rng.choice([-1.0, 1.0], size=n)
    y = x + np.where(x - d <= 0, 1.0, side) * d
    return np.column_stack([x, y])


def test_criterion_08_uniformity_checks():
    # (a) L2 ratios over random functions/windows: finite, no growth trend
    cfg = parse_config("experiment = uniform-l2\n")
    res = run_uniform_l2(cfg)
    max_ratio = res.summary["max_ratio"]
    spearman = res.summary["spearman"]
    assert math.isfinite(max_ratio)
    assert spearman < 0.3
    assert not res.contract_failures

    # (b) fitted kernel-bound constants barely move across random windows
    rng = np.random.default_rng(0)
    setup = geometric(2.0, -10, 10, v=rng.choice([-1.0, 1.0], size=20))
    sweep = _scale_sweep(rng, 120)
    sizes, grads = [], []
    for _ in range(5):
        win = IndexWindow(int(rng.integers(-10, -5)),
                          int(rng.integers(6, 10)))
        rep = window_kernel_bounds(SPACE1, setup, win, sweep)
        sizes.append(rep.sup_size)
        grads.append(rep.sup_gradient)
    size_spread = (max(sizes) - min(sizes)) / max(sizes)
    grad_spread = (max(grads) - min(grads)) / max(grads)
    assert size_spread <= 0.25
    assert grad_spread <= 0.25

    # (c) Cotlar sup ratio stable under the truncation cap; one f object
    # for every cap, so the caps share one table and one M_q f
    setup_c = geometric(2.0, -17, 17, v=alternating(-17, 17))
    f_c = indicator(1.0)
    sups = []
    for M in (4, 8, 16):
        rep = cotlar_check(SPACE1, setup_c, TruncationLevel(M), f_c, 2.0,
                           np.geomspace(1e-2, 1e2, 48), QUAD)
        sups.append(rep.sup_ratio)
    cot_spread = (max(sups) - min(sups)) / max(sups)
    assert cot_spread <= 0.25

    print(f"criterion 8: max L2 ratio {max_ratio:.3f}, spearman "
          f"{spearman:.3f} (< 0.3); window-constant spreads "
          f"{size_spread:.1%}/{grad_spread:.1%} (<= 25%); cotlar sups "
          f"{[f'{s:.3f}' for s in sups]} spread {cot_spread:.1%} (<= 25%)")


def test_criterion_09_tail_bound_constants():
    """Fitted constants of the tail-sum bound against k - m.

    The bound's decay rate equals the true asymptotic rate, so the fitted
    constants approach their plateau from below (the transient dies like
    rho^(-2(k-m))) and literal monotone decrease is not what the geometry
    produces.  Non-growth is therefore checked as stabilization: past the
    transient (k - m >= 3) consecutive constants may grow at most 5% per
    step, and the plateau must not exceed the early-regime maximum by more
    than 5%.  Common random numbers across k keep the sweep noise out of
    the comparison.
    """
    rng = np.random.default_rng(42)
    n = 80
    setup = geometric(2.0, -10, 10, v=alternating(-10, 10))
    frac = rng.uniform(0.05, 0.95, n)
    s = np.exp(rng.uniform(np.log(0.05), np.log(50.0), n))
    side = rng.choice([-1.0, 1.0], size=n)
    consts = []
    for k in range(1, 7):
        a_k, a_k1 = setup.a_at(k), setup.a_at(k + 1)
        d = a_k + frac * (a_k1 - a_k)
        x = s * a_k
        y = x + np.where(x - d <= 0, 1.0, side) * d
        rep = tail_sum_bound_ratio(SPACE1, setup, 0, k, -10,
                                   np.column_stack([x, y]))
        assert rep.n_rejected == 0
        consts.append(rep.sup_ratio)
    consts = np.array(consts)
    print("criterion 9: fitted constants for k - m = 1..6: "
          + ", ".join(f"{c:.4f}" for c in consts))
    assert np.all(np.isfinite(consts))
    # stabilization past the transient
    for i in range(3, 6):
        assert consts[i] <= 1.05 * consts[i - 1], \
            f"constant still growing at k - m = {i + 1}"
    assert consts[3:].max() <= 1.05 * consts[:3].max()


def test_criterion_10_log_growth_slopes():
    start = time.perf_counter()
    cfg_l1 = parse_config("experiment = loggrowth\nv = decay:1.5\np = 1\n")
    res_l1 = run_log_growth(cfg_l1)
    cfg_inf = parse_config("experiment = loggrowth\nv = alternating\n"
                           "p = inf\n")
    res_inf = run_log_growth(cfg_inf)
    elapsed = time.perf_counter() - start
    s1, s2 = res_l1.summary["slope"], res_inf.summary["slope"]
    print(f"criterion 10: slope {s1:.4f} (summable v, bound 0.15), "
          f"{s2:.4f} (alternating v, bound 1.15), {elapsed:.0f}s "
          f"(limit 300s)")
    assert res_l1.summary["n_stabilized"] >= 2
    assert res_inf.summary["n_stabilized"] >= 2
    assert s1 <= 0.15
    assert s2 <= 1.15
    assert not res_l1.contract_failures
    assert not res_inf.contract_failures
    assert elapsed < 300.0


def test_criterion_11_convergence_probe():
    setup = geometric(2.0, -7, 7, v=alternating(-7, 7))
    rep = convergence_probe(SPACE1, setup, smooth_bump(1.0, 0.5),
                            np.geomspace(0.2, 5.0, 8), (2, 4, 6), QUAD)
    print(f"criterion 11: sup diffs {rep.sup_diffs}, tail bounds "
          f"{rep.tail_bounds}, ratios {rep.ratios}")
    assert np.all(np.diff(rep.sup_diffs) < 0)
    assert np.all(rep.ratios <= 1.0)
    assert np.all(rep.ratios >= 0.0)
