import numpy as np
import pytest

from besseldt.functions import (SampledFunction, bump_mixture, constant_one,
                                gaussian, indicator, smooth_bump,
                                smoothed_step)


def test_validation():
    with pytest.raises(ValueError):
        SampledFunction(np.array([1.0, 0.5]), np.zeros(2))
    with pytest.raises(ValueError):
        SampledFunction(np.array([0.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        SampledFunction(np.array([1.0, 2.0]), np.zeros(3))
    with pytest.raises(ValueError):
        SampledFunction(np.array([1.0, 2.0]), np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        SampledFunction(np.array([1.0, 2.0]), np.zeros(2), left="mirror")


def test_interpolation_and_tails():
    f = SampledFunction(np.array([1.0, 2.0, 3.0]), np.array([0.0, 2.0, 1.0]),
                        left="zero", right="hold")
    assert f(1.5) == pytest.approx(1.0)
    assert f(0.5) == 0.0
    assert f(10.0) == 1.0
    g = SampledFunction(f.grid, f.values, left="hold", right="zero")
    assert g(0.5) == 0.0  # holds the first value, which is 0 here
    assert g(10.0) == 0.0


def test_func_backed_evaluation_masks_zero_tails():
    grid = np.linspace(1.0, 2.0, 5)
    f = SampledFunction.from_callable(lambda y: y ** 2, grid)
    assert f(1.3) == pytest.approx(1.69)      # exact, no interpolation
    assert f(0.5) == 0.0 and f(2.5) == 0.0    # outside support


def test_support():
    f = indicator(1.0)
    lo, hi = f.support()
    assert lo == 0.0 and hi == 1.0   # holds height down to 0, zero beyond b
    c = constant_one()
    assert c.support() == (0.0, np.inf)


def test_indicator_shape():
    f = indicator(2.0, height=3.0)
    assert np.max(f.values) == 3.0
    assert f(1.0) == pytest.approx(3.0)
    assert f(2.5) == 0.0


def test_smooth_bump_support_and_lipschitz():
    f = smooth_bump(2.0, 0.5, height=2.0)
    assert f(1.5) == 0.0 and f(2.5) == 0.0   # vanishes outside the bump
    assert f(1.4) == 0.0 and f(2.6) == 0.0
    assert f(2.0) == pytest.approx(2.0, rel=1e-12)
    assert f.lipschitz is not None and f.lipschitz > 0
    # declared bound actually dominates the sampled slopes
    slopes = np.abs(np.diff(f.values) / np.diff(f.grid))
    assert np.max(slopes) <= f.lipschitz * (1 + 1e-9)


def test_smoothed_step():
    f = smoothed_step(edge=1.0, ramp=0.2, height=2.0)
    assert f(0.5) == pytest.approx(2.0)
    assert f(1.5) == 0.0
    assert f.left == "hold" and f.right == "zero"
    assert f.lipschitz == pytest.approx(2.0 / 0.4)


def test_gaussian_positive():
    f = gaussian(center=0.0, width=1.0)
    assert np.all(f.values >= 0.0)
    assert np.max(f.values) <= 1.0 + 1e-12


def test_bump_mixture_seeded():
    a = bump_mixture(np.random.default_rng(5))
    b = bump_mixture(np.random.default_rng(5))
    assert np.array_equal(a.values, b.values)
    c = bump_mixture(np.random.default_rng(6))
    assert not np.array_equal(a.values, c.values)
    lo, hi = a.support()
    assert hi < np.inf and lo >= 0.0

