import math

import numpy as np
import pytest
from scipy.special import jv

from besseldt.errors import NumericsError, TailEstimateError
from besseldt.functions import SampledFunction, constant_one, smooth_bump
from besseldt.hankel import (gaussian_fixed_point_defect, hankel_transform,
                             involution_defect, normalized_bessel,
                             plancherel_defect, spectral_poisson_apply)
from besseldt.kernel import apply_at
from besseldt.measure import LambdaSpace

from conftest import rel_err


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
