import numpy as np
import pytest

from besseldt.lacunary import (LacunarySetup, geometric, is_lacunary,
                               is_regular, refine, remap_window)


def test_setup_validation():
    with pytest.raises(ValueError):
        LacunarySetup(np.array([2.0, 1.0]), np.array([1.0]), 2.0)
    with pytest.raises(ValueError):
        LacunarySetup(np.array([-1.0, 1.0]), np.array([1.0]), 2.0)
    with pytest.raises(ValueError):
        LacunarySetup(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 2.0)
    with pytest.raises(ValueError):
        LacunarySetup(np.array([1.0, 2.0]), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        LacunarySetup(np.array([1.0]), np.array([]), 2.0)


def test_index_accessors():
    s = LacunarySetup(np.array([1.0, 2.0, 4.0]), np.array([5.0, 7.0]), 2.0,
                      j_min=-1)
    assert s.j_max == 1
    assert s.a_at(-1) == 1.0 and s.a_at(1) == 4.0
    assert s.v_at(0) == 7.0
    with pytest.raises(IndexError):
        s.a_at(2)
    with pytest.raises(IndexError):
        s.v_at(1)   # pair index range stops one short of j_max


def test_is_lacunary_examples():
    s = LacunarySetup(np.array([1.0, 2.0, 4.0, 8.0]), np.ones(3), 2.0)
    flag, worst = is_lacunary(s)
    assert flag and worst == pytest.approx(2.0)

    s2 = LacunarySetup(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(3), 2.0)
    flag2, worst2 = is_lacunary(s2)
    assert not flag2 and worst2 == pytest.approx(4.0 / 3.0)

    s3 = LacunarySetup(np.array([1.0, 10.0]), np.ones(1), 2.0)
    flag3, worst3 = is_lacunary(s3)
    assert flag3 and worst3 == pytest.approx(10.0)


def test_is_regular():
    ok, (lo, hi) = is_regular(geometric(2.0, 0, 4))
    assert ok and lo == pytest.approx(2.0) and hi == pytest.approx(2.0)
    ok2, (_, hi2) = is_regular(LacunarySetup(np.array([1.0, 10.0]),
                                             np.ones(1), 2.0))
    assert not ok2 and hi2 == pytest.approx(10.0)


def test_refine_inserts_geometric_intermediates():
    s = LacunarySetup(np.array([1.0, 10.0]), np.array([1.0]), 2.0)
    r = refine(s)
    assert np.allclose(r.eta, [1.0, 2.0, 4.0, 10.0])
    assert np.array_equal(r.omega, [1.0, 1.0, 1.0])
    assert r.index_map[0] == range(0, 3)
    ok, (lo, hi) = is_regular(r.as_setup())
    assert ok and lo >= 2.0 - 1e-12 and hi <= 4.0 + 1e-12


def test_refine_no_insertion_when_regular():
    s = LacunarySetup(np.array([1.0, 2.0, 4.0]), np.array([3.0, -1.0]), 2.0)
    r = refine(s)
    assert np.array_equal(r.eta, s.a)
    assert np.array_equal(r.omega, s.v)


def test_refine_tie_case_no_insertion():
    # ratio exactly rho^2 stays as is
    s = LacunarySetup(np.array([1.0, 4.0]), np.array([1.0]), 2.0)
    r = refine(s)
    assert np.array_equal(r.eta, [1.0, 4.0])


def test_refine_idempotent(rng):
    ratios = np.exp(rng.uniform(np.log(2.0), np.log(20.0), 6))
    a = np.cumprod(np.concatenate([[0.1], ratios]))
    v = rng.normal(size=a.size - 1)
    s = LacunarySetup(a, v, 2.0)
    r = refine(s)
    again = refine(r.as_setup())
    assert np.array_equal(again.eta, r.eta)
    assert np.array_equal(again.omega, r.omega)


def test_refine_preserves_weight_sup(rng):
    for _ in range(5):
        ratios = np.exp(rng.uniform(np.log(1.5), np.log(12.0), 5))
        a = np.cumprod(np.concatenate([[1.0], ratios]))
        v = rng.normal(size=5)
        s = LacunarySetup(a, v, 1.5)
        r = refine(s)
        assert np.max(np.abs(r.omega)) == np.max(np.abs(v))
        # every original value survives
        assert all(any(np.isclose(e, x, rtol=1e-14) for e in r.eta) for x in a)


def test_refine_rejects_non_lacunary():
    s = LacunarySetup(np.array([1.0, 1.5, 3.0]), np.ones(2), 2.0)
    with pytest.raises(ValueError):
        refine(s)


def test_remap_window():
    s = LacunarySetup(np.array([1.0, 10.0]), np.array([1.0]), 2.0)
    r = refine(s)
    assert remap_window(r, 0, 0) == (0, 2)

    ident = refine(geometric(2.0, -2, 3))
    assert remap_window(ident, -1, 2) == (-1, 2)

    with pytest.raises(IndexError):
        remap_window(r, 0, 1)
    with pytest.raises(ValueError):
        remap_window(r, 1, 0)


def test_remap_window_nested(rng):
    ratios = np.exp(rng.uniform(np.log(2.0), np.log(30.0), 8))
    a = np.cumprod(np.concatenate([[0.05], ratios]))
    s = LacunarySetup(a, rng.normal(size=8), 2.0, j_min=-3)
    r = refine(s)
    inner = remap_window(r, -1, 2)
    outer = remap_window(r, -2, 3)
    assert outer[0] <= inner[0] and inner[1] <= outer[1]
    # boundary equalities: eta at the remapped edges equals a at the originals
    rs = r.as_setup()
    assert rs.a_at(inner[0]) == s.a_at(-1)
    assert rs.a_at(inner[1] + 1) == s.a_at(3)


def test_geometric_builder():
    s = geometric(3.0, -2, 2)
    assert s.a_at(-2) == pytest.approx(3.0 ** -2)
    assert s.a_at(2) == pytest.approx(9.0)
    assert np.array_equal(s.v, np.ones(4))
    with pytest.raises(ValueError):
        geometric(2.0, 3, 3)
