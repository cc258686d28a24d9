import numpy as np
import pytest

from besseldt.errors import QuadratureError

from besseldt.measure import LambdaSpace
from besseldt.quadrature import QuadratureSpec


@pytest.fixture
def space1():
    return LambdaSpace(1.0)


@pytest.fixture
def quad():
    return QuadratureSpec()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = np.maximum(np.abs(want), 1e-300)
    return float(np.max(np.abs(got - want) / scale))


def assert_budget_boundary(layouts, hi):
    """layouts(max_panels) lays out points on [0, hi] with more than four
    panels at the worst one: it passes at that count and, one below it,
    raises QuadratureError naming the interval and both counts."""
    panels = np.concatenate([r[2] for r in layouts(10 ** 6)]) // 16
    worst = int(panels.max())
    assert worst > 4
    assert sum(r[2].size for r in layouts(worst)) == panels.size
    with pytest.raises(QuadratureError,
                       match=f"panel layout of \\[0, {hi}\\] needs "
                             f"{worst} panels, above the budget of "
                             f"{worst - 1}"):
        list(layouts(worst - 1))
