"""Lacunary time sequences and their regularizing refinement.

A sequence {a_j} is rho-lacunary when a_{j+1}/a_j >= rho > 1.  Windowed sums
of semigroup differences are insensitive to inserting intermediate times:
splitting a difference P_{a_{j+1}} - P_{a_j} into consecutive sub-differences
with the same weight regroups the sum without changing its value.  The
refinement below inserts a_j * rho^m between neighbours whose ratio exceeds
rho^2, producing a sequence whose consecutive ratios all lie in [rho, rho^2]
("regular"); several tail estimates need that two-sided control.

Index conventions: `a` stores values for true indices j_min .. j_min+len(a)-1;
`v` is pair-indexed (v_at(j) weights the difference at (a_j, a_{j+1})), so it
has one entry fewer than `a`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_RATIO_SLACK = 1e-12


@dataclass(frozen=True)
class LacunarySetup:
    a: np.ndarray
    v: np.ndarray
    rho: float
    j_min: int = 0

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "v", v)
        if a.ndim != 1 or a.size < 2:
            raise ValueError("need at least two sequence values")
        if not np.all(a > 0) or not np.all(np.diff(a) > 0):
            raise ValueError("sequence must be positive and strictly increasing")
        if not self.rho > 1.0:
            raise ValueError("rho must exceed 1")
        if v.shape != (a.size - 1,):
            raise ValueError("v must have one entry per consecutive pair")
        if not np.all(np.isfinite(v)):
            raise ValueError("v must be finite")

    @property
    def j_max(self) -> int:
        return self.j_min + self.a.size - 1

    def a_at(self, j: int) -> float:
        if not self.j_min <= j <= self.j_max:
            raise IndexError(f"index {j} outside [{self.j_min}, {self.j_max}]")
        return float(self.a[j - self.j_min])

    def v_at(self, j: int) -> float:
        if not self.j_min <= j <= self.j_max - 1:
            raise IndexError(f"pair index {j} outside "
                             f"[{self.j_min}, {self.j_max - 1}]")
        return float(self.v[j - self.j_min])


def is_lacunary(setup: LacunarySetup):
    """(flag, worst ratio): flag is true when every consecutive ratio
    reaches rho (up to 1e-12 relative slack for float-built sequences)."""
    ratios = setup.a[1:] / setup.a[:-1]
    worst = float(ratios.min())
    return worst >= setup.rho * (1.0 - _RATIO_SLACK), worst


def is_regular(setup: LacunarySetup):
    """(flag, (min ratio, max ratio)): ratios within [rho, rho^2]."""
    ratios = setup.a[1:] / setup.a[:-1]
    lo, hi = float(ratios.min()), float(ratios.max())
    ok = (lo >= setup.rho * (1.0 - _RATIO_SLACK)
          and hi <= setup.rho ** 2 * (1.0 + _RATIO_SLACK))
    return ok, (lo, hi)


def refine(setup: LacunarySetup):
    """Insert a_j * rho^m between neighbours with ratio > rho^2.

    Returns (refined setup, index_map), index_map taking each original pair
    j to the range of the refined pair indices carrying it.  The refined
    setup is regular, keeps every original value, rho and j_min, and
    reproduces the original windowed sums: each block of refined
    differences telescopes back to one original difference with the same
    weight.  Ratios exactly equal to rho^2 take the no-insertion branch.
    """
    ok, worst = is_lacunary(setup)
    if not ok:
        raise ValueError(f"not {setup.rho}-lacunary: worst ratio {worst}")
    rho, rho2 = setup.rho, setup.rho ** 2 * (1.0 + _RATIO_SLACK)
    a, v = [], []
    index_map = {}
    next_pair = setup.j_min
    for i in range(setup.a.size - 1):
        lo, hi = setup.a[i], setup.a[i + 1]
        a.append(lo)
        m = 1
        while hi / (lo * rho ** (m - 1)) > rho2:
            a.append(lo * rho ** m)
            m += 1
        # m refined pairs cover [a_i, a_{i+1})
        v.extend([setup.v[i]] * m)
        index_map[setup.j_min + i] = range(next_pair, next_pair + m)
        next_pair += m
    a.append(setup.a[-1])
    return (LacunarySetup(np.asarray(a), np.asarray(v), setup.rho,
                          setup.j_min), index_map)


def remap_window(index_map: dict, n1: int, n2: int):
    """Refined window (m1, m2), from the index_map of refine, with refined
    a_{m1} = a_{n1} and refined a_{m2+1} = a_{n2+1}, so the windowed sums
    coincide term-block by term-block."""
    if n2 < n1:
        raise ValueError("need n1 <= n2")
    if n1 not in index_map or n2 not in index_map:
        raise IndexError("window outside the refined range")
    return index_map[n1].start, index_map[n2].stop - 1


def geometric(rho: float, j_min: int, j_max: int, v=None) -> LacunarySetup:
    """a_j = rho^j for j in [j_min, j_max]; v defaults to all ones."""
    if j_max <= j_min:
        raise ValueError("need j_max > j_min")
    js = np.arange(j_min, j_max + 1, dtype=float)
    if v is None:
        v = np.ones(j_max - j_min)
    return LacunarySetup(np.power(rho, js), np.asarray(v, dtype=float),
                         rho, j_min)
