"""Piecewise polynomial tables: the Bessel table of hankel and the 2F1
tables of kernel.

A table holds, per piece, the degree-14 polynomial in u in [-1, 1] that
interpolates a function at 15 Chebyshev points of u, in power form: row k
of a (TERMS, pieces) array holds u^k's coefficients.  The caller maps its
argument to (piece, u) and builds the node values; this module turns node
values into coefficients and sums them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: coefficients per piece: degree 14 in u
TERMS = 15

#: entries per chunk of the Horner sum: on whole blocks of
#: quadrature._NODE_BLOCK entries it is memory-bound, 66 against 27 ns a
#: point
CHUNK = 8192


@functools.cache
def interpolation():
    """The Chebyshev points of the first kind rounded to multiples of
    2^-30, so that a table's nodes are exact in its own argument (2 j + 1 +
    u for the Bessel table below z = 2^22, 2^-i (7 + u) / 8 and 2^-i
    (5 + u) / 8 for the 2F1 tables); the inverse of T_k(u_i), which gives
    the Chebyshev coefficients of the interpolant at those rounded points;
    and in column k the power-series coefficients of T_k, from T_(k+1) =
    2 u T_k - T_(k-1): integers, and so exact."""
    k = np.arange(TERMS)
    u = np.round(np.cos(math.pi * (k + 0.5) / TERMS) * 2.0 ** 30
                 ) / 2.0 ** 30
    inverse = np.linalg.inv(np.polynomial.chebyshev.chebvander(u, TERMS - 1))
    powers = np.zeros((TERMS, TERMS))
    powers[0, 0] = powers[1, 1] = 1.0
    for j in range(2, TERMS):
        powers[1:, j] = 2.0 * powers[:-1, j - 1]
        powers[:, j] -= powers[:, j - 2]
    return u, inverse, powers


def fixed_sum(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """matrix @ rows as a sum over matrix's columns in a fixed order, so
    that each column of the result depends on its own column of rows only
    (a BLAS product may round differently with the batch's size)."""
    out = matrix[:, :1] * rows[0]
    for i in range(1, matrix.shape[1]):
        out += matrix[:, i:i + 1] * rows[i]
    return out


def coefficients(values: np.ndarray) -> np.ndarray:
    """The (TERMS, pieces) power-series coefficients of the interpolants of
    values, a (TERMS, pieces) array of each piece's values at the points u
    of interpolation(): Chebyshev coefficients, then power-series
    coefficients, each a fixed-order sum, so a piece depends on its own
    values only."""
    _, inverse, powers = interpolation()
    return fixed_sum(powers, fixed_sum(inverse, values))


def horner(coef: np.ndarray, x: np.ndarray, locate) -> np.ndarray:
    """The table's value at each entry of x: Horner's sum of the power
    series of its piece at its u, where locate maps a flat chunk of x to
    the arrays (piece, u).  x is taken in chunks of CHUNK entries, and each
    step gathers one coefficient row.  A piece index past the last column
    reads the last column, so a table may end in a constant.

    Horner's sum takes 3 array passes a step, where Clenshaw's sum of the
    Chebyshev series takes 4."""
    flat = x.ravel()
    out = np.empty_like(flat)
    row = np.empty(min(flat.size, CHUNK))
    for first in range(0, flat.size, CHUNK):
        piece, u = locate(flat[first:first + CHUNK])
        acc = out[first:first + CHUNK]
        r = row[:acc.size]
        # clipping is the cheapest mode of take
        coef[-1].take(piece, out=acc, mode="clip")
        for k in range(coef.shape[0] - 2, -1, -1):
            acc *= u
            acc += coef[k].take(piece, out=r, mode="clip")
    return out.reshape(x.shape)
