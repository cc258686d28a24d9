"""Poisson kernel of the Bessel operator -d^2/dx^2 - (2 lam / x) d/dx.

    P_t(x,y) = (2 lam t / pi) * integral_0^pi sin(th)^(2 lam - 1)
               / (x^2 + y^2 + t^2 - 2 x y cos(th))^(lam + 1) dth

The kernel and its derivatives in t, x, y are evaluated in closed form.
With c = (x-y)^2 + t^2, B = 2xy, A = c + B, z = (B/A)^2 and kappa = c/B,
differentiating under the integral sign only changes the exponent and
inserts the moment 1 - cos(th), so everything is a combination of

    I_k = integral_0^pi sin(th)^(2 lam - 1) (A - B cos th)^-(lam+k) dth
        = B(lam, 1/2) A^(k-lam) (c (c + 2B))^-k
          * 2F1((lam+1-k)/2, (lam-k)/2; lam+1/2; z)
    J_k = integral_0^pi sin(th)^(2 lam - 1) cos(th) (A - B cos th)^-(lam+k) dth
        = (lam+k) (B/A) B(lam, 3/2) A^(k-lam) (c (c + 2B))^-k
          * 2F1((lam+2-k)/2, (lam+1-k)/2; lam+3/2; z)
    M_k = integral_0^pi sin(th)^(2 lam - 1) (1 - cos th)
                        (A - B cos th)^-(lam+k) dth

Expanding in cos(th) gives a 2F1 with c-a-b = -k, and the Euler
transformation (DLMF 15.8.1) moves its (1 - z)^-k singularity at the
diagonal into the explicit factor: 1 - z = c (c + 2B) / A^2 is formed as a
product, never by subtraction, and the transformed 2F1 has c-a-b = k, so it
is finite at z = 1.  Relative accuracy holds uniformly in (t, x, y).  The
moment is M_k = (I_(k-1) - c I_k) / B where kappa < 1 and M_k = I_k - J_k
where kappa >= 1, the form that does not cancel in each regime.  Then

    P_t     = (2 lam / pi) t I_1
    dP/dt   = (2 lam / pi) (I_1 - 2 (lam+1) t^2 I_2)
    dP/dx   = -(2 lam / pi) t (lam+1) (2 (x-y) I_2 + 2y M_2)
    dP/dy   = -(2 lam / pi) t (lam+1) (2 (y-x) I_2 + 2x M_2)

I_k and M_k are symmetric in x and y, so the gradient (dP/dx, dP/dy) reads
them once and differs by row only in the factors x - y and y (kind
"grad").  The mixed gradient (d2P/dtdx, d2P/dtdy) adds the I_3, M_3 terms
of d/dt (kind "dtgrad"); M_3 reads the I_2 of M_2.

One pass per point set: kernel_values takes a tuple of kinds and reads
each A^(k - lam), q^k and 2F1 of I_k once for all of them, and J_k reads
I_k's power and q^k on its mask.  bounds-suite's four bound items and a
window's K_N and gradient are each one call.

Each of these 2F1s has (a, b, c) fixed by lam and varies only in
w = 1 - z = q / A^2, with q = c (c + 2B) as above; with c - a - b = k it
is a smooth function of w plus a w^k ln w term (DLMF 15.8.10).  So
_hyp2f1 reads it from a table per (a, b, c), built on first use in about
1 ms: degree-14 polynomials on the half-octaves of w, which np.frexp
indexes exactly, down to where the constant F(a, b; c; 1) serves
(_f_build).  Against 30-digit mpmath the tables are within 1.4e-15 at
every lam from 0.05 to 7 that the oracle tests check, where scipy's
hyp2f1 at the rounded z = 1 - w is up to 2.5e-11 off, and within 1.7e-13
at lam = 20 (scipy 2.1e-10).  Per point, on one thread of a 2-CPU Xeon
host with numpy 2.4.6 and scipy 1.17.1, a table value takes 40 ns on
blocks of thousands of points and 270 ns on 256, against 440-480 ns for
hyp2f1.  The 2F1s whose series end (a or b a non-positive integer) read
no table: I_3's at lam = 1 is 1 + a b z / c, with the bits of scipy's
hyp2f1, and every other one (at lam = 1, 2 and 3) is 1.  The tables are
checked up to c = _TABLE_C_MAX, every 2F1 of the kernel at lam <= LAM_MAX
= 50, and _f_table raises ValueError above it, so no kernel value is read
from an unchecked table (kinds p and dt read only the 2F1s of I_k, whose
c = lam + 1/2 stays checked up to lam = 51).

scipy.special is imported where it is first needed: a table build and
the front factors off lam = 1 (_fronts).  The front factors at lam = 1
come from literals and no 2F1 there reads a table, so no lam = 1 kernel
value, of any kind, imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import literals, piecewise
from .errors import TailEstimateError
from .functions import SampledFunction
from .measure import LambdaSpace
from .quadrature import QuadratureSpec, radial_sums

#: kind -> its rows in kernel_values
_KINDS = {"p": 1, "dt": 1, "grad": 2, "dtgrad": 2}


def closed_form_lambda1(t, x, y):
    """Exact kernel for lam = 1: (4t/pi) / (((x-y)^2+t^2) ((x+y)^2+t^2))."""
    t = np.asarray(t, dtype=float)
    return (4.0 * t / np.pi) / (((x - y) ** 2 + t ** 2)
                                * ((x + y) ** 2 + t ** 2))


@lru_cache(maxsize=64)
def _fronts(lam):
    """(2 lam / pi) B(lam, 1/2) and (2 lam / pi) B(lam, 3/2): the factors
    that every I_k and J_k carries, made once per lam."""
    betas = [literals.BETA.get((lam, b)) for b in (0.5, 1.5)]
    if None in betas:
        from scipy.special import beta
        betas = [beta(lam, b) for b in (0.5, 1.5)]
    return tuple(2.0 * lam / math.pi * b for b in betas)


def _i_factors(lam, k, A, B, q):
    """A^(k - lam), q^k and the 2F1 of I_k, with q = c (c + 2B): I_k is
    B(lam, 1/2) A^(k - lam) / q^k 2F1."""
    # numpy's q ** 1 is a full power pass, and the kernel (k = 1) is hot
    return (_power(A, k - lam), q if k == 1 else q ** k,
            _hyp2f1(0.5 * (lam - (k - 1)), 0.5 * (lam - k), lam + 0.5,
                    A, B, q))


def _i_k(scale, factors):
    """scale / B(lam, 1/2) times I_k from its _i_factors."""
    power, qk, f = factors
    return scale * power / qk * f


def _i_j(lam, k, scale, A, B, q, large=None, front_j=None):
    """scale / B(lam, 1/2) times I_k, and given a mask large,
    front_j / B(lam, 3/2) times J_k on it, which reads I_k's A^(k - lam)
    and q^k there (None without a mask)."""
    factors = _i_factors(lam, k, A, B, q)
    ik = _i_k(scale, factors)
    if large is None:
        return ik, None
    power, qk, _ = factors
    A, B, q = A[large], B[large], q[large]
    # a unit power (a scalar) holds on every mask
    if np.ndim(power):
        power = power[large]
    return ik, ((lam + k) * front_j * (B / A) * power / qk[large]
                * _hyp2f1(0.5 * (lam - (k - 2)), 0.5 * (lam - (k - 1)),
                          lam + 1.5, A, B, q))


def _power(A, e):
    """A ** e; exactly 1, without a pass, at e = 0."""
    return 1.0 if e == 0 else A ** e


def _hyp2f1(a, b, c, A, B, q):
    """2F1(a, b; c; z) at z = (B/A)^2, that is at w = 1 - z = q / A^2.

    Exactly 1, without a pass, when a or b is 0 (at lam = 1 for I_1, I_2,
    J_2 and J_3), as scipy returns it.  When b is -1 the series ends after
    its z term: 1 + a b z / c.  In 0 < lam <= LAM_MAX that is only I_3 at
    lam = 1, 2F1(-1/2, -1; 3/2; z), where this form has the bits of
    scipy's hyp2f1.  Any other series that ends at a non-positive integer
    raises ValueError; the kernel reads none.  Otherwise the (a, b, c)
    table in w (_f_table), which raises ValueError above _TABLE_C_MAX."""
    if a == 0 or b == 0:
        return 1.0
    if b == -1:
        return 1.0 + a * b * (B / A) ** 2 / c
    if any(v < 0 and float(v).is_integer() for v in (a, b)):
        raise ValueError(f"2F1({a:g}, {b:g}; {c:g}; z) has no closed form "
                         "here: its series ends past the z term")
    return piecewise.horner(_f_table(a, b, c), q / (A * A), _locate_w)


def _distinct(given, allowed, what):
    """given as a tuple, checked to be a nonempty tuple of distinct entries
    of allowed; a string is not one."""
    out = () if isinstance(given, str) else tuple(given)
    if not out or len(set(out)) < len(out) or not set(out) <= set(allowed):
        raise ValueError(f"{what} must be a nonempty tuple of distinct "
                         f"entries of {tuple(allowed)}, got {given!r}")
    return out


def kernel_values(space, t, x, y, kind="p"):
    """P_t(x, y) or its derivatives over broadcast arrays (t, x, y), in
    closed form (see the module docstring); kind is one of p, dt, grad,
    dtgrad, or a tuple of distinct ones.  grad stacks d/dx and d/dy, and
    dtgrad d2/dtdx and d2/dtdy, as rows 0 and 1 of an array of shape
    (2, ...).  A tuple returns its kinds' rows stacked in its order: one
    row for p and dt, two for grad and dtgrad.

    One pass per point set: the kinds of a call read one evaluation of
    each A^(k - lam), q^k and 2F1 of I_k, and J_k reads I_k's power and q^k
    on its mask.  Each kind applies its own scale in its own order, so its
    rows have the bits of a call of their own."""
    kinds = _distinct((kind,) if isinstance(kind, str) else kind, _KINDS,
                      "kind")
    lam = space.lam
    t, x, y = np.broadcast_arrays(np.asarray(t, dtype=float),
                                  np.asarray(x, dtype=float),
                                  np.asarray(y, dtype=float))
    c = (x - y) ** 2 + t * t
    B = 2.0 * x * y
    A = c + B
    q = c * (c + 2.0 * B)
    # every I_k below carries the kernel's factor, and J_k its own
    front, front_j = _fronts(lam)
    grads = "grad" in kinds or "dtgrad" in kinds
    # the regimes of M_k
    small = large = None
    if grads:
        small = c < B
        large = ~small
    # p and dt read I_1 at every point, M_2 only where kappa < 1
    every_i1 = "p" in kinds or "dt" in kinds
    at1 = ... if every_i1 else small
    f1 = _i_factors(lam, 1, A[at1], B[at1], q[at1])
    rows = {}
    if "p" in kinds:
        rows["p"] = _i_k(front * t, f1)
    if kinds != ("p",):
        i1 = _i_k(front, f1)
        i2, j2 = _i_j(lam, 2, front, A, B, q, large, front_j)
    if "dt" in kinds:
        rows["dt"] = i1 - 2.0 * (lam + 1.0) * t * t * i2
    if grads:
        def m_k(ik, below, jk):
            """(2 lam / pi) M_k from (2 lam / pi) I_k, I_(k-1) on the small
            mask and J_k on the large one."""
            out = np.empty_like(c)
            out[small] = (below - c[small] * ik[small]) / B[small]
            out[large] = ik[large] - jk
            return out

        # rows d/dx and d/dy: only these factors depend on the row
        d, other = np.stack([x - y, y - x]), np.stack([y, x])
        g1 = 2.0 * d * i2 + 2.0 * other * m_k(
            i2, i1[small] if every_i1 else i1, j2)
        if "grad" in kinds:
            rows["grad"] = -t * (lam + 1.0) * g1
    if "dtgrad" in kinds:
        i3, j3 = _i_j(lam, 3, front, A, B, q, large, front_j)
        g2 = 2.0 * d * i3 + 2.0 * other * m_k(i3, i2[small], j3)
        rows["dtgrad"] = (-(lam + 1.0) * g1
                          + 2.0 * (lam + 1.0) * (lam + 2.0) * t * t * g2)
    if isinstance(kind, str):
        return rows[kind]
    return np.concatenate([np.reshape(rows[k], (-1, *t.shape))
                           for k in kinds])


# --------------------------------------------------------------------------
# the 2F1 tables: polynomial pieces on half-octaves of w = 1 - z

#: (a, b, c) -> (piecewise.TERMS, pieces + 1) power-series coefficients of
#: 2F1(a, b; c; 1 - w) in u on the half-octaves of w (_locate_w), then the
#: constant F(a, b; c; 1) that serves below them
_F_TABLES: dict = {}

#: the largest lam of the kernel: its 2F1 tables are checked up to here
LAM_MAX = 50.0

#: the largest c of a table: every 2F1 of the kernel at lam <= LAM_MAX (c is
#: lam + 1/2 for I_k and lam + 3/2 for J_k), where the tables are checked.
#: Against 30-digit mpmath they are within 1.4e-15 at lam <= 7, 1.7e-13 at
#: lam = 20, 1.1e-11 at 35 and 2.7e-10 at 50, where scipy's hyp2f1 is off
#: by up to 2.1e-10, 4.7e-8 and 1.1e-4.  Above it F grows too fast across
#: the top half-octaves for degree 14 (2.3e-6 off at lam = 100), and scipy's
#: hyp2f1 is 3.1e-2 off at lam = 60, so no 2F1 is served there.
_TABLE_C_MAX = LAM_MAX + 1.5

#: the largest float below 1: w = q / A^2 rounds to 1, or just above it,
#: where z is below about 1e-16, and reads the top piece at this end
_W_TOP = float(np.nextafter(1.0, 0.0))

#: a node below w = 1/4 takes DLMF 15.8.10 where a bound on its terms'
#: magnitudes is at most this many times its value, so that the sum
#: cancels at most 3 bits, and the quadratic transformation's series
#: elsewhere
_CANCEL = 8.0


def _locate_w(w):
    """The half-octave piece of each w and its u, both exact: with
    w = m 2^e, m in [1/2, 1) from np.frexp, piece 2 i is [3/4, 1] 2^-i,
    where u = 8 m - 7, and piece 2 i + 1 is [1/2, 3/4] 2^-i, where
    u = 8 m - 5 (i = -e).  The piece is an intp, as take wants its index:
    frexp's int32 exponent would be converted at every take of the sum."""
    m, e = np.frexp(np.minimum(w, _W_TOP))
    lower = m < 0.75
    u = 8.0 * m - 7.0
    u += 2.0 * lower
    return lower - 2 * e.astype(np.intp), u


def _f_table(a, b, c):
    """The table of 2F1(a, b; c; 1 - w), built on first use (_f_build);
    ValueError above _TABLE_C_MAX, where no table is checked."""
    coef = _F_TABLES.get((a, b, c))
    if coef is None:
        if c > _TABLE_C_MAX:
            raise ValueError(f"2F1 table at c = {c:g} is above "
                             f"{_TABLE_C_MAX:g}: the kernel is checked up "
                             f"to lambda = {LAM_MAX:g}")
        coef = _F_TABLES[(a, b, c)] = _f_build(a, b, c)
    return coef


def _f_build(a, b, c):
    """The coefficients of the table of F = 2F1(a, b; c; 1 - w) for a
    kernel 2F1: a = b + 1/2 and c - a - b = k in {1, 2, 3}.

    The pieces are the half-octaves of w from [3/4, 1] down to
    [1, 3/2] 2^-d, with d the least depth at which |a b| w (1 + |ln w| +
    |psi_0|) <= 2^-56: below it F differs from F(a, b; c; 1) by less than
    that, relative (psi_0 is the psi sum of the first log term, below), and
    the table ends in that constant.  Each piece interpolates F at its 15
    nodes (piecewise.coefficients), so a table depends on (a, b, c) only.
    A node's value comes from one of two series, each where it cancels
    little:

    - below w = 1/4, DLMF 15.8.10: with G = Gamma(c) / (Gamma(a+k)
      Gamma(b+k)),
      F = G sum_(n<k) (k-1-n)! (a)_n (b)_n / n! (-w)^n
          - (-1)^k G (a)_k (b)_k w^k sum_n (a+k)_n (b+k)_n / (n! (n+k)!)
            w^n (ln w - psi(n+1) - psi(n+k+1) + psi(a+n+k) + psi(b+n+k)),
      where a bound on its terms' magnitudes is at most _CANCEL times F.
      At larger lambda the log sum cancels against the finite one as F
      falls away from F(a, b; c; 1): at lambda = 7 from about w = 2^-5;
    - elsewhere, the quadratic transformation of F(b, b + 1/2; c; z)
      (Abramowitz & Stegun 15.3.19): with s = sqrt(w),
      F = ((1 + s)/2)^(-2b) 2F1(2b, 1/2 - k; c; (1 - s)/(1 + s)),
      a Maclaurin series whose argument (1 - s)/(1 + s) = z/(1 + s)^2 is
      below z and below 1/3 from w = 1/4 up.

    Horner's sums of scalar coefficients, elementwise, give each node's
    value from its own w, so a build is the same on every thread count."""
    from scipy.special import beta, digamma, poch

    k = round(c - a - b)
    u = piecewise.interpolation()[0]
    g = 1.0 / (poch(c, k) * beta(a + k, b + k))
    psi0 = digamma(a + k) + digamma(b + k) - digamma(1.0) - digamma(k + 1.0)
    depth = 1
    while (abs(a * b) * 2.0 ** -depth * (1.0 + depth * math.log(2.0)
                                          + abs(psi0)) > 2.0 ** -56):
        depth += 1
    i = np.arange(depth)
    w = np.empty((piecewise.TERMS, 2 * depth))
    w[:, 0::2] = np.ldexp((7.0 + u[:, None]) / 8.0, -i)
    w[:, 1::2] = np.ldexp((5.0 + u[:, None]) / 8.0, -i)
    values = np.empty_like(w)
    dlmf = w < 0.25
    values[dlmf], cancel = _dlmf_15_8_10(a, b, g, k, w[dlmf])
    quad = ~dlmf
    quad[dlmf] = cancel > _CANCEL
    values[quad] = _quadratic_series(b, c, k, w[quad])
    const = np.zeros((piecewise.TERMS, 1))
    const[0] = math.gamma(k) * g
    return np.concatenate([piecewise.coefficients(values), const], axis=1)


def _series(coef, x):
    """sum_n coef[n] x^n by Horner's rule over a flat array x."""
    out = np.full_like(x, coef[-1])
    for cn in coef[-2::-1]:
        out *= x
        out += cn
    return out


def _terms(ratio, x_max):
    """The coefficients c_0 = 1, c_(n+1) = c_n ratio(n) of a power series,
    up to the first whose term at x_max is below 2^-60 of the sum of the
    terms' magnitudes there."""
    coef, term, size = [1.0], 1.0, 1.0
    while abs(term) > 2.0 ** -60 * size:
        coef.append(coef[-1] * ratio(len(coef) - 1))
        term *= x_max * coef[-1] / coef[-2]
        size += abs(term)
    return np.array(coef)


def _dlmf_15_8_10(a, b, g, k, w):
    """F at each w in (0, 1/4) by DLMF 15.8.10 (see _f_build), and a bound
    on the sum of its terms' magnitudes over |F|."""
    from scipy.special import digamma, poch

    alpha = _terms(lambda n: (a + k + n) * (b + k + n)
                   / ((n + 1.0) * (n + 1.0 + k)), float(w.max())
                   ) / math.factorial(k)
    n = np.arange(alpha.size)
    psi = (digamma(a + k + n) + digamma(b + k + n) - digamma(n + 1.0)
           - digamma(n + k + 1.0))
    fin = [math.gamma(k) * g]
    for j in range(1, k):
        fin.append(-fin[-1] * (a + j - 1) * (b + j - 1) / (j * (k - j)))
    p = _series(alpha, w)
    log_w = np.log(w)
    tail = -(-1.0) ** k * g * poch(a, k) * poch(b, k) * w ** k
    value = _series(fin, w) + tail * (log_w * p + _series(alpha * psi, w))
    size = (_series(np.abs(fin), w) + np.abs(tail) * p
            * (np.abs(log_w) + np.abs(psi).max()))
    return value, size / np.abs(value)


def _quadratic_series(b, c, k, w):
    """F at each w by the quadratic transformation (see _f_build)."""
    s = np.sqrt(w)
    zeta = (1.0 - s) / (1.0 + s)
    coef = _terms(lambda n: (2.0 * b + n) * (0.5 - k + n)
                  / ((c + n) * (n + 1.0)), float(zeta.max()))
    return (0.5 + 0.5 * s) ** (-2.0 * b) * _series(coef, zeta)


# --------------------------------------------------------------------------
# applying the semigroup

def _radial_end(lam: float, t, hold: float, base, quad):
    """Ends Y = base * 2^K of radial integrals against P_t of a function
    bounded by `hold` beyond base, for arrays of times and bases, with the tail
    beyond Y below half the tolerance: returns (Y, tail bounds).  The tail is
    about C t hold / Y, C = 2 Gamma(lam+1) / (sqrt(pi) Gamma(lam+1/2)),
    doubled as a margin for finite-Y corrections."""
    target = 0.5 * max(quad.abs_tol, 1e-14)
    c_tail = 4.0 * math.exp(math.lgamma(lam + 1.0) - math.lgamma(lam + 0.5)
                            ) / math.sqrt(math.pi)
    base = np.asarray(base, dtype=float)
    need = c_tail * t * max(hold, 1e-300) / (target * base)
    K = np.maximum(1.0, np.ceil(np.log2(np.maximum(need, 2.0))))
    # base * 2^K must stay a finite float
    bad = np.atleast_2d((K > 200) | (np.log2(base) + K >= 1024))
    if bad.any():
        # named by the first row that fails: a table's first failing level
        row = np.flatnonzero(bad.any(axis=1))[0]
        K, base = (np.atleast_2d(np.broadcast_to(v, need.shape))[row]
                   for v in (K, base))
        raise TailEstimateError(
            f"tail truncation needs 2^{K.max():g} * {base.max():g}; "
            "not attainable")
    hi = np.ldexp(base, K.astype(np.int64))
    return hi, c_tail * t * hold / hi


def check_tail(bound: float, quad: QuadratureSpec) -> None:
    """Raise TailEstimateError when a truncation-tail bound of apply_at is
    above max(abs_tol, 1e-14)."""
    if bound > max(quad.abs_tol, 1e-14):
        raise TailEstimateError(
            f"truncation tail {bound:.3e} above tolerance")


def apply_at(space: LambdaSpace, f: SampledFunction, t, xs,
             quad: QuadratureSpec = QuadratureSpec()):
    """(P_t f)(x) over broadcast arrays t and x, with a truncation-tail
    estimate.

    Returns (values, tail_bounds), each of the broadcast shape.  One
    quadrature.radial_sums call sums every (t, x) as one point, laid out on
    f's breakpoints and graded around y = x at scale t, with one kernel
    evaluation per block of points.  An unbounded support (nonzero hold
    tail) is truncated where the analytic kernel-decay bound drops below
    the tolerance.
    """
    t, xs = np.broadcast_arrays(np.asarray(t, dtype=float),
                                np.atleast_1d(np.asarray(xs, dtype=float)))
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    if np.any(xs <= 0):
        raise ValueError("evaluation points must be positive")
    slo, shi = f.support()
    his, tails = np.full_like(xs, shi), np.zeros_like(xs)
    if math.isinf(shi):
        his, tails = _radial_end(space.lam, t, abs(float(f.values[-1])),
                                 np.maximum(xs, np.maximum(t, f.grid[-1])),
                                 quad)
    ts, x = t.ravel(), xs.ravel()

    def integrand(i, y, w):
        return (w * kernel_values(space, ts[i], x[i], y)) * f(y)

    return radial_sums(slo, his.ravel(), x, ts, f.quad_breakpoints(),
                       quad.y_nodes_per_panel, space.weight_exponent,
                       integrand).reshape(xs.shape), tails


def poisson_apply(space: LambdaSpace, f: SampledFunction, t: float,
                  eval_grid, quad: QuadratureSpec = QuadratureSpec()
                  ) -> SampledFunction:
    """P_t f as a function: sampled on eval_grid and exactly evaluable
    anywhere via the attached quadrature closure (so compositions like
    P_s(P_t f) do not pay interpolation error).  Every evaluation checks its
    truncation tails (check_tail)."""
    def closure(ys):
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        vals, tails = apply_at(space, f, t, ys, quad)
        check_tail(float(np.max(tails, initial=0.0)), quad)
        return vals

    return SampledFunction.from_callable(closure, eval_grid, left="hold")


def kernel_mass(space: LambdaSpace, t: float, x: float,
                quad: QuadratureSpec = QuadratureSpec()):
    """integral_0^inf P_t(x, y) dm(y) and the truncation-tail bound.

    Equals 1 for every (t, x); the distance to 1 measures end-to-end
    quadrature quality.
    """
    one = SampledFunction.from_callable(
        lambda y: np.ones_like(np.asarray(y, dtype=float)),
        np.array([min(x, t), max(x, t) * 2.0]), left="hold", right="hold")
    vals, tails = apply_at(space, one, t, [x], quad)
    return float(vals[0]), float(tails[0])


def kernel_difference_l1(space: LambdaSpace, t1: float, t2: float, x: float,
                         quad: QuadratureSpec = QuadratureSpec()) -> float:
    """integral_0^inf |P_{t2}(x, y) - P_{t1}(x, y)| dm(y) for 0 < t1 < t2.

    Scale-invariant: simultaneous dilation of (t1, t2, x) leaves the value
    unchanged, so for a geometric time sequence it depends only on x/t1
    and t2/t1.
    """
    if not 0.0 < t1 < t2:
        raise ValueError("needs 0 < t1 < t2")
    hi, _ = _radial_end(space.lam, t2, 1.0, max(x, t2), quad)
    return float(radial_sums(0.0, hi, x, t1, (t1, t2, x + t1, x + t2),
                             quad.y_nodes_per_panel, space.weight_exponent,
                             lambda i, y, w: w * np.abs(
                                 kernel_values(space, t2, x, y)
                                 - kernel_values(space, t1, x, y)))[0])


# --------------------------------------------------------------------------
# kernel bound verification

#: bound item -> the kernel kind its numerator reads
_BOUND_KINDS = {"i": "p", "ii": "grad", "iii": "dt", "iv": "dtgrad"}


@dataclass(frozen=True)
class BoundReport:
    items: tuple
    sup_ratio: tuple    # per item, over the sweep
    sup_near: tuple     # per item, over points with |x-y| <= t
    sup_far: tuple      # per item, over points with |x-y| > t
    n_points: int


def _bound_denominator(space, items, t, x, y):
    """The two-form bound of each item, min(s / c^(lam + e),
    s / ((xy)^lam c^e)) with c = (x-y)^2 + t^2, s = t for items i and ii and
    1 for iii and iv, and e = 1 for the size items i and iii and 3/2 for
    ii and iv; each power is evaluated once for all items."""
    lam = space.lam
    c = (x - y) ** 2 + t * t
    xy_lam = (x * y) ** lam
    forms = {}
    if {"i", "iii"} & set(items):
        forms["i"] = forms["iii"] = (c ** (lam + 1.0), xy_lam * c)
    if {"ii", "iv"} & set(items):
        forms["ii"] = forms["iv"] = (c ** (lam + 1.5), xy_lam * c ** 1.5)
    out = []
    for item in items:
        s = t if item in ("i", "ii") else 1.0
        pure, mixed = forms[item]
        out.append(np.minimum(s / pure, s / mixed))
    return out


def kernel_bound_ratios(space, sweep, items) -> BoundReport:
    """Size/smoothness bound check: per item, sup over the sweep of |kernel
    quantity| divided by the corresponding two-form bound (constants set
    to 1), with every item's kernel rows from one kernel_values call.

    The sweep is an (n, 3) array of points (t, x, y), all positive; items
    is a tuple of distinct items, 'i': kernel itself, 'ii': d/dx, 'iii':
    d/dt, 'iv': |d2/dtdx| + |d2/dtdy|.  The sweep must cover both regimes
    |x-y| <= t and |x-y| > t.
    """
    items = _distinct(items, _BOUND_KINDS, "items")
    pts = np.asarray(sweep, dtype=float)
    if pts.size == 0:
        raise ValueError("sweep must be nonempty")
    if not np.all(pts > 0):
        raise ValueError("t, x, y must all be positive")
    t, x, y = pts.T
    near = np.abs(x - y) <= t
    if not near.any() or near.all():
        raise ValueError("sweep must cover both |x-y| <= t and |x-y| > t")
    kinds = tuple(_BOUND_KINDS[item] for item in items)
    vals = kernel_values(space, t, x, y, kinds)
    sups, row = [], 0
    for kind, den in zip(kinds, _bound_denominator(space, items, t, x, y)):
        # item ii reads the d/dx row of grad, item iv both rows of dtgrad
        num = (np.abs(vals[row:row + 2]).sum(axis=0) if kind == "dtgrad"
               else np.abs(vals[row]))
        row += _KINDS[kind]
        ratio = num / den
        sups.append((float(ratio.max()), float(ratio[near].max()),
                     float(ratio[~near].max())))
    return BoundReport(items, *map(tuple, zip(*sups)), len(pts))


def kernel_sweep(rng: np.random.Generator, n: int,
                 t_range=(1e-2, 1e2), xy_range=(1e-2, 1e2)):
    """Log-uniform sweep, an (n, 3) array of points (t, x, y); one third of
    the points are forced near the diagonal so both bound regimes are
    populated."""
    t = np.exp(rng.uniform(*np.log(t_range), size=n))
    x = np.exp(rng.uniform(*np.log(xy_range), size=n))
    y = np.exp(rng.uniform(*np.log(xy_range), size=n))
    k = n // 3
    y[:k] = x[:k] * (1.0 + rng.uniform(-0.5, 0.5, size=k) * np.minimum(
        t[:k] / x[:k], 0.5))
    return np.column_stack([t, x, y])
