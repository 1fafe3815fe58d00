"""Scaled spherical harmonics and translation constants.

Conventions:

    Y_n^m(theta, phi) = Phat_n^m(cos theta) e^{i m phi},
    Phat_n^m(x) = sqrt((2n+1)/(4 pi) (n-m)!/(n+m)!) P_n^m(x),

with P_n^m the Condon-Shortley-free associated Legendre function
(P_1^1 = sin theta), so Y_1^1 = +sqrt(3/8 pi) sin theta e^{i phi}.  This
differs from the physics harmonic (scipy's sph_harm) by a factor (-1)^m,
and is the one convention under which the translation constants
C_n^m = i^{2n-m} sqrt(...) satisfy the complex-direction identity

    (i k0 . rhat)^n / n! = sum_m C_n^m Phat_n^m(cos theta) e^{i m (alpha-phi)},
    k0 = (cos alpha, sin alpha, i),

on which every Sommerfeld-type basis reduction in this package rests.
Useful identities, all exercised by the test-suite:

    Y_n^{-m} = (-1)^m conj(Y_n^m)
    Y_n^m(pi - theta, phi)  = (-1)^{n+m} Y_n^m(theta, phi)
    Y_n^m(theta, pi + phi)  = (-1)^m     Y_n^m(theta, phi)

The translation constants

    c_n   = sqrt((2n+1)/(4 pi))
    A_n^m = (-1)^n c_n / sqrt((n-m)!(n+m)!)
    C_n^m = i^{2n-m} sqrt(4 pi / ((2n+1)(n+m)!(n-m)!)) = i^{-m} A_n^m / c_n^2

feed every expansion operator; the factorials only ever appear through
log-gamma so tables stay finite up to the supported order 60.

normalized_legendre, sph_harm_table and cartesian_to_spherical take one
point or a batch along leading axes, and each point of a batch gets the
bits of a one-point call.  numpy's cost is per call, not per value, and
an FMM pays for one point per target and per box pair, so one point has
its own path: the Legendre recurrence on Python floats, order by order
with two floats of state, as one packed list; the harmonics table as the
batch's products on that list and one cached gather; and (r, theta, phi)
from one dot product and two scalar ufuncs.
Batches keep the array code, where one call serves every point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite, lgamma, log, pi, sqrt

import numpy as np

from .errors import DomainError, OrderTooHigh

MAX_ORDER = 60


def legendre_p(n, x):
    """Legendre polynomial P_n(x) by the three-term recurrence."""
    if not abs(x) <= 1.0:
        raise DomainError(f"Legendre argument {x} outside [-1, 1]")
    if n == 0:
        return 1.0
    pm1, p = 1.0, float(x)
    for k in range(2, n + 1):
        pm1, p = p, ((2 * k - 1) * x * p - (k - 1) * pm1) / k
    return p


def _read_only(*arrays):
    """Mark cached tables read-only, so no caller can corrupt a later call."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _legendre_weights(n_max):
    """Per degree n >= 1 of normalized_legendre: the diagonal factor and
    the rows alpha[n, :n], beta[n, :n] of the three-term step, whose
    alpha[n, n-1] = sqrt(2n+1), beta[n, n-1] = 0 fill column n-1 too."""
    n, m = np.arange(n_max + 1.0)[:, None], np.arange(n_max + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.sqrt((2 * n + 1) * (2 * n - 1) / ((n - m) * (n + m)))
        beta = np.sqrt(
            (2 * n + 1) * (n - m - 1) * (n + m - 1) / ((2 * n - 3) * (n - m) * (n + m))
        )
    ks = np.arange(1, n_max + 1)
    alpha[ks, ks - 1], beta[ks, ks - 1] = np.sqrt(2.0 * ks + 1.0), 0.0
    _read_only(alpha, beta)
    return tuple(
        (sqrt((2.0 * k + 1.0) / (2.0 * k)), alpha[k, :k], beta[k, :k])
        for k in range(1, n_max + 1)
    )


@lru_cache(maxsize=None)
def _legendre_lists(n_max):
    """_legendre_weights for the one-point recurrence, order by order:
    the read-only (n, m) index arrays of its packing (m = 0..n_max, and
    for each m, n = m..n_max), the diagonal factors of m = 1..n_max, and
    per order m the Python-float pairs (alpha[n, m], beta[n, m]) of
    n = m+1..n_max."""
    weights = _legendre_weights(n_max)
    ms, ns = np.triu_indices(n_max + 1)
    orders = tuple(
        tuple((float(alpha[m]), float(beta[m])) for _, alpha, beta in weights[m:])
        for m in range(n_max + 1)
    )
    return _read_only(ns, ms), tuple(diag for diag, _, _ in weights), orders


def _legendre_point(n_max, x):
    """normalized_legendre at one float x as its packed entries, order by
    order with degrees m..n_max: the array recurrence's products, in its
    order, on Python floats.  Each order starts from P_m^m = diag s
    P_{m-1}^{m-1} and steps up in n with two floats of state; the step to
    n = m+1 reads beta = 0 times the zero below the diagonal, as the array
    step does."""
    if not abs(x) <= 1.0:
        raise DomainError(f"Legendre argument {x} outside [-1, 1]")
    s = sqrt(max(0.0, 1.0 - x * x))
    _, diags, orders = _legendre_lists(n_max)
    pmm = sqrt(1.0 / (4.0 * pi))
    flat = []
    for m, steps in enumerate(orders):
        if m:
            pmm = diags[m - 1] * s * pmm
        p2, p1 = 0.0, pmm
        flat.append(p1)
        for a, b in steps:
            p2, p1 = p1, a * x * p1 - b * p2
            flat.append(p1)
    return flat


def normalized_legendre(n_max, x):
    """Table of normalized associated Legendre values Phat_n^m(x).

    Returns an array of shape x.shape + (n_max+1, n_max+1), entry
    [..., n, m] for 0 <= m <= n; entries with m > n are zero.  Seeded on
    the diagonal and recurred upward in degree, every order and point at
    once, which is stable for all orders here (the unnormalized P_n^m
    would overflow near n = 40).  An x outside [-1, 1], NaN included, is
    a DomainError.

    Two paths give the same bits.  A numpy call costs about a microsecond
    whatever its length, so a batch runs the recurrence on arrays, a few
    calls per degree for all its points, and one point (a 0-d x) runs it
    on Python floats, order by order, with the same products in the same
    order: about 0.08 us an entry (6 us at n_max = 10, 130 us at 60)
    and one scatter into the table, where the array path's ten numpy
    calls a degree take about 60 us on one point at n_max = 10.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        tab = np.zeros((n_max + 1, n_max + 1))
        tab[_legendre_lists(n_max)[0]] = _legendre_point(n_max, float(x))
        return tab
    outside = ~(np.abs(x) <= 1.0)
    if outside.any():
        raise DomainError(f"Legendre argument {x[outside][0]} outside [-1, 1]")
    s, xm = np.sqrt(np.maximum(0.0, 1.0 - x * x)), x[..., None]
    tab = np.zeros(x.shape + (n_max + 1, n_max + 1))
    tab[..., 0, 0] = sqrt(1.0 / (4.0 * pi))
    # row n - 2 = -1 at n = 1 is still all zeros, and beta[1, 0] = 0
    for n, (diag, alpha, beta) in enumerate(_legendre_weights(n_max), 1):
        tab[..., n, n] = diag * s * tab[..., n - 1, n - 1]
        tab[..., n, :n] = alpha * xm * tab[..., n - 1, :n] - beta * tab[..., n - 2, :n]
    return tab


@lru_cache(maxsize=None)
def _order_tables(n_max):
    """Read-only per-n_max parts of sph_harm_table: i m for m = 0..n_max,
    (-1)^m for m = n_max..1, and the mask |m| > n of its columns."""
    ms = np.arange(n_max + 1)
    outside = np.abs(np.arange(-n_max, n_max + 1)) > ms[:, None]
    return _read_only(1j * ms, (-1.0) ** ms[:0:-1], outside)


@lru_cache(maxsize=None)
def _point_tables(n_max):
    """Read-only per-n_max parts of a one-point sph_harm_table: the order
    m and (-1)^m of each entry _legendre_point packs (order by order),
    and the index of the (n_max+1, 2 n_max+1) table into the packed
    values of the orders m >= 0, then of the orders -m, then one zero."""
    ns, ms = _legendre_lists(n_max)[0]
    index = np.full((n_max + 1, 2 * n_max + 1), 2 * len(ms))
    packed = np.arange(len(ms))
    index[ns, n_max + ms] = packed
    index[ns[ms > 0], n_max - ms[ms > 0]] = len(ms) + packed[ms > 0]
    return _read_only(ms, (-1.0) ** ms, index)


_ZERO = _read_only(np.zeros(1, dtype=complex))[0]


def _sph_harm_point(n_max, theta, phi):
    """sph_harm_table at one (theta, phi): the batch's products on the
    packed entries, then one cached gather."""
    ms, sign, index = _point_tables(n_max)
    ph = np.array(_legendre_point(n_max, float(np.cos(theta))))
    vals = np.multiply(ph, np.exp(_order_tables(n_max)[0] * phi)[ms])
    # Y_n^{-m} = (-1)^m conj(Y_n^m)
    return np.concatenate((vals, np.multiply(sign, np.conj(vals)), _ZERO))[index]


def sph_harm_table(n_max, theta, phi):
    """All Y_n^m(theta, phi) for n <= n_max as a complex array of shape
    theta.shape + (n_max+1, 2 n_max+1); entry [..., n, m + n_max] holds
    order m, zero for |m| > n."""
    if np.ndim(theta) == 0:
        return _sph_harm_point(n_max, theta, phi)
    ph = normalized_legendre(n_max, np.cos(theta))
    im, sign, outside = _order_tables(n_max)
    out = np.empty(ph.shape[:-1] + (2 * n_max + 1,), dtype=complex)
    vals = out[..., n_max:]
    np.multiply(ph, np.exp(im * np.asarray(phi)[..., None])[..., None, :], out=vals)
    # Y_n^{-m} = (-1)^m conj(Y_n^m), order -m in column n_max - m
    np.multiply(sign, np.conj(vals[..., :0:-1]), out=out[..., :n_max])
    np.copyto(out, 0.0, where=outside)
    return out


def sph_harm(n, m, theta, phi):
    """Single scaled spherical harmonic; returns 0 for |m| > n by the
    convention used throughout the expansion formulas."""
    if abs(m) > n:
        return 0.0 + 0.0j
    ph = normalized_legendre(n, np.cos(theta))[n, abs(m)]
    if m < 0:
        ph *= (-1.0) ** (-m)
    return ph * np.exp(1j * m * phi)


@dataclass(frozen=True)
class HarmonicConstants:
    """Precomputed c_n, A_n^m, C_n^m tables up to degree p_max.

    A is even in m (A_n^m = A_n^{-m}); its magnitude is kept in log form
    alongside the plain value so operator weights can be assembled in log
    space without re-touching factorials.
    """

    p_max: int
    c: np.ndarray = field(repr=False)
    log_c: np.ndarray = field(repr=False)
    log_abs_a: np.ndarray = field(repr=False)  # [n, |m|], -inf beyond |m|>n
    c_table: np.ndarray = field(repr=False)  # C_n^m, [n, m+p_max]

    def a(self, n, m):
        if abs(m) > n:
            return 0.0
        return (-1.0) ** n * np.exp(self.log_abs_a[n, abs(m)])

    def C(self, n, m):
        if abs(m) > n:
            return 0.0 + 0.0j
        return self.c_table[n, m + self.p_max]


@lru_cache(maxsize=None)
def constants(p_max):
    """Build the constant tables; p_max above 60 raises OrderTooHigh (the
    log-gamma route keeps the tables finite only in the supported range,
    and nothing downstream is validated beyond it)."""
    if p_max > MAX_ORDER:
        raise OrderTooHigh(f"p_max={p_max} exceeds supported maximum {MAX_ORDER}")
    if p_max < 0:
        raise DomainError("p_max must be nonnegative")
    ns = np.arange(p_max + 1)
    c = np.sqrt((2.0 * ns + 1.0) / (4.0 * pi))
    log_c = 0.5 * (np.log(2.0 * ns + 1.0) - log(4.0 * pi))
    log_abs_a = np.full((p_max + 1, p_max + 1), -np.inf)
    for n in range(p_max + 1):
        for m in range(n + 1):
            log_abs_a[n, m] = log_c[n] - 0.5 * (
                lgamma(n - m + 1.0) + lgamma(n + m + 1.0)
            )
    c_table = np.zeros((p_max + 1, 2 * p_max + 1), dtype=complex)
    for n in range(p_max + 1):
        for m in range(-n, n + 1):
            # C_n^m = i^{-m} A_n^m / c_n^2
            a_nm = (-1.0) ** n * np.exp(log_abs_a[n, abs(m)])
            c_table[n, m + p_max] = (1j) ** (-m) * a_nm / c[n] ** 2
    return HarmonicConstants(p_max, *_read_only(c, log_c, log_abs_a, c_table))


def _spherical_point(v):
    """cartesian_to_spherical of one 3-vector, on floats where numpy's
    per-call cost would dominate; r is sqrt(v . v) as np.linalg.norm
    rounds it, theta and phi the batch's ufuncs on scalars."""
    r = sqrt(np.dot(v, v))
    if not isfinite(r):
        raise DomainError(f"point {v} has no finite length")
    if r == 0.0:
        return 0.0, 0.0, 0.0
    x, y, z = v.tolist()
    theta = float(np.arccos(min(1.0, max(-1.0, z / r))))
    phi = float(np.arctan2(y, x))
    return r, theta, phi + 2.0 * pi if phi < 0.0 else phi


def cartesian_to_spherical(v):
    """(r, theta, phi) of 3-vectors along the last axis of v, phi in
    [0, 2 pi), all zero at r = 0: floats for one vector, arrays of the
    leading shape for a stack.  A vector whose r is not finite (a NaN
    or infinite coordinate) is a DomainError."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return _spherical_point(v)
    # r is rounded as np.linalg.norm rounds one vector: sqrt of its dot
    r = np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])
    bad = ~np.isfinite(r)
    if bad.any():
        raise DomainError(f"point {v[bad][0]} has no finite length")
    zero = r == 0.0
    cos_theta = v[..., 2] / np.where(zero, 1.0, r)
    theta = np.where(zero, 0.0, np.arccos(np.clip(cos_theta, -1.0, 1.0)))
    phi = np.arctan2(v[..., 1], v[..., 0])
    phi = np.where(zero, 0.0, np.where(phi < 0.0, phi + 2.0 * pi, phi))
    return r, theta, phi

