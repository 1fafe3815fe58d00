"""Independent reference values for the benchmark's output checks.

Nothing here imports layerfmm.  A medium is read only as its raw data
(interface heights and the per-layer constants a_l, b_l).

Reaction components: sigma^{ab}_{l,l'}(k) comes from a dense linear solve
of the interface conditions [a u] = 0 and [b du/dz] = 0 in the per-layer
up/down amplitudes, and the radial integral

    u^{ab}(r, r') = (1/4pi) int_0^inf J_0(k rho) e^{-k zeta} sigma(k) dk

is split into its k -> inf limit sigma_inf, integrated in closed form
(Lipschitz: int J_0(k rho) e^{-k zeta} dk = 1/sqrt(rho^2 + zeta^2)), and
the remainder sigma - sigma_inf, which decays like a multiple reflection
and is integrated with scipy.integrate.quad.  The reference is checked
against image-charge closed forms by `validate`.

Free space: a plain numpy direct sum.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
from scipy import integrate, special

FOUR_PI = 4.0 * math.pi


def _medium_data(medium):
    return tuple(medium.interfaces), tuple(medium.a), tuple(medium.b)


def sigma(data, ell, ellprime, ca, cb, k):
    """sigma^{ca cb}_{ell, ellprime}(k) for an array of k with Re k >= 0.

    Unknowns are x_l (coefficient of e^{-k(z - d_l)}, layers 0..L-1) and
    y_l (coefficient of e^{-k(d_{l-1} - z)}, layers 1..L).  The source
    term has unit amplitude at the interface below the source layer
    (cb = 1) or above it (cb = 2); ca picks x or y in the target layer.
    """
    d, a, b = data
    L = len(d)
    k = np.atleast_1d(np.asarray(k, dtype=complex))
    mat = np.zeros((len(k), 2 * L, 2 * L), dtype=complex)
    rhs = np.zeros((len(k), 2 * L), dtype=complex)

    def xi(l):
        return l

    def yi(l):
        return L + l - 1

    def decay(l):
        return np.exp(-k * (d[l - 1] - d[l]))

    for j in range(L):
        up, dn = j, j + 1
        rv, rd = 2 * j, 2 * j + 1
        mat[:, rv, xi(up)] += a[up]
        mat[:, rd, xi(up)] -= b[up]
        if up >= 1:
            e = decay(up)
            mat[:, rv, yi(up)] += a[up] * e
            mat[:, rd, yi(up)] += b[up] * e
        if dn <= L - 1:
            e = decay(dn)
            mat[:, rv, xi(dn)] -= a[dn] * e
            mat[:, rd, xi(dn)] += b[dn] * e
        mat[:, rv, yi(dn)] -= a[dn]
        mat[:, rd, yi(dn)] -= b[dn]
    if cb == 1:
        j = ellprime
        rhs[:, 2 * j] = -a[ellprime]
        rhs[:, 2 * j + 1] = -b[ellprime]
    else:
        j = ellprime - 1
        rhs[:, 2 * j] = a[ellprime]
        rhs[:, 2 * j + 1] = -b[ellprime]
    sol = np.linalg.solve(mat, rhs[..., None])[..., 0]
    return sol[:, xi(ell)] if ca == 1 else sol[:, yi(ell)]


@lru_cache(maxsize=64)
def sigma_limit(data, ell, ellprime, ca, cb):
    """sigma at k = inf, where every layer-crossing factor e^{-kD} is 0."""
    d = data[0]
    thinnest = min((d[l - 1] - d[l] for l in range(1, len(d))), default=1.0)
    return complex(sigma(data, ell, ellprime, ca, cb, [800.0 / thinnest])[0]).real


@lru_cache(maxsize=64)
def sigma_bound(data, ell, ellprime, ca, cb):
    """Sup of |sigma| over the closed right half plane, estimated on its
    boundary (real ray and imaginary axis) with a 1.05 safety factor."""
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 2000)])
    ks = np.concatenate([grid, 1j * grid, -1j * grid])
    return 1.05 * float(np.abs(sigma(data, ell, ellprime, ca, cb, ks)).max())


def _kernel_geometry(data, ell, ellprime, ca, cb, target, sources):
    """(rho, zeta) of the decaying kernel for one target and many sources."""
    d = data[0]
    zt = target[2] - d[ell] if ca == 1 else d[ell - 1] - target[2]
    zs = sources[:, 2] - d[ellprime] if cb == 1 else d[ellprime - 1] - sources[:, 2]
    rho = np.hypot(sources[:, 0] - target[0], sources[:, 1] - target[1])
    zeta = zt + zs
    if np.any(zeta <= 0):
        raise ValueError("points are not in the layers of the component")
    return rho, zeta


def reaction_potential(medium, ell, ellprime, ca, cb, q, sources, targets):
    """sum_j q_j u^{ca cb}_{ell, ellprime}(target, source_j) per target."""
    data = _medium_data(medium)
    s_inf = sigma_limit(data, ell, ellprime, ca, cb)
    q = np.asarray(q, dtype=float)
    sources = np.asarray(sources, dtype=float).reshape(-1, 3)
    out = []
    for target in np.asarray(targets, dtype=float).reshape(-1, 3):
        rho, zeta = _kernel_geometry(data, ell, ellprime, ca, cb, target, sources)

        def remainder(k):
            s = sigma(data, ell, ellprime, ca, cb, k)[0].real - s_inf
            return s * float(np.sum(q * special.j0(k * rho) * np.exp(-k * zeta)))

        upper = 46.0 / float(zeta.min())
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            tail, _ = integrate.quad(
                remainder, 0.0, upper, epsabs=1e-15, epsrel=1e-12, limit=400
            )
        closed = s_inf * float(np.sum(q / np.hypot(rho, zeta)))
        out.append((closed + tail) / FOUR_PI)
    return np.array(out)


def free_potential(q, sources, targets):
    """Direct sum of q_j / (4 pi |t - s_j|) per target."""
    diff = np.asarray(targets)[:, None, :] - np.asarray(sources)[None, :, :]
    return (np.asarray(q)[None, :] / np.linalg.norm(diff, axis=2)).sum(axis=1) / FOUR_PI


def eval_local(coeff, center, points):
    """sum_{n,m} L_nm r^n Y_n^m at each point, for a coefficient table with
    order m at column m + p.  Y_n^m here is (-1)^m times scipy's physics
    harmonic, the Condon-Shortley-free convention of the expansions."""
    coeff = np.asarray(coeff)
    p = coeff.shape[0] - 1
    v = np.asarray(points, dtype=float).reshape(-1, 3) - np.asarray(center)
    r = np.linalg.norm(v, axis=1)
    theta = np.arccos(np.clip(v[:, 2] / r, -1.0, 1.0))
    phi = np.arctan2(v[:, 1], v[:, 0])
    total = np.zeros(len(v), dtype=complex)
    for n in range(p + 1):
        for m in range(-n, n + 1):
            y = (-1.0) ** m * special.sph_harm_y(n, m, theta, phi)
            total += coeff[n, m + p] * r**n * y
    return total


def validate():
    """Largest relative deviation of the reference from closed forms.

    Two half spaces (b = 1, 4): reflection kappa = (b0 - b1)/(b0 + b1) by an
    image at the mirrored source, transmission 1 + kappa at the source.
    Three-layer slab (b = 1, 3, 8, interfaces 0 and -1, both points in the
    middle layer): u^{11} is the geometric image series
    sum_j kappa_b (kappa_t kappa_b)^j / (4 pi sqrt(rho^2 + (zeta + 2 j D)^2)),
    which exercises the quadrature of sigma - sigma_inf.
    """
    two = SimpleNamespace(interfaces=(0.0,), a=(1.0, 1.0), b=(1.0, 4.0))
    kappa = (1.0 - 4.0) / (1.0 + 4.0)
    src = np.array([[0.1, -0.2, 0.5]])
    above = np.array([[0.4, 0.3, 0.2], [2.5, -1.0, 0.05], [0.1, -0.2, 1.5]])
    below = np.array([[0.4, 0.3, -0.2], [-3.0, 1.0, -0.05]])
    cases = [
        (reaction_potential(two, 0, 0, 1, 1, [1.0], src, above),
         kappa * free_potential([1.0], src * [1.0, 1.0, -1.0], above)),
        (reaction_potential(two, 1, 0, 2, 1, [1.0], src, below),
         (1.0 + kappa) * free_potential([1.0], src, below)),
    ]
    slab = SimpleNamespace(interfaces=(0.0, -1.0), a=(1.0, 1.0, 1.0), b=(1.0, 3.0, 8.0))
    k_top, k_bot = (3.0 - 1.0) / (3.0 + 1.0), (3.0 - 8.0) / (3.0 + 8.0)
    src = np.array([[0.05, 0.1, -0.6]])
    targets = np.array([[0.3, -0.2, -0.3], [4.0, 1.0, -0.9], [0.0, 0.1, -0.05]])
    want = np.zeros(len(targets))
    for t, x in enumerate(targets):
        rho = math.hypot(*(x[:2] - src[0, :2]))
        zeta = (x[2] + 1.0) + (src[0, 2] + 1.0)
        j = np.arange(200)
        want[t] = np.sum(
            k_bot * (k_top * k_bot) ** j / np.hypot(rho, zeta + 2.0 * j)
        ) / FOUR_PI
    cases.append((reaction_potential(slab, 1, 1, 1, 1, [1.0], src, targets), want))
    return max(float(np.max(np.abs(got - want) / np.abs(want))) for got, want in cases)
