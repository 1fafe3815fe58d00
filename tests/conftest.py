"""Shared fixtures and independent oracles for the test-suite.

The spectral two-point solver below never touches the density recursion:
it assembles the interface conditions as a dense linear system in the
per-layer up/down amplitudes (scaled so only decaying exponentials enter
the matrix) and solves it with LAPACK.  Agreement between the two routes
validates the recursion branch by branch.
"""

import numpy as np
import pytest

from layerfmm import LayeredMedium, reaction_densities


def spectral_u_hat_direct(med, ell, ellprime, z, zp, k):
    """k * u_hat(z; z') from a direct linear solve of the transmission
    conditions.  Unknowns: x_l (coefficient of e^{-k(z-d_l)}, absent in
    the bottom layer) and y_l (coefficient of e^{k(z-d_{l-1})}, absent in
    the top layer)."""
    d = med.interfaces
    L = len(d)
    a, b = med.a, med.b
    A = np.zeros((2 * L, 2 * L), dtype=complex)
    rhs = np.zeros(2 * L, dtype=complex)

    def xi(l):
        return l

    def yi(l):
        return L + l - 1

    for j in range(L):  # interface z = d_j between layers j and j+1
        up, dn = j, j + 1
        rv, rd = 2 * j, 2 * j + 1
        A[rv, xi(up)] += a[up]
        A[rd, xi(up)] += -b[up]
        if up >= 1:
            e = np.exp(-k * (d[up - 1] - d[up]))
            A[rv, yi(up)] += a[up] * e
            A[rd, yi(up)] += b[up] * e
        if dn <= L - 1:
            e = np.exp(-k * (d[dn - 1] - d[dn]))
            A[rv, xi(dn)] -= a[dn] * e
            A[rd, xi(dn)] -= -b[dn] * e
        A[rv, yi(dn)] -= a[dn]
        A[rd, yi(dn)] -= b[dn]
        if ellprime == up:
            e = np.exp(-k * (zp - d[j]))
            rhs[rv] -= a[up] * e
            rhs[rd] -= b[up] * e
        if ellprime == dn:
            e = np.exp(-k * (d[j] - zp))
            rhs[rv] += a[dn] * e
            rhs[rd] += -b[dn] * e

    sol = np.linalg.solve(A, rhs)
    x, y = sol[:L], sol[L:]
    val = 0j
    if ell <= L - 1:
        val += x[ell] * np.exp(-k * (z - d[ell]))
    if ell >= 1:
        val += y[ell - 1] * np.exp(k * (z - d[ell - 1]))
    if ell == ellprime:
        val += np.exp(-k * abs(z - zp))
    return val


def spectral_u_hat_recursion(med, ell, ellprime, z, zp, k):
    """The same quantity assembled from the reaction densities."""
    d = med.interfaces
    dens = reaction_densities(med, ell, ellprime, k)
    val = 0j
    for (a, b) in dens.components:
        zt = (z - d[ell]) if a == 1 else (d[ell - 1] - z)
        zs = (zp - d[ellprime]) if b == 1 else (d[ellprime - 1] - zp)
        val += dens.get(a, b) * np.exp(-k * (zt + zs))
    if ell == ellprime:
        val += np.exp(-k * abs(z - zp))
    return val


def slab_image_green(med, a, b, r, rp, tol=1e-15):
    """u^{ab}_{1,1}(r, r') of a three-layer medium (a slab, layer 1, between
    two half-spaces) as its geometric image series, for points along the
    last axis of r and r' (broadcast); no quadrature.

    With kappa_t = (b_1 - b_0)/(b_1 + b_0) and kappa_b = (b_1 - b_2)/
    (b_1 + b_2) the reflections of the top and bottom interfaces, q =
    kappa_t kappa_b and D the slab's thickness, the spectral reaction
    weights are sigma^{11} = kappa_b/(1 - q e^{-2kD}), sigma^{22} =
    kappa_t/(1 - q e^{-2kD}) and sigma^{12} = sigma^{21} = q e^{-kD}/(1 - q
    e^{-2kD}).  Expanding 1/(1 - q e^{-2kD}) and integrating each term by
    Lipschitz' formula gives images at depths zeta + 2jD (zeta + (2j+1)D
    for 12 and 21), weight c q^j / (4 pi sqrt(rho^2 + depth^2)).  |q| < 1,
    so the series is cut where c q^J / ((1 - |q|) zeta) / 4 pi <= tol.
    Needs a = 1 in every layer (the interface conditions [u] = 0 and
    [b du/dz] = 0)."""
    if med.num_interfaces != 2 or any(x != 1.0 for x in med.a):
        raise ValueError("slab_image_green needs a three-layer medium with a = 1")
    (top, bot), bl = med.interfaces, med.b
    kt, kb = (bl[1] - bl[0]) / (bl[1] + bl[0]), (bl[1] - bl[2]) / (bl[1] + bl[2])
    q, thick = kt * kb, top - bot
    r, rp = np.asarray(r, dtype=float), np.asarray(rp, dtype=float)
    zt = r[..., 2] - bot if a == 1 else top - r[..., 2]
    zs = rp[..., 2] - bot if b == 1 else top - rp[..., 2]
    zeta = zt + zs
    rho = np.hypot(r[..., 0] - rp[..., 0], r[..., 1] - rp[..., 1])
    coef, shift = {(1, 1): (kb, 0.0), (2, 2): (kt, 0.0)}.get((a, b), (q, thick))
    total = np.zeros(np.broadcast(rho, zeta).shape)
    j = 0
    while abs(coef) * abs(q) ** j / ((1 - abs(q)) * np.min(zeta)) > 4 * np.pi * tol:
        depth = zeta + shift + 2 * j * thick
        total = total + coef * q ** j / np.hypot(rho, depth)
        j += 1
    return total / (4 * np.pi)


def random_medium(rng, L=None, min_gap=0.05):
    if L is None:
        L = int(rng.integers(1, 6))
    while True:
        d = np.sort(rng.uniform(-4, 4, L))[::-1]
        if L == 1 or np.min(-np.diff(d)) >= min_gap:
            break
    return LayeredMedium(d, rng.uniform(0.2, 6, L + 1), rng.uniform(0.2, 6, L + 1))


def random_z_in_layer(rng, med, layer, pad=1e-3, depth=2.0):
    d = med.interfaces
    L = med.num_interfaces
    lo = d[layer] if layer < L else d[-1] - depth
    hi = d[layer - 1] if layer > 0 else d[0] + depth
    return rng.uniform(lo + pad, hi - pad)


@pytest.fixture
def two_layer():
    """Dielectric half-spaces eps = (1, 4) with the interface at z = 0."""
    return LayeredMedium([0.0], [1.0, 1.0], [1.0, 4.0])


@pytest.fixture
def three_layer():
    """Slab geometry: interfaces at 0 and -1, eps = (1, 3, 8)."""
    return LayeredMedium([0.0, -1.0], [1.0, 1.0, 1.0], [1.0, 3.0, 8.0])
