"""Reaction densities sigma^{ab}_{l,l'}(k) of the layered Green's function.

The spectral solution in layer l is a combination of one upward-decaying
term e^{-k(z - d_l)} (a = 1) and one downward-decaying term
e^{-k(d_{l-1} - z)} (a = 2); the source side contributes e^{-k(z'-d_{l'})}
(b = 1) or e^{-k(d_{l'-1}-z')} (b = 2).  The four weights sigma^{ab} are
produced by a single bottom-up recursion per source layer, written
entirely in exponentially rescaled quantities so that only decaying
exponentials e_l = exp(-k D_l) ever appear:

    seeds at the bottom layer for sigma^{21}, sigma^{22},
    an upward sweep for sigma^{11}, sigma^{12},
    ratio formulas  sigma^{2b} = -(alpha_21/alpha_22) sigma^{1b}
    (plus a source correction while the sweep is below the source layer).

Everything is vectorized over the spectral argument; k may be complex
with Re k >= 0, where |e_l| <= 1 keeps every intermediate bounded.  The
key inequality |alpha_22|^2 - |alpha_21|^2 >= prod((gamma^+)^2-(gamma^-)^2)
guarantees the denominators stay away from zero; it is checked on every
evaluation as a corruption tripwire.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ComponentAbsent,
    DegenerateDenominator,
    InvalidSpectralArgument,
    InvariantViolated,
)
from .medium import component_exists, require_component


def _as_spectral_array(k_rho):
    k = np.asarray(k_rho, dtype=complex)
    if np.any(np.real(k) < 0):
        raise InvalidSpectralArgument("spectral argument requires Re k_rho >= 0")
    return k


class InterfaceMatrices:
    """Rescaled transmission machinery at one (medium, k) pair.

    Holds, vectorized over k:
        e[l]            exp(-k D_l), with D_0 = D_L = 0
        ttilde[l]       rescaled transmission matrix between layers l-1, l
        alpha[l]        cumulative product ttilde[1] ... ttilde[l]
        s2e[l]          2 e_l S_breve^{(l)} (the only stable form of S)
        t11[l], t12[l]  first-row entries of T^{l,l+1}
    plus the closed-form C-ratio, which only ever decays for l1 <= l2.
    """

    def __init__(self, medium, k_rho):
        k = _as_spectral_array(k_rho)
        self.medium = medium
        self.k = k
        d = medium.interfaces
        L = medium.num_interfaces
        a, b = medium.a, medium.b

        thick = np.zeros(L + 1)
        for l in range(1, L):
            thick[l] = d[l - 1] - d[l]
        self.e = [np.exp(-k * thick[l]) for l in range(L + 1)]

        self.gamma_plus = np.zeros(L + 1)
        self.gamma_minus = np.zeros(L + 1)
        for l in range(1, L + 1):
            self.gamma_plus[l] = a[l] / a[l - 1] + b[l] / b[l - 1]
            self.gamma_minus[l] = a[l] / a[l - 1] - b[l] / b[l - 1]

        ident = np.zeros((2, 2) + k.shape, dtype=complex)
        ident[0, 0] = 1.0
        ident[1, 1] = 1.0
        self.alpha = [ident]
        for l in range(1, L + 1):
            gp, gm = self.gamma_plus[l], self.gamma_minus[l]
            tt = np.empty((2, 2) + k.shape, dtype=complex)
            tt[0, 0] = gp * self.e[l - 1] * self.e[l]
            tt[0, 1] = gm * self.e[l - 1]
            tt[1, 0] = gm * self.e[l]
            tt[1, 1] = gp
            prev = self.alpha[l - 1]
            nxt = np.empty_like(prev)
            nxt[0, 0] = prev[0, 0] * tt[0, 0] + prev[0, 1] * tt[1, 0]
            nxt[0, 1] = prev[0, 0] * tt[0, 1] + prev[0, 1] * tt[1, 1]
            nxt[1, 0] = prev[1, 0] * tt[0, 0] + prev[1, 1] * tt[1, 0]
            nxt[1, 1] = prev[1, 0] * tt[0, 1] + prev[1, 1] * tt[1, 1]
            self.alpha.append(nxt)

        self.s2e = []
        for l in range(L + 1):
            m = np.empty((2, 2) + k.shape, dtype=complex)
            m[0, 0] = self.e[l] / a[l]
            m[0, 1] = self.e[l] / b[l]
            m[1, 0] = np.broadcast_to(1.0 / a[l] + 0j, k.shape)
            m[1, 1] = np.broadcast_to(-1.0 / b[l] + 0j, k.shape)
            self.s2e.append(m)

        self.t11 = []
        self.t12 = []
        for l in range(L):
            self.t11.append(
                (a[l + 1] * b[l] + a[l] * b[l + 1]) / (2 * a[l] * b[l]) * self.e[l + 1]
            )
            self.t12.append((a[l + 1] * b[l] - a[l] * b[l + 1]) / (2 * a[l] * b[l]))

        self._check_key_inequality()

    def _check_key_inequality(self):
        prod = 1.0
        for l in range(1, self.medium.num_interfaces + 1):
            prod *= self.gamma_plus[l] ** 2 - self.gamma_minus[l] ** 2
            al = self.alpha[l]
            lhs = np.abs(al[1, 1]) ** 2 - np.abs(al[1, 0]) ** 2
            if not np.all(lhs >= prod * (1.0 - 1e-10) - 1e-290):
                raise InvariantViolated(
                    "interface-matrix inequality violated; medium data corrupt"
                )
            if np.any(np.abs(al[1, 1]) < 1e-300):
                raise DegenerateDenominator("|alpha_22| below 1e-300")

    def cratio(self, l1, l2):
        """C^{(l1)}/C^{(l2)} = 2^{l2-l1} exp(-k (d_{l1-1} - d_{l2-1})),
        defined for l1 <= l2 where it never grows."""
        if l1 > l2:
            raise ValueError("C-ratio only used with l1 <= l2")
        if l1 == l2:
            return np.ones_like(self.k)
        d = self.medium.interfaces
        top = d[l1 - 1] if l1 >= 1 else d[0]
        return 2.0 ** (l2 - l1) * np.exp(-self.k * (top - d[l2 - 1]))


def interface_matrices(medium, k_rho):
    return InterfaceMatrices(medium, k_rho)


@dataclass(frozen=True)
class ReactionDensitySet:
    """sigma^{ab} values for one (target layer, source layer) pair.

    Vanishing components are absent rather than zero so accidental use
    fails loudly.
    """

    sigma: dict
    ell: int
    ellprime: int

    def get(self, a, b):
        try:
            return self.sigma[(a, b)]
        except KeyError:
            raise ComponentAbsent(
                f"sigma^({a}{b}) absent for layers ({self.ell},{self.ellprime})"
            ) from None

    @property
    def components(self):
        return sorted(self.sigma.keys())


def _row_bilinear(mats, lsub, lS, vec):
    """(alpha^{(lsub)} row 2) . (2 e S)^{(lS)} . vec, vectorized over k."""
    al = mats.alpha[lsub]
    s = mats.s2e[lS]
    r0 = al[1, 0] * s[0, 0] + al[1, 1] * s[1, 0]
    r1 = al[1, 0] * s[0, 1] + al[1, 1] * s[1, 1]
    return r0 * vec[0] + r1 * vec[1]


def _density_sweep(medium, ellprime, k):
    """All sigma^{ab}_{l, ellprime}(k) present for this source layer.

    Returns a dict keyed (a, b, ell).  Follows the bottom-seeded recursion;
    the upward sweep updates the b=1 chain through sigma^{11} (the source
    branch fires at l = l') and the b=2 chain through sigma^{12} (source
    branch at l = l'-1), then converts to the a=2 members via the
    alpha-ratio or the bracketed seed-corrected form below the source.
    """
    L = medium.num_interfaces
    mats = interface_matrices(medium, k)
    a_c, b_c = medium.a, medium.b
    out = {}
    zeros = np.zeros_like(k)

    def alpha21_over22(l):
        al = mats.alpha[l]
        return al[1, 0] / al[1, 1]

    if ellprime < L:  # b = 1 chain exists
        vec = (-a_c[ellprime], b_c[ellprime])
        seed_bil = _row_bilinear(mats, ellprime, ellprime, vec)
        s21 = {L: -mats.cratio(ellprime + 1, L) / mats.alpha[L][1, 1] * seed_bil}
        s11 = {L: zeros}
        for l in range(L - 1, -1, -1):
            # at l = l' the explicit source terms -S11^{(l')} a_{l'} +
            # S12^{(l')} b_{l'} equal -1/2 + 1/2 and drop out
            s11[l] = mats.t11[l] * s11[l + 1] + mats.t12[l] * s21[l + 1]
            if l >= 1:
                if l > ellprime:
                    s21[l] = -(
                        mats.cratio(ellprime + 1, l) * seed_bil
                        + mats.alpha[l][1, 0] * s11[l]
                    ) / mats.alpha[l][1, 1]
                else:
                    s21[l] = -alpha21_over22(l) * s11[l]
        for l in range(L):
            out[(1, 1, l)] = s11[l]
        for l in range(1, L + 1):
            out[(2, 1, l)] = s21[l]

    if ellprime > 0:  # b = 2 chain exists
        vec = (a_c[ellprime], b_c[ellprime])
        seed_bil = _row_bilinear(mats, ellprime - 1, ellprime - 1, vec)
        s22 = {L: -mats.cratio(ellprime, L) / mats.alpha[L][1, 1] * seed_bil}
        s12 = {L: zeros}
        for l in range(L - 1, -1, -1):
            s12[l] = mats.t11[l] * s12[l + 1] + mats.t12[l] * s22[l + 1]
            if l == ellprime - 1:
                s12[l] = s12[l] + (
                    a_c[ellprime] / (2 * a_c[l]) + b_c[ellprime] / (2 * b_c[l])
                )
            if l >= 1:
                if l >= ellprime:
                    s22[l] = -(
                        mats.cratio(ellprime, l) * seed_bil
                        + mats.alpha[l][1, 0] * s12[l]
                    ) / mats.alpha[l][1, 1]
                else:
                    s22[l] = -alpha21_over22(l) * s12[l]
        for l in range(L):
            out[(1, 2, l)] = s12[l]
        for l in range(1, L + 1):
            out[(2, 2, l)] = s22[l]

    return out


def reaction_densities(medium, ell, ellprime, k_rho):
    """Evaluate every present sigma^{ab}_{ell, ellprime} at k_rho.

    k_rho may be a scalar or an array with Re k_rho >= 0.
    """
    medium.check_layer(ell)
    medium.check_layer(ellprime)
    k = _as_spectral_array(k_rho)
    scalar = np.ndim(k_rho) == 0 and np.ndim(k) == 0
    sweep = _density_sweep(medium, ellprime, np.atleast_1d(k))
    sigma = {}
    for a in (1, 2):
        for b in (1, 2):
            if component_exists(medium, a, b, ell, ellprime):
                val = sweep[(a, b, ell)]
                sigma[(a, b)] = complex(val[0]) if scalar else val.reshape(k.shape)
    return ReactionDensitySet(sigma, ell, ellprime)


class ReactionDensity:
    """Callable sigma^{ab}_{l,l'} evaluator with a cached uniform bound."""

    def __init__(self, medium, a, b, ell, ellprime):
        require_component(medium, a, b, ell, ellprime)
        self.medium = medium
        self.a = a
        self.b = b
        self.ell = ell
        self.ellprime = ellprime

    def __call__(self, k):
        k = np.atleast_1d(_as_spectral_array(k))
        return _density_sweep(self.medium, self.ellprime, k)[
            (self.a, self.b, self.ell)
        ]

    @property
    def bound(self):
        return density_bound(self.medium, self.ell, self.ellprime, self.a, self.b)


DENSITY_BOUND_KMAX = 1.0e3
DENSITY_BOUND_SAFETY = 1.05


@lru_cache(maxsize=512)
def density_bound(medium, ell, ellprime, a, b, k_max=DENSITY_BOUND_KMAX):
    """Estimated sup of |sigma^{ab}| over the closed right half plane.

    sigma is analytic and bounded there, so the supremum is controlled by
    its boundary values: we sample the real ray [0, k_max] and the
    imaginary ray i[-k_max, k_max] on geometric grids, refine around the
    maximum, and multiply by a 1.05 safety factor.  The error theorems
    only need *some* valid bound; the slack absorbs grid error.
    """
    density = ReactionDensity(medium, a, b, ell, ellprime)
    grid = np.concatenate([[0.0], np.geomspace(1e-6, k_max, 800)])
    rays = [grid + 0j, 1j * grid, -1j * grid]

    best_val, best_ray, best_idx = 0.0, None, None
    for ray in rays:
        vals = np.abs(density(ray))
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_ray, best_idx = float(vals[i]), ray, i

    if best_val == 0.0:
        return 0.0

    # local refinement around the coarse maximum on its ray
    lo = best_ray[max(best_idx - 1, 0)]
    hi = best_ray[min(best_idx + 1, len(best_ray) - 1)]
    for _ in range(4):
        fine = np.linspace(lo, hi, 65)
        vals = np.abs(density(fine))
        i = int(np.argmax(vals))
        best_val = max(best_val, float(vals[i]))
        lo = fine[max(i - 1, 0)]
        hi = fine[min(i + 1, len(fine) - 1)]

    return DENSITY_BOUND_SAFETY * best_val
