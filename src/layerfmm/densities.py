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

Everything is vectorized over the spectral argument k, Re k >= 0, where
|e_l| <= 1 keeps every intermediate bounded; a real k (where sigma is
real) sweeps in float64, any other in complex arithmetic.  The
key inequality |alpha_22|^2 - |alpha_21|^2 >= prod((gamma^+)^2-(gamma^-)^2)
guarantees the denominators stay away from zero; it is checked on every
evaluation as a corruption tripwire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import (
    ComponentAbsent,
    DegenerateDenominator,
    InvalidSpectralArgument,
    InvariantViolated,
)
from .medium import component_exists, require_component


def _as_spectral_array(k_rho):
    k = np.asarray(k_rho)
    k = k.astype(float if np.isrealobj(k) else complex, copy=False)
    if np.any(np.real(k) < 0):
        raise InvalidSpectralArgument("spectral argument requires Re k_rho >= 0")
    return k


@lru_cache(maxsize=64)
def _geometry(medium):
    """The k-independent data of the recursion for one medium, as tuples.

    thick[l] = D_l (D_0 = D_L = 0); gamma_plus[l], gamma_minus[l] of
    interface l (index 0 unused); c11[l] and t12[l] such that
    T^{l,l+1}_11 = c11[l] e_{l+1} and T^{l,l+1}_12 = t12[l].
    """
    d = medium.interfaces
    L = medium.num_interfaces
    a, b = medium.a, medium.b
    inner = range(1, L + 1)
    return SimpleNamespace(
        thick=tuple(d[l - 1] - d[l] if 0 < l < L else 0.0 for l in range(L + 1)),
        gamma_plus=(0.0,) + tuple(a[l] / a[l - 1] + b[l] / b[l - 1] for l in inner),
        gamma_minus=(0.0,) + tuple(a[l] / a[l - 1] - b[l] / b[l - 1] for l in inner),
        c11=tuple(
            (a[l + 1] * b[l] + a[l] * b[l + 1]) / (2 * a[l] * b[l]) for l in range(L)
        ),
        t12=tuple(
            (a[l + 1] * b[l] - a[l] * b[l + 1]) / (2 * a[l] * b[l]) for l in range(L)
        ),
    )


class InterfaceMatrices:
    """Rescaled transmission machinery at one (medium, k) pair.

    Holds, vectorized over k:
        e[l]            exp(-k D_l); e_0 = e_L = 1 exactly (the scalar 1.0)
        alpha[l]        row 2, (alpha_21, alpha_22), of the cumulative
                        product ttilde[1] ... ttilde[l] of the rescaled
                        transmission matrices between layers l-1, l (the
                        only row the recursion reads); alpha[0] is row 2
                        of the identity
        t11[l], t12[l]  first-row entries of T^{l,l+1}
        gamma_plus[l], gamma_minus[l]
    plus s2e(l) = 2 e_l S_breve^{(l)} (the only stable form of S) and the
    closed-form C-ratio, which only ever decays for l1 <= l2.  The
    k-independent parts come from a per-medium cache, and entries that
    do not depend on k (t12, ttilde[l]_22 = gamma^+_l, row 2 of s2e, and
    t11[L-1] = c11[L-1]) stay scalars that broadcast.  The key inequality
    is checked on every construction.
    """

    def __init__(self, medium, k_rho):
        k = _as_spectral_array(k_rho)
        geo = _geometry(medium)
        self.medium = medium
        self.k = k
        self.gamma_plus = geo.gamma_plus
        self.gamma_minus = geo.gamma_minus
        e = [np.exp(-k * t) if t > 0.0 else 1.0 for t in geo.thick]
        self.e = e

        # row 2 of alpha[l] = alpha[l-1] ttilde[l], with ttilde[l] =
        # [[g+ e_{l-1} e_l, g- e_{l-1}], [g- e_l, g+]]
        self.alpha = [np.array([0.0, 1.0])]
        for l in range(1, medium.num_interfaces + 1):
            gp, gm = geo.gamma_plus[l], geo.gamma_minus[l]
            t10 = gm * e[l]
            if l == 1:
                p10, p11 = t10, gp
            else:
                t00, t01 = gp * e[l - 1] * e[l], gm * e[l - 1]
                p10, p11 = p10 * t00 + p11 * t10, p10 * t01 + p11 * gp
            al = np.empty((2,) + k.shape, dtype=k.dtype)
            al[0], al[1] = p10, p11
            self.alpha.append(al)

        self.t11 = [c * e[l + 1] for l, c in enumerate(geo.c11)]
        self.t12 = geo.t12

        self._check_key_inequality()

    def s2e(self, l):
        """2 e_l S_breve^{(l)} as nested tuples; row 2 is constant."""
        e = self.e[l]
        a, b = self.medium.a[l], self.medium.b[l]
        return ((e / a, e / b), (1.0 / a, -1.0 / b))

    def _check_key_inequality(self):
        """|alpha_22|^2 - |alpha_21|^2 >= prod((g+)^2 - (g-)^2) for every l.

        On the imaginary axis the two sides are equal and the left is a
        difference of terms that can exceed the product by orders of
        magnitude (many layers, high contrast), so the rounding slack is
        1e-10 (|alpha_22|^2 + |alpha_21|^2), relative to those terms.
        """
        prod = 1.0
        for l in range(1, self.medium.num_interfaces + 1):
            prod *= self.gamma_plus[l] ** 2 - self.gamma_minus[l] ** 2
            row = np.abs(self.alpha[l])
            sq = row * row
            if not (sq[1] - sq[0] >= prod - 1e-10 * (sq[1] + sq[0])).all():
                raise InvariantViolated(
                    "interface-matrix inequality violated; medium data corrupt"
                )
            if (row[1] < 1e-300).any():
                raise DegenerateDenominator("|alpha_22| below 1e-300")

    def cratio(self, l1, l2):
        """C^{(l1)}/C^{(l2)} = 2^{l2-l1} exp(-k (d_{l1-1} - d_{l2-1})),
        defined for l1 <= l2 where it never grows."""
        if l1 > l2:
            raise ValueError("C-ratio only used with l1 <= l2")
        if l1 == l2:
            return 1.0
        if l2 == l1 + 1 and l1 >= 1:
            return 2.0 * self.e[l1]  # d_{l1-1} - d_{l1} is D_{l1}
        d = self.medium.interfaces
        top = d[l1 - 1] if l1 >= 1 else d[0]
        return 2.0 ** (l2 - l1) * np.exp(-self.k * (top - d[l2 - 1]))


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
    s = mats.s2e(lS)
    r0 = al[0] * s[0][0] + al[1] * s[1][0]
    r1 = al[0] * s[0][1] + al[1] * s[1][1]
    return r0 * vec[0] + r1 * vec[1]


def _chain(mats, ellprime, b, ell):
    """(sigma^{1b}_{ell, ellprime}, sigma^{2b}_{ell, ellprime}) at mats.k.

    Follows the bottom-seeded recursion for one source side b: seeded at
    the bottom layer, the upward sweep updates sigma^{1b} down to layer
    ell and converts to sigma^{2b} via the alpha-ratio, or the
    seed-corrected form below the source layer src (l' for b = 1, l'-1 for
    b = 2).  For b = 1 the explicit source terms -S11^{(l')} a_{l'} +
    S12^{(l')} b_{l'} at l = l' equal -1/2 + 1/2 and drop out; for b = 2
    the source branch fires at l = l'-1.  Only the members that exist are
    meaningful: sigma^{1b} needs ell < L, sigma^{2b} needs ell >= 1.
    """
    medium = mats.medium
    L = medium.num_interfaces
    a_c, b_c = medium.a, medium.b
    src = ellprime if b == 1 else ellprime - 1
    vec = (-a_c[ellprime] if b == 1 else a_c[ellprime], b_c[ellprime])
    seed = _row_bilinear(mats, src, src, vec)
    s1 = 0.0
    s2 = -mats.cratio(src + 1, L) / mats.alpha[L][1] * seed
    for l in range(L - 1, ell - 1, -1):
        s1 = mats.t11[l] * s1 + mats.t12[l] * s2
        if b == 2 and l == src:
            s1 = s1 + (a_c[ellprime] / (2 * a_c[l]) + b_c[ellprime] / (2 * b_c[l]))
        if l >= 1:
            al = mats.alpha[l]
            if l > src:
                s2 = -(mats.cratio(src + 1, l) * seed + al[0] * s1) / al[1]
            else:
                s2 = -(al[0] / al[1]) * s1
    return s1, s2


def reaction_densities(medium, ell, ellprime, k_rho):
    """Evaluate every present sigma^{ab}_{ell, ellprime} at k_rho.

    k_rho may be a scalar or an array with Re k_rho >= 0.
    """
    medium.check_layer(ell)
    medium.check_layer(ellprime)
    k = _as_spectral_array(k_rho)
    scalar = np.ndim(k_rho) == 0 and np.ndim(k) == 0
    mats = InterfaceMatrices(medium, np.atleast_1d(k))
    sigma = {}
    for b in (1, 2):
        chain = None
        for a in (1, 2):
            if component_exists(medium, a, b, ell, ellprime):
                if chain is None:
                    chain = _chain(mats, ellprime, b, ell)
                val = chain[a - 1]
                sigma[(a, b)] = complex(val[0]) if scalar else val.reshape(k.shape)
    return ReactionDensitySet(sigma, ell, ellprime)


class ReactionDensity:
    """Callable sigma^{ab}_{l,l'} evaluator with a cached uniform bound;
    a call sweeps only the b chain, down to layer l."""

    def __init__(self, medium, a, b, ell, ellprime):
        require_component(medium, a, b, ell, ellprime)
        self.medium = medium
        self.a = a
        self.b = b
        self.ell = ell
        self.ellprime = ellprime

    def __call__(self, k):
        mats = InterfaceMatrices(self.medium, np.atleast_1d(k))
        return _chain(mats, self.ellprime, self.b, self.ell)[self.a - 1]

    @property
    def thickest(self):
        """D_max, the thickest finite layer of the medium (0 with none)."""
        return max(_geometry(self.medium).thick)

    @property
    def bound(self):
        return density_bound(self.medium, self.ell, self.ellprime, self.a, self.b)

    @property
    def limit(self):
        """(sigma_inf, delta, M_g) of the sommerfeld module docstring's
        split, from the pass that estimates the bound."""
        return _density_bounds(self.medium, self.ell, self.ellprime, self.a, self.b)[1:]


DENSITY_BOUND_KMAX = 1.0e3
DENSITY_BOUND_SAFETY = 1.05


def _sampled_sup(f, rays, values):
    """1.05 times the largest of values (f on rays), refined four times on
    65 points around the largest sample on its ray."""
    best_val, best_ray, best_idx = 0.0, None, None
    for ray, vals in zip(rays, values):
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_ray, best_idx = float(vals[i]), ray, i
    if best_val == 0.0:
        return 0.0
    lo = best_ray[max(best_idx - 1, 0)]
    hi = best_ray[min(best_idx + 1, len(best_ray) - 1)]
    for _ in range(4):
        fine = np.linspace(lo, hi, 65)
        vals = f(fine)
        i = int(np.argmax(vals))
        best_val = max(best_val, float(vals[i]))
        lo = fine[max(i - 1, 0)]
        hi = fine[min(i + 1, len(fine) - 1)]
    return DENSITY_BOUND_SAFETY * best_val


@lru_cache(maxsize=512)
def _density_bounds(medium, ell, ellprime, a, b):
    """(M_sigma, sigma_inf, delta, M_g) of one component in one pass:
    sigma_inf is the recursion at k = inf (every e_l = 0), delta = D_min
    (inf with no finite layer, where sigma is constant and M_g = 0), and
    M_g samples |sigma - sigma_inf| e^{delta k} as M_sigma samples |sigma|,
    but on the real ray only up to 30/delta, past which sigma - sigma_inf
    is rounding noise."""
    density = ReactionDensity(medium, a, b, ell, ellprime)
    grid = np.concatenate([[0.0], np.geomspace(1e-6, DENSITY_BOUND_KMAX, 800)])
    rays = [grid + 0j, 1j * grid, -1j * grid]
    sigma = [density(ray) for ray in rays]
    bound = _sampled_sup(lambda k: np.abs(density(k)), rays, [np.abs(x) for x in sigma])
    limit = float(density(np.array([np.inf]))[0])
    delta = min((t for t in _geometry(medium).thick if t > 0.0), default=math.inf)
    if delta == math.inf:
        return bound, limit, delta, 0.0

    def remainder(k):
        return np.abs(density(k) - limit) * np.exp(delta * k.real)

    rays[0] = np.concatenate([[0.0], np.geomspace(1e-6, 30.0 / delta, 800)])
    values = [remainder(rays[0])] + [np.abs(x - limit) for x in sigma[1:]]
    return bound, limit, delta, _sampled_sup(remainder, rays, values)


def density_bound(medium, ell, ellprime, a, b):
    """Estimated sup of |sigma^{ab}| over the closed right half plane.

    sigma is analytic and bounded there, so the supremum is controlled by
    its boundary values: we sample the real ray [0, K] and the imaginary
    ray i[-K, K], K = DENSITY_BOUND_KMAX, on geometric grids, refine
    around the maximum, and multiply by a 1.05 safety factor.  The error
    theorems only need *some* valid bound; the slack absorbs grid error.
    """
    return _density_bounds(medium, ell, ellprime, a, b)[0]
