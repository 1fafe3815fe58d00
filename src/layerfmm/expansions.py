"""Multipole and local expansions with their shifting/translation operators.

Free-space expansions of 1/(4 pi |r - r'|):

    ME:  sum M_nm Y_n^m(theta_s, phi_s) / r_s^{n+1},
         M_nm = (1/(4 pi c_n^2)) sum_j q_j r_j^n conj(Y_n^m)
    LE:  sum L_nm r_t^n Y_n^m(theta_t, phi_t),
         L_nm = (1/(4 pi c_n^2)) sum_j q_j r_j^{-n-1} conj(Y_n^m)

with exact M2M, exact truncated L2L, and the M2L translation whose
truncation error decays like ((a_s+a_t)/(a_s+c a_t))^{p+1} for boxes
separated by more than a_s + c a_t, c > 1.

Reaction expansions reuse the identical coefficient formulas over the
equivalent polarization coordinates of the sources; only the basis
functions change, from solid harmonics to the Sommerfeld-type integrals
provided by the sommerfeld module.  A reaction multipole expansion is
therefore an ordinary coefficient table tagged with its component
(a, b, l, l') and centered at a polarization center.

Operator weights combine factorial-bearing constants and radial powers in
log space, which keeps everything finite through the supported orders.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import special

from .densities import ReactionDensity
from .errors import (
    BoxesNotSeparated,
    CenterOnWrongSide,
    ChargeInsideBox,
    ChargeOutsideBox,
    InvariantViolated,
    RegionViolation,
)
from .harmonics import cartesian_to_spherical, constants, sph_harm_table
from .medium import polarization_source, reflect, require_component
from .sommerfeld import radial_table


@dataclass(frozen=True)
class Box:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(
            self, "center", np.asarray(self.center, dtype=float).reshape(3)
        )


@dataclass(frozen=True)
class ChargeSystem:
    """Point charges with layer indices.

    For free-space work the layer indices are irrelevant and zero; for
    reaction work every charge must sit in the source layer of the
    component being expanded.
    """

    q: np.ndarray
    positions: np.ndarray
    layers: np.ndarray
    source_box: Box | None = None
    target_box: Box | None = None

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float).reshape(-1))
        object.__setattr__(
            self,
            "positions",
            np.asarray(self.positions, dtype=float).reshape(-1, 3),
        )
        object.__setattr__(
            self, "layers", np.asarray(self.layers, dtype=int).reshape(-1)
        )
        if not (len(self.q) == len(self.positions) == len(self.layers)):
            raise ValueError("charge arrays must have matching lengths")

    @classmethod
    def free_space(cls, q, positions, **kw):
        q = np.asarray(q, dtype=float)
        return cls(q, positions, np.zeros(len(q), dtype=int), **kw)

    @classmethod
    def in_medium(cls, medium, q, positions, **kw):
        positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        layers = np.array([medium.layer_of(p[2]) for p in positions])
        return cls(q, positions, layers, **kw)

    def __len__(self):
        return len(self.q)

    @property
    def total_abs_charge(self):
        return float(np.sum(np.abs(self.q)))


@dataclass(frozen=True)
class HarmonicExpansion:
    """Truncated coefficient table {C_nm : n <= p, |m| <= n}.

    coeff has shape (p+1, 2p+1) with order m stored at column m + p.
    kind is "multipole", "local", or "reaction_multipole"; the latter
    carries its component tag and is centered at a polarization center.
    radius records the box radius used at construction (None if unknown),
    real_sources whether the coefficients came from real charges, in
    which case evaluations must be real up to roundoff.
    """

    kind: str
    center: np.ndarray
    p: int
    coeff: np.ndarray
    radius: float | None = None
    component: tuple | None = None
    real_sources: bool = True

    def __post_init__(self):
        object.__setattr__(
            self, "center", np.asarray(self.center, dtype=float).reshape(3)
        )
        coeff = np.asarray(self.coeff, dtype=complex)
        if coeff.shape != (self.p + 1, 2 * self.p + 1):
            raise ValueError("coefficient table shape does not match p")
        object.__setattr__(self, "coeff", coeff)

    def __add__(self, other):
        if (
            self.kind != other.kind
            or self.p != other.p
            or not np.array_equal(self.center, other.center)
        ):
            raise ValueError("can only add expansions of identical kind/center/p")
        return replace(self, coeff=self.coeff + other.coeff)

    def conjugate_symmetry_defect(self):
        """max |C_{n,-m} - (-1)^m conj(C_{n,m})|, zero for real sources."""
        worst = 0.0
        for n in range(self.p + 1):
            for m in range(1, n + 1):
                lhs = self.coeff[n, -m + self.p]
                rhs = (-1.0) ** m * np.conj(self.coeff[n, m + self.p])
                worst = max(worst, abs(lhs - rhs))
        return worst


@lru_cache(maxsize=64)
def _packed_indices(p):
    ns = np.repeat(np.arange(p + 1), 2 * np.arange(p + 1) + 1)
    ms = np.concatenate([np.arange(-n, n + 1) for n in range(p + 1)])
    return ns, ms


def _pack(coeff, p):
    ns, ms = _packed_indices(p)
    return coeff[ns, ms + p]


def _unpack(flat, p):
    ns, ms = _packed_indices(p)
    out = np.zeros((p + 1, 2 * p + 1), dtype=complex)
    out[ns, ms + p] = flat
    return out


def _charge_moments(q, rel_positions, p, inverse=False):
    """Shared ME/LE coefficient kernel.

    inverse=False: (1/(4 pi c_n^2)) sum_j q_j r_j^n conj(Y_n^m(dir_j))
    inverse=True : the same with r_j^{-n-1}.
    """
    cst = constants(p)
    coeff = np.zeros((p + 1, 2 * p + 1), dtype=complex)
    ns = np.arange(p + 1)
    for qj, v in zip(q, rel_positions):
        r, theta, phi = cartesian_to_spherical(v)
        ytab = sph_harm_table(p, theta, phi)
        if inverse:
            radial = r ** (-ns - 1.0)
        else:
            radial = r ** ns.astype(float)
        coeff += qj * radial[:, None] * np.conj(ytab)
    return coeff / (4.0 * math.pi * cst.c**2)[:, None]


def me_from_charges(system, center, p, radius=None):
    """Multipole expansion of the free-space potential of charges inside
    a box of circumscribed radius `radius` about `center`."""
    center = np.asarray(center, dtype=float)
    rel = system.positions - center
    dist = np.linalg.norm(rel, axis=1)
    if radius is None:
        radius = system.source_box.radius if system.source_box else float(
            dist.max(initial=0.0)
        )
    if np.any(dist > radius * (1 + 1e-12)):
        raise ChargeOutsideBox(
            f"charge at distance {dist.max():.6g} exceeds box radius {radius:.6g}"
        )
    coeff = _charge_moments(system.q, rel, p)
    return HarmonicExpansion("multipole", center, p, coeff, radius=radius)


def le_from_charges(system, center, p, radius=None):
    """Local expansion about `center` of the free-space potential of
    charges strictly outside radius `radius`."""
    center = np.asarray(center, dtype=float)
    rel = system.positions - center
    dist = np.linalg.norm(rel, axis=1)
    if radius is None:
        radius = system.target_box.radius if system.target_box else float(
            dist.min(initial=np.inf)
        )
    if np.any(dist < radius * (1 - 1e-12)):
        raise ChargeInsideBox(
            f"charge at distance {dist.min():.6g} inside target radius {radius:.6g}"
        )
    coeff = _charge_moments(system.q, rel, p, inverse=True)
    return HarmonicExpansion("local", center, p, coeff, radius=radius)


def _require_kind(exp, kind):
    if exp.kind != kind:
        raise ValueError(f"expected a {kind} expansion, got {exp.kind}")


def m2m(exp, new_center):
    """Shift a multipole expansion to a new center.  Exact: degree n of
    the shifted table uses only degrees <= n of the original.

    Reaction multipole expansions shift with the identical coefficient
    transformation (their coefficients are free-space moments of the
    polarization sources); the new center must stay on the correct side
    of the target layer, which evaluation enforces.
    """
    if exp.kind not in ("multipole", "reaction_multipole"):
        raise ValueError(f"expected a multipole expansion, got {exp.kind}")
    p = exp.p
    shift = exp.center - np.asarray(new_center, dtype=float)
    rr, theta, phi = cartesian_to_spherical(shift)
    new_radius = None if exp.radius is None else exp.radius + rr
    if rr == 0.0:
        return replace(exp, center=np.asarray(new_center, dtype=float))
    cst = constants(p)
    ytab = sph_harm_table(p, theta, phi)
    ns, ms = _packed_indices(p)
    dn = ns[:, None] - ns[None, :]
    dm = ms[:, None] - ms[None, :]
    valid = (dn >= 0) & (np.abs(dm) <= dn)
    dn_c = np.where(valid, dn, 0)
    dm_c = np.where(valid, dm, 0)
    logw = (
        cst.log_abs_a[dn_c, np.abs(dm_c)]
        + cst.log_abs_a[ns[None, :], np.abs(ms[None, :])]
        - 2.0 * cst.log_c[dn_c]
        - cst.log_abs_a[ns[:, None], np.abs(ms[:, None])]
        + dn_c * math.log(rr)
    )
    sign = np.where((np.abs(ms[:, None]) + np.abs(ms[None, :])) % 2 == 0, 1.0, -1.0)
    w = np.where(valid, sign * np.exp(logw) * ytab[dn_c, -dm_c + p], 0.0)
    flat = w @ _pack(exp.coeff, p)
    return replace(
        exp,
        center=np.asarray(new_center, dtype=float),
        coeff=_unpack(flat, p),
        radius=new_radius,
    )


def l2l(exp, new_center):
    """Shift a truncated local expansion; exact as a polynomial identity
    (the shifted table reproduces the original partial sum pointwise)."""
    _require_kind(exp, "local")
    p = exp.p
    shift = exp.center - np.asarray(new_center, dtype=float)
    rr, theta, phi = cartesian_to_spherical(shift)
    if rr == 0.0:
        return replace(exp, center=np.asarray(new_center, dtype=float))
    cst = constants(p)
    ytab = sph_harm_table(p, theta, phi)
    ns, ms = _packed_indices(p)
    dn = ns[None, :] - ns[:, None]  # nu - n
    dm = ms[None, :] - ms[:, None]  # mu - m
    valid = (dn >= 0) & (np.abs(dm) <= dn)
    dn_c = np.where(valid, dn, 0)
    dm_c = np.where(valid, dm, 0)
    logw = (
        2.0 * cst.log_c[ns[None, :]]
        + cst.log_abs_a[dn_c, np.abs(dm_c)]
        + cst.log_abs_a[ns[:, None], np.abs(ms[:, None])]
        - 2.0 * cst.log_c[dn_c]
        - 2.0 * cst.log_c[ns[:, None]]
        - cst.log_abs_a[ns[None, :], np.abs(ms[None, :])]
        + dn_c * math.log(rr)
    )
    sign = np.where(
        (dn_c + np.abs(dm_c) + np.abs(ms[None, :]) + np.abs(ms[:, None])) % 2 == 0,
        1.0,
        -1.0,
    )
    w = np.where(valid, sign * np.exp(logw) * ytab[dn_c, dm_c + p], 0.0)
    flat = w @ _pack(exp.coeff, p)
    return replace(
        exp, center=np.asarray(new_center, dtype=float), coeff=_unpack(flat, p)
    )


def m2l_free(exp, target_center, p, target_radius=None):
    """Translate a free-space multipole expansion into a local expansion
    about a well-separated target center."""
    _require_kind(exp, "multipole")
    target_center = np.asarray(target_center, dtype=float)
    sep = exp.center - target_center
    rr, theta, phi = cartesian_to_spherical(sep)
    if exp.radius is not None and target_radius is not None:
        if rr <= exp.radius + target_radius:
            raise BoxesNotSeparated(
                f"center distance {rr:.6g} <= a_s + a_t = "
                f"{exp.radius + target_radius:.6g}"
            )
    cst2 = constants(2 * max(p, exp.p))
    ytab = sph_harm_table(2 * max(p, exp.p), theta, phi)
    off = 2 * max(p, exp.p)
    ns, ms = _packed_indices(p)
    nu, mu = _packed_indices(exp.p)
    sn = ns[:, None] + nu[None, :]
    dm = mu[None, :] - ms[:, None]
    logw = (
        cst2.log_abs_a[nu[None, :], np.abs(mu[None, :])]
        + cst2.log_abs_a[ns[:, None], np.abs(ms[:, None])]
        - 2.0 * cst2.log_c[ns[:, None]]
        - cst2.log_abs_a[sn, np.abs(dm)]
        - (sn + 1.0) * math.log(rr)
    )
    sign = np.where((nu[None, :] + np.abs(ms[:, None])) % 2 == 0, 1.0, -1.0)
    w = sign * np.exp(logw) * ytab[sn, dm + off]
    flat = w @ _pack(exp.coeff, exp.p)
    return HarmonicExpansion(
        "local",
        target_center,
        p,
        _unpack(flat, p),
        radius=target_radius,
        real_sources=exp.real_sources,
    )


def _check_real(val, terms):
    """An expansion of real charges must sum to a real value, up to
    roundoff in its terms (a NaN residue fails too)."""
    scale = float(np.abs(terms).sum())
    if not abs(val.imag) <= 1e-10 * abs(val) + 1e-12 * (scale + 1e-300):
        raise InvariantViolated(
            f"imaginary residue {val.imag} too large for a real charge system"
        )


def eval_expansion(exp, r):
    """Evaluate a multipole or local expansion at a point.

    Outside the region of validity a RegionViolation warning is issued
    and the value still returned, which diagnostic sweeps rely on.
    """
    r = np.asarray(r, dtype=float)
    v = r - exp.center
    rr, theta, phi = cartesian_to_spherical(v)
    ytab = sph_harm_table(exp.p, theta, phi)
    ns = np.arange(exp.p + 1)
    if exp.kind == "multipole":
        if exp.radius is not None and rr <= exp.radius:
            warnings.warn("evaluation inside the source box", RegionViolation)
        radial = rr ** (-ns - 1.0)
    elif exp.kind == "local":
        if exp.radius is not None and rr >= exp.radius:
            warnings.warn("evaluation outside the target box", RegionViolation)
        with np.errstate(invalid="ignore"):
            radial = rr ** ns.astype(float)
        if rr == 0.0:
            radial = np.zeros(exp.p + 1)
            radial[0] = 1.0
    else:
        raise ValueError(
            "reaction multipole expansions are evaluated with eval_reaction_me"
        )
    terms = exp.coeff * ytab * radial[:, None]
    val = complex(terms.sum())
    if exp.real_sources:
        _check_real(val, terms)
        return val.real
    return val


def direct_potential(system, r):
    """Brute-force free-space potential sum, the oracle for every
    free-space expansion test."""
    r = np.asarray(r, dtype=float)
    d = np.linalg.norm(system.positions - r, axis=1)
    return float(np.sum(system.q / (4.0 * math.pi * d)))


# ---------------------------------------------------------------------------
# reaction expansions
# ---------------------------------------------------------------------------

def _check_polarization_center(medium, a, center, ell):
    d = medium.interfaces
    z = float(np.asarray(center)[2])
    if a == 1 and not z < d[ell]:
        raise CenterOnWrongSide(
            f"a=1 polarization center must satisfy z < d_l = {d[ell]}, got {z}"
        )
    if a == 2 and not z > d[ell - 1]:
        raise CenterOnWrongSide(
            f"a=2 polarization center must satisfy z > d_(l-1) = {d[ell - 1]},"
            f" got {z}"
        )


def polarization_coordinates(system, medium, a, b, ell, ellprime):
    """Equivalent polarization positions of every charge in the system."""
    if np.any(system.layers != ellprime):
        raise ValueError(
            f"all charges must lie in source layer {ellprime} for this component"
        )
    return np.array(
        [
            polarization_source(medium, a, b, ell, ellprime, pos)
            for pos in system.positions
        ]
    )


def reaction_me_from_charges(
    system, medium, a, b, ell, ellprime, center, p, radius=None
):
    """Reaction multipole expansion about a polarization center: the
    free-space coefficient formula applied to the polarization
    coordinates of the charges."""
    require_component(medium, a, b, ell, ellprime)
    center = np.asarray(center, dtype=float)
    _check_polarization_center(medium, a, center, ell)
    img = polarization_coordinates(system, medium, a, b, ell, ellprime)
    rel = img - center
    dist = np.linalg.norm(rel, axis=1)
    if radius is None:
        radius = float(dist.max(initial=0.0))
    if np.any(dist > radius * (1 + 1e-12)):
        raise ChargeOutsideBox(
            f"polarization source at distance {dist.max():.6g} exceeds "
            f"box radius {radius:.6g}"
        )
    coeff = _charge_moments(system.q, rel, p)
    return HarmonicExpansion(
        "reaction_multipole",
        center,
        p,
        coeff,
        radius=radius,
        component=(a, b, ell, ellprime),
    )


def _integral_reference(bound, zeta, powers):
    """Analytic magnitude bound M_sigma Gamma(n+1)/zeta^{n+1} used to
    scale per-entry quadrature tolerances."""
    powers = np.asarray(powers, dtype=float)
    return bound * special.gamma(powers + 1.0) / zeta ** (powers + 1.0)


def _table_tolerances(bound, zeta, powers, orders, rel_tol):
    ref = _integral_reference(bound, zeta, powers)
    tol = np.full((len(powers), len(orders)), np.inf)
    for i, n in enumerate(powers):
        for j, m in enumerate(orders):
            if m <= n:
                tol[i, j] = max(rel_tol * ref[i], 1e-300)
    return tol


def reaction_basis_table(medium, component, p, r, center, rel_tol=1e-11,
                         form="polarization"):
    """All multipole basis values F_nm^{ab}(r, center), n <= p, on shared
    quadrature nodes.  rel_tol is relative to each integral's analytic
    magnitude bound.

    form="polarization": center is a polarization center, kernel argument
    r - center (reflected for a=2), sign alternating with n (a=1) or m
    (a=2).  form="direct": center is the physical source center in layer
    l', kernel argument tau^{ab}(r, center), sign selected by b.
    """
    from .medium import tau_map

    a, b, ell, ellprime = component
    density = ReactionDensity(medium, a, b, ell, ellprime)
    r = np.asarray(r, dtype=float)
    if form == "polarization":
        v = r - center if a == 1 else reflect(r - center)
        sign_kind = "n" if a == 1 else "m"
    elif form == "direct":
        v = tau_map(medium, a, b, ell, ellprime, r, center)
        sign_kind = "m" if b == 1 else "n"
    else:
        raise ValueError(f"unknown basis form {form!r}")
    rho = math.hypot(v[0], v[1])
    phi = math.atan2(v[1], v[0]) if rho > 0 else 0.0
    zeta = float(v[2])
    if zeta <= 0:
        raise CenterOnWrongSide(
            "target and expansion center on the wrong sides (zeta <= 0)"
        )
    powers = np.arange(p + 1)
    orders = np.arange(p + 1)
    tol = _table_tolerances(density.bound, zeta, powers, orders, rel_tol)
    table, _, stats = radial_table(density, rho, zeta, powers, orders, tol)
    cst = constants(p)
    out = np.zeros((p + 1, 2 * p + 1), dtype=complex)
    for n in range(p + 1):
        for m in range(-n, n + 1):
            sign = (-1.0) ** n if sign_kind == "n" else (-1.0) ** m
            pref = sign * cst.c[n] ** 2 * cst.C(n, m) * (1j) ** m * np.exp(
                1j * m * phi
            )
            val = table[n, abs(m)] * ((-1.0) ** abs(m) if m < 0 else 1.0)
            out[n, m + p] = pref * val
    return out, stats


def eval_reaction_me(exp, medium, r, rel_tol=1e-11):
    """Evaluate a reaction multipole expansion: sum M_nm F_nm(r, center)."""
    _require_kind(exp, "reaction_multipole")
    basis, _ = reaction_basis_table(
        medium, exp.component, exp.p, r, exp.center, rel_tol
    )
    terms = exp.coeff * basis
    val = complex(terms.sum())
    if exp.real_sources:
        _check_real(val, terms)
        return val.real
    return val


def reaction_le_from_charges(
    system, medium, a, b, ell, ellprime, center, p, radius=None, rel_tol=1e-11
):
    """Local expansion of the reaction field of far-away charges about a
    target center in layer l: per-charge Sommerfeld coefficient integrals,
    summed with the charge weights."""
    require_component(medium, a, b, ell, ellprime)
    center = np.asarray(center, dtype=float)
    density = ReactionDensity(medium, a, b, ell, ellprime)
    img = polarization_coordinates(system, medium, a, b, ell, ellprime)
    if radius is not None:
        dist = np.linalg.norm(img - center, axis=1)
        if np.any(dist <= radius):
            raise ChargeInsideBox(
                "a polarization source lies inside the target radius"
            )
    cst = constants(p)
    powers = np.arange(p + 1)
    orders = np.arange(p + 1)
    coeff = np.zeros((p + 1, 2 * p + 1), dtype=complex)
    for qj, pos in zip(system.q, img):
        w = center - pos
        if a == 2:
            w = reflect(w)
        rho = math.hypot(w[0], w[1])
        phi = math.atan2(w[1], w[0]) if rho > 0 else 0.0
        zeta = float(w[2])
        tol = _table_tolerances(density.bound, zeta, powers, orders, rel_tol)
        table, _, _ = radial_table(density, rho, zeta, powers, orders, tol)
        for n in range(p + 1):
            for m in range(-n, n + 1):
                sign = 1.0 if a == 1 else (-1.0) ** (n + m)
                pref = (
                    sign
                    * cst.C(n, m)
                    / (4.0 * math.pi)
                    * (1j) ** m
                    * np.exp(-1j * m * phi)
                )
                val = table[n, abs(m)] * ((-1.0) ** abs(m) if m < 0 else 1.0)
                coeff[n, m + p] += qj * pref * val
    return HarmonicExpansion("local", center, p, coeff, radius=radius)


def reaction_m2l_matrix(exp, medium, target_center, p, rel_tol=1e-11):
    """Dense reaction M2L operator mapping packed multipole coefficients
    (degree <= exp.p) to packed local coefficients (degree <= p)."""
    _require_kind(exp, "reaction_multipole")
    a, b, ell, ellprime = exp.component
    density = ReactionDensity(medium, a, b, ell, ellprime)
    target_center = np.asarray(target_center, dtype=float)
    v = target_center - exp.center
    if a == 2:
        v = reflect(v)
    rho = math.hypot(v[0], v[1])
    phi = math.atan2(v[1], v[0]) if rho > 0 else 0.0
    zeta = float(v[2])
    if zeta <= 0:
        raise CenterOnWrongSide(
            "target center and polarization center violate the side condition"
        )
    pmax = max(p, exp.p)
    powers = np.arange(2 * pmax + 1)
    orders = np.arange(2 * pmax + 1)
    tol = _table_tolerances(density.bound, zeta, powers, orders, rel_tol)
    table, _, stats = radial_table(density, rho, zeta, powers, orders, tol)

    cst = constants(pmax)
    ns, ms = _packed_indices(p)
    nu, mu = _packed_indices(exp.p)
    sn = ns[:, None] + nu[None, :]
    dm = mu[None, :] - ms[:, None]
    cvals_t = cst.c_table[ns, ms + pmax][:, None]
    cvals_s = cst.c_table[nu, mu + pmax][None, :]
    if a == 1:
        sign = np.where(nu[None, :] % 2 == 0, 1.0, -1.0)
    else:
        sign = np.where((ns[:, None] + ms[:, None] + mu[None, :]) % 2 == 0, 1.0, -1.0)
    ivals = table[sn, np.abs(dm)] * np.where(dm < 0, (-1.0) ** np.abs(dm), 1.0)
    phase = (1j) ** dm * np.exp(1j * dm * phi)
    return (
        sign * cst.c[nu[None, :]] ** 2 * cvals_t * cvals_s * phase * ivals,
        stats,
    )


def m2l_reaction(exp, medium, target_center, p, rel_tol=1e-11, target_radius=None):
    """Translate a reaction multipole expansion into a free-space-basis
    local expansion about a well-separated target center."""
    target_center = np.asarray(target_center, dtype=float)
    if exp.radius is not None and target_radius is not None:
        sep = float(np.linalg.norm(target_center - exp.center))
        if sep <= exp.radius + target_radius:
            raise BoxesNotSeparated(
                f"center distance {sep:.6g} <= a_s + a_t = "
                f"{exp.radius + target_radius:.6g}"
            )
    tmat, _ = reaction_m2l_matrix(exp, medium, target_center, p, rel_tol)
    flat = tmat @ _pack(exp.coeff, exp.p)
    return HarmonicExpansion(
        "local",
        target_center,
        p,
        _unpack(flat, p),
        radius=target_radius,
        real_sources=exp.real_sources,
    )


def truncated(exp, p):
    """The same expansion with all coefficients of degree > p dropped."""
    if p >= exp.p:
        return exp
    coeff = exp.coeff[: p + 1, exp.p - p : exp.p + p + 1]
    return replace(exp, p=p, coeff=coeff)
