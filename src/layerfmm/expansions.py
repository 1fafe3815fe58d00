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
functions change, from solid harmonics to Sommerfeld-type integrals.  A
reaction multipole expansion is therefore an ordinary coefficient table
tagged with its component (a, b, l, l') and centered at a polarization
center.  The reaction operators are one operator, _reaction_operator:
the M2L matrix T_{nm,n'm'}, a closed-form prefactor times a radial
integral from the sommerfeld module's tables.  With c_0 = 1/sqrt(4 pi),
the multipole basis is c_0 times its row 0 (target degree 0) and a unit
charge's local expansion c_0 times its column 0 (source degree 0).

Each free translation weight is a constant, assembled once in log space
from the factorial-bearing tables, times r^s for the degree s of the
shift vector's harmonic it gathers (r^-(s+1) for M2L), so a call scales
that small harmonics table by the powers of r, not every weight.  m2m,
l2l and m2l_free cache their last two orders' constants and gather
indices, 12 bytes an entry: 0.18, 2.3, 166 MB at p = 10, 20, 60
(m2l_free p <= 30); _reaction_operator its last four (p, p')'s, 24 bytes
an entry: 0.35, 4.7, 22 MB at p = p' = 10, 20, 30.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .densities import ReactionDensity
from .errors import (
    BoxesNotSeparated,
    CenterOnWrongSide,
    ChargeInsideBox,
    ChargeOutsideBox,
    DomainError,
    InvariantViolated,
    OrderTooHigh,
    RegionViolation,
)
from .harmonics import (
    MAX_ORDER,
    _read_only,
    cartesian_to_spherical,
    constants,
    sph_harm_table,
)
from .medium import polarization_source, reflect, require_component, tau_map
from .sommerfeld import _GAMMA, _radial_tables, radial_table


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
    radius records the box radius used at construction (None if unknown).
    """

    kind: str
    center: np.ndarray
    p: int
    coeff: np.ndarray
    radius: float | None = None
    component: tuple | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "center", np.asarray(self.center, dtype=float).reshape(3)
        )
        coeff = np.asarray(self.coeff, dtype=complex)
        if coeff.shape != (self.p + 1, 2 * self.p + 1):
            raise ValueError("coefficient table shape does not match p")
        object.__setattr__(self, "coeff", coeff)

    def conjugate_symmetry_defect(self):
        """max |C_{n,-m} - (-1)^m conj(C_{n,m})|, zero for real sources."""
        ns, ms = _packed_indices(self.p)
        n, m = ns[ms > 0], ms[ms > 0]
        d = self.coeff[n, self.p - m] - (-1.0) ** m * np.conj(self.coeff[n, m + self.p])
        # np.hypot rounds as abs() of one complex value does; np.abs may not
        return float(np.hypot(d.real, d.imag).max(initial=0.0))


@lru_cache(maxsize=64)
def _packed_indices(p):
    ns = np.repeat(np.arange(p + 1), 2 * np.arange(p + 1) + 1)
    ms = np.concatenate([np.arange(-n, n + 1) for n in range(p + 1)])
    return _read_only(ns, ms)


def _pack(coeff, p):
    ns, ms = _packed_indices(p)
    return coeff[ns, ms + p]


def _unpack(flat, p):
    """Packed coefficients along the last axis back to (p+1, 2p+1) tables."""
    ns, ms = _packed_indices(p)
    out = np.zeros(np.shape(flat)[:-1] + (p + 1, 2 * p + 1), dtype=complex)
    out[..., ns, ms + p] = flat
    return out


def _charge_moments(q, rel_positions, p, inverse=False):
    """Shared ME/LE coefficient kernel.

    inverse=False: (1/(4 pi c_n^2)) sum_j q_j r_j^n conj(Y_n^m(dir_j))
    inverse=True : the same with r_j^{-n-1}.
    One harmonics table serves all charges.
    """
    cst = constants(p)
    r, theta, phi = cartesian_to_spherical(rel_positions)
    ns = np.arange(p + 1)
    radial = r[:, None] ** (-ns - 1.0 if inverse else ns.astype(float))
    ytab = sph_harm_table(p, theta, phi)
    coeff = ((q[:, None] * radial)[..., None] * np.conj(ytab)).sum(axis=0)
    return coeff / (4.0 * math.pi * cst.c**2)[:, None]


def _multipole(kind, q, positions, center, p, radius, what, component=None):
    """Expansion of the given kind with the multipole moments of charges q
    at positions about center: radius defaults to the farthest position,
    and a position beyond it raises ChargeOutsideBox, naming the position
    `what`."""
    center = np.asarray(center, dtype=float)
    rel = positions - center
    dist = np.linalg.norm(rel, axis=1)
    if radius is None:
        radius = float(dist.max(initial=0.0))
    if np.any(dist > radius * (1 + 1e-12)):
        raise ChargeOutsideBox(
            f"{what} at distance {dist.max():.6g} exceeds box radius {radius:.6g}"
        )
    coeff = _charge_moments(q, rel, p)
    return HarmonicExpansion(kind, center, p, coeff, radius=radius, component=component)


def me_from_charges(system, center, p, radius=None):
    """Multipole expansion of the free-space potential of charges inside
    a box of circumscribed radius `radius` about `center`."""
    if radius is None and system.source_box:
        radius = system.source_box.radius
    return _multipole("multipole", system.q, system.positions, center, p, radius,
                      "charge")


def le_from_charges(system, center, p, radius=None):
    """Local expansion about `center` of the free-space potential of
    charges strictly outside radius `radius`."""
    center = np.asarray(center, dtype=float)
    rel = system.positions - center
    dist = np.linalg.norm(rel, axis=1)
    if radius is None:
        radius = float(dist.min(initial=np.inf))
    if np.any(dist < radius * (1 - 1e-12)) or np.any(dist == 0.0):
        raise ChargeInsideBox(
            f"charge at distance {dist.min():.6g} inside target radius {radius:.6g}"
        )
    coeff = _charge_moments(system.q, rel, p, inverse=True)
    return HarmonicExpansion("local", center, p, coeff, radius=radius)


def _require_kind(exp, kind):
    if exp.kind != kind:
        raise DomainError(f"expected a {kind} expansion, got {exp.kind}")


def _translation(p, source_p, block, zero=0):
    """Read-only geometry-free parts of w = weight r^s ytab.flat[index],
    where s is the degree of the harmonic at index: float64 weight
    (-1)^parity exp(logw0) and int32 index, from block(n, m, nu, mu) ->
    valid, logw0, parity, index run on 2^14 entries at a time, to build in
    little more memory than the result.  An invalid entry reads the zero
    harmonic ytab.flat[zero]."""
    ns, ms = _packed_indices(p)
    nu, mu = _packed_indices(source_p)
    weight = np.empty((len(ns), len(nu)))
    index = np.empty(weight.shape, np.int32)
    step = max(1, (1 << 14) // len(nu))
    for rows in (slice(lo, lo + step) for lo in range(0, len(ns), step)):
        valid, logw0, parity, at = block(ns[rows, None], ms[rows, None], nu, mu)
        w = np.exp(logw0)
        weight[rows] = np.where(valid, np.where(parity % 2 == 1, -w, w), 0.0)
        index[rows] = np.where(valid, at, zero)
    return _read_only(weight, index)


def _translate(weights, ytab, radial, flat):
    """w @ flat: row s of ytab times radial[s] (the power of r in every
    weight that gathers a degree-s harmonic), gathered, then times the
    cached weights in place."""
    weight, index = weights
    g = np.take(np.multiply(ytab, radial), index)
    return np.multiply(weight, g, out=g) @ flat


def _shifted(exp, new_center, weights, grow=False):
    """exp about new_center by the shift weights(exp.p), whose degree-s
    harmonics carry r^s; grow widens radius."""
    new_center = np.asarray(new_center, dtype=float)
    rr, theta, phi = cartesian_to_spherical(exp.center - new_center)
    if rr == 0.0:
        return replace(exp, center=new_center)
    radius = exp.radius + rr if grow and exp.radius is not None else exp.radius
    ytab = sph_harm_table(exp.p, theta, phi)
    radial = rr ** _radial_powers(exp.p)[0]
    flat = _translate(weights(exp.p), ytab, radial, _pack(exp.coeff, exp.p))
    return replace(exp, center=new_center, coeff=_unpack(flat, exp.p), radius=radius)


@lru_cache(maxsize=2)
def _m2m_weights(p):
    cst = constants(p)

    def block(n, m, nu, mu):
        dn, dm = n - nu, m - mu
        valid = (dn >= 0) & (np.abs(dm) <= dn)  # the pairs the shift couples
        dm = np.where(valid, dm, 0)  # keeps |dm| inside the tables
        logw0 = (
            cst.log_abs_a[dn, np.abs(dm)]
            + cst.log_abs_a[nu, np.abs(mu)]
            - 2.0 * cst.log_c[dn]
            - cst.log_abs_a[n, np.abs(m)]
        )
        return valid, logw0, np.abs(m) + np.abs(mu), dn * (2 * p + 1) - dm + p

    # an uncoupled pair reads ytab[0, 2p], order p above degree 0: zero
    return _translation(p, p, block, zero=2 * p)


def m2m(exp, new_center):
    """Shift a multipole expansion to a new center.  Exact: degree n of
    the shifted table uses only degrees <= n of the original.

    Reaction multipole expansions shift with the identical coefficient
    transformation (their coefficients are free-space moments of the
    polarization sources); the new center must stay on the correct side
    of the target layer, which evaluation enforces.
    """
    if exp.kind not in ("multipole", "reaction_multipole"):
        raise DomainError(f"expected a multipole expansion, got {exp.kind}")
    return _shifted(exp, new_center, _m2m_weights, grow=True)


@lru_cache(maxsize=2)
def _l2l_weights(p):
    cst = constants(p)

    def block(n, m, nu, mu):
        dn, dm = nu - n, mu - m
        valid = (dn >= 0) & (np.abs(dm) <= dn)
        dm = np.where(valid, dm, 0)
        logw0 = (
            2.0 * cst.log_c[nu]
            + cst.log_abs_a[dn, np.abs(dm)]
            + cst.log_abs_a[n, np.abs(m)]
            - 2.0 * cst.log_c[dn]
            - 2.0 * cst.log_c[n]
            - cst.log_abs_a[nu, np.abs(mu)]
        )
        parity = dn + np.abs(dm) + np.abs(mu) + np.abs(m)
        return valid, logw0, parity, dn * (2 * p + 1) + dm + p

    return _translation(p, p, block, zero=2 * p)


def l2l(exp, new_center):
    """Shift a truncated local expansion; exact as a polynomial identity
    (the shifted table reproduces the original partial sum pointwise)."""
    _require_kind(exp, "local")
    return _shifted(exp, new_center, _l2l_weights)


@lru_cache(maxsize=2)
def _m2l_weights(p, source_p):
    off = 2 * max(p, source_p)
    cst2 = constants(off)

    def block(n, m, nu, mu):
        sn, dm = n + nu, mu - m
        logw0 = (
            cst2.log_abs_a[nu, np.abs(mu)]
            + cst2.log_abs_a[n, np.abs(m)]
            - 2.0 * cst2.log_c[n]
            - cst2.log_abs_a[sn, np.abs(dm)]
        )
        # the harmonic of degree sn carries r^-(sn + 1)
        return True, logw0, nu + np.abs(m), sn * (2 * off + 1) + dm + off

    return _translation(p, source_p, block)


def _require_separated(exp, distance, target_radius):
    """BoxesNotSeparated unless the centers are farther apart than the
    source and target radii together (when both are known)."""
    if exp.radius is not None and target_radius is not None:
        if distance <= exp.radius + target_radius:
            raise BoxesNotSeparated(
                f"center distance {distance:.6g} <= a_s + a_t = "
                f"{exp.radius + target_radius:.6g}"
            )


def m2l_free(exp, target_center, p, target_radius=None):
    """Translate a free-space multipole expansion into a local expansion
    about a well-separated target center.  Its weights need the constants
    of order 2 max(p, exp.p), so an order above MAX_ORDER / 2 raises
    OrderTooHigh."""
    _require_kind(exp, "multipole")
    top = max(p, exp.p)
    if 2 * top > MAX_ORDER:
        raise OrderTooHigh(
            f"p_max={top} exceeds supported maximum {MAX_ORDER // 2} of a free-space M2L"
        )
    target_center = np.asarray(target_center, dtype=float)
    rr, theta, phi = cartesian_to_spherical(exp.center - target_center)
    if rr == 0.0:
        raise BoxesNotSeparated("source and target centers coincide")
    _require_separated(exp, rr, target_radius)
    ytab = sph_harm_table(2 * top, theta, phi)
    radial = rr ** _radial_powers(2 * top)[1]
    flat = _translate(_m2l_weights(p, exp.p), ytab, radial, _pack(exp.coeff, exp.p))
    return HarmonicExpansion(
        "local", target_center, p, _unpack(flat, p), radius=target_radius
    )


def _expansion_sum(exp, functions):
    """sum over (n, m) of exp.coeff times functions[..., n, m], one value
    per leading index (a float for none).  An expansion of real charges
    must sum to a real value at each point, |Im v| <= 1e-10 |v| +
    1e-12 sum |terms| (a NaN residue fails too), and returns the real
    part.  |Im v| <= 1e-10 |v| alone suffices, so the sum of |terms| is
    formed only where that fails; one point stays on Python scalars."""
    terms = exp.coeff * functions
    val = terms.sum(axis=(-2, -1))
    if val.ndim:
        real = (np.abs(val.imag) <= 1e-10 * np.abs(val)).all()
    else:
        val = complex(val)
        real = abs(val.imag) <= 1e-10 * abs(val)
    if not real:
        scale = np.abs(terms).sum(axis=(-2, -1))
        real = np.abs(val.imag) <= 1e-10 * np.abs(val) + 1e-12 * (scale + 1e-300)
        if not real.all():
            raise InvariantViolated(
                f"imaginary residue {np.asarray(val.imag)[~real][0]} too large "
                "for a real charge system"
            )
    return val.real


@lru_cache(maxsize=64)
def _radial_powers(p):
    """Read-only powers of r of degrees 0..p as (p+1, 1) columns: n for a
    local expansion, -n-1 for a multipole expansion."""
    ns = np.arange(p + 1.0)[:, None]
    return _read_only(ns, -ns - 1.0)


def solid_harmonics(exp, points):
    """The functions a free-space multipole or local expansion sums, at
    points along the last axis of `points`: Y_n^m / r^{n+1} or r^n Y_n^m
    about exp.center, shape points.shape[:-1] + (p+1, 2p+1); the terms of
    the expansion are exp.coeff times these.

    A multipole expansion is singular at its center (DomainError), and a
    point without a finite radius is a DomainError too.  Points outside
    the region of validity give a RegionViolation warning and their
    values, which diagnostic sweeps rely on.
    """
    v = np.asarray(points, dtype=float) - exp.center
    rr, theta, phi = cartesian_to_spherical(v)
    # one point keeps r on a Python float; a batch needs only its extremes
    if v.ndim == 1:
        near = far = rr
    else:
        near, far = rr.min(initial=math.inf), rr.max(initial=0.0)
        rr = rr[..., None, None]
    local, multipole = _radial_powers(exp.p)
    if exp.kind == "multipole":
        if near == 0.0:
            raise DomainError("multipole expansion evaluated at its center")
        if exp.radius is not None and near <= exp.radius:
            warnings.warn("evaluation inside the source box", RegionViolation)
        radial = rr**multipole
    elif exp.kind == "local":
        if exp.radius is not None and far >= exp.radius:
            warnings.warn("evaluation outside the target box", RegionViolation)
        radial = rr**local
    else:
        raise DomainError(
            "reaction multipole expansions are evaluated with eval_reaction_me"
        )
    return sph_harm_table(exp.p, theta, phi) * radial


def eval_expansion(exp, r):
    """Evaluate a multipole or local expansion at a point, or at each row
    of an (N, 3) array of points (an array of N values), with the region
    warnings of solid_harmonics."""
    return _expansion_sum(exp, solid_harmonics(exp, r))


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
        raise DomainError(f"every charge must lie in layer {ellprime}")
    return polarization_source(medium, a, b, ell, ellprime, system.positions)


def reaction_me_from_charges(
    system, medium, a, b, ell, ellprime, center, p, radius=None
):
    """Reaction multipole expansion about a polarization center: the
    free-space coefficient formula applied to the polarization
    coordinates of the charges."""
    require_component(medium, a, b, ell, ellprime)
    _check_polarization_center(medium, a, center, ell)
    img = polarization_coordinates(system, medium, a, b, ell, ellprime)
    return _multipole("reaction_multipole", system.q, img, center, p, radius,
                      "polarization source", (a, b, ell, ellprime))


def _kernel_vector(medium, component, r, center, form):
    """Kernel argument vector of a reaction operator, and whether its
    basis entries F_nm flip by (-1)^{n+m} against the polarization form.

    form="polarization": center is a polarization center (an ME center,
    or a charge's polarization position for LE and M2L); the argument is
    r - center, reflected in the xy-plane for a=2.  form="direct": center
    is a physical source point in layer l'; the argument is tau^{ab}(r,
    center), and the basis flips when a = b.  r and center may be arrays
    of points along the last axis (broadcast); so is the argument then.
    """
    a, b = component[:2]
    if form == "polarization":
        v = np.subtract(r, center, dtype=float)
        return (v if a == 1 else reflect(v)), False
    if form == "direct":
        return tau_map(medium, *component, r, center), a == b
    raise DomainError(f"unknown basis form {form!r}")


def _reaction_table(medium, component, v, top, rel_tol):
    """Radial integrals I(n, m), 0 <= n, m <= top, of the component's
    density at kernel argument v, with the azimuth phi of v.

    Each entry with m <= n is computed to rel_tol times its analytic
    magnitude bound M_sigma Gamma(n+1)/zeta^{n+1}; entries with m > n do
    not drive refinement.  v is one vector (radial_table) or an (N, 3)
    array of them, whose N tables share quadrature grids
    (_radial_tables).  Returns (table, phi, stats), with table of shape
    (N, top+1, top+1) and phi of shape (N,) for a batch.
    """
    density = ReactionDensity(medium, *component)
    v = np.asarray(v, dtype=float)
    rho = np.hypot(v[..., 0], v[..., 1])
    phi = np.where(rho > 0, np.arctan2(v[..., 1], v[..., 0]), 0.0)
    zeta = v[..., 2]
    if not np.all(zeta > 0):
        raise CenterOnWrongSide(
            "target and expansion center on the wrong sides "
            f"(zeta = {float(np.min(zeta))})"
        )
    n = np.arange(top + 1)
    ref = density.bound * _GAMMA[n] / zeta[..., None] ** (n + 1.0)
    tol = np.where(
        n[None, :] <= n[:, None],
        np.maximum(rel_tol * ref[..., :, None], 1e-300),
        np.inf,
    )
    # one vector goes through the public radial_table, whose calls the
    # benchmark's tracer counts per table
    if v.ndim == 1:
        table, _, stats = radial_table(density, float(rho), float(zeta), n, n, tol)
    else:
        table, _, stats = _radial_tables(density, rho, zeta, n, n, tol)
    return table, phi, stats


@lru_cache(maxsize=4)
def _reaction_m2l_weights(p, source_p):
    """Read-only geometry-free parts of _reaction_operator at target
    degree p and source degree source_p, 24 bytes an entry: the weight
    c_n'^2 C_n^m C_n'^m' (complex128), the flat index of I(n + n',
    |m' - m|) in a table of top p + source_p (int32), that of the phase of
    m' - m (int16), and for a = 1 and a = 2 whether the basis sign times
    the J_{-m} fold is -1 (bool).  Negation commutes with rounding, so
    applying that sign last gives the entries of the product taken in the
    per-call order.  Four keys cover an M2L order and the basis and LE
    tables that certify it."""
    pmax = max(p, source_p)
    cst = constants(pmax)
    ns, ms = _packed_indices(p)
    nu, mu = _packed_indices(source_p)
    sn = ns[:, None] + nu[None, :]
    dm = mu[None, :] - ms[:, None]
    weight = (cst.c[nu[None, :]] ** 2 * cst.c_table[ns, ms + pmax][:, None]
              * cst.c_table[nu, mu + pmax][None, :])
    fold = (dm < 0) & (dm % 2 == 1)
    signs = (nu[None, :], ns[:, None] + ms[:, None] + mu[None, :])
    neg = [fold ^ (k % 2 == 1) for k in signs]
    index = (sn * (p + source_p + 1) + np.abs(dm)).astype(np.int32)
    return _read_only(weight, index, (dm + p + source_p).astype(np.int16), *neg)


def _reaction_operator(medium, component, v, p, source_p, rel_tol, flip=False):
    """The reaction operator T_{nm,n'm'}, n <= p, n' <= source_p, at
    kernel argument v (see _kernel_vector): the basis sign times
    c_n'^2 C_n^m C_n'^m' i^{m'-m} e^{i(m'-m) phi} I(n + n', |m' - m|),
    with J_{-m} = (-1)^m J_m folded in, over packed indices.

    It is the reaction M2L matrix, and with c_0 = 1/sqrt(4 pi), c_0 times
    its row 0 at p = 0 is the multipole basis, c_0 times its column 0 at
    source_p = 0 a unit charge's local expansion.  flip applies the
    direct form's (-1)^{n+m+n'+m'}.  v is one vector or an array of them
    along the last axis, whose tables share quadrature grids; returns
    (T, stats), T of shape v.shape[:-1] + ((p+1)^2, (source_p+1)^2).
    """
    v = np.asarray(v, dtype=float)
    lead, top = v.shape[:-1], p + source_p
    table, phi, stats = _reaction_table(
        medium, component, v.reshape(-1, 3) if lead else v, top, rel_tol
    )
    weight, index, dm, *neg = _reaction_m2l_weights(p, source_p)
    d = np.arange(-top, top + 1)
    phase = np.take((1j) ** d * np.exp(1j * d * phi[..., None]), dm, axis=-1)
    out = np.take(table.reshape(phi.shape + ((top + 1) ** 2,)), index, axis=-1)
    np.multiply(np.multiply(weight, phase, out=phase), out, out=out)
    np.negative(out, out=out, where=neg[(component[0] - 1) ^ flip])
    return out.reshape(lead + index.shape), stats


#: c_0 = 1/sqrt(4 pi), which turns a row or column of the operator into
#: a basis table or a unit charge's local expansion
_C0 = 1.0 / math.sqrt(4.0 * math.pi)


def reaction_basis_table(medium, component, p, r, center, rel_tol=1e-11,
                         form="polarization"):
    """All multipole basis values F_nm^{ab}(r, center), n <= p, on shared
    quadrature nodes: c_0 times row 0 of the reaction operator.  rel_tol
    is relative to each integral's analytic magnitude bound.  form
    selects how center is read: a polarization center ("polarization") or
    the physical source center in layer l' ("direct"); see
    _kernel_vector.  Returns (table, stats); table is (p+1, 2p+1) for one
    point r, and r.shape[:-1] + (p+1, 2p+1) for an array of points along
    the last axis, whose tables share quadrature grids and one stats
    record.
    """
    v, flip = _kernel_vector(medium, component, r, center, form)
    row, stats = _reaction_operator(medium, component, v, 0, p, rel_tol, flip)
    return _unpack(_C0 * row[..., 0, :], p), stats


def eval_reaction_me(exp, medium, r, rel_tol=1e-11, stats=False):
    """Evaluate a reaction multipole expansion: sum M_nm F_nm(r, center),
    at a point or at each point along the last axis of an array (an array
    of values, from one reaction_basis_table call).  With stats=True the
    basis table's quadrature stats come back as well: (values, stats).
    """
    _require_kind(exp, "reaction_multipole")
    basis, quad = reaction_basis_table(
        medium, exp.component, exp.p, r, exp.center, rel_tol
    )
    val = _expansion_sum(exp, basis)
    return (val, quad) if stats else val


def reaction_le_from_charges(
    system, medium, a, b, ell, ellprime, center, p, radius=None, rel_tol=1e-11,
    stats=False,
):
    """Local expansion of the reaction field of far-away charges about a
    target center in layer l: c_0 q_j times column 0 of each charge's
    reaction operator, on shared quadrature grids, summed over the
    charges.  With stats=True the quadrature stats come back as well:
    (expansion, stats)."""
    require_component(medium, a, b, ell, ellprime)
    component = (a, b, ell, ellprime)
    center = np.asarray(center, dtype=float)
    img = polarization_coordinates(system, medium, a, b, ell, ellprime)
    if radius is not None:
        dist = np.linalg.norm(img - center, axis=1)
        if np.any(dist <= radius):
            raise ChargeInsideBox(
                "a polarization source lies inside the target radius"
            )
    w, _ = _kernel_vector(medium, component, center, img, "polarization")
    column, quad = _reaction_operator(medium, component, w, p, 0, rel_tol)
    flat = (_C0 * system.q) @ column[..., 0]
    exp = HarmonicExpansion("local", center, p, _unpack(flat, p), radius=radius)
    return (exp, quad) if stats else exp


def reaction_m2l_matrix(exp, medium, target_center, p, rel_tol=1e-11):
    """Dense reaction M2L operator mapping packed multipole coefficients
    (degree <= exp.p) to packed local coefficients (degree <= p)."""
    _require_kind(exp, "reaction_multipole")
    v, _ = _kernel_vector(medium, exp.component, target_center, exp.center,
                          "polarization")
    return _reaction_operator(medium, exp.component, v, p, exp.p, rel_tol)


def m2l_reaction(exp, medium, target_center, p, rel_tol=1e-11, target_radius=None):
    """Translate a reaction multipole expansion into a free-space-basis
    local expansion about a well-separated target center."""
    target_center = np.asarray(target_center, dtype=float)
    _require_separated(
        exp, float(np.linalg.norm(target_center - exp.center)), target_radius
    )
    tmat, _ = reaction_m2l_matrix(exp, medium, target_center, p, rel_tol)
    flat = tmat @ _pack(exp.coeff, exp.p)
    return HarmonicExpansion(
        "local", target_center, p, _unpack(flat, p), radius=target_radius
    )


def truncated(exp, p):
    """The same expansion with all coefficients of degree > p dropped."""
    if p >= exp.p:
        return exp
    coeff = exp.coeff[: p + 1, exp.p - p : exp.p + p + 1]
    return replace(exp, p=p, coeff=coeff)
