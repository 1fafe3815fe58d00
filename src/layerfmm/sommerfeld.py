"""Quadrature engine for the Sommerfeld-type integrals.

After reducing the angular part of each 2-D spectral integral with

    int_0^{2pi} e^{i k rho cos(alpha - phi)} e^{i m alpha} d alpha
        = 2 pi i^m J_m(k rho) e^{i m phi},

every quantity in this package (reaction Green's values, multipole basis
functions, reaction local-expansion coefficients, reaction M2L entries)
becomes a 1-D radial integral

    I(n, m; rho, zeta) = int_0^inf J_m(k rho) e^{-k zeta} sigma(k) k^n dk

with zeta > 0, so the integrand decays exponentially and there are no
poles or principal values (Laplace case).  The engine uses composite
32-point Gauss-Legendre panels with adaptive bisection driven by the
disagreement of each panel with the sum of its halves; the upper limit is
chosen from the analytic tail bound
M_sigma * Gamma(n+1, K zeta) / zeta^{n+1} < tol/10.

Families of integrals sharing (rho, zeta, sigma) - all coefficients of an
expansion, or a whole M2L operator - are evaluated on shared nodes via
``radial_table``.  Panels are evaluated in blocks: one density sweep and
one Bessel call serve the whole-panel and half-panel rules of a block of
panels, because a sweep's cost is mostly per call, not per node.
Refinement is level-synchronous: each pass bisects its panels together,
again in blocks.

The module also provides the hyperbolic-contour identity check used to
validate the branch conventions of the complex square root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .densities import ReactionDensity
from .errors import ComponentAbsent, DomainError, ToleranceNotMet
from .harmonics import constants
from .medium import reflect, require_component, tau_map, polarization_source

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

MIN_TOL = 1e-13
MAX_PANELS = 4096


def bessel_j(m, x):
    """Bessel function of the first kind J_m(x), m >= 0, x >= 0."""
    if m < 0:
        raise DomainError("bessel_j expects order m >= 0")
    if np.any(np.asarray(x) < 0):
        raise DomainError("bessel_j expects x >= 0")
    return special.jv(m, x)


class ConstantDensity:
    """sigma identical to a constant; the closed-form Lipschitz test case."""

    def __init__(self, value=1.0):
        self.value = complex(value)

    def __call__(self, k):
        return np.full(np.shape(k), self.value)

    @property
    def bound(self):
        return abs(self.value)


@dataclass(frozen=True)
class RadialIntegralSpec:
    """One radial integral: order m, power n, geometry (rho, zeta), and a
    density evaluator carrying a uniform bound."""

    order: int
    power: int
    rho: float
    zeta: float
    density: object

    def __post_init__(self):
        if self.order < 0 or self.power < 0:
            raise DomainError("order and power must be nonnegative")
        if self.rho < 0:
            raise DomainError("rho must be nonnegative")
        if self.zeta <= 0:
            raise DomainError(
                "zeta must be strictly positive (decaying kernel required)"
            )


def _gamma_tail(nexp, x0, scale):
    """int_{x0}^inf u^nexp e^{-u scale} du."""
    a = nexp + 1.0
    return special.gammaincc(a, x0 * scale) * special.gamma(a) / scale ** a


def _choose_kmax(bound, rho, zeta, powers, tol_tail):
    """Smallest doubling of the baseline K with all tails below tol_tail."""
    kmax = max(60.0 / zeta, 200.0 / max(rho, zeta), (max(powers) + 10.0) / zeta)
    if bound == 0.0:
        return kmax
    for _ in range(60):
        tails = np.array([bound * _gamma_tail(n, kmax, zeta) for n in powers])
        if np.all(tails <= tol_tail):
            return kmax
        kmax *= 2.0
    raise ToleranceNotMet("tail bound did not close", achieved=float(tails.max()))


#: Panels per evaluate call.  The whole-panel and half-panel rules of a
#: block share one density sweep; the sweep's intermediates grow with the
#: block, so larger blocks buy few calls at the cost of peak memory.
_BLOCK = 8


def _split(evaluate, lo, hi, whole=None):
    """Half-panel estimates of the panels [lo, hi] and the disagreement
    of each panel's whole estimate with the sum of its halves.

    Panels are evaluated _BLOCK per call.  When whole is None the whole
    estimates are computed in the same call as the halves.  Returns
    (left, right, err, number of evaluate calls).
    """
    mid = 0.5 * (lo + hi)
    left = right = err = None
    calls = 0
    for s in range(0, len(lo), _BLOCK):
        b = slice(s, s + _BLOCK)
        n = len(lo[b])
        if whole is None:
            est = evaluate(
                np.concatenate([lo[b], lo[b], mid[b]]),
                np.concatenate([hi[b], mid[b], hi[b]]),
            )
            w, est = est[:n], est[n:]
        else:
            est = evaluate(
                np.concatenate([lo[b], mid[b]]), np.concatenate([mid[b], hi[b]])
            )
            w = whole[b]
        calls += 1
        if left is None:
            shape = (len(lo),) + est.shape[1:]
            left = np.empty(shape, dtype=est.dtype)
            right = np.empty(shape, dtype=est.dtype)
            err = np.empty(shape)
        left[b], right[b] = est[:n], est[n:]
        err[b] = np.abs(w - (left[b] + right[b]))
    return left, right, err, calls


def _adaptive_panels(evaluate, edges, tol_abs, max_panels=MAX_PANELS):
    """Composite adaptive quadrature over initial panel edges.

    evaluate(lo, hi) takes arrays of rule ends and returns Gauss-Legendre
    estimates of the integral of a (vector-valued) integrand over each
    [lo[i], hi[i]], stacked along the first axis.  A panel's error is the
    disagreement between its estimate and the sum of its halves; the
    initial panels are evaluated in blocks, whole and halves in one call.

    Refinement is level-synchronous.  Each pass ranks the panels by their
    worst entrywise error-to-tolerance ratio and bisects, together, the
    shortest run of worst panels whose errors the tolerance cannot absorb:
    the rest sum to at most tol_abs in every entry.  For a scalar integral
    no fewer panels can do, so a pass never splits more panels than a
    worst-first, one-at-a-time bisection would before it could stop.
    Passes repeat until the accumulated error is below tol_abs everywhere,
    or the panel budget is spent.

    Returns (value, error estimate, stats); stats counts the final panels,
    the 32-node rules (gl_calls), the evaluate calls (evals) and the
    bisections.
    """
    tol_abs = np.asarray(tol_abs, dtype=float)
    safe_tol = np.where(tol_abs > 0, tol_abs, np.inf)
    lo, hi = edges[:-1], edges[1:]
    left, right, err, evals = _split(evaluate, lo, hi)
    gl_calls = 3 * len(lo)
    n_init = len(lo)
    while True:
        total = np.sum(err, axis=0)
        if np.all(total <= safe_tol):
            break
        if len(lo) >= max_panels:
            raise ToleranceNotMet(
                f"panel budget {max_panels} exhausted",
                achieved=float(np.max(total / safe_tol)),
            )
        ratio = err.reshape(len(lo), -1) / safe_tol.reshape(-1)
        order = np.argsort(-ratio.max(axis=1), kind="stable")
        # rest[j]: what the panels ranked j and below leave, per entry
        rest = np.cumsum(ratio[order[::-1]], axis=0)[::-1]
        count = np.count_nonzero(np.any(rest > 1.0, axis=1))
        pick = order[: min(max(count, 1), max_panels - len(lo))]
        keep = np.ones(len(lo), dtype=bool)
        keep[pick] = False
        mid = 0.5 * (lo[pick] + hi[pick])
        c_lo = np.concatenate([lo[pick], mid])
        c_hi = np.concatenate([mid, hi[pick]])
        c_left, c_right, c_err, calls = _split(
            evaluate, c_lo, c_hi, np.concatenate([left[pick], right[pick]])
        )
        lo = np.concatenate([lo[keep], c_lo])
        hi = np.concatenate([hi[keep], c_hi])
        left = np.concatenate([left[keep], c_left])
        right = np.concatenate([right[keep], c_right])
        err = np.concatenate([err[keep], c_err])
        evals += calls
        gl_calls += 4 * len(pick)
    value = np.sum(left + right, axis=0)
    return value, total, {
        "panels": len(lo),
        "gl_calls": gl_calls,
        "evals": evals,
        "bisections": len(lo) - n_init,
    }


def radial_table(density, rho, zeta, powers, orders, tol_abs, max_panels=MAX_PANELS):
    """All integrals I(n, m) for n in powers, m in orders on shared nodes.

    tol_abs is an entrywise absolute tolerance of shape
    (len(powers), len(orders)); entries set to inf do not drive
    refinement.  Returns (values, error estimates, stats); besides the
    counts of _adaptive_panels, stats["capped"] says whether the initial
    panel count was cut to 512.
    """
    powers = np.asarray(powers, dtype=int)
    orders = np.asarray(orders, dtype=int)
    if zeta <= 0:
        raise DomainError("zeta must be positive")
    bound = getattr(density, "bound", None)
    if bound is None:
        raise TypeError("density evaluator must expose a uniform bound")
    if bound == 0.0:
        shape = (len(powers), len(orders))
        return np.zeros(shape, dtype=complex), np.zeros(shape), {
            "panels": 0,
            "gl_calls": 0,
            "evals": 0,
            "bisections": 0,
            "capped": False,
        }

    finite = np.isfinite(np.asarray(tol_abs, dtype=float))
    tol_tail = 0.1 * float(np.min(np.asarray(tol_abs, dtype=float)[finite]))
    kmax = _choose_kmax(bound, rho, zeta, powers, tol_tail)

    def evaluate(lo, hi):
        half = 0.5 * (hi - lo)
        k = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES
        core = density(k.ravel()).reshape(k.shape) * np.exp(-k * zeta) * _GL_WEIGHTS
        jm = special.jv(orders[:, None, None], k * rho)
        kp = k ** powers[:, None, None]
        return half[:, None, None] * np.einsum("prk,ork,rk->rpo", kp, jm, core)

    width = kmax / 16.0
    if rho > 0:
        width = min(width, math.pi / rho)
    n_uncapped = max(int(math.ceil(kmax / width)), 4)
    n_init = min(n_uncapped, 512)
    edges = np.linspace(0.0, kmax, n_init + 1)
    quad_tol = 0.9 * np.asarray(tol_abs, dtype=float)
    values, err, stats = _adaptive_panels(evaluate, edges, quad_tol, max_panels)
    stats["capped"] = n_uncapped > n_init
    return values, err, stats


def radial_integral(spec, tol):
    """Single radial integral per RadialIntegralSpec, absolute tolerance."""
    if tol < MIN_TOL:
        raise ValueError(f"tol {tol} below supported minimum {MIN_TOL}")
    values, _, _ = radial_table(
        spec.density,
        spec.rho,
        spec.zeta,
        [spec.power],
        [spec.order],
        np.array([[tol]]),
    )
    return complex(values[0, 0])


def _transverse(v):
    """(rho, phi, zeta) of a kernel argument vector; zeta must be > 0."""
    rho = math.hypot(v[0], v[1])
    phi = math.atan2(v[1], v[0]) if rho > 0 else 0.0
    zeta = float(v[2])
    if zeta <= 0:
        raise DomainError(
            f"kernel argument has nonpositive decay depth zeta={zeta}"
        )
    return rho, phi, zeta


def _signed_order_integral(table_value, m):
    """Fold J_{-|m|} = (-1)^{|m|} J_{|m|} into a table looked up at |m|."""
    return table_value * ((-1.0) ** (-m) if m < 0 else 1.0)


def eval_reaction_green(medium, a, b, ell, ellprime, r, rprime, tol=1e-10):
    """Reaction component u^{ab}_{l,l'}(r, r'): the oracle every expansion
    in this package is tested against.

        u = (1/4pi) * I(0, 0; |transverse tau|, tau_z, sigma^{ab})
    """
    density = ReactionDensity(medium, a, b, ell, ellprime)
    tau = tau_map(medium, a, b, ell, ellprime, r, rprime)
    rho, _, zeta = _transverse(tau)
    spec = RadialIntegralSpec(0, 0, rho, zeta, density)
    val = radial_integral(spec, max(tol * 4.0 * math.pi, MIN_TOL))
    return float(np.real(val)) / (4.0 * math.pi)


def eval_reaction_potential(medium, ell, ellprime, r, rprime, tol=1e-10):
    """Sum of all present reaction components for a (target, source) pair."""
    total = 0.0
    for a in (1, 2):
        for b in (1, 2):
            try:
                total += eval_reaction_green(
                    medium, a, b, ell, ellprime, r, rprime, tol
                )
            except ComponentAbsent:
                continue
    return total


def _me_kernel_vector(medium, a, b, ell, ellprime, r, center, form):
    """Kernel argument vector and Theorem-driven prefactor sign for one
    multipole basis function.

    form="polarization": center is an equivalent-polarization center
    r_c^{ab}; the kernel argument is r - center (a=1) or its xy-plane
    reflection (a=2), and the sign alternates with n for a=1, with m for
    a=2.  form="direct": center is a physical source center in layer l';
    the kernel argument is tau^{ab}(r, center) and the roles of the signs
    are selected by b instead.
    """
    r = np.asarray(r, dtype=float)
    center = np.asarray(center, dtype=float)
    if form == "polarization":
        v = r - center if a == 1 else reflect(r - center)
        sign_kind = "n" if a == 1 else "m"
    elif form == "direct":
        v = tau_map(medium, a, b, ell, ellprime, r, center)
        sign_kind = "m" if b == 1 else "n"
    else:
        raise ValueError(f"unknown basis form {form!r}")
    return v, sign_kind


def eval_me_basis(
    medium, a, b, ell, ellprime, n, m, r, center, tol=1e-10, form="polarization"
):
    """Multipole basis function F_nm^{ab}(r, center) for the reaction
    component, via a radial integral of order |m| and power n."""
    if abs(m) > n:
        return 0.0 + 0.0j
    require_component(medium, a, b, ell, ellprime)
    density = ReactionDensity(medium, a, b, ell, ellprime)
    v, sign_kind = _me_kernel_vector(medium, a, b, ell, ellprime, r, center, form)
    rho, phi, zeta = _transverse(v)
    cst = constants(n)
    sign = (-1.0) ** n if sign_kind == "n" else (-1.0) ** m
    pref = sign * cst.c[n] ** 2 * cst.C(n, m) * (1j) ** m * np.exp(1j * m * phi)
    if pref == 0:
        return 0.0 + 0.0j
    spec = RadialIntegralSpec(abs(m), n, rho, zeta, density)
    val = radial_integral(spec, max(tol / abs(pref), MIN_TOL))
    return pref * _signed_order_integral(val, m)


def eval_reaction_le_coeff(
    medium, a, b, ell, ellprime, n, m, target_center, source_point, tol=1e-10
):
    """Local-expansion coefficient of the reaction field of one unit
    source at a physical point, about target_center.  The source is moved
    to its equivalent polarization position internally."""
    if abs(m) > n:
        return 0.0 + 0.0j
    require_component(medium, a, b, ell, ellprime)
    density = ReactionDensity(medium, a, b, ell, ellprime)
    img = polarization_source(medium, a, b, ell, ellprime, source_point)
    w = np.asarray(target_center, dtype=float) - img
    if a == 2:
        w = reflect(w)
    rho, phi, zeta = _transverse(w)
    cst = constants(n)
    sign = 1.0 if a == 1 else (-1.0) ** (n + m)
    pref = (
        sign
        * cst.C(n, m)
        / (4.0 * math.pi)
        * (1j) ** m
        * np.exp(-1j * m * phi)
    )
    if pref == 0:
        return 0.0 + 0.0j
    spec = RadialIntegralSpec(abs(m), n, rho, zeta, density)
    val = radial_integral(spec, max(tol / abs(pref), MIN_TOL))
    return pref * _signed_order_integral(val, m)


def eval_reaction_m2l_entry(
    medium,
    a,
    b,
    ell,
    ellprime,
    n,
    m,
    nprime,
    mprime,
    target_center,
    source_center,
    tol=1e-10,
):
    """Entry T^{ab}_{nm,n'm'} of the reaction multipole-to-local operator
    between a polarization source center and a target center."""
    if abs(m) > n or abs(mprime) > nprime:
        return 0.0 + 0.0j
    require_component(medium, a, b, ell, ellprime)
    density = ReactionDensity(medium, a, b, ell, ellprime)
    v = np.asarray(target_center, dtype=float) - np.asarray(
        source_center, dtype=float
    )
    if a == 2:
        v = reflect(v)
    rho, phi, zeta = _transverse(v)
    cst = constants(max(n, nprime))
    sign = (-1.0) ** nprime if a == 1 else (-1.0) ** (n + m + mprime)
    dm = mprime - m
    pref = (
        sign
        * cst.c[nprime] ** 2
        * cst.C(n, m)
        * cst.C(nprime, mprime)
        * (1j) ** dm
        * np.exp(1j * dm * phi)
    )
    if pref == 0:
        return 0.0 + 0.0j
    spec = RadialIntegralSpec(abs(dm), n + nprime, rho, zeta, density)
    val = radial_integral(spec, max(tol / abs(pref), MIN_TOL))
    return pref * _signed_order_integral(val, dm)


# ---------------------------------------------------------------------------
# Cagniard-de Hoop identity
# ---------------------------------------------------------------------------

def sqrt_branch(z):
    """sqrt(z) = sqrt((|z|+Re z)/2) + i sign(Im z) sqrt((|z|-Re z)/2).

    Coincides with the principal branch; Re sqrt(z) >= 0 everywhere, and
    the cut of sqrt(xi^2 + eta^2) in the xi-plane runs along the imaginary
    axis outside +-i eta.
    """
    z = np.asarray(z, dtype=complex)
    mod = np.abs(z)
    re = np.sqrt(np.maximum(mod + z.real, 0.0) / 2.0)
    sgn = np.where(z.imag >= 0.0, 1.0, -1.0)
    im = sgn * np.sqrt(np.maximum(mod - z.real, 0.0) / 2.0)
    return re + 1j * im


#: Test functions admissible in the contour lemma: analytic between the
#: real axis and the hyperbola, with |f(xi)| <= C max(1,|xi|)^m there.
CAGNIARD_CATALOG = {
    "one": (lambda xi: np.ones_like(xi), 0),
    "xi": (lambda xi: xi, 1),
    "xi2": (lambda xi: xi * xi, 2),
    "exp_i": (lambda xi: np.exp(1j * xi), 0),
}


def _scalar_adaptive(f, lo, hi, tol, n_init=16):
    def evaluate(a, b):
        half = 0.5 * (b - a)
        x = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
        return (half * np.sum(f(x) * _GL_WEIGHTS, axis=1))[:, None]

    edges = np.linspace(lo, hi, n_init + 1)
    value, _, _ = _adaptive_panels(evaluate, edges, np.array([tol]))
    return complex(value[0])


def cagniard_identity_check(f, rho, z, eta, tol=1e-8):
    """Both sides of the hyperbolic contour identity

        int_R f(xi) e^{i xi rho - sqrt(eta^2+xi^2) z} d xi
          = i int_1^inf [f(xi_+) Lam_+ - f(xi_-) Lam_-]
                e^{-eta r t} / sqrt(t^2-1) dt

    with xi_pm(t) = (eta/r)(i rho t +- z sqrt(t^2-1)),
    Lam_pm(t) = (eta/r)(rho sqrt(t^2-1) -+ i z t), r = sqrt(rho^2+z^2).
    The relative minus sign carries the traversal direction of the left
    hyperbola branch (run from t = inf down to the vertex); with it, the
    rho = 0, f = 1 case reduces to the classical 2 K_1(eta z) integral.
    The left side is integrated over the real axis with a tail cutoff
    from the growth bound; the right side uses t = cosh(s), which removes
    the endpoint singularity analytically.  Returns (lhs, rhs).
    """
    if isinstance(f, str):
        fun, growth = CAGNIARD_CATALOG[f]
    else:
        fun, growth = f
    if z <= 0 or eta <= 0 or rho < 0:
        raise DomainError("requires z > 0, eta > 0, rho >= 0")
    r = math.hypot(rho, z)

    # left side: truncate where x^m e^{-x z} tails fall below tol/10
    xcut = max(60.0 / z, 10.0 * eta)
    while 2.0 * _gamma_tail(growth, xcut, z) > 0.1 * tol:
        xcut *= 2.0

    def lhs_integrand(xi):
        xi = xi.astype(complex)
        return fun(xi) * np.exp(1j * xi * rho - sqrt_branch(xi * xi + eta * eta) * z)

    lhs = _scalar_adaptive(
        lhs_integrand,
        -xcut,
        xcut,
        0.45 * tol,
        n_init=max(16, min(256, int(2 * xcut * (rho + 1) / math.pi))),
    )

    # right side: cutoff in t from (sqrt2 eta t)^m * eta t * e^{-eta r t}
    tcut = max(2.0, 60.0 / (eta * r))
    pref = 2.0 * (math.sqrt(2.0) * eta) ** growth * eta
    while pref * _gamma_tail(growth + 1, tcut, eta * r) > 0.1 * tol:
        tcut *= 2.0
    scut = math.acosh(tcut)

    def rhs_integrand(s):
        t = np.cosh(s)
        root = np.sinh(s)  # sqrt(t^2 - 1)
        xi_p = (eta / r) * (1j * rho * t + z * root)
        xi_m = (eta / r) * (1j * rho * t - z * root)
        lam_p = (eta / r) * (rho * root - 1j * z * t)
        lam_m = (eta / r) * (rho * root + 1j * z * t)
        return 1j * (fun(xi_p) * lam_p - fun(xi_m) * lam_m) * np.exp(-eta * r * t)

    rhs = _scalar_adaptive(rhs_integrand, 0.0, scut, 0.45 * tol, n_init=32)
    return lhs, rhs
