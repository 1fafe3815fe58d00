"""Quadrature engine for the Sommerfeld-type integrals.

After reducing the angular part of each 2-D spectral integral with

    int_0^{2pi} e^{i k rho cos(alpha - phi)} e^{i m alpha} d alpha
        = 2 pi i^m J_m(k rho) e^{i m phi},

every reaction quantity in this package (Green's values, multipole basis
functions, local-expansion coefficients, M2L entries) becomes a
closed-form prefactor times a 1-D radial integral

    I(n, m; rho, zeta) = int_0^inf J_m(k rho) e^{-k zeta} sigma(k) k^n dk

with zeta > 0, so the integrand decays exponentially and there are no
poles or principal values (Laplace case).  This module holds the engine,
the reaction Green's function oracle built directly on it, and the
hyperbolic-contour identity check used to validate the branch conventions
of the complex square root; the expansions module assembles every
operator prefactor.

The engine, ``radial_table``, evaluates a family of integrals sharing
(rho, zeta, sigma) - all coefficients of an expansion, or a whole M2L
operator - on shared nodes.  sigma depends only on k and the medium, so
its batched core ``_radial_tables`` serves many (rho, zeta) pairs of one
component (the oracle's (target, charge) pairs, a basis table's targets,
a local expansion's charges) with one density sweep per block of panels
and entrywise error control for every pair; radial_table is its one-pair
view.  Pairs share a grid in groups: a group's grid has at most
twice the panels each member would take alone, and a group holds at
most 4096 table entries, so neither the work per pair nor the memory
grows without bound with a batch of unlike pairs.  It uses composite
32-point Gauss-Legendre panels with adaptive bisection driven by the
disagreement of each panel with the sum of its halves; the upper limit
K is solved for from the analytic tail bound
M_sigma * Gamma(n+1, K zeta) / zeta^{n+1} <= tol/10 (by gammainccinv,
never below a baseline).

The initial panels are as wide as the 32-point rule allows.  Their width
is min(K/16, w), with w the power of two nearest 16 pi / rho, so a panel
carries about 6 to 11 periods of e^{i k rho}.  The 32-point rule
integrates e^{i x} to rounding over up to about 8 periods and loses
accuracy beyond 11 (an error of 1.5e-11 of the span at 11.3 periods, 3e-4
at 16).  The value kept is the sum of the halves, over which k rho changes
by at most 8 sqrt2 pi (about 11 pi, 5.7 periods): exact to rounding.  The
whole-versus-halves disagreement therefore measures the error of the
whole rule and over-reads that of the halves.  Power-of-two widths put the
edges of tables with different rho on one dyadic lattice, which is what
lets the pairs of a batch share grids.  When K / w
exceeds 512 the initial grid is capped at 512 wider panels; on those the
halves can be as wrong as the whole and agree with it by accident, so a
capped table raises the estimate of every panel wider than 2w to at least
twice the integrand's mass bound, 2 M_sigma int_panel k^n e^{-k zeta} dk,
and bisection then resolves the panels wherever the mass matters.  Panels
are evaluated in blocks: one density sweep and one Bessel ladder serve
the whole-panel and half-panel rules of a block of panels, because a
sweep's cost is mostly per call, not per node.  Refinement is
level-synchronous: each pass bisects its panels together, again in
blocks.

The Bessel ladder (_bessel_orders) takes J_0 and J_1 from j0/j1 and the
higher orders from the three-term recurrence in its stable direction:
upward where k rho >= max order, downward from two jv seeds below.  Its
absolute error of about 1e-14 moves I(n, m) by at most
1e-14 M_sigma Gamma(n+1)/zeta^{n+1}.
Every table tolerance of the expansion builders is relative to that same
bound (rel_tol 1e-11 to 1e-12), so the Bessel error is far below it.  One
batched real matrix product per block contracts the Bessel values against
the real and imaginary parts of k^n e^{-k zeta} sigma(k), whose powers
come from a running product over n, over the nodes of each rule.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .densities import ReactionDensity
from .errors import ComponentAbsent, DomainError, ToleranceNotMet
from .medium import tau_map

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


def _bessel_orders(orders, x):
    """J_m(x) for each m in orders, stacked along a new first axis.

    orders are nonnegative ints and x >= 0 an array of any shape.  J_0 and
    J_1 come from special.j0 and special.j1.  Higher orders come from a
    three-term recurrence run in its stable direction:

    - x >= top = max(orders): upward, J_{m+1} = (2m/x) J_m - J_{m-1},
      where every step has m < x;
    - 0 < x < top: downward from special.jv seeds J_top and J_{top-1},
      J_{m-1} = 2m J_m / x - J_{m+1}, where J is the minimal solution
      above x.  The product 2m J_m is formed before the division, so an
      underflowed seed gives zeros, never NaN.  special.jv returns 0 below
      about 1e-280; a J_top of 0 only drops a term far below rounding, but
      where J_{top-1} is 0 too the node takes special.jv for every order;
    - x = 0: J_m = 0 for m >= 2, as j0/j1 give J_0 = 1, J_1 = 0.

    The values stay within about 1.5e-14 absolute of special.jv (orders up
    to 40, x from 1e-300 to 1e5; the tests require 5e-14).  In
    radial_table J_m multiplies e^{-k zeta} sigma(k) k^n with
    |sigma| <= M_sigma, so an absolute Bessel error eps moves I(n, m) by
    at most eps M_sigma Gamma(n+1)/zeta^{n+1}.  The expansion builders'
    tolerances are rel_tol times that same bound, with rel_tol 1e-11 by
    default and 1e-12 in the lab configurations, so the Bessel error sits
    100 to 1000 times below them.  For the oracle's I(0, 0) the shift is at most
    eps M_sigma / zeta.
    """
    top = int(np.max(orders))
    flat = x.ravel()
    ladder = np.empty((top + 1, flat.size))
    ladder[0] = special.j0(flat)
    if top >= 1:
        ladder[1] = special.j1(flat)
    if top >= 2:
        up = flat >= top
        xs = flat[up]
        sub = ladder[:, up]
        for m in range(1, top):
            sub[m + 1] = (2.0 * m / xs) * sub[m] - sub[m - 1]
        ladder[2:, up] = sub[2:]
        down = ~up & (flat != 0.0)
        xs = flat[down]
        sub = np.empty((top + 1, xs.size))
        sub[top - 1 :] = special.jv(np.arange(top - 1, top + 1)[:, None], xs)
        for m in range(top - 1, 2, -1):
            sub[m - 1] = (2.0 * m) * sub[m] / xs - sub[m + 1]
        lost = sub[top - 1] == 0.0
        if np.any(lost):
            sub[2:, lost] = special.jv(np.arange(2, top + 1)[:, None], xs[lost])
        ladder[2:, down] = sub[2:]
        ladder[2:, flat == 0.0] = 0.0
    return ladder[orders].reshape((len(orders),) + x.shape)


class ConstantDensity:
    """sigma identical to a constant; the closed-form Lipschitz test case."""

    def __init__(self, value=1.0):
        self.value = complex(value)

    def __call__(self, k):
        return np.full(np.shape(k), self.value)

    @property
    def bound(self):
        return abs(self.value)


def _gamma_tail(nexp, x0, scale):
    """int_{x0}^inf u^nexp e^{-u scale} du."""
    a = nexp + 1.0
    return special.gammaincc(a, x0 * scale) * special.gamma(a) / scale ** a


def _choose_kmax(bound, rho, zeta, powers, tol_tail):
    """Upper limit K with bound * Gamma(n+1, K zeta) / zeta^{n+1} <= tol_tail
    for every n in powers, and never below the baseline
    max(60/zeta, 200/max(rho, zeta), (max n + 10)/zeta).

    Each power's tail is solved for directly: Gamma(n+1, x) = Gamma(n+1)
    Q(n+1, x), so x = Q^{-1}(n+1, tol_tail zeta^{n+1} / (bound
    Gamma(n+1))) by gammainccinv, and K is the largest x / zeta.  The
    baseline keeps K (and with it the panel count) from shrinking where the
    tails are small anyway.  The inverse is accurate to about 1e-13
    relative; K is raised by 1e-9 relative, which lowers every tail by more
    than that (K zeta >= 60), and the tails are then checked once.
    """
    kmax = max(60.0 / zeta, 200.0 / max(rho, zeta), (max(powers) + 10.0) / zeta)
    if bound == 0.0:
        return kmax
    a = np.asarray(powers, dtype=float) + 1.0
    target = tol_tail * zeta ** a / (bound * special.gamma(a))
    x = special.gammainccinv(a, np.minimum(target, 1.0))
    kmax = max(kmax, (1.0 + 1e-9) * float(np.max(x)) / zeta)
    tails = bound * _gamma_tail(a - 1.0, kmax, zeta)
    if not (math.isfinite(kmax) and np.all(tails <= tol_tail)):
        raise ToleranceNotMet("tail bound did not close", achieved=float(tails.max()))
    return kmax


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
        # release this block's estimates before the next evaluate call
        est = w = None
    return left, right, err, calls


def _adaptive_panels(evaluate, edges, tol_abs, max_panels=MAX_PANELS, floor=None):
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

    floor(lo, hi), if given, returns an a-priori error bound per panel
    (shaped like the estimates); a panel's error is the larger of the two.

    Returns (value, error estimate, stats); stats counts the final panels,
    the 32-node rules (gl_calls), their nodes, the evaluate calls (evals)
    and the bisections, and tol_use is the worst ratio of the error
    estimate to tol_abs over the entries with a finite positive tol_abs.
    """
    tol_abs = np.asarray(tol_abs, dtype=float)
    safe_tol = np.where(tol_abs > 0, tol_abs, np.inf)
    lo, hi = edges[:-1], edges[1:]
    left, right, err, evals = _split(evaluate, lo, hi)
    if floor is not None:
        err = np.maximum(err, floor(lo, hi))
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
        if floor is not None:
            c_err = np.maximum(c_err, floor(c_lo, c_hi))
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
        "nodes": gl_calls * len(_GL_NODES),
        "evals": evals,
        "bisections": len(lo) - n_init,
        "tol_use": float(np.max(total / safe_tol)),
    }


#: Doubles a pair chunk's per-node arrays may hold in one evaluate call
#: (512 KiB); larger groups are swept in chunks of pairs, so a block's peak
#: memory does not grow with the group.
_CHUNK_DOUBLES = 1 << 16

#: Pairs share a grid only while its panel count, the largest K over the
#: smallest width, stays within this factor of every member's own K / w.
_GRID_SPREAD = 2.0

#: Table entries (pairs x powers x orders) one grid carries at most.
#: _adaptive_panels keeps three arrays of them per panel, so a group never
#: holds more than one pair's table at p = 63 does.
_GROUP_ENTRIES = 4096


def _own_grid(bound, rho, zeta, powers, tol_tail):
    """(K, initial panel width) that radial_table chooses for one pair."""
    kmax = _choose_kmax(bound, rho, zeta, powers, tol_tail)
    width = kmax / 16.0
    if rho > 0:
        width = min(width, 2.0 ** round(math.log2(16.0 * math.pi / rho)))
    return kmax, width


def _group_pairs(kmax, width, entries):
    """Pair indices in groups that share one grid.  Pairs are taken by
    increasing width, then K; a pair joins the open group while the
    group's grid stays within _GRID_SPREAD times every member's own
    K / width and the group's table stays within _GROUP_ENTRIES entries."""
    groups = []
    for i in np.lexsort((kmax, width)):
        if groups:
            grid = (max(k_hi, kmax[i]), min(w_lo, width[i]),
                    min(n_lo, kmax[i] / width[i]))
            if grid[0] / grid[1] <= _GRID_SPREAD * grid[2] and (
                (len(groups[-1]) + 1) * entries <= _GROUP_ENTRIES
            ):
                groups[-1].append(i)
                k_hi, w_lo, n_lo = grid
                continue
        groups.append([i])
        k_hi, w_lo, n_lo = kmax[i], width[i], kmax[i] / width[i]
    return groups


def _grid_tables(density, rhos, zetas, kmax, width, powers, orders, tol_abs,
                 max_panels):
    """The tables of a group of pairs on one grid: it runs to the largest
    of their own K in panels of the smallest of their own widths.  Each
    evaluate block sweeps the density once for all pairs.  A capped grid
    floors each pair's panels wider than twice its own width by that
    pair's mass bound."""
    shape = (len(rhos), len(powers), len(orders))
    top = int(np.max(powers))

    def evaluate(lo, hi):
        half = 0.5 * (hi - lo)
        k = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES
        dens = density(k.ravel()).reshape(k.shape) * (half[:, None] * _GL_WEIGHTS)
        # (rules, re/im, nodes): the real Bessel block is contracted
        # against both parts, never cast to complex
        parts = np.stack([dens.real, dens.imag], axis=1)
        k2 = np.stack([k, k], axis=1)
        out = np.empty((len(lo),) + shape, dtype=complex)
        per_pair = k.size * (2 * (top + len(powers) + 1) + len(orders))
        step = max(1, _CHUNK_DOUBLES // per_pair)
        for s in range(0, shape[0], step):
            pairs = slice(s, s + step)
            # k^n e^{-k zeta} sigma w by a running product over n
            run = np.empty((top + 1, len(rhos[pairs])) + parts.shape)
            run[0] = np.exp(-k * zetas[pairs, None, None])[:, :, None] * parts
            for n in range(top):
                np.multiply(run[n], k2, out=run[n + 1])
            lhs = run[powers].transpose(1, 2, 0, 3, 4)
            lhs = lhs.reshape(lhs.shape[:2] + (-1, k.shape[1]))
            jm = _bessel_orders(orders, k * rhos[pairs, None, None])
            # (pairs, rules, orders, nodes) @ (pairs, rules, nodes, powers x
            # re/im): the re/im columns interleave into complex values
            res = jm.transpose(1, 2, 0, 3) @ lhs.transpose(0, 1, 3, 2)
            out[:, pairs] = res.view(complex).transpose(1, 0, 3, 2)
        return out

    k_hi, w_lo = float(np.max(kmax)), float(np.min(width))
    n_uncapped = int(math.ceil(k_hi / w_lo))
    n_init = min(n_uncapped, 512)
    capped = n_uncapped > n_init
    edges = max(w_lo, k_hi / n_init) * np.arange(n_init + 1)
    floor = None
    if capped:
        bound = density.bound

        def floor(lo, hi):
            n = powers[None, None, :, None]
            zeta = zetas[None, :, None, None]
            lo, hi = lo[:, None, None, None], hi[:, None, None, None]
            mass = bound * (_gamma_tail(n, lo, zeta) - _gamma_tail(n, hi, zeta))
            wide = hi - lo > 2.0 * width[None, :, None, None]
            return np.where(wide, 2.0 * mass, 0.0) * np.ones(len(orders))

    values, err, stats = _adaptive_panels(
        evaluate, edges, 0.9 * tol_abs, max_panels, floor
    )
    stats["capped"] = capped
    return values, err, stats


def _radial_tables(density, rhos, zetas, powers, orders, tol_abs,
                   max_panels=MAX_PANELS):
    """radial_table for a batch of (rho, zeta) pairs.

    rhos and zetas have shape (B,), tol_abs and the returned values and
    error estimates (B, len(powers), len(orders)); one stats record sums
    the batch.  Each pair's K and width are those radial_table would
    choose for it alone.  Pairs are grouped (_group_pairs) so that no
    pair's grid has more than _GRID_SPREAD times its own panel count and no
    group holds more than _GROUP_ENTRIES table entries; each group shares
    one grid (_grid_tables) and the panel budget max_panels.
    """
    rhos = np.asarray(rhos, dtype=float)
    zetas = np.asarray(zetas, dtype=float)
    powers = np.asarray(powers, dtype=int)
    orders = np.asarray(orders, dtype=int)
    if not np.all(zetas > 0):
        raise DomainError("zeta must be positive")
    if not np.all(rhos >= 0):
        raise DomainError("rho must be nonnegative")
    if np.any(powers < 0) or np.any(orders < 0):
        raise DomainError("powers and orders must be nonnegative")
    bound = getattr(density, "bound", None)
    if bound is None:
        raise TypeError("density evaluator must expose a uniform bound")
    shape = (len(rhos), len(powers), len(orders))
    tol_abs = np.asarray(tol_abs, dtype=float)
    if tol_abs.shape != shape:
        raise DomainError(
            f"tol_abs of shape {tol_abs.shape[1:]} per pair, expected "
            f"(len(powers), len(orders)) = {shape[1:]}"
        )
    if not np.all(tol_abs > 0):
        raise DomainError("tol_abs entries must be positive or +inf")
    finite = np.isfinite(tol_abs)
    if not np.all(finite.any(axis=(1, 2))):
        raise DomainError("tol_abs needs a finite entry for every pair")
    values = np.zeros(shape, dtype=complex)
    err = np.zeros(shape)
    stats = dict.fromkeys(("panels", "gl_calls", "nodes", "evals", "bisections"), 0)
    stats.update(tol_use=0.0, capped=False)
    if bound == 0.0 or not len(rhos):
        return values, err, stats

    kmax, width = np.array([
        _own_grid(bound, rho, zeta, powers, 0.1 * float(np.min(tol[fin])))
        for rho, zeta, tol, fin in zip(rhos, zetas, tol_abs, finite)
    ]).T
    for group in _group_pairs(kmax, width, shape[1] * shape[2]):
        values[group], err[group], own = _grid_tables(
            density, rhos[group], zetas[group], kmax[group], width[group],
            powers, orders, tol_abs[group], max_panels,
        )
        for key in ("panels", "gl_calls", "nodes", "evals", "bisections"):
            stats[key] += own[key]
        stats["capped"] |= own["capped"]
    stats["tol_use"] = float(np.max(err[finite] / tol_abs[finite]))
    return values, err, stats


def radial_table(density, rho, zeta, powers, orders, tol_abs, max_panels=MAX_PANELS):
    """All integrals I(n, m) for n in powers, m in orders on shared nodes.

    Requires zeta > 0, rho >= 0 and nonnegative powers and orders
    (DomainError otherwise); the density must expose a uniform bound.
    tol_abs is an entrywise absolute tolerance of shape
    (len(powers), len(orders)); entries set to inf do not drive
    refinement, and at least one must be finite (DomainError for another
    shape, or for an entry that is not > 0 or inf).  Returns (values,
    error estimates, stats); stats holds the counts of _adaptive_panels,
    tol_use (the worst ratio of the error estimate to tol_abs over the
    finite entries of tol_abs) and "capped", whether the initial panel
    count was cut to 512.  This is the one-pair view of _radial_tables,
    which batches (rho, zeta) pairs on shared grids.

    A tenth of the smallest finite tolerance goes to the tail beyond K
    (_choose_kmax), nine tenths to the panels.  The initial panels are
    min(K/16, w) wide, w the power of two nearest 16 pi / rho: on each
    half-panel k rho changes by at most about 12 pi across the 32 nodes,
    which the rule integrates to rounding, so the whole-versus-halves
    disagreement over-reads the error of the halves it keeps (see the
    module docstring).  Past 512 panels the grid is capped, and the error
    of a capped panel wider than 2w is taken as at least twice its mass
    bound M_sigma int k^n e^{-k zeta} dk, which bounds its rules and its
    integral alike; bisection goes on until the mass left on such panels
    fits the tolerance, or the panel budget is spent (ToleranceNotMet).
    """
    values, err, stats = _radial_tables(
        density, [rho], [zeta], powers, orders,
        np.asarray(tol_abs, dtype=float)[None], max_panels,
    )
    return values[0], err[0], stats


def _reaction_green(medium, a, b, ell, ellprime, r, rprime, tol):
    """u^{ab}_{l,l'}(r, r') = (1/4pi) I(0, 0; |transverse tau|, tau_z,
    sigma^{ab}) to absolute tolerance tol (floored at MIN_TOL/4pi), for a
    pair of points or for pairs of points along the last axis of r and r'
    (broadcast), on shared grids.  Returns (values, error estimates,
    stats), floats for one pair."""
    density = ReactionDensity(medium, a, b, ell, ellprime)
    tau = tau_map(medium, a, b, ell, ellprime, r, rprime)
    rho = np.hypot(tau[..., 0], tau[..., 1])
    tol_abs = np.full((rho.size, 1, 1), max(tol * 4.0 * math.pi, MIN_TOL))
    values, err, stats = _radial_tables(
        density, rho.ravel(), tau[..., 2].ravel(), [0], [0], tol_abs
    )
    values = np.real(values).reshape(rho.shape) / (4.0 * math.pi)
    err = err.reshape(rho.shape) / (4.0 * math.pi)
    if tau.ndim == 1:
        return float(values), float(err), stats
    return values, err, stats


def eval_reaction_green(medium, a, b, ell, ellprime, r, rprime, tol=1e-10,
                        stats=False):
    """Reaction component u^{ab}_{l,l'}(r, r'): the oracle every expansion
    in this package is tested against.

        u = (1/4pi) * I(0, 0; |transverse tau|, tau_z, sigma^{ab})

    tol is an absolute tolerance on u.  r and r' are points (a float
    back) or arrays of points along the last axis, broadcast against each
    other (one value per pair, the pairs on shared quadrature grids).  With
    stats=True the quadrature stats come back as well: (values, stats).
    """
    values, _, quad = _reaction_green(medium, a, b, ell, ellprime, r, rprime, tol)
    return (values, quad) if stats else values


def eval_reaction_potential(medium, ell, ellprime, r, rprime, tol=1e-10):
    """Sum of all present reaction components for a (target, source) pair,
    or for pairs of points along the last axis as in eval_reaction_green."""
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
