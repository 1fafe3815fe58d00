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
the reaction Green's function oracle built on it, the operators' image
tables over one finite layer (_image_tables), the image-series oracle
there (_image_green: sigma's exact image expansion, summed in closed
form with no quadrature, Bessel or K code, from coefficients of its own),
and the hyperbolic-contour identity check of the complex square root's
branch conventions; the expansions module assembles every operator
prefactor.

The engine, ``radial_table``, evaluates a family of integrals sharing
(rho, zeta, sigma) - an expansion's coefficients, or an M2L operator - on
shared nodes; its batched core ``_radial_tables`` serves many (rho, zeta)
pairs of one component (the oracle's point pairs, a basis table's
targets, a local expansion's charges) with one density sweep per block of
rules and entrywise error control.  Pairs share a grid in groups: a
group's K / w, which tracks the panels its certificates need, is at most
twice each member's own, and a group holds at most 4096 table entries.

The split.  sigma depends on k only through the e_l = exp(-k D_l), so it
tends to sigma_inf (the recursion at every e_l = 0) and sigma - sigma_inf
= O(e^{-delta k}), delta = D_min the thinnest finite layer.  A density
exposes limit = (sigma_inf, delta, M_g), as ReactionDensity does, and

    I = sigma_inf I_inf + int_0^inf J_m(k rho) e^{-k zeta} (sigma - sigma_inf) k^n dk,

I_inf the integral at sigma = 1.  g = (sigma - sigma_inf) e^{delta k} is
analytic on Re k > 0, bounded on both edges of each quadrant (the real
ray, and the imaginary axis, where |e^{delta k}| = 1) and of exponential
type, so by Phragmen-Lindelof its sup on the edges bounds it inside; M_g
estimates that sup by sampling, as M_sigma estimates sigma's.  The
remainder's integrand is e^{-k (zeta + delta)} g k^n J_m, so the K solve,
the grid and the certificates below take (M, zeta) = (M_g, zeta + delta);
every node is checked for |sigma - sigma_inf| <= M_g e^{-delta k} plus
rounding (InvariantViolated).  Over one interface sigma is constant and a
table is its closed form, with no panel.  A density whose limit is (0,
0, M_sigma) is integrated whole, with M = M_sigma.

The split carried to every order.  Over one finite layer, of thickness
D, sigma (gamma+_1 gamma+_2 + gamma-_1 gamma-_2 e^2), e = e^{-kD}, is a
polynomial of degree 2 in e, so sigma = sum_j c_j e^{-kjD} exactly, a
geometric image series of ratio q < 1 past c_0 = sigma_inf
(_image_series).  Every integral is then a finite sum of closed forms,
I(n, m; rho, zeta) = sum_{j < K} c_j I_inf(n, m; rho, zeta + jD), with a
closed-form tail bound (_image_tables).  The operators take that sum
(expansions._reaction_table) while K stays within IMAGE_TERMS (q up to
about 0.8 at rel_tol 1e-12), and the engine past it or over any other
medium; radial_table and eval_reaction_green stay the engine.

I_inf in closed form, r = hypot(rho, zeta), c = zeta/r, s = rho/r: for
m <= n it is (n-m)! P_n^m(c) / r^{n+1} (Ferrers, no Condon-Shortley
phase), run as D_n^m = (n-m)! P_n^m / ((2n-1)!! s^m) down in m from
D_n^n = 1 by D^{m-1} = (2m c D^m - (n-m) s^2 D^{m+1}) / (n+m), exact at
c = 1, with s^m and r^{n+1} applied once at the end; for m > n it is run
up in n by I(n+1, m) = ((2n+1) zeta I(n, m) + (m^2 - n^2) I(n-1, m)) / r^2
from I(0, m) = t^m / r and I(1, m) = I(0, m)(m + c)/r, t = rho/(r + zeta),
a sum of positive terms.  Both stay within (n + 2) eps n!/zeta^{n+1} of
the integral for n, m <= 120 (tested against 400 digits), which the
returned error carries times |sigma_inf|; a 1 x 1 table is 1/r.

K solves M Gamma(n+1, K zeta) / zeta^{n+1} <= tol/10 (by gammainccinv,
never below a baseline), tol the least finite tolerance of the pair; nine
tenths of each tolerance go to the panels: composite 32-point Gauss-
Legendre rules whose errors are proven, not estimated.  The integrand is
analytic on Re k >= 0, so on the Bernstein ellipse E_r of a panel
[c - h, c + h], half-axes h a and h b (a, b = (r +- 1/r)/2), in Re k >= 0
it is bounded by M_E = M (c + h a)^n e^{-zeta (c - h a)} e^{rho h b}
(|J_m(z)| <= e^{|Im z|}).  The rule, exact to degree 63, errs by at most
h (64/15) M_E r^{-62} / (r^2 - 1) (Trefethen, ATAP Thm 19.3 with 32
nodes; _ellipse_log_bound), least over a fixed grid of r and capped by
the panel's mass bound 2 M (2h) max k^n e^{-k zeta} (|J_m| <= 1 on the
real axis, weights summing to 2h).  A certified panel takes one rule;
certified panels are bisected worst-first on their bounds alone, before
any integrand value is computed, until the bounds fit or the panel budget
is spent (ToleranceNotMet), and their rules run only then, on the panels
the bounds keep.  Only [0, w] admits no ellipse in Re k >= 0: it keeps
the sum of its half-panel rules, their disagreement with the whole-panel
rule as its error, and is bisected on that estimate.  M is
an estimate, so every density value is checked against M_sigma
(InvariantViolated); the bound covers the rule in exact arithmetic, and
rounding of the sums (about 1e-16 of the integrand's mass) sits far below
every tolerance (at least MIN_TOL).

The initial grid is dyadic: edges 0, w, 2w, 4w, ... up to the first
power-of-two multiple of w at or past K, w = min(K/16, the power of two
nearest 16 pi / rho, W), so [0, w] carries about 6 to 11 periods of
e^{i k rho}.  W = 8 / D_max (D_max the medium's thickest finite layer;
no cap without one) keeps [0, w] within the scale on which sigma varies,
so its estimate seldom needs bisection.  The certificates set the panel
count: panels stay wide where the mass is small (their mass bounds decide
there) and are split only where it is not.  The tail past the grid's end
is no larger than past K.  Bisection keeps every edge on the dyadic
lattice of w, and power-of-two widths put tables with different rho on
one lattice, so a group's grid takes its members' smallest w and largest
K.  Rules are evaluated _BLOCK (64) per call, one call for a p = 8
reaction M2L table below rho/zeta of about 60, as a sweep costs mostly
per call, not per node.  Refinement is level-synchronous.

The Bessel ladder (_bessel_orders) takes J_0 and J_1 from j0/j1 and the
higher orders from the three-term recurrence in its stable direction.
Its absolute error of about 2e-14 moves I(n, m) by at most 2e-14 M
Gamma(n+1)/zeta^{n+1}, 100 to 1000 times below every tolerance of the
expansion builders (rel_tol 1e-11 to 1e-12 of that same bound).  sigma is
real on the real axis, so one batched real matrix product per block
contracts the Bessel values against k^n e^{-k zeta} sigma(k) times the
weights, one column per power (a running product over n).  The tables are
complex with imaginary part 0; a density value with a nonzero imaginary
part raises DomainError (complex sigma, as for Helmholtz, is unsupported).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special

from .densities import InterfaceMatrices, ReactionDensity, _chain
from .errors import DomainError, InvariantViolated, ToleranceNotMet
from .medium import component_exists, tau_map

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

MIN_TOL = 1e-13
#: Panels a table may reach (read at each call) before it raises
#: ToleranceNotMet: about 8192 rules at one a certified panel; an estimated
#: panel costs three, as did each bisected on the way to it: 6 x 8192.
MAX_PANELS = 8192
#: The counters of a quadrature's stats, which sum over tables; tol_use,
#: the one other key, takes the largest.
QUAD_COUNTS = ("panels", "gl_calls", "nodes", "evals", "bisections", "certified")


def _bessel_orders(orders, x):
    """J_m(x) for each m in orders (nonnegative ints), stacked along a new
    first axis, x >= 0 of any shape.  J_0, J_1 come from special.j0/j1,
    higher orders from the three-term recurrence in its stable direction:
    upward, J_{m+1} = (2m/x) J_m - J_{m-1}, where x >= top = max(orders);
    downward from special.jv seeds J_top, J_{top-1} by J_{m-1} = 2m J_m / x
    - J_{m+1} below (J is the minimal solution above x; 2m J_m is formed
    before the division, so an underflowed seed gives zeros, never NaN).
    special.jv returns 0 below about 1e-280, not always first in the higher
    order, and a J_top of 0 would put every lower order off by about
    x^2/(4 top^2) relative (2.9e-8 at top 120, x = 0.34), so a node where
    either seed is 0 takes special.jv for every order.  At x = 0, J_m = 0
    for m >= 2.  The values stay within about 2e-14 absolute of special.jv
    for orders up to 120 and x from 1e-300 to 200, and up to 58 on to
    x = 1e5 (the tests require 5e-14)."""
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
        lost = (sub[top - 1] == 0.0) | (sub[top] == 0.0)
        if np.any(lost):
            sub[2:, lost] = special.jv(np.arange(2, top + 1)[:, None], xs[lost])
        ladder[2:, down] = sub[2:]
        ladder[2:, flat == 0.0] = 0.0
    return ladder[orders].reshape((len(orders),) + x.shape)


#: special.gamma(n + 1) for n = 0 ... 171 (inf at 171), looked up, not recomputed
_GAMMA = special.gamma(np.arange(1.0, 173.0))


def _gamma_tail(nexp, x0, scale):
    """int_{x0}^inf u^nexp e^{-u scale} du."""
    a = nexp + 1.0
    return special.gammaincc(a, x0 * scale) * special.gamma(a) / scale ** a


def _choose_kmax(bound, rho, zeta, powers, tol_tail):
    """Upper limits K for a batch of pairs (rho, zeta, tol_tail: arrays of
    one shape, or scalars for one pair), each with bound * Gamma(n+1, K
    zeta) / zeta^{n+1} <= tol_tail for every n in powers and never below
    max(60/zeta, 200/max(rho, zeta), (max n + 10)/zeta).  As Gamma(n+1, x)
    = Gamma(n+1) Q(n+1, x), one elementwise gammainccinv call solves the
    batch (each K bitwise its one-pair solve); K is raised by 1e-9
    relative, more than the inverse's error of about 1e-13 (K zeta >= 60),
    and the tails are checked once."""
    zeta, tol = np.asarray(zeta, dtype=float), np.asarray(tol_tail)[..., None]
    kmax = np.maximum(max(60.0, max(powers) + 10.0) / zeta,
                      200.0 / np.maximum(rho, zeta))
    if bound == 0.0:
        return kmax[()]
    a, z = np.asarray(powers) + 1.0, zeta[..., None]
    gamma, za = _GAMMA[np.minimum(powers, 171)], z ** a
    x = special.gammainccinv(a, np.minimum(tol * za / (bound * gamma), 1.0))
    kmax = np.maximum(kmax, (1.0 + 1e-9) * x.max(axis=-1) / zeta)
    # bound * _gamma_tail(n, K, zeta), with the Gamma(n+1) and zeta^{n+1}
    # above
    tails = bound * (special.gammaincc(a, kmax[..., None] * z) * gamma / za)
    if not (np.isfinite(kmax).all() and (tails <= tol).all()):
        raise ToleranceNotMet("tail bound did not close", achieved=float(tails.max()))
    return kmax[()]


#: Gauss-Legendre rules per evaluate call, which share one density sweep:
#: larger calls buy fewer sweeps at the cost of peak memory.
_BLOCK = 64


def _rules(evaluate, lo, hi):
    """One rule on each [lo[i], hi[i]] (at least one), _BLOCK rules per
    evaluate call.  Returns (estimates stacked along the first axis, number
    of evaluate calls)."""
    starts = range(0, len(lo), _BLOCK)
    for s in starts:
        est = evaluate(lo[s : s + _BLOCK], hi[s : s + _BLOCK])
        if not s:
            out = np.empty((len(lo),) + est.shape[1:], dtype=est.dtype)
        out[s : s + _BLOCK] = est
        # release this block's estimates before the next evaluate call
        est = None
    return out, len(starts)


def _worst(err, safe_tol, room):
    """Panels to bisect: ranked by their worst entrywise error-to-tolerance
    ratio, the shortest run of worst panels whose errors the tolerance
    cannot absorb (the rest sum to at most safe_tol in every entry); at
    least one and at most room."""
    ratio = err.reshape(len(err), -1) / safe_tol.reshape(-1)
    order = np.argsort(-ratio.max(axis=1), kind="stable")
    # rest[j]: what the panels ranked j and below leave, per entry
    rest = np.cumsum(ratio[order[::-1]], axis=0)[::-1]
    count = np.count_nonzero(np.any(rest > 1.0, axis=1))
    return order[: min(max(count, 1), room)]


def _bisect(lo, hi, pick):
    """(kept panel mask, child lo, child hi): the picked panels' left
    children, then their right children."""
    keep = np.ones(len(lo), dtype=bool)
    keep[pick] = False
    mid = 0.5 * (lo[pick] + hi[pick])
    return keep, np.concatenate([lo[pick], mid]), np.concatenate([mid, hi[pick]])


def _next_split(err, tol, n_panels):
    """(summed error, the panels _worst picks or None once the sum fits
    tol everywhere); ToleranceNotMet once MAX_PANELS are spent."""
    total = np.sum(err, axis=0)
    if np.all(total <= tol):
        return total, None
    if n_panels >= MAX_PANELS:
        raise ToleranceNotMet(
            f"panel budget {MAX_PANELS} exhausted",
            achieved=float(np.max(total / tol)),
        )
    return total, _worst(err, tol, MAX_PANELS - n_panels)


def _adaptive_panels(evaluate, edges, tol_abs, certify=None):
    """Composite adaptive quadrature over initial panel edges.

    evaluate(lo, hi) returns Gauss-Legendre estimates of a (vector-valued)
    integral over each [lo[i], hi[i]], each of tol_abs's shape, stacked
    along the first axis, _BLOCK rules a call.  certify(lo, hi), if given,
    returns an a-priori bound on each panel's rule error, broadcastable to
    tol_abs's shape, inf where it has none, which must bound every
    subpanel too.  A panel with a finite bound is certified: one rule, the
    bound as its error, known before the rule runs.  Every other panel is
    estimated: it keeps the sum of its half-panel rules, their disagreement
    with the whole-panel rule as its error, and counts no error until its
    three rules have run.  One loop: while the known errors miss tol_abs,
    a pass bisects the panels _worst picks, never more than a worst-first,
    one-at-a-time bisection would before it could stop (for a scalar
    integral); once they fit, a pass runs the rules of every panel not yet
    evaluated.  So certified panels are bisected on their bounds alone, and
    their rules run only once the bounds fit.  The loop ends when the
    errors fit and every panel is evaluated, or the panel budget is spent
    (ToleranceNotMet).

    Returns (value, error, stats); stats counts the final panels, the
    32-node rules (gl_calls), their nodes, the evaluate calls (evals), the
    bisections and the certified panels, and tol_use is the worst ratio of
    the error to tol_abs over the entries with a finite positive tol_abs.
    """
    tol_abs = np.asarray(tol_abs, dtype=float)
    safe_tol = np.where(tol_abs > 0, tol_abs, np.inf)

    def fresh(lo, hi):
        # (errors known before any rule runs, mask of the panels with a
        # finite bound in every entry) of new panels
        err = np.zeros((len(lo),) + safe_tol.shape)
        if certify is None:
            return err, np.zeros(len(lo), dtype=bool)
        bound = certify(lo, hi)
        cert = np.isfinite(bound).reshape(len(lo), -1).all(axis=1)
        err[cert] = bound[cert]
        return err, cert

    lo, hi = edges[:-1], edges[1:]
    err, cert = fresh(lo, hi)
    val, todo = np.zeros(err.shape), np.ones(len(lo), dtype=bool)
    gl_calls = evals = 0
    while True:
        total, pick = _next_split(err, safe_tol, len(lo))
        if pick is not None:
            keep, c_lo, c_hi = _bisect(lo, hi, pick)
            c_err, c_cert = fresh(c_lo, c_hi)
            lo, hi, val, err, cert, todo = (
                np.concatenate([x[keep], c]) for x, c in (
                    (lo, c_lo), (hi, c_hi), (val, np.zeros(c_err.shape, val.dtype)),
                    (err, c_err), (cert, c_cert), (todo, np.ones(len(c_lo), bool)))
            )
        elif todo.any():
            est = todo & ~cert
            mid = 0.5 * (lo[est] + hi[est])
            rules, calls = _rules(evaluate, np.concatenate([lo[est], mid, lo[todo]]),
                                  np.concatenate([mid, hi[est], hi[todo]]))
            n_est = len(mid)
            val = val.astype(rules.dtype, copy=False)
            val[todo] = rules[2 * n_est :]
            halves = rules[:n_est] + rules[n_est : 2 * n_est]
            err[est] = np.abs(val[est] - halves)
            val[est] = halves
            todo[:] = False
            gl_calls, evals = gl_calls + len(rules), evals + calls
        else:
            break
    return np.sum(val, axis=0), total, {
        "panels": len(lo),
        "gl_calls": gl_calls,
        "nodes": gl_calls * len(_GL_NODES),
        "evals": evals,
        "bisections": len(lo) - len(edges) + 1,
        "certified": int(np.count_nonzero(cert)),
        "tol_use": float(np.max(total / safe_tol)),
    }


#: Doubles a pair chunk's per-node arrays may hold in one evaluate call
#: (512 KiB), so a block's peak memory does not grow with the group.
_CHUNK_DOUBLES = 1 << 16

#: Pairs share a grid only while its largest K over its smallest width
#: stays within this factor of every member's own K / w, which tracks the
#: panels that member's certificates need.
_GRID_SPREAD = 2.0

#: Table entries (pairs x powers x orders) one grid carries at most.
#: _adaptive_panels keeps a complex value and a real error of every entry
#: per panel, the error of full shape from the start, so a group holds no
#: more per panel than one pair's table at p = 63 does.
_GROUP_ENTRIES = 4096


def _own_grid(bound, rho, zeta, powers, tol_tail, cap=math.inf):
    """(K, initial panel width) radial_table chooses for each pair, as
    _choose_kmax takes them; cap is the module docstring's W."""
    kmax = _choose_kmax(bound, rho, zeta, powers, tol_tail)
    rho = np.asarray(rho, dtype=float)
    near = 2.0 ** np.round(np.log2(np.divide(
        16.0 * math.pi, rho, out=np.full(rho.shape, math.inf), where=rho > 0.0)))
    return kmax, np.minimum(kmax / 16.0, np.minimum(near, cap))


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


@lru_cache(maxsize=16)
def _image_plan(powers, orders):
    """The k-free parts of _image_lanes for tuples of powers and orders,
    read-only: top; the runs' factors by step i (m = n - i going down, 0
    once m < 1); the lanes n, 1/n (0 at n = 0), (2n-1)!! and -(n+1); where
    each entry sits in the runs and the order its m <= n entries scale by;
    and (n+2) eps n! and -(n+1) by power."""
    p, o = np.array(powers)[:, None], np.array(orders)
    top = int(max(p.max(), o.max()))
    i, n = np.arange(top)[:, None], np.arange(top + 1.0)
    m = n - i
    live, low = m >= 1, o <= p
    over = np.where(live, n + m, 1.0)
    steps = (np.where(live, 2.0 * m, 0.0) / over, 2.0 * i + 0.0 * n + 1.0,
             np.where(live, -i, 0.0) / over, n * n - i * i)
    plan = (top, np.stack(steps[:2], axis=1)[..., None],
            np.stack(steps[2:], axis=1)[..., None],
            n[:, None], np.divide(1.0, n, out=np.zeros_like(n), where=n > 0)[:, None],
            np.array([float(math.prod(range(1, 2 * k, 2))) for k in range(top + 1)])[:, None],
            -(n[:, None] + 1.0),
            (np.where(low, p - o, p) + 1, np.where(low, 0, 1), np.where(low, p, o)),
            np.where(low, o, 0),
            (p[:, 0] + 2.0) * np.finfo(float).eps * _GAMMA[np.minimum(p[:, 0], 171)],
            -(p[:, 0] + 1.0))
    for x in plan[1:7] + plan[7] + plan[8:]:
        x.flags.writeable = False
    return plan


#: Pairs above which _image_lanes forms its step factors step by step,
#: not all at once: a top-12 table of 210 pairs takes 0.62 ms, not 0.85,
#: where 6 pairs would take 82 us, not 59.
_IMAGE_STEP_PAIRS = 64


def _image_lanes(rhos, zetas, powers, orders):
    """(I_inf by power, order and pair; its rounding bound by pair and
    power): the module docstring's closed form, both runs in one loop of
    top steps, the one up in n from I(-1, m) = t^m / m (0 at m = 0) and
    I(0, m); pairs run along the last axis of every step."""
    (top, step_a, step_b, lanes, inv_lanes, dfact, lift, where, order, rounding,
     lower) = _image_plan(tuple(powers.tolist()), tuple(orders.tolist()))
    r, rounding = np.hypot(rhos, zetas), rounding * zetas[:, None] ** lower
    if top == 0:
        return np.ones(order.shape + (1,)) * (1.0 / r), rounding
    c, s, inv = zetas / r, rhos / r, 1.0 / r
    # the runs' pair factors: c and zeta/r^2 by step_a, s^2 and 1/r^2 by
    # step_b, formed by step (two lane-by-pair buffers) for many pairs
    factor = np.array([c, c * inv, s * s, inv * inv])[:, None, :]
    by_step = len(r) > _IMAGE_STEP_PAIRS
    if by_step:
        fa, fb = np.empty((2, 2, top + 1, len(r)))
    else:
        step_a, step_b = step_a * factor[:2], step_b * factor[2:]
    # run[i + 1] = (D_n^{n-i} by n, I(i, m) by m), each by [lane, pair]
    run = np.empty((top + 2, 2, top + 1, len(r)))
    run[0, 0], run[1, 0] = 0.0, 1.0
    t_m = (s / (1.0 + c)) ** lanes
    run[0, 1], run[1, 1] = t_m * inv_lanes, t_m * inv
    for i in range(top):
        nxt = run[i + 2]
        if by_step:
            np.multiply(np.multiply(step_a[i], factor[:2], out=fa), run[i + 1], out=nxt)
            nxt += np.multiply(np.multiply(step_b[i], factor[2:], out=fb), run[i], out=fb)
            continue
        np.multiply(step_a[i], run[i + 1], out=nxt)
        nxt += step_b[i] * run[i]
    # (2n-1)!! / r^{n+1} on the lanes of D
    run[1:, 0] *= dfact * r ** lift
    return run[where] * (s ** lanes)[order], rounding


#: Bernstein-ellipse parameters r tried for each panel's certificate, each
#: clipped to the largest the panel admits; near the best r the log bound is
#: flat to second order, so the 16% steps cost at most a factor 1.2.
_ELLIPSE_R = np.geomspace(1.02, 1000.0, 48)


def _ellipse_log_bound(h, r):
    """log of h (64/15) r^{-(2N-2)} / (r^2 - 1), which times M bounds the
    N = 32-point rule's error on a panel of half-width h for an integrand
    bounded by M in its Bernstein ellipse E_r: exact to degree 2N - 1, it
    errs by at most sum_{even k >= 2N} 2 M r^{-k} (32/15) (Trefethen, ATAP
    Thm 19.3, there with n + 1 = N nodes and r^{-2n})."""
    power = 2 * len(_GL_NODES) - 2
    return np.log(h * (64.0 / 15.0) / (r * r - 1.0)) - power * np.log(r)


def _panel_bounds(bound, rhos, zetas, powers, lo, hi):
    """The module docstring's a-priori error bounds of the 32-point rule
    on the panels [lo, hi], with M_sigma = bound, for every (pair, power):
    shape (panels, pairs, powers); inf where a panel touches k = 0."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    q = c / h
    r = np.minimum(_ELLIPSE_R[:, None], q + np.sqrt(np.maximum(q * q - 1.0, 0.0)))
    ha, hb = 0.5 * h * (r + 1.0 / r), 0.5 * h * (r - 1.0 / r)
    n = powers.astype(float)
    zeta = zetas[:, None]
    best = np.empty((len(lo), len(rhos), len(powers)))
    step = max(1, _CHUNK_DOUBLES // (len(_ELLIPSE_R) * best[0].size))
    with np.errstate(divide="ignore", invalid="ignore"):
        # log bound = own(r, panel) + n log(c + h a) + rho h b - zeta (c - h a)
        own = _ellipse_log_bound(h, r) + math.log(bound)
        far = np.log(c + ha)
        for s in range(0, len(lo), step):
            p = slice(s, s + step)
            geo = hb[:, p, None] * rhos - (c[p] - ha[:, p])[..., None] * zetas
            geo += own[:, p, None]
            total = geo[..., None] + (far[:, p, None] * n)[:, :, None, :]
            best[p] = np.min(total, axis=0)
        # k^n e^{-k zeta} peaks at n/zeta
        peak = np.clip(n / zeta, lo[:, None, None], hi[:, None, None])
        cap = np.log(4.0 * bound * h)[:, None, None] + n * np.log(peak) - zeta * peak
    out = np.exp(np.minimum(best, cap))
    out[lo <= 0.0] = np.inf
    return out


def _grid_tables(density, limit, delta, rem_bound, rhos, zetas, kmax, width, powers,
                 orders, tol_abs):
    """The tables of a group of pairs on the module docstring's dyadic grid,
    from their smallest own w to past their largest own K, of sigma -
    limit: (limit, delta, rem_bound) is the density's (sigma_inf, delta,
    M_g), or (0, 0, M_sigma) for a density integrated whole.  Each evaluate
    block sweeps the density once for all pairs and checks every value
    against the bounds the certificates rest on (InvariantViolated) and for
    a zero imaginary part (DomainError)."""
    shape = (len(rhos), len(powers), len(orders))
    top = int(np.max(powers))
    bound = density.bound
    # rounding of sigma - sigma_inf where the remainder vanishes
    noise = 4.0 * np.finfo(float).eps * (abs(limit) + bound)

    def evaluate(lo, hi):
        half = 0.5 * (hi - lo)
        k = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES
        dens = density(k.ravel()).reshape(k.shape)
        if not np.all(np.abs(dens) <= bound):
            raise InvariantViolated(
                f"|sigma| = {np.nanmax(np.abs(dens)):.6e} above its bound "
                f"M_sigma = {bound:.6e}; the panel certificates do not hold"
            )
        if np.any(np.imag(dens)):
            raise DomainError("sigma must be real on the real axis")
        dens = np.real(dens) - limit
        if not np.all(np.abs(dens) <= rem_bound * np.exp(-delta * k) + noise):
            raise InvariantViolated(
                f"|sigma - sigma_inf| above M_g e^(-delta k) with M_g = "
                f"{rem_bound:.6e}; the panel certificates do not hold"
            )
        dens = dens * (half[:, None] * _GL_WEIGHTS)
        out = np.empty((len(lo),) + shape, dtype=complex)
        per_pair = k.size * (top + len(powers) + 1 + len(orders))
        step = max(1, _CHUNK_DOUBLES // per_pair)
        for s in range(0, shape[0], step):
            pairs = slice(s, s + step)
            # k^n e^{-k zeta} sigma w by a running product over n
            run = np.empty((top + 1, len(rhos[pairs])) + k.shape)
            run[0] = np.exp(-k * zetas[pairs, None, None]) * dens
            for n in range(top):
                np.multiply(run[n], k, out=run[n + 1])
            jm = _bessel_orders(orders, k * rhos[pairs, None, None])
            # (pairs, rules, orders, nodes) @ (pairs, rules, nodes, powers)
            res = jm.transpose(1, 2, 0, 3) @ run[powers].transpose(1, 2, 3, 0)
            out[:, pairs] = res.transpose(1, 0, 3, 2)
        return out

    def certify(lo, hi):
        # orders do not enter the bound
        return _panel_bounds(rem_bound, rhos, zetas + delta, powers, lo, hi)[..., None]

    w = float(np.min(width))
    doublings = math.ceil(math.log2(float(np.max(kmax)) / w))
    edges = np.concatenate([[0.0], w * 2.0 ** np.arange(doublings + 1)])
    return _adaptive_panels(evaluate, edges, 0.9 * tol_abs, certify)


def _radial_tables(density, rhos, zetas, powers, orders, tol_abs):
    """radial_table for (rho, zeta) pairs of shape (B,); tol_abs, values
    and errors have shape (B, len(powers), len(orders)), and one stats
    record sums the batch.  Each pair's K and width are its own (one
    _own_grid call); each group of pairs (_group_pairs) shares one grid
    (_grid_tables) and the panel budget MAX_PANELS."""
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
    stats = dict.fromkeys(QUAD_COUNTS, 0)
    stats["tol_use"] = 0.0
    if bound == 0.0 or not len(rhos):
        return values, err, stats

    limit, delta, rem_bound = density.limit
    if rem_bound > 0.0:
        thick = density.thickest
        tol_tail = 0.1 * np.min(np.where(finite, tol_abs, np.inf), axis=(1, 2))
        kmax, width = _own_grid(rem_bound, rhos, zetas + delta, powers, tol_tail,
                                8.0 / thick if thick > 0.0 else math.inf)
        for group in _group_pairs(kmax, width, shape[1] * shape[2]):
            values[group], err[group], own = _grid_tables(
                density, limit, delta, rem_bound, rhos[group], zetas[group],
                kmax[group], width[group], powers, orders, tol_abs[group],
            )
            for key in QUAD_COUNTS:
                stats[key] += own[key]
    if limit != 0.0:
        image, rounding = _image_lanes(rhos, zetas, powers, orders)
        values += limit * image.transpose(2, 0, 1)
        err += abs(limit) * rounding[..., None]
    stats["tol_use"] = float(np.max(err[finite] / tol_abs[finite]))
    return values, err, stats


def radial_table(density, rho, zeta, powers, orders, tol_abs):
    """All integrals I(n, m) for n in powers, m in orders on shared nodes.

    Requires zeta > 0, rho >= 0 and nonnegative powers and orders
    (DomainError otherwise), and a density exposing a uniform bound
    M_sigma, its limit = (sigma_inf, delta, M_g) ((0, 0, M_sigma) to
    integrate it whole) and thickest = D_max (0 for no width cap); a
    density value above its bounds raises InvariantViolated, one
    with a nonzero imaginary part DomainError.  tol_abs is an entrywise
    absolute tolerance of shape (len(powers), len(orders)); inf entries do
    not drive refinement, and at least one must be finite (DomainError for
    another shape, or for an entry not > 0 or inf).  Returns (values,
    errors, stats); stats counts the quadrature (_adaptive_panels: panels,
    gl_calls, nodes, evals, bisections, certified) of sigma, or of the
    remainder sigma - sigma_inf when split (all 0 where it vanishes), and
    tol_use is the worst ratio of the error to the finite tol_abs.  This
    is the one-pair view of _radial_tables.
    """
    values, err, stats = _radial_tables(
        density, [rho], [zeta], powers, orders, np.asarray(tol_abs, dtype=float)[None]
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


#: sigma samples over one period 2 pi / D of the imaginary axis
#: (_image_series): the FFT that reads sigma's numerator polynomial
_IMAGE_SAMPLES = 8


@lru_cache(maxsize=512)
def _image_series(medium, a, b, ell, ellprime):
    """(c_0, c_1, c_2), r, D and slack of sigma^{ab}_{l,l'} over a medium
    with one finite layer, of thickness D: sigma = sum_j c_j e^j, e =
    e^{-kD}, with c_{j+2} = r c_j for j >= 1.

    The denominator of the recursion is alpha_22 = A + B e^2, A =
    gamma+_1 gamma+_2, B = gamma-_1 gamma-_2, so sigma (A + B e^2) is a
    polynomial p_0 + p_1 e + p_2 e^2; its coefficients come from an FFT
    of _IMAGE_SAMPLES values on the imaginary axis, where e runs once
    round the unit circle, and every coefficient above degree 2 must
    vanish to rounding (InvariantViolated otherwise).  Expanding 1/(A +
    B e^2) = (1/A) sum_i r^i e^{2i}, r = -B/A (|r| < 1, as |gamma-_l| <
    gamma+_l), gives c_0 = p_0/A, c_1 = p_1/A and c_2 = (p_2 + r p_0)/A.
    slack is sum_j |c_j error| from the coefficients' rounding, taking p_0,
    p_1 and p_2 each off by the samples' rounding as the FFT shows it
    (the largest coefficient above degree 2 or imaginary part) plus 8 eps
    max |sigma alpha_22| for the FFT itself; c_0, c_1, c_2 and their
    multiples r^i c_1, r^i c_2 carry that to at most 3 / (|A| (1 - |r|))
    times it.  The check's 1e-10 relative slack is the key inequality's:
    the recursion cancels on the imaginary axis."""
    thick = medium.interfaces[0] - medium.interfaces[1]
    n = _IMAGE_SAMPLES
    mats = InterfaceMatrices(medium, 2j * math.pi * np.arange(n) / (n * thick))
    samples = _chain(mats, ellprime, b, ell)[a - 1] * mats.alpha[2][1]
    poly = np.fft.ifft(samples)
    scale = float(np.max(np.abs(samples)))
    noise = float(max(np.max(np.abs(poly[3:])), np.max(np.abs(poly[:3].imag))))
    if not noise <= 1e-10 * scale:
        raise InvariantViolated(
            f"sigma alpha_22 has a coefficient {noise:.3e} above degree 2 in "
            f"e^(-kD) (samples up to {scale:.3e}); the image series does not hold"
        )
    gp, gm = mats.gamma_plus, mats.gamma_minus
    big, ratio = gp[1] * gp[2], -(gm[1] * gm[2]) / (gp[1] * gp[2])
    p0, p1, p2 = (float(x) / big for x in poly[:3].real)
    slack = 3.0 * (noise + 8.0 * float(np.finfo(float).eps) * scale) / (
        abs(big) * (1.0 - abs(ratio)))
    return (p0, p1, p2 + ratio * p0), ratio, thick, slack


#: Most image terms K an operator's table may take (_image_tables); past
#: it the engine is cheaper.  An image table costs about K closed-form
#: tables: on a one-pair top-12 table at rel_tol 1e-12 (rho/zeta 0.6 and
#: 3.75, 2-CPU host) q = 0.8 needs K = 213 and costs 1.5-1.9 ms against the
#: engine's 1.9 ms, q = 0.85 K = 289 and 2.0 ms against 1.9-2.2 ms, and
#: q = 0.9 K = 437 and 3.4 ms against 2.2 ms.
IMAGE_TERMS = 255

#: Doubles one _image_lanes call of _image_tables may hold in its
#: temporaries (2 MiB): the stacked pairs run in chunks of at most this.
_IMAGE_CHUNK_DOUBLES = 1 << 18


def _image_count(series, zetas, powers, tol_abs):
    """(i, log tail) of _image_tables: the least i that puts the tail bound
    at K = 2i + 1 terms at or below a tenth of every finite tol_abs
    (pairs, powers, orders), or None past IMAGE_TERMS; log tail is by pair
    and power.  The bound with zeta + KD held at zeta caps i (count(zeta)),
    and held at its value at that cap floors it; i is bisected between."""
    (c0, c1, c2), ratio, thick, _ = series
    q, head = abs(ratio), abs(c1) + abs(c2)
    n = powers.astype(float)
    zeta = zetas[:, None]
    with np.errstate(divide="ignore"):
        # log of head n! / (1 - q) and of a tenth of the least tolerance
        base = np.log(head) - math.log1p(-q) + special.gammaln(n + 1.0)
        room = np.log(0.1 * np.min(tol_abs, axis=2))
        log_q = np.log(q)

    def log_tail(i):
        return base + (i * log_q if i else 0.0) - (n + 1.0) * np.log(
            zeta + (2 * i + 1) * thick)

    def fits(i):
        return bool(np.all(log_tail(i) <= room))

    def count(depth):
        # the least i with the bound below room at zeta + KD held at depth
        with np.errstate(invalid="ignore"):
            excess = np.max(base - (n + 1.0) * np.log(depth) - room)
        return max(0, math.ceil(float(excess) / -log_q)) if excess > 0 else 0

    top = (IMAGE_TERMS - 1) // 2
    if not (head and q):
        lo, hi = -1, 0 if fits(0) else 1
    else:
        hi = count(zeta)
        if hi > top or not fits(hi):
            hi = top
            if not fits(hi):
                return None
        lo = count(zeta + (2 * hi + 1) * thick) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi, log_tail(hi)


def _image_tables(medium, component, rhos, zetas, powers, orders, tol_abs):
    """_radial_tables of ReactionDensity(medium, *component) for (rho, zeta)
    pairs of shape (B,) over a medium with exactly one finite layer
    (DomainError otherwise), as a finite sum of closed forms: sigma =
    sum_j c_j e^{-kjD} (_image_series) integrates term by term to

        I(n, m; rho, zeta) = sum_{j < K} c_j I_inf(n, m; rho, zeta + jD),

    I_inf by _image_lanes over the B K stacked pairs (rho_b, zeta_b +
    jD), in chunks whose temporaries stay within _IMAGE_CHUNK_DOUBLES (one
    call for the basis table of 6 targets at p = 12 and K = 35).  |I_inf(n, m;
    rho, Z)| <= n!/Z^{n+1}, so the terms past K = 2i + 1 sum to at most
    (|c_1| + |c_2|) q^i n! / ((1 - q)(zeta + KD)^{n+1}), the tail; i is the
    least that puts it at or below a tenth of every finite tolerance
    (_image_count).  Each error adds that tail, (1 + 2K/(n + 2)) sum_j
    |c_j| times _image_lanes' rounding at zeta + jD (the rounding of the
    closed forms, of r^i c_j and of the K-term sum) and the coefficients'
    slack times n!/zeta^{n+1}; ToleranceNotMet if an error exceeds its
    tolerance.  Returns (values, errors, stats) as _radial_tables, stats
    {"terms": K, "tail": the largest tail over its tolerance}, or None
    when K would pass IMAGE_TERMS: the caller runs the engine."""
    if medium.num_interfaces != 2:
        raise DomainError("the image series needs a medium with one finite layer")
    powers, orders = np.asarray(powers, dtype=int), np.asarray(orders, dtype=int)
    rhos, zetas = np.asarray(rhos, dtype=float), np.asarray(zetas, dtype=float)
    tol_abs = np.asarray(tol_abs, dtype=float)
    shape = (len(rhos), len(powers), len(orders))
    if not len(rhos):
        return np.zeros(shape, dtype=complex), np.zeros(shape), {"terms": 0, "tail": 0.0}
    series = _image_series(medium, *component)
    found = _image_count(series, zetas, powers, tol_abs)
    if found is None:
        return None
    i, log_tail = found
    (c0, c1, c2), ratio, thick, slack = series
    terms = 2 * i + 1
    geo, coeff = ratio ** np.arange(i), np.empty(terms)
    coeff[0], coeff[1::2], coeff[2::2] = c0, c1 * geo, c2 * geo
    # a stacked pair's doubles in _image_lanes: its runs, and its gathered
    # table and product
    top = int(max(powers.max(), orders.max()))
    per_pair = 2 * ((top + 2) * (top + 1) + len(powers) * len(orders))
    step = max(1, _IMAGE_CHUNK_DOUBLES // per_pair)
    batch = min(len(rhos), step)
    images = max(1, step // batch)
    values, rounding = np.empty(shape, dtype=complex), np.empty(shape[:2])
    for s in range(0, len(rhos), batch):
        rb, zb = rhos[s:s + batch], zetas[s:s + batch]
        total, rnd = 0.0, 0.0
        for j in range(0, terms, images):
            js = np.arange(j, min(j + images, terms))
            # (powers x orders x pairs, images) @ c_j
            table, own = _image_lanes(np.repeat(rb, len(js)),
                                      (zb[:, None] + thick * js).ravel(), powers, orders)
            total = total + table.reshape(-1, len(js)) @ coeff[js]
            rnd = rnd + np.abs(coeff[js]) @ own.reshape(len(rb), len(js), -1)
        values[s:s + batch] = total.reshape(shape[1:] + (len(rb),)).transpose(2, 0, 1)
        rounding[s:s + batch] = rnd
    n = powers.astype(float)
    tail = np.exp(log_tail)
    err = (tail + (1.0 + 2.0 * terms / (n + 2.0)) * rounding
           + slack * _GAMMA[np.minimum(powers, 171)] / zetas[:, None] ** (n + 1.0))
    err = np.broadcast_to(err[..., None], values.shape).copy()
    finite = np.isfinite(tol_abs)
    if not np.all(err[finite] <= tol_abs[finite]):
        raise ToleranceNotMet(
            "image table rounding above its tolerance",
            achieved=float(np.max(err[finite] / tol_abs[finite])),
        )
    return values, err, {"terms": terms,
                         "tail": float(np.max(tail / np.min(tol_abs, axis=2)))}


@lru_cache(maxsize=512)
def _real_axis_series(medium, a, b, ell, ellprime):
    """_image_series for _image_green by its own extraction, from four
    real-axis values: sigma alpha_22 = p_0 + p_1 e + p_2 e^2 is solved at
    e = e^{-kD} in {0, 1/2, 1} (k = inf, ln 2 / D, 0) and checked at e =
    1/4; a miss past 1e-10 of the values raises InvariantViolated.  Then
    c_0 = p_0/A, c_1 = p_1/A and c_2 = (p_2 + r p_0)/A as there.  The
    solve moves p_1 and p_2 by at most 8 times the values' rounding, taken
    as the check's miss plus 8 eps of the largest value, so slack is 24
    times that over |A| (1 - |r|)."""
    thick = medium.interfaces[0] - medium.interfaces[1]
    mats = InterfaceMatrices(medium, np.array([np.inf, math.log(2.0), 0.0,
                                               math.log(4.0)]) / thick)
    f0, fh, f1, fq = _chain(mats, ellprime, b, ell)[a - 1] * mats.alpha[2][1]
    e, quarter = mats.e[1][1], mats.e[1][3]
    # p_1 e + p_2 e^2 through (e, fh - f0) and (1, f1 - f0)
    p2 = ((fh - f0) / e - (f1 - f0)) / (e - 1.0)
    p1 = f1 - f0 - p2
    scale = float(max(abs(f0), abs(fh), abs(f1), abs(fq)))
    noise = abs(f0 + (p1 + p2 * quarter) * quarter - fq)
    if not noise <= 1e-10 * scale:
        raise InvariantViolated(
            f"sigma alpha_22 has a term above degree 2 in e^(-kD): a miss of "
            f"{noise:.3e} at e = 1/4 (values up to {scale:.3e}); the image series "
            f"does not hold"
        )
    gp, gm = mats.gamma_plus, mats.gamma_minus
    big, ratio = gp[1] * gp[2], -(gm[1] * gm[2]) / (gp[1] * gp[2])
    slack = 24.0 * (noise + 8.0 * float(np.finfo(float).eps) * scale) / (
        abs(big) * (1.0 - abs(ratio)))
    p0 = f0 / big
    return (float(p0), float(p1 / big), float(p2 / big + ratio * p0)), ratio, thick, slack


#: Most image terms K _image_green may sum; past it lab._oracle runs the
#: engine (_reaction_green).  An image term costs about 13 ns a pair:
#: at K = 8197 (q = 0.99, tol 1e-12) 18 pairs cost 2.1 ms against the
#: engine's 2.6 ms, and 320 pairs 35 ms against 9.7 ms.
IMAGE_GREEN_TERMS = 1 << 13


def _image_green(medium, a, b, ell, ellprime, r, rprime, tol):
    """_reaction_green over a medium with exactly one finite layer (DomainError
    otherwise), as the image series of _real_axis_series: sigma = sum_j
    c_j e^{-kjD} integrates term by term (Lipschitz) to

        u = (1/4pi) sum_{j < K} c_j / sqrt(rho^2 + (zeta + jD)^2),

    no quadrature.  As |c_{j+2}| = q |c_j| for j >= 1, q = |r| < 1, the
    terms past K = 2i + 1 sum to at most (|c_1| + |c_2|) q^i / ((1 - q)
    (zeta + KD) 4pi), the tail bound.  i is the least with that at every
    pair at most tol (> 0, absolute on u, DomainError otherwise) and at
    most eps times the pair's first three terms (each at least 1 /
    (sqrt(rho^2 + zeta^2) + 2D) times its |c_j|), so the sum is exact to
    its rounding for a few terms more than tol alone needs.  The error
    adds (K + 8) eps of the terms' absolute sum, at most (|c_0| + (|c_1|
    + |c_2|) / (1 - q)) / sqrt(rho^2 + zeta^2), for rounding and slack /
    zeta for the coefficients.  Returns (values, errors, stats) as
    _reaction_green; stats holds the term count K ("terms") and the
    largest tail bound ("tail"); None, with no sum, where K would pass
    IMAGE_GREEN_TERMS."""
    if medium.num_interfaces != 2:
        raise DomainError("the image series needs a medium with one finite layer")
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    tau = tau_map(medium, a, b, ell, ellprime, r, rprime)
    rho, zeta = np.hypot(tau[..., 0], tau[..., 1]), tau[..., 2]
    if not np.all(zeta > 0):
        raise DomainError("zeta must be positive")
    (c0, c1, c2), ratio, thick, slack = _real_axis_series(medium, a, b, ell, ellprime)
    eps, q, head = float(np.finfo(float).eps), abs(ratio), abs(c1) + abs(c2)
    near = np.hypot(rho, zeta)
    cut = min(4.0 * math.pi * tol,
              eps * (abs(c0) + head) / (float(np.max(near)) + 2.0 * thick))
    budget = (1.0 - q) * cut * float(np.min(zeta))
    i = 1
    if head * q > budget:
        i = max(1, math.ceil(math.log(budget / head) / math.log(q)))
        i += head * q ** i > budget
    terms = 2 * i + 1
    if terms > IMAGE_GREEN_TERMS:
        return None
    geo, coeff = ratio ** np.arange(i), np.empty(terms)
    coeff[0], coeff[1::2], coeff[2::2] = c0, c1 * geo, c2 * geo
    # terms in chunks of _CHUNK_DOUBLES, so memory stays bounded as q -> 1
    step = max(1, _CHUNK_DOUBLES // max(rho.size, 1))
    total = 0.0
    for j in range(0, terms, step):
        depth = zeta[..., None] + thick * np.arange(j, min(j + step, terms))
        total = total + np.sum(coeff[j:j + step] / np.hypot(rho[..., None], depth), axis=-1)
    tails = head * q ** i / ((1.0 - q) * (zeta + terms * thick))
    rounding = (terms + 8) * eps * (abs(c0) + head / (1.0 - q)) / near
    values = total / (4.0 * math.pi)
    err = (tails + rounding + slack / zeta) / (4.0 * math.pi)
    stats = {"terms": terms, "tail": float(np.max(tails)) / (4.0 * math.pi)}
    if tau.ndim == 1:
        return float(values), float(err), stats
    return values, err, stats


def eval_reaction_green(medium, a, b, ell, ellprime, r, rprime, tol=1e-10):
    """Reaction component u^{ab}_{l,l'}(r, r'): the oracle every expansion
    in this package is tested against.

        u = (1/4pi) * I(0, 0; |transverse tau|, tau_z, sigma^{ab})

    tol is an absolute tolerance on u.  r and r' are points (a float
    back) or arrays of points along the last axis, broadcast against each
    other (one value per pair, the pairs on shared quadrature grids).
    _reaction_green returns their error estimates and stats as well.
    """
    return _reaction_green(medium, a, b, ell, ellprime, r, rprime, tol)[0]


def eval_reaction_potential(medium, ell, ellprime, r, rprime, tol=1e-10):
    """Sum of all present reaction components for a (target, source) pair,
    or for pairs of points along the last axis as in eval_reaction_green."""
    return sum((eval_reaction_green(medium, a, b, ell, ellprime, r, rprime, tol)
                for a in (1, 2) for b in (1, 2)
                if component_exists(medium, a, b, ell, ellprime)), 0.0)


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


def cagniard_identity_check(name, rho, z, eta, tol=1e-8):
    """Both sides of the hyperbolic contour identity, for the test
    function f of CAGNIARD_CATALOG[name],

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
    if name not in CAGNIARD_CATALOG:
        raise DomainError(
            f"unknown Cagniard test function {name!r}; "
            f"the catalog has {', '.join(CAGNIARD_CATALOG)}"
        )
    fun, growth = CAGNIARD_CATALOG[name]
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
