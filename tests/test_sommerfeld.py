import functools
import itertools
import math

import mpmath
import numpy as np
import pytest
from conftest import random_medium
from scipy import special

from layerfmm import (
    ChargeSystem,
    HarmonicExpansion,
    ReactionDensity,
    cagniard_identity_check,
    eval_reaction_green,
    polarization_source,
    sqrt_branch,
)
from layerfmm import LayeredMedium, sommerfeld
from layerfmm.errors import (
    ComponentAbsent,
    DomainError,
    InvariantViolated,
    ToleranceNotMet,
)
from layerfmm.expansions import (
    _reaction_table,
    reaction_basis_table,
    reaction_le_from_charges,
    reaction_m2l_matrix,
)
from layerfmm.medium import component_exists
from layerfmm.sommerfeld import (
    CAGNIARD_CATALOG,
    _bessel_orders,
    radial_table,
)


class ConstantDensity:
    """sigma identical to a constant; the closed-form Lipschitz test case.
    It has no `limit`, so its tables integrate sigma whole."""

    def __init__(self, value=1.0):
        self.value = complex(value)

    def __call__(self, k):
        return np.full(np.shape(k), self.value)

    @property
    def bound(self):
        return abs(self.value)


def _bessel(m, x):
    """J_m(x) from the engine's Bessel ladder, one order at one x."""
    return float(_bessel_orders(np.array([m]), np.array(x))[0])


def test_bessel_trivial_values():
    assert _bessel(0, 0.0) == 1.0
    assert _bessel(1, 0.0) == 0.0


def test_bessel_first_zero_from_power_series():
    """Locate the first zero of J_0 by bisecting its truncated power
    series (independent of the library evaluator), then check J_0 there."""

    def j0_series(x):
        total, term = 1.0, 1.0
        for k in range(1, 40):
            term *= -(x * x) / (4.0 * k * k)
            total += term
        return total

    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if j0_series(lo) * j0_series(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(2.4048255577, abs=1e-9)
    assert abs(_bessel(0, root)) < 1e-9


def test_bessel_against_mpmath():
    """Relative accuracy 1e-13 against a 50-digit reference."""
    mpmath.mp.dps = 50
    rng = np.random.default_rng(0)
    for _ in range(60):
        m = int(rng.integers(0, 31))
        x = float(rng.uniform(0, 60))
        ref = float(mpmath.besselj(m, x))
        got = _bessel(m, x)
        assert abs(got - ref) <= 1e-13 * max(abs(ref), 1e-3)


def test_bessel_orders_match_jv():
    """The Bessel kernel of radial_table (j0/j1, the upward recurrence
    from x = max(orders) on, the downward one below it) agrees with
    special.jv to 5e-14 absolute and is finite everywhere: at x = 0, on
    both sides of the switch x = max(orders), and from x = 1e-300, where
    the downward seeds underflow, out to x = 1e5.  The orders 2p <= 120
    of reaction M2L above 60 stop at x = 200: beyond, special.jv itself
    errs by more (6.6e-14 at x ~ 6e3)."""
    base = np.concatenate([
        np.geomspace(1e-300, 1e5, 4001), np.linspace(0.0, 60.0, 601),
    ])
    cases = [np.arange(2 * p + 1) for p in range(13)]
    cases += [np.array([0]), np.array([0, 3, 7]), np.array([7, 3]), np.arange(41)]
    cases += [np.arange(59), np.arange(81), np.arange(121)]
    for orders in cases:
        top = float(orders.max())
        switch = [np.nextafter(top, 0.0), top, np.nextafter(top, np.inf),
                  top * (1.0 - 1e-3), top * (1.0 + 1e-3)]
        x = np.concatenate([[0.0], switch, base])
        x = x[x <= 200.0] if top > 60 else x
        got = sommerfeld._bessel_orders(orders, x)
        assert got.shape == (len(orders), len(x))
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - special.jv(orders[:, None], x))) <= 5e-14
    x = np.linspace(0.0, 300.0, 24 * 32).reshape(24, 32)
    orders = np.arange(17)
    got = sommerfeld._bessel_orders(orders, x)
    assert np.max(np.abs(got - special.jv(orders[:, None, None], x))) <= 5e-14


def test_bessel_orders_drop_no_underflowed_seed():
    """special.jv underflows to 0 below about 1e-280, not always first in
    the higher order: at top 58 it gives J_58 = 7e-302 where J_57 is 0
    (x = 2.9e-4), and at top 80 to 120 J_top = 0 where J_{top-1} is not.
    A ladder from a lost J_top put every lower order off by about
    x^2/(4 top^2) relative: 2.9e-8 at top 120, order 2, x = 0.34, which
    mpmath checks here."""
    got = sommerfeld._bessel_orders(np.arange(121), np.array([0.34]))[2, 0]
    assert abs(got - float(mpmath.besselj(2, 0.34))) <= 1e-17


def test_radial_table_on_axis_closed_form():
    """At rho = 0 every node has k rho = 0, where J_0 = 1 and J_m = 0 for
    m > 0: I(n, 0) = Gamma(n+1)/zeta^{n+1} and I(n, m > 0) = 0."""
    zeta = 0.4
    n = np.arange(13)
    tol = _relative_tol(zeta, size=13)
    values, _, _ = radial_table(ConstantDensity(1.0), 0.0, zeta, n, n, tol)
    exact = [math.gamma(k + 1) / zeta ** (k + 1) for k in n]
    assert np.all(np.abs(values[:, 0] - exact) <= tol[:, 0])
    assert not np.any(values[:, 1:])


def _single(m, n, rho, zeta, density, tol):
    """One radial integral I(n, m) as a 1x1 table, absolute tolerance."""
    values, _, _ = radial_table(density, rho, zeta, [n], [m], np.array([[tol]]))
    return complex(values[0, 0])


def test_radial_integral_lipschitz_closed_forms():
    """sigma == 1 reduces to classical Lipschitz integrals."""
    rho, zeta = 1.3, 0.7
    r2 = rho * rho + zeta * zeta
    cases = {
        (0, 0): 1.0 / math.sqrt(r2),
        (0, 1): zeta / r2 ** 1.5,
        (1, 1): rho / r2 ** 1.5,
        (1, 0): (1.0 - zeta / math.sqrt(r2)) / rho,
    }
    for (m, n), exact in cases.items():
        got = _single(m, n, rho, zeta, ConstantDensity(), 1e-12)
        assert got.real == pytest.approx(exact, abs=1e-11)


def test_radial_integral_brute_force_cross_check():
    """(m, n) = (1, 1) against a dense trapezoid evaluation."""
    rho, zeta = 0.9, 1.1
    k = np.linspace(0.0, 400.0, 2_000_001)
    brute = np.trapezoid(special.jv(1, k * rho) * np.exp(-k * zeta) * k, k)
    got = _single(1, 1, rho, zeta, ConstantDensity(), 1e-12)
    assert got.real == pytest.approx(brute, abs=1e-9)


def test_radial_integral_linearity():
    v1 = _single(2, 3, 0.8, 1.4, ConstantDensity(1.0), 1e-12)
    v2 = _single(2, 3, 0.8, 1.4, ConstantDensity(2.0), 1e-12)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_radial_integral_validation():
    """zeta = 0, a negative power, a negative order and a negative rho
    are each outside the domain of radial_table."""
    dens = ConstantDensity()
    for m, n, rho, zeta in [(0, 0, 1.0, 0.0), (0, -1, 1.0, 1.0),
                            (-1, 0, 1.0, 1.0), (0, 0, -1.0, 1.0)]:
        with pytest.raises(DomainError):
            _single(m, n, rho, zeta, dens, 1e-12)


def test_radial_table_budget_exhaustion(monkeypatch):
    dens = ConstantDensity()
    monkeypatch.setattr(sommerfeld, "MAX_PANELS", 4)
    with pytest.raises(ToleranceNotMet) as err:
        radial_table(dens, 50.0, 0.05, [0], [0], np.array([[1e-13]]))
    assert err.value.achieved is not None


def _gl_evaluate(f, calls=None):
    """Array-form evaluate for a scalar integrand; records the number of
    rules of each call in calls."""

    def evaluate(lo, hi):
        if calls is not None:
            calls.append(len(lo))
        half = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + half[:, None] * sommerfeld._GL_NODES
        return (half * (f(x) @ sommerfeld._GL_WEIGHTS))[:, None]

    return evaluate


def _greedy_panels(evaluate, edges, tol):
    """Reference refinement for scalar integrands: one rule per evaluate
    call, and the single worst panel bisected until the summed error
    meets tol, each child with its own three rules (6 a bisection).
    Returns (value, panels, gl_calls)."""

    def rule(lo, hi):
        return evaluate(np.array([lo]), np.array([hi]))[0, 0]

    panels = []

    def add(lo, hi):
        mid = 0.5 * (lo + hi)
        left, right = rule(lo, mid), rule(mid, hi)
        panels.append((lo, hi, left + right, abs(rule(lo, hi) - (left + right))))

    for lo, hi in zip(edges[:-1], edges[1:]):
        add(lo, hi)
    gl_calls = 3 * len(panels)
    while sum(p[3] for p in panels) > tol:
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        lo, hi, _, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        add(lo, mid)
        add(mid, hi)
        gl_calls += 6
    return sum(p[2] for p in panels), len(panels), gl_calls


def test_adaptive_panels_refines_a_peak():
    """1/(x^2 + 1e-4) on [-1, 1] from 4 panels: the refinement path the
    reaction tables never take.  Every bisection costs 6 rules: each
    child's whole rule and halves."""
    f = lambda x: 1.0 / (x * x + 1e-4)
    edges = np.linspace(-1.0, 1.0, 5)
    value, err, stats = sommerfeld._adaptive_panels(
        _gl_evaluate(f), edges, np.array([1e-10])
    )
    assert abs(value[0] - 200.0 * math.atan(100.0)) <= 1e-10
    assert err[0] <= 1e-10
    assert stats["panels"] > 4
    assert stats["bisections"] == stats["panels"] - 4
    assert stats["gl_calls"] == 3 * 4 + 6 * (stats["panels"] - 4)
    ref, panels, gl_calls = _greedy_panels(_gl_evaluate(f), edges, 1e-10)
    assert (stats["panels"], stats["gl_calls"]) == (panels, gl_calls) == (10, 48)
    assert value[0] == pytest.approx(ref, rel=1e-14)


def test_adaptive_panels_match_greedy_on_oscillatory_tail():
    """J_0(50 k) e^{-0.05 k} on 512 under-resolved panels needs several
    passes; each pass bisects only panels a worst-first greedy bisection
    splits too, so both end on the same panels."""
    f = lambda k: special.j0(50.0 * k) * np.exp(-0.05 * k)
    edges = np.linspace(0.0, 1200.0, 513)
    calls = []
    value, _, stats = sommerfeld._adaptive_panels(
        _gl_evaluate(f, calls), edges, np.array([0.9e-10])
    )
    ref, panels, gl_calls = _greedy_panels(_gl_evaluate(f), edges, 0.9e-10)
    assert (stats["panels"], stats["gl_calls"]) == (panels, gl_calls)
    assert stats["evals"] == len(calls) < gl_calls // 10
    assert abs(value[0] - ref) <= 1e-14
    assert abs(value[0] - 1.0 / math.hypot(50.0, 0.05)) <= 1e-10


def test_adaptive_panels_budget_spent_during_refinement(monkeypatch):
    """The budget error comes from a refinement pass, not only from an
    initial panel count above MAX_PANELS."""
    calls = []
    f = lambda x: 1.0 / (x * x + 1e-4)
    monkeypatch.setattr(sommerfeld, "MAX_PANELS", 7)
    with pytest.raises(ToleranceNotMet) as err:
        sommerfeld._adaptive_panels(
            _gl_evaluate(f, calls), np.linspace(-1.0, 1.0, 5), np.array([1e-10]),
        )
    assert calls[0] == 3 * 4
    # the third bisection fills the budget of 7 before its rules run
    assert sum(calls[1:]) == 6 * 2
    assert err.value.achieved > 1.0


def test_adaptive_panels_bound_certified_panels_before_their_rules():
    """Certified panels are split on their bounds before their rules run,
    also after an estimated panel is bisected into the certified range:
    the peak at 0.2 is refined by estimates on [0, 0.5], while the rules on
    [0.5, 2], but for the right half of the estimated panel [0, 1], tile it
    once, one rule per final certified panel."""
    f = lambda x: 1.0 / ((x - 0.2) ** 2 + 1e-4) + np.exp(-x)
    rules = []

    def evaluate(lo, hi):
        rules.extend(zip(lo.tolist(), hi.tolist()))
        return _gl_evaluate(f)(lo, hi)

    def certify(lo, hi):
        return np.where(lo >= 0.5, 1e-3 * (hi - lo) ** 8, np.inf)[:, None]

    value, err, stats = sommerfeld._adaptive_panels(
        evaluate, np.array([0.0, 1.0, 2.0]), np.array([1e-8]), certify=certify
    )
    exact = 100.0 * (math.atan(180.0) + math.atan(20.0)) + 1.0 - math.exp(-2.0)
    assert abs(value[0] - exact) <= 1e-8 and err[0] <= 1e-8
    tiles = sorted(r for r in rules if r[0] >= 0.5)
    tiles.remove((0.5, 1.0))  # the right half of [0, 1]
    assert (0.0, 1.0) in rules
    assert [a for a, _ in tiles[1:]] == [b for _, b in tiles[:-1]]
    assert (tiles[0][0], tiles[-1][1]) == (0.5, 2.0)
    assert len(tiles) == stats["certified"]


def test_radial_table_block_size_invariance(monkeypatch):
    """A 17 x 17 table at rho/zeta = 50 does not depend on how many
    rules share an evaluate call: 66 panels, the first estimated by three
    rules and 65 certified by one each, take 2 calls of _BLOCK = 64 rules
    or 68 calls of one.  The density is ConstantDensity, which exposes no
    limit, so the whole table is quadrature."""
    dens = ConstantDensity()
    n = np.arange(17)
    zeta = 0.5
    scale = dens.bound * np.array([math.gamma(k + 1) / zeta ** (k + 1) for k in n])
    tol = 1e-11 * np.repeat(scale[:, None], 17, axis=1)
    vals, errs, stats = radial_table(dens, 25.0, zeta, n, n, tol)
    monkeypatch.setattr(sommerfeld, "_BLOCK", 1)
    vals1, errs1, stats1 = radial_table(dens, 25.0, zeta, n, n, tol)
    np.testing.assert_allclose(vals1, vals, rtol=1e-13, atol=0)
    assert stats1["panels"] == stats["panels"]
    assert stats1["gl_calls"] == stats["gl_calls"]
    assert (stats["panels"], stats["certified"], stats["evals"]) == (66, 65, 2)
    assert stats1["evals"] == stats["gl_calls"] == 68


def test_radial_table_stats_record():
    """Stats carry the density sweeps, the bisections and the certified
    panels, also on the zero-bound early return.  At rho = 50 the initial
    grid is 0, w, 2w, ..., 2^11 w with w = 1, 12 panels, and only the
    first panel takes three rules."""
    tol = np.array([[1e-8]])
    _, _, wide = radial_table(ConstantDensity(), 50.0, 0.05, [0], [0], tol)
    _, _, near = radial_table(ConstantDensity(), 0.5, 0.5, [0], [0], tol)
    _, _, zero = radial_table(ConstantDensity(0.0), 0.5, 0.5, [0], [0], tol)
    assert wide["panels"] == 12 + wide["bisections"]
    assert (wide["panels"], near["panels"]) == (410, 5)
    for st in (wide, near):
        assert st["certified"] == st["panels"] - 1
        assert st["gl_calls"] == st["panels"] + 2
    assert near["evals"] == math.ceil(near["gl_calls"] / sommerfeld._BLOCK)
    assert near["nodes"] == 32 * near["gl_calls"]
    assert 0.0 < near["tol_use"] < 1.0 and 0.0 < wide["tol_use"] < 1.0
    assert zero == {
        "panels": 0, "gl_calls": 0, "nodes": 0, "evals": 0, "bisections": 0,
        "certified": 0, "tol_use": 0.0,
    }


def test_radial_table_work_counts_and_repeat():
    """The 17 x 17 M2L table of the p = 8 reaction operators at
    rho/zeta = 20, zeta = 0.5: panels, rules and density sweeps are
    pinned (changes to the integrand kernel must not move them), and two
    identical calls agree bit for bit.  sigma_inf = 0 and delta = 1 here,
    so the remainder decays like e^{-1.5 k}: the 5 panels of its dyadic
    grid (K = 61.8, w = K/16) are bisected twice on their certificates
    alone; 6 of the 7 panels are certified and take one rule each, the
    first takes three; all 9 rules take one density sweep."""
    stack = LayeredMedium([0.0, -1.0, -2.0], [1.0] * 4, [1.0, 4.0, 2.0, 8.0])
    v = np.array([10.0, 0.0, 0.5])
    table, _, stats = _reaction_table(stack, (1, 1, 2, 1), v, 16, 1e-11)
    again, _, _ = _reaction_table(stack, (1, 1, 2, 1), v, 16, 1e-11)
    assert (stats["panels"], stats["gl_calls"], stats["evals"]) == (7, 9, 1)
    assert stats["nodes"] == 288 and stats["certified"] == 6
    assert stats["bisections"] == 2
    assert 0.0 < stats["tol_use"] < 1.0
    assert np.array_equal(table, again)


@pytest.mark.parametrize("ratio", [0.6, 1.0, 2.0, 5.0, 15.0, 30.0])
def test_reaction_m2l_table_takes_one_sweep(ratio):
    """Every p = 8 reaction M2L table of the bench medium STACK at zeta =
    0.5 and rho/zeta from 0.6 to 30 makes one density sweep: its first
    panel [0, w], w at most W = 8 / D_max = 8, meets its estimate without
    a bisection (which would take another sweep), and its 9 to 39 rules
    fit one block of _BLOCK = 64."""
    stack = LayeredMedium([0.0, -1.0, -2.0], [1.0] * 4, [1.0, 4.0, 2.0, 8.0])
    v = np.array([0.5 * ratio, 0.0, 0.5])
    for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
        _, _, stats = _reaction_table(stack, (a, b, 2, 1), v, 16, 1e-11)
        assert stats["evals"] == 1 and 0.0 < stats["tol_use"] < 1.0


def test_width_cap_follows_the_thickest_layer(two_layer, three_layer, monkeypatch):
    """W = 8 / D_max caps the first panel of a density whose medium has a
    finite layer (the slab: D = 1, so w = 8 at rho = 0.5, where the
    remainder's K/16 = 8.3); the grid of ConstantDensity keeps w = min(K/16,
    the power of two nearest 16 pi / rho), and a one-interface medium,
    where sigma is constant, takes no grid: its table is the closed form."""
    grids = []
    own = sommerfeld._own_grid

    def spy(*args):
        grids.append(own(*args))
        return grids[-1]

    monkeypatch.setattr(sommerfeld, "_own_grid", spy)
    assert ReactionDensity(two_layer, 1, 1, 0, 0).thickest == 0.0
    assert ReactionDensity(three_layer, 1, 1, 1, 1).thickest == 1.0
    cases = [(ConstantDensity(), math.inf),
             (ReactionDensity(two_layer, 1, 1, 0, 0), None),
             (ReactionDensity(three_layer, 1, 1, 1, 1), 8.0)]
    rhos = (0.5, 5.0, 50.0)
    for dens, cap in cases:
        for rho in rhos:
            _, _, stats = radial_table(dens, rho, 0.5, [0], [0], np.array([[1e-10]]))
            assert (stats["panels"] == 0) == (cap is None)
    expect = [(rho, cap) for _, cap in cases if cap is not None for rho in rhos]
    for (kmax, width), (rho, cap) in zip(grids, expect, strict=True):
        near = 2.0 ** round(math.log2(16.0 * math.pi / rho))
        assert width[0] == min(kmax[0] / 16.0, near, cap)
    assert grids[3][1][0] == 8.0 < grids[3][0][0] / 16.0


def _relative_tol(zeta, rel_tol=1e-11, size=17):
    """The expansion builders' tolerance table for sigma = 1: rel_tol times
    Gamma(n+1)/zeta^{n+1} in row n."""
    scale = [math.gamma(n + 1) / zeta ** (n + 1) for n in range(size)]
    return rel_tol * np.repeat(np.array(scale)[:, None], size, axis=1)


@pytest.mark.parametrize("zeta", [0.05, 0.5])
@pytest.mark.parametrize("ratio", [0.5, 5.0, 20.0, 60.0, 200.0])
def test_radial_table_diagonal_closed_form(zeta, ratio):
    """For sigma = 1, I(n, n) = (2 rho)^n Gamma(n+1/2) / (sqrt(pi)
    r^{2n+1}): the certified grid meets every diagonal tolerance of a
    17 x 17 table, from rho/zeta = 0.5 to 200."""
    rho = ratio * zeta
    n = np.arange(17)
    tol = _relative_tol(zeta)
    values, _, _ = radial_table(ConstantDensity(), rho, zeta, n, n, tol)
    r = math.hypot(rho, zeta)
    exact = [
        (2 * rho) ** k * math.gamma(k + 0.5) / (math.sqrt(math.pi) * r ** (2 * k + 1))
        for k in n
    ]
    assert np.all(np.abs(np.diag(values) - exact) <= np.diag(tol))


def test_radial_table_panels_continuous_in_zeta():
    """The p = 8 table (powers and orders 0-16) at rho/zeta = 30 costs
    about the same on both sides of zeta = 0.37, where doubling K once
    doubled the panels, and the solved K meets the tail bound."""
    n = np.arange(17)
    panels = []
    for zeta in (0.36, 0.38):
        tol = _relative_tol(zeta)
        _, _, stats = radial_table(ConstantDensity(), 30.0 * zeta, zeta, n, n, tol)
        panels.append(stats["panels"])
        tol_tail = 0.1 * tol.min()
        kmax = sommerfeld._choose_kmax(1.0, 30.0 * zeta, zeta, n, tol_tail)
        assert np.max(sommerfeld._gamma_tail(n, kmax, zeta)) <= tol_tail
    assert abs(panels[0] - panels[1]) < 0.2 * max(panels)


#: panels of the large-rho tables at zeta = 0.05, tolerance 1e-10:
#: bisection of the dyadic grid's panels by their certificates alone
LARGE_RHO_PANELS = {200.0: 1981, 400.0: 3953, 500.0: 4421, 600.0: 5736}


@pytest.mark.parametrize("rho, met", [
    (200.0, True), (400.0, True), (500.0, True), (600.0, True), (1000.0, False),
])
def test_radial_table_capped_grid_is_honest(rho, met):
    """At zeta = 0.05 these tables once hit the 512-panel cap; the dyadic
    grid's panels past w are too wide for their certificates in the same
    way: the result meets 1e-10 against
    1/sqrt(rho^2 + zeta^2) in a pinned panel count, or the table raises
    when the certified panels need more than the panel budget."""
    tol = np.array([[1e-10]])
    if not met:
        with pytest.raises(ToleranceNotMet):
            radial_table(ConstantDensity(), rho, 0.05, [0], [0], tol)
        return
    values, err, stats = radial_table(ConstantDensity(), rho, 0.05, [0], [0], tol)
    assert err[0, 0] <= 1e-10
    assert stats["panels"] == LARGE_RHO_PANELS[rho]
    assert stats["certified"] == stats["panels"] - 1
    assert abs(values[0, 0] - 1.0 / math.hypot(rho, 0.05)) <= 1e-10


@functools.lru_cache(maxsize=None)
def _image_polynomial(n, m):
    """Integer coefficients of Q_{n,m}(c), lowest first: Q_{0,m} = 1 and
    Q_{n+1,m} = (m + (n+1) c) Q_{n,m} - (1 - c^2) Q'_{n,m}, the zeta-
    derivative route to I_inf(n, m) = t^m r^{-n-1} Q_{n,m}(zeta/r)."""
    if n == 0:
        return (1,)
    q = _image_polynomial(n - 1, m)
    out = [0] * (len(q) + 1)
    for j, coef in enumerate(q):
        out[j] += m * coef
        out[j + 1] += (n + j) * coef
        if j:
            out[j - 1] -= j * coef
    return tuple(out)


def _image_reference(n, m, rho, zeta):
    """int_0^inf J_m(k rho) e^{-k zeta} k^n dk to 400 digits."""
    with mpmath.workdps(400):
        rho, zeta = mpmath.mpf(rho), mpmath.mpf(zeta)
        r = mpmath.sqrt(rho * rho + zeta * zeta)
        poly = mpmath.polyval(list(reversed(_image_polynomial(n, m))), zeta / r)
        return (rho / (r + zeta)) ** m * poly / r ** (n + 1)


#: (rho, zeta) of the closed-form checks: rho = 0, rho/zeta from 1e-4 to 1e4
IMAGE_PAIRS = [(0.0, 1.0), (1e-4, 1.0), (0.05, 1.0), (0.3, 1.3), (0.5, 0.5),
               (2.0, 0.9), (7.0, 1.1), (90.0, 1.5), (500.0, 5.0), (2e4, 2.0)]
IMAGE_INDICES = [0, 1, 2, 3, 5, 8, 12, 16, 17, 24, 25, 40, 60, 80, 100, 119, 120]


def test_image_table_matches_mpmath():
    """The closed form I_inf(n, m) of the limit term, for n, m <= 120 with
    m > n, rho = 0 and rho/zeta up to 1e4, is within 1e-14 n!/zeta^{n+1} of
    a 400-digit evaluation and within its own rounding bound; the 400-digit
    route matches mpmath's quadrature of the integral itself."""
    for n, m in [(0, 0), (2, 1), (1, 3), (3, 3)]:
        direct = mpmath.quad(lambda k: mpmath.besselj(m, 0.5 * k) * mpmath.exp(-0.5 * k)
                             * k ** n, [0, mpmath.inf])
        assert abs(direct - _image_reference(n, m, 0.5, 0.5)) <= 1e-14
    rhos, zetas = (np.array(v) for v in zip(*IMAGE_PAIRS))
    top = np.arange(121)
    values, rounding = sommerfeld._image_table(rhos, zetas, top, top)
    for i, (rho, zeta) in enumerate(IMAGE_PAIRS):
        for n in IMAGE_INDICES:
            scale = math.factorial(n) / mpmath.mpf(zeta) ** (n + 1)
            for m in IMAGE_INDICES:
                miss = abs(values[i, n, m] - _image_reference(n, m, rho, zeta))
                assert miss <= 1e-14 * scale and miss <= rounding[i, n]
    one, tiny = sommerfeld._image_table(rhos, zetas, np.array([0]), np.array([0]))
    assert np.array_equal(one[:, 0, 0], 1.0 / np.hypot(rhos, zetas))
    np.testing.assert_allclose(tiny[:, 0], 2.0 * np.finfo(float).eps / zetas,
                               rtol=1e-15)


class _Unsplit:
    """A density with its bound but without its limit: the engine then
    integrates sigma whole, as before the split."""

    def __init__(self, density):
        self.density, self.bound = density, density.bound

    def __call__(self, k):
        return self.density(k)


def _expansion_tol(bound, zetas, size, rel_tol=1e-10):
    """_reaction_table's tolerances: rel_tol M_sigma n!/zeta^{n+1} where
    m <= n, inf above."""
    n = np.arange(size)
    ref = bound * special.gamma(n + 1.0) / zetas[:, None] ** (n + 1.0)
    return np.where(n <= n[:, None], rel_tol * ref[:, :, None], np.inf), ref


def test_split_tables_match_the_unsplit_engine():
    """Every present component of six random media (seed 7), each at one of
    rho/zeta = 0.5, 6 and 60 in turn: the split table (sigma_inf I_inf
    plus the remainder's quadrature) and the whole-sigma quadrature agree
    within the sum of their returned errors where the tolerance is finite,
    and within that plus 1e-12 M_sigma n!/zeta^{n+1} where it is inf
    (m > n).  Both also get 1e-15 M_sigma n!/zeta^{n+1} for the rounding of the rule
    sums, which the returned errors leave out (the module docstring puts
    it near 1e-16 of the integrand's mass): where a certificate is far
    below it the two differ by rounding alone."""
    rng = np.random.default_rng(7)
    zetas = np.full(1, 0.5)
    ratios = itertools.cycle([0.5, 6.0, 60.0])
    n = np.arange(9)
    checked = 0
    for _ in range(6):
        med = random_medium(rng)
        L = med.num_interfaces
        for comp in itertools.product((1, 2), (1, 2), range(L + 1), range(L + 1)):
            if not component_exists(med, *comp):
                continue
            dens = ReactionDensity(med, *comp)
            rhos = zetas * next(ratios)
            tol, ref = _expansion_tol(dens.bound, zetas, len(n))
            split, err, _ = sommerfeld._radial_tables(dens, rhos, zetas, n, n, tol)
            whole, werr, _ = sommerfeld._radial_tables(_Unsplit(dens), rhos, zetas,
                                                       n, n, tol)
            slack = np.where(np.isfinite(tol), 1e-15, 1e-12 + 1e-15) * ref[:, :, None]
            assert np.all(np.abs(split - whole) <= err + werr + slack)
            checked += 1
    assert checked == 288


def test_remainder_bound_holds_on_dense_samples():
    """|sigma - sigma_inf| e^{delta k} stays at or below M_g on 4,001
    points of the real ray [0, 30/delta] for every present component of
    six random media (seed 7), and also on 20,001 points of the imaginary
    axis i[-10^3, 10^3] for the bench media STACK and the slab.  (On the
    imaginary axis of random media M_g, like M_sigma, is only an
    estimate; ROADMAP item 2.)"""
    stack = LayeredMedium([0.0, -1.0, -2.0], [1.0] * 4, [1.0, 4.0, 2.0, 8.0])
    slab = LayeredMedium([0.0, -1.0], [1.0] * 3, [1.0, 3.0, 8.0])
    rng = np.random.default_rng(7)
    media = [(stack, True), (slab, True)] + [(random_medium(rng), False)
                                              for _ in range(6)]
    imaginary = 1j * np.linspace(-1e3, 1e3, 20001)
    for med, both in media:
        L = med.num_interfaces
        for comp in itertools.product((1, 2), (1, 2), range(L + 1), range(L + 1)):
            if not component_exists(med, *comp):
                continue
            dens = ReactionDensity(med, *comp)
            limit, delta, rem_bound = dens.limit
            if rem_bound == 0.0:
                continue
            k = np.linspace(0.0, 30.0 / delta, 4001)
            assert np.all(np.abs(dens(k) - limit) * np.exp(delta * k) <= rem_bound)
            if both:
                assert np.all(np.abs(dens(imaginary) - limit) <= rem_bound)


class _UnderReportedRemainder:
    """sigma = 1 + e^{-k}, which claims |sigma - 1| <= 0.5 e^{-k}."""

    bound = 2.0
    limit = (1.0, 1.0, 0.5)

    def __call__(self, k):
        return 1.0 + np.exp(-np.asarray(k, dtype=float))


def test_remainder_above_its_bound_is_caught():
    """The remainder's certificates rest on |sigma - sigma_inf| <= M_g
    e^{-delta k}: a density whose M_g is under-reported raises
    InvariantViolated, for one pair and in a batch."""
    with pytest.raises(InvariantViolated, match="sigma_inf"):
        radial_table(_UnderReportedRemainder(), 1.0, 0.5, [0], [0],
                     np.array([[1e-10]]))
    with pytest.raises(InvariantViolated, match="sigma_inf"):
        sommerfeld._radial_tables(
            _UnderReportedRemainder(), [0.0, 3.0], [1.0, 0.5], [0, 1], [0],
            np.full((2, 2, 1), 1e-10),
        )


def test_one_interface_table_is_the_closed_form(two_layer):
    """Over one interface sigma is constant: every table is sigma_inf
    I_inf with no panel, and I(0, 0) is the image charge sigma_inf / r."""
    dens = ReactionDensity(two_layer, 1, 1, 0, 0)
    limit, delta, rem_bound = dens.limit
    assert (limit, delta, rem_bound) == (pytest.approx(-0.6), math.inf, 0.0)
    n = np.arange(9)
    tol, _ = _expansion_tol(dens.bound, np.array([0.3]), len(n))
    values, err, stats = radial_table(dens, 2.0, 0.3, n, n, tol[0])
    image, rounding = sommerfeld._image_table(np.array([2.0]), np.array([0.3]), n, n)
    assert np.array_equal(values, limit * image[0])
    assert np.array_equal(err, abs(limit) * np.broadcast_to(rounding[0, :, None],
                                                            err.shape))
    assert stats["panels"] == stats["gl_calls"] == stats["evals"] == 0
    assert values[0, 0] == limit / math.hypot(2.0, 0.3)


def test_large_rho_reaction_tables_meet_their_tolerance():
    """On STACK at zeta = 0.05 the remainder decays like e^{-1.05 k}: at
    rho = 600 the split table agrees with the whole-sigma quadrature (5,842
    panels) within both errors in under 300 panels, and rho = 1000, where
    the whole-sigma quadrature exceeds its panel budget, meets 1e-10 in
    under 1,000."""
    stack = LayeredMedium([0.0, -1.0, -2.0], [1.0] * 4, [1.0, 4.0, 2.0, 8.0])
    tol = np.array([[1e-10]])
    for comp in ((1, 1, 2, 1), (2, 1, 2, 1)):
        dens = ReactionDensity(stack, *comp)
        split, err, stats = radial_table(dens, 600.0, 0.05, [0], [0], tol)
        whole, werr, wstats = radial_table(_Unsplit(dens), 600.0, 0.05, [0], [0], tol)
        assert abs(split[0, 0] - whole[0, 0]) <= err[0, 0] + werr[0, 0]
        assert stats["panels"] < 300 < wstats["panels"]
        _, err, stats = radial_table(dens, 1000.0, 0.05, [0], [0], tol)
        assert err[0, 0] <= 1e-10 and stats["panels"] < 1000
    with pytest.raises(ToleranceNotMet):
        radial_table(_Unsplit(ReactionDensity(stack, 1, 1, 2, 1)), 1000.0, 0.05,
                     [0], [0], tol)


_X32, _W32 = np.polynomial.legendre.leggauss(32)
_X64, _W64 = np.polynomial.legendre.leggauss(64)


def _panel_rule(f, lo, hi, nodes, weights):
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return h * np.sum(weights * f(c + h * nodes))


#: (rho, zeta, n, m, panel): rule errors from rounding to about 1e-1, ellipse
#: bounds and mass caps, and rho = 0 panels with an incomplete-gamma value
PANEL_CASES = [
    (5.0, 0.5, 0, 0, (1.0, 3.0)), (20.0, 0.05, 3, 1, (2.0, 6.0)),
    (50.0, 0.3, 8, 5, (0.5, 1.5)), (30.0, 0.5, 2, 2, (10.0, 12.0)),
    (40.0, 0.2, 0, 0, (3.0, 5.0)), (12.0, 0.1, 1, 0, (1.0, 11.0)),
    (0.0, 5.0, 0, 0, (0.1, 20.1)), (0.0, 5.0, 16, 0, (0.1, 20.1)),
]


@pytest.mark.parametrize("seed", [None, 0, 1])
def test_panel_certificate_bounds_the_rule_error(seed):
    """On single panels the certificate is at least the error of the
    32-point rule: against a 64-node rule on eight subpanels, and for
    sigma = 1 at rho = 0 against the closed form Gamma(n+1) (Q(n+1,
    lo zeta) - Q(n+1, hi zeta)) / zeta^{n+1}.  seed None is sigma = 1; a
    seed draws a component of a random medium.  Rounding of the rule's
    sum, 64 eps times its absolute sum, is allowed on top."""
    if seed is None:
        dens = ConstantDensity(1.0)
    else:
        dens = _random_component(np.random.default_rng(seed))
    visible = 0
    for rho, zeta, n, m, (lo, hi) in PANEL_CASES:
        def f(k):
            return k ** n * np.exp(-k * zeta) * dens(k) * special.jv(m, k * rho)

        got = _panel_rule(f, lo, hi, _X32, _W32)
        edges = np.linspace(lo, hi, 9)
        ref = sum(_panel_rule(f, a, b, _X64, _W64)
                  for a, b in zip(edges[:-1], edges[1:]))
        refs = [ref]
        if rho == 0.0 and seed is None:
            a = n + 1.0
            gap = special.gammaincc(a, lo * zeta) - special.gammaincc(a, hi * zeta)
            refs.append(special.gamma(a) * gap / zeta ** a)
        cert = sommerfeld._panel_bounds(
            dens.bound, np.array([rho]), np.array([zeta]), np.array([n]),
            np.array([lo]), np.array([hi]),
        )[0, 0, 0]
        slack = 64 * np.finfo(float).eps * _panel_rule(
            lambda k: np.abs(f(k)), lo, hi, _X32, _W32
        )
        for want in refs:
            assert abs(got - want) <= cert + slack, (rho, zeta, n, m, lo, hi)
        visible += abs(got - ref) > 1e3 * slack
    assert visible >= 3


def test_panel_certificate_needs_room_from_zero():
    """A panel touching k = 0 has no Bernstein ellipse in Re k >= 0, so no
    certificate; one panel further out has one."""
    bounds = sommerfeld._panel_bounds(
        1.0, np.array([2.0]), np.array([0.5]), np.array([0, 3]),
        np.array([0.0, 1.0]), np.array([1.0, 2.0]),
    )
    assert np.all(np.isinf(bounds[0])) and np.all(bounds[1] < 1e-30)


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0, 5.0, 10.0])
def test_ellipse_term_bounds_the_worst_chebyshev_polynomial(r):
    """T_64 is the first Chebyshev polynomial the 32-point rule misses, and
    it misses it by about 1.56 on [-1, 1].  On the ellipse E_r, |T_64| <=
    (r^64 + r^-64)/2 = M, so the ellipse term of _panel_bounds times M must
    cover that error on any panel: the term is (64/15) r^-62 / (r^2 - 1)
    and the bound 2.13 r^2 / (r^2 - 1) >= 1.56.  A term in r^-64 gives
    2.13 / (r^2 - 1), too small from r = 2."""
    big = 0.5 * (r ** 64 + r ** -64)
    for lo, hi in [(-1.0, 1.0), (2.0, 2.5), (10.0, 30.0)]:
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t64 = np.polynomial.Chebyshev.basis(64, domain=[lo, hi])
        exact = h * 2.0 / (1.0 - 64.0 ** 2)
        miss = abs(_panel_rule(t64, lo, hi, _X32, _W32) - exact)
        bound = big * np.exp(sommerfeld._ellipse_log_bound(h, r))
        assert 1.5 * h <= miss <= bound


class _UnderReportedDensity:
    """sigma = 1 + k/100 that claims |sigma| <= 1."""

    bound = 1.0

    def __call__(self, k):
        return 1.0 + np.asarray(k, dtype=complex) / 100.0


def test_density_above_its_bound_is_caught():
    """Every certificate rests on |sigma| <= M_sigma: a density value above
    the bound it reports raises InvariantViolated, for one pair and in a
    batch, rather than a table certified on a false premise."""
    with pytest.raises(InvariantViolated, match="above its bound"):
        radial_table(_UnderReportedDensity(), 1.0, 0.5, [0], [0], np.array([[1e-10]]))
    with pytest.raises(InvariantViolated):
        sommerfeld._radial_tables(
            _UnderReportedDensity(), [0.0, 3.0], [1.0, 0.5], [0, 1], [0],
            np.full((2, 2, 1), 1e-10),
        )


class _ComplexDensity:
    """Within its bound, but not real on the real axis."""

    bound = 1.0

    def __call__(self, k):
        return np.full(np.shape(k), 0.5 + 0.5j)


def test_complex_density_is_a_domain_error():
    """The contraction is real: a density value with a nonzero imaginary
    part on the real nodes raises DomainError, for one pair and in a
    batch, rather than losing its imaginary part.  One that is complex
    with imaginary part 0 is taken by its real part."""
    with pytest.raises(DomainError, match="real"):
        radial_table(_ComplexDensity(), 1.0, 0.5, [0], [0], np.array([[1e-10]]))
    with pytest.raises(DomainError, match="real"):
        sommerfeld._radial_tables(
            _ComplexDensity(), [0.0, 3.0], [1.0, 0.5], [0, 1], [0],
            np.full((2, 2, 1), 1e-10),
        )
    values, _, _ = radial_table(ConstantDensity(1.0 + 0j), 0.0, 0.5, [0], [0],
                                np.array([[1e-12]]))
    assert values.dtype == complex and values[0, 0].imag == 0.0
    assert abs(values[0, 0] - 2.0) <= 1e-12


def test_tail_truncation_insensitivity(three_layer, monkeypatch):
    """Doubling the quadrature cutoff changes the Green value below tol.
    Inside the slab sigma^11 has a limit and a remainder, so the cutoff is
    the remainder's."""
    r, rp = np.array([0.4, 0.2, -0.3]), np.array([-0.2, 0.1, -0.6])
    base = eval_reaction_green(three_layer, 1, 1, 1, 1, r, rp, 1e-12)
    orig = sommerfeld._choose_kmax
    seen = []

    def doubled(bound, rho, zeta, powers, tol_tail):
        seen.append((np.shape(rho), orig(bound, rho, zeta, powers, tol_tail)))
        return 2.0 * seen[-1][1]

    monkeypatch.setattr(sommerfeld, "_choose_kmax", doubled)
    again = eval_reaction_green(three_layer, 1, 1, 1, 1, r, rp, 1e-12)
    assert abs(base - again) < 1e-12
    # the batch's K comes as an array, one per pair, and every K doubles
    rows = np.stack([r, rp + 0.1, r - 0.2])
    eval_reaction_green(three_layer, 1, 1, 1, 1, rows, rp, 1e-12)
    assert [shape for shape, _ in seen] == [(1,), (3,)]
    assert np.all(doubled(1.0, [0.5, 2.0], [0.3, 0.1], [0, 2], 1e-12)
                  == 2.0 * orig(1.0, [0.5, 2.0], [0.3, 0.1], [0, 2], 1e-12))


def test_reaction_green_image_charge(two_layer):
    """Half-space reaction field equals the classical image-charge
    potential with coefficient (eps0 - eps1)/(eps0 + eps1)."""
    eps0, eps1 = two_layer.b[0], two_layer.b[1]
    kappa = (eps0 - eps1) / (eps0 + eps1)
    rng = np.random.default_rng(1)
    for _ in range(10):
        rp = np.array([*rng.uniform(-1, 1, 2), rng.uniform(0.1, 2.0)])
        r = np.array([*rng.uniform(-1, 1, 2), rng.uniform(0.1, 2.0)])
        img = rp * np.array([1, 1, -1])
        exact = kappa / (4 * math.pi * np.linalg.norm(r - img))
        got = eval_reaction_green(two_layer, 1, 1, 0, 0, r, rp, 1e-12)
        assert abs(got - exact) <= 1e-10 * abs(exact)


def test_reaction_green_axisymmetry(three_layer):
    """Invariance under common rotation of target and source about the
    vertical axis through the source."""
    rng = np.random.default_rng(2)
    rp = np.array([0.3, -0.2, -0.4])
    r = np.array([0.7, 0.5, -0.6])
    base = eval_reaction_green(three_layer, 2, 2, 1, 1, r, rp, 1e-12)
    for _ in range(10):
        th = rng.uniform(0, 2 * math.pi)
        rot = np.array(
            [
                [math.cos(th), -math.sin(th), 0],
                [math.sin(th), math.cos(th), 0],
                [0, 0, 1],
            ]
        )
        shift = rp - rot @ rp
        got = eval_reaction_green(
            three_layer, 2, 2, 1, 1, rot @ r + shift * 0, rot @ rp, 1e-12
        )
        assert abs(got - base) < 1e-11


def test_reaction_green_absent_component(two_layer):
    with pytest.raises(ComponentAbsent):
        eval_reaction_green(two_layer, 2, 2, 0, 0, (0, 0, 1), (0, 0, 2))


def test_me_basis_monopole_consistency(two_layer):
    """F_00 paired with the monopole moment of a charge placed exactly at
    the polarization center reproduces the direct Green value."""
    src = np.array([0.25, -0.4, 0.8])
    center = polarization_source(two_layer, 1, 1, 0, 0, src)
    r = np.array([0.9, 0.1, 1.4])
    f00 = reaction_basis_table(two_layer, (1, 1, 0, 0), 0, r, center, 1e-12)[0][0, 0]
    m00 = 1.0 / math.sqrt(4 * math.pi)
    oracle = eval_reaction_green(two_layer, 1, 1, 0, 0, r, src, 1e-12)
    assert (m00 * f00).real == pytest.approx(oracle, abs=1e-12)
    assert abs(f00.imag * m00) < 1e-14


def test_me_basis_conventions(three_layer):
    r = np.array([0.4, 0.3, -0.2])
    center = np.array([0.1, -0.2, -1.6])
    p = 3
    table, _ = reaction_basis_table(three_layer, (1, 1, 1, 1), p, r, center, 1e-12)
    assert table[2, 3 + p] == 0
    for n in range(p + 1):
        for m in range(n + 1):
            f_pos, f_neg = table[n, m + p], table[n, -m + p]
            assert f_neg == pytest.approx(
                (-1.0) ** m * np.conj(f_pos), rel=1e-10, abs=1e-13
            )


def test_le_coeff_center_value(three_layer):
    """At the target center only the (0,0) local term survives:
    L_00 Y_0^0 equals the reaction potential there."""
    src = np.array([0.2, 0.1, -0.7])
    tc = np.array([0.6, -0.3, -0.25])
    one = ChargeSystem([1.0], [src], [1])
    l00 = reaction_le_from_charges(
        one, three_layer, 2, 1, 1, 1, tc, 0, rel_tol=1e-12
    ).coeff[0, 0]
    oracle = eval_reaction_green(three_layer, 2, 1, 1, 1, tc, src, 1e-12)
    assert (l00 / math.sqrt(4 * math.pi)).real == pytest.approx(oracle, abs=1e-11)


def _m2l_matrix(medium, component, target_center, source_center, p, source_p):
    """The reaction M2L matrix from degree source_p about a polarization
    source center to degree p about target_center, at rel_tol 1e-12."""
    exp = HarmonicExpansion(
        "reaction_multipole", source_center, source_p,
        np.zeros((source_p + 1, 2 * source_p + 1)), component=component,
    )
    return reaction_m2l_matrix(exp, medium, target_center, p, 1e-12)[0]


def test_m2l_entry_monopole_closed_form(two_layer):
    """For the constant half-space density, T_00,00 = kappa / |separation|."""
    eps0, eps1 = two_layer.b[0], two_layer.b[1]
    kappa = (eps0 - eps1) / (eps0 + eps1)
    sc = np.array([0.2, -0.3, -0.9])  # below the interface (a=1 side)
    tc = np.array([0.5, 0.4, 1.2])
    t00 = _m2l_matrix(two_layer, (1, 1, 0, 0), tc, sc, 0, 0)[0, 0]
    assert t00.real == pytest.approx(
        kappa / np.linalg.norm(tc - sc), rel=1e-10
    )
    assert abs(t00.imag) < 1e-13


def test_m2l_entry_conjugation_symmetry(three_layer):
    tc = np.array([0.3, 0.2, -0.4])
    sc = np.array([-0.1, 0.4, -2.1])
    tmat = _m2l_matrix(three_layer, (1, 1, 1, 1), tc, sc, 3, 3)
    for (n, m, np_, mp_) in [(1, 1, 2, -1), (2, 0, 3, 2), (3, -2, 1, 1)]:
        t1 = tmat[n * n + n + m, np_ * np_ + np_ + mp_]
        t2 = tmat[n * n + n - m, np_ * np_ + np_ - mp_]
        assert t2 == pytest.approx(
            (-1.0) ** (m + mp_) * np.conj(t1), rel=1e-9, abs=1e-13
        )


def test_m2l_matrix_reproduces_direct_le_coeffs(three_layer):
    """Applying the full M2L operator to a one-charge multipole expansion
    reproduces the directly integrated local coefficients."""
    from layerfmm.expansions import (
        m2l_reaction,
        reaction_le_from_charges,
        reaction_me_from_charges,
    )

    src = np.array([0.1, -0.05, -0.45])
    one = ChargeSystem.in_medium(three_layer, [1.0], [src])
    csrc = np.array([0.0, 0.0, -0.5])
    pol_c = polarization_source(three_layer, 1, 1, 1, 1, csrc)
    exp = reaction_me_from_charges(one, three_layer, 1, 1, 1, 1, pol_c, 15)
    tc = np.array([0.3, 0.2, -0.25])
    translated = m2l_reaction(exp, three_layer, tc, 15, 1e-12)
    direct = reaction_le_from_charges(
        one, three_layer, 1, 1, 1, 1, tc, 15, rel_tol=1e-12
    )
    scale = np.abs(direct.coeff).max()
    assert np.abs(translated.coeff - direct.coeff).max() < 1e-9 * scale


def test_sqrt_branch_properties():
    rng = np.random.default_rng(3)
    z = rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
    w = sqrt_branch(z)
    assert np.all(w.real >= 0)
    np.testing.assert_allclose(w * w, z, rtol=1e-12, atol=1e-12)
    # principal branch agreement off the cut
    mask = np.abs(z.imag) > 1e-12
    np.testing.assert_allclose(w[mask], np.sqrt(z[mask]), rtol=1e-12)


def test_cagniard_identity_examples():
    lhs, rhs = cagniard_identity_check("one", 0.0, 1.0, 1.0, tol=1e-9)
    assert abs(lhs - rhs) < 1e-8
    # independent brute-force value of the left side for rho = 0
    x = np.linspace(-80.0, 80.0, 400_001)
    brute = np.trapezoid(np.exp(-np.sqrt(1.0 + x * x)), x)
    assert lhs.real == pytest.approx(brute, abs=1e-7)
    lhs2, rhs2 = cagniard_identity_check("one", 1.0, 2.0, 0.5, tol=1e-9)
    assert abs(lhs2 - rhs2) < 1e-8


def test_cagniard_catalog_grid():
    for name in CAGNIARD_CATALOG:
        for rho, z, eta in [(0.0, 1.0, 1.0), (0.7, 0.5, 0.4), (2.0, 2.5, 3.0)]:
            lhs, rhs = cagniard_identity_check(name, rho, z, eta, tol=1e-9)
            assert abs(lhs - rhs) < 1e-8, (name, rho, z, eta)


def test_cagniard_validation():
    with pytest.raises(DomainError):
        cagniard_identity_check("one", 0.5, -1.0, 1.0)


def test_cagniard_unknown_name_lists_the_catalog():
    """A name outside the catalog is bad input, not a KeyError."""
    with pytest.raises(DomainError, match="two") as info:
        cagniard_identity_check("two", 0.5, 1.0, 1.0)
    assert all(name in str(info.value) for name in CAGNIARD_CATALOG)
    assert not isinstance(info.value, KeyError)


def test_density_regular_at_origin(two_layer):
    dens = ReactionDensity(two_layer, 1, 1, 0, 0)
    v0 = dens(np.array([0.0]))[0]
    v1 = dens(np.array([1e-12]))[0]
    assert np.isfinite(v0)
    assert abs(v0 - v1) < 1e-10


# ---------------------------------------------------------------------------
# the batched core: many (rho, zeta) pairs on one grid
# ---------------------------------------------------------------------------

#: a batch mixing rho = 0, rho/zeta from 0.5 to 60, and zeta from 0.2 to 2,
#: so the pairs' own K differ tenfold
MIXED_PAIRS = [(0.0, 2.0), (1.0, 2.0), (0.0, 0.2), (2.0, 0.2), (12.0, 0.2),
               (3.0, 0.5)]


def _random_component(rng):
    """The density of a present component of a random medium."""
    med = random_medium(rng)
    L = med.num_interfaces
    while True:
        ell, ellp = (int(x) for x in rng.integers(0, L + 1, 2))
        a, b = (int(x) for x in rng.integers(1, 3, 2))
        if component_exists(med, a, b, ell, ellp):
            return ReactionDensity(med, a, b, ell, ellp)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_matches_one_pair_calls(seed):
    """On random media every pair of a mixed batch is within its own
    tolerance of its one-pair radial_table call."""
    dens = _random_component(np.random.default_rng(seed))
    rhos, zetas = (np.array(v) for v in zip(*MIXED_PAIRS))
    n = np.arange(9)
    tol = np.stack([_relative_tol(z, 1e-10, 9) * dens.bound for z in zetas])
    values, err, stats = sommerfeld._radial_tables(dens, rhos, zetas, n, n, tol)
    assert values.shape == err.shape == tol.shape
    assert np.all(err <= tol) and 0.0 < stats["tol_use"] < 1.0
    for i, (rho, zeta) in enumerate(MIXED_PAIRS):
        one, _, own = radial_table(dens, rho, zeta, n, n, tol[i])
        assert np.all(np.abs(values[i] - one) <= tol[i])
        assert own["panels"] <= stats["panels"]


def test_batch_of_one_is_radial_table():
    """radial_table is the one-pair view of the batched core: same values,
    bit for bit, and the same work."""
    dens = _random_component(np.random.default_rng(4))
    n = np.arange(5)
    tol = _relative_tol(0.3, 1e-11, 5)
    one, err, stats = radial_table(dens, 4.0, 0.3, n, n, tol)
    batch, berr, bstats = sommerfeld._radial_tables(
        dens, [4.0], [0.3], n, n, tol[None]
    )
    assert np.array_equal(batch[0], one) and np.array_equal(berr[0], err)
    assert bstats == stats


@pytest.mark.parametrize("spread", [sommerfeld._GRID_SPREAD, math.inf])
def test_bisected_pair_meets_its_tolerance_in_a_batch(spread, monkeypatch):
    """rho/zeta = 1000 needs bisection of its initial grid; next to two easy
    pairs, grouped or all on one grid, it still meets its tolerance against
    1/sqrt(rho^2 + zeta^2), and so do they."""
    pairs = [(0.5, 0.5), (50.0, 0.05), (0.0, 1.0)]
    tol = np.array([[[1e-8]], [[1e-8]], [[1e-10]]])
    rhos, zetas = (np.array(v) for v in zip(*pairs))
    monkeypatch.setattr(sommerfeld, "_GRID_SPREAD", spread)
    values, err, stats = sommerfeld._radial_tables(
        ConstantDensity(), rhos, zetas, [0], [0], tol
    )
    assert stats["bisections"] > 0
    exact = 1.0 / np.hypot(rhos, zetas)
    assert np.all(np.abs(values[:, 0, 0] - exact) <= tol[:, 0, 0])
    assert np.all(err <= tol)


def test_grid_capped_only_as_a_batch(monkeypatch):
    """rho = 0 at zeta = 0.02 (K = 3000, width 187.5) and rho/zeta = 200
    (K = 60, width 0.25) are unlike pairs; forced onto one grid they once
    hit the 512-panel cap.  Now that grid is 0, 0.25,
    0.5, ..., 4096, each pair's certificates bisect only the panels too
    wide for that pair, so both meet their tolerance within the budget;
    grouped, each keeps its own grid."""
    pairs = [(0.0, 0.02), (200.0, 1.0)]
    rhos, zetas = (np.array(v) for v in zip(*pairs))
    tol = np.full((2, 1, 1), 1e-10)
    exact = 1.0 / np.hypot(rhos, zetas)
    own = [radial_table(ConstantDensity(), rho, zeta, [0], [0], t)[2]
           for rho, zeta, t in zip(rhos, zetas, tol)]
    with monkeypatch.context() as patch:
        patch.setattr(sommerfeld, "_GRID_SPREAD", math.inf)
        values, err, stats = sommerfeld._radial_tables(
            ConstantDensity(), rhos, zetas, [0], [0], tol
        )
    assert stats["panels"] < 1024
    assert np.all(np.abs(values[:, 0, 0] - exact) <= tol[:, 0, 0])
    values, err, stats = sommerfeld._radial_tables(
        ConstantDensity(), rhos, zetas, [0], [0], tol
    )
    assert stats["panels"] == sum(st["panels"] for st in own)
    assert np.all(np.abs(values[:, 0, 0] - exact) <= tol[:, 0, 0])


@pytest.mark.parametrize("seed", [0, 1])
def test_groups_bound_each_pairs_grid_and_memory(seed):
    """Every pair lands in exactly one group; a group's grid has at most
    spread times each member's own panel count K / width, and a group of
    more than one pair holds at most _GROUP_ENTRIES table entries.  The
    batch's K and widths, one solve, are bitwise each pair's own, and the
    widths bitwise min(K/16, 2^round(log2(16 pi / rho))) with inf at rho = 0,
    the division the width rule once made under np.errstate."""
    rng = np.random.default_rng(seed)
    zetas = 10.0 ** rng.uniform(-2, 0.5, 200)
    rhos = np.where(rng.random(200) < 0.2, 0.0, zetas * rng.uniform(0, 200, 200))
    kmax, width = sommerfeld._own_grid(1.0, rhos, zetas, np.arange(5), 1e-12)
    for powers in ([0], np.arange(5), np.arange(13), np.arange(17)):
        tol = 10.0 ** rng.uniform(-14, -6, 200)
        batch = sommerfeld._own_grid(1.0, rhos, zetas, powers, tol)
        one = np.array([sommerfeld._own_grid(1.0, rho, zeta, powers, t)
                        for rho, zeta, t in zip(rhos, zetas, tol)]).T
        assert np.array_equal(np.array(batch), one)
        with np.errstate(divide="ignore"):
            near = 2.0 ** np.round(np.log2(16.0 * math.pi / rhos))
        assert np.array_equal(batch[1], np.minimum(batch[0] / 16.0, near))
    groups = sommerfeld._group_pairs(kmax, width, 400)
    spread = sommerfeld._GRID_SPREAD
    assert sorted(i for g in groups for i in g) == list(range(200))
    for g in groups:
        assert kmax[g].max() / width[g].min() <= spread * np.min(kmax[g] / width[g])
        assert len(g) == 1 or 400 * len(g) <= sommerfeld._GROUP_ENTRIES
    assert len(groups) < 100


def test_unmeetable_pair_fails_the_batch():
    """A pair whose tolerance cannot be met (rho = 1000 at zeta = 0.05, see
    test_radial_table_capped_grid_is_honest) raises for the whole batch."""
    with pytest.raises(ToleranceNotMet):
        sommerfeld._radial_tables(
            ConstantDensity(), [0.5, 1000.0], [0.5, 0.05], [0], [0],
            np.full((2, 1, 1), 1e-10),
        )


def test_empty_batch(three_layer):
    values, err, stats = sommerfeld._radial_tables(
        ConstantDensity(), [], [], [0, 1], [0], np.zeros((0, 2, 1))
    )
    assert values.shape == err.shape == (0, 2, 1) and stats["panels"] == 0
    none = np.zeros((0, 3))
    got = eval_reaction_green(three_layer, 1, 1, 1, 1, none, none)
    assert isinstance(got, np.ndarray) and got.shape == (0,)


@pytest.mark.parametrize("bad", [
    [[np.inf]], [[np.nan]], [[0.0]], [[-1e-10]], [[1e-10, 1e-10]], [1e-10],
])
def test_bad_tolerances_are_domain_errors(bad):
    """A tolerance table must have shape (powers, orders), entries > 0 or
    +inf, and a finite entry: else DomainError, for one pair and for one
    pair of a batch."""
    dens = ConstantDensity(1.0)
    bad = np.array(bad)
    with pytest.raises(DomainError):
        radial_table(dens, 1.0, 1.0, [0], [0], bad)
    with pytest.raises(DomainError):
        sommerfeld._radial_tables(
            dens, [1.0, 1.0], [1.0, 1.0], [0], [0],
            np.stack([np.full(bad.shape, 1e-10), bad]),
        )


def test_oracle_batch_matches_pairs(three_layer):
    """eval_reaction_green over arrays of points: one value per pair, each
    within tol of its one-pair call, and the scalar call still a float."""
    rng = np.random.default_rng(7)
    r = np.column_stack([rng.uniform(-2, 2, (8, 2)), rng.uniform(-0.95, -0.05, 8)])
    rp = np.column_stack([rng.uniform(-2, 2, (8, 2)), rng.uniform(-0.95, -0.05, 8)])
    got, stats = eval_reaction_green(three_layer, 2, 1, 1, 1, r, rp, 1e-11, stats=True)
    assert got.shape == (8,) and stats["panels"] > 0
    for i in range(8):
        one = eval_reaction_green(three_layer, 2, 1, 1, 1, r[i], rp[i], 1e-11)
        assert isinstance(one, float) and abs(got[i] - one) <= 1e-11
    fixed = eval_reaction_green(three_layer, 2, 1, 1, 1, r, rp[0], 1e-11)
    assert abs(fixed[3] - eval_reaction_green(
        three_layer, 2, 1, 1, 1, r[3], rp[0], 1e-11)) <= 1e-11
