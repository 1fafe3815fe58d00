import math

import mpmath
import numpy as np
import pytest
from scipy import special

from layerfmm import (
    ChargeSystem,
    ReactionDensity,
    RadialIntegralSpec,
    bessel_j,
    cagniard_identity_check,
    eval_me_basis,
    eval_reaction_green,
    eval_reaction_le_coeff,
    eval_reaction_m2l_entry,
    polarization_source,
    radial_integral,
    sqrt_branch,
)
from layerfmm import sommerfeld
from layerfmm.errors import ComponentAbsent, DomainError, ToleranceNotMet
from layerfmm.sommerfeld import CAGNIARD_CATALOG, ConstantDensity, radial_table


def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    with pytest.raises(DomainError):
        bessel_j(-1, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, -1.0)


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
    assert abs(bessel_j(0, root)) < 1e-9


def test_bessel_against_mpmath():
    """Relative accuracy 1e-13 against a 50-digit reference."""
    mpmath.mp.dps = 50
    rng = np.random.default_rng(0)
    for _ in range(60):
        m = int(rng.integers(0, 31))
        x = float(rng.uniform(0, 60))
        ref = float(mpmath.besselj(m, x))
        got = bessel_j(m, x)
        assert abs(got - ref) <= 1e-13 * max(abs(ref), 1e-3)


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
        spec = RadialIntegralSpec(m, n, rho, zeta, ConstantDensity())
        assert radial_integral(spec, 1e-12).real == pytest.approx(exact, abs=1e-11)


def test_radial_integral_brute_force_cross_check():
    """(m, n) = (1, 1) against a dense trapezoid evaluation."""
    rho, zeta = 0.9, 1.1
    k = np.linspace(0.0, 400.0, 2_000_001)
    brute = np.trapezoid(bessel_j(1, k * rho) * np.exp(-k * zeta) * k, k)
    spec = RadialIntegralSpec(1, 1, rho, zeta, ConstantDensity())
    assert radial_integral(spec, 1e-12).real == pytest.approx(brute, abs=1e-9)


def test_radial_integral_linearity():
    spec1 = RadialIntegralSpec(2, 3, 0.8, 1.4, ConstantDensity(1.0))
    spec2 = RadialIntegralSpec(2, 3, 0.8, 1.4, ConstantDensity(2.0))
    v1 = radial_integral(spec1, 1e-12)
    v2 = radial_integral(spec2, 1e-12)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_radial_integral_validation():
    with pytest.raises(DomainError):
        RadialIntegralSpec(0, 0, 1.0, 0.0, ConstantDensity())
    with pytest.raises(DomainError):
        RadialIntegralSpec(0, -1, 1.0, 1.0, ConstantDensity())
    spec = RadialIntegralSpec(0, 0, 1.0, 1.0, ConstantDensity())
    with pytest.raises(ValueError):
        radial_integral(spec, 1e-14)


def test_radial_table_budget_exhaustion():
    dens = ConstantDensity()
    with pytest.raises(ToleranceNotMet) as err:
        radial_table(dens, 50.0, 0.05, [0], [0], np.array([[1e-13]]), max_panels=4)
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
    meets tol.  Returns (value, panels, gl_calls)."""

    def rule(lo, hi):
        return evaluate(np.array([lo]), np.array([hi]))[0, 0]

    panels = []

    def add(lo, hi, whole):
        mid = 0.5 * (lo + hi)
        left, right = rule(lo, mid), rule(mid, hi)
        panels.append((lo, hi, left, right, abs(whole - (left + right))))

    for lo, hi in zip(edges[:-1], edges[1:]):
        add(lo, hi, rule(lo, hi))
    gl_calls = 3 * len(panels)
    while sum(p[4] for p in panels) > tol:
        worst = max(range(len(panels)), key=lambda i: panels[i][4])
        lo, hi, left, right, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        add(lo, mid, left)
        add(mid, hi, right)
        gl_calls += 4
    return sum(p[2] + p[3] for p in panels), len(panels), gl_calls


def test_adaptive_panels_refines_a_peak():
    """1/(x^2 + 1e-4) on [-1, 1] from 4 panels: the refinement path the
    reaction tables never take.  Every bisection costs 4 rules."""
    f = lambda x: 1.0 / (x * x + 1e-4)
    edges = np.linspace(-1.0, 1.0, 5)
    value, err, stats = sommerfeld._adaptive_panels(
        _gl_evaluate(f), edges, np.array([1e-10])
    )
    assert abs(value[0] - 200.0 * math.atan(100.0)) <= 1e-10
    assert err[0] <= 1e-10
    assert stats["panels"] > 4
    assert stats["bisections"] == stats["panels"] - 4
    assert stats["gl_calls"] == 3 * 4 + 4 * (stats["panels"] - 4)
    ref, panels, gl_calls = _greedy_panels(_gl_evaluate(f), edges, 1e-10)
    assert (stats["panels"], stats["gl_calls"]) == (panels, gl_calls) == (10, 36)
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


def test_adaptive_panels_budget_spent_during_refinement():
    """The budget error comes from a refinement pass, not only from an
    initial panel count above max_panels."""
    calls = []
    f = lambda x: 1.0 / (x * x + 1e-4)
    with pytest.raises(ToleranceNotMet) as err:
        sommerfeld._adaptive_panels(
            _gl_evaluate(f, calls), np.linspace(-1.0, 1.0, 5), np.array([1e-10]),
            max_panels=7,
        )
    assert calls[0] == 3 * 4
    assert sum(calls[1:]) == 4 * 3  # three bisections fill the budget of 7
    assert err.value.achieved > 1.0


def test_radial_table_block_size_invariance(three_layer, monkeypatch):
    """A 17 x 17 table at rho/zeta = 12 does not depend on how many
    panels share an evaluate call."""
    dens = ReactionDensity(three_layer, 1, 1, 1, 1)
    n = np.arange(17)
    zeta = 0.5
    scale = dens.bound * np.array([math.gamma(k + 1) / zeta ** (k + 1) for k in n])
    tol = 1e-11 * np.repeat(scale[:, None], 17, axis=1)
    vals, errs, stats = radial_table(dens, 6.0, zeta, n, n, tol)
    monkeypatch.setattr(sommerfeld, "_BLOCK", 1)
    vals1, errs1, stats1 = radial_table(dens, 6.0, zeta, n, n, tol)
    np.testing.assert_allclose(vals1, vals, rtol=1e-13, atol=0)
    assert stats1["panels"] == stats["panels"]
    assert stats1["gl_calls"] == stats["gl_calls"]
    assert stats1["evals"] == stats["panels"] > stats["evals"]


def test_radial_table_stats_record():
    """Stats carry the density sweeps, the bisections and whether the
    initial panel count hit its cap, also on the zero-bound early return."""
    tol = np.array([[1e-8]])
    _, _, wide = radial_table(ConstantDensity(), 50.0, 0.05, [0], [0], tol)
    _, _, near = radial_table(ConstantDensity(), 0.5, 0.5, [0], [0], tol)
    _, _, zero = radial_table(ConstantDensity(0.0), 0.5, 0.5, [0], [0], tol)
    assert wide["capped"] and not near["capped"] and not zero["capped"]
    assert wide["panels"] == 512 + wide["bisections"]
    assert near["evals"] == math.ceil(near["panels"] / sommerfeld._BLOCK)
    assert zero == {
        "panels": 0, "gl_calls": 0, "evals": 0, "bisections": 0, "capped": False
    }


def test_tail_truncation_insensitivity(two_layer, monkeypatch):
    """Doubling the quadrature cutoff changes the Green value below tol."""
    r, rp = np.array([0.4, 0.2, 1.1]), np.array([-0.2, 0.1, 0.6])
    base = eval_reaction_green(two_layer, 1, 1, 0, 0, r, rp, 1e-12)
    orig = sommerfeld._choose_kmax

    def doubled(bound, rho, zeta, powers, tol_tail):
        return 2.0 * orig(bound, rho, zeta, powers, tol_tail)

    monkeypatch.setattr(sommerfeld, "_choose_kmax", doubled)
    again = eval_reaction_green(two_layer, 1, 1, 0, 0, r, rp, 1e-12)
    assert abs(base - again) < 1e-12


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
    f00 = eval_me_basis(two_layer, 1, 1, 0, 0, 0, 0, r, center, 1e-12)
    m00 = 1.0 / math.sqrt(4 * math.pi)
    oracle = eval_reaction_green(two_layer, 1, 1, 0, 0, r, src, 1e-12)
    assert (m00 * f00).real == pytest.approx(oracle, abs=1e-12)
    assert abs(f00.imag * m00) < 1e-14


def test_me_basis_conventions(three_layer):
    r = np.array([0.4, 0.3, -0.2])
    center = np.array([0.1, -0.2, -1.6])
    assert eval_me_basis(three_layer, 1, 1, 1, 1, 2, 3, r, center) == 0
    for n in range(4):
        for m in range(n + 1):
            f_pos = eval_me_basis(three_layer, 1, 1, 1, 1, n, m, r, center, 1e-12)
            f_neg = eval_me_basis(three_layer, 1, 1, 1, 1, n, -m, r, center, 1e-12)
            assert f_neg == pytest.approx(
                (-1.0) ** m * np.conj(f_pos), rel=1e-10, abs=1e-13
            )


def test_le_coeff_center_value(three_layer):
    """At the target center only the (0,0) local term survives:
    L_00 Y_0^0 equals the reaction potential there."""
    src = np.array([0.2, 0.1, -0.7])
    tc = np.array([0.6, -0.3, -0.25])
    l00 = eval_reaction_le_coeff(three_layer, 2, 1, 1, 1, 0, 0, tc, src, 1e-12)
    oracle = eval_reaction_green(three_layer, 2, 1, 1, 1, tc, src, 1e-12)
    assert (l00 / math.sqrt(4 * math.pi)).real == pytest.approx(oracle, abs=1e-11)


def test_m2l_entry_monopole_closed_form(two_layer):
    """For the constant half-space density, T_00,00 = kappa / |separation|."""
    eps0, eps1 = two_layer.b[0], two_layer.b[1]
    kappa = (eps0 - eps1) / (eps0 + eps1)
    sc = np.array([0.2, -0.3, -0.9])  # below the interface (a=1 side)
    tc = np.array([0.5, 0.4, 1.2])
    t00 = eval_reaction_m2l_entry(two_layer, 1, 1, 0, 0, 0, 0, 0, 0, tc, sc, 1e-12)
    assert t00.real == pytest.approx(
        kappa / np.linalg.norm(tc - sc), rel=1e-10
    )
    assert abs(t00.imag) < 1e-13


def test_m2l_entry_conjugation_symmetry(three_layer):
    tc = np.array([0.3, 0.2, -0.4])
    sc = np.array([-0.1, 0.4, -2.1])
    for (n, m, np_, mp_) in [(1, 1, 2, -1), (2, 0, 3, 2), (3, -2, 1, 1)]:
        t1 = eval_reaction_m2l_entry(
            three_layer, 1, 1, 1, 1, n, m, np_, mp_, tc, sc, 1e-12
        )
        t2 = eval_reaction_m2l_entry(
            three_layer, 1, 1, 1, 1, n, -m, np_, -mp_, tc, sc, 1e-12
        )
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


def test_density_regular_at_origin(two_layer):
    dens = ReactionDensity(two_layer, 1, 1, 0, 0)
    v0 = dens(np.array([0.0]))[0]
    v1 = dens(np.array([1e-12]))[0]
    assert np.isfinite(v0)
    assert abs(v0 - v1) < 1e-10
