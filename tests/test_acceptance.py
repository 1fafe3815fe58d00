"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (with wall time against the stated budget).

Criterion 2 runs the homogeneous degeneracy in its physically consistent
form: same-layer densities vanish and all reaction potentials/expansions
are below quadrature tolerance; cross-layer components reassemble the
free-space kernel exactly (the decomposition carries the transmitted
direct field there, so the components cannot all vanish).
"""

import math
import time
from contextlib import contextmanager

import mpmath
import numpy as np
from scipy import special

from layerfmm import (
    Box,
    ChargeSystem,
    ExperimentConfig,
    LayeredMedium,
    eval_expansion,
    eval_reaction_green,
    eval_reaction_me,
    generate_charges,
    legendre_p,
    m2l_reaction,
    polarization_source,
    reaction_densities,
    reaction_me_from_charges,
    run_experiment,
    run_property_suite,
    sqrt_branch,
)
from layerfmm.expansions import reaction_basis_table
from layerfmm.harmonics import cartesian_to_spherical, constants, sph_harm
from layerfmm.lab import fibonacci_sphere

SLAB = LayeredMedium([0.0, -1.0], [1.0, 1.0, 1.0], [1.0, 3.0, 8.0])


@contextmanager
def criterion(capsys, number, label, budget_s):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(
            f"PASS criterion {number:2d} ({label}): {elapsed:.1f}s "
            f"< {budget_s:.0f}s"
        )
    assert elapsed < budget_s


def test_criterion_01_two_layer_density_and_image(capsys):
    with criterion(capsys, 1, "two-layer density & image charge", 10):
        rng = np.random.default_rng(2024)
        k = np.linspace(0.0, 100.0, 801)
        for eps in (2.0, 10.0, 80.0):
            med = LayeredMedium([0.0], [1.0, 1.0], [1.0, eps])
            sig = reaction_densities(med, 0, 0, k).get(1, 1)
            kappa = (1.0 - eps) / (1.0 + eps)
            assert np.abs(sig - kappa).max() < 1e-12
            for _ in range(50):
                rp = np.array([*rng.uniform(-1, 1, 2), rng.uniform(0.05, 1.5)])
                r = np.array([*rng.uniform(-1, 1, 2), rng.uniform(0.05, 1.5)])
                img = rp * np.array([1.0, 1.0, -1.0])
                exact = kappa / (4 * math.pi * np.linalg.norm(r - img))
                got = eval_reaction_green(med, 1, 1, 0, 0, r, rp, 1e-12)
                assert abs(got - exact) <= 1e-10 * abs(exact)


def test_criterion_02_homogeneous_degeneracy(capsys):
    from conftest import random_z_in_layer, spectral_u_hat_recursion

    with criterion(capsys, 2, "homogeneous degeneracy", 5):
        rng = np.random.default_rng(7)
        quad_tol = 1e-12
        for L in (1, 2, 3, 4):
            d = np.linspace(0.0, -(L - 1) or -0.0, L) if L > 1 else [0.0]
            med = LayeredMedium(d, [2.0] * (L + 1), [5.0] * (L + 1))
            k = rng.uniform(0, 40, 16) + 1j * rng.uniform(-20, 20, 16)
            k = np.abs(k.real) + 1j * k.imag
            for ell in range(L + 1):
                dens = reaction_densities(med, ell, ell, k)
                for comp in dens.components:
                    assert np.abs(dens.get(*comp)).max() < 1e-13
                for ellp in range(L + 1):
                    if ellp == ell:
                        continue
                    z = random_z_in_layer(rng, med, ell)
                    zp = random_z_in_layer(rng, med, ellp)
                    total = spectral_u_hat_recursion(med, ell, ellp, z, zp, k)
                    assert np.abs(total - np.exp(-k * abs(z - zp))).max() < 1e-13
        med = LayeredMedium([0.0, -1.0], [2, 2, 2], [5, 5, 5])
        sys_ = ChargeSystem.in_medium(
            med, [1.0, -0.7], [[0.0, 0.1, -0.4], [0.1, 0.0, -0.6]]
        )
        r = np.array([0.3, 0.2, -0.5])
        for a, b in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            assert abs(
                eval_reaction_green(med, a, b, 1, 1, r, sys_.positions[0], 1e-12)
            ) < quad_tol
            pol_c = polarization_source(med, a, b, 1, 1, np.array([0, 0, -0.5]))
            exp = reaction_me_from_charges(sys_, med, a, b, 1, 1, pol_c, 6,
                                           radius=0.3)
            assert abs(eval_reaction_me(exp, med, r, 1e-12)) < quad_tol


def test_criterion_03_key_inequality_suite(capsys):
    with criterion(capsys, 3, "interface-matrix inequality, 1e4 samples", 10):
        out = run_property_suite("lemma21")["lemma21"]
        assert out["samples"] >= 10_000
        assert out["passed"], out
        assert out["worst_margin"] >= 1.0 - 1e-10


def test_criterion_04_free_space_me(capsys):
    with criterion(capsys, 4, "free-space ME bound & rate", 30):
        for r_s in (2.0, 4.0, 8.0):
            cfg = ExperimentConfig(
                kind="me", p_min=1, p_max=20, n_charges=20, seed=0,
                a_s=1.0, eval_radius=r_s,
            )
            report = run_experiment(cfg)
            assert report.passed, f"bound violated at r_s={r_s}"
            assert all(report.passed_rows)
            theory = math.log(r_s)
            assert abs(report.rate_fit - theory) <= 0.10 * theory, (
                r_s, report.rate_fit, theory,
            )


def test_criterion_05_free_space_le_and_shifts(capsys):
    with criterion(capsys, 5, "free-space LE bound, M2M/L2L exactness", 30):
        report = run_experiment(
            ExperimentConfig(kind="le", p_min=1, p_max=20, n_charges=20, seed=1,
                             a_t=1.0, eval_radius=2.5)
        )
        assert report.passed and all(report.passed_rows)
        m2m_report = run_experiment(
            ExperimentConfig(kind="m2m", p_min=1, p_max=16, n_charges=20,
                             seed=2, a_s=1.0, eval_radius=5.0)
        )
        assert m2m_report.passed
        assert m2m_report.metadata["recompute_rel_agreement"] < 1e-12
        l2l_report = run_experiment(
            ExperimentConfig(kind="l2l", p_min=1, p_max=16, n_charges=16,
                             seed=3, a_t=1.0)
        )
        assert l2l_report.passed  # pointwise agreement < 1e-12 relative scale


def test_criterion_06_free_space_m2l(capsys):
    with criterion(capsys, 6, "free-space M2L bound, c in {2,3}", 60):
        for c in (2.0, 3.0):
            cfg = ExperimentConfig(
                kind="m2l", p_min=1, p_max=20, n_charges=20, seed=4,
                a_s=1.0, a_t=1.0, c=c,
            )
            report = run_experiment(cfg)
            assert report.passed and all(report.passed_rows), c


def test_criterion_07_reaction_me(capsys):
    with criterion(capsys, 7, "reaction ME bound (3-layer, p<=15)", 300):
        for comp, tc in [
            ((1, 1, 1, 1), (0.0, 0.0, -0.25)),
            ((2, 2, 1, 1), (0.15, 0.1, -0.3)),
        ]:
            cfg = ExperimentConfig(
                kind="reaction_me", medium=SLAB, component=comp,
                p_min=1, p_max=15, n_charges=10, seed=11,
                a_s=0.3, source_center=(0.0, 0.0, -0.5),
                target_center=tc, target_spread=0.05,
                quad_tol=1e-12, n_targets=32,
            )
            report = run_experiment(cfg)
            assert report.passed and all(report.passed_rows), comp
            # geometric decay at (roughly) the predicted rate or faster
            assert report.rate_fit > 0.7 * report.rate_theory, (
                comp, report.rate_fit, report.rate_theory,
            )
            assert report.errors[0] > 30 * report.errors[-1]


def test_criterion_08_reaction_le_and_m2l(capsys):
    with criterion(capsys, 8, "reaction LE & M2L bounds (c=3, p<=15)", 600):
        le_cfg = ExperimentConfig(
            kind="reaction_le", medium=SLAB, component=(1, 1, 1, 1),
            p_min=1, p_max=15, n_charges=10, seed=13,
            a_s=0.25, source_center=(0.0, 0.0, -0.5),
            target_center=(0.9, 0.6, -0.45), quad_tol=1e-12,
            a_t=0.35, n_targets=32,
        )
        le_report = run_experiment(le_cfg)
        assert le_report.passed and all(le_report.passed_rows)

        m2l_cfg = ExperimentConfig(
            kind="reaction_m2l", medium=SLAB, component=(1, 1, 1, 1),
            p_min=1, p_max=15, n_charges=10, seed=17,
            a_s=0.3, a_t=0.15, c=3.0, source_center=(0.0, 0.0, -0.5),
            target_center=(0.3375, 0.0, -0.83), quad_tol=1e-12, n_targets=32,
        )
        m2l_report = run_experiment(m2l_cfg)
        assert m2l_report.passed and all(m2l_report.passed_rows)

        # single charge, two layers: translated LE against the oracle
        med = LayeredMedium([0.0], [1.0, 1.0], [1.0, 4.0])
        src = np.array([0.03, -0.02, 0.52])
        one = ChargeSystem.in_medium(med, [1.0], [src])
        pol_c = polarization_source(med, 1, 1, 0, 0, np.array([0.0, 0.0, 0.5]))
        a_s, a_t = 0.1, 0.3
        exp = reaction_me_from_charges(one, med, 1, 1, 0, 0, pol_c, 15,
                                       radius=a_s)
        tc = pol_c + (a_s + 3.0 * a_t) * np.array([0.527046, 0.0, 0.85])
        loc = m2l_reaction(exp, med, tc, 15, 1e-11, target_radius=a_t)
        for x in tc + 0.8 * a_t * fibonacci_sphere(8):
            oracle = eval_reaction_green(med, 1, 1, 0, 0, x, src, 1e-12)
            assert abs(eval_expansion(loc, x) - oracle) < 1e-8


def test_criterion_09_formulation_equivalence(capsys):
    with criterion(capsys, 9, "direct vs polarization ME equivalence", 120):
        rng = np.random.default_rng(19)
        csrc = np.array([0.0, 0.0, -0.5])
        box = Box(csrc, 0.25)
        sys_ = generate_charges(23, 4, box, SLAB, 1)
        p = 14
        cst = constants(p)
        for a, b in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            comp = (a, b, 1, 1)
            pol_c = polarization_source(SLAB, a, b, 1, 1, csrc)
            exp = reaction_me_from_charges(sys_, SLAB, a, b, 1, 1, pol_c, p)
            # direct-form coefficients: the free-space ME formula over the
            # physical source offsets
            coeff = np.zeros((p + 1, 2 * p + 1), dtype=complex)
            ns = np.arange(p + 1)
            for qj, pos in zip(sys_.q, sys_.positions):
                rr, th, ph = cartesian_to_spherical(pos - csrc)
                ytab = np.array(
                    [
                        [
                            np.conj(sph_harm(n, m, th, ph)) if abs(m) <= n else 0.0
                            for m in range(-p, p + 1)
                        ]
                        for n in ns
                    ]
                )
                coeff += qj * (rr ** ns)[:, None] * ytab
            coeff /= (4 * math.pi * cst.c ** 2)[:, None]
            for _ in range(2):
                tgt = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                                rng.uniform(-0.35, -0.15)])
                oracle = sum(
                    qj * eval_reaction_green(SLAB, a, b, 1, 1, tgt, pos, 1e-12)
                    for qj, pos in zip(sys_.q, sys_.positions)
                )
                v_polar = eval_reaction_me(exp, SLAB, tgt, 1e-12)
                basis_d, _ = reaction_basis_table(
                    SLAB, comp, p, tgt, csrc, 1e-12, form="direct"
                )
                v_direct = np.real((coeff * basis_d).sum())
                assert abs(v_direct - v_polar) < 1e-9
                assert abs(v_polar - oracle) < 1e-6  # truncation at p=14


#: (component, charge seed, count, source radius, target centre, target
#: radius) of the criteria 7-8 configurations; criterion 9 adds the four
#: components with targets in a box above the source box
SLAB_ORACLE_CASES = [
    ((1, 1), 11, 10, 0.3, (0.0, 0.0, -0.25), 0.05),
    ((2, 2), 11, 10, 0.3, (0.15, 0.1, -0.3), 0.05),
    ((1, 1), 13, 10, 0.25, (0.9, 0.6, -0.45), 0.6 * 0.35),
    ((1, 1), 17, 10, 0.3, (0.3375, 0.0, -0.83), 0.9 * 0.15),
]


def test_criteria_07_09_oracle_matches_slab_images():
    """The oracle of criteria 7-9 (eval_reaction_green, a Sommerfeld
    quadrature) against the slab's geometric image series, which shares no
    code with it: every (target, charge) pair of those geometries agrees
    to 2e-12, the oracle's tolerance 1e-12 plus the series cut."""
    from conftest import slab_image_green

    cases = list(SLAB_ORACLE_CASES)
    rng = np.random.default_rng(19)
    box_targets = np.column_stack([
        rng.uniform(-0.2, 0.2, (8, 2)), rng.uniform(-0.35, -0.15, 8),
    ])
    for ab in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        cases.append((ab, 23, 4, 0.25, box_targets, None))
    for ab, seed, count, a_s, centre, radius in cases:
        box = Box(np.array([0.0, 0.0, -0.5]), a_s)
        charges = generate_charges(seed, count, box, SLAB, 1).positions
        targets = centre
        if radius is not None:
            targets = np.asarray(centre) + radius * fibonacci_sphere(16)
        r = np.repeat(targets, len(charges), axis=0)
        rp = np.tile(charges, (len(targets), 1))
        got = eval_reaction_green(SLAB, *ab, 1, 1, r, rp, 1e-12)
        want = slab_image_green(SLAB, *ab, r, rp, 1e-14)
        assert np.max(np.abs(got - want)) <= 2e-12, (ab, seed, centre)


def test_criterion_10_harmonic_identities(capsys):
    with criterion(capsys, 10, "harmonic identities & references", 10):
        suite = run_property_suite("addition_theorems")["addition_theorems"]
        assert suite["passed"] and suite["worst_residual"] < 1e-12
        # Legendre reference accuracy (explicit-polynomial route)
        rng = np.random.default_rng(29)
        for x in rng.uniform(-1, 1, 20):
            for n in range(11):
                direct = 2.0 ** -n * sum(
                    math.comb(n, k) ** 2 * (x - 1) ** (n - k) * (x + 1) ** k
                    for k in range(n + 1)
                )
                assert abs(legendre_p(n, x) - direct) < 1e-13
        # Bessel reference accuracy against 50-digit mpmath
        mpmath.mp.dps = 50
        for _ in range(40):
            m = int(rng.integers(0, 25))
            x = float(rng.uniform(0, 50))
            ref = float(mpmath.besselj(m, x))
            assert abs(special.jv(m, x) - ref) <= 1e-13 * max(abs(ref), 1e-3)


def test_criterion_11_cagniard(capsys):
    with criterion(capsys, 11, "hyperbolic-contour identity & branch", 30):
        suite = run_property_suite("cagniard")["cagniard"]
        assert suite["passed"] and suite["worst_residual"] < 1e-8
        rng = np.random.default_rng(31)
        z = rng.normal(size=10_000) * 10 + 1j * rng.normal(size=10_000) * 10
        assert np.all(sqrt_branch(z).real >= 0)
