"""Cross-checks of the batched table builders against an independent
scalar assembly of the paper's three operator formulas."""

import math
from functools import lru_cache

import numpy as np
import pytest

from layerfmm import (
    ChargeSystem,
    LayeredMedium,
    ReactionDensity,
    polarization_source,
    reflect,
    tau_map,
)
from layerfmm.expansions import (
    _pack,
    _packed_indices,
    reaction_basis_table,
    reaction_le_from_charges,
    reaction_m2l_matrix,
    reaction_me_from_charges,
)
from layerfmm.harmonics import constants
from layerfmm.sommerfeld import MIN_TOL, radial_table

SLAB = LayeredMedium([0.0, -1.0], [1, 1, 1], [1.0, 3.0, 8.0])


# ---------------------------------------------------------------------------
# scalar reference: the three operator formulas written out entry by entry,
# each with its own 1x1 radial table at absolute tolerance tol/|prefactor|
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _integral(comp, rho, zeta, n, m, tol):
    values, _, _ = radial_table(
        ReactionDensity(SLAB, *comp), rho, zeta, [n], [m], np.array([[tol]])
    )
    return complex(values[0, 0])


def _entry(comp, v, n, m, weight, phase, tol):
    """weight * e^{phase i m phi} * I(n, m; rho, zeta) at kernel argument
    v, with J_{-|m|} = (-1)^m J_{|m|}; |weight| is |prefactor|."""
    rho = math.hypot(v[0], v[1])
    phi = math.atan2(v[1], v[0]) if rho > 0 else 0.0
    value = _integral(
        comp, rho, float(v[2]), n, abs(m), max(tol / abs(weight), MIN_TOL)
    )
    fold = (-1.0) ** m if m < 0 else 1.0
    return weight * np.exp(phase * 1j * m * phi) * value * fold


def ref_me_basis(comp, n, m, r, center, tol, form="polarization"):
    a, b, ell, ellprime = comp
    if form == "polarization":
        v = r - center if a == 1 else reflect(r - center)
        sign = (-1.0) ** n if a == 1 else (-1.0) ** m
    else:
        v = tau_map(SLAB, a, b, ell, ellprime, r, center)
        sign = (-1.0) ** m if b == 1 else (-1.0) ** n
    cst = constants(n)
    weight = sign * cst.c[n] ** 2 * cst.C(n, m) * 1j ** m
    return _entry(comp, v, n, m, weight, 1, tol)


def ref_le_coeff(comp, n, m, target_center, source_point, tol):
    a = comp[0]
    w = target_center - polarization_source(SLAB, *comp, source_point)
    if a == 2:
        w = reflect(w)
    sign = 1.0 if a == 1 else (-1.0) ** (n + m)
    weight = sign * constants(n).C(n, m) / (4.0 * math.pi) * 1j ** m
    return _entry(comp, w, n, m, weight, -1, tol)


def ref_m2l_entry(comp, n, m, nprime, mprime, target_center, source_center,
                  tol):
    a = comp[0]
    v = target_center - source_center
    if a == 2:
        v = reflect(v)
    sign = (-1.0) ** nprime if a == 1 else (-1.0) ** (n + m + mprime)
    dm = mprime - m
    cst = constants(max(n, nprime))
    weight = (
        sign * cst.c[nprime] ** 2 * cst.C(n, m) * cst.C(nprime, mprime)
        * 1j ** dm
    )
    return _entry(comp, v, n + nprime, dm, weight, 1, tol)


# ---------------------------------------------------------------------------
# builders against the scalar reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("component", [(1, 1), (2, 2), (1, 2), (2, 1)])
def test_basis_table_matches_single_entries(component):
    a, b = component
    r = np.array([0.3, 0.25, -0.4])
    csrc = np.array([0.05, -0.1, -0.55])
    pol_c = polarization_source(SLAB, a, b, 1, 1, csrc)
    p = 4
    table, _ = reaction_basis_table(SLAB, (a, b, 1, 1), p, r, pol_c, 1e-12)
    for n in range(p + 1):
        for m in range(-n, n + 1):
            ref = ref_me_basis((a, b, 1, 1), n, m, r, pol_c, 1e-12)
            assert table[n, m + p] == pytest.approx(ref, rel=1e-9, abs=1e-14)


def test_direct_basis_table_matches_single_entries():
    r = np.array([0.3, 0.25, -0.4])
    csrc = np.array([0.05, -0.1, -0.55])
    p = 4
    table, _ = reaction_basis_table(
        SLAB, (2, 1, 1, 1), p, r, csrc, 1e-12, form="direct"
    )
    for n in range(p + 1):
        for m in range(-n, n + 1):
            ref = ref_me_basis((2, 1, 1, 1), n, m, r, csrc, 1e-12, "direct")
            assert table[n, m + p] == pytest.approx(ref, rel=1e-9, abs=1e-14)


def test_le_builder_matches_single_coefficients():
    src = np.array([0.1, -0.05, -0.45])
    one = ChargeSystem.in_medium(SLAB, [1.0], [src])
    tc = np.array([0.5, 0.3, -0.3])
    p = 4
    for a, b in [(1, 1), (2, 2)]:
        exp = reaction_le_from_charges(one, SLAB, a, b, 1, 1, tc, p,
                                       rel_tol=1e-12)
        for n in range(p + 1):
            for m in range(-n, n + 1):
                ref = ref_le_coeff((a, b, 1, 1), n, m, tc, src, 1e-12)
                assert exp.coeff[n, m + p] == pytest.approx(
                    ref, rel=1e-9, abs=1e-14
                )


def test_m2l_matrix_matches_single_entries():
    csrc = np.array([0.0, 0.0, -0.5])
    src = np.array([0.02, 0.04, -0.52])
    one = ChargeSystem.in_medium(SLAB, [1.0], [src])
    p = 3
    for a, b in [(1, 1), (2, 1)]:
        pol_c = polarization_source(SLAB, a, b, 1, 1, csrc)
        exp = reaction_me_from_charges(one, SLAB, a, b, 1, 1, pol_c, p)
        tc = np.array([0.25, 0.15, -0.35])
        tmat, _ = reaction_m2l_matrix(exp, SLAB, tc, p, 1e-12)
        ns, ms = _packed_indices(p)
        for i in range(len(ns)):
            for j in range(len(ns)):
                ref = ref_m2l_entry(
                    (a, b, 1, 1), int(ns[i]), int(ms[i]), int(ns[j]),
                    int(ms[j]), tc, pol_c, 1e-12,
                )
                assert tmat[i, j] == pytest.approx(ref, rel=1e-8, abs=1e-13)


def test_le_coeff_conjugate_symmetry():
    src = np.array([0.1, -0.05, -0.45])
    one = ChargeSystem.in_medium(SLAB, [1.0], [src])
    tc = np.array([0.5, 0.3, -0.3])
    exp = reaction_le_from_charges(one, SLAB, 1, 1, 1, 1, tc, 5, rel_tol=1e-12)
    assert exp.conjugate_symmetry_defect() < 1e-13


def test_packed_round_trip():
    rng = np.random.default_rng(0)
    p = 6
    coeff = np.zeros((p + 1, 2 * p + 1), dtype=complex)
    for n in range(p + 1):
        for m in range(-n, n + 1):
            coeff[n, m + p] = rng.normal() + 1j * rng.normal()
    from layerfmm.expansions import _unpack

    flat = _pack(coeff, p)
    assert flat.shape == ((p + 1) ** 2,)
    np.testing.assert_array_equal(_unpack(flat, p), coeff)


# ---------------------------------------------------------------------------
# batched builders against their one-point calls
# ---------------------------------------------------------------------------

def _bound_scale(comp, p, zetas):
    """M_sigma Gamma(n+1) / zeta^{n+1} per point and degree n, the scale
    each builder's rel_tol is relative to."""
    n = np.arange(p + 1)
    msig = ReactionDensity(SLAB, *comp).bound
    return msig * np.array(
        [[math.gamma(k + 1) / z ** (k + 1) for k in n] for z in zetas]
    )


@pytest.mark.parametrize("component", [(1, 1), (2, 1)])
def test_batched_basis_table_matches_per_target(component):
    """reaction_basis_table on an (N, 3) array of targets (one on the
    axis, rho/zeta up to about 5) agrees with its per-target calls to
    twice the builder's rel_tol of each entry's bound."""
    comp = component + (1, 1)
    p, rel_tol = 6, 1e-11
    pol_c = polarization_source(SLAB, *comp, np.array([0.05, -0.1, -0.55]))
    targets = np.array([
        [pol_c[0], pol_c[1], -0.3], [0.3, 0.25, -0.4], [2.0, -1.5, -0.1],
        [-0.2, 0.1, -0.9],
    ])
    batch, stats = reaction_basis_table(SLAB, comp, p, targets, pol_c, rel_tol)
    assert batch.shape == (len(targets), p + 1, 2 * p + 1) and stats["panels"] > 0
    zetas = [abs(t[2] - pol_c[2]) for t in targets]
    cst = constants(p)
    weight = cst.c[:, None] ** 2 * np.abs(cst.c_table)
    for i, r in enumerate(targets):
        one, _ = reaction_basis_table(SLAB, comp, p, r, pol_c, rel_tol)
        scale = weight * _bound_scale(comp, p, zetas)[i][:, None]
        assert np.all(np.abs(batch[i] - one) <= 2 * rel_tol * scale)


@pytest.mark.parametrize("component", [(1, 1), (2, 2)])
def test_batched_le_matches_per_charge(component):
    """reaction_le_from_charges over several charges (one table call)
    agrees with the charge-weighted sum of one-charge expansions to twice
    rel_tol of the summed entry bounds."""
    comp = component + (1, 1)
    p, rel_tol = 5, 1e-11
    tc = np.array([0.5, 0.3, -0.3])
    q = np.array([1.0, -0.5, 0.75, 0.2])
    pos = np.array([
        [0.5, 0.3, -0.6], [0.1, -0.05, -0.45], [-1.5, 2.0, -0.8], [0.4, 0.2, -0.2],
    ])
    system = ChargeSystem.in_medium(SLAB, q, pos)
    batch, stats = reaction_le_from_charges(
        system, SLAB, *comp, tc, p, rel_tol=rel_tol, stats=True
    )
    assert stats["panels"] > 0
    total = np.zeros_like(batch.coeff)
    for qj, x in zip(q, pos):
        one = ChargeSystem.in_medium(SLAB, [1.0], [x])
        total += qj * reaction_le_from_charges(
            one, SLAB, *comp, tc, p, rel_tol=rel_tol
        ).coeff
    img = np.array([polarization_source(SLAB, *comp, x) for x in pos])
    zetas = np.abs(tc[2] - img[:, 2])
    cst = constants(p)
    scale = (np.abs(q) @ _bound_scale(comp, p, zetas))[:, None] * np.abs(
        cst.c_table
    ) / (4 * math.pi)
    assert np.all(np.abs(batch.coeff - total) <= 2 * rel_tol * scale)
