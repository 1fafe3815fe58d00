import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from layerfmm import (
    ChargeSystem,
    HarmonicExpansion,
    LayeredMedium,
    density_bound,
    direct_potential,
    eval_expansion,
    eval_reaction_green,
    eval_reaction_me,
    l2l,
    le_from_charges,
    m2l_free,
    m2l_reaction,
    m2m,
    me_from_charges,
    polarization_source,
    reaction_le_from_charges,
    reaction_me_from_charges,
)
from layerfmm import expansions
from layerfmm.errors import (
    BoxesNotSeparated,
    CenterOnWrongSide,
    ChargeInsideBox,
    ChargeOutsideBox,
    ComponentAbsent,
    DomainError,
    InvariantViolated,
    RegionViolation,
)
from layerfmm.expansions import (
    Box,
    _charge_moments,
    _l2l_weights,
    _m2l_weights,
    _m2m_weights,
    _packed_indices,
    _radial_powers,
    _reaction_m2l_weights,
    reaction_basis_table,
    reaction_m2l_matrix,
    truncated,
)
from layerfmm.harmonics import (
    _legendre_lists,
    _legendre_weights,
    _ZERO,
    _order_tables,
    _point_tables,
    cartesian_to_spherical,
    constants,
    sph_harm,
    sph_harm_table,
)


def _random_cloud(rng, n, radius, center=(0, 0, 0)):
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    d *= radius * rng.uniform(0, 1, (n, 1)) ** (1 / 3)
    return ChargeSystem.free_space(rng.uniform(-1, 1, n), np.asarray(center) + d)


def test_me_single_charge_at_center():
    one = ChargeSystem.free_space([1.0], [[0.0, 0.0, 0.0]])
    exp = me_from_charges(one, np.zeros(3), 6, radius=0.1)
    assert exp.coeff[0, 6] == pytest.approx(1 / math.sqrt(4 * math.pi))
    assert np.abs(exp.coeff[1:]).max() == 0.0
    r = np.array([1.0, 2.0, -0.5])
    assert eval_expansion(exp, r) == pytest.approx(
        1 / (4 * math.pi * np.linalg.norm(r))
    )


def test_me_dipole_structure():
    h = 0.25
    sys_ = ChargeSystem.free_space([1.0, -1.0], [[0, 0, h], [0, 0, -h]])
    exp = me_from_charges(sys_, np.zeros(3), 4, radius=0.3)
    p = 4
    assert abs(exp.coeff[0, p]) < 1e-15
    # pure axial dipole: only (1, 0) survives at degree 1, linear in h
    cst = constants(1)
    expected = 2 * h / (4 * math.pi * cst.c[1] ** 2) * math.sqrt(3 / (4 * math.pi))
    assert exp.coeff[1, p].real == pytest.approx(expected, rel=1e-12)
    assert abs(exp.coeff[1, p - 1]) < 1e-15 and abs(exp.coeff[1, p + 1]) < 1e-15


def test_me_error_bound_random_cloud():
    rng = np.random.default_rng(0)
    sys_ = _random_cloud(rng, 20, 1.0)
    q = sys_.total_abs_charge
    r_s = 4.0
    targets = [
        np.array([r_s, 0, 0]),
        np.array([0, -r_s, 0]),
        r_s * np.array([0.5, 0.5, 0.70710678]),
    ]
    for p in (4, 8, 12):
        exp = me_from_charges(sys_, np.zeros(3), p, radius=1.0)
        bound = q / (4 * math.pi * (r_s - 1.0)) * (1.0 / r_s) ** (p + 1)
        for r in targets:
            err = abs(eval_expansion(exp, r) - direct_potential(sys_, r))
            assert err <= bound


def test_me_charge_outside_box_raises():
    sys_ = ChargeSystem.free_space([1.0], [[0, 0, 2.0]])
    with pytest.raises(ChargeOutsideBox):
        me_from_charges(sys_, np.zeros(3), 4, radius=1.0)


def test_le_single_distant_charge():
    one = ChargeSystem.free_space([1.0], [[0, 0, 5.0]])
    exp = le_from_charges(one, np.zeros(3), 40, radius=1.0)
    x = np.array([0.2, -0.1, 0.3])
    assert eval_expansion(exp, x) == pytest.approx(
        direct_potential(one, x), rel=1e-13
    )


def test_le_bound_and_inside_guard():
    rng = np.random.default_rng(1)
    d = rng.normal(size=(12, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    pos = d * rng.uniform(2.0, 3.0, (12, 1))
    sys_ = ChargeSystem.free_space(rng.uniform(-1, 1, 12), pos)
    q = sys_.total_abs_charge
    a_t = 2.0
    r_t = 0.8
    targets = r_t * np.eye(3)
    for p in (4, 8, 12):
        exp = le_from_charges(sys_, np.zeros(3), p, radius=a_t)
        bound = q / (4 * math.pi * (a_t - r_t)) * (r_t / a_t) ** (p + 1)
        for x in targets:
            assert abs(eval_expansion(exp, x) - direct_potential(sys_, x)) <= bound
    with pytest.raises(ChargeInsideBox):
        le_from_charges(sys_, np.zeros(3), 4, radius=2.5)
    # no radius given and a charge at the center: no finite local expansion
    at_center = ChargeSystem.free_space([1.0, -0.5], [[0, 0, 0], [0.3, 0.1, 0]])
    with pytest.raises(ChargeInsideBox):
        le_from_charges(at_center, np.zeros(3), 4)


def test_m2m_zero_shift_identity():
    rng = np.random.default_rng(2)
    sys_ = _random_cloud(rng, 8, 1.0)
    exp = me_from_charges(sys_, np.zeros(3), 10)
    same = m2m(exp, np.zeros(3))
    np.testing.assert_array_equal(same.coeff, exp.coeff)


def test_m2m_exactness_and_composition():
    rng = np.random.default_rng(3)
    sys_ = _random_cloud(rng, 10, 1.0)
    exp = me_from_charges(sys_, np.zeros(3), 14)
    c1 = np.array([0.4, -0.3, 0.2])
    c2 = np.array([0.9, 0.1, -0.5])
    recomputed = me_from_charges(sys_, c1, 14)
    shifted = m2m(exp, c1)
    scale = np.abs(recomputed.coeff).max()
    assert np.abs(shifted.coeff - recomputed.coeff).max() <= 1e-12 * scale
    once = m2m(exp, c2)
    twice = m2m(m2m(exp, c1), c2)
    assert np.abs(once.coeff - twice.coeff).max() <= 1e-11 * np.abs(once.coeff).max()


def test_l2l_exactness_and_composition():
    rng = np.random.default_rng(4)
    d = rng.normal(size=(10, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    sys_ = ChargeSystem.free_space(
        rng.uniform(-1, 1, 10), d * rng.uniform(3.0, 5.0, (10, 1))
    )
    exp = le_from_charges(sys_, np.zeros(3), 12, radius=2.0)
    same = l2l(exp, np.zeros(3))
    np.testing.assert_array_equal(same.coeff, exp.coeff)
    c1 = np.array([0.3, 0.2, -0.4])
    shifted = l2l(exp, c1)
    pts = rng.normal(size=(50, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.2, 1.0, (50, 1))
    for x in pts:
        a = eval_expansion(exp, x)
        b = eval_expansion(shifted, x)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1e-6)
    c2 = np.array([-0.2, 0.5, 0.1])
    once = l2l(exp, c2)
    twice = l2l(l2l(exp, c1), c2)
    assert np.abs(once.coeff - twice.coeff).max() <= 1e-11 * np.abs(once.coeff).max()


def test_m2l_free_single_charge_closed_form():
    one = ChargeSystem.free_space([1.0], [[0.15, -0.1, 0.05]])
    exp = me_from_charges(one, np.zeros(3), 20, radius=0.25)
    a_s, a_t, c = 0.25, 0.25, 3.0
    tc = (a_s + c * a_t) * np.array([0.6, 0.64, 0.48])
    loc = m2l_free(exp, tc, 20, target_radius=a_t)
    for x in (tc, tc + np.array([0.1, 0.05, -0.08])):
        assert abs(eval_expansion(loc, x) - direct_potential(one, x)) < 1e-10


def test_m2l_free_monopole_taylor():
    """A p'=0 multipole (pure monopole at the source center) translates to
    the local expansion of the point-charge kernel about the target
    center, whose coefficients have the closed form
    (1/(4 pi c_n^2)) r_st^{-n-1} conj(Y_n^m(dir))."""
    one = ChargeSystem.free_space([1.0], [[0.0, 0.0, 0.0]])
    exp = me_from_charges(one, np.zeros(3), 0, radius=0.1)
    tc = np.array([1.2, -0.4, 2.0])
    p = 8
    loc = m2l_free(exp, tc, p)
    cst = constants(p)
    r_st, th, ph = cartesian_to_spherical(-tc)  # source center minus target
    for n in range(p + 1):
        for m in range(-n, n + 1):
            expect = (
                np.conj(sph_harm(n, m, th, ph))
                / (4 * math.pi * cst.c[n] ** 2 * r_st ** (n + 1))
            )
            assert loc.coeff[n, m + p] == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_m2l_free_bound_random_clouds():
    rng = np.random.default_rng(5)
    a_s = a_t = 1.0
    for c in (2.0, 3.0):
        sys_ = _random_cloud(rng, 15, a_s)
        exp = me_from_charges(sys_, np.zeros(3), 20, radius=a_s)
        tc = (a_s + c * a_t) * np.array([0.0, 0.6, 0.8])
        q = sys_.total_abs_charge
        targets = tc + 0.9 * a_t * np.array(
            [[1, 0, 0], [0, -1, 0], [0.57735, 0.57735, -0.57735]]
        )
        for p in (3, 7, 11, 15):
            loc = m2l_free(truncated(exp, p), tc, p, target_radius=a_t)
            bound = (
                q
                / (4 * math.pi * (c - 1) * a_t)
                * ((a_s + a_t) / (a_s + c * a_t)) ** (p + 1)
            )
            for x in targets:
                err = abs(eval_expansion(loc, x) - direct_potential(sys_, x))
                assert err <= bound


def test_m2l_free_separation_guard():
    one = ChargeSystem.free_space([1.0], [[0, 0, 0]])
    exp = me_from_charges(one, np.zeros(3), 4, radius=1.0)
    with pytest.raises(BoxesNotSeparated):
        m2l_free(exp, np.array([0, 0, 1.5]), 4, target_radius=1.0)


def test_m2l_free_coincident_centers_raise():
    """Without radii the separation check cannot fire, yet coincident
    centers have no translation: a typed error, not log(0)."""
    one = ChargeSystem.free_space([1.0], [[0.1, 0, 0]])
    exp = me_from_charges(one, np.zeros(3), 4)
    with pytest.raises(BoxesNotSeparated):
        m2l_free(exp, exp.center, 4)


def test_translations_repeat_bitwise_across_cached_orders():
    """m2m, l2l and m2l_free called in alternation, at more orders and
    (p, p') pairs than their caches hold, return bitwise what their first
    call returned: no call mutates a weight table another call reads."""
    rng = np.random.default_rng(31)
    cloud = _random_cloud(rng, 9, 0.5)
    far = ChargeSystem.free_space([1.0, -0.4], [[6.0, 1.0, 0.5], [5.5, -1.0, 1.0]])
    shifts = [rng.normal(size=3) * 0.3 for _ in range(3)]
    calls = []
    for p, p2 in [(3, 5), (8, 2), (5, 5), (0, 4), (12, 7)]:
        me = me_from_charges(cloud, np.zeros(3), p)
        le = le_from_charges(far, np.zeros(3), p)
        for s in shifts:
            calls += [
                lambda me=me, s=s: m2m(me, s),
                lambda le=le, s=s: l2l(le, s),
                lambda me=me, p2=p2, s=s: m2l_free(me, 10 * s + [4.0, 0, 0], p2),
            ]
    first = [f().coeff.copy() for f in calls]
    for _ in range(2):
        for i in rng.permutation(len(calls)):
            assert calls[i]().coeff.tobytes() == first[i].tobytes()


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_shifts_keep_their_range_across_scales(scale):
    """The translation weights carry no power of r: each call scales the
    shift's harmonics by r^s (M2M, L2L) or r^-(s+1) (M2L).  On clouds of
    size 1e-3 to 1e3 the shifted tables stay finite at p = 30 and 60
    (M2L at 30), L2L reproduces the unshifted expansion to 1e-13, and
    M2M and M2L stay within their classical bounds of the direct sum,
    up to a roundoff floor of 64 eps times the bound's charge scale."""
    rng = np.random.default_rng(36)
    u = rng.normal(size=(6, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    a = 0.5 * scale
    src = _random_cloud(rng, 12, a)
    far = _random_cloud(rng, 12, a, scale * np.array([5.0, -2.0, 3.0]))
    q = src.total_abs_charge
    floor = 64.0 * np.finfo(float).eps
    try:
        for p in (30, 60):
            me = me_from_charges(src, np.zeros(3), p, radius=a)
            shifted = m2m(me, scale * np.array([0.3, -0.2, 0.25]))
            assert np.all(np.isfinite(shifted.coeff))
            r, grown = 4.0 * scale, shifted.radius
            unit = q / (4 * math.pi * (r - grown))
            for x in shifted.center + r * u:
                err = abs(eval_expansion(shifted, x) - direct_potential(src, x))
                assert err <= unit * ((grown / r) ** (p + 1) + floor), (p, x)

            le = le_from_charges(far, np.zeros(3), p, radius=4.0 * a)
            moved = l2l(le, scale * np.array([0.2, 0.1, -0.3]))
            assert np.all(np.isfinite(moved.coeff))
            for x in a * u * rng.uniform(0.2, 1.0, (6, 1)):
                want = eval_expansion(le, x)
                assert abs(eval_expansion(moved, x) - want) <= 1e-13 * abs(want)

            if p == 30:
                c = 3.0
                tc = (a + c * a) * np.array([0.0, 0.6, 0.8])
                loc = m2l_free(me, tc, p, target_radius=a)
                assert np.all(np.isfinite(loc.coeff))
                unit = q / (4 * math.pi * (c - 1) * a)
                for x in tc + 0.9 * a * u:
                    err = abs(eval_expansion(loc, x) - direct_potential(src, x))
                    assert err <= unit * ((2.0 / (1.0 + c)) ** (p + 1) + floor)
    finally:  # one p = 60 weight table holds 166 MB
        _m2m_weights.cache_clear()
        _l2l_weights.cache_clear()


def test_cached_tables_are_read_only():
    """Every cached table refuses writes, so no caller can corrupt the
    operators that read it later."""
    cst = constants(4)
    with pytest.raises(ValueError):
        cst.c[0] = 5.0
    tables = [cst.c, cst.log_c, cst.log_abs_a, cst.c_table, *_packed_indices(4)]
    tables += [*_m2m_weights(3), *_l2l_weights(3), *_m2l_weights(3, 2)]
    tables += [*_reaction_m2l_weights(3, 5)]
    tables += [a for row in _legendre_weights(6) for a in row[1:]]
    tables += [*_legendre_lists(6)[0], *_order_tables(6), *_radial_powers(4)]
    tables += [*_point_tables(6), _ZERO]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1


def test_conjugate_symmetry_defect_is_the_worst_pair():
    """The defect is the largest |C_{n,-m} - (-1)^m conj(C_{n,m})| over
    n <= p, 0 < m <= n, as a loop over the pairs finds it."""
    rng = np.random.default_rng(8)
    for p in (0, 1, 6):
        coeff = rng.normal(size=(p + 1, 2 * p + 1)) + 1j * rng.normal(
            size=(p + 1, 2 * p + 1)
        )
        exp = HarmonicExpansion("multipole", np.zeros(3), p, coeff)
        worst = max(
            (
                abs(coeff[n, p - m] - (-1.0) ** m * np.conj(coeff[n, p + m]))
                for n in range(p + 1)
                for m in range(1, n + 1)
            ),
            default=0.0,
        )
        assert exp.conjugate_symmetry_defect() == worst


def test_superposition_linearity():
    rng = np.random.default_rng(6)
    s1 = _random_cloud(rng, 7, 1.0)
    s2 = _random_cloud(rng, 5, 1.0)
    both = ChargeSystem.free_space(
        np.concatenate([s1.q, s2.q]), np.vstack([s1.positions, s2.positions])
    )
    e1 = me_from_charges(s1, np.zeros(3), 10, radius=1.0)
    e2 = me_from_charges(s2, np.zeros(3), 10, radius=1.0)
    eb = me_from_charges(both, np.zeros(3), 10, radius=1.0)
    scale = np.abs(eb.coeff).max()
    assert np.abs(e1.coeff + e2.coeff - eb.coeff).max() <= 1e-14 * scale


def test_conjugate_symmetry_invariant():
    rng = np.random.default_rng(7)
    sys_ = _random_cloud(rng, 9, 1.0)
    exp = me_from_charges(sys_, np.zeros(3), 12)
    assert exp.conjugate_symmetry_defect() < 1e-15


def test_region_violation_warns():
    one = ChargeSystem.free_space([1.0], [[0.3, 0, 0]])
    exp = me_from_charges(one, np.zeros(3), 6, radius=0.5)
    with pytest.warns(RegionViolation):
        eval_expansion(exp, np.array([0.4, 0, 0]))


def test_eval_expansion_batch_matches_points():
    """One-point and batched calls give the same bits at every supported
    order, on the axes (y = -0.0 on the negative x axis about the origin)
    and at a local expansion's own center too."""
    axes = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-1.0, -0.0, 0.0]])
    for p in (0, 1, 10, 30, 60):
        rng = np.random.default_rng(31)
        sys_ = _random_cloud(rng, 10, 1.0)
        me = me_from_charges(sys_, np.zeros(3), p)
        if p <= 30:
            loc = m2l_free(me, np.array([3.0, 1.0, -1.0]), p, target_radius=1.0)
        else:  # m2l_free weights at p = 60 would take 194 MB
            loc = le_from_charges(sys_, np.array([3.0, 1.0, -1.0]), p, radius=1.0)
        direc = rng.normal(size=(12, 3))
        direc /= np.linalg.norm(direc, axis=1, keepdims=True)
        for exp, pts in (
            (me, np.concatenate([direc * rng.uniform(2.0, 4.0, (12, 1)), 2.5 * axes])),
            (loc, loc.center + np.concatenate(
                [direc * rng.uniform(0.0, 0.9, (12, 1)), 0.5 * axes])),
        ):
            pts[0] = exp.center + [0.0, 0.0, 0.0 if exp is loc else 2.5]
            vals = eval_expansion(exp, pts)
            assert vals.shape == (15,)
            ones = np.array([eval_expansion(exp, x) for x in pts])
            assert vals.tobytes() == ones.tobytes(), p
            assert isinstance(eval_expansion(exp, pts[0]), float)
        # a local expansion at its own center is its n = 0 term
        assert eval_expansion(loc, loc.center) == pytest.approx(
            loc.coeff[0, p].real / math.sqrt(4 * math.pi), rel=1e-15
        )
    reaction = HarmonicExpansion(
        "reaction_multipole", np.zeros(3), 2, np.zeros((3, 5)), component=(1, 1, 1, 1)
    )
    with pytest.raises(ValueError, match="eval_reaction_me"):
        eval_expansion(reaction, pts)


def test_residue_verdicts_on_one_point_and_a_batch():
    """A dipole's potential on its zero plane is pure roundoff: there
    |Im v| <= 1e-10 |v| fails and the verdict rests on the 1e-12 sum
    |terms| allowance, which passes it, alone and in a batch, with the
    same bits.  An imaginary expansion fails the check on both paths."""
    dipole = ChargeSystem.free_space([1.0, -1.0], [[0.1, 0.05, 0.0], [-0.1, -0.05, 0.0]])
    me = me_from_charges(dipole, np.zeros(3), 8, radius=0.2)
    on_plane = np.array([0.8, -1.6, 0.5])  # equidistant from the two charges
    terms = me.coeff * expansions.solid_harmonics(me, on_plane)
    val = complex(terms.sum())
    assert not abs(val.imag) <= 1e-10 * abs(val)
    assert abs(val.imag) <= 1e-10 * abs(val) + 1e-12 * np.abs(terms).sum()
    pts = np.array([on_plane, [1.0, 2.0, -0.5]])
    one = eval_expansion(me, on_plane)
    assert abs(one) < 1e-15
    batch = eval_expansion(me, pts)
    assert batch.tobytes() == np.array([eval_expansion(me, x) for x in pts]).tobytes()

    imaginary = replace(me, coeff=1j * me.coeff)
    with pytest.raises(InvariantViolated):
        eval_expansion(imaginary, pts[1])
    with pytest.raises(InvariantViolated):
        eval_expansion(imaginary, pts)


def _wrong_kind_calls():
    rng = np.random.default_rng(37)
    slab = LayeredMedium([0.0, -1.0], [1, 1, 1], [1.0, 3.0, 8.0])
    cloud = _random_cloud(rng, 5, 0.2)
    me = me_from_charges(cloud, np.zeros(3), 3)
    le = le_from_charges(cloud, np.array([3.0, 0.0, 0.0]), 3)
    charges = ChargeSystem.in_medium(slab, [1.0, -0.5], [[0, 0, -0.3], [0.1, 0, -0.6]])
    pol_c = polarization_source(slab, 1, 1, 1, 1, np.array([0.0, 0.0, -0.5]))
    rme = reaction_me_from_charges(charges, slab, 1, 1, 1, 1, pol_c, 3)
    target = np.array([0.2, 0.1, -0.4])
    return {
        "l2l_of_a_multipole": lambda: l2l(me, np.ones(3)),
        "m2l_free_of_a_local": lambda: m2l_free(le, np.zeros(3), 3),
        "m2m_of_a_local": lambda: m2m(le, np.zeros(3)),
        "eval_expansion_of_a_reaction_me": lambda: eval_expansion(rme, target),
        "eval_reaction_me_of_a_free_me": lambda: eval_reaction_me(me, slab, target),
        "m2l_reaction_of_a_free_me": lambda: m2l_reaction(me, slab, target, 3),
        "reaction_basis_table_bogus_form": lambda: reaction_basis_table(
            slab, (1, 1, 1, 1), 3, target, pol_c, form="bogus"),
    }


@pytest.mark.parametrize("call", sorted(_wrong_kind_calls()))
def test_wrong_kind_and_unknown_form_are_domain_errors(call):
    """The wrong kind of expansion, or an unknown basis form, is bad
    input: a DomainError, raised before any table is built."""
    with pytest.raises(DomainError):
        _wrong_kind_calls()[call]()


BAD_POINTS = [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]]


@pytest.mark.parametrize("bad", BAD_POINTS)
def test_eval_expansion_at_a_non_finite_point_is_a_domain_error(bad):
    """Not an imaginary-residue InvariantViolated: the point is refused
    before any harmonic is formed, alone or in a batch."""
    rng = np.random.default_rng(34)
    sys_ = _random_cloud(rng, 5, 1.0)
    me = me_from_charges(sys_, np.zeros(3), 6)
    loc = le_from_charges(sys_, np.array([4.0, 0.0, 0.0]), 6, radius=1.0)
    for exp in (me, loc):
        with pytest.raises(DomainError, match="finite"):
            eval_expansion(exp, exp.center + bad)
        with pytest.raises(DomainError, match="finite"):
            eval_expansion(exp, exp.center + np.array([[0.5, 0.0, 0.0], bad]))


@pytest.mark.parametrize("bad", BAD_POINTS)
def test_shifts_to_a_non_finite_center_are_domain_errors(bad):
    rng = np.random.default_rng(35)
    sys_ = _random_cloud(rng, 5, 1.0)
    me = me_from_charges(sys_, np.zeros(3), 6, radius=1.0)
    loc = le_from_charges(sys_, np.array([4.0, 0.0, 0.0]), 6, radius=1.0)
    with pytest.raises(DomainError, match="finite"):
        m2m(me, bad)
    with pytest.raises(DomainError, match="finite"):
        l2l(loc, bad)
    with pytest.raises(DomainError, match="finite"):
        m2l_free(me, bad, 6)


@pytest.mark.parametrize("bad", BAD_POINTS)
def test_charges_at_non_finite_positions_are_domain_errors(bad):
    system = ChargeSystem.free_space([1.0, -0.5], [[0.1, 0.0, 0.2], bad])
    with pytest.raises(DomainError, match="finite"):
        me_from_charges(system, np.zeros(3), 4)
    with pytest.raises(DomainError, match="finite"):
        le_from_charges(system, np.array([5.0, 0.0, 0.0]), 4)


def test_multipole_at_its_center_is_a_domain_error():
    rng = np.random.default_rng(32)
    me = me_from_charges(_random_cloud(rng, 5, 1.0), np.zeros(3), 6)
    with pytest.raises(DomainError):
        eval_expansion(me, np.zeros(3))
    with pytest.raises(DomainError):
        eval_expansion(me, np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_charge_moments_match_per_charge_accumulation_bitwise():
    """One harmonics table for all charges gives the bits of adding the
    charges' terms one at a time.  At p = 0 numpy rounds the single
    column its own way (a pairwise sum over the charges, and another pow
    loop for a one-entry exponent), so only rounding agreement is asked."""
    rng = np.random.default_rng(33)
    q = rng.uniform(-1, 1, 25)
    rel = rng.normal(size=(25, 3))
    for p in (0, 1, 3, 12):
        for inverse in (False, True):
            cst = constants(p)
            ns = np.arange(p + 1)
            want = np.zeros((p + 1, 2 * p + 1), dtype=complex)
            for qj, v in zip(q, rel):
                r, theta, phi = cartesian_to_spherical(v)
                radial = r ** (-ns - 1.0) if inverse else r ** ns.astype(float)
                want += qj * radial[:, None] * np.conj(sph_harm_table(p, theta, phi))
            want /= (4.0 * math.pi * cst.c**2)[:, None]
            got = _charge_moments(q, rel, p, inverse)
            if p == 0:
                np.testing.assert_allclose(got, want, rtol=1e-14)
            else:
                assert got.tobytes() == want.tobytes()


def test_high_order_stability():
    """The recorded free-space limits: expansions stay finite and
    accurate at p = 40 (log-space constant handling), M2L at p = 25."""
    rng = np.random.default_rng(22)
    sys_ = _random_cloud(rng, 10, 1.0)
    exp = me_from_charges(sys_, np.zeros(3), 40, radius=1.0)
    assert np.all(np.isfinite(exp.coeff.real))
    r = np.array([1.6, 1.2, 1.4])
    err = abs(eval_expansion(exp, r) - direct_potential(sys_, r))
    assert err < 1e-12
    tc = 5.0 * np.array([0.6, 0.64, 0.48])
    loc = m2l_free(truncated(exp, 25), tc, 25, target_radius=1.0)
    x = tc + np.array([0.4, -0.3, 0.2])
    assert abs(eval_expansion(loc, x) - direct_potential(sys_, x)) < 1e-11


def test_truncated_partial_sums():
    rng = np.random.default_rng(8)
    sys_ = _random_cloud(rng, 6, 1.0)
    exp = me_from_charges(sys_, np.zeros(3), 10)
    t = truncated(exp, 4)
    assert t.p == 4
    np.testing.assert_array_equal(t.coeff, exp.coeff[:5, 6:15])


# ---------------------------------------------------------------------------
# reaction expansions
# ---------------------------------------------------------------------------

@pytest.fixture
def slab():
    return LayeredMedium([0.0, -1.0], [1, 1, 1], [1.0, 3.0, 8.0])


def _slab_cloud(rng, med, n=6):
    center = np.array([0.0, 0.0, -0.5])
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    pos = center + d * 0.3 * rng.uniform(0, 1, (n, 1)) ** (1 / 3)
    return ChargeSystem.in_medium(med, rng.uniform(-1, 1, n), pos), center


def test_reaction_me_bound_all_components(slab):
    rng = np.random.default_rng(9)
    sys_, csrc = _slab_cloud(rng, slab)
    q = sys_.total_abs_charge
    a_s = 0.3
    tgt = np.array([0.25, -0.2, -0.35])
    for a, b in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        pol_c = polarization_source(slab, a, b, 1, 1, csrc)
        oracle = sum(
            qj * eval_reaction_green(slab, a, b, 1, 1, tgt, pj, 1e-12)
            for qj, pj in zip(sys_.q, sys_.positions)
        )
        msig = density_bound(slab, 1, 1, a, b)
        r_s = np.linalg.norm(tgt - pol_c)
        prev = None
        for p in (2, 5, 8, 11):
            exp = reaction_me_from_charges(
                sys_, slab, a, b, 1, 1, pol_c, p, radius=a_s
            )
            err = abs(eval_reaction_me(exp, slab, tgt, 1e-12) - oracle)
            bound = q * msig / (4 * math.pi * (r_s - a_s)) * (a_s / r_s) ** (p + 1)
            assert err <= bound
            if prev is not None and prev > 1e-13:
                assert err < prev
            prev = err


def test_reaction_me_wrong_side_center(slab):
    rng = np.random.default_rng(10)
    sys_, _ = _slab_cloud(rng, slab)
    with pytest.raises(CenterOnWrongSide):
        reaction_me_from_charges(
            sys_, slab, 1, 1, 1, 1, np.array([0, 0, -0.5]), 4
        )
    with pytest.raises(ChargeOutsideBox):
        reaction_me_from_charges(
            sys_, slab, 1, 1, 1, 1, np.array([0, 0, -1.5]), 4, radius=0.01
        )


def test_reaction_le_wrong_side_center(slab):
    """A target center beyond the interface the a=1 component decays from
    is rejected as CenterOnWrongSide, by LE as by ME and M2L."""
    one = ChargeSystem.in_medium(slab, [1.0], [[0.1, -0.05, -0.45]])
    target = np.array([0.5, 0.3, -2.0])
    with pytest.raises(CenterOnWrongSide):
        reaction_le_from_charges(one, slab, 1, 1, 1, 1, target, 4)
    center = polarization_source(slab, 1, 1, 1, 1, one.positions[0])
    exp = reaction_me_from_charges(one, slab, 1, 1, 1, 1, center, 4)
    with pytest.raises(CenterOnWrongSide):
        m2l_reaction(exp, slab, target, 4)


def test_reaction_le_bound(slab):
    rng = np.random.default_rng(11)
    sys_, _ = _slab_cloud(rng, slab)
    q = sys_.total_abs_charge
    tc = np.array([0.9, 0.7, -0.45])
    a_t = 0.35
    msig = density_bound(slab, 1, 1, 1, 1)
    x = tc + np.array([0.1, -0.05, 0.08])
    r_t = np.linalg.norm(x - tc)
    oracle = sum(
        qj * eval_reaction_green(slab, 1, 1, 1, 1, x, pj, 1e-12)
        for qj, pj in zip(sys_.q, sys_.positions)
    )
    for p in (3, 6, 9):
        exp = reaction_le_from_charges(
            sys_, slab, 1, 1, 1, 1, tc, p, radius=a_t, rel_tol=1e-12
        )
        err = abs(eval_expansion(exp, x) - oracle)
        bound = q * msig / (4 * math.pi * (a_t - r_t)) * (r_t / a_t) ** (p + 1)
        assert err <= bound


def test_reaction_m2l_bound_and_separation(slab):
    rng = np.random.default_rng(12)
    sys_, csrc = _slab_cloud(rng, slab)
    q = sys_.total_abs_charge
    a_s, a_t, c = 0.3, 0.15, 3.0
    pol_c = polarization_source(slab, 1, 1, 1, 1, csrc)  # z = -1.5
    sep = a_s + c * a_t
    direction = np.array([0.45, 0.0, 0.893028])
    direction /= np.linalg.norm(direction)
    tc = pol_c + sep * direction
    assert slab.layer_of(tc[2]) == 1
    exp = reaction_me_from_charges(sys_, slab, 1, 1, 1, 1, pol_c, 12, radius=a_s)
    msig = density_bound(slab, 1, 1, 1, 1)
    x = tc + np.array([0.05, 0.02, 0.03])
    oracle = sum(
        qj * eval_reaction_green(slab, 1, 1, 1, 1, x, pj, 1e-12)
        for qj, pj in zip(sys_.q, sys_.positions)
    )
    for p in (4, 8, 12):
        loc = m2l_reaction(truncated(exp, p), slab, tc, p, 1e-12)
        err = abs(eval_expansion(loc, x) - oracle)
        bound = (
            q * msig / (2 * math.pi * (c - 1) * a_t)
            * ((a_s + a_t) / (a_s + c * a_t)) ** (p + 1)
        )
        assert err <= bound
    with pytest.raises(BoxesNotSeparated):
        m2l_reaction(exp, slab, pol_c + 0.35 * direction, 4, target_radius=a_t)


def _m2l_reference(a, table, phi, p, source_p):
    """The reaction M2L matrix as the product its entries are defined by,
    assembled per call: basis sign, c_n'^2, C_n^m C_n'^m', the phase
    i^{m'-m} e^{i(m'-m) phi} and I(n + n', |m' - m|) with
    J_{-m} = (-1)^m J_m folded in."""
    pmax = max(p, source_p)
    cst = constants(pmax)
    ns, ms = _packed_indices(p)
    nu, mu = _packed_indices(source_p)
    n, m = ns[:, None], ms[:, None]
    sn, dm = n + nu, mu - m
    sign = (-1.0) ** nu if a == 1 else (-1.0) ** (n + m + mu)
    fold = np.where(dm < 0, (-1.0) ** np.abs(dm), 1.0)
    return (
        sign * cst.c[nu] ** 2 * cst.c_table[n, m + pmax] * cst.c_table[nu, mu + pmax]
        * ((1j) ** dm * np.exp(1j * dm * phi)) * (table[sn, np.abs(dm)] * fold)
    )


def _m2l_on_table(monkeypatch, slab, table, phi, a, p, source_p):
    """reaction_m2l_matrix with _reaction_table returning table and phi."""
    monkeypatch.setattr(expansions, "_reaction_table",
                        lambda *args: (table, np.asarray(phi), {}))
    exp = HarmonicExpansion(
        "reaction_multipole", [0.0, 0.0, -1.5], source_p,
        np.zeros((source_p + 1, 2 * source_p + 1)), component=(a, 1, 1, 1),
    )
    return reaction_m2l_matrix(exp, slab, [0.3, 0.2, -0.5], p)[0]


@pytest.mark.parametrize("p, source_p", [(3, 5), (6, 2), (8, 8)])
def test_reaction_m2l_weights_match_per_call_assembly(slab, monkeypatch, p, source_p):
    """The cached geometry-free weights give the entries of the per-call
    product for both a, on real tables (as the engine returns) and on
    complex ones, at phi = 0 (exact phases) and at a generic phi."""
    rng = np.random.default_rng(10 * p + source_p)
    size = p + source_p + 1
    real = rng.standard_normal((size, size)) + 0j
    tables = [real, real + 1j * rng.standard_normal((size, size))]
    for table in tables:
        for phi in (0.0, float(rng.uniform(0.0, 2.0 * math.pi))):
            for a in (1, 2):
                got = _m2l_on_table(monkeypatch, slab, table, phi, a, p, source_p)
                assert np.array_equal(got, _m2l_reference(a, table, phi, p, source_p))


def test_reaction_m2l_weights_serve_both_a(slab, monkeypatch):
    """The weights do not depend on a, so the a = 1 and a = 2 components
    of one (p, p') share one cached entry instead of evicting each
    other."""
    table = np.random.default_rng(3).standard_normal((8, 8)) + 0j
    _reaction_m2l_weights.cache_clear()
    for a in (1, 2, 1, 2):
        _m2l_on_table(monkeypatch, slab, table, 0.7, a, 4, 3)
    info = _reaction_m2l_weights.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


def _basis_reference(a, b, form, table, phi, p):
    """The multipole basis as its per-call formula: basis sign (with n for
    a = 1 and m for a = 2 in the polarization form, m for b = 1 and n for
    b = 2 in the direct form), c_n^2 C_n^m i^m e^{i m phi} and I(n, |m|)
    with J_{-m} = (-1)^m J_m folded in."""
    cst = constants(p)
    ns, ms = _packed_indices(p)
    by_n = a == 1 if form == "polarization" else b == 2
    sign = (-1.0) ** (ns if by_n else ms)
    fold = np.where(ms < 0, (-1.0) ** np.abs(ms), 1.0)
    flat = (
        sign * cst.c[ns] ** 2 * cst.c_table[ns, ms + p] * (1j) ** ms
        * np.exp(1j * ms * phi) * (table[ns, np.abs(ms)] * fold)
    )
    return expansions._unpack(flat, p)


def _le_reference(a, q, tables, phis, p):
    """A reaction LE as its per-call formula, summed over charges: q_j,
    the sign (-1)^{n+m} for a = 2, C_n^m / (4 pi), i^m e^{-i m phi_j} and
    I_j(n, |m|) with J_{-m} = (-1)^m J_m folded in."""
    cst = constants(p)
    ns, ms = _packed_indices(p)
    sign = 1.0 if a == 1 else (-1.0) ** (ns + ms)
    fold = np.where(ms < 0, (-1.0) ** np.abs(ms), 1.0)
    terms = [
        qj * sign * cst.c_table[ns, ms + p] / (4.0 * math.pi) * (1j) ** ms
        * np.exp(-1j * ms * phi) * (table[ns, np.abs(ms)] * fold)
        for qj, table, phi in zip(q, tables, phis)
    ]
    return expansions._unpack(np.sum(terms, axis=0), p), np.sum(np.abs(terms), axis=0)


@pytest.mark.parametrize("complex_table", [False, True])
def test_reaction_basis_and_le_are_row_and_column_of_the_operator(
    slab, monkeypatch, complex_table
):
    """reaction_basis_table (a = 1, 2, and the direct form) and
    reaction_le_from_charges, which read row 0 and column 0 of the reaction
    operator, give their per-call formulas on synthetic tables, at phi = 0
    and at a generic phi, within a few ulps."""
    rng = np.random.default_rng(5 + complex_table)
    p, eps = 6, np.finfo(float).eps
    tables = rng.standard_normal((3, p + 1, p + 1)) + 0j
    if complex_table:
        tables += 1j * rng.standard_normal(tables.shape)
    r, csrc = np.array([0.3, 0.25, -0.4]), np.array([0.05, -0.1, -0.55])
    tc = np.array([0.5, 0.3, -0.3])
    one = ChargeSystem.in_medium(slab, [0.7], [csrc])
    three = ChargeSystem.in_medium(
        slab, [1.0, -0.5, 0.25], [csrc, [0.1, 0.2, -0.6], [-0.3, 0.1, -0.45]]
    )
    for phi in (0.0, float(rng.uniform(0.0, 2.0 * math.pi))):
        phis = phi + np.arange(3.0)

        def fake(medium, component, v, top, rel_tol):
            assert top == p
            if np.ndim(v) == 1:
                return tables[0], np.asarray(phi), {}
            return tables[: len(v)], phis[: len(v)], {}

        monkeypatch.setattr(expansions, "_reaction_table", fake)
        for a, b in [(1, 1), (2, 2), (1, 2), (2, 1)]:
            for form in ("polarization", "direct"):
                center = csrc if form == "direct" else polarization_source(
                    slab, a, b, 1, 1, csrc
                )
                got, _ = reaction_basis_table(
                    slab, (a, b, 1, 1), p, r, center, form=form
                )
                want = _basis_reference(a, b, form, tables[0], phi, p)
                assert np.all(np.abs(got - want) <= 4 * eps * np.abs(want))
            for system in (one, three):
                got = reaction_le_from_charges(system, slab, a, b, 1, 1, tc, p)
                want, scale = _le_reference(a, system.q, tables, phis, p)
                assert np.all(
                    np.abs(got.coeff - want) <= 4 * eps * expansions._unpack(scale, p)
                )


@pytest.mark.parametrize("ab", [(1, 1), (2, 1)])
def test_reaction_basis_and_me_take_stacked_points(slab, ab):
    """reaction_basis_table and eval_reaction_me on an (M, N, 3) stack of
    points give the (M, N) layout of the flattened batch, bitwise, as
    eval_expansion does for free expansions."""
    rng = np.random.default_rng(17)
    pol_c = polarization_source(slab, *ab, 1, 1, np.array([0.05, -0.1, -0.55]))
    sys_ = ChargeSystem.in_medium(
        slab, [1.0, -0.4], [[0.05, -0.1, -0.55], [0.1, 0.0, -0.5]]
    )
    exp = reaction_me_from_charges(sys_, slab, *ab, 1, 1, pol_c, 4)
    points = np.array([0.2, 0.1, -0.4]) + 0.1 * rng.uniform(-1, 1, (2, 3, 3))
    table, _ = reaction_basis_table(slab, (*ab, 1, 1), 4, points, pol_c)
    flat, _ = reaction_basis_table(slab, (*ab, 1, 1), 4, points.reshape(-1, 3), pol_c)
    assert table.shape == (2, 3, 5, 9)
    assert np.array_equal(table, flat.reshape(table.shape))
    values = eval_reaction_me(exp, slab, points)
    assert values.shape == (2, 3)
    flat_values = eval_reaction_me(exp, slab, points.reshape(-1, 3))
    assert np.array_equal(values, flat_values.reshape(2, 3))


def test_reaction_m2m_shift(slab):
    """Center shifting of a reaction multipole expansion is the plain
    free-space M2M over the polarization coordinates: shifting equals
    rebuilding at the new center, and evaluations agree."""
    rng = np.random.default_rng(21)
    sys_, csrc = _slab_cloud(rng, slab)
    pol_c = polarization_source(slab, 1, 1, 1, 1, csrc)  # z = -1.5
    exp = reaction_me_from_charges(sys_, slab, 1, 1, 1, 1, pol_c, 10, radius=0.3)
    new_center = pol_c + np.array([0.1, -0.05, -0.2])  # still below d_1
    shifted = m2m(exp, new_center)
    rebuilt = reaction_me_from_charges(
        sys_, slab, 1, 1, 1, 1, new_center, 10, radius=0.55
    )
    scale = np.abs(rebuilt.coeff).max()
    assert np.abs(shifted.coeff - rebuilt.coeff).max() < 1e-12 * scale
    tgt = np.array([0.2, 0.1, -0.3])
    v1 = eval_reaction_me(shifted, slab, tgt, 1e-12)
    v2 = eval_reaction_me(rebuilt, slab, tgt, 1e-12)
    assert v1 == pytest.approx(v2, rel=1e-10)


def test_reaction_le_shifts_like_any_local_expansion(slab):
    """A reaction local expansion is an ordinary local expansion in the
    free-space basis, so the truncated L2L shift is exact for it too."""
    rng = np.random.default_rng(23)
    sys_, _ = _slab_cloud(rng, slab)
    tc = np.array([0.9, 0.7, -0.45])
    exp = reaction_le_from_charges(sys_, slab, 1, 1, 1, 1, tc, 8, rel_tol=1e-12)
    moved = l2l(exp, tc + np.array([0.05, -0.04, 0.06]))
    x = tc + np.array([0.08, 0.02, -0.03])
    a = eval_expansion(exp, x)
    b = eval_expansion(moved, x)
    assert a == pytest.approx(b, rel=1e-12)


def test_reaction_homogeneous_zero_field():
    med = LayeredMedium([0.0, -1.0], [2, 2, 2], [5, 5, 5])
    sys_ = ChargeSystem.in_medium(med, [1.0, -0.5], [[0, 0, -0.3], [0.1, 0, -0.6]])
    pol_c = polarization_source(med, 1, 1, 1, 1, np.array([0, 0, -0.5]))
    exp = reaction_me_from_charges(sys_, med, 1, 1, 1, 1, pol_c, 6, radius=0.4)
    val = eval_reaction_me(exp, med, np.array([0.2, 0.1, -0.4]), 1e-12)
    assert val == 0.0


@pytest.mark.parametrize("ab", [(1, 1), (2, 2)])
def test_reaction_expansions_of_no_charges_are_zero(slab, ab):
    """An empty ChargeSystem gives zero reaction ME and LE tables, as it
    gives a zero free-space ME."""
    empty = ChargeSystem(np.zeros(0), np.zeros((0, 3)), np.zeros(0, int))
    free = me_from_charges(empty, [0.0, 0.0, 0.0], 4)
    pol_c = polarization_source(slab, *ab, 1, 1, np.array([0, 0, -0.5]))
    me = reaction_me_from_charges(empty, slab, *ab, 1, 1, pol_c, 4)
    tc = np.array([0.9, 0.6, -0.45])
    le = reaction_le_from_charges(empty, slab, *ab, 1, 1, tc, 4, radius=0.2)
    for exp in (free, me, le):
        assert exp.coeff.shape == (5, 9) and not np.any(exp.coeff)


def test_reaction_potential_helper_absent_components(two_layer):
    from layerfmm.sommerfeld import eval_reaction_potential

    r, rp = np.array([0.3, 0.1, 0.9]), np.array([0.0, 0.0, 0.5])
    total = eval_reaction_potential(two_layer, 0, 0, r, rp, 1e-12)
    only = eval_reaction_green(two_layer, 1, 1, 0, 0, r, rp, 1e-12)
    assert total == pytest.approx(only, rel=1e-12)
    with pytest.raises(ComponentAbsent):
        eval_reaction_green(two_layer, 2, 1, 0, 0, r, rp)


_OPTIMIZED_CHECKS = """
import numpy as np
from dataclasses import replace
from layerfmm import (
    ChargeSystem, InterfaceMatrices, LayeredMedium, eval_expansion,
    eval_reaction_me, me_from_charges, polarization_source,
    reaction_me_from_charges,
)
from layerfmm import sommerfeld
from layerfmm.errors import DomainError, InvariantViolated, ToleranceNotMet
from layerfmm.sommerfeld import radial_table

if __debug__:
    raise SystemExit("run without -O")
fired = []
slab = LayeredMedium([0.0, -1.0], [1.0, 1.0, 1.0], [1.0, 3.0, 8.0])

mats = InterfaceMatrices(slab, np.array([0.5, 2.0]))
mats.alpha[1][0] = 10.0 * mats.alpha[1][1]
try:
    mats._check_key_inequality()
except InvariantViolated:
    fired.append("key_inequality")

free = ChargeSystem.free_space([1.0, -0.5], [[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])
exp = me_from_charges(free, [0.0, 0.0, 0.0], 4, radius=0.2)
try:
    eval_expansion(replace(exp, coeff=1j * exp.coeff), [1.0, 0.5, 0.2])
except InvariantViolated:
    fired.append("eval_expansion")
try:
    eval_expansion(replace(exp, coeff=1j * exp.coeff), [[1.0, 0.5, 0.2], [0.3, 2.0, 1.0]])
except InvariantViolated:
    fired.append("eval_expansion_batch")

charges = ChargeSystem.in_medium(slab, [1.0, -0.5], [[0, 0, -0.3], [0.1, 0, -0.6]])
pol_c = polarization_source(slab, 1, 1, 1, 1, np.array([0, 0, -0.5]))
rexp = reaction_me_from_charges(charges, slab, 1, 1, 1, 1, pol_c, 4, radius=0.4)
try:
    eval_reaction_me(replace(rexp, coeff=1j * rexp.coeff), slab, [0.2, 0.1, -0.4])
except InvariantViolated:
    fired.append("eval_reaction_me")

class UnderReported:
    bound = 1.0

    def __call__(self, k):
        return np.full(np.shape(k), 2.0 + 0j)

try:
    radial_table(UnderReported(), 1.0, 0.5, [0], [0], np.array([[1e-10]]))
except InvariantViolated:
    fired.append("density_bound")

class NotReal:
    bound = 1.0

    def __call__(self, k):
        return np.full(np.shape(k), 0.5 + 0.5j)

try:
    radial_table(NotReal(), 1.0, 0.5, [0], [0], np.array([[1e-10]]))
except DomainError:
    fired.append("complex_density")

class UnderReportedRemainder:
    bound = 2.0
    limit = (1.0, 1.0, 0.5)

    def __call__(self, k):
        return 1.0 + np.exp(-np.asarray(k, dtype=float))

try:
    radial_table(UnderReportedRemainder(), 1.0, 0.5, [0], [0], np.array([[1e-10]]))
except InvariantViolated:
    fired.append("remainder_bound")

def peak(lo, hi):
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * sommerfeld._GL_NODES
    return (half * ((1.0 / (x * x + 1e-4)) @ sommerfeld._GL_WEIGHTS))[:, None]

try:
    # 4 initial panels: the budget of 7 is spent by refinement passes
    sommerfeld.MAX_PANELS = 7
    sommerfeld._adaptive_panels(peak, np.linspace(-1.0, 1.0, 5), np.array([1e-10]))
except ToleranceNotMet:
    fired.append("refinement_budget")

from layerfmm.harmonics import _legendre_point

domain = []
for x in (1.5, float("nan")):
    try:
        _legendre_point(4, x)
    except DomainError:
        domain.append(x)
if len(domain) == 2:
    fired.append("legendre_domain")
print(" ".join(fired))
"""


def test_invariant_checks_fire_under_optimize():
    """The key-inequality tripwire, the imaginary-residue checks (one
    point and a batch of a free expansion, and a reaction ME), the
    density-bound check under the panel certificates, the real-density
    check of the real contraction, the remainder-bound check of the split
    tables, the panel budget of a refinement pass and the domain check of
    the one-point Legendre recurrence are explicit raises, so python -O
    (which strips asserts) keeps them."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "key_inequality", "eval_expansion", "eval_expansion_batch", "eval_reaction_me",
        "density_bound",
        "complex_density", "remainder_bound", "refinement_budget", "legendre_domain",
    ]
