import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from layerfmm import (
    ChargeSystem,
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
from layerfmm.errors import (
    BoxesNotSeparated,
    CenterOnWrongSide,
    ChargeInsideBox,
    ChargeOutsideBox,
    ComponentAbsent,
    RegionViolation,
)
from layerfmm.expansions import Box, truncated
from layerfmm.harmonics import cartesian_to_spherical, sph_harm, constants


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
    ChargeSystem, LayeredMedium, eval_expansion, eval_reaction_me,
    interface_matrices, me_from_charges, polarization_source,
    reaction_me_from_charges,
)
from layerfmm.errors import InvariantViolated

if __debug__:
    raise SystemExit("run without -O")
fired = []
slab = LayeredMedium([0.0, -1.0], [1.0, 1.0, 1.0], [1.0, 3.0, 8.0])

mats = interface_matrices(slab, np.array([0.5, 2.0]))
mats.alpha[1][1, 0] = 10.0 * mats.alpha[1][1, 1]
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

charges = ChargeSystem.in_medium(slab, [1.0, -0.5], [[0, 0, -0.3], [0.1, 0, -0.6]])
pol_c = polarization_source(slab, 1, 1, 1, 1, np.array([0, 0, -0.5]))
rexp = reaction_me_from_charges(charges, slab, 1, 1, 1, 1, pol_c, 4, radius=0.4)
try:
    eval_reaction_me(replace(rexp, coeff=1j * rexp.coeff), slab, [0.2, 0.1, -0.4])
except InvariantViolated:
    fired.append("eval_reaction_me")
print(" ".join(fired))
"""


def test_invariant_checks_fire_under_optimize():
    """The key-inequality tripwire and the imaginary-residue checks are
    explicit raises, so python -O (which strips asserts) keeps them."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "key_inequality", "eval_expansion", "eval_reaction_me"
    ]
