import mpmath
import numpy as np
import pytest

from layerfmm import (
    InterfaceMatrices,
    LayeredMedium,
    ReactionDensity,
    density_bound,
    reaction_densities,
)
from layerfmm.errors import (
    ComponentAbsent,
    IndexOutOfRange,
    InvalidSpectralArgument,
    InvariantViolated,
)
from layerfmm.medium import component_exists

from conftest import (
    random_medium,
    random_z_in_layer,
    spectral_u_hat_direct,
    spectral_u_hat_recursion,
)


def test_interface_matrices_homogeneous_two_layer():
    """No material contrast: gamma^+ = 2, gamma^- = 0, so the rescaled
    transmission matrix is diag(2 e_0 e_1, 2), whose row 2 is (0, 2)."""
    m = LayeredMedium([0.0], [1, 1], [1, 1])
    for k in (0.0, 0.5, 2.0 + 1.0j):
        mats = InterfaceMatrices(m, k)
        tt = mats.alpha[1]  # row 2 of A^(1) = Ttilde^{01}
        assert tt.shape == (2,)
        assert tt[0] == pytest.approx(0.0)
        assert tt[1] == pytest.approx(2.0)


def test_interface_matrices_k_zero_product():
    """At k = 0 every e_l = 1 and A^(l) is a plain product of the
    symmetric gamma matrices; alpha holds its row 2."""
    rng = np.random.default_rng(0)
    med = random_medium(rng, L=3)
    mats = InterfaceMatrices(med, 0.0)
    prod = np.eye(2)
    for l in range(1, 4):
        gp, gm = mats.gamma_plus[l], mats.gamma_minus[l]
        prod = prod @ np.array([[gp, gm], [gm, gp]])
    got = np.array([mats.alpha[3][j] for j in range(2)])
    np.testing.assert_allclose(got.astype(complex), prod[1], rtol=1e-14)


def test_interface_matrices_rejects_left_half_plane():
    m = LayeredMedium([0.0], [1, 1], [1, 2])
    with pytest.raises(InvalidSpectralArgument):
        InterfaceMatrices(m, -0.1)
    with pytest.raises(InvalidSpectralArgument):
        reaction_densities(m, 0, 0, -1e-8 + 3j)


def test_key_inequality_random():
    """|alpha_22|^2 - |alpha_21|^2 >= prod((g+)^2 - (g-)^2) at random
    media and spectral points (larger sample in the acceptance suite)."""
    rng = np.random.default_rng(1)
    for _ in range(50):
        med = random_medium(rng)
        k = rng.uniform(0, 50, 40) + 1j * rng.uniform(-50, 50, 40)
        k = np.abs(k.real) + 1j * k.imag
        mats = InterfaceMatrices(med, k)  # the tripwire raises internally
        prod = 1.0
        for l in range(1, med.num_interfaces + 1):
            prod *= mats.gamma_plus[l] ** 2 - mats.gamma_minus[l] ** 2
            al = mats.alpha[l]
            lhs = np.abs(al[1]) ** 2 - np.abs(al[0]) ** 2
            assert np.all(lhs >= prod * (1 - 1e-10))
        assert all(np.all(np.abs(e) <= 1 + 1e-14) for e in mats.e)


def test_recursion_vs_direct_spectral_solve():
    """The strong oracle: the density recursion reproduces a dense linear
    solve of the interface conditions at random media, layer pairs and
    complex spectral points."""
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 250:
        med = random_medium(rng)
        L = med.num_interfaces
        ell = int(rng.integers(0, L + 1))
        ellp = int(rng.integers(0, L + 1))
        z = random_z_in_layer(rng, med, ell)
        zp = random_z_in_layer(rng, med, ellp)
        k = rng.uniform(0.05, 30) + 1j * rng.uniform(-10, 10)
        k = abs(k.real) + 1j * k.imag
        direct = spectral_u_hat_direct(med, ell, ellp, z, zp, k)
        recur = spectral_u_hat_recursion(med, ell, ellp, z, zp, k)
        assert abs(direct - recur) <= 1e-12 * max(abs(direct), 1e-8)
        checked += 1


def test_homogeneous_contrast_densities_degenerate():
    """Equal (a, b) across layers: the reaction field vanishes.

    For same-layer pairs every sigma is zero.  For cross-layer pairs the
    decomposition carries the transmitted direct field inside the sigma
    components (there is no separate free-space term when the layers
    differ), so instead the components must reassemble the free kernel
    e^{-k|z - z'|} exactly, and every non-transmission component is zero.
    """
    rng = np.random.default_rng(2)
    for L in (1, 2, 3, 4):
        d = np.sort(rng.uniform(-3, 3, L))[::-1]
        if L > 1 and np.min(-np.diff(d)) < 0.05:
            continue
        med = LayeredMedium(d, [2.0] * (L + 1), [5.0] * (L + 1))
        k = rng.uniform(0, 40, 32) + 1j * rng.uniform(-20, 20, 32)
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
                free = np.exp(-k * abs(z - zp))
                assert np.abs(total - free).max() < 1e-13


def test_two_layer_image_coefficient(two_layer):
    """sigma^{11}_{00} is constant in k and equals the dielectric image
    coefficient (eps0 - eps1)/(eps0 + eps1)."""
    eps0, eps1 = two_layer.b[0], two_layer.b[1]
    k = np.linspace(0.0, 100.0, 513)
    sig = reaction_densities(two_layer, 0, 0, k).get(1, 1)
    kappa = (eps0 - eps1) / (eps0 + eps1)
    assert np.abs(sig - kappa).max() < 1e-13


def test_three_layer_boundedness(three_layer):
    """|sigma| bounded on [0, 200] with finite large-k limits."""
    k = np.linspace(0.0, 200.0, 1024)
    for ell in range(3):
        for ellp in range(3):
            dens = reaction_densities(three_layer, ell, ellp, k)
            for comp in dens.components:
                vals = dens.get(*comp)
                assert np.all(np.isfinite(vals))
                bnd = density_bound(three_layer, ell, ellp, *comp)
                assert np.abs(vals).max() <= bnd * (1 + 1e-9) + 1e-14
                tail = reaction_densities(three_layer, ell, ellp,
                                          np.array([200.0, 400.0])).get(*comp)
                assert abs(tail[1] - tail[0]) < 1e-6 + 0.02 * abs(tail[0])


def test_conjugate_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        med = random_medium(rng)
        L = med.num_interfaces
        ell = int(rng.integers(0, L + 1))
        ellp = int(rng.integers(0, L + 1))
        k = rng.uniform(0, 30, 16) + 1j * rng.uniform(-30, 30, 16)
        k = np.abs(k.real) + 1j * k.imag
        d1 = reaction_densities(med, ell, ellp, k)
        d2 = reaction_densities(med, ell, ellp, np.conj(k))
        for comp in d1.components:
            np.testing.assert_allclose(
                np.conj(d1.get(*comp)), d2.get(*comp), rtol=0, atol=1e-13
            )


def test_no_overflow_at_large_argument():
    """The rescaled recursion contains only decaying exponentials, so
    k * max(D_l) up to 700 stays finite."""
    med = LayeredMedium([0.0, -1.0], [1, 1, 1], [1, 5, 2])
    k = 700.0 / 1.0  # max thickness D = 1
    dens = reaction_densities(med, 1, 1, k)
    for comp in dens.components:
        assert np.isfinite(dens.get(*comp))


def test_density_bound_values(two_layer):
    eps0, eps1 = two_layer.b[0], two_layer.b[1]
    expect = abs(eps0 - eps1) / (eps0 + eps1) * 1.05
    got = density_bound(two_layer, 0, 0, 1, 1)
    assert got == pytest.approx(expect, rel=0.01)
    hom = LayeredMedium([0.0, -2.0], [3, 3, 3], [7, 7, 7])
    assert density_bound(hom, 1, 1, 1, 1) == 0.0


def test_absent_components_are_loud(two_layer):
    dens = reaction_densities(two_layer, 0, 0, 1.0)
    assert dens.components == [(1, 1)]
    with pytest.raises(ComponentAbsent):
        dens.get(2, 2)
    with pytest.raises(ComponentAbsent):
        ReactionDensity(two_layer, 1, 2, 0, 0)
    with pytest.raises(IndexOutOfRange):
        reaction_densities(two_layer, 3, 0, 1.0)


def test_density_evaluator_shape_and_bound(two_layer):
    dens = ReactionDensity(two_layer, 1, 1, 0, 0)
    out = dens(np.linspace(0, 10, 7))
    assert out.shape == (7,)
    assert dens.bound > 0
    assert np.abs(out).max() <= dens.bound


def test_single_chain_evaluator_matches_density_set():
    """ReactionDensity sweeps only its own b chain, down to its target
    layer; every present component is bitwise the value of the full
    reaction_densities sweep."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        med = random_medium(rng)
        L = med.num_interfaces
        k = rng.uniform(0, 40, 24) + 1j * rng.uniform(-40, 40, 24)
        k = np.abs(k.real) + 1j * k.imag
        k[:2] = [0.0, 3.0j]
        for ell in range(L + 1):
            for ellp in range(L + 1):
                dens = reaction_densities(med, ell, ellp, k)
                for a, b in dens.components:
                    one = ReactionDensity(med, a, b, ell, ellp)(k)
                    assert np.array_equal(one, dens.get(a, b))


@pytest.mark.parametrize("L", [3, 5, 6, 8, 10])
@pytest.mark.parametrize("contrast", [1e2, 1e3])
def test_key_inequality_accepts_many_layers_high_contrast(L, contrast):
    """Valid media with up to 10 interfaces 0.3 apart and b up to 1e3
    times a pass the key-inequality tripwire.  On the imaginary axis its
    two sides are equal while |alpha_22|^2 exceeds their value by orders
    of magnitude; a slack relative to the product alone refuses 3 of
    these 20 media at L = 6, contrast 1e2, and 19 at L = 10, contrast
    1e3."""
    refused = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        b = contrast ** rng.uniform(0.0, 1.0, L + 1)
        med = LayeredMedium(-0.3 * np.arange(L), np.ones(L + 1), b)
        try:
            density_bound(med, 0, 0, 1, 1)
        except InvariantViolated:
            refused += 1
    assert refused == 0


def test_real_axis_sweeps_in_float(three_layer):
    """On real k, where sigma is real, a density sweeps in float64 and
    returns float64; the complex path's imaginary part is exactly 0 there
    and its real part within 4 ulp of max |sigma| of the float values
    (2.25 ulp measured on the slab, 2 on the bench stack's pair).  On the
    imaginary axis the sweep stays complex."""
    stack = LayeredMedium([0.0, -1.0, -2.0], [1.0] * 4, [1.0, 4.0, 2.0, 8.0])
    pairs = [(three_layer, ell, ellp) for ell in range(3) for ellp in range(3)]
    pairs.append((stack, 2, 1))
    k = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 767)])
    mats = InterfaceMatrices(three_layer, k)
    assert all(al.dtype == np.float64 for al in mats.alpha[1:])
    for med, ell, ellp in pairs:
        for a, b in reaction_densities(med, ell, ellp, k).components:
            dens = ReactionDensity(med, a, b, ell, ellp)
            real, cplx = dens(k), dens(k + 0j)
            assert real.dtype == np.float64 and cplx.dtype == complex
            assert not np.any(cplx.imag)
            scale = np.max(np.abs(real))
            assert np.max(np.abs(real - cplx.real)) <= 4 * np.finfo(float).eps * scale
            assert dens(1j * k).dtype == complex
    assert InterfaceMatrices(three_layer, 1j * k).alpha[1].dtype == complex


def _interface_solve_40_digits(med, ellprime, k):
    """Every sigma^{ab}_{l, ellprime}(k), keyed (a, b, l), from a 40-digit
    dense solve of the interface conditions [a u] = 0, [b du/dz] = 0; no
    code shared with the recursion.  Unknowns: x_l, the coefficient of
    e^{-k(z - d_l)} (layers 0..L-1), and y_l, that of e^{-k(d_{l-1} - z)}
    (layers 1..L).  Source side b puts a unit amplitude at the interface
    below the source layer (b = 1) or above it (b = 2); sigma^{1b} is x_l
    and sigma^{2b} is y_l."""
    with mpmath.workdps(40):
        d, a, bc = ([mpmath.mpf(v) for v in vals]
                    for vals in (med.interfaces, med.a, med.b))
        L, k = len(d), mpmath.mpf(k)
        n = 2 * L
        # rows 2j, 2j + 1: the two conditions at interface j; columns:
        # x_0..x_{L-1}, y_1..y_L, then the right-hand sides of b = 1, 2
        rows = [[mpmath.mpf(0)] * (n + 2) for _ in range(n)]
        for j in range(L):
            up, dn, rv, rd = j, j + 1, 2 * j, 2 * j + 1
            rows[rv][up] += a[up]
            rows[rd][up] -= bc[up]
            if up >= 1:
                e = mpmath.exp(-k * (d[up - 1] - d[up]))
                rows[rv][L + up - 1] += a[up] * e
                rows[rd][L + up - 1] += bc[up] * e
            if dn <= L - 1:
                e = mpmath.exp(-k * (d[dn - 1] - d[dn]))
                rows[rv][dn] -= a[dn] * e
                rows[rd][dn] += bc[dn] * e
            rows[rv][L + dn - 1] -= a[dn]
            rows[rd][L + dn - 1] -= bc[dn]
        sides = [b for b in (1, 2) if 0 <= (ellprime if b == 1 else ellprime - 1) < L]
        for b in sides:
            j = ellprime if b == 1 else ellprime - 1
            rows[2 * j][n + b - 1] = -a[ellprime] if b == 1 else a[ellprime]
            rows[2 * j + 1][n + b - 1] = -bc[ellprime]
        for c in range(n):  # Gaussian elimination, partial pivoting
            p = max(range(c, n), key=lambda r: abs(rows[r][c]))
            rows[c], rows[p] = rows[p], rows[c]
            for r in range(c + 1, n):
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
        out = {}
        for b in sides:
            sol = [None] * n
            for r in range(n - 1, -1, -1):
                acc = rows[r][n + b - 1] - mpmath.fsum(
                    rows[r][c] * sol[c] for c in range(r + 1, n))
                sol[r] = acc / rows[r][r]
            out.update({(1, b, l): float(sol[l]) for l in range(L)})
            out.update({(2, b, l): float(sol[L + l - 1]) for l in range(1, L + 1)})
    return out


def test_real_axis_sweep_matches_a_40_digit_solve():
    """The float64 real-axis sweep, and the complex one, of every present
    component of 12 random media (up to 5 interfaces, contrast up to 30)
    stay within 1e-13 max |sigma| of a 40-digit dense solve on 16 nodes in
    [0, 1e3] (3.1e-14 measured): the recursion's rounding in such media is
    bounded, not only consistent between the two arithmetic paths."""
    rng = np.random.default_rng(7)
    k = np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 15)])
    checked = 0
    for _ in range(12):
        med = random_medium(rng)
        for ellp in range(med.num_interfaces + 1):
            ref = [_interface_solve_40_digits(med, ellp, x) for x in k]
            for (a, b, ell) in ref[0]:
                assert component_exists(med, a, b, ell, ellp)
                exact = np.array([r[(a, b, ell)] for r in ref])
                dens = ReactionDensity(med, a, b, ell, ellp)
                real, cplx = dens(k), dens(k + 0j)
                assert real.dtype == np.float64
                scale = np.max(np.abs(exact))
                assert np.max(np.abs(real - exact)) <= 1e-13 * scale
                assert np.max(np.abs(cplx - exact)) <= 1e-13 * scale
                checked += 1
            present = sum(component_exists(med, a, b, ell, ellp) for a in (1, 2)
                          for b in (1, 2) for ell in range(med.num_interfaces + 1))
            assert len(ref[0]) == present
    assert checked > 100
