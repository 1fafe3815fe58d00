import numpy as np
import pytest

from layerfmm import (
    LayeredMedium,
    ReactionDensity,
    density_bound,
    interface_matrices,
    reaction_densities,
)
from layerfmm.errors import (
    ComponentAbsent,
    IndexOutOfRange,
    InvalidSpectralArgument,
)

from conftest import (
    random_medium,
    random_z_in_layer,
    spectral_u_hat_direct,
    spectral_u_hat_recursion,
)


def test_interface_matrices_homogeneous_two_layer():
    """No material contrast: gamma^+ = 2, gamma^- = 0, so the rescaled
    transmission matrix is diag(2 e_0 e_1, 2)."""
    m = LayeredMedium([0.0], [1, 1], [1, 1])
    for k in (0.0, 0.5, 2.0 + 1.0j):
        mats = interface_matrices(m, k)
        tt = mats.alpha[1]  # A^(1) = Ttilde^{01}
        e01 = mats.e[0] * mats.e[1]
        assert tt[0, 0] == pytest.approx(2.0 * complex(e01))
        assert tt[0, 1] == pytest.approx(0.0)
        assert tt[1, 0] == pytest.approx(0.0)
        assert tt[1, 1] == pytest.approx(2.0)


def test_interface_matrices_k_zero_product():
    """At k = 0 every e_l = 1 and A^(l) is a plain product of the
    symmetric gamma matrices."""
    rng = np.random.default_rng(0)
    med = random_medium(rng, L=3)
    mats = interface_matrices(med, 0.0)
    prod = np.eye(2)
    for l in range(1, 4):
        gp, gm = mats.gamma_plus[l], mats.gamma_minus[l]
        prod = prod @ np.array([[gp, gm], [gm, gp]])
    got = np.array([[mats.alpha[3][i, j] for j in range(2)] for i in range(2)])
    np.testing.assert_allclose(got.astype(complex), prod, rtol=1e-14)


def test_interface_matrices_rejects_left_half_plane():
    m = LayeredMedium([0.0], [1, 1], [1, 2])
    with pytest.raises(InvalidSpectralArgument):
        interface_matrices(m, -0.1)
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
        mats = interface_matrices(med, k)  # the tripwire raises internally
        prod = 1.0
        for l in range(1, med.num_interfaces + 1):
            prod *= mats.gamma_plus[l] ** 2 - mats.gamma_minus[l] ** 2
            al = mats.alpha[l]
            lhs = np.abs(al[1, 1]) ** 2 - np.abs(al[1, 0]) ** 2
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


def test_density_bound_monotone_in_grid(two_layer):
    small = density_bound(two_layer, 0, 0, 1, 1, k_max=100.0)
    large = density_bound(two_layer, 0, 0, 1, 1, k_max=1000.0)
    assert large >= small * (1 - 1e-12)


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
