import math

import numpy as np
import pytest
from scipy import special

from layerfmm.harmonics import (
    cartesian_to_spherical,
    constants,
    legendre_p,
    normalized_legendre,
    sph_harm,
    sph_harm_table,
)
from layerfmm.errors import DomainError


def test_legendre_values():
    assert legendre_p(0, 0.7) == 1.0
    assert legendre_p(2, 0.5) == pytest.approx(-0.125, abs=1e-15)
    assert legendre_p(7, -1.0) == pytest.approx(-1.0, abs=1e-15)
    with pytest.raises(DomainError):
        legendre_p(3, 1.5)


def test_legendre_against_explicit_polynomials():
    """Recurrence vs the closed-form sum P_n(x) = 2^-n sum_k C(n,k)^2
    (x-1)^(n-k) (x+1)^k, n <= 10."""
    rng = np.random.default_rng(0)
    for x in rng.uniform(-1, 1, 25):
        for n in range(11):
            direct = 2.0 ** -n * sum(
                math.comb(n, k) ** 2 * (x - 1) ** (n - k) * (x + 1) ** k
                for k in range(n + 1)
            )
            assert legendre_p(n, x) == pytest.approx(direct, abs=1e-13)


def test_sph_harm_basics():
    assert sph_harm(0, 0, 0.3, 1.1) == pytest.approx(1 / math.sqrt(4 * math.pi))
    assert sph_harm(2, 3, 0.3, 1.1) == 0
    # this package's convention: Y_1^1 = + sqrt(3/8 pi) sin(theta) e^{i phi}
    th = 0.77
    assert sph_harm(1, 1, th, 0.0) == pytest.approx(
        math.sqrt(3 / (8 * math.pi)) * math.sin(th)
    )


def test_sph_harm_against_scipy():
    """Ours differs from the physics (scipy) harmonic by (-1)^m exactly."""
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(0, 25))
        m = int(rng.integers(-n, n + 1)) if n else 0
        th = math.acos(rng.uniform(-1, 1))
        ph = rng.uniform(0, 2 * math.pi)
        if hasattr(special, "sph_harm_y"):
            ref = (-1.0) ** m * special.sph_harm_y(n, m, th, ph)
        else:
            ref = (-1.0) ** m * special.sph_harm(m, n, ph, th)
        assert sph_harm(n, m, th, ph) == pytest.approx(ref, rel=1e-12, abs=1e-13)


def test_sph_harm_symmetries():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(0, 11))
        m = int(rng.integers(0, n + 1))
        th = math.acos(rng.uniform(-1, 1))
        ph = rng.uniform(0, 2 * math.pi)
        y = sph_harm(n, m, th, ph)
        assert sph_harm(n, -m, th, ph) == pytest.approx(
            (-1.0) ** m * np.conj(y), abs=1e-14
        )
        # parity relations in theta and phi
        assert sph_harm(n, m, math.pi - th, ph) == pytest.approx(
            (-1.0) ** (n + m) * y, abs=1e-13
        )
        assert sph_harm(n, m, th, math.pi + ph) == pytest.approx(
            (-1.0) ** m * y, abs=1e-13
        )


def test_sph_harm_table_matches_single():
    rng = np.random.default_rng(3)
    th = math.acos(rng.uniform(-1, 1))
    ph = rng.uniform(0, 2 * math.pi)
    p = 12
    tab = sph_harm_table(p, th, ph)
    for n in range(p + 1):
        for m in range(-n, n + 1):
            assert tab[n, m + p] == pytest.approx(sph_harm(n, m, th, ph), abs=1e-14)
    assert tab[3, 0] == 0  # |m| > n slot (m = -12)


def test_normalized_legendre_poles():
    # only m = 0 survives at theta = 0 or pi
    tab = normalized_legendre(8, 1.0)
    assert np.all(tab[:, 1:] == 0)
    np.testing.assert_allclose(
        tab[:, 0], [math.sqrt((2 * n + 1) / (4 * math.pi)) for n in range(9)]
    )


def test_normalized_legendre_large_degree_finite():
    tab = normalized_legendre(60, 0.3)
    assert np.all(np.isfinite(tab))
    assert np.abs(tab).max() < 10.0


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _legendre_loop(n_max, x):
    """One-point reference: the recurrence entry by entry in plain floats."""
    s = math.sqrt(max(0.0, 1.0 - x * x))
    tab = np.zeros((n_max + 1, n_max + 1))
    tab[0, 0] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(1, n_max + 1):
        tab[m, m] = math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * tab[m - 1, m - 1]
    for m in range(n_max):
        tab[m + 1, m] = math.sqrt(2.0 * m + 3.0) * x * tab[m, m]
    for m in range(n_max + 1):
        for n in range(m + 2, n_max + 1):
            alpha = math.sqrt((2.0 * n + 1.0) * (2.0 * n - 1.0) / ((n - m) * (n + m)))
            beta = math.sqrt(
                (2.0 * n + 1.0) * (n - m - 1.0) * (n + m - 1.0)
                / ((2.0 * n - 3.0) * (n - m) * (n + m))
            )
            tab[n, m] = alpha * x * tab[n - 1, m] - beta * tab[n - 2, m]
    return tab


def _sph_loop(n_max, theta, phi):
    """One-point reference: Y_n^m = Phat_n^m(cos theta) e^{i m phi} entry
    by entry in numpy complex scalars, then Y_n^{-m} = (-1)^m conj(Y_n^m)."""
    ph = _legendre_loop(n_max, float(np.cos(theta)))
    tab = np.zeros((n_max + 1, 2 * n_max + 1), dtype=complex)
    for m in range(n_max + 1):
        e = np.exp(np.complex128(1j * m) * np.float64(phi))
        for n in range(m, n_max + 1):
            y = np.float64(ph[n, m]) * e
            tab[n, n_max + m] = y
            if m:
                tab[n, n_max - m] = (-1.0) ** m * np.conj(y)
    return tab


def test_batched_tables_match_single_calls_bitwise():
    """Leading point axes give, point by point, the very bits of one-point
    calls, the poles x = +-1 and the origin included."""
    rng = np.random.default_rng(21)
    xs = np.concatenate([rng.uniform(-1, 1, 13), [1.0, -1.0, 0.0]]).reshape(4, 4)
    for n_max in (0, 1, 7, 30):
        tab = normalized_legendre(n_max, xs)
        assert tab.shape == (4, 4, n_max + 1, n_max + 1)
        for idx in np.ndindex(xs.shape):
            one = normalized_legendre(n_max, float(xs[idx]))
            assert _bitwise(tab[idx], one)
            assert _bitwise(one, _legendre_loop(n_max, float(xs[idx])))
    with pytest.raises(DomainError):
        normalized_legendre(4, np.array([0.5, 1.5]))

    vs = rng.normal(size=(40, 3)) * 10 ** rng.uniform(-3, 3, (40, 1))
    vs[:6] = [[0, 0, 0], [0, 0, 2.0], [0, 0, -0.5], [0, -1.0, 0], [-1.0, -0.0, 0],
              [0, 0, 0]]
    # pole directions with signed-zero x, y: arctan2(-0.0, -0.0) = -pi gives
    # phi = pi, arctan2(-0.0, 0.0) = -0.0 stays -0.0
    poles = [[-0.0, -0.0, 1.0], [0.0, -0.0, -3.0], [-0.0, 0.0, 0.5], [-0.0, -0.0, -1.0]]
    vs = np.concatenate([vs, poles])
    r, theta, phi = cartesian_to_spherical(vs)
    for i, v in enumerate(vs):
        one = cartesian_to_spherical(v)
        assert all(type(c) is float for c in one)
        assert _bitwise([r[i], theta[i], phi[i]], one)
        assert _bitwise(one[0], np.linalg.norm(v))
    assert (r[0], theta[0], phi[0]) == (0.0, 0.0, 0.0)

    assert np.array_equal(theta[-4:], [0.0, np.pi, 0.0, np.pi])
    assert np.array_equal(phi[-4:], [np.pi, 0.0, np.pi, np.pi])
    for n_max in (0, 5, 20, 60):
        ytab = sph_harm_table(n_max, theta, phi)
        assert ytab.shape == (44, n_max + 1, 2 * n_max + 1)
        for i in range(len(vs)):
            one = sph_harm_table(n_max, theta[i], phi[i])
            assert _bitwise(ytab[i], one)
            if i < 8 or i >= 40:  # the signed zeros at the poles too
                assert _bitwise(one, _sph_loop(n_max, theta[i], phi[i]))


def test_merged_legendre_step_matches_the_loop_bitwise():
    """The step that fills columns 0..n-1 of degree n at once (reading row
    n - 2 = -1 at n = 1) gives, for one point and for a batch, the bits of
    the entry-by-entry recurrence, at the poles, the origin and -0.0 too."""
    rng = np.random.default_rng(22)
    xs = np.concatenate([rng.uniform(-1, 1, 7), [1.0, -1.0, 0.0, -0.0]])
    for n_max in (0, 1, 2, 20, 60):
        tab = normalized_legendre(n_max, xs)
        for i, x in enumerate(xs):
            one = normalized_legendre(n_max, float(x))
            assert _bitwise(tab[i], one)
            assert _bitwise(one, _legendre_loop(n_max, float(x)))


def test_order_major_legendre_is_the_loop_and_the_batch_bitwise():
    """The one-point recurrence, run order by order, gives at every n_max
    up to 60 the bits of the entry-by-entry loop and of the batch's row,
    at the poles, the origin and -0.0 too."""
    rng = np.random.default_rng(23)
    xs = np.concatenate([[1.0, -1.0, 0.0, -0.0], rng.uniform(-1, 1, 3)])
    for n_max in range(61):
        tab = normalized_legendre(n_max, xs)
        for i, x in enumerate(xs):
            one = normalized_legendre(n_max, float(x))
            assert _bitwise(one, _legendre_loop(n_max, float(x)))
            assert _bitwise(one, tab[i])


def test_one_point_harmonics_match_the_batch_at_signed_zero_poles():
    """One-point sph_harm_table, gathered from the order-major entries,
    gives the batch's bits at the poles reached with signed-zero x, y."""
    poles = [[-0.0, -0.0, 1.0], [0.0, -0.0, -3.0], [-0.0, 0.0, 0.5],
             [-0.0, -0.0, -1.0], [0.0, 0.0, 2.0], [0.0, 0.0, -2.0]]
    _, theta, phi = cartesian_to_spherical(poles)
    for n_max in (1, 2, 3, 11, 59, 60):
        ytab = sph_harm_table(n_max, theta, phi)
        for i in range(len(poles)):
            assert _bitwise(sph_harm_table(n_max, theta[i], phi[i]), ytab[i])


def test_non_finite_arguments_are_domain_errors():
    """NaN fails the Legendre domain check on the float and the array
    path, and a vector with a NaN or infinite coordinate has no (r,
    theta, phi), alone or in a stack."""
    for x in (math.nan, np.array(math.nan), np.array([0.5, math.nan])):
        with pytest.raises(DomainError, match="outside"):
            normalized_legendre(3, x)
    with pytest.raises(DomainError):
        legendre_p(3, math.nan)
    for bad in ([math.nan, 0.0, 0.0], [0.0, math.inf, 1.0], [0.0, 0.0, -math.inf]):
        with pytest.raises(DomainError, match="finite"):
            cartesian_to_spherical(bad)
        with pytest.raises(DomainError, match="finite"):
            cartesian_to_spherical([[1.0, 2.0, 3.0], bad])


def test_constants_values():
    cst = constants(8)
    assert cst.c[0] == pytest.approx(1 / math.sqrt(4 * math.pi))
    assert cst.a(0, 0) == pytest.approx(1 / math.sqrt(4 * math.pi))
    assert cst.C(0, 0) == pytest.approx(math.sqrt(4 * math.pi))
    # A is even in m, zero outside the triangle
    for n in range(9):
        for m in range(n + 1):
            assert cst.a(n, m) == cst.a(n, -m)
    assert cst.a(3, 4) == 0.0
    assert cst.C(3, 4) == 0.0


def test_constants_overflow_guard():
    with pytest.raises(OverflowError):
        constants(61)
    cst = constants(60)
    assert np.all(np.isfinite(cst.c_table.real))


def test_legendre_addition_theorem():
    """P_n(cos gamma) = 4 pi/(2n+1) sum_m conj(Y_n^m(a,b)) Y_n^m(t,p)."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        t1 = math.acos(rng.uniform(-1, 1))
        p1 = rng.uniform(0, 2 * math.pi)
        t2 = math.acos(rng.uniform(-1, 1))
        p2 = rng.uniform(0, 2 * math.pi)
        cg = math.cos(t1) * math.cos(t2) + math.sin(t1) * math.sin(t2) * math.cos(
            p1 - p2
        )
        for n in range(13):
            s = sum(
                np.conj(sph_harm(n, m, t2, p2)) * sph_harm(n, m, t1, p1)
                for m in range(-n, n + 1)
            )
            val = 4 * math.pi / (2 * n + 1) * s
            assert val.imag == pytest.approx(0.0, abs=1e-13)
            assert val.real == pytest.approx(
                legendre_p(n, max(-1.0, min(1.0, cg))), abs=1e-12
            )


def test_complex_direction_polynomial_identity():
    """(i k0 . rhat)^n / n! = sum_m C_n^m Phat_n^m(cos t) e^{i m (alpha-phi)}
    for k0 = (cos alpha, sin alpha, i)."""
    rng = np.random.default_rng(5)
    cst = constants(15)
    for _ in range(20):
        alpha = rng.uniform(0, 2 * math.pi)
        theta = math.acos(rng.uniform(-1, 1))
        phi = rng.uniform(0, 2 * math.pi)
        k0_dot = math.sin(theta) * math.cos(alpha - phi) + 1j * math.cos(theta)
        ph = normalized_legendre(15, math.cos(theta))
        for n in range(16):
            lhs = (1j * k0_dot) ** n / math.factorial(n)
            rhs = 0j
            for m in range(-n, n + 1):
                phat = ph[n, abs(m)] * ((-1.0) ** abs(m) if m < 0 else 1.0)
                rhs += cst.C(n, m) * phat * np.exp(1j * m * (alpha - phi))
            assert abs(lhs - rhs) < 1e-12


def _theorem_translation_terms(cst, n, m, nprime, mprime, rho_sph, kind):
    """Summands of the three harmonic translation theorems (outer-to-outer,
    outer-to-inner, inner-to-inner), as stated."""
    rho, alpha, beta = rho_sph
    if kind == "outer_outer":  # valid r > rho, term index (n, m)
        num = (
            (-1.0) ** (abs(m + mprime) - abs(mprime))
            * cst.a(n, m)
            * cst.a(nprime, mprime)
            * rho ** n
            * sph_harm(n, -m, alpha, beta)
        )
        return num / (cst.c[n] ** 2 * cst.a(n + nprime, m + mprime))
    if kind == "outer_inner":  # valid r < rho
        num = (
            (-1.0) ** (nprime + abs(m))
            * cst.a(n, m)
            * cst.a(nprime, mprime)
            * sph_harm(n + nprime, mprime - m, alpha, beta)
        )
        return num / (
            cst.c[n] ** 2 * cst.a(n + nprime, mprime - m) * rho ** (n + nprime + 1)
        )
    raise ValueError(kind)


def test_outer_harmonic_translation_theorems():
    """The two addition theorems for Y_{n'}^{m'}/r'^{n'+1}: partial sums
    converge to the shifted harmonic with geometrically decaying
    remainder (ratio 1/4 in these geometries)."""
    rng = np.random.default_rng(6)
    cst = constants(56)
    cap = 24
    for kind, scale in (("outer_outer", 4.0), ("outer_inner", 0.25)):
        for _ in range(6):
            q = rng.normal(size=3)
            q /= np.linalg.norm(q)
            p_vec = rng.normal(size=3)
            p_vec *= scale / np.linalg.norm(p_vec)
            rho_sph = cartesian_to_spherical(q)
            r, theta, phi = cartesian_to_spherical(p_vec)
            rp, thetap, phip = cartesian_to_spherical(p_vec - q)
            nprime = int(rng.integers(0, 5))
            mprime = int(rng.integers(-nprime, nprime + 1)) if nprime else 0
            lhs = sph_harm(nprime, mprime, thetap, phip) / rp ** (nprime + 1)
            rhs = 0j
            residuals = {}
            for n in range(cap + 1):
                for m in range(-n, n + 1):
                    w = _theorem_translation_terms(
                        cst, n, m, nprime, mprime, rho_sph, kind
                    )
                    if kind == "outer_outer":
                        rhs += (
                            w
                            * sph_harm(n + nprime, m + mprime, theta, phi)
                            / r ** (n + nprime + 1)
                        )
                    else:
                        rhs += w * r ** n * sph_harm(n, m, theta, phi)
                if n in (8, 16, 24):
                    residuals[n] = abs(lhs - rhs)
            floor = 1e-14 * (abs(lhs) + 1)
            assert residuals[24] < max(residuals[16], floor)
            assert residuals[16] < max(residuals[8], floor)
            assert residuals[24] < 1e-9 * (abs(lhs) + 1)


def test_inner_harmonic_translation_theorem():
    """r'^{n'} Y_{n'}^{m'}(theta', phi') re-expanded about a shifted
    center: the finite sum over n <= n' is exact."""
    rng = np.random.default_rng(7)
    cst = constants(20)
    for _ in range(8):
        q = rng.normal(size=3)
        p_vec = rng.normal(size=3)
        rho, alpha, beta = cartesian_to_spherical(q)
        r, theta, phi = cartesian_to_spherical(p_vec)
        rp, thetap, phip = cartesian_to_spherical(p_vec - q)
        nprime = int(rng.integers(0, 5))
        mprime = int(rng.integers(-nprime, nprime + 1)) if nprime else 0
        lhs = rp ** nprime * sph_harm(nprime, mprime, thetap, phip)
        rhs = 0j
        for n in range(nprime + 1):
            for m in range(-n, n + 1):
                if abs(mprime - m) > nprime - n:
                    continue
                num = (
                    (-1.0) ** (n - abs(m) + abs(mprime) - abs(mprime - m))
                    * cst.c[nprime] ** 2
                    * cst.a(n, m)
                    * cst.a(nprime - n, mprime - m)
                    * rho ** n
                    * sph_harm(n, m, alpha, beta)
                )
                den = (
                    cst.c[n] ** 2
                    * cst.c[nprime - n] ** 2
                    * cst.a(nprime, mprime)
                    * r ** (n - nprime)
                )
                rhs += num / den * sph_harm(nprime - n, mprime - m, theta, phi)
        assert abs(lhs - rhs) < 1e-12 * (abs(lhs) + 1)


def test_cartesian_spherical_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(100):
        v = rng.normal(size=3) * 10 ** rng.uniform(-3, 3)
        r, t, p = cartesian_to_spherical(v)
        back = r * np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p),
                             math.cos(t)])
        assert np.linalg.norm(back - v) <= 1e-14 * r
    assert cartesian_to_spherical([0, 0, 0]) == (0.0, 0.0, 0.0)
