import json

import numpy as np
import pytest

from layerfmm import (
    LayeredMedium,
    component_exists,
    polarization_source,
    reflect,
    tau_map,
)
from layerfmm.errors import (
    BoxCrossesInterface,
    ComponentAbsent,
    IndexOutOfRange,
    PointOnInterface,
)
from layerfmm.medium import check_box_in_layer

from conftest import random_medium, random_z_in_layer


def test_layer_of_basic():
    m = LayeredMedium([0.0], [1, 1], [1, 1])
    assert m.layer_of(1.0) == 0
    assert m.layer_of(-1.0) == 1
    m3 = LayeredMedium([2.0, 0.0, -2.0], [1] * 4, [1] * 4)
    assert m3.layer_of(1.0) == 1
    assert m3.layer_of(3.0) == 0
    assert m3.layer_of(-1.0) == 2
    assert m3.layer_of(-5.0) == 3


def test_layer_of_rejects_interface_points():
    m = LayeredMedium([2.0, 0.0], [1] * 3, [1] * 3)
    with pytest.raises(PointOnInterface):
        m.layer_of(0.0)
    with pytest.raises(PointOnInterface):
        m.layer_of(2.0 + 0.5 * m.interface_tolerance)


def test_medium_validation():
    with pytest.raises(ValueError):
        LayeredMedium([0.0, 1.0], [1, 1, 1], [1, 1, 1])  # increasing
    with pytest.raises(ValueError):
        LayeredMedium([0.0], [1, -1], [1, 1])  # nonpositive constant
    with pytest.raises(ValueError):
        LayeredMedium([0.0], [1, 1, 1], [1, 1])  # wrong count


def test_json_round_trip(tmp_path, two_layer):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(two_layer.to_dict()))
    again = LayeredMedium.from_json(path)
    assert again == two_layer


def test_tau_map_examples():
    m = LayeredMedium([0.0], [1, 1], [1, 1])
    out = tau_map(m, 1, 1, 0, 0, (0, 0, 2), (1, 0, 3))
    np.testing.assert_allclose(out, [-1, 0, 5])
    m2 = LayeredMedium([1.0, 0.0], [1] * 3, [1] * 3)
    out = tau_map(m2, 2, 2, 1, 1, (0, 0, 0.5), (0, 0, 0.25))
    np.testing.assert_allclose(out, [0, 0, 1.25])


def test_tau_positivity_random():
    """Third component of every tau is strictly positive for points in
    their stated layers."""
    rng = np.random.default_rng(1)
    for _ in range(40):
        med = random_medium(rng)
        L = med.num_interfaces
        for _ in range(25):
            ell = int(rng.integers(0, L + 1))
            ellp = int(rng.integers(0, L + 1))
            r = np.array([*rng.uniform(-1, 1, 2), random_z_in_layer(rng, med, ell)])
            rp = np.array([*rng.uniform(-1, 1, 2), random_z_in_layer(rng, med, ellp)])
            for a in (1, 2):
                for b in (1, 2):
                    if not component_exists(med, a, b, ell, ellp):
                        continue
                    assert tau_map(med, a, b, ell, ellp, r, rp)[2] > 0


def test_component_absence_rules():
    m = LayeredMedium([0.0], [1, 1], [1, 1])
    assert component_exists(m, 1, 1, 0, 0)
    assert not component_exists(m, 2, 1, 0, 0)  # a=2 needs ell > 0
    assert not component_exists(m, 1, 1, 1, 1)  # a=1 needs ell < L
    assert not component_exists(m, 1, 2, 0, 0)  # b=2 needs ellprime > 0
    assert not component_exists(m, 1, 1, 0, 1)  # b=1 needs ellprime < L
    with pytest.raises(ComponentAbsent):
        tau_map(m, 2, 1, 0, 0, (0, 0, 1), (0, 0, 2))
    with pytest.raises(IndexOutOfRange):
        component_exists(m, 1, 1, 0, 5)


def test_homogeneous_medium_has_no_components():
    m = LayeredMedium((), (1.0,), (1.0,))
    for a in (1, 2):
        for b in (1, 2):
            assert not component_exists(m, a, b, 0, 0)


def test_polarization_source_examples():
    m = LayeredMedium([0.0], [1, 1], [1, 1])
    np.testing.assert_allclose(
        polarization_source(m, 1, 1, 0, 0, (1, 2, 3)), [1, 2, -3]
    )
    m2 = LayeredMedium([1.0, 0.0], [1] * 3, [1] * 3)
    np.testing.assert_allclose(
        polarization_source(m2, 2, 1, 1, 1, (0, 0, 0.3)), [0, 0, 1.3]
    )


def test_polarization_identity_random():
    """tau^{1b}(r,r') == r - r'_{1b} and tau^{2b}(r,r') == reflect(r - r'_{2b})."""
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 1000:
        med = random_medium(rng)
        L = med.num_interfaces
        ell = int(rng.integers(0, L + 1))
        ellp = int(rng.integers(0, L + 1))
        r = np.array([*rng.uniform(-2, 2, 2), random_z_in_layer(rng, med, ell)])
        rp = np.array([*rng.uniform(-2, 2, 2), random_z_in_layer(rng, med, ellp)])
        for a in (1, 2):
            for b in (1, 2):
                if not component_exists(med, a, b, ell, ellp):
                    continue
                tau = tau_map(med, a, b, ell, ellp, r, rp)
                img = polarization_source(med, a, b, ell, ellp, rp)
                expect = (r - img) if a == 1 else reflect(r - img)
                np.testing.assert_allclose(tau, expect, rtol=0, atol=1e-13)
                checked += 1


def test_polarization_side_conditions():
    """z'_{1b} < d_l and z'_{2b} > d_{l-1} for sources in their layer."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        med = random_medium(rng)
        L = med.num_interfaces
        ell = int(rng.integers(0, L + 1))
        ellp = int(rng.integers(0, L + 1))
        rp = np.array([0.0, 0.0, random_z_in_layer(rng, med, ellp)])
        d = med.interfaces
        for a in (1, 2):
            for b in (1, 2):
                if not component_exists(med, a, b, ell, ellp):
                    continue
                img = polarization_source(med, a, b, ell, ellp, rp)
                if a == 1:
                    assert img[2] < d[ell]
                else:
                    assert img[2] > d[ell - 1]


def test_reflection_algebra():
    rng = np.random.default_rng(4)
    for _ in range(200):
        r = rng.normal(size=3)
        s = rng.normal(size=3)
        assert abs(np.linalg.norm(reflect(r)) - np.linalg.norm(r)) <= 1e-15 * (
            np.linalg.norm(r) + 1e-300
        )
        np.testing.assert_allclose(
            reflect(r + s), reflect(r) + reflect(s), rtol=1e-15, atol=0
        )
        np.testing.assert_allclose(reflect(reflect(r)), r, rtol=0, atol=0)


def test_box_in_layer_checks(two_layer):
    check_box_in_layer(two_layer, [0, 0, 1.0], 0.5, 0)
    with pytest.raises(BoxCrossesInterface):
        check_box_in_layer(two_layer, [0, 0, 0.3], 0.5, 0)
