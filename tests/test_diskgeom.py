import math

import numpy as np
import pytest

from conftest import random_unit_tangent
from thermoflow.diskgeom import (UnitTangent, flow_contraction_ratio, geodesic_flow,
                                 hyperbolic_distance, perturbed, sasaki_distance)


def test_flow_from_origin_along_real_axis():
    x = UnitTangent(0j, 1 + 0j)
    y = geodesic_flow(x, 1.0)
    assert y.z == pytest.approx(math.tanh(0.5), abs=1e-14)
    assert y.u == pytest.approx(1 + 0j, abs=1e-12)


def test_flow_is_a_group_action():
    rng = np.random.default_rng(0)
    x = random_unit_tangent(rng)
    a = geodesic_flow(geodesic_flow(x, 0.7), 0.9)
    b = geodesic_flow(x, 1.6)
    assert abs(a.z - b.z) < 1e-12
    assert abs(a.u - b.u) < 1e-12


def test_distance_matches_flow_time():
    rng = np.random.default_rng(1)
    x = random_unit_tangent(rng)
    for s in (0.3, 1.0, 2.5):
        y = geodesic_flow(x, s)
        assert hyperbolic_distance(x.z, y.z) == pytest.approx(s, abs=1e-10)


def test_sasaki_distance_symmetric_and_zero_on_diagonal():
    rng = np.random.default_rng(2)
    x = random_unit_tangent(rng)
    y = perturbed(x, rng, 0.05)
    assert sasaki_distance(x, x) == 0.0
    assert sasaki_distance(x, y) == pytest.approx(sasaki_distance(y, x), rel=1e-9)


def test_same_geodesic_ratio_decays():
    rng = np.random.default_rng(3)
    x = random_unit_tangent(rng)
    y = geodesic_flow(x, 1e-3)
    for s in (0.5, 1.5, 3.0):
        ratio = flow_contraction_ratio(x, y, s)
        assert ratio <= (1.0 + 1e-6) * math.exp(-s) + 1e-9


def test_contraction_bound_monte_carlo():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(2000):
        x = random_unit_tangent(rng)
        y = perturbed(x, rng, eps=10 ** rng.uniform(-3, -1.3))
        s = rng.uniform(0.0, 5.0)
        worst = max(worst, flow_contraction_ratio(x, y, s))
    assert worst <= 2 * math.sqrt(2)


def test_identical_vectors_rejected():
    x = UnitTangent(0.1 + 0.2j, 1j)
    with pytest.raises(ValueError):
        flow_contraction_ratio(x, x, 1.0)
