import math

import numpy as np
import pytest

from thermoflow import errors
from thermoflow.diskseries import (DifferentialExpansion, angular_triple_reduce,
                                   quadrature_triple)

from conftest import loop_eval_at_radius, loop_quadrature_triple


def _random_exp(rng, degree, n_coeffs=4, scale=1.0):
    coeffs = rng.normal(0, scale, n_coeffs) + 1j * rng.normal(0, scale, n_coeffs)
    return DifferentialExpansion(degree, tuple(coeffs))


def eval_on_flow(e, r, theta):
    """The expansion along the flow: radius R = tanh(r) at flow time r >= 0."""
    assert r >= 0
    return e.eval_at_radius(math.tanh(r), theta)


def rotate_pi_exact(e):
    """Rotation by pi with exact signs (-1)^(n + d)."""
    return DifferentialExpansion(
        e.degree, tuple(c * (-1) ** ((n + e.degree) % 2) for n, c in enumerate(e.coeffs)))


def monte_carlo_triple(e1, e2, e3, T, S, n_samples, seed):
    """Rotation-averaged Monte Carlo estimate (mean, stderr) of the triple product.

    Rotation invariance alone annihilates every theta-isolated term, so the
    estimate must vanish (within noise) whenever the reduced series does.
    """
    thetas = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, size=n_samples)
    vals = (e1.eval_at_radius(0.0, thetas).real * e2.eval_at_radius(T, thetas).real
            * e3.eval_at_radius(S, thetas).real)
    stderr = float(vals.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return float(vals.mean()), stderr


def test_degree_checked():
    with pytest.raises(errors.DegreeMismatch):
        DifferentialExpansion(4, (1.0,))


def test_eval_at_origin_keeps_only_leading_coefficient():
    e = DifferentialExpansion(3, (2 + 1j, 5.0, -3.0))
    th = 0.7
    assert eval_on_flow(e, 0.0, th) == pytest.approx((2 + 1j) * np.exp(3j * th))


def test_eval_single_coefficient_theta_zero():
    e = DifferentialExpansion(3, (1.0,))
    r = 0.8
    R = math.tanh(r)
    assert eval_on_flow(e, r, 0.0) == pytest.approx((1 - R * R) ** 3)


def test_eval_decays_at_infinity():
    e = DifferentialExpansion(2, (1.0, 0.5))
    assert abs(eval_on_flow(e, 20.0, 1.0)) < 1e-15


def test_rotation_by_pi_sign_rule_exact():
    rng = np.random.default_rng(0)
    for degree in (2, 3):
        e = _random_exp(rng, degree, 5)
        rot = rotate_pi_exact(e)
        for n, (a, b) in enumerate(zip(e.coeffs, rot.coeffs)):
            assert b == a * (-1) ** ((n + degree) % 2)
        # and it agrees with evaluating at theta + pi
        for r, th in ((0.3, 0.2), (1.0, 2.1)):
            assert eval_on_flow(rot, r, th) == pytest.approx(
                eval_on_flow(e, r, th + math.pi), abs=1e-12)


def test_reduce_zero_expansions():
    z = DifferentialExpansion(3, (0.0, 0.0))
    red = angular_triple_reduce(z, z, z)
    assert red.value(0.3, 0.5) == 0.0


def test_reduce_offset_ab_case():
    rng = np.random.default_rng(1)
    e1 = _random_exp(rng, 3)
    e2 = _random_exp(rng, 3)
    e3 = _random_exp(rng, 3, 7)
    red = angular_triple_reduce(e1, e2, e3)
    assert red.offset_a == 3 and red.offset_b == 3
    expected0 = float(np.real(e1.coeffs[0] * e2.coeffs[0] * np.conj(e3.coeffs[3])))
    assert red.terms_a[0] == pytest.approx(expected0)


def test_pure_harmonic_orthogonality():
    # int Re(a0 e^{3 i th}) e^{i(n+3)th} e^{i(m+3)th} dth = 0 for n, m >= 0
    for n in range(3):
        for m in range(3):
            total = 0.0 + 0.0j
            K = 256
            for k in range(K):
                th = 2 * math.pi * k / K
                total += np.real((1.5 - 0.7j) * np.exp(3j * th)) \
                    * np.exp(1j * (n + 3) * th) * np.exp(1j * (m + 3) * th)
            assert abs(total / K) < 1e-12


_CASE_DEGREES = {"AB": (3, 3, 3), "CD": (2, 3, 3), "EF": (2, 2, 3),
                 "GH": (2, 2, 3), "IJ": (3, 3, 2)}


@pytest.mark.parametrize("case", sorted(_CASE_DEGREES))
def test_reduction_matches_quadrature(case):
    rng = np.random.default_rng(hash(case) % 2 ** 31)
    d1, d2, d3 = _CASE_DEGREES[case]
    for trial in range(20):
        e1 = _random_exp(rng, d1, 4)
        e2 = _random_exp(rng, d2, 4)
        e3 = _random_exp(rng, d3, 4)
        T, S = rng.uniform(0.05, 0.9, size=2)
        red = angular_triple_reduce(e1, e2, e3)
        direct = quadrature_triple(e1, e2, e3, T, S, n_theta=64)
        assert red.value(T, S) == pytest.approx(direct, abs=1e-10)


def _oracle_cases(count=120):
    """Seeded (degrees, e1, e2, e3, T, S) over every case's degree triple, with the
    radii 0 and 0.99 and empty and all-zero coefficient lists among them."""
    rng = np.random.default_rng(2024)
    cases = sorted(_CASE_DEGREES)
    for trial in range(count):
        degrees = _CASE_DEGREES[cases[trial % len(cases)]]
        exps = []
        for j, d in enumerate(degrees):
            n = int(rng.integers(0, 7))
            if (trial + j) % 11 == 0:
                exps.append(DifferentialExpansion(d, ()))
            elif (trial + j) % 13 == 0:
                exps.append(DifferentialExpansion(d, (0.0,) * n))
            else:
                exps.append(_random_exp(rng, d, n, scale=float(rng.uniform(0.1, 3.0))))
        T, S = rng.uniform(0.0, 0.99, size=2)
        if trial % 7 == 0:
            T = 0.0
        if trial % 5 == 0:
            S = 0.99
        yield degrees, exps, float(T), float(S)


def _coeff_sum(e):
    return sum(abs(c) for c in e.coeffs)


def test_eval_on_angle_array_matches_scalar_calls_and_loop_oracle():
    thetas = np.linspace(-3.0, 9.0, 37)
    seen = set()
    for degrees, exps, T, S in _oracle_cases():
        seen.add(degrees)
        for e in exps:
            for R in (0.0, T, S, 0.99):
                arr = e.eval_at_radius(R, thetas)
                assert arr.shape == thetas.shape
                assert np.array_equal(arr, [e.eval_at_radius(R, float(t)) for t in thetas])
                oracle = np.array([loop_eval_at_radius(e, R, t) for t in thetas])
                assert np.max(np.abs(arr - oracle)) <= 1e-14 * (1 + _coeff_sum(e))
    assert seen == set(_CASE_DEGREES.values())


def test_eval_keeps_shape_and_scalar_type():
    e = DifferentialExpansion(2, (1 - 2j, 0.5, 3j))
    assert isinstance(e.eval_at_radius(0.4, 1.1), complex)
    assert isinstance(e.eval_at_radius(0.4, np.float64(1.1)), complex)
    assert isinstance(e.eval_at_radius(0.4, np.array(1.1)), complex)
    grid = np.arange(6.0).reshape(2, 3)
    assert e.eval_at_radius(0.4, grid).shape == (2, 3)
    assert np.array_equal(DifferentialExpansion(3, ()).eval_at_radius(0.5, grid),
                          np.zeros((2, 3)))


def test_quadrature_matches_loop_oracle():
    """Bound: 1e-14 per unit of the triple product's scale, the product of the
    three coefficient sums."""
    for degrees, (e1, e2, e3), T, S in _oracle_cases():
        direct = quadrature_triple(e1, e2, e3, T, S, n_theta=64)
        oracle = loop_quadrature_triple(e1, e2, e3, T, S, 64)
        scale = _coeff_sum(e1) * _coeff_sum(e2) * _coeff_sum(e3)
        assert abs(direct - oracle) <= 1e-14 * (1 + scale)
    zero = DifferentialExpansion(2, (0.0, 0.0))
    assert quadrature_triple(zero, zero, zero, 0.3, 0.5, n_theta=64) == 0.0


@pytest.mark.parametrize("n_theta", [0, -4, 2.5, 64.0, True, "64", None])
def test_quadrature_rejects_bad_n_theta(n_theta):
    e = DifferentialExpansion(3, (1.0, 0.5j))
    with pytest.raises(ValueError, match="n_theta"):
        quadrature_triple(e, e, e, 0.3, 0.5, n_theta=n_theta)


def test_quadrature_accepts_numpy_int_n_theta():
    e = DifferentialExpansion(3, (1.0, 0.5j))
    assert quadrature_triple(e, e, e, 0.3, 0.5, n_theta=np.int64(64)) == \
        quadrature_triple(e, e, e, 0.3, 0.5, n_theta=64)


def test_monte_carlo_matches_reduction():
    rng = np.random.default_rng(3)
    e1 = _random_exp(rng, 3)
    e2 = _random_exp(rng, 3)
    e3 = _random_exp(rng, 3)
    T, S = 0.3, 0.5
    red = angular_triple_reduce(e1, e2, e3)
    est, err = monte_carlo_triple(e1, e2, e3, T, S, n_samples=20000, seed=11)
    assert abs(est - red.value(T, S)) < 4 * err + 1e-12


def test_monte_carlo_odd_harmonic_is_zero():
    e = DifferentialExpansion(3, (1.0,))
    est, err = monte_carlo_triple(e, e, e, 0.0, 0.0, n_samples=5000, seed=5)
    assert abs(est) <= 3 * err + 1e-12


def test_monte_carlo_zero_expansions_exact_zero():
    z = DifferentialExpansion(2, (0.0,))
    est, err = monte_carlo_triple(z, z, z, 0.2, 0.4, n_samples=100, seed=1)
    assert est == 0.0


def test_monte_carlo_deterministic_given_seed():
    rng = np.random.default_rng(9)
    e = _random_exp(rng, 2)
    a = monte_carlo_triple(e, e, e, 0.1, 0.2, 1000, seed=42)
    b = monte_carlo_triple(e, e, e, 0.1, 0.2, 1000, seed=42)
    assert a == b
