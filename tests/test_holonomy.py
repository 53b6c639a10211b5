import math

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

from thermoflow import errors
from thermoflow.holonomy import (BaseFrame, ConnectionFamily, FourierSampler,
                                 M_CONN, OrbitData, ShootingSolution, _moment,
                                 cubic_direction, eigenvalue_derivative_fd, eta_cc,
                                 hermitian, monodromy, parallel_transport, psi_cc, psi_cq,
                                 quadratic_direction,
                                 reassemble_trace_cc, reassemble_trace_cq,
                                 second_variation_trace_cc, second_variation_trace_cq,
                                 trace_derivative, variation_ode_closed_form)

L = 2.0


def _orbit(seed=0, l=L, modes=2, scale=0.4):
    rng = np.random.default_rng(seed)
    return OrbitData(l=l,
                     q_alpha=FourierSampler.random(l, rng, modes, scale),
                     q_beta=FourierSampler.random(l, rng, modes, scale),
                     q_i=FourierSampler.random(l, rng, modes, scale),
                     q_j=FourierSampler.random(l, rng, modes, scale))


# ---------------------------------------------------------------- base frame

def test_eigenvector_paths_solve_the_ode():
    for i in (1, 2, 3):
        for t in np.linspace(0, 3, 7):
            h = 1e-5
            deriv = (BaseFrame.e(i, t + h) - BaseFrame.e(i, t - h)) / (2 * h)
            res = deriv + M_CONN @ BaseFrame.e(i, t)
            assert np.max(np.abs(res)) < 1e-9


def test_eigen_boundary_monodromy():
    l = 1.7
    lam = BaseFrame.eigenvalues(l)
    for i, expected in zip((1, 2, 3), lam):
        assert np.allclose(BaseFrame.e(i, l), expected * BaseFrame.e(i, 0.0), atol=1e-12)


def test_base_matrix_eigenvalues():
    lam = sorted(np.linalg.eigvals(-M_CONN).real, reverse=True)
    assert lam == pytest.approx([1.0, 0.0, -1.0], abs=1e-12)


def test_projection_matrix_reference_entries():
    expected = 0.5 * np.array([[0.5, -0.5, 0.25], [-1, 1, -0.5], [1, -1, 0.5]])
    assert np.array_equal(BaseFrame.pi0, expected)


def test_projection_idempotent_trace_one():
    p = BaseFrame.pi0
    assert np.max(np.abs(p @ p - p)) < 1e-12
    assert np.trace(p) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(p @ BaseFrame.e(1, 0.0), BaseFrame.e(1, 0.0), atol=1e-12)
    assert np.max(np.abs(p @ BaseFrame.e(2, 0.0))) < 1e-12
    assert np.max(np.abs(p @ BaseFrame.e(3, 0.0))) < 1e-12


def test_pi_constant_in_t():
    for t in (0.3, 1.1, 2.5):
        assert np.max(np.abs(BaseFrame.pi(t) - BaseFrame.pi0)) < 1e-12


def test_a_matrix_inverts_eigen_rows():
    for t in (0.0, 0.9, 2.2):
        prod = BaseFrame.a_matrix(t) @ BaseFrame.e_matrix(t)
        assert np.max(np.abs(prod - np.eye(3))) < 1e-12


def test_frame_is_h_orthonormal():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            val = hermitian(BaseFrame.e(i, 0.0), BaseFrame.e(j, 0.0))
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-13)


# ---------------------------------------------------------- parallel transport

def test_transport_constant_connection_eigenvectors():
    l = 1.3
    A = lambda t: M_CONN
    out = parallel_transport(A, BaseFrame.e(1, 0.0), l, steps=512)
    assert np.max(np.abs(out - math.exp(l) * BaseFrame.e(1, 0.0))) < 1e-10
    out2 = parallel_transport(A, BaseFrame.e(2, 0.0), l, steps=512)
    assert np.max(np.abs(out2 - BaseFrame.e(2, 0.0))) < 1e-10


def test_transport_zero_connection_identity():
    A = lambda t: np.zeros((3, 3))
    v0 = np.array([1.0, 2.0, -0.5])
    assert np.array_equal(parallel_transport(A, v0, 2.0, steps=64), v0)


def test_transport_step_too_large():
    A = lambda t: M_CONN * 10.0
    with pytest.raises(errors.StepTooLarge):
        parallel_transport(A, BaseFrame.e(1, 0.0), 5.0, steps=4, richardson_tol=1e-12)


def test_monodromy_eigenvalues_of_base_connection():
    l = 2.3
    mono = monodromy(lambda t: M_CONN, l, steps=2048)
    lam = sorted(np.abs(np.linalg.eigvals(mono)), reverse=True)
    assert lam[0] == pytest.approx(math.exp(l), rel=1e-10)
    assert lam[1] == pytest.approx(1.0, rel=1e-10)
    assert lam[2] == pytest.approx(math.exp(-l), rel=1e-10)


@pytest.mark.parametrize("steps", [1000, 2049])
def test_transport_time_dependent_commuting_connection(steps):
    # A(t) = (1 + sin(t) / 2) M commutes with itself at all times, so the exact
    # transport is expm(-(T + (1 - cos T) / 2) M); these step counts leave a
    # partial block in the integrator.
    T = 2.0
    A = lambda t: (1.0 + 0.5 * math.sin(t)) * M_CONN
    exact = expm(-(T + 0.5 * (1.0 - math.cos(T))) * M_CONN)
    assert np.max(np.abs(monodromy(A, T, steps=steps) - exact)) < 1e-10
    v0 = np.array([1.0, -0.5j, 2.0])
    out = parallel_transport(A, v0, T, steps=steps)
    assert np.max(np.abs(out - exact @ v0)) < 1e-10


def test_transport_samples_each_fine_node_once():
    # the coarse Richardson pass reuses every other fine-pass sample
    calls = []

    def A(t):
        calls.append(t)
        return M_CONN

    parallel_transport(A, BaseFrame.e(1, 0.0), 1.3, steps=512)
    assert len(calls) == 4 * 512 + 1
    assert len(set(calls)) == len(calls)


# -------------------------------------------------------------- trace formula

def test_trace_derivative_constant_cubic():
    orbit = _orbit()
    fam = ConnectionFamily(l=orbit.l, dD=cubic_direction(FourierSampler(orbit.l, {0: 1.0})))
    val = trace_derivative(fam)
    assert val.real == pytest.approx(-orbit.l, abs=1e-10)
    assert abs(val.imag) < 1e-12


def test_trace_derivative_constant_quadratic():
    orbit = _orbit()
    fam = ConnectionFamily(l=orbit.l,
                           dD=quadratic_direction(FourierSampler(orbit.l, {0: 1.0})))
    val = trace_derivative(fam)
    assert val.real == pytest.approx(2 * orbit.l, abs=1e-10)


def test_trace_derivative_imaginary_constant_is_zero():
    orbit = _orbit()
    fam = ConnectionFamily(l=orbit.l, dD=cubic_direction(FourierSampler(orbit.l, {0: 1j})))
    assert abs(trace_derivative(fam)) < 1e-12


def test_trace_derivative_degenerate_length():
    fam = ConnectionFamily(l=1e-12, dD=cubic_direction(FourierSampler(1e-12, {0: 1.0})))
    with pytest.raises(errors.DegenerateSpectrum):
        trace_derivative(fam)


@pytest.mark.parametrize("seed", range(4))
def test_trace_derivative_vs_fd(seed):
    rng = np.random.default_rng(seed)
    l = float(rng.uniform(0.8, 3.0))
    q = FourierSampler.random(l, rng, 2, 0.4)
    direction = cubic_direction(q) if seed % 2 else quadratic_direction(q)
    fam = ConnectionFamily(l=l, dD=direction)
    a = trace_derivative(fam)
    b = eigenvalue_derivative_fd(fam)
    assert abs(a - b) < 1e-6


def test_trace_derivative_zero_perturbation():
    fam = ConnectionFamily(l=1.5, dD=lambda t: np.zeros((3, 3)))
    assert abs(trace_derivative(fam)) < 1e-14
    assert abs(eigenvalue_derivative_fd(fam)) < 1e-9


def _random_periodic_matrix(l, rng, scale=0.3):
    samplers = [[FourierSampler.random(l, rng, 2, scale) for _ in range(3)]
                for _ in range(3)]

    def g(t):
        return np.array([[complex(samplers[i][j](t)) for j in range(3)]
                         for i in range(3)])

    def gp(t, h=1e-6):
        return (g(t + h) - g(t - h)) / (2 * h)

    return g, gp


def test_gauge_invariance_of_trace_derivative():
    rng = np.random.default_rng(3)
    orbit = _orbit(3)
    fam = ConnectionFamily(l=orbit.l, dD=cubic_direction(orbit.q_alpha))
    g, gp = _random_periodic_matrix(orbit.l, rng)
    shifted = fam.gauge_shifted(g, gp)
    assert abs(trace_derivative(fam) - trace_derivative(shifted)) < 1e-7


def test_gauge_shift_does_not_move_fd_eigenvalue():
    rng = np.random.default_rng(5)
    orbit = _orbit(5, l=1.4)
    dD = cubic_direction(orbit.q_alpha)
    g, gp = _random_periodic_matrix(orbit.l, rng, scale=0.2)
    fam = ConnectionFamily(l=orbit.l, dD=dD)
    shifted = fam.gauge_shifted(g, gp)
    assert abs(trace_derivative(shifted) - eigenvalue_derivative_fd(fam)) < 1e-6


# -------------------------------------------------------- variation solutions

@pytest.mark.parametrize("i", [1, 2, 3])
def test_cubic_closed_form_ode_and_boundary(i):
    orbit = _orbit(7, l=1.6)
    sol = variation_ode_closed_form(i, orbit, "cubic")
    for t in np.linspace(0.1, orbit.l - 0.1, 5):
        assert sol.ode_residual(float(t)) < 1e-8
    assert sol.boundary_residual() < 1e-8


def test_quadratic_closed_form_ode_and_boundary():
    orbit = _orbit(8, l=1.2)
    sol = variation_ode_closed_form(1, orbit, "quadratic")
    for t in np.linspace(0.1, orbit.l - 0.1, 5):
        assert sol.ode_residual(float(t)) < 1e-8
    assert sol.boundary_residual() < 1e-8


def test_quadratic_closed_form_other_indices_unsupported():
    orbit = _orbit(8)
    with pytest.raises(errors.UnsupportedCase):
        variation_ode_closed_form(2, orbit, "quadratic")


def test_zero_forcing_gives_zero_variation():
    orbit = OrbitData(l=1.5, q_beta=FourierSampler.zero(1.5),
                      q_alpha=FourierSampler.zero(1.5))
    for i in (1, 2, 3):
        sol = variation_ode_closed_form(i, orbit, "cubic")
        for t in (0.0, 0.7, 1.5):
            assert np.max(np.abs(sol.value(t))) < 1e-13


@pytest.mark.parametrize("i,direction", [(1, "cubic"), (2, "cubic"), (3, "cubic"),
                                         (1, "quadratic")])
def test_closed_forms_match_shooting(i, direction):
    orbit = _orbit(11, l=1.8, modes=3)
    closed = variation_ode_closed_form(i, orbit, direction)
    shot = ShootingSolution(i, direction, orbit)
    assert shot.match_residual < 1e-8
    for t in np.linspace(0.0, orbit.l, 7):
        dev = np.max(np.abs(closed.value(float(t)) - shot.value(float(t))))
        assert dev < 1e-6


def test_shooting_value_matches_values_on_grid():
    orbit = _orbit(12, l=1.6)
    shot = ShootingSolution(1, "quadratic", orbit)
    for t in (0.0, 0.37, 1.1, orbit.l):
        assert np.array_equal(shot.value(t), shot.values_on_grid([t])[0])


def test_single_mode_forcing_against_shooting():
    l = 2.0
    orbit = OrbitData(l=l, q_alpha=FourierSampler(l, {0: 0.3}),
                      q_beta=FourierSampler(l, {1: 1.0}))
    closed = variation_ode_closed_form(1, orbit, "cubic")
    shot = ShootingSolution(1, "cubic", orbit)
    for t in np.linspace(0.0, l, 9):
        assert np.max(np.abs(closed.value(float(t)) - shot.value(float(t)))) < 1e-6


# ------------------------------------------------------------ exact moments

def _quad_moment(q, rho, a, b, anchor):
    """int_a^b e^{rho (s - anchor)} q(s) ds by quad, and a bound on its modulus."""
    kernel = lambda s: math.exp(rho * (s - anchor))
    opts = dict(epsabs=0.0, epsrel=1e-12, limit=400)
    re = integrate.quad(lambda s: kernel(s) * q(s).real, a, b, **opts)[0]
    im = integrate.quad(lambda s: kernel(s) * q(s).imag, a, b, **opts)[0]
    bound = sum(abs(c) for c in q.modes.values()) * integrate.quad(kernel, a, b)[0]
    return complex(re, im), bound


@pytest.mark.parametrize("seed", range(8))
def test_exact_moment_matches_quad(seed):
    rng = np.random.default_rng(seed)
    l = float(rng.uniform(0.5, 4.0))
    q = FourierSampler.random(l, rng, int(rng.integers(0, 4)), 0.5)
    for rho in (-2, -1, 0, 1, 2):
        a = float(rng.uniform(-2 * l, l))
        bs = a + l * rng.uniform(0.0, 3.0, size=3)
        anchor = float(rng.choice([a, bs[-1], 0.0]))
        exact = _moment(q, rho, a, bs, anchor)
        for b, val in zip(bs, exact):
            ref, scale = _quad_moment(q, rho, a, float(b), anchor)
            assert abs(val - ref) <= 1e-12 * scale


# ------------------------------------------------------ second-variation trace

def test_trace_cc_zero_when_beta_zero():
    l = 1.4
    orbit = OrbitData(l=l, q_alpha=FourierSampler.random(l, np.random.default_rng(1), 2),
                      q_beta=FourierSampler.zero(l))
    for t in (0.0, 0.5, 1.2):
        assert second_variation_trace_cc(orbit, t) == pytest.approx(0.0, abs=1e-13)


def test_trace_cc_reassembles_from_variation_paths():
    orbit = _orbit(13, l=1.5)
    paths = [variation_ode_closed_form(i, orbit, "cubic") for i in (1, 2, 3)]
    for t in (0.0, 0.4, 0.9, 1.4):
        direct = second_variation_trace_cc(orbit, t)
        assembled = reassemble_trace_cc(orbit, t, paths)
        assert abs(direct - assembled) < 1e-8


def test_trace_cq_reassembles_from_shooting_paths():
    orbit = _orbit(17, l=1.3)
    paths = [ShootingSolution(i, "quadratic", orbit) for i in (1, 2, 3)]
    for t in (0.0, 0.5, 1.1):
        kernel = -second_variation_trace_cq(orbit, t)  # y21 = 0 -> minus the kernel
        assembled = reassemble_trace_cq(orbit, t, paths)
        assert abs(kernel - assembled) < 1e-8


def test_trace_cq_y21_term():
    orbit = _orbit(18, l=1.1)
    y21 = lambda t: complex(0.8, -0.3)
    with_y = second_variation_trace_cq(orbit, 0.2, y21=y21)
    without = second_variation_trace_cq(orbit, 0.2)
    assert with_y - without == pytest.approx(0.4, abs=1e-12)


def test_trace_cq_zero_cases():
    l = 1.0
    orbit = OrbitData(l=l, q_alpha=FourierSampler(l, {0: 1.0}),  # real => Im = 0
                      q_i=FourierSampler(l, {0: 2.0}))
    assert second_variation_trace_cq(orbit, 0.3) == pytest.approx(0.0, abs=1e-12)


def test_psi_multiple_traversal_invariance():
    orbit = _orbit(19, l=1.2)
    base = psi_cc(orbit, orbit.l)
    for k in (2, 3, 4, 5, 6, 120):
        assert math.isfinite(psi_cc(orbit, k * orbit.l))
        assert psi_cc(orbit, k * orbit.l) == pytest.approx(base, abs=1e-12)


def test_psi_equals_trace_cc_at_zero():
    orbit = _orbit(20, l=1.7)
    assert psi_cc(orbit, orbit.l) == pytest.approx(
        second_variation_trace_cc(orbit, 0.0), abs=1e-12)


def test_eta_constant_samplers():
    l = 1.0
    orbit = OrbitData(l=l, q_alpha=FourierSampler(l, {0: 1.0}),
                      q_beta=FourierSampler(l, {0: 1.0}))
    val, bound = eta_cc(orbit, 40.0)
    assert val == pytest.approx(-1.0, abs=1e-10)
    assert bound < 1e-15


def test_eta_zero_beta():
    l = 1.3
    orbit = OrbitData(l=l, q_alpha=FourierSampler.random(l, np.random.default_rng(2), 2),
                      q_beta=FourierSampler.zero(l))
    val, _ = eta_cc(orbit, 30.0)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_psi_cq_multiple_traversal_invariance():
    orbit = _orbit(23, l=1.3)
    base = psi_cq(orbit, orbit.l)
    assert base == pytest.approx(second_variation_trace_cq(orbit, 0.0), abs=1e-12)
    for k in (2, 3, 4, 5, 6, 120):
        assert math.isfinite(psi_cq(orbit, k * orbit.l))
        assert psi_cq(orbit, k * orbit.l) == pytest.approx(base, abs=1e-12)


def test_psi_long_horizon_stays_finite():
    # e^{2 r} at r = 120 l overflows a double; the kernels must never form it
    orbit = _orbit(19, l=3.7)
    for psi in (psi_cc, psi_cq):
        far = psi(orbit, 120 * orbit.l)
        assert math.isfinite(far)
        assert far == pytest.approx(psi(orbit, orbit.l), abs=1e-12)


def test_orbit_json_roundtrip():
    orbit = _orbit(24, l=1.9)
    restored = OrbitData.from_json(orbit.to_json())
    assert restored.l == orbit.l
    ts = np.linspace(0, orbit.l, 7)
    assert np.allclose(restored.q_alpha(ts), orbit.q_alpha(ts))
    assert np.allclose(restored.q_j(ts), orbit.q_j(ts))


def test_sampler_periodicity_defect():
    orbit = _orbit(25, l=2.2)
    assert orbit.q_alpha.periodicity_defect() < 1e-12


def test_eta_approaches_psi_geometrically():
    orbit = _orbit(21, l=1.2)
    psi_val = psi_cc(orbit, orbit.l)
    errs = []
    for k in (1, 2, 3, 4, 5, 6):
        val, _ = eta_cc(orbit, k * orbit.l)
        errs.append(abs(val - psi_val))
    rate = (errs[-1] / errs[0]) ** (1 / 5)
    assert rate <= math.exp(-orbit.l) * 1.1
