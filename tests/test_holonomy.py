import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

import thermoflow
from thermoflow import cli, errors, holonomy
from thermoflow.holonomy import (BaseFrame, ConnectionFamily, FourierSampler,
                                 M_CONN, OrbitData, ShootingSolution, _forcing_for,
                                 _nodes, _propagator,
                                 cubic_direction, eigenvalue_derivative_fd, eta_cc,
                                 hermitian, parallel_transport, psi_cc, psi_cq,
                                 quadratic_direction,
                                 reassemble_trace_cc, reassemble_trace_cq,
                                 second_variation_trace_cc, second_variation_trace_cq,
                                 top_eigenvalue, trace_derivative, variation_ode_closed_form)

from conftest import complex_propagator, fixed_step_fd, monodromy, per_mode_sampler

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
    """The projection onto e_1(t) along span(e_2, e_3)(t) is the same for every t."""
    for t in (0.3, 1.1, 2.5):
        pi_t = np.outer(BaseFrame.e(1, t), BaseFrame.a_matrix(t)[:, 0])
        assert np.max(np.abs(pi_t - BaseFrame.pi0)) < 1e-12


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


def _counted(f, calls):
    """f, recording each time it is called at in calls."""
    def g(t):
        calls.append(t)
        return f(t)
    return g


def _stop_level(calls, T):
    """The level n below the cap at which a per-node callable's step doubling on
    [0, T] stopped. Each level reuses the samples of the level below, so its calls
    are the 2 n + 1 nodes of level n, then the nodes of the n + 1 steps that
    confirmed the stop but for its ends and midpoint, which level n has: each time
    once."""
    n = (len(calls) - 1) // 4
    assert len(set(calls)) == len(calls) == 4 * n + 1
    assert sorted(calls[:2 * n + 1]) == _nodes(0.0, T, n)[0].tolist()
    check = _nodes(0.0, T, n + 1)[0].tolist()
    assert calls[2 * n + 1:] == check[1:n + 1] + check[n + 2:-1]
    return n


def test_transport_samples_each_fine_node_once():
    calls = []
    parallel_transport(_counted(lambda t: M_CONN, calls), BaseFrame.e(1, 0.0), 1.3,
                       steps=512)
    assert _stop_level(calls, 1.3) < 2 * 512


def _doubling_family(seed):
    """A seeded cubic or quadratic direction on an orbit with l in [0.5, 6] and 1 to
    4 modes, with the generator that drew it."""
    rng = np.random.default_rng([seed, 26])
    l = float(rng.uniform(0.5, 6.0))
    q = FourierSampler.random(l, rng, int(rng.integers(1, 5)), 0.5)
    return (cubic_direction if seed % 2 else quadratic_direction)(q), l, rng


@pytest.mark.parametrize("seed", range(16))
def test_step_doubling_meets_its_targets(seed):
    """The fd and the transport of M_CONN + dD / 10 stop within their targets of
    8,192-step references."""
    d, l, rng = _doubling_family(seed)
    family = ConnectionFamily(l=l, dD=d)
    ref = fixed_step_fd(family, 8192)
    assert abs(eigenvalue_derivative_fd(family) - ref) \
        <= holonomy._FD_TOL * max(1.0, abs(ref))
    v0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    ts, h = _nodes(0.0, l, 8192)
    ref = _propagator(M_CONN + 0.1 * d(ts), h) @ v0
    out = parallel_transport(lambda t: M_CONN + 0.1 * d(t), v0, l)
    assert np.max(np.abs(out - ref)) \
        <= holonomy._TRANSPORT_TOL * max(1.0, float(np.max(np.abs(ref))))


@pytest.mark.parametrize("cap,levels", [(1000, [125, 250, 500, 1000]),
                                        (2000, [125, 250, 500, 1000, 2000]),
                                        (2048, [16 * 2 ** k for k in range(8)]),
                                        (4098, [2049, 4098]), (2049, [2049]), (2, [1, 2])])
def test_step_doubling_levels_end_at_the_cap(cap, levels):
    """With a target that no level meets, every level runs, the last is the cap and
    each node of the cap level is sampled once."""
    calls, seen = [], []

    def value(a, h):
        seen.append(((len(a) - 1) // 2, h))
        return float(len(a))

    fine, est = holonomy._step_doubling(_counted(lambda t: M_CONN, calls), 1.3, cap,
                                        value, lambda v: 0.0)
    assert seen == [(n, 1.3 / n) for n in levels]
    assert fine == 2 * cap + 1
    assert est == (cap / 15 if len(levels) > 1 else math.inf)
    assert len(set(calls)) == len(calls) == 2 * cap + 1
    assert sorted(calls) == _nodes(0.0, 1.3, cap)[0].tolist()


@pytest.mark.parametrize("per_node", [False, True])
@pytest.mark.parametrize("l,k", [(1.0, 256), (1.7, 512)])
def test_fd_rejects_an_aliased_mode(l, k, per_node):
    """Mode k takes the value 1 on every node of the levels up to k / 2 steps, so
    they all see the constant q = 1.5 and agree on 3 l; the fd must find 2 l."""
    d = quadratic_direction(FourierSampler(l, {0: 1.0, k: 0.5}))
    family = ConnectionFamily(l=l, dD=(lambda t: d(t)) if per_node else d)
    assert abs(eigenvalue_derivative_fd(family) - 2 * l) < 1e-8


@pytest.mark.parametrize("per_node", [False, True])
def test_transport_rejects_an_aliased_mode(per_node):
    """As for the fd: levels up to 128 steps see mode 256 as a constant."""
    l = 0.5
    d = quadratic_direction(FourierSampler(l, {0: 0.1, 256: 0.05}))
    A = (lambda t: M_CONN + d(t)) if per_node else d
    v0 = np.array([1.0, 0.5j, 2.0])
    ts, h = _nodes(0.0, l, 16384)
    ref = _propagator(holonomy._sampled(A, ts), h) @ v0
    assert np.max(np.abs(parallel_transport(A, v0, l) - ref)) < 1e-8


def test_transport_raises_at_the_cap_exactly_when_the_last_pair_fails():
    # 64 steps leave every estimate far above 1e-11, so the ladder ends at 64 and
    # 128 steps: the pair that a fixed-step check at steps = 64 compares
    A = lambda t: (1.0 + 0.5 * math.sin(t)) * M_CONN
    v0 = np.array([1.0, -0.5j, 2.0])
    coarse, fine = (monodromy(A, 2.0, n) @ v0 for n in (64, 128))
    est = float(np.max(np.abs(fine - coarse))) / 15.0
    assert np.array_equal(parallel_transport(A, v0, 2.0, 64, richardson_tol=est), fine)
    with pytest.raises(errors.StepTooLarge):
        parallel_transport(A, v0, 2.0, 64, richardson_tol=float(np.nextafter(est, 0.0)))


@pytest.mark.parametrize("steps", [64, 63])
def test_fd_returns_the_cap_level_when_no_level_meets_its_target(steps):
    # an odd cap is a single level; 64 steps leave every estimate above 1e-9
    d, l, _ = _doubling_family(0)
    family = ConnectionFamily(l=l, dD=d)
    assert eigenvalue_derivative_fd(family, steps) == fixed_step_fd(family, steps)


def _rel_dev(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def _complex_stack(rng, shape, scale=0.5):
    return M_CONN + scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


@pytest.mark.parametrize("steps", [7, 256, 600])
def test_propagator_matches_complex_oracle(steps):
    # 600 steps end in a partial block
    rng = np.random.default_rng(steps)
    a, h = _complex_stack(rng, (2 * steps + 1, 3, 3)), 1.7 / steps
    assert _rel_dev(_propagator(a, h), complex_propagator(a, h)) < 1e-13


def test_propagator_batched_leading_axis():
    rng = np.random.default_rng(1)
    a, h = _complex_stack(rng, (2, 2 * 300 + 1, 3, 3)), 2.1 / 300
    P = _propagator(a, h)
    assert P.shape == (2, 3, 3)
    assert _rel_dev(P, complex_propagator(a, h)) < 1e-13


def test_propagator_augmented_forcing_generator():
    # 1000 steps end in a partial block
    orbit = _orbit(4, l=1.9)
    forcing, _, _ = _forcing_for(1, "quadratic", orbit)
    ts, h = _nodes(0.0, orbit.l, 1000)
    a = np.zeros((len(ts), 4, 4), dtype=complex)
    a[:, :3, :3], a[:, :3, 3] = M_CONN, -forcing(ts)
    ref = complex_propagator(a, h)
    assert _rel_dev(_propagator(a, h), ref) < 1e-13
    # the real 5x5 generator of the shooting oracle: Re f and Im f in two columns
    P = _propagator(holonomy._forced_generator(forcing, ts), h)
    assert P.dtype == np.float64
    forced = np.concatenate([P[:3, :3], (P[:3, 3] + 1j * P[:3, 4])[:, None]], axis=1)
    assert _rel_dev(forced, ref[:3]) < 1e-13


def test_propagator_keeps_real_input_real():
    rng = np.random.default_rng(2)
    a, h = M_CONN + 0.5 * rng.normal(size=(2 * 300 + 1, 3, 3)), 1.3 / 300
    P = _propagator(a, h)
    assert P.dtype == np.float64
    assert _rel_dev(P, complex_propagator(a, h)) < 1e-13


class _CountingSampler(FourierSampler):
    def __init__(self, l, modes):
        super().__init__(l, modes)
        self.shapes = []

    def __call__(self, t):
        self.shapes.append(np.shape(t))
        return super().__call__(t)


@pytest.mark.parametrize("direction", [cubic_direction, quadratic_direction])
def test_fd_samples_a_direction_in_one_array_call(direction):
    # one array call per level: all 2 * 16 + 1 nodes of the first level, then the
    # n new nodes of each level n
    q = _CountingSampler(1.9, {-1: 0.3, 0: 0.5 - 0.2j, 2: 0.1j})
    eigenvalue_derivative_fd(ConnectionFamily(l=1.9, dD=direction(q)), steps=2048)
    levels = [16 * 2 ** k for k in range(len(q.shapes))]
    assert len(levels) >= 2 and levels[-1] <= 2048
    assert q.shapes == [(2 * 16 + 1,)] + [(n,) for n in levels[1:]]


@pytest.mark.parametrize("modes,first", [({0: 0.5, 40: 0.1j}, 512),
                                         ({-100: 0.1, 1: 0.3}, 1024),
                                         ({0: 0.5, 4096: 0.1}, 1024)])
def test_a_direction_starts_at_a_level_that_resolves_its_modes(modes, first):
    """The first level is the least cap / 2^k with 8 steps on each period of the
    highest |k| (320, 800 and 32,768 steps here), but never above half the cap."""
    q = _CountingSampler(1.9, modes)
    eigenvalue_derivative_fd(ConnectionFamily(l=1.9, dD=quadratic_direction(q)), steps=2048)
    assert q.shapes[0] == (2 * first + 1,)


def test_directions_place_q_and_its_conjugate():
    q = FourierSampler(1.3, {0: 0.4 - 0.7j, 1: 0.2j})
    ts = np.array([0.0, 0.35, 1.0])
    for make, expected in ((cubic_direction, lambda z: [[0, 0, z], [0, 0, 0],
                                                         [4 * np.conj(z), 0, 0]]),
                           (quadratic_direction, lambda z: [[0, z, 0],
                                                            [2 * np.conj(z), 0, z],
                                                            [0, 2 * np.conj(z), 0]])):
        stack = make(q)(ts)
        assert stack.shape == (3, 3, 3)
        for t, m in zip(ts, stack):
            one = make(q)(float(t))
            assert np.array_equal(one, expected(q(float(t))))
            assert np.max(np.abs(m - one)) < 1e-15


def test_per_node_callables_keep_their_parent_values():
    """A gauge-shifted family and a constant lambda are sampled node by node and
    give the complex-arithmetic propagator's values at the level the driver
    stopped at."""
    rng = np.random.default_rng(11)
    orbit = _orbit(11, l=1.6)
    g, gp = _random_periodic_matrix(orbit.l, rng, scale=0.2)
    shifted = ConnectionFamily(l=orbit.l,
                               dD=cubic_direction(orbit.q_alpha)).gauge_shifted(g, gp)
    calls = []
    fd = eigenvalue_derivative_fd(ConnectionFamily(l=orbit.l, dD=_counted(shifted.dD, calls)))
    n = _stop_level(calls, orbit.l)
    ts, h = _nodes(0.0, orbit.l, n)
    d = np.array([shifted.dD(float(t)) for t in ts])
    h_s = 1e-4
    lam_p, lam_m = (top_eigenvalue(complex_propagator(M_CONN + s * d, h))
                    for s in (h_s, -h_s))
    expected = (cmath.log(lam_p) - cmath.log(lam_m)) / (2 * h_s)
    assert abs(fd - expected) < 1e-10
    assert _rel_dev(monodromy(lambda t: M_CONN + 0.1 * shifted.dD(t), orbit.l, n),
                    complex_propagator(M_CONN + 0.1 * d, h)) < 1e-13
    a = M_CONN + 0.1 * d[0]
    v0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    calls = []
    out = parallel_transport(_counted(lambda t: a, calls), v0, orbit.l)
    ts, h = _nodes(0.0, orbit.l, _stop_level(calls, orbit.l))
    exact = complex_propagator(np.broadcast_to(a, (len(ts), 3, 3)), h) @ v0
    assert _rel_dev(out, exact) < 1e-13


@pytest.mark.parametrize("modes", [{3: 0.2 - 0.1j, -2: 1.5j, 0: -0.7, 1: 0.3 + 0.3j},
                                   "random"])
def test_sampler_array_branch_matches_scalar_branch(modes):
    l = 2.7
    q = (FourierSampler.random(l, np.random.default_rng(6), 5, 0.5) if modes == "random"
         else FourierSampler(l, modes))
    ts, _ = _nodes(0.0, l, 512)
    bound = 1e-15 * sum(abs(c) for c in q.modes.values())
    assert max(abs(v - q(float(t))) for v, t in zip(q(ts), ts)) <= bound


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


def test_trace_derivative_rejects_an_aliased_mode():
    """Mode 256 falls on every dyadic grid from 16 to 256 nodes, so those levels
    all agree on 3l; only the shifted confirming grid tells them from 2l."""
    l = 1.7
    fam = ConnectionFamily(l=l, dD=quadratic_direction(FourierSampler(l, {0: 1.0, 256: 0.5})))
    val = trace_derivative(fam)
    assert abs(val - 2 * l) < 1e-10


def test_trace_derivative_non_periodic_family_does_not_converge():
    fam = ConnectionFamily(l=1.7, dD=lambda t: t * np.eye(3))
    with pytest.raises(errors.StepTooLarge):
        trace_derivative(fam)


def test_cli_trace_quadrature_failure_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "cubic_direction", lambda q: (lambda t: t * np.eye(3)))
    config = tmp_path / "holonomy.json"
    config.write_text(json.dumps({"schema": 1, "experiment": "holonomy",
                                  "orbits": {"kind": "zero", "l": 1.7}}))
    assert cli.main(["holonomy", "--config", str(config), "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_mode_on_every_dyadic_grid_exit_3(tmp_path):
    """A mode that every grid up to the node cap divides cannot be resolved."""
    modes = [[0, 1.0, 0.0], [4096, 0.5, 0.0]]
    config = tmp_path / "holonomy.json"
    config.write_text(json.dumps({
        "schema": 1, "experiment": "holonomy",
        "orbits": {"kind": "explicit", "items": [
            {"l": 1.7, "samplers": {name: modes for name in
                                    ("q_alpha", "q_beta", "q_i", "q_j")}}]}}))
    assert cli.main(["holonomy", "--config", str(config), "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("c", ["1e10", "1e100", "1e200", "1e308"])
def test_cli_huge_sampler_coefficient_exit_3_without_traceback(tmp_path, c):
    """An explicit sampler so large that a monodromy, integrand or sample leaves the
    floats is a numerical failure: exit 3, with no traceback and no warning."""
    modes = [[1, float(c), 0.0]]
    run = _cli_holonomy(tmp_path, {"variations": False, "orbits": {
        "kind": "explicit", "items": [{"l": 2.0, "samplers": {"q_alpha": modes,
                                                               "q_i": modes}}]}})
    assert run.returncode == 3, run.stderr
    assert "infinite or NaN" in run.stderr
    assert "Traceback" not in run.stderr and "RuntimeWarning" not in run.stderr


def _cli_holonomy(tmp_path, fields):
    """The holonomy CLI run, in a new interpreter, of a config with these fields."""
    config = tmp_path / "holonomy.json"
    config.write_text(json.dumps({"schema": 1, "experiment": "holonomy", **fields}))
    src = str(Path(thermoflow.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "thermoflow.cli", "holonomy",
                           "--config", str(config), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))


@pytest.mark.parametrize("orbits", [{"kind": "zero", "l": 750}, {"kind": "zero", "l": 800},
                                    {"kind": "zero", "l": 1e300},
                                    {"kind": "random", "count": 3, "l_range": [700, 800]}])
def test_cli_orbit_past_the_float_range_exit_3_without_traceback(tmp_path, orbits):
    """e^l is no float past l of about 709.78: a numerical failure naming the base
    eigenvalue, with no traceback and no warning."""
    run = _cli_holonomy(tmp_path, {"orbits": orbits})
    assert run.returncode == 3, run.stderr
    assert "base eigenvalue" in run.stderr
    assert "Traceback" not in run.stderr and "RuntimeWarning" not in run.stderr


@pytest.mark.parametrize("l", [750.0, 800.0, 1e300])
def test_orbit_past_the_float_range_raises_non_finite_in_process(l):
    """The entry points that form the base eigenvalue e^l name it; the fd and the
    transport overflow in their RK4 propagators."""
    q = FourierSampler(l, {0: 0.3, 1: 0.2j})
    orbit = OrbitData(l=l, q_alpha=q, q_beta=q, q_i=q, q_j=q)
    family = ConnectionFamily(l=l, dD=cubic_direction(q))
    for call in (lambda: trace_derivative(family),
                 lambda: variation_ode_closed_form(1, orbit, "cubic"),
                 lambda: ShootingSolution(1, "cubic", orbit),
                 lambda: ShootingSolution(3, "quadratic", orbit)):
        with pytest.raises(errors.NonFiniteValue, match="base eigenvalue"):
            call()
    for call in (lambda: eigenvalue_derivative_fd(family),
                 lambda: parallel_transport(lambda t: M_CONN, np.ones(3), l)):
        with pytest.raises(errors.NonFiniteValue):
            call()


@pytest.mark.parametrize("c", [1e10, 1e307, 1e308])
def test_huge_sampler_raises_non_finite_in_process(c):
    """Every holonomy entry point names the non-finite array; the suite turns any
    RuntimeWarning into an error, so none is emitted on the way."""
    q = FourierSampler(L, {1: complex(c)})
    orbit = OrbitData(l=L, q_alpha=q, q_beta=q, q_i=q, q_j=q)
    family = ConnectionFamily(l=L, dD=cubic_direction(q))
    with pytest.raises(errors.NonFiniteValue):
        eigenvalue_derivative_fd(family)
    if c > 1e300:
        with pytest.raises(errors.NonFiniteValue):
            trace_derivative(family)
        with pytest.raises(errors.NonFiniteValue):
            ShootingSolution(1, "cubic", orbit)


def test_top_eigenvalue_rejects_a_non_finite_monodromy():
    with pytest.raises(errors.NonFiniteValue, match="the monodromy"):
        top_eigenvalue(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def _fresh_python(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports this checkout's thermoflow."""
    src = str(Path(thermoflow.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    return out.stdout.strip()


def test_import_does_not_load_scipy_integrate():
    code = "import sys, thermoflow, thermoflow.cli; print('scipy.integrate' in sys.modules)"
    assert _fresh_python(code) == "False"


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")) + ["selftest"])
def test_bundled_runs_load_no_scipy(tmp_path, config):
    """Every bundled config and the selftest run on numpy alone: the spectral core
    imports scipy only for operators above `transfer.DENSE_WORDS` words."""
    experiment = config.split("_")[0]
    args = [experiment, "--out", str(tmp_path)]
    if config != "selftest":
        args += ["--config", str(CONFIGS / config)]
    code = (f"import sys; from thermoflow import cli; code = cli.main({args!r}); "
            f"print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code).splitlines()[-1] == "0 []"


def test_package_root_imports_submodules_on_first_read():
    code = ("import sys, thermoflow; "
            "print(sorted(m for m in sys.modules if m.startswith('thermoflow.')), "
            "thermoflow.sft is sys.modules['thermoflow.sft'])")
    assert _fresh_python(code) == "[] True"
    with pytest.raises(AttributeError, match="nope"):
        thermoflow.nope


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
    for i in (1, 2, 3):
        sol = variation_ode_closed_form(i, orbit, "quadratic")
        for t in np.linspace(0.1, orbit.l - 0.1, 5):
            assert sol.ode_residual(float(t)) < 1e-8
        assert sol.boundary_residual() < 1e-8


def test_quadratic_closed_form_other_indices_unsupported():
    orbit = _orbit(8)
    for i, direction in ((4, "quadratic"), (0, "cubic"), (1, "linear")):
        with pytest.raises(errors.UnsupportedCase):
            variation_ode_closed_form(i, orbit, direction)


def test_zero_forcing_gives_zero_variation():
    orbit = OrbitData(l=1.5, q_beta=FourierSampler.zero(1.5),
                      q_alpha=FourierSampler.zero(1.5))
    for i in (1, 2, 3):
        sol = variation_ode_closed_form(i, orbit, "cubic")
        for t in (0.0, 0.7, 1.5):
            assert np.max(np.abs(sol.value(t))) < 1e-13


@pytest.mark.parametrize("i,direction", [(1, "cubic"), (2, "cubic"), (3, "cubic"),
                                         (1, "quadratic"), (2, "quadratic"),
                                         (3, "quadratic")])
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


def _count_sweeps(monkeypatch):
    calls = {"_block_ends": 0, "_propagator": 0}
    for name in calls:
        original = getattr(holonomy, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(holonomy, name, counted)
    return calls


def test_shooting_grid_values_need_no_second_sweep(monkeypatch):
    orbit = _orbit(12, l=1.6)
    calls = _count_sweeps(monkeypatch)
    shot = ShootingSolution(1, "cubic", orbit)
    assert calls == {"_block_ends": 1, "_propagator": 0}
    shot.values_on_grid(np.linspace(0.0, orbit.l, 5))
    assert calls == {"_block_ends": 1, "_propagator": 0}
    shot.value(0.3)  # off the block ends: RK4 over the rest of one block
    assert calls == {"_block_ends": 2, "_propagator": 1}


def test_shooting_short_last_block(monkeypatch):
    # 1000 steps: blocks end at 256, 512, 768 and 1000 steps
    orbit = _orbit(14, l=1.7)
    closed = variation_ode_closed_form(2, orbit, "cubic")
    shot = ShootingSolution(2, "cubic", orbit, steps=1000)
    h = orbit.l / 1000
    for t in (768.5 * h, 900.3 * h, 999.9 * h, orbit.l):
        assert np.max(np.abs(shot.value(t) - closed.value(t))) < 1e-6
    calls = _count_sweeps(monkeypatch)
    yl = shot.value(orbit.l)
    assert calls == {"_block_ends": 0, "_propagator": 0}
    assert np.array_equal(yl, holonomy._affine(shot._ends[-1], shot.y0))


def test_shooting_times_in_any_order_and_negative():
    orbit = _orbit(15, l=1.8, modes=3)
    for i, direction in [(1, "cubic"), (3, "quadratic")]:
        closed = variation_ode_closed_form(i, orbit, direction)
        shot = ShootingSolution(i, direction, orbit)
        ts = [1.0, 0.5, orbit.l, 0.0, -0.5, -2.3, 0.5]
        vals = shot.values_on_grid(ts)
        assert np.max(np.abs(vals - closed.values_on_grid(ts))) < 1e-9
        for t, v in zip(ts, vals):
            assert np.array_equal(shot.value(t), v)


@pytest.mark.parametrize("steps", [2.5, 0, -4, 64.0, True, None])
def test_rk4_steps_must_be_a_positive_int(steps):
    orbit = _orbit(16)
    fam = ConnectionFamily(l=orbit.l, dD=cubic_direction(orbit.q_beta))
    for call in (lambda: ShootingSolution(1, "cubic", orbit, steps=steps),
                 lambda: parallel_transport(lambda t: M_CONN, np.ones(3), 1.0, steps=steps),
                 lambda: monodromy(lambda t: M_CONN, 1.0, steps=steps),
                 lambda: eigenvalue_derivative_fd(fam, steps=steps)):
        with pytest.raises(ValueError, match="positive integer"):
            call()


def test_single_mode_forcing_against_shooting():
    l = 2.0
    orbit = OrbitData(l=l, q_alpha=FourierSampler(l, {0: 0.3}),
                      q_beta=FourierSampler(l, {1: 1.0}))
    closed = variation_ode_closed_form(1, orbit, "cubic")
    shot = ShootingSolution(1, "cubic", orbit)
    for t in np.linspace(0.0, l, 9):
        assert np.max(np.abs(closed.value(float(t)) - shot.value(float(t)))) < 1e-6


# ------------------------------------------------- kernels against quadrature

def _quad_sum(f, a, b, piece):
    """int_a^b f by quad on pieces of length at most `piece`."""
    edges = np.linspace(a, b, max(1, math.ceil(abs(b - a) / piece)) + 1)
    return sum(integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


def _quad_kernel(q, rate, t):
    """-int_R e^{-r |t - s|} q(s) ds by quad over |s - t| <= 40 / r, whose tail is
    below e^{-40} sum |c_k| / r."""
    piece, window = min(q.l, 1.0), 40.0 / rate
    parts = [sum(_quad_sum(lambda s: math.exp(-rate * abs(t - s)) * part(q(s)), a, b, piece)
                 for a, b in ((t - window, t), (t, t + window)))
             for part in (np.real, np.imag)]
    return -complex(*parts)


def _quad_eta(orbit, T):
    """eta_cc's value with both truncated integrals by quad."""
    qa0, qb = orbit.q_alpha(0.0), orbit.q_beta

    def two_sided(rate, part):
        f = lambda s: math.exp(-rate * abs(s)) * part(qb(s))
        return sum(_quad_sum(f, a, b, min(orbit.l, 1.0)) for a, b in ((-T, 0.0), (0.0, T)))

    return -qa0.real * two_sided(2, np.real) - 2.0 * qa0.imag * two_sided(1, np.imag)


def _kernel_orbit(seed):
    """A random orbit with l in [0.5, 8] (l = 8 at seed 0) and 0 to 3 modes, and the
    scale sum |c_k(q_alpha)| (sum |c_k(q_beta)| + sum |c_k(q_i)|) of its kernels."""
    rng = np.random.default_rng(seed)
    l = 8.0 if seed == 0 else float(rng.uniform(0.5, 8.0))
    n = int(rng.integers(0, 4))
    orbit = OrbitData(l=l, **{name: FourierSampler.random(l, rng, n, 0.5)
                              for name in ("q_alpha", "q_beta", "q_i")})
    size = lambda q: sum(abs(c) for c in q.modes.values())
    return orbit, size(orbit.q_alpha) * (size(orbit.q_beta) + size(orbit.q_i))


@pytest.mark.parametrize("seed", range(8))
def test_second_variation_kernels_match_quad(seed):
    orbit, scale = _kernel_orbit(seed)
    for t in (0.0, 0.37 * orbit.l, orbit.l):
        qa = orbit.q_alpha(t)
        cc = qa.real * _quad_kernel(orbit.q_beta, 2, t).real \
            + 2.0 * qa.imag * _quad_kernel(orbit.q_beta, 1, t).imag
        cq = 2.0 * qa.imag * _quad_kernel(orbit.q_i, 1, t).imag
        assert abs(second_variation_trace_cc(orbit, t) - cc) <= 1e-12 * scale
        assert abs(second_variation_trace_cq(orbit, t) - cq) <= 1e-12 * scale


@pytest.mark.parametrize("seed", range(6))
def test_eta_matches_quad(seed):
    orbit, scale = _kernel_orbit(seed)
    for T in (0.7 * orbit.l, orbit.l, 3.0 * orbit.l):
        assert abs(eta_cc(orbit, T)[0] - _quad_eta(orbit, T)) <= 1e-12 * scale


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
    shooting = [ShootingSolution(i, "quadratic", orbit) for i in (1, 2, 3)]
    for paths in (shooting, None):  # None: the closed-form default
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


@pytest.mark.parametrize("psi", [psi_cc, psi_cq])
def test_psi_rejects_a_horizon_that_is_not_whole_traversals(psi):
    orbit = _orbit(19, l=1.2)
    for r in (1.5 * orbit.l, 0.0, -orbit.l, math.nan, math.inf):
        with pytest.raises(ValueError, match="whole number"):
            psi(orbit, r)


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
    q = _orbit(25, l=2.2).q_alpha
    ts = np.linspace(0.0, q.l, 16, endpoint=False)
    assert float(np.max(np.abs(q(ts + q.l) - q(ts)))) < 1e-12


@pytest.mark.parametrize("modes", [
    "dense", {-7: 1 + 2j, 0: 0.5, 5: -1j}, {3: 2 - 1j}, {1000: 0.75 + 0.25j},
    {-150: 1.0, 150: 1j}, {}], ids=["dense", "sparse", "single", "far", "wide", "empty"])
def test_sampler_horner_matches_per_mode_oracle(modes):
    """Bound: 1e-15 per unit of sum |c_k|, times the largest phase 2 pi |k t| / l that
    a per-mode exp rounds (the oracle's own error grows with it)."""
    rng = np.random.default_rng(18)
    q = (FourierSampler.random(2.3, rng, 5, 0.8) if modes == "dense"
         else FourierSampler(1.7, modes))
    ts = np.concatenate([rng.uniform(-5.0, 5.0, 200), np.linspace(0.0, q.l, 65)])
    k_max = max((abs(k) for k in q.modes), default=0)
    bound = 1e-15 * (1 + sum(abs(c) for c in q.modes.values())) \
        * (1 + 2 * math.pi * k_max * 5.0 / q.l)
    values = q(ts)
    assert values.shape == ts.shape and values.dtype == complex
    assert np.max(np.abs(values - per_mode_sampler(q, ts))) <= bound
    assert q(ts.reshape(5, 53)).shape == (5, 53)
    for t in (0.3, -4.1):
        at_float, at_0d = q(t), q(np.array(t))
        assert type(at_float) is complex and type(at_0d) is complex
        assert abs(at_float - complex(per_mode_sampler(q, t))) <= bound
        assert abs(at_0d - at_float) <= bound


def test_eta_approaches_psi_geometrically():
    orbit = _orbit(21, l=1.2)
    psi_val = psi_cc(orbit, orbit.l)
    errs = []
    for k in (1, 2, 3, 4, 5, 6):
        val, _ = eta_cc(orbit, k * orbit.l)
        errs.append(abs(val - psi_val))
    rate = (errs[-1] / errs[0]) ** (1 / 5)
    assert rate <= math.exp(-orbit.l) * 1.1
