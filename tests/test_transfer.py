import math

import numpy as np
import pytest

from thermoflow import errors, transfer
from thermoflow.correlations import EquilibriumContext
from thermoflow.sft import (coboundary, constant_function, full_shift, golden_mean_shift,
                            new_sft, random_function)
from thermoflow.transfer import (_perron, equilibrium_measure, normalization_defect,
                                 normalize_potential, pressure, rpf, ruelle_matrix,
                                 stationary_vector)

PHI = (1 + math.sqrt(5)) / 2


def test_ruelle_matrix_full_shift_zero_potential():
    s = full_shift(2)
    rm = ruelle_matrix(s, constant_function(s, 0.0))
    assert np.allclose(rm.matrix.toarray(), [[1, 1], [1, 1]])


def test_ruelle_matrix_golden_mean_is_transition_transpose():
    s = golden_mean_shift()
    rm = ruelle_matrix(s, constant_function(s, 0.0))
    assert np.allclose(rm.matrix.toarray(), np.array(s.transition).T)


def test_ruelle_matrix_constant_scaling():
    s = full_shift(2)
    c = 0.37
    base = ruelle_matrix(s, constant_function(s, 0.0)).matrix.toarray()
    scaled = ruelle_matrix(s, constant_function(s, c)).matrix.toarray()
    assert np.allclose(scaled, math.exp(c) * base)


def test_ruelle_matrix_requires_mixing():
    s = new_sft([[1, 0], [0, 1]])
    with pytest.raises(errors.NotMixing):
        ruelle_matrix(s, constant_function(s, 0.0))


def test_rpf_full_shift():
    s = full_shift(2)
    data = rpf(s, constant_function(s, 0.0))
    assert data.rho == pytest.approx(2.0, abs=1e-12)
    assert data.pressure == pytest.approx(math.log(2), abs=1e-12)
    h = list(data.eigenfunction.values.values())
    assert max(h) - min(h) < 1e-12
    nu = list(data.adjoint_measure.values())
    assert nu == pytest.approx([0.5, 0.5], abs=1e-12)
    assert data.gap_estimate < 1e-10


def test_rpf_golden_mean_eigenvalue():
    s = golden_mean_shift()
    data = rpf(s, constant_function(s, 0.0))
    assert data.rho == pytest.approx(PHI, abs=1e-11)
    assert data.residual < 1e-10


def test_rpf_constant_scaling():
    s = full_shift(2)
    c = -0.8
    data = rpf(s, constant_function(s, c))
    assert data.rho == pytest.approx(2 * math.exp(c), abs=1e-11)


def test_pressure_full_shifts():
    for n in (2, 3, 4):
        s = full_shift(n)
        assert pressure(s, constant_function(s, 0.0)) == pytest.approx(math.log(n), abs=1e-11)


def test_pressure_invariant_under_coboundary():
    s = golden_mean_shift()
    rng = np.random.default_rng(11)
    w = random_function(s, 2, rng, scale=0.4)
    v = random_function(s, 2, rng, scale=0.5)
    p1 = pressure(s, w)
    p2 = pressure(s, w + coboundary(v))
    assert abs(p1 - p2) < 1e-9


def test_pressure_invariant_under_depth_promotion():
    s = golden_mean_shift()
    w = random_function(s, 2, np.random.default_rng(5), scale=0.3)
    assert pressure(s, w) == pytest.approx(pressure(s, w.promote(4)), abs=1e-10)


def test_normalize_full_shift_zero():
    s = full_shift(2)
    data = rpf(s, constant_function(s, 0.0))
    wn = normalize_potential(s, constant_function(s, 0.0), data)
    vals = list(wn.values.values())
    assert vals == pytest.approx([-math.log(2)] * len(vals), abs=1e-12)


def test_normalize_shifts_already_normalized_by_pressure():
    s = full_shift(3)
    w = constant_function(s, 0.2)
    data = rpf(s, w)
    wn = normalize_potential(s, w, data)
    # h is constant, so w' = w - P(w)
    expected = 0.2 - data.pressure
    assert all(abs(v - expected) < 1e-12 for v in wn.values.values())


def test_normalize_random_row_sums():
    s = golden_mean_shift()
    w = random_function(s, 2, np.random.default_rng(23), scale=0.6)
    wn = normalize_potential(s, w, rpf(s, w))
    assert normalization_defect(s, wn) < 1e-10
    assert pressure(s, wn) == pytest.approx(0.0, abs=1e-10)


def test_equilibrium_full_shift_uniform():
    s = full_shift(2)
    m = equilibrium_measure(s, constant_function(s, 0.0))
    assert m.weights[(0,)] == pytest.approx(0.5, abs=1e-12)
    assert m.invariance_defect() < 1e-12


def test_equilibrium_golden_mean_parry():
    s = golden_mean_shift()
    m = equilibrium_measure(s, constant_function(s, 0.0))
    # Parry measure from the explicit eigenvectors of [[1,1],[1,0]]
    expected = PHI ** 2 / (1 + PHI ** 2)
    assert m.weights[(0,)] == pytest.approx(expected, abs=1e-11)


def test_equilibrium_invariance_random_potential():
    s = golden_mean_shift()
    w = random_function(s, 2, np.random.default_rng(31), scale=0.5)
    m = equilibrium_measure(s, w)
    assert m.invariance_defect() < 1e-11
    assert sum(m.weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_rpf_json_report():
    import json
    s = golden_mean_shift()
    data = rpf(s, constant_function(s, 0.0))
    blob = json.loads(data.to_json())
    assert blob["rho"] == pytest.approx(PHI, abs=1e-11)
    assert set(blob["adjoint_measure"]) == {"0", "1"}


def test_markov_measure_json():
    import json
    s = golden_mean_shift()
    m = equilibrium_measure(s, constant_function(s, 0.0))
    blob = json.loads(m.to_json())
    assert abs(blob["0"] - PHI ** 2 / (1 + PHI ** 2)) < 1e-10


def test_equilibrium_constant_potential_same_measure():
    s = golden_mean_shift()
    m0 = equilibrium_measure(s, constant_function(s, 0.0))
    mc = equilibrium_measure(s, constant_function(s, 1.3))
    for w in m0.weights:
        assert m0.weights[w] == pytest.approx(mc.weights[w], abs=1e-11)


def test_duality_transpose_consistency():
    """<L f, g>_m = <f, g o sigma>_m for the normalized operator."""
    s = golden_mean_shift()
    rng = np.random.default_rng(42)
    w = random_function(s, 2, rng, scale=0.4)
    wn = normalize_potential(s, w, rpf(s, w))
    f = random_function(s, 3, rng)
    g = random_function(s, 3, rng)
    rm = ruelle_matrix(s, wn, depth=4)
    m4 = stationary_vector(rm)
    rm5 = ruelle_matrix(s, wn, depth=5)
    m5 = stationary_vector(rm5)
    lhs = m4 @ ((rm.matrix @ rm.vector_of(f)) * rm.vector_of(g))
    gs = g.compose_shift()
    rhs = m5 @ (rm5.vector_of(f) * rm5.vector_of(gs))
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_adjoint_invariance_of_equilibrium():
    s = golden_mean_shift()
    rng = np.random.default_rng(9)
    w = random_function(s, 2, rng, scale=0.5)
    wn = normalize_potential(s, w, rpf(s, w))
    rm = ruelle_matrix(s, wn)
    m = stationary_vector(rm)
    assert np.abs(rm.matrix.T @ m - m).sum() < 1e-10


def _random_markov_measure(s, depth, rng):
    """Random sigma-invariant Markov measure on depth-words with its entropy."""
    from thermoflow.sft import admissible_words
    words = admissible_words(s, depth)
    index = {w: i for i, w in enumerate(words)}
    # random conditional transition probabilities between overlapping windows
    probs = {}
    for w in words:
        succ = [w[1:] + (b,) for b in s.successors(w[-1])]
        raw = rng.uniform(0.2, 1.0, size=len(succ))
        raw /= raw.sum()
        probs[w] = dict(zip(succ, raw))
    # stationary vector by power iteration
    p = np.full(len(words), 1.0 / len(words))
    for _ in range(4000):
        q = np.zeros_like(p)
        for w, row in probs.items():
            for v, pr in row.items():
                q[index[v]] += p[index[w]] * pr
        if np.abs(q - p).max() < 1e-15:
            p = q
            break
        p = q
    weights = {w: p[index[w]] for w in words}
    entropy = -sum(p[index[w]] * pr * math.log(pr)
                   for w, row in probs.items() for pr in row.values())
    return weights, entropy


def test_variational_principle_cross_check():
    s = golden_mean_shift()
    rng = np.random.default_rng(77)
    w = random_function(s, 2, rng, scale=0.5)
    P = pressure(s, w)
    # random invariant measures never beat the supremum
    for _ in range(10):
        weights, entropy = _random_markov_measure(s, 2, rng)
        integral = sum(weights[u] * w.values[u] for u in weights)
        assert P >= entropy + integral - 1e-9
    # the equilibrium measure attains it
    data = rpf(s, w)
    wn = normalize_potential(s, w, data)
    rm = ruelle_matrix(s, wn, depth=3)
    m3 = stationary_vector(rm)
    rm4 = ruelle_matrix(s, wn, depth=4)
    m4 = stationary_vector(rm4)
    cond_entropy = 0.0
    idx3 = {u: i for i, u in enumerate(rm.words)}
    for j, u in enumerate(rm4.words):
        if m4[j] <= 0:
            continue
        pr = m4[j] / m3[idx3[u[:-1]]]
        cond_entropy -= m4[j] * math.log(pr)
    w3 = rm.vector_of(w)
    integral = float(m3 @ w3)
    assert P == pytest.approx(cond_entropy + integral, abs=1e-6)


def _random_mixing_shift(rng, n):
    while True:
        t = (rng.uniform(size=(n, n)) < 0.6).astype(int)
        if t.sum(axis=0).all() and t.sum(axis=1).all() and new_sft(t.tolist()).is_mixing:
            return new_sft(t.tolist())


@pytest.mark.parametrize("seed", range(6))
def test_perron_dense_and_arpack_agree(monkeypatch, seed):
    """Both branches of the spectral core on the same matrices, to 1e-12."""
    rng = np.random.default_rng([seed, 2026])
    s = _random_mixing_shift(rng, 3 + seed % 2)
    for depth in (2, 3):
        rm = ruelle_matrix(s, random_function(s, depth, rng, scale=0.6))
        monkeypatch.setattr(transfer, "DENSE_WORDS", 10 ** 6)
        dense = _perron(rm.matrix)
        monkeypatch.setattr(transfer, "DENSE_WORDS", 0)
        arpack = _perron(rm.matrix)
        rho, h, nu, ratio = dense
        assert arpack[0] == pytest.approx(rho, abs=1e-12 * rho)
        assert np.max(np.abs(arpack[1] - h)) < 1e-12
        assert np.max(np.abs(arpack[2] - nu)) < 1e-12
        assert arpack[3] == pytest.approx(ratio, abs=1e-12)
        assert np.all(h > 0) and np.all(nu > 0)
        assert nu.sum() == pytest.approx(1.0, abs=1e-14)
        assert nu @ h == pytest.approx(1.0, abs=1e-12)


def _eigvals_ratio(matrix):
    lam = sorted(np.linalg.eigvals(matrix.toarray()), key=abs, reverse=True)
    return abs(lam[1]) / abs(lam[0]), lam[1]


def test_gap_is_exact_second_modulus_with_complex_lambda2():
    s = golden_mean_shift()
    rng = np.random.default_rng(5)
    for _ in range(7):
        w = random_function(s, 3, rng, scale=0.8)
    exact, lam2 = _eigvals_ratio(ruelle_matrix(s, w).matrix)
    assert abs(lam2.imag) > 0.1
    assert exact == pytest.approx(0.6238, abs=1e-4)
    data = rpf(s, w)
    assert data.gap_estimate == pytest.approx(exact, abs=1e-12)
    ctx = EquilibriumContext(s, normalize_potential(s, w, data))
    assert ctx.gap == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_gap_matches_eigvals_on_random_shifts(seed):
    rng = np.random.default_rng([seed, 7])
    s = _random_mixing_shift(rng, 3)
    w = random_function(s, 2, rng, scale=0.7)
    data = rpf(s, w)
    exact, _ = _eigvals_ratio(ruelle_matrix(s, w).matrix)
    assert data.gap_estimate == pytest.approx(exact, abs=1e-12)
    ctx = EquilibriumContext(s, normalize_potential(s, w, data))
    assert ctx.gap == pytest.approx(_eigvals_ratio(ctx.rm.matrix)[0], abs=1e-12)
