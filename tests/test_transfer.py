import math
import re

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import SHIFTS as SHIFT_BUILDERS, coo_ruelle_matrix, dense, stationary_vector
from thermoflow import errors, sft, transfer
from thermoflow.correlations import EquilibriumContext
from thermoflow.derivatives import _prepare
from thermoflow.sft import (DepthKFunction, coboundary, constant_function, full_shift,
                            golden_mean_shift, new_sft, random_function)
from thermoflow.transfer import (_perron, equilibrium_measure, normalize_potential,
                                 pressure, rpf, ruelle_matrix)

PHI = (1 + math.sqrt(5)) / 2


def test_ruelle_matrix_full_shift_zero_potential():
    s = full_shift(2)
    rm = ruelle_matrix(s, constant_function(s, 0.0))
    assert np.allclose(dense(rm.matrix), [[1, 1], [1, 1]])


def test_ruelle_matrix_golden_mean_is_transition_transpose():
    s = golden_mean_shift()
    rm = ruelle_matrix(s, constant_function(s, 0.0))
    assert np.allclose(dense(rm.matrix), np.array(s.transition).T)


def test_ruelle_matrix_constant_scaling():
    s = full_shift(2)
    c = 0.37
    base = dense(ruelle_matrix(s, constant_function(s, 0.0)).matrix)
    scaled = dense(ruelle_matrix(s, constant_function(s, c)).matrix)
    assert np.allclose(scaled, math.exp(c) * base)


def test_ruelle_matrix_requires_mixing():
    s = new_sft([[1, 0], [0, 1]])
    with pytest.raises(errors.NotMixing):
        ruelle_matrix(s, constant_function(s, 0.0))


def _random_mixing_shift(rng, n):
    while True:
        t = (rng.uniform(size=(n, n)) < 0.6).astype(int)
        if t.sum(axis=0).all() and t.sum(axis=1).all() and new_sft(t.tolist()).is_mixing:
            return new_sft(t.tolist())


def _shift(name):
    if name == "golden":
        return golden_mean_shift()
    if name.startswith("full"):
        return full_shift(int(name[4:]))
    s = _random_mixing_shift(np.random.default_rng(2718), 3)
    assert not all(all(row) for row in s.transition)
    return s


SHIFTS = ["golden", "full2", "full3", "full4", "random"]


@pytest.mark.parametrize("name", SHIFTS)
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_ruelle_matrix_is_bit_identical_to_the_per_edge_build(name, depth):
    """The cached pattern plus one exp per word of w gives the per-edge COO build
    exactly, dense up to DENSE_WORDS words and CSR above: for a potential of the
    matrix's depth, for a depth-1 one lifted by depth=, and for one a level
    deeper, whose weights sit on the edges."""
    s = _shift(name)
    rng = np.random.default_rng([depth, 31])
    for w, kw in ((random_function(s, depth, rng), {}),
                  (random_function(s, 1, rng), {"depth": depth}),
                  (random_function(s, depth + 1, rng), {"depth": depth})):
        words, oracle = coo_ruelle_matrix(s, w, **kw)
        rm = ruelle_matrix(s, w, **kw)
        assert rm.depth == depth and rm.words == words
        assert isinstance(rm.matrix, np.ndarray) == (len(words) <= transfer.DENSE_WORDS)
        assert np.array_equal(dense(rm.matrix), oracle.toarray())


@pytest.mark.parametrize("value,what", [(800.0, "overflows a float"),
                                        (-800.0, "underflows to zero"),
                                        (math.inf, "is not finite"),
                                        (math.nan, "is not finite")])
def test_ruelle_matrix_potential_overflow_names_the_word(value, what):
    s = full_shift(2)
    w = DepthKFunction(s, 1, {(0,): 0.0, (1,): value})
    with pytest.raises(errors.PotentialOverflow, match=rf"{what} at word \(1, 0\): "
                                                       rf"w = {value}"):
        ruelle_matrix(s, w, depth=2)


@pytest.mark.parametrize("value,what", [(800.0, "overflows a float"),
                                        (-800.0, "underflows to zero")])
@pytest.mark.parametrize("depth,word", [(1, "(1, 0)"), (3, "(1, 0, 0)")])
def test_ruelle_matrix_potential_overflow_on_the_edge_path_names_the_word(value, what,
                                                                          depth, word):
    """A depth-2 potential at depth 1 weighs edges, which are its own words; at
    depth 3 the first 3-word that carries the weight is named."""
    s = full_shift(2)
    w = DepthKFunction(s, 2, {(0, 0): 0.0, (0, 1): 0.0, (1, 0): value, (1, 1): 0.0})
    with pytest.raises(errors.PotentialOverflow,
                       match=rf"{what} at word {re.escape(word)}: w = {value}"):
        ruelle_matrix(s, w, depth=depth)


@pytest.mark.parametrize("name", SHIFTS)
@pytest.mark.parametrize("depth", [2, 3, 4])
def test_minimal_ruelle_matrix_has_the_nonzero_spectrum_of_the_depth_of_w(name, depth):
    """Every eigenvalue of modulus above 1e-6 rho at depth(w) - 1 is one at
    depth(w) and back, within 1e-12 rho. A singular minimal matrix has nilpotent
    blocks at depth(w), whose zero eigenvalues the eigensolver returns at up to
    sqrt(eps) rho (2e-9 rho on the random shift), hence the threshold."""
    s = _shift(name)
    w = random_function(s, depth, np.random.default_rng([depth, 23]), scale=0.7)
    low, full = ruelle_matrix(s, w, depth=depth - 1), ruelle_matrix(s, w)
    assert (low.depth, full.depth) == (depth - 1, depth)
    a, b = (np.linalg.eigvals(dense(rm.matrix)) for rm in (low, full))
    rho = np.max(np.abs(a))
    a, b = a[np.abs(a) > 1e-6 * rho], b[np.abs(b) > 1e-6 * rho]
    assert len(a) == len(b) > 0
    rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
    assert np.max(np.abs(a[rows] - b[cols])) <= 1e-12 * rho


def _dense_rpf(matrix):
    """(rho, h, nu, ratio) from numpy eigendecompositions of a matrix and its
    transpose, normalized as `rpf` normalizes: sum(nu) = 1, <nu, h> = 1."""
    a = dense(matrix)
    lam, right = np.linalg.eig(a)
    lam_t, left = np.linalg.eig(a.T)
    order = np.argsort(-np.abs(lam))
    rho = float(lam[order[0]].real)
    nu = np.real(left[:, np.argmax(np.abs(lam_t))])
    nu = nu / nu.sum()
    h = np.real(right[:, order[0]])
    return rho, h / (nu @ h), nu, float(np.abs(lam[order[1]]) / rho)


# (shift, depth(w), requested depth K) for K up to depth(w) + 3, where the dense
# oracle has at most 256 words
RPF_CASES = [(name, wdepth, depth) for name in SHIFTS for wdepth in range(1, 5)
             for depth in range(wdepth, wdepth + 4) if _shift(name).word_count(depth) <= 256]


@pytest.mark.parametrize("name,wdepth,depth", RPF_CASES)
def test_rpf_lifted_from_the_minimal_solve_matches_a_dense_solve_at_its_depth(name, wdepth,
                                                                              depth):
    """rho, h and nu at depth K against a dense decomposition of the depth-K matrix
    (bit-identical to the per-edge build), within 1e-13 relative; the mass of nu
    and <nu, h> within 1e-13 of 1. The gap is checked against the depth(w) matrix,
    within 1e-13: a deeper dense matrix returns the nilpotent part's zero
    eigenvalues at up to eps^(1/K) rho (9.5e-5 for a depth-1 potential on the
    full 4-shift at K = 4, where the exact gap is 0)."""
    s = _shift(name)
    w = random_function(s, wdepth, np.random.default_rng([wdepth, 19]), scale=0.7)
    rm = ruelle_matrix(s, w, depth=depth)
    rho, h, nu, _ = _dense_rpf(rm.matrix)
    data = rpf(s, w, depth=depth)
    assert data.depth == depth
    got_h = np.array([data.eigenfunction.values[u] for u in rm.words])
    got_nu = np.array([data.adjoint_measure[u] for u in rm.words])
    assert abs(data.rho - rho) <= 1e-13 * rho
    assert data.pressure == pytest.approx(math.log(rho), abs=1e-13)
    assert np.max(np.abs(got_h - h)) <= 1e-13 * np.max(h)
    assert np.max(np.abs(got_nu - nu)) <= 1e-13 * np.max(nu)
    assert abs(got_nu.sum() - 1.0) <= 1e-13
    assert abs(got_nu @ got_h - 1.0) <= 1e-13
    assert abs(data.gap_estimate - _dense_rpf(ruelle_matrix(s, w).matrix)[3]) <= 1e-13


def test_ruelle_matrices_of_one_shift_and_depth_share_no_arrays():
    """Writing one matrix's entries or edge weights leaves the other and later builds
    alone: 5 golden-mean words (dense) and 128 full-2-shift words (CSR). The
    weights are the entries on the edges, in the order of the (depth+1)-words."""
    for s, depth in ((golden_mean_shift(), 3), (full_shift(2), 7)):
        w = random_function(s, depth, np.random.default_rng(4))
        a, b = ruelle_matrix(s, w), ruelle_matrix(s, w)

        def arrays(rm):
            mat = rm.matrix
            parts = [mat] if isinstance(mat, np.ndarray) else [mat.data, mat.indices,
                                                              mat.indptr]
            return parts + [rm.weights]

        for x, y in zip(arrays(a), arrays(b)):
            assert not np.shares_memory(x, y)
        for x in arrays(a):
            x[:] = 7
        _, oracle = coo_ruelle_matrix(s, w)
        table = sft._word_table(s, depth + 1)
        head, tail = table.head, table.tail
        for rm in (b, ruelle_matrix(s, w)):
            assert np.array_equal(dense(rm.matrix), oracle.toarray())
            assert np.array_equal(dense(rm.matrix)[tail, head], rm.weights)


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
    assert ruelle_matrix(s, wn).normalization_defect() < 1e-10
    assert pressure(s, wn) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("name,depth", [("golden", 1), ("golden", 3), ("full2", 2),
                                        ("full3", 4), ("mixing3", 3)])
def test_normalized_potential_takes_log_h_on_the_minimal_words(name, depth):
    """w' has depth max(depth(w), 2), and promoted one level it equals, bit for bit,
    w + log h - log h o sigma - P formed from h at depth(w), one level deeper."""
    s = SHIFT_BUILDERS[name]()
    w = random_function(s, depth, np.random.default_rng(depth), scale=0.5)
    data = rpf(s, w)
    wn = normalize_potential(s, w, data)
    log_h = data.eigenfunction.map(lambda x: math.log(x.real))
    deep = w + log_h - log_h.compose_shift() - data.pressure
    assert wn.depth == max(depth, 2)
    assert np.array_equal(wn.promote(deep.depth).array, deep.array)


def invariance_defect(m) -> float:
    """Max over (depth-1)-words u of |sum_a m(a u) - sum_b m(u b)| for a MarkovMeasure."""
    left: dict = {}
    right: dict = {}
    for w, mass in m.weights.items():
        left[w[1:]] = left.get(w[1:], 0.0) + mass
        right[w[:-1]] = right.get(w[:-1], 0.0) + mass
    return max(abs(left.get(u, 0.0) - right.get(u, 0.0)) for u in set(left) | set(right))


def test_equilibrium_full_shift_uniform():
    s = full_shift(2)
    m = equilibrium_measure(s, constant_function(s, 0.0))
    assert m.weights[(0,)] == pytest.approx(0.5, abs=1e-12)
    assert invariance_defect(m) < 1e-12


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
    assert invariance_defect(m) < 1e-11
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


@pytest.mark.parametrize("seed", range(6))
def test_perron_dense_and_arpack_agree(monkeypatch, seed):
    """Both branches of the spectral core on the same matrices, to 1e-12."""
    rng = np.random.default_rng([seed, 2026])
    s = _random_mixing_shift(rng, 3 + seed % 2)
    for depth in (2, 3):
        rm = ruelle_matrix(s, random_function(s, depth, rng, scale=0.6))
        monkeypatch.setattr(transfer, "DENSE_WORDS", 10 ** 6)
        eig = _perron(dense(rm.matrix))
        monkeypatch.setattr(transfer, "DENSE_WORDS", 0)
        arpack = _perron(rm.matrix)
        rho, h, nu, ratio = eig
        assert arpack[0] == pytest.approx(rho, abs=1e-12 * rho)
        assert np.max(np.abs(arpack[1] - h)) < 1e-12
        assert np.max(np.abs(arpack[2] - nu)) < 1e-12
        assert arpack[3] == pytest.approx(ratio, abs=1e-12)
        assert np.all(h > 0) and np.all(nu > 0)
        assert nu.sum() == pytest.approx(1.0, abs=1e-14)
        assert nu @ h == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1, 2, 3, 5])
@pytest.mark.parametrize("name", ["golden", "full2", "full3"])
def test_perron_vectors_are_accurate_entry_by_entry(name, scale):
    """Potentials with a range of several units make h span up to 3e17; an
    eigensolver alone leaves an error near eps max(h) in every entry, which turned
    small entries nonpositive or left w' unnormalized (7 of the 180 cases of the
    three shifts at scale 3, 28 at scale 5). Refined, every h is positive, and the
    normalized potential of each depth-2..4 potential, 20 seeds each, has row sums
    within 5e-14 of 1, far inside `require_normalized`'s 1e-8."""
    s = _shift(name)
    for depth in (2, 3, 4):
        for seed in range(20):
            w = random_function(s, depth, np.random.default_rng(seed), scale=scale)
            base = _prepare(w, depth)
            assert min(base.data.eigenfunction.values.values()) > 0
            assert base.ctx.rm.normalization_defect() <= 5e-14


def _eigvals_ratio(matrix):
    lam = sorted(np.linalg.eigvals(dense(matrix)), key=abs, reverse=True)
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


def test_gap_is_at_most_one_where_lambda_2_ties_rho():
    """On the golden mean, e^w on the edges 00, 01 and 10 spans e^-52 to e^137, so the
    cycle 01 10 dominates and the eigenvalues +-rho tie in modulus; their computed
    ratio rounds to 1.0000000000000002, and by Perron-Frobenius (|lambda| <= rho for
    a nonnegative matrix) the reported ratio is 1."""
    s = golden_mean_shift()
    w = DepthKFunction(s, 2, {(0, 0): -51.89510070359056, (0, 1): 58.10862757598184,
                              (1, 0): 136.58448809963667})
    lam = np.linalg.eigvals(dense(ruelle_matrix(s, w, depth=1).matrix))
    rho = lam.real.max()
    assert np.abs(lam[lam.real < rho]).max() / rho > 1.0
    assert rpf(s, w).gap_estimate == 1.0


def _golden_depth15_draw(seed):
    """A depth-2 golden-mean potential with |lambda_2| / rho in [0.36, 0.42] plus
    5e-3 times a depth-15 normal draw: the spectral-large golden-mean input."""
    s = golden_mean_shift()
    rng = np.random.default_rng(seed)
    while True:
        w2 = DepthKFunction(s, 2, rng.normal(0.0, 0.3, s.word_count(2)))
        lam = np.sort(np.abs(np.linalg.eigvals(ruelle_matrix(s, w2, depth=2).matrix)))
        if 0.36 <= lam[-2] / lam[-1] <= 0.42:
            break
    return s, w2 + DepthKFunction(s, 15, rng.normal(0.0, 1.0, s.word_count(15))) * 5e-3


@pytest.mark.parametrize("seed", [5, 7, 11])
def test_arpack_converges_on_golden_depth15_draws_with_a_ring_spectrum(seed):
    """The subdominant spectrum of these draws is a ring, on which ARPACK's k = 2
    solve with its default 20 Lanczos vectors raised NoConvergence; with 40 each
    pressure is within 1e-12 of the dense eigvals of the 987 minimal words."""
    s, w = _golden_depth15_draw(seed)
    rm = ruelle_matrix(s, w, depth=14)
    assert rm.matrix.shape == (987, 987)
    exact = math.log(np.linalg.eigvals(rm.matrix.toarray()).real.max())
    assert abs(pressure(s, w) - exact) <= 1e-12
