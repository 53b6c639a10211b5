import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SHIFTS, dict_binary, dict_compose_shift, dict_is_real, dict_promote,
                      dict_sup_norm)
from thermoflow import errors, sft
from thermoflow.sft import (admissible_words, birkhoff_sum, coboundary, constant_function,
                            full_shift, golden_mean_shift, indicator,
                            livsic_coboundary_test, new_sft, periodic_orbits,
                            random_function)


def canonical_cycle(cycle) -> tuple:
    """The lexicographically least rotation of a cycle."""
    cycle = tuple(cycle)
    return min(cycle[i:] + cycle[:i] for i in range(len(cycle)))


def d_alpha(x, y, alpha: float) -> float:
    """Diagnostic word metric alpha^N, N = length of the common prefix."""
    n = 0
    for a, b in zip(x, y):
        if a != b:
            break
        n += 1
    if n == len(x) == len(y):
        return 0.0
    return alpha ** n


def test_full_shift_mixing_power_is_one():
    s = new_sft([[1, 1], [1, 1]])
    assert s.mixing_power == 1


def test_golden_mean_mixing_power_is_two():
    # oracle: square the matrix by hand and check positivity
    a = np.array([[1, 1], [1, 0]])
    assert (a @ a > 0).all() and not (a > 0).all()
    s = golden_mean_shift()
    assert s.mixing_power == 2


def test_identity_matrix_is_not_mixing():
    s = new_sft([[1, 0], [0, 1]])
    assert s.mixing_power is None
    assert not s.is_mixing


def test_empty_row_or_column_rejected():
    with pytest.raises(errors.EmptyRowOrColumn):
        new_sft([[1, 1], [0, 0]])
    with pytest.raises(errors.EmptyRowOrColumn):
        new_sft([[1, 0], [1, 0]])


def test_sft_json_roundtrip():
    s = golden_mean_shift()
    assert sft.Sft.from_json(s.to_json()) == s


def test_full_shift_two_words():
    assert len(admissible_words(full_shift(2), 2)) == 4


def test_golden_mean_word_counts_follow_fibonacci():
    s = golden_mean_shift()
    words3 = admissible_words(s, 3)
    assert words3 == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)]
    # counts 2, 3, 5, 8, 13, ...
    fib = [2, 3, 5, 8, 13, 21]
    assert [len(admissible_words(s, k)) for k in range(1, 7)] == fib
    assert [s.word_count(k) for k in range(1, 7)] == fib


def test_word_budget():
    with pytest.raises(errors.CapacityExceeded):
        admissible_words(full_shift(2), 10, budget=100)


def test_word_budget_holds_on_a_cached_table():
    s = full_shift(2)
    assert len(admissible_words(s, 6)) == 64
    with pytest.raises(errors.CapacityExceeded, match="64 6-words exceed budget 63"):
        admissible_words(s, 6, budget=63)
    assert len(admissible_words(s, 6, budget=64)) == 64


def test_admissible_words_returns_a_fresh_list():
    s = golden_mean_shift()
    words = admissible_words(s, 3)
    expect = list(words)
    words.append((1, 1, 1))
    words[0] = (9,)
    assert admissible_words(s, 3) == expect
    admissible_words(s, 3).clear()
    assert admissible_words(s, 3) == expect
    assert admissible_words(s, 3) is not admissible_words(s, 3)


def test_depth_function_keys_must_be_the_admissible_words():
    s = golden_mean_shift()
    words = [(0, 0), (0, 1), (1, 0)]
    assert sft.DepthKFunction(s, 2, dict.fromkeys(words, 0.0)).depth == 2
    for keys in (words[:2], words + [(1, 1)], words[:2] + [(1,)]):
        with pytest.raises(errors.DepthMismatch):
            sft.DepthKFunction(s, 2, dict.fromkeys(keys, 0.0))


def test_periodic_orbits_full_two_shift():
    orbits = {o.cycle for o in periodic_orbits(full_shift(2), 2)}
    assert orbits == {(0,), (1,), (0, 1)}


def test_periodic_orbits_golden_mean():
    orbits = {o.cycle for o in periodic_orbits(golden_mean_shift(), 2)}
    assert orbits == {(0,), (0, 1)}


def test_periodic_orbits_zero_period_empty():
    assert periodic_orbits(full_shift(3), 0) == []


def test_orbits_are_canonical_and_primitive():
    for o in periodic_orbits(full_shift(3), 5):
        assert o.cycle == canonical_cycle(o.cycle)
    periods = [o.period for o in periodic_orbits(full_shift(2), 4)]
    # primitive cycle counts on the full 2-shift: 2, 1, 2, 3 for periods 1..4
    assert sorted(periods) == [1, 1, 2, 3, 3, 4, 4, 4]


def test_birkhoff_constant():
    s = full_shift(2)
    f = constant_function(s, 2.5)
    orbit = periodic_orbits(s, 2)[-1]
    assert birkhoff_sum(f, orbit, 7) == pytest.approx(7 * 2.5)


def test_birkhoff_indicator_on_01_orbit():
    s = full_shift(2)
    f = indicator(s, 0)
    orbit = sft.PeriodicOrbit(cycle=(0, 1))
    assert birkhoff_sum(f, orbit, 2) == pytest.approx(1.0)


def test_birkhoff_depth2_lookup_oracle():
    s = full_shift(2)
    rng = np.random.default_rng(7)
    f = random_function(s, 2, rng)
    orbit = sft.PeriodicOrbit(cycle=(0, 1, 1))
    expected = f.values[(0, 1)] + f.values[(1, 1)] + f.values[(1, 0)]
    assert birkhoff_sum(f, orbit, 3) == pytest.approx(expected)


def test_birkhoff_word_too_short():
    s = full_shift(2)
    f = random_function(s, 2, np.random.default_rng(0))
    with pytest.raises(errors.WordTooShort):
        birkhoff_sum(f, (0, 1, 0), 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 20), st.integers(1, 5), st.integers(1, 5))
def test_birkhoff_telescoping(seed, n, m):
    s = golden_mean_shift()
    rng = np.random.default_rng(seed)
    f = random_function(s, 2, rng)
    length = n + m + f.depth - 1
    word = [int(rng.integers(0, 2))]
    while len(word) < length:
        word.append(int(rng.choice(s.successors(word[-1]))))
    word = tuple(word)
    total = birkhoff_sum(f, word, n + m)
    split = birkhoff_sum(f, word, n) + birkhoff_sum(f, word[n:], m)
    assert total == pytest.approx(split, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=8))
def test_canonical_rotation_idempotent(cycle):
    c = canonical_cycle(cycle)
    assert canonical_cycle(c) == c


def test_livsic_equal_functions():
    s = full_shift(2)
    f = random_function(s, 2, np.random.default_rng(3))
    rep = livsic_coboundary_test(f, f, s, 6)
    assert rep.cohomologous and rep.worst_residual == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_livsic_coboundary_shift(seed):
    s = golden_mean_shift()
    rng = np.random.default_rng(seed)
    f = random_function(s, 2, rng)
    v = random_function(s, 2, rng)
    g = f + coboundary(v)
    rep = livsic_coboundary_test(f, g, s, 12)
    assert rep.cohomologous
    assert rep.worst_residual < 1e-12


def test_livsic_detects_non_coboundary():
    s = full_shift(2)
    f = indicator(s, 0)
    g = constant_function(s, 0.0)
    rep = livsic_coboundary_test(f, g, s, 1, tol=1e-9)
    assert not rep.cohomologous
    assert rep.worst_orbit.cycle == (0,)  # period differs by 1 on the fixed point
    assert rep.worst_residual == pytest.approx(1.0)
    # larger period caps only find worse violations
    assert livsic_coboundary_test(f, g, s, 4, tol=1e-9).worst_residual >= 1.0


def test_depth_promotion_and_arithmetic():
    s = golden_mean_shift()
    f = indicator(s, 0)
    g = f.promote(3)
    assert g.depth == 3
    word = (0, 1, 0)
    assert g.values[word] == f.values[(0,)]
    h = f + g
    assert h.depth == 3
    assert (h - f - g).sup_norm() == 0.0
    assert (2.0 * f - f - f).sup_norm() == 0.0


def test_compose_shift_depth_bookkeeping():
    s = full_shift(2)
    f = indicator(s, 1)
    fs = f.compose_shift()
    assert fs.depth == 2
    assert fs.values[(0, 1)] == 1.0 and fs.values[(0, 0)] == 0.0


def test_d_alpha_diagnostic():
    assert d_alpha((0, 1, 1), (0, 1, 0), 0.5) == 0.25
    assert d_alpha((0,), (1,), 0.5) == 1.0
    assert d_alpha((0, 1), (0, 1), 0.5) == 0.0


def _converting_is_real(values, tol):
    """Oracle for `DepthKFunction.is_real`: every value goes through complex()."""
    return all(abs(complex(v).imag) <= tol for v in values)


@pytest.mark.parametrize("tol", [0.0, 1e-12, -1.0, float("nan")])
@pytest.mark.parametrize("kind", ["float", "int", "np.float64", "np.float32", "np.int64",
                                  "complex", "np.complex128", "mixed", "imag-1e-13",
                                  "imag-1e-11"])
def test_is_real_verdict_matches_complex_conversion(kind, tol):
    s = full_shift(2)
    words = admissible_words(s, 2)
    make = {"float": float, "int": lambda x: int(10 * x), "np.float64": np.float64,
            "np.float32": np.float32, "np.int64": lambda x: np.int64(10 * x),
            "complex": complex, "np.complex128": np.complex128,
            "mixed": lambda x: complex(x) if x > 0.5 else float(x),
            "imag-1e-13": lambda x: complex(x, 1e-13),
            "imag-1e-11": lambda x: np.complex128(complex(x, -1e-11))}[kind]
    rng = np.random.default_rng(7)
    f = sft.DepthKFunction(s, 2, {w: make(float(rng.uniform())) for w in words})
    assert f.is_real(tol) == _converting_is_real(f.values.values(), tol)


def test_is_real_tolerance_edge_on_complex_values():
    s = full_shift(2)
    for cast in (complex, np.complex128):
        passes = sft.DepthKFunction(s, 1, {(0,): cast(1.0), (1,): cast(complex(2.0, 1e-13))})
        fails = sft.DepthKFunction(s, 1, {(0,): cast(1.0), (1,): cast(complex(2.0, 1e-11))})
        assert passes.is_real(1e-12) and not passes.is_real(0.0)
        assert not fails.is_real(1e-12)


# The array form of DepthKFunction against the dict formulas of tests/conftest.py,
# bit for bit: the same Python type, real and imaginary parts, per word.

def _bits(x):
    z = complex(x)
    return type(x), z.real.hex(), z.imag.hex()


def _same(f, depth, vals):
    assert f.depth == depth and list(f.values) == list(vals)
    assert [_bits(v) for v in f.values.values()] == [_bits(v) for v in vals.values()]


_DRAW = {"float": lambda rng: float(rng.normal()),
         "int": lambda rng: int(rng.integers(-50, 50)),
         "complex": lambda rng: complex(rng.normal(), rng.normal())}


@pytest.mark.parametrize("kind_g", sorted(_DRAW))
@pytest.mark.parametrize("kind_f", sorted(_DRAW))
@pytest.mark.parametrize("shift", sorted(SHIFTS))
def test_array_form_matches_the_dict_formulas(shift, kind_f, kind_g):
    s = SHIFTS[shift]()
    rng = np.random.default_rng([len(shift), len(kind_f), len(kind_g)])
    for depth in range(1, 6):
        other = int(rng.integers(1, 6))
        fv = {w: _DRAW[kind_f](rng) for w in admissible_words(s, depth)}
        gv = {w: _DRAW[kind_g](rng) for w in admissible_words(s, other)}
        f, g = sft.DepthKFunction(s, depth, fv), sft.DepthKFunction(s, other, gv)
        c = _DRAW[kind_g](rng)
        _same(f, depth, fv)
        for k in range(depth, 6):
            _same(f.promote(k), k, dict_promote(s, depth, fv, k))
        _same(f.compose_shift(), depth + 1, dict_compose_shift(s, depth, fv))
        for op in (operator.add, operator.sub):
            _same(op(f, g), *dict_binary(s, depth, fv, (other, gv), op))
            _same(op(f, c), *dict_binary(s, depth, fv, c, op))
        _same(c + f, *dict_binary(s, depth, fv, c, operator.add))
        _same(f * c, *dict_binary(s, depth, fv, c, operator.mul))
        _same(c * f, *dict_binary(s, depth, fv, c, operator.mul))
        _same(-f, depth, {w: -v for w, v in fv.items()})
        _same(f.map(lambda x: 3 * x - 1), depth, {w: 3 * v - 1 for w, v in fv.items()})
        for w in admissible_words(s, depth + 2):
            assert _bits(f(w)) == _bits(fv[w[:depth]])
        assert _bits(f.sup_norm()) == _bits(dict_sup_norm(fv))
        for tol in (0.0, 1e-12, -1.0, float("nan")):
            assert f.is_real(tol) == dict_is_real(fv, tol)


def test_depth_function_values_are_read_only():
    s = golden_mean_shift()
    f = random_function(s, 2, np.random.default_rng(1))
    assert not f.array.flags.writeable
    with pytest.raises(ValueError):
        f.array[0] = 1.0
    with pytest.raises(TypeError):
        f.values[(0, 0)] = 1.0
    g = sft.DepthKFunction(s, 2, dict(f.values))
    assert g.array.tolist() == f.array.tolist() and g != f   # equality is identity
    with pytest.raises(errors.DepthMismatch):
        sft.DepthKFunction(s, 2, np.zeros(4))


def test_random_function_draws_one_value_per_word_in_order():
    s = full_shift(3)
    rng = np.random.default_rng(11)
    f = random_function(s, 3, np.random.default_rng(11), scale=0.7)
    assert f.array.tolist() == [float(rng.normal(0.0, 0.7)) for _ in admissible_words(s, 3)]


@pytest.mark.parametrize("shift", sorted(SHIFTS))
def test_word_table_positions(shift):
    """One table per (shift, k): words in lexicographic order, their index, and the
    positions of x[:-1], x[1:] and every prefix x[:j]."""
    s = SHIFTS[shift]()
    for k in range(1, 6):
        table = sft._word_table(s, k)
        assert table is sft._word_table(s, k)
        assert list(table.words) == sorted(table.words) == admissible_words(s, k)
        assert all(table.index[x] == i for i, x in enumerate(table.words))
        if k == 1:
            assert table.head is None and table.tail is None
            continue
        sub = sft._word_table(s, k - 1).words
        assert [sub[i] for i in table.head] == [x[:-1] for x in table.words]
        assert [sub[i] for i in table.tail] == [x[1:] for x in table.words]
        for j in range(1, k + 1):
            words_j = sft._word_table(s, j).words
            assert [words_j[i] for i in sft._prefix(s, k, j)] == [x[:j] for x in table.words]
