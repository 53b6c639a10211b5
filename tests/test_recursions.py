import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (fraction_kernel_basis, named_relation, ray_kernel_description,
                      rows_normalized)
from thermoflow import errors
from thermoflow.ratseries import LinForm, Series, tanh_multiple
from thermoflow.recursions import (REFERENCE_COUPLINGS, build_completed_relations,
                                   build_relations, kernel_basis, solve_vanishing)


# ----------------------------------------------------------- series arithmetic

def test_series_basic_ops():
    a = Series([1, 2, 3], 6)
    b = Series([0, 1], 6)
    assert (a * b).coeffs[:4] == [Fraction(0), Fraction(1), Fraction(2), Fraction(3)]
    assert (a + b)[1] == 3
    assert (a - a) == Series([], 6)


def test_series_inverse():
    a = Series([1, -1], 10)
    inv = a.inverse()
    assert all(c == 1 for c in inv.coeffs)  # geometric series
    assert (a * inv).truncate(10) == Series.one(10)


def test_series_rejects_non_integers():
    with pytest.raises(ValueError):
        Series([1, Fraction(1, 2)])
    with pytest.raises(ValueError):
        Series([1.0, 2.0])
    with pytest.raises(ValueError):
        Series([1, 2]).scale(Fraction(2, 3))
    assert Series([Fraction(4), 2]).scale(Fraction(-3)).coeffs == [-12, -6]
    assert all(type(c) is int for c in Series([Fraction(4), True]).coeffs)


@pytest.mark.parametrize("c0", [0, 2, -3])
def test_series_inverse_needs_unit_constant_term(c0):
    with pytest.raises(ValueError):
        Series([c0, 1], 6).inverse()


def test_series_inverse_of_minus_one_constant_term():
    a = Series([-1, 3, 2], 9)
    assert (a * a.inverse()) == Series.one(9)


def test_tanh_multiple_small_cases():
    order = 12
    assert tanh_multiple(1, order) == Series([0, 1], order)
    s2 = tanh_multiple(2, order)
    # 2T / (1 + T^2)
    expect = Series([0, 2], order) * Series([1, 0, 1], order).inverse(order)
    assert s2 == expect.truncate(order)


def test_tanh_multiple_is_odd_with_leading_m():
    for m in (2, 3, 4, 5):
        s = tanh_multiple(m, 11)
        assert s[0] == 0 and s[1] == m
        assert all(s[k] == 0 for k in range(0, 11, 2))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4))
def test_tanh_addition_law(a, b):
    # S(a+b) = (S(a) + S(b)) / (1 + S(a) S(b)) as formal series
    order = 14
    sa, sb = tanh_multiple(a, order), tanh_multiple(b, order)
    lhs = tanh_multiple(a + b, order)
    rhs = (sa + sb) * (Series.one(order) + sa * sb).truncate(order).inverse(order)
    assert lhs == rhs.truncate(order)


def test_linform_normalized():
    f = LinForm({("A", 0): Fraction(-2, 3), ("B", 0): Fraction(-4, 3)})
    g = f.normalized()
    assert g == {("A", 0): 1, ("B", 0): 2}


# ----------------------------------------------------------- named relations

def _assert_named_in_rows(system, named):
    rows = rows_normalized(system)
    assert named in rows, f"named relation {dict(named)} not generated"


def test_ab_first_comparison_present():
    system = build_relations("AB", 8, ["s=t"])
    _assert_named_in_rows(system, named_relation("AB", "first_comparison"))


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_ab_half_time_recursion_present(n):
    system = build_relations("AB", 8, ["s=t/2"])
    _assert_named_in_rows(system, named_relation("AB", "half_time_recursion", n=n))


def test_ef_named_relations_present():
    system = build_relations("EF", 8, ["s=t"])
    _assert_named_in_rows(system, named_relation("EF", "e0"))
    _assert_named_in_rows(system, named_relation("EF", "e1"))


def test_cd_named_relations_present():
    system = build_relations("CD", 8, ["s=t"])
    _assert_named_in_rows(system, named_relation("CD", "c0"))
    _assert_named_in_rows(system, named_relation("CD", "t2"))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_gh_g0_present(m):
    system = build_relations("GH", 6, [f"s={m}t"])
    _assert_named_in_rows(system, named_relation("GH", "g0"))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_ij_t4_relation_present(m):
    system = build_relations("IJ", 6, [f"s={m}t"])
    _assert_named_in_rows(system, named_relation("IJ", "t4", m=m))


def test_unsupported_couplings_rejected():
    with pytest.raises(errors.UnsupportedCoupling):
        build_relations("AB", 5, ["s=2t"])
    with pytest.raises(errors.UnsupportedCoupling):
        build_relations("GH", 5, ["s=t"])
    with pytest.raises(errors.UnsupportedCoupling):
        build_relations("CD", 5, ["s=4t"])
    # s=mt takes m in ASCII digits with no leading zero
    for case in ("CD", "GH", "IJ"):
        for coupling in ("s=02t", "s=\u0662t", "s=\u00b2t", "s=2t "):
            with pytest.raises(errors.UnsupportedCoupling):
                build_relations(case, 5, [coupling])


# ----------------------------------------------------------------- verdicts

@pytest.mark.parametrize("case", ["AB", "CD", "EF"])
def test_paper_coupling_sets_force_zero(case):
    system = build_relations(case, 20, REFERENCE_COUPLINGS[case])
    verdict = solve_vanishing(system, margin=2)
    assert verdict.verdict == "forced-zero"
    for fam, idx in verdict.free_unknowns:
        assert idx > verdict.tested_max_index


@pytest.mark.parametrize("case", ["GH", "IJ"])
def test_gh_ij_paper_couplings_leave_one_ray(case):
    """The s=mt couplings alone annihilate an explicit ray: the relation matrix
    cannot pin it (a hyperbolic-tangent product identity); the kernel restricted
    to interior indices is exactly that ray."""
    system = build_relations(case, 14, REFERENCE_COUPLINGS[case])
    verdict = solve_vanishing(system, margin=2)
    assert verdict.verdict == "undetermined"
    fam, coef = ray_kernel_description(case)
    basis = kernel_basis(rows_normalized(system), system.unknowns)
    interior = [v for v in basis
                if any(x != 0 and u[1] <= system.N - 2
                       for u, x in zip(system.unknowns, v))]
    assert len(interior) == 1
    vec = dict(zip(system.unknowns, interior[0]))
    scale = vec[(fam, 0)] / coef(0)
    for n in range(system.N - 2):
        assert vec[(fam, n)] == scale * coef(n)
        other = "G" if fam == "H" else "I"
        assert vec[(other, n)] == 0


@pytest.mark.parametrize("case", ["AB", "CD", "EF", "GH", "IJ"])
def test_completed_systems_force_zero(case):
    from thermoflow.recursions import build_completed_relations
    system = build_completed_relations(case, 12)
    verdict = solve_vanishing(system, margin=2)
    assert verdict.verdict == "forced-zero"


@pytest.mark.parametrize("case", ["GH", "IJ"])
def test_completed_systems_have_trivial_kernel(case):
    from thermoflow.recursions import build_completed_relations
    system = build_completed_relations(case, 12)
    assert solve_vanishing(system, margin=2).kernel_dim == 0


def test_ab_single_coupling_undetermined():
    system = build_relations("AB", 20, ["s=t"])
    verdict = solve_vanishing(system, margin=2)
    assert verdict.verdict == "undetermined"
    assert verdict.kernel_dim > 0


def test_ab_kernel_dim_zero_with_both_couplings():
    system = build_relations("AB", 12, REFERENCE_COUPLINGS["AB"])
    assert solve_vanishing(system).kernel_dim == 0


def test_kernel_basis_simple():
    rows = [LinForm({("X", 0): Fraction(1), ("X", 1): Fraction(-1)})]
    basis = kernel_basis(rows, (("X", 0), ("X", 1)))
    assert len(basis) == 1
    assert basis[0][0] == basis[0][1]


def test_kernel_basis_crosses_unlucky_primes():
    """Entries divisible by the prime p = 2^31 - 1 keep their exact kernel: a
    modular elimination modulo p would move the pivots or drop the rank."""
    p = 2 ** 31 - 1
    x = (("X", 0), ("X", 1))
    rows = [LinForm({x[0]: p, x[1]: 1})]
    assert kernel_basis(rows, x) == fraction_kernel_basis(rows, x) == [[Fraction(-1, p), 1]]
    rows = [LinForm({x[0]: 2 * p, x[1]: p}), LinForm({x[0]: 1, x[1]: Fraction(1, 3)})]
    assert kernel_basis(rows, x) == fraction_kernel_basis(rows, x) == []


# Entries a kernel row can hold: zero, small and rational numbers, and integers
# past 31 and 63 bits.
_ENTRIES = st.one_of(st.sampled_from([0, 2 ** 31 - 1, -2 ** 62, 3 ** 40]),
                     st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5))


@st.composite
def _row_sets(draw):
    """(rows, unknowns): up to twice as many rows as columns, with explicit
    zero coefficients, all-zero rows and duplicated rows."""
    unknowns = tuple(("X", i) for i in range(draw(st.integers(1, 5))))
    row = st.dictionaries(st.sampled_from(unknowns), _ENTRIES).map(LinForm)
    rows = draw(st.lists(row, max_size=2 * len(unknowns)))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return rows, unknowns


@settings(max_examples=300, deadline=None)
@given(_row_sets())
@example(([LinForm({("X", 0): 0})], (("X", 0),)))     # a zero entry is no pivot
@example(([], ()))
def test_kernel_basis_equals_fraction_rref_on_drawn_rows(drawn):
    rows, unknowns = drawn
    assert kernel_basis(rows, unknowns) == fraction_kernel_basis(rows, unknowns)


def test_kernel_basis_lifts_entries_of_a_thousand_bits():
    """A single s=4t coupling at N = 30 leaves a 32-dimensional kernel whose
    entries have up to 1,006 bits: more than any fixed short prime list lifts."""
    system = build_relations("IJ", 30, ["s=4t"])
    rows = rows_normalized(system)
    basis = kernel_basis(rows, system.unknowns)
    assert basis == fraction_kernel_basis(rows, system.unknowns)
    assert max(x.denominator.bit_length() for v in basis for x in v) > 990


@pytest.mark.parametrize("kind", ["reference", "single", "completed"])
@pytest.mark.parametrize("N", [3, 6])
@pytest.mark.parametrize("case", ["AB", "CD", "EF", "GH", "IJ"])
def test_kernel_basis_equals_fraction_rref(case, N, kind):
    if kind == "completed":
        system = build_completed_relations(case, N)
    else:
        couplings = REFERENCE_COUPLINGS[case][:1 if kind == "single" else None]
        system = build_relations(case, N, couplings)
    rows = rows_normalized(system)
    assert kernel_basis(rows, system.unknowns) == fraction_kernel_basis(rows, system.unknowns)


def test_small_n_rejected():
    with pytest.raises(ValueError):
        build_relations("AB", 1, ["s=t"])


def test_rows_json_dump():
    import json
    system = build_relations("EF", 4, REFERENCE_COUPLINGS["EF"])
    data = json.loads(system.to_json())
    assert data["case"] == "EF" and data["N"] == 4
    assert all({"coupling", "power", "coeffs"} <= set(r) for r in data["rows"])


def test_rows_are_exact_no_truncation_artifacts():
    """Rows of a small system agree with the same rows built at larger N."""
    small = build_relations("GH", 6, ["s=2t", "s=3t"])
    big = build_relations("GH", 10, ["s=2t", "s=3t"])
    big_rows = {(r.coupling, r.power): r.form.normalized() for r in big.relations}
    for rel in small.relations:
        assert big_rows[(rel.coupling, rel.power)] == rel.form.normalized()


# sha256 of the dumps below. Any change to a row, a label or the order of rows
# changes it; a deliberate one updates it together with `out/diskvanish/`.
_RELATION_DIGEST = "051aaa7177c46a008103bee5330fc34730897e69caf7ea95698f14308a3a4ab3"


def test_relation_dumps_keep_their_digest():
    """Every case at N in {2, 3, 5, 8, 13, 20, 40} with its reference couplings and
    each of them alone, and the completed GH and IJ systems at N 2-12."""
    h = hashlib.sha256()
    for case, ref in sorted(REFERENCE_COUPLINGS.items()):
        for N in (2, 3, 5, 8, 13, 20, 40):
            for couplings in (ref, *((c,) for c in ref)):
                h.update(build_relations(case, N, couplings).to_json().encode())
    for case in ("GH", "IJ"):
        for N in range(2, 13):
            h.update(build_completed_relations(case, N).to_json().encode())
    assert h.hexdigest() == _RELATION_DIGEST
