"""Coefficient-vanishing recursion systems from flow-time couplings.

Rotation averaging reduces each triple correlation of disk expansions to a
bivariate series in (T, S) whose coefficients are the unknown bilinear
integrals. Flow-invariance identities at coupled times (s = t, s = t/2,
s = m t) plus the rotation-by-pi sign rule give exact linear relations among
the unknowns after matching powers; a trivial kernel over the interior
indices forces the unknowns to vanish.

Every series involved has integer coefficients (`ratseries.Series`), so each
relation row is an integer linear form. Kernels come from one fraction-free
Gauss-Jordan elimination over Z on sparse rows (`kernel_basis`), so verdicts
are exact over Q with nothing left to certify, and no float is involved.
"""
from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .diskseries import paired_indices
from .errors import UnsupportedCoupling
from .ratseries import LinForm, Series, add_term, lin_series, tanh_multiple

_CASES = {
    "AB": ("A", "B"),
    "CD": ("C", "D", "P"),
    "EF": ("E", "F"),
    "GH": ("G", "H"),
    "IJ": ("I", "J"),
}

# Coupling sets the vanishing arguments are classically run with.
REFERENCE_COUPLINGS = {
    "AB": ("s=t", "s=t/2"),
    "CD": ("s=t", "s=2t", "s=3t"),
    "EF": ("s=t", "s=t/2"),
    "GH": ("s=2t", "s=3t", "s=4t"),
    "IJ": ("s=2t", "s=3t", "s=4t"),
}


@dataclass(frozen=True)
class Relation:
    coupling: str
    power: int
    form: LinForm


@dataclass(frozen=True)
class RecursionSystem:
    case: str
    N: int
    couplings: tuple
    relations: tuple
    unknowns: tuple

    def to_json(self) -> str:
        rows = [{"coupling": rel.coupling, "power": rel.power,
                 "coeffs": {f"{fam}{i}": str(c) for (fam, i), c in sorted(rel.form.items())}}
                for rel in self.relations]
        return json.dumps({"case": self.case, "N": self.N,
                           "couplings": list(self.couplings), "rows": rows},
                          sort_keys=True, indent=1)


def _parse_mt(coupling: str) -> int | None:
    """m of a coupling "s=mt" written with ASCII digits and no leading zero, else None."""
    match = re.fullmatch(r"s=([1-9][0-9]*)t", coupling)
    return int(match[1]) if match else None


def _inv_pow_one_minus(order: int, power: int) -> Series:
    """(1 - W)^{-power} = sum_n C(n + power - 1, n) W^n."""
    return Series([comb(n + power - 1, n) for n in range(order)])


def _powers_times(base: Series, factor: Series, count: int) -> list:
    """[base^j * factor for j < count], each from the one before."""
    out = [factor]
    for _ in range(count - 1):
        out.append(out[-1] * base)
    return out


def _rows_from(forms: list, coupling: str, powers) -> list:
    return [Relation(coupling=coupling, power=p, form=forms[p]) for p in powers if forms[p]]


# The triples of the GH and IJ systems: their letters (X, Y, Z) and the degree
# of each letter's leading disk coefficient.
_COMPLETED_LETTERS = {
    "GH": (("c", "d", "a"), {"c": 2, "d": 2, "a": 3}),
    "IJ": (("a", "b", "c"), {"a": 3, "b": 3, "c": 2}),
}


def _offsets(X, Y, Z, degs):
    (_, ka), (kb, _) = paired_indices(degs[X], degs[Y], degs[Z], 0)
    return ka, kb


def _pairs(X, Y, Z, degs, n):
    """The two coefficient triples that X at 0, Y at T and Z at S pair at index n
    (`diskseries.paired_indices`): (letter, index, conjugated) entries, Y_n with
    Z_{n+ka} and Y_{n+kb} with Z_n."""
    (i, j), (k, l) = paired_indices(degs[X], degs[Y], degs[Z], n)
    return ((X, 0, 0), (Y, i, 0), (Z, j, 1)), ((X, 0, 0), (Y, k, 1), (Z, l, 0))


# AB and EF: (index offset k of the second family, power p of the s = t/2 row).
_PAIRS = {"AB": (0, 3), "EF": (1, 2)}


def _pair_rows(case: str, coupling: str, N: int) -> list:
    (X, Y), (k, p) = _CASES[case], _PAIRS[case]
    if coupling == "s=t":
        # sum (X_n T^{2n} + Y_n T^{2n+2k}) + Y_0 T^{2k} (1 - T)^{-3} = 0, read at the
        # even powers of T: the Y_0 series is sum_j C(j + 2, 2) T^{2k+j}
        order = 2 * N + 1
        one = Series.one(order)
        ls = lin_series(order)
        for n in range(N + 1):
            add_term(ls, (X, n), one.shift(2 * n))
            add_term(ls, (Y, n), one.shift(2 * n + 2 * k))
        add_term(ls, (Y, 0), _inv_pow_one_minus(order, 3).shift(2 * k))
        return _rows_from(ls, coupling, range(0, 2 * N + 1, 2))
    if coupling == "s=t/2":
        # sum (X_n (1-W)^{-p} + 8 Y_n W^k) (2W)^n = 0
        order = N + 1
        one = Series.one(order)
        ls = lin_series(order)
        inv = _inv_pow_one_minus(order, p)
        for n in range(N + 1):
            add_term(ls, (X, n), inv.shift(n).scale(2 ** n))
            add_term(ls, (Y, n), one.shift(n + k).scale(8 * 2 ** n))
        return _rows_from(ls, coupling, range(N + 1))
    raise UnsupportedCoupling(f"{case} does not use {coupling}")


# GH and IJ: (sign of the first family's S(m-1) term, series order past 2N,
# first matched power). The offsets and deg Z come from _COMPLETED_LETTERS.
_RAYS = {"GH": (1, 2, 1), "IJ": (-1, 3, 2)}


def _ray_rows(case: str, coupling: str, N: int) -> list:
    m = _parse_mt(coupling)
    if m is None or m < 2:
        raise UnsupportedCoupling(f"{case} uses s=mt with integer m >= 2, not {coupling}")
    first_sign, extra, first = _RAYS[case]
    letters, degs = _COMPLETED_LETTERS[case]
    ka, dZ = _offsets(*letters, degs)[0], degs[letters[2]]
    order = 2 * N + extra
    Sm, Sm1 = tanh_multiple(m, order), tanh_multiple(m - 1, order)
    one = Series.one(order)
    # a[j] = Sm^j (1 - Sm^2)^{deg Z}, b[j] = Sm1^j (1 - Sm1^2)^{deg Z}
    a = _powers_times(Sm, (one - Sm * Sm).pow(dZ), N + ka + 1)
    b = _powers_times(Sm1, (one - Sm1 * Sm1).pow(dZ), N + ka + 1)
    ls = lin_series(order)
    # sum_n G_n (a[n+ka] + s (-1)^n b[n+ka]) T^n + H_n (a[n] - (-1)^n b[n]) T^{n+kb} = 0:
    # each term takes its power of S from Z's index in its pair and of T from Y's
    for n in range(N + 1):
        for fam, sign, (_, (_, i, _), (_, j, _)) in zip(
                _CASES[case], (first_sign, -1), _pairs(*letters, degs, n)):
            add_term(ls, (fam, n), (a[j] + b[j].scale(sign * (-1) ** n)).shift(i))
    return _rows_from(ls, coupling, range(first, order, 2))


def _cd_rows(case: str, coupling: str, N: int) -> list:
    if coupling == "s=t":
        # 2 sum C_n T^{2n} (1-T^2)^4 - D_0 T^2 = 0   (after / T^2 (1-T^2)^2)
        order = 2 * N + 1
        ls = lin_series(order)
        twice_one_minus4 = Series([1, 0, -1], order).pow(4).scale(2)
        for n in range(N + 1):
            add_term(ls, ("C", n), twice_one_minus4.shift(2 * n))
        add_term(ls, ("D", 0), Series.one(order).shift(2).scale(-1))
        return _rows_from(ls, coupling, range(0, 2 * N + 1, 2))
    m = _parse_mt(coupling)
    if m not in (2, 3):
        raise UnsupportedCoupling(f"CD uses s=t, s=2t, s=3t, not {coupling}")
    order = 2 * N + 3
    Sm, Sm1 = tanh_multiple(m, order), tanh_multiple(m - 1, order)
    one = Series.one(order)
    one_minus = Series([1, 0, -1], order)
    # a[j] = Sm^j (1 - T^2)^3 (1 - Sm^2)^3, b[j] = Sm1^j (1 - T^2)^2 (1 - Sm1^2)^3
    a = _powers_times(Sm, one_minus.pow(3) * (one - Sm * Sm).pow(3), N + 3)
    b = _powers_times(Sm1, one_minus.pow(2) * (one - Sm1 * Sm1).pow(3), N + 3)
    ls = lin_series(order)
    for n in range(N + 1):
        sgn = (-1) ** (n + 1)
        add_term(ls, ("C", n), a[n + 2].shift(n) + a[n].shift(n + 2))
        add_term(ls, ("P", n), b[n + 2].shift(n).scale(sgn))
        add_term(ls, ("D", n), b[n].shift(n + 4).scale(sgn))
    return _rows_from(ls, coupling, range(2, 2 * N + 3, 2))


_BUILDERS = {"AB": _pair_rows, "CD": _cd_rows, "EF": _pair_rows, "GH": _ray_rows,
             "IJ": _ray_rows}


def build_relations(case: str, N: int, couplings) -> RecursionSystem:
    """Exact relation rows for one case; every row is labeled by its coupling
    and the matched power. Rows are only generated at powers where no unknown
    beyond the truncation index N could contribute."""
    if case not in _CASES:
        raise ValueError(f"unknown case {case}")
    if N < 2:
        raise ValueError("N must be >= 2")
    relations = []
    for coupling in couplings:
        if not isinstance(coupling, str):
            raise UnsupportedCoupling(f"a coupling is a string like 's=2t', not {coupling!r}")
        relations.extend(_BUILDERS[case](case, coupling, N))
    unknowns = tuple((fam, n) for fam in _CASES[case] for n in range(N + 1))
    return RecursionSystem(case=case, N=N, couplings=tuple(couplings),
                           relations=tuple(relations), unknowns=unknowns)


def _eliminate(row: dict, pivot: dict, c: int) -> dict:
    """(p/g) row - (a/g) pivot divided by the gcd of its entries, where a and p
    are the entries of row and pivot at column c and g = gcd(a, p): an integer
    row with column c cleared and no zero entries."""
    g = gcd(row[c], pivot[c])
    s, t = pivot[c] // g, row[c] // g
    out = {k: s * v for k, v in row.items()}
    for k, v in pivot.items():
        x = out.get(k, 0) - t * v
        if x:
            out[k] = x
        else:
            del out[k]
    g = gcd(*out.values())
    return {k: v // g for k, v in out.items()}


def kernel_basis(rows, unknowns):
    """Kernel of the relation matrix over Q, by Gauss-Jordan elimination over Z.

    Each row (an integer or rational linear form) is read as a primitive
    integer row with its zero entries dropped, and reduced by every earlier
    pivot row whose column it holds (fraction-free, as in Bareiss, Math. Comp.
    22, 1968). A nonzero result becomes the pivot row of its smallest column
    and clears that column from the earlier pivot rows, so the pivot rows stay
    in reduced echelon form and every step is exact. Full column rank returns
    [] at once. Otherwise each free column f gives the vector that is 1 at f,
    -r[f] / r[c] at the pivot c of each pivot row r and 0 elsewhere: the basis
    read off the reduced echelon form over Q.
    """
    col = {u: i for i, u in enumerate(unknowns)}
    pivots = {}                       # pivot column -> its pivot row
    for form in rows:
        row = {col[u]: c for u, c in LinForm(form).normalized().items() if c}
        for c in [c for c in row if c in pivots]:
            row = _eliminate(row, pivots[c], c)
        if row:
            c = min(row)
            for k, other in pivots.items():
                if c in other:
                    pivots[k] = _eliminate(other, row, c)
            pivots[c] = row
            if len(pivots) == len(unknowns):
                return []
    basis = []
    for f in range(len(unknowns)):
        if f not in pivots:
            v = [Fraction(0)] * len(unknowns)
            v[f] = Fraction(1)
            for c, row in pivots.items():
                if f in row:
                    v[c] = Fraction(-row[f], row[c])
            basis.append(v)
    return basis


@dataclass(frozen=True)
class VanishingVerdict:
    verdict: str              # "forced-zero" or "undetermined"
    kernel_dim: int
    margin: int
    tested_max_index: int
    free_unknowns: tuple      # unknowns left unpinned by the relations
    boundary_only: bool       # True when all free unknowns sit past the margin


def solve_vanishing(system: RecursionSystem, margin: int = 2) -> VanishingVerdict:
    """forced-zero iff every solution of the relations vanishes on all unknowns
    of index <= N - margin; boundary indices may stay undetermined and are
    reported instead of silently pinned."""
    basis = kernel_basis([rel.form for rel in system.relations], system.unknowns)
    cutoff = system.N - margin
    free = set()
    for v in basis:
        for u, x in zip(system.unknowns, v):
            if x != 0:
                free.add(u)
    interior_hit = sorted(u for u in free if u[1] <= cutoff)
    verdict = "forced-zero" if not interior_hit else "undetermined"
    return VanishingVerdict(verdict=verdict, kernel_dim=len(basis), margin=margin,
                            tested_max_index=cutoff,
                            free_unknowns=tuple(sorted(free)),
                            boundary_only=not interior_hit and bool(free))


# --------------------------------------------------------------------------
# completed systems: all base orderings of the triple, same coupling toolkit
# --------------------------------------------------------------------------
#
# The flow-time couplings annihilate one ray of the GH system (H_n proportional
# to (n+1)(n+2)/2) and one ray of the IJ system (J_n proportional to n+1):
# the corresponding kernel combinations collapse under the hyperbolic identity
# (1 - S^2)/(1 - TS) = (1 - S'^2)/(1 + TS') for S = tanh(m u), S' = tanh((m-1)u),
# T = tanh(u). Applying the same shift-and-rotate couplings to the *other*
# orderings of the triple (the base point moved to each factor in turn) brings
# in the sibling bilinear families and pins everything; low-index coincidences
# between families (the same integrand product read from two orderings) are
# identified automatically by canonical product keys.

# The six families of a completed system: the two pairs of the orderings
# (X, Y, Z), (Y, X, Z) and (Z, X, Y) of its letters, in that order.
_COMPLETED_FAMILIES = {
    "GH": ("G", "H", "Gp", "Hp", "P", "Q"),
    "IJ": ("I", "J", "Ip", "Jp", "K", "L"),
}


def canonical_product(entries) -> tuple:
    """Canonical key of Re(prod of three coefficients): sorted entries, taken
    up to overall conjugation (Re w = Re conj(w))."""
    e1 = tuple(sorted(entries))
    e2 = tuple(sorted((letter, i, 1 - c) for letter, i, c in entries))
    return min(e1, e2)


def _add_arrangement(ls, X, Y, Z, degs, Ss, rotated, sign, max_idx, label_of):
    """Add sign times the rotation-averaged triple series of (X at 0, Y at T,
    Z at Ss) to ls.

    `rotated` applies the pi-rotation sign (-1)^(index + degree) to the third
    factor. Each unknown is the label of its canonical product key.
    """
    dZ = degs[Z]
    dress = Series([1, 0, -1], len(ls)).pow(degs[Y]) * (Series.one(len(ls)) - Ss * Ss).pow(dZ)
    d = _powers_times(Ss, dress, max_idx + 1)       # d[j] = Ss^j dress
    for n in range(max_idx + 1):
        for triple in _pairs(X, Y, Z, degs, n):
            (_, (_, i, _), (_, j, _)) = triple
            if max(i, j) <= max_idx:
                rot = (-1) ** (j + dZ) if rotated else 1
                add_term(ls, label_of[canonical_product(triple)],
                         d[j].shift(i).scale(sign * rot))


_COMPLETION_MS = (1, 2, 3)  # the m of the couplings s = m t in a completion


def build_completed_relations(case: str, N: int) -> RecursionSystem:
    """Multi-arrangement completion of the GH / IJ systems.

    For every ordering (X, Y, Z) of the triple and every m in _COMPLETION_MS, the identity
      series(X@0, Y@t, Z@mt) = (-1)^(deg X + deg Y) series(Y@0, X@t, Z@(m-1)t rotated)
    follows from a flow shift by -t and the substitution x -> -x. Rows are
    matched powers, kept only below the exact truncation cap. AB/CD/EF are
    already complete with their reference couplings and are returned unchanged.
    """
    if case in ("AB", "CD", "EF"):
        return build_relations(case, N, REFERENCE_COUPLINGS[case])
    if case not in _COMPLETED_LETTERS:
        raise ValueError(f"unknown case {case}")
    letters, degs = _COMPLETED_LETTERS[case]
    X, Y, Z = letters
    fams = _COMPLETED_FAMILIES[case]
    label_of = {}       # family-major, so the first family wins a coincidence
    for f, fam in enumerate(fams):
        ordering = ((X, Y, Z), (Y, X, Z), (Z, X, Y))[f // 2]
        for n in range(N + 7):
            label_of.setdefault(canonical_product(_pairs(*ordering, degs, n)[f % 2]), (fam, n))
    order = 2 * N + 6
    tanh = {m: tanh_multiple(m, order)
            for m in {*_COMPLETION_MS, *(m - 1 for m in _COMPLETION_MS)}}
    relations = []
    for (X, Y, Z) in itertools.permutations(letters):
        sgn = (-1) ** (degs[X] + degs[Y])
        for m in _COMPLETION_MS:
            ls = lin_series(order)
            _add_arrangement(ls, X, Y, Z, degs, tanh[m], False, 1, N, label_of)
            _add_arrangement(ls, Y, X, Z, degs, tanh[m - 1], True, -sgn, N, label_of)
            cap = 2 * (N + 1) - max(*_offsets(X, Y, Z, degs), *_offsets(Y, X, Z, degs))
            relations += _rows_from(ls, f"{X}{Y}{Z}:s={m}t", range(min(cap, order)))
    unknowns = tuple(sorted({u for rel in relations for u in rel.form},
                            key=lambda u: (fams.index(u[0]), u[1])))
    return RecursionSystem(case=case + "-completed", N=N,
                           couplings=tuple(f"s={m}t(all arrangements)"
                                           for m in _COMPLETION_MS),
                           relations=tuple(relations), unknowns=unknowns)
