"""Shifts of finite type: words, cylinders, periodic orbits, Birkhoff sums.

Everything here is immutable after construction and safe to share between
threads; all operations are pure functions of their inputs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import CapacityExceeded, DepthMismatch, EmptyRowOrColumn, WordTooShort

DEFAULT_WORD_BUDGET = 2 ** 24

Word = tuple  # finite admissible symbol sequence, stored as a tuple of ints


def _int_matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


@dataclass(frozen=True)
class Sft:
    """Alphabet {0..n-1} with a 0/1 transition matrix (row -> column moves)."""

    alphabet_size: int
    transition: tuple
    mixing_power: int | None = None

    @property
    def is_mixing(self) -> bool:
        return self.mixing_power is not None

    def successors(self, a: int) -> tuple:
        return tuple(b for b in range(self.alphabet_size) if self.transition[a][b])

    def word_count(self, k: int) -> int:
        """Number of admissible k-words (sum of entries of transition^(k-1))."""
        if k < 1:
            return 0
        power = tuple(tuple(1 if i == j else 0 for j in range(self.alphabet_size))
                      for i in range(self.alphabet_size))
        for _ in range(k - 1):
            power = _int_matmul(power, self.transition)
        return sum(sum(row) for row in power)

    def to_json(self) -> str:
        return json.dumps(
            {"alphabet_size": self.alphabet_size,
             "transition": [list(row) for row in self.transition]},
            sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Sft":
        data = json.loads(text)
        return new_sft(data["transition"])


def new_sft(transition) -> Sft:
    """Validate a 0/1 transition matrix and compute its mixing power if any.

    The mixing power is the least M <= alphabet_size**2 with all entries of
    transition^M strictly positive; absence of such M leaves the flag unset
    (the shift is stored but marked not mixing).
    """
    rows = tuple(tuple(int(x) for x in row) for row in transition)
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("transition matrix must be square and nonempty")
    if any(x not in (0, 1) for row in rows for x in row):
        raise ValueError("transition entries must be 0 or 1")
    for i in range(n):
        if not any(rows[i][j] for j in range(n)):
            raise EmptyRowOrColumn(f"symbol {i} has no successor")
        if not any(rows[j][i] for j in range(n)):
            raise EmptyRowOrColumn(f"symbol {i} has no predecessor")
    mixing_power = None
    power = rows
    for m in range(1, n * n + 1):
        if all(x > 0 for row in power for x in row):
            mixing_power = m
            break
        power = _int_matmul(power, rows)
    return Sft(alphabet_size=n, transition=rows, mixing_power=mixing_power)


def full_shift(n: int) -> Sft:
    return new_sft([[1] * n for _ in range(n)])


def golden_mean_shift() -> Sft:
    return new_sft([[1, 1], [1, 0]])


def admissible_words(sft: Sft, k: int, budget: int = DEFAULT_WORD_BUDGET) -> list:
    """All admissible k-words in lexicographic order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    count = sft.word_count(k)
    if count > budget:
        raise CapacityExceeded(f"{count} {k}-words exceed budget {budget}")
    words = []
    stack = [(a,) for a in reversed(range(sft.alphabet_size))]
    while stack:
        w = stack.pop()
        if len(w) == k:
            words.append(w)
            continue
        for b in reversed(sft.successors(w[-1])):
            stack.append(w + (b,))
    return words


def _min_rotation(cycle: tuple) -> tuple:
    return min(cycle[i:] + cycle[:i] for i in range(len(cycle)))


def _is_primitive(cycle: tuple) -> bool:
    p = len(cycle)
    for d in range(1, p):
        if p % d == 0 and cycle == cycle[d:] + cycle[:d]:
            return False
    return True


@dataclass(frozen=True)
class PeriodicOrbit:
    """Primitive admissible cycle, stored as its lexicographically minimal rotation."""

    cycle: tuple

    @property
    def period(self) -> int:
        return len(self.cycle)

    def symbol(self, i: int) -> int:
        return self.cycle[i % self.period]

    def window(self, start: int, length: int) -> tuple:
        return tuple(self.symbol(start + j) for j in range(length))


def periodic_orbits(sft: Sft, max_period: int, budget: int = DEFAULT_WORD_BUDGET) -> list:
    """Every rotation class of primitive admissible cycles with period <= max_period."""
    orbits = []
    seen = set()
    for p in range(1, max_period + 1):
        for w in admissible_words(sft, p, budget=budget):
            if not sft.transition[w[-1]][w[0]]:
                continue
            if not _is_primitive(w):
                continue
            canon = _min_rotation(w)
            if canon not in seen:
                seen.add(canon)
                orbits.append(PeriodicOrbit(cycle=canon))
    return orbits


@dataclass(frozen=True)
class DepthKFunction:
    """Locally constant function determined by the first `depth` symbols.

    `values` has exactly the admissible depth-words of the shift as keys.
    These are the computable stand-ins for Holder functions; refining the
    depth refines the approximation.
    """

    sft: Sft
    depth: int
    values: Mapping[tuple, complex] = field(hash=False)

    def __post_init__(self):
        expect = sft_word_set(self.sft, self.depth)
        if set(self.values.keys()) != expect:
            raise DepthMismatch("value table keys must be exactly the admissible words")

    def __call__(self, word: tuple) -> complex:
        if len(word) < self.depth:
            raise WordTooShort(f"need {self.depth} symbols, got {len(word)}")
        return self.values[tuple(word[: self.depth])]

    def promote(self, depth: int) -> "DepthKFunction":
        if depth < self.depth:
            raise DepthMismatch("cannot lower depth")
        if depth == self.depth:
            return self
        vals = {w: self.values[w[: self.depth]] for w in admissible_words(self.sft, depth)}
        return DepthKFunction(self.sft, depth, vals)

    def compose_shift(self) -> "DepthKFunction":
        """f o sigma, recorded at depth+1."""
        k = self.depth + 1
        vals = {w: self.values[w[1:]] for w in admissible_words(self.sft, k)}
        return DepthKFunction(self.sft, k, vals)

    def map(self, fn: Callable[[complex], complex]) -> "DepthKFunction":
        return DepthKFunction(self.sft, self.depth, {w: fn(v) for w, v in self.values.items()})

    def _binary(self, other, op):
        if isinstance(other, DepthKFunction):
            k = max(self.depth, other.depth)
            a, b = self.promote(k), other.promote(k)
            return DepthKFunction(self.sft, k,
                                  {w: op(a.values[w], b.values[w]) for w in a.values})
        return DepthKFunction(self.sft, self.depth,
                              {w: op(v, other) for w, v in self.values.items()})

    def __add__(self, other):
        return self._binary(other, lambda x, y: x + y)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda x, y: x - y)

    def __neg__(self):
        return self.map(lambda x: -x)

    def __mul__(self, c):
        return self.map(lambda x: x * c)

    __rmul__ = __mul__

    def sup_norm(self) -> float:
        return max(abs(v) for v in self.values.values())

    def is_real(self, tol: float = 0.0) -> bool:
        return all(abs(complex(v).imag) <= tol for v in self.values.values())


_WORDSET_CACHE: dict = {}


def sft_word_set(sft: Sft, k: int) -> frozenset:
    key = (sft.transition, k)
    if key not in _WORDSET_CACHE:
        _WORDSET_CACHE[key] = frozenset(admissible_words(sft, k))
    return _WORDSET_CACHE[key]


def constant_function(sft: Sft, c, depth: int = 1) -> DepthKFunction:
    return DepthKFunction(sft, depth, {w: c for w in admissible_words(sft, depth)})


def indicator(sft: Sft, symbol: int) -> DepthKFunction:
    return DepthKFunction(sft, 1, {(a,): 1.0 if a == symbol else 0.0
                                   for a in range(sft.alphabet_size)})


def random_function(sft: Sft, depth: int, rng, scale: float = 1.0,
                    complex_valued: bool = False) -> DepthKFunction:
    vals = {}
    for w in admissible_words(sft, depth):
        if complex_valued:
            vals[w] = complex(rng.normal(0.0, scale), rng.normal(0.0, scale))
        else:
            vals[w] = float(rng.normal(0.0, scale))
    return DepthKFunction(sft, depth, vals)


def coboundary(v: DepthKFunction) -> DepthKFunction:
    """V - V o sigma; its Birkhoff sum over any cycle telescopes to zero."""
    return v - v.compose_shift()


def birkhoff_sum(f: DepthKFunction, w, n: int):
    """S_n(f, w) = sum_{i<n} f(sigma^i w); periodic orbits are read cyclically."""
    if isinstance(w, PeriodicOrbit):
        return sum(f.values[w.window(i, f.depth)] for i in range(n))
    w = tuple(w)
    if len(w) < n + f.depth - 1:
        raise WordTooShort(
            f"word of length {len(w)} too short for S_{n} at depth {f.depth}")
    return sum(f.values[w[i: i + f.depth]] for i in range(n))


@dataclass(frozen=True)
class LivsicReport:
    cohomologous: bool
    worst_residual: float
    worst_orbit: PeriodicOrbit | None


def livsic_coboundary_test(f: DepthKFunction, g: DepthKFunction, sft: Sft,
                           max_period: int, tol: float = 1e-10) -> LivsicReport:
    """Test |S_p(f-g)| <= tol on every periodic orbit with period <= max_period.

    Periods over closed orbits characterize the Livsic class, so agreement of
    all orbit sums certifies that f - g is a coboundary (up to the period cap).
    """
    diff = f - g
    worst, worst_orbit = 0.0, None
    for orbit in periodic_orbits(sft, max_period):
        res = abs(birkhoff_sum(diff, orbit, orbit.period))
        if res > worst:
            worst, worst_orbit = res, orbit
    return LivsicReport(cohomologous=worst <= tol, worst_residual=worst,
                        worst_orbit=worst_orbit)


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


def canonical_cycle(cycle) -> tuple:
    return _min_rotation(tuple(cycle))
