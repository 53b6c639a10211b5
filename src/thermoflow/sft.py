"""Shifts of finite type: words, cylinders, periodic orbits, Birkhoff sums.

Everything here is immutable after construction and safe to share between
threads; all operations are pure functions of their inputs.
"""
from __future__ import annotations

import functools
import json
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

import numpy as np

from .errors import CapacityExceeded, DepthMismatch, EmptyRowOrColumn, WordTooShort

DEFAULT_WORD_BUDGET = 2 ** 24


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
        """Number of admissible k-words (sum of entries of transition^(k-1), exact)."""
        if k < 1:
            return 0
        return int(np.linalg.matrix_power(np.array(self.transition, dtype=object), k - 1).sum())

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
    mixing_power, power = None, np.array(rows)
    for m in range(1, n * n + 1):
        if power.all():
            mixing_power = m
            break
        power = (power @ rows > 0).astype(int)
    return Sft(alphabet_size=n, transition=rows, mixing_power=mixing_power)


def full_shift(n: int) -> Sft:
    return new_sft([[1] * n for _ in range(n)])


def golden_mean_shift() -> Sft:
    return new_sft([[1, 1], [1, 0]])


@dataclass(frozen=True)
class WordTable:
    """The admissible k-words of one shift in lexicographic order, their positions,
    and for k >= 2 the positions of each word's x[:-1] (`head`) and x[1:] (`tail`)
    among the (k-1)-words."""

    words: tuple
    index: Mapping
    head: np.ndarray | None
    tail: np.ndarray | None


# (transition, k) -> WordTable. Sft is frozen, so an entry never goes stale.
_WORD_TABLE: dict = {}


def _word_table(sft: Sft, k: int, budget: int = DEFAULT_WORD_BUDGET) -> WordTable:
    """The one table of admissible k-words, built from the (k-1)-words (each word
    followed by its successors in order, so the order stays lexicographic)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    key = (sft.transition, k)
    table = _WORD_TABLE.get(key)
    count = sft.word_count(k) if table is None else len(table.words)
    if count > budget:
        raise CapacityExceeded(f"{count} {k}-words exceed budget {budget}")
    if table is None:
        if k == 1:
            words, head, tail = tuple((a,) for a in range(sft.alphabet_size)), None, None
        else:
            sub = _word_table(sft, k - 1, budget)
            words = tuple(u + (b,) for u in sub.words for b in sft.successors(u[-1]))
            head = np.array([sub.index[x[:-1]] for x in words])
            tail = np.array([sub.index[x[1:]] for x in words])
        index = MappingProxyType(dict(zip(words, range(len(words)))))
        table = _WORD_TABLE[key] = WordTable(words, index, head, tail)
    return table


@functools.cache
def _prefix(sft: Sft, k: int, j: int) -> np.ndarray:
    """The position of x[:j] among the j-words, per k-word x (j <= k)."""
    return (np.arange(len(_word_table(sft, k).words)) if k == j
            else _prefix(sft, k - 1, j)[_word_table(sft, k).head])


def admissible_words(sft: Sft, k: int, budget: int = DEFAULT_WORD_BUDGET) -> list:
    """All admissible k-words in lexicographic order, as a new list."""
    return list(_word_table(sft, k, budget).words)


def word_key(sft: Sft, word) -> str:
    """A word as a JSON key: its symbols as digits, comma-separated above 10 symbols."""
    return ("" if sft.alphabet_size <= 10 else ",").join(str(a) for a in word)


def parse_word_key(sft: Sft, key: str) -> tuple:
    """The word that `word_key` writes as `key`; ValueError if a symbol is no integer."""
    return tuple(int(a) for a in (key if sft.alphabet_size <= 10 else key.split(",")))


class WordMap(Mapping):
    """Read-only view of an array of per-word values, keyed by the words of its table."""

    __slots__ = ("table", "array")

    def __init__(self, table: WordTable, array: np.ndarray):
        array.flags.writeable = False
        self.table, self.array = table, array

    def __getitem__(self, word):
        return self.array.item(self.table.index[word])

    def __iter__(self):
        return iter(self.table.words)

    def __len__(self):
        return len(self.table.words)


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


@dataclass(frozen=True, eq=False)
class DepthKFunction:
    """Locally constant function determined by the first `depth` symbols.

    `array` holds one value per admissible depth-word, in the order of the
    shift's word table, and is read-only; `values` reads it as a Mapping keyed
    by the words. The constructor takes such a Mapping, whose keys must be
    exactly the admissible words, or an array in table order, which it keeps
    without a copy. These are the computable stand-ins for Holder functions;
    refining the depth refines the approximation.
    """

    sft: Sft
    depth: int
    array: np.ndarray

    def __init__(self, sft: Sft, depth: int, values):
        table = _word_table(sft, depth)
        if not isinstance(values, np.ndarray):
            if values.keys() != table.index.keys():
                raise DepthMismatch("value table keys must be exactly the admissible words")
            values = np.array([values[w] for w in table.words])
        elif values.shape != (len(table.words),):
            raise DepthMismatch(f"need one value per {depth}-word, got shape {values.shape}")
        values.flags.writeable = False
        object.__setattr__(self, "sft", sft)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "array", values)

    @property
    def values(self) -> WordMap:
        return WordMap(_word_table(self.sft, self.depth), self.array)

    def __call__(self, word: tuple) -> complex:
        if len(word) < self.depth:
            raise WordTooShort(f"need {self.depth} symbols, got {len(word)}")
        return self.values[tuple(word[: self.depth])]

    def promote(self, depth: int) -> "DepthKFunction":
        if depth < self.depth:
            raise DepthMismatch("cannot lower depth")
        if depth == self.depth:
            return self
        return DepthKFunction(self.sft, depth, self.array[_prefix(self.sft, depth, self.depth)])

    def compose_shift(self) -> "DepthKFunction":
        """f o sigma, recorded at depth+1."""
        k = self.depth + 1
        return DepthKFunction(self.sft, k, self.array[_word_table(self.sft, k).tail])

    def map(self, fn: Callable[[complex], complex]) -> "DepthKFunction":
        return DepthKFunction(self.sft, self.depth, np.array([fn(v) for v in self.array.tolist()]))

    @np.errstate(over="ignore", invalid="ignore")   # inf and nan as Python floats give them
    def _binary(self, other, op):
        if isinstance(other, DepthKFunction):
            k = max(self.depth, other.depth)
            return DepthKFunction(self.sft, k, op(self.promote(k).array, other.promote(k).array))
        return DepthKFunction(self.sft, self.depth, op(self.array, other))

    def __add__(self, other):
        return self._binary(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __neg__(self):
        return DepthKFunction(self.sft, self.depth, -self.array)

    def __mul__(self, c):
        """A scalar multiple, or the product with another function."""
        if self.array.dtype.kind == "c" and isinstance(c, complex):
            return self.map(lambda x: x * c)   # numpy's complex product rounds differently
        return self._binary(c, operator.mul)

    __rmul__ = __mul__

    def sup_norm(self) -> float:
        return max(abs(v) for v in self.array.tolist())

    def is_real(self, tol: float = 0.0) -> bool:
        """True if no value has an imaginary part larger than tol in size; a real
        array passes exactly when 0 <= tol."""
        if self.array.dtype.kind != "c":
            return 0.0 <= tol
        return bool(np.all(np.abs(self.array.imag) <= tol))


def constant_function(sft: Sft, c, depth: int = 1) -> DepthKFunction:
    return DepthKFunction(sft, depth, np.full(len(_word_table(sft, depth).words), c))


def indicator(sft: Sft, symbol: int) -> DepthKFunction:
    return DepthKFunction(sft, 1, np.where(np.arange(sft.alphabet_size) == symbol, 1.0, 0.0))


def random_function(sft: Sft, depth: int, rng, scale: float = 1.0) -> DepthKFunction:
    """Values drawn N(0, scale) in word order (the same draws as one scalar draw per word)."""
    return DepthKFunction(sft, depth, rng.normal(0.0, scale, len(_word_table(sft, depth).words)))


def coboundary(v: DepthKFunction) -> DepthKFunction:
    """V - V o sigma; its Birkhoff sum over any cycle telescopes to zero."""
    return v - v.compose_shift()


def birkhoff_sum(f: DepthKFunction, w, n: int):
    """S_n(f, w) = sum_{i<n} f(sigma^i w); periodic orbits are read cyclically."""
    index, vals = _word_table(f.sft, f.depth).index, f.array.tolist()
    if isinstance(w, PeriodicOrbit):
        return sum(vals[index[w.window(i, f.depth)]] for i in range(n))
    w = tuple(w)
    if len(w) < n + f.depth - 1:
        raise WordTooShort(
            f"word of length {len(w)} too short for S_{n} at depth {f.depth}")
    return sum(vals[index[w[i: i + f.depth]]] for i in range(n))


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
