"""Exact integer power series, plus series with linear-form coefficients.

The vanishing arguments for the disk recursions are algebraic, and every
series the relation builders make has integer coefficients: T, (2W)^n,
(1 - W)^{-k}, (1 - T^2)^k and tanh(m t) in T = tanh t. `Series` therefore
holds Python ints and rejects anything else, so all series arithmetic is
exact without rational arithmetic. Rank decisions over Q are made from these
integer rows in `recursions`. Floating point appears only in quadrature
oracles elsewhere.
"""
from __future__ import annotations

from math import comb, gcd, lcm


def _integer(c) -> int:
    """c as an int; ValueError unless c is a rational number with denominator 1."""
    if getattr(c, "denominator", None) != 1:
        raise ValueError(f"series coefficients must be integers, got {c!r}")
    return int(c)


class Series:
    """Truncated power series sum_{n < order} c_n T^n over Z."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = [_integer(c) for c in coeffs]
        if order is not None:
            cs = cs[:order] + [0] * max(0, order - len(cs))
        self.coeffs = cs

    @classmethod
    def _of(cls, ints: list) -> "Series":
        """A series over a list of ints made here, without re-checking them."""
        out = object.__new__(cls)
        out.coeffs = ints
        return out

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else 0

    @staticmethod
    def one(order: int) -> "Series":
        return Series._of([1] + [0] * (order - 1))

    def __add__(self, other: "Series") -> "Series":
        n = max(self.order, other.order)
        return Series._of([a + b for a, b in zip(self.truncate(n).coeffs,
                                                 other.truncate(n).coeffs)])

    def __sub__(self, other: "Series") -> "Series":
        return self + other.scale(-1)

    def scale(self, c) -> "Series":
        c = _integer(c)
        return Series._of([c * x for x in self.coeffs])

    def __mul__(self, other: "Series") -> "Series":
        """Product truncated to the larger of the two orders."""
        n = max(self.order, other.order)
        out = [0] * n
        b = other.coeffs
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(min(n - i, len(b))):
                    out[i + j] += a * b[j]
        return Series._of(out)

    def shift(self, k: int) -> "Series":
        """Multiply by T^k (k >= 0) keeping the order."""
        return Series._of([0] * min(k, self.order) + self.coeffs[: max(0, self.order - k)])

    def truncate(self, order: int) -> "Series":
        return Series._of(self.coeffs[:order] + [0] * max(0, order - self.order))

    def inverse(self, order: int | None = None) -> "Series":
        """1 / self over Z; the constant term must be 1 or -1."""
        n = order or self.order
        c0 = self[0]
        if c0 not in (1, -1):
            raise ValueError(f"an integer series inverse needs constant term +-1, got {c0}")
        a = self.truncate(n).coeffs
        inv = [0] * n
        inv[0] = c0
        for k in range(1, n):
            inv[k] = -c0 * sum(a[j] * inv[k - j] for j in range(1, k + 1))
        return Series._of(inv)

    def pow(self, m: int) -> "Series":
        out, base = Series.one(self.order), self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def __eq__(self, other) -> bool:
        n = max(self.order, other.order)
        return all(self[i] == other[i] for i in range(n))

    def __repr__(self):
        return "Series(" + ", ".join(str(c) for c in self.coeffs[:8]) + ", ...)"


def tanh_multiple(m: int, order: int) -> Series:
    """S(m)(T) = ((1+T)^m - (1-T)^m) / ((1+T)^m + (1-T)^m).

    With T = tanh(t), this is tanh(m t); it is odd with leading term m T.
    Numerator and denominator are halved to the odd and even parts of
    (1 + T)^m; the even part has constant term 1, so the quotient is integral.
    """
    odd = [comb(m, k) if k % 2 else 0 for k in range(min(m + 1, order))]
    even = [0 if k % 2 else comb(m, k) for k in range(min(m + 1, order))]
    return Series(odd, order) * Series(even, order).inverse(order)


class LinForm(dict):
    """Linear form over named unknowns: {unknown: int or Fraction}."""

    def normalized(self):
        """Primitive integer form with positive leading coefficient.

        Unknowns are ordered by (family, index); scaling an equation does not
        change it, so this canonical form supports exact row comparisons.
        """
        if not self:
            return LinForm()
        items = sorted(self.items())
        # lists, not generators: tuple(generator) reallocates as it grows, and
        # on forms of ~60 entries that ratchets the heap up call after call
        den = lcm(*[v.denominator for _, v in items])
        ints = [(k, v.numerator * (den // v.denominator)) for k, v in items]
        g = gcd(*[v for _, v in ints]) or 1
        if ints[0][1] < 0:
            g = -g
        return LinForm({k: v // g for k, v in ints})


def lin_series(order: int) -> list:
    """A power series whose coefficients are linear forms: a list of LinForm."""
    return [LinForm() for _ in range(order)]


def add_term(forms: list, unknown, series: Series):
    """forms[n] += series[n] * unknown for every n, in place."""
    for form, c in zip(forms, series.coeffs):
        if c:
            total = form.get(unknown, 0) + c
            if total:
                form[unknown] = total
            else:
                del form[unknown]
