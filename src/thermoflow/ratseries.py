"""Exact rational power series, plus series with linear-form coefficients.

The vanishing arguments for the disk recursions are algebraic: every rank
decision is made over Q, so all series composition and substitution here is
done with Fraction arithmetic. Floating point appears only in quadrature
oracles elsewhere.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb


class Series:
    """Truncated power series sum_{n < order} c_n T^n over Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            cs = cs[:order] + [Fraction(0)] * max(0, order - len(cs))
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else Fraction(0)

    @staticmethod
    def zero(order: int) -> "Series":
        return Series([0] * order)

    @staticmethod
    def one(order: int) -> "Series":
        return Series([1] + [0] * (order - 1))

    @staticmethod
    def x(order: int) -> "Series":
        return Series([0, 1], order)

    def __add__(self, other: "Series") -> "Series":
        n = max(self.order, other.order)
        return Series([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "Series") -> "Series":
        n = max(self.order, other.order)
        return Series([self[i] - other[i] for i in range(n)])

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs])

    def scale(self, c) -> "Series":
        c = Fraction(c)
        return Series([c * x for x in self.coeffs])

    def __mul__(self, other: "Series") -> "Series":
        n = max(self.order, other.order)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            top = min(n - i, other.order)
            for j in range(top):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return Series(out)

    def shift(self, k: int) -> "Series":
        """Multiply by T^k (k >= 0) keeping the order."""
        return Series([Fraction(0)] * k + self.coeffs[: max(0, self.order - k)])

    def truncate(self, order: int) -> "Series":
        return Series(self.coeffs, order)

    def inverse(self, order: int | None = None) -> "Series":
        n = order or self.order
        if self[0] == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        inv = [Fraction(0)] * n
        inv[0] = 1 / self[0]
        for k in range(1, n):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += self[j] * inv[k - j]
            inv[k] = -acc / self[0]
        return Series(inv)

    def pow(self, m: int, order: int | None = None) -> "Series":
        n = order or self.order
        out = Series.one(n)
        base = self.truncate(n)
        e = m
        while e > 0:
            if e & 1:
                out = (out * base).truncate(n)
            base = (base * base).truncate(n)
            e >>= 1
        return out

    def compose(self, inner: "Series") -> "Series":
        """self(inner(T)) for inner with zero constant term (Horner)."""
        if inner[0] != 0:
            raise ValueError("composition needs zero constant term")
        n = max(self.order, inner.order)
        out = Series.zero(n)
        for c in reversed(self.coeffs):
            out = (out * inner).truncate(n)
            out.coeffs[0] += Fraction(c)
        return out

    def __eq__(self, other) -> bool:
        n = max(self.order, other.order)
        return all(self[i] == other[i] for i in range(n))

    def __repr__(self):
        return "Series(" + ", ".join(str(c) for c in self.coeffs[:8]) + ", ...)"


def binomial_one_plus(order: int, m: int, sign: int = 1) -> Series:
    """(1 + sign*T)^m as a polynomial series."""
    return Series([comb(m, k) * (sign ** k) for k in range(min(m + 1, order))], order)


def tanh_multiple(m: int, order: int) -> Series:
    """S(m)(T) = ((1+T)^m - (1-T)^m) / ((1+T)^m + (1-T)^m).

    With T = tanh(t), this is tanh(m t); it is odd with leading term m T.
    """
    plus = binomial_one_plus(order, m, +1)
    minus = binomial_one_plus(order, m, -1)
    num = plus - minus
    den = plus + minus
    return (num * den.inverse(order)).truncate(order)


class LinForm(dict):
    """Linear form over named unknowns: {unknown: Fraction}."""

    def __add__(self, other):
        out = LinForm(self)
        for k, v in other.items():
            out[k] = out.get(k, Fraction(0)) + v
            if out[k] == 0:
                del out[k]
        return out

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return LinForm()
        return LinForm({k: c * v for k, v in self.items()})

    def normalized(self):
        """Primitive integer form with positive leading coefficient.

        Unknowns are ordered by (family, index); scaling an equation does not
        change it, so this canonical form supports exact row comparisons.
        """
        if not self:
            return LinForm()
        items = sorted(self.items())
        dens = 1
        for _, v in items:
            dens = dens * v.denominator // _gcd(dens, v.denominator)
        ints = [(k, v * dens) for k, v in items]
        g = 0
        for _, v in ints:
            g = _gcd(g, abs(int(v)))
        lead = ints[0][1]
        sign = -1 if lead < 0 else 1
        return LinForm({k: Fraction(sign * int(v) // g) for k, v in ints})


def _gcd(a, b):
    a, b = int(a), int(b)
    while b:
        a, b = b, a % b
    return a if a else 1


class LinSeries:
    """Power series whose coefficients are linear forms in the unknowns."""

    def __init__(self, order: int):
        self.order = order
        self.coeffs = [LinForm() for _ in range(order)]

    def __add__(self, other: "LinSeries") -> "LinSeries":
        out = LinSeries(max(self.order, other.order))
        for n in range(out.order):
            a = self.coeffs[n] if n < self.order else LinForm()
            b = other.coeffs[n] if n < other.order else LinForm()
            out.coeffs[n] = a + b
        return out

    def add_term(self, unknown, scalar_series: Series):
        for n in range(min(self.order, scalar_series.order)):
            c = scalar_series[n]
            if c:
                self.coeffs[n] = self.coeffs[n] + LinForm({unknown: c})
