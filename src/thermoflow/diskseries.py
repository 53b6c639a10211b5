"""Analytic expansions of holomorphic differentials in the disk chart.

A degree-d expansion evaluated at radius R along the flow from a rotated base
vector contributes c_n R^n (1 - R^2)^d e^{i (n + d) theta}; rotation averaging
of triple products isolates the bilinear combinations with a fixed index
offset, which is what the vanishing recursions act on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeMismatch


@dataclass(frozen=True)
class DifferentialExpansion:
    """degree in {2, 3}; finite complex coefficient list c_0..c_N."""

    degree: int
    coeffs: tuple

    def __post_init__(self):
        if self.degree not in (2, 3):
            raise DegreeMismatch("degree must be 2 or 3")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    def eval_at_radius(self, R: float, theta):
        """sum_n c_n R^n (1 - R^2)^d e^{i (n + d) theta} at one angle (a complex) or
        on an array of angles (an array of its shape).

        The sum is the polynomial sum_n (c_n R^n) z^{n + d} in z = e^{i theta}, taken
        by Horner's rule, so an array of angles costs one exp.
        """
        z = np.exp(1j * np.asarray(theta, dtype=float))
        p = [c * R ** n for n, c in enumerate(self.coeffs)][::-1] + [0.0] * self.degree
        out = (1.0 - R * R) ** self.degree * np.polyval(p, z)
        return out if np.ndim(out) else complex(out)


def paired_indices(d1: int, d2: int, d3: int, n: int) -> tuple:
    """The two (T-index, S-index) pairs that rotation averaging of expansions of
    degrees d1 at 0, d2 at T and d3 at S keeps at index n: (n, n + ka), the S
    coefficient conjugated, and (n + kb, n), the T one conjugated, with offsets
    ka = d1 + d2 - d3 and kb = d1 + d3 - d2 (so n = 0 gives (0, ka), (kb, 0))."""
    return (n, n + d1 + d2 - d3), (n + d1 + d3 - d2, n)


@dataclass(frozen=True)
class AngularReduction:
    """Theta-averaged triple product as a bivariate series in (T, S).

    value(T, S) = (1/4) sum_n [ Re(x0 y_n conj(z_{n+k})) T^n S^{n+k}
                              + Re(x0 conj(y_{n+k'}) z_n) T^{n+k'} S^n ]
                  * (1-T^2)^{deg2} (1-S^2)^{deg3}
    with offsets k = d1 + d2 - d3 and k' = d1 + d3 - d2.
    """

    deg2: int
    deg3: int
    offset_a: int
    offset_b: int
    terms_a: tuple  # Re(x0 y_n conj(z_{n+k})), index n
    terms_b: tuple  # Re(x0 conj(y_{n+k'}) z_n), index n

    def value(self, T: float, S: float) -> float:
        out = 0.0
        for n, c in enumerate(self.terms_a):
            out += c * T ** n * S ** (n + self.offset_a)
        for n, c in enumerate(self.terms_b):
            out += c * T ** (n + self.offset_b) * S ** n
        return 0.25 * out * (1 - T * T) ** self.deg2 * (1 - S * S) ** self.deg3


def angular_triple_reduce(e1: DifferentialExpansion, e2: DifferentialExpansion,
                          e3: DifferentialExpansion) -> AngularReduction:
    """Reduce (1/2pi) int Re(e1@0) Re(e2@T) Re(e3@S) dtheta to its (T, S) series.

    Only the r = 0 value of e1 enters (its higher coefficients vanish at the
    origin); the surviving terms pair indices with offset d1 + d2 - d3 one way
    and d1 + d3 - d2 the other.
    """
    degs = d1, d2, d3 = e1.degree, e2.degree, e3.degree
    x0 = e1.coeffs[0] if e1.coeffs else 0.0
    (_, ka), (kb, _) = paired_indices(*degs, 0)
    if ka < 0 or kb < 0:
        raise DegreeMismatch("incompatible degrees")

    def coeff(e, i):
        return e.coeffs[i] if i < len(e.coeffs) else 0.0

    terms_a = [float(np.real(x0 * coeff(e2, i) * np.conj(coeff(e3, j))))
               for i, j in (paired_indices(*degs, n)[0] for n in range(len(e2.coeffs)))]
    terms_b = [float(np.real(x0 * np.conj(coeff(e2, i)) * coeff(e3, j)))
               for i, j in (paired_indices(*degs, n)[1] for n in range(len(e3.coeffs)))]
    return AngularReduction(deg2=d2, deg3=d3, offset_a=ka, offset_b=kb,
                            terms_a=tuple(terms_a), terms_b=tuple(terms_b))


def quadrature_triple(e1: DifferentialExpansion, e2: DifferentialExpansion,
                      e3: DifferentialExpansion, T: float, S: float,
                      n_theta: int = 512) -> float:
    """Direct trapezoidal theta-average of the triple product over n_theta angles
    (spectrally exact for finite expansions once n_theta exceeds the total bandwidth).
    n_theta must be a positive int (not a bool), else ValueError."""
    if isinstance(n_theta, bool) or not isinstance(n_theta, (int, np.integer)) or n_theta < 1:
        raise ValueError(f"n_theta must be a positive integer, got {n_theta!r}")
    thetas = np.linspace(0.0, 2 * math.pi, n_theta, endpoint=False)
    return float(np.mean(e1.eval_at_radius(0.0, thetas).real
                         * e2.eval_at_radius(T, thetas).real
                         * e3.eval_at_radius(S, thetas).real))
