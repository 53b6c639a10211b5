"""Poincare-disk geodesic flow and a Sasaki-type distance on unit vectors.

Curvature -1 normalization: metric 2|dw| / (1 - |w|^2). A unit tangent vector
is stored as (z, u) with base point z and direction u on the unit circle of
the conformal chart.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class UnitTangent:
    z: complex
    u: complex  # |u| = 1 direction in the chart

    def normalized(self) -> "UnitTangent":
        return UnitTangent(self.z, self.u / abs(self.u))


def mobius_to_origin(z: complex):
    """Disk automorphism w -> (w - z) / (1 - conj(z) w) and its derivative."""

    def phi(w):
        return (w - z) / (1 - np.conj(z) * w)

    def dphi(w):
        return (1 - abs(z) ** 2) / (1 - np.conj(z) * w) ** 2

    return phi, dphi


def mobius_from_origin(z: complex, alpha: complex):
    """Inverse of rotate-by-conj(alpha) then move origin to z."""

    def inv(zeta):
        return (z + alpha * zeta) / (1 + np.conj(z) * alpha * zeta)

    def dinv(zeta):
        return alpha * (1 - abs(z) ** 2) / (1 + np.conj(z) * alpha * zeta) ** 2

    return inv, dinv


def geodesic_flow(x: UnitTangent, s: float) -> UnitTangent:
    """Flow for hyperbolic time s along the geodesic determined by (z, u)."""
    z, u = x.z, x.u / abs(x.u)
    inv, dinv = mobius_from_origin(z, u)
    zeta = math.tanh(s / 2)  # curvature -1: d(0, R) = 2 artanh R
    z2 = inv(zeta)
    u2 = dinv(zeta)
    return UnitTangent(complex(z2), complex(u2 / abs(u2)))


def hyperbolic_distance(z1: complex, z2: complex) -> float:
    num = abs(z1 - z2)
    den = abs(1 - np.conj(z1) * z2)
    return 2.0 * math.atanh(min(num / den, 1 - 1e-16))


def _angle_wrap(a: float) -> float:
    a = math.fmod(a, 2 * math.pi)
    if a > math.pi:
        a -= 2 * math.pi
    if a < -math.pi:
        a += 2 * math.pi
    return abs(a)


def sasaki_distance(x: UnitTangent, y: UnitTangent) -> float:
    """sqrt(base distance^2 + transported angle^2).

    The direction of x is parallel-transported to y's base point along the
    connecting geodesic; transport along a radial geodesic of the centered
    chart preserves the chart argument, which gives the angle defect.
    """
    if abs(x.z - y.z) < 1e-300 and abs(x.u - y.u) < 1e-300:
        return 0.0
    phi, dphi = mobius_to_origin(x.z)
    w2 = phi(y.z)
    if abs(w2) > 1e-300:
        rot = w2 / abs(w2)
    else:
        rot = 1.0
    # rotate so y's image lies on the positive real axis
    u1 = dphi(x.z) * x.u / rot
    u2 = dphi(y.z) * y.u / rot
    angle = _angle_wrap(cmath.phase(u2) - cmath.phase(u1))
    d_base = hyperbolic_distance(x.z, y.z)
    return math.hypot(d_base, angle)


def flow_contraction_ratio(x: UnitTangent, y: UnitTangent, s: float) -> float:
    """d(Phi_s x, Phi_s y) / (e^s d(x, y)); bounded by 2 sqrt(2) for s >= 0."""
    if x == y:
        raise ValueError("x and y must be distinct")
    d0 = sasaki_distance(x, y)
    ds = sasaki_distance(geodesic_flow(x, s), geodesic_flow(y, s))
    return ds / (math.exp(s) * d0)


def perturbed(x: UnitTangent, rng, eps: float = 1e-2) -> UnitTangent:
    dz = eps * (rng.normal() + 1j * rng.normal())
    dphi = eps * rng.normal()
    z = x.z + dz * (1 - abs(x.z) ** 2) / 2
    if abs(z) >= 1:
        z = x.z
    return UnitTangent(z, x.u * cmath.exp(1j * dphi))
