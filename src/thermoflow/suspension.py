"""Suspension flows over shifts: roof functions, pressure transfer, derivatives.

The flow pressure of F is the unique c with P(sigma, F_hat - c * roof) = 0,
where F_hat integrates F over each fiber. c -> P(F_hat - c * roof) is convex
and strictly decreasing with exact slope -int roof dm (Parry & Pollicott,
Asterisque 187-188), so Newton started where P >= 0 climbs monotonically to
the root. Parameter derivatives of the flow pressure transfer to shift-side
derivative formulas after dividing by the mean roof; lower-order terms are
removed by subtracting constants.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .derivatives import PotentialFamily, _central_difference, _prepare
from .errors import NoConvergence
from .sft import DepthKFunction, Sft, admissible_words, constant_function
from .transfer import equilibrium_measure, rpf

# Gauss-Legendre nodes per fiber, and the flow-pressure root tolerance |P| and
# Newton step budget.
_QUAD_ORDER = 16
_ROOT_TOL = 1e-11
_NEWTON_STEPS = 50


@dataclass(frozen=True)
class SuspensionFlow:
    sft: Sft
    roof: DepthKFunction

    def __post_init__(self):
        if min(float(np.real(v)) for v in self.roof.values.values()) <= 0:
            raise ValueError("roof function must be strictly positive")

    def roof_at(self, word) -> float:
        return float(np.real(self.roof.values[tuple(word[: self.roof.depth])]))


@dataclass
class FlowFunction:
    """Function on the suspension space, locally constant in the base word.

    `evaluate_rel(word, tau)` is its value at relative fiber time
    tau = t / roof in [0, 1]. Fibers are assumed smooth, so a fixed
    Gauss-Legendre rule integrates them.
    """

    depth: int
    evaluate_rel: Callable

    @staticmethod
    def from_fourier(depth: int, cylinders: dict) -> "FlowFunction":
        """Fiber profiles c0 + sum_j a_j cos(2 pi j tau) + b_j sin(2 pi j tau)."""
        table = {tuple(w): spec for w, spec in cylinders.items()}

        def evaluate_rel(word, tau):
            spec = table[tuple(word[:depth])]
            out = spec.get("const", 0.0)
            for j, a in enumerate(spec.get("cos", []), start=1):
                out += a * math.cos(2 * math.pi * j * tau)
            for j, b in enumerate(spec.get("sin", []), start=1):
                out += b * math.sin(2 * math.pi * j * tau)
            return out

        return FlowFunction(depth=depth, evaluate_rel=evaluate_rel)

    @staticmethod
    def constant(value: float) -> "FlowFunction":
        return FlowFunction(depth=1, evaluate_rel=lambda w, tau: value)

    @staticmethod
    def combine(parts) -> "FlowFunction":
        """Linear combination [(coef, FlowFunction), ...]."""
        parts = [(c, f) for c, f in parts if f is not None]
        if not parts:
            raise ValueError("empty combination")

        def rel(word, tau):
            return sum(c * f.evaluate_rel(word, tau) for c, f in parts)

        return FlowFunction(depth=max(f.depth for _, f in parts), evaluate_rel=rel)


@functools.cache
def _gauss_legendre() -> tuple:
    """(taus, weights): the _QUAD_ORDER-point Gauss-Legendre rule with its nodes
    as fiber times in [0, 1]. Computed once, on first use rather than at
    import: its eigensolve would be the first LAPACK call, costing about 0.9 MB
    of resident memory, in runs that integrate no fiber."""
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_ORDER)
    return 0.5 * (nodes + 1.0), weights


def hat_function(flow: SuspensionFlow, F: FlowFunction) -> DepthKFunction:
    """F_hat(x) = integral of F over the fiber [0, roof(x)] (Gauss-Legendre).

    Exact for fibers polynomial in tau up to degree 2 * _QUAD_ORDER - 1.
    """
    depth = max(F.depth, flow.roof.depth)
    taus, weights = _gauss_legendre()
    vals = {}
    for w in admissible_words(flow.sft, depth):
        fiber = np.array([F.evaluate_rel(w, tau) for tau in taus])
        vals[w] = 0.5 * flow.roof_at(w) * float(weights @ fiber)
    return DepthKFunction(flow.sft, depth, vals)


def _hat_or_zero(flow: SuspensionFlow, F: FlowFunction | None) -> DepthKFunction:
    if F is None:
        return constant_function(flow.sft, 0.0, depth=flow.roof.depth)
    return hat_function(flow, F)


def flow_measure_factor(m, roof: DepthKFunction) -> float:
    """int roof dm: the normalizer relating base and flow invariant measures."""
    return float(np.real(m.integrate(roof)))


def flow_pressure(flow: SuspensionFlow, F: FlowFunction | None) -> float:
    """Unique root c of P(F_hat - c * roof) = 0 by monotone Newton.

    p(c) = P(F_hat - c * roof) is convex and strictly decreasing with slope
    -int roof dm_c, m_c the equilibrium state of F_hat - c * roof. At
    c0 = min F_hat / roof the potential F_hat - c0 * roof is >= 0, so
    p(c0) >= h_top + min(F_hat - c0 * roof) >= 0 and c0 lies at or left of
    the root. A tangent of a convex function lies below it, so Newton from a
    point with p >= 0 lands at or left of the root again: the steps increase
    monotonically to the root with no bracket, one RPF solve each. The step
    taken from the first point with |p| < _ROOT_TOL is returned, since it
    cannot overshoot either. A run that does not get there in _NEWTON_STEPS
    steps raises NoConvergence.
    """
    s, roof = flow.sft, flow.roof
    hat = _hat_or_zero(flow, F)
    c = min(float(np.real(v)) / flow.roof_at(w) for w, v in hat.values.items())
    for _ in range(_NEWTON_STEPS):
        w = hat - roof * c
        data = rpf(s, w)
        c += data.pressure / flow_measure_factor(equilibrium_measure(s, w, data), roof)
        if abs(data.pressure) < _ROOT_TOL:
            return c
    raise NoConvergence(f"flow pressure Newton stalled at |P| = {abs(data.pressure):.3e}")


@dataclass
class FlowFamily:
    """Cubic-in-s family F_s = F0 + s G1 + (s^2/2) G2 + (s^3/6) G3 on fibers."""

    F0: FlowFunction | None
    G1: FlowFunction | None = None
    G2: FlowFunction | None = None
    G3: FlowFunction | None = None

    def at(self, s: float) -> FlowFunction | None:
        parts = [(1.0, self.F0), (s, self.G1), (s * s / 2.0, self.G2),
                 ((s ** 3) / 6.0, self.G3)]
        parts = [(c, f) for c, f in parts if f is not None]
        if not parts:
            return None
        return FlowFunction.combine(parts)


def flow_pressure_derivative_transfer(flow: SuspensionFlow, family: FlowFamily,
                                      order: int):
    """(flow-side fd, shift-side formula) for the order-th derivative of c(s).

    Shift side: the pressure-derivative assembly of s -> F_hat_s - c_s * roof,
    divided by int roof dm; the constants s k1 + (s^2/2) k2 are subtracted so
    that the lower derivatives vanish as the formulas require. Every shift-side
    term is taken on one prepared base F_hat_0 - c_0 * roof.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    roof = flow.roof
    c0 = flow_pressure(flow, family.F0)
    hat0 = _hat_or_zero(flow, family.F0) - roof * c0
    hat1, hat2, hat3 = (_hat_or_zero(flow, G) for G in (family.G1, family.G2, family.G3))
    base = _prepare(hat0, max(hat0.depth, hat1.depth, hat2.depth, hat3.depth))
    R = base.ctx.integrate(roof)
    kappa1 = base.ctx.integrate(hat1) / R

    def shift_family(second):
        partials = {(0,): hat1 - roof * kappa1, (0, 0): second, (0, 0, 0): hat3}
        return PotentialFamily.from_taylor(flow.sft, hat0, partials)

    if order == 1:
        shift_side = kappa1
    else:
        shift_side = kappa2 = base.d2(shift_family(hat2))[0] / R
        if order == 3:
            shift_side = base.d3(shift_family(hat2 - roof * kappa2))[0] / R

    def c(sv):
        return c0 if sv == 0.0 else flow_pressure(flow, family.at(sv))

    return _central_difference(c, order), shift_side
