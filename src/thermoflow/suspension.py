"""Suspension flows over shifts: roof functions, pressure transfer, derivatives.

The flow pressure of F is the unique c with P(sigma, F_hat - c * roof) = 0,
where F_hat integrates F over each fiber. Parameter derivatives of the flow
pressure transfer to shift-side derivative formulas after dividing by the
mean roof; lower-order terms are removed by subtracting constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .correlations import EquilibriumContext
from .derivatives import PotentialFamily, pressure_d2, pressure_d3
from .errors import BracketingFailed
from .sft import DepthKFunction, Sft, admissible_words, constant_function
from .transfer import equilibrium_measure, normalize_potential, pressure, rpf


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

    Exactly one of `evaluate` (absolute fiber time t in [0, roof]) or
    `evaluate_rel` (relative time tau = t / roof in [0, 1]) is set. Fibers are
    assumed smooth, so a fixed Gauss-Legendre rule integrates them.
    """

    depth: int
    evaluate: Callable | None = None
    evaluate_rel: Callable | None = None
    quad_order: int = 16

    def __post_init__(self):
        if (self.evaluate is None) == (self.evaluate_rel is None):
            raise ValueError("set exactly one of evaluate / evaluate_rel")

    @staticmethod
    def from_fourier(depth: int, cylinders: dict, quad_order: int = 16) -> "FlowFunction":
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

        return FlowFunction(depth=depth, evaluate_rel=evaluate_rel,
                            quad_order=quad_order)

    @staticmethod
    def constant(value: float) -> "FlowFunction":
        return FlowFunction(depth=1, evaluate_rel=lambda w, tau: value)

    def combine(parts) -> "FlowFunction":
        """Linear combination [(coef, FlowFunction), ...] of one common kind."""
        parts = [(c, f) for c, f in parts if f is not None]
        if not parts:
            raise ValueError("empty combination")
        depth = max(f.depth for _, f in parts)
        order = max(f.quad_order for _, f in parts)
        if all(f.evaluate_rel is not None for _, f in parts):
            def rel(word, tau):
                return sum(c * f.evaluate_rel(word, tau) for c, f in parts)
            return FlowFunction(depth=depth, evaluate_rel=rel, quad_order=order)
        if all(f.evaluate is not None for _, f in parts):
            def absolute(word, t):
                return sum(c * f.evaluate(word, t) for c, f in parts)
            return FlowFunction(depth=depth, evaluate=absolute, quad_order=order)
        raise ValueError("cannot mix absolute and relative fiber parameterizations")


def _fiber_integral(flow: SuspensionFlow, F: FlowFunction, word, nodes, weights) -> float:
    r = flow.roof_at(word)
    ts = 0.5 * r * (nodes + 1.0)
    if F.evaluate_rel is not None:
        vals = np.array([F.evaluate_rel(word, t / r) for t in ts])
    else:
        vals = np.array([F.evaluate(word, t) for t in ts])
    return 0.5 * r * float(weights @ vals)


def hat_function(flow: SuspensionFlow, F: FlowFunction) -> DepthKFunction:
    """F_hat(x) = integral of F over the fiber [0, roof(x)] (Gauss-Legendre).

    Exact for fibers polynomial in t up to degree 2 * quad_order - 1.
    """
    depth = max(F.depth, flow.roof.depth)
    nodes, weights = np.polynomial.legendre.leggauss(F.quad_order)
    vals = {w: _fiber_integral(flow, F, w, nodes, weights)
            for w in admissible_words(flow.sft, depth)}
    return DepthKFunction(flow.sft, depth, vals)


def flow_measure_factor(m, roof: DepthKFunction) -> float:
    """int roof dm: the normalizer relating base and flow invariant measures."""
    return float(np.real(m.integrate(roof)))


def flow_pressure(flow: SuspensionFlow, F: FlowFunction | None,
                  residual_tol: float = 1e-11, max_doublings: int = 200) -> float:
    """Unique root c of P(F_hat - c * roof) = 0: bisection bracket, Newton finish.

    c -> P(F_hat - c * roof) is strictly decreasing with slope -int roof dm,
    which gives both a guaranteed bracket and an exact Newton derivative.
    """
    hat = hat_function(flow, F) if F is not None else constant_function(flow.sft, 0.0)
    s = flow.sft
    roof = flow.roof

    def P(c):
        return pressure(s, hat - roof * c)

    lo, step = 0.0, 1.0
    for _ in range(max_doublings):
        if P(lo) >= 0:
            break
        lo -= step
        step *= 2
    else:
        raise BracketingFailed("no lower bracket found")
    hi, step = lo + 1.0, 1.0
    for _ in range(max_doublings):
        if P(hi) <= 0:
            break
        hi += step
        step *= 2
    else:
        raise BracketingFailed("no upper bracket found")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if P(mid) > 0:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    for _ in range(50):
        w = hat - roof * c
        data = rpf(s, w)
        if abs(data.pressure) < residual_tol:
            return c
        slope = -flow_measure_factor(equilibrium_measure(s, w, data), roof)
        c = c - data.pressure / slope
    raise BracketingFailed(f"Newton refinement stalled at |P| = {abs(P(c)):.3e}")


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


def _hat_or_zero(flow: SuspensionFlow, F: FlowFunction | None) -> DepthKFunction:
    if F is None:
        return constant_function(flow.sft, 0.0)
    return hat_function(flow, F)


def flow_pressure_derivative_transfer(flow: SuspensionFlow, family: FlowFamily,
                                      order: int, fd_steps: dict | None = None):
    """(flow-side fd, shift-side formula) for the order-th derivative of c(s).

    Shift side: the pressure-derivative assembly of s -> F_hat_s - c_s * roof,
    divided by int roof dm; the constants s k1 + (s^2/2) k2 are subtracted so
    that the lower derivatives vanish as the formulas require.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    s = flow.sft
    roof = flow.roof
    c0 = flow_pressure(flow, family.F0)
    hat0 = _hat_or_zero(flow, family.F0) - roof * c0
    hat1 = _hat_or_zero(flow, family.G1)
    hat2 = _hat_or_zero(flow, family.G2)
    hat3 = _hat_or_zero(flow, family.G3)
    data = rpf(s, hat0)
    R = flow_measure_factor(equilibrium_measure(s, hat0, data), roof)
    wn = normalize_potential(s, hat0, data)
    depth = max(hat0.depth, hat1.depth, hat2.depth, hat3.depth, roof.depth, wn.depth)
    ctx = EquilibriumContext(s, wn, depth=depth)
    kappa1 = ctx.integrate(hat1) / R

    def shift_family(extra):
        partials = {(0,): hat1 - roof * kappa1}
        partials.update(extra)
        return PotentialFamily.from_taylor(s, hat0, partials, nparams=1)

    if order == 1:
        shift_side = kappa1
    elif order == 2:
        shift_side = pressure_d2(shift_family({(0, 0): hat2})) / R
    else:
        kappa2 = pressure_d2(shift_family({(0, 0): hat2})) / R
        fam3 = shift_family({(0, 0): hat2 - roof * kappa2, (0, 0, 0): hat3})
        shift_side = pressure_d3(fam3) / R

    steps = fd_steps or {1: 1e-4, 2: 5e-3, 3: 1e-2}
    h = steps[order]

    def c(sv):
        return flow_pressure(flow, family.at(sv))

    if order == 1:
        flow_side = (c(h) - c(-h)) / (2 * h)
    elif order == 2:
        flow_side = (c(h) - 2 * c0 + c(-h)) / h ** 2
    else:
        flow_side = (c(2 * h) - 2 * c(h) + 2 * c(-h) - c(-2 * h)) / (2 * h ** 3)
    return flow_side, shift_side
