"""Suspension flows over shifts: roof functions, pressure transfer, derivatives.

The flow pressure of F is the unique c with P(sigma, F_hat - c * roof) = 0,
where F_hat integrates F over each fiber. c -> P(F_hat - c * roof) is convex
and strictly decreasing with exact slope -int roof dm (Parry & Pollicott,
Asterisque 187-188), so Newton started where P >= 0 climbs monotonically to
the root. F enters only through F_hat, so a flow function is held as its mean
over each fiber and F_hat = roof * mean is exact. Parameter derivatives of the
flow pressure transfer to shift-side derivative formulas after dividing by the
mean roof; lower-order terms are removed by subtracting constants.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .derivatives import PotentialFamily, _central_difference, _prepare
from .errors import NoConvergence
from .sft import DepthKFunction, Sft, constant_function
from .transfer import equilibrium_measure, rpf

# The flow-pressure root tolerance |P| and Newton step budget.
_ROOT_TOL = 1e-11
_NEWTON_STEPS = 50


@dataclass(frozen=True)
class SuspensionFlow:
    sft: Sft
    roof: DepthKFunction

    def __post_init__(self):
        if self.roof.array.real.min() <= 0:
            raise ValueError("roof function must be strictly positive")


@dataclass
class FlowFunction:
    """Function on the suspension space, held as its fiber means.

    `mean[word[:depth]]` is the mean of F over the fiber of `word`, so the
    integral of F over that fiber is roof(word) * mean[word[:depth]].
    """

    depth: int
    mean: Mapping[tuple, float]

    @staticmethod
    def from_fourier(depth: int, cylinders: dict) -> "FlowFunction":
        """Fiber profiles c0 + sum_j a_j cos(2 pi j tau) + b_j sin(2 pi j tau) in
        the relative fiber time tau in [0, 1]; every mode has mean zero over the
        fiber, so the mean is c0."""
        return FlowFunction(depth, {tuple(w): spec.get("const", 0.0)
                                    for w, spec in cylinders.items()})

    @staticmethod
    def constant(value: float) -> "FlowFunction":
        return FlowFunction(0, {(): value})


def hat_function(flow: SuspensionFlow, F: FlowFunction | None) -> DepthKFunction:
    """F_hat(x) = integral of F over the fiber [0, roof(x)] = roof(x) * mean of F
    on x's cylinder; F = None is the zero function, at the depth of the roof."""
    if F is None:
        return constant_function(flow.sft, 0.0, depth=flow.roof.depth)
    roof = DepthKFunction(flow.sft, flow.roof.depth, flow.roof.array.real)
    return roof * (F.mean[()] if F.depth == 0 else DepthKFunction(flow.sft, F.depth, F.mean))


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
    hat = hat_function(flow, F)
    c = float((hat.array.real / roof.promote(hat.depth).array.real).min())
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
        """F_s, its fiber means combined linearly at the depth of the deepest part."""
        parts = [(c, f) for c, f in ((1.0, self.F0), (s, self.G1), (s * s / 2.0, self.G2),
                                     ((s ** 3) / 6.0, self.G3)) if f is not None]
        if not parts:
            return None
        deep = max((f for _, f in parts), key=lambda f: f.depth)
        return FlowFunction(deep.depth, {w: sum(c * f.mean[w[:f.depth]] for c, f in parts)
                                         for w in deep.mean})


def flow_pressure_derivative_transfer(flow: SuspensionFlow, family: FlowFamily,
                                      order: int):
    """(flow-side fd, shift-side formula) for the order-th derivative of c(s).

    Shift side: the pressure-derivative assembly of s -> F_hat_s - c_s * roof,
    divided by int roof dm; the constants s k1 + (s^2/2) k2 are subtracted so
    that the lower derivatives vanish, as `_Base.d2` and `.d3` check. Every
    shift-side term is taken on one prepared base F_hat_0 - c_0 * roof.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    roof = flow.roof
    c0 = flow_pressure(flow, family.F0)
    hat0 = hat_function(flow, family.F0) - roof * c0
    hat1, hat2, hat3 = (hat_function(flow, G) for G in (family.G1, family.G2, family.G3))
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
