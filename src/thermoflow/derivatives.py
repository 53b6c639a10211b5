"""Pressure derivatives up to third order, their oracles, and the metric assembly.

First derivative: integral of the parameter derivative against the equilibrium
state. Second: variance plus the second-parameter integral (valid once the
first derivative vanishes). Third: triple covariance + 3 cov(d1, d2) + the
third-parameter integral. Mixed versions assemble the corresponding
multi-parameter displays. Every formula is cross-checkable against central
finite differences of the pressure (fd_oracle).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .correlations import EquilibriumContext, covariance, triple_covariance, variance
from .errors import DegenerateDenominator, HypothesisViolated
from .sft import DepthKFunction, Sft
from .transfer import RpfData, normalize_potential, pressure, rpf

FIRST_DERIV_TOL = 1e-8


def _factorial(alpha) -> int:
    out = 1
    for _, reps in itertools.groupby(sorted(alpha)):
        n = len(list(reps))
        for i in range(2, n + 1):
            out *= i
    return out


@dataclass
class PotentialFamily:
    """Smooth family of depth-k potentials with partials at parameter zero.

    `partials` maps sorted multi-indices like (0,), (0, 1), (1, 1, 2) to the
    corresponding parameter derivatives at 0. Families built from a Taylor
    table have exact partials; `validate` checks them against central finite
    differences of the evaluator.
    """

    sft: Sft
    nparams: int
    f0: DepthKFunction
    evaluator: Callable
    partials: dict = field(default_factory=dict)
    complete_partials: bool = False  # absent keys mean identically-zero partials

    def at(self, params) -> DepthKFunction:
        params = tuple(params)
        if len(params) != self.nparams:
            raise ValueError(f"expected {self.nparams} parameters")
        return self.evaluator(params)

    def partial(self, alpha) -> DepthKFunction:
        key = tuple(sorted(alpha))
        if key in self.partials:
            return self.partials[key]
        if self.complete_partials:
            return self.f0 * 0.0
        return self._fd_partial(key)

    def _fd_partial(self, alpha, h: float = 1e-4) -> DepthKFunction:
        if len(alpha) == 1:
            e = _unit(self.nparams, alpha[0], h)
            g = (self.at(e) - self.at(_neg(e))) * (0.5 / h)
            return g
        if len(alpha) == 2:
            i, j = alpha
            ei, ej = _unit(self.nparams, i, h), _unit(self.nparams, j, h)
            pp = self.at(_add(ei, ej))
            pm = self.at(_add(ei, _neg(ej)))
            mp = self.at(_add(_neg(ei), ej))
            mm = self.at(_add(_neg(ei), _neg(ej)))
            return (pp - pm - mp + mm) * (0.25 / h ** 2)
        raise NotImplementedError("third-order fd partials are not provided; "
                                  "supply closed-form partials")

    def validate(self, h: float = 1e-4, tol: float = 1e-5) -> float:
        worst = 0.0
        for alpha, g in self.partials.items():
            if len(alpha) > 2:
                continue
            fd = self._fd_partial(alpha, h=h)
            worst = max(worst, (g - fd).sup_norm())
        if worst > tol:
            raise ValueError(f"closed-form partials deviate from fd by {worst:.3e}")
        return worst

    @staticmethod
    def from_taylor(sft: Sft, f0: DepthKFunction, partials: dict,
                    nparams: int = 1) -> "PotentialFamily":
        table = {tuple(sorted(a)): g for a, g in partials.items()}

        def evaluator(params):
            out = f0
            for alpha, g in table.items():
                coef = 1.0 / _factorial(alpha)
                for i in alpha:
                    coef *= params[i]
                if coef != 0.0:
                    out = out + g * coef
            return out

        return PotentialFamily(sft=sft, nparams=nparams, f0=f0,
                               evaluator=evaluator, partials=table,
                               complete_partials=True)


def _unit(n, i, h):
    return tuple(h if j == i else 0.0 for j in range(n))


def _neg(v):
    return tuple(-x for x in v)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


@dataclass
class _Base:
    """One base potential solved once: its RPF data, normalization and context.

    `d1`, `d2` and `d3` return (value, stated error bound of the correlation
    sums they computed) for any family whose base is this potential.
    """

    data: RpfData
    w_norm: DepthKFunction
    m: object
    ctx: EquilibriumContext

    def centered(self, g: DepthKFunction) -> DepthKFunction:
        return g - self.ctx.integrate(g)

    def d1(self, family: PotentialFamily, param: int = 0):
        return self.ctx.integrate(family.partial((param,))), 0.0

    def d2(self, family: PotentialFamily, param: int = 0):
        _check_first_derivs_zero(self, family, [param])
        g0 = self.centered(family.partial((param,)))
        var = variance(g0, self.m, self.w_norm, ctx=self.ctx)
        return var.value + self.ctx.integrate(family.partial((param, param))), var.tail_bound

    def d3(self, family: PotentialFamily, param: int = 0):
        _check_first_derivs_zero(self, family, [param])
        g1 = self.centered(family.partial((param,)))
        g2 = family.partial((param, param))
        trip = triple_covariance(g1, g1, g1, self.m, self.w_norm, ctx=self.ctx)
        cov = covariance(g1, g2, self.m, self.w_norm, ctx=self.ctx)
        third = self.ctx.integrate(family.partial((param, param, param)))
        return (trip.value + 3.0 * cov.value + third,
                trip.tail_bound + 3.0 * cov.tail_bound)


def _prepare(f0: DepthKFunction, depth: int, data: RpfData | None = None) -> _Base:
    """One RPF solve of the base potential f0 (skipped when `data` is given),
    its normalization and its context at `depth`.

    The normalized potential, hence the context, does not change when a
    constant is added to f0, so no caller needs to shift the base first.
    """
    data = data or rpf(f0.sft, f0)
    w_norm = normalize_potential(f0.sft, f0, data)
    ctx = EquilibriumContext(f0.sft, w_norm, depth=depth)
    return _Base(data=data, w_norm=w_norm, m=ctx.measure(), ctx=ctx)


def _ctx_depth(family: PotentialFamily) -> int:
    depths = [family.f0.depth + 1]
    depths += [g.depth for g in family.partials.values()]
    return max(depths)


def _family_base(family: PotentialFamily) -> _Base:
    return _prepare(family.f0, _ctx_depth(family))


def pressure_d1(family: PotentialFamily, param: int = 0) -> float:
    """dP/ds at 0 = integral of d_s f_0 against the equilibrium state."""
    return _family_base(family).d1(family, param)[0]


def _check_first_derivs_zero(base: _Base, family: PotentialFamily, params):
    for p in params:
        val = base.ctx.integrate(family.partial((p,)))
        if abs(val) > FIRST_DERIV_TOL:
            raise HypothesisViolated(f"first derivative in parameter {p}", val)


def pressure_d2(family: PotentialFamily, param: int = 0) -> float:
    """Var(d_s f_0) + int d_ss f_0 dm; requires the first derivative to vanish."""
    return _family_base(family).d2(family, param)[0]


def pressure_d2_mixed(family: PotentialFamily, params=(0, 1)) -> float:
    """Cov(P d_s f, P d_t f) + int d_st f dm for a two-parameter family."""
    base = _family_base(family)
    _check_first_derivs_zero(base, family, params)
    i, j = params
    gi = base.centered(family.partial((i,)))
    cov = covariance(gi, family.partial((j,)), base.m, base.w_norm, ctx=base.ctx)
    return cov.value + base.ctx.integrate(family.partial((i, j)))


def pressure_d3(family: PotentialFamily, param: int = 0) -> float:
    """Triple covariance + 3 cov(d1, d2) + int d^3 f dm.

    A constant added to the base changes neither the equilibrium state nor any
    derivative; the vanishing of the first derivative is enforced.
    """
    return _family_base(family).d3(family, param)[0]


def pressure_d3_mixed(family: PotentialFamily, params=(0, 1, 2)) -> float:
    """Five-term third mixed derivative for a three-parameter family."""
    base = _family_base(family)
    _check_first_derivs_zero(base, family, params)
    u, v, w = params
    gu, gv, gw = (base.centered(family.partial((p,))) for p in params)
    trip = triple_covariance(gu, gv, gw, base.m, base.w_norm, ctx=base.ctx)
    c1 = covariance(gu, family.partial((v, w)), base.m, base.w_norm, ctx=base.ctx)
    c2 = covariance(gv, family.partial((u, w)), base.m, base.w_norm, ctx=base.ctx)
    c3 = covariance(gw, family.partial((u, v)), base.m, base.w_norm, ctx=base.ctx)
    third = base.ctx.integrate(family.partial((u, v, w)))
    return trip.value + c1.value + c2.value + c3.value + third


_FD_STEPS = {1: 1e-4, 2: 5e-3, 3: 1e-2}


def _central_difference(f: Callable, order: int, h: float | None = None) -> float:
    """order-th derivative of f at 0 by the 2-, 3- or 5-point central stencil."""
    h = h if h is not None else _FD_STEPS[order]
    if order == 1:
        return (f(h) - f(-h)) / (2 * h)
    if order == 2:
        return (f(h) - 2 * f(0.0) + f(-h)) / h ** 2
    return (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h ** 3)


def fd_oracle(family: PotentialFamily, order: int, h: float | None = None,
              param: int = 0) -> float:
    """Central finite difference of s -> P(f_s) at 0 (2-/3-/5-point stencils)."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")

    def P(s):
        params = tuple(s if i == param else 0.0 for i in range(family.nparams))
        return pressure(family.sft, family.at(params))

    return _central_difference(P, order, h)


def measure_derivative(w_family: PotentialFamily, f_family: PotentialFamily) -> float:
    """d/ds int w_s dm_{f_s} at 0 = Cov(w_0, d_s f_0) + int d_s w_0 dm.

    Adding constants to the f-family does not change its equilibrium states.
    """
    base = _prepare(f_family.f0, max(_ctx_depth(f_family), _ctx_depth(w_family)))
    df = base.centered(f_family.partial((0,)))
    cov = covariance(base.centered(w_family.f0), df, base.m, base.w_norm, ctx=base.ctx)
    return cov.value + base.ctx.integrate(w_family.partial((0,)))


def pressure_metric(family: PotentialFamily, params=(0, 1)) -> float:
    """-Cov(d_u F, d_v F, m_F) / int F dm_F for a pressure-zero base."""
    base = _family_base(family)
    denom = base.ctx.integrate(family.f0)
    if abs(denom) < 1e-12:
        raise DegenerateDenominator(f"int F dm = {denom}")
    i, j = params
    gi = base.centered(family.partial((i,)))
    cov = covariance(gi, family.partial((j,)), base.m, base.w_norm, ctx=base.ctx)
    return -cov.value / denom


def pressure_metric_d1_terms(du: DepthKFunction, dv: DepthKFunction, dw: DepthKFunction,
                             dwv: DepthKFunction, dwu: DepthKFunction,
                             m, w_norm: DepthKFunction,
                             ctx: EquilibriumContext | None = None) -> float:
    """Three-term first variation of the metric numerator.

    triple(du, dv, dw) + cov(du, dwv) + cov(dv, dwu); depends only on the
    Livsic class of each component.
    """
    depth = max(du.depth, dv.depth, dw.depth, dwv.depth, dwu.depth,
                w_norm.depth)
    ctx = ctx or EquilibriumContext(du.sft, w_norm, depth=depth)
    du = du - ctx.integrate(du)
    dv = dv - ctx.integrate(dv)
    dw = dw - ctx.integrate(dw)
    trip = triple_covariance(du, dv, dw, m, w_norm, ctx=ctx)
    c1 = covariance(du, dwv, m, w_norm, ctx=ctx)
    c2 = covariance(dv, dwu, m, w_norm, ctx=ctx)
    return trip.value + c1.value + c2.value


def pressure_metric_d1(family: PotentialFamily, params=(0, 1, 2)) -> float:
    """d/dw of the pressure metric <d_u, d_v> along a pressure-zero family.

    Hypotheses (checked): base pressure zero, all first pressure derivatives
    zero, and the base function constant so the denominator derivative drops.
    The three-term display is divided by -int F dm; with the normalization
    int F dm = -1 this is the display itself.
    """
    base = _family_base(family)
    if abs(base.data.pressure) > FIRST_DERIV_TOL:
        raise HypothesisViolated("base pressure", base.data.pressure)
    _check_first_derivs_zero(base, family, params)
    f0_centered = family.f0 - base.ctx.integrate(family.f0)
    if f0_centered.sup_norm() > 1e-9:
        raise HypothesisViolated("base function must be constant", f0_centered.sup_norm())
    denom = base.ctx.integrate(family.f0)
    if abs(denom) < 1e-12:
        raise DegenerateDenominator(f"int F dm = {denom}")
    u, v, w = params
    s3 = pressure_metric_d1_terms(
        family.partial((u,)), family.partial((v,)), family.partial((w,)),
        family.partial((v, w)), family.partial((u, w)),
        base.m, base.w_norm, ctx=base.ctx)
    return s3 / (-denom)
