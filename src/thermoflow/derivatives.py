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
from .transfer import normalize_potential, pressure, rpf

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
    pressure: float
    w_norm: DepthKFunction
    m: object
    ctx: EquilibriumContext


def _prepare(family: PotentialFamily, depth: int | None = None) -> _Base:
    """One RPF solve of the base potential, its normalization and its context.

    The normalized potential, hence the context, does not change when a
    constant is added to f0, so no caller needs to shift the base first.
    """
    data = rpf(family.sft, family.f0)
    w_norm = normalize_potential(family.sft, family.f0, data)
    ctx = EquilibriumContext(family.sft, w_norm, depth=depth)
    return _Base(pressure=data.pressure, w_norm=w_norm, m=ctx.measure(), ctx=ctx)


def _ctx_depth(family: PotentialFamily) -> int:
    depths = [family.f0.depth + 1]
    depths += [g.depth for g in family.partials.values()]
    return max(depths)


def pressure_d1(family: PotentialFamily, param: int = 0) -> float:
    """dP/ds at 0 = integral of d_s f_0 against the equilibrium state."""
    base = _prepare(family, depth=_ctx_depth(family))
    return base.ctx.integrate(family.partial((param,)))


def _check_first_derivs_zero(base: _Base, family: PotentialFamily, params):
    for p in params:
        val = base.ctx.integrate(family.partial((p,)))
        if abs(val) > FIRST_DERIV_TOL:
            raise HypothesisViolated(f"first derivative in parameter {p}", val)


def pressure_d2(family: PotentialFamily, param: int = 0,
                N: int | None = None) -> float:
    """Var(d_s f_0) + int d_ss f_0 dm; requires the first derivative to vanish."""
    base = _prepare(family, depth=_ctx_depth(family))
    _check_first_derivs_zero(base, family, [param])
    g = family.partial((param,))
    g0 = g - base.ctx.integrate(g)
    var = variance(g0, base.m, base.w_norm, N=N, ctx=base.ctx)
    return var.value + base.ctx.integrate(family.partial((param, param)))


def pressure_d2_mixed(family: PotentialFamily, params=(0, 1),
                      N: int | None = None) -> float:
    """Cov(P d_s f, P d_t f) + int d_st f dm for a two-parameter family."""
    base = _prepare(family, depth=_ctx_depth(family))
    _check_first_derivs_zero(base, family, params)
    i, j = params
    gi = family.partial((i,))
    gj = family.partial((j,))
    gi = gi - base.ctx.integrate(gi)
    cov = covariance(gi, gj, base.m, base.w_norm, N=N, ctx=base.ctx)
    return cov.value + base.ctx.integrate(family.partial((i, j)))


def pressure_d3(family: PotentialFamily, param: int = 0,
                N: int | None = None) -> float:
    """Triple covariance + 3 cov(d1, d2) + int d^3 f dm.

    A constant added to the base changes neither the equilibrium state nor any
    derivative; the vanishing of the first derivative is enforced.
    """
    base = _prepare(family, depth=_ctx_depth(family))
    _check_first_derivs_zero(base, family, [param])
    g1 = family.partial((param,))
    g1 = g1 - base.ctx.integrate(g1)
    g2 = family.partial((param, param))
    trip = triple_covariance(g1, g1, g1, base.m, base.w_norm, N=N, ctx=base.ctx)
    cov = covariance(g1, g2, base.m, base.w_norm, N=N, ctx=base.ctx)
    third = base.ctx.integrate(family.partial((param, param, param)))
    return trip.value + 3.0 * cov.value + third


def pressure_d3_mixed(family: PotentialFamily, params=(0, 1, 2),
                      N: int | None = None) -> float:
    """Five-term third mixed derivative for a three-parameter family."""
    base = _prepare(family, depth=_ctx_depth(family))
    _check_first_derivs_zero(base, family, params)
    u, v, w = params
    gu = family.partial((u,))
    gv = family.partial((v,))
    gw = family.partial((w,))
    gu = gu - base.ctx.integrate(gu)
    gv = gv - base.ctx.integrate(gv)
    gw = gw - base.ctx.integrate(gw)
    trip = triple_covariance(gu, gv, gw, base.m, base.w_norm, N=N, ctx=base.ctx)
    c1 = covariance(gu, family.partial((v, w)), base.m, base.w_norm, N=N, ctx=base.ctx)
    c2 = covariance(gv, family.partial((u, w)), base.m, base.w_norm, N=N, ctx=base.ctx)
    c3 = covariance(gw, family.partial((u, v)), base.m, base.w_norm, N=N, ctx=base.ctx)
    third = base.ctx.integrate(family.partial((u, v, w)))
    return trip.value + c1.value + c2.value + c3.value + third


_FD_STEPS = {1: 1e-4, 2: 5e-3, 3: 1e-2}


def fd_oracle(family: PotentialFamily, order: int, h: float | None = None,
              param: int = 0) -> float:
    """Central finite difference of s -> P(f_s) at 0 (2-/3-/5-point stencils)."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    h = h if h is not None else _FD_STEPS[order]

    def P(s):
        params = tuple(s if i == param else 0.0 for i in range(family.nparams))
        return pressure(family.sft, family.at(params))

    if order == 1:
        return (P(h) - P(-h)) / (2 * h)
    if order == 2:
        return (P(h) - 2 * P(0.0) + P(-h)) / h ** 2
    return (P(2 * h) - 2 * P(h) + 2 * P(-h) - P(-2 * h)) / (2 * h ** 3)


def measure_derivative(w_family: PotentialFamily, f_family: PotentialFamily,
                       N: int | None = None) -> float:
    """d/ds int w_s dm_{f_s} at 0 = Cov(w_0, d_s f_0) + int d_s w_0 dm.

    Adding constants to the f-family does not change its equilibrium states.
    """
    depth = max(_ctx_depth(f_family), _ctx_depth(w_family))
    base = _prepare(f_family, depth=depth)
    w0 = w_family.f0
    df = f_family.partial((0,))
    df = df - base.ctx.integrate(df)
    w0c = w0 - base.ctx.integrate(w0)
    cov = covariance(w0c, df, base.m, base.w_norm, N=N, ctx=base.ctx)
    return cov.value + base.ctx.integrate(w_family.partial((0,)))


def pressure_metric(family: PotentialFamily, params=(0, 1),
                    N: int | None = None) -> float:
    """-Cov(d_u F, d_v F, m_F) / int F dm_F for a pressure-zero base."""
    base = _prepare(family, depth=_ctx_depth(family))
    denom = base.ctx.integrate(family.f0)
    if abs(denom) < 1e-12:
        raise DegenerateDenominator(f"int F dm = {denom}")
    i, j = params
    gi = family.partial((i,))
    gj = family.partial((j,))
    gi = gi - base.ctx.integrate(gi)
    cov = covariance(gi, gj, base.m, base.w_norm, N=N, ctx=base.ctx)
    return -cov.value / denom


def pressure_metric_d1_terms(du: DepthKFunction, dv: DepthKFunction, dw: DepthKFunction,
                             dwv: DepthKFunction, dwu: DepthKFunction,
                             m, w_norm: DepthKFunction, N: int | None = None,
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
    trip = triple_covariance(du, dv, dw, m, w_norm, N=N, ctx=ctx)
    c1 = covariance(du, dwv, m, w_norm, N=N, ctx=ctx)
    c2 = covariance(dv, dwu, m, w_norm, N=N, ctx=ctx)
    return trip.value + c1.value + c2.value


def pressure_metric_d1(family: PotentialFamily, params=(0, 1, 2),
                       N: int | None = None) -> float:
    """d/dw of the pressure metric <d_u, d_v> along a pressure-zero family.

    Hypotheses (checked): base pressure zero, all first pressure derivatives
    zero, and the base function constant so the denominator derivative drops.
    The three-term display is divided by -int F dm; with the normalization
    int F dm = -1 this is the display itself.
    """
    base = _prepare(family, depth=_ctx_depth(family))
    if abs(base.pressure) > FIRST_DERIV_TOL:
        raise HypothesisViolated("base pressure", base.pressure)
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
        base.m, base.w_norm, N=N, ctx=base.ctx)
    return s3 / (-denom)
