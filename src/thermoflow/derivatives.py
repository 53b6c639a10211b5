"""Pressure derivatives up to third order, their oracles, and the metric assembly.

First derivative: integral of the parameter derivative against the equilibrium
state. Second: variance plus the second-parameter integral (valid once the
first derivative vanishes). Third: triple covariance + 3 cov(d1, d2) + the
third-parameter integral. Each display is written once over a multi-index
(`_Base.d2`, `_Base.d3`), so pure and mixed derivatives share it. Every formula
is cross-checkable against central finite differences of the pressure (fd_oracle).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .correlations import EquilibriumContext
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
    sums they computed) for any family whose base is this potential; each
    takes the multi-index of the derivative, so a pure and a mixed derivative
    of one order share one display.
    """

    data: RpfData
    ctx: EquilibriumContext

    def centered(self, g: DepthKFunction) -> DepthKFunction:
        return g - self.ctx.integrate(g)

    def require_first_derivs_zero(self, family: PotentialFamily, params):
        for p in sorted(set(params)):
            val = self.ctx.integrate(family.partial((p,)))
            if abs(val) > FIRST_DERIV_TOL:
                raise HypothesisViolated(f"first derivative in parameter {p}", val)

    def d1(self, family: PotentialFamily, params=(0,)):
        return self.ctx.integrate(family.partial(params)), 0.0

    def d2(self, family: PotentialFamily, params=(0, 0)):
        """Cov(P d_i f, P d_j f) + int d_ij f dm, with the variance when i == j."""
        self.require_first_derivs_zero(family, params)
        i, j = params
        gi = self.centered(family.partial((i,)))
        corr = (self.ctx.variance(gi) if i == j
                else self.ctx.covariance(gi, family.partial((j,))))
        return corr.value + self.ctx.integrate(family.partial(params)), corr.tail_bound

    def d3(self, family: PotentialFamily, params=(0, 0, 0)):
        """Triple(P d_u f, P d_v f, P d_w f) + the three Cov(P d_a f, d_bc f)
        + int d_uvw f dm. Each distinct covariance is solved once, so a pure
        d3 makes one: its three equal terms sum to exactly 3 times it."""
        self.require_first_derivs_zero(family, params)
        g = {p: self.centered(family.partial((p,))) for p in params}
        trip = self.ctx.triple(*(g[p] for p in params))
        splits = [(params[a], tuple(sorted(params[:a] + params[a + 1:]))) for a in range(3)]
        cov = {k: self.ctx.covariance(g[k[0]], family.partial(k[1]))
               for k in dict.fromkeys(splits)}
        value = sum(cov[k].value for k in splits)
        bound = sum(cov[k].tail_bound for k in splits)
        third = self.ctx.integrate(family.partial(params))
        return trip.value + value + third, trip.tail_bound + bound


def _prepare(f0: DepthKFunction, depth: int, data: RpfData | None = None) -> _Base:
    """One RPF solve of the base potential f0 (skipped when `data` is given),
    its normalization and its context at `depth`.

    The normalized potential, hence the context, does not change when a
    constant is added to f0, so no caller needs to shift the base first.
    """
    data = data or rpf(f0.sft, f0)
    w_norm = normalize_potential(f0.sft, f0, data)
    return _Base(data=data, ctx=EquilibriumContext(f0.sft, w_norm, depth=depth))


def _family_base(*families: PotentialFamily) -> _Base:
    """The base of the first family, deep enough for every f0 and every partial
    of `families`. The normalized base is one deeper, but its operator acts on
    functions of the depth of f0 (`ruelle_matrix`), so the context need not be."""
    return _prepare(families[0].f0,
                    max(g.depth for f in families for g in (f.f0, *f.partials.values())))


def pressure_d1(family: PotentialFamily, param: int = 0) -> float:
    """dP/ds at 0 = integral of d_s f_0 against the equilibrium state."""
    return _family_base(family).d1(family, (param,))[0]


def pressure_d2(family: PotentialFamily, param: int = 0) -> float:
    """Var(d_s f_0) + int d_ss f_0 dm; requires the first derivative to vanish."""
    return _family_base(family).d2(family, (param, param))[0]


def pressure_d2_mixed(family: PotentialFamily, params=(0, 1)) -> float:
    """Cov(P d_s f, P d_t f) + int d_st f dm for a two-parameter family."""
    return _family_base(family).d2(family, params)[0]


def pressure_d3(family: PotentialFamily, param: int = 0) -> float:
    """Triple covariance + 3 cov(d1, d2) + int d^3 f dm.

    A constant added to the base changes neither the equilibrium state nor any
    derivative; the vanishing of the first derivative is enforced.
    """
    return _family_base(family).d3(family, (param,) * 3)[0]


def pressure_d3_mixed(family: PotentialFamily, params=(0, 1, 2)) -> float:
    """Five-term third mixed derivative for a three-parameter family."""
    return _family_base(family).d3(family, params)[0]


_FD_STEPS = {1: 1e-4, 2: 5e-3, 3: 1e-2}


def _central_difference(f: Callable, order: int, h: float | None = None) -> float:
    """order-th derivative of f at 0 by the 2-, 3- or 5-point central stencil."""
    h = h if h is not None else _FD_STEPS[order]
    if order == 1:
        return (f(h) - f(-h)) / (2 * h)
    if order == 2:
        return (f(h) - 2 * f(0.0) + f(-h)) / h ** 2
    return (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h ** 3)


def fd_oracle(family: PotentialFamily, order: int, h: float | None = None) -> float:
    """Central finite difference of s -> P(f_s) at 0 along the first parameter
    (2-/3-/5-point stencils)."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")

    def P(s):
        return pressure(family.sft, family.at((s,) + (0.0,) * (family.nparams - 1)))

    return _central_difference(P, order, h)


def pressure_metric(family: PotentialFamily, params=(0, 1)) -> float:
    """-Cov(d_u F, d_v F, m_F) / int F dm_F for a pressure-zero base."""
    base = _family_base(family)
    denom = base.ctx.integrate(family.f0)
    if abs(denom) < 1e-12:
        raise DegenerateDenominator(f"int F dm = {denom}")
    i, j = params
    gi = base.centered(family.partial((i,)))
    return -base.ctx.covariance(gi, family.partial((j,))).value / denom


def pressure_metric_d1_terms(du: DepthKFunction, dv: DepthKFunction, dw: DepthKFunction,
                             dwv: DepthKFunction, dwu: DepthKFunction,
                             w_norm: DepthKFunction,
                             ctx: EquilibriumContext | None = None) -> float:
    """Three-term first variation of the metric numerator.

    triple(du, dv, dw) + cov(du, dwv) + cov(dv, dwu); depends only on the
    Livsic class of each component. The sums are taken against the measure of
    `w_norm` (or `ctx`).
    """
    depth = max(g.depth for g in (du, dv, dw, dwv, dwu))
    ctx = ctx or EquilibriumContext(du.sft, w_norm, depth=depth)
    du, dv, dw = (g - ctx.integrate(g) for g in (du, dv, dw))
    return (ctx.triple(du, dv, dw).value + ctx.covariance(du, dwv).value
            + ctx.covariance(dv, dwu).value)


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
    base.require_first_derivs_zero(family, params)
    f0_centered = family.f0 - base.ctx.integrate(family.f0)
    if f0_centered.sup_norm() > 1e-9:
        raise HypothesisViolated("base function must be constant", f0_centered.sup_norm())
    denom = base.ctx.integrate(family.f0)
    if abs(denom) < 1e-12:
        raise DegenerateDenominator(f"int F dm = {denom}")
    u, v, w = params
    s3 = pressure_metric_d1_terms(
        family.partial((u,)), family.partial((v,)), family.partial((w,)),
        family.partial((v, w)), family.partial((u, w)), base.ctx.w, ctx=base.ctx)
    return s3 / (-denom)
