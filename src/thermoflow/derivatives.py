"""Pressure derivatives up to third order, their oracles, and the metric assembly.

Each derivative d^alpha P of a family at its base is alpha! times a Taylor coefficient
of log rho from one Rayleigh-Schrodinger recursion (`EquilibriumContext._log_rho`) over
the count vector alpha of its parameters, so a pure derivative and its repeated-index
mixed form are one computation. `pressure_d2` and `pressure_d3` check that the first
derivatives vanish, the hypothesis of their Green-Kubo displays. Every value can be
checked against central finite differences of the pressure (fd_oracle).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .correlations import EquilibriumContext
from .errors import DegenerateDenominator, HypothesisViolated
from .sft import DepthKFunction, Sft
from .transfer import RpfData, normalize_potential, pressure, rpf

FIRST_DERIV_TOL = 1e-8


def _factorial(alpha) -> int:
    """alpha! of a multi-index: the product of the factorials of its multiplicities."""
    return math.prod(math.factorial(alpha.count(i)) for i in set(alpha))


@dataclass
class PotentialFamily:
    """Smooth family of depth-k potentials with partials at parameter zero.

    `partials` maps sorted multi-indices like (0,), (0, 1), (1, 1, 2) to the parameter
    derivatives at 0; a family built from a Taylor table has them all, exactly, and
    others fall back on central differences of the evaluator up to order 2.
    """

    sft: Sft
    nparams: int
    f0: DepthKFunction
    evaluator: Callable
    partials: dict = field(default_factory=dict)
    complete_partials: bool = False  # absent keys mean identically-zero partials

    def at(self, params) -> DepthKFunction:
        params = tuple(map(float, params))
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
        e = np.eye(self.nparams)[list(alpha)] * h
        if len(alpha) == 1:
            return (self.at(e[0]) - self.at(-e[0])) * (0.5 / h)
        if len(alpha) == 2:
            (i, j), f = e, self.at
            return (f(i + j) - f(i - j) - f(j - i) + f(-i - j)) * (0.25 / h ** 2)
        raise NotImplementedError("third-order fd partials are not provided; "
                                  "supply closed-form partials")

    @staticmethod
    def from_taylor(sft: Sft, f0: DepthKFunction, partials: dict,
                    nparams: int = 1) -> "PotentialFamily":
        table = {tuple(sorted(a)): g for a, g in partials.items()}

        def evaluator(params):
            out = f0
            for alpha, g in table.items():
                coef = math.prod((params[i] for i in alpha), start=1.0 / _factorial(alpha))
                if coef != 0.0:
                    out = out + g * coef
            return out

        return PotentialFamily(sft=sft, nparams=nparams, f0=f0,
                               evaluator=evaluator, partials=table,
                               complete_partials=True)


@dataclass
class _Base:
    """One base potential solved once: its RPF data, normalization and context.

    `d1`, `d2` and `d3` return (value, stated error bound of the correlation sums they
    computed) for any family with this base; `d2` and `d3` check first derivatives."""

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
        """d^params P for a multi-index of any order: alpha! times the `_log_rho`
        coefficient at the count vector alpha of `params` over its distinct parameters,
        whose Taylor coefficients are the partials over their alpha!."""
        ps = sorted(set(params))
        top = tuple(map(params.count, ps))
        index = {a: [q for q, k in zip(ps, a) for _ in range(k)]
                 for a in itertools.product(*(range(k + 1) for k in top))}
        p, bound = self.ctx._log_rho({a: self.ctx.vector(family.partial(i)) / _factorial(i)
                                      for a, i in index.items() if i}, top)
        return _factorial(params) * p[top], _factorial(params) * bound[top]

    def d2(self, family: PotentialFamily, params=(0, 0)):
        self.require_first_derivs_zero(family, params)
        return self.d1(family, params)

    def d3(self, family: PotentialFamily, params=(0, 0, 0)):
        return self.d2(family, params)


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
    of `families`. The normalized base w' has depth max(depth(f0), 2), and its
    operator acts on functions of any depth down to its minimal words
    (`ruelle_matrix`), so the context need only hold f0 and the partials."""
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

    triple(du, dv, dw) + cov(du, dwv) + cov(dv, dwu): the (1, 1, 1) coefficient of log
    rho along s_u du + s_v dv + s_w dw + s_v s_w dwv + s_u s_w dwu, which depends only
    on the Livsic class of each component, against the measure of `w_norm` (or `ctx`).
    """
    gs = (du, dv, dw, dwv, dwu)
    ctx = ctx or EquilibriumContext(du.sft, w_norm, depth=max(g.depth for g in gs))
    keys = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1))
    return ctx._log_rho(dict(zip(keys, map(ctx.vector, gs))), (1, 1, 1))[0][1, 1, 1]


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
    parts = map(family.partial, [(u,), (v,), (w,), (v, w), (u, w)])
    return pressure_metric_d1_terms(*parts, base.ctx.w, ctx=base.ctx) / (-denom)
