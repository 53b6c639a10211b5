"""Variance, covariance and triple covariance against equilibrium measures.

Correlation sums are evaluated with the normalized transfer operator via
m(f * g o sigma^j) = m(L^j f * g); the spectral gap makes the sums geometric,
which justifies the truncation and yields a computable tail bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DepthMismatch, NotMeanZero
from .sft import DepthKFunction, Sft
from .transfer import (MarkovMeasure, RuelleMatrix, require_normalized, ruelle_matrix,
                       stationary_vector, _perron)

MEAN_ZERO_TOL = 1e-8


class EquilibriumContext:
    """Shared machinery for correlation sums at a common working depth."""

    def __init__(self, sft: Sft, w_norm: DepthKFunction, depth: int | None = None):
        self.sft = sft
        self.w = w_norm
        self.rm: RuelleMatrix = ruelle_matrix(sft, w_norm, depth=depth)
        require_normalized(self.rm)
        self.depth = self.rm.depth
        # L 1 = 1, so nu is the stationary vector and |lambda_2| sets the decay
        _, _, self.m, self.gap = _perron(self.rm.matrix)

    def vector(self, f: DepthKFunction) -> np.ndarray:
        if f.depth > self.depth:
            raise DepthMismatch(f"function depth {f.depth} exceeds context depth {self.depth}")
        return np.real(self.rm.vector_of(f)).astype(float)

    def integrate(self, f: DepthKFunction) -> float:
        return float(self.m @ self.vector(f))

    def integrate_vec(self, v: np.ndarray) -> float:
        return float(self.m @ v)

    def apply_L(self, v: np.ndarray) -> np.ndarray:
        return self.rm.apply(v)

    def measure(self) -> MarkovMeasure:
        return MarkovMeasure(self.sft, self.depth,
                             {w: float(self.m[i]) for i, w in enumerate(self.rm.words)})

    def default_truncation(self, floor: float = 1e-12, lo: int = 20, hi: int = 80) -> int:
        g = self.gap
        if g <= 0.0:
            return lo
        n = int(math.ceil(math.log(floor) / math.log(g)))
        return min(max(n, lo), hi)


@dataclass(frozen=True)
class CorrelationReport:
    value: float
    truncation: int
    tail_bound: float
    gap: float


def project_mean_zero(g: DepthKFunction, m: MarkovMeasure) -> DepthKFunction:
    """g minus its m-average; the result integrates to zero against m."""
    if m.depth < g.depth:
        raise DepthMismatch(f"measure depth {m.depth} < function depth {g.depth}")
    return g - m.integrate(g)


def _require_mean_zero(ctx: EquilibriumContext, vec: np.ndarray):
    mean = ctx.integrate_vec(vec)
    scale = 1.0 + float(np.max(np.abs(vec)))
    if abs(mean) > MEAN_ZERO_TOL * scale:
        raise NotMeanZero(mean)


def _pair_terms(ctx: EquilibriumContext, v1: np.ndarray, v2: np.ndarray, N: int):
    """m(g1 * g2 o sigma^j) for j = 0..N and m(g2 * g1 o sigma^j) for j = 1..N."""
    fwd = np.empty(N + 1)
    bwd = np.empty(N + 1)
    u = v1.copy()
    fwd[0] = ctx.integrate_vec(u * v2)
    for j in range(1, N + 1):
        u = ctx.apply_L(u)
        fwd[j] = ctx.integrate_vec(u * v2)
    u = v2.copy()
    bwd[0] = fwd[0]
    for j in range(1, N + 1):
        u = ctx.apply_L(u)
        bwd[j] = ctx.integrate_vec(u * v1)
    return fwd, bwd


def _geometric_tail(terms: np.ndarray, gap: float, N: int) -> float:
    r = min(max(gap, 1e-6), 1.0 - 1e-9)
    last = np.max(np.abs(terms[max(0, N - 4): N + 1]))
    return float(last * r / (1.0 - r) + 1e-300)


def variance(g: DepthKFunction, m: MarkovMeasure, w: DepthKFunction,
             N: int | None = None, ctx: EquilibriumContext | None = None) -> CorrelationReport:
    """Green-Kubo sum m(g^2) + 2 sum_{j=1..N} m(g * g o sigma^j)."""
    ctx = ctx or EquilibriumContext(g.sft, w, depth=max(g.depth, m.depth))
    v = ctx.vector(g)
    _require_mean_zero(ctx, v)
    N = N if N is not None else ctx.default_truncation()
    fwd, _ = _pair_terms(ctx, v, v, N)
    value = fwd[0] + 2.0 * fwd[1:].sum()
    return CorrelationReport(value=float(value), truncation=N,
                             tail_bound=2.0 * _geometric_tail(fwd, ctx.gap, N), gap=ctx.gap)


def covariance(g1: DepthKFunction, g2: DepthKFunction, m: MarkovMeasure,
               w: DepthKFunction, N: int | None = None,
               ctx: EquilibriumContext | None = None) -> CorrelationReport:
    """Symmetric bilinear correlation sum; g2 is projected mean-zero first.

    Cov(g1, g2) = Cov(g1, P_m g2) holds because the cross terms average out,
    so only g1 needs to be mean zero on input.
    """
    depth = max(g1.depth, g2.depth, m.depth)
    ctx = ctx or EquilibriumContext(g1.sft, w, depth=depth)
    v1 = ctx.vector(g1)
    _require_mean_zero(ctx, v1)
    v2 = ctx.vector(g2)
    v2 = v2 - ctx.integrate_vec(v2)
    N = N if N is not None else ctx.default_truncation()
    fwd, bwd = _pair_terms(ctx, v1, v2, N)
    value = fwd[0] + fwd[1:].sum() + bwd[1:].sum()
    tail = _geometric_tail(fwd, ctx.gap, N) + _geometric_tail(bwd, ctx.gap, N)
    return CorrelationReport(value=float(value), truncation=N, tail_bound=tail, gap=ctx.gap)


class _OrderedTripleGrid:
    """Terms m(L^c(L^p(h1) * h2) * h3) for one ordering of the three factors."""

    def __init__(self, ctx: EquilibriumContext, vecs, N: int):
        self.ctx = ctx
        self.vecs = vecs
        self.N = N
        self.cache: dict = {}

    def grid(self, perm):
        if perm in self.cache:
            return self.cache[perm]
        ctx, N = self.ctx, self.N
        h1, h2, h3 = (self.vecs[i] for i in perm)
        out = np.empty((2 * N + 1, 2 * N + 1))
        u = h1.copy()
        for p in range(2 * N + 1):
            if p > 0:
                u = ctx.apply_L(u)
            z = u * h2
            out[p, 0] = ctx.integrate_vec(z * h3)
            for c in range(1, 2 * N + 1):
                z = ctx.apply_L(z)
                out[p, c] = ctx.integrate_vec(z * h3)
        self.cache[perm] = out
        return out

    def term(self, shifts) -> float:
        b = min(shifts)
        a = [s - b for s in shifts]
        order = sorted(range(3), key=lambda i: (a[i], i))
        p = a[order[1]]
        q = a[order[2]]
        return float(self.grid(tuple(order))[p, q - p])


def triple_covariance(g1: DepthKFunction, g2: DepthKFunction, g3: DepthKFunction,
                      m: MarkovMeasure, w: DepthKFunction, N: int | None = None,
                      ctx: EquilibriumContext | None = None) -> CorrelationReport:
    """Double correlation sum over |n|, |m| <= N of m(g1 * g2 o sigma^n * g3 o sigma^m).

    This is the discrete form of the third-moment limit (1/n) int (S_n)^3; the
    rearranged double sum converges geometrically thanks to the spectral gap.
    """
    depth = max(g1.depth, g2.depth, g3.depth, m.depth)
    ctx = ctx or EquilibriumContext(g1.sft, w, depth=depth)
    vecs = [ctx.vector(g) for g in (g1, g2, g3)]
    for v in vecs:
        _require_mean_zero(ctx, v)
    N = N if N is not None else ctx.default_truncation()
    grids = _OrderedTripleGrid(ctx, vecs, N)
    total = 0.0
    ring = 0.0
    for a in range(-N, N + 1):
        for b in range(-N, N + 1):
            t = grids.term((0, a, b))
            total += t
            if max(abs(a), abs(b)) == N:
                ring += abs(t)
    r = min(max(ctx.gap, 1e-6), 1.0 - 1e-9)
    tail = (ring + 1e-300) * r / (1.0 - r)
    return CorrelationReport(value=float(total), truncation=N, tail_bound=tail, gap=ctx.gap)


def birkhoff_moment(ctx: EquilibriumContext, gs, n: int) -> float:
    """Exact E_m[prod_i S_n(g_i)] by dynamic programming over the word chain.

    Independent cross-check for the correlation sums: it never applies the
    transfer operator to the g's, only the one-step conditional measure.
    """
    k = len(gs)
    if k > 3:
        raise ValueError("at most three factors")
    words = ctx.rm.words
    index = ctx.rm.index
    vecs = [ctx.vector(g) for g in gs]
    # one-step window transition probabilities p(u -> u[1:]+(b,))
    deeper = ruelle_matrix(ctx.sft, ctx.w, depth=ctx.depth + 1)
    m_deep = stationary_vector(deeper)
    m_here = ctx.m
    trans: list = [dict() for _ in words]
    for j, wd in enumerate(deeper.words):
        u = wd[:-1]
        v = wd[1:]
        iu = index[u]
        weight = m_deep[j]
        if m_here[iu] > 0:
            trans[iu][index[v]] = trans[iu].get(index[v], 0.0) + weight / m_here[iu]
    # state: for each window, joint moments E[1_window * prod_{i in subset} A_i]
    subsets = [frozenset(s) for s in _all_subsets(k)]
    phi = {s: np.zeros(len(words)) for s in subsets}
    phi[frozenset()] = m_here.copy()
    for _ in range(n):
        new = {s: np.zeros(len(words)) for s in subsets}
        for iu in range(len(words)):
            if m_here[iu] == 0 and all(phi[s][iu] == 0 for s in subsets):
                continue
            for iv, p in trans[iu].items():
                for s in subsets:
                    acc = 0.0
                    for sub in _all_subsets_of(s):
                        coeff = 1.0
                        for i in s - sub:
                            coeff *= vecs[i][iu]
                        acc += coeff * phi[frozenset(sub)][iu]
                    new[s][iv] += p * acc
        phi = new
    return float(phi[frozenset(range(k))].sum())


def _all_subsets(k):
    out = [[]]
    for i in range(k):
        out += [s + [i] for s in out]
    return [tuple(s) for s in out]


def _all_subsets_of(s):
    items = sorted(s)
    out = [[]]
    for i in items:
        out += [t + [i] for t in out]
    return [frozenset(t) for t in out]
