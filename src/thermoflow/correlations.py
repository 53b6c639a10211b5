"""Variance, covariance and triple covariance against equilibrium measures.

Correlation sums are evaluated with the normalized transfer operator via
m(f * g o sigma^j) = m(L^j f * g). L 1 = 1 and m^T L = m^T, so every series
sum_{j>=0} L^j v over a mean-zero v is the solution x of (I - L) x = v with
m(x) = 0, i.e. x = (I - L + 1 m^T)^{-1} v (Kemeny & Snell, Finite Markov
Chains, 1960). The sums are exact linear solves with no truncation order; each
report states an a-posteriori bound from the solve residuals.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .errors import DepthMismatch, NotMeanZero
from .sft import DepthKFunction, Sft
from .transfer import (DENSE_WORDS, MarkovMeasure, RuelleMatrix, require_normalized,
                       ruelle_matrix, stationary_vector, _perron)

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

    @functools.cached_property
    def _factor(self):
        """(A, solve, ||A^-1||_1) for the fundamental system, built on first use.

        Up to DENSE_WORDS words A = I - L + 1 m^T with a dense LU; above, A is
        the bordered [[I - L, 1], [m^T, 0]] with a sparse LU. The bordered
        matrix is nonsingular because 1 is a simple eigenvalue of L.
        """
        n = len(self.m)
        ones = np.ones(n)
        if n <= DENSE_WORDS:
            a = np.eye(n) - self.rm.matrix.toarray() + np.outer(ones, self.m)
            lu = scipy.linalg.lu_factor(a)
            norm = np.abs(a).sum(axis=0).max()
            rcond, _ = scipy.linalg.lapack.dgecon(lu[0], norm)
            return a, functools.partial(scipy.linalg.lu_solve, lu), 1.0 / (rcond * norm)
        a = sp.bmat([[sp.identity(n) - self.rm.matrix, ones[:, None]],
                     [self.m[None, :], None]], format="csc")
        lu = splu(a)
        inverse = LinearOperator(a.shape, matvec=lu.solve, dtype=float,
                                 rmatvec=lambda y: lu.solve(y, trans="T"))
        return a, lu.solve, onenormest(inverse)

    def sums(self, vecs: np.ndarray, lo=0, err_in=0.0):
        """Columns sum_{j>=lo} L^j (v - m(v)) over the columns v of `vecs`.

        Also returns, per column, a bound on the 1-norm of its error up to a
        multiple of 1 (which pairs to zero with a mean-zero vector): ||A^-1||_1
        times the solve residual, plus the input error `err_in` carried
        through the solve. `lo` and `err_in` may vary by column.
        """
        a, solve, inv_norm = self._factor
        b = vecs - self.m @ vecs
        rhs = np.vstack([b, np.zeros((a.shape[0] - len(b), b.shape[1]))])
        x = solve(rhs)
        resid = np.abs(rhs - a @ x).sum(axis=0)
        return x[:len(b)] - lo * b, inv_norm * (err_in + resid) + lo * err_in


@dataclass(frozen=True)
class CorrelationReport:
    """`truncation` is 0 (the sums are exact solves); `tail_bound` bounds the
    error of `value` from the solve residuals."""

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


def _weight(ctx: EquilibriumContext, cols: np.ndarray) -> np.ndarray:
    """max |m * v| per column v: turns a 1-norm error of x into one of m(v * x)."""
    return np.abs(ctx.m[:, None] * cols).max(axis=0)


def variance(g: DepthKFunction, m: MarkovMeasure, w: DepthKFunction,
             ctx: EquilibriumContext | None = None) -> CorrelationReport:
    """Green-Kubo sum m(g^2) + 2 sum_{j>=1} m(g * g o sigma^j)."""
    ctx = ctx or EquilibriumContext(g.sft, w, depth=max(g.depth, m.depth))
    v = ctx.vector(g)
    _require_mean_zero(ctx, v)
    s1, err = ctx.sums(v[:, None], lo=1)
    value = ctx.integrate_vec(v * v) + 2.0 * ctx.integrate_vec(v * s1[:, 0])
    bound = 2.0 * float(_weight(ctx, v[:, None]) @ err)
    return CorrelationReport(value, truncation=0, tail_bound=bound, gap=ctx.gap)


def covariance(g1: DepthKFunction, g2: DepthKFunction, m: MarkovMeasure,
               w: DepthKFunction, ctx: EquilibriumContext | None = None) -> CorrelationReport:
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
    s1, err = ctx.sums(np.column_stack([v1, v2]), lo=1)
    value = ctx.integrate_vec(v1 * v2 + s1[:, 0] * v2 + s1[:, 1] * v1)
    bound = float(_weight(ctx, np.column_stack([v2, v1])) @ err)
    return CorrelationReport(value, truncation=0, tail_bound=bound, gap=ctx.gap)


def triple_covariance(g1: DepthKFunction, g2: DepthKFunction, g3: DepthKFunction,
                      m: MarkovMeasure, w: DepthKFunction,
                      ctx: EquilibriumContext | None = None) -> CorrelationReport:
    """Double correlation sum over all n, m of m(g1 * g2 o sigma^n * g3 o sigma^m).

    This is the discrete form of the third-moment limit (1/n) int (S_n)^3.
    Each index pair is one ordering (i, j, k) of the factors by shift, ties
    broken by index, with gaps p, c >= 0; the ordering's share is
    m(S_c(S_p(h_i) * h_j) * h_k) with lower limits p >= [i > j], c >= [j > k].
    """
    depth = max(g1.depth, g2.depth, g3.depth, m.depth)
    ctx = ctx or EquilibriumContext(g1.sft, w, depth=depth)
    h = np.column_stack([ctx.vector(g) for g in (g1, g2, g3)])
    for v in h.T:
        _require_mean_zero(ctx, v)
    i, j, k = np.array(list(itertools.permutations(range(3)))).T
    inner, err = ctx.sums(h[:, i], lo=i > j)
    outer, err = ctx.sums(inner * h[:, j], lo=j > k,
                          err_in=np.abs(h[:, j]).max(axis=0) * err)
    value = ctx.integrate_vec((outer * h[:, k]).sum(axis=1))
    bound = float(_weight(ctx, h[:, k]) @ err)
    return CorrelationReport(value, truncation=0, tail_bound=bound, gap=ctx.gap)


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
    subsets = _subsets(range(k))
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
                    for sub in _subsets(s):
                        coeff = 1.0
                        for i in s - sub:
                            coeff *= vecs[i][iu]
                        acc += coeff * phi[sub][iu]
                    new[s][iv] += p * acc
        phi = new
    return float(phi[frozenset(range(k))].sum())


def _subsets(items) -> list:
    items = sorted(items)
    return [frozenset(c) for r in range(len(items) + 1)
            for c in itertools.combinations(items, r)]
