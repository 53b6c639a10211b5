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

from .errors import DepthMismatch, NoConvergence, NotMeanZero
from .sft import DepthKFunction, Sft, _word_table
from .transfer import (DENSE_WORDS, EPS, MarkovMeasure, RuelleMatrix, require_normalized,
                       ruelle_matrix, _lift, _perron)

MEAN_ZERO_TOL = 1e-8


class EquilibriumContext:
    """Shared machinery for correlation sums at a common working depth."""

    def __init__(self, sft: Sft, w_norm: DepthKFunction, depth: int | None = None):
        self.sft = sft
        self.w = w_norm
        self.rm: RuelleMatrix = ruelle_matrix(sft, w_norm, depth=depth)
        require_normalized(self.rm)
        self.depth = self.rm.depth
        # L 1 = 1, so nu is the stationary vector and |lambda_2| sets the decay. Both
        # come from the smallest invariant word space; m is lifted from there.
        low = max(w_norm.depth - 1, 1)
        base = self.rm if self.depth == low else ruelle_matrix(sft, w_norm, depth=low)
        _, _, m, self.gap = _perron(base.matrix)
        self.m = _lift(base, m, self.depth)

    def vector(self, f: DepthKFunction) -> np.ndarray:
        if f.depth > self.depth:
            raise DepthMismatch(f"function depth {f.depth} exceeds context depth {self.depth}")
        return np.real(self.rm.vector_of(f)).astype(float)

    def integrate(self, f: DepthKFunction) -> float:
        return float(self.m @ self.vector(f))

    def integrate_vec(self, v: np.ndarray) -> float:
        return float(self.m @ v)

    @functools.cached_property
    def _factor(self):
        """(A, solve, ||A^-1[:n, :n]||_1) for the fundamental system, built on first use.

        For n <= DENSE_WORDS words A = I - L + 1 m^T with one dense inverse, so the
        norm is exact; above, A is the bordered [[I - L, 1], [m^T, 0]] with a
        sparse LU, and the norm is `onenormest`'s of its top-left n x n block. The
        bordered matrix is nonsingular because 1 is a simple eigenvalue of L.
        """
        n = len(self.m)
        if n <= DENSE_WORDS:
            a = np.asarray(np.eye(n) - self.rm.matrix) + self.m   # dense from a CSR L too
            try:
                inv = np.linalg.inv(a)
            except np.linalg.LinAlgError as exc:
                raise NoConvergence(f"fundamental system of {n} words: {exc}") from exc
            return a, inv.__matmul__, np.abs(inv).sum(axis=0).max()
        import scipy.sparse as sp
        from scipy.sparse.linalg import LinearOperator, onenormest, splu
        a = sp.bmat([[sp.identity(n) - self.rm.matrix, np.ones((n, 1))],
                     [self.m[None, :], None]], format="csc")
        lu = splu(a)
        block = LinearOperator((n, n), dtype=float,
                               matvec=lambda y: lu.solve(np.append(y, 0.0))[:n],
                               rmatvec=lambda y: lu.solve(np.append(y, 0.0), trans="T")[:n])
        return a, lu.solve, onenormest(block)

    def sums(self, vecs: np.ndarray, lo=0, err_in=0.0):
        """Columns sum_{j>=lo} L^j (v - m(v)) over the columns v of `vecs`.

        Also returns, per column, a bound on the 1-norm of its error up to a
        multiple of 1 (which pairs to zero with a mean-zero vector): the block
        norm of `_factor` times the residual of the n word rows, plus the input
        error `err_in` carried through the solve. A residual r[n] in the
        bordered constraint row moves x by exactly r[n] * 1, hence n |r[n]|.
        The residual counts the rounding of its own evaluation,
        gamma_{N+1} (|rhs| + |A| |x|) for A of order N (Higham, Accuracy and
        Stability of Numerical Algorithms, ch. 12), so it is never a bare 0.
        `lo` and `err_in` may vary by column.
        """
        a, solve, inv_norm = self._factor
        n = len(self.m)
        b = vecs - self.m @ vecs
        rhs = np.vstack([b, np.zeros((a.shape[0] - n, b.shape[1]))])
        x = solve(rhs)
        gamma = (a.shape[0] + 1) * EPS / (1.0 - (a.shape[0] + 1) * EPS)
        resid = np.abs(rhs - a @ x) + gamma * (np.abs(rhs) + abs(a) @ np.abs(x))
        err = inv_norm * (err_in + resid[:n].sum(axis=0)) + n * resid[n:].sum(axis=0)
        return x[:n] - lo * b, err + lo * err_in

    def _mean_zero_vector(self, g: DepthKFunction) -> np.ndarray:
        v = self.vector(g)
        mean = self.integrate_vec(v)
        if abs(mean) > MEAN_ZERO_TOL * (1.0 + float(np.max(np.abs(v)))):
            raise NotMeanZero(mean)
        return v

    def _report(self, value: float, weights: np.ndarray, err: np.ndarray) -> CorrelationReport:
        """Report whose bound pairs the error of each solved column with the
        max |m * v| of the column v it is integrated against."""
        bound = float(np.abs(self.m[:, None] * weights).max(axis=0) @ err)
        return CorrelationReport(value, truncation=0, tail_bound=bound, gap=self.gap)

    def variance(self, g: DepthKFunction) -> CorrelationReport:
        """Green-Kubo sum m(g^2) + 2 sum_{j>=1} m(g * g o sigma^j) of a mean-zero g."""
        v = self._mean_zero_vector(g)
        s1, err = self.sums(v[:, None], lo=1)
        value = self.integrate_vec(v * v) + 2.0 * self.integrate_vec(v * s1[:, 0])
        return self._report(value, v[:, None], 2.0 * err)

    def covariance(self, g1: DepthKFunction, g2: DepthKFunction) -> CorrelationReport:
        """Symmetric bilinear correlation sum; g2 is projected mean-zero first.

        Cov(g1, g2) = Cov(g1, P_m g2) holds because the cross terms average out,
        so only g1 needs to be mean zero on input.
        """
        v1 = self._mean_zero_vector(g1)
        v2 = self.vector(g2)
        v2 = v2 - self.integrate_vec(v2)
        s1, err = self.sums(np.column_stack([v1, v2]), lo=1)
        value = self.integrate_vec(v1 * v2 + s1[:, 0] * v2 + s1[:, 1] * v1)
        return self._report(value, np.column_stack([v2, v1]), err)

    def triple(self, g1: DepthKFunction, g2: DepthKFunction,
               g3: DepthKFunction) -> CorrelationReport:
        """Double correlation sum over all n, m of m(g1 * g2 o sigma^n * g3 o sigma^m).

        This is the discrete form of the third-moment limit (1/n) int (S_n)^3.
        Each index pair is one ordering (i, j, k) of the factors by shift, ties
        broken by index, with gaps p, c >= 0; the ordering's share is
        m(S_c(S_p(h_i) * h_j) * h_k) with lower limits p >= [i > j], c >= [j > k].
        """
        h = np.column_stack([self._mean_zero_vector(g) for g in (g1, g2, g3)])
        i, j, k = np.array(list(itertools.permutations(range(3)))).T
        inner, err = self.sums(h[:, i], lo=i > j)
        outer, err = self.sums(inner * h[:, j], lo=j > k,
                               err_in=np.abs(h[:, j]).max(axis=0) * err)
        value = self.integrate_vec((outer * h[:, k]).sum(axis=1))
        return self._report(value, h[:, k], err)


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


def _context(gs, m: MarkovMeasure, w: DepthKFunction,
             ctx: EquilibriumContext | None) -> EquilibriumContext:
    """`ctx`, or a new context for w deep enough for m and every g in `gs`."""
    return ctx or EquilibriumContext(gs[0].sft, w, depth=max(m.depth, *(g.depth for g in gs)))


def variance(g: DepthKFunction, m: MarkovMeasure, w: DepthKFunction,
             ctx: EquilibriumContext | None = None) -> CorrelationReport:
    return _context((g,), m, w, ctx).variance(g)


def covariance(g1: DepthKFunction, g2: DepthKFunction, m: MarkovMeasure,
               w: DepthKFunction, ctx: EquilibriumContext | None = None) -> CorrelationReport:
    return _context((g1, g2), m, w, ctx).covariance(g1, g2)


def triple_covariance(g1: DepthKFunction, g2: DepthKFunction, g3: DepthKFunction,
                      m: MarkovMeasure, w: DepthKFunction,
                      ctx: EquilibriumContext | None = None) -> CorrelationReport:
    return _context((g1, g2, g3), m, w, ctx).triple(g1, g2, g3)


def birkhoff_moment(ctx: EquilibriumContext, gs, n: int) -> float:
    """Exact E_m[prod_i S_n(g_i)] by dynamic programming over the word chain.

    Independent cross-check for the correlation sums: it never applies the
    transfer operator to the g's, only the one-step conditional measure
    p(x) = m(x) / m(x[:-1]) on the (depth+1)-words x, read from m lifted one level.
    The state holds, per window u and subset s of the factors, the joint moment
    E[1_u prod_{i in s} S(g_i)]; one step moves each window u = x[:-1] to x[1:].
    """
    k = len(gs)
    if k > 3:
        raise ValueError("at most three factors")
    vecs = [ctx.vector(g) for g in gs]
    table = _word_table(ctx.sft, ctx.depth + 1)
    head, tail, m = table.head, table.tail, ctx.m
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(m[head] > 0, _lift(ctx.rm, m, ctx.depth + 1) / m[head], 0.0)
    subsets = _subsets(range(k))
    # coefficient of phi[sub] in the update of phi[s]: prod_{i in s - sub} g_i
    coeff = {(s, sub): np.prod([vecs[i] for i in s - sub], axis=0)
             for s in subsets for sub in _subsets(s)}
    phi = {s: np.zeros(len(m)) for s in subsets}
    phi[frozenset()] = m.copy()
    for _ in range(n):
        phi = {s: np.bincount(tail, p * sum(coeff[s, sub] * phi[sub]
                                            for sub in _subsets(s))[head], minlength=len(m))
               for s in subsets}
    return float(phi[frozenset(range(k))].sum())


def _subsets(items) -> list:
    items = sorted(items)
    return [frozenset(c) for r in range(len(items) + 1)
            for c in itertools.combinations(items, r)]
