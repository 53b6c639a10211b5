"""Variance, covariance and triple covariance against equilibrium measures.

Correlation sums are evaluated with the normalized transfer operator via
m(f * g o sigma^j) = m(L^j f * g). L 1 = 1 and m^T L = m^T, so every series
sum_{j>=0} L^j v over a mean-zero v is the solution x of (I - L) x = v with
m(x) = 0, i.e. x = (I - L + 1 m^T)^{-1} v (Kemeny & Snell, Finite Markov
Chains, 1960). L maps depth-j functions to depth-(j - 1) ones down to its
smallest invariant word space (Parry & Pollicott, Asterisque 187-188), so each
system is solved there. The sums are exact linear solves with no truncation
order; each report states an a-posteriori bound from the solve residuals.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DepthMismatch, NoConvergence, NonFiniteValue, NotMeanZero
from .sft import DepthKFunction, Sft, _word_table
from .transfer import (DENSE_WORDS, EPS, MarkovMeasure, RuelleMatrix, require_normalized,
                       ruelle_matrix, _border, _cylinders, _lift, _perron, _refine)

MEAN_ZERO_TOL = 1e-8
# the orderings (i, j, k) of three factors, and their lower limits [i > j], [j > k]
_I, _J, _K = np.array(list(itertools.permutations(range(3)))).T
_LO_INNER, _LO_OUTER = _I > _J, _J > _K


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), with u taken as eps."""
    return k * EPS / (1.0 - k * EPS)


def _bordered_lu(matrix) -> tuple:
    """(A, splu(A)) for the bordered A = [[I - L, 1], [1^T, 0]], nonsingular as 1 is
    a simple eigenvalue of L whose right and left vectors pair positively with 1."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    n = matrix.shape[0]
    a = sp.bmat([[sp.identity(n) - sp.csr_matrix(matrix), np.ones((n, 1))],
                 [np.ones((1, n)), None]], format="csc")
    try:
        return a, splu(a)
    except RuntimeError as exc:
        raise NoConvergence(f"bordered system of {n} words: {exc}") from exc


def _stationary(matrix) -> tuple:
    """(m, lu): m^T L = m^T with sum(m) = 1 for a normalized L, from one bordered solve
    with rho = 1 (L 1 = 1 exactly) polished by `_refine`. Up to DENSE_WORDS the solve
    is dense and lu is None; above, lu is the `_bordered_lu` whose transposed solve
    against e_n gives m."""
    n = matrix.shape[0]
    e, lu = np.eye(n + 1)[n], None
    if n <= DENSE_WORDS:
        try:
            m = np.linalg.solve(_border(matrix, 1.0).T, e)[:n]
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"stationary vector of {n} words: {exc}") from exc
    else:
        lu = _bordered_lu(matrix)
        m = lu[1].solve(e, trans="T")[:n]
    m = _refine(matrix.T, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = m / m.sum()
    if not np.isfinite(m).all():
        raise NonFiniteValue(f"stationary vector of {n} words is not finite")
    return m, lu


@dataclass(frozen=True)
class _Levels:
    """How a context's words sit over the minimal ones, r = depth - low levels up.
    `prefix` places each word x in its minimal cylinder x[:low] and `first` starts
    each cylinder; `down` is L^r from the context's words to the minimal ones,
    whose column sums `weight` are the entries of L^r on each x (None, None, None
    and 1 when r = 0). For r > 0 the rows of `rounding` @ |b| bound the 1-norms
    of the rounding of L^r b on the minimal words and of sum_{0<j<r} L^j b."""

    r: int
    prefix: np.ndarray | None
    first: np.ndarray | None
    down: object
    weight: np.ndarray
    rounding: np.ndarray | None


class EquilibriumContext:
    """Shared machinery for correlation sums at a common working depth.

    Functions are integrated at the context's depth, max(depth, depth(w') - 1, 1)
    (depth(w') without `depth`); m comes from one bordered solve on the minimal
    words, depth low = max(depth(w') - 1, 1), lifted to the context's depth, and
    every fundamental system is factored and solved there. `rm`, L on the
    context's own words, is built on first use.
    """

    def __init__(self, sft: Sft, w_norm: DepthKFunction, depth: int | None = None):
        self.sft = sft
        self.w = w_norm
        low = max(w_norm.depth - 1, 1)
        self.depth = max(w_norm.depth if depth is None else depth, low)
        self.base: RuelleMatrix = ruelle_matrix(sft, w_norm, depth=low)
        require_normalized(self.base)   # L has the same row sums at every depth
        self._m_low, self._lu = _stationary(self.base.matrix)
        self.m = _lift(self.base, self._m_low, self.depth)

    @functools.cached_property
    def rm(self) -> RuelleMatrix:
        return self.base if self.depth == self.base.depth else ruelle_matrix(
            self.sft, self.w, depth=self.depth)

    @functools.cached_property
    def gap(self) -> float:
        """|lambda_2| / rho of L, from `_perron` on the minimal words when first read."""
        return _perron(self.base.matrix)[3]

    def vector(self, f: DepthKFunction) -> np.ndarray:
        if f.depth > self.depth:
            raise DepthMismatch(f"function depth {f.depth} exceeds context depth {self.depth}")
        return np.real(f.promote(self.depth).array).astype(float)

    def integrate(self, f: DepthKFunction) -> float:
        return float(self.m @ self.vector(f))

    def integrate_vec(self, v: np.ndarray) -> float:
        return float(self.m @ v)

    @functools.cached_property
    def _levels(self) -> _Levels:
        low, n = self.base.depth, len(self.m)
        r = self.depth - low
        if r == 0:
            return _Levels(0, None, None, None, np.ones(n), None)
        prefix, first = _cylinders(self.sft, self.depth, low)
        suffix = _word_table(self.sft, self.depth).tail   # x[r:] among the minimal words
        for j in range(self.depth - 1, low, -1):
            suffix = _word_table(self.sft, j).tail[suffix]
        weight = _lift(self.base, np.ones(len(self._m_low)), self.depth)
        if n <= DENSE_WORDS:
            down = np.zeros((len(self._m_low), n))
            down[suffix, np.arange(n)] = weight
        else:
            import scipy.sparse as sp
            down = sp.csr_matrix((weight, (suffix, np.arange(n))), shape=(len(self._m_low), n))
        # L^r b has at most k^r terms per row and L b at most k, k symbols;
        # 1^T L^j . |b| = ||L^j |b| ||_1
        k = self.sft.alphabet_size
        rounding, cols = np.zeros((2, n)), np.ones(n)
        rounding[0] = _gamma(k ** r) * weight
        for j in range(1, r):
            cols = self.rm.matrix.T @ cols
            rounding[1] += _gamma(j * k) * cols
        return _Levels(r, prefix, first, down, weight, rounding)

    def _cylinder_max(self, w: np.ndarray) -> np.ndarray:
        """max over the minimal words u of |sum_{x[:low] = u} w(x)|, per column of w."""
        first = self._levels.first
        return np.abs(w if first is None else np.add.reduceat(w, first, axis=0)).max(axis=0)

    @functools.cached_property
    def _factor(self):
        """(A, solve, ||G||_1) for the fundamental system on the minimal words, built
        on first use; G maps a residual of the n word rows to the error of x.

        For n <= DENSE_WORDS words A = I - L + 1 m^T with one dense inverse G, so the
        norm is exact. Above, A is the bordered [[I - L, 1], [1^T, 0]] whose sparse LU
        gave m, and a solve is followed by x - m(x) 1. That makes G the top-left n x n
        block of A^-1 followed by I - 1 m^T (the block of the bordered inverse with
        m^T in its last row), whose norm is `onenormest`'s; a residual in the
        constraint row moves x by a multiple of 1, which the projection removes.
        """
        m = self._m_low
        n = len(m)
        if n <= DENSE_WORDS:
            a = np.asarray(np.eye(n) - self.base.matrix) + m
            try:
                inv = np.linalg.inv(a)
            except np.linalg.LinAlgError as exc:
                raise NoConvergence(f"fundamental system of {n} words: {exc}") from exc
            return a, inv.__matmul__, np.abs(inv).sum(axis=0).max()
        from scipy.sparse.linalg import LinearOperator, onenormest
        a, lu = self._lu or _bordered_lu(self.base.matrix)

        def solve(rhs):
            x = lu.solve(rhs)
            x[:n] -= m @ x[:n]
            return x

        block = LinearOperator((n, n), dtype=float,
                               matvec=lambda y: solve(np.append(y, 0.0))[:n],
                               rmatvec=lambda y: lu.solve(np.append(y.ravel() - y.sum() * m, 0.0),
                                                          trans="T")[:n])
        return a, solve, onenormest(block)

    def sums(self, vecs: np.ndarray, lo=0, err_in=0.0):
        """Columns sum_{j>=lo} L^j b, b = v - m(v), over the columns v of `vecs`.

        With r = depth - low, sum_{j>=0} L^j b = sum_{j<r} L^j b + promote(y), where
        y = sum_{j>=0} L^j (L^r b) is solved on the minimal words; lo = 1 drops the
        term j = 0. Returns the columns and, per column, err[0] bounding the 1-norm on
        the minimal words of the error of y up to a multiple of 1 (which pairs to
        zero with a mean-zero vector), and err[1] bounding the 1-norm of the rounding
        of the terms j < r. err[0] is the norm of `_factor` times the residual of the
        solve, the rounding of L^r b and `err_in`, a bound on the 1-norm on the
        minimal words of the error that v carries into L^r v; the error v carries
        into the terms j < r is the caller's to bound. The residual counts the
        rounding of its own evaluation, gamma_{N+1} (|rhs| + |A| |x|) for A of order
        N (Higham, Accuracy and Stability of Numerical Algorithms, ch. 12), so it is
        never a bare 0. `lo` and `err_in` may vary by column.
        """
        a, solve, inv_norm = self._factor
        lev, n = self._levels, len(self._m_low)
        b = vecs - self.m @ vecs
        rhs = b if lev.r == 0 else lev.down @ b
        if a.shape[0] > n:
            rhs = np.vstack([rhs, np.zeros((1, rhs.shape[1]))])
        y = solve(rhs)
        resid = np.abs(rhs - a @ y) + _gamma(a.shape[0] + 1) * (np.abs(rhs) + abs(a) @ np.abs(y))
        err = err_in + resid[:n].sum(axis=0)
        if lev.r == 0:
            return y[:n] - lo * b, np.array([inv_norm * err, np.zeros_like(err)])
        rounding = lev.rounding @ np.abs(b)
        rounding[0] = inv_norm * (err + rounding[0])
        x = y[lev.prefix] + (1 - lo) * b
        for _ in range(1, lev.r):
            b = self.rm.matrix @ b
            x += b
        return x, rounding

    def _mean_zero_vector(self, g: DepthKFunction) -> np.ndarray:
        v = self.vector(g)
        mean = self.integrate_vec(v)
        if abs(mean) > MEAN_ZERO_TOL * (1.0 + float(np.max(np.abs(v)))):
            raise NotMeanZero(mean)
        return v

    def _bound(self, weights: np.ndarray, err: np.ndarray) -> float:
        """Bound on the sum over columns of |m(w * e)|, e the error that `sums` bounds
        by err for the column w of `weights` is paired with: its part on the minimal
        words against max_u |sum_{x[:low] = u} m(x) w(x)|, the rest against max |m w|."""
        mw = self.m[:, None] * weights
        if self._levels.r == 0:
            return float(np.abs(mw).max(axis=0) @ (err[0] + err[1]))
        bound = self._cylinder_max(mw) @ err[0]
        if self._levels.r > 1:   # err[1] is 0 when no term has 0 < j < r
            bound += np.abs(mw).max(axis=0) @ err[1]
        return float(bound)

    def variance(self, g: DepthKFunction) -> CorrelationReport:
        """Green-Kubo sum m(g^2) + 2 sum_{j>=1} m(g * g o sigma^j) of a mean-zero g."""
        v = self._mean_zero_vector(g)
        s1, err = self.sums(v[:, None], lo=1)
        value = self.integrate_vec(v * v) + 2.0 * self.integrate_vec(v * s1[:, 0])
        return CorrelationReport(value, truncation=0, tail_bound=self._bound(v[:, None], 2.0 * err))

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
        return CorrelationReport(value, truncation=0,
                                 tail_bound=self._bound(np.column_stack([v2, v1]), err))

    def triple(self, g1: DepthKFunction, g2: DepthKFunction,
               g3: DepthKFunction) -> CorrelationReport:
        """Double correlation sum over all n, m of m(g1 * g2 o sigma^n * g3 o sigma^m).

        This is the discrete form of the third-moment limit (1/n) int (S_n)^3.
        Each index pair is one ordering (i, j, k) of the factors by shift, ties
        broken by index, with gaps p, c >= 0; the ordering's share is
        m(S_c(S_p(h_i) * h_j) * h_k) with lower limits p >= [i > j], c >= [j > k].

        The inner error e = promote(a) + alpha (`sums`) enters the outer sum as
        h_j e: into L^r (h_j e) on the minimal words with norm at most
        max_u sum_{x[:low] = u} L^r(x) |h_j(x)| ||a||_1 + max L^r |h_j| ||alpha||_1,
        with weight [r > 0] - [j > k] as the term c = 0, paired with h_k h_j, and
        through each of the r - 1 terms 0 < c < r, where |m(h_k L^c f)| <= max |h_k| m(|f|).
        """
        h = np.column_stack([self._mean_zero_vector(g) for g in (g1, g2, g3)])
        hj, hk, lev = h[:, _J], h[:, _K], self._levels
        inner, e_in = self.sums(h[:, _I], lo=_LO_INNER)
        carry = lev.weight[:, None] * np.abs(hj)
        err_in = self._cylinder_max(carry) * e_in[0]
        if lev.r > 1:   # e_in[1] is 0 otherwise
            err_in += carry.max(axis=0) * e_in[1]
        outer, err = self.sums(inner * hj, lo=_LO_OUTER, err_in=err_in)
        value = self.integrate_vec((outer * hk).sum(axis=1))
        bound = self._bound(np.hstack([hk, hk * hj * ((lev.r > 0) != _LO_OUTER)]),
                            np.hstack([err, e_in]))
        if lev.r > 1:
            bound += (lev.r - 1) * self._bound(np.abs(hj), e_in * np.abs(hk).max(axis=0))
        return CorrelationReport(value, truncation=0, tail_bound=bound)


@dataclass(frozen=True)
class CorrelationReport:
    """`truncation` is 0 (the sums are exact solves); `tail_bound` bounds the
    error of `value` from the solve residuals."""

    value: float
    truncation: int
    tail_bound: float


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
