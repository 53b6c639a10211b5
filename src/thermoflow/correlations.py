"""Variance, covariance and triple covariance against equilibrium measures.

All three are Taylor coefficients of log rho along a family of potentials, from one
Rayleigh-Schrodinger recursion whose every order is one batch of correlation sums
sum_{j>=0} L^j v of the normalized transfer operator. L 1 = 1 and m^T L = m^T, so
each is the solution x of (I - L) x = v with m(x) = 0, i.e. x = (I - L + 1 m^T)^{-1} v
(Kemeny & Snell, Finite Markov Chains, 1960), solved on the smallest invariant word
space of L (Parry & Pollicott, Asterisque 187-188) with no truncation order; each
report states an a-posteriori bound from the solve residuals.
"""
from __future__ import annotations

import collections
import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DepthMismatch, NoConvergence, NonFiniteValue, NotMeanZero
from .sft import DepthKFunction, Sft, _word_table
from .transfer import (DENSE_WORDS, EPS, MarkovMeasure, RuelleMatrix, require_normalized,
                       ruelle_matrix, _border, _cylinders, _lift, _perron, _refine)

MEAN_ZERO_TOL = 1e-8


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


# A context's words r = depth - low levels over the minimal ones: `prefix` places each x in
# its minimal cylinder x[:low], each starting at `first`; `down` is L^r onto the minimal
# words, with column sums `weight` (None, None, None and 1 at r = 0), and `between` the
# column sums of sum_{0<j<r} L^j. For r > 0 the rows of `rounding` @ |b| bound the
# 1-norms of the rounding of L^r b on the minimal words and of sum_{0<j<r} L^j b.
_Levels = collections.namedtuple("_Levels", "r prefix first down weight rounding between")


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
            return _Levels(0, None, None, None, np.ones(n), None, np.zeros(n))
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
        rounding, cols, between = np.zeros((2, n)), np.ones(n), np.zeros(n)
        rounding[0] = _gamma(k ** r) * weight
        for j in range(1, r):
            cols = self.rm.matrix.T @ cols
            rounding[1] += _gamma(j * k) * cols
            between += cols
        return _Levels(r, prefix, first, down, weight, rounding, between)

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

    @functools.cached_property
    def _shifted_norm(self) -> float:
        """||G - I||_1, which carries the error of b into a lo = 1 column y - b at r = 0:
        exact from the dense inverse (the dense solve is its matmul), else ||G||_1 + 1."""
        a, solve, inv_norm = self._factor
        dense = isinstance(a, np.ndarray)
        return np.abs(solve.__self__ - np.eye(len(a))).sum(axis=0).max() if dense else inv_norm + 1

    def sums(self, vecs: np.ndarray, lo=0, err_in=(0.0, 0.0)):
        """Columns sum_{j>=lo} L^j b, b = v - m(v), over the columns v of `vecs`.

        With r = depth - low, sum_{j>=0} L^j b = sum_{j<r} L^j b + promote(y), where
        y = sum_{j>=0} L^j (L^r b) is solved on the minimal words; lo = 1 drops the
        term j = 0. Returns the columns and, per column, err[0] bounding the 1-norm on
        the minimal words of the error of y up to a multiple of 1 (which pairs to zero
        with a mean-zero vector): the norm of `_factor` times the residual of the solve,
        the rounding of L^r b and err_in[0], the 1-norm there of the error v carries into
        L^r v (at r = 0 with lo = 1, err_in[0] times `_shifted_norm`); and err[1], the
        rounding of the terms j < r plus err_in[1], the 1-norm of the error v carries
        into the terms lo <= j < r. The residual counts the rounding of its own
        evaluation, gamma_{N+1} (|rhs| + |A| |x|) for A of order N (Higham, Accuracy and
        Stability of Numerical Algorithms, ch. 12), so it is never a bare 0. `lo` and
        `err_in` may vary by column.
        """
        a, solve, inv_norm = self._factor
        lev, n = self._levels, len(self._m_low)
        b = vecs - self.m @ vecs
        rhs = b if lev.r == 0 else lev.down @ b
        if a.shape[0] > n:
            rhs = np.vstack([rhs, np.zeros((1, rhs.shape[1]))])
        y = solve(rhs)
        resid = np.abs(rhs - a @ y) + _gamma(a.shape[0] + 1) * (np.abs(rhs) + abs(a) @ np.abs(y))
        err = resid[:n].sum(axis=0)
        if lev.r == 0:
            g = np.where(lo, self._shifted_norm, inv_norm) if np.any(err_in[0] * lo) else inv_norm
            return y[:n] - lo * b, np.array([inv_norm * err + g * err_in[0], np.zeros_like(err)])
        rounding = lev.rounding @ np.abs(b)
        rounding[0] = inv_norm * (err + err_in[0] + rounding[0])
        rounding[1] += err_in[1]
        x = y[lev.prefix] + (1 - lo) * b
        for _ in range(1, lev.r):
            b = self.rm.matrix @ b
            x += b
        return x, rounding

    def _norms(self, w: np.ndarray) -> np.ndarray:
        """(max_u |sum_{x[:low] = u} w(x)|, max |w|) per column of w, to dot with err."""
        return np.array([self._cylinder_max(w), np.abs(w).max(axis=0)])

    def _log_rho(self, coeffs: dict, top: tuple) -> tuple:
        """(p, bound): the Taylor coefficients p_a of P(w' + g(s)) = log rho(s) at s = 0,
        g(s) = sum_a g_a s^a, for every count vector 0 < a <= top, each with a bound.

        `coeffs` maps count vectors a to the vectors g_a on the context's words (absent
        ones are 0). rho(s) is a simple eigenvalue of L(s) = L(e^{g(s)} .), analytic in s
        (Parry & Pollicott, Asterisque 187-188, ch. 4), and the Rayleigh-Schrodinger
        recursion (Kato, Perturbation Theory for Linear Operators, ch. II 2) gives its
        coefficients from x_0 = 1, m(x_a) = 0 and c = e^g:
            lambda_a = m(u_a),  u_a = sum_{0<b<=a} c_b x_{a-b},
            x_a = sum_{j>=1} L^j u_a - sum_{j>=0} L^j w_a,  w_a = sum_{0<b<a} lambda_b x_{a-b}.
        c = e^g and p = log lambda follow from a_i c_a = sum_{0<b<=a} b_i g_b c_{a-b},
        i the first index with a_i > 0. Each level |a| below the top is one `sums` call
        (lo = 1 for the u_a, lo = 0 for the w_a), into which the errors of the levels
        below are carried; every error is also paired into the lambdas it enters.
        """
        levels, splits = _plan(top)
        lev, zero = self._levels, np.zeros(len(self.m))
        c, x, err, lam, lam_err, p, bound, norm = {}, {}, {}, {}, {}, {}, {}, {}
        for k, level in enumerate(levels):
            for a in level:
                c[a] = u = coeffs.get(a, zero) + sum(f * coeffs[b] * c[d]
                                                     for b, d, f in splits[a] if f and b in coeffs)
                q = le = bd = 0.0
                for b, d, f in splits[a]:
                    u = u + c[b] * x[d]
                    le += norm[b][0] @ err[d]
                    q += f * p[b] * lam[d]
                    bd += f * (abs(p[b]) * lam_err[d] + (abs(lam[d]) + lam_err[d]) * bound[b])
                x[a], lam[a] = u, self.integrate_vec(u)   # x[a] holds u_a until it is solved
                p[a], lam_err[a], bound[a] = lam[a] - q, le, le + bd
            if k == len(levels) - 1:
                return p, bound
            # norm[a]: the norms of m c_a and, if a later level is solved, of |c_a| under the
            # column sums of L^r and of sum_{0<j<r} L^j, which carry an error into u columns
            n, cs = len(level), np.array([c[a] for a in level]).T
            w = self.m[:, None] * cs
            if k + 2 < len(levels):
                w = np.hstack([w, lev.weight[:, None] * abs(cs), lev.between[:, None] * abs(cs)])
            norm.update(zip(level, self._norms(w).reshape(2, -1, n).T))
            if not k:   # the first level: u_a = g_a, carrying no error
                out, e = self.sums(cs, lo=1)
            else:   # u_a carries c_b e_d; w_a carries lambda_b e_d + e(lambda_b) x_d, from j = 0
                under = np.array([lev.weight, lev.between + (lev.r > 0)])
                ones = self._norms(under.T).T
                cols = [x[a] for a in level] + [sum(lam[b] * x[d] for b, d, _ in splits[a])
                                                for a in level]
                carry = [sum(norm[b][1:] @ err[d] for b, d, _ in splits[a]) for a in level]
                carry += [sum(abs(lam[b]) * ones @ err[d] + lam_err[b] * (under @ abs(x[d]))
                              for b, d, _ in splits[a]) for a in level]
                out, e = self.sums(np.column_stack(cols), lo=np.arange(2 * n) < n,
                                   err_in=np.column_stack(carry))
                out, e = out[:, :n] - out[:, n:], e[:, :n] + e[:, n:]
            x.update(zip(level, out.T))
            err.update(zip(level, e.T))

    def _mean_zero_vector(self, g: DepthKFunction) -> np.ndarray:
        v = self.vector(g)
        mean = self.integrate_vec(v)
        if abs(mean) > MEAN_ZERO_TOL * (1.0 + float(np.max(np.abs(v)))):
            raise NotMeanZero(mean)
        return v

    def _report(self, coeffs: dict, top: tuple, scale: float = 1.0) -> CorrelationReport:
        p, bound = self._log_rho(coeffs, top)
        return CorrelationReport(scale * p[top], truncation=0, tail_bound=scale * bound[top])

    def variance(self, g: DepthKFunction) -> CorrelationReport:
        """m(g^2) + 2 sum_{j>=1} m(g * g o sigma^j), g mean zero: twice the (2) coefficient."""
        return self._report({(1,): self._mean_zero_vector(g)}, (2,), 2.0)

    def covariance(self, g1: DepthKFunction, g2: DepthKFunction) -> CorrelationReport:
        """Symmetric bilinear correlation sum, the (1, 1) coefficient of `_log_rho`. As
        Cov(g1, g2) = Cov(g1, P_m g2), g2 is centred here and only g1 must be mean zero."""
        v2 = self.vector(g2)
        return self._report({(1, 0): self._mean_zero_vector(g1),
                             (0, 1): v2 - self.integrate_vec(v2)}, (1, 1))

    def triple(self, g1: DepthKFunction, g2: DepthKFunction,
               g3: DepthKFunction) -> CorrelationReport:
        """Double correlation sum over all n, m of m(g1 * g2 o sigma^n * g3 o sigma^m),
        the discrete third-moment limit (1/n) int (S_n)^3: the (1, 1, 1) coefficient
        of `_log_rho`, the mixed derivative of P(w' + s1 g1 + s2 g2 + s3 g3) at 0."""
        units = dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (g1, g2, g3)))
        return self._report({a: self._mean_zero_vector(g) for a, g in units.items()}, (1, 1, 1))


@functools.cache
def _plan(top: tuple) -> tuple:
    """(levels, splits): the count vectors 0 < a <= top by |a| = 1, 2, ..., and per a its
    splits (b, a - b, b_i / a_i), 0 < b < a, i the first index with a_i > 0."""
    alphas = sorted((a for a in itertools.product(*(range(t + 1) for t in top)) if any(a)), key=sum)
    splits = {}
    for a in alphas:
        i = next(k for k, ak in enumerate(a) if ak)
        splits[a] = [(b, d, b[i] / a[i]) for b in alphas
                     for d in [tuple(map(operator.sub, a, b))] if d in alphas]
    return [[a for a in alphas if sum(a) == k] for k in range(1, sum(top) + 1)], splits


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
