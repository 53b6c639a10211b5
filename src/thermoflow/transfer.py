"""Ruelle transfer operator on depth-k functions, RPF data, pressure.

The operator (L_w f)(x) = sum_{sigma y = x} e^{w(y)} f(y) acts on locally constant
functions as a nonnegative matrix indexed by admissible k-words, dense up to
DENSE_WORDS words and CSR above; its simple dominant eigenvalue gives the pressure log rho.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (DepthMismatch, NoConvergence, NonFiniteValue, NonPositiveEigenfunction,
                     NotMixing, NotNormalized, PotentialOverflow)
from .sft import DepthKFunction, Sft, WordMap, _prefix, _word_table, word_key

# Largest operator held as a dense matrix and solved by `np.linalg.eigvals` plus two
# linear solves; CSR and ARPACK above. It counts the words of the smallest invariant
# space, depth max(depth(w) - 1, 1), the only one `_perron` sees (and a context's, for
# its factor). `_perron` alone crosses over between 144 and 233 words (one BLAS thread,
# 2-core x86_64: 144 words 7.1 ms dense vs 12.6 ms ARPACK, 233 words 24.3 vs 14.5 ms).
DENSE_WORDS = 96
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class RuelleMatrix:
    sft: Sft
    depth: int
    words: tuple
    index: Mapping
    matrix: object   # an ndarray up to DENSE_WORDS words, a csr_matrix above
    weights: np.ndarray   # the entry on each edge, in the order of the (depth+1)-words

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def vector_of(self, f: DepthKFunction) -> np.ndarray:
        """f's values on the words of this matrix (read-only)."""
        return f.promote(self.depth).array

    def normalization_defect(self) -> float:
        """max |row sum - 1|: zero exactly when L 1 = 1."""
        return float(np.max(np.abs(self.matrix.sum(axis=1) - 1.0)))


@functools.cache   # Sft is frozen, so an entry never goes stale
def _pattern(sft: Sft, k: int) -> tuple:
    """(edges, indices, indptr): L's CSR pattern on k-words, and for each stored
    entry the position of its edge among the (k+1)-words. Entry (u, v) is the edge
    x = (v[0],) + u, so u = x[1:] is its row and v = x[:k] its column."""
    n = len(_word_table(sft, k).words)
    head, tail = _word_table(sft, k + 1).head, _word_table(sft, k + 1).tail
    edges = np.lexsort((head, tail))
    indptr = np.append(0, np.cumsum(np.bincount(tail, minlength=n)))
    return edges, head[edges].astype(np.int32), indptr.astype(np.int32)


@functools.cache   # Sft is frozen, so an entry never goes stale
def _cylinders(sft: Sft, k: int, j: int) -> tuple:
    """(prefix, first): the position of x[:j] among the j-words per k-word x, and the
    first k-word of each j-cylinder. The k-words are in lexicographic order, so each
    cylinder is one run, starting at `first` (read-only)."""
    prefix = _prefix(sft, k, j)
    first = np.searchsorted(prefix, np.arange(len(_word_table(sft, j).words)))
    prefix.setflags(write=False)
    first.setflags(write=False)
    return prefix, first


def _exp_table(sft: Sft, w: DepthKFunction, k: int) -> np.ndarray:
    """e^w on the words of w, in their cached order. An overflow, a non-finite w or
    a zero (which would drop a transition) names the first max(k, depth(w))-word
    it weighs."""
    def named(i: int):
        n = max(k, w.depth)
        return _word_table(sft, n).words[np.flatnonzero(_prefix(sft, n, w.depth) == i)[0]]

    weights = []
    for i, x in enumerate(w.array.tolist()):
        try:
            weight = math.exp(x.real)
        except OverflowError:
            raise PotentialOverflow(f"e^w overflows a float at word {named(i)}: w = {x}") from None
        if not math.isfinite(weight):
            raise PotentialOverflow(f"e^w is not finite at word {named(i)}: w = {x}")
        if weight == 0.0:
            raise PotentialOverflow(f"e^w underflows to zero at word {named(i)}: w = {x}")
        weights.append(weight)
    return np.array(weights)


def ruelle_matrix(sft: Sft, w: DepthKFunction, depth: int | None = None) -> RuelleMatrix:
    """Matrix of L_w on depth-k value vectors: k = max(depth(w), 1) by default, and
    k = max(depth, depth(w) - 1, 1) when `depth` is given.

    Entry (u, v) is e^{w(((a,) + u)[:depth(w)])} when v = (a,) + u[:k-1] is an
    admissible one-symbol extension; rows enumerate preimages. At k >= depth(w) the
    weight is e^{w(v)}; at k = depth(w) - 1 it sits on the edge (a,) + u, and L_w
    still maps depth-k functions to depth-k functions. The words, the index and the
    sparsity pattern are cached per (shift, k); a call takes one exp per word of w
    and gathers them into a matrix that owns its arrays, dense up to DENSE_WORDS.
    """
    if not sft.is_mixing:
        raise NotMixing("transfer operator requires a topologically mixing shift")
    if not w.is_real(1e-12):
        raise ValueError("transfer operator potentials must be real-valued")
    k = max(w.depth if depth is None else depth, w.depth - 1, 1)
    table = _word_table(sft, k)
    n = len(table.words)
    weights = _exp_table(sft, w, k)[_prefix(sft, k + 1, w.depth)]
    if n <= DENSE_WORDS:
        head, tail = _word_table(sft, k + 1).head, _word_table(sft, k + 1).tail
        mat = np.bincount(tail * n + head, weights, minlength=n * n).reshape(n, n)
    else:
        import scipy.sparse as sp
        edges, indices, indptr = _pattern(sft, k)
        mat = sp.csr_matrix((weights[edges], indices.copy(), indptr.copy()), shape=(n, n))
    return RuelleMatrix(sft=sft, depth=k, words=table.words, index=table.index, matrix=mat,
                        weights=weights)


def _lift(rm: RuelleMatrix, nu: np.ndarray, depth: int, rho: float = 1.0) -> np.ndarray:
    """A left eigenvector nu (nu L = rho nu) of `rm` lifted to the depth-words.

    L* nu = rho nu on the cylinder [x] of a (j+1)-word x, j >= depth(w) - 1, reads
    nu_{j+1}(x) = e^{w(x[:depth(w)])} nu_j(x[1:]) / rho; the weight is the entry of
    `rm` on the edge x[:rm.depth + 1]. The lift keeps sum(nu) and, with h
    promoted, <nu, h>.
    """
    k = rm.depth
    for j in range(k + 1, depth + 1):
        nu = rm.weights[_prefix(rm.sft, j, k + 1)] * nu[_word_table(rm.sft, j).tail] / rho
    return nu


@dataclass(frozen=True)
class RpfData:
    """Leading spectral data of a Ruelle operator; `adjoint_measure` is nu on the
    depth-words, read-only."""

    rho: float
    eigenfunction: DepthKFunction
    adjoint_measure: WordMap
    pressure: float
    gap_estimate: float
    residual: float
    depth: int

    def to_json(self) -> str:
        sft = self.eigenfunction.sft
        return json.dumps({
            "rho": self.rho,
            "pressure": self.pressure,
            "gap_estimate": self.gap_estimate,
            "residual": self.residual,
            "depth": self.depth,
            "eigenfunction": {word_key(sft, w): float(np.real(v))
                              for w, v in self.eigenfunction.values.items()},
            "adjoint_measure": {word_key(sft, w): v for w, v in self.adjoint_measure.items()},
        }, sort_keys=True)


def _border(matrix: np.ndarray, rho: float) -> np.ndarray:
    """The bordered [[L - rho I, 1], [1^T, 0]] of a dense L. It is nonsingular when rho
    is a simple eigenvalue whose right and left vectors pair nonzero with 1; solved
    against e_n it gives the right vector, and its transpose the left one, each with
    sum 1 (L - rho I + 1 1^T would round the 1s away against huge entries)."""
    n = matrix.shape[0]
    border = np.ones((n + 1, n + 1))
    border[:n, :n], border[n, n] = matrix - np.diag(np.full(n, rho)), 0
    return border


def _perron(matrix):
    """(rho, h, nu, ratio): the leading spectral data of a primitive matrix.

    rho is the Perron root, h the right and nu the left Perron vector with sum(nu) = 1
    and <nu, h> = 1, and ratio = |lambda_2| / rho is the ratio of the computed
    eigenvalues, at most 1 (Perron-Frobenius: no eigenvalue of a nonnegative matrix
    exceeds rho in modulus); a lambda_2 equal to rho in modulus can round it to 1.
    Up to DENSE_WORDS rows rho and the ratio come from `eigvals`, and h and nu from one
    solve each of `_border` and its transpose; above, from ARPACK. `_refine` polishes
    both vectors. A failed solve raises NoConvergence, a non-finite result
    NonFiniteValue."""
    n = matrix.shape[0]
    if n <= DENSE_WORDS:
        try:
            lam = np.linalg.eigvals(matrix)
            top = np.argmax(lam.real)   # rho, even where rounding gives -rho the larger modulus
            border, e = _border(matrix, lam[top].real), np.eye(n + 1)[n]
            h, nu = np.linalg.solve(border, e)[:n], np.linalg.solve(border.T, e)[:n]
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"dense Perron solve on {n} words: {exc}") from exc
    else:
        from scipy.sparse.linalg import ArpackNoConvergence, eigs
        ones = np.ones(n)
        try:
            # 40 Lanczos vectors, not 20: at 20 ARPACK fails on golden-mean depth-15 draws
            lam, right = eigs(matrix, k=2, which="LM", v0=ones, tol=0, ncv=min(n - 1, 40))
            _, left = eigs(matrix.T, k=1, which="LM", v0=ones, tol=0)
        except ArpackNoConvergence as exc:
            raise NoConvergence(f"ARPACK on {n} words: {exc}") from exc
        top = np.argmax(lam.real)
        h, nu = right[:, top], left[:, 0]
    rho = float(lam[top].real)
    h, nu = _refine(matrix, h), _refine(matrix.T, nu)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        nu = nu / nu.sum()
        h = h / (nu @ h)
    if not (math.isfinite(rho) and np.isfinite(h).all() and np.isfinite(nu).all()):
        raise NonFiniteValue(f"Perron data of {n} words is not finite (rho = {rho:.3e})")
    ratio = min(float(np.abs(np.delete(lam, top)).max() / rho), 1.0) if n > 1 else 0.0
    return rho, h, nu, ratio


def _refine(matrix, x: np.ndarray) -> np.ndarray:
    """|x| after power steps x <- Lx / max(Lx) until the Collatz-Wielandt spread
    max(Lx / x) / min(Lx / x) grows past its rounding or is within 32 eps of 1, so
    that each entry of a Perron vector is accurate to its own size."""
    best = x = np.abs(x)
    low = np.inf
    for _ in range(200):   # a cap for |lambda_2| / rho close to 1
        y = matrix @ x
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = y / x
            spread = ratio.max() / ratio.min()
        if not spread <= low + 4 * EPS:
            break
        best, low, x = x, min(low, spread), y / y.max()
        if spread <= 1.0 + 32 * EPS:
            break
    return best


def _solve(sft: Sft, w: DepthKFunction) -> tuple:
    """(rm, rho, h, nu, ratio): `_perron` of L_w on its smallest invariant word space,
    depth max(depth(w) - 1, 1). Every eigenvector with a nonzero eigenvalue lies there
    (Parry & Pollicott, Asterisque 187-188), so no solve needs a deeper matrix."""
    rm = ruelle_matrix(sft, w, depth=w.depth - 1)
    rho, h, nu, ratio = _perron(rm.matrix)
    if np.any(h <= 0):
        raise NonPositiveEigenfunction("eigenfunction has nonpositive entries")
    return rm, rho, h, nu, ratio


def rpf(sft: Sft, w: DepthKFunction, depth: int | None = None) -> RpfData:
    """Ruelle-Perron-Frobenius data of L_w at depth max(depth(w), depth, 1).

    One `_solve` on the smallest invariant word space, lifted exactly: h is
    promoted and nu lifted by `_lift`; rho, the residual and the gap are the same
    at every depth.
    """
    rm, rho, h, nu, ratio = _solve(sft, w)
    resid = np.max(np.abs(rm.apply(h) - rho * h)) / np.max(h)
    k = max(w.depth, depth or 1, 1)
    return RpfData(rho=rho, eigenfunction=DepthKFunction(sft, k, h[_prefix(sft, k, rm.depth)]),
                   adjoint_measure=WordMap(_word_table(sft, k), _lift(rm, nu, k, rho)),
                   pressure=float(np.log(rho)), gap_estimate=ratio, residual=float(resid),
                   depth=k)


def pressure(sft: Sft, w: DepthKFunction, depth: int | None = None) -> float:
    """log rho; `depth` changes nothing, since every depth has the same rho."""
    return float(np.log(_solve(sft, w)[1]))


def normalize_potential(sft: Sft, w: DepthKFunction, data: RpfData) -> DepthKFunction:
    """w' = w + log h - log h o sigma - log rho, so that L_{w'} 1 = 1.

    h is a function of depth max(depth(w) - 1, 1), the words `_solve` found it on, and
    log h is taken there, so w' has depth max(depth(w), 2): its smallest invariant
    word space is that of w, and a context for w' need not be deeper than w.
    """
    low = max(w.depth - 1, 1)
    h = data.eigenfunction.array.real[_cylinders(sft, data.eigenfunction.depth, low)[1]]
    if np.any(h <= 0):
        raise NonPositiveEigenfunction("cannot normalize with nonpositive eigenfunction")
    log_h = DepthKFunction(sft, low, np.array([math.log(x) for x in h.tolist()]))
    return w + log_h - log_h.compose_shift() - data.pressure


@dataclass(frozen=True)
class MarkovMeasure:
    """Nonnegative weights on admissible depth-words summing to one (read-only)."""

    sft: Sft
    depth: int
    weights: WordMap

    def integrate(self, f: DepthKFunction):
        """sum_x m(x) f(x), left to right in word order."""
        if f.depth > self.depth:
            raise DepthMismatch(
                f"measure depth {self.depth} < function depth {f.depth}")
        return sum((self.weights.array * f.promote(self.depth).array).tolist())

    def to_json(self) -> str:
        return json.dumps({word_key(self.sft, w): v for w, v in self.weights.items()},
                          sort_keys=True)


def equilibrium_measure(sft: Sft, w: DepthKFunction, data: RpfData | None = None,
                        depth: int | None = None) -> MarkovMeasure:
    """Equilibrium weights h * nu on depth-words, normalized to a probability."""
    if data is None:
        data = rpf(sft, w, depth=depth)
    raw = data.adjoint_measure.array * data.eigenfunction.array.real
    return MarkovMeasure(sft=sft, depth=data.depth,
                         weights=WordMap(data.adjoint_measure.table, raw / sum(raw.tolist())))


def require_normalized(rm: RuelleMatrix, tol: float = 1e-8):
    defect = rm.normalization_defect()
    if defect > tol:
        raise NotNormalized(f"row-sum defect {defect:.3e} exceeds {tol:.3e}")
