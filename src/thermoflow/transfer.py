"""Ruelle transfer operator on depth-k functions, RPF data, pressure.

The operator (L_w f)(x) = sum_{sigma y = x} e^{w(y)} f(y) acts on locally
constant functions as a sparse nonnegative matrix indexed by admissible
k-words; its simple dominant eigenvalue gives the pressure log rho.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigs

from .errors import (DepthMismatch, NoConvergence, NonPositiveEigenfunction, NotMixing,
                     NotNormalized, PotentialOverflow)
from .sft import DepthKFunction, Sft, admissible_words

# Largest operator solved by one dense eigendecomposition; ARPACK above it.
# The crossover lies between 64 and 128 words (full 2-shift, one BLAS thread:
# 64 words 2.0 ms dense vs 8.6 ms ARPACK, 128 words 12.3 ms vs 11.0 ms).
DENSE_WORDS = 96


@dataclass(frozen=True)
class RuelleMatrix:
    sft: Sft
    depth: int
    words: tuple
    index: Mapping
    matrix: sp.csr_matrix

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def vector_of(self, f: DepthKFunction) -> np.ndarray:
        g = f.promote(self.depth)
        return np.array([g.values[w] for w in self.words])

    def function_of(self, vec: np.ndarray) -> DepthKFunction:
        return DepthKFunction(self.sft, self.depth,
                              {w: vec[i] for i, w in enumerate(self.words)})

    def normalization_defect(self) -> float:
        """max |row sum - 1|: zero exactly when L 1 = 1."""
        return float(np.max(np.abs(self.matrix.sum(axis=1) - 1.0)))


# (transition, k) -> (words, index, indices, indptr): the admissible k-words, their
# positions, and the column indices and row pointers of L's 0/1 CSR pattern, in the
# in-row (sorted) column order of a COO -> CSR build. Sft is frozen, so an entry
# never goes stale.
_PATTERN: dict = {}


def _pattern(sft: Sft, k: int) -> tuple:
    key = (sft.transition, k)
    if key not in _PATTERN:
        words = tuple(admissible_words(sft, k))
        index = MappingProxyType({u: i for i, u in enumerate(words)})
        rows, cols = [], []
        for i, u in enumerate(words):
            for a in range(sft.alphabet_size):
                if sft.transition[a][u[0]]:
                    rows.append(i)
                    cols.append(index[(a,) + u[: k - 1]])
        ones = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(words),) * 2)
        _PATTERN[key] = (words, index, ones.indices, ones.indptr)
    return _PATTERN[key]


def ruelle_matrix(sft: Sft, w: DepthKFunction, depth: int | None = None) -> RuelleMatrix:
    """Matrix of L_w on depth-k value vectors, k = max(depth(w), depth, 1).

    Entry (u, v) is e^{w(v)} when v is an admissible one-symbol extension whose
    shift is compatible with u (v[1:] == u[:k-1]); rows enumerate preimages. The
    words, the index and the sparsity pattern are cached per (shift, k); a call
    takes one exp per word and gathers it into a CSR matrix that owns its arrays.
    """
    if not sft.is_mixing:
        raise NotMixing("transfer operator requires a topologically mixing shift")
    if not w.is_real(1e-12):
        raise ValueError("transfer operator potentials must be real-valued")
    k = max(w.depth, depth or 1, 1)
    words, index, indices, indptr = _pattern(sft, k)
    weights = []
    for v in words:
        x = w.values[v[: w.depth]]
        try:
            weight = math.exp(x.real)
        except OverflowError:
            raise PotentialOverflow(f"e^w overflows a float at word {v}: w = {x}") from None
        if weight == 0.0:  # a zero weight would drop the transition
            raise PotentialOverflow(f"e^w underflows to zero at word {v}: w = {x}")
        weights.append(weight)
    mat = sp.csr_matrix((np.array(weights)[indices], indices.copy(), indptr.copy()),
                        shape=(len(words), len(words)))
    return RuelleMatrix(sft=sft, depth=k, words=words, index=index, matrix=mat)


@dataclass(frozen=True)
class RpfData:
    """Leading spectral data of a Ruelle operator."""

    rho: float
    eigenfunction: DepthKFunction
    adjoint_measure: dict
    pressure: float
    gap_estimate: float
    residual: float
    depth: int

    def to_json(self) -> str:
        sep = "" if self.eigenfunction.sft.alphabet_size <= 10 else ","

        def key(w):
            return sep.join(str(sym) for sym in w)

        return json.dumps({
            "rho": self.rho,
            "pressure": self.pressure,
            "gap_estimate": self.gap_estimate,
            "residual": self.residual,
            "depth": self.depth,
            "eigenfunction": {key(w): float(np.real(v))
                              for w, v in self.eigenfunction.values.items()},
            "adjoint_measure": {key(w): v for w, v in self.adjoint_measure.items()},
        }, sort_keys=True)


def _perron(matrix: sp.csr_matrix):
    """(rho, h, nu, ratio): the leading spectral data of a primitive matrix.

    rho is the Perron root, h the right and nu the left Perron vector with
    sum(nu) = 1 and <nu, h> = 1, and ratio = |lambda_2| / rho is exact. Up to
    DENSE_WORDS rows one dense eigendecomposition gives all of it; above that,
    ARPACK finds the two leading eigenvalues of L and the leading one of L^T.
    """
    n = matrix.shape[0]
    if n <= DENSE_WORDS:
        lam, left, right = scipy.linalg.eig(matrix.toarray(), left=True, right=True)
        order = np.argsort(-np.abs(lam))
        h, nu = right[:, order[0]], left[:, order[0]]
    else:
        ones = np.ones(n)
        try:
            lam, right = eigs(matrix, k=2, which="LM", v0=ones, tol=0)
            _, left = eigs(matrix.T, k=1, which="LM", v0=ones, tol=0)
        except ArpackNoConvergence as exc:
            raise NoConvergence(f"ARPACK on {n} words: {exc}") from exc
        order = np.argsort(-np.abs(lam))
        h, nu = right[:, order[0]], left[:, 0]
    rho = float(lam[order[0]].real)
    nu = np.real(nu / nu.sum())
    h = np.real(h / (nu @ h))
    ratio = float(np.abs(lam[order[1]]) / rho) if n > 1 else 0.0
    return rho, h, nu, ratio


def rpf(sft: Sft, w: DepthKFunction, depth: int | None = None) -> RpfData:
    """Ruelle-Perron-Frobenius data of L_w at depth max(depth(w), depth, 1)."""
    rm = ruelle_matrix(sft, w, depth=depth)
    rho, h, nu, ratio = _perron(rm.matrix)
    if np.any(h <= 0):
        raise NonPositiveEigenfunction("eigenfunction has nonpositive entries")
    resid = np.max(np.abs(rm.apply(h) - rho * h)) / np.max(h)
    adjoint = {wd: float(nu[i]) for i, wd in enumerate(rm.words)}
    return RpfData(rho=rho, eigenfunction=rm.function_of(h), adjoint_measure=adjoint,
                   pressure=float(np.log(rho)), gap_estimate=ratio, residual=float(resid),
                   depth=rm.depth)


def pressure(sft: Sft, w: DepthKFunction, depth: int | None = None) -> float:
    return rpf(sft, w, depth=depth).pressure


def normalize_potential(sft: Sft, w: DepthKFunction, data: RpfData) -> DepthKFunction:
    """w' = w + log h - log h o sigma - log rho, so that L_{w'} 1 = 1.

    The depth grows by one because of the shifted eigenfunction term.
    """
    h = data.eigenfunction
    if any(v <= 0 for v in h.values.values()):
        raise NonPositiveEigenfunction("cannot normalize with nonpositive eigenfunction")
    log_h = h.map(lambda x: math.log(x.real if isinstance(x, complex) else x))
    return w + log_h - log_h.compose_shift() - data.pressure


@dataclass(frozen=True)
class MarkovMeasure:
    """Nonnegative weights on admissible depth-words summing to one."""

    sft: Sft
    depth: int
    weights: dict

    def integrate(self, f: DepthKFunction):
        if f.depth > self.depth:
            raise DepthMismatch(
                f"measure depth {self.depth} < function depth {f.depth}")
        return sum(m * f.values[w[: f.depth]] for w, m in self.weights.items())

    def invariance_defect(self) -> float:
        """Max over (depth-1)-words of |sum_a m(a u) - sum_b m(u b)|."""
        left: dict = {}
        right: dict = {}
        for w, m in self.weights.items():
            left[w[1:]] = left.get(w[1:], 0.0) + m
            right[w[:-1]] = right.get(w[:-1], 0.0) + m
        return max(abs(left.get(u, 0.0) - right.get(u, 0.0))
                   for u in set(left) | set(right))

    def to_json(self) -> str:
        sep = "" if self.sft.alphabet_size <= 10 else ","
        return json.dumps({sep.join(str(s) for s in w): v
                           for w, v in self.weights.items()}, sort_keys=True)


def equilibrium_measure(sft: Sft, w: DepthKFunction, data: RpfData | None = None,
                        depth: int | None = None) -> MarkovMeasure:
    """Equilibrium weights h * nu on depth-words, normalized to a probability."""
    if data is None:
        data = rpf(sft, w, depth=depth)
    h = data.eigenfunction
    raw = {wd: data.adjoint_measure[wd] * float(np.real(h.values[wd]))
           for wd in data.adjoint_measure}
    total = sum(raw.values())
    return MarkovMeasure(sft=sft, depth=data.depth,
                         weights={wd: v / total for wd, v in raw.items()})


def normalization_defect(sft: Sft, w: DepthKFunction) -> float:
    return ruelle_matrix(sft, w).normalization_defect()


def require_normalized(rm: RuelleMatrix, tol: float = 1e-8):
    defect = rm.normalization_defect()
    if defect > tol:
        raise NotNormalized(f"row-sum defect {defect:.3e} exceeds {tol:.3e}")


def stationary_vector(rm: RuelleMatrix) -> np.ndarray:
    """Probability vector with L^T m = m for a normalized transfer matrix."""
    return _perron(rm.matrix)[2]
