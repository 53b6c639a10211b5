"""Independent references for the benchmark's checks.

Nothing here calls thermoflow. The transfer matrices are rebuilt from the
transition table and the potential's value table; spectra come from numpy
(dense) or ARPACK (sparse); correlation sums come from Neumann series run to
rounding level instead of a gap-based truncation; rank decisions are made
modulo a large prime.
"""
from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigs

DENSE_LIMIT = 400
PRIME = 2 ** 61 - 1


# --------------------------------------------------------------------------
# shifts of finite type
# --------------------------------------------------------------------------

def words(transition, k: int) -> list:
    """Admissible k-words in lexicographic order."""
    n = len(transition)
    out = [(a,) for a in range(n)]
    for _ in range(k - 1):
        out = [w + (b,) for w in out for b in range(n) if transition[w[-1]][b]]
    return out


def word_count(transition, k: int) -> int:
    a = np.array(transition, dtype=object)
    return int(np.linalg.matrix_power(a, k - 1).sum()) if k > 1 else len(transition)


def primitive_orbit_count(transition, max_period: int) -> int:
    """Number of primitive periodic orbits with period <= max_period.

    Moebius inversion of tr(A^p), the number of fixed points of sigma^p.
    """
    a = np.array(transition, dtype=object)
    traces = {p: int(np.trace(np.linalg.matrix_power(a, p))) for p in range(1, max_period + 1)}
    total = 0
    for p in range(1, max_period + 1):
        acc = sum(_mobius(p // d) * traces[d] for d in range(1, p + 1) if p % d == 0)
        total += acc // p
    return total


def _mobius(n: int) -> int:
    out, m, f = 1, n, 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            out = -out
        f += 1
    return -out if m > 1 else out


def topological_ratio(transition) -> float:
    """|lambda_2| / lambda_1 of the 0/1 transition matrix."""
    lam = sorted(np.abs(np.linalg.eigvals(np.array(transition, dtype=float))), reverse=True)
    return float(lam[1] / lam[0]) if len(lam) > 1 else 0.0


# --------------------------------------------------------------------------
# transfer operators
# --------------------------------------------------------------------------

class Transfer:
    """Ruelle matrix of a potential on depth-k words, with its RPF data.

    Entry (u, v) is e^{w(v)} when v = (a,) + u[:k-1] is admissible, the same
    operator the library builds, assembled independently here.
    """

    def __init__(self, transition, values: dict, depth: int):
        wd = len(next(iter(values)))
        if depth < wd:
            raise ValueError("depth below the potential's depth")
        self.transition = transition
        self.depth = depth
        self.words = words(transition, depth)
        self.index = {u: i for i, u in enumerate(self.words)}
        rows, cols, vals = [], [], []
        for i, u in enumerate(self.words):
            for a in range(len(transition)):
                if not transition[a][u[0]]:
                    continue
                v = (a,) + u[: depth - 1]
                j = self.index.get(v)
                if j is not None:
                    rows.append(i)
                    cols.append(j)
                    vals.append(math.exp(float(np.real(values[v[:wd]]))))
        n = len(self.words)
        self.matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        self._rpf = None

    @property
    def n(self) -> int:
        return len(self.words)

    def vector(self, values: dict) -> np.ndarray:
        d = len(next(iter(values)))
        return np.array([float(np.real(values[w[:d]])) for w in self.words])

    def rpf(self):
        """(rho, h, nu) with <nu, h> = 1 and sum(nu) = 1."""
        if self._rpf is None:
            if self.n <= DENSE_LIMIT:
                dense = self.matrix.toarray()
                rho, h = _perron(dense)
                _, nu = _perron(dense.T)
            else:
                rho, h = _perron_sparse(self.matrix)
                _, nu = _perron_sparse(self.matrix.T.tocsr())
            nu = nu / nu.sum()
            h = h / (nu @ h)
            self._rpf = (rho, h, nu)
        return self._rpf

    def pressure(self) -> float:
        return math.log(self.rpf()[0])

    def ratio(self) -> float:
        """|lambda_2| / rho, the exact spectral gap ratio (dense sizes only)."""
        lam = sorted(np.abs(np.linalg.eigvals(self.matrix.toarray())), reverse=True)
        return float(lam[1] / lam[0]) if len(lam) > 1 else 0.0

    def normalized(self) -> "Normalized":
        rho, h, nu = self.rpf()
        return Normalized(self, rho, h, nu)


def _perron(mat: np.ndarray):
    lam, vec = np.linalg.eig(mat)
    i = int(np.argmax(lam.real))
    v = np.real(vec[:, i])
    v = v / v.sum()
    return float(lam[i].real), v


def _perron_sparse(mat):
    lam, vec = eigs(mat, k=1, which="LM", v0=np.ones(mat.shape[0]), tol=0.0)
    v = np.real(vec[:, 0])
    v = v / v.sum()
    return float(lam[0].real), v


class Normalized:
    """P = D_h^-1 L D_h / rho with stationary vector m = nu * h."""

    def __init__(self, tr: Transfer, rho, h, nu):
        self.tr = tr
        self.P = (sp.diags(1.0 / h) @ tr.matrix @ sp.diags(h) / rho).tocsr()
        m = nu * h
        self.m = m / m.sum()

    def mean(self, x: np.ndarray) -> float:
        return float(self.m @ x)

    def center(self, x: np.ndarray) -> np.ndarray:
        return x - self.mean(x)

    def neumann(self, x: np.ndarray, start: int) -> np.ndarray:
        """sum_{j >= start} P^j x for mean-zero x, run until terms reach rounding."""
        u = self.center(x)
        total = np.zeros_like(u)
        for j in range(100_000):
            if j >= start:
                total += u
            size = np.max(np.abs(u))
            if j >= start and size <= 1e-18 * (1.0 + np.max(np.abs(total))):
                return total
            u = self.center(self.P @ u)
        raise ArithmeticError("Neumann series did not converge")

    def variance(self, g: np.ndarray) -> float:
        g = self.center(g)
        return self.mean(g * g) + 2.0 * self.mean(g * self.neumann(g, 1))

    def covariance(self, g1: np.ndarray, g2: np.ndarray) -> float:
        g1, g2 = self.center(g1), self.center(g2)
        return (self.mean(g1 * g2) + self.mean(g2 * self.neumann(g1, 1))
                + self.mean(g1 * self.neumann(g2, 1)))

    def triple(self, g1: np.ndarray, g2: np.ndarray, g3: np.ndarray) -> float:
        """sum over all integer (a, b) of m(g1 * g2 o sigma^a * g3 o sigma^b).

        The three positions are ordered with ties broken by factor index; for
        the order (o0, o1, o2) with gaps p, c the term is
        m(P^c(P^p(g_o0) g_o1) g_o2), and each gap starts at 1 exactly when
        its tie would break the other way.
        """
        gs = [self.center(g) for g in (g1, g2, g3)]
        total = 0.0
        for o0, o1, o2 in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            inner = self.neumann(gs[o0], 0 if o0 < o1 else 1) * gs[o1]
            total += self.mean(self.neumann(inner, 0 if o1 < o2 else 1) * gs[o2])
        return total


# --------------------------------------------------------------------------
# exact relation systems
# --------------------------------------------------------------------------

def parse_unknown(key: str) -> tuple:
    i = len(key.rstrip("0123456789"))
    return key[:i], int(key[i:])


def rref_mod_p(rows: list, ncols: int):
    """Reduced row echelon form of integer rows modulo PRIME: (rows, pivots)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = pow(mat[r][c], PRIME - 2, PRIME)
        mat[r] = [x * inv % PRIME for x in mat[r]]
        pivot_row = mat[r]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                mat[i] = [(a - f * b) % PRIME for a, b in zip(mat[i], pivot_row)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


class ModularKernel:
    """Kernel of a relation system over GF(PRIME).

    rank_p <= rank_Q for every prime, and equality holds for all but finitely
    many primes, so this is an independent reading of the exact kernel.
    """

    def __init__(self, rows: list, unknowns: list):
        self.unknowns = unknowns
        col = {u: i for i, u in enumerate(unknowns)}
        ints = []
        for row in rows:
            vec = [0] * len(unknowns)
            for u, c in row.items():
                c = Fraction(c)
                vec[col[u]] = c.numerator * pow(c.denominator, PRIME - 2, PRIME) % PRIME
            ints.append(vec)
        red, pivots = rref_mod_p(ints, len(unknowns))
        pivot_set = set(pivots)
        self.basis = []
        for fc in range(len(unknowns)):
            if fc in pivot_set:
                continue
            v = [0] * len(unknowns)
            v[fc] = 1
            for i, pc in enumerate(pivots):
                v[pc] = -red[i][fc] % PRIME
            self.basis.append(v)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def free(self) -> tuple:
        return tuple(sorted(u for i, u in enumerate(self.unknowns)
                            if any(v[i] for v in self.basis)))

    def verdict(self, N: int, margin: int) -> str:
        hit = any(u[1] <= N - margin for u in self.free())
        return "undetermined" if hit else "forced-zero"

    def interior_rank(self, N: int, margin: int) -> int:
        """Dimension of the kernel projected onto indices <= N - margin."""
        keep = [i for i, u in enumerate(self.unknowns) if u[1] <= N - margin]
        _, pivots = rref_mod_p([[v[i] for i in keep] for v in self.basis], len(keep))
        return len(pivots)


def relation_rows(system_json: dict) -> list:
    return [{parse_unknown(k): Fraction(v) for k, v in row["coeffs"].items()}
            for row in system_json["rows"]]


def annihilates(rows: list, vector: dict) -> bool:
    return all(sum(c * vector.get(u, 0) for u, c in row.items()) == 0 for row in rows)


# --------------------------------------------------------------------------
# rational series and misc
# --------------------------------------------------------------------------

def series_mul(a: list, b: list, order: int) -> list:
    out = [Fraction(0)] * order
    for i, x in enumerate(a[:order]):
        if x:
            for j, y in enumerate(b[: order - i]):
                out[i + j] += x * y
    return out


def tanh_addition_defect(s_m: list, s_prev: list, order: int) -> list:
    """Coefficients of S_m (1 + S_{m-1} T) - (S_{m-1} + T) below T^order.

    tanh(m u) = (tanh((m-1) u) + tanh u) / (1 + tanh((m-1) u) tanh u), so the
    defect of the true series vanishes identically.
    """
    t = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 2)
    one_plus = [Fraction(1)] + series_mul(s_prev, t, order)[1:]
    lhs = series_mul(s_m, one_plus, order)
    return [lhs[i] - s_prev[i] - t[i] for i in range(order)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
