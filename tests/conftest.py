import cmath
import collections
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from thermoflow import correlations, holonomy, sft, transfer
from thermoflow.correlations import EquilibriumContext
from thermoflow.derivatives import PotentialFamily
from thermoflow.diskgeom import UnitTangent
from thermoflow.ratseries import LinForm
from thermoflow.sft import (admissible_words, full_shift, golden_mean_shift, new_sft,
                            random_function)
from thermoflow.transfer import normalize_potential, pressure, rpf


def base_context(s, f0):
    data = rpf(s, f0)
    wn = normalize_potential(s, f0, data)
    return EquilibriumContext(s, wn, depth=max(f0.depth + 1, 3))


@pytest.fixture
def solve_counts(monkeypatch):
    """Counts spectral solves (`transfer._perron`, also as imported by
    `correlations`), `EquilibriumContext` constructions, factorizations and
    `EquilibriumContext.sums` calls."""
    counts = collections.Counter()
    perron = transfer._perron
    init = EquilibriumContext.__init__
    factor = EquilibriumContext.__dict__["_factor"].func
    sums = EquilibriumContext.sums

    def counted_perron(matrix):
        counts["solves"] += 1
        return perron(matrix)

    def counted_init(self, *args, **kwargs):
        counts["contexts"] += 1
        init(self, *args, **kwargs)

    def counted_factor(self):
        counts["factors"] += 1
        return factor(self)

    def counted_sums(self, *args, **kwargs):
        counts["sums"] += 1
        return sums(self, *args, **kwargs)

    cached = functools.cached_property(counted_factor)
    cached.__set_name__(EquilibriumContext, "_factor")
    monkeypatch.setattr(transfer, "_perron", counted_perron)
    monkeypatch.setattr(correlations, "_perron", counted_perron)
    monkeypatch.setattr(EquilibriumContext, "__init__", counted_init)
    monkeypatch.setattr(EquilibriumContext, "_factor", cached)
    monkeypatch.setattr(EquilibriumContext, "sums", counted_sums)
    return counts


@pytest.fixture
def solve_sizes(monkeypatch):
    """Records the order of every Perron solve (`transfer._perron`, also as imported
    by `correlations`), context stationary solve, bordered sparse LU and context
    factor, keyed "perron", "stationary", "lu" and "factor"; a factor counts its
    word rows, without the constraint row of the bordered system."""
    sizes = collections.defaultdict(list)

    def spy(name, fn):
        def wrapped(matrix, *args):
            sizes[name].append(matrix.shape[0])
            return fn(matrix, *args)
        return wrapped

    perron = spy("perron", transfer._perron)
    factor = EquilibriumContext.__dict__["_factor"].func

    def sized_factor(self):
        out = factor(self)
        sizes["factor"].append(out[0].shape[0] - (not isinstance(out[0], np.ndarray)))
        return out

    cached = functools.cached_property(sized_factor)
    cached.__set_name__(EquilibriumContext, "_factor")
    monkeypatch.setattr(transfer, "_perron", perron)
    monkeypatch.setattr(correlations, "_perron", perron)
    monkeypatch.setattr(correlations, "_stationary",
                        spy("stationary", correlations._stationary))
    monkeypatch.setattr(correlations, "_bordered_lu", spy("lu", correlations._bordered_lu))
    monkeypatch.setattr(EquilibriumContext, "_factor", cached)
    return sizes


def random_family_1p(s, rng, depth=2, scale=0.3, mean_zero_d1=True,
                     pressure_zero=False):
    """Cubic-in-s potential family with exact partials at 0."""
    f0 = random_function(s, depth, rng, scale=scale)
    if pressure_zero:
        f0 = f0 - pressure(s, f0)
    ctx = base_context(s, f0)
    f1 = random_function(s, depth, rng, scale=scale)
    if mean_zero_d1:
        f1 = f1 - ctx.integrate(f1)
    f2 = random_function(s, depth, rng, scale=scale)
    f3 = random_function(s, depth, rng, scale=scale)
    return PotentialFamily.from_taylor(
        s, f0, {(0,): f1, (0, 0): f2, (0, 0, 0): f3}, nparams=1)


def random_family_3p(s, rng, depth=2, scale=0.25, mean_zero_d1=True,
                     pressure_zero=True):
    f0 = random_function(s, depth, rng, scale=scale)
    if pressure_zero:
        f0 = f0 - pressure(s, f0)
    ctx = base_context(s, f0)
    partials = {}
    for i in range(3):
        g = random_function(s, depth, rng, scale=scale)
        if mean_zero_d1:
            g = g - ctx.integrate(g)
        partials[(i,)] = g
    for i in range(3):
        for j in range(i, 3):
            partials[(i, j)] = random_function(s, depth, rng, scale=scale)
    for i in range(3):
        for j in range(i, 3):
            for k in range(j, 3):
                partials[(i, j, k)] = random_function(s, depth, rng, scale=scale)
    return PotentialFamily.from_taylor(s, f0, partials, nparams=3)


# Truncated-series oracle for the exact correlation sums: m(f * g o sigma^j)
# = m(L^j f * g) summed for |j| <= N, each with a geometric tail estimate.

def _powers(ctx, v, n):
    """Columns L^j v for j = 0..n."""
    out = np.empty((len(v), n + 1))
    out[:, 0] = v
    for j in range(1, n + 1):
        out[:, j] = ctx.rm.apply(out[:, j - 1])
    return out


def _tail(terms, gap, N):
    r = min(max(gap, 1e-6), 1.0 - 1e-9)
    return float(np.max(np.abs(terms[max(0, N - 4): N + 1])) * r / (1.0 - r) + 1e-300)


def series_variance(ctx, v, N):
    """(value, tail) of m(v^2) + 2 sum_{j=1..N} m(L^j v * v)."""
    fwd = ctx.m @ (_powers(ctx, v, N) * v[:, None])
    return fwd[0] + 2.0 * fwd[1:].sum(), 2.0 * _tail(fwd, ctx.gap, N)


def series_covariance(ctx, v1, v2, N):
    fwd = ctx.m @ (_powers(ctx, v1, N) * v2[:, None])
    bwd = ctx.m @ (_powers(ctx, v2, N) * v1[:, None])
    return (fwd[0] + fwd[1:].sum() + bwd[1:].sum(),
            _tail(fwd, ctx.gap, N) + _tail(bwd, ctx.gap, N))


def series_triple(ctx, vecs, N):
    """(value, tail) of the double sum over |a|, |b| <= N of m(h0 * h1 o s^a * h2 o s^b).

    Each shift triple is read in its ordering by (shift, index): the smallest
    factor is pushed p steps to the middle one and the product c more steps to
    the last, m(L^c(L^p(h_i) * h_j) * h_k).
    """
    grids = {}
    for perm in itertools.permutations(range(3)):
        h1, h2, h3 = (vecs[i] for i in perm)
        z = _powers(ctx, h1, 2 * N) * h2[:, None]
        grid = np.empty((2 * N + 1, 2 * N + 1))
        for c in range(2 * N + 1):
            if c:
                z = ctx.rm.matrix @ z
            grid[:, c] = ctx.m @ (z * h3[:, None])
        grids[perm] = grid
    total = ring = 0.0
    for a in range(-N, N + 1):
        for b in range(-N, N + 1):
            lo = min(0, a, b)
            shifts = (-lo, a - lo, b - lo)
            order = tuple(sorted(range(3), key=lambda i: (shifts[i], i)))
            p, q = shifts[order[1]], shifts[order[2]]
            t = grids[order][p, q - p]
            total += t
            if max(abs(a), abs(b)) == N:
                ring += abs(t)
    r = min(max(ctx.gap, 1e-6), 1.0 - 1e-9)
    return total, (ring + 1e-300) * r / (1.0 - r)


# Full-depth oracle for the correlation sums: the fundamental-matrix solve on all the
# words of the context's depth, with the bound the library stated when it solved there.

class FullDepthSums:
    """variance / covariance / triple of a context as (value, stated bound), solved at
    the context's own depth: m from `_perron` on the context's matrix, A = I - L + 1 m^T
    with one dense inverse up to `transfer.DENSE_WORDS` words, and above the bordered
    [[I - L, 1], [m^T, 0]] with a sparse LU whose top-left block norm is `onenormest`'s;
    each column's error, a 1-norm on the context's words, is paired with max |m w|."""

    def __init__(self, ctx):
        self.ctx, self.m = ctx, stationary_vector(ctx.rm)
        n, mat = len(self.m), ctx.rm.matrix
        if n <= transfer.DENSE_WORDS:
            self.a = np.asarray(np.eye(n) - mat) + self.m
            inv = np.linalg.inv(self.a)
            self.solve, self.inv_norm = inv.__matmul__, np.abs(inv).sum(axis=0).max()
        else:
            from scipy.sparse.linalg import LinearOperator, onenormest, splu
            self.a = sp.bmat([[sp.identity(n) - mat, np.ones((n, 1))],
                              [self.m[None, :], None]], format="csc")
            lu = splu(self.a)
            block = LinearOperator(
                (n, n), dtype=float, matvec=lambda y: lu.solve(np.append(y, 0.0))[:n],
                rmatvec=lambda y: lu.solve(np.append(y, 0.0), trans="T")[:n])
            self.solve, self.inv_norm = lu.solve, onenormest(block)

    def sums(self, vecs, lo=0, err_in=0.0):
        n, eps = len(self.m), np.finfo(float).eps
        b = vecs - self.m @ vecs
        rhs = np.vstack([b, np.zeros((self.a.shape[0] - n, b.shape[1]))])
        x = self.solve(rhs)
        gamma = (self.a.shape[0] + 1) * eps / (1.0 - (self.a.shape[0] + 1) * eps)
        resid = np.abs(rhs - self.a @ x) + gamma * (np.abs(rhs) + abs(self.a) @ np.abs(x))
        err = self.inv_norm * (err_in + resid[:n].sum(axis=0)) + n * resid[n:].sum(axis=0)
        return x[:n] - lo * b, err + lo * err_in

    def _bound(self, weights, err):
        return float(np.abs(self.m[:, None] * weights).max(axis=0) @ err)

    def variance(self, v):
        s1, err = self.sums(v[:, None], lo=1)
        return self.m @ (v * v) + 2.0 * self.m @ (v * s1[:, 0]), self._bound(v[:, None], 2 * err)

    def covariance(self, v1, v2):
        v2 = v2 - self.m @ v2
        s1, err = self.sums(np.column_stack([v1, v2]), lo=1)
        return (self.m @ (v1 * v2 + s1[:, 0] * v2 + s1[:, 1] * v1),
                self._bound(np.column_stack([v2, v1]), err))

    def triple(self, v1, v2, v3):
        h = np.column_stack([v1, v2, v3])
        i, j, k = np.array(list(itertools.permutations(range(3)))).T
        inner, err = self.sums(h[:, i], lo=i > j)
        outer, err = self.sums(inner * h[:, j], lo=j > k,
                               err_in=np.abs(h[:, j]).max(axis=0) * err)
        return self.m @ (outer * h[:, k]).sum(axis=1), self._bound(h[:, k], err)


# Complex-arithmetic oracle for `holonomy._propagator`: every RK4 step map and
# every product in complex d x d matrices, composed in blocks of 256 steps.

def complex_propagator(a, h, block=256):
    """Product of the RK4 step maps of V' = -A(t) V over a node stack of A."""
    steps = (a.shape[-3] - 1) // 2
    eye = np.eye(a.shape[-1])
    P = None
    for k0 in range(0, steps, block):
        blk = a[..., 2 * k0:2 * min(k0 + block, steps) + 1, :, :]
        a0, am, a1 = blk[..., 0:-1:2, :, :], blk[..., 1::2, :, :], blk[..., 2::2, :, :]
        s1 = -a0
        s2 = -am @ (eye + (h / 2) * s1)
        s3 = -am @ (eye + (h / 2) * s2)
        s4 = -a1 @ (eye + h * s3)
        R = eye + (h / 6) * (s1 + 2 * s2 + 2 * s3 + s4)
        while R.shape[-3] > 1:
            m = R.shape[-3] - R.shape[-3] % 2
            R = np.concatenate([R[..., 1:m:2, :, :] @ R[..., 0:m:2, :, :],
                                R[..., m:, :, :]], axis=-3)
        P = R[..., 0, :, :] if P is None else R[..., 0, :, :] @ P
    return P


# Fixed-step RK4 oracles for the step-doubling driver of `holonomy`: each takes
# exactly `steps` steps, on the nodes of `holonomy._nodes`.

def monodromy(A, T, steps=2048):
    """RK4 propagator of V' = -A(t) V over [0, T], in `steps` steps."""
    ts, h = holonomy._nodes(0.0, T, steps)
    return holonomy._propagator(holonomy._sampled(A, ts), h)


def fixed_step_fd(family, steps):
    """`holonomy.eigenvalue_derivative_fd`'s central difference at `steps` steps."""
    ts, h = holonomy._nodes(0.0, family.l, steps)
    return holonomy._fd_at(holonomy._sampled(family.dD, ts), h)


# Rows and classical relations of the vanishing recursions, in normalized form.

def rows_normalized(system):
    """The relation rows of a `RecursionSystem`, each normalized."""
    return [rel.form.normalized() for rel in system.relations]


def ray_kernel_description(case: str):
    """The explicit coupling-invariant ray of the letter systems (GH / IJ)."""
    if case == "GH":
        return ("H", lambda n: (n + 1) * (n + 2) // 2)
    if case == "IJ":
        return ("J", lambda n: n + 1)
    raise ValueError("ray is documented for GH and IJ only")


def named_relation(case: str, name: str, n: int | None = None,
                   m: int | None = None) -> LinForm:
    """Classical named relations of each system in normalized form, for
    testing that they occur verbatim among the generated rows."""
    if case == "AB" and name == "first_comparison":
        return LinForm({("A", 0): 1, ("B", 0): 2}).normalized()
    if case == "AB" and name == "half_time_recursion":
        form = {("B", n): 2 ** (n + 4)}
        for k in range(n + 1):
            form[("A", k)] = (n - k + 1) * (n - k + 2) * 2 ** k
        return LinForm(form).normalized()
    if case == "CD" and name == "c0":
        return LinForm({("C", 0): 1}).normalized()
    if case == "CD" and name == "t2":
        return LinForm({("C", 1): 2, ("C", 0): -8, ("D", 0): -1}).normalized()
    if case == "EF" and name == "e0":
        return LinForm({("E", 0): 1}).normalized()
    if case == "EF" and name == "e1":
        return LinForm({("E", 1): 1, ("F", 0): 2}).normalized()
    if case == "GH" and name == "g0":
        return LinForm({("G", 0): 1}).normalized()
    if case == "IJ" and name == "t4":
        return LinForm({("I", 0): m ** 4 - (m - 1) ** 4, ("J", 1): 2 * m - 1,
                        ("J", 0): -(4 * m - 2)}).normalized()
    raise ValueError(f"unknown named relation {case}/{name}")


def random_unit_tangent(rng, radius: float = 0.8) -> UnitTangent:
    """A unit tangent vector with base point uniform in the disk of `radius`."""
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0, 2 * math.pi)
    phi = rng.uniform(0, 2 * math.pi)
    return UnitTangent(r * cmath.exp(1j * theta), cmath.exp(1j * phi))


# Exact oracle for `recursions.kernel_basis`: the kernel read off the reduced
# row echelon form computed in Fraction arithmetic.

def fraction_kernel_basis(rows, unknowns):
    """Kernel basis over Q: one vector per free column of the RREF, 1 there."""
    ncols = len(unknowns)
    mat = [[Fraction(row.get(u, 0)) for u in unknowns] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(v)
    return basis


def coo_ruelle_matrix(s, w, depth=None):
    """Oracle for `transfer.ruelle_matrix`: the CSR matrix built edge by edge from
    COO triplets, with one exp per edge and no cached words or pattern. The edge
    from u to (a,) + u[:k-1] carries e^{w(((a,) + u)[:depth(w)])}, so k may go
    down to depth(w) - 1."""
    k = max(w.depth if depth is None else depth, w.depth - 1, 1)
    words = tuple(admissible_words(s, k))
    index = {u: i for i, u in enumerate(words)}
    rows, cols, vals = [], [], []
    for i, u in enumerate(words):
        prefix = u[: k - 1]
        for a in range(s.alphabet_size):
            if not s.transition[a][u[0]]:
                continue
            j = index.get((a,) + prefix)
            if j is None:
                continue
            rows.append(i)
            cols.append(j)
            vals.append(math.exp(float(np.real(w.values[((a,) + u)[: w.depth]]))))
    return words, sp.csr_matrix((vals, (rows, cols)), shape=(len(words), len(words)))


def dense(matrix):
    """A Ruelle matrix as an ndarray, whichever form `ruelle_matrix` built: dense up
    to `transfer.DENSE_WORDS` words, CSR above."""
    return matrix if isinstance(matrix, np.ndarray) else matrix.toarray()


def stationary_vector(rm):
    """Oracle for the stationary vector of a normalized transfer matrix: one
    `_perron` on the matrix itself, at whatever depth it has."""
    return transfer._perron(rm.matrix)[2]


# Loop oracles for `diskseries.DifferentialExpansion.eval_at_radius` (one exp per
# coefficient, one angle per call) and `diskseries.quadrature_triple` (one angle per
# step), and for `holonomy.FourierSampler` on arrays (one exp per mode).

def loop_eval_at_radius(e, R, theta):
    """sum_n c_n R^n (1 - R^2)^d e^{i (n + d) theta} term by term at one angle."""
    out = 0.0 + 0.0j
    for n, c in enumerate(e.coeffs):
        out += c * R ** n * np.exp(1j * (n + e.degree) * theta)
    return out * (1.0 - R * R) ** e.degree


def loop_quadrature_triple(e1, e2, e3, T, S, n_theta):
    """Trapezoidal theta-average of the triple product, one angle at a time."""
    total = 0.0
    for th in np.linspace(0.0, 2 * math.pi, n_theta, endpoint=False):
        total += (np.real(loop_eval_at_radius(e1, 0.0, th))
                  * np.real(loop_eval_at_radius(e2, T, th))
                  * np.real(loop_eval_at_radius(e3, S, th)))
    return float(total / n_theta)


def per_mode_sampler(sampler, t):
    """sum_k c_k e^{i w_k t} with one exp per mode, on an array of times."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t, dtype=complex)
    for k, c in sorted(sampler.modes.items()):
        out += c * np.exp(1j * (2 * math.pi * k / sampler.l) * t)
    return out


# Dict oracle for `sft.DepthKFunction`: the per-word formulas of its former dict form,
# on {word: value} tables keyed by the admissible words.

def dict_promote(s, depth, vals, k):
    return {w: vals[w[:depth]] for w in admissible_words(s, k)}


def dict_compose_shift(s, depth, vals):
    return {w: vals[w[1:]] for w in admissible_words(s, depth + 1)}


def dict_binary(s, depth, vals, other, op):
    """(depth, values) of op(f, other), other a (depth, values) pair or a scalar."""
    if isinstance(other, tuple):
        k = max(depth, other[0])
        a, b = dict_promote(s, depth, vals, k), dict_promote(s, other[0], other[1], k)
        return k, {w: op(a[w], b[w]) for w in a}
    return depth, {w: op(v, other) for w, v in vals.items()}


def dict_sup_norm(vals):
    return max(abs(v) for v in vals.values())


def dict_is_real(vals, tol):
    others = [v for v in vals.values()
              if not isinstance(v, (float, int, np.floating, np.integer))]
    if len(others) < len(vals) and not 0.0 <= tol:
        return False
    return all(abs(complex(v).imag) <= tol for v in others)


def mixing_shift(n, seed):
    """A seeded mixing n-symbol shift that is not the full shift."""
    rng = np.random.default_rng(seed)
    while True:
        t = rng.integers(0, 2, (n, n))
        if not t.all() and t.any(axis=0).all() and t.any(axis=1).all():
            s = new_sft(t.tolist())
            if s.is_mixing:
                return s


# The shifts the array-form tests run on, by name.
SHIFTS = {"golden": golden_mean_shift, "full2": lambda: full_shift(2),
          "full3": lambda: full_shift(3), "full4": lambda: full_shift(4),
          "mixing3": lambda: mixing_shift(3, 30)}


# Loop oracle for `correlations.birkhoff_moment`: the dynamic programme one window,
# one transition and one subset at a time.

def loop_birkhoff_moment(ctx, gs, n):
    k = len(gs)
    words, index = ctx.rm.words, ctx.rm.index
    vecs = [ctx.vector(g) for g in gs]
    m_deep = transfer._lift(ctx.rm, ctx.m, ctx.depth + 1)
    m_here = ctx.m
    trans = [dict() for _ in words]
    for j, wd in enumerate(sft._word_table(ctx.sft, ctx.depth + 1).words):
        iu, iv = index[wd[:-1]], index[wd[1:]]
        if m_here[iu] > 0:
            trans[iu][iv] = trans[iu].get(iv, 0.0) + m_deep[j] / m_here[iu]
    subsets = correlations._subsets(range(k))
    phi = {s: np.zeros(len(words)) for s in subsets}
    phi[frozenset()] = m_here.copy()
    for _ in range(n):
        new = {s: np.zeros(len(words)) for s in subsets}
        for iu in range(len(words)):
            for iv, p in trans[iu].items():
                for s in subsets:
                    acc = 0.0
                    for sub in correlations._subsets(s):
                        coeff = 1.0
                        for i in s - sub:
                            coeff *= vecs[i][iu]
                        acc += coeff * phi[sub][iu]
                    new[s][iv] += p * acc
        phi = new
    return float(phi[frozenset(range(k))].sum())
