import itertools

import numpy as np

from thermoflow.correlations import EquilibriumContext
from thermoflow.derivatives import PotentialFamily
from thermoflow.sft import random_function
from thermoflow.transfer import normalize_potential, pressure, rpf


def base_context(s, f0):
    data = rpf(s, f0)
    wn = normalize_potential(s, f0, data)
    return EquilibriumContext(s, wn, depth=max(f0.depth + 1, 3))


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
        out[:, j] = ctx.apply_L(out[:, j - 1])
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
