"""Parallel transport for the rank-3 flat connection along closed geodesics.

At the hyperbolic base point the connection along a unit-speed closed geodesic
reduces to the constant matrix M below; its eigenframe (growth rates e^l, 1,
e^{-l}) carries all the holonomy data. Cubic/quadratic deformation directions
drive first variations (trace formula) and second variations (inhomogeneous
ODE systems with explicit kernel solutions).
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.linalg import expm

from .errors import DegenerateSpectrum, StepTooLarge, UnsupportedCase

SQ2 = math.sqrt(2.0)

# Connection matrix along the geodesic in the holomorphic frame.
M_CONN = np.array([[0.0, 0.5, 0.0],
                   [1.0, 0.0, 0.5],
                   [0.0, 1.0, 0.0]])

# Hermitian pairing of the frame on the geodesic (conjugate-linear first slot).
H_METRIC = np.diag([2.0, 1.0, 0.5])

PI0 = 0.5 * np.array([[0.5, -0.5, 0.25],
                      [-1.0, 1.0, -0.5],
                      [1.0, -1.0, 0.5]])


def hermitian(u: np.ndarray, v: np.ndarray) -> complex:
    return complex(np.conj(u) @ (H_METRIC @ v))


class BaseFrame:
    """Eigenvector paths, change of basis, and spectral projection at the base."""

    matrix = M_CONN
    pi0 = PI0

    @staticmethod
    def eigenvalues(l: float) -> tuple:
        return (math.exp(l), 1.0, math.exp(-l))

    @staticmethod
    def e(i: int, t: float) -> np.ndarray:
        if i == 1:
            return (SQ2 / 2) * math.exp(t) * np.array([0.5, -1.0, 1.0])
        if i == 2:
            return 0.5 * np.array([-1.0, 0.0, 2.0])
        if i == 3:
            return (SQ2 / 2) * math.exp(-t) * np.array([0.5, 1.0, 1.0])
        raise ValueError("i must be 1, 2 or 3")

    @classmethod
    def e_matrix(cls, t: float) -> np.ndarray:
        """Rows are the eigenvector paths e_1(t), e_2(t), e_3(t)."""
        return np.vstack([cls.e(1, t), cls.e(2, t), cls.e(3, t)])

    @staticmethod
    def a_matrix(t: float) -> np.ndarray:
        """Closed-form inverse of the eigenvector rows: sum_j a_ij e_jk = delta_ik."""
        emt, ept = math.exp(-t), math.exp(t)
        return np.array([
            [(SQ2 / 2) * emt, -1.0, (SQ2 / 2) * ept],
            [-(SQ2 / 2) * emt, 0.0, (SQ2 / 2) * ept],
            [(SQ2 / 4) * emt, 0.5, (SQ2 / 4) * ept],
        ])

    @classmethod
    def pi(cls, t: float) -> np.ndarray:
        """Projection onto e_1(t) along span(e_2, e_3)(t); constant in t."""
        a = cls.a_matrix(t)
        e1 = cls.e(1, t)
        return np.outer(e1, a[:, 0])


class FourierSampler:
    """Complex finite Fourier series with period l: sum_k c_k e^{2 pi i k t / l}."""

    def __init__(self, l: float, modes: dict):
        self.l = float(l)
        self.modes = {int(k): complex(c) for k, c in modes.items()}
        self._freqs = tuple((2j * math.pi * k / self.l, complex(c))
                            for k, c in sorted(self.modes.items()))

    def __call__(self, t):
        if isinstance(t, (int, float)):
            out = 0j
            for w, c in self._freqs:
                out += c * cmath.exp(w * t)
            return out
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t, dtype=complex)
        for k, c in self.modes.items():
            out = out + c * np.exp(2j * math.pi * k * t / self.l)
        return out if out.shape else complex(out)

    def periodicity_defect(self, n: int = 16) -> float:
        ts = np.linspace(0.0, self.l, n, endpoint=False)
        return float(np.max(np.abs(self(ts + self.l) - self(ts))))

    @staticmethod
    def zero(l: float) -> "FourierSampler":
        return FourierSampler(l, {})

    @staticmethod
    def random(l: float, rng, max_mode: int = 3, scale: float = 0.5) -> "FourierSampler":
        modes = {}
        for k in range(-max_mode, max_mode + 1):
            modes[k] = complex(rng.normal(0, scale), rng.normal(0, scale))
        return FourierSampler(l, modes)

    def to_json_modes(self):
        return [[k, c.real, c.imag] for k, c in sorted(self.modes.items())]

    @staticmethod
    def from_json_modes(l: float, modes) -> "FourierSampler":
        return FourierSampler(l, {int(k): complex(re, im) for k, re, im in modes})


@dataclass
class OrbitData:
    """Closed-orbit samplers: cubic (alpha, beta) and quadratic (i, j) values."""

    l: float
    q_alpha: FourierSampler | None = None
    q_beta: FourierSampler | None = None
    q_i: FourierSampler | None = None
    q_j: FourierSampler | None = None

    def sampler(self, name: str) -> FourierSampler:
        s = getattr(self, name)
        if s is None:
            raise ValueError(f"orbit has no sampler {name}")
        return s

    def to_json(self) -> str:
        import json
        data = {"l": self.l, "samplers": {}}
        for name in ("q_alpha", "q_beta", "q_i", "q_j"):
            s = getattr(self, name)
            if s is not None:
                data["samplers"][name] = s.to_json_modes()
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "OrbitData":
        import json
        data = json.loads(text)
        l = float(data["l"])
        samplers = {name: FourierSampler.from_json_modes(l, modes)
                    for name, modes in data["samplers"].items()}
        return OrbitData(l=l, **samplers)


# --------------------------------------------------------------------------
# parallel transport
# --------------------------------------------------------------------------

_BLOCK = 256  # RK4 steps composed per batch, so the step maps do not grow with steps


def _ordered_product(R: np.ndarray) -> np.ndarray:
    """R[..., n-1, :, :] @ ... @ R[..., 0, :, :] by pairwise reduction."""
    while R.shape[-3] > 1:
        m = R.shape[-3] - R.shape[-3] % 2
        R = np.concatenate([R[..., 1:m:2, :, :] @ R[..., 0:m:2, :, :], R[..., m:, :, :]],
                           axis=-3)
    return R[..., 0, :, :]


def _nodes(t0: float, t1: float, steps: int):
    """The 2 steps + 1 RK4 node times t0 + j h / 2 and the step h = (t1 - t0) / steps."""
    h = (t1 - t0) / steps
    return t0 + (h / 2) * np.arange(2 * steps + 1), h


def _propagator(a: np.ndarray, h: float) -> np.ndarray:
    """RK4 propagator of V' = -A(t) V, the product of the step maps of size h.

    a stacks A at the 2 steps + 1 nodes of _nodes on axis -3 (leading axes batch
    systems). A forcing f rides in the generator [[A, -f], [0, 0]], whose RK4 step
    is the affine step of y' = -A y + f.
    """
    steps = (a.shape[-3] - 1) // 2
    eye = np.eye(a.shape[-1])
    P = None
    for k0 in range(0, steps, _BLOCK):
        blk = a[..., 2 * k0:2 * min(k0 + _BLOCK, steps) + 1, :, :]
        a0, am, a1 = blk[..., 0:-1:2, :, :], blk[..., 1::2, :, :], blk[..., 2::2, :, :]
        s1 = -a0
        s2 = -am @ (eye + (h / 2) * s1)
        s3 = -am @ (eye + (h / 2) * s2)
        s4 = -a1 @ (eye + h * s3)
        block = _ordered_product(eye + (h / 6) * (s1 + 2 * s2 + 2 * s3 + s4))
        P = block if P is None else block @ P
    return P


def _sampled(A: Callable, ts: np.ndarray) -> np.ndarray:
    """A scalar matrix-valued callable stacked over an array of times, each called once."""
    times = ts.tolist()
    first = np.asarray(A(times[0]), dtype=complex)
    return np.fromiter(itertools.chain([first], map(A, times[1:])),
                       dtype=np.dtype((complex, first.shape)), count=len(times))


def parallel_transport(A: Callable, V0: np.ndarray, T: float,
                       steps: int | None = None, richardson_tol: float | None = 1e-8):
    """Solve V' = -A(t) V by RK4; one step-halving Richardson check by default.

    The check samples A once at the fine nodes; every other one is a coarse node.
    """
    steps = steps or 2048
    if richardson_tol is None:
        ts, h = _nodes(0.0, T, steps)
        return _propagator(_sampled(A, ts), h) @ V0
    ts, h = _nodes(0.0, T, 2 * steps)
    a = _sampled(A, ts)
    coarse = _propagator(a[0::2], 2 * h) @ V0
    fine = _propagator(a, h) @ V0
    est = float(np.max(np.abs(fine - coarse))) / 15.0
    if est > richardson_tol:
        raise StepTooLarge(est, richardson_tol)
    return fine


# --------------------------------------------------------------------------
# connection families and the trace formula for eigenvalue derivatives
# --------------------------------------------------------------------------

def cubic_direction(q: FourierSampler) -> Callable:
    """dD/ds for a cubic deformation with sampled values q(t)."""

    def dD(t):
        qt = complex(q(t))
        return np.array([[0.0, 0.0, qt],
                         [0.0, 0.0, 0.0],
                         [4 * np.conj(qt), 0.0, 0.0]])

    return dD


def quadratic_direction(q: FourierSampler) -> Callable:
    """dD/ds for a quadratic deformation with sampled values q(t)."""

    def dD(t):
        qt = complex(q(t))
        return np.array([[0.0, qt, 0.0],
                         [2 * np.conj(qt), 0.0, qt],
                         [0.0, 2 * np.conj(qt), 0.0]])

    return dD


@dataclass
class ConnectionFamily:
    """s-family of connection coefficients along an orbit, D(s, t)."""

    l: float
    dD: Callable  # t -> 3x3 derivative at s = 0

    def gauge_shifted(self, gdot: Callable, gdot_prime: Callable) -> "ConnectionFamily":
        """dD -> dD + d(gdot)/dt + [A0, gdot] for a periodic section gdot."""

        def shifted(t):
            g = gdot(t)
            return self.dD(t) + gdot_prime(t) + M_CONN @ g - g @ M_CONN

        return ConnectionFamily(l=self.l, dD=shifted)


def _check_base_spectrum(l: float):
    lam = BaseFrame.eigenvalues(l)
    if (lam[0] - lam[1]) / lam[0] < 1e-9:
        raise DegenerateSpectrum(f"top eigenvalue moduli too close at l = {l}")


def trace_derivative(family: ConnectionFamily, T: float | None = None,
                     n_panels: int = 2048) -> complex:
    """-int_0^l Tr(dD(t) pi(t)) dt by composite Simpson.

    Equals d/ds log(top holonomy eigenvalue) at s = 0 and is invariant under
    infinitesimal gauge transformations of the family.
    """
    T = T if T is not None else family.l
    _check_base_spectrum(T)
    if n_panels % 2:
        n_panels += 1
    ts = np.linspace(0.0, T, n_panels + 1)
    vals = np.einsum("nij,ji->n", _sampled(family.dD, ts), BaseFrame.pi0)
    integral = integrate.simpson(vals, x=ts)
    return -complex(integral)


def monodromy(A: Callable, T: float, steps: int = 2048) -> np.ndarray:
    ts, h = _nodes(0.0, T, steps)
    return _propagator(_sampled(A, ts), h)


def top_eigenvalue(mat: np.ndarray) -> complex:
    lam = np.linalg.eigvals(mat)
    order = np.argsort(-np.abs(lam))
    lam = lam[order]
    if (abs(lam[0]) - abs(lam[1])) / abs(lam[0]) < 1e-9:
        raise DegenerateSpectrum("top two eigenvalue moduli coincide")
    return complex(lam[0])


def eigenvalue_derivative_fd(family: ConnectionFamily, T: float | None = None,
                             h_s: float = 1e-4, steps: int = 2048) -> complex:
    """Central finite difference of s -> log(top eigenvalue of the monodromy).

    dD is sampled once; the s = +h_s and s = -h_s monodromies share the samples.
    """
    T = T if T is not None else family.l
    ts, h = _nodes(0.0, T, steps)
    a = np.array([h_s, -h_s])[:, None, None, None] * _sampled(family.dD, ts)
    a += M_CONN
    mono_p, mono_m = _propagator(a, h)
    lam_p, lam_m = top_eigenvalue(mono_p), top_eigenvalue(mono_m)
    return (cmath.log(lam_p) - cmath.log(lam_m)) / (2 * h_s)


# --------------------------------------------------------------------------
# closed-form variation solutions
# --------------------------------------------------------------------------

def _moment(q: FourierSampler, rho: float, a: float, b, anchor=0.0):
    """int_a^b e^{rho (s - anchor)} q(s) ds, exactly, for an upper limit or an array.

    Mode k gives e^{rho (a - anchor)} c_k e^{i w_k a} (e^{z_k (b - a)} - 1) / z_k with
    z_k = rho + i w_k, or c_0 (b - a) when z_k = 0. Each mode is integrated from the
    end of [a, b] where e^{rho s} is largest, so no intermediate exceeds the kernel
    there. rho is real, so Re and Im of the result are the moments of Re q and Im q.
    """
    b = np.asarray(b, dtype=float)
    w = np.array([2 * math.pi * k / q.l for k in q.modes]).reshape((-1,) + (1,) * b.ndim)
    c = np.array(list(q.modes.values()), dtype=complex).reshape(w.shape)
    z = rho + 1j * w
    start, d, sign = (b, a - b, -1.0) if rho >= 0 else (a, b - a, 1.0)
    frac = np.where(z == 0, d, np.expm1(z * d) / np.where(z == 0, 1.0, z))
    modes = np.sum(c * np.exp(1j * w * start) * frac, axis=0)
    return sign * np.exp(rho * (start - anchor)) * modes


class _KernelExpr:
    """Value sum_j c_j e^{mu_j t} I_j with I_j local (int_0^t) or global (int_0^l)
    integrals of e^{a s} g(s), g = Re q or Im q; every I_j is an exact moment of q,
    so values and t-derivatives come from one vectorized evaluation.
    """

    def __init__(self, q: FourierSampler, l: float, loc, glob):
        self.q = q
        self.loc = loc  # (coef, mu, a, part) with part np.real or np.imag
        self.glob = [(coef * float(part(_moment(q, a, 0.0, l))), mu)
                     for coef, mu, a, part in glob]

    def _evaluate(self, t):
        """(values, t-derivatives) at a time or an array of times; g(t) is sampled
        the way the forcing samples it, so ode_residual compares like with like."""
        qt = self.q(t)
        ts = np.asarray(t, dtype=float)
        val = np.zeros(ts.shape, dtype=complex)
        der = np.zeros(ts.shape, dtype=complex)
        for coef, mu, a, part in self.loc:
            # e^{mu t} I = e^{(mu + a) t} J with J = int_0^t e^{a (s - t)} g, J' = g - a J
            J = part(_moment(self.q, a, 0.0, ts, ts))
            scale = coef * np.exp((mu + a) * ts)
            val += scale * J
            der += scale * (mu * J + part(qt))
        for coef, mu in self.glob:
            term = coef * np.exp(mu * ts)
            val += term
            der += mu * term
        return val, der

    def value(self, t: float) -> complex:
        return self.values_on_grid([t])[0]

    def values_on_grid(self, ts) -> np.ndarray:
        return self._evaluate(ts)[0]

    def derivative(self, t: float) -> complex:
        return complex(self._evaluate(t)[1])


@dataclass
class VariationSolution:
    """One eigenvector variation path with its ODE/boundary metadata."""

    l: float
    index: int
    direction: str
    components: tuple
    forcing: Callable
    boundary_kappa: complex
    eigenvalue: float

    def value(self, t: float) -> np.ndarray:
        return np.array([c.value(t) for c in self.components])

    def values_on_grid(self, ts) -> np.ndarray:
        return np.column_stack([c.values_on_grid(ts) for c in self.components])

    def derivative(self, t: float) -> np.ndarray:
        return np.array([c.derivative(t) for c in self.components])

    def ode_residual(self, t: float) -> float:
        res = self.derivative(t) + M_CONN @ self.value(t) - self.forcing(t)
        return float(np.max(np.abs(res)))

    def boundary_residual(self) -> float:
        y0 = self.value(0.0)
        yl = self.value(self.l)
        target = self.boundary_kappa * BaseFrame.e(self.index, 0.0) + self.eigenvalue * y0
        bnd = float(np.max(np.abs(yl - target)))
        orth = abs(hermitian(y0, BaseFrame.e(self.index, 0.0)))
        return max(bnd, orth)


# (i, direction) -> (sampler, rate r, components of e^{-r t} f(t) in q = q(t),
# kappa / (e^{r l} K0)); the eigenvalue is e^{r l} and K0 = int_0^l Re q = l Re c_0.
_FORCINGS = {
    (1, "cubic"): ("q_beta", 1, lambda q: (-SQ2 / 2 * q, 0 * q, -SQ2 * np.conj(q)), -1.0),
    (2, "cubic"): ("q_beta", 0, lambda q: (-q, 0 * q, 2 * np.conj(q)), 2.0),
    (3, "cubic"): ("q_beta", -1, lambda q: (-SQ2 / 2 * q, 0 * q, -SQ2 * np.conj(q)), -1.0),
    (1, "quadratic"): ("q_i", 1,
                       lambda q: (SQ2 / 2 * q, -SQ2 * np.real(q), SQ2 * np.conj(q)), 2.0),
    (2, "quadratic"): ("q_i", 0, lambda q: (0 * q, -2j * np.imag(q), 0 * q), 0.0),
    (3, "quadratic"): ("q_i", -1,
                       lambda q: (-SQ2 / 2 * q, -SQ2 * np.real(q), -SQ2 * np.conj(q)), -2.0),
}


def _forcing_for(i: int, direction: str, orbit: OrbitData):
    """(f, kappa, lambda) for d_t y + M y = f = -dD(t) e_i(t) with the monodromy
    boundary condition y(l) = kappa e_i(0) + lambda y(0).

    f takes a time or an array of times; its components are on the last axis.
    """
    if (i, direction) not in _FORCINGS:
        raise UnsupportedCase(f"no forcing for i={i}, direction={direction}")
    name, rate, comps, kappa = _FORCINGS[i, direction]
    q = orbit.sampler(name)

    def forcing(t):
        return np.stack(comps(q(t)), axis=-1) * np.exp(rate * np.asarray(t))[..., None]

    lam = math.exp(rate * orbit.l)
    return forcing, kappa * lam * orbit.l * q.modes.get(0, 0j).real, lam


def variation_ode_closed_form(i: int, orbit: OrbitData, direction: str) -> VariationSolution:
    """Explicit kernel solution of d_t y + M y = -dD(t) e_i(t) with the
    holonomy boundary conditions (H-orthogonality at 0, monodromy at l).

    Cubic forcing covers i = 1, 2, 3; quadratic forcing covers i = 1.
    """
    l = orbit.l
    re, im = np.real, np.imag
    if direction == "cubic":
        q = orbit.sampler("q_beta")
        if i == 1:
            c2p = 1.0 / (math.exp(2 * l) - 1.0)
            c1p = 1.0 / (math.exp(l) - 1.0)
            spec = [
                # (loc terms, glob terms) per component
                ([(-SQ2 / 4, 1, 0, re), (-SQ2 / 4, -1, 2, re), (-SQ2 / 2 * 1j, 0, 1, im)],
                 [(-SQ2 / 4 * c2p, -1, 2, re), (-SQ2 / 2 * 1j * c1p, 0, 1, im)]),
                ([(SQ2 / 2, 1, 0, re), (-SQ2 / 2, -1, 2, re)],
                 [(-SQ2 / 2 * c2p, -1, 2, re)]),
                ([(-SQ2 / 2, 1, 0, re), (-SQ2 / 2, -1, 2, re), (SQ2 * 1j, 0, 1, im)],
                 [(-SQ2 / 2 * c2p, -1, 2, re), (SQ2 * 1j * c1p, 0, 1, im)]),
            ]
        elif i == 2:
            d1p = math.exp(l) / (1.0 - math.exp(l))
            d1m = math.exp(-l) / (1.0 - math.exp(-l))
            spec = [
                ([(-1.0, 0, 0, re), (-0.5j, 1, -1, im), (-0.5j, -1, 1, im)],
                 [(-0.5j * d1p, 1, -1, im), (-0.5j * d1m, -1, 1, im)]),
                ([(1j, 1, -1, im), (-1j, -1, 1, im)],
                 [(1j * d1p, 1, -1, im), (-1j * d1m, -1, 1, im)]),
                ([(2.0, 0, 0, re), (-1j, 1, -1, im), (-1j, -1, 1, im)],
                 [(-1j * d1p, 1, -1, im), (-1j * d1m, -1, 1, im)]),
            ]
        elif i == 3:
            c2m = 1.0 / (math.exp(-2 * l) - 1.0)
            c1m = 1.0 / (math.exp(-l) - 1.0)
            spec = [
                ([(-SQ2 / 4, 1, -2, re), (-SQ2 / 4, -1, 0, re), (-SQ2 / 2 * 1j, 0, -1, im)],
                 [(-SQ2 / 4 * c2m, 1, -2, re), (-SQ2 / 2 * 1j * c1m, 0, -1, im)]),
                ([(SQ2 / 2, 1, -2, re), (-SQ2 / 2, -1, 0, re)],
                 [(SQ2 / 2 * c2m, 1, -2, re)]),
                ([(-SQ2 / 2, 1, -2, re), (-SQ2 / 2, -1, 0, re), (SQ2 * 1j, 0, -1, im)],
                 [(-SQ2 / 2 * c2m, 1, -2, re), (SQ2 * 1j * c1m, 0, -1, im)]),
            ]
        else:
            raise UnsupportedCase("cubic direction supports i in {1, 2, 3}")
    elif direction == "quadratic":
        if i != 1:
            raise UnsupportedCase("quadratic closed form is available for i = 1 only")
        q = orbit.sampler("q_i")
        e1p = 1.0 / (math.exp(l) - 1.0)
        spec = [
            ([(SQ2 / 2, 1, 0, re), (SQ2 / 2 * 1j, 0, 1, im)],
             [(SQ2 / 2 * 1j * e1p, 0, 1, im)]),
            ([(-SQ2, 1, 0, re)], []),
            ([(SQ2, 1, 0, re), (-SQ2 * 1j, 0, 1, im)],
             [(-SQ2 * 1j * e1p, 0, 1, im)]),
        ]
    else:
        raise UnsupportedCase("direction must be 'cubic' or 'quadratic'")

    components = tuple(_KernelExpr(q, l, loc, glob) for loc, glob in spec)
    forcing, kappa, lam = _forcing_for(i, direction, orbit)
    return VariationSolution(l=l, index=i, direction=direction,
                             components=components, forcing=forcing,
                             boundary_kappa=kappa, eigenvalue=lam)


# --------------------------------------------------------------------------
# shooting oracle for the same boundary-value problems
# --------------------------------------------------------------------------

def _forced_transport(forcing: Callable, y: np.ndarray, t0: float, t1: float,
                      steps: int) -> np.ndarray:
    """RK4 solution at t1 of d_t y + M y = forcing(t) from y at t0."""

    ts, h = _nodes(t0, t1, steps)
    a = np.zeros((len(ts), 4, 4), dtype=complex)
    a[:, :3, :3], a[:, :3, 3] = M_CONN, -forcing(ts)
    P = _propagator(a, h)
    return P[:3, :3] @ y + P[:3, 3]


class ShootingSolution:
    """BVP solution d_t y + M y = forcing with monodromy boundary conditions,
    solved by matching the particular RK4 path against the known eigenframe."""

    def __init__(self, i: int, direction: str, orbit: OrbitData, steps: int = 4096):
        forcing, kappa, lam = _forcing_for(i, direction, orbit)
        l = orbit.l
        self.l, self.i, self.steps, self.forcing = l, i, steps, forcing
        yp_l = _forced_transport(forcing, np.zeros(3, dtype=complex), 0.0, l, steps)
        Phi = expm(-M_CONN * l)
        rhs = kappa * BaseFrame.e(i, 0.0).astype(complex) - yp_l
        A = Phi - lam * np.eye(3)
        y0, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        # fix the kernel component via H-orthogonality to e_i(0)
        ei0 = BaseFrame.e(i, 0.0).astype(complex)
        y0 = y0 - np.conj(hermitian(y0, ei0)) * ei0
        self.y0 = y0
        self.kappa, self.lam = kappa, lam
        self.match_residual = float(np.max(np.abs(A @ y0 - rhs)))

    def value(self, t: float) -> np.ndarray:
        return self.values_on_grid([t])[0]

    def values_on_grid(self, ts) -> np.ndarray:
        """One integration sweep through sorted nonnegative times."""
        out = []
        y, prev = self.y0.copy(), 0.0
        for t in ts:
            if t > prev:
                steps = max(8, int(math.ceil(self.steps * (t - prev) / self.l)))
                y = _forced_transport(self.forcing, y, prev, t, steps)
                prev = t
            out.append(y.copy())
        return np.array(out)


# --------------------------------------------------------------------------
# second-variation trace kernels
# --------------------------------------------------------------------------

def _green(q: FourierSampler, rate: float, t: float, l: float) -> complex:
    """Local plus monodromy kernels at rate r on q, exactly:
    int_0^t (e^{r(t-s)} - e^{r(s-t)}) q
      - int_0^l (e^{r(t-s)} + e^{r(s-t-l)}) q / (1 - e^{-r l}).
    """
    loc = _moment(q, -rate, 0.0, t, t) - _moment(q, rate, 0.0, t, t)
    glob = _moment(q, -rate, 0.0, l, t) + _moment(q, rate, 0.0, l, t + l)
    return complex(loc - glob / (1.0 - math.exp(-rate * l)))


def second_variation_trace_cc(orbit: OrbitData, t: float) -> float:
    """Tr(dD_cubic * d_v pi)(Phi_t x): exponential kernels on Re parts (rate 2)
    and Im parts (rate 1) plus monodromy boundary terms."""
    qa, qb = orbit.sampler("q_alpha"), orbit.sampler("q_beta")
    re_a, im_a = float(np.real(qa(t))), float(np.imag(qa(t)))
    return re_a * _green(qb, 2, t, orbit.l).real + 2.0 * im_a * _green(qb, 1, t, orbit.l).imag


def psi_cc(orbit: OrbitData, r: float) -> float:
    """The boundary kernel at t = 0 with horizon r (periodic samplers extended)."""
    qa, qb = orbit.sampler("q_alpha"), orbit.sampler("q_beta")
    re_a, im_a = float(np.real(qa(0.0))), float(np.imag(qa(0.0)))
    return re_a * _green(qb, 2, 0.0, r).real + 2.0 * im_a * _green(qb, 1, 0.0, r).imag


def eta_cc(orbit: OrbitData, T: float) -> tuple:
    """(eta value with cutoff T, truncation bound 3 M^2 e^{-T}).

    eta(x) = -Re q_a(0) (int_0^T e^{-2s} Re q_b + int_{-T}^0 e^{2s} Re q_b)
             -2 Im q_a(0) (same with e^{-|s|} kernels on Im q_b).
    """
    qa, qb = orbit.sampler("q_alpha"), orbit.sampler("q_beta")
    re_a, im_a = float(np.real(qa(0.0))), float(np.imag(qa(0.0)))

    def two_sided(rate):
        return complex(_moment(qb, -rate, 0.0, T) + _moment(qb, rate, -T, 0.0))

    val = -re_a * two_sided(2).real - 2.0 * im_a * two_sided(1).imag
    grid = np.linspace(0.0, orbit.l, 64, endpoint=False)
    m_bound = max(float(np.max(np.abs(qa(grid)))), float(np.max(np.abs(qb(grid)))))
    return val, 3.0 * m_bound ** 2 * math.exp(-T)


def psi_cq(orbit: OrbitData, r: float) -> float:
    """t = 0 boundary kernel of the mixed case with horizon r: the telescoping
    argument makes it invariant under replacing r by multiples of the period."""
    im_a = float(np.imag(orbit.sampler("q_alpha")(0.0)))
    return 2.0 * im_a * _green(orbit.sampler("q_i"), 1, 0.0, r).imag


def second_variation_trace_cq(orbit: OrbitData, t: float,
                              y21: Callable | None = None) -> float:
    """(1/2) Re y21(t) - 2 Im q_alpha(t) * [e^{+-(t-s)} kernels on Im q_i].

    y21 is caller-supplied opaque data (solution of an elliptic system off this
    module's scope); it defaults to zero.
    """
    im_a = float(np.imag(orbit.sampler("q_alpha")(t)))
    y_term = 0.5 * float(np.real(y21(t))) if y21 is not None else 0.0
    return y_term + 2.0 * im_a * _green(orbit.sampler("q_i"), 1, t, orbit.l).imag


# --------------------------------------------------------------------------
# trace reassembly from variation paths
# --------------------------------------------------------------------------

def _dv_a_columns(t: float, dvE_rows) -> np.ndarray:
    """d_v a(0, t) = -a (d_v E) a for the eigenvector row matrix E."""
    a = BaseFrame.a_matrix(t).astype(complex)
    dvE = np.vstack(dvE_rows)
    return -(a @ dvE @ a)


def reassemble_trace_cc(orbit: OrbitData, t: float, paths=None) -> float:
    """Tr(dD_cubic d_v pi) rebuilt from d_v e_j paths and the frame inverse."""
    if paths is None:
        paths = [variation_ode_closed_form(i, orbit, "cubic") for i in (1, 2, 3)]
    return _reassemble(orbit, t, paths, "q_alpha")


def reassemble_trace_cq(orbit: OrbitData, t: float, paths=None) -> float:
    """Same assembly with quadratic-direction variation paths (shooting)."""
    if paths is None:
        paths = [ShootingSolution(i, "quadratic", orbit) for i in (1, 2, 3)]
    return _reassemble(orbit, t, paths, "q_alpha")


def _reassemble(orbit: OrbitData, t: float, paths, base_sampler: str) -> float:
    qa = orbit.sampler(base_sampler)
    qt = complex(qa(t))
    dvE_rows = [p.value(t) for p in paths]
    dva = _dv_a_columns(t, dvE_rows)
    a = BaseFrame.a_matrix(t)
    e1 = BaseFrame.e(1, t)
    dve1 = dvE_rows[0]
    total = qt * (dva[0, 0] * e1[2] + a[0, 0] * dve1[2]) \
        + 4 * np.conj(qt) * (dva[2, 0] * e1[0] + a[2, 0] * dve1[0])
    return float(np.real(total))
