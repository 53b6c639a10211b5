"""Parallel transport for the rank-3 flat connection along closed geodesics.

At the hyperbolic base point the connection along a unit-speed closed geodesic
reduces to the constant matrix M below; its eigenframe (growth rates e^l, 1,
e^{-l}) carries all the holonomy data. Cubic/quadratic deformation directions
drive first variations (the trace formula, integrated by a periodic trapezoid
rule) and second variations (inhomogeneous ODE systems, solved exactly mode by
mode in that eigenframe).
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateSpectrum, NonFiniteValue, StepTooLarge, UnsupportedCase

SQ2 = math.sqrt(2.0)

# Connection matrix along the geodesic in the holomorphic frame.
M_CONN = np.array([[0.0, 0.5, 0.0],
                   [1.0, 0.0, 0.5],
                   [0.0, 1.0, 0.0]])

# Hermitian pairing of the frame on the geodesic (conjugate-linear first slot).
H_METRIC = np.diag([2.0, 1.0, 0.5])

# M_CONN e_k(0) = MU_k e_k(0); the monodromy eigenvalues are e^{-MU_k l}.
MU = np.array([-1.0, 0.0, 1.0])

# Rows e_k(0) of the base eigenframe, and their inverse: sum_j A0_ij E0_jk = delta_ik.
E0 = np.array([[SQ2 / 4, -SQ2 / 2, SQ2 / 2],
               [-0.5, 0.0, 1.0],
               [SQ2 / 4, SQ2 / 2, SQ2 / 2]])
A0 = np.array([[SQ2 / 2, -1.0, SQ2 / 2],
               [-SQ2 / 2, 0.0, SQ2 / 2],
               [SQ2 / 4, 0.5, SQ2 / 4]])

PI0 = 0.5 * np.array([[0.5, -0.5, 0.25],
                      [-1.0, 1.0, -0.5],
                      [1.0, -1.0, 0.5]])


def hermitian(u: np.ndarray, v: np.ndarray) -> complex:
    return complex(np.conj(u) @ (H_METRIC @ v))


def _growth(t: float) -> np.ndarray:
    """e^{-MU_k t} for k = 1, 2, 3: exactly e^t, 1 and e^{-t}. Past |t| of about
    709.78 one of them is no float, and it raises NonFiniteValue (exit 3)."""
    try:
        return np.array([math.exp(-m * t) for m in MU])
    except OverflowError:
        raise NonFiniteValue(f"the base eigenvalue e^{abs(t)!r} overflows a float") from None


class BaseFrame:
    """Eigenvector paths e_k(t) = e^{-MU_k t} e_k(0), change of basis, and spectral
    projection at the base."""

    pi0 = PI0

    @staticmethod
    def eigenvalues(l: float) -> tuple:
        return tuple(_growth(l).tolist())

    @classmethod
    def e(cls, i: int, t: float) -> np.ndarray:
        if i not in (1, 2, 3):
            raise ValueError("i must be 1, 2 or 3")
        return cls.e_matrix(t)[i - 1]

    @staticmethod
    def e_matrix(t: float) -> np.ndarray:
        """Rows are the eigenvector paths e_1(t), e_2(t), e_3(t)."""
        return _growth(t)[:, None] * E0

    @staticmethod
    def a_matrix(t: float) -> np.ndarray:
        """Inverse of the eigenvector rows: sum_j a_ij e_jk = delta_ik."""
        return A0 * _growth(-t)


class FourierSampler:
    """Complex finite Fourier series with period l: sum_k c_k e^{i w_k t}, w_k = 2 pi k / l.

    The mode arrays w (angular frequencies) and c (coefficients) are in increasing k.
    """

    def __init__(self, l: float, modes: dict):
        self.l = float(l)
        self.modes = {int(k): complex(c) for k, c in modes.items()}
        ks = sorted(self.modes)
        self.w = np.array([2 * math.pi * k / self.l for k in ks])
        self.c = np.array([self.modes[k] for k in ks], dtype=complex)
        self._freqs = tuple(zip((1j * self.w).tolist(), self.c.tolist()))
        # Horner's rule from the top mode down: (gap to the mode below, its coefficient)
        self._horner = [(hi - lo, self.modes[lo]) for lo, hi in zip(ks, ks[1:])][::-1]
        self._k_min = ks[0] if ks else 0

    def __call__(self, t):
        """The series at a time t (a complex) or on an array of times (an array of its
        shape). On an array it is z^{k_min} times a polynomial in z = e^{2 pi i t / l},
        taken by Horner's rule over the sorted modes with a factor z^{gap} between
        neighbours: one exp per call, and work that grows with the number of modes,
        not with k_max - k_min."""
        if isinstance(t, (int, float)):
            out = 0j
            for w, c in self._freqs:
                out += c * cmath.exp(w * t)
            return out
        z = np.exp((2j * math.pi / self.l) * np.asarray(t, dtype=float))
        out = np.full_like(z, self.c[-1] if self.modes else 0.0)
        for gap, c in self._horner:
            out *= z if gap == 1 else z ** gap
            out += c
        if self._k_min:
            out *= z ** self._k_min
        return out if out.shape else complex(out)

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


def _checked_steps(steps) -> int:
    """steps itself if it is a positive int (not a bool), else ValueError."""
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"RK4 steps must be a positive integer, got {steps!r}")
    return steps


def _nodes(t0: float, t1: float, steps: int):
    """The 2 steps + 1 RK4 node times t0 + j h / 2 and the step h = (t1 - t0) / steps."""
    h = (t1 - t0) / _checked_steps(steps)
    return t0 + (h / 2) * np.arange(2 * steps + 1), h


def _real_form(a: np.ndarray) -> np.ndarray:
    """The real stack [[Re a, -Im a], [Im a, Re a]] of a complex d x d stack: it acts
    on (Re v, Im v) as a acts on v, and products of real forms are real forms."""
    d = a.shape[-1]
    out = np.empty(a.shape[:-2] + (2 * d, 2 * d))
    out[..., :d, :d] = out[..., d:, d:] = a.real
    out[..., d:, :d] = a.imag
    out[..., :d, d:] = -a.imag
    return out


# A huge sampler coefficient can push samples, integrands and propagators past the
# floats. The functions that form them run without numpy's overflow warnings and
# pass the result through _finite, which raises NonFiniteValue (exit 3) instead.
_QUIET = dict(over="ignore", invalid="ignore")


def _finite(a, what: str):
    """a itself if every entry is finite, else NonFiniteValue naming what it is."""
    if not np.isfinite(a).all():
        raise NonFiniteValue(f"{what} has an infinite or NaN entry")
    return a


@np.errstate(**_QUIET)
def _block_ends(a: np.ndarray, h: float) -> np.ndarray:
    """RK4 propagators of V' = -A(t) V from the first node to the end of each block.

    a stacks A at the 2 steps + 1 nodes of _nodes on axis -3 (leading axes batch
    systems). Entry k on axis -3 of the result is the product of the step maps of
    size h over steps 0 .. min((k + 1) _BLOCK, steps) - 1, so the last entry is the
    whole propagator; the ends come free with the block-by-block product. A complex
    stack runs in real arithmetic, each block as its _real_form (a real matmul of
    twice the size costs less than a complex one), and is read back from the left
    column of blocks. Real input stays real.
    """
    steps = (a.shape[-3] - 1) // 2
    d = a.shape[-1]
    embed = np.iscomplexobj(a)
    eye = np.eye(2 * d if embed else d)
    P, ends = None, []
    for k0 in range(0, steps, _BLOCK):
        blk = a[..., 2 * k0:2 * min(k0 + _BLOCK, steps) + 1, :, :]
        if embed:
            blk = _real_form(blk)
        a0, am, a1 = blk[..., 0:-1:2, :, :], blk[..., 1::2, :, :], blk[..., 2::2, :, :]
        s1 = -a0
        s2 = -am @ (eye + (h / 2) * s1)
        s3 = -am @ (eye + (h / 2) * s2)
        s4 = -a1 @ (eye + h * s3)
        block = _ordered_product(eye + (h / 6) * (s1 + 2 * s2 + 2 * s3 + s4))
        P = block if P is None else block @ P
        ends.append(P)
    P = _finite(np.stack(ends, axis=-3), "an RK4 propagator")
    return P[..., :d, :d] + 1j * P[..., d:, :d] if embed else P


def _propagator(a: np.ndarray, h: float) -> np.ndarray:
    """RK4 propagator of V' = -A(t) V, the product of the step maps of size h: the
    last of the _block_ends."""
    return _block_ends(a, h)[..., -1, :, :]


@np.errstate(**_QUIET)
def _sampled(A: Callable, ts: np.ndarray) -> np.ndarray:
    """A matrix-valued callable stacked over an array of times.

    A Direction (cubic_direction, quadratic_direction) is called once on the whole
    array. Any other callable, such as a gauge-shifted family's dD or a user
    connection, takes one time per call and is called once per node.
    """
    if isinstance(A, Direction):
        return _finite(A(ts), "a sampled connection")
    times = ts.tolist()
    first = np.asarray(A(times[0]), dtype=complex)
    return _finite(np.fromiter(itertools.chain([first], map(A, times[1:])),
                               dtype=np.dtype((complex, first.shape)), count=len(times)),
                   "a sampled connection")


# A Direction's first level puts at least this many RK4 steps on each period of
# its sampler's highest mode.
_STEPS_PER_PERIOD = 8


def _first_level(A: Callable, T: float) -> float:
    """How many RK4 steps on [0, T] resolve A: _STEPS_PER_PERIOD on each period of
    a Direction's highest mode; 0 for any other callable, whose stops
    _step_doubling confirms instead."""
    if not isinstance(A, Direction):
        return 0.0
    k = max(map(abs, A.q.modes), default=0)
    return _STEPS_PER_PERIOD * k * abs(T) / A.q.l


def _step_doubling(A: Callable, T: float, cap: int, value: Callable, target: Callable):
    """(fine, estimate): value(a, h) at the first level of RK4 steps on [0, T] whose
    Richardson estimate |fine - coarse| / 15 against the level below is within
    target(fine), or at the cap level if none is.

    The levels are cap / 2^k: cap is halved while it is even and its half is at
    least min(max(16, _first_level), cap // 2), so an even cap has at least two
    levels and an odd cap is one level, whose estimate is inf. a stacks A sampled at
    the level's 2 n + 1 nodes (_nodes); level 2 n keeps level n's samples, which
    fall on its even nodes, and samples only its odd nodes, so each level node is
    sampled once and the cap level's nodes are those of _nodes(0, T, cap) exactly.
    A Direction is sampled in one call per level, any other callable once per node
    (_sampled).

    A mode that takes one value on every node of two dyadic levels looks constant
    to both, so they can agree on the wrong problem. A Direction starts at a level
    that resolves its modes (_first_level). For any other callable a stop below the
    cap at level n is confirmed on the n + 1 steps of _nodes(0, T, n + 1), on whose
    nodes such a mode varies: its value must be within target(fine) of fine, or the
    doubling goes on. That grid's RK4 error is about (n / (n + 1))^4 times fine's,
    so where the levels resolve A the two differ by far less than the estimate.
    """
    n = _checked_steps(cap)
    floor = min(max(16, _first_level(A, T)), cap // 2)
    while n % 2 == 0 and n // 2 >= floor:
        n //= 2
    ts, h = _nodes(0.0, T, n)
    a = _sampled(A, ts)
    fine, est = value(a, h), math.inf
    while n < cap:
        n *= 2
        ts, h = _nodes(0.0, T, n)
        new = _sampled(A, ts[1::2])
        both = np.empty((len(ts),) + a.shape[1:], dtype=a.dtype)
        both[0::2], both[1::2] = a, new
        a, coarse, fine = both, fine, value(both, h)
        est = float(np.max(np.abs(fine - coarse))) / 15.0
        if est <= target(fine) and (n == cap or isinstance(A, Direction)
                                    or _confirmed(A, T, a, n, value, fine, target)):
            break
    return fine, est


def _confirmed(A: Callable, T: float, a: np.ndarray, n: int, value: Callable, fine,
               target: Callable) -> bool:
    """Whether value on _nodes(0, T, n + 1) is within target(fine) of fine. Its
    ends and midpoint T / 2 reuse the samples a of level n; only its other 2 n
    nodes are sampled."""
    ts, h = _nodes(0.0, T, n + 1)
    shared = np.zeros(len(ts), dtype=bool)
    shared[[0, n + 1, 2 * n + 2]] = True
    check = np.empty((len(ts),) + a.shape[1:], dtype=a.dtype)
    check[shared], check[~shared] = a[[0, n, 2 * n]], _sampled(A, ts[~shared])
    return float(np.max(np.abs(value(check, h) - fine))) <= target(fine)


# Step doubling stops parallel_transport once its estimate is within this times
# max(1, |V|_inf), and eigenvalue_derivative_fd within this times max(1, |fd|).
_TRANSPORT_TOL, _FD_TOL = 1e-11, 1e-9


def parallel_transport(A: Callable, V0: np.ndarray, T: float,
                       steps: int = 2048, richardson_tol: float = 1e-8):
    """Solve V' = -A(t) V by RK4, doubling the steps up to 2 steps (_step_doubling).

    It returns the first level whose Richardson estimate is within richardson_tol
    and within _TRANSPORT_TOL max(1, |V|_inf). The last pair is steps and 2 steps;
    if even that estimate exceeds richardson_tol it raises StepTooLarge.
    """
    cap = 2 * _checked_steps(steps)
    fine, est = _step_doubling(
        A, T, cap, lambda a, h: _propagator(a, h) @ V0,
        lambda V: min(_TRANSPORT_TOL * max(1.0, float(np.max(np.abs(V)))), richardson_tol))
    if est > richardson_tol:
        raise StepTooLarge(est, richardson_tol)
    return fine


# --------------------------------------------------------------------------
# connection families and the trace formula for eigenvalue derivatives
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Direction:
    """dD/ds of a deformation with sampled values q(t): q at the entries q_at and
    k conj q at the entries conj_at, each a (rows, cols) pair of index tuples.

    Takes a time or an array of times and returns one 3x3 matrix per time.
    """

    q: FourierSampler
    q_at: tuple
    conj_at: tuple
    k: float

    def __call__(self, t) -> np.ndarray:
        qt = np.asarray(self.q(t))[..., None]
        out = np.zeros(qt.shape[:-1] + (3, 3), dtype=complex)
        out[(...,) + self.q_at] = qt
        out[(...,) + self.conj_at] = self.k * np.conj(qt)
        return out


def cubic_direction(q: FourierSampler) -> Direction:
    """dD/ds for a cubic deformation with sampled values q(t)."""
    return Direction(q, q_at=((0,), (2,)), conj_at=((2,), (0,)), k=4.0)


def quadratic_direction(q: FourierSampler) -> Direction:
    """dD/ds for a quadratic deformation with sampled values q(t)."""
    return Direction(q, q_at=((0, 1), (1, 2)), conj_at=((1, 2), (0, 1)), k=2.0)


@dataclass
class ConnectionFamily:
    """s-family of connection coefficients along an orbit, D(s, t).

    dD is t -> the 3x3 derivative at s = 0. A Direction (cubic_direction,
    quadratic_direction) is sampled in one call on a whole node array; any other
    callable, gauge_shifted's included, once per node.
    """

    l: float
    dD: Callable

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


# Trace-formula quadrature: the first level's nodes, the node cap, the relative
# agreement asked of two levels, and the confirming grid's offset in steps.
_TRACE_NODES, _TRACE_CAP, _TRACE_TOL = 16, 4096, 1e-10
_TRACE_SHIFT = SQ2 - 1.0


def _trace_integrand(dD: Callable, ts: np.ndarray) -> np.ndarray:
    return _finite(np.einsum("nij,ji->n", _sampled(dD, ts), PI0), "the trace integrand")


@np.errstate(**_QUIET)
def trace_derivative(family: ConnectionFamily) -> complex:
    """-int_0^l Tr(dD(t) pi0) dt by the periodic trapezoid rule, l times the node mean.

    Equals d/ds log(top holonomy eigenvalue) at s = 0 and is invariant under
    infinitesimal gauge transformations of the family. The integrand is l-periodic,
    so n equispaced nodes integrate every Fourier mode that n does not divide
    exactly. Each level adds the midpoints of the last; two levels that agree within
    _TRACE_TOL of the mean modulus are confirmed on the coarser grid shifted by
    _TRACE_SHIFT steps, since a mode that both grids divide moves the two means
    alike but not the shifted one. Past _TRACE_CAP nodes it raises StepTooLarge.
    """
    l = family.l
    _check_base_spectrum(l)
    n = _TRACE_NODES
    vals = _trace_integrand(family.dD, (l / n) * np.arange(n))
    coarse = vals.mean()
    while 2 * n <= _TRACE_CAP:
        mids = _trace_integrand(family.dD, (l / n) * (np.arange(n) + 0.5))
        vals = np.concatenate([vals, mids])
        fine = vals.mean()
        scale = _finite(np.abs(vals).mean(), "the trace integrand's mean")
        diff = abs(fine - coarse)
        if diff <= _TRACE_TOL * scale:
            shifted = _trace_integrand(family.dD, (l / n) * (np.arange(n) + _TRACE_SHIFT))
            diff = abs(shifted.mean() - fine)
            if diff <= _TRACE_TOL * scale:
                return -complex(_finite(l * fine, "the trace derivative"))
        coarse, n = fine, 2 * n
    raise StepTooLarge(diff / scale, _TRACE_TOL)


def top_eigenvalue(mat: np.ndarray) -> complex:
    lam = np.linalg.eigvals(_finite(mat, "the monodromy"))
    order = np.argsort(-np.abs(lam))
    lam = lam[order]
    if (abs(lam[0]) - abs(lam[1])) / abs(lam[0]) < 1e-9:
        raise DegenerateSpectrum("top two eigenvalue moduli coincide")
    return complex(lam[0])


_FD_STEP = 1e-4  # the s step of eigenvalue_derivative_fd


def _fd_at(d: np.ndarray, h: float) -> complex:
    """The central difference from dD sampled at the RK4 nodes of step h; the
    s = +_FD_STEP and s = -_FD_STEP monodromies share the samples."""
    a = np.array([_FD_STEP, -_FD_STEP])[:, None, None, None] * d
    a += M_CONN
    mono_p, mono_m = _propagator(a, h)
    lam_p, lam_m = top_eigenvalue(mono_p), top_eigenvalue(mono_m)
    return (cmath.log(lam_p) - cmath.log(lam_m)) / (2 * _FD_STEP)


def eigenvalue_derivative_fd(family: ConnectionFamily, steps: int = 2048) -> complex:
    """Central finite difference of s -> log(top eigenvalue of the monodromy).

    The monodromies double their RK4 steps up to `steps` (_step_doubling) and stop
    at the first level whose Richardson estimate is within _FD_TOL max(1, |fd|);
    if none is, the value at `steps` is returned.
    """
    fd, _ = _step_doubling(family.dD, family.l, steps, _fd_at,
                           lambda fd: _FD_TOL * max(1.0, abs(fd)))
    return fd


# --------------------------------------------------------------------------
# closed-form variation solutions
# --------------------------------------------------------------------------

@dataclass
class VariationSolution:
    """One eigenvector variation path with its ODE/boundary metadata.

    In the base eigenframe y = sum_k c_k e_k(0), and c_k' + MU_k c_k = e^{r t}
    (A_k q + B_k conj q) with (A_k, B_k) = gains[:, k].
    """

    l: float
    index: int
    direction: str
    forcing: Callable
    boundary_kappa: complex
    eigenvalue: float
    q: FourierSampler
    rate: float
    gains: np.ndarray

    def _evaluate(self, t):
        """(y, y') at a time or an array of times, components on the last axis.

        c_k = e^{r t} (A_k S_k + B_k conj S_k), where S_k takes each mode c_n e^{i w_n t}
        of q to c_n e^{i w_n t} / (rho_k + i w_n), rho_k = MU_k + r: the l-periodic
        solution of S' + rho_k S = q, so c_k(l) = e^{r l} c_k(0). Only k = i meets
        rho_k + i w_n = 0 (at n = 0); there S_i integrates q from S_i(0) = 0, which keeps
        y(0) H-orthogonal to e_i(0). Values and t-derivatives come from the same modes.
        """
        ts = np.asarray(t, dtype=float)[..., None, None]
        w, c = self.q.w, self.q.c
        z = (MU + self.rate)[:, None] + 1j * w
        resonant = z == 0
        z = np.where(resonant, 1.0, z)
        wave = np.exp(1j * w * ts)
        start = (np.arange(1, 4) == self.index)[:, None]
        S = np.sum(c * np.where(resonant, ts, (wave - start) / z), axis=-1)
        dS = np.sum(c * np.where(resonant, 1.0, 1j * w * wave / z), axis=-1)
        A, B = self.gains
        d, dd = A * S + B * np.conj(S), A * dS + B * np.conj(dS)
        grow = np.exp(self.rate * ts[..., 0])
        return (grow * d) @ E0, (grow * (self.rate * d + dd)) @ E0

    def value(self, t: float) -> np.ndarray:
        return self.values_on_grid([t])[0]

    def values_on_grid(self, ts) -> np.ndarray:
        return self._evaluate(ts)[0]

    def derivative(self, t: float) -> np.ndarray:
        return self._evaluate(t)[1]

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

    lam = float(_growth(orbit.l)[i - 1])
    return forcing, kappa * lam * orbit.l * q.modes.get(0, 0j).real, lam


def variation_ode_closed_form(i: int, orbit: OrbitData, direction: str) -> VariationSolution:
    """Exact solution of d_t y + M y = -dD(t) e_i(t) with the holonomy boundary
    conditions (H-orthogonality at 0, monodromy at l), for every key of _FORCINGS.

    The forcing's components are real-linear in q, so their values at q = 1 and
    q = i give the q and conj q parts; a_matrix(0) takes both to the eigenframe.
    """
    forcing, kappa, lam = _forcing_for(i, direction, orbit)
    name, rate, comps, _ = _FORCINGS[i, direction]
    one, imag = (np.array(comps(z), dtype=complex) @ A0
                 for z in (1 + 0j, 1j))
    return VariationSolution(l=orbit.l, index=i, direction=direction, forcing=forcing,
                             boundary_kappa=kappa, eigenvalue=lam, q=orbit.sampler(name),
                             rate=rate, gains=np.array([one - 1j * imag, one + 1j * imag]) / 2)


# --------------------------------------------------------------------------
# shooting oracle for the same boundary-value problems
# --------------------------------------------------------------------------

@np.errstate(**_QUIET)
def _forced_generator(forcing: Callable, ts: np.ndarray) -> np.ndarray:
    """The real generator [[M, -Re f, -Im f], [0, 0, 0]] of d_t y + M y = f at each time.

    M is real, so Re f drives Re y and Im f drives Im y. The RK4 step of this
    generator is the affine step of the ODE, so a propagator P of it maps y to
    P[:3, :3] y + P[:3, 3] + i P[:3, 4] (see _affine).
    """
    f = _finite(forcing(ts), "the forcing")
    a = np.zeros((len(ts), 5, 5))
    a[:, :3, :3], a[:, :3, 3], a[:, :3, 4] = M_CONN, -f.real, -f.imag
    return a


def _affine(P: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y carried by a propagator of _forced_generator, or by a stack of them."""
    return P[..., :3, :3] @ y + P[..., :3, 3] + 1j * P[..., :3, 4]


def _forced_transport(forcing: Callable, y: np.ndarray, t0: float, t1: float,
                      steps: int) -> np.ndarray:
    """RK4 solution at t1 of d_t y + M y = forcing(t) from y at t0."""
    ts, h = _nodes(t0, t1, steps)
    return _affine(_propagator(_forced_generator(forcing, ts), h), y)


class ShootingSolution:
    """BVP solution d_t y + M y = forcing with monodromy boundary conditions,
    solved by matching the particular RK4 path against the known eigenframe.

    The constructor makes the only full RK4 sweep: `steps` steps of h = l / steps
    from y = 0, whose _block_ends give the particular path's propagator P_k at every
    block end t_k = min(k _BLOCK, steps) h (with P_0 = I at t_0 = 0). The last one
    gives y_p(l) and so y0; afterwards y(t_k) = _affine(P_k, y0) costs one 3x3
    product, and values_on_grid starts every time from it.
    """

    def __init__(self, i: int, direction: str, orbit: OrbitData, steps: int = 4096):
        forcing, kappa, lam = _forcing_for(i, direction, orbit)
        l = orbit.l
        self.l, self.i, self.steps, self.forcing = l, i, steps, forcing
        ts, self._h = _nodes(0.0, l, steps)
        ends = _block_ends(_forced_generator(forcing, ts), self._h)
        self._ends = np.concatenate([np.eye(5)[None], ends])
        self._end_times = l * (np.minimum(_BLOCK * np.arange(len(self._ends)), steps) / steps)
        yp_l = _affine(ends[-1], np.zeros(3))
        # expm(-M l): M = E0^T diag(MU) A0^T, with A0^T the inverse of E0^T
        Phi = E0.T @ np.diag(np.exp(-MU * l)) @ A0.T
        ei0 = E0[i - 1].astype(complex)
        rhs = kappa * ei0 - yp_l
        A = Phi - lam * np.eye(3)
        y0, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        # fix the kernel component via H-orthogonality to e_i(0)
        y0 = y0 - np.conj(hermitian(y0, ei0)) * ei0
        self.y0 = y0
        self.kappa, self.lam = kappa, lam
        self.match_residual = float(np.max(np.abs(A @ y0 - rhs)))

    def value(self, t: float) -> np.ndarray:
        return self.values_on_grid([t])[0]

    def values_on_grid(self, ts) -> np.ndarray:
        """y at each time of ts, in any order; each time is evaluated on its own.

        A time t >= 0 starts from y(t_k) at the last block end t_k <= t and, if t > t_k,
        runs RK4 over [t_k, t] in steps of at most h: at most one block for t <= l. A
        time on a block end costs no RK4; every point of linspace(0, l, 5) is one when
        steps is a multiple of 4 _BLOCK, as the default 4096 is. A time t < 0
        integrates backward from y0 in ceil(steps |t| / l) steps, at least 8.
        """
        out = []
        for t in map(float, ts):
            if t < 0:
                steps = max(8, math.ceil(self.steps * -t / self.l))
                out.append(_forced_transport(self.forcing, self.y0, 0.0, t, steps))
                continue
            k = int(np.searchsorted(self._end_times, t, side="right")) - 1
            y, tk = _affine(self._ends[k], self.y0), float(self._end_times[k])
            if t > tk:
                y = _forced_transport(self.forcing, y, tk, t, math.ceil((t - tk) / self._h))
            out.append(y)
        return np.array(out)


# --------------------------------------------------------------------------
# second-variation trace kernels
# --------------------------------------------------------------------------

def _green(q: FourierSampler, rate: float, t: float) -> complex:
    """Local plus monodromy kernels at rate r on the l-periodic q:
    -int_R e^{-r |t - s|} q(s) ds, so each mode c_k e^{i w_k t} is multiplied by
    -2 r / (r^2 + w_k^2).
    """
    return complex(np.sum(q.c * np.exp(1j * q.w * t) * (-2.0 * rate / (rate ** 2 + q.w ** 2))))


def _check_horizon(orbit: OrbitData, r: float):
    """ValueError unless the horizon r is a whole number >= 1 of traversals."""
    k = r / orbit.l
    if not (math.isfinite(k) and round(k) >= 1 and abs(k - round(k)) <= 1e-9 * k):
        raise ValueError(f"horizon {r!r} is not a whole number >= 1 of traversals "
                         f"of length {orbit.l!r}")


def second_variation_trace_cc(orbit: OrbitData, t: float) -> float:
    """Tr(dD_cubic * d_v pi)(Phi_t x): exponential kernels on Re parts (rate 2)
    and Im parts (rate 1) plus monodromy boundary terms. l times its mean over a
    periodic grid is -d/ds d/du log(top eigenvalue) at s = u = 0 of the monodromy
    of M_CONN + s cubic(q_alpha) + u cubic(q_beta)."""
    qa, qb = orbit.sampler("q_alpha"), orbit.sampler("q_beta")
    re_a, im_a = float(np.real(qa(t))), float(np.imag(qa(t)))
    return re_a * _green(qb, 2, t).real + 2.0 * im_a * _green(qb, 1, t).imag


def psi_cc(orbit: OrbitData, r: float) -> float:
    """The boundary kernel at t = 0 with horizon r, a whole number of traversals:
    the same for every such r, and equal to the kernel at t = 0."""
    _check_horizon(orbit, r)
    return second_variation_trace_cc(orbit, 0.0)


def eta_cc(orbit: OrbitData, T: float) -> tuple:
    """(eta value with cutoff T, truncation bound 3 M^2 e^{-T}).

    eta(x) = -Re q_a(0) (int_0^T e^{-2s} Re q_b + int_{-T}^0 e^{2s} Re q_b)
             -2 Im q_a(0) (same with e^{-|s|} kernels on Im q_b).
    Mode k of the two integrals at rate r is c_k (1 - e^{-z T}) / z, z = r -+ i w_k.
    """
    qa, qb = orbit.sampler("q_alpha"), orbit.sampler("q_beta")
    re_a, im_a = float(np.real(qa(0.0))), float(np.imag(qa(0.0)))

    def two_sided(rate):
        z = rate + 1j * np.array([[-1.0], [1.0]]) * qb.w
        return complex(np.sum(qb.c * -np.expm1(-z * T) / z))

    val = -re_a * two_sided(2).real - 2.0 * im_a * two_sided(1).imag
    grid = np.linspace(0.0, orbit.l, 64, endpoint=False)
    m_bound = max(float(np.max(np.abs(qa(grid)))), float(np.max(np.abs(qb(grid)))))
    return val, 3.0 * m_bound ** 2 * math.exp(-T)


def psi_cq(orbit: OrbitData, r: float) -> float:
    """The mixed case's boundary kernel at t = 0 with horizon r, a whole number of
    traversals: the kernel at t = 0 with no y21 term, whatever the number."""
    _check_horizon(orbit, r)
    return second_variation_trace_cq(orbit, 0.0)


def second_variation_trace_cq(orbit: OrbitData, t: float,
                              y21: Callable | None = None) -> float:
    """(1/2) Re y21(t) - 2 Im q_alpha(t) * [e^{+-(t-s)} kernels on Im q_i].

    y21 is caller-supplied opaque data (solution of an elliptic system off this
    module's scope); it defaults to zero. With y21 zero, l times the mean over a
    periodic grid is +d/ds d/du log(top eigenvalue) at s = u = 0 of the monodromy
    of M_CONN + s cubic(q_alpha) + u quadratic(q_i), opposite in sign to the cc kernel.
    """
    im_a = float(np.imag(orbit.sampler("q_alpha")(t)))
    y_term = 0.5 * float(np.real(y21(t))) if y21 is not None else 0.0
    return y_term + 2.0 * im_a * _green(orbit.sampler("q_i"), 1, t).imag


# --------------------------------------------------------------------------
# trace reassembly from variation paths
# --------------------------------------------------------------------------

def reassemble_trace_cc(orbit: OrbitData, t: float, paths=None) -> float:
    """Tr(dD_cubic d_v pi) rebuilt from d_v e_j paths and the frame inverse."""
    return _reassemble(orbit, t, paths, "cubic")


def reassemble_trace_cq(orbit: OrbitData, t: float, paths=None) -> float:
    """Same assembly with quadratic-direction variation paths."""
    return _reassemble(orbit, t, paths, "quadratic")


def _reassemble(orbit: OrbitData, t: float, paths, direction: str) -> float:
    """paths default to the closed-form variations of e_1, e_2, e_3 in direction."""
    if paths is None:
        paths = [variation_ode_closed_form(i, orbit, direction) for i in (1, 2, 3)]
    qt = complex(orbit.sampler("q_alpha")(t))
    dvE = np.array([p.value(t) for p in paths])
    a, e1 = BaseFrame.a_matrix(t), BaseFrame.e(1, t)
    dva = -(a @ dvE @ a)  # d_v a = -a (d_v E) a for the eigenvector row matrix E
    total = qt * (dva[0, 0] * e1[2] + a[0, 0] * dvE[0, 2]) \
        + 4 * np.conj(qt) * (dva[2, 0] * e1[0] + a[2, 0] * dvE[0, 0])
    return float(np.real(total))
