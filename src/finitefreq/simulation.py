"""Time-domain validation: band-limited inputs, trajectories, realized gain, IQC.

Inputs are sums of cosines.  The scheduling parameter follows one sinusoid,
p(t) = center + amplitude*sin(rate*t + phase), with its exact derivative; a
constant schedule is the zero-amplitude, zero-rate case.  The scalar IQC
functional integrates He([xdot* x*] Psi [xdot; x]) along a simulated
trajectory; its sign is the time-domain witness for band-limited state
behavior that the LMI certificates presuppose.

``simulate`` keeps O(N) data for the whole run of N steps (times, parameter
rows, input, state, x_dot and y) and forms the O(n^2)-per-step data (A and
B on the half-step grid, the RK4 step matrices and offsets, C and D) in one
loop over chunks of about ``_CHUNK_ENTRIES`` stage-matrix entries, so its
working memory grows as O(_CHUNK_ENTRIES + N*(n + m + p + l)), not O(N*n^2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._rk4 import half_steps, product, propagate_vector, stages, step_matrices, step_offsets
from .model import DimensionError, FrequencyRange, LpvSystem, frequency_weight

# stage-matrix entries per chunk: K = max(1, _CHUNK_ENTRIES // n^2) RK4 steps whose stage
# and step matrices are held at once
_CHUNK_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class BandLimitedSignal:
    """Sum of cosines a_i cos(w_i t + phi_i).

    The signal carries no band: each analysis names its own, and
    ``spectrum_fraction`` measures the share of energy inside it.
    """

    components: tuple  # of (amplitude, frequency [rad/s], phase [rad])

    def __post_init__(self):
        comps = tuple((float(a), float(w), float(ph)) for a, w, ph in self.components)
        object.__setattr__(self, "components", comps)
        for i, comp in enumerate(comps):
            for name, v in zip(("amplitude", "frequency", "phase"), comp):
                _check_finite(f"component {i} {name}", v)

    @property
    def max_frequency(self):
        """The largest |w|: cos(w t + phi) oscillates as fast for -w as for w."""
        return max((abs(w) for _, w, _ in self.components), default=0.0)


def _check_finite(name, value):
    """Raise a ValueError naming the field when any entry of value is NaN or infinite."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value}")


def sample_signal(signal: BandLimitedSignal, t):
    """The signal at an array of times t, as an array of t's shape."""
    out = np.zeros(np.shape(t))
    for a, w, ph in signal.components:
        out += a * np.cos(w * t + ph)
    return out


@dataclass(frozen=True)
class ScheduleTrajectory:
    """Scheduling-parameter curve p(t) = center + amplitude*sin(rate*t + phase).

    center and amplitude broadcast against each other to the l parameters,
    and pdot(t) = amplitude*rate*cos(rate*t + phase) is exact.  Both give
    (l,) for a scalar t and (N, l) rows for an array of N times, the layout
    ``AffineMatrixFunction.batch`` takes.
    ``constant(p0)`` is the zero-amplitude, zero-rate case.
    """

    center: np.ndarray
    amplitude: np.ndarray = 0.0
    rate: float = 0.0
    phase: float = 0.0
    box: object = None

    def __post_init__(self):
        for name in ("center", "amplitude", "rate", "phase"):
            _check_finite(name, getattr(self, name))
        center, amplitude = np.broadcast_arrays(np.atleast_1d(np.array(self.center, float)),
                                                np.atleast_1d(np.array(self.amplitude, float)))
        object.__setattr__(self, "center", center.copy())
        object.__setattr__(self, "amplitude", amplitude.copy())
        if self.box is not None and center.size != self.box.nparams:
            raise DimensionError(f"schedule has {center.size} parameters, "
                                 f"the box has {self.box.nparams}")

    @classmethod
    def constant(cls, p0, box=None):
        return cls(p0, box=box)

    @classmethod
    def sinusoid(cls, center, amplitude, rate, phase=0.0, box=None):
        return cls(center, amplitude, rate, phase, box)

    def _angle(self, t):
        """rate*t + phase with a trailing axis that broadcasts against the l parameters."""
        return self.rate * np.asarray(t, dtype=float)[..., None] + self.phase

    def p(self, t):
        return self.center + self.amplitude * np.sin(self._angle(t))

    def pdot(self, t):
        return (self.amplitude * self.rate) * np.cos(self._angle(t))


def warn_if_outside_box(trajectory, P, stacklevel=3):
    """Warn when a row of the sampled parameters P leaves the trajectory's box, if it has one.

    The default stacklevel names the caller's caller.
    """
    box = getattr(trajectory, "box", None)
    if box is not None and not box.contains(P):
        warnings.warn("schedule leaves the parameter box", stacklevel=stacklevel)


@dataclass(frozen=True)
class SimulationResult:
    """Sampled trajectories; x_dot comes from the right-hand side, not differencing.

    Frozen, and its arrays are read as given: the input spectrum and the
    state's quadratic forms are computed on first use and kept.
    """

    times: np.ndarray
    u: np.ndarray       # (N+1, n_inputs)
    x: np.ndarray       # (N+1, n)
    x_dot: np.ndarray   # (N+1, n)
    y: np.ndarray       # (N+1, n_outputs)
    step: float         # the step h actually taken, t_end / N

    @cached_property
    def spectrum(self):
        """The input channel's ``_spectrum``."""
        return _spectrum(self.u[:, 0], self.step)

    @cached_property
    def quadratic_forms(self):
        """Per-sample (xdot.xdot, x.x, xdot.x), shared by the IQC of every band."""
        return (np.einsum("ti,ti->t", self.x_dot, self.x_dot),
                np.einsum("ti,ti->t", self.x, self.x),
                np.einsum("ti,ti->t", self.x_dot, self.x))


def simulate(system: LpvSystem, trajectory: ScheduleTrajectory, signal: BandLimitedSignal,
             t_end: float, step: float = 1e-3) -> SimulationResult:
    """RK4 integration from zero initial state with exact stage evaluations.

    The run takes the N = max(1, round(t_end/step)) steps of h = t_end/N that
    ``half_steps`` gives, so it ends at t_end; a t_end that rounds to no step
    at all raises ValueError.  Times, parameter rows and input are sampled
    once on the half-step grid of all N steps.  One loop over chunks of
    K = max(1, ``_CHUNK_ENTRIES`` // n^2) steps evaluates A and B u on a
    chunk's half-step rows, propagates the state through the chunk, and forms
    x_dot = A x + B u and y = C x + D u from the even rows of the same arrays;
    it raises at the first chunk whose x, x_dot or y is not finite.  Working
    memory is O(_CHUNK_ENTRIES + N*(n + m + p + l)) for n states, m inputs,
    p outputs and l parameters.
    """
    h, ts = half_steps(t_end, step)
    if 2.0 * h <= step:  # round(t_end/step) is 0, so h = t_end is at most half a step
        raise ValueError(f"t_end {t_end} is shorter than one step {step}")
    if 10.0 * h * signal.max_frequency > 1.0:
        warnings.warn("step is coarse for the fastest input component", stacklevel=2)

    N = len(ts) // 2
    P = trajectory.p(ts) if system.nparams else np.zeros((len(ts), 0))
    warn_if_outside_box(trajectory, P)
    u = sample_signal(signal, ts)
    m = system.n_inputs

    # time-major; a chunk's K steps come from its 2K+1 half-step rows, whose
    # strided views are the RK4 stages and whose even rows the step times k0..k1
    xs = np.empty((N + 1, system.n), order="F")
    xs[0] = 0.0
    x_dot = np.empty_like(xs)
    y = np.empty((N + 1, system.n_outputs), order="F")
    U = np.empty((N + 1, m), order="F")
    U[...] = u[::2, None]  # every input carries u
    K = max(1, _CHUNK_ENTRIES // max(1, system.n ** 2))
    for k0 in range(0, N, K):
        k1 = min(k0 + K, N)
        rows, k = slice(2 * k0, 2 * k1 + 1), slice(k0, k1 + 1)
        A = system.A.batch(P[rows])
        Bu = product(system.B.batch(P[rows]), np.tile(u[rows], (m, 1)).T)
        A_stages = stages(A)
        propagate_vector(step_matrices(A_stages, h), step_offsets(A_stages, stages(Bu), h),
                         xs[k0], out=xs[k])
        with np.errstate(over="ignore", invalid="ignore"):
            product(A[::2], xs[k], out=x_dot[k])
            x_dot[k] += Bu[::2]
            product(system.C.batch(P[rows][::2]), xs[k], out=y[k])
            y[k] += product(system.D.batch(P[rows][::2]), U[k])
        if not all(np.isfinite(v[k]).all() for v in (xs, x_dot, y)):
            raise RuntimeError("integration diverged")
    return SimulationResult(ts[::2].copy(), U, xs, x_dot, y, h)


def _cumtrapz(v, h):
    """Running trapezoid integral of samples v at spacing h, zero at the first sample."""
    out = np.zeros_like(v)
    out[1:] = np.cumsum(0.5 * h * (v[1:] + v[:-1]))
    return out


def performance_ratio(result: SimulationResult) -> np.ndarray:
    """Running realized gain sqrt(int |y|^2 / int |u|^2); zero until input energy accrues."""
    eu = np.einsum("ti,ti->t", result.u, result.u)
    ey = np.einsum("ti,ti->t", result.y, result.y)
    Eu, Ey = _cumtrapz(eu, result.step), _cumtrapz(ey, result.step)
    if Eu[-1] <= 0:
        raise ValueError("input energy is zero; realized gain undefined")
    with np.errstate(divide="ignore", invalid="ignore"):
        curve = np.sqrt(np.where(Eu > 0, Ey / np.where(Eu > 0, Eu, 1.0), 0.0))
    return curve


@dataclass
class IqcReport:
    """Running band IQC functional and its sign verdict."""

    s_curve: np.ndarray
    final_value: float
    sign_verdict: str  # 'nonnegative' | 'negative'
    scale: float


def iqc_value(result: SimulationResult, rng: FrequencyRange) -> IqcReport:
    """Integrate He([xdot* x*] Psi [xdot; x]) along the trajectory, Psi the band's weight."""
    psi = frequency_weight(rng)
    dd, xx, dx = result.quadratic_forms
    p00, p01, p11 = psi[0, 0], psi[0, 1], psi[1, 1]
    integrand = 2.0 * (np.real(p00) * dd + np.real(p11) * xx + 2.0 * np.real(p01) * dx)
    s = _cumtrapz(integrand, result.step)
    absint = 2.0 * (abs(p00) * dd + abs(p11) * xx + 2.0 * abs(p01) * np.abs(dx))
    scale = float(np.trapezoid(absint, dx=result.step))
    final = float(s[-1])
    verdict = "nonnegative" if final >= -1e-9 * max(scale, 1.0) else "negative"
    return IqcReport(s, final, verdict, scale)


def spectrum_fraction(result: SimulationResult, rng: FrequencyRange) -> float:
    """Fraction of the input's (Hann-windowed) spectral energy inside the band, in [0, 1].

    The result keeps its spectrum for further bands.  A signal without
    windowed energy is vacuously band limited (1.0).
    """
    if result.spectrum is None:
        return 1.0
    f, energy = result.spectrum
    mask = (rng.lo <= f) & (f <= rng.hi)  # FrequencyRange.contains, edges included
    return float(energy[mask].sum() / energy.sum())


def _spectrum(u, step):
    """(|angular frequency|, Hann-windowed energy) per rfft bin of u.

    The symmetric Hann window's last weight is 0, so the transform takes the
    first M-1 windowed samples: a periodic Hann window over the run, with
    bins at 2 pi k / ((M-1) step).  None when the windowed signal has no
    energy: u is zero, or has fewer than three samples (a run of one step),
    where the window vanishes.
    """
    if u.size < 2:
        return None
    energy = np.abs(np.fft.rfft(u[:-1] * _hann_head(u.size))) ** 2
    if not np.any(energy):
        return None
    return np.abs(2.0 * np.pi * np.fft.rfftfreq(u.size - 1, d=step)), energy


@lru_cache(maxsize=1)
def _hann_head(size):
    """``np.hanning(size)`` without its last weight, read-only; kept for runs of one length."""
    w = np.hanning(size)[:-1]
    w.flags.writeable = False
    return w
