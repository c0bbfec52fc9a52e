"""Time-domain validation: band-limited inputs, trajectories, realized gain, IQC.

Inputs are sums of cosines.  The scheduling parameter follows one sinusoid,
p(t) = center + amplitude*sin(rate*t + phase), with its exact derivative; a
constant schedule is the zero-amplitude, zero-rate case.  The scalar IQC
functional integrates He([xdot* x*] Psi [xdot; x]) along a simulated
trajectory; its sign is the time-domain witness for band-limited state
behavior that the LMI certificates presuppose.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._rk4 import half_steps, product, propagate_vector, stages, step_matrices, step_offsets
from .model import DimensionError, FrequencyRange, LpvSystem, frequency_weight


@dataclass(frozen=True)
class BandLimitedSignal:
    """Sum of cosines a_i cos(w_i t + phi_i), optionally discounted by e^{-lam t}.

    Zero for t < 0.  A nonzero discount must stay well below the slowest
    component.  The signal carries no band: each analysis names its own, and
    ``spectrum_fraction`` measures the share of energy inside it.
    """

    components: tuple  # of (amplitude, frequency [rad/s], phase [rad])
    discount_lambda: float = 0.0

    def __post_init__(self):
        comps = tuple((float(a), float(w), float(ph)) for a, w, ph in self.components)
        object.__setattr__(self, "components", comps)
        for i, comp in enumerate(comps):
            for name, v in zip(("amplitude", "frequency", "phase"), comp):
                _check_finite(f"component {i} {name}", v)
        _check_finite("discount", self.discount_lambda)
        if self.discount_lambda < 0:
            raise ValueError("discount must be nonnegative")
        if self.discount_lambda > 0 and comps:
            wmin = min(w for _, w, _ in comps if w > 0) if any(w > 0 for _, w, _ in comps) else np.inf
            if self.discount_lambda >= wmin / 10.0:
                raise ValueError("discount must stay below the slowest component / 10")

    @property
    def max_frequency(self):
        return max((w for _, w, _ in self.components), default=0.0)


def _check_finite(name, value):
    """Raise a ValueError naming the field when any entry of value is NaN or infinite."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value}")


def sample_signal(signal: BandLimitedSignal, t):
    """Evaluate the signal; scalar in, scalar out; array in, array out."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for a, w, ph in signal.components:
        out = out + a * np.cos(w * t + ph)
    if signal.discount_lambda > 0:
        out = out * np.exp(-signal.discount_lambda * t)
    out = np.where(t < 0, 0.0, out)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ScheduleTrajectory:
    """Scheduling-parameter curve p(t) = center + amplitude*sin(rate*t + phase).

    center and amplitude broadcast against each other to the l parameters,
    and pdot(t) = amplitude*rate*cos(rate*t + phase) is exact with p's shape.
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

    def _along(self, t, curve):
        """curve(rate*t + phase) as (l,) for a scalar t, (l, N) for an array of N times."""
        t = np.asarray(t, dtype=float)
        out = curve((self.rate * np.atleast_1d(t) + self.phase)[None, :])
        return out if t.ndim else out[:, 0]

    def p(self, t):
        return self._along(t, lambda s: self.center[:, None] + self.amplitude[:, None] * np.sin(s))

    def pdot(self, t):
        return self._along(t, lambda s: (self.amplitude * self.rate)[:, None] * np.cos(s))


def param_rows(f, ts) -> np.ndarray:
    """A schedule's p or pdot sampled at the times ts, as (len(ts), l) rows."""
    return np.atleast_2d(np.asarray(f(ts), dtype=float).T).reshape(len(ts), -1)


def warn_if_outside_box(trajectory, P):
    """Warn when a row of the sampled parameters P leaves the trajectory's box, if it has one."""
    box = getattr(trajectory, "box", None)
    if box is not None and not box.contains(P):
        warnings.warn("schedule leaves the parameter box", stacklevel=3)


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
    step: float

    @cached_property
    def spectrum(self):
        """The input channel's ``_spectrum``."""
        return _spectrum(self.u[:, 0] if self.u.ndim > 1 else self.u, self.step)

    @cached_property
    def quadratic_forms(self):
        """Per-sample (xdot.xdot, x.x, xdot.x), shared by the IQC of every band."""
        return (np.einsum("ti,ti->t", self.x_dot, self.x_dot),
                np.einsum("ti,ti->t", self.x, self.x),
                np.einsum("ti,ti->t", self.x_dot, self.x))


def simulate(system: LpvSystem, trajectory: ScheduleTrajectory, signal: BandLimitedSignal,
             t_end: float, step: float = 1e-3) -> SimulationResult:
    """RK4 integration from zero initial state with exact stage evaluations."""
    if not (np.isfinite(step) and np.isfinite(t_end) and step > 0 and t_end > 0):
        raise ValueError(f"step and t_end must be positive and finite, got {step} and {t_end}")
    wmax = signal.max_frequency
    if wmax > 0 and step > 1.0 / (10.0 * wmax):
        warnings.warn("step is coarse for the fastest input component", stacklevel=2)

    N = int(round(t_end / step))
    if N < 1:
        raise ValueError(f"t_end {t_end} is shorter than one step {step}")
    ts = half_steps(step, N)
    P = param_rows(trajectory.p, ts) if system.nparams else np.zeros((len(ts), 0))
    warn_if_outside_box(trajectory, P)

    # every time-dependent quantity once on the half-step grid, time-major;
    # the RK4 stages are strided views of it and the outputs use its even rows
    A, B = system.A.batch(P), system.B.batch(P)
    u = np.atleast_1d(sample_signal(signal, ts))
    U = np.tile(u, (system.n_inputs, 1)).T  # every input channel carries u
    A_stages = stages(A)
    M = step_matrices(A_stages, step)
    g = step_offsets(A_stages, stages(product(B, U)), step)
    xs = propagate_vector(M, g, np.zeros(system.n))
    if not np.all(np.isfinite(xs)):
        raise RuntimeError("integration diverged")

    P, A, B, U = P[::2], A[::2], B[::2], U[::2]
    C, D = system.C.batch(P), system.D.batch(P)
    x_dot = product(A, xs) + product(B, U)
    y = product(C, xs) + product(D, U)
    return SimulationResult(ts[::2], U, xs, x_dot, y, step)


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
    range: FrequencyRange
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
    return IqcReport(s, final, verdict, rng, scale)


def spectrum_fraction(data, rng: FrequencyRange, step: float = None) -> float:
    """Fraction of (Hann-windowed) spectral energy inside the band, in [0, 1].

    Accepts a SimulationResult (uses its input channel, whose spectrum is
    kept for further bands) or a uniformly sampled array with ``step``.  A
    signal without windowed energy is vacuously band limited (1.0).
    """
    if isinstance(data, SimulationResult):
        spectrum = data.spectrum
    elif step is None:
        raise ValueError("step required for raw sample arrays")
    else:
        spectrum = _spectrum(np.asarray(data, dtype=float), step)
    if spectrum is None:
        return 1.0  # vacuously band limited
    f, energy = spectrum
    mask = (rng.lo <= f) & (f <= rng.hi)  # FrequencyRange.contains, edges included
    return float(energy[mask].sum() / energy.sum())


def _spectrum(u, step):
    """(|angular frequency|, Hann-windowed energy) per rfft bin of u.

    None when the windowed signal has no energy: u is zero, or nonzero only
    at the ends, where the window vanishes (every run of one step).
    """
    energy = np.abs(np.fft.rfft(u * np.hanning(u.size))) ** 2
    if not np.any(energy):
        return None
    return np.abs(2.0 * np.pi * np.fft.rfftfreq(u.size, d=step)), energy
