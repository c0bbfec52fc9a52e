"""The shipped two-state benchmark example and its reference values.

``example_system`` is the parameter-varying benchmark used across the test
suite and by the ``reproduce`` command.  REFERENCE holds the published
reference values for it together with the relative tolerance band each one is
held to; a band of None marks values reported for information only.
"""

from __future__ import annotations

from .model import AffineMatrixFunction, FrequencyRange, LpvSystem, ParameterBox
from .simulation import BandLimitedSignal, ScheduleTrajectory


def example_system() -> LpvSystem:
    """Two-state, one-parameter benchmark system in affine form."""
    return LpvSystem(
        A=AffineMatrixFunction([[-8.6329, -6.5229], [-1.2735, -9.4779]],
                               ([[-2.5827, 7.1275], [7.8186, -1.9513]],)),
        B=AffineMatrixFunction([[-19.6836], [16.7629]], ([[-3.7921], [8.0760]],)),
        C=AffineMatrixFunction([[-1.5715, 1.5934]], ([[4.2725, -4.3798]],)),
        D=AffineMatrixFunction([[-4.6104]], ([[1.8747]],)),
        box=ParameterBox([0.1], [0.2], [0.4], [0.6]),
    )


def example_band() -> FrequencyRange:
    return FrequencyRange.low(1.0)


def example_signal() -> BandLimitedSignal:
    """u(t) = cos(t+8) + cos(t+10) + cos(t+20): unit-frequency cosines."""
    return BandLimitedSignal(((1.0, 1.0, 8.0), (1.0, 1.0, 10.0), (1.0, 1.0, 20.0)))


def example_schedule() -> ScheduleTrajectory:
    """Default schedule p(t) = 0.15 + 0.05 sin(4t).

    Stays inside [0.1, 0.2] with |pdot| <= 0.2.  The stored rate box [0.4, 0.6]
    admits no schedule that also stays inside the parameter box for more than
    a quarter second, so simulations use this feasible curve while the LMI and
    bound computations keep the stored box.
    """
    sys = example_system()
    return ScheduleTrajectory.sinusoid([0.15], [0.05], 4.0, box=sys.box)


# (reference value, relative tolerance band or None (= informational))
REFERENCE = {
    "gap_squared": (164.62, 0.02),
    "rho_unif": (12.8306, 0.01),
    "trace_w_p": (0.4858, None),
    "trace_bound_1": (0.075351, 0.10),
    "trace_bound_2": (0.026327, 0.10),
    "delta_squared": (34.4624, 0.005),
    "enlarged_edge": (5.955, 0.001),
    "gamma_lpv_ff_low1": (3.7767, 0.05),
    "gamma_lpv_ef": (5.2445, 0.05),
    "gamma_theorem2_enlarged": (5.0313, 0.05),
    "uas_c": ((0.5, 0.6, 7.4), None),
}


def check_band(name, computed):
    """(reference, band, passed?) for a named reference quantity."""
    ref, band = REFERENCE[name]
    if band is None:
        return ref, None, None
    ok = abs(computed - ref) <= band * abs(ref)
    return ref, band, bool(ok)
