import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import finitefreq as ff
from finitefreq.reference import (example_band, example_schedule, example_signal,
                                  example_system)

settings.register_profile(
    "fast", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
settings.load_profile("fast")


@pytest.fixture(scope="session")
def benchmark_system():
    return example_system()


@pytest.fixture(scope="session")
def benchmark_band():
    return example_band()


@pytest.fixture(scope="session")
def benchmark_run():
    """One shared 60 s simulation of the benchmark configuration."""
    result = ff.simulate(example_system(), example_schedule(), example_signal(),
                         60.0, 1e-3)
    return result


def input_result(u, step):
    """A SimulationResult of one input channel u sampled at spacing step, and no states."""
    u = np.asarray(u, dtype=float)[:, None]
    none = np.zeros((len(u), 0))
    return ff.SimulationResult(step * np.arange(len(u)), u, none, none, none, step)


def random_stable_lti(rng, n=2, m=1, q=1, d_scale=0.3, min_decay=0.3):
    """Random strictly stable LTI system with well-scaled data."""
    while True:
        A = rng.normal(size=(n, n))
        A = A - (max(np.linalg.eigvals(A).real.max(), -min_decay) + 0.7) * np.eye(n)
        if np.linalg.eigvals(A).real.max() < -min_decay:
            break
    B = rng.normal(size=(n, m))
    C = rng.normal(size=(q, n))
    D = d_scale * rng.normal(size=(q, m))
    return A, B, C, D


def inband_sup(A, B, C, D, band, ngrid=2001):
    """Brute-force supremum of the largest singular value over the band grid."""
    if band.kind == "entire":
        ws = np.concatenate([np.linspace(0.0, 50.0, ngrid), [1e6]])
    elif band.kind == "high":
        ws = np.concatenate([np.linspace(band.lo, 50.0 * band.lo, ngrid),
                             [1e7 * band.lo]])
    elif band.kind == "middle":
        ws = np.linspace(band.lo, band.hi, ngrid)
    else:
        ws = np.linspace(0.0, band.hi, ngrid)
    n = A.shape[0]
    s = 0.0
    for w in ws:
        G = C @ np.linalg.solve(1j * w * np.eye(n) - A, B) + D
        s = max(s, np.linalg.svd(G, compute_uv=False)[0])
    return s


def three_state_two_input_system():
    """n = 3 states, 2 inputs, 2 scheduling parameters; Hurwitz over the box."""
    rng = np.random.default_rng(17)
    A0 = -2.0 * np.eye(3) + 0.4 * rng.normal(size=(3, 3))
    sysm = ff.LpvSystem(
        A=ff.AffineMatrixFunction(A0, tuple(0.5 * rng.normal(size=(3, 3)) for _ in range(2))),
        B=ff.AffineMatrixFunction(rng.normal(size=(3, 2)),
                                  tuple(rng.normal(size=(3, 2)) for _ in range(2))),
        C=ff.AffineMatrixFunction(rng.normal(size=(1, 3)), (np.zeros((1, 3)),) * 2),
        D=ff.AffineMatrixFunction(np.zeros((1, 2)), (np.zeros((1, 2)),) * 2),
        box=ff.ParameterBox([-0.5, -0.5], [0.5, 0.5], [-2.0, -2.0], [2.0, 2.0]),
    )
    traj = ff.ScheduleTrajectory.sinusoid([0.1, -0.2], [0.3, 0.2], 2.0, 0.4, box=sysm.box)
    return sysm, traj
