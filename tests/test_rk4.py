import numpy as np
import pytest

import finitefreq as ff
from finitefreq._rk4 import (half_steps, propagate_matrix, propagate_vector, stages,
                             step_matrices, step_offsets)
from finitefreq.reference import example_schedule, example_system
from finitefreq.simulation import param_rows

H = 1e-3


def sequential_vector(M, g, x0):
    """Reference: the plain one-step-at-a-time affine recurrence."""
    out = np.empty((M.shape[0] + 1, x0.size))
    x = np.array(x0, dtype=float)
    out[0] = x
    for k in range(M.shape[0]):
        x = M[k] @ x + g[k]
        out[k + 1] = x
    return out


def sequential_matrix(M, X0):
    out = np.empty((M.shape[0] + 1,) + X0.shape)
    X = np.array(X0, dtype=float)
    out[0] = X
    for k in range(M.shape[0]):
        X = M[k] @ X
        out[k + 1] = X
    return out


def example_steps(N):
    """RK4 step matrices and offsets of the benchmark system along its schedule."""
    sysm = example_system()
    ts = half_steps(H, N)
    A = stages(sysm.A.batch(param_rows(example_schedule().p, ts)))
    b = stages(np.cos(ts)[:, None] * sysm.B.constant[:, 0])
    return step_matrices(A, H), step_offsets(A, b, H)


def assert_rel_close(got, ref, rel=1e-13):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


@pytest.mark.parametrize("N", [1, 2, 49, 50, 60000])
def test_propagate_vector_matches_sequential_loop(N):
    M, g = example_steps(N)
    for x0 in (np.zeros(2), np.array([0.7, -1.3])):
        assert_rel_close(propagate_vector(M, g, x0), sequential_vector(M, g, x0))


@pytest.mark.parametrize("N", [1, 2, 49, 50, 60000])
def test_propagate_matrix_matches_sequential_loop(N):
    M, _ = example_steps(N)
    for X0 in (np.eye(2), np.array([[0.3, -2.0], [1.1, 0.4]])):
        assert_rel_close(propagate_matrix(M, X0), sequential_matrix(M, X0))


@pytest.mark.parametrize("N", [1, 2, 3, 49, 50, 1000])
def test_propagate_random_steps_three_states(N):
    rng = np.random.default_rng(N)
    M = np.eye(3) + 0.05 * rng.normal(size=(N, 3, 3))
    g = 0.05 * rng.normal(size=(N, 3))
    x0 = rng.normal(size=3)
    assert_rel_close(propagate_vector(M, g, x0), sequential_vector(M, g, x0))
    X0 = rng.normal(size=(3, 3))
    assert_rel_close(propagate_matrix(M, X0), sequential_matrix(M, X0))


def test_unstable_run_still_reports_divergence():
    # xdot = 50 x + u grows like e^{50 t}: past float range well before t = 20
    sysm = ff.LpvSystem.lti([[50.0]], [[1.0]], [[1.0]], [[0.0]])
    traj = ff.ScheduleTrajectory.constant(np.zeros(0))
    sig = ff.BandLimitedSignal(((1.0, 1.0, 0.0),))
    with pytest.raises(RuntimeError, match="integration diverged"):
        ff.simulate(sysm, traj, sig, 20.0, H)
    M = np.full((20000, 1, 1), np.exp(50.0 * H))
    xs = propagate_vector(M, np.zeros((20000, 1)), np.ones(1))
    assert not np.all(np.isfinite(xs))
