import numpy as np
import pytest

import finitefreq as ff
from finitefreq._rk4 import (half_steps, product, propagate_matrix, propagate_vector, stages,
                             step_matrices, step_offsets)
from finitefreq.reference import example_schedule, example_system

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


def reference_step_matrices(A_stages, h):
    """The RK4 step matrices as stacked @ products over C-ordered stages."""
    F1, F2, F3 = (np.ascontiguousarray(F) for F in A_stages)
    I = np.eye(F1.shape[-1])
    K1 = F1
    K2 = F2 @ (I + 0.5 * h * K1)
    K3 = F2 @ (I + 0.5 * h * K2)
    K4 = F3 @ (I + h * K3)
    return I + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


def reference_step_offsets(A_stages, b_stages, h):
    """The RK4 offsets as einsum matvecs over C-ordered stages."""
    F1, F2, F3 = (np.ascontiguousarray(F) for F in A_stages)
    b1, b2, b3 = (np.ascontiguousarray(b) for b in b_stages)
    k1 = b1
    k2 = np.einsum("tij,tj->ti", F2, 0.5 * h * k1) + b2
    k3 = np.einsum("tij,tj->ti", F2, 0.5 * h * k2) + b2
    k4 = np.einsum("tij,tj->ti", F3, h * k3) + b3
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def example_stages(N):
    """Time-major stage matrices and offsets of the benchmark system along its schedule."""
    sysm = example_system()
    _, ts = half_steps(N * H, H)
    A = stages(sysm.A.batch(example_schedule().p(ts)))
    b = stages(np.asfortranarray(np.cos(ts)[:, None] * sysm.B.constant[:, 0]))
    return A, b


def example_steps(N):
    """RK4 step matrices and offsets of the benchmark system along its schedule."""
    A, b = example_stages(N)
    return step_matrices(A, H), step_offsets(A, b, H)


def test_half_steps_end_at_the_duration():
    for duration, step, N in ((20.0, 1e-3, 20000), (60.0, 1e-3, 60000), (0.0015, 1e-3, 2),
                              (6e-4, 1e-3, 1), (4e-4, 1e-3, 1)):
        h, ts = half_steps(duration, step)
        assert h == duration / N and len(ts) == 2 * N + 1
        assert ts[0] == 0.0 and ts[-1] == pytest.approx(duration, rel=1e-15)
    assert half_steps(20.0, 1e-3)[0] == 1e-3 and half_steps(60.0, 1e-3)[0] == 1e-3
    for bad in ((0.0, 1e-3), (-1.0, 1e-3), (np.nan, 1e-3), (1.0, 0.0), (1.0, np.inf)):
        with pytest.raises(ValueError, match="positive and finite"):
            half_steps(*bad)


def assert_rel_close(got, ref, rel=1e-13):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


# around the scan's block edges: one block of 8 steps, two (15-17), and block counts
# around powers of two (127-129, 1023, 1025, 16383-16385)
LENGTHS = [1, 2, 7, 8, 9, 15, 16, 17, 26, 27, 28, 49, 50, 127, 128, 129, 1000, 1023, 1025,
           16383, 16384, 16385, 60000]


@pytest.mark.parametrize("N", LENGTHS)
def test_propagate_vector_matches_sequential_loop(N):
    M, g = example_steps(N)
    for x0 in (np.zeros(2), np.array([0.7, -1.3])):
        assert_rel_close(propagate_vector(M, g, x0), sequential_vector(M, g, x0))


@pytest.mark.parametrize("N", LENGTHS)
def test_propagate_matrix_matches_sequential_loop(N):
    M, _ = example_steps(N)
    for X0 in (np.eye(2), np.array([[0.3, -2.0], [1.1, 0.4]])):
        assert_rel_close(propagate_matrix(M, X0), sequential_matrix(M, X0))


@pytest.mark.parametrize("N", [1, 2, 3, 49, 50, 1000])
def test_propagate_random_steps_three_states(N):
    rng = np.random.default_rng(N)
    for n in (3, 6):
        M = np.eye(n) + 0.05 * rng.normal(size=(N, n, n))
        g = 0.05 * rng.normal(size=(N, n))
        x0 = rng.normal(size=n)
        assert_rel_close(propagate_vector(M, g, x0), sequential_vector(M, g, x0))
        X0 = rng.normal(size=(n, n))
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


def is_time_major(a):
    return a.strides[0] == a.itemsize


def test_step_data_match_the_stacked_product_formulas():
    A, b = example_stages(20000)
    M, g = step_matrices(A, H), step_offsets(A, b, H)
    assert M.shape == (20000, 2, 2) and g.shape == (20000, 2)
    assert is_time_major(M) and is_time_major(g)
    assert np.abs(M - reference_step_matrices(A, H)).max() <= 1e-15
    assert np.abs(g - reference_step_offsets(A, b, H)).max() <= 1e-15


@pytest.mark.parametrize("N", [1, 50, 60000])
def test_c_ordered_and_time_major_inputs_give_the_same_states(N):
    M, g = example_steps(N)
    Mc, gc = np.ascontiguousarray(M), np.ascontiguousarray(g)
    assert not is_time_major(Mc) or N == 1
    A, b = example_stages(N)
    Ac, bc = (tuple(np.ascontiguousarray(F) for F in S) for S in (A, b))
    assert np.array_equal(step_matrices(Ac, H), M)
    assert np.array_equal(step_offsets(Ac, bc, H), g)
    x0, X0 = np.array([0.7, -1.3]), np.array([[0.3, -2.0], [1.1, 0.4]])
    assert np.array_equal(propagate_vector(Mc, gc, x0), propagate_vector(M, g, x0))
    assert np.array_equal(propagate_matrix(Mc, X0), propagate_matrix(M, X0))


@pytest.mark.parametrize("N", [1, 9, 1000])
def test_propagated_states_are_time_major_with_unchanged_shapes(N):
    M, g = example_steps(N)
    xs, Xs = propagate_vector(M, g, np.zeros(2)), propagate_matrix(M, np.eye(2))
    assert xs.shape == (N + 1, 2) and Xs.shape == (N + 1, 2, 2)
    assert is_time_major(xs) and is_time_major(Xs)


@pytest.mark.parametrize("q", [0, 1, 3])
@pytest.mark.parametrize("r", [None, 1, 3])
def test_product_matches_matmul(q, r):
    rng = np.random.default_rng(4)
    A = rng.normal(size=(500, 2, q))
    X = rng.normal(size=(500, q) if r is None else (500, q, r))
    ref = np.einsum("tij,tj->ti", A, X) if r is None else A @ X
    for Ai, Xi in ((A, X), (np.asfortranarray(A), np.asfortranarray(X))):
        got = product(Ai, Xi)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max(initial=0.0) <= 1e-15 * np.abs(ref).max(initial=0.0)
    assert is_time_major(product(np.asfortranarray(A), np.asfortranarray(X)))
