import importlib
import inspect
import itertools
import pkgutil
import re

import numpy as np
import pytest
import scipy.linalg

import finitefreq as ff
from finitefreq.reference import example_band, example_schedule
from finitefreq._rk4 import half_steps
from finitefreq import gramians, lmi
from finitefreq.gramians import _band_nodes, _drift_sups, _gauss_legendre
from finitefreq.model import gram_peak
from conftest import random_stable_lti, three_state_two_input_system
from test_lmi import _decay_min_eigs
from test_simulation import seeded_system

LOW1 = ff.FrequencyRange.low(1.0)


def lti_gramian(A, B, rng, quad_nodes=201, classical=False):
    """Band Gramian of a fixed (A, B) pair: the frozen Gramian of the LTI system."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    sysm = ff.LpvSystem.lti(A, B, np.zeros((1, len(A))), np.zeros((1, B.shape[1])))
    W = ff.gramian_lpv_frozen(sysm, [], rng, quad_nodes)
    return W / (2.0 * np.pi) if classical else W


def test_scalar_band_gramian_is_arctan_integral():
    # int_{-1}^{1} dw / (1 + w^2) = pi/2
    W = lti_gramian([[-1.0]], [[1.0]], LOW1)
    assert W[0, 0] == pytest.approx(np.pi / 2.0, abs=1e-6)


def test_zero_input_matrix_gives_zero_gramian():
    W = lti_gramian([[-1.0, 0.5], [0.0, -2.0]], np.zeros((2, 1)), LOW1)
    assert np.allclose(W, 0.0)


def test_wide_band_classical_limit_matches_lyapunov():
    A = np.array([[-1.0]])
    B = np.array([[1.0]])
    W = lti_gramian(A, B, ff.FrequencyRange.low(100.0), quad_nodes=801, classical=True)
    X = scipy.linalg.solve_lyapunov(A, -B @ B.T)
    assert W[0, 0] == pytest.approx(X[0, 0], rel=0.01)


def test_quadrature_richardson_convergence(benchmark_system):
    t1 = np.trace(ff.gramian_lpv_frozen(benchmark_system, [0.15], LOW1, quad_nodes=201))
    t2 = np.trace(ff.gramian_lpv_frozen(benchmark_system, [0.15], LOW1, quad_nodes=402))
    assert abs(t2 - t1) <= 1e-6 * abs(t1)


def test_frozen_benchmark_trace_regression(benchmark_system):
    tr = np.trace(ff.gramian_lpv_frozen(benchmark_system, [0.15], LOW1))
    assert tr == pytest.approx(29.690378, rel=1e-5)
    grid_min = min(np.trace(ff.gramian_lpv_frozen(benchmark_system, p, LOW1, 101))
                   for p in benchmark_system.box.p_grid(11))
    assert grid_min == pytest.approx(26.844868, rel=1e-4)


def test_frozen_zero_coefficients_equals_lti(benchmark_system):
    A, B, _, _ = benchmark_system.frozen([0.12])
    lti = lti_gramian(A, B, LOW1)
    frozen = ff.gramian_lpv_frozen(benchmark_system, [0.12], LOW1)
    assert np.allclose(lti, frozen, atol=1e-12)


def test_gramian_psd_symmetric_monotone_on_random_draws():
    rng = np.random.default_rng(17)
    inner = ff.FrequencyRange.low(0.7)
    outer = ff.FrequencyRange.low(2.0)
    for _ in range(50):
        A, B, _, _ = random_stable_lti(rng)
        Wi = lti_gramian(A, B, inner, quad_nodes=101)
        Wo = lti_gramian(A, B, outer, quad_nodes=101)
        for W in (Wi, Wo):
            assert np.allclose(W, W.T, atol=1e-10)
            assert np.linalg.eigvalsh(W).min() >= -1e-8 * np.trace(W)
        # larger band dominates in the semidefinite order
        assert np.linalg.eigvalsh(Wo - Wi).min() >= -1e-8 * np.trace(Wo)
        assert np.trace(Wo) >= np.trace(Wi)


def test_high_and_entire_band_quadrature():
    A = np.array([[-1.0]])
    B = np.array([[1.0]])
    # int_{|w|>=1} dw/(1+w^2) = pi/2;  whole axis: pi
    Wh = lti_gramian(A, B, ff.FrequencyRange.high(1.0), quad_nodes=401)
    assert Wh[0, 0] == pytest.approx(np.pi / 2.0, rel=1e-8)
    We = lti_gramian(A, B, ff.FrequencyRange.entire(), quad_nodes=401)
    assert We[0, 0] == pytest.approx(np.pi, rel=1e-8)
    Wm = lti_gramian(A, B, ff.FrequencyRange.middle(1.0, 3.0), quad_nodes=201)
    assert Wm[0, 0] == pytest.approx(2.0 * (np.arctan(3.0) - np.arctan(1.0)), rel=1e-10)


def test_state_transition_scalar_exponential():
    sys = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    traj = ff.ScheduleTrajectory.constant(np.zeros(0))
    phi = ff.state_transition(sys, traj, 1.0, 1e-3)
    assert phi.shape == (1001, 1, 1)
    assert phi[0][0, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)  # Phi(1, 0)
    assert phi[-1][0, 0] == 1.0  # Phi(1, 1)
    phi0 = ff.state_transition(sys, traj, 0.0, 1e-3)
    assert phi0.shape == (1, 1, 1) and np.allclose(phi0[0], np.eye(1))


@pytest.mark.parametrize("t_end", [-1.0, np.nan, np.inf])
def test_state_transition_rejects_a_duration_that_is_negative_or_not_finite(benchmark_system,
                                                                            t_end):
    with pytest.raises(ValueError, match="positive and finite"):
        ff.state_transition(benchmark_system, example_schedule(), t_end, 1e-3)


def test_state_transition_frozen_matches_expm(benchmark_system):
    traj = ff.ScheduleTrajectory.constant([0.15], box=benchmark_system.box)
    phi = ff.state_transition(benchmark_system, traj, 1.0, 1e-3)
    A = benchmark_system.A([0.15])
    # row k is Phi(1, k h) = expm(A (1 - k h)), and the last row the identity exactly
    assert np.abs(phi[0] - scipy.linalg.expm(A)).max() <= 1e-6
    assert np.abs(phi[600] - scipy.linalg.expm(0.4 * A)).max() <= 1e-6
    assert np.array_equal(phi[-1], np.eye(2))


def test_state_transition_warns_outside_box(benchmark_system):
    traj = ff.ScheduleTrajectory.constant([0.5], box=benchmark_system.box)
    with pytest.warns(UserWarning, match="parameter box"):
        ff.state_transition(benchmark_system, traj, 0.1, 1e-3)


def test_weighted_gramian_t0_is_inner_integral(benchmark_system):
    sched = example_schedule()
    W0 = ff.gramian_lpv_weighted(benchmark_system, sched, 0.0, LOW1)
    inner = ff.gramian_lpv_frozen(benchmark_system, sched.p(0.0), LOW1)
    assert np.allclose(W0, inner, atol=1e-9)


def test_weighted_gramian_decays_for_decaying_system(benchmark_system):
    sched = example_schedule()
    W20 = ff.gramian_lpv_weighted(benchmark_system, sched, 20.0, LOW1, quad_nodes=101)
    Wp = ff.gramian_lpv_frozen(benchmark_system, sched.p(20.0), LOW1, quad_nodes=101)
    assert np.trace(W20) <= 1e-6 * np.trace(Wp)


def test_weighted_gramian_lti_specialization():
    A = np.array([[-1.0, 0.3], [0.0, -2.0]])
    B = np.array([[1.0], [0.5]])
    sys = ff.LpvSystem.lti(A, B, np.zeros((1, 2)), np.zeros((1, 1)))
    traj = ff.ScheduleTrajectory.constant(np.zeros(0))
    t = 0.8
    W = ff.gramian_lpv_weighted(sys, traj, t, LOW1, quad_nodes=101, step=1e-4)
    E = scipy.linalg.expm(A * t)
    target = E @ lti_gramian(A, B, LOW1, quad_nodes=101) @ E.T
    assert np.allclose(W, target, atol=1e-6 * np.trace(target))


def test_shifted_gramian_zero_for_lti():
    A = np.array([[-1.0, 0.3], [0.0, -2.0]])
    B = np.array([[1.0], [0.5]])
    sys = ff.LpvSystem.lti(A, B, np.zeros((1, 2)), np.zeros((1, 1)))
    traj = ff.ScheduleTrajectory.constant(np.zeros(0))
    W1, W2 = ff.gramian_lpv_shifted(sys, traj, 2.0, LOW1, quad_nodes=51, step=1e-3)
    assert np.allclose(W1, 0.0, atol=1e-12) and np.allclose(W2, 0.0, atol=1e-12)


def test_shifted_gramian_zero_for_frozen_schedule(benchmark_system):
    traj = ff.ScheduleTrajectory.constant([0.15], box=benchmark_system.box)
    W1, W2 = ff.gramian_lpv_shifted(benchmark_system, traj, 2.0, LOW1,
                                    quad_nodes=51, step=1e-3)
    assert np.allclose(W1, 0.0, atol=1e-12) and np.allclose(W2, 0.0, atol=1e-12)


def test_shifted_gramian_benchmark_regression(benchmark_system):
    sched = example_schedule()
    W1, W2 = ff.gramian_lpv_shifted(benchmark_system, sched, 20.0, LOW1,
                                    quad_nodes=201, step=1e-3)
    assert np.trace(W1) == pytest.approx(0.015527, rel=1e-3)
    assert np.trace(W2) == pytest.approx(0.000870, rel=2e-3)
    for W in (W1, W2):
        assert np.allclose(W, W.T, atol=1e-10)
        assert np.linalg.eigvalsh(W).min() >= -1e-8 * np.trace(W)


def test_trace_bound_dominates_quadrature(benchmark_system, benchmark_band):
    cert = ff.uas_certificate(benchmark_system, 7.4, 0.5, 0.6)
    assert _decay_min_eigs(benchmark_system, cert).min() >= 0.0
    bound = ff.shifted_trace_bound(benchmark_system, benchmark_band, cert)
    W1, W2 = ff.gramian_lpv_shifted(benchmark_system, example_schedule(), 20.0,
                                    benchmark_band, quad_nodes=101)
    assert np.trace(W1) <= 1.05 * bound.bound_1
    assert np.trace(W2) <= 1.05 * bound.bound_2


def test_trace_bound_benchmark_values(benchmark_system, benchmark_band):
    cert = ff.uas_certificate(benchmark_system, 7.4, 0.5, 0.6)
    assert _decay_min_eigs(benchmark_system, cert).min() >= 0.0
    bound = ff.shifted_trace_bound(benchmark_system, benchmark_band, cert)
    # regressions for this implementation: the grid sups behind the bounds
    m1, m2 = _drift_sups(benchmark_system, benchmark_band)
    assert m1 == pytest.approx(16.614, rel=1e-3)
    assert m2 == pytest.approx(0.6466, rel=1e-3)
    assert bound.bound_1 == pytest.approx(0.629131, rel=1e-3)
    assert bound.bound_2 == pytest.approx(0.024483, rel=1e-3)


def test_trace_bound_zero_for_lti():
    sys = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    bound = ff.shifted_trace_bound(sys, LOW1)
    assert bound.bound_1 == 0.0 and bound.bound_2 == 0.0


def test_trace_bound_requires_certificate(benchmark_system, benchmark_band):
    with pytest.raises(ValueError, match="certificate"):
        ff.shifted_trace_bound(benchmark_system, benchmark_band, None)


def test_trace_bound_rate_box_scaling(benchmark_system, benchmark_band):
    cert = ff.uas_certificate(benchmark_system, 7.4, 0.5, 0.6)
    assert _decay_min_eigs(benchmark_system, cert).min() >= 0.0
    b1 = ff.shifted_trace_bound(benchmark_system, benchmark_band, cert)
    doubled = ff.LpvSystem(
        benchmark_system.A, benchmark_system.B, benchmark_system.C, benchmark_system.D,
        ff.ParameterBox([0.1], [0.2], [0.8], [1.2]))
    b2 = ff.shifted_trace_bound(doubled, benchmark_band, cert)
    # the input-drift integrand enters squared in the rate
    assert b2.bound_2 == pytest.approx(4.0 * b1.bound_2, rel=1e-9)
    assert b2.bound_1 == pytest.approx(b1.bound_1, rel=1e-9)


def test_time_average_state_covariance_approaches_gramian():
    # dense multisine on [0, 1] with |a_i|^2 = 2*dw and horizon 2*pi/dw:
    # every cross term integrates to zero exactly, so the time average of
    # x x^T approaches W(band)/2 up to the O(1/T) transient
    M = 32
    dw = 1.0 / M
    freqs = (np.arange(M) + 0.5) * dw
    rng = np.random.default_rng(4)
    comps = tuple((np.sqrt(2.0 * dw), f, ph)
                  for f, ph in zip(freqs, rng.uniform(0, 2 * np.pi, M)))
    signal = ff.BandLimitedSignal(comps)
    sys = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    traj = ff.ScheduleTrajectory.constant(np.zeros(0))
    T = 2.0 * np.pi / dw  # about 201 s
    res = ff.simulate(sys, traj, signal, T, 2e-3)
    avg = np.trapezoid(res.x[:, 0] ** 2, dx=res.step) / res.times[-1]
    W = lti_gramian([[-1.0]], [[1.0]], LOW1)[0, 0]
    assert 2.0 * avg == pytest.approx(W, rel=0.02)


def test_gramian_set_bundle(benchmark_system):
    gs = ff.gramian_set(benchmark_system, example_schedule(), 5.0, LOW1,
                        quad_nodes=51, step=2e-3)
    assert sorted(gs) == ["W_dot_p_1", "W_dot_p_2", "W_hat_p", "W_p"]
    tr = {k: np.trace(W) for k, W in gs.items()}
    assert tr["W_p"] > 0 and tr["W_dot_p_1"] >= 0 and tr["W_dot_p_2"] >= 0
    # W_p is the frozen Gramian at p(5), the time the set was asked for
    frozen = ff.gramian_lpv_frozen(benchmark_system, example_schedule().p(5.0), LOW1, 51)
    assert np.array_equal(gs["W_p"], frozen)


def test_gramian_set_is_one_pass_along_the_schedule(benchmark_system, monkeypatch):
    sched, t = example_schedule(), 2.0
    runs, solves = [], []
    transition, resolve = gramians.state_transition, gramians._resolvent
    monkeypatch.setattr(gramians, "state_transition", lambda *a: runs.append(a) or transition(*a))
    monkeypatch.setattr(gramians, "_resolvent",
                        lambda A, X, om: solves.append((A, X)) or resolve(A, X, om))
    gs = ff.gramian_set(benchmark_system, sched, t, LOW1, quad_nodes=51)
    assert len(runs) == 1
    # W_p's own solve at (A(p(t)), B(p(t))), then one with X = I for W_hat_p and the drift pair
    A_t, B_t = benchmark_system.A(sched.p(t)), benchmark_system.B(sched.p(t))
    assert len(solves) == 2
    assert all(np.array_equal(np.reshape(A, A_t.shape), A_t) for A, _ in solves)
    assert np.array_equal(solves[0][1][0], B_t) and np.array_equal(solves[1][1], np.eye(2))
    monkeypatch.undo()
    W_hat = ff.gramian_lpv_weighted(benchmark_system, sched, t, LOW1, quad_nodes=51)
    W1, W2 = ff.gramian_lpv_shifted(benchmark_system, sched, t, LOW1, quad_nodes=51)
    assert np.array_equal(W_hat, gs["W_hat_p"])
    assert np.array_equal(W1, gs["W_dot_p_1"]) and np.array_equal(W2, gs["W_dot_p_2"])


def test_no_library_signature_takes_a_normalization_option():
    # the 1/(2 pi) convention is applied once, by the gramians command
    for info in pkgutil.iter_modules(ff.__path__):
        module = importlib.import_module(f"finitefreq.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                assert "classical" not in inspect.signature(obj).parameters, name


@pytest.mark.parametrize("t, tol", [(0.5004, {"W_p": 0.0, "W_hat_p": 1e-4, "W_dot_p_1": 1e-4,
                                              "W_dot_p_2": 1e-4}),
                                    (0.0004, {"W_p": 0.0, "W_hat_p": 1e-9, "W_dot_p_1": 1e-2,
                                              "W_dot_p_2": 1e-2})])
def test_gramian_set_off_the_step_grid_is_taken_at_t(benchmark_system, t, tol):
    # t is no multiple of the default step 1e-3; t/400 divides it
    got = ff.gramian_set(benchmark_system, example_schedule(), t, LOW1, quad_nodes=51)
    ref = ff.gramian_set(benchmark_system, example_schedule(), t, LOW1, quad_nodes=51,
                         step=t / 400)
    for k, R in ref.items():
        assert np.abs(got[k] - R).max() <= tol[k] * np.abs(R).max(), k


@pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
def test_gramian_set_rejects_a_time_that_is_negative_or_not_finite(benchmark_system, t):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        ff.gramian_set(benchmark_system, example_schedule(), t, LOW1)


def shifted_reference(system, trajectory, t, rng, quad_nodes, step):
    """Reference: the per-node quadrature, one resolvent and four tau-sums per node."""
    h, ts = half_steps(t, step)
    taus = ts[::2]
    N = len(taus) - 1
    phi_t_tau = ff.state_transition(system, trajectory, t, step)
    A_t = system.A(trajectory.p(t))
    P, Pd = trajectory.p(taus), trajectory.pdot(taus)
    A_tau = np.broadcast_to(system.A.constant, (N + 1,) + system.A.shape).copy()
    B_tau = np.broadcast_to(system.B.constant, (N + 1,) + system.B.shape).copy()
    Bdot_tau = np.zeros((N + 1,) + system.B.shape)
    for i in range(system.nparams):
        A_tau += P[:, i][:, None, None] * system.A.coeffs[i]
        B_tau += P[:, i][:, None, None] * system.B.coeffs[i]
        Bdot_tau += Pd[:, i][:, None, None] * system.B.coeffs[i]
    G1 = np.einsum("tij,tjk->tik", phi_t_tau, A_t[None, :, :] - A_tau)
    G2 = phi_t_tau
    tw = np.full(N + 1, h)
    tw[0] = tw[-1] = 0.5 * h
    n = system.n
    W1 = np.zeros((n, n))
    W2 = np.zeros((n, n))
    for o, wk in zip(*_band_nodes(rng, quad_nodes)):
        R = np.linalg.inv(1j * o * np.eye(n) - A_t)
        E = np.exp(1j * o * taus)
        RB = np.einsum("ij,tjk->tik", R, B_tau) * E[:, None, None]
        V1 = -np.einsum("t,tij,tjk->ik", tw, G1, RB)
        RBd = np.einsum("ij,tjk->tik", R, Bdot_tau) * E[:, None, None]
        V2 = -np.einsum("t,tij,tjk->ik", tw, G2, RBd)
        W1 += wk * 2.0 * np.real(V1 @ V1.conj().T)
        W2 += wk * 2.0 * np.real(V2 @ V2.conj().T)
    return 0.5 * (W1 + W1.T), 0.5 * (W2 + W2.T)


BANDS = [ff.FrequencyRange.low(1.2), ff.FrequencyRange.middle(0.5, 1.5),
         ff.FrequencyRange.high(2.0), ff.FrequencyRange.entire()]


@pytest.mark.parametrize("band", BANDS, ids=str)
def test_shifted_gramian_matches_per_node_quadrature(benchmark_system, band):
    got = ff.gramian_lpv_shifted(benchmark_system, example_schedule(), 5.0, band,
                                 quad_nodes=101, step=1e-3)
    ref = shifted_reference(benchmark_system, example_schedule(), 5.0, band, 101, 1e-3)
    for W, R in zip(got, ref):
        assert np.abs(W - R).max() <= 1e-12 * np.abs(R).max()


@pytest.mark.parametrize("band", BANDS, ids=str)
def test_shifted_gramian_matches_per_node_quadrature_two_parameters(band):
    sysm, traj = three_state_two_input_system()
    assert all(np.linalg.eigvals(sysm.A(p)).real.max() < 0 for p in sysm.box.p_grid(3))
    got = ff.gramian_lpv_shifted(sysm, traj, 2.0, band, quad_nodes=41, step=2e-3)
    ref = shifted_reference(sysm, traj, 2.0, band, 41, 2e-3)
    for W, R in zip(got, ref):
        assert W.shape == (3, 3)
        assert np.abs(W - R).max() <= 1e-12 * np.abs(R).max()


def test_trace_bound_raises_on_non_finite_integrand(benchmark_system, benchmark_band):
    s = benchmark_system
    nan_B = ff.LpvSystem(s.A, ff.AffineMatrixFunction(s.B.constant, (np.full(s.B.shape, np.nan),)),
                         s.C, s.D, s.box)
    cert = ff.uas_certificate(benchmark_system, 7.4, 0.5, 0.6)
    assert _decay_min_eigs(benchmark_system, cert).min() >= 0.0
    with pytest.raises(ValueError, match="not finite"):
        ff.shifted_trace_bound(nan_B, benchmark_band, cert)


def drift_sups_reference(system, rng, grid_density, omega_nodes):
    """Reference: the scalar loop, one inverse and one eigensolve per (p, w, p') and (p, w, rate)."""
    if rng.kind == "high":
        om = np.linspace(rng.lo, 10.0 * rng.lo, omega_nodes)
    elif rng.kind == "entire":
        om = np.linspace(0.0, 10.0, omega_nodes)
    else:
        om = np.linspace(-rng.hi, rng.hi, omega_nodes) if rng.kind == "low" \
            else np.linspace(rng.lo, rng.hi, omega_nodes)
    box = system.box
    pgrid = box.p_grid(grid_density)
    rates = [np.array(c, dtype=float) for c in itertools.product(
        *[[a] if a == b else [a, b] for a, b in zip(box.rate_lower, box.rate_upper)])]
    I = np.eye(system.n)
    m1 = m2 = 0.0
    for p in pgrid:
        A_p = system.A(p)
        for o in om:
            R = np.linalg.inv(1j * o * I - A_p)
            for pp in pgrid:
                M = (A_p - system.A(pp)) @ R @ system.B(pp)
                m1 = max(m1, float(np.linalg.eigvalsh(M @ M.conj().T).max()))
            for r in rates:
                Bd = sum((ri * Bi for ri, Bi in zip(r, system.B.coeffs)), np.zeros(system.B.shape))
                M = R @ Bd
                m2 = max(m2, float(np.linalg.eigvalsh(M @ M.conj().T).max()))
    return m1, m2


@pytest.mark.parametrize("band", BANDS, ids=str)
def test_drift_sups_match_scalar_loop(benchmark_system, band):
    got = _drift_sups(benchmark_system, band, 11, 21)
    ref = drift_sups_reference(benchmark_system, band, 11, 21)
    assert got == pytest.approx(ref, rel=1e-12)
    assert min(ref) > 0


@pytest.mark.parametrize("band", BANDS, ids=str)
def test_drift_sups_match_scalar_loop_two_parameters(band):
    sysm, _ = three_state_two_input_system()
    got = _drift_sups(sysm, band, 4, 7)
    ref = drift_sups_reference(sysm, band, 4, 7)
    assert got == pytest.approx(ref, rel=1e-12)
    assert min(ref) > 0


def test_resolvent_gramian_names_the_singular_node():
    om, _ = _band_nodes(LOW1, 9)
    w = om[6]
    A = np.array([[0.0, w], [-w, 0.0]])  # poles at +-jw, w a quadrature node
    with pytest.raises(ValueError, match=re.escape(f"omega = {w}")):
        lti_gramian(A, np.array([[1.0], [0.0]]), LOW1, quad_nodes=9)


@pytest.mark.parametrize("shift", ["one ulp", "1e-12 relative"])
def test_a_pole_next_to_a_node_is_named_like_one_on_it(shift):
    # the resolvent is finite but numerically infinite there: the Gramian's trace read 4.2e31
    # (one ulp) and 2.0e23 (1e-12 relative) before the check
    w = _band_nodes(LOW1, 9)[0][6]
    near = np.nextafter(w, 2.0) if shift == "one ulp" else w * (1.0 + 1e-12)
    B = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError, match=re.escape(f"resolvent singular at omega = {w}")):
        lti_gramian([[0.0, near], [-near, 0.0]], B, LOW1, quad_nodes=9)
    # a pole 1e-6 relative away is resolved and integrated
    far = w * (1.0 + 1e-6)
    assert np.isfinite(lti_gramian([[0.0, far], [-far, 0.0]], B, LOW1, quad_nodes=9)).all()


def pole_system(w):
    """A(p) = [[0, w], [-w, 0]] for every p in [0, 1]: poles at +-jw; B drifts with p."""
    return ff.LpvSystem(ff.AffineMatrixFunction([[0.0, w], [-w, 0.0]], (np.zeros((2, 2)),)),
                        ff.AffineMatrixFunction([[1.0], [0.0]], ([[0.0], [0.5]],)),
                        ff.AffineMatrixFunction([[1.0, 0.0]], (np.zeros((1, 2)),)),
                        ff.AffineMatrixFunction([[0.0]], (np.zeros((1, 1)),)),
                        ff.ParameterBox([0.0], [1.0], [-1.0], [1.0]))


def test_shifted_gramian_names_the_singular_node():
    w = _band_nodes(LOW1, 9)[0][6]
    traj = ff.ScheduleTrajectory.sinusoid([0.5], [0.2], 1.0)
    with pytest.raises(ValueError, match=re.escape(f"resolvent singular at omega = {w}")):
        ff.gramian_lpv_shifted(pole_system(w), traj, 1.0, LOW1, quad_nodes=9)


def test_drift_sups_name_the_singular_node():
    w = _band_nodes(LOW1, 9)[0][6]
    # the 21-node grid on low:w starts at -w, a pole
    with pytest.raises(ValueError, match=re.escape(f"resolvent singular at omega = {-w}")):
        _drift_sups(pole_system(w), ff.FrequencyRange.low(w))


def test_no_complex_array_reaches_numpy_linalg(benchmark_system, monkeypatch):
    # complex LAPACK routines are kept out of the frequency-domain code: each
    # resolvent is solved in its real form and each complex Gram eigensolved
    # through its real embedding
    def spy(fn):
        def call(*args, **kwargs):
            assert not any(np.iscomplexobj(a) for a in args), fn.__name__
            return fn(*args, **kwargs)
        return call

    for name in ("solve", "inv", "eigvalsh", "eigh", "slogdet"):
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
    ff.recommend_range(benchmark_system, LOW1)
    for mode in lmi.MODES:
        assert lmi._frozen_peak(seeded_system(6)[0], ff.FrequencyRange.middle(0.5, 1.5), mode) > 0
    ff.gramian_set(benchmark_system, example_schedule(), 2.0, LOW1, quad_nodes=51)


@pytest.mark.parametrize("band", BANDS, ids=str)
@pytest.mark.parametrize("which", ["example", "three_state"])
def test_stacked_frozen_gramian_equals_per_row_calls(benchmark_system, which, band):
    sysm = benchmark_system if which == "example" else three_state_two_input_system()[0]
    P = sysm.box.p_grid()
    W = ff.gramian_lpv_frozen(sysm, P, band, quad_nodes=51)
    assert W.shape == (len(P), sysm.n, sysm.n)
    for p, Wp in zip(P, W):
        ref = ff.gramian_lpv_frozen(sysm, p, band, quad_nodes=51)
        assert ref.shape == (sysm.n, sysm.n)
        assert np.abs(Wp - ref).max() <= 1e-13 * np.abs(ref).max()


def test_stacked_frozen_gramian_names_the_singular_node_of_its_row():
    om, _ = _band_nodes(LOW1, 9)
    w = om[6]
    # A(p) = [[-p, w], [-w, -p]]: poles -p +- jw, on the node w at p = 0 only
    sysm = ff.LpvSystem(ff.AffineMatrixFunction([[0.0, w], [-w, 0.0]], (-np.eye(2),)),
                        ff.AffineMatrixFunction([[1.0], [0.0]], (np.zeros((2, 1)),)),
                        ff.AffineMatrixFunction([[1.0, 0.0]], (np.zeros((1, 2)),)),
                        ff.AffineMatrixFunction([[0.0]], (np.zeros((1, 1)),)),
                        ff.ParameterBox([0.0], [1.0], [0.0], [0.0]))
    with pytest.raises(ValueError, match=re.escape(f"omega = {w}")):
        ff.gramian_lpv_frozen(sysm, np.array([[1.0], [0.5], [0.0], [2.0]]), LOW1, quad_nodes=9)


@pytest.mark.parametrize("band", BANDS, ids=str)
@pytest.mark.parametrize("rows", [1, 7])
def test_drift_sups_do_not_depend_on_the_chunking(benchmark_system, band, rows, monkeypatch):
    cases = [(benchmark_system, 11, 21), (three_state_two_input_system()[0], 4, 7)]
    want = [_drift_sups(sysm, band, d, k) for sysm, d, k in cases]
    for (sysm, d, k), ref in zip(cases, want):
        # rows outer p rows per chunk: 11 rows in chunks of 7 and 4, 16 in 7, 7 and 2
        monkeypatch.setattr(gramians, "_SUP_CHUNK", rows * k * len(sysm.box.p_grid(d)))
        assert _drift_sups(sysm, band, d, k) == ref
    monkeypatch.setattr(gramians, "_SUP_CHUNK", rows)
    assert [_drift_sups(sysm, band, d, k) for sysm, d, k in cases] == want


@pytest.mark.parametrize("shape", [(3, 5), (4, 4), (5, 3), (1, 4), (4, 1), (1, 1)])
def test_lam_max_gram_matches_the_eigenvalues_of_m_m_star(shape):
    rng = np.random.default_rng(sum(shape))
    # scales over six decades, so most Grams fail the trace test and some pass it
    scale = 10.0 ** rng.uniform(-3, 3, size=(40, 1, 1))
    M = scale * (rng.normal(size=(40,) + shape) + 1j * rng.normal(size=(40,) + shape))
    M = M.reshape((2, 20) + shape)
    ref = np.linalg.eigvalsh(M @ np.swapaxes(M.conj(), -1, -2)).max()
    assert gram_peak(M) == pytest.approx(ref, rel=1e-12)
    assert gram_peak(M.real) == pytest.approx(
        np.linalg.eigvalsh(M.real @ np.swapaxes(M.real, -1, -2)).max(), rel=1e-12)
    M[1, 7, 0, -1] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        gram_peak(M)


def test_gauss_legendre_rule_is_cached_read_only():
    x, w = _gauss_legendre(33)
    assert _gauss_legendre(33)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    assert np.allclose(x, np.polynomial.legendre.leggauss(33)[0], rtol=0, atol=0)


def test_trace_bound_calls_a_certificate_factory_only_when_needed(benchmark_system,
                                                                   benchmark_band):
    cert = ff.uas_certificate(benchmark_system, 7.4, 0.5, 0.6)
    assert _decay_min_eigs(benchmark_system, cert).min() >= 0.0
    calls = []

    def factory():
        calls.append(1)
        return cert

    lti = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    assert ff.shifted_trace_bound(lti, LOW1, factory).bound_1 == 0.0
    assert calls == []
    direct = ff.shifted_trace_bound(benchmark_system, benchmark_band, cert)
    lazy = ff.shifted_trace_bound(benchmark_system, benchmark_band, factory)
    assert calls == [1]
    assert (lazy.bound_1, lazy.bound_2) == (direct.bound_1, direct.bound_2)
