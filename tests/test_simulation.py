import tracemalloc
import warnings

import numpy as np
import pytest

import finitefreq as ff
from finitefreq import simulation
from finitefreq.reference import (example_band, example_schedule, example_signal,
                                  example_system)
from finitefreq._rk4 import half_steps
from conftest import input_result, random_stable_lti

LOW1 = ff.FrequencyRange.low(1.0)


def test_sample_signal_benchmark_at_zero():
    sig = example_signal()
    # oracle: hand evaluation of cos(8) + cos(10) + cos(20)
    expected = np.cos(8.0) + np.cos(10.0) + np.cos(20.0)
    assert ff.sample_signal(sig, np.zeros(1))[0] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-0.5764895, abs=1e-7)


def test_sample_signal_zero_components_and_one_cosine():
    t = np.array([-1.0, 0.5])
    assert np.array_equal(ff.sample_signal(ff.BandLimitedSignal(()), t), np.zeros(2))
    out = ff.sample_signal(ff.BandLimitedSignal(((2.0, 1.5, 0.3),)), t)
    assert out.shape == (2,)
    assert out == pytest.approx(2.0 * np.cos(1.5 * t + 0.3), abs=1e-14)


def test_schedule_kinds():
    box = ff.ParameterBox([0.1], [0.2], [-1.0], [1.0])
    s = ff.ScheduleTrajectory.sinusoid([0.15], [0.05], 4.0, box=box)
    assert s.p(0.0)[0] == pytest.approx(0.15)
    assert s.pdot(0.0)[0] == pytest.approx(0.2)
    c = ff.ScheduleTrajectory.constant([0.12])
    assert c.p(7.0)[0] == 0.12 and c.pdot(7.0)[0] == 0.0
    # a constant is the zero-amplitude, zero-rate sinusoid, exact at every time
    c2 = ff.ScheduleTrajectory.constant([0.12, -0.3])
    ts = np.linspace(0.0, 50.0, 101)
    assert np.array_equal(c2.p(ts), np.repeat([[0.12, -0.3]], 101, axis=0))
    assert not c2.pdot(ts).any() and not np.signbit(c2.pdot(ts)).any()


@pytest.mark.parametrize("center, amplitude, l", [
    ([0.15], [0.03], 1),
    ([0.15, 0.12], [0.03], 2),
    ([0.15], [0.03, 0.02], 2),
    ([0.15, 0.12], [0.03, 0.02], 2),
    ([0.15, 0.12], 0.03, 2),
    (np.zeros(0), 0.0, 0),
], ids=["1-1", "2-1", "1-2", "2-2", "2-scalar", "0-scalar"])
def test_schedule_pdot_has_the_shape_of_p(center, amplitude, l):
    s = ff.ScheduleTrajectory.sinusoid(center, amplitude, 2.0, 0.3)
    ts = np.linspace(0.0, 3.0, 7)
    for t, shape in ((0.4, (l,)), (ts, (7, l))):
        assert s.p(t).shape == s.pdot(t).shape == shape
    a = np.broadcast_to(amplitude, (l,))
    assert np.array_equal(s.pdot(ts), (a * 2.0) * np.cos(2.0 * ts + 0.3)[:, None])


@pytest.mark.parametrize("make", [
    lambda box: ff.ScheduleTrajectory.constant([0.15, 0.1], box=box),
    lambda box: ff.ScheduleTrajectory.sinusoid([0.15], [0.01, 0.01], 1.0, box=box),
], ids=["constant", "sinusoid-broadcast"])
def test_schedule_with_the_wrong_parameter_count_names_both_counts(benchmark_system, make):
    with pytest.raises(ff.DimensionError, match="schedule has 2 parameters, the box has 1"):
        make(benchmark_system.box)


def test_simulate_zero_input_stays_at_origin(benchmark_system):
    sig = ff.BandLimitedSignal(((0.0, 1.0, 0.0),))
    res = ff.simulate(benchmark_system, example_schedule(), sig, 2.0, 1e-3)
    assert np.allclose(res.x, 0.0) and np.allclose(res.y, 0.0)


def test_simulate_scalar_steady_state_amplitude():
    sys = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    traj = ff.ScheduleTrajectory.constant(np.zeros(0))
    sig = ff.BandLimitedSignal(((1.0, 1.0, 0.0),))
    res = ff.simulate(sys, traj, sig, 40.0, 1e-3)
    tail = res.y[res.times > 30.0, 0]
    assert tail.max() == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-3)


def test_simulate_rhs_identity(benchmark_system):
    res = ff.simulate(example_system(), example_schedule(), example_signal(), 1.0, 1e-3)
    k = 400
    p = example_schedule().p(res.times[k])
    lhs = res.x_dot[k]
    rhs = benchmark_system.A(p) @ res.x[k] + (benchmark_system.B(p) @ res.u[k])
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_simulate_zero_state_linearity(benchmark_system):
    sched = example_schedule()
    s1 = ff.BandLimitedSignal(((1.0, 1.0, 8.0),))
    s2 = ff.BandLimitedSignal(((0.7, 1.0, 10.0),))
    s12 = ff.BandLimitedSignal(((1.0, 1.0, 8.0), (0.7, 1.0, 10.0)))
    r1 = ff.simulate(benchmark_system, sched, s1, 5.0, 1e-3)
    r2 = ff.simulate(benchmark_system, sched, s2, 5.0, 1e-3)
    r12 = ff.simulate(benchmark_system, sched, s12, 5.0, 1e-3)
    assert np.allclose(r12.x, r1.x + r2.x, atol=1e-9)
    assert np.allclose(r12.y, r1.y + r2.y, atol=1e-9)


def test_simulate_step_halving_converged(benchmark_system):
    sched, sig = example_schedule(), example_signal()
    r1 = ff.simulate(benchmark_system, sched, sig, 10.0, 2e-3)
    r2 = ff.simulate(benchmark_system, sched, sig, 10.0, 1e-3)
    g1 = ff.performance_ratio(r1)[-1]
    g2 = ff.performance_ratio(r2)[-1]
    assert abs(g1 - g2) <= 1e-4 * abs(g2)
    s1 = ff.iqc_value(r1, LOW1).final_value
    s2 = ff.iqc_value(r2, LOW1).final_value
    assert abs(s1 - s2) <= 1e-4 * max(abs(s2), 1.0)


def test_simulate_divergence_error():
    sys = ff.LpvSystem.lti([[5.0]], [[1.0]], [[1.0]], [[0.0]])
    traj = ff.ScheduleTrajectory.constant(np.zeros(0))
    sig = ff.BandLimitedSignal(((1.0, 1.0, 0.0),))
    with pytest.raises(RuntimeError, match="diverged"):
        ff.simulate(sys, traj, sig, 200.0, 1e-2)


def test_divergence_is_raised_before_x_dot_or_y_overflows(benchmark_system):
    # 20,000 steps span five chunks; the state overflows in a later chunk than the first
    A = ff.AffineMatrixFunction(5.0 * np.eye(2), benchmark_system.A.coeffs)
    unstable = ff.LpvSystem(A, benchmark_system.B, benchmark_system.C, benchmark_system.D,
                            benchmark_system.box)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="integration diverged"):
            ff.simulate(unstable, example_schedule(), ff.BandLimitedSignal(((1.0, 1.0, 0.0),)),
                        200.0, 1e-2)


@pytest.mark.parametrize("C, D", [(1e308, 0.0), (0.0, 1e308)], ids=["Cx", "Du"])
def test_divergence_is_raised_when_y_overflows_from_a_finite_state(C, D):
    # x peaks near 4/sqrt(2) and u at 4, so C x or D u overflows while x stays finite
    sys = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[C]], [[D]])
    sig = ff.BandLimitedSignal(((4.0, 1.0, 0.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="integration diverged"):
            ff.simulate(sys, ff.ScheduleTrajectory.constant(np.zeros(0)), sig, 10.0, 1e-3)


def test_performance_ratio_identity_and_double():
    traj = ff.ScheduleTrajectory.constant(np.zeros(0))
    sig = ff.BandLimitedSignal(((1.0, 1.0, 0.2),))
    # y = u through (C, D) = (0, 1): realized gain is identically 1
    passthrough = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[0.0]], [[1.0]])
    res = ff.simulate(passthrough, traj, sig, 5.0, 1e-3)
    curve = ff.performance_ratio(res)
    assert np.allclose(curve[10:], 1.0, atol=1e-12)
    doubler = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[0.0]], [[2.0]])
    res2 = ff.simulate(doubler, traj, sig, 5.0, 1e-3)
    assert np.allclose(ff.performance_ratio(res2)[10:], 2.0, atol=1e-12)


def test_performance_ratio_zero_input_error(benchmark_system):
    sig = ff.BandLimitedSignal(((0.0, 1.0, 0.0),))
    res = ff.simulate(benchmark_system, example_schedule(), sig, 1.0, 1e-3)
    with pytest.raises(ValueError, match="energy"):
        ff.performance_ratio(res)


def test_iqc_sign_pattern_benchmark(benchmark_run):
    on_band = ff.iqc_value(benchmark_run, LOW1)
    assert on_band.s_curve[0] == 0.0
    assert on_band.final_value < 0
    assert on_band.sign_verdict == "negative"
    enlarged = ff.iqc_value(benchmark_run, ff.FrequencyRange.low(5.955))
    assert enlarged.final_value >= -1e-6 * enlarged.scale
    assert enlarged.sign_verdict == "nonnegative"


def test_iqc_realized_gain_below_certified_levels(benchmark_run):
    gamma_r = ff.performance_ratio(benchmark_run)[-1]
    assert gamma_r == pytest.approx(1.2087, abs=2e-3)
    # stays below every certified level for this configuration
    assert gamma_r <= 2.14  # tightest band-restricted certificate
    assert gamma_r <= 3.7767 and gamma_r <= 5.2445


def test_iqc_middle_band_weight(benchmark_run):
    rep = ff.iqc_value(benchmark_run, ff.FrequencyRange.middle(0.5, 2.0))
    assert np.isfinite(rep.final_value)
    # the imaginary parts cancel for real trajectories
    assert rep.s_curve.dtype.kind == "f"


def test_iqc_nonnegative_for_lti_in_band_inputs():
    rng = np.random.default_rng(31)
    for _ in range(3):
        A, B, C, D = random_stable_lti(rng)
        sys = ff.LpvSystem.lti(A, B, C, D)
        traj = ff.ScheduleTrajectory.constant(np.zeros(0))
        g = np.random.default_rng(int(rng.integers(1 << 16)))
        freqs = g.uniform(0.2, 0.8, 3)  # inside LOW1, away from its edge
        phases = g.uniform(0.0, 2.0 * np.pi, 3)
        sig = ff.BandLimitedSignal(tuple((1.0, f, ph) for f, ph in zip(freqs, phases)))
        res = ff.simulate(sys, traj, sig, 60.0, 2e-3)
        rep = ff.iqc_value(res, LOW1)
        assert rep.final_value >= -1e-6 * rep.scale


def test_spectrum_fraction_cases():
    def fraction(components):  # sampled at step 1e-3 over [0, 60]: 60,001 samples
        u = ff.sample_signal(ff.BandLimitedSignal(components), 1e-3 * np.arange(60001))
        return ff.spectrum_fraction(input_result(u, 1e-3), LOW1)

    assert fraction(((1.0, 0.6, 0.1),)) >= 0.99
    assert fraction(((1.0, 6.0, 0.1),)) <= 0.05
    assert fraction(((0.0, 1.0, 0.0),)) == 1.0


@pytest.mark.parametrize("size", [0, 1, 2])
def test_spectrum_fraction_of_fewer_than_three_samples_is_vacuous(size):
    # the window keeps no sample with nonzero weight: vacuously in any band
    for band in (LOW1, ff.FrequencyRange.high(1.0)):
        assert ff.spectrum_fraction(input_result(np.full(size, 2.0), 1e-3), band) == 1.0


def test_spectrum_fraction_on_simulation(benchmark_run):
    assert ff.spectrum_fraction(benchmark_run, ff.FrequencyRange.low(1.5)) >= 0.95


def test_parseval_energy_consistency():
    # the one-sided spectrum of the M = 200,000 windowed samples holds their energy:
    # DC and Nyquist bins once, every other bin twice, over M
    sig = ff.BandLimitedSignal(((1.0, 0.8, 0.4), (0.5, 0.3, 1.0)))
    u = ff.sample_signal(sig, 1e-3 * np.arange(200001))
    _, energy = simulation._spectrum(u, 1e-3)
    e_time = np.sum((u[:-1] * np.hanning(u.size)[:-1]) ** 2)
    e_freq = (energy[0] + 2.0 * energy[1:-1].sum() + energy[-1]) / (u.size - 1)
    assert e_freq == pytest.approx(e_time, rel=1e-9)


def test_simulate_warns_when_the_schedule_leaves_the_box(benchmark_system):
    box = benchmark_system.box  # p in [0.1, 0.2]
    sig = ff.BandLimitedSignal(((1.0, 1.0, 0.0),))
    # p(t) = 0.15 + 0.06 sin(t) first leaves the box at t = asin(5/6) ~ 0.985 s
    leaving = ff.ScheduleTrajectory.sinusoid([0.15], [0.06], 1.0, box=box)
    with pytest.warns(UserWarning, match="parameter box"):
        ff.simulate(benchmark_system, leaving, sig, 1.0, 1e-3)
    inside = ff.ScheduleTrajectory.sinusoid([0.15], [0.04], 1.0, box=box)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ff.simulate(benchmark_system, inside, sig, 1.0, 1e-3)


def test_simulate_warns_on_coarse_step():
    sys = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    traj = ff.ScheduleTrajectory.constant(np.zeros(0))
    sig = ff.BandLimitedSignal(((1.0, 10.0, 0.0),))
    with pytest.warns(UserWarning, match="coarse"):
        ff.simulate(sys, traj, sig, 1.0, 0.05)


def test_simulate_warns_on_coarse_step_for_a_negative_frequency():
    # cos(-w t + phi) oscillates as fast as cos(w t - phi)
    sys = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    traj = ff.ScheduleTrajectory.constant(np.zeros(0))
    sig = ff.BandLimitedSignal(((1.0, -10.0, 0.0),))
    assert sig.max_frequency == 10.0
    with pytest.warns(UserWarning, match="coarse"):
        ff.simulate(sys, traj, sig, 1.0, 0.05)


def test_simulate_ends_at_t_end_off_the_step_grid(benchmark_system):
    res = ff.simulate(benchmark_system, example_schedule(), example_signal(), 0.0015, 1e-3)
    assert res.times[-1] == 0.0015 and res.step == 0.00075 and len(res.times) == 3


def sequential_rk4(system, trajectory, signal, t_end, h):
    """Reference: one RK4 step at a time, stages evaluated at t_k, t_k + h/2 and t_k + h."""
    N = int(round(t_end / h))

    def inputs(t):
        return np.full(system.n_inputs, ff.sample_signal(signal, np.array([t]))[0])

    def params(t):
        return trajectory.p(t) if system.nparams else np.zeros(0)

    def f(t, x):
        p = params(t)
        return system.A(p) @ x + system.B(p) @ inputs(t)

    times = h * np.arange(N + 1)
    xs = np.zeros((N + 1, system.n))
    for k in range(N):
        t, x = times[k], xs[k]
        k1 = f(t, x)
        k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = f(t + h, x + h * k3)
        xs[k + 1] = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    u = np.array([inputs(t) for t in times])
    x_dot = np.array([f(t, x) for t, x in zip(times, xs)])
    y = np.array([system.C(params(t)) @ x + system.D(params(t)) @ v
                  for t, x, v in zip(times, xs, u)])
    return times, u, xs, x_dot, y


def two_parameter_system():
    """Seeded LPV system: 3 states, 2 inputs, 2 outputs, 2 scheduling parameters."""
    g = np.random.default_rng(11)
    mk = ff.AffineMatrixFunction
    A = mk(-1.5 * np.eye(3) + 0.3 * g.normal(size=(3, 3)),
           tuple(0.2 * g.normal(size=(3, 3)) for _ in range(2)))
    B = mk(g.normal(size=(3, 2)), tuple(0.3 * g.normal(size=(3, 2)) for _ in range(2)))
    C = mk(g.normal(size=(2, 3)), tuple(0.3 * g.normal(size=(2, 3)) for _ in range(2)))
    D = mk(0.2 * g.normal(size=(2, 2)), tuple(0.1 * g.normal(size=(2, 2)) for _ in range(2)))
    box = ff.ParameterBox([-1.0, -1.0], [1.0, 1.0], [-2.0, -2.0], [2.0, 2.0])
    system = ff.LpvSystem(A, B, C, D, box)
    schedule = ff.ScheduleTrajectory.sinusoid([0.1, -0.2], [0.3, 0.4], 2.0, 0.3, box=box)
    return system, schedule


@pytest.mark.parametrize("case", ["example", "two-parameter"])
def test_simulate_matches_sequential_rk4(case):
    if case == "example":
        system, schedule, signal, h = example_system(), example_schedule(), example_signal(), 1e-3
    else:
        system, schedule = two_parameter_system()
        signal, h = ff.BandLimitedSignal(((1.0, 0.7, 0.2), (0.5, 2.3, 1.1))), 2e-3
    res = ff.simulate(system, schedule, signal, 2.0, h)
    want = sequential_rk4(system, schedule, signal, 2.0, h)
    assert np.array_equal(res.times, want[0])
    for got, ref in zip((res.u, res.x, res.x_dot, res.y), want[1:]):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_simulate_rejects_runs_shorter_than_one_step(benchmark_system):
    with pytest.raises(ValueError, match="shorter than one step"):
        ff.simulate(benchmark_system, example_schedule(), example_signal(), 4e-4, 1e-3)
    res = ff.simulate(benchmark_system, example_schedule(), example_signal(), 6e-4, 1e-3)
    assert res.times.tolist() == [0.0, 6e-4] and res.step == 6e-4


@pytest.mark.parametrize("make, field", [
    (lambda: ff.BandLimitedSignal(((np.nan, 1.0, 0.0),)), "component 0 amplitude"),
    (lambda: ff.BandLimitedSignal(((1.0, 1.0, 0.0), (1.0, np.inf, 0.0))), "component 1 frequency"),
    (lambda: ff.BandLimitedSignal(((1.0, 1.0, -np.inf),)), "component 0 phase"),
    (lambda: ff.ScheduleTrajectory.constant([0.1, np.nan]), "center"),
    (lambda: ff.ScheduleTrajectory.sinusoid([0.1], [np.inf], 1.0), "amplitude"),
    (lambda: ff.ScheduleTrajectory.sinusoid([0.1], [0.01], np.nan), "rate"),
    (lambda: ff.ScheduleTrajectory.sinusoid([0.1], [0.01], 1.0, np.inf), "phase"),
])
def test_non_finite_specs_are_rejected_by_field(make, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make()


def test_spectrum_is_computed_once_per_result(benchmark_system, monkeypatch):
    res = ff.simulate(benchmark_system, example_schedule(), example_signal(), 5.0, 1e-3)
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
    low, mid = ff.spectrum_fraction(res, LOW1), ff.spectrum_fraction(res, ff.FrequencyRange.middle(0.5, 2.0))
    assert len(calls) == 1 and 0.0 < mid and 0.0 < low < 1.0


def test_iqc_quadratic_forms_are_computed_once_per_result(benchmark_system, monkeypatch):
    res = ff.simulate(benchmark_system, example_schedule(), example_signal(), 5.0, 1e-3)
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append(a[0]) or einsum(*a, **k))
    low = ff.iqc_value(res, LOW1)
    mid = ff.iqc_value(res, ff.FrequencyRange.middle(0.5, 2.0))
    assert calls == ["ti,ti->t"] * 3  # xdot.xdot, x.x and xdot.x, once for both bands
    assert low.final_value != mid.final_value


@pytest.mark.parametrize("band", [LOW1, ff.FrequencyRange.middle(0.5, 2.0),
                                  ff.FrequencyRange.high(1.0), ff.FrequencyRange.low(5.955)],
                         ids=["low", "mid", "high", "low-enlarged"])
def test_iqc_value_equals_its_direct_form_bit_for_bit(benchmark_run, band):
    x, xd, h = benchmark_run.x, benchmark_run.x_dot, benchmark_run.step
    psi = ff.frequency_weight(band)
    dd, xx, dx = (np.einsum("ti,ti->t", a, b) for a, b in ((xd, xd), (x, x), (xd, x)))
    p00, p01, p11 = psi[0, 0], psi[0, 1], psi[1, 1]
    integrand = 2.0 * (np.real(p00) * dd + np.real(p11) * xx + 2.0 * np.real(p01) * dx)
    final = float(np.cumsum(0.5 * h * (integrand[1:] + integrand[:-1]))[-1])
    absint = 2.0 * (abs(p00) * dd + abs(p11) * xx + 2.0 * abs(p01) * np.abs(dx))
    rep = ff.iqc_value(benchmark_run, band)
    assert rep.final_value == final
    assert rep.scale == float(np.trapezoid(absint, dx=h))


def test_a_system_without_inputs_stays_at_rest():
    sysm = ff.LpvSystem.lti([[-1.0]], np.zeros((1, 0)), [[1.0]], np.zeros((1, 0)))
    res = ff.simulate(sysm, ff.ScheduleTrajectory.constant(np.zeros(0)),
                      ff.BandLimitedSignal(((1.0, 1.0, 0.0),)), 1.0, 1e-2)
    assert res.u.shape == (101, 0) and not res.x.any() and not res.y.any()


def _chunk_case(case):
    if case == "example":
        return example_system(), example_schedule(), example_signal(), 1e-3
    system, schedule = two_parameter_system()
    return system, schedule, ff.BandLimitedSignal(((1.0, 0.7, 0.2), (0.5, 2.3, 1.1))), 2e-3


def _recorded_simulate(monkeypatch, chunk, system, schedule, signal, t_end, h):
    """simulate with _STEP_CHUNK = chunk: its result, the parameter rows of every
    A.batch call, and the step counts seen by each _rk4 function."""
    monkeypatch.setattr(simulation, "_STEP_CHUNK", chunk)
    rows, steps = [], {}
    batch = ff.AffineMatrixFunction.batch

    def spy_batch(self, P):
        if self is system.A:
            rows.append(np.array(P))
        return batch(self, P)

    monkeypatch.setattr(ff.AffineMatrixFunction, "batch", spy_batch)
    for name in ("step_matrices", "step_offsets", "propagate_vector"):
        def counted(*args, _f=getattr(simulation, name), _name=name, **kwargs):
            first = args[0][0] if isinstance(args[0], tuple) else args[0]
            steps.setdefault(_name, []).append(first.shape[0])
            return _f(*args, **kwargs)
        monkeypatch.setattr(simulation, name, counted)
    res = ff.simulate(system, schedule, signal, t_end, h)
    monkeypatch.undo()
    return res, rows, steps


@pytest.mark.parametrize("N", [1, 6, 7, 8, 50])
@pytest.mark.parametrize("case", ["example", "two-parameter"])
def test_chunked_simulate_matches_one_chunk(monkeypatch, case, N):
    system, schedule, signal, h = _chunk_case(case)
    one, one_rows, _ = _recorded_simulate(monkeypatch, N + 1, system, schedule, signal, N * h, h)
    res, rows, steps = _recorded_simulate(monkeypatch, 7, system, schedule, signal, N * h, h)
    chunks = -(-N // 7)
    assert [len(r) for r in rows] == [2 * min(7, N - k) + 1 for k in range(0, N, 7)]
    # the chunks tile the half-step rows, sharing each boundary row
    tiled = np.concatenate([rows[0]] + [r[1:] for r in rows[1:]])
    assert len(one_rows) == 1 and np.array_equal(tiled, one_rows[0])
    assert all(sum(counts) == N and len(counts) == chunks for counts in steps.values())
    assert len(steps) == 3
    assert np.array_equal(res.times, one.times) and np.array_equal(res.u, one.u)
    for got, ref in ((res.x, one.x), (res.x_dot, one.x_dot), (res.y, one.y)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # x_dot and y are A x + B u and C x + D u at the step times, bit for bit
    P = schedule.p(half_steps(N * h, h)[1])[::2]
    for r in (res, one):
        for k in range(N + 1):
            A, B, C, D = (f(P[k]) for f in (system.A, system.B, system.C, system.D))
            x, u = r.x[k], r.u[k]
            assert np.array_equal(r.x_dot[k], summed(A, x) + summed(B, u))
            assert np.array_equal(r.y[k], summed(C, x) + summed(D, u))


def summed(M, v):
    """M v as the sum of the columns M[:, j] v_j in column order, as ``_rk4.product`` adds."""
    out = M[:, 0] * v[0]
    for j in range(1, len(v)):
        out = out + M[:, j] * v[j]
    return out


def test_chunked_simulate_warns_once_when_the_schedule_leaves_the_box(monkeypatch,
                                                                      benchmark_system):
    monkeypatch.setattr(simulation, "_STEP_CHUNK", 7)
    # p(t) = 0.15 + 0.06 sin(10 t) leaves [0.1, 0.2] at t ~ 0.0985 s and again later
    leaving = ff.ScheduleTrajectory.sinusoid([0.15], [0.06], 10.0, box=benchmark_system.box)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ff.simulate(benchmark_system, leaving, ff.BandLimitedSignal(((1.0, 1.0, 0.0),)), 1.0, 1e-2)
    assert [str(w.message) for w in caught] == ["schedule leaves the parameter box"]


def seeded_system(n, seed=3):
    """Seeded LPV system: n states, 2 inputs, 2 outputs, 2 parameters in [-0.5, 0.5],
    with a schedule and a two-tone input."""
    g = np.random.default_rng(seed)

    def draw(scale, shape, k=2):
        return scale[0] * g.normal(size=shape), tuple(scale[1] * g.normal(size=shape)
                                                      for _ in range(k))

    mk = ff.AffineMatrixFunction
    a0, a = draw((0.3, 0.2), (n, n))
    A = mk(-1.5 * np.eye(n) + a0, a)
    B, C, D = (mk(*draw(scale, shape)) for scale, shape in
               (((1.0, 0.3), (n, 2)), ((1.0, 0.3), (2, n)), ((0.2, 0.06), (2, 2))))
    box = ff.ParameterBox([-0.5, -0.5], [0.5, 0.5], [-0.5, -0.5], [0.5, 0.5])
    schedule = ff.ScheduleTrajectory.sinusoid([0.0, 0.1], [0.3, 0.2], 1.0, box=box)
    signal = ff.BandLimitedSignal(((1.0, 0.7, 0.0), (0.5, 1.3, 1.0)))
    return ff.LpvSystem(A, B, C, D, box), schedule, signal


def test_simulate_working_memory_does_not_grow_with_n_squared_per_step():
    system, schedule, signal = seeded_system(6)
    tracemalloc.start()
    try:
        res = ff.simulate(system, schedule, signal, 60.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result alone is 60,001 x (1 + 2 + 6 + 6 + 2) doubles, about 8.2 MB
    assert peak < 40e6
    assert all(a.base is None for a in (res.times, res.u, res.x, res.x_dot, res.y))
