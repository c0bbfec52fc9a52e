import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import finitefreq as ff
from finitefreq.reference import REFERENCE
from conftest import random_stable_lti, three_state_two_input_system

LOW1 = ff.FrequencyRange.low(1.0)


def test_gap_benchmark_regression(benchmark_system):
    g2 = ff.gap(benchmark_system, LOW1)
    # sup_p of sigma_max(A(p))^2 - 1, attained at the lower box corner
    assert g2 == pytest.approx(163.6236, rel=1e-4)
    ref, band = REFERENCE["gap_squared"]
    assert abs(g2 - ref) <= band * ref


def test_gap_zero_when_pole_inside_band():
    sys = ff.LpvSystem.lti([[-0.5]], [[1.0]], [[1.0]], [[0.0]])
    # the band block is -A^2 + 1 = 0.75 >= 0, so the gap vanishes
    assert ff.gap(sys, LOW1) == 0.0


def test_gap_rejects_non_finite_system():
    # max(0.0, nan) is 0.0, which would read as "no widening needed"
    sys = ff.LpvSystem.lti([[np.nan]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError, match="not finite"):
        ff.gap(sys, LOW1)


def test_gap_low_band_closed_form_on_random_draws():
    rng = np.random.default_rng(23)
    for _ in range(50):
        A, B, C, D = random_stable_lti(rng)
        w = float(rng.uniform(0.2, 3.0))
        sys = ff.LpvSystem.lti(A, B, C, D)
        got = ff.gap(sys, ff.FrequencyRange.low(w))
        smax = np.linalg.norm(A, 2)
        assert got == pytest.approx(max(0.0, smax**2 - w**2), abs=1e-9)


def test_gap_middle_band_via_embedding(benchmark_system):
    g2 = ff.gap(benchmark_system, ff.FrequencyRange.middle(1.0, 3.0))
    # cross check one grid point against the complex Hermitian eigensolve
    psi = ff.frequency_weight(ff.FrequencyRange.middle(1.0, 3.0))
    A = benchmark_system.A([0.1])
    K = psi[0, 0] * A.T @ A + psi[0, 1] * A.T + psi[1, 0] * A + psi[1, 1] * np.eye(2)
    assert g2 >= max(0.0, np.linalg.eigvalsh(-K).max()) - 1e-9


def test_delta_squared_reference_arithmetic():
    d2 = ff.delta_squared(164.62, 0.4858, 0.1017)
    assert d2 == pytest.approx(34.4624, rel=0.005)


def test_delta_squared_zero_gap():
    assert ff.delta_squared(0.0, 0.5, 10.0) == 0.0


def test_delta_squared_rejects_uncontrollable():
    with pytest.raises(ValueError, match="controllable"):
        ff.delta_squared(1.0, 0.0, 1.0)


_NON_FINITE_CASES = [(None, "gap_sq"), (10.0, "tr_w_p_min"), (10.0, "tr_w_dot_p"),
                     (0.0, "tr_w_dot_p")]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("gap_sq, key", _NON_FINITE_CASES,  # UAS names the one widening rule
                         ids=[f"UAS-{g}-{k}" for g, k in _NON_FINITE_CASES])
def test_delta_squared_rejects_non_finite(gap_sq, key, bad):
    # max(0.0, nan) is 0.0: a NaN must not read as "no widening needed"
    args = {"gap_sq": gap_sq, "tr_w_p_min": 1.0, "tr_w_dot_p": 0.5, key: bad}
    with pytest.raises(ValueError, match=key):
        ff.delta_squared(**args)


def test_delta_squared_monotonicity():
    base = ff.delta_squared(100.0, 1.0, 0.5)
    assert ff.delta_squared(110.0, 1.0, 0.5) > base
    assert ff.delta_squared(100.0, 1.0, 0.6) > base
    assert ff.delta_squared(100.0, 1.2, 0.5) < base


def test_enlarge_low_band_reference():
    out = ff.enlarge_range(LOW1, 34.4624)
    assert out.kind == "low"
    assert out.hi == pytest.approx(5.955, rel=1e-3)


def test_enlarge_zero_delta_is_identity():
    for rng in (LOW1, ff.FrequencyRange.middle(1, 3), ff.FrequencyRange.high(5)):
        assert ff.enlarge_range(rng, 0.0) == rng


def test_enlarge_middle_band_endpoints():
    out = ff.enlarge_range(ff.FrequencyRange.middle(1.0, 3.0), 1.0)
    # center 2 preserved, half width sqrt(8)/2
    assert out.lo == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-12)
    assert out.hi == pytest.approx(2.0 + np.sqrt(2.0), abs=1e-12)


def test_enlarge_high_band_and_degenerate_fallback():
    out = ff.enlarge_range(ff.FrequencyRange.high(10.0), 19.0)
    assert out.kind == "high" and out.lo == pytest.approx(9.0)
    with pytest.warns(UserWarning, match="entire"):
        out = ff.enlarge_range(ff.FrequencyRange.high(3.0), 25.0)
    assert out.kind == "entire"


@given(st.sampled_from(["low", "middle", "high"]),
       st.floats(0.1, 5.0), st.floats(0.0, 30.0))
def test_enlargement_contains_original(kind, w, d2):
    if kind == "low":
        rng = ff.FrequencyRange.low(w)
    elif kind == "middle":
        rng = ff.FrequencyRange.middle(w, w + 2.0)
    else:
        rng = ff.FrequencyRange.high(w)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = ff.enlarge_range(rng, d2)
    for omega in np.linspace(0.0, w + 3.0, 40):
        if rng.contains(omega):
            assert out.contains(omega)


def test_uniform_radius_benchmark(benchmark_system):
    rho = ff.uniform_spectral_radius(benchmark_system)
    assert rho == pytest.approx(12.830571, rel=1e-5)
    ref, band = REFERENCE["rho_unif"]
    assert abs(rho - ref) <= band * ref


def test_uniform_radius_diagonal_and_rotation():
    d = ff.LpvSystem.lti([[-1.0, 0.0], [0.0, -3.0]], [[1.0], [1.0]],
                         [[1.0, 0.0]], [[0.0]])
    assert ff.uniform_spectral_radius(d) == pytest.approx(3.0)
    w0 = 2.5
    r = ff.LpvSystem.lti([[0.0, w0], [-w0, 0.0]], [[1.0], [0.0]],
                         [[1.0, 0.0]], [[0.0]])
    assert ff.uniform_spectral_radius(r) == pytest.approx(w0)


def gap_reference(system, rng):
    """Reference: the per-point loop, one band block and one eigensolve per grid p."""
    psi = ff.frequency_weight(rng)
    I = np.eye(system.n)
    worst = 0.0
    for p in system.box.p_grid(11):
        A = system.A(p)
        K = psi[0, 0] * (A.conj().T @ A) + psi[0, 1] * A.conj().T + psi[1, 0] * A + psi[1, 1] * I
        if not np.isfinite(K).all():
            raise ValueError(f"band block at p={np.round(p, 6)} is not finite; the gap is undefined")
        H = ff.real_embedding(-K) if np.iscomplexobj(K) else -K
        worst = max(worst, max(0.0, float(np.linalg.eigvalsh(H).max())))
    return worst


def radius_reference(system):
    return max(float(np.linalg.norm(system.A(p), 2)) for p in system.box.p_grid(11))


GAP_BANDS = [LOW1, ff.FrequencyRange.middle(0.5, 1.5), ff.FrequencyRange.high(12.0)]


@pytest.mark.parametrize("band", GAP_BANDS, ids=str)
@pytest.mark.parametrize("which", ["example", "two-parameter"])
def test_batched_gap_and_radius_equal_the_per_point_loop(benchmark_system, which, band):
    system = benchmark_system if which == "example" else three_state_two_input_system()[0]
    assert ff.gap(system, band) == gap_reference(system, band)
    assert ff.gap(system, band) > 0
    assert ff.uniform_spectral_radius(system) == radius_reference(system)


def _overflowing_system(nparams):
    """A(p) = -1e154 (1 + sum p) on [0, 1]^l: the band block overflows once (1 + sum p)^2 > 1.8."""
    def const(v):
        return ff.AffineMatrixFunction([[v]], ([[0.0]],) * nparams)

    A = ff.AffineMatrixFunction([[-1e154]], ([[-1e154]],) * nparams)
    box = ff.ParameterBox([0.0] * nparams, [1.0] * nparams, [-1.0] * nparams, [1.0] * nparams)
    return ff.LpvSystem(A, const(1.0), const(1.0), const(0.0), box)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("band", GAP_BANDS, ids=str)
@pytest.mark.parametrize("nparams, where", [(1, "[0.4]"), (2, "[0.  0.4]")])
def test_gap_names_the_first_non_finite_grid_point(nparams, where, band):
    system = _overflowing_system(nparams)
    message = f"band block at p={where} is not finite"
    with pytest.raises(ValueError, match=re.escape(message)):
        gap_reference(system, band)
    with pytest.raises(ValueError, match=re.escape(message)):
        ff.gap(system, band)


def test_recommend_range_benchmark(benchmark_system, benchmark_band):
    res = ff.recommend_range(benchmark_system, benchmark_band, 7.4, 0.5, 0.6)
    assert res.gap_squared == pytest.approx(163.6236, rel=1e-4)
    assert np.isfinite(res.trace_W_p_min) and np.isfinite(res.trace_W_dot_p)
    # consistency of the pipeline arithmetic
    want = res.gap_squared * res.trace_W_dot_p / res.trace_W_p_min
    assert res.delta_squared == pytest.approx(want, rel=1e-12)
    assert res.enlarged.hi == pytest.approx(np.sqrt(1.0 + res.delta_squared), rel=1e-12)
    assert res.enlarged.hi > benchmark_band.hi


def test_recommend_range_above_radius_is_noop(benchmark_system):
    wide = ff.FrequencyRange.low(13.0)
    res = ff.recommend_range(benchmark_system, wide)
    assert res.gap_squared == 0.0
    assert res.delta_squared == 0.0
    assert res.enlarged == wide
    assert res.trace_W_p_min is None and res.trace_W_dot_p is None
    assert wide.hi >= res.rho_unif


def test_recommend_range_lti_is_noop():
    rng = np.random.default_rng(8)
    A, B, C, D = random_stable_lti(rng)
    z = np.zeros
    sys = ff.LpvSystem(
        ff.AffineMatrixFunction(A, (z((2, 2)),)), ff.AffineMatrixFunction(B, (z((2, 1)),)),
        ff.AffineMatrixFunction(C, (z((1, 2)),)), ff.AffineMatrixFunction(D, (z((1, 1)),)),
        ff.ParameterBox([0.1], [0.2], [0.4], [0.6]))
    band = ff.FrequencyRange.low(0.5)
    res = ff.recommend_range(sys, band)
    assert res.delta_squared == 0.0
    assert res.enlarged == band


def _counting(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_recommend_range_evaluates_drift_sups_once(benchmark_system, benchmark_band,
                                                    monkeypatch):
    import finitefreq.enlargement as enl
    import finitefreq.gramians as gr
    want = ff.recommend_range(benchmark_system, benchmark_band)
    sups = _counting(monkeypatch, gr, "_drift_sups")
    certs = _counting(monkeypatch, enl, "uas_certificate")
    res = ff.recommend_range(benchmark_system, benchmark_band)
    assert len(sups) == 1 and len(certs) == 1
    assert res == want
    direct = ff.uas_certificate(benchmark_system)
    assert (res.decay.c1, res.decay.c2, res.decay.c3) == (direct.c1, 1.0, direct.c3)


def test_recommend_range_free_scalars_on_the_example(benchmark_system, benchmark_band):
    # c1 c3 maximized at P = I, c3 = 12.2141: delta^2 = 2.8209 (c1 = c3 = 1 would give 420.83)
    res = ff.recommend_range(benchmark_system, benchmark_band)
    assert abs(res.decay.c1 - 1.0) <= 1e-6 and res.decay.c3 == pytest.approx(12.2141, rel=1e-5)
    assert res.delta_squared == pytest.approx(2.8209, rel=1e-4)
    assert res.enlarged.kind == "low" and abs(res.enlarged.hi - 1.9547) <= 1e-4
    assert res.decay.achieved_margin >= 0.0


def test_recommend_range_skips_the_certificate_without_drift(monkeypatch):
    import finitefreq.enlargement as enl
    A = np.array([[-1.0, 3.0], [0.0, -2.0]])
    z = np.zeros
    sys = ff.LpvSystem(
        ff.AffineMatrixFunction(A, (z((2, 2)),)), ff.AffineMatrixFunction([[1.0], [1.0]], (z((2, 1)),)),
        ff.AffineMatrixFunction([[1.0, 0.0]], (z((1, 2)),)), ff.AffineMatrixFunction([[0.0]], (z((1, 1)),)),
        ff.ParameterBox([0.1], [0.2], [0.4], [0.6]))
    certs = _counting(monkeypatch, enl, "uas_certificate")
    res = ff.recommend_range(sys, LOW1)
    assert res.gap_squared > 0 and res.delta_squared == 0.0 and res.trace_W_dot_p == 0.0
    assert certs == [] and res.decay is None


@pytest.mark.parametrize("c1, c2", [(0.5, 0.6), (None, None)])
def test_recommend_range_on_a_zero_gap_band_solves_no_certificate(benchmark_system, monkeypatch,
                                                                  c1, c2):
    import finitefreq.enlargement as enl
    certs = _counting(monkeypatch, enl, "uas_certificate")
    c3 = None if c1 is None else 7.4  # the scalars come all three or none
    res = ff.recommend_range(benchmark_system, ff.FrequencyRange.low(20.0), c3, c1, c2)
    assert res.gap_squared == 0.0 and res.trace_W_dot_p is None
    assert certs == []


@pytest.mark.parametrize("band", [ff.FrequencyRange.low(20.0), LOW1], ids=str)
def test_recommend_range_rejects_bad_scalars_before_any_solve(benchmark_system, monkeypatch, band):
    import finitefreq.enlargement as enl
    certs = _counting(monkeypatch, enl, "uas_certificate")
    with pytest.raises(ValueError, match="need 0 < c1 <= c2"):
        ff.recommend_range(benchmark_system, band, 7.4, 0.6, 0.5)
    for c3, c1, c2 in [(7.4, 0.6, None), (7.4, None, None), (None, 0.5, 0.6)]:
        with pytest.raises(ValueError, match="give c1, c2 and c3 together"):
            ff.recommend_range(benchmark_system, band, c3, c1, c2)
    assert certs == []
