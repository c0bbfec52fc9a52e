import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import finitefreq as ff
from finitefreq.model import DimensionError, system_from_dict, system_to_dict


def test_eval_affine_zero_parameter_returns_constant(benchmark_system):
    A = benchmark_system.A
    assert np.allclose(A([0.0]), A.constant)


def test_eval_affine_benchmark_entry(benchmark_system):
    # hand arithmetic: -8.6329 + 0.1*(-2.5827)
    assert benchmark_system.A([0.1])[0, 0] == pytest.approx(-8.89117, abs=1e-12)
    assert np.allclose(benchmark_system.A([0.0]),
                       [[-8.6329, -6.5229], [-1.2735, -9.4779]])


def test_eval_affine_dimension_mismatch(benchmark_system):
    with pytest.raises(DimensionError):
        benchmark_system.A([0.1, 0.2])


@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(0, 1))
def test_eval_affine_is_linear_in_p(p1, p2, alpha):
    M = ff.AffineMatrixFunction([[1.0, 2.0], [3.0, 4.0]],
                                ([[0.5, -1.0], [2.0, 0.0]],))
    left = M([alpha * p1 + (1 - alpha) * p2])
    right = alpha * M([p1]) + (1 - alpha) * M([p2])
    assert np.allclose(left, right, atol=1e-12)


def test_frequency_weight_low_unit():
    w = ff.frequency_weight(ff.FrequencyRange.low(1.0))
    assert np.allclose(w.psi, [[-1.0, 0.0], [0.0, 1.0]])


def test_frequency_weight_entire_is_zero():
    w = ff.frequency_weight(ff.FrequencyRange.entire())
    assert np.allclose(w.psi, 0.0)


def test_frequency_weight_middle():
    w = ff.frequency_weight(ff.FrequencyRange.middle(1.0, 3.0))
    assert np.allclose(w.psi, [[-1.0, 2.0j], [-2.0j, -3.0]])


@pytest.mark.parametrize("rng", [
    ff.FrequencyRange.low(2.5),
    ff.FrequencyRange.middle(0.7, 4.0),
    ff.FrequencyRange.high(3.0),
    ff.FrequencyRange.entire(),
])
def test_frequency_weight_is_hermitian(rng):
    psi = ff.frequency_weight(rng).psi
    assert np.allclose(psi, psi.conj().T, atol=1e-14)


@pytest.mark.parametrize("rng,inside,outside", [
    (ff.FrequencyRange.low(2.0), [0.0, 1.0, 1.99], [2.01, 5.0]),
    (ff.FrequencyRange.middle(1.0, 3.0), [1.01, 2.0, 2.99], [0.5, 0.99, 3.01, 6.0]),
    (ff.FrequencyRange.high(4.0), [4.01, 10.0], [0.0, 3.99]),
])
def test_band_indicator_sign_straddles_thresholds(rng, inside, outside):
    for w in inside:
        assert rng.f_value(w) >= 0.0
        assert rng.contains(w)
    for w in outside:
        assert rng.f_value(w) < 0.0
        assert not rng.contains(w)


def test_corners_product_order_and_degenerate_axes():
    from finitefreq.model import grid
    assert np.array_equal(grid([0.0, 2.0], [1.0, 3.0]),
                          [[0.0, 2.0], [0.0, 3.0], [1.0, 2.0], [1.0, 3.0]])
    assert np.array_equal(grid([0.0, 2.0, 5.0], [1.0, 2.0, 5.0]), [[0.0, 2.0, 5.0], [1.0, 2.0, 5.0]])
    assert grid(np.zeros(0), np.zeros(0)).shape == (1, 0)
    # finer grids keep the product order and the degenerate axis
    assert np.array_equal(grid([0.0, 2.0], [1.0, 2.0], 3), [[0.0, 2.0], [0.5, 2.0], [1.0, 2.0]])


def test_batch_matches_pointwise_evaluation():
    rng = np.random.default_rng(12)
    M = ff.AffineMatrixFunction(rng.normal(size=(3, 2)), tuple(rng.normal(size=(3, 2)) for _ in range(2)))
    P = rng.normal(size=(7, 2))
    got = M.batch(P)
    assert got.shape == (7, 3, 2)
    for p, G in zip(P, got):
        assert np.allclose(G, M(p), rtol=1e-15, atol=1e-15)
    lti = ff.AffineMatrixFunction([[1.0, 2.0]])
    assert np.array_equal(lti.batch(np.zeros((4, 0))), np.broadcast_to([[1.0, 2.0]], (4, 1, 2)))
    with pytest.raises(DimensionError):
        M.batch(P[:, :1])


def test_transfer_function_scalar_dc():
    s = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    assert ff.transfer_function(s, 0.0) == pytest.approx(1.0)
    g1 = ff.transfer_function(s, 1.0)[0, 0]
    assert abs(g1) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert g1 == pytest.approx(1.0 / (1.0 + 1.0j), abs=1e-12)


def test_transfer_function_benchmark_regression(benchmark_system):
    # independent oracle: direct complex solve
    A, B, C, D = benchmark_system.frozen([0.15])
    oracle = (C @ np.linalg.solve(-A, B) + D)[0, 0]
    g = ff.transfer_function(benchmark_system, 0.0, [0.15])[0, 0]
    assert g == pytest.approx(oracle, abs=1e-12)
    assert g.real == pytest.approx(0.5702366, abs=1e-6)


def test_transfer_function_pole_reports_omega():
    s = ff.LpvSystem.lti([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]],
                         [[1.0, 0.0]], [[0.0]])
    with pytest.raises(ValueError, match="pole"):
        ff.transfer_function(s, 1.0)


def test_transfer_function_matches_resolvent_grid(benchmark_system):
    rng = np.random.default_rng(3)
    for w in rng.uniform(0.0, 20.0, 12):
        A, B, C, D = benchmark_system.frozen([0.17])
        M = 1j * w * np.eye(2) - A
        oracle = C @ (np.linalg.inv(M) @ B) + D
        g = ff.transfer_function(benchmark_system, w, [0.17])
        assert np.linalg.norm(g - oracle) <= 1e-10 * max(1.0, np.linalg.norm(oracle))


def test_system_json_roundtrip(benchmark_system, tmp_path):
    d = system_to_dict(benchmark_system)
    s2 = system_from_dict(json.loads(json.dumps(d)))
    assert np.allclose(s2.A([0.13]), benchmark_system.A([0.13]))
    assert np.allclose(s2.box.rate_upper, [0.6])


def test_system_json_rejects_unknown_keys(benchmark_system):
    d = system_to_dict(benchmark_system)
    d["bogus"] = 1
    with pytest.raises(ValueError, match="unknown"):
        system_from_dict(d)


@pytest.mark.parametrize("key,index", [("A0", (0, 0)), ("D", (0, 0, 0)), ("rate_upper", (0,))])
def test_system_json_rejects_non_finite_entries(benchmark_system, key, index):
    for bad in (float("nan"), float("inf"), None):
        d = system_to_dict(benchmark_system)
        entry = d[key]
        for i in index[:-1]:
            entry = entry[i]
        entry[index[-1]] = bad
        with pytest.raises(ValueError, match=f"'{key}'"):
            system_from_dict(d)


def test_shipped_system_file_matches_benchmark(benchmark_system):
    s = ff.load_system("data/example1.json")
    assert np.allclose(s.A.constant, benchmark_system.A.constant)
    assert np.allclose(s.D.coeffs[0], benchmark_system.D.coeffs[0])
    assert np.allclose(s.box.p_lower, [0.1])


def test_invalid_boxes_and_ranges():
    with pytest.raises(ValueError):
        ff.ParameterBox([1.0], [0.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        ff.FrequencyRange.middle(3.0, 1.0)
    with pytest.raises(ValueError):
        ff.FrequencyRange.low(0.0)


def test_theta_constants():
    assert np.allclose(ff.THETA, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(ff.THETA_D, [[0.0, 0.0], [0.0, 1.0]])

