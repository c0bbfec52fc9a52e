import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import finitefreq as ff
from finitefreq.model import DimensionError, resolvent, system_from_dict

EXAMPLE = Path(__file__).resolve().parents[1] / "data" / "example1.json"


def example_dict():
    """A fresh system-description dict of the shipped example, for editing."""
    return json.loads(EXAMPLE.read_text())


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


def test_call_is_a_batch_of_one(benchmark_system):
    rng = np.random.default_rng(8)
    M = ff.AffineMatrixFunction(rng.normal(size=(2, 3)),
                                tuple(rng.normal(size=(2, 3)) for _ in range(2)))
    assert np.array_equal(M([0.3, -0.7]), M.batch([[0.3, -0.7]])[0])
    hand = M.constant + 0.3 * M.coeffs[0] - 0.7 * M.coeffs[1]
    assert np.abs(M([0.3, -0.7]) - hand).max() <= 1e-15 * np.abs(hand).max()
    # one parameter: the sum has one term, so M(p) is exactly M0 + p * M1
    A = benchmark_system.A
    assert np.array_equal(A(0.1), A.constant + 0.1 * A.coeffs[0])
    lti = ff.AffineMatrixFunction([[1.0, 2.0]])
    assert np.array_equal(lti([]), lti.constant)


def test_frequency_weight_low_unit():
    psi = ff.frequency_weight(ff.FrequencyRange.low(1.0))
    assert np.allclose(psi, [[-1.0, 0.0], [0.0, 1.0]])
    assert psi.dtype == float and not psi.flags.writeable


def test_frequency_weight_entire_is_zero():
    psi = ff.frequency_weight(ff.FrequencyRange.entire())
    assert np.allclose(psi, 0.0)


def test_frequency_weight_middle():
    psi = ff.frequency_weight(ff.FrequencyRange.middle(1.0, 3.0))
    assert np.allclose(psi, [[-1.0, 2.0j], [-2.0j, -3.0]])
    assert psi.dtype == complex and not psi.flags.writeable


@pytest.mark.parametrize("rng", [
    ff.FrequencyRange.low(2.5),
    ff.FrequencyRange.middle(0.7, 4.0),
    ff.FrequencyRange.high(3.0),
    ff.FrequencyRange.entire(),
])
def test_frequency_weight_is_hermitian(rng):
    psi = ff.frequency_weight(rng)
    assert np.allclose(psi, psi.conj().T, atol=1e-14)


@pytest.mark.parametrize("rng,inside,outside", [
    (ff.FrequencyRange.low(2.0), [0.0, 1.0, 1.99], [2.01, 5.0]),
    (ff.FrequencyRange.middle(1.0, 3.0), [1.01, 2.0, 2.99], [0.5, 0.99, 3.01, 6.0]),
    (ff.FrequencyRange.high(4.0), [4.01, 10.0], [0.0, 3.99]),
])
def test_band_indicator_sign_straddles_thresholds(rng, inside, outside):
    psi = ff.frequency_weight(rng)

    def indicator(w):  # [jw 1]^* Psi [jw 1]
        v = np.array([1j * w, 1.0])
        return float(np.real(v.conj() @ psi @ v))

    for w in inside:
        assert indicator(w) >= 0.0
        assert rng.contains(w)
    for w in outside:
        assert indicator(w) < 0.0
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


def test_batch_is_time_major_and_equals_the_per_row_sum():
    rng = np.random.default_rng(13)
    for l in (0, 1, 2, 3):
        M = ff.AffineMatrixFunction(rng.normal(size=(2, 3)),
                                    tuple(rng.normal(size=(2, 3)) for _ in range(l)))
        P = rng.normal(size=(50, l))
        got = M.batch(P)
        assert got.shape == (50, 2, 3) and got.strides[0] == got.itemsize
        for p, G in zip(P, got):
            want = M.constant.copy()
            for p_i, M_i in zip(p, M.coeffs):
                want = want + p_i * M_i
            assert np.array_equal(G, want)


@pytest.mark.parametrize("l", [2, 3])
def test_batch_rows_do_not_depend_on_the_other_rows(l):
    rng = np.random.default_rng(40 + l)
    for _ in range(50):
        M = ff.AffineMatrixFunction(rng.normal(size=(3, 3)),
                                    tuple(rng.normal(size=(3, 3)) for _ in range(l)))
        P = rng.normal(size=(64, l))
        got = M.batch(P)
        for i in range(len(P)):
            assert np.array_equal(got[i], M(P[i]))
            assert np.array_equal(got[i], M.batch(P[i:i + 1])[0])


def transfer_function(system, w, p=None):
    """G(jw) = C (Re + j Im) + D of the system frozen at p, at the nodes w: (W, q, m)."""
    A, B, C, D = system.frozen(p)
    Re, Im = resolvent(A, B, np.atleast_1d(w))
    return C @ Re + D + 1j * (C @ Im)


def test_transfer_function_scalar_dc():
    s = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    assert transfer_function(s, 0.0)[0] == pytest.approx(1.0)
    g1 = transfer_function(s, 1.0)[0, 0, 0]
    assert abs(g1) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert g1 == pytest.approx(1.0 / (1.0 + 1.0j), abs=1e-12)


def test_transfer_function_benchmark_regression(benchmark_system):
    # independent oracle: direct complex solve
    A, B, C, D = benchmark_system.frozen([0.15])
    oracle = (C @ np.linalg.solve(-A, B) + D)[0, 0]
    g = transfer_function(benchmark_system, 0.0, [0.15])[0, 0, 0]
    assert g == pytest.approx(oracle, abs=1e-12)
    assert g.real == pytest.approx(0.5702366, abs=1e-6)


def test_transfer_function_is_nan_on_a_pole_node_only():
    s = ff.LpvSystem.lti([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]],
                         [[1.0, 0.0]], [[0.0]])
    G = transfer_function(s, [0.5, 1.0, -1.0, 2.0])
    assert np.isnan(G[1:3]).all()
    assert np.isfinite(G[[0, 3]]).all()
    assert G[0, 0, 0] == pytest.approx(1.0 / 0.75, abs=1e-12)  # 1/(1 - w^2)


def test_transfer_function_matches_resolvent_grid(benchmark_system):
    rng = np.random.default_rng(3)
    ws = rng.uniform(0.0, 20.0, 12)
    got = transfer_function(benchmark_system, ws, [0.17])
    A, B, C, D = benchmark_system.frozen([0.17])
    for w, g in zip(ws, got):
        M = 1j * w * np.eye(2) - A
        oracle = C @ (np.linalg.inv(M) @ B) + D
        assert np.linalg.norm(g - oracle) <= 1e-10 * max(1.0, np.linalg.norm(oracle))


BAND_KINDS = [ff.FrequencyRange.low(1.3), ff.FrequencyRange.middle(0.4, 2.5),
              ff.FrequencyRange.high(3.0), ff.FrequencyRange.entire()]


@given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 3), st.sampled_from(BAND_KINDS),
       st.integers(0, 2**32 - 1))
def test_resolvent_equals_the_complex_solve(n, k, stack, band, seed):
    from finitefreq.gramians import _band_nodes
    g = np.random.default_rng(seed)
    N = g.normal(size=(stack, n, n))
    A = N - (np.linalg.norm(N, 2, axis=(1, 2)) + 0.5)[:, None, None] * np.eye(n)  # Hurwitz
    X = g.normal(size=(stack, n, k))
    w = _band_nodes(band, 7)[0]
    Re, Im = resolvent(A, X, w)
    assert Re.shape == Im.shape == (stack, len(w), n, k)
    ref = np.linalg.solve(1j * w[:, None, None] * np.eye(n) - A[:, None], X[:, None])
    err = np.abs(Re + 1j * Im - ref).max(axis=(-2, -1))
    assert (err <= 1e-12 * np.abs(ref).max(axis=(-2, -1))).all()


def test_system_json_roundtrip(benchmark_system):
    # the shipped file, through JSON text, is the reference example entry for entry
    s2 = system_from_dict(json.loads(json.dumps(example_dict())))
    for name in "ABCD":
        M, ref = getattr(s2, name), getattr(benchmark_system, name)
        assert np.array_equal(M.constant, ref.constant)
        assert len(M.coeffs) == len(ref.coeffs)
        assert all(np.array_equal(c, r) for c, r in zip(M.coeffs, ref.coeffs))
    for name in ("p_lower", "p_upper", "rate_lower", "rate_upper"):
        assert np.array_equal(getattr(s2.box, name), getattr(benchmark_system.box, name))
    assert np.allclose(s2.A([0.13]), benchmark_system.A([0.13]))
    assert np.allclose(s2.box.rate_upper, [0.6])


def test_system_json_rejects_unknown_keys():
    d = example_dict()
    d["bogus"] = 1
    with pytest.raises(ValueError, match="unknown"):
        system_from_dict(d)


@pytest.mark.parametrize("top", [5, [1, 2], "A0"])
def test_system_json_rejects_a_top_level_that_is_not_an_object(top):
    with pytest.raises(ValueError, match="is a JSON object, got"):
        system_from_dict(top)


@pytest.mark.parametrize("coeffs", [5, [], [[[1.0, 0.0], [0.0, 1.0]]] * 2])
def test_system_json_rejects_coefficients_that_do_not_list_one_per_parameter(coeffs):
    d = example_dict()
    d["A"] = coeffs
    with pytest.raises(DimensionError, match="A must list 1 coefficient matrices"):
        system_from_dict(d)


@pytest.mark.parametrize("key,index", [("A0", (0, 0)), ("D", (0, 0, 0)), ("rate_upper", (0,))])
def test_system_json_rejects_non_finite_entries(key, index):
    for bad in (float("nan"), float("inf"), None):
        d = example_dict()
        entry = d[key]
        for i in index[:-1]:
            entry = entry[i]
        entry[index[-1]] = bad
        with pytest.raises(ValueError, match=f"'{key}'"):
            system_from_dict(d)


@pytest.mark.parametrize("key,value,match", [
    ("n", [1], "'n' must be a nonnegative integer"),
    ("params", 1.5, "'params' must be a nonnegative integer"),
    ("inputs", "1", "'inputs' must be a nonnegative integer"),
    ("outputs", True, "'outputs' must be a nonnegative integer"),
    ("n", -2, "'n' must be a nonnegative integer"),
    ("A0", {"a": 1}, "'A0' must hold numbers"),
    ("B", [[["x"], [1.0]]], "'B' must hold numbers"),
    ("p_lower", "low", "'p_lower' must hold numbers"),
])
def test_system_json_rejects_entries_of_the_wrong_json_type(key, value, match):
    d = example_dict()
    d[key] = value
    with pytest.raises(ValueError, match=match):
        system_from_dict(d)


def test_system_json_accepts_integral_float_counts():
    d = example_dict()
    d["n"] = 2.0
    assert system_from_dict(d).n == 2


def test_frozen_names_both_parameter_counts(benchmark_system):
    with pytest.raises(DimensionError, match="p has 2 values, the system has 1 parameter$"):
        benchmark_system.frozen([0.15, 0.1])
    lti = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(DimensionError, match="p has 1 value, the system has 0 parameters"):
        lti.frozen([0.1])
    assert np.array_equal(benchmark_system.frozen(0.15)[0], benchmark_system.A([0.15]))


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

