import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import finitefreq as ff
from finitefreq.lmi import build_problem
from finitefreq.sdp import AffineSymmetricForm


def _interval_form():
    # F(x) = diag(x - 1, 2 - x)
    return AffineSymmetricForm([[[-1.0]], [[2.0]]], [[[[1.0]]], [[[-1.0]]]])


def test_max_eig_neg_scalar_blocks():
    F = _interval_form()
    assert ff.max_eig_neg(F, [1.5]) == pytest.approx(-0.5)
    assert ff.max_eig_neg(F, [0.0]) == pytest.approx(1.0)


def test_max_eig_neg_matches_dense_eigensolver():
    rng = np.random.default_rng(11)
    M = rng.normal(size=(4, 4))
    C = 0.5 * (M + M.T)
    F = AffineSymmetricForm([C], [np.zeros((1, 4, 4))])
    assert ff.max_eig_neg(F, [0.0]) == pytest.approx(np.linalg.eigvalsh(-C).max(), abs=1e-12)


def test_solve_feasibility_interval():
    res = ff.solve_feasibility(_interval_form(), 0.1)
    assert res.feasible
    assert 1.1 - 1e-9 <= res.x[0] <= 1.9 + 1e-9
    assert res.achieved_margin >= 0.1 - 1e-9


def test_solve_feasibility_contradictory():
    # F(x) = diag(x - 1, -x): no x gives both blocks positive
    F = AffineSymmetricForm([[[-1.0]], [[0.0]]], [[[[1.0]]], [[[-1.0]]]])
    res = ff.solve_feasibility(F, 0.05)
    assert not res.feasible
    assert res.dual_bound < 0  # a dual certificate, not just "no point found"


def test_variable_in_no_block_keeps_the_verdict():
    # x[1] has zero coefficients everywhere, so the barrier's Hessian has a zero
    # row without the radius box
    def form(c2):
        return AffineSymmetricForm([[[-1.0]], [[c2]]],
                                   [[[[1.0]], [[0.0]]], [[[-1.0]], [[0.0]]]])

    res = ff.solve_feasibility(form(2.0), 0.1)
    assert res.feasible and 1.1 - 1e-9 <= res.x[0] <= 1.9 + 1e-9
    assert np.all(np.isfinite(res.x))
    res = ff.solve_feasibility(form(0.0), 0.05)
    assert not res.feasible and res.dual_bound < 0
    assert res.iterations < 100


@pytest.mark.parametrize("gamma,expected", [(2.5, True), (2.0, False)])
def test_ill_scaled_band_probe(benchmark_system, gamma, expected):
    # on low:0.5 the Q-slab coefficients have norms 400-750 against 3-34 for the P slabs
    prob = build_problem(benchmark_system, ff.FrequencyRange.low(0.5), "lpv_ff", gamma)
    res = ff.solve_feasibility(prob.form, prob.margin)
    assert res.feasible is expected
    assert expected or res.dual_bound < 0


@given(st.integers(0, 10_000))
def test_planted_strictly_feasible_forms_are_found(seed):
    # F(x*) >= 2*margin*I by construction, so a feasible verdict is owed
    rng = np.random.default_rng(seed)
    nvar, margin = int(rng.integers(1, 7)), float(rng.choice([1e-6, 1e-2, 0.5]))
    x_star = rng.normal(scale=float(rng.choice([0.1, 1.0, 30.0])), size=nvar)
    consts, coeffs = [], []
    for k in rng.integers(1, 5, size=int(rng.integers(1, 4))):
        K = rng.normal(size=(nvar, k, k))
        K = K + K.transpose(0, 2, 1)
        G = rng.normal(size=(k, k)) * float(rng.choice([0.0, 1.0]))
        consts.append(2 * margin * np.eye(k) + G @ G.T - np.tensordot(x_star, K, axes=(0, 0)))
        coeffs.append(K)
    form = AffineSymmetricForm(consts, coeffs)
    res = ff.solve_feasibility(form, margin)
    assert res.feasible
    assert ff.max_eig_neg(form, res.x) <= -margin


def _scalar_kyp_form(gamma):
    # hand expansion for A=-1, B=1, C=1, D=0, Pi = diag(1, -g^2):
    # G(P) = [[-2P + 1, P], [P, -g^2]];  F = -G
    C0 = np.array([[-1.0, 0.0], [0.0, gamma**2]])
    K = np.array([[[2.0, -1.0], [-1.0, 0.0]]])
    return AffineSymmetricForm([C0], [K])


@pytest.mark.parametrize("gamma,expected", [(0.99, False), (1.01, True)])
def test_scalar_kyp_flip_at_unit_gain(gamma, expected):
    res = ff.solve_feasibility(_scalar_kyp_form(gamma), 1e-9)
    assert res.feasible is expected


def test_feasible_verdicts_are_verified():
    # a feasible verdict always carries a point meeting the margin
    for gamma in (1.001, 1.05, 2.0):
        form = _scalar_kyp_form(gamma)
        res = ff.solve_feasibility(form, 1e-9)
        assert res.feasible
        assert ff.max_eig_neg(form, res.x) <= -1e-9 + 1e-12


def test_real_embedding_complex_pair():
    H = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
    E = ff.real_embedding(H)
    assert E.shape == (4, 4)
    assert np.allclose(np.linalg.eigvalsh(E), [1.0, 1.0, 3.0, 3.0], atol=1e-12)


def test_real_embedding_identity_and_real():
    assert np.allclose(ff.real_embedding(np.eye(2)), np.eye(4))
    S = np.array([[2.0, 0.5], [0.5, 1.0]])
    E = ff.real_embedding(S)
    assert np.allclose(np.sort(np.linalg.eigvalsh(E)),
                       np.sort(np.repeat(np.linalg.eigvalsh(S), 2)), atol=1e-12)


def test_real_embedding_rejects_non_hermitian():
    with pytest.raises(ValueError):
        ff.real_embedding(np.array([[1.0, 2.0], [3.0, 4.0]]))


@given(st.integers(0, 49))
def test_real_embedding_spectrum_doubles(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 9))
    M = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    H = 0.5 * (M + M.conj().T)
    E = ff.real_embedding(H)
    got = np.sort(np.linalg.eigvalsh(E))
    want = np.sort(np.repeat(np.linalg.eigvalsh(H), 2))
    assert np.allclose(got, want, atol=1e-10)


def test_warm_start_and_iteration_budget():
    form = _scalar_kyp_form(1.2)
    res1 = ff.solve_feasibility(form, 1e-9)
    res2 = ff.solve_feasibility(form, 1e-9, x0=res1.x)
    assert res2.feasible and res2.iterations <= res1.iterations + 5


def test_with_constants_shares_coefficients_and_checks_constants():
    form = _scalar_kyp_form(1.5)
    other = form.with_constants([form.constant_blocks[0] + np.eye(2)])
    assert other.coeff_blocks[0] is form.coeff_blocks[0]
    assert np.array_equal(other.constant_blocks[0], form.constant_blocks[0] + np.eye(2))
    assert other.block_sizes == [2]
    with pytest.raises(ValueError, match="symmetric"):
        form.with_constants([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError):
        form.with_constants([np.eye(3)])
    with pytest.raises(ValueError):
        form.with_constants([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        AffineSymmetricForm([[[-1.0]]], [])  # mismatched block lists


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimize_to_the_gap_finds_the_smallest_eigenvalue(seed):
    # max s subject to M - s*I >= 0, with one free variable x boxed by -1 <= x <= 1;
    # M is positive definite, since a dual bound below zero stops the run
    from finitefreq.sdp import minimize, stack_blocks
    G = np.random.default_rng(seed).normal(size=(4, 4))
    M = 3.0 * G @ G.T + 0.01 * np.eye(4)
    blocks = [(M, np.stack([np.zeros((4, 4)), -np.eye(4)])),
              (np.ones((1, 1)), np.array([[[-1.0]], [[0.0]]])),
              (np.ones((1, 1)), np.array([[[1.0]], [[0.0]]]))]
    lam = np.linalg.eigvalsh(M).min()
    res = minimize(stack_blocks(blocks, False), np.array([0.0, lam - 1.0]), 4000, target=np.inf)
    assert res.t == pytest.approx(lam, abs=1e-9)
    assert res.t <= lam <= res.bound
    assert np.linalg.eigvalsh(M - res.t * np.eye(4)).min() >= 0.0
