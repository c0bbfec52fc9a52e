import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import finitefreq as ff
from finitefreq.lmi import build_problem
from finitefreq.sdp import AffineSymmetricForm
from conftest import eval_blocks


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


def test_symmetry_checks_decide_as_allclose_on_finite_input():
    rng = np.random.default_rng(4)
    # offsets within a factor 2 of the rule's threshold 1e-10 + 1e-5 |x|, both ways
    for k in range(200):
        x = 10.0 ** rng.uniform(-12, 3)
        C = np.array([[1.0, x], [x, 2.0]])
        C[0, 1] += rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * (1e-10 + 1e-5 * x)
        H = C + 1j * np.array([[0.0, x], [-x, 0.0]])
        for check, M in ((lambda M: AffineSymmetricForm([M], [np.zeros((0, 2, 2))]), C),
                         (lambda M: AffineSymmetricForm([np.eye(2)], [M[None]]), C),
                         (ff.real_embedding, H)):
            if np.allclose(M, M.T.conj(), atol=1e-10):
                check(M)
            else:
                with pytest.raises(ValueError, match="symmetric|Hermitian"):
                    check(M)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_symmetry_checks_reject_non_finite_entries(bad):
    form = _scalar_kyp_form(1.5)
    C = np.eye(2)
    C[0, 1] = bad
    for M in (C, np.full((2, 2), bad)):
        with pytest.raises(ValueError, match="not finite"):
            form.with_constants([M])
        with pytest.raises(ValueError, match="not finite"):
            AffineSymmetricForm([np.eye(2)], [M[None]])
        with pytest.raises(ValueError, match="not finite"):
            ff.real_embedding(M + 0j)


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
    assert [C.shape for C in other.constant_blocks] == [(2, 2)]
    with pytest.raises(ValueError, match="symmetric"):
        form.with_constants([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError):
        form.with_constants([np.eye(3)])
    with pytest.raises(ValueError):
        form.with_constants([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        AffineSymmetricForm([[[-1.0]]], [])  # mismatched block lists


def _random_positive_definite(seed):
    G = np.random.default_rng(seed).normal(size=(4, 4))
    return 3.0 * G @ G.T + 0.01 * np.eye(4)


def _maximize_shift(M, c, gap_tol=1e-9):
    """max t subject to M - (c + t)*I >= 0, one free variable x boxed by -1 <= x <= 1."""
    from finitefreq.sdp import minimize, stack_blocks
    blocks = [(M - c * np.eye(4), np.stack([np.zeros((4, 4)), -np.eye(4)])),
              (np.ones((1, 1)), np.array([[[-1.0]], [[0.0]]])),
              (np.ones((1, 1)), np.array([[[1.0]], [[0.0]]]))]
    t0 = np.linalg.eigvalsh(M).min() - c - 1.0
    return minimize(stack_blocks(blocks, False), np.array([0.0, t0]), target=np.inf,
                    gap_tol=gap_tol)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimize_to_the_gap_finds_the_smallest_eigenvalue(seed):
    M = _random_positive_definite(seed)
    lam = np.linalg.eigvalsh(M).min()
    res = _maximize_shift(M, 0.0)
    assert res.t == pytest.approx(lam, abs=1e-9)
    assert res.t <= lam <= res.bound
    assert np.linalg.eigvalsh(M - res.t * np.eye(4)).min() >= 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimize_to_the_gap_reaches_a_negative_optimum(seed):
    # c = lambda_min(M) + 1 puts t* at -1: with no finite target, dual bounds below
    # zero must not end the run
    M = _random_positive_definite(seed)
    c = np.linalg.eigvalsh(M).min() + 1.0
    t_star = np.linalg.eigvalsh(M).min() - c
    res = _maximize_shift(M, c)
    assert t_star < 0.0 and res.nit > 0
    assert res.t == pytest.approx(t_star, abs=1e-9)
    assert res.t <= t_star <= res.bound
    assert np.linalg.eigvalsh(M - (c + res.t) * np.eye(4)).min() >= 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimize_stops_at_the_gap_asked(seed):
    # the duality gap bounds t* - t: a looser gap ends the run sooner, still within it
    M = _random_positive_definite(seed)
    lam = np.linalg.eigvalsh(M).min()
    tight, loose = _maximize_shift(M, 0.0), _maximize_shift(M, 0.0, gap_tol=1e-3)
    assert loose.nit < tight.nit
    assert lam - 1e-3 <= loose.t <= lam <= loose.bound
    assert np.linalg.eigvalsh(M - loose.t * np.eye(4)).min() >= 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimize_eigensolves_the_hessian_once_per_barrier_evaluation(seed, monkeypatch):
    # a centred iterate only shrinks mu, so it reuses the decomposition of its Hessian
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    res = _run(_two_blocks(seed) + _box_rows())
    assert res.nit > 0 and len(calls) <= res.nfev


def _symmetric(rng, k, scale=1.0):
    G = rng.normal(scale=scale, size=(k, k))
    return G + G.T


def test_max_eig_neg_stacks_match_the_blockwise_loop():
    rng = np.random.default_rng(9)
    sizes = (1, 3, 2, 3, 1)
    K = [np.stack([_symmetric(rng, k) for _ in range(2)]) for k in sizes]
    form = AffineSymmetricForm([_symmetric(rng, k) for k in sizes], K)
    x = rng.normal(size=2)
    for f in (form, form.with_constants([_symmetric(rng, k) for k in sizes])):
        ref = max(np.linalg.eigvalsh(-Fb).max() for Fb in eval_blocks(f, x))
        assert ff.max_eig_neg(f, x) == pytest.approx(ref, rel=1e-13, abs=1e-14)


def test_a_form_without_variables_is_decided_by_its_constants():
    form = AffineSymmetricForm([np.eye(2), [[2.0]]], [np.zeros((0, 2, 2)), np.zeros((0, 1, 1))])
    assert ff.max_eig_neg(form, []) == -1.0
    assert ff.solve_feasibility(form, 0.5).feasible
    assert not ff.solve_feasibility(form, 1.5).feasible


def _two_blocks(seed):
    """A 4x4 and a 2x2 block over (x, t): M_b + x K_b - t I, each with a planted interior."""
    rng = np.random.default_rng(seed)
    out = []
    for k in (4, 2):
        G = rng.normal(size=(k, k))
        out.append((G @ G.T + 0.5 * np.eye(k), np.stack([_symmetric(rng, k, 0.3), -np.eye(k)])))
    return out


def _box_rows():
    # -1 <= x <= 1 as 1x1 blocks
    return [(np.ones((1, 1)), np.array([[[-1.0]], [[0.0]]])),
            (np.ones((1, 1)), np.array([[[1.0]], [[0.0]]]))]


def _run(blocks):
    from finitefreq.sdp import minimize, stack_blocks
    t0 = min(np.linalg.eigvalsh(C).min() for C, _ in blocks) - 1.0
    return minimize(stack_blocks(blocks, False), np.array([0.0, t0]), target=np.inf)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_padded_batch_reaches_the_block_diagonal_optimum(seed):
    from scipy.linalg import block_diag
    blocks = _two_blocks(seed)
    (C4, K4), (C2, K2) = blocks
    dense = [(block_diag(C4, C2), np.stack([block_diag(a, b) for a, b in zip(K4, K2)]))]
    packed, ref = _run(blocks + _box_rows()), _run(dense + _box_rows())
    assert packed.t == pytest.approx(ref.t, abs=1e-9)
    assert packed.t <= ref.bound + 1e-9 and ref.t <= packed.bound + 1e-9
    x, t = packed.x[0], packed.t
    assert -1.0 <= x <= 1.0
    for C, K in blocks:
        assert np.linalg.eigvalsh(C + x * K[0] - t * np.eye(len(C))).min() >= -1e-12


def test_extra_pad_rows_leave_the_iterates_alone():
    from finitefreq.sdp import Pencil, minimize, stack_blocks
    pencil = stack_blocks(_two_blocks(3) + _box_rows(), False)
    B, k = pencil.C.shape[:2]
    C = np.tile(np.eye(k + 2), (B, 1, 1))
    C[:, :k, :k] = pencil.C
    A = np.zeros((2, B, k + 2, k + 2))
    A[:, :, :k, :k] = pencil.A
    wider = Pencil(C, A, pencil.c, pencil.a, pencil.rows)
    y0 = np.array([0.0, min(np.linalg.eigvalsh(C).min() for C, _ in _two_blocks(3)) - 1.0])
    a, b = minimize(pencil, y0, target=np.inf), minimize(wider, y0, target=np.inf)
    assert (a.nit, a.nfev) == (b.nit, b.nfev)
    assert b.t == pytest.approx(a.t, abs=1e-12)


def test_packed_hessian_and_gradient_match_the_blockwise_traces():
    from finitefreq.sdp import RADIUS, _barrier, stack_blocks
    rng = np.random.default_rng(5)
    nv = 3  # two free variables and t
    blocks = []
    for k in (4, 2, 3, 1, 2, 1):
        G = rng.normal(size=(k, k))
        blocks.append((G @ G.T + 2.0 * np.eye(k), np.stack([_symmetric(rng, k) for _ in range(nv)])))
    y = np.array([0.05, -0.03, 0.02])
    E = np.eye(nv - 1, nv)
    box = [(np.array([[RADIUS]]), s * E[j][:, None, None]) for s in (1.0, -1.0) for j in range(nv - 1)]
    H_ref, g_ref = np.zeros((nv, nv)), np.zeros(nv)
    for C, K in blocks + box:
        S_inv_A = np.linalg.solve(C + np.tensordot(y, K, axes=1), K)  # (nv, k, k)
        H_ref += np.einsum("ikl,jlk->ij", S_inv_A, S_inv_A)
        g_ref += np.einsum("jkk->j", S_inv_A)
    pencil = stack_blocks(blocks, False)
    assert pencil.C.shape == (4, 4, 4) and len(pencil.c) == 2 + 2 * (nv - 1)
    assert pencil.rows == 4 + 2 + 3 + 2 + 2 + 2 * (nv - 1)
    # sizes in order of first appearance (4, 2, 3), each normalized by its largest
    # spectral norm; the 1x1 blocks lead the scalar rows
    for slot, i in enumerate((0, 1, 4, 2)):
        C, K = blocks[i]
        sb = max(np.linalg.norm(C, 2), np.linalg.norm(K, 2, axis=(1, 2)).max())
        q = len(C)
        assert np.allclose(pencil.C[slot, :q, :q], C / sb, rtol=1e-13, atol=1e-15)
        assert np.allclose(pencil.A[:, slot, :q, :q], K / sb, rtol=1e-13, atol=1e-15)
        assert np.array_equal(pencil.C[slot, q:, q:], np.eye(4 - q))
        assert not pencil.C[slot, :q, q:].any() and not pencil.A[:, slot, q:].any()
    for row, i in enumerate((3, 5)):
        C, K = blocks[i]
        sb = max(abs(C[0, 0]), np.abs(K).max())
        assert pencil.c[row] == pytest.approx(C[0, 0] / sb, rel=1e-13)
        assert np.allclose(pencil.a[row], K[:, 0, 0] / sb, rtol=1e-13, atol=1e-15)
    _, _, H, g = _barrier(pencil, y)
    assert np.abs(H - H_ref).max() <= 1e-10 * np.abs(H_ref).max()
    assert np.abs(g - g_ref).max() <= 1e-10 * np.abs(g_ref).max()


def test_an_all_scalar_pencil_has_an_empty_batch():
    from finitefreq.sdp import minimize, stack_blocks
    # max t subject to x - 1 - t >= 0 and 2 - x - t >= 0: t* = 1/2 at x = 3/2
    blocks = [(np.array([[-1.0]]), np.array([[[1.0]], [[-1.0]]])),
              (np.array([[2.0]]), np.array([[[-1.0]], [[-1.0]]]))]
    pencil = stack_blocks(blocks, False)
    assert pencil.C.shape[0] == 0 and pencil.rows == 4
    res = minimize(pencil, np.array([1.5, -1.0]), target=np.inf)
    assert res.t == pytest.approx(0.5, abs=1e-9) and res.x[0] == pytest.approx(1.5, abs=1e-6)
    assert res.t <= 0.5 <= res.bound


def test_step_length_stops_at_the_cap_while_the_barrier_descends():
    from finitefreq.sdp import _step_length
    w = np.array([-128.0, 0.5, 2.0, 3.0])
    cap = 0.99 / 128.0
    assert -1.4e5 - (w / (1.0 + cap * w)).sum() < 0  # still descending at the cap
    assert _step_length(w, 1.4e5) == cap


def test_step_length_finds_an_interior_minimizer():
    from finitefreq.sdp import _step_length
    w = np.array([-2.0, 0.5, 1.0])  # descending at 0, ascending at the cap 0.495
    a = _step_length(w, 1.0)
    assert 0.0 < a < 0.99 / 2.0
    assert abs(-1.0 - (w / (1.0 + a * w)).sum()) <= 2e-12
    assert a == 0.08378263161399575  # the bracketed Newton iterate, as before the cap check
