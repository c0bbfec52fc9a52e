import dataclasses
import itertools

import numpy as np
import pytest

import finitefreq as ff
from finitefreq import lmi
from finitefreq.lmi import build_problem
from finitefreq.model import grid
from finitefreq.sdp import solve_feasibility
from conftest import inband_sup, random_stable_lti

LOW1 = ff.FrequencyRange.low(1.0)


def _scalar_lti():
    return ff.LpvSystem.lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])


def test_kyp_scalar_hand_expansion():
    # G(P) = [[-2P + 1, P], [P, -g^2]] for A=-1, B=C=1, D=0
    form = build_problem(_scalar_lti(), ff.FrequencyRange.entire(), "kyp", 1.5).form
    assert [C.shape for C in form.constant_blocks] == [(2, 2)]
    assert np.allclose(form.constant_blocks[0], -np.array([[1.0, 0.0], [0.0, -2.25]]))
    assert np.allclose(form.coeff_blocks[0][0], -np.array([[-2.0, 1.0], [1.0, 0.0]]))


def test_kyp_zero_index_feasible_with_zero_certificate():
    # zero output and zero gain: the index term CD^T Pi CD vanishes
    sys = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[0.0]], [[0.0]])
    form = build_problem(sys, ff.FrequencyRange.entire(), "kyp", 0.0).form
    assert not np.any(form.constant_blocks[0])
    res = solve_feasibility(form, 0.0)
    assert res.feasible


def test_kyp_zero_output_feasible_any_gain():
    sys = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[0.0]], [[0.0]])
    form = build_problem(sys, ff.FrequencyRange.entire(), "kyp", 1e-3).form
    assert solve_feasibility(form, 1e-9).feasible


def test_min_gamma_scalar_unit_gain():
    res = ff.min_gamma(_scalar_lti(), ff.FrequencyRange.entire(), "kyp", bisect_tol=1e-4)
    assert res.gamma_star == pytest.approx(1.0, abs=1e-3)


def test_gkyp_low_band_flip_at_dc_peak():
    # in-band peak of 1/(1+jw) on |w| <= 0.1 sits at w = 0 with value 1
    res = ff.min_gamma(_scalar_lti(), ff.FrequencyRange.low(0.1), "gkyp", bisect_tol=1e-4)
    assert res.gamma_star == pytest.approx(1.0, abs=1e-3)


def test_gkyp_high_band_flip_at_edge():
    res = ff.min_gamma(_scalar_lti(), ff.FrequencyRange.high(10.0), "gkyp", bisect_tol=1e-5)
    assert res.gamma_star == pytest.approx(1.0 / np.sqrt(101.0), rel=1e-3)


def _verdicts(system, rng, mode, gammas):
    out = []
    for g in gammas:
        prob = build_problem(system, rng, mode, g)
        out.append(solve_feasibility(prob.form, prob.margin).feasible)
    return out


def test_reduction_gkyp_entire_equals_kyp():
    rng = np.random.default_rng(5)
    A, B, C, D = random_stable_lti(rng)
    sys = ff.LpvSystem.lti(A, B, C, D)
    gstar = inband_sup(A, B, C, D, ff.FrequencyRange.entire())
    probes = gstar * np.array([0.5, 0.7, 0.9, 0.95, 1.05, 1.1, 1.3, 1.7, 2.5, 4.0])
    v_kyp = _verdicts(sys, ff.FrequencyRange.entire(), "kyp", probes)
    v_gkyp = _verdicts(sys, ff.FrequencyRange.entire(), "gkyp", probes)
    assert v_kyp == v_gkyp


def test_reduction_zero_coefficients_equals_gkyp():
    rng = np.random.default_rng(6)
    A, B, C, D = random_stable_lti(rng)
    lti = ff.LpvSystem.lti(A, B, C, D)
    z = np.zeros
    embedded = ff.LpvSystem(
        ff.AffineMatrixFunction(A, (z((2, 2)),)), ff.AffineMatrixFunction(B, (z((2, 1)),)),
        ff.AffineMatrixFunction(C, (z((1, 2)),)), ff.AffineMatrixFunction(D, (z((1, 1)),)),
        ff.ParameterBox([0.1], [0.2], [0.4], [0.6]))
    band = ff.FrequencyRange.low(1.0)
    gstar = inband_sup(A, B, C, D, band)
    probes = gstar * np.array([0.5, 0.8, 0.95, 1.05, 1.2, 1.5, 2.0, 3.0, 5.0, 8.0])
    assert _verdicts(embedded, band, "lpv_ff", probes) == _verdicts(lti, band, "gkyp", probes)


def test_reduction_constant_q_matches_band_condition(benchmark_system):
    # zeroing the Q coefficient turns every enlarged-band block into the
    # constant-Q block: F_t2((P, Q0, Q1=0)) == F_ff((P, Q0)) at each vertex
    band = ff.FrequencyRange.low(5.955)
    rng = np.random.default_rng(2)
    t = 3  # symmetric 2x2 entries per slab
    x_ff = rng.normal(size=3 * t)
    x_t2 = np.concatenate([x_ff[:2 * t], x_ff[2 * t:], np.zeros(t)])
    f_ff = build_problem(benchmark_system, band, "lpv_ff", 4.0).form
    f_t2 = build_problem(benchmark_system, band, "theorem2", 4.0).form
    n_vertices = len(f_ff.coeff_blocks) - 1  # lpv_ff adds one Q >= 0 block
    box = benchmark_system.box
    n_corners = len(grid(box.p_lower, box.p_upper)) * len(grid(box.rate_lower, box.rate_upper))
    assert n_vertices == n_corners == 4
    for lhs, rhs in zip(f_t2.eval_blocks(x_t2)[:n_vertices], f_ff.eval_blocks(x_ff)[:n_vertices]):
        assert np.allclose(lhs, rhs, atol=1e-10)
    # and the enlarged decision space can only lower the certified gain
    probes = [2.0, 2.8, 3.1, 3.6, 4.2, 5.0, 6.5, 8.0, 10.0, 15.0]
    v_ff = _verdicts(benchmark_system, band, "lpv_ff", probes)
    v_t2 = _verdicts(benchmark_system, band, "theorem2", probes)
    assert all(t2 or not f for f, t2 in zip(v_ff, v_t2))
    assert v_ff[0] is False and v_ff[-1] is True


def test_degenerate_box_reduces_to_frozen(benchmark_system):
    box = ff.ParameterBox([0.15], [0.15], [0.0], [0.0])
    frozen = ff.LpvSystem(benchmark_system.A, benchmark_system.B, benchmark_system.C,
                          benchmark_system.D, box)
    g1 = ff.min_gamma(frozen, LOW1, "lpv_ff", bisect_tol=1e-3).gamma_star
    g2 = ff.min_gamma(benchmark_system, LOW1, "gkyp", bisect_tol=1e-3).gamma_star  # at p = 0.15
    assert g1 == pytest.approx(g2, abs=2e-3)


def test_lpv_ff_benchmark(benchmark_system):
    res = ff.min_gamma(benchmark_system, LOW1, "lpv_ff", bisect_tol=1e-3)
    # regression for this implementation (cross-checked against an
    # interior-point solve of the identical vertex problem: 2.1495)
    assert res.gamma_star == pytest.approx(2.1499, abs=0.02)
    # the published 3.7767 level is indeed feasible (a valid, looser bound)
    prob = build_problem(benchmark_system, LOW1, "lpv_ff", 3.7767)
    assert solve_feasibility(prob.form, prob.margin).feasible
    # monotone feasibility along the bisection trace
    feas_g = [g for g, okay in res.bisection_trace if okay]
    infeas_g = [g for g, okay in res.bisection_trace if not okay]
    assert max(infeas_g) < min(feas_g)


def test_lpv_ef_benchmark(benchmark_system):
    res = ff.min_gamma(benchmark_system, LOW1, "lpv_ef", bisect_tol=1e-3)
    assert res.gamma_star == pytest.approx(4.4233, abs=0.02)
    # the feedthrough pins the floor: gamma >= max |D(p)| over the box
    assert res.gamma_star >= 4.6104 - 0.2 * 1.8747 - 1e-3
    prob = build_problem(benchmark_system, LOW1, "lpv_ef", 5.2445)
    assert solve_feasibility(prob.form, prob.margin).feasible


def test_lpv_ef_unstable_has_no_bound():
    sys = ff.LpvSystem.lti([[1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(RuntimeError, match="finite bound"):
        ff.min_gamma(sys, LOW1, "lpv_ef", bisect_tol=1e-2)


def test_theorem2_benchmark_enlarged(benchmark_system):
    band = ff.FrequencyRange.low(5.955)
    res = ff.min_gamma(benchmark_system, band, "theorem2", bisect_tol=1e-3)
    lo, hi = res.bracket
    assert res.gamma_star == hi and hi - lo <= 1e-3
    # a certified level bounds every frozen in-band gain from above
    peak = max(inband_sup(*benchmark_system.frozen(p), band)
               for p in benchmark_system.box.p_grid(11))
    assert res.gamma_star >= peak
    prob = build_problem(benchmark_system, band, "theorem2", res.gamma_star)
    assert ff.max_eig_neg(prob.form, res.x) <= -prob.margin / 2
    assert res.gamma_star <= 3.3262  # no worse than the earlier smoothed-eigenvalue engine
    prob = build_problem(benchmark_system, band, "theorem2", 5.0313)
    assert solve_feasibility(prob.form, prob.margin).feasible


def test_gamma_ordering_in_nested_bands(benchmark_system):
    gs = [ff.min_gamma(benchmark_system, ff.FrequencyRange.low(w), "lpv_ff",
                       bisect_tol=1e-3).gamma_star for w in (0.5, 2.0, 8.0)]
    assert gs[0] <= gs[1] + 2e-3 <= gs[2] + 4e-3


def test_certificate_reverifies(benchmark_system):
    res = ff.min_gamma(benchmark_system, LOW1, "lpv_ef", bisect_tol=1e-2)
    prob = build_problem(benchmark_system, LOW1, "lpv_ef", res.bracket[1])
    assert ff.max_eig_neg(prob.form, res.x) <= -prob.margin / 2


def test_verify_on_grid_flags_corruption(benchmark_system):
    res = ff.min_gamma(benchmark_system, LOW1, "lpv_ef", bisect_tol=1e-2)
    prob = build_problem(benchmark_system, LOW1, "lpv_ef", res.bracket[1])
    assert ff.verify_on_grid(prob, res.x, grid_density=21) == []
    assert res.relaxation_gap_flag is False
    bad = res.x.copy()
    bad[0] += 0.1
    assert len(ff.verify_on_grid(prob, bad, grid_density=21)) > 0


def test_verify_on_grid_lti_exactness():
    rng = np.random.default_rng(9)
    A, B, C, D = random_stable_lti(rng)
    sys = ff.LpvSystem.lti(A, B, C, D)
    res = ff.min_gamma(sys, ff.FrequencyRange.entire(), "kyp", bisect_tol=1e-3)
    assert res.relaxation_gap_flag is False


def test_uas_certificate_benchmark_fixed_scalars(benchmark_system):
    cert = ff.uas_certificate(benchmark_system, 7.4, 0.5, 0.6)
    assert cert.alpha == pytest.approx(1.2)
    assert cert.beta == pytest.approx(7.4 / 1.2, rel=1e-12)
    assert cert.c3 == 7.4  # no failover needed
    # certificate matrices actually sit inside the scalar envelope
    for p in (0.1, 0.15, 0.2):
        P = cert.P[0] + p * cert.P[1]
        ev = np.linalg.eigvalsh(P)
        assert ev.min() >= 0.5 - 1e-6 and ev.max() <= 0.6 + 1e-6


def test_uas_certificate_scalar_boundary():
    sys = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    cert = ff.uas_certificate(sys, 2.0, 1.0, 1.0)
    assert cert.alpha == pytest.approx(1.0)
    assert cert.beta == pytest.approx(1.0)


def test_uas_certificate_unstable_fails():
    sys = ff.LpvSystem.lti([[1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(RuntimeError, match="no UAS certificate"):
        ff.uas_certificate(sys, 1.0, 0.5, 0.6)


def test_uas_certificate_c3_failover():
    sys = ff.LpvSystem.lti([[-0.05]], [[1.0]], [[1.0]], [[0.0]])
    cert = ff.uas_certificate(sys, 7.4, 0.5, 1.0)
    assert cert.c3 < 7.4
    assert cert.beta == pytest.approx(cert.c3 / 2.0)


def _decay_min_eigs(system, cert):
    """Smallest eigenvalues of P(p) - c1 I, c2 I - P(p) and the decay block less c3 I over the corners.

    The decay block -(A(p)^T P(p) + P(p) A(p) + sum_i r_i P_i) is written out by
    hand and taken at every parameter corner and stored rate corner.
    """
    box, n = system.box, system.n
    out = []
    for p in grid(box.p_lower, box.p_upper):
        P = cert.P[0] + sum(pi * Pi for pi, Pi in zip(p, cert.P[1:]))
        A = system.A(p)
        out += [np.linalg.eigvalsh(P - cert.c1 * np.eye(n)).min(),
                np.linalg.eigvalsh(cert.c2 * np.eye(n) - P).min()]
        for r in grid(box.rate_lower, box.rate_upper):
            Pdot = sum(ri * Pi for ri, Pi in zip(r, cert.P[1:]))
            out.append(np.linalg.eigvalsh(-(A.T @ P + P @ A + Pdot) - cert.c3 * np.eye(n)).min())
    return np.array(out)


def ref_free_c1(system, c3):
    """The c1 bisection the direct solve replaced: 30 halvings of [1e-6, 1] at c2 = 1 and
    fixed c3, accepting a probe only when the solver's exact re-check passes (no dead band)."""
    _, base, scalars = lmi._uas_family(system)
    eye = np.eye(system.n)
    lo, hi = 1e-6, 1.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        form = base.with_constants([sign * (mid, 1.0, c3)[i] * eye for i, sign in scalars])
        if solve_feasibility(form, 0.0).feasible:
            lo = mid
        else:
            hi = mid
    return lo


def _spy(monkeypatch, module, name):
    """Record the results of module.name in a list while the test runs."""
    orig, seen = getattr(module, name), []

    def spy(*args, **kwargs):
        seen.append(orig(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(module, name, spy)
    return seen


C1_BELOW_ONE = {  # A, c3, and the c1 the dead-band bisection returned
    "upper-triangular-2": ([[-1.0, 10.0], [0.0, -1.0]], 1 / 32, 0.0183092),
    "upper-triangular-3": ([[-2.0, 5.0, 0.0], [0.0, -1.0, 4.0], [0.0, 0.0, -3.0]], 1 / 8, 0.0733657),
}


def _free_mode_certificate(system, c3, monkeypatch):
    """The free-mode certificate and its barrier run, checked against the strict bisection."""
    ref = ref_free_c1(system, c3)
    tops = _spy(monkeypatch, lmi, "minimize")
    cert = ff.uas_certificate(system, c3)
    assert len(tops) == 1 and cert.c1 == tops[0].t  # one barrier run, no bisection
    assert cert.c1 >= ref - 1e-9
    assert cert.c1 <= tops[0].bound <= cert.c1 + 1e-5
    assert (cert.c2, cert.c3) == (1.0, c3)
    assert cert.alpha == 1.0 / cert.c1 and cert.beta == c3 / 2.0
    assert cert.achieved_margin >= 0.0
    assert _decay_min_eigs(system, cert).min() >= 0.0
    return cert, tops[0]


def test_uas_certificate_free_mode(benchmark_system, monkeypatch):
    cert, _ = _free_mode_certificate(benchmark_system, 1.0, monkeypatch)
    assert 1.0 - 1e-8 <= cert.c1 <= 1.0


@pytest.mark.parametrize("case", C1_BELOW_ONE)
def test_uas_certificate_free_mode_below_one(monkeypatch, case):
    A, c3, dead_band_c1 = C1_BELOW_ONE[case]
    n = len(A)
    system = ff.LpvSystem.lti(A, np.ones((n, 1)), np.ones((1, n)), [[0.0]])
    cert, top = _free_mode_certificate(system, c3, monkeypatch)
    assert cert.c1 < 0.1
    assert dead_band_c1 > top.bound  # the dead band let the old search exceed the dual bound


def test_uas_certificate_free_mode_rejects_a_dead_band_start(monkeypatch):
    # A(p) = [[-1, 6], [0, -2]] + p [[0, 2], [-1, 0]] is unstable at p = -0.5: no
    # certificate exists, yet the phase-1 solve at c3 = 2^-17 passes inside the dead band
    system = ff.LpvSystem(
        ff.AffineMatrixFunction([[-1.0, 6.0], [0.0, -2.0]], ([[0.0, 2.0], [-1.0, 0.0]],)),
        ff.AffineMatrixFunction([[1.0], [0.0]], ([[0.0], [0.0]],)),
        ff.AffineMatrixFunction([[1.0, 0.0]], ([[0.0, 0.0]],)),
        ff.AffineMatrixFunction([[0.0]], ([[0.0]],)),
        ff.ParameterBox([-0.5], [0.5], [-0.3], [0.3]))
    solves = _spy(monkeypatch, lmi, "solve_feasibility")
    tops = _spy(monkeypatch, lmi, "minimize")
    with pytest.raises(RuntimeError, match="no UAS certificate"):
        ff.uas_certificate(system, 1.0)
    assert len(solves) == 40 and not tops and not any(r.feasible for r in solves)
    # inside the dead band 1e-6 * form.scale() (the scale is at least 1), which the
    # free mode used to accept
    assert any(r.achieved_margin >= -1e-6 for r in solves)


def test_uas_certificate_free_mode_keeps_the_phase1_point_when_the_recheck_fails(
        benchmark_system, monkeypatch):
    orig = lmi.minimize

    def overshoot(*args, **kwargs):  # a c1 no P can meet
        res = orig(*args, **kwargs)
        return dataclasses.replace(res, t=2.0)

    monkeypatch.setattr(lmi, "minimize", overshoot)
    cert = ff.uas_certificate(benchmark_system, 1.0)
    assert cert.c1 == 1e-6 and cert.achieved_margin >= 0.0
    assert _decay_min_eigs(benchmark_system, cert).min() >= 0.0


@pytest.mark.parametrize("c1, c2, c3", [(0.0, 1.0, 1.0), (0.6, 0.5, 1.0), (0.5, 0.6, -1.0),
                                        (None, None, 0.0), (0.5, None, 1.0), (None, None, np.nan),
                                        (0.5, np.inf, 1.0)])
def test_uas_certificate_rejects_bad_scalars_before_solving(benchmark_system, monkeypatch,
                                                           c1, c2, c3):
    solves = _spy(monkeypatch, lmi, "solve_feasibility")
    with pytest.raises(ValueError):
        ff.uas_certificate(benchmark_system, c3, c1, c2)
    assert solves == []


def test_controllability_warning():
    # B in the kernel direction: rank-deficient controllability matrix
    sys = ff.LpvSystem.lti([[-1.0, 0.0], [0.0, -2.0]], [[1.0], [0.0]],
                           [[1.0, 1.0]], [[0.0]])
    with pytest.warns(UserWarning, match="uncontrollable"):
        ff.min_gamma(sys, ff.FrequencyRange.entire(), "kyp", bisect_tol=1e-2)


def test_middle_band_routes_through_real_embedding(benchmark_system):
    band = ff.FrequencyRange.middle(1.0, 3.0)
    prob = build_problem(benchmark_system, band, "lpv_ff", 8.0)
    # complex weight: main blocks are doubled by the real embedding
    k = 2 * (benchmark_system.n + benchmark_system.n_inputs)
    assert prob.form.constant_blocks[0].shape == (k, k)
    res = ff.min_gamma(benchmark_system, band, "lpv_ff", bisect_tol=1e-2)
    assert np.isfinite(res.gamma_star) and res.gamma_star > 0


# --- the per-point assembly these batched paths replaced, kept as references ---

def ref_slabs(mode, l):
    """(P slabs, Q slabs) per mode, written out here rather than read from the module."""
    return {"kyp": (1, 0), "gkyp": (1, 1), "lpv_ff": (l + 1, 1), "lpv_ef": (l + 1, 0),
            "theorem2": (l + 1, l + 1)}[mode]


def ref_basis(n):
    """E_ii and E_ij + E_ji, row by row over the upper triangle."""
    out = []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0
            out.append(E)
    return out


def ref_main_block(A, B, C, D, pi_matrix, psi, n_p, n_q, p, pdot):
    """One template instance built per basis element with np.kron (real-embedded if complex)."""
    n, m = A.shape[0], B.shape[1]
    E = np.block([[A, B], [np.eye(n), np.zeros((n, m))]])
    CD = np.block([[C, D], [np.zeros((m, n)), np.eye(m)]])
    const = -(CD.T @ pi_matrix @ CD)
    coeffs = []
    for k in range(n_p):
        wP, wPd = (1.0, 0.0) if k == 0 or n_p == 1 else (p[k - 1], pdot[k - 1])
        coeffs += [-(E.T @ np.kron(wP * ff.THETA + wPd * ff.THETA_D, Eb) @ E) for Eb in ref_basis(n)]
    for k in range(n_q):
        wQ = 1.0 if k == 0 else p[k - 1]
        coeffs += [-(E.T @ np.kron(wQ * psi, Eb) @ E) for Eb in ref_basis(n)]
    if np.iscomplexobj(psi):
        return ff.real_embedding(const), np.stack([ff.real_embedding(K) for K in coeffs])
    return const, np.stack(coeffs)


def ref_pi(gamma, n_outputs, n_inputs):
    """The L2-gain index diag(I, -gamma^2 I)."""
    return np.diag(np.r_[np.ones(n_outputs), -float(gamma) ** 2 * np.ones(n_inputs)])


def ref_build_form(system, rng, mode, gamma):
    """The stacked vertex form, assembled vertex by vertex at one gain."""
    n = system.n
    pi = ref_pi(gamma, system.n_outputs, system.n_inputs)
    psi = ff.frequency_weight(rng) if mode in ("gkyp", "lpv_ff", "theorem2") else None
    n_p, n_q = ref_slabs(mode, system.nparams)
    box = system.box
    corners = [np.array(c, dtype=float) for c in itertools.product(
        *[[a] if a == b else [a, b] for a, b in zip(box.p_lower, box.p_upper)])]
    r = np.maximum(np.abs(box.rate_lower), np.abs(box.rate_upper))
    rates = [np.array(c, dtype=float)
             for c in itertools.product(*[[-ri, ri] if ri > 0 else [0.0] for ri in r])]
    if mode in ("kyp", "gkyp"):
        verts = [(box.midpoint(), np.zeros(system.nparams))]
    else:
        verts = [(p, r) for p in corners for r in rates]
    blocks = [ref_main_block(*system.frozen(p), pi, psi, n_p, n_q, p, r) for p, r in verts]

    def psd(first, weights):  # sum_k weights[k] * (slab first + k) >= 0
        basis = ref_basis(n)
        K = np.zeros(((n_p + n_q) * len(basis), n, n))
        for k, w in enumerate(weights):
            for b, Eb in enumerate(basis):
                K[(first + k) * len(basis) + b] = w * Eb
        return np.zeros((n, n)), K

    if mode in ("gkyp", "lpv_ff"):
        blocks.append(psd(n_p, [1.0]))
    elif mode == "lpv_ef":
        blocks += [psd(0, np.r_[1.0, p]) for p in corners]
    elif mode == "theorem2":
        blocks += [psd(n_p, np.r_[1.0, p]) for p in corners]
    return ff.AffineSymmetricForm([c for c, _ in blocks], [K for _, K in blocks])


def ref_grid_eigs(problem, x, grid_density):
    """(p, pdot, lambda_max, max |entry|) of the main block at every grid point, one kron assembly each."""
    sysm, l = problem.system, problem.system.nparams
    pi = ref_pi(problem.gamma, sysm.n_outputs, sysm.n_inputs)
    psi = ff.frequency_weight(problem.range) \
        if problem.mode in ("gkyp", "lpv_ff", "theorem2") else None
    if problem.mode in ("kyp", "gkyp") or l == 0:
        pgrid, rgrid = [sysm.box.midpoint()], [np.zeros(l)]
    else:
        pgrid = sysm.box.p_grid(grid_density)
        r = np.maximum(np.abs(sysm.box.rate_lower), np.abs(sysm.box.rate_upper))
        axes = [np.linspace(-ri, ri, max(2, grid_density)) if ri > 0 else np.array([0.0])
                for ri in r]
        rgrid = [np.array(c) for c in itertools.product(*axes)]
    out = []
    for p in pgrid:
        for r in rgrid:
            c, K = ref_main_block(*sysm.frozen(p), pi, psi, *ref_slabs(problem.mode, l), p, r)
            G = -(c + np.tensordot(x, K, axes=(0, 0)))
            out.append((p, r, float(np.linalg.eigvalsh(G).max()), np.abs(G).max()))
    return out


def _two_parameter_system():
    """n = 3 states, 2 inputs, 2 outputs, 2 scheduling parameters."""
    rng = np.random.default_rng(31)
    A0 = -2.0 * np.eye(3) + 0.4 * rng.normal(size=(3, 3))
    return ff.LpvSystem(
        A=ff.AffineMatrixFunction(A0, tuple(0.5 * rng.normal(size=(3, 3)) for _ in range(2))),
        B=ff.AffineMatrixFunction(rng.normal(size=(3, 2)),
                                  tuple(rng.normal(size=(3, 2)) for _ in range(2))),
        C=ff.AffineMatrixFunction(rng.normal(size=(2, 3)),
                                  tuple(rng.normal(size=(2, 3)) for _ in range(2))),
        D=ff.AffineMatrixFunction(0.3 * rng.normal(size=(2, 2)), (np.zeros((2, 2)),) * 2),
        box=ff.ParameterBox([-0.5, 0.2], [0.5, 0.2], [-2.0, -1.0], [2.0, 1.0]),
    )


MID = ff.FrequencyRange.middle(0.5, 1.5)
# (system, mode, band, grid density, grid points); p2 of the two-parameter box is degenerate
GRID_CASES = [("example", "gkyp", LOW1, 5, 1), ("example", "lpv_ff", LOW1, 5, 25),
              ("example", "lpv_ff", MID, 5, 25), ("example", "lpv_ef", LOW1, 5, 25),
              ("example", "theorem2", ff.FrequencyRange.low(5.955), 5, 25),
              ("example", "theorem2", MID, 5, 25), ("two_parameter", "theorem2", MID, 3, 27)]


def _assert_grid_matches(got, ref):
    scale = max(g for *_, g in ref)
    assert len(got) == len(ref)
    for (p, r, lam), (p_ref, r_ref, lam_ref, _) in zip(got, ref):
        assert np.array_equal(p, p_ref) and np.array_equal(r, r_ref)
        assert abs(lam - lam_ref) <= 1e-12 * scale


@pytest.mark.parametrize("system,mode,band,density,points", GRID_CASES, ids=lambda v: str(v))
def test_verify_on_grid_matches_per_point_loop(benchmark_system, system, mode, band, density,
                                               points):
    sysm = benchmark_system if system == "example" else _two_parameter_system()
    prob = build_problem(sysm, band, mode, 3.0)
    x = np.random.default_rng(3).normal(size=prob.layout.nvar)
    # a tolerance that every point exceeds makes verify_on_grid return the whole grid
    got = ff.verify_on_grid(dataclasses.replace(prob, margin=1e9), x, grid_density=density)
    ref = ref_grid_eigs(prob, x, density)
    assert len(ref) == points
    _assert_grid_matches(got, ref)


def test_verify_on_grid_planted_violation_matches_loop(benchmark_system):
    res = ff.min_gamma(benchmark_system, LOW1, "lpv_ff", bisect_tol=1e-2)
    prob = build_problem(benchmark_system, LOW1, "lpv_ff", res.bracket[1])
    assert ff.verify_on_grid(prob, res.x, grid_density=7) == []
    bad = res.x.copy()
    bad[3] += 0.1  # P1[0, 0]: breaks the block at some (p, pdot) grid points only
    got = ff.verify_on_grid(prob, bad, grid_density=7)
    ref = ref_grid_eigs(prob, bad, 7)
    assert 0 < len(got) < len(ref)
    _assert_grid_matches(got, [row for row in ref if row[2] > -prob.margin / 2])


def test_verify_on_grid_in_chunks_gives_the_same_violations_in_order(benchmark_system,
                                                                       monkeypatch):
    res = ff.min_gamma(benchmark_system, LOW1, "lpv_ff", bisect_tol=1e-2)
    prob = build_problem(benchmark_system, LOW1, "lpv_ff", res.bracket[1])
    bad = res.x.copy()
    bad[3] += 0.1  # violated at some of the 11 x 11 = 121 grid points only
    want = ff.verify_on_grid(prob, bad)
    rows = []
    main_blocks = lmi._main_blocks
    monkeypatch.setattr(lmi, "_main_blocks", lambda *a: rows.append(len(a[3])) or main_blocks(*a))
    monkeypatch.setattr(lmi, "_GRID_CHUNK", 7)
    got = ff.verify_on_grid(prob, bad)
    assert rows == [7] * 17 + [2]
    assert 0 < len(got) == len(want) < 121
    for (p, r, lam), (p_want, r_want, lam_want) in zip(got, want):
        assert np.array_equal(p, p_want) and np.array_equal(r, r_want) and lam == lam_want


def _assert_forms_match(form, ref):
    assert [C.shape for C in form.constant_blocks] == [C.shape for C in ref.constant_blocks]
    for C, K, Cr, Kr in zip(form.constant_blocks, form.coeff_blocks,
                            ref.constant_blocks, ref.coeff_blocks):
        scale = max(np.abs(Cr).max(), np.abs(Kr).max(), 1.0)
        assert np.abs(C - Cr).max() <= 1e-13 * scale
        assert np.abs(K - Kr).max() <= 1e-13 * scale


MODE_CASES = [("kyp", ff.FrequencyRange.entire()), ("gkyp", LOW1), ("lpv_ff", LOW1),
              ("lpv_ef", LOW1), ("theorem2", ff.FrequencyRange.low(5.955))]


@pytest.mark.parametrize("mode,band", MODE_CASES, ids=lambda v: str(v))
def test_min_gamma_probes_match_per_probe_build(benchmark_system, mode, band):
    res = ff.min_gamma(benchmark_system, band, mode, bisect_tol=1e-2)
    warm = None
    for g, verdict in res.bisection_trace:
        prob = build_problem(benchmark_system, band, mode, g)
        out = solve_feasibility(prob.form, prob.margin, x0=warm)
        assert out.feasible == verdict
        warm = out.x if out.feasible else warm
        # the factored assembly reproduces the vertex-by-vertex kron assembly
        _assert_forms_match(prob.form, ref_build_form(benchmark_system, band, mode, g))
    assert res.gamma_star == res.bracket[1] <= min(g for g, v in res.bisection_trace if v)


def ref_bisect_min_gamma(system, rng, mode, bisect_tol):
    """The gain bisection the barrier run replaced: doubling or halving from 1 to a bracket,
    then halving it, every probe at margin(gamma) and warm-started from the last feasible
    point.  Returns (lo, hi, the point at hi, the problem at hi)."""
    family = build_problem(system, rng, mode, 0.0)
    warm = None

    def probe(g):
        nonlocal warm
        prob = family.at(g)
        res = solve_feasibility(prob.form, prob.margin, x0=warm)
        warm = res.x if res.feasible else warm
        return res.feasible, (g, res.x, prob)

    ok, best = probe(1.0)
    if ok:
        lo = 1.0
        while lo > 1e-9:
            lo *= 0.5
            ok, found = probe(lo)
            if not ok:
                break
            best = found
        else:
            lo = 0.0
    else:
        g = 1.0
        while not ok:
            lo, g = g, 2.0 * g
            ok, best = probe(g)
    while best[0] - lo > bisect_tol:
        mid = 0.5 * (lo + best[0])
        ok, found = probe(mid)
        if ok:
            best = found
        else:
            lo = mid
    return (lo,) + best


@pytest.mark.parametrize("mode,band", MODE_CASES + [("lpv_ff", MID)], ids=lambda v: str(v))
def test_min_gamma_against_reference_bisection(benchmark_system, mode, band, monkeypatch):
    lo_ref, hi_ref, x_ref, prob_ref = ref_bisect_min_gamma(benchmark_system, band, mode, 1e-3)
    runs = _spy(monkeypatch, lmi, "minimize")
    res = ff.min_gamma(benchmark_system, band, mode, bisect_tol=1e-3)
    lo, hi = res.bracket
    assert len(runs) == 1 and len(res.bisection_trace) <= 5  # the bisection took 11 to 16
    assert res.gamma_star == hi <= hi_ref
    assert 0.0 <= hi - lo <= 1e-3
    prob = build_problem(benchmark_system, band, mode, hi)
    assert res.margin == prob.margin
    assert ff.max_eig_neg(prob.form, res.x) <= -prob.margin
    if not ff.verify_on_grid(prob_ref, x_ref):
        assert res.violations == [] and res.relaxation_gap_flag is False
    if res.lo_certified:  # then no level below lo is feasible, the reference's hi included
        assert lo <= hi_ref


@pytest.mark.parametrize("tol", [0.0, -1e-3, np.nan])
def test_min_gamma_rejects_a_tolerance_that_is_not_positive(benchmark_system, monkeypatch, tol):
    solves = _spy(monkeypatch, lmi, "solve_feasibility")
    with pytest.raises(ValueError, match="bisect_tol must be positive"):
        ff.min_gamma(benchmark_system, LOW1, "lpv_ff", bisect_tol=tol)
    assert solves == []


def test_min_gamma_keeps_the_phase1_level_when_the_recheck_fails(benchmark_system, monkeypatch):
    orig = lmi.minimize

    def overshoot(*args, **kwargs):  # t beyond g^2: gamma = 0, which no certificate meets
        res = orig(*args, **kwargs)
        return dataclasses.replace(res, t=2.0 * res.t)

    monkeypatch.setattr(lmi, "minimize", overshoot)
    res = ff.min_gamma(benchmark_system, LOW1, "lpv_ff", bisect_tol=1e-3)
    lo, hi = res.bracket
    # hi stays at g = 4 and the dual bound puts lo near 2.13: one probe at hi - tol,
    # then halvings of a bracket narrower than 2 (fewer than 11), not a scan in steps of tol
    assert [g for g, _ in res.bisection_trace[:3]] == [1.0, 2.0, 4.0]
    assert len(res.bisection_trace) <= 3 + 1 + 11
    assert 0.0 <= hi - lo <= 1e-3 and 2.1496 - 2e-3 <= lo <= hi <= 2.1504 + 1e-3
    prob = build_problem(benchmark_system, LOW1, "lpv_ff", hi)
    assert ff.max_eig_neg(prob.form, res.x) <= -prob.margin


@pytest.mark.parametrize("mode", ["lpv_ff", "theorem2"])
def test_build_problem_two_parameters_matches_kron_assembly(mode):
    sysm = _two_parameter_system()
    _assert_forms_match(build_problem(sysm, MID, mode, 2.5).form,
                        ref_build_form(sysm, MID, mode, 2.5))


@pytest.mark.parametrize("system", ["example", "two_parameter"])
def test_decay_blocks_match_hand_written_derivative(benchmark_system, system):
    # the template with B, C, D empty is -(A(p)^T P(p) + P(p) A(p) + sum_i r_i P_i)
    from finitefreq.lmi import _uas_family
    sysm = benchmark_system if system == "example" else _two_parameter_system()
    _, form, scalars = _uas_family(sysm)
    x = np.random.default_rng(4).normal(size=form.nvar)
    basis = ref_basis(sysm.n)
    t = len(basis)
    Ps = [sum(xk * Eb for xk, Eb in zip(x[k * t:(k + 1) * t], basis))
          for k in range(sysm.nparams + 1)]
    box = sysm.box

    def corners(lo, hi):
        return [np.array(c) for c in itertools.product(
            *[[a] if a == b else [a, b] for a, b in zip(lo, hi)])]

    pcs, rcs = corners(box.p_lower, box.p_upper), corners(box.rate_lower, box.rate_upper)
    want = []
    for p in pcs:
        Pp = Ps[0] + sum(pi * Pi for pi, Pi in zip(p, Ps[1:]))
        want += [Pp, -Pp]
    for p in pcs:
        A, Pp = sysm.A(p), Ps[0] + sum(pi * Pi for pi, Pi in zip(p, Ps[1:]))
        want += [-(A.T @ Pp + Pp @ A + sum(ri * Pi for ri, Pi in zip(r, Ps[1:]))) for r in rcs]
    got = form.eval_blocks(x)
    assert len(got) == len(want)
    scale = max(np.abs(w).max() for w in want)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-13 * scale
    assert scalars == [(0, -1.0), (1, 1.0)] * len(pcs) + [(2, -1.0)] * (len(pcs) * len(rcs))


def _input_drift_system(nparams):
    """A = diag(-1, -2), B(p) = [1; sum p] on [-1, 1]^l: uncontrollable where sum p = 0."""
    z = np.zeros
    return ff.LpvSystem(
        ff.AffineMatrixFunction([[-1.0, 0.0], [0.0, -2.0]], (z((2, 2)),) * nparams),
        ff.AffineMatrixFunction([[1.0], [0.0]], ([[0.0], [1.0]],) * nparams),
        ff.AffineMatrixFunction([[1.0, 1.0]], (z((1, 2)),) * nparams),
        ff.AffineMatrixFunction([[0.0]], (z((1, 1)),) * nparams),
        ff.ParameterBox([-1.0] * nparams, [1.0] * nparams, [-1.0] * nparams, [1.0] * nparams))


@pytest.mark.parametrize("nparams, where", [(1, "[0.]"), (2, "[-1.  1.]")],
                         ids=["midpoint", "second-corner"])
def test_controllability_warning_names_the_first_weak_point(nparams, where):
    # corners in product order, then the midpoint; one warning, for the first weak pair
    with pytest.warns(UserWarning, match="near-uncontrollable") as rec:
        lmi._check_controllability(_input_drift_system(nparams))
    assert [str(w.message) for w in rec] == [
        f"frozen pair (A, B) at p={where} is near-uncontrollable; certificates may be unreliable"]


def test_controllability_check_is_silent_for_a_controllable_box(benchmark_system, recwarn):
    lmi._check_controllability(benchmark_system)
    assert len(recwarn) == 0
