import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finitefreq as ff
from finitefreq import lmi
from finitefreq.lmi import build_problem
from finitefreq.model import grid
from finitefreq.sdp import solve_feasibility
from conftest import eval_blocks, inband_sup, random_stable_lti
from test_simulation import seeded_system

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
    for lhs, rhs in zip(eval_blocks(f_t2, x_t2)[:n_vertices], eval_blocks(f_ff, x_ff)[:n_vertices]):
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
    assert _decay_min_eigs(benchmark_system, cert).min() >= 0.0


def test_uas_certificate_scalar_boundary():
    sys = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    cert = ff.uas_certificate(sys, 2.0, 1.0, 1.0)
    assert cert.alpha == pytest.approx(1.0)
    assert cert.beta == pytest.approx(1.0)
    assert _decay_min_eigs(sys, cert).min() >= 0.0


def test_uas_certificate_unstable_fails():
    sys = ff.LpvSystem.lti([[1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(RuntimeError, match="no UAS certificate"):
        ff.uas_certificate(sys, 1.0, 0.5, 0.6)


def test_uas_certificate_lti_free_scalars_reach_the_decay_rate(monkeypatch):
    # A = -0.05: P = p in [c1, 1] and 0.1 p >= c3, so c1 c3 peaks at c1 = 1, c3 = 0.1
    sys = ff.LpvSystem.lti([[-0.05]], [[1.0]], [[1.0]], [[0.0]])
    cert = ff.uas_certificate(sys)
    assert abs(cert.c1 - 1.0) <= 1e-6 and abs(cert.c3 - 0.1) <= 1e-6
    assert cert.beta == pytest.approx(cert.c3 / 2.0)
    assert _decay_min_eigs(sys, cert).min() >= 0.0
    # given scalars are certified as given: c3 = 7.4 is kept, and one solve rejects it
    solves = _spy(monkeypatch, lmi, "solve_feasibility")
    with pytest.raises(RuntimeError, match="no UAS certificate"):
        ff.uas_certificate(sys, 7.4, 0.5, 1.0)
    assert len(solves) == 1 and not solves[0].feasible


@pytest.mark.parametrize("case, c, c3", [("lti-boundary", 1.0, 2.0), ("one-parameter", 2.0, 1.0)])
def test_uas_certificate_equal_scalars_take_p_as_a_multiple_of_identity(
        benchmark_system, monkeypatch, case, c, c3):
    # c1 = c2 leaves P(p) = c1 I as the only point of the bound blocks: no solve is run
    system = benchmark_system if case == "one-parameter" else \
        ff.LpvSystem.lti([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    solves = _spy(monkeypatch, lmi, "solve_feasibility")
    cert = ff.uas_certificate(system, c3, c, c)
    assert solves == []
    assert (cert.c1, cert.c2, cert.c3) == (c, c, c3)
    n = system.n
    assert np.array_equal(cert.P[0], c * np.eye(n)) and len(cert.P) == system.nparams + 1
    assert all(np.array_equal(Pi, np.zeros((n, n))) for Pi in cert.P[1:])
    assert cert.achieved_margin >= 0.0
    assert _decay_min_eigs(system, cert).min() >= 0.0


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


C1_BELOW_ONE = {  # A, and the fixed c3 at which the strict c1 bisection stays below 0.1
    "upper-triangular-2": ([[-1.0, 10.0], [0.0, -1.0]], 1 / 32),
    "upper-triangular-3": ([[-2.0, 5.0, 0.0], [0.0, -1.0, 4.0], [0.0, 0.0, -3.0]], 1 / 8),
}


def _corner_decay_rate(system):
    """The smallest eigenvalue of -(A(p) + A(p)^T) over the parameter corners, by hand."""
    box = system.box
    return min(np.linalg.eigvalsh(-(system.A(p) + system.A(p).T)).min()
               for p in grid(box.p_lower, box.p_upper))


def _free_mode_certificate(system, monkeypatch):
    """The free-mode certificate: one feasibility solve, then one barrier run maximizing s."""
    solves = _spy(monkeypatch, lmi, "solve_feasibility")
    tops = _spy(monkeypatch, lmi, "minimize")
    cert = ff.uas_certificate(system)
    assert len(solves) == 1 and solves[0].feasible and len(tops) == 1
    s = tops[0].t  # c1 c3 >= s^2, within the run's duality gap of the optimum
    assert cert.c1 * cert.c3 >= s * s * (1.0 - 1e-12)
    assert s <= tops[0].bound <= s * (1.0 + 1e-3)
    assert cert.c2 == 1.0 and cert.alpha == 1.0 / cert.c1 and cert.beta == cert.c3 / 2.0
    # the margin is the certificate's own, at (c1, 1, c3): the [[c1, s], [s, c3]] block is left out
    assert cert.achieved_margin == pytest.approx(_decay_min_eigs(system, cert).min(), abs=1e-12)
    assert _decay_min_eigs(system, cert).min() >= 0.0
    return cert, tops[0], solves[0]


def test_uas_certificate_free_mode(benchmark_system, monkeypatch):
    # lambda > 0: P = I/2, c1 = 1/4, c3 = lambda/4 is strictly feasible, and P = I is optimal
    cert, _, solve = _free_mode_certificate(benchmark_system, monkeypatch)
    lam = _corner_decay_rate(benchmark_system)
    assert solve.iterations == 0 and lam == pytest.approx(12.2141, rel=1e-5)
    assert abs(cert.c1 - 1.0) <= 1e-6 and abs(cert.c3 / lam - 1.0) <= 1e-6
    assert cert.alpha / cert.beta == pytest.approx(0.163745, rel=1e-5)


@pytest.mark.parametrize("case", C1_BELOW_ONE)
def test_uas_certificate_free_mode_below_one(monkeypatch, case):
    A, c3 = C1_BELOW_ONE[case]
    n = len(A)
    system = ff.LpvSystem.lti(A, np.ones((n, 1)), np.ones((1, n)), [[0.0]])
    assert _corner_decay_rate(system) < 0.0  # the solve starts outside, and warm-starts
    cert, top, solve = _free_mode_certificate(system, monkeypatch)
    assert solve.iterations > 0 and cert.c1 < 0.1
    # the strict reference at fixed c3, over a grid around the c3 of the table
    best = max(ref_free_c1(system, c) * c for c in c3 * 2.0 ** np.arange(-1.0, 1.5, 0.5))
    assert top.t ** 2 >= best - 1e-6


def _oscillator(wn=0.53, zeta=0.02):
    """A lightly damped oscillator whose stiffness drops with p in [0, 1], rates +-0.5."""
    return ff.LpvSystem(
        ff.AffineMatrixFunction([[0.0, 1.0], [-wn ** 2, -2.0 * zeta * wn]],
                                ([[0.0, 0.0], [-0.1 * wn ** 2, 0.0]],)),
        ff.AffineMatrixFunction([[0.0], [1.0]], ([[0.0], [0.2]],)),
        ff.AffineMatrixFunction([[1.0, 0.0]], ([[0.0, 0.0]],)),
        ff.AffineMatrixFunction([[0.0]], ([[0.0]],)),
        ff.ParameterBox([0.0], [1.0], [-0.5], [0.5]))


def _unit_stiffness():
    """x'' + x' + x = 0: -(A + A^T) = diag(0, 2), so lambda = 0 exactly."""
    return ff.LpvSystem.lti([[0.0, 1.0], [-1.0, -1.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])


@pytest.mark.parametrize("case, most", [("seeded_6", 25.2), ("oscillator", 5330.0),
                                        ("unit_stiffness", 8.7)])
def test_uas_certificate_free_mode_maximizes_c1_c3(monkeypatch, case, most):
    # c1 maximized alone at c3 = 1/8, 2^-10 and 1/2 gives alpha/beta = 27.66, 7,061 and 8.89; at
    # lambda = 0 the start takes c3 = -1/4, so the solve runs instead of passing with c3 = 0
    system = {"seeded_6": lambda: seeded_system(6)[0], "oscillator": _oscillator,
              "unit_stiffness": _unit_stiffness}[case]()
    assert _corner_decay_rate(system) <= 0.0
    cert, _, solve = _free_mode_certificate(system, monkeypatch)
    assert solve.iterations > 0 and cert.alpha / cert.beta <= most


def unstable_at_minus_half():
    """A(p) = [[-1, 6], [0, -2]] + p [[0, 2], [-1, 0]], p in [-0.5, 0.5]: A(-0.5) has the
    eigenvalue +0.158, so no decay certificate exists, yet some solves at small c3 come
    within 1e-6 of feasible."""
    return ff.LpvSystem(
        ff.AffineMatrixFunction([[-1.0, 6.0], [0.0, -2.0]], ([[0.0, 2.0], [-1.0, 0.0]],)),
        ff.AffineMatrixFunction([[1.0], [0.0]], ([[0.0], [0.0]],)),
        ff.AffineMatrixFunction([[1.0, 0.0]], ([[0.0, 0.0]],)),
        ff.AffineMatrixFunction([[0.0]], ([[0.0]],)),
        ff.ParameterBox([-0.5], [0.5], [-0.3], [0.3]))


def test_uas_certificate_free_mode_rejects_a_dead_band_start(monkeypatch):
    # the one margin-0 solve from P = I/2 comes within 1e-6 of feasible, and is not accepted
    system = unstable_at_minus_half()
    solves = _spy(monkeypatch, lmi, "solve_feasibility")
    tops = _spy(monkeypatch, lmi, "minimize")
    with pytest.raises(RuntimeError, match="no UAS certificate"):
        ff.uas_certificate(system)
    assert len(solves) == 1 and not tops and not solves[0].feasible
    assert solves[0].achieved_margin >= -1e-6


@pytest.mark.parametrize("A", [[[0.0]], [[0.0, 1.0], [-1.0, 0.0]]], ids=["zero", "rotation"])
def test_uas_certificate_free_mode_rejects_a_marginal_system(monkeypatch, A):
    # lambda = 0 and no decay: the one solve from c3 < 0 does not reach t > 0
    n = len(A)
    system = ff.LpvSystem.lti(A, np.ones((n, 1)), np.ones((1, n)), [[0.0]])
    solves = _spy(monkeypatch, lmi, "solve_feasibility")
    tops = _spy(monkeypatch, lmi, "minimize")
    with pytest.raises(RuntimeError, match="no UAS certificate"):
        ff.uas_certificate(system)
    assert len(solves) == 1 and solves[0].iterations > 0 and not solves[0].feasible and not tops


def test_uas_certificate_fixed_scalars_accept_only_the_exact_check(monkeypatch):
    solves = _spy(monkeypatch, lmi, "solve_feasibility")
    with pytest.raises(RuntimeError, match="no UAS certificate found under affine P_s"):
        ff.uas_certificate(unstable_at_minus_half(), 2.0 ** -24, 1e-6, 1.0)
    assert len(solves) == 1 and not solves[0].feasible
    assert solves[0].achieved_margin >= -1e-6  # within 1e-6 of feasible, yet not a certificate


def test_uas_certificate_free_mode_keeps_the_phase1_point_when_the_recheck_fails(
        benchmark_system, monkeypatch):
    orig = lmi.minimize

    def overshoot(*args, **kwargs):  # a c3 no P can meet: c3 <= lambda < 100
        res = orig(*args, **kwargs)
        return dataclasses.replace(res, x=np.r_[res.x[:-1], 100.0])

    monkeypatch.setattr(lmi, "minimize", overshoot)
    cert = ff.uas_certificate(benchmark_system)
    lam = _corner_decay_rate(benchmark_system)
    assert (cert.c1, cert.c2) == (0.25, 1.0) and cert.c3 == pytest.approx(lam / 4, rel=1e-12)
    assert np.array_equal(cert.P[0], 0.5 * np.eye(2)) and cert.achieved_margin >= 0.0
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


def ref_grid_eigs(problem, x, grid_density, rate_density=2):
    """(p, pdot, lambda_max, max |entry|) of the main block at every grid point, one kron
    assembly each: the p grid times the rate grid, by default its corners."""
    sysm, l = problem.system, problem.system.nparams
    pi = ref_pi(problem.gamma, sysm.n_outputs, sysm.n_inputs)
    psi = ff.frequency_weight(problem.range) \
        if problem.mode in ("gkyp", "lpv_ff", "theorem2") else None
    if problem.mode in ("kyp", "gkyp") or l == 0:
        pgrid, rgrid = [sysm.box.midpoint()], [np.zeros(l)]
    else:
        pgrid = sysm.box.p_grid(grid_density)
        r = np.maximum(np.abs(sysm.box.rate_lower), np.abs(sysm.box.rate_upper))
        axes = [np.linspace(-ri, ri, max(2, rate_density)) if ri > 0 else np.array([0.0])
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
# (system, mode, band, grid density, points of the full (p, pdot) grid at that density); p2
# of the two-parameter box is degenerate
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
    full = ref_grid_eigs(prob, x, density, density)
    assert len(full) == points and got.points == len(ref)
    _assert_grid_matches(got, ref)
    assert got.worst == max(lam for *_, lam in got)
    # the rate corners hold the largest lambda of every p over the whole rate grid
    scale = max(g for *_, g in full)
    for p in {tuple(p) for p, *_ in full}:
        worst = max(lam for q, _, lam, _ in full if tuple(q) == p)
        assert abs(max(lam for q, _, lam in got if tuple(q) == p) - worst) <= 1e-12 * scale


def test_verify_on_grid_planted_violation_matches_loop(benchmark_system):
    res = ff.min_gamma(benchmark_system, LOW1, "lpv_ff", bisect_tol=1e-2)
    prob = build_problem(benchmark_system, LOW1, "lpv_ff", res.bracket[1])
    assert ff.verify_on_grid(prob, res.x, grid_density=7) == []
    bad = res.x.copy()
    bad[3] += 0.1  # P1[0, 0]: breaks the block at some (p, pdot) grid points only
    got = ff.verify_on_grid(prob, bad, grid_density=7)
    ref = ref_grid_eigs(prob, bad, 7)
    assert 0 < len(got) < len(ref) == got.points == 7 * 2
    _assert_grid_matches(got, [row for row in ref if row[2] > -prob.margin / 2])
    assert got.worst == max(lam for *_, lam in got)


def test_verify_on_grid_in_chunks_gives_the_same_violations_in_order(benchmark_system,
                                                                       monkeypatch):
    res = ff.min_gamma(benchmark_system, LOW1, "lpv_ff", bisect_tol=1e-2)
    prob = build_problem(benchmark_system, LOW1, "lpv_ff", res.bracket[1])
    bad = res.x.copy()
    bad[3] += 0.1  # violated at some of the 11 x 2 = 22 grid points only
    want = ff.verify_on_grid(prob, bad)
    rows = []
    main_blocks = lmi._main_blocks
    monkeypatch.setattr(lmi, "_main_blocks", lambda *a: rows.append(len(a[3])) or main_blocks(*a))
    monkeypatch.setattr(lmi, "_GRID_CHUNK", 7)
    got = ff.verify_on_grid(prob, bad)
    assert rows == [7, 7, 7, 1]
    assert 0 < len(got) == len(want) < 22 and (got.points, got.worst) == (22, want.worst)
    for (p, r, lam), (p_want, r_want, lam_want) in zip(got, want):
        assert np.array_equal(p, p_want) and np.array_equal(r, r_want) and lam == lam_want


def full_grid_eigs(problem, x, density=11):
    """(p rows, lambda_max) of the main block on the whole (p, pdot) grid, density points
    per axis of both, in chunks of 4096 rows: the product the re-check took before it kept
    only the rate corners."""
    box = problem.system.box
    r = np.maximum(np.abs(box.rate_lower), np.abs(box.rate_upper))
    P, R = grid(box.p_lower, box.p_upper, density), grid(0.0 - r, r, density)
    P, R = np.repeat(P, len(R), axis=0), np.tile(R, (len(P), 1))
    Ps, Qs = problem.layout.unpack(x)
    X = np.stack(Ps + Qs)[:, None]
    lam = []
    for k in range(0, len(P), 4096):
        c, F = lmi._main_blocks(problem.system, problem.range, problem.layout, P[k:k + 4096],
                                R[k:k + 4096], X)
        F = c + problem.gamma ** 2 * problem.gain + F[:, 0]
        lam.append(np.linalg.eigvalsh(-F).max(axis=-1))
    return P, np.concatenate(lam)


WORST_CASES = [("example", mode, band) for mode in ("lpv_ff", "lpv_ef", "theorem2")
               for band in (LOW1, MID)] + [
    ("seeded_6", "theorem2", MID), ("seeded_6", "lpv_ef", LOW1), ("two_parameter", "theorem2", MID)]


@pytest.mark.parametrize("system,mode,band", WORST_CASES, ids=lambda v: str(v))
def test_rate_corners_give_the_worst_eigenvalue_and_flagged_p_of_the_full_grid(
        benchmark_system, system, mode, band):
    sysm = {"example": lambda: benchmark_system, "seeded_6": lambda: seeded_system(6)[0],
            "two_parameter": _two_parameter_system}[system]()
    res = ff.min_gamma(sysm, band, mode, bisect_tol=1e-2)
    prob = build_problem(sysm, band, mode, res.gamma_star)
    xs = [res.x]
    if system == "example":  # its certificates pass the grid: plant a violation too
        xs.append(res.x + 0.1 * (np.arange(len(res.x)) == 3))
    for x in xs:
        got = ff.verify_on_grid(prob, x)
        P, lam = full_grid_eigs(prob, x)
        assert got.points == len(P) // 11 ** sysm.nparams * 2 ** sysm.nparams
        assert abs(got.worst - lam.max()) <= 1e-12 * abs(lam.max())
        assert {tuple(p) for p, _, _ in got} == {tuple(p) for p in P[lam > -prob.margin / 2]}
    if system != "example":  # the FOUND system and the two-parameter one are flagged
        assert res.violations and res.violations.worst > 0.0


@pytest.mark.parametrize("mode,band", [("lpv_ef", LOW1), ("lpv_ff", LOW1), ("lpv_ff", MID)],
                         ids=lambda v: str(v))
def test_the_gain_run_stops_within_a_tenth_of_bisect_tol(benchmark_system, mode, band,
                                                         monkeypatch):
    # the example's certify jobs, against the same bracket rules with the run taken to the
    # gap 1e-9; phase 1 passes a level below the first feasible one g on each
    full, asked = lmi.minimize, []
    monkeypatch.setattr(lmi, "minimize",
                        lambda *a, **k: asked.append(k["gap_tol"]) or full(*a, **k))
    res = ff.min_gamma(benchmark_system, band, mode, bisect_tol=1e-3)
    g = next(g for g, v in res.bisection_trace if v)
    assert asked == [0.1 * 1e-3 * g]
    monkeypatch.setattr(lmi, "minimize", lambda *a, **k: full(*a, **dict(k, gap_tol=1e-9)))
    ref = ff.min_gamma(benchmark_system, band, mode, bisect_tol=1e-3)
    assert ref.gamma_star <= res.gamma_star <= ref.gamma_star + 1e-3 / 10
    assert len(res.bisection_trace) <= len(ref.bisection_trace)
    assert res.lo_certified or not ref.lo_certified


@pytest.mark.parametrize("scale", [0.5, 0.9])
def test_a_first_probe_that_passes_leaves_the_gap_to_the_floor(scale, monkeypatch):
    # scale/(s+1) on low:1 peaks at scale < 1, so the first probe, g = 1, passes; the floor
    # bounds gamma* from below and sets the gain run's gap in its place
    plant = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[scale]], [[0.0]])
    full, runs = lmi.minimize, []

    def spy(*a, gap_tol, **k):
        out = full(*a, gap_tol=gap_tol, **k)
        runs.append((gap_tol, out.nit))
        return out

    monkeypatch.setattr(lmi, "minimize", spy)
    res = ff.min_gamma(plant, LOW1, "gkyp", bisect_tol=1e-3)
    assert res.bisection_trace[0] == (1.0, True)
    assert res.gain_lower_bound == pytest.approx(scale, rel=1e-12)
    monkeypatch.setattr(lmi, "minimize", lambda *a, **k: spy(*a, **dict(k, gap_tol=1e-9)))
    ref = ff.min_gamma(plant, LOW1, "gkyp", bisect_tol=1e-3)
    (gap, steps), (_, ref_steps) = runs
    assert gap == 0.2 * 1e-3 * res.gain_lower_bound * (1.0 - 1e-9) and steps < ref_steps
    assert ref.gamma_star <= res.gamma_star <= ref.gamma_star + 1e-3 / 10
    # the coarser run's dual bound may fall below the floor, which then holds lo
    assert res.bisection_trace == ref.bisection_trace == [(1.0, True)]
    assert res.lo_certified and res.bracket[1] - res.bracket[0] <= 1e-3


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
    # 1 and 2 lie below the frozen floor 2.04, so phase 1 probes 4 first; hi stays at g = 4
    # and the dual bound puts lo near 2.13: one probe at hi - tol, then halvings of a
    # bracket narrower than 2 (fewer than 11), not a scan in steps of tol
    assert [g for g, _ in res.bisection_trace[:1]] == [4.0]
    assert len(res.bisection_trace) <= 1 + 1 + 11
    assert 0.0 <= hi - lo <= 1e-3 and 2.1496 - 2e-3 <= lo <= hi <= 2.1504 + 1e-3
    prob = build_problem(benchmark_system, LOW1, "lpv_ff", hi)
    assert ff.max_eig_neg(prob.form, res.x) <= -prob.margin


FLOOR_CASES = [(mode, LOW1) for mode in lmi.MODES] + [
    (mode, band) for mode in ("gkyp", "lpv_ff") for band in (MID, ff.FrequencyRange.high(3.0))]


@pytest.mark.parametrize("mode,band", FLOOR_CASES, ids=lambda v: str(v))
def test_frozen_floor_only_drops_probes_gkyp_rules_out(benchmark_system, mode, band,
                                                       monkeypatch):
    res = ff.min_gamma(benchmark_system, band, mode)
    floor = res.gain_lower_bound
    assert floor == lmi._frozen_peak(benchmark_system, band, mode) > 0.0
    with monkeypatch.context() as patch:
        patch.setattr(lmi, "_frozen_peak", lambda *args: 0.0)
        ref = ff.min_gamma(benchmark_system, band, mode)
    # without a floor phase 1 doubles from 1 to the first feasible level, as it always did
    k = [v for _, v in ref.bisection_trace].index(True)
    assert ref.bisection_trace[:k + 1] == [(2.0 ** i, i == k) for i in range(k + 1)]
    skipped = [g for g, _ in ref.bisection_trace[:k] if g < floor * (1.0 - 1e-9)]
    # the floor adds no probe; without it the reference's dual bound, from a gain run stopped
    # at the resolution bisect_tol asks for, may leave the bracket open for one more probe
    assert res.bisection_trace == ref.bisection_trace[len(skipped):][:len(res.bisection_trace)]
    assert k + 1 - len(skipped) <= len(res.bisection_trace)
    assert res.bracket[0] >= floor * (1.0 - 1e-9)
    assert res.lo_rests_on in ("floor", "dual bound", "probe")
    assert floor <= res.gamma_star and res.gamma_star == res.bracket[1]
    if res.bisection_trace[0] == (1.0, True):
        # the first probe passed: the floor sets the gain run's gap, so hi may end above the
        # reference's, within bisect_tol/10
        assert ref.bracket[1] <= res.bracket[1] <= ref.bracket[1] + 1e-3 / 10
    else:  # the floor may raise lo to itself, never move hi
        assert (res.gamma_star, res.bracket[1]) == (ref.gamma_star, ref.bracket[1])
        assert np.array_equal(res.x, ref.x)
    # soundness: no skipped level is feasible at the margin phase 1 would have probed it at
    family = build_problem(benchmark_system, band, mode, 0.0)
    for g in skipped:
        prob = family.at(g)
        assert not solve_feasibility(prob.form, max(family.margin, prob.margin)).feasible


def test_lo_rests_on_the_frozen_floor(benchmark_system):
    # the barrier's dual bound leaves lo at 3.276018 here; GKYP rules out every level below
    # the floor 3.278848, so lo rests on it, certified
    res = ff.min_gamma(benchmark_system, ff.FrequencyRange.low(5.955), "theorem2", bisect_tol=1e-3)
    lo, hi = res.bracket
    assert (res.lo_rests_on, res.lo_certified) == ("floor", True)
    # the gain run stops at the gap that leaves hi within bisect_tol/10 of its optimum
    assert lo == res.gain_lower_bound * (1.0 - 1e-9) and hi - lo <= 3.7e-5 + 1e-3 / 10
    assert len(res.bisection_trace) == 1


@pytest.mark.parametrize("mode", ["lpv_ff", "lpv_ef"])
def test_rounding_of_the_first_probe_level_forces_no_second_probe(mode):
    # hi - (hi - 1e-3) reads 1e-3 + 3.3e-16 on this system: the probe at hi - 1e-3, not shown
    # feasible, still closes the bracket
    system = seeded_system(6)[0]
    res = ff.min_gamma(system, LOW1, mode, bisect_tol=1e-3)
    lo, hi = res.bracket
    assert res.bisection_trace[-2:] == [(8.0, True), (hi - 1e-3, False)]
    assert (lo, res.lo_rests_on) == (hi - 1e-3, "probe")


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3),
       band=st.sampled_from(["entire", "low", "middle", "high"]),
       edges=st.tuples(st.floats(0.1, 5.0), st.floats(1.2, 4.0)))
@settings(max_examples=24)
def test_frozen_floor_lies_below_the_certified_gain(seed, n, band, edges):
    A, B, C, D = random_stable_lti(np.random.default_rng(seed), n=n)
    system = ff.LpvSystem.lti(A, B, C, D)
    w, ratio = edges
    rng = {"entire": ff.FrequencyRange.entire(), "low": ff.FrequencyRange.low(w),
           "middle": ff.FrequencyRange.middle(w, ratio * w),
           "high": ff.FrequencyRange.high(w)}[band]
    mode = "kyp" if band == "entire" else "gkyp"
    res = ff.min_gamma(system, rng, mode, bisect_tol=1e-2)
    assert 0.0 < res.gain_lower_bound <= res.gamma_star


def test_frozen_floor_of_an_lti_system_is_its_peak():
    # 1/(s+1): the peak 1 sits at w = 0 on the axis and on a low band, at the edge on a high one
    lti = _scalar_lti()
    assert lmi._frozen_peak(lti, ff.FrequencyRange.entire(), "kyp") == pytest.approx(1.0)
    assert lmi._frozen_peak(lti, LOW1, "gkyp") == pytest.approx(1.0)
    assert lmi._frozen_peak(lti, ff.FrequencyRange.high(10.0), "gkyp") == \
        pytest.approx(1.0 / np.sqrt(101.0))
    res = ff.min_gamma(lti, LOW1, "gkyp", bisect_tol=1e-4)
    assert res.gain_lower_bound == pytest.approx(1.0) and res.gamma_star >= 1.0


def test_frozen_floor_of_the_q_free_modes_on_the_example_is_the_feedthrough(benchmark_system):
    # the example's peak over the whole axis sits at w -> inf, |D(p)| = |-4.6104 + 1.8747 p|,
    # largest at p = 0.1 among lpv_ef's corners and taken at the midpoint 0.15 by kyp
    assert lmi._frozen_peak(benchmark_system, LOW1, "lpv_ef") == \
        pytest.approx(4.6104 - 0.1 * 1.8747, rel=1e-12)
    assert lmi._frozen_peak(benchmark_system, ff.FrequencyRange.entire(), "kyp") == \
        pytest.approx(4.6104 - 0.15 * 1.8747, rel=1e-12)


@pytest.mark.parametrize("mode, band", [("lpv_ff", ff.FrequencyRange.middle(0.5, 1.5)),
                                        ("kyp", ff.FrequencyRange.entire())])
def test_frozen_floor_of_a_mimo_system_matches_a_complex_svd(mode, band):
    # 2 inputs and 2 outputs, so the peak is eigensolved, not read off a 1 x 1 trace
    sysm = seeded_system(6)[0]
    if mode == "lpv_ff":
        P, ws, peak = grid(sysm.box.p_lower, sysm.box.p_upper), np.linspace(0.5, 1.5, 64), 0.0
    else:
        P = sysm.box.midpoint()[None]
        s = max(np.linalg.norm(sysm.A(p)) for p in P)
        ws = np.r_[0.0, np.geomspace(1e-3 * s, 1e3 * s, 63)]
        peak = max(np.linalg.svd(sysm.D(p), compute_uv=False)[0] for p in P)
    for p in P:
        A, B, C, D = sysm.frozen(p)
        for w in ws:
            G = C @ np.linalg.solve(1j * w * np.eye(sysm.n) - A, B) + D
            peak = max(peak, np.linalg.svd(G, compute_uv=False)[0])
    assert lmi._frozen_peak(sysm, band, mode) == pytest.approx(peak, rel=1e-13)


def test_a_floor_past_the_cap_gives_up_without_a_solve(monkeypatch):
    solves = _spy(monkeypatch, lmi, "solve_feasibility")
    loud = ff.LpvSystem.lti([[-1.0]], [[1.0]], [[1.0]], [[2.0 * lmi._GAMMA_CAP]])
    with pytest.raises(RuntimeError, match="not to admit a finite bound"):
        ff.min_gamma(loud, ff.FrequencyRange.entire(), "kyp")
    assert solves == []


def test_a_pole_on_a_sampled_node_leaves_the_floor_finite():
    # eigenvalues +-j: the node w = 1, the low band's edge, is a pole of G
    osc = ff.LpvSystem.lti([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    assert np.linalg.slogdet(np.block([[-osc.A.constant, -np.eye(2)],
                                       [np.eye(2), -osc.A.constant]]))[0] == 0.0
    floor = lmi._frozen_peak(osc, LOW1, "gkyp")
    assert np.isfinite(floor) and floor > 1.0


def test_a_certified_gain_below_the_floor_fails_loudly(benchmark_system, monkeypatch):
    monkeypatch.setattr(lmi, "_frozen_peak", lambda *args: 3.0)  # above gamma* = 2.1496
    with pytest.raises(RuntimeError, match="below the frozen in-band peak"):
        ff.min_gamma(benchmark_system, LOW1, "lpv_ff")


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
    got = eval_blocks(form, x)
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
