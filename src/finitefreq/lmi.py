"""Band-restricted performance LMIs, vertex relaxation, and gain bisection.

All conditions share one template on the stacked signal (xdot, x):

    [A B; I 0]^* (THETA (x) P  +  THETA_D (x) Pdot  +  Psi (x) Q) [A B; I 0]
        + [C D; 0 I]^* Pi [C D; 0 I]  <= 0

with mode-specific choices of which terms appear and which matrices are
parameter dependent.  Parameter-dependent conditions are enforced at box
vertices (rates symmetrized, see min_gamma) and re-checked on a grid.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (THETA, THETA_D, FrequencyRange, LpvSystem, ParameterBox,
                    PerformanceIndex, frequency_weight)
from .sdp import AffineSymmetricForm, max_eig_neg, real_embedding, solve_feasibility

MODES = ("kyp", "gkyp", "lpv_ff", "lpv_ef", "theorem2")


def _sym_basis(n):
    """Basis of S^n: E_ii and E_ij + E_ji."""
    out = []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            E[j, i] = 1.0
            out.append(E)
    return out


@dataclass
class _Layout:
    """Decision-vector layout: n_p affine P slabs followed by n_q Q slabs."""

    n: int
    n_p: int  # number of P matrices (1 for LTI modes, l+1 for LPV)
    n_q: int  # number of Q matrices (0, 1, or l+1)

    def __post_init__(self):
        self.basis = _sym_basis(self.n)
        self.t = len(self.basis)

    @property
    def nvar(self):
        return (self.n_p + self.n_q) * self.t

    def unpack(self, x):
        x = np.asarray(x, dtype=float)
        mats = []
        for k in range(self.n_p + self.n_q):
            M = np.zeros((self.n, self.n))
            for E, v in zip(self.basis, x[k * self.t:(k + 1) * self.t]):
                M += v * E
            mats.append(M)
        return mats[:self.n_p], mats[self.n_p:]

    def describe(self):
        names = [f"P{k}" for k in range(self.n_p)] + [f"Q{k}" for k in range(self.n_q)]
        return [f"{nm}: {self.t} entries of a symmetric {self.n}x{self.n} matrix" for nm in names]


def _embed_blocks(const, coeffs):
    """Real-embed a complex Hermitian block pencil; real pencils pass through."""
    if np.iscomplexobj(const) or any(np.iscomplexobj(K) for K in coeffs):
        return real_embedding(const), np.stack([real_embedding(K) for K in coeffs])
    return const.real, np.stack([K.real for K in coeffs])


def _main_block(A, B, C, D, pi, psi, layout, p=None, pdot=None):
    """One instance of the template inequality as an F(x) >= 0 block.

    p / pdot select the affine combination weights for the P and Q slabs:
    P(p) = P0 + sum p_i P_{i+1}, Pdot = sum pdot_i P_{i+1}; for LTI layouts both
    are ignored.  Returns (constant, coeff-stack), real, possibly embedded.
    """
    n = A.shape[0]
    m = B.shape[1]
    E = np.block([[A, B], [np.eye(n), np.zeros((n, m))]])
    CD = np.block([[C, D], [np.zeros((m, n)), np.eye(m)]])
    const = -(CD.T @ pi.pi_matrix @ CD)

    psi_m = psi.psi if psi is not None else None
    coeffs = []
    for k in range(layout.n_p):
        if layout.n_p == 1:
            wP, wPd = 1.0, 0.0
        else:
            wP = 1.0 if k == 0 else float(p[k - 1])
            wPd = 0.0 if k == 0 else float(pdot[k - 1])
        for Eb in layout.basis:
            S = wP * THETA + wPd * THETA_D
            coeffs.append(-(E.T @ np.kron(S, Eb) @ E))
    for k in range(layout.n_q):
        wQ = 1.0 if k == 0 else float(p[k - 1])
        for Eb in layout.basis:
            if psi_m is None:
                coeffs.append(np.zeros_like(const))
            else:
                coeffs.append(-(E.conj().T @ np.kron(wQ * psi_m, Eb) @ E))
    return _embed_blocks(const.astype(complex) if psi_m is not None and np.iscomplexobj(psi_m) else const,
                         coeffs)


def _psd_block(layout, which, weights):
    """Block asserting a weighted combination of slabs is PSD (e.g. Q(p) >= 0).

    which: 'P' or 'Q'; weights: affine weights (w0, w1, ...) over the slabs.
    """
    offset = 0 if which == "P" else layout.n_p
    count = layout.n_p if which == "P" else layout.n_q
    const = np.zeros((layout.n, layout.n))
    coeffs = []
    for k in range(layout.n_p + layout.n_q):
        lo = (which == "Q" and k >= offset) or (which == "P" and k < layout.n_p)
        idx = k - offset
        for Eb in layout.basis:
            if lo and 0 <= idx < count and idx < len(weights):
                coeffs.append(float(weights[idx]) * Eb)
            else:
                coeffs.append(np.zeros((layout.n, layout.n)))
    return const, np.stack(coeffs)


def _layout_for(mode, n, l):
    if mode == "kyp":
        return _Layout(n, 1, 0)
    if mode == "gkyp":
        return _Layout(n, 1, 1)
    if mode == "lpv_ff":
        return _Layout(n, l + 1, 1)
    if mode == "lpv_ef":
        return _Layout(n, l + 1, 0)
    if mode == "theorem2":
        return _Layout(n, l + 1, l + 1)
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def assemble_kyp_lti(A, B, C, D, pi: PerformanceIndex) -> AffineSymmetricForm:
    """Unrestricted-frequency condition for fixed matrices, as F(x) >= 0 in P."""
    layout = _Layout(np.asarray(A).shape[0], 1, 0)
    c, K = _main_block(np.asarray(A, float), np.asarray(B, float),
                       np.asarray(C, float), np.asarray(D, float), pi, None, layout)
    return AffineSymmetricForm([c], [K])


def assemble_gkyp_lti(A, B, C, D, rng: FrequencyRange, pi: PerformanceIndex) -> AffineSymmetricForm:
    """Band-restricted condition in (P, Q) with the Q >= 0 block appended."""
    A = np.asarray(A, float)
    layout = _Layout(A.shape[0], 1, 1)
    psi = frequency_weight(rng)
    c, K = _main_block(A, np.asarray(B, float), np.asarray(C, float), np.asarray(D, float),
                       pi, psi, layout)
    cq, Kq = _psd_block(layout, "Q", [1.0])
    return AffineSymmetricForm([c, cq], [K, Kq])


def assemble_lpv_ff(system: LpvSystem, rng: FrequencyRange, pi: PerformanceIndex,
                    vertex) -> AffineSymmetricForm:
    """Band-restricted parameter-dependent block at one (p, pdot) vertex."""
    p, pdot = vertex
    if not system.box.contains(p):
        raise ValueError("vertex parameter lies outside the box")
    layout = _layout_for("lpv_ff", system.n, system.nparams)
    A, B, C, D = system.frozen(p)
    c, K = _main_block(A, B, C, D, pi, frequency_weight(rng), layout, p, pdot)
    return AffineSymmetricForm([c], [K])


def assemble_lpv_ef(system: LpvSystem, pi: PerformanceIndex, vertex) -> AffineSymmetricForm:
    """Unrestricted-frequency parameter-dependent block at one (p, pdot) vertex."""
    p, pdot = vertex
    if not system.box.contains(p):
        raise ValueError("vertex parameter lies outside the box")
    layout = _layout_for("lpv_ef", system.n, system.nparams)
    A, B, C, D = system.frozen(p)
    c, K = _main_block(A, B, C, D, pi, None, layout, p, pdot)
    return AffineSymmetricForm([c], [K])


def assemble_theorem2(system: LpvSystem, rng: FrequencyRange, pi: PerformanceIndex,
                      vertex) -> AffineSymmetricForm:
    """Enlarged-band block with parameter-dependent Q at one (p, pdot) vertex."""
    p, pdot = vertex
    if not system.box.contains(p):
        raise ValueError("vertex parameter lies outside the box")
    layout = _layout_for("theorem2", system.n, system.nparams)
    A, B, C, D = system.frozen(p)
    c, K = _main_block(A, B, C, D, pi, frequency_weight(rng), layout, p, pdot)
    return AffineSymmetricForm([c], [K])


def lmi_rate_vertices(box: ParameterBox):
    """Rate vertices used for LMI enforcement: +-max magnitude per axis.

    Enforcing at both signs keeps the parameter-rate term from acting as an
    unbounded one-sided subsidy and makes the zero-coefficient reduction to the
    LTI condition exact.
    """
    if box.nparams == 0:
        return [np.zeros(0)]
    r = np.maximum(np.abs(box.rate_lower), np.abs(box.rate_upper))
    return [np.array(c, dtype=float)
            for c in itertools.product(*[[-ri, ri] if ri > 0 else [0.0] for ri in r])]


@dataclass
class LmiProblem:
    """A fully instantiated feasibility problem at one gain level."""

    system: LpvSystem
    range: FrequencyRange
    mode: str
    gamma: float
    layout: _Layout
    form: AffineSymmetricForm
    vertex_list: list
    margin: float

    def decision_layout(self):
        return self.layout.describe()


def build_problem(system: LpvSystem, rng: FrequencyRange, mode: str, gamma: float,
                  margin=None, freeze_p=None) -> LmiProblem:
    """Stack the mode's blocks over all enforcement vertices at a fixed gain."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    pi = PerformanceIndex.l2_gain(gamma, system.n_outputs, system.n_inputs)
    l = system.nparams
    layout = _layout_for(mode, system.n, l)

    forms = []
    vertex_list = []
    if mode in ("kyp", "gkyp"):
        A, B, C, D = system.frozen(freeze_p)
        if mode == "kyp":
            forms.append(assemble_kyp_lti(A, B, C, D, pi))
        else:
            forms.append(assemble_gkyp_lti(A, B, C, D, rng, pi))
        vertex_list.append((system.box.midpoint() if freeze_p is None else np.atleast_1d(freeze_p),
                            np.zeros(l)))
    else:
        p_corners = _p_corners(system.box)
        rates = lmi_rate_vertices(system.box)
        for p in p_corners:
            for r in rates:
                vertex_list.append((p, r))
                if mode == "lpv_ff":
                    forms.append(assemble_lpv_ff(system, rng, pi, (p, r)))
                elif mode == "lpv_ef":
                    forms.append(assemble_lpv_ef(system, pi, (p, r)))
                else:
                    forms.append(assemble_theorem2(system, rng, pi, (p, r)))
        # sign constraints on the parameter-dependent certificate matrices
        if mode == "lpv_ff":
            c, K = _psd_block(layout, "Q", [1.0])
            forms.append(AffineSymmetricForm([c], [K]))
        elif mode == "lpv_ef":
            for p in p_corners:
                c, K = _psd_block(layout, "P", np.concatenate([[1.0], p]))
                forms.append(AffineSymmetricForm([c], [K]))
        else:
            for p in p_corners:
                c, K = _psd_block(layout, "Q", np.concatenate([[1.0], p]))
                forms.append(AffineSymmetricForm([c], [K]))

    form = AffineSymmetricForm.stack(forms)
    if margin is None:
        margin = 1e-6 * max(float(np.linalg.norm(C_, 2)) for C_ in form.constant_blocks
                            if C_.size) if form.constant_blocks else 1e-6
        margin = max(margin, 1e-9)
    return LmiProblem(system, rng, mode, gamma, layout, form, vertex_list, margin)


def _p_corners(box: ParameterBox):
    if box.nparams == 0:
        return [np.zeros(0)]
    return [np.array(c, dtype=float)
            for c in itertools.product(*[[a] if a == b else [a, b]
                                         for a, b in zip(box.p_lower, box.p_upper)])]


def _check_controllability(system: LpvSystem):
    """Warn (not fail) when the frozen pair (A, B) is close to uncontrollable."""
    for p in _p_corners(system.box) + [system.box.midpoint()]:
        A, B, _, _ = system.frozen(p)
        n = A.shape[0]
        blocks = [B]
        for _ in range(n - 1):
            blocks.append(A @ blocks[-1])
        sv = np.linalg.svd(np.hstack(blocks), compute_uv=False)
        if sv[-1] <= 1e-8 * sv[0]:
            warnings.warn(
                f"frozen pair (A, B) at p={np.round(p, 6)} is near-uncontrollable; "
                "certificates may be unreliable", stacklevel=3)
            return


@dataclass
class GammaResult:
    gamma_star: float
    certificate: dict
    x: np.ndarray
    bisection_trace: list
    relaxation_gap_flag: bool
    violations: list
    bracket: tuple
    margin: float
    mode: str
    range: FrequencyRange


def min_gamma(system: LpvSystem, rng: FrequencyRange, mode: str, bisect_tol: float = 1e-3,
              margin=None, freeze_p=None, gamma_cap: float = 1e6, max_iters: int = 4000,
              verify_density: int = 11) -> GammaResult:
    """Smallest certified L2-gain level, located by bisection over the gain.

    Feasibility of the stacked vertex form is monotone in gamma^2, so bisection
    keeps a bracket (lo, hi) with hi always certified: a feasible verdict at hi
    carries a point that an exact eigensolve confirms.  An infeasible verdict
    at lo is a dual certificate or only "not shown feasible", so the true
    optimum may lie below lo.  gamma_star is hi, within bisect_tol of lo.
    After convergence the certificate is re-checked on a parameter grid;
    violations set relaxation_gap_flag instead of failing.
    """
    if bisect_tol <= 0:
        raise ValueError("bisect_tol must be positive")
    _check_controllability(system)

    warm = {"x": None}
    trace = []

    def probe(g):
        prob = build_problem(system, rng, mode, g, margin=margin, freeze_p=freeze_p)
        res = solve_feasibility(prob.form, prob.margin, max_iters=max_iters, x0=warm["x"])
        if res.feasible:
            warm["x"] = res.x
        trace.append((float(g), bool(res.feasible)))
        return res, prob

    # Upper bracket by doubling from 1; lower by halving when 1 is feasible.
    g = 1.0
    res, prob = probe(g)
    if res.feasible:
        hi, hi_res, hi_prob = g, res, prob
        lo = g
        while lo > 1e-9:
            lo *= 0.5
            res, prob = probe(lo)
            if not res.feasible:
                break
            hi, hi_res, hi_prob = lo, res, prob
        else:
            lo = 0.0
        if lo == hi:
            lo = 0.0
    else:
        lo = g
        while True:
            g *= 2.0
            if g > gamma_cap:
                raise RuntimeError(
                    "system appears not to admit a finite bound under this relaxation")
            res, prob = probe(g)
            if res.feasible:
                hi, hi_res, hi_prob = g, res, prob
                break
            lo = g

    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        res, prob = probe(mid)
        if res.feasible:
            hi, hi_res, hi_prob = mid, res, prob
        else:
            lo = mid

    # Re-verify the kept certificate with a fresh eigensolve.
    if max_eig_neg(hi_prob.form, hi_res.x) > -hi_prob.margin / 2:
        warnings.warn("certificate re-verification is marginal", stacklevel=2)

    P, Q = hi_prob.layout.unpack(hi_res.x)
    cert = {f"P{k}": M for k, M in enumerate(P)}
    cert.update({f"Q{k}": M for k, M in enumerate(Q)})
    violations = verify_on_grid(hi_prob, hi_res.x, grid_density=verify_density)
    return GammaResult(
        gamma_star=hi, certificate=cert, x=hi_res.x,
        bisection_trace=trace, relaxation_gap_flag=bool(violations),
        violations=violations, bracket=(lo, hi), margin=hi_prob.margin,
        mode=mode, range=rng,
    )


def verify_on_grid(problem: LmiProblem, x, grid_density: int = 11):
    """Evaluate the certified inequality on a (p, pdot) grid.

    Returns the points where the main block exceeds -margin/2, i.e. where the
    vertex relaxation fails to extend to the interior at the solved margin.
    """
    sysm = problem.system
    l = sysm.nparams
    pi = PerformanceIndex.l2_gain(problem.gamma, sysm.n_outputs, sysm.n_inputs)
    psi = frequency_weight(problem.range) if problem.mode in ("gkyp", "lpv_ff", "theorem2") else None

    pgrid = sysm.box.p_grid(grid_density)
    if problem.mode in ("kyp", "gkyp") or l == 0:
        rgrid = [np.zeros(l)]
        pgrid = [problem.vertex_list[0][0]]
    else:
        r = np.maximum(np.abs(sysm.box.rate_lower), np.abs(sysm.box.rate_upper))
        axes = [np.linspace(-ri, ri, max(2, grid_density)) if ri > 0 else np.array([0.0]) for ri in r]
        rgrid = [np.array(c) for c in itertools.product(*axes)]

    bad = []
    tol = problem.margin / 2
    for p in pgrid:
        A, B, C, D = sysm.frozen(p)
        for r in rgrid:
            c, K = _main_block(A, B, C, D, pi, psi, problem.layout, p, r)
            G = -(c + np.tensordot(np.asarray(x, float), K, axes=(0, 0)))
            lam = float(np.linalg.eigvalsh(G).max())
            if lam > -tol:
                bad.append((np.array(p), np.array(r), lam))
    return bad


@dataclass
class UasCertificate:
    """Exponential-decay certificate for the autonomous part.

    The bounds c1*I <= P_s(p) <= c2*I together with the decay inequality at
    level c3 give the transition-matrix envelope alpha * exp(-beta t) with
    alpha = c2/c1 and beta = c3/(2 c2).
    """

    c1: float
    c2: float
    c3: float
    alpha: float
    beta: float
    P: list
    achieved_margin: float

    @property
    def p_s(self):
        return self.P


def _uas_form(system: LpvSystem, c1, c2, c3):
    """Stacked blocks for the decay certificate with fixed scalars c1, c2, c3."""
    l = system.nparams
    layout = _Layout(system.n, l + 1, 0)
    n = system.n
    consts, coeffs = [], []

    def p_weights(p):
        return np.concatenate([[1.0], np.atleast_1d(p)]) if l else np.array([1.0])

    for p in _p_corners(system.box):
        w = p_weights(p)
        # P(p) - c1 I >= 0
        consts.append(-c1 * np.eye(n))
        coeffs.append(np.stack([w[k] * Eb for k in range(l + 1) for Eb in layout.basis]))
        # c2 I - P(p) >= 0
        consts.append(c2 * np.eye(n))
        coeffs.append(np.stack([-w[k] * Eb for k in range(l + 1) for Eb in layout.basis]))
    for p in _p_corners(system.box):
        A = system.A(p)
        w = p_weights(p)
        for r in _rate_corners(system.box):
            # -(A' P(p) + P(p) A + sum r_i P_i) - c3 I >= 0
            consts.append(-c3 * np.eye(n))
            Ks = []
            for k in range(l + 1):
                rk = 0.0 if k == 0 else float(r[k - 1])
                for Eb in layout.basis:
                    Ks.append(-(A.T @ (w[k] * Eb) + (w[k] * Eb) @ A + rk * Eb))
            coeffs.append(np.stack(Ks))
    return layout, AffineSymmetricForm(consts, coeffs)


def _rate_corners(box: ParameterBox):
    """Rate-box corners taken verbatim (the stored bounds, no symmetrization)."""
    if box.nparams == 0:
        return [np.zeros(0)]
    return [np.array(c, dtype=float)
            for c in itertools.product(*[[a] if a == b else [a, b]
                                         for a, b in zip(box.rate_lower, box.rate_upper)])]


def uas_certificate(system: LpvSystem, c3_target: float, c1=None, c2=None,
                    max_iters: int = 4000) -> UasCertificate:
    """Decay certificate with affine P_s(p) at fixed c3 (halved on failure).

    With c1, c2 supplied the scalars are held fixed and only P_s is searched
    (boundary-tight certificates are accepted within a small dead band).  With
    them free, c2 is normalized to 1 and the largest feasible c1 is located by
    bisection, which minimizes the overshoot ratio alpha = c2/c1.
    """
    if c3_target <= 0:
        raise ValueError("c3_target must be positive")
    fixed = c1 is not None and c2 is not None
    if (c1 is None) != (c2 is None):
        raise ValueError("supply both c1 and c2 or neither")

    def try_fixed(c1v, c2v, c3v):
        layout, form = _uas_form(system, c1v, c2v, c3v)
        res = solve_feasibility(form, 0.0, max_iters=max_iters)
        dead = 1e-6 * form.scale()
        ok = res.feasible or res.achieved_margin >= -dead
        return ok, res, layout

    c3 = float(c3_target)
    for _ in range(40):
        if fixed:
            ok, res, layout = try_fixed(float(c1), float(c2), c3)
            if ok:
                P, _ = layout.unpack(res.x)
                a, b = float(c2) / float(c1), c3 / (2.0 * float(c2))
                return UasCertificate(float(c1), float(c2), c3, a, b, P, res.achieved_margin)
        else:
            ok, res, layout = try_fixed(1e-6, 1.0, c3)
            if ok:
                lo_c1, hi_c1 = 1e-6, 1.0
                best = (lo_c1, res, layout)
                for _ in range(30):
                    mid = 0.5 * (lo_c1 + hi_c1)
                    okm, resm, laym = try_fixed(mid, 1.0, c3)
                    if okm:
                        lo_c1 = mid
                        best = (mid, resm, laym)
                    else:
                        hi_c1 = mid
                c1v, res, layout = best
                P, _ = layout.unpack(res.x)
                return UasCertificate(c1v, 1.0, c3, 1.0 / c1v, c3 / 2.0, P, res.achieved_margin)
        c3 *= 0.5
    raise RuntimeError("no UAS certificate found under affine P_s")
