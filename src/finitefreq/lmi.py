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
                    PerformanceIndex, corners, frequency_weight)
from .sdp import AffineSymmetricForm, max_eig_neg, real_embedding, solve_feasibility

MODES = ("kyp", "gkyp", "lpv_ff", "lpv_ef", "theorem2")


def _sym_basis(n):
    """Basis of S^n as a (t, n, n) stack: E_ii and E_ij + E_ji."""
    out = []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            E[j, i] = 1.0
            out.append(E)
    return np.array(out).reshape(len(out), n, n)


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
        x = np.asarray(x, dtype=float).reshape(self.n_p + self.n_q, self.t)
        mats = list(np.tensordot(x, self.basis, axes=(1, 0)))
        return mats[:self.n_p], mats[self.n_p:]


def _slab_weights(layout, psi, P, R):
    """The 2x2 weight of every slab at V vertices, (V, n_p + n_q, 2, 2).

    P(p) = P0 + sum p_i P_{i+1} enters through THETA, Pdot = sum pdot_i P_{i+1}
    through THETA_D and Q(p) = Q0 + sum p_i Q_{i+1} through Psi; single-slab
    layouts ignore p and pdot.  P and R are the (V, l) parameters and rates.
    """
    ones = np.ones((len(P), 1))
    if layout.n_p == 1:
        wP, wPd = ones, 0.0 * ones
    else:
        wP, wPd = np.hstack([ones, P]), np.hstack([0.0 * ones, R])
    S = wP[..., None, None] * THETA + wPd[..., None, None] * THETA_D
    if layout.n_q:
        wQ = np.hstack([ones, P])[:, :layout.n_q]
        S = np.concatenate([S, wQ[..., None, None] * psi], axis=1)
    return S


def _signal_maps(A, B, C, D):
    """E = [A B; I 0] and CD = [C D; 0 I] for stacked (V, ...) frozen matrices."""
    V, n, m = B.shape
    E = np.concatenate([np.concatenate([A, B], axis=2),
                        np.broadcast_to(np.eye(n, n + m), (V, n, n + m))], axis=1)
    CD = np.concatenate([np.concatenate([C, D], axis=2),
                         np.broadcast_to(np.eye(m, n + m, n), (V, m, n + m))], axis=1)
    return E, CD


def _vertex_blocks(A, B, C, D, pi_matrix, psi, layout, P, R):
    """The template at V vertices: constants (V, k, k) and coefficients (V, nvar, k, k).

    A..D are the frozen matrices stacked over the vertices, P and R the (V, l)
    parameters and rates.  The constant is -(CD^T Pi CD); the coefficient of
    slab s and basis element E_b is -(E^* (S_s (x) E_b) E) with S_s the slab's
    2x2 weight.  A complex (middle-band) Psi makes every block real-embedded.
    """
    E, CD = _signal_maps(A, B, C, D)
    const = -(np.swapaxes(CD, 1, 2) @ pi_matrix @ CD)
    S = _slab_weights(layout, psi, P, R)
    V, k2 = len(E), 2 * layout.n
    kron = np.einsum("vsab,tij->vstaibj", S, layout.basis).reshape(V, layout.nvar, k2, k2)
    coeffs = -(np.swapaxes(E, 1, 2)[:, None] @ kron @ E[:, None])
    if np.iscomplexobj(coeffs):
        return real_embedding(const), real_embedding(coeffs)
    return const, coeffs


def _psd_block(layout, which, weights):
    """Block asserting a weighted combination of slabs is PSD (e.g. Q(p) >= 0).

    which: 'P' or 'Q'; weights: affine weights (w0, w1, ...) over the slabs.
    """
    K = np.zeros((layout.n_p + layout.n_q, layout.t, layout.n, layout.n))
    offset = 0 if which == "P" else layout.n_p
    w = np.asarray(weights, dtype=float)
    K[offset:offset + len(w)] = w[:, None, None, None] * layout.basis
    return np.zeros((layout.n, layout.n)), K.reshape(layout.nvar, layout.n, layout.n)


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


def _lti_form(A, B, C, D, pi, psi, layout):
    mats = [np.asarray(M, float)[None] for M in (A, B, C, D)]
    c, K = _vertex_blocks(*mats, pi.pi_matrix, psi, layout, np.zeros((1, 0)), np.zeros((1, 0)))
    return c[0], K[0]


def assemble_kyp_lti(A, B, C, D, pi: PerformanceIndex) -> AffineSymmetricForm:
    """Unrestricted-frequency condition for fixed matrices, as F(x) >= 0 in P."""
    c, K = _lti_form(A, B, C, D, pi, None, _Layout(np.asarray(A).shape[0], 1, 0))
    return AffineSymmetricForm([c], [K])


def assemble_gkyp_lti(A, B, C, D, rng: FrequencyRange, pi: PerformanceIndex) -> AffineSymmetricForm:
    """Band-restricted condition in (P, Q) with the Q >= 0 block appended."""
    layout = _Layout(np.asarray(A).shape[0], 1, 1)
    c, K = _lti_form(A, B, C, D, pi, frequency_weight(rng).psi, layout)
    cq, Kq = _psd_block(layout, "Q", [1.0])
    return AffineSymmetricForm([c, cq], [K, Kq])


def _vertex_form(system, mode, rng, pi, vertex) -> AffineSymmetricForm:
    p, pdot = (np.atleast_1d(np.asarray(v, dtype=float)) for v in vertex)
    if not system.box.contains(p):
        raise ValueError("vertex parameter lies outside the box")
    psi = frequency_weight(rng).psi if mode != "lpv_ef" else None
    mats = [M.batch(p[None]) for M in (system.A, system.B, system.C, system.D)]
    c, K = _vertex_blocks(*mats, pi.pi_matrix, psi, _layout_for(mode, system.n, system.nparams),
                          p[None], pdot[None])
    return AffineSymmetricForm([c[0]], [K[0]])


def assemble_lpv_ff(system: LpvSystem, rng: FrequencyRange, pi: PerformanceIndex,
                    vertex) -> AffineSymmetricForm:
    """Band-restricted parameter-dependent block at one (p, pdot) vertex."""
    return _vertex_form(system, "lpv_ff", rng, pi, vertex)


def assemble_lpv_ef(system: LpvSystem, pi: PerformanceIndex, vertex) -> AffineSymmetricForm:
    """Unrestricted-frequency parameter-dependent block at one (p, pdot) vertex."""
    return _vertex_form(system, "lpv_ef", None, pi, vertex)


def assemble_theorem2(system: LpvSystem, rng: FrequencyRange, pi: PerformanceIndex,
                      vertex) -> AffineSymmetricForm:
    """Enlarged-band block with parameter-dependent Q at one (p, pdot) vertex."""
    return _vertex_form(system, "theorem2", rng, pi, vertex)


def lmi_rate_vertices(box: ParameterBox) -> np.ndarray:
    """Rate vertices used for LMI enforcement: +-max magnitude per axis, as rows.

    Enforcing at both signs keeps the parameter-rate term from acting as an
    unbounded one-sided subsidy and makes the zero-coefficient reduction to the
    LTI condition exact.
    """
    r = np.maximum(np.abs(box.rate_lower), np.abs(box.rate_upper))
    return corners(0.0 - r, r)  # 0.0 - r: a zero rate stays +0.0


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


@dataclass
class _Family:
    """One mode's stacked blocks over all enforcement vertices, for every gain.

    The index Pi = diag(I, -gamma^2 I) enters the constants only: a main
    block's constant is const0 + gamma^2 * gain with gain = CD^T diag(0, I) CD,
    and PSD blocks carry none.  The coefficient stacks are built and checked
    once in ``base`` and shared by every gain level.
    """

    system: LpvSystem
    range: FrequencyRange
    mode: str
    layout: _Layout
    vertex_list: list
    base: AffineSymmetricForm  # constants at gamma = 0
    const0: np.ndarray  # (V, k, k): main-block constants at gamma = 0
    gain: np.ndarray  # (k, k), the same at every vertex

    def problem(self, gamma: float, margin=None) -> LmiProblem:
        main = self.const0 + float(gamma) ** 2 * self.gain
        form = self.base.with_constants(list(main) + self.base.constant_blocks[len(main):])
        if margin is None:
            margin = max(1e-6 * float(np.linalg.norm(main, 2, axis=(1, 2)).max()), 1e-9)
        return LmiProblem(self.system, self.range, self.mode, gamma, self.layout, form,
                          self.vertex_list, margin)


def _assemble(system: LpvSystem, rng: FrequencyRange, mode: str, freeze_p=None) -> _Family:
    """Build a mode's blocks over its enforcement vertices with the gain factored out."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    l, n, m = system.nparams, system.n, system.n_inputs
    layout = _layout_for(mode, n, l)
    psi = frequency_weight(rng).psi if mode in ("gkyp", "lpv_ff", "theorem2") else None
    box = system.box
    if mode in ("kyp", "gkyp"):
        P = (box.midpoint() if freeze_p is None else np.atleast_1d(freeze_p))[None]
        R = np.zeros((1, l))
    else:
        pc, rc = corners(box.p_lower, box.p_upper), lmi_rate_vertices(box)
        P, R = np.repeat(pc, len(rc), axis=0), np.tile(rc, (len(pc), 1))
    mats = [M.batch(P) for M in (system.A, system.B, system.C, system.D)]
    out_index = np.diag(np.r_[np.ones(system.n_outputs), np.zeros(m)])
    const0, coeffs = _vertex_blocks(*mats, out_index, psi, layout, P, R)
    # CD^T diag(0, I) CD = diag(0, I): the lower block row of CD is [0 I]
    gain = np.diag(np.r_[np.zeros(n), np.ones(m)])
    if np.iscomplexobj(psi):
        gain = real_embedding(gain)

    psd = []
    if mode in ("gkyp", "lpv_ff"):
        psd.append(_psd_block(layout, "Q", [1.0]))
    elif mode in ("lpv_ef", "theorem2"):
        which = "P" if mode == "lpv_ef" else "Q"
        psd.extend(_psd_block(layout, which, np.r_[1.0, p]) for p in corners(box.p_lower, box.p_upper))
    base = AffineSymmetricForm(list(const0) + [c for c, _ in psd],
                               list(coeffs) + [K for _, K in psd])
    return _Family(system, rng, mode, layout, list(zip(P, R)), base, const0, gain)


def build_problem(system: LpvSystem, rng: FrequencyRange, mode: str, gamma: float,
                  margin=None, freeze_p=None) -> LmiProblem:
    """Stack the mode's blocks over all enforcement vertices at a fixed gain."""
    return _assemble(system, rng, mode, freeze_p).problem(gamma, margin)


def _check_controllability(system: LpvSystem):
    """Warn (not fail) when the frozen pair (A, B) is close to uncontrollable."""
    box = system.box
    for p in np.vstack([corners(box.p_lower, box.p_upper), box.midpoint()]):
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

    family = _assemble(system, rng, mode, freeze_p)
    warm = {"x": None}
    trace = []

    def probe(g):
        prob = family.problem(g, margin)
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
    The certificate is contracted first: at grid point (p, pdot) the block is
    E^* (THETA (x) P(p) + THETA_D (x) Pdot + Psi (x) Q(p)) E + CD^T Pi CD, formed
    for all points at once and checked with one batched eigensolve.
    """
    sysm = problem.system
    l = sysm.nparams
    layout = problem.layout
    if problem.mode in ("kyp", "gkyp") or l == 0:
        pgrid = problem.vertex_list[0][0][None]
        rgrid = np.zeros((1, l))
    else:
        pgrid = sysm.box.p_grid(grid_density)
        r = np.maximum(np.abs(sysm.box.rate_lower), np.abs(sysm.box.rate_upper))
        axes = [np.linspace(-ri, ri, max(2, grid_density)) if ri > 0 else np.array([0.0]) for ri in r]
        rgrid = np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, l)

    Ps, Qs = layout.unpack(x)
    psi = frequency_weight(problem.range).psi if Qs else None
    S = _slab_weights(layout, psi, np.repeat(pgrid, len(rgrid), axis=0), np.tile(rgrid, (len(pgrid), 1)))
    k2 = 2 * layout.n
    X = np.einsum("vsab,sij->vaibj", S, np.stack(Ps + Qs)).reshape(len(pgrid), len(rgrid), k2, k2)

    mats = [M.batch(pgrid) for M in (sysm.A, sysm.B, sysm.C, sysm.D)]
    E, CD = _signal_maps(*mats)
    pi = PerformanceIndex.l2_gain(problem.gamma, sysm.n_outputs, sysm.n_inputs).pi_matrix
    G = np.swapaxes(E, 1, 2)[:, None] @ X @ E[:, None] + (np.swapaxes(CD, 1, 2) @ pi @ CD)[:, None]
    if np.iscomplexobj(G):  # real-embedded like the solver's blocks: same spectrum, doubled
        G = real_embedding(G)
    lam = np.linalg.eigvalsh(G).max(axis=-1)
    tol = problem.margin / 2
    return [(np.array(pgrid[i]), np.array(rgrid[j]), float(lam[i, j]))
            for i, j in zip(*np.nonzero(lam > -tol))]


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


def _uas_family(system: LpvSystem):
    """Decay-certificate blocks with the scalars c1, c2, c3 left free.

    Blocks, in order: P(p) - c1 I >= 0 and c2 I - P(p) >= 0 at each parameter
    corner, then -(A(p)^T P(p) + P(p) A(p) + sum_i r_i P_i) - c3 I >= 0 at each
    (parameter, rate) corner pair, rates taken verbatim from the box.  Returns
    the layout, the form at c1 = c2 = c3 = 0 (coefficient stacks built and
    checked once) and, per block, the signed index of the scalar its constant
    carries: the constant at (c1, c2, c3) is sign * c_index * I.
    """
    l, n = system.nparams, system.n
    layout = _Layout(n, l + 1, 0)
    box = system.box
    pc, rc = corners(box.p_lower, box.p_upper), corners(box.rate_lower, box.rate_upper)
    WE = np.hstack([np.ones((len(pc), 1)), pc])[:, :, None, None, None] * layout.basis
    bounds = np.stack([WE, -WE], axis=1).reshape(2 * len(pc), layout.nvar, n, n)
    A = system.A.batch(pc)[:, None, None]
    RE = np.hstack([np.zeros((len(rc), 1)), rc])[:, :, None, None, None] * layout.basis
    decay = -((np.swapaxes(A, -1, -2) @ WE + WE @ A)[:, None] + RE[None])
    coeffs = list(bounds) + list(decay.reshape(len(pc) * len(rc), layout.nvar, n, n))
    scalars = [(0, -1.0), (1, 1.0)] * len(pc) + [(2, -1.0)] * (len(pc) * len(rc))
    return layout, AffineSymmetricForm([np.zeros((n, n))] * len(coeffs), coeffs), scalars


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

    layout, base, scalars = _uas_family(system)
    eye = np.eye(system.n)

    def try_fixed(c1v, c2v, c3v):
        c = (c1v, c2v, c3v)
        form = base.with_constants([sign * c[i] * eye for i, sign in scalars])
        res = solve_feasibility(form, 0.0, max_iters=max_iters)
        dead = 1e-6 * form.scale()
        return res.feasible or res.achieved_margin >= -dead, res

    c3 = float(c3_target)
    for _ in range(40):
        if fixed:
            ok, res = try_fixed(float(c1), float(c2), c3)
            if ok:
                P, _ = layout.unpack(res.x)
                a, b = float(c2) / float(c1), c3 / (2.0 * float(c2))
                return UasCertificate(float(c1), float(c2), c3, a, b, P, res.achieved_margin)
        else:
            ok, res = try_fixed(1e-6, 1.0, c3)
            if ok:
                lo_c1, hi_c1 = 1e-6, 1.0
                best = (lo_c1, res)
                for _ in range(30):
                    mid = 0.5 * (lo_c1 + hi_c1)
                    okm, resm = try_fixed(mid, 1.0, c3)
                    if okm:
                        lo_c1 = mid
                        best = (mid, resm)
                    else:
                        hi_c1 = mid
                c1v, res = best
                P, _ = layout.unpack(res.x)
                return UasCertificate(c1v, 1.0, c3, 1.0 / c1v, c3 / 2.0, P, res.achieved_margin)
        c3 *= 0.5
    raise RuntimeError("no UAS certificate found under affine P_s")
