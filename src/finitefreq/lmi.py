"""Band-restricted performance LMIs, vertex relaxation, and the smallest certified gain.

Every condition is one template, Iwasaki & Hara's GKYP form (IEEE TAC 2005),
on the stacked signal (xdot, x):

    [A B; I 0]^* (THETA (x) P  +  THETA_D (x) Pdot  +  Psi (x) Q) [A B; I 0]
        + [C D; 0 I]^* Pi [C D; 0 I]  <= 0,    Pi = diag(I, -gamma^2 I).

The mode table (``_MODE_TABLE``) records, per mode, whether P is constant or
affine in p and whether Q is absent, constant or affine; everything else
follows from it:

    mode      P         Q         enforced at          PSD blocks
    kyp       constant  -         box midpoint         -
    gkyp      constant  constant  box midpoint         Q >= 0
    lpv_ff    affine    constant  p and rate corners   Q >= 0
    lpv_ef    affine    -         p and rate corners   P(p) >= 0 at the p corners
    theorem2  affine    affine    p and rate corners   Q(p) >= 0 at the p corners

An affine matrix is X(p) = X0 + sum_i p_i X_i (l + 1 slabs of the decision
vector; a constant one is one slab), an affine P brings the rate term
Pdot = sum_i pdot_i P_i, and the band weight Psi appears iff Q does.  Rates
are symmetrized to +-max |rate| per axis.  The corners are the product grid
at 2 points per axis; ``verify_on_grid`` re-checks the same template on a
finer p grid times the rate corners.

The index enters the constants only, as gamma^2 times a fixed matrix, so
``min_gamma`` treats gamma^2 as one more decision variable: after doubling
gamma to a strictly feasible level g (passing without a solve the levels
below the frozen in-band peak, which GKYP rules out), one primal-dual run
maximizes g^2 - gamma^2 (an eigenvalue problem) and an exact eigen re-check
accepts the level it reaches; the run's dual bound, the frozen peak, or a
probe just below, closes the bracket.
The decay certificate (``uas_certificate``) is the template with B, C and D
empty, -(A^T P(p) + P(p) A + Pdot), with the rates taken as stored; with its
scalars free, one primal-dual run maximizes s with c1*c3 >= s^2 the same way.
Every certificate it returns passes an exact eigen re-check at margin 0.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (THETA, THETA_D, FrequencyRange, LpvSystem, ParameterBox, frequency_weight,
                    gram_peak, grid, resolvent)
from .sdp import (AffineSymmetricForm, max_eig_neg, minimize, real_embedding, solve_feasibility,
                  stack_blocks)

# mode: (P, Q), each "constant", "affine" in p, or None (absent)
_MODE_TABLE = {
    "kyp": ("constant", None),
    "gkyp": ("constant", "constant"),
    "lpv_ff": ("affine", "constant"),
    "lpv_ef": ("affine", None),
    "theorem2": ("affine", "affine"),
}
MODES = tuple(_MODE_TABLE)
_GRID_CHUNK = 4096  # grid rows per template evaluation in verify_on_grid
_GAMMA_CAP = 1e6  # min_gamma gives up once phase 1 doubles gamma past this


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


def _slab_count(kind, l):
    return {None: 0, "constant": 1, "affine": l + 1}[kind]


@dataclass
class _Layout:
    """Decision-vector layout: n_p P slabs followed by n_q Q slabs."""

    n: int
    n_p: int  # number of P matrices (1 when constant, l+1 when affine)
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

    def directions(self):
        """Slab s of every unit decision vector e_j, as (n_p + n_q, nvar, n, n)."""
        eye = np.eye(self.n_p + self.n_q)
        return (eye[:, :, None, None, None] * self.basis).reshape(len(eye), self.nvar, self.n, self.n)

    def slab_sum(self, first, W):
        """Coefficients of sum_k W[v, k] * slab (first + k) for each row v of W, (V, nvar, n, n)."""
        return np.tensordot(W, self.directions()[first:first + W.shape[1]], axes=(1, 0))


def _slab_weights(layout, psi, P, R):
    """The 2x2 weight of every slab at V rows, (V, n_p + n_q, 2, 2).

    P(p) = P0 + sum p_i P_{i+1} enters through THETA, Pdot = sum pdot_i P_{i+1}
    through THETA_D and Q(p) = Q0 + sum p_i Q_{i+1} through Psi; a single slab
    takes the weights 1 and 0 and so ignores p and pdot.  P and R are the
    (V, l) parameters and rates.
    """
    ones = np.ones((len(P), 1))
    wP, wPd = np.hstack([ones, P])[:, :layout.n_p], np.hstack([0.0 * ones, R])[:, :layout.n_p]
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


def _template(A, B, C, D, pi_matrix, psi, layout, P, R, X):
    """The template at V rows (p, pdot): constants (V, k, k) and coefficients (V, N, k, k).

    A..D are the frozen matrices stacked over the rows, P and R the (V, l)
    parameters and rates, and X the slab matrices of N directions,
    (n_p + n_q, N, n, n).  The constant is -(CD^T Pi CD); the coefficient of
    direction j is -(E^* (sum_s S_s (x) X[s, j]) E) with S_s slab s's 2x2
    weight.  X = layout.directions() gives the coefficient of every decision
    variable; X = the unpacked certificate x gives F(x) less its constant.
    A complex (middle-band) Psi makes every block real-embedded.
    """
    E, CD = _signal_maps(A, B, C, D)
    const = -(np.swapaxes(CD, 1, 2) @ pi_matrix @ CD)
    S = _slab_weights(layout, psi, P, R)
    V, N, k2 = len(E), X.shape[1], 2 * layout.n
    kron = np.einsum("vsab,snij->vnaibj", S, X).reshape(V, N, k2, k2)
    coeffs = -(np.swapaxes(E, 1, 2)[:, None] @ kron @ E[:, None])
    if np.iscomplexobj(coeffs):
        return real_embedding(const), real_embedding(coeffs)
    return const, coeffs


def _product_rows(box: ParameterBox, rate_lo, rate_hi, density):
    """(p, pdot) rows of the p grid at ``density`` points per axis times the rate corners,
    p-major."""
    P, R = grid(box.p_lower, box.p_upper, density), grid(rate_lo, rate_hi)
    return np.repeat(P, len(R), axis=0), np.tile(R, (len(P), 1))


def _points(box: ParameterBox, mode: str, density: int):
    """Rows (p, pdot) where a mode's template is checked: the corners at density 2.

    A constant P is checked at the frozen midpoint only; an affine one on the
    p grid times the corners of the symmetrized rates +-max |rate|, which
    keeps the rate term from acting as a one-sided subsidy and makes the
    zero-coefficient reduction to the constant-P condition exact.
    """
    if _MODE_TABLE[mode][0] == "constant":
        return box.midpoint()[None], np.zeros((1, box.nparams))
    r = np.maximum(np.abs(box.rate_lower), np.abs(box.rate_upper))
    return _product_rows(box, 0.0 - r, r, density)  # 0.0 - r: a zero rate stays +0.0


def _main_blocks(system: LpvSystem, rng: FrequencyRange, layout: _Layout, P, R, X):
    """The template at rows (P, R) with Pi = diag(I, 0), i.e. at gamma = 0."""
    mats = [M.batch(P) for M in (system.A, system.B, system.C, system.D)]
    out_index = np.diag(np.r_[np.ones(system.n_outputs), np.zeros(system.n_inputs)])
    psi = frequency_weight(rng) if layout.n_q else None
    return _template(*mats, out_index, psi, layout, P, R, X)


def _psd_blocks(layout: _Layout, mode: str, box: ParameterBox):
    """Q >= 0 when Q exists, else P(p) >= 0 when P is affine, else none.

    An affine matrix is asserted PSD at every parameter corner.
    """
    p_kind, q_kind = _MODE_TABLE[mode]
    if q_kind:
        first, kind = layout.n_p, q_kind
    elif p_kind == "affine":
        first, kind = 0, p_kind
    else:
        return []
    pc = grid(box.p_lower, box.p_upper) if kind == "affine" else np.zeros((1, 0))
    return list(layout.slab_sum(first, np.hstack([np.ones((len(pc), 1)), pc])))


def _frozen_peak(system: LpvSystem, rng: FrequencyRange, mode: str) -> float:
    """A sampled lower bound on every gain the mode can certify on rng.

    At a p corner the mean of the vertex blocks over the +-rate corners is the
    template at pdot = 0, a GKYP inequality for the frozen system G_p, so by
    the LMI => FDI direction of Iwasaki & Hara every level it meets lies above
    sigma_max(G_p(jw)) on the band; the whole axis when Q is absent.  Returns
    the largest sigma_max over the mode's enforcement points and 64 in-band
    nodes (a geometric sweep and the w -> inf limit D(p) when the band is
    unbounded), with G_p = C (Re + j Im) + D from ``model.resolvent`` and
    sigma_max^2 from ``model.gram_peak``.  Nodes on a pole of G_p and
    non-finite samples drop out.
    """
    p_kind, q_kind = _MODE_TABLE[mode]
    box = system.box
    P = box.midpoint()[None] if p_kind == "constant" else grid(box.p_lower, box.p_upper)
    A, B, C, D = (M.batch(P) for M in (system.A, system.B, system.C, system.D))
    peak = 0.0
    if q_kind and rng.kind in ("low", "middle"):
        w = np.linspace(rng.lo, rng.hi, 64)
    else:
        first = rng.lo if q_kind else 0.0  # the high band's edge, else 0
        s = float(np.sqrt((A * A).sum(axis=(1, 2))).max()) or 1.0  # |A(p)|_F sets the scale
        w = np.r_[first, np.geomspace(max(first, 1e-3 * s), 1e3 * max(first, s), 63)]
        peak = float(np.sqrt(gram_peak(D)))
    Re, Im = resolvent(A, B, w)  # a node on a pole of G_p is NaN
    G = (C[:, None] @ Re + D[:, None]) + 1j * (C[:, None] @ Im)
    G = G[np.isfinite(G).all(axis=(-2, -1))]
    return max(peak, float(np.sqrt(gram_peak(G)))) if len(G) else peak


def _margin(main):
    return max(1e-6 * float(np.linalg.norm(main, 2, axis=(1, 2)).max()), 1e-9)


@dataclass
class LmiProblem:
    """A mode's stacked blocks over its enforcement points at one gain level.

    The index Pi = diag(I, -gamma^2 I) enters the constants only: a main
    block's constant is const0 + gamma^2 * gain with gain = CD^T diag(0, I) CD,
    and PSD blocks carry none.  ``at`` re-forms only the constants, so the
    coefficient stacks are built and checked once and shared by every gain.
    """

    system: LpvSystem
    range: FrequencyRange
    mode: str
    layout: _Layout
    const0: np.ndarray  # (V, k, k): main-block constants at gamma = 0
    gain: np.ndarray  # (k, k), the same at every point
    form: AffineSymmetricForm
    gamma: float
    margin: float

    def at(self, gamma: float) -> "LmiProblem":
        main = self.const0 + float(gamma) ** 2 * self.gain
        form = self.form.with_constants(list(main) + self.form.constant_blocks[len(main):])
        return dataclasses.replace(self, form=form, gamma=float(gamma), margin=_margin(main))


def build_problem(system: LpvSystem, rng: FrequencyRange, mode: str, gamma: float) -> LmiProblem:
    """Stack the mode's blocks over all enforcement points at a fixed gain."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    n, m, l = system.n, system.n_inputs, system.nparams
    layout = _Layout(n, *(_slab_count(kind, l) for kind in _MODE_TABLE[mode]))
    const0, coeffs = _main_blocks(system, rng, layout, *_points(system.box, mode, 2),
                                  layout.directions())
    # CD^T diag(0, I) CD = diag(0, I): the lower block row of CD is [0 I]
    gain = np.diag(np.r_[np.zeros(n), np.ones(m)])
    if const0.shape[-1] == 2 * (n + m):  # real-embedded blocks (middle band)
        gain = real_embedding(gain)
    psd = _psd_blocks(layout, mode, system.box)
    form = AffineSymmetricForm(list(const0) + [np.zeros((n, n))] * len(psd), list(coeffs) + psd)
    return LmiProblem(system, rng, mode, layout, const0, gain, form, 0.0, _margin(const0)).at(gamma)


def _check_controllability(system: LpvSystem):
    """Warn (not fail) when a frozen pair (A, B) at a box corner or the midpoint is close to
    uncontrollable; one batched SVD of the Krylov matrices, the first such p named."""
    P = np.vstack([grid(system.box.p_lower, system.box.p_upper), system.box.midpoint()])
    A, blocks = system.A.batch(P), [system.B.batch(P)]
    for _ in range(system.n - 1):
        blocks.append(A @ blocks[-1])
    sv = np.linalg.svd(np.concatenate(blocks, axis=2), compute_uv=False)
    weak = sv[:, -1] <= 1e-8 * sv[:, 0]
    if weak.any():
        warnings.warn(
            f"frozen pair (A, B) at p={np.round(P[np.argmax(weak)], 6)} is near-uncontrollable; "
            "certificates may be unreliable", stacklevel=3)


@dataclass
class GammaResult:
    gamma_star: float
    certificate: dict
    x: np.ndarray
    bisection_trace: list  # (gamma, verdict) of every feasibility probe, in order
    relaxation_gap_flag: bool
    violations: list
    bracket: tuple
    # bracket[0] rests on a dual bound below zero or on the floor, not on "not shown feasible"
    lo_certified: bool
    lo_rests_on: str  # "floor", "dual bound" (the gain run's) or "probe" (a solve's verdict)
    margin: float
    mode: str
    gain_lower_bound: float = 0.0  # the sampled frozen in-band peak; no certified gain lies below


def min_gamma(system: LpvSystem, rng: FrequencyRange, mode: str,
              bisect_tol: float = 1e-3) -> GammaResult:
    """Smallest certified L2-gain level: gamma^2 minimized in one primal-dual run.

    Feasibility of the stacked vertex form is monotone in gamma^2, and its
    constants are C(gamma) = C0 + gamma^2 * gain.  No certificate meets a
    level below the floor ``_frozen_peak`` less 1e-9 relative (GKYP), so lo
    starts there and phase 1 doubles gamma from the first power of two at or
    above max(1, floor) until a probe is feasible at g, at the margin
    m = max(margin(0), margin(g)): ||C(gamma)|| is convex in gamma^2, so m
    bounds margin(gamma) for every gamma <= g.  Phase 2 adds t = g^2 - gamma^2
    to the decision vector (its coefficient is -gain in the main blocks, 0 in
    the PSD blocks, m folded into every constant) and maximizes it with one
    ``minimize`` run from (x_g, 0), an eigenvalue problem (Boyd, El Ghaoui,
    Feron & Balakrishnan, 1994, section 2.2).  The run stops at a duality gap
    in gamma^2 units that leaves hi within bisect_tol/10 of its optimum:
    0.1 * bisect_tol * g when g > 1, as a level below g was passed and so
    g < 2 gamma*; else 0.2 * bisect_tol * floor, as gamma* >= floor (at
    least 1e-9).

    hi = sqrt(g^2 - t) is kept only if an exact eigensolve of the form at hi
    passes at margin(hi); otherwise hi = g.  lo is the largest of the floor,
    the last infeasible doubling level and the run's dual bound mapped
    back to gamma, at most hi.  While
    lo < hi - bisect_tol, probes warm-started from hi's point move one end:
    the first at max(hi - bisect_tol, (lo + hi)/2), the others at the
    midpoint, so a hi left at g costs a bisection, not a scan, and a first
    probe not shown feasible ends it whatever the rounding of hi - bisect_tol.
    ``lo_certified`` says whether lo rests on a dual bound below zero (the
    run's, at the folded margin m, or a probe's, at margin(lo)) or on the
    floor rather than on "not shown feasible"; ``lo_rests_on`` names which of
    "floor", "dual bound" (the run's) or "probe" set it.  gamma_star is
    hi; a hi below the floor raises RuntimeError, as GKYP rules it out.  The
    floor is returned as ``gain_lower_bound``.  The certificate is then
    re-checked on the p grid times the rate corners (``verify_on_grid``);
    violations set relaxation_gap_flag instead of failing.
    """
    if not bisect_tol > 0:  # NaN included
        raise ValueError(f"bisect_tol must be positive, got {bisect_tol}")
    _check_controllability(system)

    family = build_problem(system, rng, mode, 0.0)
    trace = []

    def probe(g, margin_floor, x0=None):
        prob = family.at(g)
        margin = max(margin_floor, prob.margin)
        res = solve_feasibility(prob.form, margin, x0=x0)
        trace.append((float(g), bool(res.feasible)))
        return res, prob, margin

    # Phase 1: a point strictly inside at margin m for some g, probed from the floor up
    floor = _frozen_peak(system, rng, mode)
    bar = floor * (1.0 - 1e-9)  # room for the rounding of the sampled peak
    g, lo, lo_certified, lo_rests_on = 1.0, bar, True, "floor"
    while g < bar:
        g *= 2.0
    while True:
        if g > _GAMMA_CAP:
            raise RuntimeError(
                "system appears not to admit a finite bound under this relaxation")
        res, top, m = probe(g, family.margin)
        if res.feasible:
            break
        lo, lo_certified, lo_rests_on = g, bool(res.dual_bound < 0), "probe"
        g *= 2.0

    # Phase 2: maximize t = g^2 - gamma^2 over the lifted pencil.
    nmain = len(family.const0)
    lifted = [(C - m * np.eye(len(C)),
               np.concatenate([K, (-family.gain if b < nmain else 0.0 * C)[None]]))
              for b, (C, K) in enumerate(zip(top.form.constant_blocks, top.form.coeff_blocks))]
    gap_tol = 0.1 * bisect_tol * g if g > 1.0 else max(0.2 * bisect_tol * bar, 1e-9)
    run = minimize(stack_blocks(lifted, False), np.append(res.x, 0.0), target=np.inf,
                   gap_tol=gap_tol)
    hi, x = g, res.x
    gamma = float(np.sqrt(max(g * g - run.t, 0.0)))
    prob = family.at(gamma)
    if max_eig_neg(prob.form, run.x) <= -prob.margin:
        hi, x = gamma, run.x
    if g * g - run.bound > lo * lo:
        lo, lo_certified, lo_rests_on = float(np.sqrt(g * g - run.bound)), True, "dual bound"
    lo = min(lo, hi)

    gamma = max(hi - bisect_tol, 0.5 * (lo + hi))  # hi is usually within bisect_tol of the optimum
    while lo < hi - bisect_tol:  # a first probe at hi - bisect_tol not shown feasible ends it
        res, _, _ = probe(gamma, 0.0, x)
        if res.feasible:
            hi, x = gamma, res.x
        else:
            lo, lo_certified, lo_rests_on = gamma, bool(res.dual_bound < 0), "probe"
        gamma = 0.5 * (lo + hi)

    if hi < bar:  # GKYP rules this out: the template or the sampler is wrong
        raise RuntimeError(f"certified gain {hi!r} lies below the frozen in-band peak {floor!r}")
    prob = family.at(hi)
    P, Q = prob.layout.unpack(x)
    cert = {f"P{k}": M for k, M in enumerate(P)}
    cert.update({f"Q{k}": M for k, M in enumerate(Q)})
    violations = verify_on_grid(prob, x)
    return GammaResult(
        gamma_star=hi, certificate=cert, x=x,
        bisection_trace=trace, relaxation_gap_flag=bool(violations),
        violations=violations, bracket=(lo, hi), lo_certified=lo_certified,
        lo_rests_on=lo_rests_on, margin=prob.margin,
        mode=mode, gain_lower_bound=floor,
    )


class GridViolations(list):
    """The flagged (p, pdot, lambda) rows of ``verify_on_grid`` in grid order, with the
    number of rows it evaluated (``points``) and the largest lambda over them (``worst``)."""

    def __init__(self, flagged, points: int, worst: float):
        super().__init__(flagged)
        self.points, self.worst = points, worst


def verify_on_grid(problem: LmiProblem, x, grid_density: int = 11) -> GridViolations:
    """Evaluate the certified inequality on the p grid times the rate corners.

    Returns the points where the main block exceeds -margin/2, i.e. where the
    vertex relaxation fails to extend to the interior at the solved margin.
    pdot enters the block only through Pdot = sum_i pdot_i P_i, so the block is
    affine in pdot and its largest eigenvalue, convex in pdot, peaks at a rate
    corner: the worst lambda and the flagged p are those of the whole
    (p, pdot) grid, at 2^l rates per p instead of grid_density^l.  The
    template is built as at the vertices, in the single direction of the
    certificate x, over chunks of ``_GRID_CHUNK`` grid rows, each checked
    with one batched eigensolve, so memory stays bounded as the grid grows.
    """
    P, R = _points(problem.system.box, problem.mode, grid_density)
    Ps, Qs = problem.layout.unpack(x)
    X = np.stack(Ps + Qs)[:, None]
    lam = np.empty(len(P))
    for k in range(0, len(P), _GRID_CHUNK):
        rows = slice(k, k + _GRID_CHUNK)
        const0, Fx = _main_blocks(problem.system, problem.range, problem.layout, P[rows],
                                  R[rows], X)
        F = const0 + problem.gamma ** 2 * problem.gain + Fx[:, 0]
        lam[rows] = np.linalg.eigvalsh(-F).max(axis=-1)
    flagged = [(P[i], R[i], float(lam[i])) for i in np.nonzero(lam > -problem.margin / 2)[0]]
    return GridViolations(flagged, len(P), float(lam.max()))


@dataclass
class UasCertificate:
    """Exponential-decay certificate for the autonomous part.

    The bounds c1*I <= P(p) <= c2*I together with the decay inequality at
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


def _uas_family(system: LpvSystem):
    """Decay-certificate blocks with the scalars c1, c2, c3 left free.

    Blocks, in order: P(p) - c1 I >= 0 and c2 I - P(p) >= 0 at each parameter
    corner, then the template with B, C and D empty, -(A(p)^T P(p) + P(p) A(p)
    + sum_i r_i P_i), minus c3 I, >= 0 at each (parameter, rate) corner pair,
    rates taken verbatim from the box.  Returns the layout, the form at
    c1 = c2 = c3 = 0 (coefficient stacks built and checked once) and, per
    block, the signed index of the scalar its constant carries: the constant
    at (c1, c2, c3) is sign * c_index * I.
    """
    l, n = system.nparams, system.n
    layout = _Layout(n, l + 1, 0)
    box = system.box
    pc = grid(box.p_lower, box.p_upper)
    WE = layout.slab_sum(0, np.hstack([np.ones((len(pc), 1)), pc]))
    bounds = np.stack([WE, -WE], axis=1).reshape(2 * len(pc), layout.nvar, n, n)
    P, R = _product_rows(box, box.rate_lower, box.rate_upper, 2)
    V, z = len(P), np.zeros
    _, decay = _template(system.A.batch(P), z((V, n, 0)), z((V, 0, n)), z((V, 0, 0)), z((0, 0)),
                         None, layout, P, R, layout.directions())
    coeffs = list(bounds) + list(decay)
    scalars = [(0, -1.0), (1, 1.0)] * len(pc) + [(2, -1.0)] * V
    return layout, AffineSymmetricForm([np.zeros((n, n))] * len(coeffs), coeffs), scalars


def check_decay_scalars(c1, c2, c3):
    """Raise ValueError unless c1, c2, c3 are all None, or finite with 0 < c1 <= c2 and 0 < c3."""
    if not (c1 is None) == (c2 is None) == (c3 is None):
        raise ValueError("give c1, c2 and c3 together, or none of them")
    if c1 is not None and not (0 < c1 <= c2 < np.inf and 0 < c3 < np.inf):
        raise ValueError(f"need 0 < c1 <= c2 < inf and 0 < c3 < inf, got c1={c1}, c2={c2}, c3={c3}")


def uas_certificate(system: LpvSystem, c3=None, c1=None, c2=None) -> UasCertificate:
    """Decay certificate with affine P(p): given scalars checked as given, free ones found.

    Given (c1, c2, c3) are taken as they are, with P = c1 I when c1 = c2 (the
    bound blocks force it), else a feasibility solve's P.  Free ones take
    c2 = 1, as alpha/beta = 2 c2^2/(c1 c3) does not change when P is scaled,
    and c1, c3, s as variables with [[c1, s], [s, c3]] >= 0, i.e. c1 c3 >= s^2
    (Boyd, El Ghaoui, Feron & Balakrishnan, 1994): a margin-0 solve from
    P = I/2, c1 = 1/4, c3 = lambda/4, s = 0, lambda = min eig -(A(p) + A(p)^T)
    over the p corners (strictly feasible, 0 steps, when lambda > 0; c3 = -1/4
    at lambda = 0), then one primal-dual run maximizing s.  One acceptance rule:
    the exact eigen re-check of the decay blocks at (c1, c2, c3), s left out,
    at margin 0 (the run's point, else the solve's); its smallest eigenvalue
    is ``achieved_margin``.
    """
    check_decay_scalars(c1, c2, c3)
    layout, base, scalars = _uas_family(system)
    eye = np.eye(system.n)
    p_eye = np.r_[np.einsum("tii->t", layout.basis), np.zeros(layout.nvar - layout.t)]  # P = I

    def form_at(c):
        return base.with_constants([sign * c[i] * eye for i, sign in scalars])

    if c1 is not None:
        c = (float(c1), float(c2), float(c3))  # the bound blocks force P = c1 I when c1 = c2
        points = [(c, c[0] * p_eye if c[0] == c[1] else solve_feasibility(form_at(c), 0.0).x)]
    else:  # c1, c3, s appended: -I for c1 and c3 in their blocks, c2 = 1 the I - P(p) constant
        mean = np.zeros((layout.nvar + 3, 2, 2))
        mean[-3:] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]
        form = AffineSymmetricForm(
            [(i == 1) * eye for i, _ in scalars] + [np.zeros((2, 2))],
            [np.concatenate([K, [sign * (i == 0) * eye, sign * (i == 2) * eye, 0.0 * eye]])
             for (i, sign), K in zip(scalars, base.coeff_blocks)] + [mean])
        A = system.A.batch(grid(system.box.p_lower, system.box.p_upper))
        lam = float(np.linalg.eigvalsh(-(A + np.swapaxes(A, 1, 2))).min())
        # strictly feasible when lambda > 0; else c3 < 0 (lambda = 0 read as -1): the solve runs
        res = solve_feasibility(form, 0.0, np.r_[0.5 * p_eye, 0.25, 0.25 * (lam or -1.0), 0.0])
        xs = [res.x]
        if res.feasible:
            run = minimize(stack_blocks(zip(form.constant_blocks, form.coeff_blocks), False),
                           res.x, target=np.inf)
            xs.insert(0, np.append(run.x, run.t))
        points = [((float(x[-3]), 1.0, float(x[-2])), x[:layout.nvar]) for x in xs]
    for c, x in points:  # one acceptance rule, s left out: the exact re-check at (c1, c2, c3)
        v = max_eig_neg(form_at(c), x) if min(c) > 0.0 else np.inf
        if v <= 0.0:
            return UasCertificate(*c, c[1] / c[0], c[2] / (2.0 * c[1]), layout.unpack(x)[0], -v)
    raise RuntimeError("no UAS certificate found under affine P_s")
