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
finer product grid.

The index enters the constants only, as gamma^2 times a fixed matrix, so
``min_gamma`` treats gamma^2 as one more decision variable: after doubling
gamma to a strictly feasible level g, one barrier run maximizes g^2 - gamma^2
(an eigenvalue problem) and an exact eigen re-check accepts the level it
reaches; the run's dual bound, or a probe just below, closes the bracket.
The decay certificate (``uas_certificate``) is the template with B, C and D
empty, -(A^T P(p) + P(p) A + Pdot), with the rates taken as stored; with its
scalars free, its c1 is maximized in one barrier run the same way and
strictly certified by an exact eigen re-check, and the dead band applies to
fixed scalars only.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (THETA, THETA_D, FrequencyRange, LpvSystem, ParameterBox, frequency_weight,
                    grid)
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
    """(p, pdot) rows of the product of the p grid and the rate grid, p-major."""
    P, R = grid(box.p_lower, box.p_upper, density), grid(rate_lo, rate_hi, density)
    return np.repeat(P, len(R), axis=0), np.tile(R, (len(P), 1))


def _points(box: ParameterBox, mode: str, density: int):
    """Rows (p, pdot) where a mode's template is checked: the corners at density 2.

    A constant P is checked at the frozen midpoint only; an affine one on the
    product grid of the box and the symmetrized rates +-max |rate|, which
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
    lo_certified: bool  # bracket[0] rests on a dual bound below zero, not on "not shown feasible"
    margin: float
    mode: str
    range: FrequencyRange


def min_gamma(system: LpvSystem, rng: FrequencyRange, mode: str,
              bisect_tol: float = 1e-3) -> GammaResult:
    """Smallest certified L2-gain level: gamma^2 minimized in one barrier run.

    Feasibility of the stacked vertex form is monotone in gamma^2, and its
    constants are C(gamma) = C0 + gamma^2 * gain.  Phase 1 doubles gamma from 1
    until a probe is feasible at g, at the margin m = max(margin(0), margin(g)):
    ||C(gamma)|| is convex in gamma^2, so m bounds margin(gamma) for every
    gamma <= g.  Phase 2 adds t = g^2 - gamma^2 to the decision vector (its
    coefficient is -gain in the main blocks, 0 in the PSD blocks, m folded into
    every constant) and maximizes it with one ``minimize`` run from (x_g, 0),
    an eigenvalue problem (Boyd, El Ghaoui, Feron & Balakrishnan, 1994, section 2.2).

    hi = sqrt(g^2 - t) is kept only if an exact eigensolve of the form at hi
    passes at margin(hi); otherwise hi = g.  lo is the largest of the last
    infeasible doubling probe and the barrier's dual bound mapped back to gamma,
    at most hi.  While hi - lo > bisect_tol, probes warm-started from hi's point
    move one end: the first at max(hi - bisect_tol, (lo + hi)/2), the others at
    the midpoint, so a hi left at g costs a bisection, not a scan.
    ``lo_certified`` says whether lo rests on a dual bound below zero (the
    barrier's, at the folded margin m, or a probe's, at margin(lo)) rather than
    on "not shown feasible".  gamma_star is hi.  The certificate is then re-checked on a parameter grid;
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

    # Phase 1: a point strictly inside at margin m for some g.
    g, lo, lo_certified = 1.0, 0.0, True  # 0 bounds every gain from below
    res, top, m = probe(g, family.margin)
    while not res.feasible:
        lo, lo_certified = g, bool(res.dual_bound < 0)
        g *= 2.0
        if g > _GAMMA_CAP:
            raise RuntimeError(
                "system appears not to admit a finite bound under this relaxation")
        res, top, m = probe(g, family.margin)

    # Phase 2: maximize t = g^2 - gamma^2 over the lifted pencil.
    nmain = len(family.const0)
    lifted = [(C - m * np.eye(len(C)),
               np.concatenate([K, (-family.gain if b < nmain else 0.0 * C)[None]]))
              for b, (C, K) in enumerate(zip(top.form.constant_blocks, top.form.coeff_blocks))]
    run = minimize(stack_blocks(lifted, False), np.append(res.x, 0.0), target=np.inf)
    hi, x = g, res.x
    gamma = float(np.sqrt(max(g * g - run.t, 0.0)))
    prob = family.at(gamma)
    if max_eig_neg(prob.form, run.x) <= -prob.margin:
        hi, x = gamma, run.x
    if g * g - run.bound > lo * lo:
        lo, lo_certified = float(np.sqrt(g * g - run.bound)), True
    lo = min(lo, hi)

    gamma = max(hi - bisect_tol, 0.5 * (lo + hi))  # hi is usually within bisect_tol of the optimum
    while hi - lo > bisect_tol:
        res, _, _ = probe(gamma, 0.0, x)
        if res.feasible:
            hi, x = gamma, res.x
        else:
            lo, lo_certified = gamma, bool(res.dual_bound < 0)
        gamma = 0.5 * (lo + hi)

    prob = family.at(hi)
    P, Q = prob.layout.unpack(x)
    cert = {f"P{k}": M for k, M in enumerate(P)}
    cert.update({f"Q{k}": M for k, M in enumerate(Q)})
    violations = verify_on_grid(prob, x)
    return GammaResult(
        gamma_star=hi, certificate=cert, x=x,
        bisection_trace=trace, relaxation_gap_flag=bool(violations),
        violations=violations, bracket=(lo, hi), lo_certified=lo_certified, margin=prob.margin,
        mode=mode, range=rng,
    )


def verify_on_grid(problem: LmiProblem, x, grid_density: int = 11):
    """Evaluate the certified inequality on a (p, pdot) grid.

    Returns the points where the main block exceeds -margin/2, i.e. where the
    vertex relaxation fails to extend to the interior at the solved margin.
    The template is built as at the vertices, in the single direction of the
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
    return [(P[i], R[i], float(lam[i])) for i in np.nonzero(lam > -problem.margin / 2)[0]]


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
    """Raise ValueError unless 0 < c3 < inf and, when given, 0 < c1 <= c2 < inf (both or neither)."""
    if not 0 < c3 < np.inf:
        raise ValueError(f"c3 must be positive and finite, got {c3}")
    if (c1 is None) != (c2 is None):
        raise ValueError("supply both c1 and c2 or neither")
    if c1 is not None and not 0 < c1 <= c2 < np.inf:
        raise ValueError(f"need 0 < c1 <= c2 < inf, got c1={c1}, c2={c2}")


def uas_certificate(system: LpvSystem, c3_target: float, c1=None, c2=None) -> UasCertificate:
    """Decay certificate with affine P(p) at fixed c3 (halved on failure).

    With c1, c2 supplied the scalars are held fixed and only P is searched
    (boundary-tight certificates are accepted within a small dead band).  With
    them free, c2 is normalized to 1, which minimizes the overshoot ratio
    alpha = 1/c1: a feasibility solve at c1 = 1e-6 gives a strictly interior
    point, and one barrier run from it maximizes c1 with P.  That c1 passes an
    exact eigen re-check at (c1, 1, c3) with no dead band; a c3 whose first
    solve passes only inside the dead band counts as failed.
    """
    check_decay_scalars(c1, c2, c3_target)
    layout, base, scalars = _uas_family(system)
    eye = np.eye(system.n)

    def form_at(c):
        return base.with_constants([sign * c[i] * eye for i, sign in scalars])

    def certificate(c, x, achieved):
        P, _ = layout.unpack(x)
        return UasCertificate(c[0], c[1], c[2], c[1] / c[0], c[2] / (2.0 * c[1]), P, achieved)

    c3 = float(c3_target)
    for _ in range(40):
        if c1 is not None:
            c = (float(c1), float(c2), c3)
            form = form_at(c)
            res = solve_feasibility(form, 0.0)
            if res.feasible or res.achieved_margin >= -1e-6 * form.scale():
                return certificate(c, res.x, res.achieved_margin)
        else:
            res = solve_feasibility(form_at((1e-6, 1.0, c3)), 0.0)
            if res.feasible:
                # c1 joins the decision vector last: coefficient -I in the P(p) - c1 I blocks
                lifted = [np.concatenate([K, (sign * eye if i == 0 else 0.0 * eye)[None]])
                          for (i, sign), K in zip(scalars, base.coeff_blocks)]
                groups = stack_blocks(zip(form_at((0.0, 1.0, c3)).constant_blocks, lifted), False)
                top = minimize(groups, np.append(res.x, 1e-6), target=np.inf)
                c = (top.t, 1.0, c3)
                v = max_eig_neg(form_at(c), top.x)
                if v <= 0.0:
                    return certificate(c, top.x, -v)
                return certificate((1e-6, 1.0, c3), res.x, res.achieved_margin)
        c3 *= 0.5
    raise RuntimeError("no UAS certificate found under affine P_s")
