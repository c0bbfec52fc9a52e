"""Dense small-scale semidefinite engine: feasibility, and one maximized variable.

``minimize`` maximizes the last variable t of a packed pencil
S(y) = C + sum_j y_j A_j >= 0 by a primal-dual interior-point method
(Mehrotra's predictor-corrector on the HKM direction), up to a stop target:
its dual points bound t* from above, and the run ends once t exceeds the
target, a dual bound falls below a finite target, or the duality gap falls
below a tolerance (1e-9 unless the caller sets a looser one).
``stack_blocks`` builds that pencil for every caller.
Each block is normalized to unit size.  The blocks of size 2 or more are
zero-padded to the largest size k and stacked into one (B, k, k) batch, and
the 1x1 blocks become elementwise rows s = c + a.y.  A pad row and column has
the constant 1 on the diagonal and the coefficient 0 for every variable, so
on each padded block S is the real block beside an identity: the Cholesky
factor and its inverse keep that split, the dual point is 0 on the pad, so
the pad adds nothing to the Schur matrix, the gap or the dual equalities,
and each pad row adds an eigenvalue 0 to a step's spectrum, which leaves the
step lengths alone.  An iteration is then one Cholesky and one inverse over
the batch of S and the dual point, one eigensolve of the Schur matrix and
two eigensolves over the batch for the step lengths, whatever the mix of
block sizes.

``solve_feasibility`` decides F(x) = F0 + sum_j x_j Fj >= margin*I through
t* >= 0 for t* = max t subject to Ftilde(x) >= t*I on the normalized pencil
Ftilde (margin folded into the constant blocks), with target 0.  A feasible
verdict is re-checked by an exact eigensolve, a dual bound below zero
certifies infeasibility, and any other infeasible verdict means "not shown
feasible".  Two callers instead put their own variable last and run
``minimize`` to the gap, with no target: ``lmi.min_gamma`` maximizes
g^2 - gamma^2 from a feasible level g (to a gap set by its ``bisect_tol``),
and the decay certificate (``lmi.uas_certificate``) maximizes s subject to
[[c1, s], [s, c3]] >= 0, i.e. c1*c3 >= s^2.  The optimum may then be
negative, so a negative dual bound does not end the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _require_hermitian(H, message):
    """Raise ValueError(message) unless |H - H^*| <= 1e-10 + 1e-5 |H^*| entrywise over the
    stack H (..., k, k), np.allclose's rule in one comparison.  A NaN or infinite entry
    always fails it, and is reported as not finite instead."""
    Ht = np.swapaxes(H, -1, -2)
    Ht = Ht.conj() if np.iscomplexobj(H) else Ht
    with np.errstate(invalid="ignore"):  # inf - inf: the entry fails, and is named below
        close = (np.abs(H - Ht) <= 1e-10 + 1e-5 * np.abs(Ht)).all()
    if not close:
        raise ValueError(message if np.isfinite(H).all() else "matrix entries are not finite")


@dataclass
class AffineSymmetricForm:
    """Block-diagonal symmetric matrix pencil F(x) = C_b + sum_j x_j K_bj per block.

    Blocks of one size are also kept stacked, so that checks and eigensolves
    take one call per block size.
    """

    constant_blocks: list
    coeff_blocks: list  # one (nvar, k, k) array per block

    def __post_init__(self):
        self.coeff_blocks = [np.array(K, dtype=float) for K in self.coeff_blocks]
        if len({K.shape[0] for K in self.coeff_blocks}) > 1:
            raise ValueError("all blocks must share the decision dimension")
        if any(K.ndim != 3 or K.shape[1] != K.shape[2] for K in self.coeff_blocks):
            raise ValueError("block shapes inconsistent")
        self._sizes = {}  # block size -> indices of the blocks of that size
        for i, K in enumerate(self.coeff_blocks):
            self._sizes.setdefault(K.shape[1], []).append(i)
        self._coeff_stacks = []  # (nvar, B*k*k) per size: x @ K sums the coefficients
        for k, idx in self._sizes.items():
            K = np.stack([self.coeff_blocks[i] for i in idx], axis=1)
            _require_hermitian(K, "blocks must be symmetric")
            self._coeff_stacks.append(K.reshape(len(K), len(idx) * k * k))
        self._set_constants(self.constant_blocks)

    def _set_constants(self, constants):
        self.constant_blocks = [np.array(C, dtype=float) for C in constants]
        if len(self.constant_blocks) != len(self.coeff_blocks):
            raise ValueError("need one coefficient stack per constant block")
        self._const_stacks = []  # (B, k, k) per size, in the order of _coeff_stacks
        for k, idx in self._sizes.items():
            C = [self.constant_blocks[i] for i in idx]
            if any(Cb.shape != (k, k) for Cb in C):
                raise ValueError("block shapes inconsistent")
            C = np.stack(C)
            _require_hermitian(C, "blocks must be symmetric")
            self._const_stacks.append(C)

    def with_constants(self, constants) -> "AffineSymmetricForm":
        """The same pencil with new constant blocks; only the constants are checked.

        The coefficient stacks are shared with this form, not copied.
        """
        out = object.__new__(AffineSymmetricForm)
        out.coeff_blocks, out._sizes, out._coeff_stacks = (
            self.coeff_blocks, self._sizes, self._coeff_stacks)
        out._set_constants(constants)
        return out

    @property
    def nvar(self):
        return self.coeff_blocks[0].shape[0] if self.coeff_blocks else 0


@dataclass
class FeasibilityResult:
    feasible: bool
    x: np.ndarray
    achieved_margin: float  # -lambda_max(-F(x)) at the returned point
    iterations: int  # iterations of the run
    dual_bound: float = np.inf  # bound on t* (normalized) over |x_j| <= RADIUS; < 0: infeasible


def max_eig_neg(form: AffineSymmetricForm, x) -> float:
    """lambda_max(-F(x)), the max over blocks: one stacked eigensolve per block size."""
    x = np.asarray(x, dtype=float)
    return max(float(np.linalg.eigvalsh(-C - (x @ K).reshape(C.shape)).max())
               for C, K in zip(form._const_stacks, form._coeff_stacks))


def real_embedding(H) -> np.ndarray:
    """[[Re H, -Im H], [Im H, Re H]] for Hermitian H, or for each of a stack (..., k, k).

    The embedding is PSD iff H is, and carries H's spectrum with every
    eigenvalue doubled in multiplicity.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim < 2 or H.shape[-1] != H.shape[-2]:
        raise ValueError("real_embedding needs a Hermitian matrix")
    _require_hermitian(H, "real_embedding needs a Hermitian matrix")
    R, I = H.real, H.imag
    return np.block([[R, -I], [I, R]])


RADIUS = 1e9  # box |x_j| <= RADIUS: bounds the iterates along directions that only add slack
NEWTON_STEPS = 200  # iteration budget of each run
_FRACTION = 0.98  # of the step to the boundary of either cone
_SIGMA_MIN = 0.1  # least centring toward a finite target, whose verdict needs exact dual points
_SIGMA_GAP = 0.01  # least centring of a run to the gap


@dataclass
class NewtonResult:
    x: np.ndarray
    t: float  # the maximized variable at x
    bound: float  # dual upper bound on t*, inf until an exact dual point is PSD
    nit: int  # predictor-corrector iterations
    nfev: int  # factorizations of S, one Cholesky of the batch each
    stop: str  # why the run ended: "target", "bound", "gap" or "budget"


@dataclass
class Pencil:
    """S(y) = C + sum_j y_j A_j packed as ``stack_blocks`` builds it."""

    C: np.ndarray  # (B, k, k) batch constants; each pad has 1 on the diagonal
    A: np.ndarray  # (nv, B, k, k) batch coefficients, 0 on the pads
    c: np.ndarray  # (m,) constants of the 1x1 rows
    a: np.ndarray  # (m, nv) their coefficients
    rows: int  # rows of S, pads not counted


def _combine(y, A):
    """sum_j y_j A_j over the leading (nonempty) axis of A, as one matrix-vector product."""
    return (y @ A.reshape(len(y), -1)).reshape(A.shape[1:])


def _inverse_factor(X):
    """L^-1 for the Cholesky factor L of each matrix of the batch X, or None if one is not PD."""
    try:
        return np.linalg.inv(np.linalg.cholesky(X))
    except np.linalg.LinAlgError:
        return None


def _schur(pencil, Li, R, z, s):
    """M_ij = tr(A_i Z A_j S^-1) + sum_r a_ri a_rj z_r / s_r, for S^-1 = Li^T Li and Z = R R^T
    on the batch and z, s on the 1x1 rows: U U^T for U_j = Li A_j R, one batched product."""
    U = (Li @ pencil.A @ R).reshape(len(pencil.A), -1)
    g = pencil.a * np.sqrt(z / s)[:, None]
    return U @ U.T + g.T @ g


def minimize(pencil, y, target=0.0, gap_tol=1e-9):
    """Maximize t = y[-1] over the packed pencil from interior y by a primal-dual method.

    The dual point is Z >= 0 with <A_j, Z> = 0 for x_j and -1 for t (b = e_t);
    the duality gap is <Z, S>.  Each iteration factorizes S and Z in one
    Cholesky, eigensolves the Jacobi-scaled Schur matrix M_ij = tr(A_i Z A_j
    S^-1) of the HKM direction once (Todd, Toh & Tutuncu, SIAM J. Optim.
    1998) and solves it for Mehrotra's predictor and corrector (SIAM J.
    Optim. 1992), centring by at least _SIGMA_MIN toward a finite target and
    _SIGMA_GAP to the gap; y and Z each step _FRACTION of the way to their
    cone's boundary, at most all the way.  Z starts at zeta S(y0)^-1, whose
    Schur matrix is the Hessian H of -log det S: zeta = sqrt(b'H^-1 b /
    g'H^-1 g), for g = <A, S(y0)^-1>, minimizes the dual residual b + zeta g
    in the norm of that system.  A full step meets the dual equalities, a
    partial one shrinks their residual; while it falls slower than the gap,
    near the end, or where Z's dual objective lies below a finite target,
    up to three refinement passes of the one factorization take it out of Z
    along the HKM map, as far as Z stays PSD.  A PSD dual point bounds t*
    over the box, with what residual is left charged in full.

    The run ends once t exceeds ``target`` (0 for a feasibility search; inf
    to maximize t outright), a bound proves a finite target out of reach,
    the gap and the squared residual, in units of t, fall below ``gap_tol``,
    or after NEWTON_STEPS iterations; it returns the iterate with the
    largest t and the reason.  With target inf only the gap ends the run, so
    t* may be negative.
    """
    nv, N, B, k = y.size, pencil.rows, *pencil.C.shape[:2]
    nb = B * k * k
    # S with the 1x1 rows s as one vector v = c + y G, and Z with their multipliers z as one
    # vector x: <A_j, Z> + a_j.z = (G x)_j and the gap is x.v
    G = np.concatenate([pencil.A.reshape(nv, -1), pencil.a.T], axis=1)
    c = np.concatenate([pencil.C.ravel(), pencil.c])
    # pad rows: the constant e_r and no coefficient; Z is 0 there, and I stands in to factorize
    pad = (pencil.C == np.eye(k)).all(axis=2) & ~pencil.A.any(axis=(0, 3))
    keep, pad_eye = ~(pad[:, :, None] | pad[:, None, :]), pad[:, :, None] * np.eye(k)
    e_t = np.eye(nv)[-1]

    def hkm(dy):  # v's change along dy, and Z dS S^-1 symmetrized with z ds / s beside it
        dv = dy @ G
        dS = dv[:nb].reshape(B, k, k)
        ZdS = Z @ dS @ Si
        return dv, np.concatenate([(ZdS + ZdS.swapaxes(1, 2)).ravel() / 2, z * dv[nb:] / s])

    def reach(Fz, dv, dx, x):
        """The steps to the boundary of S along dv and of the dual point x along dx, given the
        inverse Cholesky factor Fz of x's batch part."""
        Fi = np.concatenate([F[:B], Fz])
        D = np.concatenate([dv[:nb], dx[:nb]]).reshape(2 * B, k, k)
        e = np.linalg.eigvalsh(Fi @ D @ Fi.swapaxes(1, 2)).reshape(2, -1).min(axis=1, initial=0.0)
        w = np.concatenate([dv[nb:] / s, dx[nb:] / x[nb:]]).reshape(2, -1).min(axis=1, initial=0.0)
        return -1.0 / np.minimum(np.minimum(e, w), -1e-300)

    best, bound, nit, nfev, x = y, np.inf, 0, 0, None
    while True:
        v = c + y @ G
        S, s = v[:nb].reshape(B, k, k), v[nb:]
        nfev += 1
        try:
            L = np.linalg.cholesky(S if x is None else
                                   np.concatenate([S, x[:nb].reshape(B, k, k) + pad_eye]))
        except np.linalg.LinAlgError:  # lost to rounding at the edge of a cone: half the step
            if x is None:
                raise ValueError("minimize needs a strictly feasible start") from None
            ay, ax = 0.5 * ay, 0.5 * ax
            y, x = y0 + ay * dy, x0 + ax * dx
            continue
        best = y if y[-1] > best[-1] else best  # factorized, so strictly feasible
        F = np.linalg.inv(L)  # F[:B] F[:B]^T inverts S, F[B:] the Cholesky factor R of Z
        Si = F[:B].swapaxes(1, 2) @ F[:B]
        vi = np.concatenate([(Si * keep).ravel(), 1.0 / s])  # S^-1, 0 on the pads
        if x is None:  # Z = S^-1 = R R^T for R = L^-T, and R^-1 = L^T
            x, R, F = vi, F[:B].swapaxes(1, 2), np.concatenate([F, L.swapaxes(1, 2)])
        else:
            R = L[B:]
        Z, z = x[:nb].reshape(B, k, k), x[nb:]
        M = _schur(pencil, F[:B], R, z, s)
        d = 1.0 / np.sqrt(np.diag(M))  # Jacobi scaling; the box makes every diagonal positive
        # the scaled system, pseudo-inverted as lstsq(rcond=1e-15) does for a symmetric PSD matrix:
        # it grows ill-conditioned near a degenerate optimum, and a cut direction keeps its residual
        lam, V = np.linalg.eigh(M * np.outer(d, d), UPLO="U")
        lam = np.where(np.abs(lam) > 1e-15 * np.abs(lam).max(), lam, np.inf)
        Mi = (d[:, None] * V / lam) @ (V.T * d)
        az, gap = G @ x, x @ v
        if nit == 0:  # M = H and az = g; zeta scales Z, its factor, M and the gap alike
            zeta = np.sqrt(Mi[-1, -1] / (az @ Mi @ az))
            x, az, gap, Mi = zeta * x, zeta * az, zeta * gap, Mi / zeta
            Z, z, F[B:] = zeta * Z, zeta * z, F[B:] / np.sqrt(zeta)
            lag = np.abs(az + e_t).max() / gap  # the start's ratio of residual to gap
        r, xb, ab, Fb = az + e_t, x, az, F[B:]
        if az[-1] < 0 and (np.abs(r).max() > lag * gap or gap <= np.sqrt(gap_tol) * -az[-1]
                           or (gap - az @ y) / -az[-1] < target < np.inf):
            for _ in range(3):  # xb: x less its residual, while each pass halves it
                xn = xb - hkm(Mi @ r)[1]
                rn = G @ xn + e_t
                if not np.abs(rn).max() < 0.5 * np.abs(r).max():
                    break
                xb, r = xn, rn
            if xb is not x:  # all of the move if it stays inside the cone, else 0.98 of the way
                inside = (xb[nb:] > 0).all()
                Fb = _inverse_factor(xb[:nb].reshape(B, k, k) + pad_eye) if inside else None
                if Fb is None:
                    xb = x + _FRACTION * reach(F[B:], 0.0 * v, xb - x, x)[1] * (xb - x)
                    Fb = _inverse_factor(xb[:nb].reshape(B, k, k) + pad_eye)
                if Fb is None:  # lost to rounding at the edge of the cone
                    xb, Fb = x, F[B:]
                ab = G @ xb
        gb = xb @ v
        if ab[-1] < 0:  # weak duality over the box, with the residuals of ab charged in full
            bound = min(bound, (gb - ab @ y + RADIUS * np.abs(ab[:-1]).sum()) / -ab[-1])
        # a residual r moves the dual objective by r.(y* - y), of second order at the optimum
        done = ab[-1] < 0 and max(gb, np.abs(ab + e_t).max() ** 2) <= gap_tol * -ab[-1]
        stop = ("target" if y[-1] > target else "bound" if bound < target < np.inf
                else "gap" if done else "budget" if nit >= NEWTON_STEPS else None)
        if stop:
            return NewtonResult(best[:-1], float(best[-1]), bound, nit, nfev, stop)

        # predictor: complementarity target 0, and the centring sigma its full steps leave
        dy = Mi[:, -1]
        dv, h = hkm(dy)
        dx = -x - h
        ay, ax = np.minimum(reach(F[B:], dv, dx, x), 1.0)
        sigma = min((x + ax * dx) @ (v + ay * dv) / gap, 1.0) ** 3
        mu = max(sigma, _SIGMA_MIN if target < np.inf else _SIGMA_GAP) * gap / N
        # corrector: the target mu S^-1 less the predictor's second-order term
        W = dx[:nb].reshape(B, k, k) @ dv[:nb].reshape(B, k, k) @ Si
        T = mu * vi - np.concatenate([(W + W.swapaxes(1, 2)).ravel() / 2, dx[nb:] * dv[nb:] / s])
        dy = dy + Mi @ (G @ T)
        dv, h = hkm(dy)
        dx = T - h - xb  # from xb to x + dx, which meets the equalities: the residual shrinks
        ay, ax = np.minimum(_FRACTION * reach(Fb, dv, dx, xb), 1.0)
        y0, x0 = y, xb
        y, x, nit = y + ay * dy, xb + ax * dx, nit + 1


def stack_blocks(blocks, margin_column) -> Pencil:
    """The packed pencil of the normalized blocks, with the box |x_j| <= RADIUS; t is last.

    Each (C, K) block is divided by its largest spectral norm over C and the
    coefficients K, one stacked eigensolve per block size.  With
    ``margin_column`` every normalized block then gets the coefficient -I for
    t, a margin common to all blocks; otherwise K already holds t's coefficient
    as its last entry.  Blocks of size 2 or more form the zero-padded batch,
    grouped by size in order of first appearance and in their order within a
    size; 1x1 blocks form the elementwise rows, the 2*nvar box rows last.
    """
    by_size = {}
    for C, K in blocks:
        by_size.setdefault(len(C), []).append((C, K))
    mats, scalars = [], []
    for k, group in by_size.items():
        C = np.array([C for C, _ in group], dtype=float)
        K = np.array([K for _, K in group], dtype=float)
        sb = np.abs(np.linalg.eigvalsh(np.concatenate([C[:, None], K], axis=1))).max(axis=(1, 2))
        sb = np.maximum(sb, 1e-12)[:, None, None]
        C, K = C / sb, K / sb[:, None]
        if margin_column:
            K = np.concatenate([K, np.broadcast_to(-np.eye(k), (len(K), 1, k, k))], axis=1)
        (scalars if k == 1 else mats).append((C, K))

    nv = (mats or scalars)[0][1].shape[1]
    k = max((C.shape[-1] for C, _ in mats), default=1)
    Cp = np.zeros((sum(len(C) for C, _ in mats), k, k))
    Cp[:, range(k), range(k)] = 1.0  # the pads' diagonal; real blocks overwrite theirs
    Ap = np.zeros((nv,) + Cp.shape)
    b = 0
    for C, K in mats:
        q = C.shape[-1]
        Cp[b:b + len(C), :q, :q] = C
        Ap[:, b:b + len(C), :q, :q] = K.transpose(1, 0, 2, 3)
        b += len(C)
    E = np.eye(nv - 1, nv)
    c = np.concatenate([C.ravel() for C, _ in scalars] + [np.full(2 * (nv - 1), RADIUS)])
    a = np.concatenate([K[:, :, 0, 0] for _, K in scalars] + [E, -E])
    return Pencil(Cp, Ap, c, a, sum(C.shape[0] * C.shape[1] for C, _ in mats) + len(c))


def solve_feasibility(form: AffineSymmetricForm, margin: float, x0=None) -> FeasibilityResult:
    """Search for x with F(x) >= margin*I, i.e. t* >= 0 on the normalized pencil.

    A warm start x0 meeting the margin returns at 0 iterations; otherwise
    ``minimize`` runs from (x0, t) strictly inside, with t <= 1 and the box
    |x_j| <= RADIUS added to bound the iterates, and its point is re-checked on
    the original form.  ``dual_bound < 0`` certifies infeasibility in the box.
    """
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    nvar = form.nvar
    x = np.zeros(nvar) if x0 is None else np.clip(np.asarray(x0, dtype=float), -RADIUS / 2, RADIUS / 2)
    if x.size != nvar:
        raise ValueError("warm start has wrong length")
    v = max_eig_neg(form, x)
    if nvar == 0 or v <= -margin:
        return FeasibilityResult(v <= -margin, x, -v, 0)

    # the margin t common to all normalized blocks, and the row t <= 1
    blocks = [(C - margin * np.eye(len(C)), K) for C, K in zip(form.constant_blocks, form.coeff_blocks)]
    pencil = stack_blocks(blocks + [(np.ones((1, 1)), np.zeros((nvar, 1, 1)))], True)
    # the smallest slack at t = 0, less 1: pad rows read 1, the row t <= 1 too, and a box
    # row at least RADIUS/2, so none of them lowers the minimum over the blocks of F
    t0 = min(np.linalg.eigvalsh(pencil.C + _combine(x, pencil.A[:-1])).min(initial=np.inf),
             (pencil.c + pencil.a[:, :-1] @ x).min()) - 1.0
    res = minimize(pencil, np.append(x, t0))
    v = max_eig_neg(form, res.x)
    return FeasibilityResult(v <= -margin, res.x, -v, res.nit, res.bound)
