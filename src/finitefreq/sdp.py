"""Dense small-scale semidefinite engine: feasibility, and one maximized variable.

``minimize`` maximizes the last variable t of a packed pencil
S(y) = C + sum_j y_j A_j >= 0 by log-barrier path following (Boyd &
Vandenberghe, Convex Optimization, ch. 11), up to a stop target: each Newton
step yields a dual point bounding t* from above, and the run ends once t
exceeds the target, a dual bound falls below a finite target, or the duality
gap falls below a tolerance (1e-9 unless the caller sets a looser one).
``stack_blocks`` builds that pencil for every caller.
Each block is normalized to unit size.  The blocks of size 2 or more are
zero-padded to the largest size k and stacked into one (B, k, k) batch, and
the 1x1 blocks become elementwise rows s = c + a.y.  A pad row and column has
the constant 1 on the diagonal and the coefficient 0 for every variable, so
on each padded block S is the real block beside an identity: the Cholesky
factor and its inverse keep that split, the whitened coefficients vanish on
the pad, so the pad adds nothing to the Hessian or the gradient of
-log det S, and each pad row adds an eigenvalue 0 to a step's spectrum, which
moves neither its sum, its norm nor the step length.  A Newton step is then
one Cholesky, one inverse and one eigensolve over the batch, whatever the mix
of block sizes.

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
    iterations: int  # Newton steps
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


RADIUS = 1e9  # box |x_j| <= RADIUS: bounds the barrier along directions that only add slack
NEWTON_STEPS = 4000  # Newton-step budget of each barrier run


@dataclass
class NewtonResult:
    x: np.ndarray
    t: float  # the maximized variable at x
    bound: float  # dual upper bound on t*, inf until a dual point is PSD
    nit: int  # Newton steps
    nfev: int  # barrier evaluations, one Cholesky of the batch each


@dataclass
class Pencil:
    """S(y) = C + sum_j y_j A_j packed as ``stack_blocks`` builds it."""

    C: np.ndarray  # (B, k, k) batch constants; each pad has 1 on the diagonal
    A: np.ndarray  # (nv, B, k, k) batch coefficients, 0 on the pads
    c: np.ndarray  # (m,) constants of the 1x1 rows
    a: np.ndarray  # (m, nv) their coefficients
    rows: int  # rows of S, pads not counted


def _barrier(pencil, y):
    """Whitened pencil at y, the Hessian H of -log det S and tr, the gradient of log det S.

    M_j = L^-1 A_j L^-T on the batch for S = L L^T and g_j = a_j / s on the 1x1
    rows, so H_ij = sum tr(M_i M_j) + g_i . g_j and tr_j = sum tr(M_j) + sum g_j.
    None when y is off the cone.
    """
    s = pencil.c + pencil.a @ y
    if not (s > 0).all():
        return None
    try:
        Li = np.linalg.inv(np.linalg.cholesky(pencil.C + _combine(y, pencil.A)))
    except np.linalg.LinAlgError:
        return None
    M = Li @ pencil.A @ Li.transpose(0, 2, 1)
    g = pencil.a / s[:, None]
    Mf = M.reshape(y.size, -1)
    H = Mf @ Mf.T + g.T @ g
    if not np.isfinite(H).all():  # an overflow in M or g reaches H's diagonal
        return None
    return M, g, H, np.einsum("jbkk->j", M) + g.sum(axis=0)


def _combine(y, A):
    """sum_j y_j A_j over the leading (nonempty) axis of A, as one matrix-vector product."""
    return (y @ A.reshape(len(y), -1)).reshape(A.shape[1:])


def _step_length(w, slope):
    """Exact minimizer over a of -a*slope - sum log(1 + a*w), the barrier along a Newton step."""
    lo, hi = 0.0, 0.99 / -w.min() if w.min() < 0 else 1e6
    a = min(1.0, hi)
    for _ in range(50):
        r = w / (1.0 + a * w)
        d1 = -slope - r.sum()
        if abs(d1) <= 1e-12 * (1.0 + abs(slope)) or (d1 < 0 and a >= hi):
            break  # stationary, or still descending at the fraction-to-boundary cap
        lo, hi = (a, hi) if d1 < 0 else (lo, a)
        a_new = a - d1 / (r @ r)
        a = a_new if lo < a_new < hi else 0.5 * (lo + hi)
    return a


def minimize(pencil, y, target=0.0, gap_tol=1e-9):
    """Maximize t = y[-1] over the packed pencil by barrier path following from interior y.

    Runs until t exceeds ``target`` (0 for a feasibility search; inf to maximize
    t outright), a dual bound proves a finite target out of reach, the duality
    gap, in units of t, falls below ``gap_tol``, or NEWTON_STEPS Newton steps;
    returns the iterate with the largest t.  With target inf only the gap ends
    the run, so t* may be negative.  The Hessian is eigensolved once per
    barrier evaluation: a centred iterate only shrinks mu, and reuses it.
    """
    N, e_t = pencil.rows, np.eye(y.size)[-1]
    D, eig, best, bound, mu, nit, nfev = _barrier(pencil, y), None, y, np.inf, 1.0 / N, 0, 1
    while y[-1] <= target and nit < NEWTON_STEPS and D is not None:
        M, g, H, tr = D
        if eig is None:
            d = 1.0 / np.sqrt(np.diag(H))  # Jacobi scaling; the box makes every diagonal positive
            # the scaled system, pseudo-inverted as lstsq(rcond=1e-13) does for a symmetric PSD
            # matrix; H is formed symmetric, and the upper triangle keeps lstsq's Newton path
            # on the shipped example
            lam, V = np.linalg.eigh(H * np.outer(d, d), UPLO="U")
            eig = d, np.where(np.abs(lam) > 1e-13 * np.abs(lam).max(), lam, np.inf), V
        d, lam, V = eig
        dy = d * (V @ ((V.T @ ((tr + e_t / mu) * d)) / lam))
        w = np.concatenate([np.linalg.eigvalsh(_combine(dy, M)).ravel(), g @ dy])
        if w.max() <= 1.0:  # the dual point Z = mu * L^-T (I - W) L^-1 is PSD
            a = mu * (tr - H @ dy)  # sum_b <Z_b, A_bj>: 0 for x_j and -1 for t when dy is exact
            gap = mu * (N - w.sum())  # sum_b <Z_b, S_b>
            if a[-1] < 0:  # weak duality over the box, with the residuals of a charged in full
                bound = min(bound, (gap - a @ y + RADIUS * np.abs(a[:-1]).sum()) / -a[-1])
            if bound < target < np.inf or gap <= gap_tol:  # certified, or t* to the gap asked
                break
        if w @ w <= 0.0625:  # centred (Newton decrement below 1/4)
            mu *= 0.1
            continue
        y = y + _step_length(w, dy[-1] / mu) * dy
        D, eig, nit, nfev = _barrier(pencil, y), None, nit + 1, nfev + 1
        best = y if y[-1] > best[-1] else best
    return NewtonResult(best[:-1], float(best[-1]), bound, nit, nfev)


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
    |x_j| <= RADIUS added to bound the barrier, and its point is re-checked on
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
