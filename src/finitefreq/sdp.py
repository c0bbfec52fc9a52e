"""Dense small-scale semidefinite engine: feasibility, and one maximized variable.

``minimize`` maximizes the last variable t of a stacked block pencil
S(y) = C + sum_j y_j A_j >= 0 by log-barrier path following (Boyd &
Vandenberghe, Convex Optimization, ch. 11), up to a stop target: each Newton
step yields a dual point bounding t* from above, and the run ends once t
exceeds the target, a dual bound falls below zero, or the duality gap falls
below 1e-9.  ``stack_blocks`` builds that pencil for both of its callers:
every block is normalized to unit size and same-size blocks are stacked into
batches.

``solve_feasibility`` decides F(x) = F0 + sum_j x_j Fj >= margin*I through
t* >= 0 for t* = max t subject to Ftilde(x) >= t*I on the normalized pencil
Ftilde (margin folded into the constant blocks), with target 0.  A feasible
verdict is re-checked by an exact eigensolve, a dual bound below zero
certifies infeasibility, and any other infeasible verdict means "not shown
feasible".  The decay certificate (``lmi.uas_certificate``) instead puts its
own variable last and runs ``minimize`` to the gap, with no target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AffineSymmetricForm:
    """Block-diagonal symmetric matrix pencil F(x) = C_b + sum_j x_j K_bj per block."""

    constant_blocks: list
    coeff_blocks: list  # one (nvar, k, k) array per block
    block_sizes: list = field(default_factory=list)

    def __post_init__(self):
        self.coeff_blocks = [np.array(K, dtype=float) for K in self.coeff_blocks]
        nv = {K.shape[0] for K in self.coeff_blocks}
        if len(nv) > 1:
            raise ValueError("all blocks must share the decision dimension")
        for K in self.coeff_blocks:
            if K.ndim != 3 or K.shape[1] != K.shape[2]:
                raise ValueError("block shapes inconsistent")
            if not np.allclose(K, K.transpose(0, 2, 1), atol=1e-10):
                raise ValueError("blocks must be symmetric")
        self._set_constants(self.constant_blocks)

    def _set_constants(self, constants):
        self.constant_blocks = [np.array(C, dtype=float) for C in constants]
        if len(self.constant_blocks) != len(self.coeff_blocks):
            raise ValueError("need one coefficient stack per constant block")
        for C, K in zip(self.constant_blocks, self.coeff_blocks):
            if C.shape != K.shape[1:]:
                raise ValueError("block shapes inconsistent")
            if not np.allclose(C, C.T, atol=1e-10):
                raise ValueError("blocks must be symmetric")
        self.block_sizes = [C.shape[0] for C in self.constant_blocks]

    def with_constants(self, constants) -> "AffineSymmetricForm":
        """The same pencil with new constant blocks; only the constants are checked.

        The coefficient stacks are shared with this form, not copied.
        """
        out = object.__new__(AffineSymmetricForm)
        out.coeff_blocks = self.coeff_blocks
        out._set_constants(constants)
        return out

    @property
    def nvar(self):
        return self.coeff_blocks[0].shape[0] if self.coeff_blocks else 0

    def eval_blocks(self, x):
        x = np.asarray(x, dtype=float)
        return [C + np.tensordot(x, K, axes=(0, 0))
                for C, K in zip(self.constant_blocks, self.coeff_blocks)]

    def scale(self):
        s = 0.0
        for C, K in zip(self.constant_blocks, self.coeff_blocks):
            s = max(s, float(np.abs(C).max(initial=0.0)), float(np.abs(K).max(initial=0.0)))
        return max(s, 1.0)


@dataclass
class FeasibilityResult:
    feasible: bool
    x: np.ndarray
    achieved_margin: float  # -lambda_max(-F(x)) at the returned point
    iterations: int  # Newton steps
    dual_bound: float = np.inf  # bound on t* (normalized) over |x_j| <= RADIUS; < 0: infeasible


def max_eig_neg(form: AffineSymmetricForm, x) -> float:
    """lambda_max(-F(x)), computed blockwise as the max over blocks."""
    return max(float(np.linalg.eigvalsh(-Fb).max()) for Fb in form.eval_blocks(x))


def real_embedding(H) -> np.ndarray:
    """[[Re H, -Im H], [Im H, Re H]] for Hermitian H, or for each of a stack (..., k, k).

    The embedding is PSD iff H is, and carries H's spectrum with every
    eigenvalue doubled in multiplicity.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim < 2 or H.shape[-1] != H.shape[-2] \
            or not np.allclose(H, np.swapaxes(H.conj(), -1, -2), atol=1e-10):
        raise ValueError("real_embedding needs a Hermitian matrix")
    R, I = H.real, H.imag
    return np.block([[R, -I], [I, R]])


RADIUS = 1e9  # box |x_j| <= RADIUS: bounds the barrier along directions that only add slack


@dataclass
class NewtonResult:
    x: np.ndarray
    t: float  # the maximized variable at x
    bound: float  # dual upper bound on t*, inf until a dual point is PSD
    nit: int  # Newton steps
    nfev: int  # barrier evaluations, one Cholesky pass over all blocks each


def _whiten(groups, y):
    """L^-1 A_j L^-T per same-size group, for S = C + sum_j y_j A_j = L L^T; None off the cone."""
    try:
        Lis = [np.linalg.inv(np.linalg.cholesky(C + np.einsum("bjkl,j->bkl", A, y))) for C, A in groups]
    except np.linalg.LinAlgError:
        return None
    out = [Li[:, None] @ A @ Li.transpose(0, 2, 1)[:, None] for Li, (_, A) in zip(Lis, groups)]
    return out if all(np.isfinite(m).all() for m in out) else None


def _step_length(w, slope):
    """Exact minimizer over a of -a*slope - sum log(1 + a*w), the barrier along a Newton step."""
    lo, hi = 0.0, 0.99 / -w.min() if w.min() < 0 else 1e6
    a = min(1.0, hi)
    for _ in range(50):
        r = w / (1.0 + a * w)
        d1 = -slope - r.sum()
        if abs(d1) <= 1e-12 * (1.0 + abs(slope)):
            break
        lo, hi = (a, hi) if d1 < 0 else (lo, a)
        a_new = a - d1 / (r @ r)
        a = a_new if lo < a_new < hi else 0.5 * (lo + hi)
    return a


def minimize(groups, y, max_iters, target=0.0):
    """Maximize t = y[-1] over the stacked blocks by barrier path following from interior y.

    Runs until t exceeds ``target`` (0 for a feasibility search; inf to maximize
    t outright), a dual bound below zero certifies t* < 0, the duality gap falls
    below 1e-9, or max_iters Newton steps; returns the iterate with the largest t.
    """
    N = sum(C.shape[0] * C.shape[1] for C, _ in groups)
    M, best, bound, mu, nit, nfev = _whiten(groups, y), y, np.inf, 1.0 / N, 0, 1
    while y[-1] <= target and nit < max_iters and M is not None:
        Mf = np.concatenate([m.transpose(1, 0, 2, 3).reshape(y.size, -1) for m in M], axis=1)
        H = Mf @ Mf.T  # Hessian of -log det S
        tr = sum(np.einsum("bjkk->j", m) for m in M)
        d = 1.0 / np.sqrt(np.diag(H))  # Jacobi scaling; the box makes every diagonal positive
        dy = d * np.linalg.lstsq(H * np.outer(d, d), (tr + np.eye(y.size)[-1] / mu) * d, rcond=1e-13)[0]
        w = np.concatenate([np.linalg.eigvalsh(np.einsum("bjkl,j->bkl", m, dy)).ravel() for m in M])
        if w.max() <= 1.0:  # the dual point Z = mu * L^-T (I - W) L^-1 is PSD
            a = mu * (tr - H @ dy)  # sum_b <Z_b, A_bj>: 0 for x_j and -1 for t when dy is exact
            gap = mu * (N - w.sum())  # sum_b <Z_b, S_b>
            if a[-1] < 0:  # weak duality over the box, with the residuals of a charged in full
                bound = min(bound, (gap - a @ y + RADIUS * np.abs(a[:-1]).sum()) / -a[-1])
            if bound < 0.0 or gap <= 1e-9:  # certified, or t* is reached to solver resolution
                break
        if w @ w <= 0.0625:  # centred (Newton decrement below 1/4)
            mu *= 0.1
            continue
        y = y + _step_length(w, dy[-1] / mu) * dy
        M, nit, nfev = _whiten(groups, y), nit + 1, nfev + 1
        best = y if y[-1] > best[-1] else best
    return NewtonResult(best[:-1], float(best[-1]), bound, nit, nfev)


def stack_blocks(blocks, margin_column):
    """Normalized blocks stacked by size, with the box |x_j| <= RADIUS; the last variable is t.

    Each (C, K) block is divided by its largest spectral norm over C and the
    coefficients K.  With ``margin_column`` every normalized block then gets the
    coefficient -I for t, a margin common to all blocks; otherwise K already
    holds t's coefficient as its last entry.  Blocks of one size keep their
    order.  Returns the (constants, coefficients) groups ``minimize`` takes,
    the box rows last.
    """
    groups = {}
    for C, K in blocks:
        sb = max(float(np.linalg.norm(C, 2)), float(np.linalg.norm(K, 2, axis=(1, 2)).max()), 1e-12)
        K = np.concatenate([K / sb, -np.eye(len(C))[None]]) if margin_column else K / sb
        groups.setdefault(len(C), []).append((C / sb, K))
    groups = [tuple(map(np.stack, zip(*g))) for g in groups.values()]
    nvar = groups[0][1].shape[1] - 1
    E = np.eye(nvar, nvar + 1)
    groups.append((np.full((2 * nvar, 1, 1), RADIUS), np.concatenate([E, -E])[:, :, None, None]))
    return groups


def solve_feasibility(form: AffineSymmetricForm, margin: float, max_iters: int = 6000,
                      x0=None) -> FeasibilityResult:
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
    groups = stack_blocks(blocks + [(np.ones((1, 1)), np.zeros((nvar, 1, 1)))], True)
    t0 = min(np.linalg.eigvalsh(C + np.einsum("bjkl,j->bkl", A[:, :-1], x)).min()
             for C, A in groups[:-1]) - 1.0
    res = minimize(groups, np.append(x, t0), max_iters)
    v = max_eig_neg(form, res.x)
    return FeasibilityResult(v <= -margin, res.x, -v, res.nit, res.bound)
