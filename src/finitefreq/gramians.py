"""Band-restricted controllability Gramians and trace bounds.

The band-restricted controllability Gramian of a frozen system is

    W(band) = integral over the band of (jwI - A)^{-1} B B^* (jwI - A)^{-*} dw,

computed by Gauss-Legendre quadrature over the positive half of the band and
symmetrized over +-w, every resolvent from ``model.resolvent`` (a pole on a node raises
ValueError naming it).  Following the shipped reference example, no 1/(2pi) factor is
applied (``finitefreq gramians --classical`` divides by 2pi).  The time-varying variants
weight the integrand with the state transition matrix Phi(t, tau_k) (at tau = 0, or at
every step time for the parameter-drift correction terms) that ``state_transition``
integrates backward from t with RK4 on ``_rk4.half_steps``: N = max(1, round(t/step))
steps of h = t/N.  One pass along the schedule (``_schedule_gramians``) forms all three.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._rk4 import half_steps, propagate_matrix, stages, step_matrices
from .model import AffineMatrixFunction, FrequencyRange, LpvSystem, gram_peak, grid, resolvent
from .lmi import UasCertificate
from .simulation import warn_if_outside_box

_TAU_CHUNK = 512  # tau samples per block of the quadrature's exponential table
# matrices per chunk of p rows: (p, w) solves for the frozen Gramians, (p, w, p') products
# for the drift suprema
_SUP_CHUNK = 4096


@lru_cache(maxsize=16)
def _gauss_legendre(quad_nodes: int):
    """Gauss-Legendre rule on [-1, 1], computed once per node count (read-only arrays)."""
    x, w = leggauss(quad_nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _band_nodes(rng: FrequencyRange, quad_nodes: int):
    """Positive-axis quadrature rule (nodes, weights) covering the band.

    The full-band integral of an integrand f with f(-w) = conj(f(w)) is then
    sum_k weights_k * 2 Re f(nodes_k).  Unbounded tails are mapped through
    w = a/u so that Gauss-Legendre nodes stay interior.
    """
    x, w = _gauss_legendre(quad_nodes)

    def on(a, b):
        return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w

    def tail(a):
        # integral_a^inf f(w) dw = integral_0^1 f(a/u) a/u^2 du
        u, wu = on(0.0, 1.0)
        return a / u, wu * a / u**2

    if rng.kind == "low":
        return on(0.0, rng.hi)
    if rng.kind == "middle":
        return on(rng.lo, rng.hi)
    if rng.kind == "high":
        return tail(rng.lo)
    # entire: [0, 1] plus the mapped tail
    n1, w1 = on(0.0, 1.0)
    n2, w2 = tail(1.0)
    return np.concatenate([n1, n2]), np.concatenate([w1, w2])


def _resolvent(A, X, om):
    """(jwI - A)^{-1} X at the nodes om from ``model.resolvent``, as one (..., W, n, k)
    complex array; a pole raises ValueError naming its node, the first p row by p row.

    A node is a pole when its resolvent is not finite or numerically infinite:
    max|R| (|A|_F + |w|) > 1e12 max|X|, a scale-free bound on the condition of
    jwI - A, since |jwI - A| <= |A|_F + |w|.
    """
    Re, Im = resolvent(A, X, om)
    R = Re + 1j * Im
    scale = np.linalg.norm(A, axis=(-2, -1))[..., None] + np.abs(om)
    size = np.abs(R).max(axis=(-2, -1)) * scale  # NaN at an exact pole, and fails the test
    ok = (size <= 1e12 * np.abs(X).max(axis=(-2, -1))[..., None]).reshape(-1, len(om))
    if not ok.all():
        raise ValueError(f"resolvent singular at omega = {om[np.argwhere(~ok)[0, 1]]}")
    return R


def _band_integral(wts, M):
    """sum_k wts_k 2 Re M_k M_k^*, symmetrized, for a stack M (..., W, n, m) of integrands
    at the W band nodes: (..., n, n)."""
    W = 2.0 * np.real(np.einsum("k,...kim,...kjm->...ij", wts, M, M.conj()))
    return 0.5 * (W + np.swapaxes(W, -1, -2))


def _resolvent_gramian(A, B, rng, quad_nodes):
    """The band integral of R_k = (j w_k I - A)^{-1} B for each of a stack of pairs
    A (P, n, n), B (P, n, m): (P, n, n) over chunks of p rows."""
    om, wts = _band_nodes(rng, quad_nodes)
    rows = max(1, _SUP_CHUNK // len(om))
    W = np.empty(A.shape)
    for i in range(0, len(A), rows):
        W[i:i + rows] = _band_integral(wts, _resolvent(A[i:i + rows], B[i:i + rows], om))
    return W


def gramian_lpv_frozen(system: LpvSystem, p, rng: FrequencyRange,
                       quad_nodes: int = 201) -> np.ndarray:
    """Band-restricted Gramian of the system frozen at parameter p, (n, n); for a stack
    of parameter rows p (N, nparams), one Gramian per row, (N, n, n)."""
    if np.ndim(p) == 2:
        return _resolvent_gramian(system.A.batch(p), system.B.batch(p), rng, quad_nodes)
    A, B, _, _ = system.frozen(p)
    return _resolvent_gramian(A[None], B[None], rng, quad_nodes)[0]


def state_transition(system: LpvSystem, trajectory, t: float, step: float) -> np.ndarray:
    """Phi(t, tau_k) at the step times tau_k = k*h of ``half_steps(t, step)``, tau
    ascending, as (N+1, n, n): Phi(t, 0) first and I last; I alone for t = 0.

    The run goes backward from t, as the forward run Y(s) = Phi(t, t-s)^T,
    dY/ds = A(p(t-s))^T Y, Y(0) = I: Phi(t, tau) = Phi(t, 0) Phi(tau, 0)^{-1}
    would invert matrices that underflow for strongly decaying dynamics.
    """
    if t == 0:
        return np.eye(system.n)[None, :, :]
    h, s = half_steps(t, step)
    P = trajectory.p(t - s)
    warn_if_outside_box(trajectory, P, stacklevel=2)
    # Y[k] = Phi(t, t - k*h)^T; reversed and transposed, tau ascends
    Y = propagate_matrix(step_matrices(stages(np.swapaxes(system.A.batch(P), 1, 2)), h),
                         np.eye(system.n))
    return np.swapaxes(Y[::-1], 1, 2)


def _schedule_gramians(system: LpvSystem, trajectory, t: float, rng: FrequencyRange,
                       quad_nodes: int, step: float):
    """(W_hat, W1, W2) at time t from one backward transition run Phi(t, tau) and one
    resolvent stack R(w) = (jwI - A(p(t)))^{-1} at the band nodes.

    W_hat = Phi(t,0) [band integral of R B(p(0))] Phi(t,0)^T: the resolvent frozen at
    p(t), the input matrix taken at p(0).  The drift pair W1, W2 is zero for t = 0.
    W1 collects the frozen-matrix mismatch A(p(t)) - A(p(tau)); W2 collects the
    input-matrix drift Bdot(p(tau)) = sum_i pdot_i(tau) B_i (exact, from
    affinity).  Each is the band integral of V_c(w) with the trapezoidal
    tau-integral

        V_c(w) = -sum_tau tw_tau e^{jw tau} G_c(tau) R(w) X_c(tau),

    where G_1 = Phi(t, tau)(A(p(t)) - A(p(tau))), X_1 = B(p(tau)), G_2 = Phi(t, tau)
    and X_2 = Bdot(p(tau)).  Because R(w) does not depend on tau,
    V_c(w) = -sum_jk R(w)_jk S_c(w)[:, j, k, :] with
    S_c(w) = sum_tau tw_tau e^{jw tau} G_c(tau)[:, j] (x) X_c(tau)[k, :], so
    the tau-sums of both terms at all nodes are one matrix product
    E(w, tau) @ H(tau, (c, i, j, k, l)).  E is formed in tau-chunks: on the
    tau grid k h every chunk is one base block e^{jw s h} times a
    per-chunk phase e^{jw tau_0}.
    """
    n, m = system.n, system.n_inputs
    phi_t_tau = state_transition(system, trajectory, t, step)
    A_t = system.A(trajectory.p(t))
    om, wts = _band_nodes(rng, quad_nodes)
    R = _resolvent(A_t, np.eye(n), om)
    Phi = phi_t_tau[0]
    W_hat = Phi @ _band_integral(wts, R @ system.B(trajectory.p(0.0))) @ Phi.T
    W_hat = 0.5 * (W_hat + W_hat.T)
    if t == 0:
        return W_hat, np.zeros((n, n)), np.zeros((n, n))

    h, ts = half_steps(t, step)
    taus = ts[::2]
    N = len(taus) - 1
    P, Pd = trajectory.p(taus), trajectory.pdot(taus)
    A_tau, B_tau = system.A.batch(P), system.B.batch(P)
    Bdot_tau = _drift(system.B).batch(Pd)

    G = np.stack([np.einsum("tij,tjk->tik", phi_t_tau, A_t[None, :, :] - A_tau), phi_t_tau],
                 axis=1)
    X = np.stack([B_tau, Bdot_tau], axis=1)
    tw = np.full(N + 1, h)
    tw[0] = tw[-1] = 0.5 * h

    C = min(N + 1, _TAU_CHUNK)
    base = np.exp(1j * np.outer(om, h * np.arange(C)))
    base = np.concatenate([base.real, base.imag])  # real rows, then imaginary: real GEMMs
    S = np.zeros((len(om), 2 * n ** 3 * m), dtype=complex)
    for k0 in range(0, N + 1, C):
        k1 = min(k0 + C, N + 1)
        H = np.einsum("t,tcij,tckl->tcijkl", tw[k0:k1], G[k0:k1], X[k0:k1])
        Y = base[:, :k1 - k0] @ H.reshape(k1 - k0, -1)
        S += np.exp(1j * om * taus[k0])[:, None] * (Y[:len(om)] + 1j * Y[len(om):])
    S = S.reshape(len(om), 2, n, n, n, m)

    V = -np.einsum("wjk,wcijkl->cwil", R, S)
    W1, W2 = _band_integral(wts, V)
    return W_hat, W1, W2


def gramian_lpv_weighted(system: LpvSystem, trajectory, t: float, rng: FrequencyRange,
                         quad_nodes: int = 201, step: float = 1e-3) -> np.ndarray:
    """Transition-weighted Gramian W_hat of ``_schedule_gramians`` (the whole pass runs)."""
    return _schedule_gramians(system, trajectory, t, rng, quad_nodes, step)[0]


def gramian_lpv_shifted(system: LpvSystem, trajectory, t: float, rng: FrequencyRange,
                        quad_nodes: int = 201, step: float = 1e-3):
    """Drift-correction Gramian pair (W1, W2) of ``_schedule_gramians`` (the whole pass
    runs)."""
    return _schedule_gramians(system, trajectory, t, rng, quad_nodes, step)[1:]


def gramian_set(system: LpvSystem, trajectory, t: float, rng: FrequencyRange,
                quad_nodes: int = 201, step: float = 1e-3) -> dict[str, np.ndarray]:
    """All band-restricted Gramians along one schedule at time t, keyed "W_p" (frozen at
    p(t)), "W_hat_p" (transition-weighted) and "W_dot_p_1", "W_dot_p_2" (drift pair).

    A transition that overflows gives non-finite Gramians, without a warning: the
    caller checks them, as ``_rk4`` leaves a diverged state to its caller."""
    if not 0.0 <= t < np.inf:  # NaN included
        raise ValueError(f"time t must be finite and nonnegative, got {t}")
    W_p = gramian_lpv_frozen(system, trajectory.p(t), rng, quad_nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        W_hat, W1, W2 = _schedule_gramians(system, trajectory, t, rng, quad_nodes, step)
    return {"W_p": W_p, "W_hat_p": W_hat, "W_dot_p_1": W1, "W_dot_p_2": W2}


@dataclass
class ShiftedTraceBound:
    """Upper bounds on the drift-correction Gramian traces.

    The bound path uses the exponential transition envelope alpha e^{-beta t}
    of a decay certificate: each drift Gramian is the outer product of an
    n x n_inputs tau-integral, so its trace is at most
    n_inputs * (alpha/beta)^2 * sup lambda_max(M_i M_i^T) with M_i the
    drift integrand evaluated on a (parameter, band) grid.
    """

    bound_1: float
    bound_2: float


def _drift(M: AffineMatrixFunction) -> AffineMatrixFunction:
    """pdot -> sum_i pdot_i M_i: the time derivative of M(p(t)), from affinity."""
    return AffineMatrixFunction(np.zeros(M.shape), M.coeffs)


def _drift_sups(system: LpvSystem, rng: FrequencyRange, grid_density: int = 11,
                omega_nodes: int = 21):
    """Grid suprema of lambda_max(M_i M_i^*) for the two drift integrands.

    M_1 = (A(p) - A(p')) (R B(p')) over parameter pairs and M_2 = R Bdot(r) over
    rate corners, with R = (jwI - A(p))^{-1} from ``model.resolvent`` and
    lambda_max from ``model.gram_peak``.  Both are formed for a chunk of outer
    p rows at once, about ``_SUP_CHUNK`` (p, w, p') triples, so memory stays
    O(_SUP_CHUNK n max(n, m)) beyond one outer row.  A pole on a node or a
    non-finite integrand raises ValueError.
    """
    if rng.kind == "high":
        om = np.linspace(rng.lo, 10.0 * rng.lo, omega_nodes)
    elif rng.kind == "entire":
        om = np.linspace(0.0, 10.0, omega_nodes)
    else:
        om = np.linspace(-rng.hi, rng.hi, omega_nodes) if rng.kind == "low" \
            else np.linspace(rng.lo, rng.hi, omega_nodes)
    pgrid = system.box.p_grid(grid_density)
    A, B = system.A.batch(pgrid), system.B.batch(pgrid)
    Bd = _drift(system.B).batch(grid(system.box.rate_lower, system.box.rate_upper))
    rows = max(1, _SUP_CHUNK // (len(om) * len(A)))
    m1 = m2 = 0.0
    for i in range(0, len(A), rows):
        R = _resolvent(A[i:i + rows], np.eye(system.n), om)[:, :, None]  # (p, w, 1, n, n)
        m1 = max(m1, gram_peak((A[i:i + rows, None] - A)[:, None] @ (R @ B)))  # (p, w, p', n, m)
        m2 = max(m2, gram_peak(R @ Bd))  # (p, w, rate, n, m)
    return m1, m2


def shifted_trace_bound(system: LpvSystem, rng: FrequencyRange,
                        uas: UasCertificate | Callable[[], UasCertificate] = None
                        ) -> ShiftedTraceBound:
    """Decay-certificate upper bounds on the drift-correction Gramian traces.

    Needs a decay certificate unless both drift integrands vanish identically
    (the time-invariant case), where the bounds are zero with no certificate.
    ``uas`` may also be a zero-argument callable returning the certificate; it
    is called only when a drift integrand is nonzero.
    """
    m1, m2 = _drift_sups(system, rng)
    if m1 == 0.0 and m2 == 0.0:
        return ShiftedTraceBound(0.0, 0.0)
    if uas is None:
        raise ValueError("a decay certificate is required when drift terms are nonzero")
    if callable(uas):
        uas = uas()
    c = (uas.alpha / uas.beta) ** 2 * system.n_inputs
    return ShiftedTraceBound(c * m1, c * m2)

