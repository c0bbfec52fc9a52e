"""Band-restricted controllability Gramians and trace bounds.

The band-restricted controllability Gramian of a frozen system is

    W(band) = integral over the band of (jwI - A)^{-1} B B^* (jwI - A)^{-*} dw,

computed by Gauss-Legendre quadrature over the positive half of the band and
symmetrized over +-w.  Following the shipped reference example, no 1/(2pi)
factor is applied by default; ``classical=True`` restores the conventional
normalization.  The time-varying variants weight the integrand with the state
transition matrix or with the parameter-drift correction terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._rk4 import propagate_matrix, step_matrices
from .model import FrequencyRange, LpvSystem
from .lmi import UasCertificate, _p_corners, _rate_corners

_TAU_CHUNK = 512  # tau samples per block of the quadrature's exponential table


def _band_nodes(rng: FrequencyRange, quad_nodes: int):
    """Positive-axis quadrature rule (nodes, weights) covering the band.

    The full-band integral of an integrand f with f(-w) = conj(f(w)) is then
    sum_k weights_k * 2 Re f(nodes_k).  Unbounded tails are mapped through
    w = a/u so that Gauss-Legendre nodes stay interior.
    """
    x, w = leggauss(quad_nodes)

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


def _resolvent_gramian(A, B, rng, quad_nodes):
    n = A.shape[0]
    om, wts = _band_nodes(rng, quad_nodes)
    W = np.zeros((n, n))
    I = np.eye(n)
    for o, wk in zip(om, wts):
        try:
            R = np.linalg.solve(1j * o * I - A, B)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"resolvent singular at omega = {o}") from exc
        if not np.all(np.isfinite(R)):
            raise ValueError(f"resolvent singular at omega = {o}")
        W += wk * 2.0 * np.real(R @ R.conj().T)
    return 0.5 * (W + W.T)


def gramian_lti_ff(A, B, rng: FrequencyRange, quad_nodes: int = 201,
                   classical: bool = False) -> np.ndarray:
    """Band-restricted controllability Gramian of a fixed (A, B) pair."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    W = _resolvent_gramian(A, B, rng, quad_nodes)
    return W / (2.0 * np.pi) if classical else W


def gramian_lpv_frozen(system: LpvSystem, p, rng: FrequencyRange, quad_nodes: int = 201,
                       classical: bool = False) -> np.ndarray:
    """Band-restricted Gramian of the system frozen at parameter p."""
    A, B, _, _ = system.frozen(p)
    W = _resolvent_gramian(A, B, rng, quad_nodes)
    return W / (2.0 * np.pi) if classical else W


@dataclass
class StateTransition:
    """Sampled transition matrices Phi(t_k, t0) along one schedule."""

    grid_times: np.ndarray
    phi: np.ndarray  # (N+1, n, n)
    trajectory: object


def _stage_A(system: LpvSystem, trajectory, times, h, transform=None):
    """Stage matrices (A at t, t+h/2, t+h) for all steps; optional map per matrix."""
    def A_of(ts):
        P = np.atleast_2d(np.asarray(trajectory.p(ts), dtype=float).T).reshape(len(ts), -1)
        out = np.broadcast_to(system.A.constant, (len(ts),) + system.A.shape).copy()
        for i, Ai in enumerate(system.A.coeffs):
            out += P[:, i][:, None, None] * Ai
        return out

    A1 = A_of(times)
    A2 = A_of(times + 0.5 * h)
    A3 = A_of(times + h)
    if transform is not None:
        A1, A2, A3 = transform(A1), transform(A2), transform(A3)
    return A1, A2, A3


def state_transition(system: LpvSystem, trajectory, t0: float, t_end: float,
                     step: float) -> StateTransition:
    """Integrate the matrix equation Phidot = A(p(t)) Phi from Phi(t0, t0) = I."""
    if step <= 0:
        raise ValueError("step must be positive")
    import warnings
    N = max(1, int(round((t_end - t0) / step)))
    times = t0 + step * np.arange(N + 1)
    if hasattr(trajectory, "box") and trajectory.box is not None:
        ps = np.atleast_2d(np.asarray(trajectory.p(times), dtype=float).T).reshape(len(times), -1)
        if ps.size and not all(trajectory.box.contains(p) for p in ps[:: max(1, N // 50)]):
            warnings.warn("trajectory leaves the parameter box", stacklevel=2)
    if t_end == t0:
        return StateTransition(np.array([t0]), np.eye(system.n)[None, :, :], trajectory)
    M = step_matrices(_stage_A(system, trajectory, times[:-1], step), step)
    phi = propagate_matrix(M, np.eye(system.n))
    return StateTransition(times, phi, trajectory)


def _transition_from_t(system: LpvSystem, trajectory, t: float, step: float):
    """Phi(t, tau_k) on the grid tau_k = k*step via the reversed-time system.

    Direct inversion of Phi(tau, 0) underflows for strongly decaying dynamics,
    so Phi(t, tau) is integrated backward instead: with Y(s) = Phi(t, t-s)^T,
    dY/ds = A(p(t-s))^T Y, which is itself a stable forward propagation.
    """
    N = max(1, int(round(t / step)))
    s = step * np.arange(N + 1)

    class _Rev:
        def p(self, ts):
            return trajectory.p(t - ts)

    M = step_matrices(_stage_A(system, _Rev(), s[:-1], step,
                               transform=lambda A: np.swapaxes(A, 1, 2)), step)
    Y = propagate_matrix(M, np.eye(system.n))
    # Y[j] = Phi(t, t - s_j)^T; reorder to tau ascending
    phi_t_tau = np.swapaxes(Y[::-1], 1, 2)
    taus = step * np.arange(N + 1)
    return taus, phi_t_tau


def gramian_lpv_weighted(system: LpvSystem, trajectory, t: float, rng: FrequencyRange,
                         quad_nodes: int = 201, step: float = 1e-3) -> np.ndarray:
    """Transition-weighted Gramian: Phi(t,0) [resolvent integral] Phi(t,0)^T.

    The resolvent is frozen at p(t) while the input matrix is taken at p(0).
    """
    st = state_transition(system, trajectory, 0.0, t, step)
    Phi = st.phi[-1]
    A_t = system.A(np.atleast_1d(trajectory.p(t)))
    B_0 = system.B(np.atleast_1d(trajectory.p(0.0)))
    Win = _resolvent_gramian(A_t, B_0, rng, quad_nodes)
    W = Phi @ Win @ Phi.T
    return 0.5 * (W + W.T)


def gramian_lpv_shifted(system: LpvSystem, trajectory, t: float, rng: FrequencyRange,
                        quad_nodes: int = 201, step: float = 1e-3):
    """Drift-correction Gramian pair (W1, W2) at time t.

    W1 collects the frozen-matrix mismatch A(p(t)) - A(p(tau)); W2 collects the
    input-matrix drift Bdot(p(tau)) = sum_i pdot_i(tau) B_i (exact, from
    affinity).  Each is the band integral of V_c(w) V_c(w)^* with the
    trapezoidal tau-integral

        V_c(w) = -sum_tau tw_tau e^{jw tau} G_c(tau) R(w) X_c(tau),

    where R(w) = (jwI - A(p(t)))^{-1}, G_1 = Phi(t, tau)(A(p(t)) - A(p(tau))),
    X_1 = B(p(tau)), G_2 = Phi(t, tau) and X_2 = Bdot(p(tau)).  Because R(w)
    does not depend on tau, V_c(w) = -sum_jk R(w)_jk S_c(w)[:, j, k, :] with
    S_c(w) = sum_tau tw_tau e^{jw tau} G_c(tau)[:, j] (x) X_c(tau)[k, :], so
    the tau-sums of both terms at all nodes are one matrix product
    E(w, tau) @ H(tau, (c, i, j, k, l)).  E is formed in tau-chunks: on the
    uniform tau grid every chunk is one base block e^{jw s step} times a
    per-chunk phase e^{jw tau_0}.  The resolvents are one batched inverse.
    """
    n = system.n
    if t <= 0:
        return np.zeros((n, n)), np.zeros((n, n))
    taus, phi_t_tau = _transition_from_t(system, trajectory, t, step)
    N = len(taus) - 1
    p_t = np.atleast_1d(trajectory.p(t))
    A_t = system.A(p_t)
    P = np.atleast_2d(np.asarray(trajectory.p(taus), dtype=float).T).reshape(N + 1, -1)
    Pd = np.atleast_2d(np.asarray(trajectory.pdot(taus), dtype=float).T).reshape(N + 1, -1)

    A_tau = np.broadcast_to(system.A.constant, (N + 1,) + system.A.shape).copy()
    B_tau = np.broadcast_to(system.B.constant, (N + 1,) + system.B.shape).copy()
    Bdot_tau = np.zeros((N + 1,) + system.B.shape)
    for i in range(system.nparams):
        A_tau += P[:, i][:, None, None] * system.A.coeffs[i]
        B_tau += P[:, i][:, None, None] * system.B.coeffs[i]
        Bdot_tau += Pd[:, i][:, None, None] * system.B.coeffs[i]

    G = np.stack([np.einsum("tij,tjk->tik", phi_t_tau, A_t[None, :, :] - A_tau), phi_t_tau],
                 axis=1)
    X = np.stack([B_tau, Bdot_tau], axis=1)
    tw = np.full(N + 1, step)
    tw[0] = tw[-1] = 0.5 * step

    om, wts = _band_nodes(rng, quad_nodes)
    m = system.n_inputs
    C = min(N + 1, _TAU_CHUNK)
    base = np.exp(1j * np.outer(om, step * np.arange(C)))
    base = np.concatenate([base.real, base.imag])  # real rows, then imaginary: real GEMMs
    S = np.zeros((len(om), 2 * n ** 3 * m), dtype=complex)
    for k0 in range(0, N + 1, C):
        k1 = min(k0 + C, N + 1)
        H = np.einsum("t,tcij,tckl->tcijkl", tw[k0:k1], G[k0:k1], X[k0:k1])
        Y = base[:, :k1 - k0] @ H.reshape(k1 - k0, -1)
        S += np.exp(1j * om * taus[k0])[:, None] * (Y[:len(om)] + 1j * Y[len(om):])
    S = S.reshape(len(om), 2, n, n, n, m)

    R = np.linalg.inv(1j * om[:, None, None] * np.eye(n) - A_t)
    V = -np.einsum("wjk,wcijkl->wcil", R, S)
    W = 2.0 * np.real(np.einsum("w,wcil,wcml->cim", wts, V, V.conj()))
    W1, W2 = W
    return 0.5 * (W1 + W1.T), 0.5 * (W2 + W2.T)


@dataclass
class GramianSet:
    """All band-restricted Gramians of one system along one schedule at time t."""

    W_p: np.ndarray
    W_hat_p: np.ndarray
    W_dot_p_1: np.ndarray
    W_dot_p_2: np.ndarray
    range: FrequencyRange
    time: float
    classical: bool = False

    @property
    def traces(self):
        return {
            "W_p": float(np.trace(self.W_p)),
            "W_hat_p": float(np.trace(self.W_hat_p)),
            "W_dot_p_1": float(np.trace(self.W_dot_p_1)),
            "W_dot_p_2": float(np.trace(self.W_dot_p_2)),
        }


def gramian_set(system: LpvSystem, trajectory, t: float, rng: FrequencyRange,
                quad_nodes: int = 201, step: float = 1e-3,
                classical: bool = False) -> GramianSet:
    p_t = np.atleast_1d(trajectory.p(t))
    W_p = gramian_lpv_frozen(system, p_t, rng, quad_nodes, classical)
    W_hat = gramian_lpv_weighted(system, trajectory, t, rng, quad_nodes, step)
    W1, W2 = gramian_lpv_shifted(system, trajectory, t, rng, quad_nodes, step)
    if classical:
        W_hat, W1, W2 = (W / (2.0 * np.pi) for W in (W_hat, W1, W2))
    return GramianSet(W_p, W_hat, W1, W2, rng, t, classical)


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
    M_bar_1: np.ndarray
    M_bar_2: np.ndarray
    method: str  # 'lyapunov_lmi' or 'quadrature'
    m_1: float = 0.0
    m_2: float = 0.0


def _lam_max_gram(M) -> float:
    """lambda_max(M M^*), raising ValueError when M M^* is not finite.

    The check is on the matrix: LAPACK may return finite eigenvalues for a
    NaN matrix, and max() would drop a NaN one.
    """
    G = M @ M.conj().T
    if not np.isfinite(G).all():
        raise ValueError("drift integrand is not finite; the trace bound is undefined")
    return float(np.linalg.eigvalsh(G).max().real)


def _drift_sups(system: LpvSystem, rng: FrequencyRange, grid_density: int,
                omega_nodes: int):
    """Grid suprema of lambda_max(M_i M_i^*) for the two drift integrands.

    A non-finite integrand raises ValueError rather than being dropped by the
    running maximum.
    """
    if rng.kind == "high":
        om = np.linspace(rng.lo, 10.0 * rng.lo, omega_nodes)
    elif rng.kind == "entire":
        om = np.linspace(0.0, 10.0, omega_nodes)
    else:
        om = np.linspace(-rng.hi, rng.hi, omega_nodes) if rng.kind == "low" \
            else np.linspace(rng.lo, rng.hi, omega_nodes)
    pgrid = system.box.p_grid(grid_density)
    rates = _rate_corners(system.box)
    n = system.n
    I = np.eye(n)
    m1 = 0.0
    m2 = 0.0
    for p in pgrid:
        A_p = system.A(p)
        for o in om:
            R = np.linalg.inv(1j * o * I - A_p)
            for pp in pgrid:
                m1 = max(m1, _lam_max_gram((A_p - system.A(pp)) @ R @ system.B(pp)))
            for r in rates:
                Bd = sum((ri * Bi for ri, Bi in zip(r, system.B.coeffs)),
                         np.zeros(system.B.shape))
                m2 = max(m2, _lam_max_gram(R @ Bd))
    return m1, m2


def shifted_trace_bound(system: LpvSystem, rng: FrequencyRange, uas: UasCertificate = None,
                        grid_density: int = 11, omega_nodes: int = 21) -> ShiftedTraceBound:
    """Decay-certificate upper bounds on the drift-correction Gramian traces.

    Needs a decay certificate unless both drift integrands vanish identically
    (the time-invariant case), where the bounds are zero with no certificate.
    """
    m1, m2 = _drift_sups(system, rng, grid_density, omega_nodes)
    n = system.n
    if m1 == 0.0 and m2 == 0.0:
        return ShiftedTraceBound(0.0, 0.0, np.zeros((n, n)), np.zeros((n, n)),
                                 "lyapunov_lmi", 0.0, 0.0)
    if uas is None:
        raise ValueError("a decay certificate is required when drift terms are nonzero")
    c = (uas.alpha / uas.beta) ** 2 * system.n_inputs
    return ShiftedTraceBound(c * m1, c * m2, m1 * np.eye(n), m2 * np.eye(n),
                             "lyapunov_lmi", m1, m2)


def quadrature_trace_bound(system: LpvSystem, trajectory, t: float, rng: FrequencyRange,
                           quad_nodes: int = 201, step: float = 1e-3) -> ShiftedTraceBound:
    """Directly computed drift traces packaged as a (tight) bound record."""
    W1, W2 = gramian_lpv_shifted(system, trajectory, t, rng, quad_nodes, step)
    return ShiftedTraceBound(float(np.trace(W1)), float(np.trace(W2)),
                             W1, W2, "quadrature")
