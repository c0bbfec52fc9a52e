"""Batched classical Runge-Kutta propagators for linear time-varying dynamics.

For xdot = A(t) x + b(t) the RK4 update is affine, x_{k+1} = M_k x_k + g_k,
and both M_k and g_k depend only on the step's stage data, so all step
matrices are built in one vectorized pass.  The stage times t_k, t_k + h/2
and t_k + h of all steps lie on one half-step grid, so stage data is
sampled there once and each stage is a strided view of it.  The recurrence
itself runs as a blocked two-level scan (Blelloch, "Prefix sums and their
applications", 1990): the N steps are cut into about sqrt(N) blocks of about
sqrt(N) steps, every block's affine end map is formed with all blocks
advancing together, a short sequential pass chains the block start states,
and a second pass reruns all blocks from those exact start states into the
output.  The Python-level work is O(sqrt(N)) batched matrix products instead
of N single-step products, and no per-step product array is stored.
"""

from __future__ import annotations

from math import isqrt

import numpy as np


def half_steps(h, N, t0=0.0):
    """The half-step grid t0 + (h/2) j, j = 0..2N: every stage time of N RK4 steps.

    Its even rows are the step times t0 + h k, bit for bit.
    """
    return t0 + 0.5 * h * np.arange(2 * N + 1)


def stages(rows):
    """Stage views (t_k, t_k + h/2, t_k + h), k < N, of data sampled on ``half_steps``."""
    return rows[0:-1:2], rows[1::2], rows[2::2]


def step_matrices(A_stages, h):
    """RK4 transition matrices M_k from stage matrices (A(t_k), A(t_k+h/2), A(t_k+h)).

    A_stages: tuple of three (N, n, n) arrays, such as ``stages`` of A on
    ``half_steps``.  Returns (N, n, n).
    """
    F1, F2, F3 = A_stages
    n = F1.shape[-1]
    I = np.eye(n)
    K1 = F1
    K2 = F2 @ (I + 0.5 * h * K1)
    K3 = F2 @ (I + 0.5 * h * K2)
    K4 = F3 @ (I + h * K3)
    return I + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


def step_offsets(A_stages, b_stages, h):
    """RK4 affine offsets g_k for the forced system; shapes (N, n)."""
    F1, F2, F3 = A_stages
    b1, b2, b3 = b_stages
    k1 = b1
    k2 = np.einsum("tij,tj->ti", F2, 0.5 * h * k1) + b2
    k3 = np.einsum("tij,tj->ti", F2, 0.5 * h * k2) + b2
    k4 = np.einsum("tij,tj->ti", F3, h * k3) + b3
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _sweep(M, g, out):
    """Fill out[1:] with X_{k+1} = M_k X_k + g_k from X_0 = out[0].

    M: (N, n, n); g: (N, n, r), or None for g = 0; out: (N+1, n, r), written
    in place.  The first B*L steps form B blocks of L = isqrt(N) steps, so the
    basic slice [j:B*L:L] of a step array holds step j of every block.  The
    fewer than L steps left over are swept the same way from the state the
    blocks end in.
    """
    N, n = M.shape[0], M.shape[1]
    if N == 0:
        return
    L = isqrt(N)
    B = N // L
    head = B * L

    # pass 1: every block's affine end map [Phi_b | c_b], all blocks together
    T = np.zeros((B, n, n if g is None else n + g.shape[-1]))
    T[:, :, :n] = np.eye(n)
    for j in range(L):
        T = M[j:head:L] @ T
        if g is not None:
            T[:, :, n:] += g[j:head:L]

    # middle pass: chain the block start states
    starts = np.empty((B,) + out.shape[1:])
    X = out[0]
    for b in range(B):
        starts[b] = X
        X = T[b, :, :n] @ X + T[b, :, n:] if g is not None else T[b] @ X

    # pass 2: rerun every block from its exact start state into the output
    X = starts
    for j in range(L):
        X = M[j:head:L] @ X
        if g is not None:
            X += g[j:head:L]
        out[j + 1:head + 1:L] = X

    _sweep(M[head:], None if g is None else g[head:], out[head:])


def propagate_vector(M, g, x0):
    """x_{k+1} = M_k x_k + g_k from x_0; returns (N+1, n) including x_0.

    Overflow is left to the caller's finiteness check.
    """
    N = M.shape[0]
    out = np.empty((N + 1, x0.size))
    out[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        _sweep(M, np.asarray(g, dtype=float)[..., None], out[..., None])
    return out


def propagate_matrix(M, X0):
    """X_{k+1} = M_k X_k from X_0; returns (N+1, n, n)."""
    N = M.shape[0]
    out = np.empty((N + 1,) + X0.shape)
    out[0] = X0
    with np.errstate(over="ignore", invalid="ignore"):
        _sweep(M, None, out)
    return out
