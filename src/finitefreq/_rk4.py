"""Batched classical Runge-Kutta propagators for linear time-varying dynamics.

For xdot = A(t) x + b(t) the RK4 update is affine, x_{k+1} = M_k x_k + g_k,
and both M_k and g_k depend only on the step's stage data, so all step
matrices are built in one vectorized pass.  The stage times t_k, t_k + h/2
and t_k + h of all steps lie on one half-step grid, so stage data is
sampled there once and each stage is a strided view of it.

Every array here has the step (time) axis first, (N, n, n) or (N, n), and is
meant to be stored time-major: time is the fastest axis in memory, as in
``AffineMatrixFunction.batch`` output and ``np.empty(shape, order="F")``.
The products over the step axis are then ``product``: n broadcast
multiply-adds, each one ufunc over contiguous time rows, instead of
numpy's per-item loop over 2x2 matrices.  Elementwise ufuncs keep the order
of their inputs, so step matrices, offsets and states all stay time-major.
C-ordered inputs give the same numbers, only more slowly.

The recurrence runs as a two-sweep scan (Blelloch, "Prefix sums and their
applications", 1990).  The N steps are cut into B blocks of L = 8 steps, and
every block's affine end map [Phi_b | c_b] is formed in L - 1 products with
all blocks advancing together.  An up-sweep composes the block maps pairwise,
level by level, up to one map for all B blocks; a down-sweep hands every map
its start state, from x_0 at the root down to the B block start states.  Each
sweep is ceil(log2 B) batched products, and the work halves at every level.
A last pass of L products reruns all blocks from those exact start states
into the output, and a plain loop takes the fewer than L steps left over.
The Python-level work is O(log N) batched products, and no per-step product
array is stored.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 8  # steps per block of the scan; the steps left over run as a plain loop


def half_steps(duration, step):
    """(h, grid): N = max(1, round(duration/step)) RK4 steps of h = duration/N over
    [0, duration], and every stage time of them, the grid (h/2) j for j = 0..2N.

    The grid's even rows are the step times h k, bit for bit.  A duration or
    step that is not finite and positive raises ValueError.
    """
    if not (np.isfinite(duration) and np.isfinite(step) and duration > 0 and step > 0):
        raise ValueError(f"step and duration must be positive and finite, got {step} and {duration}")
    N = max(1, round(duration / step))
    h = duration / N
    return h, 0.5 * h * np.arange(2 * N + 1)


def stages(rows):
    """Stage views (t_k, t_k + h/2, t_k + h), k < N, of data sampled on ``half_steps``."""
    return rows[0:-1:2], rows[1::2], rows[2::2]


def product(A, X, out=None):
    """A_k X_k for every k of the leading axis: A (N, p, q), X (N, q, r) or (N, q).

    Sums the q broadcast terms A[:, :, j] X[:, j, :]; on time-major inputs
    each is one ufunc over contiguous time rows and the result is time-major.
    ``out``, if given, must not overlap A or X.
    """
    if X.ndim == 2:
        return product(A, X[..., None], None if out is None else out[..., None])[..., 0]
    q = A.shape[2]
    if q == 0:  # an empty sum, as for B u without inputs
        out = np.empty(A.shape[:2] + X.shape[2:], order="F") if out is None else out
        out.fill(0.0)
        return out
    out = np.multiply(A[:, :, :1], X[:, None, 0, :], out=out)
    if q > 1:
        term = np.empty_like(out)
        for j in range(1, q):
            out += np.multiply(A[:, :, j:j + 1], X[:, None, j, :], out=term)
    return out


def _add_identity(Z):
    """Z_k += I for every k, on the diagonal entries only."""
    for i in range(Z.shape[1]):
        Z[:, i, i] += 1.0


def step_matrices(A_stages, h):
    """RK4 transition matrices M_k from stage matrices (A(t_k), A(t_k+h/2), A(t_k+h)).

    A_stages: tuple of three (N, n, n) arrays, such as ``stages`` of A on
    ``half_steps``.  Returns (N, n, n), time-major for time-major stages:

        K1 = F1, K2 = F2 (I + h/2 K1), K3 = F2 (I + h/2 K2), K4 = F3 (I + h K3),
        M = I + h/6 (K1 + 2 K2 + 2 K3 + K4),

    with K2, K3 and K4 written into one buffer in turn.
    """
    F1, F2, F3 = A_stages
    Z = (0.5 * h) * F1
    _add_identity(Z)
    K = product(F2, Z)  # K2
    S = 2.0 * K
    S += F1
    np.multiply(0.5 * h, K, out=Z)
    _add_identity(Z)
    product(F2, Z, out=K)  # K3
    S += np.multiply(2.0, K, out=Z)
    np.multiply(h, K, out=Z)
    _add_identity(Z)
    S += product(F3, Z, out=K)  # K4
    S *= h / 6.0
    _add_identity(S)
    return S


def step_offsets(A_stages, b_stages, h):
    """RK4 affine offsets g_k for the forced system; shapes (N, n).

    k1 = b1, k2 = F2 (h/2 k1) + b2, k3 = F2 (h/2 k2) + b2, k4 = F3 (h k3) + b3,
    g = h/6 (k1 + 2 k2 + 2 k3 + k4).
    """
    _, F2, F3 = A_stages
    b1, b2, b3 = b_stages
    z = (0.5 * h) * b1
    k = product(F2, z)
    k += b2  # k2
    S = 2.0 * k
    S += b1
    np.multiply(0.5 * h, k, out=z)
    product(F2, z, out=k)
    k += b2  # k3
    S += np.multiply(2.0, k, out=z)
    np.multiply(h, k, out=z)
    product(F3, z, out=k)
    S += np.add(k, b3, out=k)  # k4
    S *= h / 6.0
    return S


def _sweep(M, g, out):
    """Fill out[1:] with X_{k+1} = M_k X_k + g_k from X_0 = out[0].

    M: (N, n, n); g: (N, n, r), or None for g = 0; out: (N+1, n, r), written
    in place.  The first B*L steps form B blocks of L = ``_BLOCK`` steps, so
    the basic slice [j:B*L:L] of a step array holds step j of every block.
    Level d+1 of the up-sweep holds the compositions of level d's pairs, an
    odd last map carried up as it is; on the way down, map 2i of a level
    starts where its parent starts, and map 2i+1 where map 2i ends.
    """
    N, n = M.shape[0], M.shape[1]
    L = _BLOCK
    B = N // L
    head = B * L
    if B:
        # every block's affine end map T_b = [Phi_b | c_b], all blocks together
        T = np.empty((B, n, n if g is None else n + g.shape[-1]), order="F")
        T[:, :, :n] = M[0:head:L]
        if g is not None:
            T[:, :, n:] = g[0:head:L]
        for j in range(1, L):
            T = product(M[j:head:L], T)
            if g is not None:
                T[:, :, n:] += g[j:head:L]

        # up-sweep: compose pairs of maps until one map spans all blocks
        levels = [T]
        while len(T) > 1:
            k = len(T) // 2
            up = product(T[1:2 * k:2, :, :n], T[0:2 * k:2])  # [Phi Phi' | Phi c' + c]
            up[:, :, n:] += T[1:2 * k:2, :, n:]
            T = np.concatenate((up, T[2 * k:])) if len(T) % 2 else up
            levels.append(T)

        # down-sweep: the start state of every map, from X_0 at the root
        X = out[:1]
        for T in reversed(levels[:-1]):
            k = len(T) // 2
            starts = np.empty((len(T),) + out.shape[1:], order="F")
            starts[0::2] = X
            starts[1::2] = product(T[0:2 * k:2, :, :n], X[:k])  # where map 2i ends
            if g is not None:
                starts[1::2] += T[0:2 * k:2, :, n:]
            X = starts

        # rerun every block from its exact start state into the output
        for j in range(L):
            X = product(M[j:head:L], X)
            if g is not None:
                X += g[j:head:L]
            out[j + 1:head + 1:L] = X

    for k in range(head, N):  # the fewer than L steps left over
        X = product(M[k:k + 1], out[k:k + 1])
        if g is not None:
            X += g[k:k + 1]
        out[k + 1:k + 2] = X


def propagate_vector(M, g, x0, out=None):
    """x_{k+1} = M_k x_k + g_k from x_0; returns (N+1, n), time-major, including x_0.

    ``out``, if given, is the (N+1, n) array written and returned, such as
    rows of a longer time-major trajectory.  Overflow is left to the
    caller's finiteness check.
    """
    N = M.shape[0]
    if out is None:
        out = np.empty((N + 1, x0.size), order="F")
    out[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        _sweep(M, np.asarray(g, dtype=float)[..., None], out[..., None])
    return out


def propagate_matrix(M, X0):
    """X_{k+1} = M_k X_k from X_0; returns (N+1, n, n), time-major."""
    N = M.shape[0]
    out = np.empty((N + 1,) + X0.shape, order="F")
    out[0] = X0
    with np.errstate(over="ignore", invalid="ignore"):
        _sweep(M, None, out)
    return out
