"""Pole/band gap, minimal band enlargement, and the uniform-radius shortcut.

The gap measures how far the frozen system matrix sits outside the analysis
band; the minimal enlargement delta^2 scales the gap by a ratio of
controllability-Gramian traces and widens the band just enough to restore the
nonnegativity of the band IQC for parameter-varying systems.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gramians import gramian_lpv_frozen, shifted_trace_bound
from .lmi import check_decay_scalars, uas_certificate
from .model import FrequencyRange, LpvSystem, frequency_weight
from .sdp import real_embedding


def gap(system: LpvSystem, rng: FrequencyRange) -> float:
    """Squared gap between the frozen system matrix and the band.

    For each grid parameter p the block [A* I](Psi (x) I)[A; I] is formed; the
    gap squared at p is lambda_max of its negation when that is positive, else
    zero, and the reported value is the supremum over the grid (vertices
    always included), from one stacked eigensolve.  For a low band this
    reduces to max(0, sigma_max(A(p))^2 - edge^2).  A non-finite system matrix
    raises ValueError, naming the first such p, rather than reading as a zero gap.
    """
    psi = frequency_weight(rng)
    P = system.box.p_grid()
    A = system.A.batch(P)
    AH = np.swapaxes(A.conj(), 1, 2)
    K = psi[0, 0] * (AH @ A) + psi[0, 1] * AH + psi[1, 0] * A + psi[1, 1] * np.eye(system.n)
    finite = np.isfinite(K).all(axis=(1, 2))  # LAPACK may return finite eigenvalues for NaN input
    if not finite.all():
        raise ValueError(f"band block at p={np.round(P[np.argmin(finite)], 6)} is not finite; "
                         "the gap is undefined")
    lam = np.linalg.eigvalsh(real_embedding(-K) if np.iscomplexobj(K) else -K)
    return max(0.0, float(lam.max()))


def _finite(name: str, value) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} is {value}; the band widening is undefined")
    return value


def delta_squared(gap_sq: float, tr_w_p_min: float, tr_w_dot_p: float) -> float:
    """Minimal admissible band widening, squared: gap^2 * tr(W_dot) / tr(W_min).

    tr_w_p_min is the smallest frozen band Gramian trace over the box and
    tr_w_dot_p the decay-certificate bound on the drift traces.  The result is
    clamped at zero.  A non-finite gap or trace raises ValueError rather than
    reading as no widening.
    """
    gap_sq = _finite("gap_sq", gap_sq)
    if gap_sq < 0:
        raise ValueError("gap_sq must be nonnegative")
    tr_w_p = _finite("tr_w_p_min", tr_w_p_min)
    if tr_w_p <= 0:
        raise ValueError("system not finite-frequency controllable on this band "
                         "(nonpositive Gramian trace)")
    tr_dot = _finite("tr_w_dot_p", tr_w_dot_p)
    if gap_sq == 0.0:
        return 0.0
    return max(0.0, gap_sq * tr_dot / tr_w_p)


def enlarge_range(rng: FrequencyRange, delta_sq: float) -> FrequencyRange:
    """Widen the band by delta: low and middle bands grow, a high band's edge drops."""
    if delta_sq < 0:
        raise ValueError("delta_sq must be nonnegative")
    if delta_sq == 0.0 or rng.kind == "entire":
        return rng
    if rng.kind == "low":
        return FrequencyRange.low(np.sqrt(rng.hi**2 + delta_sq))
    if rng.kind == "middle":
        # center is preserved; the half width grows from (hi-lo)/2 to s/2
        wc = 0.5 * (rng.lo + rng.hi)
        s = np.sqrt((rng.hi - rng.lo) ** 2 + 4.0 * delta_sq)
        lo = wc - 0.5 * s
        if lo <= 0:
            return FrequencyRange.low(wc + 0.5 * s)
        return FrequencyRange.middle(lo, wc + 0.5 * s)
    # high
    if rng.lo**2 <= delta_sq:
        warnings.warn("high band edge consumed by the enlargement; "
                      "falling back to the entire axis", stacklevel=2)
        return FrequencyRange.entire()
    return FrequencyRange.high(np.sqrt(rng.lo**2 - delta_sq))


def uniform_spectral_radius(system: LpvSystem) -> float:
    """Largest spectral norm of the frozen system matrix over the box.

    The matrix 2-norm (largest singular value) is used: it dominates the
    eigenvalue radius, coincides with it for normal matrices, and for low
    bands a band edge at or above this value makes the gap vanish exactly.
    """
    return float(np.linalg.norm(system.A.batch(system.box.p_grid()), 2, axis=(1, 2)).max())


@dataclass
class EnlargementResult:
    gap_squared: float
    delta_squared: float
    trace_W_p_min: float | None  # None when the gap is zero: no trace is computed
    trace_W_dot_p: float | None
    enlarged: FrequencyRange
    original: FrequencyRange
    rho_unif: float


def recommend_range(system: LpvSystem, rng: FrequencyRange, c3: float = 1.0,
                    c1: float | None = None, c2: float | None = None) -> EnlargementResult:
    """End-to-end band recommendation: gap, traces, widening, enlarged band.

    One rule: ``delta_squared`` of the gap, the smallest frozen Gramian trace
    on the parameter grid and the decay-certificate drift bound
    (``shifted_trace_bound``).  The decay scalars are checked before any
    solve; ``uas_certificate(system, c3, c1, c2)`` runs only when the gap and
    a drift integrand are nonzero.  A zero gap needs no widening and no
    traces (None); rho_unif is reported alongside.
    """
    check_decay_scalars(c1, c2, c3)
    rho = uniform_spectral_radius(system)
    g2 = gap(system, rng)
    if g2 == 0.0:
        return EnlargementResult(0.0, 0.0, None, None, rng, rng, rho)

    tr_w_p_min = min(float(np.trace(gramian_lpv_frozen(system, p, rng)))
                     for p in system.box.p_grid())
    bound = shifted_trace_bound(system, rng, lambda: uas_certificate(system, c3, c1, c2))
    tr_dot = bound.bound_1 + bound.bound_2
    d2 = delta_squared(g2, tr_w_p_min, tr_dot)
    return EnlargementResult(g2, d2, tr_w_p_min, tr_dot, enlarge_range(rng, d2), rng, rho)
