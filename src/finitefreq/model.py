"""Domain types: parameter-affine state-space systems, frequency bands, weights;
and the frequency-response kernel, ``resolvent`` and ``gram_peak``.

Every type here is an immutable value object; the analysis modules consume
these types and never mutate them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .sdp import real_embedding

# Fixed 2x2 structure matrices used by every performance LMI.
THETA = np.array([[0.0, 1.0], [1.0, 0.0]])
THETA_D = np.array([[0.0, 0.0], [0.0, 1.0]])
THETA.setflags(write=False)
THETA_D.setflags(write=False)


class DimensionError(ValueError):
    """Raised when matrix dimensions are inconsistent."""


def _as_matrix(a, name="matrix"):
    m = np.array(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class AffineMatrixFunction:
    """Matrix map M(p) = M0 + sum_i p_i * M_i with real coefficient matrices."""

    constant: np.ndarray
    coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "constant", _as_matrix(self.constant, "constant term"))
        cs = tuple(_as_matrix(c, "coefficient") for c in self.coeffs)
        for c in cs:
            if c.shape != self.constant.shape:
                raise DimensionError(
                    f"coefficient shape {c.shape} != constant shape {self.constant.shape}"
                )
        object.__setattr__(self, "coeffs", cs)

    @property
    def shape(self):
        return self.constant.shape

    @property
    def nparams(self):
        return len(self.coeffs)

    def __call__(self, p):
        """M(p) for one parameter vector; a batch of one row."""
        return self.batch(np.atleast_1d(np.asarray(p, dtype=float))[None])[0]

    def batch(self, P) -> np.ndarray:
        """M(p) at every row of P (N, nparams), as one (N, r, c) array.

        Each entry is summed elementwise in one order, M0 + p_1 M_1 + ... +
        p_l M_l, so a row's value does not depend on the other rows and
        equals ``self(P[i])`` bit for bit.  The array is time-major: its row
        axis is the fastest in memory, as the batched RK4 products in
        ``_rk4`` want it.
        """
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[1] != self.nparams:
            raise DimensionError(f"parameter rows have shape {P.shape}, expected (N, {self.nparams})")
        # the first term is the output buffer: one (r, c, N) array for l <= 1
        out = (self.coeffs[0][..., None] * P[:, 0] if self.coeffs
               else np.zeros(self.shape + (len(P),)))
        out += self.constant[..., None]  # p_1 M_1 + M0 is M0 + p_1 M_1, bit for bit
        for M_i, p_i in zip(self.coeffs[1:], P.T[1:]):
            out += M_i[..., None] * p_i
        return out.transpose(2, 0, 1)


@dataclass(frozen=True)
class ParameterBox:
    """Componentwise bounds on the scheduling parameter and its rate of change."""

    p_lower: np.ndarray
    p_upper: np.ndarray
    rate_lower: np.ndarray
    rate_upper: np.ndarray

    def __post_init__(self):
        for name in ("p_lower", "p_upper", "rate_lower", "rate_upper"):
            v = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        l = self.p_lower.size
        if not all(getattr(self, n).size == l for n in ("p_upper", "rate_lower", "rate_upper")):
            raise DimensionError("all box bound vectors must share one length")
        if np.any(self.p_lower > self.p_upper) or np.any(self.rate_lower > self.rate_upper):
            raise ValueError("box bounds must satisfy lower <= upper componentwise")

    @property
    def nparams(self):
        return self.p_lower.size

    def midpoint(self):
        return 0.5 * (self.p_lower + self.p_upper)

    def contains(self, p, tol=1e-12):
        p = np.atleast_1d(np.asarray(p, dtype=float))
        return bool(np.all(p >= self.p_lower - tol) and np.all(p <= self.p_upper + tol))

    def p_grid(self, density=11):
        """Cartesian grid of parameter values, vertices always included."""
        return grid(self.p_lower, self.p_upper, density)


def grid(lo, hi, density=2) -> np.ndarray:
    """Product grid of the box [lo, hi] as rows of a (K, l) array, in product order.

    Every axis gets ``density`` evenly spaced points (at least 2, ends
    included), so the default density gives the corners.  A degenerate axis
    (lower == upper) contributes a single value instead; an empty box (l = 0)
    has the single point of shape (0,).
    """
    axes = [np.linspace(a, b, max(2, density)) if b > a else [a]
            for a, b in zip(np.atleast_1d(lo), np.atleast_1d(hi))]
    rows = list(itertools.product(*axes))
    return np.array(rows, dtype=float).reshape(len(rows), len(axes))


@dataclass(frozen=True)
class LpvSystem:
    """State-space model with parameter-affine A, B, C, D and a parameter box.

    The LTI case is the zero-parameter special case (empty box, no coefficients).
    """

    A: AffineMatrixFunction
    B: AffineMatrixFunction
    C: AffineMatrixFunction
    D: AffineMatrixFunction
    box: ParameterBox

    def __post_init__(self):
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionError("A must be square")
        m = self.B.shape[1]
        q = self.C.shape[0]
        if self.B.shape != (n, m) or self.C.shape != (q, n) or self.D.shape != (q, m):
            raise DimensionError("A, B, C, D dimensions are inconsistent")
        l = self.box.nparams
        for M in (self.A, self.B, self.C, self.D):
            if M.nparams != l:
                raise DimensionError("all matrix functions must share the box parameter count")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def n_inputs(self):
        return self.B.shape[1]

    @property
    def n_outputs(self):
        return self.C.shape[0]

    @property
    def nparams(self):
        return self.box.nparams

    def frozen(self, p=None):
        """A(p), B(p), C(p), D(p) at a fixed parameter (default: box midpoint)."""
        if p is None:
            p = self.box.midpoint()
        if (k := np.size(p)) != self.nparams:
            l = self.nparams
            raise DimensionError(f"p has {k} value{'s' * (k != 1)}, "
                                 f"the system has {l} parameter{'s' * (l != 1)}")
        return self.A(p), self.B(p), self.C(p), self.D(p)

    @classmethod
    def lti(cls, A, B, C, D):
        empty = np.zeros(0)
        return cls(
            AffineMatrixFunction(A), AffineMatrixFunction(B),
            AffineMatrixFunction(C), AffineMatrixFunction(D),
            ParameterBox(empty, empty, empty, empty),
        )


_SYSTEM_KEYS = {
    "n", "inputs", "outputs", "params",
    "A0", "A", "B0", "B", "C0", "C", "D0", "D",
    "p_lower", "p_upper", "rate_lower", "rate_upper",
}
_COUNT_KEYS = ("n", "inputs", "outputs", "params")


def _flat(v):
    """Scalars of a nested list, in order."""
    return [y for item in v for y in _flat(item)] if isinstance(v, (list, tuple)) else [v]


def system_from_dict(obj) -> LpvSystem:
    """Build an LpvSystem from the JSON system-description schema."""
    if not isinstance(obj, dict):
        raise ValueError(f"a system description is a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - _SYSTEM_KEYS
    if unknown:
        raise ValueError(f"unknown system keys: {sorted(unknown)}")
    missing = _SYSTEM_KEYS - set(obj)
    if missing:
        raise ValueError(f"missing system keys: {sorted(missing)}")
    for key in sorted(_SYSTEM_KEYS):
        try:
            values = np.asarray(_flat(obj[key]), dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"system key {key!r} must hold numbers, got {obj[key]!r}") from None
        if not np.isfinite(values).all():
            raise ValueError(f"system key {key!r} has a non-finite entry")
    for key in _COUNT_KEYS:
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or v != int(v) or v < 0:
            raise ValueError(f"system key {key!r} must be a nonnegative integer, got {v!r}")
    l = int(obj["params"])

    def mk(base_key, coeff_key):
        coeffs = obj[coeff_key]
        if not isinstance(coeffs, list) or len(coeffs) != l:
            raise DimensionError(f"{coeff_key} must list {l} coefficient matrices")
        return AffineMatrixFunction(obj[base_key], tuple(coeffs))

    sys = LpvSystem(
        A=mk("A0", "A"), B=mk("B0", "B"), C=mk("C0", "C"), D=mk("D0", "D"),
        box=ParameterBox(obj["p_lower"], obj["p_upper"], obj["rate_lower"], obj["rate_upper"]),
    )
    if sys.n != int(obj["n"]) or sys.n_inputs != int(obj["inputs"]) or sys.n_outputs != int(obj["outputs"]):
        raise DimensionError("declared dimensions do not match the matrices")
    return sys


def load_system(path) -> LpvSystem:
    with open(path) as fh:
        return system_from_dict(json.load(fh))


@dataclass(frozen=True)
class FrequencyRange:
    """A band on the frequency axis: low, middle, high, or the entire axis.

    The band is stored by its nonnegative edge pair (lo, hi); the actual set is
    symmetric about zero: low = [-hi, hi], middle = +-[lo, hi],
    high = (-inf,-lo] U [lo,inf), entire = the whole axis.
    """

    kind: str
    lo: float = 0.0
    hi: float = np.inf

    _KINDS = ("low", "middle", "high", "entire")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}")
        if self.kind == "low" and not (self.lo == 0.0 and self.hi > 0.0):
            raise ValueError("low range needs a positive upper edge")
        if self.kind == "middle" and not (0.0 <= self.lo < self.hi < np.inf):
            raise ValueError("middle range needs 0 <= lo < hi < inf")
        if self.kind == "high" and not (0.0 < self.lo and self.hi == np.inf):
            raise ValueError("high range needs a positive lower edge")
        if self.kind == "entire" and not (self.lo == 0.0 and self.hi == np.inf):
            raise ValueError("entire range spans (0, inf)")

    @classmethod
    def low(cls, w_upper):
        return cls("low", 0.0, float(w_upper))

    @classmethod
    def middle(cls, w1, w2):
        return cls("middle", float(w1), float(w2))

    @classmethod
    def high(cls, w_lower):
        return cls("high", float(w_lower), np.inf)

    @classmethod
    def entire(cls):
        return cls("entire", 0.0, np.inf)

    def contains(self, omega):
        w = abs(float(omega))
        return bool(self.lo <= w <= self.hi)

    def describe(self) -> str:
        if self.kind == "low":
            return f"low:{self.hi:g}"
        if self.kind == "middle":
            return f"mid:{self.lo:g}:{self.hi:g}"
        if self.kind == "high":
            return f"high:{self.lo:g}"
        return "entire"

    def __str__(self):
        return self.describe()


def frequency_weight(rng: FrequencyRange) -> np.ndarray:
    """Read-only 2x2 band weight Psi: the quadratic curve whose nonnegativity set is the band.

    Hermitian; complex only for a middle band.
    """
    if rng.kind == "low":
        m = np.array([[-1.0, 0.0], [0.0, rng.hi**2]])
    elif rng.kind == "middle":
        wc = 0.5 * (rng.lo + rng.hi)
        m = np.array([[-1.0, 1j * wc], [-1j * wc, -rng.lo * rng.hi]])
    elif rng.kind == "high":
        m = np.array([[1.0, 0.0], [0.0, -rng.lo**2]])
    else:  # entire: zero weight recovers the unrestricted conditions
        m = np.zeros((2, 2))
    m.setflags(write=False)
    return m


def resolvent(A, X, w):
    """(jwI - A)^{-1} X at every node w, as its real and imaginary parts (Re, Im).

    A (..., n, n) and X (..., n, k) broadcast over their stack axes; nodes w (W,)
    give two (..., W, n, k) arrays, from one batched solve of the real form
    [[-A, -wI], [wI, -A]] [Re; Im] = [X; 0]: no complex array reaches LAPACK,
    and no A^2 + w^2 I squares the condition number.  Only if LAPACK finds an
    exactly singular block (a pole on a node) are the nodes whose real form has
    a zero determinant left NaN; callers decide what a pole means.
    """
    A, X, w = (np.asarray(a, dtype=float) for a in (A, X, w))
    n, k = X.shape[-2:]
    stack = np.broadcast_shapes(A.shape[:-2], X.shape[:-2]) + (len(w),)
    M = np.empty(stack + (2 * n, 2 * n))
    M[..., :n, :n] = M[..., n:, n:] = -A[..., None, :, :]
    wI = w[:, None, None] * np.eye(n)
    M[..., :n, n:], M[..., n:, :n] = -wI, wI
    rhs = np.zeros(stack + (2 * n, k))
    rhs[..., :n, :] = X[..., None, :, :]
    try:
        Y = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        ok = np.linalg.slogdet(M)[0] != 0
        Y = np.full(rhs.shape, np.nan)
        Y[ok] = np.linalg.solve(M[ok], rhs[ok])
    return Y[..., :n, :], Y[..., n:, :]


def gram_peak(M) -> float:
    """Largest eigenvalue of M M^* (the squared largest singular value) over a stack of
    real or complex matrices M (..., r, c).

    It is taken from the smaller Gram, M M^* or M^* M, which share their
    nonzero eigenvalues: a 1 x 1 Gram is its trace, the squared Frobenius
    norm; of k x k Grams only those whose trace reaches max tr / k are
    eigensolved, since lambda_max <= tr G <= k lambda_max, a complex one
    through ``sdp.real_embedding``, which doubles each eigenvalue.  A non-finite
    M raises ValueError; the check is on the traces, which every entry of M
    reaches, since LAPACK may return finite eigenvalues for a NaN matrix.
    """
    r, c = M.shape[-2:]
    M = M.reshape(-1, r, c)
    tr = np.einsum("kij,kij->k", M.conj(), M).real
    if not np.isfinite(tr).all():
        raise ValueError("matrix entries are not finite; the Gram peak is undefined")
    k = min(r, c)
    if k == 1:
        return float(tr.max())
    M = M[tr >= tr.max() / k]
    MH = np.swapaxes(M.conj(), 1, 2)
    G = M @ MH if r <= c else MH @ M
    return float(np.linalg.eigvalsh(real_embedding(G) if np.iscomplexobj(G) else G).max())
