"""Domain types: parameter-affine state-space systems, frequency bands, weights.

Everything here is an immutable value object; the analysis modules consume
these types and never mutate them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

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
        return eval_affine(self, p)

    def batch(self, P) -> np.ndarray:
        """M(p) at every row of P (N, nparams), as one (N, r, c) array."""
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[1] != self.nparams:
            raise DimensionError(f"parameter rows have shape {P.shape}, expected (N, {self.nparams})")
        out = np.einsum("ni,irc->nrc", P, np.array(self.coeffs).reshape((self.nparams,) + self.shape))
        out += self.constant
        return out


def eval_affine(M: AffineMatrixFunction, p) -> np.ndarray:
    """Evaluate M(p) = M0 + sum_i p_i M_i.

    Raises DimensionError when len(p) differs from the coefficient count.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.ndim != 1 or p.size != M.nparams:
        raise DimensionError(f"parameter vector has length {p.size}, expected {M.nparams}")
    out = M.constant.copy()
    for pi, Mi in zip(p, M.coeffs):
        out += pi * Mi
    return out


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


def _flat(v):
    """Scalars of a nested list, in order."""
    return [y for item in v for y in _flat(item)] if isinstance(v, (list, tuple)) else [v]


def system_from_dict(obj) -> LpvSystem:
    """Build an LpvSystem from the JSON system-description schema."""
    unknown = set(obj) - _SYSTEM_KEYS
    if unknown:
        raise ValueError(f"unknown system keys: {sorted(unknown)}")
    missing = _SYSTEM_KEYS - set(obj)
    if missing:
        raise ValueError(f"missing system keys: {sorted(missing)}")
    for key in sorted(_SYSTEM_KEYS):
        if not np.isfinite(np.asarray(_flat(obj[key]), dtype=float)).all():
            raise ValueError(f"system key {key!r} has a non-finite entry")
    l = int(obj["params"])

    def mk(base_key, coeff_key):
        coeffs = obj[coeff_key]
        if len(coeffs) != l:
            raise DimensionError(f"{coeff_key} must list {l} coefficient matrices")
        return AffineMatrixFunction(obj[base_key], tuple(coeffs))

    sys = LpvSystem(
        A=mk("A0", "A"), B=mk("B0", "B"), C=mk("C0", "C"), D=mk("D0", "D"),
        box=ParameterBox(obj["p_lower"], obj["p_upper"], obj["rate_lower"], obj["rate_upper"]),
    )
    if sys.n != int(obj["n"]) or sys.n_inputs != int(obj["inputs"]) or sys.n_outputs != int(obj["outputs"]):
        raise DimensionError("declared dimensions do not match the matrices")
    return sys


def system_to_dict(sys: LpvSystem) -> dict:
    def rows(m):
        return [[float(v) for v in row] for row in np.asarray(m)]

    return {
        "n": sys.n, "inputs": sys.n_inputs, "outputs": sys.n_outputs, "params": sys.nparams,
        "A0": rows(sys.A.constant), "A": [rows(c) for c in sys.A.coeffs],
        "B0": rows(sys.B.constant), "B": [rows(c) for c in sys.B.coeffs],
        "C0": rows(sys.C.constant), "C": [rows(c) for c in sys.C.coeffs],
        "D0": rows(sys.D.constant), "D": [rows(c) for c in sys.D.coeffs],
        "p_lower": list(map(float, sys.box.p_lower)),
        "p_upper": list(map(float, sys.box.p_upper)),
        "rate_lower": list(map(float, sys.box.rate_lower)),
        "rate_upper": list(map(float, sys.box.rate_upper)),
    }


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

    def f_value(self, omega):
        """The band indicator form [jw, 1]^* Psi [jw, 1]; >= 0 inside the band."""
        v = np.array([1j * omega, 1.0])
        return float(np.real(v.conj() @ frequency_weight(self).psi @ v))

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


@dataclass(frozen=True)
class FrequencyWeight:
    """2x2 Hermitian band weight; complex entries occur only for middle bands."""

    psi: np.ndarray

    def __post_init__(self):
        m = np.array(self.psi, dtype=complex)
        if m.shape != (2, 2) or not np.allclose(m, m.conj().T, atol=1e-12):
            raise ValueError("psi must be a 2x2 Hermitian matrix")
        if np.allclose(m.imag, 0.0):
            m = m.real.astype(float)
        m.setflags(write=False)
        object.__setattr__(self, "psi", m)


def frequency_weight(rng: FrequencyRange) -> FrequencyWeight:
    """Band weight matrix: the quadratic curve whose nonnegativity set is the band."""
    if rng.kind == "low":
        m = np.array([[-1.0, 0.0], [0.0, rng.hi**2]])
    elif rng.kind == "middle":
        wc = 0.5 * (rng.lo + rng.hi)
        m = np.array([[-1.0, 1j * wc], [-1j * wc, -rng.lo * rng.hi]])
    elif rng.kind == "high":
        m = np.array([[1.0, 0.0], [0.0, -rng.lo**2]])
    else:  # entire: zero weight recovers the unrestricted conditions
        m = np.zeros((2, 2))
    return FrequencyWeight(m)


def transfer_function(system: LpvSystem, omega, p=None) -> np.ndarray:
    """G(jw) = C (jwI - A)^{-1} B + D for the system frozen at parameter p."""
    A, B, C, D = system.frozen(p)
    n = A.shape[0]
    M = 1j * float(omega) * np.eye(n) - A
    try:
        X = np.linalg.solve(M, B)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"omega = {omega} is a pole of the frozen system") from exc
    # Guard nearly singular resolvents that solve() lets through.
    if not np.all(np.isfinite(X)) or np.linalg.cond(M) > 1e14:
        raise ValueError(f"omega = {omega} is (numerically) a pole of the frozen system")
    return C @ X + D
