"""Planar polynomial vector fields with a fixed point at the origin.

A system is

    X' = J X + psi(X),      psi(X) = sum_{k=2}^{n} phi_k lambda_k(X),

with J the 2x2 Jacobian at the origin and phi_k the 2 x (k+1)
coefficient matrix of the degree-k part.  The trace and determinant of
J decide whether the origin is a candidate Hopf point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polyops import Poly, poly_add, poly_from_lambda_row, poly_mul
from .monomials import eval_poly_map

__all__ = [
    "PlanarPolySystem",
    "HopfIndicator",
    "build_system",
    "evaluate_field",
    "hopf_indicator",
    "field_polynomials",
    "compile_field",
    "lie_derivative",
]

# |tau| at or below this counts as a critical (Hopf) linearization.
TAU_THRESHOLD = 1e-9


def _coerce_matrix(entries, shape: tuple[int, int], what: str) -> np.ndarray:
    arr = np.asarray(entries, dtype=object)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    flat = arr.reshape(-1)
    if any(isinstance(x, float) or isinstance(x, np.floating) for x in flat):
        return np.asarray(entries, dtype=float)
    out = np.empty(shape, dtype=object)
    out.reshape(-1)[:] = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in flat]
    return out


def _is_zero_matrix(m: np.ndarray) -> bool:
    return all(x == 0 for x in m.reshape(-1))


@dataclass(frozen=True)
class PlanarPolySystem:
    """Immutable planar system; ``phi[i]`` holds the degree-(i+2) block."""

    jac: np.ndarray
    phi: tuple[np.ndarray, ...]

    @property
    def degree(self) -> int:
        return 1 if not self.phi else len(self.phi) + 1

    @property
    def exact(self) -> bool:
        return self.jac.dtype == object

    def phi_matrix(self, k: int) -> np.ndarray:
        """Degree-k coefficient block, zero-filled when absent (k >= 2)."""
        if k < 2:
            raise ValueError(f"phi blocks start at degree 2, got {k}")
        if k <= self.degree:
            return self.phi[k - 2]
        return np.zeros((2, k + 1), dtype=self.jac.dtype)

    def to_float(self) -> "PlanarPolySystem":
        if not self.exact:
            return self
        jac = self.jac.astype(float)
        phi = tuple(m.astype(float) for m in self.phi)
        return PlanarPolySystem(jac, phi)


def build_system(jac, phi=()) -> PlanarPolySystem:
    """Validate and normalize the pieces of a planar polynomial system.

    Parameters
    ----------
    jac : 2x2 matrix
        Jacobian at the origin.
    phi : sequence of matrices
        Element i is the 2 x (i+3) coefficient block of degree i + 2.
        Trailing all-zero blocks are trimmed so the stored degree is
        minimal.  An empty sequence declares a linear system.

    Raises
    ------
    ValueError
        On shape mismatches, or when a nonempty ``phi`` contains only
        zeros (a linear system must be declared with ``phi=()``).
    """
    jac_arr = _coerce_matrix(jac, (2, 2), "jacobian")
    blocks = []
    for i, block in enumerate(phi):
        k = i + 2
        blocks.append(_coerce_matrix(block, (2, k + 1), f"phi[{k}]"))
    if blocks and all(_is_zero_matrix(b) for b in blocks):
        raise ValueError("phi declares nonlinear degrees but every block is zero; pass phi=() for a linear system")
    while blocks and _is_zero_matrix(blocks[-1]):
        blocks.pop()
    if blocks and jac_arr.dtype != blocks[0].dtype:
        # mixed exact/float input: fall back to float throughout
        jac_arr = jac_arr.astype(float)
        blocks = [b.astype(float) for b in blocks]
    return PlanarPolySystem(jac_arr, tuple(blocks))


def evaluate_field(system: PlanarPolySystem, point) -> np.ndarray:
    """Field value J X + psi(X) at a point or at each column of a (2, N)
    array, dtype following the inputs."""
    return eval_poly_map({1: system.jac, **dict(enumerate(system.phi, start=2))}, point)


@dataclass(frozen=True)
class HopfIndicator:
    """Trace/determinant snapshot of the linearization.

    ``complex_pair`` is true when the eigenvalues form a complex
    conjugate pair (tau^2 < 4 delta); ``near_critical`` when |tau| is
    within ``TAU_THRESHOLD`` of zero.
    """

    tau: object
    delta: object
    complex_pair: bool
    near_critical: bool


def hopf_indicator(system: PlanarPolySystem) -> HopfIndicator:
    j = system.jac
    tau = j[0, 0] + j[1, 1]
    delta = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    disc = tau * tau - 4 * delta
    return HopfIndicator(
        tau=tau,
        delta=delta,
        complex_pair=bool(disc < 0),
        near_critical=bool(abs(tau) <= TAU_THRESHOLD),
    )


def field_polynomials(system: PlanarPolySystem) -> tuple[Poly, Poly]:
    """Both field components as exponent-dict polynomials."""
    j = system.jac
    f1: Poly = {}
    f2: Poly = {}
    for col, e in ((0, (1, 0)), (1, (0, 1))):
        if j[0, col] != 0:
            f1[e] = j[0, col]
        if j[1, col] != 0:
            f2[e] = j[1, col]
    for i, block in enumerate(system.phi):
        k = i + 2
        f1 = poly_add(f1, poly_from_lambda_row(k, block[0]))
        f2 = poly_add(f2, poly_from_lambda_row(k, block[1]))
    return f1, f2


def lie_derivative(p: Poly, system: PlanarPolySystem) -> Poly:
    """Derivative of a scalar polynomial along the flow of the system."""
    from .polyops import poly_diff

    f1, f2 = field_polynomials(system)
    return poly_add(poly_mul(poly_diff(p, 0), f1), poly_mul(poly_diff(p, 1), f2))


def compile_field(system: PlanarPolySystem):
    """Closure computing the field with plain Python floats.

    The returned callable ``f(u, v) -> (du, dv)`` is the hot path of
    the numerical oracle, so it avoids numpy entirely.
    """
    flt = system.to_float()
    j11, j12 = float(flt.jac[0, 0]), float(flt.jac[0, 1])
    j21, j22 = float(flt.jac[1, 0]), float(flt.jac[1, 1])
    rows = [
        ([float(c) for c in block[0]], [float(c) for c in block[1]])
        for block in flt.phi
    ]
    n = flt.degree

    if not rows:
        def linear(u: float, v: float) -> tuple[float, float]:
            return j11 * u + j12 * v, j21 * u + j22 * v

        return linear

    def field(u: float, v: float) -> tuple[float, float]:
        du = j11 * u + j12 * v
        dv = j21 * u + j22 * v
        # powers u^0..u^n, v^0..v^n
        up = [1.0] * (n + 1)
        vp = [1.0] * (n + 1)
        for i in range(1, n + 1):
            up[i] = up[i - 1] * u
            vp[i] = vp[i - 1] * v
        for idx, (r1, r2) in enumerate(rows):
            k = idx + 2
            s1 = 0.0
            s2 = 0.0
            for i in range(k + 1):
                m = up[k - i] * vp[i]
                s1 += r1[i] * m
                s2 += r2[i] * m
            du += s1
            dv += s2
        return du, dv

    return field
