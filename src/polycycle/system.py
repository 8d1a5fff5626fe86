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
from functools import lru_cache
from itertools import count

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
    "field_pattern",
    "field_coefficients",
    "field_statements",
    "field_parameters",
    "lie_derivative",
]

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


def _trim(blocks: list) -> list:
    """The phi blocks less their trailing all-zero ones; ValueError when
    there are blocks and every one is zero."""
    if blocks and all(_is_zero_matrix(b) for b in blocks):
        raise ValueError("phi declares nonlinear degrees but every block is zero; pass phi=() for a linear system")
    while blocks and _is_zero_matrix(blocks[-1]):
        blocks.pop()
    return blocks


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
    blocks = _trim(blocks)
    if any(b.dtype != jac_arr.dtype for b in blocks):
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
    conjugate pair (tau^2 < 4 delta).
    """

    tau: object
    delta: object
    complex_pair: bool


def hopf_indicator(system: PlanarPolySystem) -> HopfIndicator:
    j = system.jac
    tau = j[0, 0] + j[1, 1]
    delta = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    return HopfIndicator(tau=tau, delta=delta, complex_pair=bool(tau * tau - 4 * delta < 0))


def field_polynomials(system: PlanarPolySystem) -> tuple[Poly, Poly]:
    """Both field components as exponent-dict polynomials, with Python
    numbers for coefficients (float64 entries become Python floats)."""
    j = system.jac.tolist()
    f1: Poly = {}
    f2: Poly = {}
    for col, e in ((0, (1, 0)), (1, (0, 1))):
        if j[0][col] != 0:
            f1[e] = j[0][col]
        if j[1][col] != 0:
            f2[e] = j[1][col]
    for i, block in enumerate(system.phi):
        k = i + 2
        rows = block.tolist()
        f1 = poly_add(f1, poly_from_lambda_row(k, rows[0]))
        f2 = poly_add(f2, poly_from_lambda_row(k, rows[1]))
    return f1, f2


def lie_derivative(p: Poly, system: PlanarPolySystem) -> Poly:
    """Derivative of a scalar polynomial along the flow of the system."""
    from .polyops import poly_diff

    f1, f2 = field_polynomials(system)
    return poly_add(poly_mul(poly_diff(p, 0), f1), poly_mul(poly_diff(p, 1), f2))


def field_pattern(system: PlanarPolySystem) -> tuple:
    """The nonzero pattern the generated field is written for: for each
    phi block, for each row, the columns of its nonzero coefficients."""
    return tuple(
        tuple(tuple(i for i, c in enumerate(row) if c != 0) for row in block)
        for block in (b.tolist() for b in system.to_float().phi)
    )


def field_coefficients(system: PlanarPolySystem) -> list[float]:
    """The float coefficients c0, c1, ... that the statements of
    :func:`field_statements` name, in that order: each row's j_r1, j_r2
    and nonzero phi coefficients, then the trace of J and the
    coefficients of div f."""
    flt = system.to_float()
    jac = flt.jac.tolist()
    blocks = [block.tolist() for block in flt.phi]
    out = []
    for row in (0, 1):
        out += jac[row]
        for block in blocks:
            out += [c for c in block[row] if c != 0]
    out.append(jac[0][0] + jac[1][1])
    for k, (row0, row1) in enumerate(blocks, start=2):
        out += [(k - i) * row0[i] + (i + 1) * row1[i + 1] for i in range(k) if row0[i] != 0 or row1[i + 1] != 0]
    return out


def _monomial(a: int, b: int) -> str:
    """Name of u^a v^b in the generated field."""
    return {(1, 0): "{u}", (0, 1): "{v}"}.get((a, b), f"m{a}_{b}")


@lru_cache(maxsize=128)
def _field_exprs(pattern: tuple):
    """du, dv and div f of a nonzero pattern as expressions in the
    coefficient names, the monomial names and ``{u}``, ``{v}``; the
    (a, b) of each u^a v^b that du and dv read, and that all three read;
    and the number of coefficients."""
    index = count()  # of the next coefficient name

    def term(a, b):
        return f"c{next(index)} * {_monomial(a, b)}"

    exprs = []
    used = set()
    for row in (0, 1):
        parts = [f"{term(1, 0)} + {term(0, 1)}"]
        for k, block in enumerate(pattern, start=2):
            used.update((k - i, i) for i in block[row])
            if block[row]:
                parts.append(f"(0.0 + {' + '.join(term(k - i, i) for i in block[row])})")
        if pattern and len(parts) == 1:
            parts.append("0.0")  # the loop's zero block sums turn -0.0 into 0.0
        exprs.append(" + ".join(parts))
    used_all = set(used)
    parts = [f"c{next(index)}"]
    for k, (row0, row1) in enumerate(pattern, start=2):
        # d/du of row 0 plus d/dv of row 1, over the monomials of degree k - 1
        cols = [i for i in range(k) if i in row0 or i + 1 in row1]
        used_all.update((k - 1 - i, i) for i in cols)
        if cols:
            parts.append(f"(0.0 + {' + '.join(term(k - 1 - i, i) for i in cols)})")
    exprs.append(" + ".join(parts))
    return exprs, frozenset(used), frozenset(used_all), next(index)


def field_statements(pattern: tuple, u: str, v: str, outs) -> list[str]:
    """Straight-line float statements that set the names ``outs`` to du,
    dv and, given a third name, div f of the field at the point held by
    the names ``u`` and ``v``, for a system of nonzero pattern
    ``pattern`` whose coefficients are bound to c0, c1, ... in the order
    of :func:`field_coefficients`.  Temporaries are named m<a>_<b>.

    They compute ``du = j11*u + j12*v``, the powers u^2, u^3, ... and
    v^2, v^3, ... by repeated multiplication, as far as a nonzero term
    needs them, and then, for each block k, the products u^(k-i) v^i of
    the block's nonzero coefficients, summed in column order from 0.0
    into one block sum that is added to du (likewise dv).  That is the
    order of the generic loop over every coefficient, kept in the tests
    as the reference, and the order is fixed because float addition is
    not associative: the two agree bit for bit wherever the powers stay
    finite.  A skipped term 0*m is a signed zero, which leaves a sum
    started from 0.0 as it was.  div f = d(du)/du + d(dv)/dv is the
    trace of J plus a block sum per block k of the terms c_i u^(k-1-i)
    v^i, c_i = (k-i) phi_k[0, i] + (i+1) phi_k[1, i+1], wherever either
    coefficient is nonzero.  No coefficient is written into the text,
    so systems with the same nonzero pattern (all alpha of a family)
    share it.
    """
    exprs, used_field, used_all, _ = _field_exprs(pattern)
    used = used_all if len(outs) == 3 else used_field
    top_u = max((a for a, _ in used), default=1)
    top_v = max((b for _, b in used), default=1)
    lines = [f"{_monomial(e, 0)} = {_monomial(e - 1, 0)} * {{u}}" for e in range(2, top_u + 1)]
    lines += [f"{_monomial(0, e)} = {_monomial(0, e - 1)} * {{v}}" for e in range(2, top_v + 1)]
    lines += [f"{_monomial(a, b)} = {_monomial(a, 0)} * {_monomial(0, b)}" for a, b in sorted(used) if a and b]
    lines += [f"{name} = {expr}" for name, expr in zip(outs, exprs)]
    return [line.format(u=u, v=v) for line in lines]


def field_parameters(pattern: tuple) -> str:
    """The coefficient names of a pattern's statements, c0, c1, ..., as a
    parameter list."""
    return ", ".join(f"c{i}" for i in range(_field_exprs(pattern)[3]))
