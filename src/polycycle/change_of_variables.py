"""Polynomial change of variables taking a planar system to scalar form.

We look for H(X) = Gamma X + sum_{k=2}^{m} Theta_k lambda_k(X) such
that z = (H(X))_1 obeys a second-order equation: the defining condition
is that the time derivative of the first component of H equals its
second component along trajectories.  Expanding that condition in the
monomial basis gives one homogeneous linear system over the entries of
Gamma and the Theta blocks; this module assembles it, solves it once at
Gamma = Gamma_1, and certifies solutions by independent polynomial
expansion.

Gamma is generated by two concordant matrices built from the Jacobian

    Gamma_1 = [[1, 0], [j11, j12]],   Gamma_2 = [[0, 1], [j21, j22]],

so Gamma = a Gamma_1 + b Gamma_2 automatically ties its second row to
the first row propagated by J.  The remaining unknowns are the Theta
entries, coupled degree by degree through shift/differentiation
matrices.

An exact system is worked over the integers with one common
denominator.  The constraints are assembled from J and phi scaled by
D, the lcm of their denominators, straight into the sparse integer rows
that :func:`~polycycle.linalg.solve_min_norm_exact` eliminates; the
dense Fraction matrix is built only when asked for.  The solve returns
integer numerators over one denominator, and the change of variables
holds Gamma and each Theta_k in one form, a dict {degree: block} of
integer numerators over the block's own denominator
(:class:`~polycycle.monomials.Scaled`); Fractions are made only where
H is evaluated at exact points.  The certificate expands D_h H along
D_f f in integer polynomials and divides by D_h D_f once.  Float
systems go through the same assembly with scale 1, are solved from the
dense matrix by least squares, and hold float64 blocks.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .linalg import (
    rank_exact,
    rank_float,
    solve_min_norm_exact,
    solve_min_norm_float,
)
from .monomials import Scaled, as_array, as_float, as_scaled, denominator_lcm, eval_poly_map, numerators
from .polyops import poly_add, poly_from_lambda_row, poly_max_abs, poly_scale
from .system import PlanarPolySystem, lie_derivative

__all__ = [
    "ChangeOfVariables",
    "ConstraintSystem",
    "NoSolutionError",
    "min_degree_bound",
    "gamma_matrix",
    "assemble_constraints",
    "solve_theta",
    "component_polynomial",
    "residual_condition33",
    "counting_identity",
]

def min_degree_bound(n: int) -> int:
    """Smallest Theta degree m making unknowns outnumber equations.

    For a system of nonlinear degree n the constraint block has
    (m^2 + (2n+1) m + n(n+1) - 6) / 2 equations against m^2 + 3m - 2
    unknowns; this returns the least m for which unknowns exceed
    equations, i.e. the ceiling of (2n - 5 + sqrt(8n^2 - 16n + 25)) / 2.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"degree bound needs n >= 2, got {n!r}")
    disc = 8 * n * n - 16 * n + 25
    m = 1
    while 2 * m - 2 * n + 5 < 0 or (2 * m - 2 * n + 5) ** 2 < disc:
        m += 1
    return m


def gamma_matrix(jac: np.ndarray, a, b) -> np.ndarray:
    """Gamma = a Gamma_1 + b Gamma_2 from the concordant generators of J."""
    return np.array(
        [[a, b], [a * jac[0, 0] + b * jac[1, 0], a * jac[0, 1] + b * jac[1, 1]]],
        dtype=jac.dtype,
    )


@dataclass(frozen=True)
class ConstraintSystem:
    """Assembled linear system over the change-of-variables unknowns.

    ``rows[i]`` is equation i of ``scale`` * [A | b] as a sparse row
    {column: entry}, the right-hand side in column ``unknown_count``.
    An exact system is scaled by the lcm D of its coefficient
    denominators, so every entry is an int; a float system has scale 1.
    The dense ``matrix`` and ``rhs`` are built from the rows on first
    use.

    A ``free`` system is homogeneous with (a, b) as the two leading
    unknowns and ``rhs`` is None; otherwise (a, b) = (1, 0), Gamma =
    Gamma_1, and ``rhs`` carries the induced inhomogeneity.
    """

    rows: tuple[dict, ...]
    scale: int
    exact: bool
    unknown_layout: tuple
    m: int
    free: bool

    @property
    def unknown_count(self) -> int:
        return len(self.unknown_layout)

    @property
    def equation_count(self) -> int:
        return len(self.rows)

    @cached_property
    def _dense(self) -> tuple[np.ndarray, np.ndarray | None]:
        rows = self.rows
        if self.exact:
            rows = [{c: Fraction(v, self.scale) for c, v in row.items()} for row in rows]
        width = self.unknown_count
        full = np.zeros((len(rows), width + 1), dtype=object if self.exact else float)
        for line, row in zip(full, rows):
            for c, value in row.items():
                line[c] = value
        return full[:, :width], None if self.free else full[:, width]

    @property
    def matrix(self) -> np.ndarray:
        return self._dense[0]

    @property
    def rhs(self) -> np.ndarray | None:
        return self._dense[1]

    def rank(self) -> int:
        """Rank of A; an exact system is eliminated from its own
        integer rows, without the right-hand-side column."""
        if self.exact:
            width = self.unknown_count
            return rank_exact([{c: v for c, v in row.items() if c < width} for row in self.rows], width)
        return rank_float(self.matrix)

    def nullspace_dimension(self) -> int:
        return self.unknown_count - self.rank()


def _theta_layout(m: int) -> list[tuple]:
    labels = []
    for k in range(2, m + 1):
        for row in (1, 2):
            for col in range(1, k + 2):
                labels.append(("theta", k, row, col))
    return labels


def assemble_constraints(system: PlanarPolySystem, m: int, free: bool = False) -> ConstraintSystem:
    """Assemble the degree-by-degree constraints on Gamma and Theta.

    Parameters
    ----------
    system : PlanarPolySystem
        The planar system; its exactness decides the arithmetic.
    m : int
        Highest Theta degree carried by the candidate change of
        variables (at least 2).
    free : bool, optional
        Leave the system homogeneous in all of (a, b, Theta).  By
        default (a, b) = (1, 0), the Gamma_1 that :func:`solve_theta`
        solves at.

    Returns
    -------
    ConstraintSystem
        One row block per monomial degree k = 2 .. m + n - 1, each of
        height k + 1: row i of block k is the coefficient of
        u^(k-i) v^i in d/dt (H(X))_1 - (H(X))_2.

    Row 1 of Theta_l meets the degree-j field block phi_j (phi_1 = J)
    in block k = j + l - 1.  Differentiating u^(l-c) v^c along the
    field gives (l-c) u^(l-c-1) v^c u' + c u^(l-c) v^(c-1) v', so the
    entry of column c in row i is

        (l - c) phi_j[0, i - c] + c phi_j[1, i - c + 1],

    with out-of-range indices counting as zero.  Row 2 of Theta_k enters
    block k as -1 on the diagonal, and the degree-k field block through
    Gamma's first row (a, b) as a phi_k[0, i] + b phi_k[1, i]: the
    coefficients of the unknowns a and b in a free system, and the
    right-hand side -phi_k[0, i] at Gamma_1.

    An exact system is written over the integers: J and the phi_k are
    scaled once by D, the lcm of their denominators, so the couplings are
    the same combinations of D phi_j, the row-2 entries are -D and the
    right-hand side is -D phi_k[0, i].  Each row is D times the rational
    one, so its primitive integer form is the same.
    """
    if m < 2:
        raise ValueError(f"theta degree m must be >= 2, got {m}")
    n = system.degree
    exact = system.exact

    theta_cols: dict[tuple, int] = {}
    layout: list[tuple] = []
    if free:
        layout.extend([("a",), ("b",)])
    for label in _theta_layout(m):
        theta_cols[label] = len(layout)
        layout.append(label)
    width = len(layout)

    blocks = (system.jac, *system.phi)
    scale = 1
    if exact:
        scale = denominator_lcm(blocks)
        blocks = [numerators(block, scale) for block in blocks]
    phi_rows = {j: block.tolist() for j, block in enumerate(blocks, start=1)}
    # pairs (phi_j[0, s - 1], phi_j[1, s]) for s = 0 .. j + 1, zero out of range
    shifted = {j: list(zip([0, *u], [*v, 0])) for j, (u, v) in phi_rows.items()}

    rows: list[dict] = []
    for k in range(2, m + n):
        # row 2 of Theta_k appears directly, as -1 (times the scale) on
        # the diagonal of block k
        if k <= m:
            c0 = theta_cols[("theta", k, 2, 1)]
            block_rows = [{c0 + i: -scale} for i in range(k + 1)]
        else:
            block_rows = [{} for _ in range(k + 1)]
        # contribution of the degree-k field block through Gamma's first row
        if 2 <= k <= n:
            if free:
                for row, u, v in zip(block_rows, *phi_rows[k]):
                    if u:
                        row[0] = u
                    if v:
                        row[1] = v
            else:
                for row, u in zip(block_rows, phi_rows[k][0]):
                    if u:
                        row[width] = -u
        # derivative couplings: row 1 of each Theta_l with j + l - 1 = k
        for l in range(2, m + 1):
            j = k - l + 1
            if j < 1 or j > n:
                continue
            pairs = shifted[j]
            c0 = theta_cols[("theta", l, 1, 1)]
            for c in range(l + 1):
                # pairs[s] meets column c in row i = c - 1 + s
                col, wu = c0 + c, l - c
                for row, (pu, pv) in zip(block_rows[c - 1 :] if c else block_rows, pairs[0 if c else 1 :]):
                    value = wu * pu + c * pv
                    if value:
                        row[col] = value
        rows.extend(block_rows)

    return ConstraintSystem(
        rows=tuple(rows),
        scale=scale,
        exact=exact,
        unknown_layout=tuple(layout),
        m=m,
        free=free,
    )


@dataclass(frozen=True)
class ChangeOfVariables:
    """Solved change of variables H(X) = Gamma X + sum Theta_k lambda_k.

    ``blocks`` maps degree 1 to Gamma, whose first row is (a, b), and
    each k = 2 .. m to Theta_k.  An exact change of variables holds
    every block as integer numerators over one denominator
    (:class:`~polycycle.monomials.Scaled`), the form the integer stages
    compute with; a float one holds float64 arrays.
    ``equation_count``, ``unknown_count`` and ``rank`` describe the
    linear system over the Theta entries that :func:`solve_theta`
    solved; they are None for a change of variables built directly.
    """

    blocks: dict
    equation_count: int | None = None
    unknown_count: int | None = None
    rank: int | None = None

    @property
    def m(self) -> int:
        return max(self.blocks)

    @property
    def exact(self) -> bool:
        return isinstance(self.blocks[1], Scaled)

    def block(self, k: int):
        """Gamma for k = 1, Theta_k (zero-filled when absent) for k >= 2."""
        if k < 1:
            raise ValueError(f"blocks start at degree 1, got {k}")
        if k in self.blocks:
            return self.blocks[k]
        if self.exact:
            return Scaled(np.zeros((2, k + 1), dtype=object), 1)
        return np.zeros((2, k + 1))

    def h_evaluate(self, point) -> np.ndarray:
        """H at a point (u, v), or at each column of a (2, N) array;
        exact blocks evaluate as Fractions."""
        return eval_poly_map({k: as_array(b) for k, b in self.blocks.items()}, point)

    def to_float(self) -> "ChangeOfVariables":
        if not self.exact:
            return self
        return dataclasses.replace(self, blocks={k: as_float(b) for k, b in self.blocks.items()})


def component_polynomial(blocks: dict, row: int):
    """Row ``row`` (1 or 2) of the blocks {degree: block} as an
    exponent-dict polynomial; Scaled blocks become Fractions and float64
    entries Python floats, which multiply faster than numpy scalars and
    round the same."""
    if row not in (1, 2):
        raise ValueError(f"row must be 1 or 2, got {row!r}")
    p = {}
    for k in sorted(blocks):
        # each block has its own degree, so no exponent is met twice
        p.update(poly_from_lambda_row(k, as_array(blocks[k])[row - 1].tolist()))
    return p


class NoSolutionError(RuntimeError):
    """Raised when Gamma_1 is singular or the constraint system is inconsistent."""


def _extract_cov(solution, cs: ConstraintSystem, rank: int, gamma) -> ChangeOfVariables:
    """The change of variables from Gamma and the solution of ``cs``:
    float64 values, or integer numerators over one denominator,
    (nums, den), of which each Theta_k block keeps its own, reduced by
    their gcd."""
    # the layout lists the entries of each Theta_k row by row, k = 2 .. m
    nums, den = solution if cs.exact else (solution, None)
    blocks = {1: gamma}
    start = 0
    for k in range(2, cs.m + 1):
        end = start + 2 * (k + 1)
        part = nums[start:end]
        if cs.exact:
            g = math.gcd(den, *part)
            blocks[k] = Scaled(np.array([v // g for v in part], dtype=object).reshape(2, k + 1), den // g)
        else:
            blocks[k] = np.array(part, dtype=float).reshape(2, k + 1)
        start = end
    return ChangeOfVariables(
        blocks=blocks,
        equation_count=cs.equation_count,
        unknown_count=cs.unknown_count,
        rank=rank,
    )


def solve_theta(system: PlanarPolySystem, m: int | None = None) -> ChangeOfVariables:
    """Find the change of variables with Gamma = Gamma_1, by one solve.

    (a, b) = (1, 0) and Theta runs to degree ``m``, by default the
    counting bound for the system's degree n (2 for a linear system).
    The inhomogeneous system in the Theta entries is solved exactly for
    an exact system and in floats otherwise, keeping the minimum-norm
    solution.  No other (a, b) or degree could be needed:

    - det(a Gamma_1 + b Gamma_2) = j12 a^2 + (j22 - j11) ab - j21 b^2
      has discriminant (j11 - j22)^2 + 4 j12 j21 = tau^2 - 4 delta < 0
      for a complex pair, so the form is definite and det Gamma_1 =
      j12 != 0.
    - For m >= n, H = (u, f_1(u, v)) solves the system, since
      d/dt u = f_1: row 1 of every Theta_k is zero and row 2 of Theta_k
      is row 1 of phi_k.  The counting bound is >= n for every n >= 2.

    Raises
    ------
    NoSolutionError
        When Gamma_1 is singular (j12 = 0, or |j12| < 1e-12 in floats)
        or the system is inconsistent (m < n, or a float solve that
        fails numerically).
    """
    n = system.degree
    if m is None:
        m = min_degree_bound(n) if n >= 2 else 2
    j12 = system.jac[0, 1]
    if j12 == 0 or (not system.exact and abs(j12) < 1e-12):
        raise NoSolutionError(f"Gamma_1 is singular (j12 = {j12}); no change of variables")
    cs = assemble_constraints(system, m)
    if system.exact:
        sol, rank = solve_min_norm_exact(cs.rows, cs.unknown_count)
        # Gamma_1 = [[1, 0], first row of J], without Fraction arithmetic
        gamma = as_scaled(np.array([[1, 0], system.jac[0].tolist()], dtype=object))
    else:
        sol, rank = solve_min_norm_float(cs.matrix, cs.rhs)
        gamma = gamma_matrix(system.jac, 1.0, 0.0)
    if sol is None:
        raise NoSolutionError(
            f"no change of variables at theta degree {m} (system degree {n}):"
            f" the constraint system is inconsistent (rank {rank})"
        )
    return _extract_cov(sol, cs, rank, gamma)


def residual_condition33(cov: ChangeOfVariables, system: PlanarPolySystem):
    """Certificate for the defining condition, by independent expansion.

    Expands d/dt (H(X))_1 - (H(X))_2 along the field as a polynomial in
    the phase variables using plain coefficient arithmetic (no shift
    matrices, no assembled rows) and returns the largest coefficient
    magnitude.  Exact inputs are expanded over the integers: with D_h
    and D_f the lcms of the denominators of H and of the field, the
    expansion is L_{D_f f}(D_h h1) - D_f D_h h2, and its largest
    coefficient is divided by D_h D_f once.  The result is exact (a
    Fraction, or 0), so a correct change of variables certifies to
    literal zero.
    """
    exact = cov.exact and system.exact
    if exact:
        d_h = math.lcm(*(b.den for b in cov.blocks.values()))
        blocks = {k: b.num * (d_h // b.den) for k, b in cov.blocks.items()}
        d_f = denominator_lcm((system.jac, *system.phi))
        system = PlanarPolySystem(numerators(system.jac, d_f), tuple(numerators(p, d_f) for p in system.phi))
    else:
        d_h = d_f = 1
        blocks = {k: as_float(b) for k, b in cov.blocks.items()}
        system = system.to_float()
    res = poly_add(
        lie_derivative(component_polynomial(blocks, 1), system),
        poly_scale(component_polynomial(blocks, 2), -d_f),
    )
    top = poly_max_abs(res)
    return Fraction(top, d_h * d_f) if exact and top else top


def counting_identity(n: int, m: int) -> tuple[int, int]:
    """Closed-form (unknowns, equations) counts for the free system."""
    u = m * m + 3 * m - 2
    e = (m * m + (2 * n + 1) * m + n * (n + 1) - 6) // 2
    return u, e
