"""Truncated power-series inversion of the change of variables.

The inverse of H(X) = Gamma X + Theta_2 lambda_2(X) + Theta_3 lambda_3(X) + ...
is computed through cubic order,

    X = Gamma^{-1} Y + Xi_2 lambda_2(Y) + Xi_3 lambda_3(Y) + O(|Y|^4),

using two operators on monomial vectors: ``p_operator(k, A)`` is the
matrix with lambda_k(A Y) = P_k(A) lambda_k(Y) (functoriality of the
monomial map), and ``r2_operator(A, B)`` collects the cubic cross terms
of lambda_2 evaluated at A Y + B lambda_2(Y),

    lambda_2(A Y + B lambda_2(Y)) = P_2(A) lambda_2(Y)
                                    + R2(A, B) lambda_3(Y) + O(|Y|^4).

Both operators are products of coefficient rows, formed entry by entry
over the Python scalars of A and B (:func:`~polycycle.monomials.row_product`),
and come back in the dtype of A and B.

An exact series is worked over the integers, each block as integer
numerators over one denominator (:class:`~polycycle.monomials.Scaled`).
With Gamma = G / d_Gamma and G integral, Gamma^{-1} is d_Gamma adj(G)
over det(G); P_k(Gamma^{-1}) is P_k of those numerators over det(G)^k,
a product multiplies denominators and a sum brings its terms to their
lcm.  The series holds its blocks in that form, and only
:meth:`InverseSeries.evaluate` turns them into Fractions.  The block
expressions are written once (:func:`_series`) and rendered into two
straight-line routines (:func:`~polycycle.monomials.straight_line`),
each at the first series of its arithmetic in the process: over
Python ints, where every numerator and denominator of P_2, P_3, Xi_2,
R2 and Xi_3 is the integer the expressions give on Scaled blocks, and
over Python floats, where every entry of Gamma^{-1} and of those blocks
is the expressions' result on object arrays of floats, bit for bit.
Only Gamma^{-1} (or Gamma), Theta_2 and Theta_3 enter, so each routine
has one shape whatever the degrees.

Composing H with the truncation leaves a quartic-order defect; the
empirical trust radius estimates where that defect stays small.  The
scan points are the same in every analysis, so the table of their
degree-1 to 3 monomials is built once, at import.  The scan is then two
matrix products: the series blocks side by side times that table give
X, and the blocks of H side by side times the table of X's monomials
give H(X).  :meth:`InverseSeries.evaluate` and
:meth:`~polycycle.change_of_variables.ChangeOfVariables.h_evaluate`
stay the pointwise evaluations, exact for exact blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .change_of_variables import ChangeOfVariables
from .monomials import Scaled, as_array, as_float, eval_poly_map, monomial_table, row_product, straight_line

__all__ = [
    "InverseSeries",
    "p_operator",
    "r2_operator",
    "invert_to_cubic",
    "composition_residual",
    "residual_slope",
    "trust_radius",
]

# Equally spaced directions per circle in the composition scan.
DIRECTIONS = 24
# Radii of the trust scan, 8 per decade from 1e-4 to 4; a radius is
# trusted while the defect stays at or below REL_DEFECT times it.
TRUST_GRID = np.geomspace(1e-4, 4.0, 38)
REL_DEFECT = 0.1


def p_operator(k: int, a) -> np.ndarray:
    """Matrix of the degree-k monomial map applied after A.

    Satisfies lambda_k(A y) = p_operator(k, A) lambda_k(y) for every y;
    in particular it is multiplicative in A.  Row i is the coefficient
    row of (A y)_1^(k-i) (A y)_2^i, a product of powers of A's rows.
    Exact for an object array of ints and Fractions, float64 otherwise;
    for a :class:`~polycycle.monomials.Scaled` A it is P_k of the
    numerators over den^k, since P_k is homogeneous of degree k.
    """
    if isinstance(a, Scaled):
        return Scaled(p_operator(k, a.num), a.den**k)
    if k < 1:
        raise ValueError(f"p_operator needs k >= 1, got {k}")
    mat = np.asarray(a)
    if mat.shape != (2, 2):
        raise ValueError(f"A must be 2x2, got {mat.shape}")
    first, second = mat.tolist()
    powers_u, powers_v = [[1]], [[1]]
    for _ in range(k):
        powers_u.append(row_product(powers_u[-1], first))
        powers_v.append(row_product(powers_v[-1], second))
    return np.array([row_product(powers_u[k - i], powers_v[i]) for i in range(k + 1)], dtype=mat.dtype)


def r2_operator(a, b) -> np.ndarray:
    """Cubic cross-term block of lambda_2 at A y + B lambda_2(y).

    The rows of lambda_2 are (A y)_1^2, (A y)_1 (A y)_2 and (A y)_2^2;
    adding B lambda_2(y) to A y gives them the cubic parts 2 A_1 B_1,
    A_1 B_2 + A_2 B_1 and 2 A_2 B_2, with A_i and B_i the rows of A and
    B and each product a product of coefficient rows.  Bilinear, so for
    :class:`~polycycle.monomials.Scaled` blocks the denominators multiply.
    """
    if isinstance(a, Scaled):
        return Scaled(r2_operator(a.num, b.num), a.den * b.den)
    mat_a = np.asarray(a)
    mat_b = np.asarray(b)
    if mat_a.shape != (2, 2) or mat_b.shape != (2, 3):
        raise ValueError(f"expected shapes (2,2) and (2,3), got {mat_a.shape} and {mat_b.shape}")
    (a1, a2), (b1, b2) = mat_a.tolist(), mat_b.tolist()
    cross = [x + y for x, y in zip(row_product(a1, b2), row_product(a2, b1))]
    rows = [[2 * x for x in row_product(a1, b1)], cross, [2 * x for x in row_product(a2, b2)]]
    return np.array(rows, dtype=np.result_type(mat_a, mat_b))


@dataclass(frozen=True)
class InverseSeries:
    """Truncated inverse X = Gamma^{-1} Y + Xi_2 lambda_2 + Xi_3 lambda_3.

    ``blocks`` maps each degree k = 1, 2, 3 to its coefficient block,
    Gamma^{-1}, Xi_2 and Xi_3; ``p2_op``, ``p3_op`` and ``r2_op`` are the
    operators the series was built from, P_2(Gamma^{-1}), P_3(Gamma^{-1})
    and R2(Gamma^{-1}, Xi_2), which the G rows reuse.  They are
    :class:`~polycycle.monomials.Scaled` blocks for an exact series and
    float64 arrays otherwise, the form the G rows compute with.
    """

    blocks: dict
    p2_op: Scaled | np.ndarray
    p3_op: Scaled | np.ndarray
    r2_op: Scaled | np.ndarray

    @property
    def exact(self) -> bool:
        return isinstance(self.p2_op, Scaled)

    def evaluate(self, point) -> np.ndarray:
        """X at a point Y = (u, v), or at each column of a (2, N) array;
        exact blocks evaluate as Fractions."""
        return eval_poly_map({k: as_array(b) for k, b in self.blocks.items()}, point)

    def to_float(self) -> "InverseSeries":
        if not self.exact:
            return self
        return InverseSeries(
            {k: b.to_float() for k, b in self.blocks.items()},
            self.p2_op.to_float(),
            self.p3_op.to_float(),
            self.r2_op.to_float(),
        )


def _adjugate(m: np.ndarray) -> tuple[np.ndarray, object]:
    """adj(M) and det(M) of a 2 x 2 matrix, so that M^{-1} = adj(M) / det(M)."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=m.dtype), det


def _series(ginv, theta2, theta3) -> tuple:
    """P_2, P_3, Xi_2, R2 and Xi_3 of the inverse from Gamma^{-1}, Theta_2
    and Theta_3, rendered into the integer routine (:func:`_exact_series`)
    and the float one (:func:`_float_series`)."""
    p2 = p_operator(2, ginv)
    p3 = p_operator(3, ginv)
    xi2 = -(ginv @ theta2 @ p2)
    r2 = r2_operator(ginv, xi2)
    xi3 = -(ginv @ (theta2 @ r2 + theta3 @ p3))
    return p2, p3, xi2, r2, xi3


def _float_inverse(gamma, theta2, theta3) -> tuple:
    """Gamma^{-1} = adj(Gamma) / det(Gamma), then :func:`_series`."""
    adj, det = _adjugate(gamma)
    ginv = adj / det
    return (ginv, *_series(ginv, theta2, theta3))


_SHAPES = ((2, 2), (2, 3), (2, 4))


@lru_cache(maxsize=1)
def _exact_series():
    """The integer routine of :func:`_series` on Scaled blocks, rendered
    on first use."""
    return straight_line(_series, _SHAPES, "exact inverse series", scaled=True)


@lru_cache(maxsize=1)
def _float_series():
    """The float routine of :func:`_float_inverse`, rendered on first use."""
    return straight_line(_float_inverse, _SHAPES, "inverse series")


_SINGULAR = "Gamma is singular; the change of variables cannot be inverted"


def invert_to_cubic(cov: ChangeOfVariables) -> InverseSeries:
    """Series inverse of a solved change of variables through cubic order."""
    gamma, theta2, theta3 = cov.block(1), cov.block(2), cov.block(3)
    if cov.exact:
        # (G / d)^{-1} = d adj(G) / det(G), over a positive denominator
        adj, det = _adjugate(gamma.num)
        if det == 0:
            raise ZeroDivisionError(_SINGULAR)
        sign = 1 if det > 0 else -1
        ginv = Scaled(adj * (sign * gamma.den), sign * det)
        p2, p3, xi2, r2, xi3 = _exact_series()(ginv, theta2, theta3)
    else:
        try:
            ginv, p2, p3, xi2, r2, xi3 = _float_series()(gamma, theta2, theta3)
        except ZeroDivisionError:
            raise ZeroDivisionError(_SINGULAR) from None
    return InverseSeries(blocks={1: ginv, 2: xi2, 3: xi3}, p2_op=p2, p3_op=p3, r2_op=r2)


def _scan_table(radii: np.ndarray) -> np.ndarray:
    """lambda_1 ... lambda_3 of the scan points, DIRECTIONS equally
    spaced ones on each circle |Y| = r; rows 0 and 1 are Y itself."""
    angles = 2.0 * math.pi * np.arange(DIRECTIONS) / DIRECTIONS
    # direction-major, so the circles are the columns of a (DIRECTIONS, R) view
    y = np.stack([np.outer(np.cos(angles), radii), np.outer(np.sin(angles), radii)]).reshape(2, -1)
    return monomial_table(3, y)


# The trust scan's points are the same in every analysis (38 x 24 of
# them), so their cubic monomial table is built once.
_TRUST_TABLE = _scan_table(TRUST_GRID)


def _worst_defects(cov: ChangeOfVariables, inv: InverseSeries, table: np.ndarray) -> np.ndarray:
    """Max of |H(X) - Y| on each circle, X the truncated inverse at Y.

    X is one matrix product of [Gamma^{-1} | Xi_2 | Xi_3] with the
    table of the scan points, H(X) one of [Gamma | Theta_2 | ... |
    Theta_m] with the monomial table of X.  A product that overflows
    float64 gives an inf or NaN defect, without a numpy warning.
    """
    series = np.concatenate([as_float(inv.blocks[k]) for k in (1, 2, 3)], axis=1)
    h_map = np.concatenate([as_float(cov.block(k)) for k in range(1, cov.m + 1)], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        x = series @ table
        h = h_map @ monomial_table(cov.m, x)
        return np.hypot(*(h - table[:2])).reshape(DIRECTIONS, -1).max(axis=0)


def composition_residual(cov: ChangeOfVariables, inv: InverseSeries, radii) -> list[tuple[float, float]]:
    """Max norm of H(H_trunc^{-1}(Y)) - Y over circles |Y| = r.

    Returns (radius, residual) pairs, floating point; directions are
    equally spaced so the scan is deterministic.  All points of all
    circles go through H and the inverse at once (:func:`_worst_defects`).
    """
    radii = np.asarray(radii, dtype=float)
    table = _TRUST_TABLE if np.array_equal(radii, TRUST_GRID) else _scan_table(radii)
    worst = _worst_defects(cov, inv, table)
    return [(float(r), float(w)) for r, w in zip(radii, worst)]


def residual_slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log residual against log radius.

    Pairs with zero residual are dropped (an exactly linear H has no
    defect at all); None when fewer than two usable points remain.
    """
    usable = [(r, res) for r, res in points if res > 0.0 and r > 0.0]
    if len(usable) < 2:
        return None
    xs = np.log([r for r, _ in usable])
    ys = np.log([res for _, res in usable])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


def trust_radius(cov: ChangeOfVariables, inv: InverseSeries) -> float:
    """Largest scanned radius where the composition defect stays small.

    The defect bound is ``REL_DEFECT`` times the radius; the scan is a
    geometric grid, so the answer is a resolution-limited estimate, not
    a certified bound.  Returns 0.0 when even the smallest radius
    violates the bound, or when its defect overflows float64, which
    ``run_analyze`` names in a warning.
    """
    worst = _worst_defects(cov, inv, _TRUST_TABLE)
    # the scan ends at the first radius whose defect is not at or below
    # the bound, a NaN defect included
    count = int(np.logical_and.accumulate(worst <= REL_DEFECT * TRUST_GRID).sum())
    return float(TRUST_GRID[count - 1]) if count else 0.0
