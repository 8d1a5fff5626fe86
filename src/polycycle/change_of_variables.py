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
entries, coupled degree by degree.  Where each constraint entry and
each product of the certificate comes from depends only on the degrees,
so both are read off index tables built once per degree.

An exact system is worked over the integers: the constraints are J and
phi scaled by D, the lcm of their denominators, written straight into
the split that :func:`~polycycle.linalg.solve_min_norm_exact` takes:
the equations of the row-2 Theta_k unknowns as dense integer lists over
the row-1 ones, the other equations as sparse integer rows.  The
change of variables holds Gamma and each Theta_k
as integer numerators over the block's own denominator
(:class:`~polycycle.monomials.Scaled`).  The certificate expands D_h H
along D_f f over the integers and divides by D_h D_f once.  A float
system is gathered into the same split as float64 blocks, which
:func:`~polycycle.linalg.solve_min_norm_float` solves on the split
where a certificate proves the coupled rows force their unknowns to 0
and by least squares on the dense [A | b] otherwise, and holds float64
blocks.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .linalg import FloatSplit, Split, _eliminate, solve_min_norm_exact, solve_min_norm_float
from .monomials import Scaled, as_array, as_float, as_scaled, denominator_lcm, eval_poly_map, numerators
from .polyops import poly_from_lambda_row
from .system import PlanarPolySystem

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


def _slot(k: int, row: int, col: int) -> int:
    """Index of entry (row, col) of the degree-k block in the 2 x (k + 1)
    blocks of degrees 1, 2, ... (J, phi_k or Gamma, Theta_k), flattened."""
    return (k - 1) * (k + 2) + row * (k + 1) + col


@dataclass(frozen=True)
class ConstraintSystem:
    """Assembled linear system over the change-of-variables unknowns.

    ``split`` holds the rows of [A | b], b in column ``unknown_count``,
    with the defining rows set apart.  An exact system holds them as
    integers, ``scale`` * [A | b] with ``scale`` the lcm D of the
    coefficient denominators (:class:`~polycycle.linalg.Split`); ``rows``,
    equation i as a sparse row {column: int}, is built from them on
    first use.  A float system holds them as float64 blocks
    (:class:`~polycycle.linalg.FloatSplit`) and ``scale`` is 1.  The
    dense ``matrix`` and ``rhs``, Fractions or float64, are built on
    first use.

    A ``free`` system is homogeneous with (a, b) as the two leading
    unknowns and ``rhs`` is None; otherwise (a, b) = (1, 0), Gamma =
    Gamma_1, and ``rhs`` carries the induced inhomogeneity.
    """

    split: Split | FloatSplit
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
        return len(self.split.pivots) + len(self.split.coupled)

    @cached_property
    def rows(self) -> tuple[dict, ...] | None:
        return tuple(self.split.rows(self.unknown_count)) if self.exact else None

    @cached_property
    def _dense(self) -> tuple[np.ndarray, np.ndarray | None]:
        width = self.unknown_count
        if not self.exact:
            full = self.split.augmented()
        else:
            full = np.zeros((len(self.rows), width + 1), dtype=object)
            for line, row in zip(full, self.rows):
                for c, value in row.items():
                    line[c] = Fraction(value, self.scale)
        return full[:, :width], None if self.free else full[:, width]

    @property
    def matrix(self) -> np.ndarray:
        return self._dense[0]

    @property
    def rhs(self) -> np.ndarray | None:
        return self._dense[1]

    def nullspace_dimension(self) -> int:
        """Unknowns minus rank A, the rank the arithmetic's own solver returns."""
        if self.exact:
            return self.unknown_count - _eliminate(self.split, self.unknown_count)[2]
        return self.unknown_count - solve_min_norm_float(self.split)[1]


@lru_cache(maxsize=64)
def _coupling_table(n: int, m: int, free: bool):
    """Where each constraint entry comes from, for system degree n and
    Theta degree m: with p the flat coefficients of J, phi_2 .. phi_n
    (see :func:`_slot`), then 0 and the scale, the entry in row r and
    column c is w1 p[i1] + w2 p[i2] for each (r, c, w1, i1, w2, i2),
    listed in the order of the row's keys.  Each row of blocks 2 .. m
    is a defining row, with -1 (times the scale) in a row-2 Theta_k
    column that no other row holds; the rows of blocks m + 1 .. m + n - 1
    are coupled.  Returns the unknown layout, the row count of [A | b],
    the split of the integer rows and that of the float ones.  The
    integer split is the pivot columns, the other columns of A, the
    defining rows' other entries, each with its position in their dense
    rows over those columns and b, and the coupled rows' entries, rows
    from 0.  The float split is the pivot and the other columns as index
    arrays, the positions in (other columns, then b) that the coupled
    rows hold, and the index arrays of one gather into the defining rows
    over the other columns and b, then the coupled rows over the held
    positions, flattened one after the other (positions, then w1, i1,
    w2, i2)."""
    layout = (("a",), ("b",))[: 2 if free else 0]
    layout += tuple(("theta", k, r, c) for k in range(2, m + 1) for r in (1, 2) for c in range(1, k + 2))
    zero, one = n * (n + 3), n * (n + 3) + 1
    shift = (2 if free else 0) - 4  # column of Theta_k[r, c] minus its slot
    width = len(layout)
    entries = []
    row = 0
    for k in range(2, m + n):
        for i in range(k + 1):
            if k <= m:
                entries.append((row, _slot(k, 1, i) + shift, -1, one, 0, zero))
            if k <= n and free:
                entries += [(row, 0, 1, _slot(k, 0, i), 0, zero), (row, 1, 1, _slot(k, 1, i), 0, zero)]
            elif k <= n:
                entries.append((row, width, -1, _slot(k, 0, i), 0, zero))
            # row 1 of Theta_l meets phi_j, j + l - 1 = k, with column c
            # taking phi_j[0, s - 1] and phi_j[1, s] for s = i - c + 1
            for l in range(max(2, k - n + 1), min(m, k) + 1):
                j = k - l + 1
                for c in range(max(0, i - j), min(l, i + 1) + 1):
                    s = i - c + 1
                    pu = _slot(j, 0, s - 1) if s else zero
                    pv = _slot(j, 1, s) if s <= j else zero
                    entries.append((row, _slot(l, 0, c) + shift, l - c, pu, c, pv))
            row += 1
    pivots = tuple(_slot(k, 1, i) + shift for k in range(2, m + 1) for i in range(k + 1))
    others = tuple(c for c in range(width) if c not in pivots)
    at = {c: j for j, c in enumerate([*others, width])}
    top = len(pivots)
    dense = tuple((r * len(at) + at[c], *w) for r, c, *w in entries if r < top and c != pivots[r])
    coupled = tuple((r - top, c, *w) for r, c, *w in entries if r >= top)
    held = sorted({at[c] for _, c, *_ in coupled})
    column = {j: i for i, j in enumerate(held)}
    start = top * len(at)
    gather = [*dense, *((start + r * len(held) + column[at[c]], *w) for r, c, *w in coupled)]
    arrays = [np.array(a, dtype=np.intp).reshape(-1) for a in (pivots, others, held)]
    arrays.append(np.array(gather, dtype=np.intp).T)
    for a in arrays:
        a.flags.writeable = False  # shared by every caller, as the tuples are
    return layout, row, (pivots, others, dense, coupled), tuple(arrays)


def assemble_constraints(system: PlanarPolySystem, m: int, free: bool = False) -> ConstraintSystem:
    """Assemble the degree-by-degree constraints on Gamma and Theta.

    The system's exactness decides the arithmetic; Theta runs to degree
    ``m`` (at least 2).  A ``free`` system is homogeneous in all of
    (a, b, Theta); by default (a, b) = (1, 0), the Gamma_1 that
    :func:`solve_theta` solves at.  There is one row block per monomial
    degree k = 2 .. m + n - 1, each of height k + 1: row i of block k is
    the coefficient of u^(k-i) v^i in d/dt (H(X))_1 - (H(X))_2.

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

    The entries are read off one table per (n, m, free), built on first
    use (:func:`_coupling_table`).  An exact system is written over the
    integers: J and the phi_k are scaled once by D, the lcm of their
    denominators, so the couplings are the same combinations of D phi_j,
    the row-2 entries are -D and the right-hand side is -D phi_k[0, i].
    Each row is D times the rational one, so its primitive integer form
    is the same.  The rows come split as the table splits them
    (:class:`~polycycle.linalg.Split`).  A float system is one gather
    over the table into the same split, as float64 blocks
    (:class:`~polycycle.linalg.FloatSplit`); an entry that overflows is
    left to the solve, which refuses it.
    """
    if m < 2:
        raise ValueError(f"theta degree m must be >= 2, got {m}")
    layout, rows, integer, floats = _coupling_table(system.degree, m, free)
    blocks = (system.jac, *system.phi)
    if system.exact:
        scale = denominator_lcm(blocks)
        p = [x for block in blocks for x in numerators(block, scale).flat] + [0, scale]
        pivots, others, dense, coupled = integer
        values = [0] * (len(pivots) * (len(others) + 1))
        for at, wu, pu, wv, pv in dense:
            values[at] = wu * p[pu] + wv * p[pv]
        split = Split([{} for _ in range(rows - len(pivots))], pivots, -scale, others, values)
        for r, c, wu, pu, wv, pv in coupled:
            value = wu * p[pu] + wv * p[pv]
            if value:
                split.coupled[r][c] = value
        return ConstraintSystem(split, scale, True, layout, m, free)
    pivots, others, held, (flat, w1, i1, w2, i2) = floats
    p = np.concatenate([*(block.reshape(-1) for block in blocks), (0.0, 1.0)])
    top, width = len(pivots), len(others) + 1
    values = np.zeros(top * width + (rows - top) * len(held))
    with np.errstate(over="ignore", invalid="ignore"):
        # + 0.0 makes a -0.0 entry the 0.0 of an entry that is not there
        values[flat] = w1 * p[i1] + w2 * p[i2] + 0.0
    dense, coupled = values[: top * width].reshape(top, width), values[top * width :].reshape(rows - top, len(held))
    return ConstraintSystem(FloatSplit(pivots, -1.0, others, dense, held, coupled), 1, False, layout, m, free)


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
        sol, rank = solve_min_norm_exact(cs.split, cs.unknown_count)
        # Gamma_1 = [[1, 0], first row of J], without Fraction arithmetic
        gamma = as_scaled(np.array([[1, 0], system.jac[0].tolist()], dtype=object))
    else:
        sol, rank = solve_min_norm_float(cs.split)
        gamma = gamma_matrix(system.jac, 1.0, 0.0)
    if sol is None:
        raise NoSolutionError(
            f"no change of variables at theta degree {m} (system degree {n}):"
            f" the constraint system is inconsistent (rank {rank})"
        )
    return _extract_cov(sol, cs, rank, gamma)


@lru_cache(maxsize=64)
def _lie_table(m: int, n: int):
    """The products of d/dt (H(X))_1 - (H(X))_2 for Theta degree m and
    system degree n over the flat coefficients h of Gamma, Theta_k and f
    of J, phi_k (:func:`_slot`), as (weight, h slot, (output, f slot)
    pairs) per term: h[k, 0, i] u^(k-i) v^i meets f[j, 0, s] u^(j-s) v^s
    with weight k - i at v^(i+s) and f[j, 1, s] with weight i at v^(i+s-1)
    in degree k + j - 1; a term of h2 has weight -1 against the field's
    scale, after f.  The monomials of degrees 1 .. m + n - 1 come three
    times, for the d/du, the d/dv and the h2 sums, added as ``lie_derivative``
    adds them, and the products in its order, so a float sum rounds the same."""
    size = (m + n - 1) * (m + n + 2) // 2
    groups = []
    for var in (0, 1):
        for k in range(1, m + 1):
            for i in range(k + 1):
                weight = i if var else k - i
                if weight:
                    pairs = tuple((var * size + (k + j - 1) * (k + j) // 2 - 1 + i + s - var, _slot(j, var, s))
                                  for j in range(1, n + 1) for s in range(j + 1))
                    groups.append((weight, _slot(k, 0, i), pairs))
    groups += [(-1, _slot(k, 1, i), ((2 * size + k * (k + 1) // 2 - 1 + i, n * (n + 3)),))
               for k in range(1, m + 1) for i in range(k + 1)]
    index = np.array([(o, w, hk, fj) for w, hk, pairs in groups for o, fj in pairs], dtype=np.intp).T
    index.flags.writeable = False  # shared by every caller, as the groups are
    return size, tuple(groups), index


def residual_condition33(cov: ChangeOfVariables, system: PlanarPolySystem):
    """Certificate for the defining condition, by independent expansion:
    the largest coefficient magnitude of d/dt (H(X))_1 - (H(X))_2 along
    the field, one product per pair of terms (:func:`_lie_table`), no
    assembled rows.  Exact inputs are expanded over the integers, as
    L_{D_f f}(D_h h1) - D_f D_h h2 with D_h, D_f the lcms of the
    denominators of H and of the field, and divided by D_h D_f once: the
    result is exact (a Fraction, or 0), so a correct change of variables
    certifies to literal zero.  A non-finite float expansion gives nan."""
    m = cov.m
    size, groups, (out, weight, hk, fj) = _lie_table(m, system.degree)
    if cov.exact and system.exact:
        fields = (system.jac, *system.phi)
        d_h = math.lcm(*(b.den for b in cov.blocks.values()))
        h = [x * (d_h // b.den) for b in map(cov.block, range(1, m + 1)) for x in b.num.flat]
        d_f = denominator_lcm(fields)
        f = [x for block in fields for x in numerators(block, d_f).flat] + [d_f]
        res = [0] * (3 * size)
        for w, i, pairs in groups:
            hw = w * h[i]
            if hw:  # row 1 of a Theta_k is often zero
                for o, j in pairs:
                    res[o] += hw * f[j]
        top = max(abs(a + b + c) for a, b, c in zip(res[:size], res[size : 2 * size], res[2 * size :]))
        return Fraction(top, d_h * d_f) if top else 0
    h = np.concatenate([as_float(cov.block(k)).reshape(-1) for k in range(1, m + 1)])
    system = system.to_float()
    f = np.concatenate([*(block.reshape(-1) for block in (system.jac, *system.phi)), (1.0,)])
    du, dv, h2 = np.bincount(out, weight * h[hk] * f[fj], minlength=3 * size).reshape(3, size)
    top = float(np.abs(du + dv + h2).max())
    return top if math.isfinite(top) else math.nan


def counting_identity(n: int, m: int) -> tuple[int, int]:
    """Closed-form (unknowns, equations) counts for the free system."""
    u = m * m + 3 * m - 2
    e = (m * m + (2 * n + 1) * m + n * (n + 1) - 6) // 2
    return u, e
