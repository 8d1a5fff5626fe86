"""Exact-rational and floating-point linear solvers.

The exact route runs one integer kernel: each row of [A | b] is scaled
to coprime integers (denominators cleared, content divided out) and
reduced by fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp.
22, 1968) on sparse rows.  A row already zero in the pivot column is
skipped, so the banded structure of the constraint matrices survives,
and every combined row is divided by its content, so entries stay near
the size of the minors they encode instead of growing to full
determinants.  Consistency and rank come out of the same elimination,
without tolerance, and Fractions are created only for the final values.
:func:`rref` is the plain Fraction Gauss-Jordan; no solver uses it, the
tests keep it as the reference the integer kernel must reproduce.

The float route uses SVD-based rank with a relative threshold and least
squares.  Both pick the minimum-norm element of the solution affine
space so results are canonical, and both return the rank of A with it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "fraction_rows",
    "rref",
    "integer_rref",
    "rank_exact",
    "nullspace_exact",
    "solve_min_norm_exact",
    "rank_float",
    "nullspace_dim_float",
    "solve_min_norm_float",
]

SV_REL_TOL = 1e-10

# A sparse integer row: column index -> nonzero entry.
Row = dict[int, int]


def fraction_rows(matrix) -> list[list[Fraction]]:
    arr = np.asarray(matrix, dtype=object)
    return [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in arr]


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (in a copy) and the pivot columns."""
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _width(matrix) -> int:
    return len(matrix[0]) if len(matrix) else 0


def _primitive(row: Row) -> Row:
    """The row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    if g == 1:
        return row
    return {k: v // g for k, v in row.items()}


def _integer_rows(matrix, rhs=None) -> list[Row]:
    """Rows of A (or of [A | b]) as coprime integer rows; zero rows dropped."""
    out = []
    for i, row in enumerate(matrix):
        entries = list(row) if rhs is None else [*row, rhs[i]]
        frac = {
            k: x if isinstance(x, (int, Fraction)) else Fraction(x)
            for k, x in enumerate(entries)
            if x != 0
        }
        if frac:
            den = math.lcm(*(x.denominator for x in frac.values()))
            scaled = {k: x.numerator * (den // x.denominator) for k, x in frac.items()}
            out.append(_primitive(scaled))
    return out


def _cancel(row: Row, pivot_row: Row, c: int) -> Row:
    """Integer combination of ``row`` and ``pivot_row`` that is zero in column c."""
    g = math.gcd(pivot_row[c], row[c])
    a, b = pivot_row[c] // g, row[c] // g
    out = {k: a * v for k, v in row.items()}
    for k, v in pivot_row.items():
        w = out.get(k, 0) - b * v
        if w:
            out[k] = w
        else:
            del out[k]
    return _primitive(out) if out else out


def _echelon(rows: list[Row], width: int) -> tuple[list[Row], list[int]]:
    """Row echelon form: the pivot rows in column order and their pivot columns.

    The pivot for each column is the sparsest row that has it, which
    keeps fill-in low; the pivot columns do not depend on that choice.
    """
    active = rows
    done: list[Row] = []
    pivots: list[int] = []
    for c in range(width):
        hits = [r for r in active if c in r]
        if not hits:
            continue
        p = min(hits, key=len)
        rest = []
        for r in active:
            if r is p:
                continue
            if c in r:
                r = _cancel(r, p, c)
                if not r:
                    continue
            rest.append(r)
        active = rest
        done.append(p)
        pivots.append(c)
    return done, pivots


def _reduce(rows: list[Row], pivots: list[int]) -> None:
    """Clear the entries above each pivot of an echelon form, in place."""
    for i in range(len(rows) - 1, 0, -1):
        c, p = pivots[i], rows[i]
        for j in range(i):
            if c in rows[j]:
                rows[j] = _cancel(rows[j], p, c)


def integer_rref(matrix) -> tuple[list[Row], list[int]]:
    """Integer reduced row echelon form and the pivot columns.

    Row i is zero in every pivot column but ``pivots[i]``; dividing it
    by its entry there gives row i of the rational RREF.
    """
    rows, pivots = _echelon(_integer_rows(matrix), _width(matrix))
    _reduce(rows, pivots)
    return rows, pivots


def rank_exact(matrix) -> int:
    return len(_echelon(_integer_rows(matrix), _width(matrix))[1])


def nullspace_exact(matrix) -> list[list[Fraction]]:
    """Basis of the kernel, one vector per free column."""
    n = _width(matrix)
    rows, pivots = integer_rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, c in zip(rows, pivots):
            if f in row:
                v[c] = Fraction(-row[f], row[c])
        basis.append(v)
    return basis


def solve_min_norm_exact(matrix, rhs) -> tuple[list[Fraction] | None, int]:
    """Minimum-norm exact solution of A x = b (None when inconsistent) and rank A.

    Row i of the integer RREF of [A | b] reads p_i x_{c_i} + e_i . x_F =
    beta_i, with x_F the free unknowns.  The norm is least where
    (I + sum_i e_i e_i^T / p_i^2) x_F = sum_i e_i beta_i / p_i^2; scaled
    by D^2, D = lcm(p_i), that Gram system has integer entries and goes
    through the same kernel.
    """
    n = _width(matrix)
    rows, pivots = _echelon(_integer_rows(matrix, rhs), n + 1)
    if pivots and pivots[-1] == n:
        return None, len(pivots) - 1
    _reduce(rows, pivots)
    rank = len(pivots)
    x = [Fraction(0)] * n
    coupled = []
    for row, c in zip(rows, pivots):
        if len(row) - (n in row) > 1:
            coupled.append((row, c))
        else:
            x[c] = Fraction(row.get(n, 0), row[c])
    if not coupled:
        return x, rank

    pivot_set = set(pivots)
    free = [f for f in range(n) if f not in pivot_set]
    slot = {f: i for i, f in enumerate(free)}
    d = math.lcm(*(row[c] for row, c in coupled))
    gram = [[0] * len(free) for _ in free]
    for i in range(len(free)):
        gram[i][i] = d * d
    proj = [0] * len(free)
    for row, c in coupled:
        s = d // row[c]
        e = [(slot[k], v * s) for k, v in row.items() if k != c and k != n]
        beta = row.get(n, 0) * s
        for i, u in e:
            proj[i] += u * beta
            g = gram[i]
            for j, w in e:
                g[j] += u * w
    g_rows, g_pivots = _echelon(_integer_rows(gram, proj), len(free) + 1)
    _reduce(g_rows, g_pivots)
    # x_F = X / q over one common denominator q
    q = math.lcm(*(r[c] for r, c in zip(g_rows, g_pivots)))
    free_num = {free[c]: r.get(len(free), 0) * (q // r[c]) for r, c in zip(g_rows, g_pivots)}
    for f, value in free_num.items():
        x[f] = Fraction(value, q)
    for row, c in coupled:
        num = row.get(n, 0) * q - sum(v * free_num[k] for k, v in row.items() if k != c and k != n)
        x[c] = Fraction(num, row[c] * q)
    return x, rank


def rank_float(matrix, rel_tol: float = SV_REL_TOL) -> int:
    a = np.asarray(matrix, dtype=float)
    if a.size == 0:
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def nullspace_dim_float(matrix, rel_tol: float = SV_REL_TOL) -> int:
    a = np.asarray(matrix, dtype=float)
    return a.shape[1] - rank_float(a, rel_tol)


def solve_min_norm_float(matrix, rhs, rel_tol: float = SV_REL_TOL, consistency_tol: float = 1e-9):
    """Minimum-norm least-squares solution (None when inconsistent) and rank A.

    The rank is the one ``lstsq`` determines with the same relative
    cut-off as :func:`rank_float`.  Consistency means the residual is
    small relative to the data: a genuinely unsolvable system leaves an
    O(1) residual, roundoff leaves ~1e-13, so the default threshold
    separates them cleanly.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.size == 0:
        return np.zeros(0), 0
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=rel_tol)
    res = float(np.linalg.norm(a @ x - b))
    scale = max(1.0, float(np.linalg.norm(b)), float(np.linalg.norm(a @ x)))
    if res > consistency_tol * scale:
        return None, int(rank)
    return x, int(rank)
