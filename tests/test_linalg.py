"""Exact and floating-point linear algebra used by the reduction solve."""

import random
from fractions import Fraction

import numpy as np
import pytest

from polycycle.linalg import (
    integer_rref,
    nullspace_dim_float,
    nullspace_exact,
    rank_exact,
    rank_float,
    rref,
    solve_min_norm_exact,
    solve_min_norm_float,
)


def _f(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_known_matrix():
    reduced, pivots = rref(_f([[0, 2, 4], [1, 1, 1]]))
    assert pivots == [0, 1]
    assert reduced == _f([[1, 0, -1], [0, 1, 2]])


def test_rank_exact_detects_dependence():
    assert rank_exact(_f([[1, 2], [2, 4]])) == 1
    assert rank_exact(_f([[1, 2], [3, 4]])) == 2
    # floats would call this full rank
    eps = Fraction(1, 10**30)
    assert rank_exact(_f([[1, 1], [1, 1]]) + [[Fraction(1), Fraction(1) + eps]]) == 2


def test_nullspace_exact_annihilates():
    a = _f([[1, 2, 3], [2, 4, 6]])
    basis = nullspace_exact(a)
    assert len(basis) == 2
    for vec in basis:
        for row in a:
            assert sum(r * x for r, x in zip(row, vec)) == 0


def test_min_norm_exact_unique_case():
    a = _f([[2, 0], [0, 4]])
    x, rank = solve_min_norm_exact(a, [Fraction(6), Fraction(8)])
    assert x == [Fraction(3), Fraction(2)]
    assert rank == 2


def test_min_norm_exact_inconsistent_returns_none():
    a = _f([[1, 0], [1, 0]])
    assert solve_min_norm_exact(a, [Fraction(0), Fraction(1)]) == (None, 1)


def test_min_norm_exact_matches_least_squares():
    rng = np.random.default_rng(23)
    for _ in range(12):
        rows, cols = int(rng.integers(2, 5)), int(rng.integers(5, 9))
        a_int = rng.integers(-4, 5, size=(rows, cols))
        x_int = rng.integers(-3, 4, size=cols)
        rhs_int = a_int @ x_int  # consistent by construction
        a = _f(a_int.tolist())
        rhs = [Fraction(int(b)) for b in rhs_int]
        x, _ = solve_min_norm_exact(a, rhs)
        assert x is not None
        # exact consistency
        for row, b in zip(a, rhs):
            assert sum(r * v for r, v in zip(row, x)) == b
        # exact minimality: orthogonal to the nullspace
        for vec in nullspace_exact(a):
            assert sum(u * v for u, v in zip(x, vec)) == 0
        # and numerically equal to the float least-squares answer
        ref = np.linalg.lstsq(a_int.astype(float), rhs_int.astype(float), rcond=None)[0]
        np.testing.assert_allclose([float(v) for v in x], ref, atol=1e-9)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _reference_min_norm(a, b):
    """Minimum-norm solution through Fraction RREF: a particular solution
    minus its projection on the nullspace (the Gram system solved by RREF
    too), or None when the RREF of [A | b] has a pivot in column b."""
    n = len(a[0])
    red, pivots = rref([row + [v] for row, v in zip(a, b)])
    if pivots and pivots[-1] == n:
        return None
    particular = [Fraction(0)] * n
    for row, c in zip(red, pivots):
        particular[c] = row[n]
    basis = []
    for f in range(n):
        if f not in pivots:
            v = [Fraction(0)] * n
            v[f] = Fraction(1)
            for row, c in zip(red, pivots):
                v[c] = -row[f]
            basis.append(v)
    if not basis:
        return particular
    gram = [[_dot(u, v) for v in basis] + [_dot(u, particular)] for u in basis]
    coeff = [row[-1] for row in rref(gram)[0]]
    return [p - _dot(coeff, [v[k] for v in basis]) for k, p in enumerate(particular)]


def _random_rational(rng, zero_share):
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))


def _random_case(rng):
    """A rational matrix up to 12 x 15, and a right-hand side: sparse and
    usually of full rank, or a product of rank at most r < min(rows, cols);
    some rows and columns zeroed; b = A x0 or, half the time, random."""
    rows, cols = rng.randint(1, 12), rng.randint(1, 15)
    if rng.random() < 0.5:
        a = [[_random_rational(rng, 0.5) for _ in range(cols)] for _ in range(rows)]
    else:
        r = rng.randint(0, min(rows, cols) - 1)
        left = [[_random_rational(rng, 0.3) for _ in range(r)] for _ in range(rows)]
        right = [[_random_rational(rng, 0.3) for _ in range(cols)] for _ in range(r)]
        a = [[_dot(lrow, [rrow[j] for rrow in right]) for j in range(cols)] for lrow in left]
    for i in range(rows):
        if rng.random() < 0.1:
            a[i] = [Fraction(0)] * cols
    for j in range(cols):
        if rng.random() < 0.1:
            for row in a:
                row[j] = Fraction(0)
    if rng.random() < 0.5:
        b = [_random_rational(rng, 0.2) for _ in range(rows)]
    else:
        x0 = [_random_rational(rng, 0.2) for _ in range(cols)]
        b = [_dot(row, x0) for row in a]
    return a, b


def test_integer_kernel_matches_fraction_rref():
    rng = random.Random(20240611)
    seen = {"inconsistent": 0, "rank_deficient": 0, "full_rank": 0, "zero_row": 0}
    for _ in range(300):
        a, b = _random_case(rng)
        n = len(a[0])
        red, pivots = rref(a)
        rows, int_pivots = integer_rref(a)
        assert int_pivots == pivots
        # dividing each integer row by its pivot entry gives the rational RREF
        scaled = [
            [Fraction(row.get(k, 0), row[c]) for k in range(n)] for row, c in zip(rows, pivots)
        ]
        assert scaled == red[: len(pivots)]
        assert rank_exact(a) == len(pivots)
        free = [f for f in range(n) if f not in pivots]
        basis = [[Fraction(int(k == f)) for k in range(n)] for f in free]
        for v, f in zip(basis, free):
            for row, c in zip(red, pivots):
                v[c] = -row[f]
        assert nullspace_exact(np.array(a, dtype=object)) == basis
        x, rank = solve_min_norm_exact(a, b)
        assert rank == len(pivots)
        expected = _reference_min_norm(a, b)
        if expected is None:
            assert x is None
            seen["inconsistent"] += 1
        else:
            assert x == expected and all(isinstance(v, Fraction) for v in x)
        seen["full_rank" if rank == min(len(a), n) else "rank_deficient"] += 1
        seen["zero_row"] += any(all(v == 0 for v in row) for row in a)
    assert min(seen.values()) >= 20, seen


def test_rank_float_tolerates_noise():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    assert rank_float(a) == 1
    assert nullspace_dim_float(a) == 1
    assert rank_float(np.array([[1.0, 0.0], [0.0, 1.0]])) == 2


def test_min_norm_float_matches_exact():
    rng = np.random.default_rng(29)
    a_int = rng.integers(-4, 5, size=(3, 7))
    x_int = rng.integers(-3, 4, size=7)
    rhs_int = a_int @ x_int
    exact, exact_rank = solve_min_norm_exact(
        _f(a_int.tolist()), [Fraction(int(b)) for b in rhs_int]
    )
    approx, rank = solve_min_norm_float(a_int.astype(float), rhs_int.astype(float))
    assert approx is not None
    assert rank == exact_rank == rank_float(a_int)
    np.testing.assert_allclose(approx, [float(v) for v in exact], atol=1e-12)


def test_min_norm_float_inconsistent_returns_none():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert solve_min_norm_float(a, np.array([0.0, 1.0])) == (None, 1)
