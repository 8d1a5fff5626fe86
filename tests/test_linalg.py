"""Exact and floating-point linear algebra used by the reduction solve."""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import _generic_system, _integer_rows
from polycycle import linalg
from polycycle.change_of_variables import (
    NoSolutionError,
    assemble_constraints,
    min_degree_bound,
    residual_condition33,
    solve_theta,
)
from polycycle.linalg import rref, solve_min_norm_exact, solve_min_norm_float
from polycycle.definition import load_definition
from polycycle.pipeline import AnalysisOptions, run_analyze, run_sweep
from polycycle.system import build_system


def _f(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _fractions(result):
    """The exact solve's integer numerators over their positive common
    denominator, read as Fractions; the rank as it is."""
    sol, rank = result
    if sol is None:
        return None, rank
    nums, den = sol
    assert type(den) is int and den > 0 and all(type(v) is int for v in nums)
    return [Fraction(v, den) for v in nums], rank


def _solve_dense(a, b):
    """The exact solve of a dense system, through its coprime integer rows."""
    return _fractions(solve_min_norm_exact(_integer_rows(a, b), len(a[0])))


def _rank(rows, n):
    """The rank the exact solve returns for sparse rows of A, n columns."""
    return solve_min_norm_exact(rows, n)[1]


def _rank_dense(a):
    """The exact rank of a dense matrix, through its coprime integer rows."""
    return _rank(_integer_rows(a), len(a[0]))


def test_rref_known_matrix():
    reduced, pivots = rref(_f([[0, 2, 4], [1, 1, 1]]))
    assert pivots == [0, 1]
    assert reduced == _f([[1, 0, -1], [0, 1, 2]])


def test_rank_exact_detects_dependence():
    assert _rank_dense(_f([[1, 2], [2, 4]])) == 1
    assert _rank_dense(_f([[1, 2], [3, 4]])) == 2
    # floats would call this full rank
    eps = Fraction(1, 10**30)
    assert _rank_dense(_f([[1, 1], [1, 1]]) + [[Fraction(1), Fraction(1) + eps]]) == 2
    # sparse rows as the change-of-variables assembly writes them: any
    # positive factor, empty rows allowed, and left as they were
    rows = [{0: 6, 1: 12}, {}, {1: 5, 2: -10}, {0: 3, 2: 12}]
    before = [dict(row) for row in rows]
    assert _rank(rows, 3) == 2 and rows == before
    assert _rank([], 4) == _rank([{}], 4) == 0


def test_min_norm_exact_unique_case():
    a = _f([[2, 0], [0, 4]])
    x, rank = _solve_dense(a, [Fraction(6), Fraction(8)])
    assert x == [Fraction(3), Fraction(2)]
    assert rank == 2


def test_min_norm_exact_inconsistent_returns_none():
    a = _f([[1, 0], [1, 0]])
    assert _solve_dense(a, [Fraction(0), Fraction(1)]) == (None, 1)


def test_min_norm_exact_matches_least_squares():
    rng = np.random.default_rng(23)
    for _ in range(12):
        rows, cols = int(rng.integers(2, 5)), int(rng.integers(5, 9))
        a_int = rng.integers(-4, 5, size=(rows, cols))
        x_int = rng.integers(-3, 4, size=cols)
        rhs_int = a_int @ x_int  # consistent by construction
        a = _f(a_int.tolist())
        rhs = [Fraction(int(b)) for b in rhs_int]
        x, _ = _solve_dense(a, rhs)
        assert x is not None
        # exact consistency
        for row, b in zip(a, rhs):
            assert sum(r * v for r, v in zip(row, x)) == b
        # exact minimality: orthogonal to the nullspace
        for vec in _kernel_basis(*rref(a), cols):
            assert sum(u * v for u, v in zip(x, vec)) == 0
        # and numerically equal to the float least-squares answer
        ref = np.linalg.lstsq(a_int.astype(float), rhs_int.astype(float), rcond=None)[0]
        np.testing.assert_allclose([float(v) for v in x], ref, atol=1e-9)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _kernel_basis(red, pivots, n):
    """Kernel basis of a matrix with n columns from its RREF, one vector
    per free column."""
    basis = []
    for f in range(n):
        if f not in pivots:
            v = [Fraction(0)] * n
            v[f] = Fraction(1)
            for row, c in zip(red, pivots):
                v[c] = -row[f]
            basis.append(v)
    return basis


def _reference_min_norm(a, b, order=None):
    """Minimum-norm solution through Fraction RREF, and the rank of A.

    A particular solution minus its projection x_p - N (N^T N)^-1 N^T x_p
    on the nullspace (the Gram system solved by RREF too), or None when
    the RREF of [A | b] has a pivot in column b.  The columns are taken
    in ``order`` (index order by default); the minimum-norm solution does
    not depend on it, only the work does.
    """
    n = len(a[0])
    order = list(range(n)) if order is None else order
    red, pivots = rref([[row[c] for c in order] + [v] for row, v in zip(a, b)])
    if pivots and pivots[-1] == n:
        return None, len(pivots) - 1
    particular = [Fraction(0)] * n
    for row, c in zip(red, pivots):
        particular[c] = row[n]
    basis = _kernel_basis(red, pivots, n)
    x = particular
    if basis:
        gram = [[_dot(u, v) for v in basis] + [_dot(u, particular)] for u in basis]
        coeff = [row[-1] for row in rref(gram)[0]]
        x = [p - _dot(coeff, [v[k] for v in basis]) for k, p in enumerate(particular)]
    out = [Fraction(0)] * n
    for k, c in enumerate(order):
        out[c] = x[k]
    return out, len(pivots)


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
        _, pivots = rref(a)
        assert _rank_dense(a) == len(pivots)
        x, rank = _solve_dense(a, b)
        assert rank == len(pivots)
        expected, _ = _reference_min_norm(a, b)
        if expected is None:
            assert x is None
            seen["inconsistent"] += 1
        else:
            assert x == expected and all(isinstance(v, Fraction) for v in x)
        seen["full_rank" if rank == min(len(a), n) else "rank_deficient"] += 1
        seen["zero_row"] += any(all(v == 0 for v in row) for row in a)
    assert min(seen.values()) >= 20, seen


def _complex_pair_system(rng, n):
    """A seeded exact system of degree n whose Jacobian has a complex pair."""
    while True:
        jac = [[_random_rational(rng, 0.0) for _ in range(2)] for _ in range(2)]
        if (jac[0][0] - jac[1][1]) ** 2 + 4 * jac[0][1] * jac[1][0] < 0:
            break
    phi = [
        [[_random_rational(rng, 0.2) for _ in range(k + 1)] for _ in range(2)]
        for k in range(2, n + 1)
    ]
    return build_system(jac, phi)


def test_min_norm_exact_on_constraint_systems():
    # the change-of-variables systems at the counting-bound degree; each
    # row-2 Theta_k entry meets one equation only (its -1), and those are
    # all the singleton columns
    rng = random.Random(4242)
    for n in range(2, 7):
        system = _complex_pair_system(rng, n)
        cs = assemble_constraints(system, min_degree_bound(n))
        a = cs.matrix.tolist()
        row_two = [c for c, label in enumerate(cs.unknown_layout) if label[2] == 2]
        nonzeros = [sum(1 for row in a if row[c] != 0) for c in range(cs.unknown_count)]
        assert [c for c, count in enumerate(nonzeros) if count == 1] == row_two, n
        assert all(a[i][c] in (0, -1) for c in row_two for i in range(len(a)))
        # taking those columns first keeps the Fraction reference fast
        order = row_two + [c for c in range(cs.unknown_count) if c not in row_two]
        expected, rank = _reference_min_norm(a, list(cs.rhs), order)
        assert expected is not None
        assert _fractions(solve_min_norm_exact(cs.rows, cs.unknown_count)) == (expected, rank), n
        assert _rank_dense(a) == rank
        assert cs.nullspace_dimension() == cs.unknown_count - rank


def test_min_norm_exact_on_a_coupled_block_with_free_unknowns(monkeypatch):
    # phi_3 = (x^2 + y^2)(-y, x) with J = [[alpha, -1], [1, alpha]]: at
    # m = 4 the 13 rows that own no column have rank 8 over 9 columns,
    # so they force some of their unknowns to 0 and leave one free, and
    # the defining rows are cancelled against the two reduced pivot rows
    # with more than one entry
    alpha = Fraction(1, 20)
    system = build_system([[alpha, -1], [1, alpha]], [[[0, 0, 0], [0, 0, 0]], [[0, -1, 0, -1], [1, 0, 1, 0]]])
    cs = assemble_constraints(system, 4)
    n = cs.unknown_count
    defining, rest = linalg._split([linalg._primitive(row) for row in cs.rows if row], n)
    assert (len(defining), len(rest), len(linalg._columns(rest, n))) == (12, 13, 9)
    assert _rank(rest, n) == 8
    # the certificate of full column rank refuses the block, so the
    # exact elimination runs, once
    assert not linalg._full_column_rank(rest, linalg._columns(rest, n))
    a = cs.matrix.tolist()
    row_two = [c for c, label in enumerate(cs.unknown_layout) if label[2] == 2]
    order = row_two + [c for c in range(n) if c not in row_two]
    expected, rank = _reference_min_norm(a, list(cs.rhs), order)
    assert expected is not None and rank == 12 + 8
    calls, _ = _count_calls(monkeypatch, ["_echelon"])
    assert _fractions(solve_min_norm_exact(cs.rows, n)) == (expected, rank)
    assert calls["_echelon"] == 1
    assert _rank([{c: v for c, v in row.items() if c < n} for row in cs.rows], n) == rank
    assert _rank_dense(a) == rank
    assert residual_condition33(solve_theta(system), system) == 0


def _planted_singleton_case(rng, inconsistent):
    """A matrix whose coupled columns are joined, at shuffled positions, by
    singleton columns (one nonzero each) in rows 3 and up.  Row 1 is a
    combination of rows 0 and 2, which carry no singleton, so raising b_1
    leaves a contradiction that no singleton unknown can absorb; it shows
    only once the coupled columns are eliminated, after every singleton
    pivot."""
    rows, coupled = rng.randint(3, 9), rng.randint(2, 9)
    a = [[_random_rational(rng, 0.4) for _ in range(coupled)] for _ in range(rows)]
    c0, c2 = _random_rational(rng, 0.0), _random_rational(rng, 0.3)
    a[1] = [c0 * u + c2 * w for u, w in zip(a[0], a[2])]
    columns = [list(col) for col in zip(*a)]
    for i in range(3, rows):
        for _ in range(rng.choice((0, 1, 1, 2))):
            col = [Fraction(0)] * rows
            col[i] = _random_rational(rng, 0.0)
            columns.append(col)
    rng.shuffle(columns)
    a = [list(row) for row in zip(*columns)]
    x0 = [_random_rational(rng, 0.2) for _ in columns]
    b = [_dot(row, x0) for row in a]
    if inconsistent:
        b[1] += _random_rational(rng, 0.0)
    return a, b


def test_min_norm_exact_with_planted_singleton_columns():
    rng = random.Random(977)
    singletons = 0
    for trial in range(120):
        inconsistent = trial % 3 == 0
        a, b = _planted_singleton_case(rng, inconsistent)
        singletons += sum(1 for col in zip(*a) if sum(1 for v in col if v != 0) == 1)
        expected, rank = _reference_min_norm(a, b)
        assert (expected is None) == inconsistent
        assert _solve_dense(a, b) == (expected, rank)
        assert _rank_dense(a) == rank
    assert singletons >= 150, singletons


def _spd_case(rng, k):
    """A Gram-like integer system: d^2 I + sum e e^T over a few integer
    vectors e, and an integer right-hand side.  Every third case has
    entries of 40 digits and more."""
    digits = 22 if k % 3 == 0 else 2
    d = rng.randint(1, 10**digits)
    gram = [[d * d if i == j else 0 for j in range(k)] for i in range(k)]
    for _ in range(rng.randint(0, k + 2)):
        e = [rng.randint(-(10**digits), 10**digits) if rng.random() < 0.6 else 0 for _ in range(k)]
        for i in range(k):
            for j in range(k):
                gram[i][j] += e[i] * e[j]
    rhs = [rng.randint(-(10**(2 * digits)), 10**(2 * digits)) for _ in range(k)]
    return gram, rhs


def _det(matrix):
    """Determinant by Fraction elimination (the matrix is nonsingular)."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(rows)):
        p = next(i for i in range(c, len(rows)) if rows[i][c] != 0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for r in rows[c + 1 :]:
            f = r[c] / rows[c][c]
            r[c:] = [a - f * b for a, b in zip(r[c:], rows[c][c:])]
    return det


def test_spd_solve_matches_fraction_rref():
    rng = random.Random(1968)
    big = 0
    for trial in range(45):
        k = trial % 15 + 1
        gram, rhs = _spd_case(rng, k)
        big += max(abs(v) for row in gram for v in row) >= 10**40
        # only the upper triangle may be read
        upper = [[v if j >= i else None for j, v in enumerate(row)] for i, row in enumerate(gram)]
        x, q = linalg._spd_solve(upper, rhs)
        assert all(isinstance(v, int) for v in x)
        assert q == _det(gram) > 0
        assert [_dot(row, x) for row in gram] == [q * b for b in rhs]
        reduced, pivots = rref([[*map(Fraction, row), Fraction(b)] for row, b in zip(gram, rhs)])
        assert pivots == list(range(k))
        assert [Fraction(v, q) for v in x] == [row[k] for row in reduced]
    assert big >= 15, big


def _count_calls(monkeypatch, names):
    """Count the calls of the linalg functions ``names``, and list the
    pivot rows with one entry that ``_cancel`` is called with."""
    calls = dict.fromkeys(names, 0)
    one_entry = []

    def counting(name):
        original = getattr(linalg, name)

        def wrapper(*args):
            calls[name] += 1
            if name == "_cancel" and len(args[1]) == 1:
                one_entry.append(args[1])
            return original(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(linalg, name, counting(name))
    return calls, one_entry


def test_min_norm_exact_takes_singleton_columns_first(monkeypatch):
    # one fixed degree-4 system at its counting bound, m = 7 (63 x 66):
    # eliminating every row in column index order takes 1104 row
    # operations, taking the 33 singleton columns first 372 (232 of them
    # against a pivot row with one entry).  Setting the 33 rows that own
    # those columns aside leaves 30 coupled rows over 21 columns, which
    # force all their unknowns to 0.  The float certificate proves their
    # full column rank, so nothing is eliminated or cancelled: the zero
    # columns are dropped from the defining rows.  Eliminating the 30
    # rows instead, the exact fallback, takes 140 row operations, and
    # each zero column is dropped from the rows that hold it, not
    # cancelled.  The Gram system is solved densely, outside this kernel
    jac = [[Fraction(1, 50), -1], [1, Fraction(1, 50)]]
    phi = [
        [[-1, -3, Fraction(3, 2)], [-1, -2, Fraction(-3, 4)]],
        [[6, 1, Fraction(19, 2), -4], [Fraction(-1, 2), 9, Fraction(-1, 3), 7]],
        [[Fraction(-2, 3), Fraction(4, 3), -4, -2, -3], [-2, Fraction(1, 2), Fraction(1, 4), Fraction(1, 2), 1]],
    ]
    cs = assemble_constraints(build_system(jac, phi), 7)
    calls, one_entry = _count_calls(monkeypatch, ["_cancel", "_echelon", "_drop"])
    certified = solve_min_norm_exact(cs.rows, cs.unknown_count)
    assert calls["_echelon"] == calls["_cancel"] == 0
    assert calls["_drop"] <= 33

    monkeypatch.setattr(linalg, "_full_column_rank", lambda rows, columns: False)
    calls.update(dict.fromkeys(calls, 0))
    (nums, den), rank = solve_min_norm_exact(cs.rows, cs.unknown_count)
    assert ((nums, den), rank) == certified
    assert rank == 54 and den > 0
    assert calls["_echelon"] == 1
    assert 0 < calls["_cancel"] <= 140
    assert one_entry == []
    # 50 drops of zero columns, each a comprehension and a gcd: 9 in the
    # forward pass, then at most one per row, of all the zero columns it
    # holds at once
    assert calls["_drop"] <= 50


def _known_rank_block(rng):
    """An integer block, a product of random integer factors rows x r and
    r x cols (r = cols half the time), whose rank the Fraction ``rref``
    gives.  The factors' entries run from 1 digit to 2^520, so the
    block's run from 1 digit to past 1000 bits; some rows are zeroed or
    repeated, some columns zeroed, and now and then a row with a single
    entry is added.  Neither scaling below changes the rank: now and then
    every row is multiplied by an integer of 1100 to 1900 bits, which
    widens its entries but not the span of bit lengths within it, and a
    column by a power of two past 2^1000, which widens that span past
    ``CERTIFY_MAX_BITS`` in the rows that hold it and another entry."""
    cols = rng.randint(1, 6)
    rows = rng.randint(1, 8)
    if rng.random() < 0.5:
        rows = max(rows, cols + rng.randint(0, 2))
    r = cols if rng.random() < 0.5 else rng.randint(1, cols)
    bits = rng.choice((2, 4, 30, 100, 300, 520))

    def factor():
        return rng.randint(-(2**bits), 2**bits) if rng.random() < 0.7 else 0

    left = [[factor() for _ in range(r)] for _ in range(rows)]
    right = [[factor() for _ in range(cols)] for _ in range(r)]
    a = [[_dot(lrow, [rrow[j] for rrow in right]) for j in range(cols)] for lrow in left]
    for row in a:
        if rng.random() < 0.1:
            row[:] = [0] * cols
    for j in range(cols):
        if rng.random() < 0.1:
            for row in a:
                row[j] = 0
    if rng.random() < 0.3:
        a.append(list(rng.choice(a)))
    if rng.random() < 0.2:
        single = [0] * cols
        single[rng.randrange(cols)] = factor() or 1
        a.insert(rng.randrange(len(a) + 1), single)
    if rng.random() < 0.25:
        a = [[v * rng.randint(2**1100, 2**1900) for v in row] for row in a]
    if rng.random() < 0.2:
        j, wide = rng.randrange(cols), 2 ** rng.randint(1010, 1100)
        for row in a:
            row[j] *= wide
    return a


def _with_defining_rows(rng, a, b):
    """[A | b] joined by up to two rows that each own a new column: a -1
    there, some entries over A's columns and a nonzero right-hand side,
    so a homogeneous block still has a nonzero minimum-norm solution."""
    cols = len(a[0])
    extra = rng.randint(0, 2)
    a = [row + [0] * extra for row in a]
    b = list(b)
    for t in range(extra):
        row = [rng.randint(-5, 5) for _ in range(cols)] + [0] * extra
        row[cols + t] = -1
        a.append(row)
        b.append(rng.randint(1, 9))
    return a, b


def test_full_column_rank_certificate_is_sound():
    rng = random.Random(2006)
    kinds = ("proved", "float_proved", "refused_full", "deficient", "wide", "wide_proved", "inconsistent",
             "homogeneous")
    seen = dict.fromkeys(kinds, 0)
    for trial in range(300):
        a = _known_rank_block(rng)
        rows = _integer_rows(a)
        columns = linalg._columns(rows, len(a[0]))
        full = len(rref(_f(a))[1]) == len(columns)
        proved = linalg._full_column_rank(rows, columns)
        # never a proof for a rank-deficient block
        assert full or not proved, a
        seen["proved" if proved else "refused_full" if full else "deficient"] += 1
        # no row with one entry: the exact pre-pass settles nothing
        seen["float_proved"] += proved and all(len(row) > 1 for row in rows)
        # entries past 1000 bits, the cap before it applied to the span
        bits = max(abs(v).bit_length() for row in a for v in row)
        seen["wide"] += bits > 1000
        seen["wide_proved"] += proved and bits > 1000 and all(len(row) > 1 for row in rows)
        # the solve equals the Fraction reference, homogeneous (where the
        # certificate may skip the elimination), consistent or not
        kind = trial % 3
        if kind == 0:
            b = [0] * len(a)
        else:
            x0 = [rng.randint(-9, 9) for _ in a[0]]
            b = [_dot(row, x0) + (rng.randint(-9, 9) if kind == 2 else 0) for row in a]
        a, b = _with_defining_rows(rng, a, b)
        a, b = _f(a), [*map(Fraction, b)]
        expected, rank = _reference_min_norm(a, b)
        assert _solve_dense(a, b) == (expected, rank)
        seen["inconsistent"] += expected is None
        seen["homogeneous"] += kind == 0
    assert min(seen.values()) >= 10, seen
    # the degree-5 system with 17-digit numerators over 17-digit
    # denominators: its coupled rows hold entries of over 1800 bits, with
    # a span of at most 10 bits within each row, and the certificate
    # proves them
    system = _generic_system(random.Random(17), 5, Fraction(1, 50), digits=17, long_denominators=True)
    cs = assemble_constraints(system, min_degree_bound(5))
    coupled = [row for row in cs.split.coupled if row]
    sizes = [[abs(v).bit_length() for v in row.values()] for row in coupled]
    assert max(map(max, sizes)) > 1800 and max(max(b) - min(b) for b in sizes) <= 10
    assert linalg._full_column_rank(coupled, linalg._columns(coupled, cs.unknown_count))


def test_full_column_rank_refuses_an_ill_conditioned_block():
    # k [[N, N + 1], [N + 1, N + 2]] with N = 2^60 has determinant -k^2:
    # full rank, but both rows round to the same float direction, so the
    # float step cannot prove it and the exact path runs
    n_big = 2**60
    for k in (1, 3, 2**40 + 1):
        a = [[k * n_big, k * (n_big + 1)], [k * (n_big + 1), k * (n_big + 2)]]
        assert _rank_dense(_f(a)) == 2
        assert not linalg._full_column_rank([dict(enumerate(row)) for row in a], [0, 1])
        for b in ([0, 0], [1, -1]):
            wide, rhs = _with_defining_rows(random.Random(k), a, b)
            wide, rhs = _f(wide), [*map(Fraction, rhs)]
            assert _solve_dense(wide, rhs) == _reference_min_norm(wide, rhs)


def _solves(systems):
    """solve_theta of each system, its blocks as numerators and
    denominators, and the exact solve of its constraint rows."""
    out = []
    for system in systems:
        cov = solve_theta(system)
        blocks = {k: (b.num.tolist(), b.den) for k, b in cov.blocks.items()}
        cs = assemble_constraints(system, cov.m)
        out.append((blocks, cov.rank, solve_min_norm_exact(cs.rows, cs.unknown_count)))
    return out


def test_certified_solve_equals_the_exact_elimination(monkeypatch, corpus_systems):
    alphas = (Fraction(1, 20), Fraction(1, 50), Fraction(-1, 50))
    generic = [
        _generic_system(rng, n, alpha)
        for rng in (random.Random(7), random.Random(8))
        for n in range(2, 8)
        for alpha in alphas
    ]
    rng = random.Random(17)
    generic += [_generic_system(rng, n, Fraction(1, 50), digits=17) for n in range(2, 8)]
    proofs = []
    certify = linalg._full_column_rank

    def recording(rows, columns):
        proofs.append(certify(rows, columns))
        return proofs[-1]

    monkeypatch.setattr(linalg, "_full_column_rank", recording)
    live = _solves(generic + list(corpus_systems.values()))
    # every block is proved: its elimination is skipped
    assert proofs == [True] * 2 * len(live)
    monkeypatch.setattr(linalg, "_full_column_rank", lambda rows, columns: False)
    assert _solves(generic + list(corpus_systems.values())) == live


def _rotation_cubic():
    """phi_3 = (x^2 + y^2)(-y, x), whose coupled rows are rank deficient."""
    alpha = Fraction(1, 20)
    return build_system([[alpha, -1], [1, alpha]], [[[0, 0, 0], [0, 0, 0]], [[0, -1, 0, -1], [1, 0, 1, 0]]])


def test_the_coupling_table_split_equals_the_split_of_the_rows(monkeypatch, corpus_systems):
    # solve_theta hands the exact solve the split the coupling table
    # implies, not the rows: the certificate gets the rows _split leaves
    # of the bare rows (up to their content) and the same columns, once
    # per solve, and the Theta blocks are those of the bare rows' solve.
    # The bare rows are read off the same split, so the independent
    # expansion certifies the blocks too
    systems = {**corpus_systems, "rotation_cubic": _rotation_cubic()}
    for seed in (7, 8):
        rng = random.Random(seed)
        for n in range(2, 8):
            for alpha in (Fraction(1, 20), Fraction(1, 50), Fraction(-1, 50)):
                systems[f"generic_{seed}_{n}_{alpha}"] = _generic_system(rng, n, alpha)
    rng = random.Random(17)
    for n in range(2, 8):
        systems[f"digits17_{n}"] = _generic_system(rng, n, Fraction(1, 50), digits=17)
    calls = []
    certify = linalg._full_column_rank

    def recording(rows, columns):
        calls.append(([linalg._primitive(row) for row in rows], columns, certify(rows, columns)))
        return calls[-1][2]

    monkeypatch.setattr(linalg, "_full_column_rank", recording)
    refused = []
    for name, system in systems.items():
        calls.clear()
        cov = solve_theta(system)
        cs = assemble_constraints(system, cov.m)
        (nums, den), rank = solve_min_norm_exact(cs.rows, cs.unknown_count)
        assert len(calls) == 2 and calls[0] == calls[1], name
        if not calls[0][2]:
            refused.append(name)
        theta = [Fraction(v, cov.block(k).den) for k in range(2, cov.m + 1) for v in cov.block(k).num.flat]
        assert theta == [Fraction(v, den) for v in nums] and cov.rank == rank, name
        assert residual_condition33(cov, system) == 0, name
    assert refused == ["rotation_cubic"]


def test_the_gram_product_runs_in_int64_only_where_it_fits(monkeypatch):
    # a generic system's Gram product fits in int64 and takes it; with
    # 17-digit coefficients the entries alone do not fit, so the product
    # runs over Python ints, and forcing int64 on it raises rather than
    # wrapping around.  Both equal the Fraction reference, and the
    # generic one does not change when the object product is forced
    chosen, forced = [], []
    pick = linalg._gram_dtype

    def picking(top, rows):
        chosen.append(forced[-1] if forced else pick(top, rows))
        return chosen[-1]

    monkeypatch.setattr(linalg, "_gram_dtype", picking)
    for digits, dtype, other in ((0, np.int64, object), (17, object, np.int64)):
        system = _generic_system(random.Random(3), 3, Fraction(1, 50), digits=digits)
        cs = assemble_constraints(system, min_degree_bound(3))
        chosen.clear()
        solution = solve_min_norm_exact(cs.split, cs.unknown_count)
        assert chosen == [dtype], digits
        row_two = [c for c, label in enumerate(cs.unknown_layout) if label[2] == 2]
        order = row_two + [c for c in range(cs.unknown_count) if c not in row_two]
        assert _fractions(solution) == _reference_min_norm(cs.matrix.tolist(), list(cs.rhs), order), digits
        forced.append(other)
        if other is object:
            assert solve_min_norm_exact(cs.split, cs.unknown_count) == solution
        else:
            with pytest.raises(OverflowError):
                solve_min_norm_exact(cs.split, cs.unknown_count)
        forced.clear()


def _rank_float(a):
    """The rank the float solve returns for A, against a zero right-hand side."""
    return solve_min_norm_float(a, np.zeros(len(a)))[1]


def test_rank_float_tolerates_noise():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    assert _rank_float(a) == 1
    assert _rank_float(np.array([[1.0, 0.0], [0.0, 1.0]])) == 2


def test_min_norm_float_matches_exact():
    rng = np.random.default_rng(29)
    a_int = rng.integers(-4, 5, size=(3, 7))
    x_int = rng.integers(-3, 4, size=7)
    rhs_int = a_int @ x_int
    exact, exact_rank = _solve_dense(
        _f(a_int.tolist()), [Fraction(int(b)) for b in rhs_int]
    )
    approx, rank = solve_min_norm_float(a_int.astype(float), rhs_int.astype(float))
    assert approx is not None
    assert rank == exact_rank == _rank_float(a_int)
    np.testing.assert_allclose(approx, [float(v) for v in exact], atol=1e-12)


def test_min_norm_float_inconsistent_returns_none():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert solve_min_norm_float(a, np.array([0.0, 1.0])) == (None, 1)


def test_float_certificate_is_sound():
    # float blocks of small integers, exact in float64, of the rank the
    # Fraction rref gives; a power of two per row keeps that rank.  The
    # certificate never proves a rank-deficient block, and proves the full
    # ones here, which are well conditioned
    rng = random.Random(1974)
    seen = dict.fromkeys(("proved", "deficient", "scaled_proved"), 0)
    for _ in range(300):
        cols = rng.randint(1, 6)
        rows = max(rng.randint(1, 8), cols + rng.randint(-1, 2))
        r = cols if rng.random() < 0.5 else rng.randint(1, cols)
        left = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(rows)]
        right = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(r)]
        a = [[_dot(lrow, [rrow[j] for rrow in right]) for j in range(cols)] for lrow in left]
        full = len(rref(_f(a))[1]) == cols
        scaled = rng.random() < 0.4
        block = np.array(a, dtype=float)
        if scaled:
            block = np.ldexp(block, np.array([rng.randint(-900, 900) for _ in range(rows)])[:, None])
        proved = linalg._float_full_column_rank(block)
        assert full == proved, a
        seen["proved" if proved else "deficient"] += 1
        seen["scaled_proved"] += scaled and proved
    assert min(seen.values()) >= 10, seen
    # full rank, but not proved: rows that round to one direction, a row
    # that does not scale exactly, and a block with an entry that is not
    # finite
    assert linalg._float_full_column_rank(np.eye(2))
    n_big = 2.0**40
    assert not linalg._float_full_column_rank(np.array([[n_big, n_big + 1], [n_big + 1, n_big + 2]]))
    assert not linalg._float_full_column_rank(np.array([[1.0, 5e-324], [0.0, 1.0]]))
    for value in (np.inf, -np.inf, np.nan):
        assert not linalg._float_full_column_rank(np.array([[value, 1.0], [0.0, 1.0]])), value
        assert not linalg._cholesky_proof(np.array([[value, 0.5], [0.0, 0.5]])), value


def _float_systems(corpus_systems):
    """The corpus, the generic systems of degree 2 to 7 and the metamorphic
    batch at three alphas, rounded to floats."""
    from metamorphic import batch

    systems = {name: system for name, system in corpus_systems.items()}
    systems.update((f"generic_{n}", _generic_system(random.Random(7), n, Fraction(1, 50))) for n in range(2, 8))
    for alpha in ("1/50", "1/200", "-1/50"):
        systems.update((f"batch_{alpha}_{j}", system) for j, system in enumerate(batch(alpha)))
    return {name: system.to_float() for name, system in systems.items()}


def test_split_float_solve_equals_the_dense_lstsq_solve(monkeypatch, corpus_systems):
    # the split solve equals lstsq on the dense [A | b] to 1e-12 of its
    # largest entry, with the same rank, for the Gamma_1 and the free
    # systems, and neither builds the dense matrix nor calls lstsq
    def refuse(*args, **kwargs):
        raise AssertionError("dense route taken")

    for name, system in _float_systems(corpus_systems).items():
        m = min_degree_bound(system.degree) if system.degree >= 2 else 2
        for free in (False, True):
            cs = assemble_constraints(system, m, free=free)
            with monkeypatch.context() as patch:
                patch.setattr(linalg.FloatSplit, "augmented", refuse)
                patch.setattr(np.linalg, "lstsq", refuse)
                solution, rank = solve_min_norm_float(cs.split)
            reference, expected = solve_min_norm_float(cs.matrix, np.zeros(len(cs.matrix)) if free else cs.rhs)
            assert rank == expected, (name, free)
            scale = max(float(np.abs(reference).max()), 1.0 if free else 0.0)
            assert np.abs(solution - reference).max() <= 1e-12 * scale, (name, free)


def test_split_float_solve_falls_back_to_lstsq(monkeypatch, normal_form_system):
    # coupled rows of rank 8 over 9 columns (the rotation cubic) and
    # coupled rows that hold b (Theta degree m = 2 below the cubic's n = 3)
    # are not proved, and defining rows with entries of 1e160, whose Gram
    # product would overflow, are left to lstsq: each split is solved as
    # today's dense system.  lstsq cannot resolve the huge system, whose
    # rows mix 1e160 with -1, and its residual is of the order of b: it
    # is refused as inconsistent (an exact solve finds a solution)
    built = []
    augmented = linalg.FloatSplit.augmented

    def recording(self):
        built.append(self)
        return augmented(self)

    monkeypatch.setattr(linalg.FloatSplit, "augmented", recording)
    rotation = _rotation_cubic().to_float()
    normal_form = normal_form_system.to_float()
    huge = build_system([[0.05, -1.0], [1.0, 0.05]], [np.zeros((2, 3)), [[1e160, 0, 1e160, 0], [0, 1e160, 0, -1]]])
    for system, m, consistent in ((rotation, 4, True), (normal_form, 2, False), (huge, 4, False)):
        cs = assemble_constraints(system, m)
        built.clear()
        solution, rank = solve_min_norm_float(cs.split)
        assert len(built) == 1
        reference, expected = solve_min_norm_float(cs.matrix, cs.rhs)
        assert rank == expected
        assert (solution is None) == (reference is None) == (not consistent)
        if solution is not None:
            assert np.isfinite(solution).all() and np.array_equal(solution, reference)
    assert solve_theta(rotation).rank == solve_theta(_rotation_cubic()).rank == 20
    with pytest.raises(NoSolutionError):
        solve_theta(normal_form, 2)


@pytest.mark.filterwarnings("error")
def test_dense_consistency_test_does_not_overflow():
    # the residual test's norms are taken over the vectors' largest
    # modulus: a sum of squares of entries near 1e160 would overflow to
    # inf (a RuntimeWarning, an error here), and an infinite scale would
    # pass every residual
    big = 1e160
    x, rank = solve_min_norm_float(np.array([[big], [big]]), np.array([big, -big]))
    assert (x, rank) == (None, 1)
    x, rank = solve_min_norm_float(np.array([[big, 0.0], [0.0, big]]), np.array([big, 2.0 * big]))
    assert rank == 2 and np.allclose(x, [1.0, 2.0], rtol=1e-15, atol=0.0)
    x, rank = solve_min_norm_float(np.zeros((2, 2)), np.zeros(2))
    assert rank == 0 and np.array_equal(x, [0.0, 0.0])
    # the dense route of the float analysis (the Gram product of the split
    # would overflow), which reported a change of variables with condition
    # residual 1e160 while numpy warned of the overflow
    defn = load_definition({
        "name": "big",
        "jac": [["alpha", -1], [1, "alpha"]],
        "phi": [[[0, 0, 0], [0, 0, 0]], [["1e160", 0, "1e160", 0], [0, "1e160", 0, -1]]],
    })
    report = run_analyze(defn, AnalysisOptions(alpha=Fraction(1, 20), exact=False, measure=False))
    assert report.status == "no_change_of_variables"
    assert any("inconsistent" in w for w in report.warnings)


def test_a_float_sweep_proves_its_coupled_rows_once(monkeypatch, definitions):
    # the coupled rows hold no entry of J, so a float sweep of a family
    # whose phi does not move with alpha proves one block
    proofs = []
    certify = linalg._float_full_column_rank

    def recording(block):
        proofs.append(certify(block))
        return proofs[-1]

    monkeypatch.setattr(linalg, "_float_full_column_rank", recording)
    linalg._proved_float.cache_clear()
    rows = run_sweep(definitions["mixed"], [0.05, 0.02, -0.03], AnalysisOptions(exact=False, measure=False))
    assert [row["verdict"] for row in rows] == ["ok"] * 3 and proofs == [True]


def test_a_non_finite_float_system_raises_overflow(normal_form_system):
    # on the split and on the dense route alike, before LAPACK sees it
    cs = assemble_constraints(normal_form_system.to_float(), 4)
    for field in ("dense", "coupled"):
        block = getattr(cs.split, field).copy()
        block[0, 0] = np.inf
        with pytest.raises(OverflowError):
            solve_min_norm_float(cs.split._replace(**{field: block}))
    with pytest.raises(OverflowError):
        solve_min_norm_float(np.array([[1.0, np.inf]]), np.array([1.0]))
    with pytest.raises(OverflowError):
        solve_min_norm_float(np.eye(2), np.array([np.nan, 1.0]))
