"""Monomial vectors and the product rule on coefficient rows."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import as_fraction_matrix, assert_same_entries
from polycycle.monomials import Scaled, as_scaled, eval_lambda, lie_row, monomial_table
from polycycle.polyops import poly_from_lambda_row
from polycycle.system import build_system, lie_derivative


def test_eval_lambda_small_degrees():
    assert list(eval_lambda(1, (2, 3))) == [2, 3]
    assert list(eval_lambda(2, (2, 3))) == [4, 6, 9]
    assert list(eval_lambda(3, (2, 3))) == [8, 12, 18, 27]


def test_eval_lambda_keeps_fractions_exact():
    lam = eval_lambda(2, (Fraction(1, 2), Fraction(1, 3)))
    assert list(lam) == [Fraction(1, 4), Fraction(1, 6), Fraction(1, 9)]


def test_eval_lambda_float_points_give_float_arrays():
    lam = eval_lambda(2, (0.5, 2.0))
    assert lam.dtype == np.float64
    np.testing.assert_allclose(lam, [0.25, 1.0, 4.0])


def test_monomial_table_stacks_the_degrees():
    # lambda_1 .. lambda_4 in degree order, exactly at a Fraction point;
    # at float points each column of a batch is that point alone
    u, v = Fraction(1, 2), Fraction(-2, 3)
    table = monomial_table(4, (u, v))
    assert list(table) == [u ** (k - i) * v**i for k in range(1, 5) for i in range(k + 1)]
    points = np.random.default_rng(3).uniform(-2.0, 2.0, size=(2, 7))
    batch = monomial_table(5, points)
    assert batch.shape == (20, 7) and batch.dtype == np.float64
    for j in range(7):
        assert np.array_equal(batch[:, j], monomial_table(5, tuple(points[:, j])))


def test_eval_lambda_rejects_degree_below_one():
    with pytest.raises(ValueError):
        eval_lambda(0, (1.0, 2.0))


def _rand_row(rng, k):
    """k + 1 exact coefficients with small numerators and denominators."""
    return np.array(
        [Fraction(int(n), int(d)) for n, d in zip(rng.integers(-4, 5, k + 1), rng.integers(1, 4, k + 1))],
        dtype=object,
    )


def test_lie_row_explicit_at_degree_two():
    # along u' = a1 u + a2 v, v' = b1 u + b2 v:
    # d/dt u^2 = 2 u u', d/dt uv = v u' + u v', d/dt v^2 = 2 v v'
    a1, a2, b1, b2 = 2, 3, 5, 7
    block = np.array([[a1, a2], [b1, b2]], dtype=object)
    assert lie_row([1, 0, 0], block).tolist() == [2 * a1, 2 * a2, 0]
    assert lie_row([0, 1, 0], block).tolist() == [b1, a1 + b2, a2]
    assert lie_row([0, 0, 1], block).tolist() == [0, 2 * b1, 2 * b2]


@pytest.mark.parametrize("k", range(1, 9))
def test_lie_row_euler_identity(k):
    # along u' = u, v' = v every degree-k form grows at rate k
    row = _rand_row(np.random.default_rng(k), k)
    got = lie_row(row, np.array([[1, 0], [0, 1]], dtype=object))
    assert got.tolist() == (k * row).tolist()


def test_derivative_identity():
    # d/dt (u^(k-i) v^i) at a point moving with velocity (du, dv)
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        u0, v0, du, dv = (Fraction(int(x)) for x in rng.integers(-4, 5, size=4))

        def d_monomial(i):
            left = (k - i) * u0 ** (k - i - 1) * v0**i if i < k else Fraction(0)
            right = i * u0 ** (k - i) * v0 ** (i - 1) if i > 0 else Fraction(0)
            return du * left + dv * right

        # a constant velocity is a field of degree 0: one coefficient per row
        velocity = np.array([[du], [dv]], dtype=object)
        got = [lie_row(row, velocity) @ eval_lambda(k - 1, (u0, v0)) for row in np.eye(k + 1, dtype=int)]
        assert got == [d_monomial(i) for i in range(k + 1)]


def test_lie_row_matches_lie_derivative():
    # the row product against the polyops expansion of d/dt (row . lambda_k)
    # along the homogeneous degree-j field u' = block[0] . lambda_j,
    # v' = block[1] . lambda_j
    rng = np.random.default_rng(19)
    for k in range(1, 6):
        for j in range(1, 5):
            for _ in range(3):
                row = _rand_row(rng, k)
                block = np.array([_rand_row(rng, j), _rand_row(rng, j)])
                if j == 1:
                    system = build_system(block)
                else:
                    zero = np.zeros((2, 2), dtype=int)
                    lower = [np.zeros((2, d + 1), dtype=int) for d in range(2, j)]
                    system = build_system(zero, lower + [block])
                expected = lie_derivative(poly_from_lambda_row(k, row), system)
                got = lie_row(row, block)
                assert got.dtype == object and len(got) == k + j
                assert poly_from_lambda_row(k + j - 1, got) == expected, (k, j)


def test_lie_row_keeps_float_dtype():
    got = lie_row(np.array([0.5, -1.0, 2.0]), np.array([[1.0, 0.25], [-3.0, 0.5]]))
    assert got.dtype == np.float64
    # d/dt (u^2/2 - u v + 2 v^2) = (u - v)(u + v/4) + (-u + 4 v)(-3 u + v/2)
    assert got.tolist() == [4.0, -13.25, 1.75]


def _convolve_lie_row(row, block):
    """lie_row by np.convolve of coefficient rows, the reference the
    direct products must reproduce."""
    if isinstance(row, Scaled):
        return Scaled(_convolve_lie_row(row.num, block.num), row.den * block.den)
    k = len(row) - 1
    d_u, d_v = np.arange(k, 0, -1) * row[:-1], np.arange(1, k + 1) * row[1:]
    return np.convolve(d_u, block[0]) + np.convolve(d_v, block[1])


def test_lie_row_is_the_convolution_of_its_rows():
    # entry for entry and dtype for dtype: int64, Python ints, Fractions,
    # Scaled blocks and float64 (with signed zeros), the last where one
    # side of each product has at most two entries, as in the G rows:
    # np.convolve rounds longer rows through BLAS, whose fused sums differ
    # in the last bit
    rng = np.random.default_rng(83)
    for k in range(1, 6):
        for j in range(0, 5):
            for _ in range(3):
                ints = rng.integers(-5, 6, size=k + 1), rng.integers(-5, 6, size=(2, j + 1))
                fractions = [as_fraction_matrix(x) / int(rng.integers(1, 5)) for x in ints]
                kinds = [ints, [x.astype(object) for x in ints], fractions, [as_scaled(x) for x in fractions]]
                if min(k, j + 1) <= 2:
                    floats = rng.uniform(-3.0, 3.0, size=k + 1), rng.uniform(-3.0, 3.0, size=(2, j + 1))
                    floats[0][rng.integers(0, k + 1)] = -0.0
                    kinds.append(floats)
                for row, block in kinds:
                    assert_same_entries(lie_row(row, block), _convolve_lie_row(row, block))


def test_as_fraction_matrix_coerces_entries():
    m = as_fraction_matrix([[1, "1/2"], [Fraction(3, 4), 0]])
    assert m.dtype == object
    assert m.tolist() == [
        [Fraction(1), Fraction(1, 2)],
        [Fraction(3, 4), Fraction(0)],
    ]
