"""Monomial vectors and the structural matrices acting on them."""

from fractions import Fraction

import numpy as np
import pytest

from polycycle.monomials import (
    as_fraction_matrix,
    eval_lambda,
    l_matrix,
    r_matrix,
    s_check,
    s_hat,
)


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


def test_eval_lambda_rejects_degree_below_one():
    with pytest.raises(ValueError):
        eval_lambda(0, (1.0, 2.0))


def test_r_and_l_explicit_at_degree_two():
    assert r_matrix(2).tolist() == [[2, 0], [0, 1], [0, 0]]
    assert l_matrix(2).tolist() == [[0, 0], [1, 0], [0, 2]]


@pytest.mark.parametrize("k", range(1, 9))
def test_r_plus_l_row_and_column_sums(k):
    total = r_matrix(k) + l_matrix(k)
    assert total.shape == (k + 1, k)
    # each row sums to k, each column to k + 1
    assert [int(s) for s in total.sum(axis=1)] == [k] * (k + 1)
    assert [int(s) for s in total.sum(axis=0)] == [k + 1] * k


def test_derivative_identity():
    # d/dt lambda_k = (du R_k + dv L_k) lambda_{k-1} along any motion
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        u0, v0, du, dv = (Fraction(int(x)) for x in rng.integers(-4, 5, size=4))

        def d_monomial(i):
            left = (k - i) * u0 ** (k - i - 1) * v0**i if i < k else Fraction(0)
            right = i * u0 ** (k - i) * v0 ** (i - 1) if i > 0 else Fraction(0)
            return du * left + dv * right

        expected = [d_monomial(i) for i in range(k + 1)]
        got = (du * r_matrix(k) + dv * l_matrix(k)) @ eval_lambda(k - 1, (u0, v0))
        assert list(got) == expected


def test_shift_identities():
    # u^p lambda_k and v^p lambda_k are slices of lambda_{k+p}
    rng = np.random.default_rng(11)
    for _ in range(12):
        k = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        u = Fraction(int(rng.integers(-5, 6)))
        v = Fraction(int(rng.integers(-5, 6)))
        lam_k = eval_lambda(k, (u, v))
        lam_kp = eval_lambda(k + p, (u, v))
        assert list(s_hat(k, p) @ lam_kp) == [u**p * w for w in lam_k]
        assert list(s_check(k, p) @ lam_kp) == [v**p * w for w in lam_k]


def test_shift_shapes_and_blocks():
    sh = s_hat(2, 1)
    sc = s_check(2, 1)
    assert sh.shape == (3, 4) and sc.shape == (3, 4)
    assert sh.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    assert sc.tolist() == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_as_fraction_matrix_coerces_entries():
    m = as_fraction_matrix([[1, "1/2"], [Fraction(3, 4), 0]])
    assert m.dtype == object
    assert m.tolist() == [
        [Fraction(1), Fraction(1, 2)],
        [Fraction(3, 4), Fraction(0)],
    ]
