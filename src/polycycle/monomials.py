"""Monomial vectors of planar points and the matrices that act on them.

The degree-k monomial vector of a point (u, v) is

    lambda_k(u, v) = (u^k, u^(k-1) v, ..., u v^(k-1), v^k),

a column of length k + 1 whose entry i holds u^(k-i) v^i.  Everything
downstream (the change of variables, its inversion, the averaged
coefficients) is bookkeeping on these vectors, driven by four integer
matrix families:

* ``R`` and ``L`` encode differentiation along a trajectory,

      d/dt lambda_k = (u' R_k + v' L_k) lambda_{k-1},

* ``S_hat`` and ``S_check`` encode multiplication by coordinate powers,

      u^p lambda_k = S_hat(k, p) lambda_{k+p},
      v^p lambda_k = S_check(k, p) lambda_{k+p}.

The matrices are plain integer arrays.  Each takes the dtype of what it
multiplies: against an object array of ints and Fractions the product
stays exact, against float64 it is float64, so one expression serves
both arithmetics.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = [
    "eval_lambda",
    "eval_poly_map",
    "r_matrix",
    "l_matrix",
    "s_hat",
    "s_check",
]


def _check_degree(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"degree k must be an integer >= 1, got {k!r}")


def eval_lambda(k: int, point) -> np.ndarray:
    """Evaluate the degree-k monomial vector at a planar point or points.

    Parameters
    ----------
    k : int
        Degree, at least 1.
    point : pair of numbers, or (2, N) array
        Coordinates (u, v), or one point per column.  Float coordinates
        give float64; ints and Fractions are kept exact in an object
        array.

    Returns
    -------
    numpy.ndarray
        Shape (k + 1,) or (k + 1, N), entry i equal to u^(k-i) * v^i.
        Each entry is built by repeated multiplication, so a column of
        a batch rounds exactly as the same point alone.
    """
    _check_degree(k)
    lam = np.array(point)
    if lam.dtype.kind != "f":
        lam = lam.astype(object)
    u, v = lam
    for _ in range(k - 1):
        lam = np.concatenate([u * lam, v * lam[-1:]])
    return lam


def eval_poly_map(blocks: dict, point) -> np.ndarray:
    """Evaluate sum_k blocks[k] lambda_k(point) at a point or points.

    ``blocks`` maps each degree k to its 2 x (k+1) coefficient block;
    ``point`` is as for :func:`eval_lambda`.  The products are summed
    term by term in a fixed order instead of through a matrix product,
    whose BLAS kernels round one vector and a batch of them differently,
    so each column of a batch equals the same point evaluated alone.
    """
    out = 0
    for k in sorted(blocks):
        for coeffs, monomial in zip(blocks[k].T, eval_lambda(k, point)):
            out = out + np.multiply.outer(coeffs, monomial)
    return out


def r_matrix(k: int) -> np.ndarray:
    """(k+1) x k differentiation weights for the u-velocity.

    Row i carries k - i at column i; the last row is zero.
    """
    _check_degree(k)
    rows = [[k - i if j == i else 0 for j in range(k)] for i in range(k + 1)]
    return np.array(rows)


def l_matrix(k: int) -> np.ndarray:
    """(k+1) x k differentiation weights for the v-velocity.

    The first row is zero; row i + 1 carries i + 1 at column i.
    """
    _check_degree(k)
    rows = [[i if j == i - 1 else 0 for j in range(k)] for i in range(k + 1)]
    return np.array(rows)


def s_hat(k: int, p: int) -> np.ndarray:
    """(k+1) x (k+p+1) selector with the identity in the leading block.

    Multiplication by u^p: u^p lambda_k = s_hat(k, p) lambda_{k+p}.
    """
    _check_degree(k)
    if not isinstance(p, (int, np.integer)) or p < 0:
        raise ValueError(f"power p must be an integer >= 0, got {p!r}")
    rows = [[1 if j == i else 0 for j in range(k + p + 1)] for i in range(k + 1)]
    return np.array(rows)


def s_check(k: int, p: int) -> np.ndarray:
    """(k+1) x (k+p+1) selector with the identity in the trailing block.

    Multiplication by v^p: v^p lambda_k = s_check(k, p) lambda_{k+p}.
    """
    _check_degree(k)
    if not isinstance(p, (int, np.integer)) or p < 0:
        raise ValueError(f"power p must be an integer >= 0, got {p!r}")
    rows = [[1 if j == i + p else 0 for j in range(k + p + 1)] for i in range(k + 1)]
    return np.array(rows)


def as_fraction_matrix(a) -> np.ndarray:
    """Copy a matrix (or vector) into an object array of Fractions."""
    arr = np.asarray(a)
    out = np.empty(arr.shape, dtype=object)
    flat_in = arr.reshape(-1)
    flat_out = out.reshape(-1)
    for i, x in enumerate(flat_in):
        flat_out[i] = x if isinstance(x, Fraction) else Fraction(x)
    return out
