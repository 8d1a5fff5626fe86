"""Monomial vectors of planar points and products of coefficient rows.

The degree-k monomial vector of a point (u, v) is

    lambda_k(u, v) = (u^k, u^(k-1) v, ..., u v^(k-1), v^k),

a column of length k + 1 whose entry i holds u^(k-i) v^i.  A row c of
k + 1 coefficients stands for the homogeneous polynomial c . lambda_k.
The inverse series and the G rows of the reduced equation are algebra
of such rows, and that algebra needs one product rule: the row of a
product of two homogeneous polynomials is the convolution of their rows,

    (a . lambda_p)(b . lambda_q) = (a * b) . lambda_(p+q),

so powers, compositions with a linear map and derivatives along a field
(:func:`lie_row`) are all products of rows (:func:`row_product`).  The
rows are short (two to four entries), so a product is formed entry by
entry over Python scalars, the ``tolist()`` of the arrays: ints and
Fractions stay exact, float64 entries become Python floats, which round
the same, and one code serves both arithmetics.

The rows may also be integer numerators over a shared denominator.  A
:class:`Scaled` block holds an exact array as Python ints in an object
array over one int denominator; matrix products and sums of blocks
carry the denominators along, so the same expression that runs on
float64 arrays runs on blocks in integer arithmetic, and a Fraction is
made only when a block is read back (:func:`as_array`).  The object
arrays matter: an array of Python ints built without ``dtype=object``
becomes int64 and wraps silently.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "monomial_table",
    "eval_lambda",
    "eval_poly_map",
    "partial_rows",
    "row_product",
    "lie_row",
    "denominator_lcm",
    "numerators",
    "Scaled",
    "as_scaled",
    "as_array",
    "as_float",
]


def _check_degree(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"degree k must be an integer >= 1, got {k!r}")


def monomial_table(m: int, point) -> np.ndarray:
    """The monomial vectors lambda_1 ... lambda_m at a planar point or
    points, stacked in degree order.

    Parameters
    ----------
    m : int
        Highest degree, at least 1.
    point : pair of numbers, or (2, N) array
        Coordinates (u, v), or one point per column.  Float coordinates
        give float64; ints and Fractions are kept exact in an object
        array.

    Returns
    -------
    numpy.ndarray
        Shape (m (m + 3) / 2,) or (m (m + 3) / 2, N): the k + 1 rows of
        lambda_k follow those of lambda_(k-1), so that [B_1 | ... | B_m]
        times the table is sum_k B_k lambda_k.  Each entry is one product,
        u or v times an entry of the degree below, so a column of a batch
        rounds exactly as the same point alone.
    """
    _check_degree(m)
    points = np.asarray(point)
    if points.dtype.kind != "f":
        points = points.astype(object)
    u, v = points
    table = np.empty((m * (m + 3) // 2, *points.shape[1:]), dtype=points.dtype)
    table[:2] = points
    prev = 0
    for k in range(2, m + 1):
        # rows prev .. prev+k-1 hold lambda_(k-1), the next k + 1 lambda_k
        start = prev + k
        np.multiply(table[prev:start], u, out=table[start : start + k])
        np.multiply(table[start - 1 : start], v, out=table[start + k : start + k + 1])
        prev = start
    return table


def eval_lambda(k: int, point) -> np.ndarray:
    """Evaluate the degree-k monomial vector at a planar point or points.

    ``point`` is as for :func:`monomial_table`.  Returns shape (k + 1,)
    or (k + 1, N), entry i equal to u^(k-i) * v^i: the last k + 1 rows of
    the table, so a column of a batch rounds exactly as the same point
    alone.
    """
    return monomial_table(k, point)[-(k + 1) :]


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


def partial_rows(row) -> tuple[list, list]:
    """Rows (d_u, d_v) of the two partial derivatives of row . lambda_k,
    as lists of Python scalars (:func:`row_product` takes them).

    ``row`` has k + 1 entries, k >= 1; each derivative is a row of k
    entries over lambda_(k-1).
    """
    coeffs = np.asarray(row).tolist()
    k = len(coeffs) - 1
    _check_degree(k)
    return [(k - i) * x for i, x in enumerate(coeffs[:-1])], [i * x for i, x in enumerate(coeffs) if i]


def row_product(p: list, q: list) -> list:
    """Coefficient row of the product of the homogeneous polynomials with
    rows ``p`` and ``q``, lists of Python scalars: entry k is the sum of
    p[i] q[k - i] over i, added to 0 in the order of i.  An int 0 plus a
    float is that float (or 0.0 for -0.0), so where one row has at most
    two entries, as in every product the package forms, a float64 entry
    is bit for bit numpy's convolution of the rows; ints and Fractions
    stay exact."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        k = i
        for y in q:
            out[k] += x * y
            k += 1
    return out


def lie_row(row, block) -> np.ndarray:
    """Coefficient row of d/dt (row . lambda_k) along a homogeneous field.

    The field is u' = block[0] . lambda_j, v' = block[1] . lambda_j, with
    ``block`` of shape 2 x (j + 1); ``row`` has k + 1 entries, k >= 1.
    By the chain rule the derivative is (d_u row) u' + (d_v row) v', the
    rows of :func:`partial_rows` times those of the field
    (:func:`row_product`), so the result is the k + j entries of a row
    over lambda_(k+j-1), in the dtype of the row and the block.  For
    :class:`Scaled` blocks it is the row of the numerators over the
    product of the denominators, since it is bilinear in the row and the
    field.
    """
    if isinstance(row, Scaled):
        return Scaled(lie_row(row.num, block.num), row.den * block.den)
    row, block = np.asarray(row), np.asarray(block)
    d_u, d_v = partial_rows(row)
    f_u, f_v = block.tolist()
    out = [a + b for a, b in zip(row_product(d_u, f_u), row_product(d_v, f_v))]
    return np.array(out, dtype=np.result_type(row, block))


def denominator_lcm(arrays) -> int:
    """Least common multiple of the denominators of ints and Fractions."""
    return math.lcm(*(x.denominator for arr in arrays for x in arr.flat))


def numerators(arr: np.ndarray, d: int) -> np.ndarray:
    """d * arr as an object array of ints (d a multiple of every denominator)."""
    out = np.empty(arr.shape, dtype=object)
    out.flat[:] = [x.numerator * (d // x.denominator) for x in arr.flat]
    return out


def _times(num: np.ndarray, factor: int) -> np.ndarray:
    return num if factor == 1 else num * factor


class Scaled:
    """An exact array held as integer numerators over one denominator.

    ``num`` is an object array of Python ints and ``den`` a positive int;
    the array stands for num / den.  A matrix product multiplies the
    denominators and a sum brings its terms to the lcm of theirs, so an
    expression of blocks runs in integer arithmetic.  :func:`lie_row`
    and the operators of :mod:`polycycle.inversion` take blocks too.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: int):
        self.num = num
        self.den = den

    @property
    def T(self) -> "Scaled":
        return Scaled(self.num.T, self.den)

    def __getitem__(self, index) -> "Scaled":
        return Scaled(self.num[index], self.den)

    def __neg__(self) -> "Scaled":
        return Scaled(-self.num, self.den)

    def __matmul__(self, other: "Scaled") -> "Scaled":
        return Scaled(self.num @ other.num, self.den * other.den)

    def __add__(self, other: "Scaled") -> "Scaled":
        if self.den == other.den:
            return Scaled(self.num + other.num, self.den)
        den = math.lcm(self.den, other.den)
        return Scaled(_times(self.num, den // self.den) + _times(other.num, den // other.den), den)

    def to_float(self) -> np.ndarray:
        """The block rounded to float64.  Python's int / int is correctly
        rounded, so each entry equals float() of its Fraction."""
        return (self.num / self.den).astype(float)


def as_scaled(arr):
    """An array of ints and Fractions as a :class:`Scaled` block over the
    lcm of its denominators; a float array is returned as it is."""
    if arr.dtype != object:
        return arr
    den = denominator_lcm((arr,))
    return Scaled(numerators(arr, den), den)


def as_array(block) -> np.ndarray:
    """A :class:`Scaled` block as an object array of Fractions; a float
    array is returned as it is."""
    if not isinstance(block, Scaled):
        return block
    out = np.empty(block.num.shape, dtype=object)
    out.flat[:] = [Fraction(n, block.den) for n in block.num.flat]
    return out


def as_float(block) -> np.ndarray:
    """A :class:`Scaled` block rounded to float64 (:meth:`Scaled.to_float`);
    a float array is returned as it is."""
    return block.to_float() if isinstance(block, Scaled) else block
