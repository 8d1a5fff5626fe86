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
carry the denominators along, so an expression of blocks runs in
integer arithmetic, and a Fraction is made only when a block is read
back (:func:`as_array`).  The object arrays matter: an array of Python
ints built without ``dtype=object`` becomes int64 and wraps silently.

The same block expressions give both arithmetics their code.
:func:`straight_line` runs an expression once on object arrays of
symbolic entries, each of which writes the operation it takes part in
as one statement, and compiles the statements into one function, with
no numpy call between the operations: over Python floats, the
operations of the expression on object arrays of floats, in their
order; over Python ints, on blocks whose numerators and denominators
are all symbols, the integer operations of the expression on
:class:`Scaled` blocks, the lcm of two denominators included.
"""

from __future__ import annotations

import math
from collections import Counter
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
    "straight_line",
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


def _lcm(a, b):
    """math.lcm of two denominators, or the statement that takes it at
    run time when they are symbols (:func:`straight_line`)."""
    return a.tape.emit(a, "lcm", b) if isinstance(a, _Entry) else math.lcm(a, b)


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
        den = _lcm(self.den, other.den)
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


class _Entry:
    """A symbolic scalar: the name of a value in straight-line code.  Each
    arithmetic operation on it appends one statement to its :class:`_Tape`
    and gives the entry of the result."""

    __slots__ = ("name", "tape")

    def __init__(self, name: str, tape: "_Tape"):
        self.name = name
        self.tape = tape

    def __add__(self, other):
        return self.tape.emit(self, "+", other)

    def __radd__(self, other):
        return self.tape.emit(other, "+", self)

    def __sub__(self, other):
        return self.tape.emit(self, "-", other)

    def __rsub__(self, other):
        return self.tape.emit(other, "-", self)

    def __mul__(self, other):
        return self.tape.emit(self, "*", other)

    def __rmul__(self, other):
        return self.tape.emit(other, "*", self)

    def __truediv__(self, other):
        return self.tape.emit(self, "/", other)

    def __floordiv__(self, other):
        return self.tape.emit(self, "//", other)

    def __pow__(self, other):
        return self.tape.emit(self, "**", other)

    def __neg__(self):
        return self.tape.emit(None, "-", self)


class _Tape:
    """The operations recorded by :class:`_Entry` arithmetic, each as
    (target, op, left, right), the operands as names or literals and
    left None for a negation.  An operation already recorded on the same
    operands gives the entry it gave then, and a product with 1 gives the
    other factor: the same operation on the same values gives the same
    value, and x * 1.0 is x.  Over ints (``integer``) 0 + x gives x too;
    over floats it does not, since 0 + -0.0 is 0.0."""

    def __init__(self, integer: bool):
        self.integer = integer
        self.statements: list[tuple[str, str, str | None, str]] = []
        self.known: dict[tuple, _Entry] = {}

    def operand(self, x) -> str:
        """An entry's name, or a number as its literal: over floats every
        value of the code is a Python float, and an int meeting a float is
        converted to one before the operation, so the float literal rounds
        the same; over ints every value is a Python int."""
        if isinstance(x, _Entry):
            return x.name
        if self.integer:
            if type(x) is int:
                return repr(x)
        elif isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x):
            return repr(float(x))
        raise TypeError(f"straight-line code takes entries and finite numbers, got {x!r}")

    def emit(self, left, op: str, right) -> _Entry:
        if op == "*" and 1 in (left, right):
            return right if left == 1 else left
        if self.integer and op == "+" and type(left) is int and left == 0:
            return right
        key = (op, None if left is None else self.operand(left), self.operand(right))
        entry = self.known.get(key)
        if entry is None:
            entry = self.known[key] = _Entry(f"t{len(self.statements)}", self)
            self.statements.append((entry.name, *key))
        return entry


def _is_name(operand: str | None) -> bool:
    return operand is not None and operand[0] in "tx"


def _expression(op: str, left: str | None, right: str) -> str:
    if left is None:
        return op + right
    return f"lcm({left}, {right})" if op == "lcm" else f"{left} {op} {right}"


def straight_line(build, shapes, name: str, scaled: bool = False):
    """Compile ``build`` into straight-line code over floats, or over ints.

    ``build`` takes arrays of the given ``shapes`` and returns a tuple of
    arrays.  It runs once, on object arrays of :class:`_Entry` symbols,
    and the operations its arithmetic records, less those no result
    reads, become one function compiled under the file name ``<name>``;
    a value read once is written into the expression that reads it.  The
    returned routine takes float64 arrays of those shapes and gives
    float64 arrays of the results' shapes, each entry computed by the
    operations ``build`` runs on object arrays of Python floats: bit for
    bit those results.  A division by zero raises ZeroDivisionError, as
    it does there.

    With ``scaled``, ``build`` takes and returns :class:`Scaled` blocks,
    ``shapes`` giving their numerators' shapes, and runs once on blocks
    whose numerators and denominator are all symbols; the lcm of two
    different denominators is taken at run time.  The routine then takes
    Scaled blocks of Python ints and gives Scaled blocks whose numerators
    and denominators are the very integers ``build`` gives on those
    blocks, not merely the same rationals.
    """
    tape = _Tape(integer=scaled)
    args, count = [], 0
    for shape in shapes:
        block = np.empty(shape, dtype=object)
        names = [_Entry(f"x{count + i}", tape) for i in range(block.size + scaled)]
        block.flat[:] = names[: block.size]
        args.append(Scaled(block, names[-1]) if scaled else block)
        count += len(names)
    if scaled:
        results = [(r.num, [*r.num.flat, r.den]) for r in build(*args)]
    else:
        results = [(r, list(r.flat)) for r in map(np.asarray, build(*args))]
    outputs = [tape.operand(x) for _, flat in results for x in flat]
    reads = Counter(outputs)
    live = []
    for statement in reversed(tape.statements):
        if statement[0] in reads:
            live.append(statement)
            reads.update(x for x in statement[2:] if _is_name(x))
    inline: dict[str, str] = {}
    body = []

    def term(x: str | None) -> str | None:
        return f"({inline.pop(x)})" if x in inline else x

    for target, op, left, right in reversed(live):
        expr = _expression(op, term(left), term(right))
        if reads[target] == 1 and target not in outputs:
            inline[target] = expr
        else:
            body.append(f"    {target} = {expr}")
    params = ", ".join(f"x{i}" for i in range(count))
    source = f"def routine({params}):\n" + "\n".join(body) + f"\n    return ({', '.join(outputs)},)\n"
    namespace: dict = {"lcm": math.lcm}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    routine = namespace["routine"]
    ends = np.cumsum([len(flat) for _, flat in results]).tolist()
    pieces = [(end - len(flat), end, r.shape) for (r, flat), end in zip(results, ends)]

    if scaled:

        def run(*blocks):
            entries = []
            for b in blocks:
                entries += b.num.ravel().tolist()
                entries.append(b.den)
            flat = np.array(routine(*entries), dtype=object)
            return [Scaled(flat[start : end - 1].reshape(shape), flat[end - 1]) for start, end, shape in pieces]

        return run

    def run(*arrays):
        flat = np.array(routine(*np.concatenate([a.ravel() for a in arrays]).astype(float, copy=False).tolist()))
        return [flat[start:end].reshape(shape) for start, end, shape in pieces]

    return run
