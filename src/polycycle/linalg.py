"""Exact-rational and floating-point linear solvers.

The exact route works on integer rows of [A | b], b in column n (the
width of A), as a :class:`Split`.  A defining row is the only row that
holds its pivot column, so it adds one to the rank and needs no
elimination; it is a dense integer list over the other columns, and the
other rows, the coupled ones, are sparse {column: int} dicts.  The
change-of-variables assembly writes the split from its index table (the
defining rows are the equations of the row-2 Theta_k entries); bare
sparse rows are divided by their content and split by :func:`_split`.
No Fraction is created: the solution comes back as integer numerators
over one positive denominator, with the rank.
When the coupled rows are homogeneous and a certificate
(:func:`_full_column_rank`) proves they have full column rank, every
unknown they hold is 0 and nothing is eliminated: the certificate
settles single-entry rows exactly and the rest by a Cholesky
factorization in float64 with a rigorous error bound (Rump, BIT 46,
2006; :func:`_cholesky_proof`).  It proves the coupled rows of the
corpus and of the generic change-of-variables systems of degree 2 to 7.
Otherwise the coupled rows are eliminated, fraction-free (Bareiss,
Math. Comp. 22, 1968), by Gauss-Jordan over their columns: a row
already zero in the pivot column is skipped, so the banded structure
survives, and every combined row is divided by its content, so entries
stay near the size of the minors they encode.  A reduced pivot row with a single entry and no
right-hand side forces its unknown to 0; such a column is dropped from
the rows that hold it, all at once.  The defining rows are then cleared
the same way, with one cancellation per pivot row with more than one
entry that they meet.
The minimum-norm step solves the Gram system of the defining rows over
the free unknowns, D^2 I + E^T E, formed as one integer matrix product:
in int64 when a bit-length bound says every sum fits, over Python ints
otherwise.  It is dense and symmetric positive definite, and the second
kernel (:func:`_spd_solve`) runs Bareiss elimination on lists of ints
over its upper triangle only: every pivot, a leading principal minor,
is positive, so no pivoting is needed; every entry the elimination
writes is a minor of the matrix, so each division is exact, and so is
each of the back substitution over q = det, by Cramer's rule.
:func:`rref` is the plain Fraction Gauss-Jordan; no solver uses it, the
tests keep it as the reference the integer kernels must reproduce.

The float route takes the same split, as float64 blocks
(:class:`FloatSplit`): the defining rows dense over the other columns
and b, the coupled rows dense over the columns they hold.  Where the
coupled rows hold no b and the same certificate, on their rows scaled
by powers of two (:func:`_float_full_column_rank`), proves they have
full column rank, their unknowns are 0 and the Gram system of the
defining rows over the free unknowns gives the rest, in float64; a
proof is kept for the next call on the same block.  Otherwise the
dense [A | b] is built and solved by least squares, whose SVD gives the
rank with a relative threshold.  A float system with a value that is
not finite raises OverflowError before either runs.  Both routes pick
the minimum-norm element of the solution affine space so results are
canonical, and both return the rank of A with it, the only rank the
package computes.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from itertools import chain
from operator import mul
from typing import NamedTuple
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "FloatSplit",
    "Split",
    "rref",
    "solve_min_norm_exact",
    "solve_min_norm_float",
]

SV_REL_TOL = 1e-10
# Float consistency: residual of A x = b at most this times the data scale.
CONSISTENCY_TOL = 1e-9

# The unit roundoff of float64, and the widest span within a row, in
# bits, that the float certificate of full column rank takes: the bit
# length of its largest entry less that of its smallest nonzero one.  A
# row of span at most this, scaled so that its largest entry is below 1,
# keeps every nonzero entry a normal float, however long its integers.
UNIT_ROUNDOFF = 2.0**-53
CERTIFY_MAX_BITS = 1000
# The largest modulus of a defining-row entry (and of b) that the float
# Gram step takes: below it (d^2 I + E^T E), E^T beta and the solution
# stay below 2^800 for any system of fewer than 2^20 entries, so nothing
# overflows; a larger system goes to lstsq.
GRAM_MAX = 2.0**250

# A sparse integer row: column index -> nonzero entry.
Row = dict[int, int]


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
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _primitive(row: Row) -> Row:
    """The row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    if g == 1:
        return row
    return {k: v // g for k, v in row.items()}


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


def _drop(row: Row, columns) -> Row:
    """The row without the entries in ``columns``, made primitive."""
    out = {k: v for k, v in row.items() if k not in columns}
    return _primitive(out) if out else out


def _echelon(rows: list[Row], order: list[int]) -> tuple[list[Row], list[int]]:
    """Row echelon form over the columns in ``order``: the pivot rows and
    their pivot columns, both in the order the columns were taken.

    The pivot for each column is the sparsest row that has it, which
    keeps fill-in low; the pivot columns do not depend on that choice.
    A pivot row with one entry sets its unknown to 0, so its column is
    dropped from the other rows rather than cancelled.
    """
    active = rows
    done: list[Row] = []
    pivots: list[int] = []
    for c in order:
        hits = [r for r in active if c in r]
        if not hits:
            continue
        p = min(hits, key=len)
        rest = []
        for r in active:
            if r is p:
                continue
            if c in r:
                r = _drop(r, {c}) if len(p) == 1 else _cancel(r, p, c)
                if not r:
                    continue
            rest.append(r)
        active = rest
        done.append(p)
        pivots.append(c)
    return done, pivots


def _split(rows: list[Row], n: int) -> tuple[list[tuple[Row, int]], list[Row]]:
    """The defining rows, each with its pivot column, and the other rows.

    A row holding a column of A that no other row has is that column's
    pivot row (the lowest such column it holds, when it has several).
    Its unknown can absorb any value the rest of the system leaves, so
    it adds one to the rank, cannot make the system inconsistent and
    needs no elimination.  In a change-of-variables system these are the
    equations of the row-2 Theta_k unknowns, each met only by the -1 of
    its own equation.
    """
    count = Counter(chain.from_iterable(rows))
    single = {k for k, v in count.items() if v == 1 and k < n}
    defining, rest = [], []
    for row in rows:
        own = single.intersection(row)
        if own:
            defining.append((row, min(own)))
        else:
            rest.append(row)
    return defining, rest


def _columns(rows: list[Row], n: int) -> list[int]:
    """The columns of A that ``rows`` hold, in index order."""
    return sorted({k for row in rows for k in row if k < n})


def _clear(row: Row, zero: set[int], pivot_rows: dict[int, Row]) -> Row:
    """The row cleared of the zero unknowns and of the pivot columns of
    ``pivot_rows``, which are reduced: each holds no other pivot column,
    so no cancellation brings one back.  The zero columns go in one pass;
    the row is cancelled only against the pivot rows with more than one
    entry."""
    if not zero.isdisjoint(row):
        row = _drop(row, zero)
    for c in [k for k in row if k in pivot_rows]:
        row = _cancel(row, pivot_rows[c], c)
    return row


def _reduce(rows: list[Row], pivots: list[int]) -> tuple[set[int], dict[int, Row]]:
    """Reduce an echelon form from its last row up: the zero unknowns and
    the reduced pivot rows with more than one entry, by pivot column.

    Each row is cleared of the pivots below it, which are reduced by
    then.  A reduced row with a single entry and no right-hand side
    forces its unknown to 0.  Row i is already zero in ``pivots[:i]``,
    so this works whatever order the columns were taken in.
    """
    zero: set[int] = set()
    reduced: dict[int, Row] = {}
    for row, c in zip(reversed(rows), reversed(pivots)):
        row = _clear(row, zero, reduced)
        if len(row) == 1:
            zero.add(c)
        else:
            reduced[c] = row
    return zero, reduced


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def _full_column_rank(rows: list[Row], columns: list[int]) -> bool:
    """True only when the integer rows, over ``columns`` (every column
    they hold), are proved to have full column rank; False means not
    proved, not rank deficient.

    First, exactly: a row with a single entry makes its column's unknown
    0 in every kernel vector, so the column is dropped from all rows,
    again while new single-entry rows appear.  The block has full column
    rank if the rest has; with no column left the proof is done.  This
    settles the corpus systems' blocks without floats.

    Then in float64, on the m x k rest.  Each row is scaled by 2^-b, b
    the bit length of its largest entry, which keeps the rank; the
    scaled block S then has entries of modulus below 1, the largest in
    each row at least 1/2.  A row whose span, b less the bit length a of
    its smallest nonzero entry, is above ``CERTIFY_MAX_BITS`` is refused.
    Every nonzero entry of a row is at least 2^(a - 1), so every nonzero
    of S is at least 2^-(CERTIFY_MAX_BITS + 1) = 2^-1001, a normal float
    (the least is 2^-1022) whatever b is, and int / int rounds it
    correctly to F with |F - S| <= u |S| entrywise (u = 2^-53), which
    :func:`_cholesky_proof` takes.
    """
    live = set(columns)
    while True:
        forced = {c for row in rows if len(row) == 1 for c in row}
        if not forced:
            break
        live -= forced
        rows = [row if forced.isdisjoint(row) else _drop(row, forced) for row in rows]
        rows = [row for row in rows if row]
    if not live:
        return True
    if len(rows) < len(live):
        return False
    slot = {c: i for i, c in enumerate(sorted(live))}
    a = np.zeros((len(rows), len(slot)))
    for row, out in zip(rows, a):
        magnitudes = [abs(v) for v in row.values()]
        b = max(magnitudes).bit_length()
        if b - min(magnitudes).bit_length() > CERTIFY_MAX_BITS:
            return False
        scale = 1 << b
        for c, v in row.items():
            out[slot[c]] = v / scale
    return _cholesky_proof(a)


def _float_full_column_rank(block: np.ndarray) -> bool:
    """True only when the float64 block is proved to have full column
    rank, as :func:`_full_column_rank` proves an integer one; False means
    not proved.  Each row is scaled by 2^-e, its largest modulus f 2^e
    with 1/2 <= f < 1, so that the largest modulus in each row lies in
    [1/2, 1).  A power of two scales exactly unless the result is
    subnormal and loses bits, so a block that does not scale back to
    itself is refused; otherwise :func:`_cholesky_proof` takes F = S."""
    if block.shape[1] == 0:
        return True
    e = np.frexp(np.abs(block).max(axis=1))[1][:, None]
    scaled = np.ldexp(block, -e)
    return np.array_equal(np.ldexp(scaled, e), block) and _cholesky_proof(scaled)


@lru_cache(maxsize=64)
def _proved_float(shape: tuple, data: bytes) -> bool:
    """:func:`_float_full_column_rank` of the float64 block with this
    shape and these bytes, kept for the next call on the same block: the
    coupled rows of a change-of-variables system hold no entry of J, so
    the points of a sweep that moves only J ask about one block."""
    return _float_full_column_rank(np.frombuffer(data).reshape(shape))


def _cholesky_proof(a: np.ndarray) -> bool:
    """True when the m x k float64 block F proves that S has full column
    rank, S a block whose rows have their largest modulus in [1/2, 1)
    and F either S itself or a rounding of it with |F - S| <= u |S|
    entrywise.  False means not proved, and is the answer for m < k and
    for a block with an entry that is not finite: ``np.linalg.cholesky``
    returns NaN, without raising, on a matrix that holds one.

    G = F^T F is formed in float64 and the shift

        delta = 2 (gamma_m + 3 u + gamma_{k+1} / (1 - 2 gamma_{k+1})) tr G

    is subtracted from its diagonal (gamma_j = j u / (1 - j u)).  If the
    floating-point Cholesky factorization of G - delta I completes, S has
    full column rank (S. M. Rump, "Verification of positive
    definiteness", BIT Numer. Math. 46, 2006; the error bounds are
    Higham's, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 3 and 10).  In the 2-norm:
    - F^T F - S^T S has norm at most (2 u + u^2) ||S||_F^2, from the
      rounding of S;
    - the computed G differs from F^T F by at most gamma_m |F|^T |F|
      entrywise, in any order of summation and in whichever triangle
      LAPACK reads, so by gamma_m ||F||_F^2;
    - subtracting delta rounds each diagonal entry, by at most
      u max(G_ii, delta);
    - a Cholesky factorization that completes on the float matrix H
      gives R^T R = H + dH with |dH| <= gamma_{k+1} |R|^T |R|, whose norm
      is at most gamma_{k+1} tr(|R|^T |R|) <= gamma_{k+1} / (1 -
      gamma_{k+1}) tr H (Rump's argument, valid for blocked and any other
      summation order).
    R^T R is positive definite, so lambda_min(S^T S) > delta minus the
    four terms, which are (3 u + gamma_m + gamma_{k+1} / (1 -
    gamma_{k+1})) tr G to first order; the factor 2 covers the terms of
    second order in u, the difference between tr G and ||S||_F^2, and
    the absolute terms of underflow in products of small entries (Rump's
    eta terms, of order k^2 2^-1074, against delta >= 3 u / 2), for any
    m and k far below 1/u.  A ``LinAlgError`` means not proved.  No
    entry exceeds 1 in modulus and G's entries are at most m, so nothing
    overflows.
    """
    m, k = a.shape
    if m < k or not np.isfinite(a).all():
        return False
    gram = a.T @ a
    shift = 2 * (_gamma(m) + 3 * UNIT_ROUNDOFF + _gamma(k + 1) / (1 - 2 * _gamma(k + 1)))
    gram.flat[:: k + 1] -= shift * float(np.trace(gram))
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _spd_solve(matrix: list[list[int]], rhs: list[int]) -> tuple[list[int], int]:
    """Integers X and q = det(matrix) > 0 with matrix . X = q rhs, for a
    symmetric positive definite integer matrix; only its upper triangle
    is read.

    Fraction-free (Bareiss) elimination in the given order: step p sets
    a_ij = (a_pp a_ij - a_ip a_pj) / (the pivot of step p - 1, or 1),
    which by Sylvester's identity is the minor of rows 0..p, i and
    columns 0..p, j, so the division is exact.  Pivot p is the leading
    principal minor of order p + 1, positive for a positive definite
    matrix, so no pivot is zero and no row is swapped.  The minors for
    (i, j) and (j, i) are transposes of each other, so each stage stays
    symmetric and only the entries with j >= i (and the right-hand side)
    are updated: row i of ``tri`` holds the entries i .. k - 1 and the
    right-hand side last.  Back substitution scales by the last pivot
    q = det(matrix); by Cramer's rule q x_i is the integer determinant
    with column i replaced by rhs, so each division there is exact too.
    """
    k = len(matrix)
    tri = [[*matrix[i][i:], rhs[i]] for i in range(k)]
    prev = 1
    for p in range(k):
        top = tri[p]
        piv = top[0]
        for i in range(p + 1, k):
            lead = top[i - p:]
            f = lead[0]
            tri[i] = [(piv * v - f * w) // prev for v, w in zip(tri[i], lead)]
        prev = piv
    q = prev
    x = [0] * k
    for i in range(k - 1, -1, -1):
        row = tri[i]
        s = q * row[-1] - sum(v * x[j] for j, v in enumerate(row[1:-1], i + 1))
        x[i] = s // row[0]
    return x, q


class Split(NamedTuple):
    """The rows of [A | b], b in column n, with the defining rows set apart.

    ``coupled`` are the other rows, sparse, each with any nonzero factor.
    Defining row i has the entry ``pivot`` (the same for all) in column
    ``pivots[i]``, which no other row holds; its entries over ``others``,
    the columns of A that no defining row pivots on, then its b, are
    ``dense[i * w:(i + 1) * w]``, w = len(others) + 1.
    """

    coupled: list[Row]
    pivots: Sequence[int]
    pivot: int
    others: Sequence[int]
    dense: list[int]

    def rows(self, n: int) -> list[Row]:
        """The defining rows as sparse rows, then the coupled ones."""
        w = len(self.others) + 1
        out = [{c: self.pivot} for c in self.pivots]
        for i, row in enumerate(out):
            row.update((k, v) for k, v in zip([*self.others, n], self.dense[i * w : (i + 1) * w]) if v)
        return out + list(self.coupled)


class FloatSplit(NamedTuple):
    """A float64 [A | b], b in column n, split as :class:`Split` splits
    integer rows: n = len(pivots) + len(others).

    Defining row i has ``pivot`` in column ``pivots[i]`` and the row
    ``dense[i]`` over the columns ``others``, then b.  The coupled rows
    are ``coupled``, dense over the columns they hold: column j of it is
    position ``held[j]`` in (``others``, then b).  The index arrays are
    ``np.intp``.
    """

    pivots: np.ndarray
    pivot: float
    others: np.ndarray
    dense: np.ndarray
    held: np.ndarray
    coupled: np.ndarray

    def augmented(self) -> np.ndarray:
        """The dense [A | b], built on each call."""
        top, n = len(self.pivots), len(self.pivots) + len(self.others)
        columns = np.append(self.others, n)
        full = np.zeros((top + len(self.coupled), n + 1))
        full[np.arange(top), self.pivots] = self.pivot
        full[:top, columns] = self.dense
        full[top:, columns[self.held]] = self.coupled
        return full


def _split_solve_float(split: FloatSplit) -> tuple[np.ndarray, int] | None:
    """The minimum-norm solution and rank A where the coupled rows hold no
    b, the defining rows no entry above ``GRAM_MAX``, and
    :func:`_float_full_column_rank` proves that the coupled rows have full
    column rank over the columns where they are not zero; None otherwise.

    Those columns' unknowns are then 0, and the rank is their count plus
    one per defining row.  Each defining row reads d x_{c_i} + e_i . x_F
    = beta_i over the free unknowns x_F, so x_c = (beta - E_F x_F) / d
    and the norm is least where (d^2 I + E_F^T E_F) x_F = E_F^T beta, as
    in :func:`_gram_solve`; one product [E_F | beta]^T [E_F | beta]
    holds both sides.
    """
    coupled, held = split.coupled, split.held
    live = coupled.any(axis=0)
    if not live.all():
        coupled, held = coupled[:, live], held[live]
    if held.size and held[-1] == len(split.others):
        return None  # the coupled rows hold b
    if np.abs(split.dense).max() > GRAM_MAX or not _proved_float(coupled.shape, coupled.tobytes()):
        return None
    keep = np.ones(len(split.others) + 1, dtype=bool)
    keep[held] = False
    e = split.dense[:, keep]
    k = e.shape[1] - 1
    gram = e.T @ e
    d = split.pivot
    gram.flat[: k * (k + 2) : k + 2] += d * d
    free_x = np.linalg.solve(gram[:k, :k], gram[:k, k])
    x = np.zeros(len(split.pivots) + len(split.others))
    x[split.others[keep[:-1]]] = free_x
    x[split.pivots] = (e[:, k] - e[:, :k] @ free_x) / d
    return x, len(split.pivots) + len(held)


def _scaled(solved: list[tuple[Row, int]], others: list[int], n: int, coupled=()) -> Split:
    """The (row, pivot column) pairs as the defining rows of a split, each
    times d / p, p its pivot entry and d = lcm |p| over them all."""
    d = math.lcm(*(row[c] for row, c in solved))
    dense = [row.get(k, 0) * (d // row[c]) for row, c in solved for k in [*others, n]]
    return Split(list(coupled), [c for _, c in solved], d, others, dense)


def _gram_dtype(top: int, rows: int):
    """int64 when it holds every entry and partial sum of the Gram
    product of ``rows`` rows whose d and entries are at most ``top`` in
    modulus, all at most (rows + 1) top^2; else object (Python ints)."""
    return np.int64 if 2 * top.bit_length() + (rows + 1).bit_length() <= 63 else object


def _gram_solve(split: Split, zero: set[int], n: int) -> tuple[list[int], int]:
    """Minimum-norm solution (nums, den), den > 0, of the defining rows
    d x_{c_i} + e_i . x_F = beta_i of ``split``, x_F the unknowns that
    are neither pivots nor in ``zero``.  As x_c = (beta - e . x_F) / d,
    the norm is least where (d^2 I + E^T E) x_F = E^T beta: one matrix
    product in the dtype :func:`_gram_dtype` picks, then
    :func:`_spd_solve`.  The rows are divided first by the gcd of d and
    their entries, signed as d: a factor does not change (nums, den)."""
    keep = [j for j, c in enumerate(split.others) if c not in zero]
    free = [split.others[j] for j in keep]
    try:
        e = np.array(split.dense, dtype=np.int64)
    except OverflowError:
        e = np.array(split.dense, dtype=object)
    e = e.reshape(-1, len(split.others) + 1)[:, [*keep, -1]]
    flat = e.ravel().tolist()
    g = math.gcd(split.pivot, *flat) * (1 if split.pivot > 0 else -1)
    d, top = split.pivot // g, max(abs(split.pivot), max(flat, default=0), -min(flat, default=0)) // abs(g)
    a = (e // g).astype(_gram_dtype(top, len(e)), copy=False)
    a, beta = a[:, :-1], a[:, -1]
    gram = a.T @ a
    gram.flat[:: len(free) + 1] += d * d
    free_x, q = _spd_solve(gram.tolist(), (a.T @ beta).tolist())
    # every unknown over den = q d
    nums = [0] * n
    for f, value in zip(free, free_x):
        nums[f] = value * d
    for c, row, b in zip(split.pivots, a.tolist(), beta.tolist()):
        nums[c] = b * q - sum(map(mul, row, free_x))
    return nums, q * d


def _eliminate(rows: Split | Sequence[Row], n: int) -> tuple[Split | None, set[int], int]:
    """The minimum-norm solve up to its Gram step: the rows and the zero
    unknowns :func:`_gram_solve` takes (None, {} if inconsistent), rank A.

    Each defining row adds one to the rank.  When the coupled rows hold
    no b and :func:`_full_column_rank` proves they have full column rank,
    they force every unknown they hold to 0 and add their column count
    to the rank, as their elimination would, without running it.
    Otherwise (a right-hand side, a rank-deficient block such as the
    rotation cubic's, or one the certificate cannot prove) they are
    eliminated over their columns and b last, so a pivot in b marks an
    inconsistent system, and reduced (:func:`_reduce`); each defining row
    is cleared (:func:`_clear`), and the reduced pivot rows join them.
    """
    if isinstance(rows, Split):
        split = rows
    else:
        defining, coupled = _split([_primitive(row) for row in rows if row], n)
        owned = {c for _, c in defining}
        split = _scaled(defining, [k for k in range(n) if k not in owned], n, coupled)
    coupled = [row for row in split.coupled if row]
    columns = _columns(coupled, n)
    if all(n not in row for row in coupled) and _full_column_rank(coupled, columns):
        return split, set(columns), len(split.pivots) + len(columns)
    coupled, pivots = _echelon(coupled, [*columns, n])
    rank = len(split.pivots) + len(pivots)
    if pivots and pivots[-1] == n:
        return None, set(), rank - 1
    zero, reduced = _reduce(coupled, pivots)
    # zip stops at the last defining row
    solved = [(_clear(row, zero, reduced), c) for row, c in zip(split.rows(n), split.pivots)]
    solved += [(row, c) for c, row in reduced.items()]
    owned = zero.union(c for _, c in solved)
    return _scaled(solved, [k for k in range(n) if k not in owned], n), set(), rank


def solve_min_norm_exact(rows: Split | Sequence[Row], n: int) -> tuple[tuple[list[int], int] | None, int]:
    """Minimum-norm exact solution of A x = b and rank A.

    ``rows`` are the rows of [A | b], A with ``n`` columns: a
    :class:`Split`, or sparse integer rows with b in column n, each with
    any positive factor and perhaps empty, which :func:`_split` splits.
    The rows are not modified.  The solution comes back as integers over
    one positive denominator, ``(nums, den)`` with x_i = nums[i] / den,
    or as None when the system is inconsistent.  :func:`_eliminate` takes
    the rank, :func:`_gram_solve` the minimum-norm solution, which is
    unique: the order of the work changes the work, not the answer.
    """
    split, zero, rank = _eliminate(rows, n)
    return (None if split is None else _gram_solve(split, zero, n)), rank


def _check_finite(*arrays) -> None:
    if not all(np.isfinite(x).all() for x in arrays):
        raise OverflowError("the linear system holds a value beyond the float range")


def solve_min_norm_float(matrix, rhs=None):
    """Minimum-norm least-squares solution (None when inconsistent) and rank A.

    ``matrix`` is A and ``rhs`` b, or ``matrix`` is a :class:`FloatSplit`
    of [A | b] and ``rhs`` is left out.  A split is solved on its own
    rows where :func:`_split_solve_float` proves its coupled rows force
    their unknowns to 0; otherwise, and for A and b, the dense system
    goes to ``lstsq``.  A value beyond the float range raises
    OverflowError before any of it runs.

    The rank of a dense system is the number of singular values of A
    above ``SV_REL_TOL`` times the largest, as ``lstsq`` counts them.
    Consistency means the residual is small relative to the data: a
    genuinely unsolvable system leaves an O(1) residual, roundoff leaves
    ~1e-13, so ``CONSISTENCY_TOL`` separates them cleanly.
    """
    if isinstance(matrix, FloatSplit):
        _check_finite(matrix.dense, matrix.coupled)
        solved = _split_solve_float(matrix)
        if solved is not None:
            return solved
        full = matrix.augmented()
        matrix, rhs = full[:, :-1], full[:, -1]
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    _check_finite(a, b)
    if a.size == 0:
        return np.zeros(0), 0
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=SV_REL_TOL)
    ax = a @ x
    res = float(np.linalg.norm(ax - b))
    scale = max(1.0, float(np.linalg.norm(b)), float(np.linalg.norm(ax)))
    if res > CONSISTENCY_TOL * scale:
        return None, int(rank)
    return x, int(rank)
