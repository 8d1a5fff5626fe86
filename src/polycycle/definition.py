"""System definitions loaded from JSON files.

A definition file holds the Jacobian and the polynomial blocks of a
planar field, with entries that are either plain numbers or small
arithmetic expressions in a parameter ``alpha`` (for example
``"alpha"``, ``"2*alpha - 1"``, ``"-1/4"``).  Expressions are parsed
with :mod:`ast` and checked against a whitelist, so a definition file
can never run code, and a power too large to take is refused before it
is taken (``MAX_POWER_BITS``).

Schema::

    {
      "name": "...",
      "description": "...",            optional
      "jac": [[e, e], [e, e]],
      "phi": [block2, block3, ...],    optional, block k is 2 x (k+1)
      "alpha_default": 0.05            optional
    }

Each entry is parsed once, by :func:`load_definition`, which checks
the whitelist and folds every part that does not involve alpha to a
Fraction.  An error no value of alpha can mend (a division by zero, a
negative exponent) is refused there; one that depends on alpha
(``"1/(alpha-1)"`` at alpha = 1) is refused by :func:`instantiate`.
The blocks are laid out once per definition, with every entry that
does not involve alpha in place, and :func:`instantiate` copies them
and evaluates only the entries that do.
Entries are evaluated in exact arithmetic only: integers are taken as
they are, decimal literals through their string form (so "0.1" means
1/10, not the nearest double), and a float system is the exact one
rounded once.
"""

from __future__ import annotations

import ast
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from .system import PlanarPolySystem, _trim

__all__ = ["SystemDefinition", "load_definition", "resolve_alpha", "instantiate"]

# An exact power is refused when its base's bit length times its exponent
# exceeds this, before it is taken: the cost of a power grows with the
# size of its result, and no coefficient needs more than a few hundred bits.
MAX_POWER_BITS = 10_000

_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}

# A parsed entry is a Fraction when it does not involve alpha, and
# otherwise _ALPHA or a triple (operator, left, right) of parsed entries
# whose alpha-free parts are Fractions.  A minus sign is a product by -1.
_ALPHA = "alpha"


# A refusal quotes at most this many characters of an entry: an entry
# can run to thousands of them, and the error is one line.
QUOTE_CHARS = 40


def _quoted(text: str) -> str:
    """repr of an entry (or a name in one) for an error message, cut to
    its first QUOTE_CHARS characters and '...' when it is longer."""
    return repr(text) if len(text) <= QUOTE_CHARS else f"{text[:QUOTE_CHARS]!r}..."


def _check_right(op, right: Fraction, src: str) -> None:
    if op is operator.truediv and right == 0:
        raise ValueError(f"division by zero in {_quoted(src)}")
    if op is operator.pow and (right.denominator != 1 or right < 0):
        raise ValueError(f"exponent must be a non-negative integer in {_quoted(src)}")


def _apply(op, left: Fraction, right: Fraction, src: str) -> Fraction:
    _check_right(op, right, src)
    if op is operator.pow:
        bits = max(left.numerator.bit_length(), left.denominator.bit_length())
        if bits * right > MAX_POWER_BITS:
            raise ValueError(f"power in {_quoted(src)} would exceed {MAX_POWER_BITS} bits")
        return left ** int(right)
    return op(left, right)


def _combine(op, left, right, src: str):
    if isinstance(right, Fraction):
        if isinstance(left, Fraction):
            return _apply(op, left, right, src)
        _check_right(op, right, src)  # wrong at every alpha
    return (op, left, right)


def _fold(node, src: str):
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ValueError(f"unsupported constant in {_quoted(src)}: a {type(node.value).__name__}")
        return Fraction(node.value if isinstance(node.value, int) else str(node.value))
    if isinstance(node, ast.Name):
        if node.id != "alpha":
            raise ValueError(f"unknown name {_quoted(node.id)} in {_quoted(src)}; only 'alpha' is allowed")
        return _ALPHA
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        value = _fold(node.operand, src)
        return value if isinstance(node.op, ast.UAdd) else _combine(operator.mul, Fraction(-1), value, src)
    if isinstance(node, ast.BinOp):
        left, right = _fold(node.left, src), _fold(node.right, src)
        if type(node.op) not in _OPERATORS:
            raise ValueError(f"unsupported operator in {_quoted(src)}")
        return _combine(_OPERATORS[type(node.op)], left, right, src)
    raise ValueError(f"unsupported syntax in {_quoted(src)}")


def _parse_entry(entry) -> tuple:
    """(parsed entry, source text) of one matrix entry.

    Raises ValueError on anything outside the whitelist, on an error
    that no value of alpha can mend, and on an entry nested deeper than
    the interpreter's recursion limit lets it be parsed or folded.
    """
    if isinstance(entry, bool):
        raise ValueError(f"boolean is not a valid entry: {entry!r}")
    if not isinstance(entry, (str, int, float)):
        raise ValueError(f"entry must be a number or string, got {type(entry).__name__}")
    src = str(entry)
    try:
        node = ast.parse(entry, mode="eval").body if isinstance(entry, str) else ast.Constant(entry)
        return _fold(node, src), src
    except SyntaxError as err:
        raise ValueError(f"cannot parse entry {_quoted(src)}: {err.msg}") from None
    except (RecursionError, MemoryError):
        # CPython's parser reports nesting past its own stack as a MemoryError
        raise ValueError(_too_deep(src)) from None


def _too_deep(src: str) -> str:
    return f"entry {_quoted(src)} is nested too deeply"


def _evaluate(tree, alpha: Fraction, src: str) -> Fraction:
    if isinstance(tree, Fraction):
        return tree
    if tree is _ALPHA:
        return alpha
    op, left, right = tree
    return _apply(op, _evaluate(left, alpha, src), _evaluate(right, alpha, src), src)


@dataclass(frozen=True)
class SystemDefinition:
    """A loaded definition; each entry is kept as (parsed entry, source text)."""

    name: str
    description: str
    jac: tuple
    phi: tuple
    alpha_default: float | None

    @cached_property
    def template(self) -> tuple:
        """The blocks J, phi_2, phi_3, ... as object arrays holding each
        entry that does not involve alpha as its Fraction, and the entries
        that do as (block, flat index, parsed entry, source text); laid
        out once, on first read.  The arrays are read-only: an instance
        copies them."""
        blocks, entries = [], []
        for b, rows in enumerate((self.jac, *self.phi)):
            block = np.empty((len(rows), len(rows[0])), dtype=object)
            for i, (tree, src) in enumerate(entry for row in rows for entry in row):
                if isinstance(tree, Fraction):
                    block.flat[i] = tree
                else:
                    entries.append((b, i, tree, src))
            block.flags.writeable = False
            blocks.append(block)
        return tuple(blocks), tuple(entries)

    @property
    def uses_alpha(self) -> bool:
        """Whether an entry depends on alpha."""
        return bool(self.template[1])


def load_definition(source) -> SystemDefinition:
    """Parse a definition from a path, a JSON string, or a dict."""
    if isinstance(source, dict):
        raw = source
    else:
        text = Path(source).read_text() if not str(source).lstrip().startswith("{") else str(source)
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"definition is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ValueError("definition must be a JSON object")
    unknown = set(raw) - {"name", "description", "jac", "phi", "alpha_default"}
    if unknown:
        raise ValueError(f"unknown definition fields: {sorted(unknown)}")

    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("definition needs a non-empty string 'name'")
    jac = raw.get("jac")
    if (
        not isinstance(jac, list)
        or len(jac) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in jac)
    ):
        raise ValueError("'jac' must be a 2 x 2 array")

    phi = raw.get("phi", [])
    if not isinstance(phi, list):
        raise ValueError("'phi' must be a list of coefficient blocks")
    for idx, block in enumerate(phi):
        k = idx + 2
        if (
            not isinstance(block, list)
            or len(block) != 2
            or any(not isinstance(row, list) or len(row) != k + 1 for row in block)
        ):
            raise ValueError(f"phi block for degree {k} must be 2 x {k + 1}")

    alpha_default = raw.get("alpha_default")
    if alpha_default is not None and (
        isinstance(alpha_default, bool) or not isinstance(alpha_default, (int, float))
    ):
        raise ValueError("'alpha_default' must be a number")

    def parse(rows):
        return tuple(tuple(_parse_entry(e) for e in row) for row in rows)

    return SystemDefinition(
        name=name,
        description=raw.get("description", ""),
        jac=parse(jac),
        phi=tuple(parse(block) for block in phi),
        alpha_default=alpha_default,
    )


def resolve_alpha(defn: SystemDefinition, alpha=None) -> Fraction | None:
    """The exact alpha ``defn`` is instantiated at; None when it has none.

    ``alpha`` falls back to the file's ``alpha_default``.  An int, a
    Fraction or a numeric string ("1/20", "0.05") is taken exactly, and
    a float through its decimal literal, so 0.05 means 1/20; a boolean
    is refused.  A given alpha is checked even where the definition does
    not use it.
    """
    if alpha is None:
        if not defn.uses_alpha:
            return None
        alpha = defn.alpha_default
        if alpha is None:
            raise ValueError(f"system {defn.name!r} needs alpha and has no default")
    if isinstance(alpha, bool) or not isinstance(alpha, (int, Fraction, str, float)):
        raise ValueError(f"cannot use {type(alpha).__name__} as alpha")
    try:
        value = Fraction(str(alpha) if isinstance(alpha, float) else alpha)
    except ZeroDivisionError:
        raise ValueError(f"alpha {alpha!r} divides by zero") from None
    return value if defn.uses_alpha else None


def instantiate(defn: SystemDefinition, alpha=None) -> PlanarPolySystem:
    """Build the exact system for one parameter value.

    ``alpha`` is resolved by :func:`resolve_alpha`.  The blocks are fresh
    copies of the definition's :attr:`~SystemDefinition.template`, with
    the entries that involve alpha evaluated exactly at it; trailing phi
    blocks that are zero at this alpha are trimmed, as
    :func:`~polycycle.system.build_system` trims them.  The float system
    is this one rounded once, ``instantiate(defn, alpha).to_float()``.
    """
    value = resolve_alpha(defn, alpha)
    blocks, entries = defn.template
    blocks = [block.copy() for block in blocks]
    for b, i, tree, src in entries:
        try:
            blocks[b].flat[i] = _evaluate(tree, value, src)
        except RecursionError:
            raise ValueError(_too_deep(src)) from None
    return PlanarPolySystem(blocks[0], tuple(_trim(blocks[1:])))
