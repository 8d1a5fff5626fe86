"""System definitions loaded from JSON files.

A definition file holds the Jacobian and the polynomial blocks of a
planar field, with entries that are either plain numbers or small
arithmetic expressions in a parameter ``alpha`` (for example
``"alpha"``, ``"2*alpha - 1"``, ``"-1/4"``).  Expressions are parsed
with :mod:`ast` and evaluated against a whitelist, so a definition
file can never run code, and a power too large to take is refused
before it is taken (``MAX_POWER_BITS``).

Schema::

    {
      "name": "...",
      "description": "...",            optional
      "jac": [[e, e], [e, e]],
      "phi": [block2, block3, ...],    optional, block k is 2 x (k+1)
      "alpha_default": 0.05            optional
    }

In exact mode every number becomes a Fraction: integers directly,
decimal literals through their string form (so "0.1" means 1/10, not
the nearest double).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .system import PlanarPolySystem, build_system

__all__ = ["SystemDefinition", "load_definition", "instantiate"]

_Entry = int | float | str

# An exact power is refused when its base's bit length times its exponent
# exceeds this, before it is taken: the cost of a power grows with the
# size of its result, and no coefficient needs more than a few hundred bits.
MAX_POWER_BITS = 10_000


def _entry_uses_alpha(entry: _Entry) -> bool:
    if not isinstance(entry, str):
        return False
    tree = ast.parse(entry, mode="eval")
    return any(isinstance(node, ast.Name) for node in ast.walk(tree))


def _eval_entry(entry: _Entry, alpha, exact: bool):
    """Evaluate one matrix entry.

    ``alpha`` is already coerced to the target arithmetic by the
    caller.  Raises ValueError on anything outside the whitelist.
    """
    if isinstance(entry, bool):
        raise ValueError(f"boolean is not a valid entry: {entry!r}")
    if isinstance(entry, str):
        try:
            node = ast.parse(entry, mode="eval").body
        except SyntaxError as err:
            raise ValueError(f"cannot parse entry {entry!r}: {err.msg}") from None
    elif isinstance(entry, (int, float)):
        node = ast.Constant(entry)
    else:
        raise ValueError(f"entry must be a number or string, got {type(entry).__name__}")
    try:
        return _eval_node(node, str(entry), alpha, exact)
    except OverflowError:
        raise ValueError(f"entry {entry!r} overflows a float") from None


def _leaf_number(value, exact: bool):
    if not exact:
        return float(value)
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(str(value))


def _eval_node(node, src: str, alpha, exact: bool):
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ValueError(f"unsupported constant in {src!r}: {node.value!r}")
        return _leaf_number(node.value, exact)
    if isinstance(node, ast.Name):
        if node.id != "alpha":
            raise ValueError(f"unknown name {node.id!r} in {src!r}; only 'alpha' is allowed")
        if alpha is None:
            raise ValueError(f"entry {src!r} needs alpha, but no value was given")
        return alpha
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        value = _eval_node(node.operand, src, alpha, exact)
        return value if isinstance(node.op, ast.UAdd) else -value
    if isinstance(node, ast.BinOp):
        left = _eval_node(node.left, src, alpha, exact)
        right = _eval_node(node.right, src, alpha, exact)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            if right == 0:
                raise ValueError(f"division by zero in {src!r}")
            return left / right
        if isinstance(node.op, ast.Pow):
            integral = (
                isinstance(right, (int, Fraction)) and right == int(right)
            ) or (isinstance(right, float) and right.is_integer())
            if not integral or right < 0:
                raise ValueError(f"exponent must be a non-negative integer in {src!r}")
            if exact:
                bits = max(left.numerator.bit_length(), left.denominator.bit_length())
                if bits * int(right) > MAX_POWER_BITS:
                    raise ValueError(f"power in {src!r} would exceed {MAX_POWER_BITS} bits")
            return left ** int(right)
        raise ValueError(f"unsupported operator in {src!r}")
    raise ValueError(f"unsupported syntax in {src!r}")


@dataclass(frozen=True)
class SystemDefinition:
    """A parsed definition file, entries kept in raw form."""

    name: str
    description: str
    jac: tuple
    phi: tuple
    alpha_default: float | None

    @property
    def uses_alpha(self) -> bool:
        entries = [e for row in self.jac for e in row]
        for block in self.phi:
            entries.extend(e for row in block for e in row)
        return any(_entry_uses_alpha(e) for e in entries)


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
    if alpha_default is not None and not isinstance(alpha_default, (int, float)):
        raise ValueError("'alpha_default' must be a number")

    defn = SystemDefinition(
        name=name,
        description=raw.get("description", ""),
        jac=tuple(tuple(row) for row in jac),
        phi=tuple(tuple(tuple(row) for row in block) for block in phi),
        alpha_default=alpha_default,
    )
    for entry in [e for row in defn.jac for e in row] + [
        e for block in defn.phi for row in block for e in row
    ]:
        _eval_entry(entry, Fraction(1), True)  # validate syntax eagerly
    return defn


def _coerce_alpha(alpha, exact: bool):
    if alpha is None:
        return None
    if exact:
        if isinstance(alpha, (int, Fraction)):
            return Fraction(alpha)
        if isinstance(alpha, str):
            return Fraction(alpha)
        if isinstance(alpha, float):
            return Fraction(str(alpha))
        raise ValueError(f"cannot use {type(alpha).__name__} as an exact alpha")
    return float(Fraction(alpha) if isinstance(alpha, str) else alpha)


def instantiate(defn: SystemDefinition, alpha=None, exact: bool = True) -> PlanarPolySystem:
    """Build the concrete system for one parameter value.

    ``alpha`` may be an int, float, Fraction, or numeric string; it
    falls back to the file's ``alpha_default``.  Definitions that do
    not mention alpha ignore it.
    """
    if alpha is None and defn.uses_alpha:
        alpha = defn.alpha_default
        if alpha is None:
            raise ValueError(f"system {defn.name!r} needs alpha and has no default")
    value = _coerce_alpha(alpha, exact)
    jac = [[_eval_entry(e, value, exact) for e in row] for row in defn.jac]
    phi = tuple(
        [[_eval_entry(e, value, exact) for e in row] for row in block] for block in defn.phi
    )
    return build_system(jac, phi)
