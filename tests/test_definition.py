"""JSON system definitions: parsing, validation, instantiation."""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from polycycle.definition import instantiate, load_definition


def _minimal(**overrides):
    base = {
        "name": "toy",
        "jac": [["alpha", -1], [1, "alpha"]],
        "phi": [[[0, 0, 0], [0, 0, 0]], [[-1, 0, -1, 0], [0, -1, 0, -1]]],
        "alpha_default": 0.05,
    }
    base.update(overrides)
    return base


def test_load_from_dict_string_and_path(tmp_path):
    payload = _minimal()
    from_dict = load_definition(payload)
    from_string = load_definition(json.dumps(payload))
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(payload))
    from_path = load_definition(path)
    for defn in (from_dict, from_string, from_path):
        assert defn.name == "toy"
        assert defn.uses_alpha
        assert defn.alpha_default == 0.05


def test_load_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown definition fields"):
        load_definition(_minimal(extra=1))


def test_load_rejects_bad_shapes():
    with pytest.raises(ValueError, match="2 x 2"):
        load_definition(_minimal(jac=[[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ValueError, match="degree 2"):
        load_definition(_minimal(phi=[[[1, 0], [0, 0]]]))


def test_load_rejects_invalid_json_text():
    with pytest.raises(ValueError, match="not valid JSON"):
        load_definition('{"name": ')


def test_entry_whitelist():
    bad_entries = [
        "__import__('os')",
        "beta",
        "sin(alpha)",
        "2**-1",
        "2**0.5",
        "alpha +",
    ]
    for entry in bad_entries:
        with pytest.raises(ValueError):
            load_definition(_minimal(jac=[[entry, -1], [1, 0]]))


def test_division_by_zero_is_reported():
    with pytest.raises(ValueError, match="division by zero"):
        load_definition(_minimal(jac=[["1/0", -1], [1, 0]]))


def test_huge_powers_are_refused_before_they_are_taken():
    # taken, these powers would need 12.5 GB and 128 MB
    for entry in ("2**10**11", "((((2**64)**64)**64)**64)**64"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="would exceed"):
            load_definition(_minimal(jac=[[entry, -1], [1, 0]]))
        assert time.perf_counter() - start < 0.5
    defn = load_definition(_minimal(jac=[["alpha**3", "(1/2)**4"], [1, 0]]))
    assert instantiate(defn, Fraction(1, 2)).jac[0].tolist() == [Fraction(1, 8), Fraction(1, 16)]
    assert instantiate(defn, 0.5, exact=False).jac[0].tolist() == [0.125, 0.0625]


def test_float_overflow_is_an_input_error():
    # exact 2^1500 is fine; as a float it overflows
    defn = load_definition(_minimal(jac=[["2**1500", -1], [1, 0]]))
    with pytest.raises(ValueError, match="overflows a float"):
        instantiate(defn, 0.05, exact=False)


def test_exact_instantiation_keeps_rationals():
    defn = load_definition(_minimal())
    system = instantiate(defn, "1/20")
    assert system.exact
    assert system.jac.tolist() == [
        [Fraction(1, 20), Fraction(-1)],
        [Fraction(1), Fraction(1, 20)],
    ]
    # float alphas pass through the decimal literal, not the binary float
    system2 = instantiate(defn, 0.05)
    assert system2.jac[0, 0] == Fraction(1, 20)
    # arithmetic expressions in entries are folded exactly
    defn3 = load_definition(_minimal(jac=[["alpha**2 - 1", "-(1 + alpha)"], [1, 0]]))
    system3 = instantiate(defn3, Fraction(1, 2))
    assert system3.jac[0, 0] == Fraction(-3, 4)
    assert system3.jac[0, 1] == Fraction(-3, 2)


def test_float_instantiation():
    defn = load_definition(_minimal())
    system = instantiate(defn, 0.05, exact=False)
    assert not system.exact
    assert system.jac.dtype == np.float64
    np.testing.assert_allclose(system.jac, [[0.05, -1.0], [1.0, 0.05]])


def test_alpha_defaulting_and_requirement():
    defn = load_definition(_minimal())
    system = instantiate(defn)  # falls back to alpha_default
    assert system.jac[0, 0] == Fraction(1, 20)

    free = load_definition(
        {
            "name": "fixed",
            "jac": [[0, -1], [1, 0]],
            "phi": [[[1, 0, 0], [0, 0, 0]]],
        }
    )
    assert not free.uses_alpha
    assert free.alpha_default is None
    instantiate(free)  # no alpha needed

    payload = _minimal()
    payload.pop("alpha_default")
    bare = load_definition(payload)
    with pytest.raises(ValueError, match="needs alpha"):
        instantiate(bare)


def test_description_is_optional():
    defn = load_definition(_minimal(description="cubic softening"))
    assert defn.description == "cubic softening"


def test_bundled_corpus_loads(definitions):
    for name, defn in definitions.items():
        assert defn.name
        system = instantiate(defn, defn.alpha_default)
        assert system.degree >= 1
