"""JSON system definitions: parsing, validation, instantiation."""

import ast
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import assert_same_entries
from polycycle.definition import _evaluate, instantiate, load_definition, resolve_alpha
from polycycle.pipeline import AnalysisOptions, run_analyze, run_sweep
from polycycle.system import build_system


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
        "alpha**-1",
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
    assert instantiate(defn, 0.5).to_float().jac[0].tolist() == [0.125, 0.0625]


def test_float_overflow_is_an_input_error():
    # exact 2^1500 is fine; as a float it overflows
    defn = load_definition(_minimal(jac=[["2**1500", -1], [1, 0]]))
    with pytest.raises(ValueError, match="overflows a float"):
        run_analyze(defn, AnalysisOptions(alpha=0.05, exact=False, measure=False))


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
    system = instantiate(defn, 0.05).to_float()
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


def test_entry_invalid_only_at_one_alpha_loads():
    # valid at every alpha but 1, which must not be the one load checks
    cubic = [["1/(alpha-1)", 0, 0, 0], [0, 0, 0, -1]]
    defn = load_definition(_minimal(phi=[[[0, 0, 0], [0, 0, 0]], cubic]))
    exact = instantiate(defn, Fraction(1, 20))
    assert exact.phi[1][0, 0] == Fraction(-20, 19)
    assert instantiate(defn, Fraction(1, 20)).to_float().phi[1][0, 0] == float(Fraction(-20, 19))
    with pytest.raises(ValueError, match="division by zero"):
        instantiate(defn, 1)
    with pytest.raises(ValueError, match="division by zero"):
        run_analyze(defn, AnalysisOptions(alpha=1, exact=False, measure=False))
    # a zero divisor whatever alpha is still fails at load
    with pytest.raises(ValueError, match="division by zero"):
        load_definition(_minimal(jac=[["alpha/(2 - 2)", -1], [1, 0]]))


def test_entries_are_parsed_once_at_load(systems_dir, monkeypatch):
    calls = []
    original = ast.parse

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting)
    raw = json.loads((systems_dir / "mixed.json").read_text())
    raw["phi"][1][0][1] = "3/4 - alpha**2"
    raw["phi"][0][1][2] = "-1/8"
    strings = [e for rows in [raw["jac"], *raw["phi"]] for row in rows for e in row if isinstance(e, str)]
    defn = load_definition(raw)
    assert sorted(calls) == sorted(strings) and len(strings) == 4
    calls.clear()
    instantiate(defn, "1/20")
    instantiate(defn, 0.05).to_float()
    run_sweep(defn, ["0.02", "1/30"], AnalysisOptions(measure=False))
    run_sweep(defn, [0.02], AnalysisOptions(exact=False, measure=False))
    assert calls == []


def _random_entry(rng, depth=0):
    """A random whitelisted expression in alpha, as source text."""
    pick = rng.random()
    if depth > 2 or pick < 0.3:
        return rng.choice(["alpha", str(rng.randint(-9, 9)), f"{rng.randint(1, 99)}/{rng.randint(1, 13)}", "0.1", "2.5e-3"])
    left, right = _random_entry(rng, depth + 1), _random_entry(rng, depth + 1)
    if pick < 0.4:
        return f"-({left})"
    if pick < 0.5:
        return f"({left})**{rng.randint(0, 3)}"
    op = rng.choice(["+", "-", "*", "/"])
    return f"({left}) {op} ({right} + 1/7)" if op == "/" else f"({left}) {op} ({right})"


def test_float_instantiation_is_the_exact_one_rounded_once(definitions):
    def rounded(system):
        return [np.array([[float(x) for x in row] for row in m]) for m in (system.jac, *system.phi)]

    def assert_bitwise(flt, exact):
        assert [m.tobytes() for m in (flt.jac, *flt.phi)] == [m.tobytes() for m in rounded(exact)]

    for defn in definitions.values():
        for alpha in (None, "1/30", -0.07, 1e-5):
            assert_bitwise(instantiate(defn, alpha).to_float(), instantiate(defn, alpha))
    rng = random.Random(1213)
    for trial in range(40):
        degree = rng.randint(2, 4)
        raw = {
            "name": f"generic{trial}",
            "jac": [["alpha", -1], [1, "alpha"]],
            "phi": [[[_random_entry(rng) for _ in range(k + 1)] for _ in range(2)] for k in range(2, degree + 1)],
        }
        defn = load_definition(raw)
        alpha = rng.choice([Fraction(1, 20), 0.013, "-1/3"])
        assert_bitwise(instantiate(defn, alpha).to_float(), instantiate(defn, alpha))


def test_alpha_rule():
    defn = load_definition(_minimal())
    assert resolve_alpha(defn) == Fraction(1, 20)  # the file default, 0.05 as written
    assert resolve_alpha(defn, 0.1) == Fraction(1, 10)
    assert resolve_alpha(defn, "-1/30") == Fraction(-1, 30)
    assert resolve_alpha(defn, 3) == 3
    free = load_definition({"name": "fixed", "jac": [[0, -1], [1, 0]], "alpha_default": 0.5})
    assert resolve_alpha(free) is None and resolve_alpha(free, "1/3") is None
    for bad in ("abc", "1/0", [1]):
        with pytest.raises(ValueError):
            resolve_alpha(free, bad)


def test_boolean_alpha_is_refused():
    # bool is a subclass of int: true would otherwise run at alpha = 1
    # and false at alpha = 0, as matrix entries already refuse to
    for flag in (True, False):
        with pytest.raises(ValueError, match="'alpha_default' must be a number"):
            load_definition(_minimal(alpha_default=flag))
    defn = load_definition(_minimal())
    for flag in (True, False):
        with pytest.raises(ValueError, match="cannot use bool as alpha"):
            resolve_alpha(defn, flag)
        with pytest.raises(ValueError, match="cannot use bool as alpha"):
            run_analyze(defn, AnalysisOptions(alpha=flag, measure=False))
    # a sweep point given as a boolean is an error row, not alpha = 0
    rows = run_sweep(defn, [False, "1/20"], AnalysisOptions(measure=False))
    assert [row["verdict"] for row in rows][0] == "error"
    assert rows[1]["alpha"] == 0.05 and rows[1]["verdict"] != "error"


def _built(defn, alpha):
    """The system of every entry evaluated at alpha, through build_system:
    the reference for the template."""
    value = resolve_alpha(defn, alpha)

    def evaluate(rows):
        return [[_evaluate(tree, value, src) for tree, src in row] for row in rows]

    return build_system(evaluate(defn.jac), [evaluate(block) for block in defn.phi])


def test_instantiate_fills_the_template_as_build_system_builds(definitions):
    for name, defn in definitions.items():
        for alpha in (None, "1/30", -0.07, "1/7", 2):
            system, reference = instantiate(defn, alpha), _built(defn, alpha)
            assert system.degree == reference.degree, (name, alpha)
            for got, want in zip((system.jac, *system.phi), (reference.jac, *reference.phi)):
                assert_same_entries(got, want)


def test_systems_of_one_definition_share_no_array(definitions):
    defn = definitions["mixed"]
    first, second, third = instantiate(defn, "1/20"), instantiate(defn, "1/20"), instantiate(defn, "1/30")
    arrays = [a for system in (first, second, third) for a in (system.jac, *system.phi)]
    for i, a in enumerate(arrays):
        assert a.flags.writeable
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])
    first.phi[0][0, 0] = Fraction(99)
    first.jac[0, 0] = Fraction(99)
    assert instantiate(defn, "1/20").phi[0][0, 0] == second.phi[0][0, 0] != 99
    assert instantiate(defn, "1/20").jac[0, 0] == Fraction(1, 20)


def test_an_entry_invalid_at_one_alpha_is_refused_there_only():
    cubic = [["1/(alpha-1)", 0, 0, 0], [0, 0, 0, -1]]
    defn = load_definition(_minimal(phi=[[[0, 0, 0], [0, 0, 0]], cubic]))
    for alpha in ("1/20", 0, "-1/3", 2, "1/1000"):
        value = resolve_alpha(defn, alpha)
        assert instantiate(defn, alpha).phi[1][0, 0] == 1 / (value - 1)
    with pytest.raises(ValueError, match=r"division by zero in '1/\(alpha-1\)'"):
        instantiate(defn, 1)
    assert instantiate(defn, "1/20").phi[1][0, 0] == Fraction(-20, 19)


def test_a_block_zero_at_one_alpha_is_trimmed_there():
    # the cubic block is zero at alpha = 1/20 only: the system is then of
    # degree 2, and of degree 3 elsewhere; a family whose only block is
    # zero at alpha = 0 is refused there, as build_system refuses it
    cubic = [["alpha - 1/20", 0, 0, 0], [0, 0, 0, 0]]
    defn = load_definition(_minimal(phi=[[[1, 0, 0], [0, 0, 0]], cubic]))
    assert instantiate(defn, "1/20").degree == 2
    assert instantiate(defn, "1/10").degree == 3
    assert instantiate(defn, "1/10").phi[1][0, 0] == Fraction(1, 20)
    single = load_definition(_minimal(phi=[[["alpha", 0, 0], [0, 0, 0]]]))
    assert instantiate(single, "1/20").degree == 2
    with pytest.raises(ValueError, match="every block is zero"):
        instantiate(single, 0)
    with pytest.raises(ValueError, match="every block is zero"):
        _built(single, 0)
