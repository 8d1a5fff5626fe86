"""The public API: the stages, what they take and give, and the entry points."""

import ast
import dataclasses
import importlib
import re
from fractions import Fraction
from pathlib import Path

import polycycle
from polycycle import Reduction, hopf_indicator, instantiate, predict, reduce
from polycycle.averaging import GCoefficients

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "AnalysisOptions",
    "AnalysisReport",
    "ComparisonReport",
    "CycleMeasurement",
    "HopfIndicator",
    "KbmPrediction",
    "NoSolutionError",
    "PlanarPolySystem",
    "Reduction",
    "SystemDefinition",
    "Trajectory",
    "TransversalityError",
    "build_system",
    "compare",
    "hopf_indicator",
    "instantiate",
    "integrate",
    "load_definition",
    "measure_cycle",
    "predict",
    "reduce",
    "run_analyze",
    "run_sweep",
    "samples_to_csv",
    "sweep_to_csv",
]

# The names that left __all__, by the module they still import from.
LAYER_NAMES = {
    "change_of_variables": (
        "ChangeOfVariables", "ConstraintSystem", "assemble_constraints", "min_degree_bound",
        "residual_condition33", "solve_theta",
    ),
    "inversion": ("InverseSeries", "invert_to_cubic", "trust_radius"),
    "averaging": ("GCoefficients", "cycle_curve", "g_coefficients", "p3_q3", "predict_cycle"),
}


def test_all_is_the_stages_and_the_entry_points():
    assert polycycle.__all__ == PUBLIC
    namespace = {}
    exec("from polycycle import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    for name in PUBLIC:
        assert namespace[name] is getattr(polycycle, name)


def test_the_layer_names_import_from_their_modules():
    assert sum(map(len, LAYER_NAMES.values())) == 14
    for module, names in LAYER_NAMES.items():
        mod = importlib.import_module(f"polycycle.{module}")
        for name in names:
            assert name not in polycycle.__all__
            assert name in mod.__all__ and callable(getattr(mod, name)), (module, name)


def test_predict_reads_only_g3_and_gamma_inverse(definitions):
    # a Reduction stripped to G3 and the series' Gamma^{-1} predicts the same
    # cycle, bit for bit, as the full one
    system = instantiate(definitions["normal_form"], Fraction(1, 25))
    hopf = hopf_indicator(system)
    red = reduce(system)
    bare = Reduction(
        cov=None,
        inv=dataclasses.replace(red.inv, blocks={1: red.inv.blocks[1]}, p2_op=None, p3_op=None, r2_op=None),
        g=GCoefficients(g2=None, g3=red.g.g3),
        residual=None,
        trust_radius=None,
    )
    pred, curve = predict(red, hopf.tau, hopf.delta)
    pred_bare, curve_bare = predict(bare, hopf.tau, hopf.delta)
    assert pred.exists and pred_bare == pred
    assert curve_bare.tobytes() == curve.tobytes()


def test_the_readme_example_calls_only_public_names(monkeypatch):
    # the "Library use" block, which CI also runs as written
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library use") : readme.index("## Layout")]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    names = [name for module, name in imported if module == "polycycle"]
    assert {"reduce", "predict", "measure_cycle", "compare"} <= set(names) <= set(PUBLIC)
    assert {module for module, _ in imported} == {"fractions", "polycycle"}
    monkeypatch.chdir(ROOT)
    printed = []
    monkeypatch.setattr("builtins.print", lambda *args: printed.append(args))
    exec(code, {})
    ((amplitude, stability, measured, verdict),) = printed
    assert (stability, verdict) == ("stable_supercritical", "agreement")
    assert abs(amplitude - 0.2) < 1e-3 and abs(measured - 0.2) < 1e-6
