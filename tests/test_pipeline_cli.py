"""End-to-end reports, parameter sweeps, and the command line."""

import dataclasses
import json
import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import _generic_system
from polycycle import pipeline
from polycycle.averaging import CURVE_SAMPLES
from polycycle.change_of_variables import NoSolutionError, assemble_constraints
from polycycle.cli import _parse_alphas, main
from polycycle.definition import instantiate, load_definition
from polycycle.inversion import REL_DEFECT, TRUST_GRID
from polycycle.oracle import CYCLE_SAMPLES, CycleMeasurement
from polycycle.pipeline import (
    AnalysisOptions,
    run_analyze,
    run_sweep,
    sweep_to_csv,
)


def test_analyze_normal_form_agrees(systems_dir):
    report = run_analyze(systems_dir / "normal_form.json", AnalysisOptions())
    assert report.status == "ok"
    assert report.arithmetic == "exact"
    assert report.residual_is_exact_zero
    assert report.m == 4
    assert report.verdict == "agreement"
    pred = report.prediction
    assert pred["exists"] and pred["stability"] == "stable_supercritical"
    assert report.measurement["stable"]
    assert report.measurement["amplitude"] == pytest.approx(math.sqrt(0.05), rel=5e-3)
    assert report.comparison["amplitude_rel_err"] < 0.05
    assert report.predicted_curve is not None and report.predicted_curve.shape[1] == 3
    assert report.measured_samples is not None


def test_analyze_quadratic_center_is_degenerate(systems_dir):
    report = run_analyze(systems_dir / "quadratic.json", AnalysisOptions())
    assert report.status == "ok"
    assert report.verdict == "degenerate"
    assert report.p3 == pytest.approx(0.0, abs=1e-12)
    assert not report.prediction["exists"]
    assert report.prediction["stability"] == "undetermined"


def test_degenerate_family_point_is_solved_once(monkeypatch):
    # p3 vanishes on a linear family: the report says degenerate from one
    # reduction, with no second solve at another alpha and no warning
    calls = []
    solve = pipeline.solve_theta

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pipeline, "solve_theta", counting)
    definition = {"name": "linfam", "jac": [["alpha", -1], [1, "alpha"]]}
    report = run_analyze(definition, AnalysisOptions(alpha="1/20"))
    assert len(calls) == 1
    assert report.verdict == "degenerate"
    assert report.prediction["stability"] == "undetermined"
    assert report.warnings == []


def _no_solution(system, m=None):
    raise NoSolutionError("no change of variables at theta degree 4 (system degree 3)")


def test_missing_change_of_variables_is_reported(systems_dir, monkeypatch, capsys):
    # a float solve can still fail numerically; the analysis reports it
    monkeypatch.setattr(pipeline, "solve_theta", _no_solution)
    path = str(systems_dir / "normal_form.json")
    report = run_analyze(path, AnalysisOptions(exact=False))
    assert report.status == "no_change_of_variables"
    assert report.warnings == ["no change of variables at theta degree 4 (system degree 3)"]
    assert report.m is None and report.prediction is None and report.verdict is None
    assert "change of variables: none found\n" in report.to_text()
    assert main(["analyze", path, "--float"]) == 0
    out = capsys.readouterr().out
    assert "change of variables: none found" in out
    assert "warning: no change of variables at theta degree 4" in out


# The names the analysis calls through this module's globals, so that a
# wrapper set on pipeline.<name> (a test's, a profiler's) sees each call.
STAGE_CALLS = (
    "instantiate",
    "solve_theta",
    "invert_to_cubic",
    "g_coefficients",
    "residual_condition33",
    "trust_radius",
    "predict_cycle",
    "cycle_curve",
    "measure_cycle",
    "compare",
)


def test_each_stage_call_goes_through_the_pipeline_module(systems_dir, monkeypatch):
    calls = {name: 0 for name in STAGE_CALLS}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in STAGE_CALLS:
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    report = run_analyze(systems_dir / "normal_form.json", AnalysisOptions())
    assert report.verdict == "agreement"
    assert calls == {name: 1 for name in STAGE_CALLS}


def test_a_sweep_runs_one_analysis_per_point_through_the_pipeline_module(systems_dir, monkeypatch):
    seen = []
    analyze = pipeline.run_analyze

    def keep(source, options):
        seen.append(options.alpha)
        return analyze(source, options)

    monkeypatch.setattr(pipeline, "run_analyze", keep)
    alphas = ["1/100", "1/50", "1/20"]
    rows = run_sweep(systems_dir / "normal_form.json", alphas, AnalysisOptions(measure=False))
    assert seen == alphas and len(rows) == 3


def test_reduce_alone(normal_form_system):
    # normal_form at alpha = 1/20: the certificate is an exact zero, and
    # the trust radius is the one the README shows at alpha = 1/25 (the
    # change of variables does not depend on alpha here)
    red = pipeline.reduce(normal_form_system)
    assert isinstance(red, pipeline.Reduction)
    assert red.residual == 0 and red.cov.m == 4
    assert red.trust_radius == 0.5387657669626049
    assert red.warnings == ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        red.trust_radius = 1.0


def test_predict_alone(normal_form_system):
    red = pipeline.reduce(normal_form_system)
    pred, curve = pipeline.predict(red, 0.1, 1.0025)
    assert pred.exists and pred.stability == "stable_supercritical"
    # p3 = -(sqrt(delta)/8) g2 - (3 delta^(3/2)/8) g4 with G3 = (., -2 delta, ., -2)
    assert pred.p3 == pytest.approx(1.0025**1.5, rel=1e-12)
    assert curve.shape == (CURVE_SAMPLES, 3)
    assert float(np.max(np.abs(curve[:, 1]))) == pytest.approx(pred.z_amplitude, rel=1e-4)
    # the sign of tau against p3 decides existence: no cycle, no curve
    pred, curve = pipeline.predict(red, -0.1, 1.0025)
    assert not pred.exists and curve is None


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_a_stubbed_reduction_gives_the_same_report(systems_dir, normal_form_system, monkeypatch, exact):
    # run_analyze takes the reduction only from pipeline.reduce: a stub
    # returning one computed beforehand gives the same report, byte for byte
    path = systems_dir / "normal_form.json"
    options = AnalysisOptions(exact=exact)
    expected = run_analyze(path, options).to_json()
    # the file's default alpha, 1/20
    red = pipeline.reduce(normal_form_system if exact else normal_form_system.to_float())
    monkeypatch.setattr(pipeline, "reduce", lambda system: red)
    monkeypatch.setattr(pipeline, "solve_theta", _no_solution)
    assert run_analyze(path, options).to_json() == expected


def test_analyze_rejects_saddle(tmp_path):
    bad = tmp_path / "saddle.json"
    bad.write_text(json.dumps({"name": "saddle", "jac": [[0, 1], [1, 0]]}))
    with pytest.raises(ValueError, match="complex eigenvalue pair"):
        run_analyze(bad, AnalysisOptions())


def test_analyze_without_measurement(systems_dir):
    report = run_analyze(systems_dir / "normal_form.json", AnalysisOptions(measure=False))
    assert report.measurement is None
    assert report.comparison is None
    assert report.verdict is None
    assert report.predicted_curve is not None


def test_report_serialization_is_deterministic(systems_dir):
    options = AnalysisOptions()
    a = run_analyze(systems_dir / "normal_form.json", options)
    b = run_analyze(systems_dir / "normal_form.json", options)
    assert a.to_json() == b.to_json()
    payload = json.loads(a.to_json())
    assert payload["system_name"] == "normal_form"
    assert "predicted_curve" not in payload
    assert "measured_samples" not in payload and "measured_cycle" not in payload
    text = a.to_text()
    assert "prediction: limit cycle" in text
    assert "verdict: agreement" in text


def test_alpha_threading_and_exact_strings(systems_dir):
    report = run_analyze(
        systems_dir / "normal_form.json", AnalysisOptions(alpha="1/10", measure=False)
    )
    assert report.alpha == pytest.approx(0.1)
    assert report.tau == pytest.approx(0.2)


def test_sweep_rows_and_csv(systems_dir):
    rows = run_sweep(
        systems_dir / "normal_form.json", ["0.04", "0.09"], AnalysisOptions()
    )
    assert [row["alpha"] for row in rows] == [0.04, 0.09]
    for row in rows:
        assert row["verdict"] == "agreement"
        assert row["rel_err"] < 0.05
        assert row["predicted_amplitude"] == pytest.approx(
            math.sqrt(row["alpha"]), rel=0.05
        )
    csv = sweep_to_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "alpha,tau,p3,q3,predicted_amplitude,measured_amplitude,rel_err,verdict"
    assert len(lines) == 3
    assert lines[1].endswith("agreement")


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_report_counts_match_a_fresh_assembly(definitions, exact):
    # the report takes its counts and rank from the solve; a fresh
    # assembly of the same system and its own elimination must agree
    for name, defn in definitions.items():
        report = run_analyze(defn, AnalysisOptions(exact=exact, measure=False))
        system = instantiate(defn, defn.alpha_default)
        cs = assemble_constraints(system if exact else system.to_float(), report.m)
        assert report.unknown_count == cs.unknown_count, name
        assert report.equation_count == cs.equation_count, name
        assert report.nullspace_dim == cs.nullspace_dimension(), name


@pytest.mark.parametrize(
    "name, alpha",
    [
        ("normal_form", "1/1000"),
        ("normal_form", "1/10000"),
        ("reflected_normal_form", "-1/1000"),
        ("reflected_normal_form", "-1/10000"),
    ],
)
def test_oracle_agrees_next_to_the_hopf_point(systems_dir, name, alpha):
    # |g'| = |P' - 1| is about 4 pi |alpha| here: the return map barely
    # contracts (or expands), which the root solve does not need; plain
    # iteration needs about ln(10)/(4 pi |alpha|) returns per digit
    report = run_analyze(systems_dir / f"{name}.json", AnalysisOptions(alpha=alpha))
    assert report.verdict == "agreement"
    radius = math.sqrt(abs(float(Fraction(alpha))))
    assert report.measurement["amplitude"] == pytest.approx(radius, rel=1e-3)
    assert report.measurement["period"] == pytest.approx(2.0 * math.pi, rel=1e-3)
    assert report.measurement["stable"] == (name == "normal_form")
    assert report.measurement["crossings"] <= 15


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize(
    "name, sign", [("normal_form", 1), ("reflected_normal_form", -1), ("rescaled_normal_form", 1)]
)
@pytest.mark.parametrize("size", ["1/100", "1/1000", "1/10000"])
def test_oracle_work_next_to_the_hopf_point(systems_dir, name, sign, size, exact):
    # Newton on P - x with P' from the divergence integral, from the seed
    # at the predicted amplitude: one Newton step settles
    alpha = size if sign > 0 else f"-{size}"
    report = run_analyze(systems_dir / f"{name}.json", AnalysisOptions(alpha=alpha, exact=exact))
    assert report.verdict == "agreement"
    assert report.measurement["crossings"] <= 2


def test_a_close_prediction_is_not_taken_for_the_cycle(systems_dir):
    # at alpha = 1/1000 the predicted amplitude is so close to the cycle
    # that |P(x) - x| is below SETTLE_REL x there; taken as the fixed
    # point, it would leave the amplitude 4.9e-7 off sqrt(alpha), 25 times
    # the error of the point one Newton step on
    report = run_analyze(systems_dir / "normal_form.json", AnalysisOptions(alpha="1/1000"))
    amplitude = report.measurement["amplitude"]
    assert amplitude == pytest.approx(math.sqrt(1 / 1000), rel=1e-7)


def test_measurement_reports_the_oracle_work(systems_dir, monkeypatch):
    # the integrator's work sits next to the number of orbits; it is
    # deterministic, so the JSON report stays the same from run to run
    seen = []
    measure = pipeline.measure_cycle

    def keep(*args):
        seen.append(measure(*args))
        return seen[-1]

    monkeypatch.setattr(pipeline, "measure_cycle", keep)
    options = AnalysisOptions(alpha="1/1000", exact=False)
    report = run_analyze(systems_dir / "normal_form.json", options)
    assert set(report.measurement) == {
        "amplitude", "radius_rms", "period", "stable", "convergence_rate", "crossings", "steps", "rejected_steps", "field_evals",
    }
    (meas,) = seen
    work = (meas.steps, meas.rejected_steps, meas.field_evals)
    assert tuple(report.measurement[k] for k in ("steps", "rejected_steps", "field_evals")) == work
    assert all(type(n) is int for n in work)
    # twelve evaluations per accepted step at the least
    assert meas.field_evals >= 12 * meas.steps > 0
    assert run_analyze(systems_dir / "normal_form.json", options).to_json() == report.to_json()


def test_measurement_keys_are_the_measurement_fields(systems_dir):
    # the report's measurement is the CycleMeasurement less its orbit, in
    # field order; the work comes from one tally: 2 field evaluations per
    # orbit, 12 per accepted and 11 per rejected step, 3 per dense output,
    # and at least one dense output per orbit here, at its return
    report = run_analyze(systems_dir / "normal_form.json", AnalysisOptions(alpha="1/1000"))
    fields = [f.name for f in dataclasses.fields(CycleMeasurement) if f.name != "orbit"]
    assert list(report.measurement) == fields
    # the schema, pinned so that it changes only on purpose: no key holds
    # one value whatever the input, or repeats another key of the report
    assert list(report.to_dict()) == [
        "system_name", "alpha", "arithmetic", "status", "tau", "delta", "degree", "m",
        "unknown_count", "equation_count", "nullspace_dim", "condition_residual",
        "residual_is_exact_zero", "trust_radius", "g2", "g3", "p3", "q3", "prediction",
        "measurement", "comparison", "verdict", "warnings",
    ]
    assert list(report.comparison) == [
        "predicted_amplitude", "amplitude_rel_err", "period_rel_err", "stability_match", "verdict",
    ]
    assert fields == [
        "amplitude", "radius_rms", "period", "stable", "convergence_rate", "crossings", "steps",
        "rejected_steps", "field_evals",
    ]
    meas = report.measurement
    dense = meas["field_evals"] - 2 * meas["crossings"] - 12 * meas["steps"] - 11 * meas["rejected_steps"]
    assert dense % 3 == 0 and dense >= 3 * meas["crossings"]


def test_a_built_system_follows_the_options(normal_form_system):
    # exact=False rounds a built system as it rounds a definition's, and
    # a built system has no alpha to set
    options = AnalysisOptions(exact=False, measure=False)
    report = run_analyze(normal_form_system, options)
    assert report.arithmetic == "float"
    assert report.to_json() == run_analyze(normal_form_system.to_float(), options).to_json()
    with pytest.raises(ValueError, match="alpha"):
        run_analyze(normal_form_system, AnalysisOptions(alpha="1/3", measure=False))


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("name", ["linear_center", "quadratic"])
def test_center_orbits_are_neutral(systems_dir, name, exact):
    # every orbit of a center closes: the return-map slope from the
    # divergence integral is 1 to 1e-8, neither attracting nor repelling
    report = run_analyze(systems_dir / f"{name}.json", AnalysisOptions(exact=exact))
    assert abs(report.measurement["convergence_rate"] - 1.0) < 1e-8
    assert report.measurement["stable"] is None
    # the seed is on a closed orbit: one orbit settles it
    assert report.measurement["crossings"] == 1
    assert report.comparison["stability_match"] is None
    assert "neutral (return-map slope magnitude" in report.to_text()


def test_alpha_grid_is_exact(systems_dir, capsys):
    # grid points are built from the literal strings, so they sit on the
    # decimal grid and instantiate with small denominators
    assert _parse_alphas("0.01:0.09:5") == [Fraction(k, 100) for k in (1, 3, 5, 7, 9)]
    assert _parse_alphas("-0.05:-0.01:3") == [Fraction(k, 100) for k in (-5, -3, -1)]
    assert _parse_alphas("1/3:1/3:1") == [Fraction(1, 3)]
    defn = load_definition(systems_dir / "normal_form.json")
    for alpha in _parse_alphas("0.01:0.09:5") + _parse_alphas("-0.05:-0.01:3"):
        jac = instantiate(defn, alpha).jac
        assert jac[0, 0] == alpha
        assert max(Fraction(v).denominator for v in jac.flat) <= 100

    path = str(systems_dir / "normal_form.json")
    assert main(["sweep", path, "--alphas", "0.01:0.09:5", "--no-measure"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0.01", "0.03", "0.05", "0.07", "0.09"]


def test_sweep_requires_parameterized_system(systems_dir):
    with pytest.raises(ValueError, match="no alpha parameter"):
        run_sweep(systems_dir / "quadratic.json", [0.1], AnalysisOptions())


def test_sweep_refuses_a_built_system(normal_form_system):
    # a built system has no alpha to sweep: the same ValueError as the
    # other input checks, before any point runs
    with pytest.raises(ValueError, match="no alpha parameter to sweep"):
        run_sweep(normal_form_system, [0.01])


def test_an_overflowing_trust_scan_is_named():
    # degree 5 with its phi coefficients times 17-digit integers: the
    # defect at the smallest radius is finite and far above the bound,
    # and the scan's later radii overflow float64; times 30-digit integers
    # the smallest radius's defect is NaN.  Both report a trust radius of
    # 0.0 in strict JSON without a numpy warning, and each says why in one
    # warning: the first names the defect above the bound at the smallest
    # radius, the second that the scan overflowed
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    for digits, overflows in ((17, False), (30, True)):
        system = _generic_system(random.Random(17), 5, Fraction(1, 50), digits=digits)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_analyze(system, AnalysisOptions(measure=False))
        assert report.status == "ok" and report.trust_radius == 0.0, digits
        named = [w for w in report.warnings if w.startswith("trust radius 0.0")]
        assert len(named) == 1, report.warnings
        assert ("overflows float64" in named[0]) == overflows, named
        if not overflows:
            match = re.fullmatch(
                r"trust radius 0\.0: the composition defect (\S+) at the smallest scanned radius, 0\.0001,"
                r" is above 0\.1 times that radius",
                named[0],
            )
            assert match, named
            defect = float(match[1])
            assert math.isfinite(defect) and defect > REL_DEFECT * TRUST_GRID[0], named
        assert json.loads(report.to_json(), parse_constant=refuse)["warnings"] == report.warnings


def test_cli_analyze_json_output(systems_dir, capsys):
    code = main(["analyze", str(systems_dir / "normal_form.json"), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "agreement"
    assert payload["status"] == "ok"


def test_step_size_underflow_counts_as_blow_up():
    # at alpha = 1/50 the orbits of the oracle's root solve escape, under
    # the u^5 term so fast that the step size underflows before the
    # blow-up norm: a blow-up, not an error that escapes the analysis
    definition = {
        "name": "underflow",
        "jac": [["alpha", -1], [1, "alpha"]],
        "phi": [
            [["3/2", "-1/4", "3/2"], ["1", "4/3", "1"]],
            [["4", "1/3", "0", "5/3"], ["-1/2", "2/3", "-6", "3"]],
            [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
            [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]],
        ],
    }
    report = run_analyze(definition, AnalysisOptions(alpha="1/50"))
    assert report.status == "ok"
    assert not report.prediction["exists"]
    assert report.measurement is None
    assert report.verdict == "agreement"


def test_cli_analyze_text_output(systems_dir, capsys):
    code = main(["analyze", str(systems_dir / "quadratic.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: degenerate" in out


def test_cli_analyze_writes_output_files(systems_dir, tmp_path, capsys):
    out_dir = tmp_path / "results"
    code = main(
        [
            "analyze",
            str(systems_dir / "normal_form.json"),
            "--alpha",
            "0.04",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert (out_dir / "report.json").is_file()
    assert (out_dir / "report.txt").is_file()
    assert (out_dir / "predicted_cycle.csv").is_file()
    assert (out_dir / "measured_cycle.csv").is_file()
    header = (out_dir / "predicted_cycle.csv").read_text().splitlines()[0]
    assert header == "t,x1,x2"
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["alpha"] == 0.04
    measured = (out_dir / "measured_cycle.csv").read_text().splitlines()[1:]
    times = [float(line.split(",")[0]) for line in measured]
    assert len(times) == CYCLE_SAMPLES + 1
    assert times[0] == 0.0 and times[-1] == payload["measurement"]["period"]
    assert all(a < b for a, b in zip(times, times[1:]))
    predicted = (out_dir / "predicted_cycle.csv").read_text().splitlines()[1:]
    assert len(predicted) == CURVE_SAMPLES


def test_cli_sweep_to_directory(systems_dir, tmp_path, capsys):
    out_dir = tmp_path / "sweep_out"
    code = main(
        [
            "sweep",
            str(systems_dir / "normal_form.json"),
            "--alphas",
            "0.04,0.09",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    body = (out_dir / "sweep.csv").read_text()
    assert body.startswith("alpha,tau,p3,q3,")
    assert len(body.strip().splitlines()) == 3


def test_cli_grid_spec(systems_dir, capsys):
    code = main(
        [
            "sweep",
            str(systems_dir / "normal_form.json"),
            "--alphas",
            "0.04:0.09:2",
            "--no-measure",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0.04"


@pytest.mark.parametrize("spec", ["1/0:1:2", "0:1/0:2", "-1/0:1/0:3"])
def test_cli_grid_endpoint_dividing_by_zero_is_an_input_error(systems_dir, capsys, spec):
    # Fraction("1/0") raises ZeroDivisionError, which used to escape as a
    # traceback with exit status 2
    path = str(systems_dir / "normal_form.json")
    assert main(["sweep", path, "--alphas", spec, "--no-measure"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: grid endpoint divides by zero in {spec!r}"]


@pytest.mark.parametrize(
    "entry, args",
    [("+".join(["1"] * 1200), []), ("alpha+" + "+".join(["1"] * 989), ["--alpha", "1/20"]), ("-" * 10_000 + "1", [])],
    ids=["sum", "alpha_sum", "minus_signs"],
)
def test_cli_deeply_nested_entry_is_an_input_error(capsys, entry, args):
    # nesting past the interpreter's recursion limit (or the parser's own
    # stack) used to escape as a RecursionError or MemoryError traceback
    # with exit status 2
    source = json.dumps({"name": "deep", "jac": [[entry, -1], [1, "alpha"]]})
    assert main(["analyze", source, "--no-measure", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: entry ") and line.endswith("... is nested too deeply")


def test_cli_long_entry_is_quoted_cut(capsys):
    # the parser refuses 5000 nested parentheses; the error line quotes
    # the entry's first 40 characters, not its 10 001
    entry = "(" * 5000 + "1" + ")" * 5000
    assert main(["analyze", json.dumps({"name": "long", "jac": [[entry, -1], [1, 0]]}), "--no-measure"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and len(line) < 200, line
    assert repr("(" * 40) + "..." in line


def test_cli_short_entry_is_quoted_in_full(capsys):
    assert main(["analyze", json.dumps({"name": "pole", "jac": [["1/0", -1], [1, 0]]}), "--no-measure"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: division by zero in '1/0'"]


def test_cli_accepts_negative_parameters(systems_dir, capsys):
    path = str(systems_dir / "reflected_normal_form.json")
    assert main(["analyze", path, "--alpha", "-1/20", "--no-measure", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == -0.05

    assert main(["sweep", path, "--alphas", "-0.05,-0.02", "--no-measure"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["-0.05", "-0.02"]

    assert main(["sweep", path, "--alphas", "-0.05:-0.01:3", "--no-measure"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == pytest.approx([-0.05, -0.03, -0.01])


def test_cli_input_errors_exit_one(systems_dir, tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err

    saddle = tmp_path / "saddle.json"
    saddle.write_text(json.dumps({"name": "saddle", "jac": [[0, 1], [1, 0]]}))
    assert main(["analyze", str(saddle)]) == 1
    assert "complex eigenvalue pair" in capsys.readouterr().err

    assert main(["analyze"]) == 1  # missing positional
    capsys.readouterr()
    assert main(["frobnicate", "x"]) == 1  # unknown subcommand
    capsys.readouterr()
    assert main(["sweep", str(systems_dir / "normal_form.json"), "--alphas", "1:2"]) == 1
    assert "error:" in capsys.readouterr().err

    # the oracle's seed and the verdict lines are fixed, so their former
    # flags are unknown ones, at any value, whether or not the oracle runs;
    # a sweep refuses them once, with no row printed
    path = str(systems_dir / "normal_form.json")
    seeds = ("0", "-1", "nan", "inf", "0.2")
    flags = [f"--seed-radius={v}" for v in seeds] + [
        "--amp-tol=-1", "--amp-tol=nan", "--amp-tol=inf", "--amp-tol=0.5",
        "--period-tol=-0.1", "--period-tol=0.5",
    ]
    for flag in flags:
        for argv in (
            ["analyze", path, flag],
            ["analyze", path, flag, "--no-measure"],
            ["sweep", path, "--alphas", "1/100,1/50", flag],
        ):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and "unrecognized arguments" in err


def test_cli_power_errors_exit_one(capsys):
    # a power too large to take, and one that overflows only as a float
    huge = json.dumps({"name": "pow", "jac": [["2**10**11", -1], [1, 0]]})
    assert main(["analyze", huge, "--no-measure"]) == 1
    assert "would exceed" in capsys.readouterr().err
    overflow = json.dumps({"name": "pow", "jac": [["2**1500", -1], [1, 0]]})
    assert main(["analyze", overflow, "--no-measure", "--float"]) == 1
    assert "overflows a float" in capsys.readouterr().err


def test_cli_float_entry_overflow_is_an_input_error(capsys):
    # in float arithmetic 1e308*10 is inf, which used to reach LAPACK
    overflow = json.dumps({"name": "big", "jac": [["alpha", -1], [1, "alpha"]], "phi": [[[0, 0, 0], [0, 0, 0]], [["1e308*10", 0, 0, 0], [0, 0, 0, -1]]]})
    assert main(["analyze", overflow, "--float", "--alpha", "1/20"]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error:") and "overflows a float" in line
    assert captured.out == ""


@pytest.mark.parametrize("arithmetic", [[], ["--float"]], ids=["exact", "float"])
def test_cli_constraint_overflow_is_an_input_error(capfd, arithmetic):
    # every entry is finite in floats, but the float constraint rows
    # overflow: the solve refuses them before LAPACK sees them, with no
    # numpy warning, and the exact run names the same overflow
    overflow = json.dumps({"name": "big", "jac": [["alpha", -1], [1, "alpha"]], "phi": [[[0, 0, 0], [0, 0, 0]], [["1e308", 0, "1e308", 0], [0, "1e308", 0, -1]]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", overflow, "--alpha", "1/20", "--no-measure", *arithmetic]) == 1
    captured = capfd.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: a value of the analysis overflows a float")
    assert captured.out == ""


def test_cli_entry_valid_away_from_alpha_one(capsys):
    family = json.dumps({"name": "pole", "jac": [["alpha", -1], [1, "alpha"]], "phi": [[[0, 0, 0], [0, 0, 0]], [["1/(alpha-1)", 0, 0, 0], [0, 0, 0, -1]]]})
    assert main(["analyze", family, "--float", "--alpha", "1/20", "--no-measure"]) == 0
    assert "prediction: limit cycle" in capsys.readouterr().out
    assert main(["analyze", family, "--alpha", "1", "--no-measure"]) == 1
    assert "division by zero in '1/(alpha-1)'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", json.dumps({"name": "pow", "jac": [["2**1500", -1], [1, 0]]}), "--no-measure"],
        ["analyze", "normal_form.json", "--alpha", "1e400", "--no-measure"],
        ["analyze", "normal_form.json", "--alpha", "1e400", "--no-measure", "--float"],
        ["sweep", "normal_form.json", "--alphas", "1e400"],
    ],
    ids=["exact-entry", "exact-alpha", "float-alpha", "sweep"],
)
def test_cli_values_beyond_the_float_range_exit_one(systems_dir, capsys, argv):
    # exact values that only overflow when the analysis takes them to
    # floats are input errors, not tracebacks
    argv = [str(systems_dir / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: a value of the analysis overflows a float")


def test_sweep_keeps_the_rows_next_to_a_failed_point(systems_dir, capsys):
    # one refused grid value costs its own row, not the others
    path = systems_dir / "normal_form.json"
    rows = run_sweep(path, ["0.01", "1e400"], AnalysisOptions(measure=False))
    assert rows[0]["alpha"] == 0.01 and rows[0]["verdict"] == "ok"
    assert rows[0]["predicted_amplitude"] == pytest.approx(0.1, rel=1e-3)
    assert rows[1]["alpha"] == "1e400" and rows[1]["verdict"] == "error"
    assert rows[1]["error"].startswith("a value of the analysis overflows a float")
    assert main(["sweep", str(path), "--alphas", "0.01,1e400", "--no-measure"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("0.01,") and lines[1].endswith(",ok")
    assert lines[2] == "1e400,,,,,,,error"
    [message] = captured.err.splitlines()
    assert message.startswith("error: a value of the analysis overflows a float")


def test_cli_no_measure_flag(systems_dir, capsys):
    code = main(
        ["analyze", str(systems_dir / "normal_form.json"), "--no-measure", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["measurement"] is None
    assert payload["verdict"] is None


QUARTIC = {
    "name": "quartic",
    "jac": [[0, 1], [-1, 0]],
    "phi": [
        [[0, 0, 0], [0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 1]],
        [["1", 0, 0, 0, 0], [0, 0, 0, 0, 1]],
    ],
}


@pytest.mark.parametrize(
    "source, alpha, reason",
    [
        (QUARTIC, None, "tau = 0"),
        ("normal_form.json", "-1/100", "sign of tau differs from sign of p3"),
    ],
)
def test_no_cycle_text_names_the_reason(systems_dir, capsys, source, alpha, reason):
    # p3 != 0 in both, so stability stays null in the JSON report and the
    # text names why no cycle is predicted instead of printing it
    if isinstance(source, str):
        source = str(systems_dir / source)
    report = run_analyze(source, AnalysisOptions(alpha=alpha, measure=False))
    assert report.p3 != 0
    assert report.prediction["exists"] is False
    assert json.loads(report.to_json())["prediction"]["stability"] is None
    line = f"prediction: no limit cycle ({reason})\n"
    assert line in report.to_text()
    argv = ["analyze", json.dumps(source) if isinstance(source, dict) else source, "--no-measure"]
    assert main(argv + ([] if alpha is None else ["--alpha", alpha])) == 0
    out = capsys.readouterr().out
    assert line in out and "(None)" not in out
