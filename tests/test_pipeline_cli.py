"""End-to-end reports, parameter sweeps, and the command line."""

import json
import math

import numpy as np
import pytest

from polycycle.change_of_variables import assemble_constraints
from polycycle.cli import main
from polycycle.definition import instantiate
from polycycle.pipeline import AnalysisOptions, run_analyze, run_sweep, sweep_to_csv


def _fast_options(**overrides):
    # loose-enough integrator to keep the suite quick without touching
    # the verdict
    defaults = dict(rtol=1e-9, atol=1e-9)
    defaults.update(overrides)
    return AnalysisOptions(**defaults)


def test_analyze_normal_form_agrees(systems_dir):
    report = run_analyze(systems_dir / "normal_form.json", _fast_options())
    assert report.status == "ok"
    assert report.arithmetic == "exact"
    assert report.residual_is_exact_zero
    assert report.m == 4
    assert report.gamma_params == (1, 0)
    assert report.verdict == "agreement"
    pred = report.predictions["scaled"]
    assert pred["exists"] and pred["stability"] == "stable_supercritical"
    assert report.measurement["stable"]
    assert report.measurement["amplitude"] == pytest.approx(math.sqrt(0.05), rel=5e-3)
    assert report.comparison["amplitude_rel_err"] < 0.05
    assert report.predicted_curve is not None and report.predicted_curve.shape[1] == 3
    assert report.measured_samples is not None


def test_analyze_quadratic_center_is_degenerate(systems_dir):
    report = run_analyze(systems_dir / "quadratic.json", _fast_options())
    assert report.status == "ok"
    assert report.verdict == "degenerate"
    assert report.p3 == pytest.approx(0.0, abs=1e-12)
    assert not report.predictions["scaled"]["exists"]
    assert report.predictions["scaled"]["stability"] == "undetermined"


def test_analyze_rejects_saddle(tmp_path):
    bad = tmp_path / "saddle.json"
    bad.write_text(json.dumps({"name": "saddle", "jac": [[0, 1], [1, 0]]}))
    with pytest.raises(ValueError, match="complex eigenvalue pair"):
        run_analyze(bad, _fast_options())


def test_analyze_without_measurement(systems_dir):
    report = run_analyze(systems_dir / "normal_form.json", _fast_options(measure=False))
    assert report.measurement is None
    assert report.comparison is None
    assert report.verdict is None
    assert report.predicted_curve is not None


def test_variant_disagreement_warning_on_rescaled_family(systems_dir):
    report = run_analyze(systems_dir / "rescaled_normal_form.json", _fast_options())
    assert any("formula variants disagree" in w for w in report.warnings)
    assert report.verdict == "agreement"


def test_report_serialization_is_deterministic(systems_dir):
    options = _fast_options()
    a = run_analyze(systems_dir / "normal_form.json", options)
    b = run_analyze(systems_dir / "normal_form.json", options)
    assert a.to_json() == b.to_json()
    payload = json.loads(a.to_json())
    assert payload["system_name"] == "normal_form"
    assert "predicted_curve" not in payload
    assert "measured_samples" not in payload
    text = a.to_text()
    assert "<-- selected" in text
    assert "verdict: agreement" in text


def test_alpha_threading_and_exact_strings(systems_dir):
    report = run_analyze(
        systems_dir / "normal_form.json", _fast_options(alpha="1/10", measure=False)
    )
    assert report.alpha == pytest.approx(0.1)
    assert report.tau == pytest.approx(0.2)


def test_sweep_rows_and_csv(systems_dir):
    rows = run_sweep(
        systems_dir / "normal_form.json", ["0.04", "0.09"], _fast_options()
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
        report = run_analyze(defn, _fast_options(exact=exact, measure=False))
        system = instantiate(defn, defn.alpha_default, exact=exact)
        cs = assemble_constraints(system, report.m, report.gamma_params)
        assert report.unknown_count == cs.unknown_count, name
        assert report.equation_count == cs.equation_count, name
        assert report.nullspace_dim == cs.nullspace_dimension(), name


def test_sweep_requires_parameterized_system(systems_dir):
    with pytest.raises(ValueError, match="no alpha parameter"):
        run_sweep(systems_dir / "quadratic.json", [0.1], _fast_options())


def test_options_validation():
    with pytest.raises(ValueError):
        AnalysisOptions(variant="bogus")


def test_cli_analyze_json_output(systems_dir, capsys):
    code = main(["analyze", str(systems_dir / "normal_form.json"), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "agreement"
    assert payload["status"] == "ok"


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


def test_cli_no_measure_flag(systems_dir, capsys):
    code = main(
        ["analyze", str(systems_dir / "normal_form.json"), "--no-measure", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["measurement"] is None
    assert payload["verdict"] is None
