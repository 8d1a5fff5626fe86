"""Answers that must not move under a rational change of coordinates and time."""

from fractions import Fraction

import pytest

from metamorphic import TRANSFORMS, transform
from polycycle.definition import instantiate
from polycycle.pipeline import AnalysisOptions, run_analyze
from polycycle.polyops import poly_eval
from polycycle.system import field_polynomials

NORMAL_FORMS = ("normal_form", "reflected_normal_form", "rescaled_normal_form")


def _at_one_hundredth(defn):
    """The system at |alpha| = 1/100, on the side of its default alpha."""
    return instantiate(defn, Fraction(-1 if defn.alpha_default < 0 else 1, 100))


@pytest.mark.parametrize("label, m, c", TRANSFORMS, ids=[t[0] for t in TRANSFORMS])
def test_transform_is_the_conjugated_field(definitions, label, m, c):
    # g(y) = M f(M^-1 y) / c, exactly, at a rational point
    system = _at_one_hundredth(definitions["mixed"])
    f = field_polynomials(system)
    g = field_polynomials(transform(system, m, c))
    (a, b), (d, e) = ((Fraction(v) for v in row) for row in m)
    y = (Fraction(1, 3), Fraction(-2, 7))
    det = a * e - b * d
    x = ((e * y[0] - b * y[1]) / det, (a * y[1] - d * y[0]) / det)
    fx = [poly_eval(p, *x) for p in f]
    expected = [(a * fx[0] + b * fx[1]) / c, (d * fx[0] + e * fx[1]) / c]
    assert [poly_eval(p, *y) for p in g] == expected


def _invariants(report):
    return report.verdict, report.prediction["exists"], report.prediction["stability"], report.measurement["stable"]


@pytest.mark.parametrize("name", NORMAL_FORMS)
def test_normal_forms_are_covariant(definitions, name):
    # the same verdict, existence and stability; the same multiplier (the
    # return map's slope) and the period times c, from the exact image
    system = _at_one_hundredth(definitions[name])
    base = run_analyze(system, AnalysisOptions())
    assert base.verdict == "agreement"
    for label, m, c in TRANSFORMS:
        report = run_analyze(transform(system, m, c), AnalysisOptions())
        assert _invariants(report) == _invariants(base), label
        rate = report.measurement["convergence_rate"]
        assert rate == pytest.approx(base.measurement["convergence_rate"], rel=1e-8), label
        assert report.measurement["period"] == pytest.approx(c * base.measurement["period"], rel=1e-9), label


@pytest.mark.parametrize("name", ["mixed", "axial_damping"])
def test_generic_terms_keep_the_verdict(definitions, name):
    # the verdict, existence and stability hold; the amplitude error does
    # not (mixed: 1.6 % before, 7.4 % after the shear), since the cubic
    # coefficient is not yet invariant when G2 does not vanish
    system = _at_one_hundredth(definitions[name])
    base = run_analyze(system, AnalysisOptions())
    for label, m, c in TRANSFORMS:
        report = run_analyze(transform(system, m, c), AnalysisOptions())
        assert _invariants(report) == _invariants(base), label
