"""Answers that must not move under a rational change of coordinates and time."""

import math
from fractions import Fraction

import pytest

from conjugate import exact_amplitude
from metamorphic import TRANSFORMS, UNITS, transform, triangular, triangular_amplitude
from polycycle.definition import instantiate
from polycycle.pipeline import AnalysisOptions, run_analyze
from polycycle.polyops import poly_eval
from polycycle.system import field_polynomials

NORMAL_FORMS = ("normal_form", "reflected_normal_form", "rescaled_normal_form")


def _at_one_hundredth(defn):
    """The system at |alpha| = 1/100, on the side of its default alpha."""
    return instantiate(defn, Fraction(-1 if defn.alpha_default < 0 else 1, 100))


@pytest.mark.parametrize("label, m, c", TRANSFORMS + UNITS, ids=[t[0] for t in TRANSFORMS + UNITS])
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


# y = 2^k x, where it holds at this commit: p3 scales by 2^(-2k), so at
# k = 20 it falls to 9.1e-13, below P3_TOL ("degenerate"), except on
# rescaled_normal_form, whose p3 is twice as large (1.8e-12); for k < 0 the
# absolute tolerances of the oracle are coarse next to the cycle (the
# amplitude is 0.26 % off at k = -20), so the figures are asserted for
# k > 0 only
UNIT_CASES = [
    (name, label, m)
    for name in NORMAL_FORMS
    for label, m, _ in UNITS
    if label != "units-2^20" or name == "rescaled_normal_form"
]


@pytest.mark.parametrize("name, label, m", UNIT_CASES, ids=[f"{name}-{label}" for name, label, _ in UNIT_CASES])
def test_normal_forms_are_covariant_under_units(definitions, name, label, m):
    system = _at_one_hundredth(definitions[name])
    base = run_analyze(system, AnalysisOptions())
    report = run_analyze(transform(system, m, 1), AnalysisOptions())
    assert _invariants(report) == _invariants(base)
    s = m[0][0]
    if s > 1:
        meas, ref = report.measurement, base.measurement
        assert meas["amplitude"] == pytest.approx(float(s) * ref["amplitude"], rel=1e-8)
        assert meas["convergence_rate"] == pytest.approx(ref["convergence_rate"], rel=1e-8)
        assert meas["period"] == pytest.approx(ref["period"], rel=1e-9)


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


# (q, alpha): T_q images of normal_form, degree-6 systems; at q = 10 the
# verdict reads "disagreement" at both alphas (the cubic coefficient is
# not yet invariant under polynomial maps), so it is not asserted
TRIANGULAR_CASES = [(q, alpha) for q in ("1/2", "-3", "2", "10") for alpha in ("1/100", "1/20")]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("q, alpha", TRIANGULAR_CASES, ids=[f"q={q}-alpha={a}" for q, a in TRIANGULAR_CASES])
def test_triangular_images_of_the_normal_form(definitions, q, alpha, exact):
    # the oracle measures the exactly known cycle of the image: amplitude
    # max |y1| on the mapped circle, period 2 pi, multiplier e^(-4 pi
    # alpha); the prediction gets its existence and stability right
    alpha = Fraction(alpha)
    system = triangular(instantiate(definitions["normal_form"], alpha), q)
    assert system.degree == 6
    report = run_analyze(system, AnalysisOptions(exact=exact))
    meas = report.measurement
    assert meas["amplitude"] == pytest.approx(triangular_amplitude(alpha, q), rel=1e-7)
    assert meas["period"] == pytest.approx(2.0 * math.pi, rel=1e-7)
    assert meas["convergence_rate"] == pytest.approx(math.exp(-4.0 * math.pi * alpha), rel=1e-7)
    assert meas["stable"] is True
    assert report.prediction["exists"] and report.prediction["stability"] == "stable_supercritical"


@pytest.mark.parametrize("q", ["1/2", "-3", "2", "10"])
@pytest.mark.parametrize("alpha", ["1/100", "-1/20"])
def test_sampled_amplitude_is_the_closed_form_for_t_q_alone(q, alpha):
    # with L1 = L2 = I the dense theta grid of the conjugate counts gives
    # the closed-form amplitude of the T_q image to 1e-9
    eye = ((1, 0), (0, 1))
    want = triangular_amplitude(abs(Fraction(alpha)), q)
    assert exact_amplitude(Fraction(alpha), eye, Fraction(q), eye) == pytest.approx(want, rel=1e-9)
