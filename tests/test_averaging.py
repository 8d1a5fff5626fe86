"""Reduced-equation coefficients, averaged moments, cycle prediction."""

import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import as_fraction_matrix, assert_same_entries
import polycycle
import polycycle.averaging as averaging
import polycycle.inversion as inversion
from polycycle.averaging import (
    CURVE_SAMPLES,
    cycle_curve,
    g_coefficients,
    p3_q3,
    predict_cycle,
)
from polycycle.change_of_variables import ChangeOfVariables, solve_theta
from polycycle.inversion import invert_to_cubic, p_operator, r2_operator
from polycycle.monomials import as_array, as_scaled, lie_row
from polycycle.pipeline import AnalysisOptions, reduce, run_analyze
from polycycle.system import build_system, hopf_indicator


def test_p3_q3_basis_vectors():
    # only the z'^3 slot feeds p3 at that weight; only z^3 feeds q3
    assert p3_q3((0, 0, 0, 1), 1.0) == (pytest.approx(-3.0 / 8.0), 0.0)
    assert p3_q3((1, 0, 0, 0), 1.0) == (0.0, pytest.approx(3.0 / 8.0))
    assert p3_q3((0, 0, 0, 0), 2.0) == (0.0, 0.0)


def test_p3_q3_closed_form_general_delta():
    rng = np.random.default_rng(43)
    for _ in range(10):
        g = rng.uniform(-2, 2, size=4)
        d = float(rng.uniform(0.25, 4.0))
        sd = math.sqrt(d)
        p3, q3 = p3_q3(g, d)
        assert p3 == pytest.approx(-(sd / 8) * g[1] - (3 * d * sd / 8) * g[3], rel=1e-14)
        assert q3 == pytest.approx((3 / 8) * g[0] + (d / 8) * g[2], rel=1e-14)


def test_p3_q3_validation():
    with pytest.raises(ValueError):
        p3_q3((1, 2, 3, 4), 0.0)
    with pytest.raises(ValueError):
        p3_q3((1, 2, 3), 1.0)


def test_p3_q3_against_quadrature():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(47)

    def integrand(phi, g, d, weight):
        sd = math.sqrt(d)
        z, dz = math.cos(phi), -sd * math.sin(phi)
        val = g[0] * z**3 + g[1] * z * z * dz + g[2] * z * dz * dz + g[3] * dz**3
        return val * weight(phi)

    for _ in range(25):
        g = rng.uniform(-2, 2, size=4)
        d = float(rng.uniform(0.25, 4.0))
        p_ref = scipy_integrate.quad(
            integrand, 0, 2 * math.pi, args=(g, d, math.sin), epsabs=1e-12, epsrel=1e-12
        )[0] / (2 * math.pi)
        q_ref = scipy_integrate.quad(
            integrand, 0, 2 * math.pi, args=(g, d, math.cos), epsabs=1e-12, epsrel=1e-12
        )[0] / (2 * math.pi)
        p3, q3 = p3_q3(g, d)
        assert p3 == pytest.approx(p_ref, abs=1e-10)
        assert q3 == pytest.approx(q_ref, abs=1e-10)


def test_predict_cycle_reference_case():
    pred = predict_cycle(-0.1, 1.0, -3.0 / 8.0, 0.0)
    assert pred.exists
    assert pred.r0 == pytest.approx(math.sqrt(4.0 / 3.0))
    assert pred.omega0 == pytest.approx(1.0)
    assert pred.period == pytest.approx(2.0 * math.pi)
    assert pred.z_amplitude == pytest.approx(math.sqrt(0.1) * math.sqrt(4.0 / 3.0))
    assert pred.stability == "unstable_subcritical"
    assert not pred.degenerate


def test_predict_cycle_sign_mismatch_means_no_cycle():
    pred = predict_cycle(0.1, 1.0, -3.0 / 8.0, 0.0)
    assert not pred.exists
    assert pred.r0 is None and pred.z_amplitude is None and pred.period is None
    assert pred.stability is None


def test_predict_cycle_degenerate_when_p3_vanishes():
    pred = predict_cycle(0.1, 1.0, 0.0, 0.2)
    assert not pred.exists
    assert pred.stability == "undetermined"
    assert pred.degenerate


def test_predict_cycle_validation():
    with pytest.raises(ValueError):
        predict_cycle(0.1, -1.0, 0.5, 0.0)


def test_amplitude_and_frequency_carry_the_delta_scaling():
    # away from delta = 1 both carry the 1/sqrt(delta) of the time rescaling
    tau, delta, p3, q3 = 0.1, 4.0, 0.5, 0.2
    pred = predict_cycle(tau, delta, p3, q3)
    assert pred.r0 == pytest.approx(math.sqrt(math.sqrt(delta) / (2 * p3)))
    assert pred.omega0 == pytest.approx(1.0 - (tau / (2 * math.sqrt(delta))) * (q3 / p3))
    assert pred.z_amplitude == pytest.approx(math.sqrt(tau) * pred.r0)


def test_g_rows_vanish_for_linear_triangular_change(normal_form_system):
    # Theta = 0 and phi = 0 leave nothing to feed the nonlinear rows
    system = build_system(normal_form_system.jac)
    eye = as_fraction_matrix([[1, 0], [0, 1]])
    cov = ChangeOfVariables(blocks={1: as_scaled(eye)})
    g = g_coefficients(system, cov, invert_to_cubic(cov))
    assert all(x == 0 for x in as_array(g.g2))
    assert all(x == 0 for x in as_array(g.g3))


def test_g2_reduces_to_field_row_for_identity_gamma():
    # with Gamma = I and Theta = 0, G2 is just the second row of phi2
    jac = [[0, -1], [1, 0]]
    phi2 = [[1, 2, 3], [4, 5, 6]]
    system = build_system(jac, [phi2])
    eye = as_fraction_matrix([[1, 0], [0, 1]])
    cov = ChangeOfVariables(blocks={1: as_scaled(eye)})
    g = g_coefficients(system, cov, invert_to_cubic(cov))
    assert list(as_array(g.g2)) == [Fraction(4), Fraction(5), Fraction(6)]
    assert all(x == 0 for x in as_array(g.g3))


def test_g_rows_for_the_cubic_normal_form(normal_form_system, normal_form_cov, normal_form_inverse):
    g = g_coefficients(normal_form_system, normal_form_cov, normal_form_inverse)
    delta = hopf_indicator(normal_form_system).delta
    alpha = Fraction(1, 20)
    assert list(as_array(g.g2)) == [0, 0, 0]
    assert list(as_array(g.g3)) == [0, -2 * delta, 4 * alpha, -2]


def test_prediction_for_the_cubic_normal_form(normal_form_system, normal_form_cov, normal_form_inverse):
    ind = hopf_indicator(normal_form_system)
    g = g_coefficients(normal_form_system, normal_form_cov, normal_form_inverse)
    delta = float(ind.delta)
    p3, q3 = p3_q3(g.g3, delta)
    # closed forms for this family: p3 = delta^(3/2), q3 = alpha delta / 2
    assert p3 == pytest.approx(delta**1.5, rel=1e-14)
    assert q3 == pytest.approx(0.05 * delta / 2.0, rel=1e-14)
    pred = predict_cycle(float(ind.tau), delta, p3, q3)
    assert pred.exists and pred.stability == "stable_supercritical"
    # z-amplitude sqrt(alpha/delta), the exact cycle radius over sqrt(delta)
    assert pred.z_amplitude == pytest.approx(math.sqrt(0.05 / delta), rel=1e-12)


def test_cycle_curve_spacing_and_validation(normal_form_cov, normal_form_system, normal_form_inverse):
    ind = hopf_indicator(normal_form_system)
    g = g_coefficients(normal_form_system, normal_form_cov, normal_form_inverse)
    p3, q3 = p3_q3(g.g3, float(ind.delta))
    pred = predict_cycle(float(ind.tau), float(ind.delta), p3, q3)
    curve = cycle_curve(normal_form_inverse, pred)
    assert curve.shape == (CURVE_SAMPLES, 3)
    period = 2.0 * math.pi / (math.sqrt(pred.delta) * pred.omega0)
    steps = np.diff(curve[:, 0])
    np.testing.assert_allclose(steps, period / CURVE_SAMPLES, rtol=1e-12)
    # reference: the curve sample by sample, through Gamma inverted here
    # and not read off the series; the first row is Gamma^{-1} (0, z'(0))
    gamma_inv = np.linalg.inv(np.asarray(as_array(normal_form_cov.block(1)).tolist(), dtype=float))
    rate = math.sqrt(pred.delta) * pred.omega0
    assert curve[0, 0] == 0.0
    np.testing.assert_allclose(curve[0, 1:], gamma_inv @ [0.0, pred.z_amplitude * rate], rtol=1e-12)
    for i, row in enumerate(curve):
        t = period * i / CURVE_SAMPLES
        z = pred.z_amplitude * math.sin(rate * t)
        zdot = pred.z_amplitude * rate * math.cos(rate * t)
        assert row[0] == t
        np.testing.assert_allclose(row[1:], gamma_inv @ [z, zdot], rtol=1e-13, atol=1e-15)

    none = predict_cycle(0.1, 1.0, -0.5, 0.0)
    with pytest.raises(ValueError):
        cycle_curve(normal_form_inverse, none)


def test_cycle_curve_defaults_to_the_report_curve(normal_form_cov, normal_form_system, normal_form_inverse):
    # a library call samples the same curve, and the same amplitude, as a report
    ind = hopf_indicator(normal_form_system)
    g = g_coefficients(normal_form_system, normal_form_cov, normal_form_inverse)
    p3, q3 = p3_q3(g.g3, float(ind.delta))
    pred = predict_cycle(float(ind.tau), float(ind.delta), p3, q3)
    report = run_analyze(normal_form_system, AnalysisOptions(measure=False))
    np.testing.assert_array_equal(cycle_curve(normal_form_inverse, pred), report.predicted_curve)


def test_exact_reduction_stays_in_fractions(corpus_systems, corpus_covs):
    # criterion 3's exact zero cannot see a float or a numpy int that
    # leaks into the chain from Gamma to G
    for name, system in corpus_systems.items():
        cov = corpus_covs[name]
        inv = invert_to_cubic(cov)
        g = g_coefficients(system, cov, inv)
        blocks = map(as_array, [*cov.blocks.values(), *inv.blocks.values(), g.g2, g.g3])
        for block in blocks:
            assert all(type(x) is Fraction for x in block.reshape(-1)), name


def _python_floats(block):
    """A float64 block as an object array of Python floats."""
    return np.array(block.tolist(), dtype=object)


def _reference_rows(system, cov, entries=as_array):
    """Gamma^{-1}, Xi_2, Xi_3, P_2, P_3, R2, G2 and G3 by the formulas on
    object arrays, of Fractions or (``entries=_python_floats``) of Python
    floats: the reference for the library's integer numerators over
    common denominators, and for its float routines."""
    gamma, theta2, theta3 = (entries(cov.block(k)) for k in (1, 2, 3))
    det = gamma[0, 0] * gamma[1, 1] - gamma[0, 1] * gamma[1, 0]
    ginv = np.array([[gamma[1, 1], -gamma[0, 1]], [-gamma[1, 0], gamma[0, 0]]], dtype=gamma.dtype) / det
    p2, p3 = p_operator(2, ginv), p_operator(3, ginv)
    xi2 = -(ginv @ theta2 @ p2)
    r2 = r2_operator(ginv, xi2)
    xi3 = -(ginv @ (theta2 @ r2 + theta3 @ p3))
    jac, phi2, phi3 = (entries(b) for b in (system.jac, system.phi_matrix(2), system.phi_matrix(3)))
    drift2, drift3 = lie_row(theta2[1], jac), lie_row(theta3[1], jac)
    vel_quad = lie_row(theta2[1], phi2)
    g2 = (gamma @ jac @ xi2 + gamma @ phi2 @ p2)[1, :] + p2.T @ drift2
    g3 = (
        (gamma @ jac @ xi3 + gamma @ phi2 @ r2 + gamma @ phi3 @ p3)[1, :]
        + r2.T @ drift2
        + p3.T @ (drift3 + vel_quad)
    )
    return ginv, xi2, xi3, p2, p3, r2, g2, g3


def _library_rows(system, cov):
    inv = invert_to_cubic(cov)
    g = g_coefficients(system, cov, inv)
    blocks = [inv.blocks[k] for k in (1, 2, 3)] + [inv.p2_op, inv.p3_op, inv.r2_op]
    return tuple(map(as_array, [*blocks, g.g2, g.g3]))


def _random_exact_system(rng, n, big=False):
    """Degree-n system with a non-integer J, j12 not in {0, 1, -1} (so
    det Gamma_1 = j12 is not a unit) and denominators up to 9; with
    ``big`` some entries get 30-digit numerators."""

    def entry():
        num = rng.randint(-9, 9)
        if big and rng.random() < 0.5:
            num = rng.choice((-1, 1)) * rng.randint(10**29, 10**30 - 1)
        return Fraction(num, rng.randint(1, 9))

    while True:
        jac = [[entry(), entry()], [entry(), entry()]]
        if jac[0][1] not in (0, 1, -1) and any(x.denominator != 1 for row in jac for x in row):
            break
    phi = [[[entry() for _ in range(k + 1)] for _ in range(2)] for k in range(2, n + 1)]
    return build_system(jac, phi)


def _exact_cases(corpus_systems, corpus_covs, rng):
    """(system, solved change of variables) for the corpus, 32 random
    systems of degree 2 to 5 and one of degree 3 with 30-digit numerators."""
    cases = [(system, corpus_covs[name]) for name, system in corpus_systems.items()]
    for i in range(32):
        system = _random_exact_system(rng, 2 + i % 4)
        cases.append((system, solve_theta(system)))
    big = _random_exact_system(rng, 3, big=True)
    assert max(abs(x.numerator) for x in big.phi[1].flat) >= 10**29
    cases.append((big, solve_theta(big)))
    return cases


def test_exact_rows_match_the_fraction_reference(corpus_systems, corpus_covs):
    # the integer stage equals the Fraction formulas entry for entry, and
    # the same formulas on object arrays of Python floats give the float
    # stage's straight-line routines bit for bit, signed zeros included
    cases = _exact_cases(corpus_systems, corpus_covs, random.Random(2024))
    for case, (system, cov) in enumerate(cases):
        lib, ref = _library_rows(system, cov), _reference_rows(system, cov)
        for got, want in zip(lib, ref):
            assert got.dtype == object and got.tolist() == want.tolist(), case
        system_f, cov_f = system.to_float(), cov.to_float()
        lib, ref = _library_rows(system_f, cov_f), _reference_rows(system_f, cov_f, _python_floats)
        for got, want in zip(lib, ref):
            assert want.dtype == object and all(type(x) is float for x in want.flat), case
            assert got.dtype == np.float64 and got.tobytes() == np.array(want.tolist()).tobytes(), case


def test_exact_routines_equal_the_block_expressions(corpus_systems, corpus_covs):
    # the integer routines give every block of the inverse series and the
    # G rows with the very numerators and denominator that _series and
    # _g_rows give run directly on the Scaled blocks, the path they replace:
    # the same integers, not merely the same rationals.  Degrees 1 and 7
    # enter with zero-filled and with cut-off blocks
    rng = random.Random(2024)
    cases = _exact_cases(corpus_systems, corpus_covs, rng)
    for degree in (1, 7):
        system = _random_exact_system(rng, degree)
        assert system.degree == degree
        cases.append((system, solve_theta(system)))
    for case, (system, cov) in enumerate(cases):
        inv = invert_to_cubic(cov)
        series = (inv.p2_op, inv.p3_op, inv.blocks[2], inv.r2_op, inv.blocks[3])
        field = (system.jac, system.phi_matrix(2), system.phi_matrix(3))
        blocks = (
            *map(as_scaled, field), *(cov.block(k) for k in (1, 2, 3)),
            inv.blocks[2], inv.blocks[3], inv.p2_op, inv.p3_op, inv.r2_op,
        )
        pairs = [
            (series, inversion._series(inv.blocks[1], cov.block(2), cov.block(3))),
            (averaging._exact_g_rows()(*blocks), averaging._g_rows(*blocks)),
        ]
        for got, want in pairs:
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_same_entries(g, w)
                assert type(g.den) is int and all(type(x) is int for x in g.num.flat), case
        g = g_coefficients(system, cov, inv)
        assert_same_entries(g.g2, pairs[1][1][0])
        assert_same_entries(g.g3, pairs[1][1][1])


def test_exact_stage_does_no_fraction_arithmetic(monkeypatch):
    # from the solve to G2 and G3, the certificate and the trust scan the
    # exact reduction runs on integer numerators: it does no Fraction
    # arithmetic and constructs no Fraction.  While the solver returned
    # Fractions the same chain constructed 82, 75 of them in solve_theta.
    # Reading a block as a Fraction array (as_array below) builds them
    system = _random_exact_system(random.Random(4), 4)
    calls = []
    for name in ("add", "sub", "mul", "truediv"):
        for dunder in (f"__{name}__", f"__r{name}__"):
            method = getattr(Fraction, dunder)

            def counted(self, other, _method=method, _dunder=dunder):
                calls.append(_dunder)
                return _method(self, other)

            monkeypatch.setattr(Fraction, dunder, counted)
    new = Fraction.__new__

    def constructed(cls, *args, **kwargs):
        calls.append("__new__")
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(constructed))
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert "__add__" in calls and "__new__" in calls
    calls.clear()
    red = reduce(system)
    assert red.residual == 0 and red.trust_radius > 0 and not red.warnings
    assert calls == []
    blocks = map(as_array, [*red.inv.blocks.values(), red.g.g2, red.g.g3])
    assert all(type(x) is Fraction for block in blocks for x in block.reshape(-1))
    assert set(calls) == {"__new__"}


_RENDER_SCRIPT = textwrap.dedent(
    """
    import builtins, random
    from fractions import Fraction

    EXACT = ("<exact inverse series>", "<exact g rows>")
    FLOAT = ("<inverse series>", "<g rows>")
    rendered = []
    compile_ = builtins.compile

    def counting(source, filename, *args, **kwargs):
        if filename in EXACT + FLOAT:
            rendered.append(filename)
        return compile_(source, filename, *args, **kwargs)

    builtins.compile = counting
    import polycycle
    from polycycle.pipeline import AnalysisOptions, run_analyze

    assert rendered == [], rendered
    rng = random.Random(3)
    systems = []
    for degree in range(1, 8):
        phi = [[[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(k + 1)] for _ in range(2)]
               for k in range(2, degree + 1)]
        systems.append(polycycle.build_system([[Fraction(1, 50), -1], [1, Fraction(1, 50)]], phi))
        assert systems[-1].degree == degree
    for routines, exact in ((EXACT, True), (EXACT + FLOAT, False)):
        for system in systems:
            report = run_analyze(system, AnalysisOptions(exact=exact, measure=False))
            assert report.status == "ok" and report.prediction is not None, (system.degree, exact)
            assert sorted(rendered) == sorted(routines), (system.degree, exact, rendered)
    print("rendered", *rendered, sep="\\n")
    """
)


def test_float_routines_render_once_per_process_and_never_at_import():
    # in a fresh process, importing the package renders none of the four
    # routines; exact analyses of degree 1 to 7 compile each exact routine
    # exactly once, at the first exact analysis, and no float one; float
    # analyses then compile each float routine exactly once
    src = str(Path(polycycle.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", _RENDER_SCRIPT], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "rendered", "<exact inverse series>", "<exact g rows>", "<inverse series>", "<g rows>"
    ]
