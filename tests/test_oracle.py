"""Numerical integrator, return map, cycle measurement, comparison."""

import math
from fractions import Fraction

import numpy as np
import pytest

import polycycle.oracle as oracle
from polycycle.averaging import predict_cycle
from polycycle.definition import instantiate, load_definition
from polycycle.oracle import (
    CycleMeasurement,
    compare,
    integrate,
    measure_cycle,
    samples_to_csv,
)
from polycycle.system import build_system

CUBIC_SOFTENING = [[-1, 0, -1, 0], [0, -1, 0, -1]]
CUBIC_HARDENING = [[1, 0, 1, 0], [0, 1, 0, 1]]


def _normal_form(alpha):
    return build_system(
        [[alpha, -1], [1, alpha]], [[[0] * 3, [0] * 3], CUBIC_SOFTENING]
    )


def _rescaled(alpha):
    return build_system(
        [[alpha, -2], [2, alpha]], [[[0] * 3, [0] * 3], CUBIC_SOFTENING]
    )


def test_linear_center_closes_after_one_period():
    center = build_system([[0.0, -1.0], [1.0, 0.0]])
    traj = integrate(center, (1.0, 0.0), 2.0 * math.pi)
    assert not traj.truncated
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(2.0 * math.pi)
    np.testing.assert_allclose(traj.states[-1], [1.0, 0.0], atol=1e-8)
    assert np.all(np.diff(traj.t) > 0)


def test_adaptive_integration_matches_the_exact_rotation():
    center = build_system([[0.0, -1.0], [1.0, 0.0]])
    traj = integrate(center, (1.0, 0.0), 3.0)
    assert traj.t[-1] == pytest.approx(3.0)
    np.testing.assert_allclose(traj.states[-1], [math.cos(3.0), math.sin(3.0)], atol=1e-9)


def test_integrate_validates_inputs():
    center = build_system([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        integrate(center, (1.0, 0.0), 0.0)


def test_blowup_is_flagged():
    # quadratic growth escapes in finite time from (2, 2)
    grower = build_system([[0, 0], [0, 0]], [[[1, 0, 0], [0, 0, 1]]])
    traj = integrate(grower.to_float(), (2.0, 2.0), 10.0)
    assert traj.truncated
    assert np.max(np.abs(traj.states[-1])) > 1e5


def test_measured_cycle_of_the_rescaled_family():
    system = _rescaled(0.04).to_float()
    meas = measure_cycle(system, 0.1)
    assert meas is not None
    # exact cycle: radius sqrt(alpha), period pi, Floquet slope e^(-4 pi alpha)
    assert meas.amplitude == pytest.approx(0.2, abs=2e-6)
    assert meas.period == pytest.approx(math.pi, rel=1e-8)
    assert meas.stable
    assert meas.convergence_rate == pytest.approx(math.exp(-0.08 * math.pi), abs=1e-4)
    assert meas.crossings >= 1
    assert meas.section
    assert meas.samples.shape[1] == 3
    assert meas.samples[0, 0] == 0.0
    # the sampled loop stays on the measured circle
    radius = np.hypot(meas.samples[:, 1], meas.samples[:, 2])
    np.testing.assert_allclose(radius, 0.2, atol=1e-5)


def test_work_counters_match_the_field_calls(monkeypatch):
    calls = 0
    compile_field = oracle.compile_field

    def counting_compile(system):
        field = compile_field(system)

        def counted(u, v):
            nonlocal calls
            calls += 1
            return field(u, v)

        return counted

    monkeypatch.setattr(oracle, "compile_field", counting_compile)
    system = _normal_form(Fraction(1, 100))
    first = measure_cycle(system, 0.05)
    assert first is not None
    assert calls == first.field_evals
    assert first.steps > 0 and first.rejected_steps >= 0
    again = measure_cycle(system, 0.05)
    counts = (again.steps, again.rejected_steps, again.field_evals)
    assert counts == (first.steps, first.rejected_steps, first.field_evals)
    assert calls == first.field_evals + again.field_evals


def test_measurement_follows_each_orbit_once(monkeypatch):
    # one orbit per root-solve evaluation: the slope comes from the
    # divergence integral along each orbit, and the sampled period from
    # the root solve's last orbit, so neither starts a new one
    started = 0
    stepper = oracle._Stepper

    def counting(*args):
        nonlocal started
        started += 1
        return stepper(*args)

    monkeypatch.setattr(oracle, "_Stepper", counting)
    meas = measure_cycle(_normal_form(Fraction(1, 100)), 0.05)
    assert meas is not None
    assert started == meas.crossings


def _loop_samples(records, period):
    """The reference sampler: one scalar _hermite call per sample time."""
    rows = []
    ri = 0
    for i in range(oracle.CYCLE_SAMPLES + 1):
        t = period * i / oracle.CYCLE_SAMPLES
        while ri < len(records) - 1 and records[ri][5] < t:
            ri += 1
        rows.append((t, *oracle._hermite(records[ri], min(t, records[ri][5]))))
    return rows


@pytest.mark.parametrize("system", [_rescaled(0.04), _normal_form(Fraction(1, 100))])
def test_samples_interpolate_the_root_solve_orbit(monkeypatch, system):
    seen = []
    finish = oracle._finish_measurement

    def keep_args(*args):
        seen.append(args)
        return finish(*args)

    monkeypatch.setattr(oracle, "_finish_measurement", keep_args)
    meas = measure_cycle(system, 0.05)
    assert meas is not None and meas.section == "x2=0, x1>0"
    ((*_, period, _slope, _evaluations, records),) = seen
    x_star = records[0][1]  # the start of the last orbit, on x2 = 0
    # the last record is the step that holds the return crossing
    assert records[-1][0] < period <= records[-1][5]
    assert [float(v).hex() for v in meas.samples[0]] == [
        float.hex(0.0),
        float.hex(x_star),
        float.hex(0.0),
    ]
    # the array pass is the scalar formula, bit for bit
    got = [[float(v).hex() for v in row] for row in meas.samples]
    assert got == [[v.hex() for v in row] for row in _loop_samples(records, period)]


def test_spiral_sink_yields_no_cycle():
    system = _normal_form(-0.05).to_float()
    assert measure_cycle(system, 0.3) is None


def _hardening(alpha):
    return build_system(
        [[alpha, -1], [1, alpha]], [[[0] * 3, [0] * 3], CUBIC_HARDENING]
    )


def test_unstable_cycle_found_in_forward_time():
    # the root solve needs no contraction: a repelling cycle is found
    # from a seed inside it without reversing time
    system = _hardening(-0.05).to_float()
    meas = measure_cycle(system, 0.15)
    assert meas is not None
    assert not meas.stable
    assert meas.convergence_rate > 1.0
    assert meas.amplitude == pytest.approx(math.sqrt(0.05), rel=1e-3)
    # Newton steps, not plain false position (which takes about 100)
    assert meas.crossings <= 20


# (family, sign of alpha where it has a cycle, period of the cycle)
_FAMILIES = ((_normal_form, 1, 2.0 * math.pi), (_hardening, -1, 2.0 * math.pi), (_rescaled, 1, math.pi))


@pytest.mark.parametrize("family, sign, period", _FAMILIES, ids=["normal", "reflected", "rescaled"])
@pytest.mark.parametrize("size", [Fraction(1, 100), Fraction(1, 2000)], ids=["1/100", "1/2000"])
def test_multiplier_matches_the_closed_form(family, sign, period, size):
    # r' = alpha r -+ r^3 linearized at r = sqrt(|alpha|) is r' = -2 alpha r,
    # so the cycle's multiplier is exp(-2 alpha T), above 1 when alpha < 0
    alpha = sign * size
    meas = measure_cycle(family(alpha), 0.5 * math.sqrt(size))
    assert meas is not None
    expected = math.exp(-2.0 * float(alpha) * period)
    assert meas.convergence_rate == pytest.approx(expected, rel=1e-6)
    assert meas.stable == (sign > 0)


@pytest.mark.parametrize(
    "name, alpha, x", [("mixed", None, 0.05), ("normal_form", Fraction(1, 100), 0.3)]
)
def test_slope_identity_off_the_cycle(systems_dir, name, alpha, x):
    # P'(x) from the divergence integral against the central difference
    # of P at a section point that is not fixed, where the ratio of the
    # normal speeds at x and at P(x) is far from 1
    defn = load_definition(systems_dir / f"{name}.json")
    system = instantiate(defn, defn.alpha_default if alpha is None else alpha).to_float()
    f = oracle.compile_field(system)
    div = oracle._divergence(system)

    def ret(y):
        return oracle._return_map(f, div, [], 1, 0, y)

    p, _, slope, _ = ret(x)
    assert abs(p - x) > 0.1 * x
    assert abs(f(x, 0.0)[1] / f(p, 0.0)[1] - 1.0) > 0.2
    h = 1e-4 * x
    difference = (ret(x + h)[0] - ret(x - h)[0]) / (2.0 * h)
    assert slope == pytest.approx(difference, rel=1e-5)


def test_spiral_source_yields_no_cycle():
    # tau > 0 with a hardening cubic: every orbit moves outward
    system = _hardening(0.05).to_float()
    assert measure_cycle(system, 0.1) is None


def test_measure_validates_seed():
    system = _normal_form(0.05).to_float()
    with pytest.raises(ValueError):
        measure_cycle(system, 0.0)


def _fake_measurement(amplitude, period, stable):
    samples = np.zeros((4, 3))
    return CycleMeasurement(
        amplitude=amplitude,
        radius_rms=amplitude / math.sqrt(2),
        period=period,
        stable=stable,
        convergence_rate=0.5 if stable else 2.0,
        section="x2=0, x1>0",
        crossings=12,
        steps=400,
        rejected_steps=3,
        field_evals=2500,
        samples=samples,
    )


def _curve(amplitude):
    t = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    return np.column_stack([t, amplitude * np.sin(t), amplitude * np.cos(t)])


def test_compare_agreement_and_mismatch():
    pred = predict_cycle(0.1, 1.0, 0.5, 0.0)
    period = 2.0 * math.pi
    good = compare(pred, _curve(pred.z_amplitude), _fake_measurement(pred.z_amplitude * 1.01, period, True))
    assert good.verdict == "agreement"
    assert good.amplitude_rel_err == pytest.approx(0.01 / 1.01, abs=1e-9)
    assert good.stability_match

    off = compare(pred, _curve(pred.z_amplitude), _fake_measurement(pred.z_amplitude * 1.5, period, True))
    assert off.verdict == "disagreement"

    flipped = compare(pred, _curve(pred.z_amplitude), _fake_measurement(pred.z_amplitude, period, False))
    assert flipped.verdict == "disagreement"
    assert flipped.stability_match is False

    # a neutral measurement neither confirms nor refutes the stability
    neutral = compare(pred, _curve(pred.z_amplitude), _fake_measurement(pred.z_amplitude, period, None))
    assert neutral.verdict == "agreement"
    assert neutral.stability_match is None


def test_compare_without_measurement():
    pred = predict_cycle(0.1, 1.0, 0.5, 0.0)
    assert compare(pred, _curve(pred.z_amplitude), None).verdict == "disagreement"
    none_pred = predict_cycle(0.1, 1.0, -0.5, 0.0)
    assert compare(none_pred, None, None).verdict == "agreement"
    degenerate = predict_cycle(0.1, 1.0, 0.0, 0.0)
    assert compare(degenerate, None, None).verdict == "degenerate"


def test_samples_csv_round_trip():
    samples = np.array([[0.0, 0.25, -0.5], [0.125, 0.2499999999999999, 0.5]])
    text = samples_to_csv(samples)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x1,x2"
    parsed = [[float(v) for v in line.split(",")] for line in lines[1:]]
    np.testing.assert_array_equal(np.array(parsed), samples)
