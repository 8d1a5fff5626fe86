"""Numerical integrator, return map, cycle measurement, comparison."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import polycycle.oracle as oracle
from polycycle.averaging import predict_cycle
from polycycle.definition import instantiate, load_definition
from polycycle.pipeline import AnalysisOptions, run_analyze
from polycycle.oracle import (
    CycleMeasurement,
    compare,
    integrate,
    measure_cycle,
    samples_to_csv,
)
from polycycle.system import build_system

from conftest import CORPUS

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


def _hardening(alpha):
    return build_system(
        [[alpha, -1], [1, alpha]], [[[0] * 3, [0] * 3], CUBIC_HARDENING]
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
    # unchecked, inf would end at once with the start point alone and
    # nan would step until MAX_STEPS
    for t_end in (0.0, math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            integrate(center, (1.0, 0.0), t_end)


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
    # the root solve's last orbit, so neither starts a new one; an orbit
    # starts where the stepping loop starts at t = 0, while resuming it
    # past a crossing and the re-step to the crossing time start later
    started = 0
    loop = oracle._dop853

    def counting(f, t0, *args):
        nonlocal started
        started += t0 == 0.0
        return loop(f, t0, *args)

    monkeypatch.setattr(oracle, "_dop853", counting)
    meas = measure_cycle(_normal_form(Fraction(1, 100)), 0.05)
    assert meas is not None
    assert started == meas.crossings


def _row(name):
    """The loop's nonzero weights ``_<name><j>`` as (j, weight), j = 1..16."""
    return [(j, getattr(oracle, f"_{name}{j}")) for j in range(1, 17) if hasattr(oracle, f"_{name}{j}")]


# the tableau as data: stage i from the stages j < i, with weights _Ai_j;
# stage 13 is f at the step's end, from the weights _B
_STAGES = {i: _row(f"A{i}_") for i in range(2, 17) if i != 13}
_B, _BHH, _ER = _row("B"), _row("BHH"), _row("ER")
_DENSE = [_row(f"D{r}_") for r in range(4, 8)]


def _dot(row, k, c):
    """Sum of weight * k[j][c] over a row, in stage order."""
    total = None
    for j, weight in row:
        term = weight * k[j][c]
        total = term if total is None else total + term
    return total


def _ref_first_step(f, u, v, fu, fv):
    """Reference for _first_step: the starting-step rule of Hairer,
    Norsett and Wanner (sec. II.4) in numpy RMS norms."""
    y0, f0 = np.array([u, v]), np.array([fu, fv])
    scale = oracle.ATOL + oracle.RTOL * np.abs(y0)
    d0, d1 = (float(np.sqrt(np.mean((x / scale) ** 2))) for x in (y0, f0))
    h0 = 0.01 * d0 / d1 if min(d0, d1) >= 1e-5 else 1e-6
    f1 = np.array(f(*(y0 + h0 * f0))[:2])
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    d = max(d1, d2)
    return min(100 * h0, max(1e-6, 1e-3 * h0) if d <= 1e-15 else (0.01 / d) ** (1 / 8))


class _Stepper:
    """Reference for the stepping loop: adaptive DOP853 steps over the
    tableau held as data, one accepted step per call, the state in
    attributes.  ``f`` returns (du, dv, div f); w integrates div f and q
    integrates u^2 + v^2 over the stage states."""

    __slots__ = ("f", "t", "u", "v", "fu", "fv", "w", "fw", "q", "h", "steps", "rejects")

    def __init__(self, f, u, v):
        self.f = f
        self.t = self.w = self.q = 0.0
        self.u, self.v = u, v
        self.fu, self.fv, self.fw = f(u, v)
        self.h = oracle._first_step(f, u, v, self.fu, self.fv)
        self.steps = self.rejects = 0

    def advance(self, t_limit: float):
        """One accepted step, not overshooting t_limit.

        Returns the loop's step record, or None at the limit.
        """
        t0, u0, v0 = self.t, self.u, self.v
        if t_limit - t0 <= 1e-14 * max(1.0, abs(t_limit)):
            return None
        h = min(self.h, t_limit - t0)
        while True:
            k = {1: (self.fu, self.fv, self.fw)}
            y = {1: (u0, v0)}
            for i in range(2, 13):
                y[i] = u0 + h * _dot(_STAGES[i], k, 0), v0 + h * _dot(_STAGES[i], k, 1)
                k[i] = self.f(*y[i])
            su, sv = _dot(_B, k, 0), _dot(_B, k, 1)
            u1, v1 = u0 + h * su, v0 + h * sv
            err5 = err3 = 0.0
            for c, y0, y1, s in ((0, u0, u1, su), (1, v0, v1, sv)):
                scale = oracle.ATOL + oracle.RTOL * max(abs(y0), abs(y1))
                e5, e3 = _dot(_ER, k, c) / scale, (s - _dot(_BHH, k, c)) / scale
                err5 += e5 * e5
                err3 += e3 * e3
            deno = err5 + 0.01 * err3
            err = 0.0 if deno == 0.0 else h * err5 / math.sqrt(2.0 * deno)
            if err <= 1.0:
                break
            self.rejects += 1
            h *= max(0.2, 0.9 * err ** (-1 / 8))
            if h < 1e-14:
                raise ArithmeticError("step size underflow; the field may be singular here")
        self.h = h * (5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** (-1 / 8))))
        fu1, fv1, fw1 = self.f(u1, v1)
        w0, fw0 = self.w, self.fw
        rec = (t0, u0, v0, self.fu, self.fv, t0 + h, u1, v1, fu1, fv1, w0, fw0)
        rec += tuple(x for i in range(6, 13) for x in k[i][:2]) + (self.q,)
        self.t, self.u, self.v, self.fu, self.fv, self.fw = t0 + h, u1, v1, fu1, fv1, fw1
        self.w = w0 + h * _dot(_B, k, 2)
        squares = {i: (yu * yu + yv * yv,) for i, (yu, yv) in y.items()}
        self.q += h * _dot(_B, squares, 0)
        self.steps += 1
        return rec


def _reference_run(stepper, t_limit, budget):
    """The loop's events, read off the reference stepper: (event, records)
    up to the first event, with the stepper left where the loop stops."""
    records = []
    while stepper.steps < budget:
        try:
            rec = stepper.advance(t_limit)
        except ArithmeticError:
            return "underflow", records
        if rec is None:
            return "limit", records
        records.append(rec)
        if abs(rec[6]) + abs(rec[7]) > oracle.BLOWUP_NORM:
            return "blowup", records
        g0, g1 = rec[2], rec[7]
        if g0 != 0.0 and (g0 > 0.0) != (g1 > 0.0):
            return "cross", records
    return "budget", records


def _reference_dense(f, rec, t):
    """Reference for the dense output: the state in the step ``rec`` at
    time t, from the three extra stages and the rows _D4 to _D7 as data,
    summed in the form of scipy's Dop853DenseOutput."""
    t0, u0, v0, fu0, fv0, t1, u1, v1, fu1, fv1 = rec[:10]
    h = t1 - t0
    k = {1: (fu0, fv0), 13: (fu1, fv1)}
    k.update({i: rec[12 + 2 * (i - 6) : 14 + 2 * (i - 6)] for i in range(6, 13)})
    for i in (14, 15, 16):
        k[i] = f(u0 + h * _dot(_STAGES[i], k, 0), v0 + h * _dot(_STAGES[i], k, 1))
    x = (t - t0) / h
    state = []
    for c, y0, y1 in ((0, u0, u1), (1, v0, v1)):
        dy = y1 - y0
        coeffs = [dy, h * k[1][c] - dy, 2.0 * dy - h * (k[13][c] + k[1][c])]
        coeffs += [h * _dot(row, k, c) for row in _DENSE]
        y = 0.0
        for i, coeff in enumerate(reversed(coeffs)):
            y = (y + coeff) * (x if i % 2 == 0 else 1 - x)
        state.append(y0 + y)
    return tuple(state)


def _reference_crossing(f, rec, t_tol):
    """Reference for the crossing time: bisection on the reference dense
    output of x2."""
    ta, tb = rec[0], rec[5]
    ga, gb = rec[2], rec[7]
    if ga == 0.0:
        return ta
    for _ in range(200):
        tm = 0.5 * (ta + tb)
        gm = _reference_dense(f, rec, tm)[1]
        if gm == 0.0:
            return tm
        if (gm > 0.0) == (gb > 0.0):
            tb, gb = tm, gm
        else:
            ta = tm
        if tb - ta <= t_tol:
            break
    return 0.5 * (ta + tb)


def _assert_loop_is_the_stepper(system, x, t_limit, budget=oracle.MAX_STEPS, events=100):
    """Step from the point (x, 0) of the section through up to ``events``
    events with the loop, resuming after each crossing of x2 = 0, and
    with the reference stepper; every record, every event and count must
    be equal, and each crossing time within the time tolerance of the
    reference bisection's.  Returns the events."""
    f = oracle.compile_field(system)
    u, v = x, 0.0
    stepper = _Stepper(f, u, v)
    state = (0.0, u, v, stepper.fu, stepper.fv, 0.0, stepper.fw, 0.0, stepper.h)
    seen = []
    for _ in range(events):
        steps_before, rejects_before = stepper.steps, stepper.rejects
        event, ref_records = _reference_run(stepper, t_limit, budget)
        records = []
        got, *state, steps, rejects = oracle._dop853(
            f, *state, t_limit, True, budget - steps_before, oracle.BLOWUP_NORM, records
        )
        assert (got, records) == (event, ref_records)
        assert (steps, rejects) == (stepper.steps - steps_before, stepper.rejects - rejects_before)
        assert tuple(state) == (
            stepper.t, stepper.u, stepper.v, stepper.fu, stepper.fv, stepper.w, stepper.fw, stepper.q,
            stepper.h,
        )
        seen.append(event)
        if event != "cross":
            break
        rec = records[-1]
        t0, t1 = rec[0], rec[5]
        h, t_tol = t1 - t0, 1e-12 * max(1.0, abs(t1))
        coeffs = oracle._dense(f, rec)[8:]
        s = oracle._root(oracle._interpolate, coeffs, 0.0, 1.0, rec[2], rec[7], t_tol / h)
        assert abs(t0 + s * h - _reference_crossing(f, rec, t_tol)) <= t_tol
    return seen


@pytest.mark.parametrize("name", CORPUS)
def test_loop_steps_as_the_reference_stepper_on_the_corpus(systems_dir, name):
    defn = load_definition(systems_dir / f"{name}.json")
    system = instantiate(defn, defn.alpha_default).to_float()
    for x in (0.05, 0.3):
        # an orbit outside reflected_normal_form's repelling cycle blows up
        assert _assert_loop_is_the_stepper(system, x, 30.0)[-1] in ("limit", "blowup")


def _random_system(rng, degree):
    alpha = rng.uniform(-0.1, 0.1)
    blocks = [rng.uniform(-2.0, 2.0, size=(2, k + 1)) for k in range(2, degree + 1)]
    return build_system([[alpha, -1.0], [1.0, alpha]], blocks)


@pytest.mark.parametrize("degree, seed", [(3, 1), (3, 2), (3, 3), (4, 4), (5, 5)])
def test_loop_steps_as_the_reference_stepper_on_random_systems(degree, seed):
    rng = np.random.default_rng(1900 + seed)
    events = set()
    for _ in range(4):
        system = _random_system(rng, degree)
        for x in (0.05, 0.2, 0.6):
            events.update(_assert_loop_is_the_stepper(system, x, 40.0, budget=3000))
    assert "cross" in events


def _underflow_system(alpha):
    """The console step-size-underflow system: quadratic and cubic terms
    under which orbits outside the origin's basin escape, and u^5 in du,
    under which they escape so fast that the step size underflows before
    the blow-up norm is reached (without it the pair resolves the orbit
    up to the norm)."""
    return build_system(
        [[alpha, -1], [1, alpha]],
        [
            [[Fraction(3, 2), Fraction(-1, 4), Fraction(3, 2)], [1, Fraction(4, 3), 1]],
            [[4, Fraction(1, 3), 0, Fraction(5, 3)], [Fraction(-1, 2), Fraction(2, 3), -6, 3]],
            [[0] * 5, [0] * 5],
            [[1, 0, 0, 0, 0, 0], [0] * 6],
        ],
    )


def test_loop_reports_underflow_blowup_and_budget_as_the_stepper():
    # the console step-size-underflow system from (0.8, 0)
    underflow = _underflow_system(Fraction(1, 50)).to_float()
    assert _assert_loop_is_the_stepper(underflow, 0.8, 1e5)[-1] == "underflow"
    # a spiral source: every orbit moves outward until it blows up
    source = _hardening(0.05).to_float()
    assert _assert_loop_is_the_stepper(source, 0.1, 1e5, events=1000)[-1] == "blowup"
    # a step budget runs out before the time limit
    events = _assert_loop_is_the_stepper(_normal_form(0.01).to_float(), 0.1, 1e5, budget=150)
    assert events[-1] == "budget" and set(events[:-1]) == {"cross"}


# the nodes c_i of the pair, from their closed forms
_C4 = (6.0 - math.sqrt(6.0)) / 30.0
_C = {1: 0.0, 2: 4.0 * _C4 / 9.0, 3: 2.0 * _C4 / 3.0, 4: _C4, 5: (6.0 + math.sqrt(6.0)) / 30.0,
      6: 1 / 3, 7: 1 / 4, 8: 4 / 13, 9: 127 / 195, 10: 3 / 5, 11: 6 / 7, 12: 1.0, 13: 1.0,
      14: 1 / 10, 15: 1 / 5, 16: 7 / 9}


def test_tableau_is_the_dop853_pair():
    # every stage row sums to its node
    for i, row in _STAGES.items():
        assert sum(a for _, a in row) == pytest.approx(_C[i], abs=1e-13), i
    # the 8th-order weights integrate c^q exactly for q = 0..7
    for q in range(8):
        assert sum(b * _C[j] ** q for j, b in _B) == pytest.approx(1.0 / (q + 1), abs=1e-14), q
    # both error estimates vanish on a step that is exact
    assert sum(e for _, e in _ER) == pytest.approx(0.0, abs=1e-15)
    assert sum(b for _, b in _B) - sum(b for _, b in _BHH) == pytest.approx(0.0, abs=1e-15)
    # every constant is the published one, as scipy holds it
    dop = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    for i in range(2, 17):
        for j in range(1, i):
            held = dop.A[i - 1, j - 1] if i != 13 else 0.0  # row 13 is B
            assert getattr(oracle, f"_A{i}_{j}", 0.0) == held, (i, j)
    for j in range(1, 13):
        assert getattr(oracle, f"_B{j}", 0.0) == dop.B[j - 1], j
        assert getattr(oracle, f"_B{j}", 0.0) - getattr(oracle, f"_BHH{j}", 0.0) == dop.E3[j - 1], j
        assert getattr(oracle, f"_ER{j}", 0.0) == dop.E5[j - 1], j
    assert dop.E3[12] == dop.E5[12] == 0.0  # f at the step's end enters neither
    for r in range(4):
        for j in range(1, 17):
            assert getattr(oracle, f"_D{r + 4}_{j}", 0.0) == dop.D[r, j - 1], (r, j)
    assert [_C[i] for i in range(1, 17)] == pytest.approx(list(dop.C), abs=1e-15)


def test_first_step_follows_the_starting_rule():
    f = oracle.compile_field(_normal_form(Fraction(1, 100)))
    for u, v in ((0.1, 0.0), (0.0, 0.02), (0.7, -0.3), (3.0, 1e-12)):
        fu, fv, _ = f(u, v)
        assert oracle._first_step(f, u, v, fu, fv) == pytest.approx(_ref_first_step(f, u, v, fu, fv), rel=1e-12)
    # at the origin the field vanishes and the rule falls back to 1e-6
    assert oracle._first_step(f, 0.0, 0.0, 0.0, 0.0) == 1e-6
    # an infinite or undefined state still gets a finite positive step,
    # which the loop then rejects down to an underflow
    for u in (math.inf, math.nan, 1e200):
        assert 0.0 < oracle._first_step(f, u, 0.0, *f(u, 0.0)[:2]) < math.inf


def _reference_integrate(system, x0, t_end):
    """Reference for integrate: its loop over the reference stepper."""
    stepper = _Stepper(oracle.compile_field(system), float(x0[0]), float(x0[1]))
    ts, states = [0.0], [(stepper.u, stepper.v)]
    truncated = False
    while True:
        rec = stepper.advance(t_end)
        if rec is None:
            break
        ts.append(rec[5])
        states.append((rec[6], rec[7]))
        if abs(rec[6]) + abs(rec[7]) > oracle.BLOWUP_NORM:
            truncated = True
            break
        if stepper.steps >= oracle.MAX_STEPS:
            truncated = True
            break
    return ts, states, truncated, stepper.steps


@pytest.mark.parametrize(
    "system, x0, t_end",
    [
        (build_system([[0.0, -1.0], [1.0, 0.0]]), (1.0, 0.0), 2.0 * math.pi),
        (_normal_form(Fraction(1, 100)).to_float(), (0.3, -0.1), 25.0),
        (build_system([[0, 0], [0, 0]], [[[1, 0, 0], [0, 0, 1]]]).to_float(), (2.0, 2.0), 10.0),
        (_hardening(0.05).to_float(), (0.1, 0.0), 1e4),
    ],
    ids=["center", "normal_form", "quadratic_growth", "spiral_source"],
)
def test_integrate_steps_as_the_reference_stepper(system, x0, t_end):
    traj = integrate(system, x0, t_end)
    ts, states, truncated, steps = _reference_integrate(system, x0, t_end)
    assert traj.t.tolist() == ts
    assert traj.states.tolist() == [list(s) for s in states]
    assert (traj.truncated, traj.steps) == (truncated, steps)


def test_integrate_raises_on_a_step_size_underflow():
    underflow = _underflow_system(0.02)
    with pytest.raises(ArithmeticError):
        _reference_integrate(underflow, (0.8, 0.0), 1e5)
    with pytest.raises(ArithmeticError, match="step size underflow"):
        integrate(underflow, (0.8, 0.0), 1e5)


def _loop_samples(f, records, period):
    """The reference sampler: one scalar reference dense output per sample time."""
    rows = []
    ri = 0
    for i in range(oracle.CYCLE_SAMPLES + 1):
        t = period * i / oracle.CYCLE_SAMPLES
        while ri < len(records) - 1 and records[ri][5] < t:
            ri += 1
        rows.append((t, *_reference_dense(f, records[ri], min(t, records[ri][5]))))
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
    ((f, _system, _orbits, period, *_, records),) = seen
    # the root solve's last orbit as its list of step records: 12 fields,
    # the (u, v) of stages 6 to 12 and q0
    assert {len(rec) for rec in records} == {27}
    x_star = records[0][1]  # the start of the last orbit, on x2 = 0
    # the last record is the step that holds the return crossing
    assert records[-1][0] < period <= records[-1][5]
    assert [float(v).hex() for v in meas.samples[0]] == [
        float.hex(0.0),
        float.hex(x_star),
        float.hex(0.0),
    ]
    # the array pass is the scalar reference, bit for bit
    got = [[float(v).hex() for v in row] for row in meas.samples]
    assert got == [[v.hex() for v in row] for row in _loop_samples(f, records, period)]


def _dense_max_abs_x1(f, records, period, points=20_000):
    """max |x1| over [0, period] of the reference dense output, searched at
    ``points`` equal intervals of each step: short of the true maximum by
    about (1 / (2 points))^2 / 2 of it at steps of one radian, 3e-10."""
    top = 0.0
    for rec in records:
        t = np.linspace(rec[0], min(rec[5], period), points + 1)
        top = max(top, float(np.max(np.abs(_reference_dense(f, rec, t)[0]))))
    return top


def _dense_rms(f, records, period):
    """sqrt((1/T) integral_0^T (x1^2 + x2^2) dt) of the reference dense
    output by 16-node Gauss-Legendre quadrature of each step, exact for
    the degree-14 integrand."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    total = 0.0
    for rec in records:
        a, b = rec[0], min(rec[5], period)
        u, v = _reference_dense(f, rec, 0.5 * (b - a) * nodes + 0.5 * (a + b))
        total += 0.5 * (b - a) * float(np.dot(weights, u * u + v * v))
    return math.sqrt(total / period)


def _assert_orbit_figures(meas):
    """amplitude and radius_rms against the last orbit's dense output."""
    system, records = meas.orbit
    f = oracle.compile_field(system)
    assert records[-1][0] < meas.period <= records[-1][5]
    # no sample row lies outside the amplitude, which is the true maximum
    assert np.max(np.abs(meas.samples[:, 1])) <= meas.amplitude * (1.0 + 1e-15)
    assert meas.amplitude == pytest.approx(_dense_max_abs_x1(f, records, meas.period), rel=1e-10)
    assert meas.radius_rms == pytest.approx(_dense_rms(f, records, meas.period), rel=1e-9)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("name", CORPUS)
def test_amplitude_and_rms_radius_are_those_of_the_orbit(systems_dir, name, exact):
    report = run_analyze(systems_dir / f"{name}.json", AnalysisOptions(exact=exact))
    assert report.measured_cycle is not None
    _assert_orbit_figures(report.measured_cycle)


def test_amplitude_stops_at_the_return():
    # an orbit inside the cycle of radius 1/sqrt(10) grows from 0.1 to
    # 0.168 in one turn and x1 still rises at the return: the largest |x1|
    # over [0, T] is x1 at T, and the rest of the return step reaches
    # 0.26 % further
    system = _normal_form(Fraction(1, 10)).to_float()
    f = oracle.compile_field(system)
    p, period, _, _, crossing, records = oracle._return_map(
        f, [0, 0, 0, 0], 0.1, oracle._return_budget(system)
    )
    amplitude = oracle._amplitude(f, [0, 0, 0, 0], records, period, crossing)
    assert amplitude == pytest.approx(p, rel=1e-9)
    assert amplitude == pytest.approx(_dense_max_abs_x1(f, records, period), rel=1e-10)
    assert amplitude < 0.999 * _dense_max_abs_x1(f, records, records[-1][5])


def test_samples_are_formed_on_read(monkeypatch):
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
    meas = measure_cycle(_normal_form(Fraction(1, 100)), 0.05)
    assert calls == meas.field_evals
    _, records = meas.orbit
    samples = meas.samples
    assert samples.shape == (oracle.CYCLE_SAMPLES + 1, 3)
    # the dense output of each step of the last orbit, three field
    # evaluations apiece, outside the measurement's work; formed once
    field_evals = meas.field_evals
    assert calls == field_evals + 3 * len(records)
    assert meas.samples is samples
    assert (calls, meas.field_evals) == (field_evals + 3 * len(records), field_evals)
    assert _fake_measurement(0.1, 1.0, True).samples is None


def test_dense_outputs_are_formed_for_the_returns_and_the_extrema(monkeypatch):
    # the root solve forms one dense output per orbit, for the step that
    # holds its return to x2 = 0, x1 > 0, and none for the step crossing
    # x2 = 0 downward half a turn on; the amplitude then one for each
    # other step of the last orbit whose x1 slopes change sign (the
    # downward crossing among them, where x1 is least), reusing the
    # return step's
    formed = []
    dense = oracle._dense

    def counting(f, rec):
        formed.append(rec)
        return dense(f, rec)

    monkeypatch.setattr(oracle, "_dense", counting)
    meas = measure_cycle(_normal_form(Fraction(1, 100)), 0.05)
    assert meas is not None and meas.section == "x2=0, x1>0"
    _, records = meas.orbit
    assert any(rec[2] > 0.0 >= rec[7] for rec in records)  # the orbit crosses downward
    returns, extrema = formed[: meas.crossings], formed[meas.crossings :]
    assert all(rec[2] < 0.0 < rec[7] for rec in returns) and returns[-1] is records[-1]

    def turns(rec):
        slopes = (rec[3], rec[8], *rec[12:26:2])
        return min(slopes) <= 0.0 <= max(slopes)

    assert extrema == [rec for rec in records[:-1] if turns(rec)]
    assert extrema  # x1 turns at least at the half turn
    # three field evaluations each, counted in the measurement's work
    steps_part = 11 * (meas.steps + meas.rejected_steps) + meas.steps
    assert meas.field_evals == 2 * meas.crossings + steps_part + 3 * len(formed)


def _nested_form(power):
    """The eight numbers of the nested form :func:`oracle._interpolate`
    evaluates, for the degree-7 polynomial with power-basis coefficients
    ``power``, constant first: the form is linear in them."""
    s = np.linspace(0.0, 1.0, 8)
    basis = np.array([oracle._interpolate(*row, s) for row in np.eye(8)]).T
    return tuple(np.linalg.solve(basis, np.polynomial.polynomial.polyval(s, power)))


@pytest.mark.parametrize(
    "roots, s_end, expected",
    [
        ((0.3, 0.55), 1.0, (0.3, 0.55)),  # same slope sign at both ends
        ((0.3, 0.55), 0.5, (0.3,)),  # the crossing step, cut at the period
        ((0.4, 1.8), 1.0, (0.4,)),  # slope signs differ at the ends
        ((1.2, 1.8), 1.0, ()),  # monotone
    ],
)
def test_slope_zeros_locate_the_extrema(roots, s_end, expected):
    # p'(s) = (s - r1)(s - r2)(1 + s^2)^2
    slope = np.polynomial.Polynomial.fromroots(roots) * np.polynomial.Polynomial([1.0, 0.0, 1.0]) ** 2
    coeffs = _nested_form(slope.integ(k=0.25).coef)
    zeros = oracle._slope_zeros(coeffs, s_end)
    assert zeros == pytest.approx(list(expected), abs=1e-11)
    for s in np.linspace(0.0, 1.0, 9):
        assert oracle._interpolate_slope(*coeffs, s) == pytest.approx(slope(s), abs=1e-12)


@pytest.mark.parametrize("root", [0.013, 0.37, 0.5, 0.81, 0.996])
def test_root_locates_a_sign_change_in_few_evaluations(root):
    # p(s) = (s - r)(1 + s^2)^2 (2 - s), a sign change on [0, 1] with the
    # curvature of a step's x2 on a dense output; bisection to 1e-12
    # takes 40 evaluations, the regula falsi 6 to 9
    p = (np.polynomial.Polynomial.fromroots((root, 2.0)) * -1.0
         * np.polynomial.Polynomial([1.0, 0.0, 1.0]) ** 2)
    coeffs = _nested_form(p.coef)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return oracle._interpolate(*args)

    s = oracle._root(counted, coeffs, 0.0, 1.0, p(0.0), p(1.0), 1e-12)
    assert s == pytest.approx(root, abs=1e-12)
    assert calls <= 12


def test_dense_output_meets_the_step():
    # the dense output starts and ends at the step's end points, and in
    # between agrees with the loop stepped there to the integrator's
    # order; endpoints alone would not see the rows _D4 to _D7
    f = oracle.compile_field(_normal_form(Fraction(1, 100)))
    u, v = 0.1, 0.0
    fu, fv, fw = f(u, v)
    records = []
    oracle._dop853(f, 0.0, u, v, fu, fv, 0.0, fw, 0.0, 0.4, 1.2, False, 3, math.inf, records)
    assert len(records) == 3
    for rec in records:
        t0, u0, v0, _, _, t1, u1, v1 = rec[:8]
        coeffs = oracle._dense(f, rec)
        assert oracle._interpolate(*coeffs[:8], 0.0) == u0 and oracle._interpolate(*coeffs[8:], 0.0) == v0
        end = oracle._interpolate(*coeffs[:8], 1.0), oracle._interpolate(*coeffs[8:], 1.0)
        assert end == pytest.approx((u1, v1), rel=1e-15, abs=1e-17)
        for s in (0.25, 0.5, 0.8):
            tm = t0 + s * (t1 - t0)
            _, _, um, vm, *_ = oracle._dop853(
                f, *rec[:5], *rec[10:12], rec[26], tm - t0, tm, False, 10, math.inf, []
            )
            dense = oracle._interpolate(*coeffs[:8], s), oracle._interpolate(*coeffs[8:], s)
            # 7th order: within 1e-8 of the radius 0.1 at steps of 0.4 and
            # more, where a wrong row would be off by 1e-4 of it
            assert dense == pytest.approx((um, vm), abs=1e-9)
            assert dense == pytest.approx(_reference_dense(f, rec, tm), rel=1e-14, abs=1e-17)


def test_spiral_sink_yields_no_cycle():
    system = _normal_form(-0.05).to_float()
    assert measure_cycle(system, 0.3) is None


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
@pytest.mark.parametrize(
    "size", [Fraction(1, 100), Fraction(1, 2000), Fraction(1, 2)], ids=["1/100", "1/2000", "1/2"]
)
def test_multiplier_matches_the_closed_form(family, sign, period, size):
    # r' = alpha r -+ r^3 linearized at r = sqrt(|alpha|) is r' = -2 alpha r,
    # so the cycle's multiplier is exp(-2 alpha T), above 1 when alpha < 0;
    # at |alpha| = 1/2 the reflected cycle repels with e^(2 pi), about 535,
    # and its orbit still closes
    alpha = sign * size
    meas = measure_cycle(family(alpha), 0.5 * math.sqrt(size))
    assert meas is not None
    expected = math.exp(-2.0 * float(alpha) * period)
    assert meas.convergence_rate == pytest.approx(expected, rel=1e-6)
    assert meas.stable == (sign > 0)
    # the cycle itself: radius sqrt(|alpha|) and period T.  The amplitude
    # is the fixed point, off by the integration error grown by 1/(1 - P'):
    # at |alpha| = 1/2000 by 1.3e-7 at most
    assert meas.amplitude == pytest.approx(math.sqrt(size), rel=1e-6)
    assert meas.radius_rms == pytest.approx(math.sqrt(size), rel=1e-6)
    assert meas.period == pytest.approx(period, rel=1e-9)
    _assert_orbit_figures(meas)


def test_a_multiplier_beyond_the_tolerances_is_not_measured():
    # the reflected cycle at alpha = -2 repels with e^(8 pi), about 8.2e10:
    # an integration error of RTOL grows past the radius within one
    # period, so no measurement can resolve it.  From this seed the root
    # solve stops after two orbits, on one that closes to its own
    # tolerance SETTLE_REL x (|P'| + 1) with a multiplier 7 % off e^(8 pi)
    system = _hardening(-2).to_float()
    assert measure_cycle(system, 0.5 * math.sqrt(2.0)) is None
    assert oracle.MAX_MULTIPLIER < math.exp(8.0 * math.pi)
    # alpha = -1, multiplier e^(4 pi) = 2.9e5, is still measured
    meas = measure_cycle(_hardening(-1).to_float(), 0.5)
    assert meas is not None
    assert meas.convergence_rate == pytest.approx(math.exp(4.0 * math.pi), rel=1e-3)


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

    def ret(y):
        return oracle._return_map(f, [0, 0, 0, 0], y, oracle._return_budget(system))

    p, _, slope, *_ = ret(x)
    assert abs(p - x) > 0.1 * x
    assert abs(f(x, 0.0)[1] / f(p, 0.0)[1] - 1.0) > 0.2
    h = 1e-4 * x
    difference = (ret(x + h)[0] - ret(x - h)[0]) / (2.0 * h)
    assert slope == pytest.approx(difference, rel=1e-5)


@pytest.mark.parametrize("alpha", [-2, -3, -4])
def test_a_cycle_too_repelling_to_close_is_not_measured(systems_dir, alpha):
    # the reflected cycle at r = sqrt(-alpha) has multiplier e^(-4 pi
    # alpha) >= e^(8 pi), about 8e10, so the integration error grows past
    # the radius within one period and no orbit near the cycle closes; the
    # root solve's bracket collapses between orbits that decay and orbits
    # that blow up, and its last orbit (at -3 one that blew up, with no
    # slope) is no measurement.  At the seed run_analyze takes from the
    # prediction, that last orbit reads amplitude 878546 at -3 and
    # multipliers 1.1e7 and 5.9 at -2 and -4
    defn = load_definition(systems_dir / "reflected_normal_form.json")
    report = run_analyze(defn, AnalysisOptions(alpha=Fraction(alpha)))
    assert report.measurement is None
    assert report.verdict == "disagreement"

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    assert json.loads(report.to_json(), parse_constant=refuse)["measurement"] is None


def test_spiral_source_yields_no_cycle():
    # tau > 0 with a hardening cubic: every orbit moves outward
    system = _hardening(0.05).to_float()
    assert measure_cycle(system, 0.1) is None


def test_measure_validates_seed():
    # 0 is a given seed radius, not a missing one
    system = _normal_form(0.05).to_float()
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="seed_radius must be positive and finite"):
            measure_cycle(system, radius)
    # a seed off the predicted amplitude finds the same cycle, of radius sqrt(alpha)
    assert measure_cycle(system, 0.2).amplitude == pytest.approx(math.sqrt(0.05), rel=1e-6)


def test_a_numpy_seed_is_stepped_as_a_float():
    # an np.float64 seed would make every state of the stepping loop a
    # numpy scalar, at more than twice the cost, and the figures numpy
    # scalars too; the work is the same
    system = _normal_form(Fraction(1, 100))
    plain = measure_cycle(system, 0.05)
    meas = measure_cycle(system, np.float64(0.05))
    work = ("crossings", "steps", "rejected_steps", "field_evals")
    assert [getattr(meas, k) for k in work] == [getattr(plain, k) for k in work]
    assert type(meas.amplitude) is float
    assert type(meas.period) is float
    assert meas.amplitude == plain.amplitude


@pytest.mark.parametrize("jac", [[[1, 0], [0, -1]], [[0, 1], [0, 0]]], ids=["saddle", "delta0"])
def test_no_linear_period_is_refused(jac):
    # each return's time budget is a multiple of the linear period
    # 2 pi / sqrt(delta), which delta <= 0 does not have
    system = build_system(jac, [[[0] * 3, [0] * 3], CUBIC_SOFTENING])
    with pytest.raises(ValueError, match="no linear period"):
        measure_cycle(system, 0.1)


def test_an_orbit_that_does_not_return_stops_within_its_budget(monkeypatch):
    # r6 of a random batch: the root solve reaches orbits that never come
    # back to the section; each stops after RETURN_PERIODS linear periods,
    # 1 871 accepted steps in all, where a budget of t = 1e5 took 574 959
    # to report the same "no cycle"
    steps = 0
    loop = oracle._dop853

    def counting(*args):
        nonlocal steps
        out = loop(*args)
        steps += out[-2]
        return out

    monkeypatch.setattr(oracle, "_dop853", counting)
    defn = load_definition({
        "name": "r6",
        "jac": [["alpha", -1], [1, "alpha"]],
        "phi": [[["5", "-2", "1"], ["-1", "-3", "-5/3"]],
                [["0", "-3", "-3", "-2/3"], ["1", "-5/3", "-1", "-1/2"]]],
    })
    report = run_analyze(defn, AnalysisOptions(alpha=Fraction(1, 50), exact=False))
    assert report.prediction["exists"]
    assert report.measurement is None
    assert 0 < steps < 10_000


def _fake_measurement(amplitude, period, stable):
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


def test_compare_verdict_line_on_each_figure():
    # the line is 10 % relative to the measurement, on the amplitude and on
    # the period each: 9 % off on one figure alone agrees, 11 % off disagrees
    pred = predict_cycle(0.1, 1.0, 0.5, 0.0)
    amp, period = pred.z_amplitude, pred.period
    for off, verdict in ((0.09, "agreement"), (0.11, "disagreement")):
        by_amp = compare(pred, _curve(amp), _fake_measurement(amp / (1.0 + off), period, True))
        assert by_amp.amplitude_rel_err == pytest.approx(off)
        assert by_amp.period_rel_err == pytest.approx(0.0, abs=1e-15)
        by_period = compare(pred, _curve(amp), _fake_measurement(amp, period / (1.0 + off), True))
        assert by_period.period_rel_err == pytest.approx(off)
        assert by_period.amplitude_rel_err == pytest.approx(0.0, abs=1e-15)
        for comp in (by_amp, by_period):
            assert comp.verdict == verdict
            assert comp.amp_tol == comp.period_tol == oracle.AGREE_TOL == 0.1


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
