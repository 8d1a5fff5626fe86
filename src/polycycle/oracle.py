"""Numerical cross-validation of the averaged predictions.

Nothing here knows about the change of variables: trajectories of the
original planar field are integrated with an embedded Dormand-Prince
5(4) pair, periodic orbits are found as roots of P(x) - x for the
return map P of a Poincare section, and :func:`compare` reduces a
prediction/measurement pair to a verdict.

Crossing times are located inside accepted steps by bisection on the
cubic Hermite interpolant, which at the fixed 1e-10 tolerances is
accurate to well below 1e-6 in time.  Attracting and repelling cycles
are both found in forward time: the root solve does not need the
return map to contract, and its last orbit, once around from the fixed
point, is the one the measured period is sampled from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .averaging import KbmPrediction
from .system import PlanarPolySystem, compile_field

__all__ = [
    "Trajectory",
    "CycleMeasurement",
    "ComparisonReport",
    "TransversalityError",
    "integrate",
    "measure_cycle",
    "compare",
    "samples_to_csv",
]

# Dormand-Prince 5(4) tableau.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

# First trial step of the adaptive integrator.
H_INIT = 1e-3
# Relative and absolute tolerances of every integration.  They are fixed
# because SETTLE_REL and NEUTRAL_SLOPE below are calibrated to them: at
# 1e-8 the oracle finds no cycle on the center linear_center (float), and
# at 1e-6 an orbit of the center quadratic has return-map slope 1.00012,
# outside NEUTRAL_SLOPE, and reads as unstable.
RTOL = ATOL = 1e-10
# Accepted-step budget of one integration.
MAX_STEPS = 5_000_000
# A state with |x1| + |x2| above this has blown up.
BLOWUP_NORM = 1e6
# measure_cycle: the fixed point of the return map is bracketed within
# SEARCH_RANGE times the seed and pinned down to SETTLE_REL relative
# width; the measured period is sampled at CYCLE_SAMPLES + 1 points.
SEARCH_RANGE = (1e-7, 8.0)
SETTLE_REL = 1e-8
CYCLE_SAMPLES = 2048
# A return-map slope magnitude within this of 1 is neutral (a center's
# orbit): about 100x the finite-difference noise on the corpus centers,
# and about 12x below 1 - slope on normal_form at alpha = 1/10000.
NEUTRAL_SLOPE = 1e-4


@dataclass
class Trajectory:
    """Integration output sampled at accepted step endpoints."""

    t: np.ndarray
    states: np.ndarray
    truncated: bool
    steps: int


@dataclass
class CycleMeasurement:
    """A periodic orbit pinned down by the return map.

    ``amplitude`` is max |x1| over one period, ``radius_rms`` the root
    mean square distance from the origin, ``convergence_rate`` the
    magnitude of the return-map slope at the fixed point (so < 1
    exactly when the cycle attracts), ``stable`` whether it attracts,
    None when the slope magnitude is within ``NEUTRAL_SLOPE`` of 1
    (neutral, as on the orbits of a center), ``crossings`` the number of
    return-map evaluations the root solve took, and ``samples`` one
    period of (t, x1, x2) rows for export, interpolated in the steps of
    the root solve's last orbit.  ``steps``, ``rejected_steps`` and
    ``field_evals`` are the integrator's work, summed over every orbit
    the measurement followed: the root solve's and the two slope
    returns.
    """

    amplitude: float
    radius_rms: float
    period: float
    stable: bool | None
    convergence_rate: float
    section: str
    crossings: int
    steps: int
    rejected_steps: int
    field_evals: int
    samples: np.ndarray = field(repr=False, default=None)


class TransversalityError(RuntimeError):
    """Both Poincare sections met the flow tangentially."""


class _Stepper:
    """Adaptive Dormand-Prince stepping with FSAL reuse."""

    __slots__ = ("f", "t", "u", "v", "fu", "fv", "h", "steps", "rejects")

    def __init__(self, f, u, v):
        self.f = f
        self.t = 0.0
        self.u, self.v = u, v
        self.fu, self.fv = f(u, v)
        self.h = H_INIT
        self.steps = 0
        self.rejects = 0

    def advance(self, t_limit: float):
        """One accepted step, not overshooting t_limit.

        Returns (t0, u0, v0, fu0, fv0, t1, u1, v1, fu1, fv1), the raw
        material for Hermite interpolation, or None at the limit.
        """
        f = self.f
        t0, u0, v0 = self.t, self.u, self.v
        if t_limit - t0 <= 1e-14 * max(1.0, abs(t_limit)):
            return None
        fu1, fv1 = self.fu, self.fv
        h = min(self.h, t_limit - t0)
        while True:
            k1u, k1v = fu1, fv1
            yu = u0 + h * (_A21 * k1u)
            yv = v0 + h * (_A21 * k1v)
            k2u, k2v = f(yu, yv)
            yu = u0 + h * (_A31 * k1u + _A32 * k2u)
            yv = v0 + h * (_A31 * k1v + _A32 * k2v)
            k3u, k3v = f(yu, yv)
            yu = u0 + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
            yv = v0 + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
            k4u, k4v = f(yu, yv)
            yu = u0 + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
            yv = v0 + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
            k5u, k5v = f(yu, yv)
            yu = u0 + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
            yv = v0 + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v)
            k6u, k6v = f(yu, yv)
            u1 = u0 + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
            v1 = v0 + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
            k7u, k7v = f(u1, v1)
            eu = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
            ev = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v)
            su = ATOL + RTOL * max(abs(u0), abs(u1))
            sv = ATOL + RTOL * max(abs(v0), abs(v1))
            err = math.sqrt(0.5 * ((eu / su) ** 2 + (ev / sv) ** 2))
            if err <= 1.0:
                break
            self.rejects += 1
            h *= max(0.2, 0.9 * err ** -0.2)
            if h < 1e-14:
                raise ArithmeticError("step size underflow; the field may be singular here")
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        self.h = h * factor
        self.t = t0 + h
        self.u, self.v = u1, v1
        self.fu, self.fv = k7u, k7v
        self.steps += 1
        return (t0, u0, v0, fu1, fv1, self.t, u1, v1, k7u, k7v)


class _Work:
    """The orbits one measurement followed, for its work counts."""

    __slots__ = ("steppers", "checks")

    def __init__(self):
        self.steppers: list[_Stepper] = []
        self.checks = 0  # field evaluations of the transversality test

    def totals(self) -> tuple[int, int, int]:
        """(accepted steps, rejected steps, field evaluations)."""
        steps = sum(s.steps for s in self.steppers)
        rejects = sum(s.rejects for s in self.steppers)
        # one evaluation to start each orbit, six per attempted step (k2..k7)
        return steps, rejects, len(self.steppers) + 6 * (steps + rejects) + self.checks


def _hermite(rec, t):
    """Interpolate a step record at t; also a (10, N) record array at N times."""
    t0, u0, v0, fu0, fv0, t1, u1, v1, fu1, fv1 = rec
    h = t1 - t0
    s = (t - t0) / h
    s2 = s * s
    # a product, not ** 2: float ** is libm pow, numpy's ** 2 a product
    w2 = (1.0 - s) * (1.0 - s)
    h00 = (1.0 + 2.0 * s) * w2
    h10 = s * w2
    h01 = s2 * (3.0 - 2.0 * s)
    h11 = s2 * (s - 1.0)
    u = h00 * u0 + h10 * h * fu0 + h01 * u1 + h11 * h * fu1
    v = h00 * v0 + h10 * h * fv0 + h01 * v1 + h11 * h * fv1
    return u, v


def integrate(system: PlanarPolySystem, x0, t_end: float) -> Trajectory:
    """Integrate the field from x0 for t in [0, t_end] by adaptive DP45 steps.

    The trajectory is truncated, and flagged, if the state norm passes
    ``BLOWUP_NORM``.
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    f = compile_field(system)
    u, v = float(x0[0]), float(x0[1])
    ts = [0.0]
    states = [(u, v)]
    truncated = False
    stepper = _Stepper(f, u, v)
    while True:
        rec = stepper.advance(t_end)
        if rec is None:
            break
        ts.append(rec[5])
        states.append((rec[6], rec[7]))
        if abs(rec[6]) + abs(rec[7]) > BLOWUP_NORM:
            truncated = True
            break
        if stepper.steps >= MAX_STEPS:
            truncated = True
            break
    return Trajectory(np.array(ts), np.array(states), truncated, stepper.steps)


def _locate_crossing(rec, zero_idx: int, t_tol: float) -> float:
    """Bisect the Hermite interpolant for a sign change of one coordinate."""
    ta, tb = rec[0], rec[5]
    ga = (rec[1], rec[2])[zero_idx]
    gb = (rec[6], rec[7])[zero_idx]
    if ga == 0.0:
        return ta
    for _ in range(200):
        tm = 0.5 * (ta + tb)
        gm = _hermite(rec, tm)[zero_idx]
        if gm == 0.0:
            return tm
        if (gm > 0.0) == (gb > 0.0):
            tb, gb = tm, gm
        else:
            ta = tm
        if tb - ta <= t_tol:
            break
    return 0.5 * (ta + tb)


_SECTIONS = ((1, 0, "x2=0, x1>0"), (0, 1, "x1=0, x2>0"))


class _NoReturn(Exception):
    """An orbit did not come back to the section within its time budget."""


def _return_map(f, work, zero_idx, pos_idx, x: float, t_budget: float):
    """Follow the orbit from the section point ``x`` once around.

    Returns (P(x), return time, accepted step records) at the first
    crossing of the section in the direction the flow crosses it at the
    start.  P is inf when the orbit blows up or its step size underflows,
    and 0 when it falls inside the 1e-8 numerical-origin scale, where the
    tangency guard below cannot tell a flat section from a dead orbit.
    The orbit is counted in ``work``.
    """
    stepper = _Stepper(f, *((x, 0.0) if zero_idx == 1 else (0.0, x)))
    work.steppers.append(stepper)
    rising = (stepper.fu, stepper.fv)[zero_idx] > 0.0
    records = []
    while stepper.steps < MAX_STEPS:
        try:
            rec = stepper.advance(t_budget)
        except ArithmeticError:  # step size underflow
            return math.inf, stepper.t, records
        if rec is None:
            break
        records.append(rec)
        if abs(rec[6]) + abs(rec[7]) > BLOWUP_NORM:
            return math.inf, rec[5], records
        g0 = (rec[1], rec[2])[zero_idx]
        g1 = (rec[6], rec[7])[zero_idx]
        if g0 == 0.0 or (g0 > 0.0) == (g1 > 0.0):
            continue
        tc = _locate_crossing(rec, zero_idx, 1e-12 * max(1.0, abs(rec[5])))
        state = _hermite(rec, tc)
        if math.hypot(state[0], state[1]) < 1e-8:
            return 0.0, tc, records
        if state[pos_idx] <= 0.0 or (g1 > 0.0) != rising:
            continue
        work.checks += 1
        speed = f(state[0], state[1])
        if abs(speed[zero_idx]) <= 1e-9 * (1.0 + math.hypot(speed[0], speed[1])):
            raise TransversalityError(
                f"flow is tangent to the section at t={tc:.6g}, point {state}"
            )
        return state[pos_idx], tc, records
    raise _NoReturn


def _fixed_point(f, work, zero_idx, pos_idx, seed: float, tau: float):
    """Solve g(x) = P(x) - x; returns (x*, return time, evaluations,
    step records) or None, x* being the last point evaluated.

    Blow-up makes g = inf and decay onto the origin g = -x, so both
    count with the sign they imply.
    """
    evaluations = 0
    records = None

    def g(x):
        nonlocal evaluations, records
        evaluations += 1
        p, t, records = _return_map(f, work, zero_idx, pos_idx, x, 1e5)
        return p - x, t

    ga, ta = g(seed)
    if abs(ga) <= SETTLE_REL * seed:
        return seed, ta, evaluations, records

    # next to the origin g has the sign of tau, so the sign change lies
    # outward while g still has that sign and inward once it has not
    factor = 2.0 if (ga > 0.0) == (tau > 0.0) else 0.5
    a = seed
    while True:
        b = a * factor
        if not SEARCH_RANGE[0] * seed <= b <= SEARCH_RANGE[1] * seed:
            return None  # no sign change in range: no cycle
        gb, tb = g(b)
        if gb == 0.0:
            return b, tb, evaluations, records
        if (gb > 0.0) != (ga > 0.0):
            break
        a, ga = b, gb

    # Illinois false position: when the same end is replaced twice
    # running, halve the other end's value; bisect while an end is infinite
    replaced = 0  # 1 when b was replaced last, -1 when a was
    for _ in range(200):
        if math.isinf(ga) or math.isinf(gb):
            c = 0.5 * (a + b)
        else:
            c = (a * gb - b * ga) / (gb - ga)
        gc, tc = g(c)
        if gc == 0.0:
            return c, tc, evaluations, records
        if (gc > 0.0) == (gb > 0.0):
            b, gb = c, gc
            if replaced == 1:
                ga *= 0.5
            replaced = 1
        else:
            a, ga = c, gc
            if replaced == -1:
                gb *= 0.5
            replaced = -1
        if abs(b - a) <= SETTLE_REL * c:
            return c, tc, evaluations, records
    return None


def measure_cycle(system: PlanarPolySystem, seed_radius: float) -> CycleMeasurement | None:
    """Find a periodic orbit as a root of g(x) = P(x) - x on a section.

    P is the forward-time return map of the half-line through the seed.
    g is evaluated at ``seed_radius``; if it already vanishes to
    ``SETTLE_REL`` (a center) the seed is the fixed point.  Otherwise
    the search doubles or halves x, within ``SEARCH_RANGE`` times the
    seed, until g changes sign, and Illinois false position shrinks
    that bracket to ``SETTLE_REL`` times x.  The test is on x, not on
    |g|, because |g'| is small when the cycle is weakly attracting or
    repelling.  Returns None when g has no sign change in the range or
    an orbit does not come back to the section; a measurement
    otherwise.

    Raises
    ------
    TransversalityError
        When the flow is tangent to both candidate sections.
    """
    if seed_radius <= 0.0:
        raise ValueError(f"seed_radius must be positive, got {seed_radius}")
    flt = system.to_float()
    f = compile_field(flt)
    tau = float(flt.jac[0, 0] + flt.jac[1, 1])

    work = _Work()
    last_error = None
    for zero_idx, pos_idx, label in _SECTIONS:
        try:
            found = _fixed_point(f, work, zero_idx, pos_idx, seed_radius, tau)
            if found is None:
                return None
            return _finish_measurement(f, work, zero_idx, pos_idx, label, *found)
        except TransversalityError as err:
            last_error = err
        except _NoReturn:
            return None  # no rotation around the origin: nothing to measure
    raise last_error


def _finish_measurement(f, work, zero_idx, pos_idx, label, x_star, period, evaluations, records):
    # one period from the fixed point, densely sampled: each time in the
    # first step ending at or after it, or in the last step
    recs = np.array(records).T
    t = period * np.arange(CYCLE_SAMPLES + 1) / CYCLE_SAMPLES
    ri = np.minimum(np.searchsorted(recs[5], t), recs.shape[1] - 1)
    u, v = _hermite(recs[:, ri], np.minimum(t, recs[5, ri]))
    samples = np.column_stack([t, u, v])
    amplitude = float(np.max(np.abs(samples[:, 1])))
    radius_rms = float(math.sqrt(np.mean(samples[:, 1] ** 2 + samples[:, 2] ** 2)))

    h = max(1e-4 * x_star, 1e-8)
    p_plus = _return_map(f, work, zero_idx, pos_idx, x_star + h, 50.0 * period)[0]
    p_minus = _return_map(f, work, zero_idx, pos_idx, x_star - h, 50.0 * period)[0]
    slope = (p_plus - p_minus) / (2.0 * h)
    steps, rejects, field_evals = work.totals()
    return CycleMeasurement(
        amplitude=amplitude,
        radius_rms=radius_rms,
        period=period,
        stable=None if abs(abs(slope) - 1.0) <= NEUTRAL_SLOPE else abs(slope) < 1.0,
        convergence_rate=abs(slope),
        section=label,
        crossings=evaluations,
        steps=steps,
        rejected_steps=rejects,
        field_evals=field_evals,
        samples=samples,
    )


@dataclass
class ComparisonReport:
    """Prediction vs oracle, reduced to numbers and a verdict."""

    predicted_amplitude: float | None
    predicted_period: float | None
    measured_amplitude: float | None
    measured_period: float | None
    amplitude_rel_err: float | None
    period_rel_err: float | None
    stability_match: bool | None
    verdict: str
    amp_tol: float
    period_tol: float


def compare(
    prediction: KbmPrediction,
    curve: np.ndarray | None,
    measurement: CycleMeasurement | None,
    amp_tol: float = 0.1,
    period_tol: float = 0.1,
) -> ComparisonReport:
    """Judge a prediction against the oracle measurement.

    Verdicts: ``agreement`` when both sides report a cycle within
    tolerance (or both report none), ``degenerate`` when averaging was
    inconclusive (p3 = 0), ``disagreement`` otherwise.  A neutral
    measurement (``stable`` None) cannot confirm or refute the predicted
    stability, so ``stability_match`` is None and only the amplitude
    and period decide.  A disagreement is a result, not an error.
    """
    pred_amp = None
    pred_period = prediction.period
    if prediction.exists and curve is not None:
        pred_amp = float(np.max(np.abs(curve[:, 1])))
    meas_amp = measurement.amplitude if measurement is not None else None
    meas_period = measurement.period if measurement is not None else None

    amp_err = None
    period_err = None
    stability_match = None
    if prediction.degenerate:
        verdict = "degenerate"
    elif prediction.exists and measurement is not None:
        if pred_amp is not None and meas_amp:
            amp_err = abs(pred_amp - meas_amp) / abs(meas_amp)
        if meas_period:
            period_err = abs(pred_period - meas_period) / abs(meas_period)
        if measurement.stable is not None:
            stability_match = (prediction.stability == "stable_supercritical") == measurement.stable
        ok = (
            amp_err is not None
            and amp_err <= amp_tol
            and period_err is not None
            and period_err <= period_tol
            and stability_match is not False
        )
        verdict = "agreement" if ok else "disagreement"
    elif not prediction.exists and measurement is None:
        verdict = "agreement"
    else:
        verdict = "disagreement"
    return ComparisonReport(
        predicted_amplitude=pred_amp,
        predicted_period=pred_period,
        measured_amplitude=meas_amp,
        measured_period=meas_period,
        amplitude_rel_err=amp_err,
        period_rel_err=period_err,
        stability_match=stability_match,
        verdict=verdict,
        amp_tol=amp_tol,
        period_tol=period_tol,
    )


def samples_to_csv(samples: np.ndarray) -> str:
    """Serialize (t, x1, x2) rows; floats use repr so output is stable."""
    lines = ["t,x1,x2"]
    for row in samples:
        lines.append(f"{float(row[0])!r},{float(row[1])!r},{float(row[2])!r}")
    return "\n".join(lines) + "\n"
