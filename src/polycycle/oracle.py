"""Numerical cross-validation of the averaged predictions.

Nothing here knows about the change of variables: trajectories of the
original planar field are integrated with an embedded Dormand-Prince
5(4) pair, periodic orbits are found as roots of P(x) - x for the
return map P of a Poincare section, and :func:`compare` reduces a
prediction/measurement pair to a verdict.

All stepping runs in one loop, :func:`_dp45`: the Dormand-Prince pair
with first-same-as-last reuse and Hermite dense output (Hairer, Norsett
and Wanner, Solving Ordinary Differential Equations I, sec. II.4-II.6),
its state in local variables, appending one record per accepted step.
It stops at the first event: a sign change of the section coordinate,
a blow-up past ``BLOWUP_NORM``, a step size underflow, the time limit
or the step budget, and returns the state it stopped in, from which the
return map resumes it past a crossing on the wrong side.

Crossing times are located inside accepted steps by bisection on the
section coordinate's cubic Hermite interpolant, which at the fixed
1e-10 tolerances is accurate to well below 1e-6 in time, and the state
there is taken by one more run of the loop from the start of the step:
the interpolant's own error, up to about 2e-7 relative next to the
Hopf point, would otherwise reach the fixed point multiplied by
1/|P' - 1|.

Each orbit also gives the slope of the return map, from the divergence
identity for planar flows (Perko, Differential Equations and Dynamical
Systems, sec. 3.4):

    P'(x) = f_n(x) / f_n(P(x)) * exp(integral_0^T(x) div f dt),

with f_n the field component normal to the section and T(x) the return
time.  The generated field returns div f with f, and the stepping loop
integrates it with the same stages, outside the error norm, so the
slope costs no further orbit, field evaluation or pass over the steps.
With it the root solve is a safeguarded Newton iteration, the
multiplier of the cycle is the slope at its last point, and attracting
and repelling cycles are both found in forward time.  The root solve's
last orbit, once around from the fixed point, is also the one the
measured period is sampled from.
"""

from __future__ import annotations

import math
from itertools import chain
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
# measure_cycle: the fixed point of the return map is searched for
# within SEARCH_RANGE times the seed and pinned down to SETTLE_REL
# relative width; the measured period is sampled at CYCLE_SAMPLES + 1
# points.
SEARCH_RANGE = (1e-7, 8.0)
SETTLE_REL = 1e-8
CYCLE_SAMPLES = 2048
# A return-map slope magnitude within this of 1 is neutral (a center's
# orbit): the corpus centers' slopes are within 1e-8 of 1, and 1 - slope
# on normal_form at alpha = 1/10000 is about 12x this.
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
    exactly when the cycle attracts), from the integral of div f along
    the root solve's last orbit, ``stable`` whether it
    attracts, None when the slope magnitude is within ``NEUTRAL_SLOPE``
    of 1 (neutral, as on the orbits of a center), ``crossings`` the
    number of return-map evaluations the root solve took, which is the
    number of orbits the measurement followed, and ``samples`` one
    period of (t, x1, x2) rows for export, interpolated in the steps of
    the root solve's last orbit.  ``steps``, ``rejected_steps`` and
    ``field_evals`` are the integrator's work, summed over those orbits.
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


_UNDERFLOW = "step size underflow; the field may be singular here"


def _dp45(f, t0, u0, v0, fu0, fv0, w0, fw0, trial, t_limit, section, budget, norm, records):
    """Accepted Dormand-Prince steps from t0, where f(u0, v0) = (fu0,
    fv0, fw0) and ``trial`` is the next step to try, up to the first
    event.

    w0, the integral of div f so far, is stepped with the same weights
    but left out of the error norm, so it moves no step size or event.
    Each accepted step appends (t0, u0, v0, fu0, fv0, t1, u1, v1, fu1,
    fv1, w0, fw0) to ``records``.  The events: "budget" once ``budget``
    steps were accepted and "limit" once t is within 1e-14 relative of
    ``t_limit``, both checked before a step; "underflow" when
    rejections cut the step below 1e-14, leaving the state at the
    step's start; after a step, "blowup" when |u| + |v| passes
    ``norm``, then "cross" when coordinate ``section`` (0: u, 1: v,
    None: no section) changed sign from a nonzero start.

    Returns (event, t, u, v, fu, fv, w, fw, trial, accepted steps,
    rejected steps), from which a later call resumes the same stepping.
    """
    sqrt = math.sqrt
    append = records.append
    t_tol = 1e-14 * max(1.0, abs(t_limit))
    g0 = None if section is None else (u0, v0)[section]
    steps = rejects = 0
    while True:
        if steps >= budget:
            event = "budget"
            break
        if t_limit - t0 <= t_tol:
            event = "limit"
            break
        h = t_limit - t0
        if not h < trial:  # min(trial, t_limit - t0)
            h = trial
        k1u, k1v = fu0, fv0
        while True:
            yu = u0 + h * (_A21 * k1u)
            yv = v0 + h * (_A21 * k1v)
            k2u, k2v, _ = f(yu, yv)
            yu = u0 + h * (_A31 * k1u + _A32 * k2u)
            yv = v0 + h * (_A31 * k1v + _A32 * k2v)
            k3u, k3v, k3w = f(yu, yv)
            yu = u0 + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
            yv = v0 + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
            k4u, k4v, k4w = f(yu, yv)
            yu = u0 + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
            yv = v0 + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
            k5u, k5v, k5w = f(yu, yv)
            yu = u0 + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
            yv = v0 + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v)
            k6u, k6v, k6w = f(yu, yv)
            u1 = u0 + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
            v1 = v0 + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
            k7u, k7v, k7w = f(u1, v1)
            eu = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
            ev = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v)
            # max(a, b) as a comparison: a unless b is greater
            a, b = abs(u0), abs(u1)
            su = ATOL + RTOL * (b if b > a else a)
            a, b = abs(v0), abs(v1)
            sv = ATOL + RTOL * (b if b > a else a)
            err = sqrt(0.5 * ((eu / su) ** 2 + (ev / sv) ** 2))
            if err <= 1.0:
                break
            rejects += 1
            q = 0.9 * err ** -0.2
            h *= q if q > 0.2 else 0.2  # max(0.2, q)
            if h < 1e-14:
                return "underflow", t0, u0, v0, fu0, fv0, w0, fw0, trial, steps, rejects
        if err == 0.0:
            trial = h * 5.0
        else:
            q = 0.9 * err ** -0.2
            q = q if q > 0.2 else 0.2
            trial = h * (q if q < 5.0 else 5.0)  # min(5.0, max(0.2, q))
        w1 = w0 + h * (_B1 * fw0 + _B3 * k3w + _B4 * k4w + _B5 * k5w + _B6 * k6w)
        t1 = t0 + h
        append((t0, u0, v0, fu0, fv0, t1, u1, v1, k7u, k7v, w0, fw0))
        t0, u0, v0, fu0, fv0, w0, fw0 = t1, u1, v1, k7u, k7v, w1, k7w
        steps += 1
        if abs(u1) + abs(v1) > norm:
            event = "blowup"
            break
        if section is not None:
            g1 = v1 if section else u1
            if g0 != 0.0 and (g0 > 0.0) != (g1 > 0.0):
                event = "cross"
                break
            g0 = g1
    return event, t0, u0, v0, fu0, fv0, w0, fw0, trial, steps, rejects


def _record_array(records) -> np.ndarray:
    """The (12, N) array of N step records."""
    flat = np.fromiter(chain.from_iterable(records), float, 12 * len(records))
    return flat.reshape(-1, 12).T


def _work(orbits: list[list[int]]) -> tuple[int, int, int]:
    """(accepted steps, rejected steps, field evaluations) of the orbits
    one measurement followed, each held as its [steps, rejects]."""
    steps = sum(o[0] for o in orbits)
    rejects = sum(o[1] for o in orbits)
    # one evaluation to start each orbit, six per attempted step (k2..k7)
    return steps, rejects, len(orbits) + 6 * (steps + rejects)


def _hermite(rec, t):
    """Interpolate (u, v) in a step record at t; also a (12, N) record array at N times."""
    t0, u0, v0, fu0, fv0, t1, u1, v1, fu1, fv1 = rec[:10]
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
    ``BLOWUP_NORM`` or the steps reach ``MAX_STEPS``; a step size
    underflow raises ArithmeticError.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    f = compile_field(system)
    u, v = float(x0[0]), float(x0[1])
    fu, fv, fw = f(u, v)
    records = []
    event, *_, steps, _ = _dp45(f, 0.0, u, v, fu, fv, 0.0, fw, H_INIT, t_end, None, MAX_STEPS, BLOWUP_NORM, records)
    if event == "underflow":
        raise ArithmeticError(_UNDERFLOW)
    ts = [0.0] + [rec[5] for rec in records]
    states = [(u, v)] + [(rec[6], rec[7]) for rec in records]
    return Trajectory(np.array(ts), np.array(states), event != "limit", steps)


def _locate_crossing(rec, zero_idx: int, t_tol: float) -> float:
    """Bisect the Hermite interpolant for a sign change of one coordinate.

    Only that coordinate is interpolated, by the expression of
    :func:`_hermite`, so the time is the one both coordinates would give.
    """
    t0, t1 = rec[0], rec[5]
    g0, d0, g1, d1 = rec[1 + zero_idx], rec[3 + zero_idx], rec[6 + zero_idx], rec[8 + zero_idx]
    if g0 == 0.0:
        return t0
    h = t1 - t0
    ta, tb, gb = t0, t1, g1
    for _ in range(200):
        tm = 0.5 * (ta + tb)
        s = (tm - t0) / h
        s2 = s * s
        w2 = (1.0 - s) * (1.0 - s)
        h00 = (1.0 + 2.0 * s) * w2
        h10 = s * w2
        h01 = s2 * (3.0 - 2.0 * s)
        h11 = s2 * (s - 1.0)
        gm = h00 * g0 + h10 * h * d0 + h01 * g1 + h11 * h * d1
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


def _return_map(f, orbits, zero_idx, pos_idx, x: float):
    """Follow the orbit from the section point ``x`` once around.

    Returns (P(x), return time, P'(x), list of the accepted step
    records) at the first crossing of the section in the direction the
    flow crosses it at the start.  P is inf when the orbit blows up or
    its step size underflows, and 0 when it falls inside the 1e-8
    numerical-origin scale, where the tangency guard below cannot tell a
    flat section from a dead orbit; P' is nan in both cases.  Otherwise
    P(x) is the state at the crossing time, stepped to from the start of
    the step that holds it, and P' comes from the divergence identity of
    the module docstring, with w stepped to the crossing time along
    with it.  The normal components are the orbit's first field
    evaluation and the last stage of that step, which the
    transversality check reads, so the slope adds no field call.  The
    orbit's [accepted steps, rejected steps] is appended to ``orbits``.
    """
    u, v = (x, 0.0) if zero_idx == 1 else (0.0, x)
    fu, fv, fw = f(u, v)
    normal_start = (fu, fv)[zero_idx]
    rising = normal_start > 0.0
    t, w, trial = 0.0, 0.0, H_INIT
    work = [0, 0]
    orbits.append(work)
    records = []
    while True:
        # the time budget only stops an orbit that never comes back
        event, t, u, v, fu, fv, w, fw, trial, steps, rejects = _dp45(
            f, t, u, v, fu, fv, w, fw, trial, 1e5, zero_idx, MAX_STEPS - work[0], BLOWUP_NORM, records
        )
        work[0] += steps
        work[1] += rejects
        if event in ("blowup", "underflow"):
            return math.inf, t, math.nan, records
        if event != "cross":
            raise _NoReturn
        rec = records[-1]
        tc = _locate_crossing(rec, zero_idx, 1e-12 * max(1.0, abs(rec[5])))
        state = _hermite(rec, tc)
        if math.hypot(state[0], state[1]) < 1e-8:
            return 0.0, tc, math.nan, records
        if state[pos_idx] <= 0.0 or (rec[6 + zero_idx] > 0.0) != rising:
            continue
        # the state at tc to the integrator's order, not the interpolant's:
        # step again from the start of this step, to tc, stopping for
        # nothing else, as the step it repeats passed every check
        event, _, u, v, fu, fv, w, _, _, steps, rejects = _dp45(
            f, *rec[:5], *rec[10:], tc - rec[0], tc, None, math.inf, math.inf, []
        )
        work[0] += steps
        work[1] += rejects
        if event == "underflow":
            raise ArithmeticError(_UNDERFLOW)
        state, speed = (u, v), (fu, fv)
        if abs(speed[zero_idx]) <= 1e-9 * (1.0 + math.hypot(speed[0], speed[1])):
            raise TransversalityError(
                f"flow is tangent to the section at t={tc:.6g}, point {state}"
            )
        return state[pos_idx], tc, normal_start / speed[zero_idx] * math.exp(w), records


def _fixed_point(f, orbits, zero_idx, pos_idx, seed: float, tau: float):
    """Solve g(x) = P(x) - x by safeguarded Newton steps on g' = P' - 1.

    Returns (return time, P', evaluations, step records) of the last
    point evaluated, which is the fixed point to ``SETTLE_REL``, or
    None.  Blow-up makes g = inf and decay onto the origin g = -x, so
    both count with the sign they imply; P' is undefined there.
    """
    evaluations = 0

    def g(x):
        nonlocal evaluations
        evaluations += 1
        p, t, slope, records = _return_map(f, orbits, zero_idx, pos_idx, x)
        return p - x, (t, slope, evaluations, records)

    x = seed
    gx, last = g(x)
    if abs(gx) <= SETTLE_REL * seed:
        return last

    # next to the origin g has the sign of tau, so until g changes sign
    # the root lies outward while g still has that sign and inward once
    # it has not; a Newton step the other way heads for another root
    outward = (gx > 0.0) == (tau > 0.0)
    ends = {gx > 0.0: x}  # the last point where g > 0 (True), g < 0 (False)
    for _ in range(200):
        slope = last[1]
        step = None
        if math.isfinite(slope) and slope != 1.0:
            step = -gx / (slope - 1.0)
            if abs(step) <= SETTLE_REL * x:
                return last
        if len(ends) == 1:
            # double or halve, or a Newton step that way within [x/2, 2x]
            if step is None or (step > 0.0) != outward:
                nxt = 2.0 * x if outward else 0.5 * x
            else:
                nxt = min(max(x + step, 0.5 * x), 2.0 * x)
            nxt = min(max(nxt, SEARCH_RANGE[0] * seed), SEARCH_RANGE[1] * seed)
            if nxt == x:
                return None  # no sign change in range: no cycle
        else:
            lo, hi = sorted(ends.values())
            nxt = x + step if step is not None and lo < x + step < hi else 0.5 * (lo + hi)
        x, (gx, last) = nxt, g(nxt)
        if gx == 0.0:
            return last
        ends[gx > 0.0] = x
        if len(ends) == 2 and abs(ends[True] - ends[False]) <= SETTLE_REL * x:
            # a bracket also collapses on a jump of g, next to orbits that
            # blew up or did not close; with g ~ (P' - 1)(x - x*), an orbit
            # within SETTLE_REL x of a fixed point closes as checked here
            slope = last[1]
            closed = math.isfinite(slope) and abs(gx) <= SETTLE_REL * x * (abs(slope) + 1.0)
            return last if closed else None
    return None


def check_seed_radius(seed_radius) -> None:
    """Refuse a seed radius that is not positive and finite."""
    if not 0.0 < seed_radius < math.inf:
        raise ValueError(f"seed_radius must be positive and finite, got {seed_radius}")


def measure_cycle(system: PlanarPolySystem, seed_radius: float) -> CycleMeasurement | None:
    """Find a periodic orbit as a root of g(x) = P(x) - x on a section.

    P is the forward-time return map of the half-line through the seed,
    and each evaluation of it also gives P'(x) from the divergence
    integral along its orbit.  g is evaluated at ``seed_radius``; if it
    already vanishes to ``SETTLE_REL`` (a center) the seed is the fixed
    point.  Otherwise Newton steps x - g/g' are taken, with g' = P' - 1.
    Until g changes sign they stay within [x/2, 2x] and ``SEARCH_RANGE``
    times the seed and go the way the sign of g next to the origin
    points; where a Newton step points the other way, or P' is undefined
    (blow-up or decay), x is doubled or halved instead.  Once g has
    changed sign the steps stay inside the bracket, and a step that
    would leave it bisects.  The solve stops when the Newton step or the
    bracket is within ``SETTLE_REL`` times x, and the last point
    evaluated is the fixed point: its orbit gives the period, the
    sampled cycle and the multiplier P'.  Returns None when g has no
    sign change in the range, an orbit does not come back to the
    section, or the last orbit does not close: P' is not finite or
    |P(x) - x| > ``SETTLE_REL`` x (|P'| + 1); a measurement otherwise.

    Raises
    ------
    TransversalityError
        When the flow is tangent to both candidate sections.
    """
    check_seed_radius(seed_radius)
    flt = system.to_float()
    f = compile_field(flt)
    tau = float(flt.jac[0, 0] + flt.jac[1, 1])

    orbits: list[list[int]] = []
    last_error = None
    for zero_idx, pos_idx, label in _SECTIONS:
        try:
            found = _fixed_point(f, orbits, zero_idx, pos_idx, seed_radius, tau)
            if found is None:
                return None
            return _finish_measurement(orbits, label, *found)
        except TransversalityError as err:
            last_error = err
        except _NoReturn:
            return None  # no rotation around the origin: nothing to measure
    raise last_error


def _finish_measurement(orbits, label, period, slope, evaluations, records):
    recs = _record_array(records)
    # one period from the fixed point, densely sampled: each time in the
    # first step ending at or after it, or in the last step
    t = period * np.arange(CYCLE_SAMPLES + 1) / CYCLE_SAMPLES
    ri = np.minimum(np.searchsorted(recs[5], t), recs.shape[1] - 1)
    u, v = _hermite(recs[:, ri], np.minimum(t, recs[5, ri]))
    samples = np.column_stack([t, u, v])
    amplitude = float(np.max(np.abs(samples[:, 1])))
    radius_rms = float(math.sqrt(np.mean(samples[:, 1] ** 2 + samples[:, 2] ** 2)))
    steps, rejects, field_evals = _work(orbits)
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


def check_tolerances(amp_tol, period_tol) -> None:
    """Refuse a comparison tolerance that is negative or not finite."""
    for name, tol in (("amp_tol", amp_tol), ("period_tol", period_tol)):
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"{name} must be non-negative and finite, got {tol}")


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
    and period decide.  A disagreement is a result, not an error; a
    tolerance that is negative or not finite is a ValueError.
    """
    check_tolerances(amp_tol, period_tol)
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
