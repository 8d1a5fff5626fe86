"""Numerical cross-validation of the averaged predictions.

Nothing here knows about the change of variables: trajectories of the
original planar field are integrated with the embedded Dormand-Prince
8(5,3) pair, DOP853, periodic orbits are found as roots of P(x) - x for
the return map P of the Poincare section x2 = 0, x1 > 0, and
:func:`compare` reduces a prediction/measurement pair to a verdict.

All stepping runs in one loop, ``_Kernel.loop``: the pair with its
combined 5th- and 3rd-order error estimate and first-same-as-last reuse
(Hairer, Norsett and Wanner, Solving Ordinary Differential Equations I,
sec. II.10), its state in local variables, appending one record per
accepted step.  It stops at the first event: a sign change of x2, a
blow-up past ``BLOWUP_NORM``, a step size
underflow, the time limit or the step budget, and returns the state it
stopped in, from which the return map resumes it past a crossing on the
wrong side.  Each orbit's first trial step comes from the starting-step
rule of sec. II.4.  An orbit of the return map has ``RETURN_PERIODS``
= 50 linear periods 2 pi / sqrt(delta) to come back to the section,
ten times the longest return measured: 4.83 linear periods over 155
returns on 40 random quadratic+cubic systems at alpha = +-1/50, and
1.015 over 519 returns on the benchmark's corpus and near-Hopf inputs.
An orbit past that has settled on or circles another equilibrium, and
there is no cycle around the origin through its start.

Between its end points a step is interpolated by the pair's own 7th-order
dense output (sec. II.6, ``_Kernel.dense``), which costs three more field
evaluations and is formed only for the steps that need it: the step that
holds a return to the section, and the steps of a measured orbit in
which x1 turns, where the amplitude is found.  A crossing of the section
in the other direction is told from the step's end alone.  Crossing
times are located on the dense output of x2 by the same regula falsi,
:func:`_root`, that finds the extrema of x1 on the dense output of x1,
and the state there is taken by one more run of the loop from the
start of the step: the interpolant's own error, though far below a
cubic Hermite interpolant's at these step sizes, would otherwise reach
the fixed point multiplied by 1/|P' - 1|.

Each orbit also gives the slope of the return map, from the divergence
identity for planar flows (Perko, Differential Equations and Dynamical
Systems, sec. 3.4):

    P'(x) = f_n(x) / f_n(P(x)) * exp(integral_0^T(x) div f dt),

with f_n the field component normal to the section and T(x) the return
time.  The generated field forms div f with f, and the stepping loop
integrates it with the same stages, outside the error norm, so the
slope costs no further orbit, field evaluation or pass over the steps.
With it the root solve is a safeguarded Newton iteration, the
multiplier of the cycle is the slope at its last point, and attracting
and repelling cycles are both found in forward time.  The root solve's
last orbit, once around from the fixed point, is also the measured
cycle: the loop integrates x1^2 + x2^2 along it for the rms radius in
the same way, the amplitude is the largest |x1| of its dense output,
and its period is sampled for export only when the samples are read.

The loop, the dense output and the starting step are one kernel per
nonzero pattern of the float field, rendered from the source template
``_KERNEL``: the field's statements, from :func:`system.field_statements`,
are written into each stage, the tableau constants are float literals,
and the system's coefficients are bound as locals of each routine when
the kernel is made for it.  A kernel is compiled the first time its
pattern is measured and kept in a bounded cache, so all alpha of a
family share one; it calls no field callable.  :func:`compile_field`
hands out the kernel's own field routine.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .averaging import KbmPrediction
from .system import (
    PlanarPolySystem,
    field_coefficients,
    field_parameters,
    field_pattern,
    field_statements,
)

__all__ = [
    "Trajectory",
    "CycleMeasurement",
    "ComparisonReport",
    "TransversalityError",
    "compile_field",
    "integrate",
    "measure_cycle",
    "compare",
    "samples_to_csv",
]

# Dormand-Prince 8(5,3) tableau (Hairer, Norsett and Wanner, sec. II.6 and
# II.10), as the shortest float literals of its published constants: stage
# weights _Ai_j, solution weights _B, the weights _BHH whose difference from
# _B is the 3rd-order error estimate, the 5th-order error estimate _ER, the
# three dense-output stages 14 to 16 and the dense-output rows _D4 to _D7.
# Stages 2 to 5 enter neither the weights nor the dense output.  The nodes c
# are left out, as the field does not depend on t.
_A2_1 = 0.05260015195876773
_A3_1, _A3_2 = 0.0197250569845379, 0.0591751709536137
_A4_1, _A4_3 = 0.02958758547680685, 0.08876275643042054
_A5_1, _A5_3, _A5_4 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A6_1, _A6_4, _A6_5 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_A7_1, _A7_4, _A7_5, _A7_6 = 0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
_A8_1, _A8_4, _A8_5, _A8_6, _A8_7 = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
    0.008273789163814023,
)
_A9_1, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996,
)
_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627,
)
_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
)
_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11 = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636,
)
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
)
_BHH1, _BHH9, _BHH12 = 0.2440944881889764, 0.7338466882816118, 0.022058823529411766
_ER1, _ER6, _ER7, _ER8, _ER9, _ER10, _ER11, _ER12 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
)
_A14_1, _A14_7, _A14_8, _A14_9, _A14_10, _A14_11, _A14_12, _A14_13 = (
    0.056167502283047954, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298,
)
_A15_1, _A15_6, _A15_7, _A15_8, _A15_11, _A15_12, _A15_13, _A15_14 = (
    0.03183464816350214, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
)
_A16_1, _A16_6, _A16_7, _A16_8, _A16_9, _A16_13, _A16_14, _A16_15 = (
    -0.42889630158379194, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987,
)
_D4_1, _D4_6, _D4_7, _D4_8, _D4_9, _D4_10, _D4_11, _D4_12, _D4_13, _D4_14, _D4_15, _D4_16 = (
    -8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
    2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894,
)
_D5_1, _D5_6, _D5_7, _D5_8, _D5_9, _D5_10, _D5_11, _D5_12, _D5_13, _D5_14, _D5_15, _D5_16 = (
    10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
    -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
    15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408,
)
_D6_1, _D6_6, _D6_7, _D6_8, _D6_9, _D6_10, _D6_11, _D6_12, _D6_13, _D6_14, _D6_15, _D6_16 = (
    19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
    -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279,
)
_D7_1, _D7_6, _D7_7, _D7_8, _D7_9, _D7_10, _D7_11, _D7_12, _D7_13, _D7_14, _D7_15, _D7_16 = (
    -25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
    93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
    96.32455395918828, -39.17726167561544, -149.72683625798564,
)

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
# within SEARCH_RANGE times the seed, which run_analyze takes from the
# predicted amplitude, and pinned down to SETTLE_REL relative width; the
# measured period is sampled, when read, at CYCLE_SAMPLES + 1 points.
SEARCH_RANGE = (1e-7, 8.0)
SETTLE_REL = 1e-8
CYCLE_SAMPLES = 2048
# The time budget of one return in linear periods 2 pi / sqrt(delta), ten
# times the longest return measured (4.83, see the module docstring).
RETURN_PERIODS = 50
# A last orbit whose return-map slope magnitude is above this is no
# measurement: the orbit's integration error, about RTOL of the radius,
# grows by |P'| over one period, and above 1e-4 of the radius the
# repelling cycle is no longer resolved.  On the reflected family at
# alpha = -1 (multiplier e^(4 pi), 2.9e5) amplitude and multiplier are
# within 1e-3 of their closed forms, at -1.25 (6.6e6) up to 6 % and 18 %
# off, and at -1.5 (1.5e8) the amplitude can be 3.8 times the radius.
MAX_MULTIPLIER = 1e-4 / RTOL
# A return-map slope magnitude within this of 1 is neutral (a center's
# orbit): the corpus centers' slopes are within 1e-8 of 1, and 1 - slope
# on normal_form at alpha = 1/10000 is about 12x this.
NEUTRAL_SLOPE = 1e-4
# compare: a predicted cycle agrees when its amplitude and its period are
# each within this relative error of the measured ones, the 10 % line of
# the acceptance criteria; the reports carry both errors for any other line.
AGREE_TOL = 0.1

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

    Every figure comes from the root solve's last orbit, once around
    from the fixed point over the return time T, ``period``.
    ``amplitude`` is max |x1| over [0, T] of that orbit's dense output
    and ``radius_rms`` the root mean square distance from the origin,
    sqrt((1/T) integral_0^T (x1^2 + x2^2) dt), integrated by the
    stepping loop along the orbit.  ``convergence_rate`` is the
    magnitude of the return-map slope at the fixed point (so < 1
    exactly when the cycle attracts), from the integral of div f along
    the orbit, ``stable`` whether it attracts, None when the slope
    magnitude is within ``NEUTRAL_SLOPE`` of 1 (neutral, as on the
    orbits of a center), and ``crossings`` the number of orbits the
    measurement followed, one per return-map evaluation of the root
    solve.  ``steps``, ``rejected_steps`` and ``field_evals`` are the
    integrator's work over those orbits, counted in one tally as they
    run.  ``orbit`` holds the float system and the last orbit's step
    records, from which ``samples``, one period of (t, x1, x2) rows for
    export, is formed from the dense output of each step the first time
    it is read; ``field_evals`` does not count the field evaluations
    that takes.
    """

    amplitude: float
    radius_rms: float
    period: float
    stable: bool | None
    convergence_rate: float
    crossings: int
    steps: int
    rejected_steps: int
    field_evals: int
    orbit: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def samples(self) -> np.ndarray | None:
        if self.orbit is None:
            return None
        system, records = self.orbit
        return _sample_orbit(_kernel(system), records, self.period)


class TransversalityError(RuntimeError):
    """The flow met the section x2 = 0, x1 > 0 tangentially; there is no other."""


_UNDERFLOW = "step size underflow; the field may be singular here"


# The stepping code of the oracle, rendered once per nonzero pattern of
# the float field by _kernel_factory: each line "<names> = f(<u>, <v>)" is
# replaced by the generated field's statements at that point
# (system.field_statements; with two names du and dv alone, with three
# div f too), each tableau constant and ATOL and RTOL by its float
# literal, and COEFFICIENTS by the coefficient names c0, c1, ...: make()
# takes one system's coefficients, and each routine binds them as its
# locals.
# Stages 2 to 5 and 14 to 16 form no div f: the loop reads it at stages
# 1 and 6 to 13 only.
_KERNEL = """
def make(coefficients):
    def field(u, v):
        COEFFICIENTS = coefficients
        fu, fv, fw = f(u, v)
        return fu, fv, fw

    def loop(t0, u0, v0, fu0, fv0, w0, fw0, q0, trial, t_limit, section, budget, norm, records):
        COEFFICIENTS = coefficients
        sqrt = math.sqrt
        append = records.append
        t_tol = 1e-14 * max(1.0, abs(t_limit))
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
                y2u = u0 + h * (_A2_1 * k1u)
                y2v = v0 + h * (_A2_1 * k1v)
                k2u, k2v = f(y2u, y2v)
                y3u = u0 + h * (_A3_1 * k1u + _A3_2 * k2u)
                y3v = v0 + h * (_A3_1 * k1v + _A3_2 * k2v)
                k3u, k3v = f(y3u, y3v)
                y4u = u0 + h * (_A4_1 * k1u + _A4_3 * k3u)
                y4v = v0 + h * (_A4_1 * k1v + _A4_3 * k3v)
                k4u, k4v = f(y4u, y4v)
                y5u = u0 + h * (_A5_1 * k1u + _A5_3 * k3u + _A5_4 * k4u)
                y5v = v0 + h * (_A5_1 * k1v + _A5_3 * k3v + _A5_4 * k4v)
                k5u, k5v = f(y5u, y5v)
                y6u = u0 + h * (_A6_1 * k1u + _A6_4 * k4u + _A6_5 * k5u)
                y6v = v0 + h * (_A6_1 * k1v + _A6_4 * k4v + _A6_5 * k5v)
                k6u, k6v, k6w = f(y6u, y6v)
                y7u = u0 + h * (_A7_1 * k1u + _A7_4 * k4u + _A7_5 * k5u + _A7_6 * k6u)
                y7v = v0 + h * (_A7_1 * k1v + _A7_4 * k4v + _A7_5 * k5v + _A7_6 * k6v)
                k7u, k7v, k7w = f(y7u, y7v)
                y8u = u0 + h * (_A8_1 * k1u + _A8_4 * k4u + _A8_5 * k5u + _A8_6 * k6u + _A8_7 * k7u)
                y8v = v0 + h * (_A8_1 * k1v + _A8_4 * k4v + _A8_5 * k5v + _A8_6 * k6v + _A8_7 * k7v)
                k8u, k8v, k8w = f(y8u, y8v)
                y9u = u0 + h * (_A9_1 * k1u + _A9_4 * k4u + _A9_5 * k5u + _A9_6 * k6u + _A9_7 * k7u
                                + _A9_8 * k8u)
                y9v = v0 + h * (_A9_1 * k1v + _A9_4 * k4v + _A9_5 * k5v + _A9_6 * k6v + _A9_7 * k7v
                                + _A9_8 * k8v)
                k9u, k9v, k9w = f(y9u, y9v)
                y10u = u0 + h * (_A10_1 * k1u + _A10_4 * k4u + _A10_5 * k5u + _A10_6 * k6u + _A10_7 * k7u
                                 + _A10_8 * k8u + _A10_9 * k9u)
                y10v = v0 + h * (_A10_1 * k1v + _A10_4 * k4v + _A10_5 * k5v + _A10_6 * k6v + _A10_7 * k7v
                                 + _A10_8 * k8v + _A10_9 * k9v)
                k10u, k10v, k10w = f(y10u, y10v)
                y11u = u0 + h * (_A11_1 * k1u + _A11_4 * k4u + _A11_5 * k5u + _A11_6 * k6u + _A11_7 * k7u
                                 + _A11_8 * k8u + _A11_9 * k9u + _A11_10 * k10u)
                y11v = v0 + h * (_A11_1 * k1v + _A11_4 * k4v + _A11_5 * k5v + _A11_6 * k6v + _A11_7 * k7v
                                 + _A11_8 * k8v + _A11_9 * k9v + _A11_10 * k10v)
                k11u, k11v, k11w = f(y11u, y11v)
                y12u = u0 + h * (_A12_1 * k1u + _A12_4 * k4u + _A12_5 * k5u + _A12_6 * k6u + _A12_7 * k7u
                                 + _A12_8 * k8u + _A12_9 * k9u + _A12_10 * k10u + _A12_11 * k11u)
                y12v = v0 + h * (_A12_1 * k1v + _A12_4 * k4v + _A12_5 * k5v + _A12_6 * k6v + _A12_7 * k7v
                                 + _A12_8 * k8v + _A12_9 * k9v + _A12_10 * k10v + _A12_11 * k11v)
                k12u, k12v, k12w = f(y12u, y12v)
                su = (_B1 * k1u + _B6 * k6u + _B7 * k7u + _B8 * k8u + _B9 * k9u + _B10 * k10u
                      + _B11 * k11u + _B12 * k12u)
                sv = (_B1 * k1v + _B6 * k6v + _B7 * k7v + _B8 * k8v + _B9 * k9v + _B10 * k10v
                      + _B11 * k11v + _B12 * k12v)
                u1 = u0 + h * su
                v1 = v0 + h * sv
                # max(a, b) as a comparison: a unless b is greater
                a, b = abs(u0), abs(u1)
                scale = ATOL + RTOL * (b if b > a else a)
                e3 = (su - (_BHH1 * k1u + _BHH9 * k9u + _BHH12 * k12u)) / scale
                e5 = (_ER1 * k1u + _ER6 * k6u + _ER7 * k7u + _ER8 * k8u + _ER9 * k9u + _ER10 * k10u
                      + _ER11 * k11u + _ER12 * k12u) / scale
                a, b = abs(v0), abs(v1)
                scale = ATOL + RTOL * (b if b > a else a)
                f3 = (sv - (_BHH1 * k1v + _BHH9 * k9v + _BHH12 * k12v)) / scale
                f5 = (_ER1 * k1v + _ER6 * k6v + _ER7 * k7v + _ER8 * k8v + _ER9 * k9v + _ER10 * k10v
                      + _ER11 * k11v + _ER12 * k12v) / scale
                err5 = e5 * e5 + f5 * f5
                deno = err5 + 0.01 * (e3 * e3 + f3 * f3)
                err = 0.0 if deno == 0.0 else h * err5 / sqrt(2.0 * deno)
                if err <= 1.0:
                    break
                rejects += 1
                q = 0.9 * err ** -0.125
                h *= q if q > 0.2 else 0.2  # max(0.2, q)
                if h < 1e-14:
                    return "underflow", t0, u0, v0, fu0, fv0, w0, fw0, q0, trial, steps, rejects
            if err == 0.0:
                trial = h * 5.0
            else:
                q = 0.9 * err ** -0.125
                q = q if q > 0.2 else 0.2
                trial = h * (q if q < 5.0 else 5.0)  # min(5.0, max(0.2, q))
            fu1, fv1, fw1 = f(u1, v1)
            w1 = w0 + h * (_B1 * fw0 + _B6 * k6w + _B7 * k7w + _B8 * k8w + _B9 * k9w + _B10 * k10w
                           + _B11 * k11w + _B12 * k12w)
            q1 = q0 + h * (_B1 * (u0 * u0 + v0 * v0) + _B6 * (y6u * y6u + y6v * y6v)
                           + _B7 * (y7u * y7u + y7v * y7v) + _B8 * (y8u * y8u + y8v * y8v)
                           + _B9 * (y9u * y9u + y9v * y9v) + _B10 * (y10u * y10u + y10v * y10v)
                           + _B11 * (y11u * y11u + y11v * y11v) + _B12 * (y12u * y12u + y12v * y12v))
            t1 = t0 + h
            append((t0, u0, v0, fu0, fv0, t1, u1, v1, fu1, fv1, w0, fw0,
                    k6u, k6v, k7u, k7v, k8u, k8v, k9u, k9v, k10u, k10v, k11u, k11v, k12u, k12v, q0))
            crossed = section and v0 != 0.0 and (v0 > 0.0) != (v1 > 0.0)
            t0, u0, v0, fu0, fv0, w0, fw0, q0 = t1, u1, v1, fu1, fv1, w1, fw1, q1
            steps += 1
            if abs(u1) + abs(v1) > norm:
                event = "blowup"
                break
            if crossed:
                event = "cross"
                break
        return event, t0, u0, v0, fu0, fv0, w0, fw0, q0, trial, steps, rejects

    def dense(rec):
        COEFFICIENTS = coefficients
        (t0, u0, v0, k1u, k1v, t1, u1, v1, k13u, k13v, _, _,
         k6u, k6v, k7u, k7v, k8u, k8v, k9u, k9v, k10u, k10v, k11u, k11v, k12u, k12v, _) = rec
        h = t1 - t0
        y14u = u0 + h * (_A14_1 * k1u + _A14_7 * k7u + _A14_8 * k8u + _A14_9 * k9u + _A14_10 * k10u
                         + _A14_11 * k11u + _A14_12 * k12u + _A14_13 * k13u)
        y14v = v0 + h * (_A14_1 * k1v + _A14_7 * k7v + _A14_8 * k8v + _A14_9 * k9v + _A14_10 * k10v
                         + _A14_11 * k11v + _A14_12 * k12v + _A14_13 * k13v)
        k14u, k14v = f(y14u, y14v)
        y15u = u0 + h * (_A15_1 * k1u + _A15_6 * k6u + _A15_7 * k7u + _A15_8 * k8u + _A15_11 * k11u
                         + _A15_12 * k12u + _A15_13 * k13u + _A15_14 * k14u)
        y15v = v0 + h * (_A15_1 * k1v + _A15_6 * k6v + _A15_7 * k7v + _A15_8 * k8v + _A15_11 * k11v
                         + _A15_12 * k12v + _A15_13 * k13v + _A15_14 * k14v)
        k15u, k15v = f(y15u, y15v)
        y16u = u0 + h * (_A16_1 * k1u + _A16_6 * k6u + _A16_7 * k7u + _A16_8 * k8u + _A16_9 * k9u
                         + _A16_13 * k13u + _A16_14 * k14u + _A16_15 * k15u)
        y16v = v0 + h * (_A16_1 * k1v + _A16_6 * k6v + _A16_7 * k7v + _A16_8 * k8v + _A16_9 * k9v
                         + _A16_13 * k13v + _A16_14 * k14v + _A16_15 * k15v)
        k16u, k16v = f(y16u, y16v)
        out = []
        for y0, y1, k1, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16 in (
            (u0, u1, k1u, k6u, k7u, k8u, k9u, k10u, k11u, k12u, k13u, k14u, k15u, k16u),
            (v0, v1, k1v, k6v, k7v, k8v, k9v, k10v, k11v, k12v, k13v, k14v, k15v, k16v),
        ):
            dy = y1 - y0
            out += (
                y0,
                dy,
                h * k1 - dy,
                2.0 * dy - h * (k13 + k1),
                h * (_D4_1 * k1 + _D4_6 * k6 + _D4_7 * k7 + _D4_8 * k8 + _D4_9 * k9 + _D4_10 * k10
                     + _D4_11 * k11 + _D4_12 * k12 + _D4_13 * k13 + _D4_14 * k14 + _D4_15 * k15
                     + _D4_16 * k16),
                h * (_D5_1 * k1 + _D5_6 * k6 + _D5_7 * k7 + _D5_8 * k8 + _D5_9 * k9 + _D5_10 * k10
                     + _D5_11 * k11 + _D5_12 * k12 + _D5_13 * k13 + _D5_14 * k14 + _D5_15 * k15
                     + _D5_16 * k16),
                h * (_D6_1 * k1 + _D6_6 * k6 + _D6_7 * k7 + _D6_8 * k8 + _D6_9 * k9 + _D6_10 * k10
                     + _D6_11 * k11 + _D6_12 * k12 + _D6_13 * k13 + _D6_14 * k14 + _D6_15 * k15
                     + _D6_16 * k16),
                h * (_D7_1 * k1 + _D7_6 * k6 + _D7_7 * k7 + _D7_8 * k8 + _D7_9 * k9 + _D7_10 * k10
                     + _D7_11 * k11 + _D7_12 * k12 + _D7_13 * k13 + _D7_14 * k14 + _D7_15 * k15
                     + _D7_16 * k16),
            )
        return tuple(out)

    def first_step(u0, v0, fu0, fv0):
        COEFFICIENTS = coefficients
        sqrt = math.sqrt
        su = ATOL + RTOL * abs(u0)
        sv = ATOL + RTOL * abs(v0)
        # products, not ** 2: float ** raises OverflowError where * gives inf
        a, b = u0 / su, v0 / sv
        d0 = sqrt(0.5 * (a * a + b * b))
        a, b = fu0 / su, fv0 / sv
        d1 = sqrt(0.5 * (a * a + b * b))
        h0 = 0.01 * d0 / d1 if d0 >= 1e-5 and d1 >= 1e-5 else 1e-6
        if not 0.0 < h0 < math.inf:
            return 1e-6  # an infinite state or speed
        y1u = u0 + h0 * fu0
        y1v = v0 + h0 * fv0
        fu1, fv1 = f(y1u, y1v)
        a, b = (fu1 - fu0) / su, (fv1 - fv0) / sv
        d = max(d1, sqrt(0.5 * (a * a + b * b)) / h0)
        h = min(100.0 * h0, max(1e-6, 1e-3 * h0) if d <= 1e-15 else (0.01 / d) ** 0.125)
        return h if h > 0.0 else 1e-6

    return field, loop, dense, first_step
"""
_CONSTANT = re.compile(r"\b(?:_(?:A|B|BHH|ER|D)\d+(?:_\d+)?|ATOL|RTOL)\b")
_FIELD_CALL = re.compile(r"^( +)(\w+(?:, \w+)+) = f\((\w+), (\w+)\)$", re.MULTILINE)


class _Kernel(NamedTuple):
    """The stepping code of one float system, with the field written into
    each stage: ``field(u, v) -> (du, dv, div)`` and

    ``loop(t0, u0, v0, fu0, fv0, w0, fw0, q0, trial, t_limit, section,
    budget, norm, records)``: accepted DOP853 steps from t0, where
    field(u0, v0) = (fu0, fv0, fw0) and ``trial`` is the next step to
    try, up to the first event.  A step's error is the 5th-order estimate
    damped by the 3rd-order one, |h| err5^2 / sqrt(2 (err5^2 + err3^2 /
    100)), in the norm of the scales ATOL + RTOL max(|y0|, |y1|); the next
    step is h times 0.9 err^(-1/8) within [0.2, 5].  The last stage, f at
    the step's end, is evaluated once the step is accepted and is the
    next step's first.  w, the integral of div f, and q, that of u^2 +
    v^2 (from the stage states), are stepped with the same weights but
    kept out of the error norm.  Each accepted step appends (t0, u0, v0,
    fu0, fv0, t1, u1, v1, fu1, fv1, w0, fw0), the (u, v) of stages 6 to
    12 and q0 to ``records``.  Events: "budget" after ``budget`` accepted
    steps and "limit" within 1e-14 relative of ``t_limit``, both checked
    before a step; "underflow" when rejections cut the step below 1e-14,
    the state left at the step's start; after a step, "blowup" when |u| +
    |v| passes ``norm``, then, with ``section``, "cross" when v changed
    sign from a nonzero start.  Returns (event, t, u, v, fu, fv, w, fw, q,
    trial, accepted steps, rejected steps), from which a later call
    resumes the same stepping.

    ``first_step(u0, v0, fu0, fv0)``: the starting-step rule of Hairer,
    Norsett and Wanner (sec. II.4) for an 8th-order pair, in the norm of
    the error test: an Euler step of 1/100 of |y| / |f| gives a
    difference quotient for f', at one more field evaluation, and the
    trial step is the h with h^8 max(|f|, |f'|) = 1/100, at most 100
    times that Euler step.  With steps growing by at most 5, an orbit so
    reaches the step size it keeps within about two steps.

    ``dense(rec)``: the 7th-order dense output of one record (sec. II.6).
    Three more stages, from the record's stages 1 and 6 to 13, give (u0,
    c0, ..., c6, v0, c0, ..., c6), each coordinate's value at the step's
    start and the coefficients :func:`_interpolate` takes.
    """

    field: Callable
    loop: Callable
    dense: Callable
    first_step: Callable


@lru_cache(maxsize=1)
def _kernel_template() -> str:
    """``_KERNEL`` with each tableau constant, ATOL and RTOL as its float literal."""
    return _CONSTANT.sub(lambda m: repr(globals()[m[0]]), _KERNEL)


@lru_cache(maxsize=128)
def _kernel_factory(pattern: tuple):
    """make(coefficients) -> the routines of a :class:`_Kernel`, from
    ``_KERNEL`` rendered and compiled for one nonzero pattern."""
    source = _FIELD_CALL.sub(
        lambda m: "\n".join(m[1] + line for line in field_statements(pattern, m[3], m[4], m[2].split(", "))),
        _kernel_template(),
    )
    source = source.replace("COEFFICIENTS", field_parameters(pattern))
    namespace = {"math": math}
    exec(compile(source, "<oracle kernel>", "exec"), namespace)
    return namespace["make"]


def _kernel(system: PlanarPolySystem) -> _Kernel:
    """The kernel of a system: its pattern's code, with its coefficients bound."""
    return _Kernel(*_kernel_factory(field_pattern(system))(field_coefficients(system)))


def compile_field(system: PlanarPolySystem):
    """Straight-line float code for the field of a system, ``f(u, v) ->
    (du, dv, div)``: the kernel's own field routine, the statements of
    :func:`system.field_statements` for the system's nonzero pattern with
    its coefficients bound.  It is compiled with its pattern's kernel, once
    per pattern and process, so all alpha of a family share it.  The
    stepping code inlines the same statements and calls no field.
    """
    return _kernel(system).field


def _interpolate(y0, c0, c1, c2, c3, c4, c5, c6, s):
    """One coordinate of a dense output at s = (t - t0) / h, for a scalar
    s or, with arrays of coefficients, an array: y0 + s (c0 + (1 - s) (c1
    + s (c2 + (1 - s) (c3 + s (c4 + (1 - s) (c5 + s c6))))))."""
    r = 1.0 - s
    return y0 + s * (c0 + r * (c1 + s * (c2 + r * (c3 + s * (c4 + r * (c5 + s * c6))))))


def _interpolate_slope(y0, c0, c1, c2, c3, c4, c5, c6, s):
    """d/ds of :func:`_interpolate` at a scalar s, its nested form
    differentiated from the inside out."""
    r = 1.0 - s
    a, d = c5 + s * c6, c6
    a, d = c4 + r * a, r * d - a
    a, d = c3 + s * a, s * d + a
    a, d = c2 + r * a, r * d - a
    a, d = c1 + s * a, s * d + a
    a, d = c0 + r * a, r * d - a
    return s * d + a


def _slope_zeros(coeffs, s_end: float) -> list[float]:
    """The zeros in (0, s_end] of the derivative of one coordinate's dense
    output, whose eight numbers from ``_Kernel.dense`` are ``coeffs``.

    The derivative is bracketed by its signs at 0 and s_end or, where
    they agree, at eight equal intervals between, so a pair of zeros
    within one interval is passed over.
    """
    d0 = _interpolate_slope(*coeffs, 0.0)
    d1 = _interpolate_slope(*coeffs, s_end)
    n = 1 if (d0 > 0.0) != (d1 > 0.0) else 8
    zeros = []
    a, da = 0.0, d0
    for i in range(1, n + 1):
        b = s_end * i / n
        db = d1 if i == n else _interpolate_slope(*coeffs, b)
        if db == 0.0:
            zeros.append(b)
        elif da < 0.0 < db or db < 0.0 < da:
            zeros.append(_root(_interpolate_slope, coeffs, a, b, da, db, 1e-12))
        a, da = b, db
    return zeros


def _root(fn, coeffs, lo: float, hi: float, flo: float, fhi: float, tol: float) -> float:
    """The zero in (lo, hi) of fn(*coeffs, s), which is flo at lo and fhi
    at hi, of opposite signs, to ``tol`` in s: regula falsi with the
    Illinois modification, bisecting where a step would leave the
    bracket.  ``fn`` is :func:`_interpolate_slope` for the extrema of a
    dense output and :func:`_interpolate` for its sign change."""
    kept = 0  # the end the last step kept: 1 for hi, -1 for lo
    for _ in range(100):
        m = (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < m < hi:
            m = 0.5 * (lo + hi)
        fm = fn(*coeffs, m)
        if fm == 0.0:
            break
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = m, fm
            if kept == 1:
                fhi *= 0.5
            kept = 1
        else:
            hi, fhi = m, fm
            if kept == -1:
                flo *= 0.5
            kept = -1
        if hi - lo <= tol:
            break
    return m


def integrate(system: PlanarPolySystem, x0, t_end: float) -> Trajectory:
    """Integrate the field from x0 for t in [0, t_end] by adaptive DOP853 steps.

    The trajectory is truncated, and flagged, if the state norm passes
    ``BLOWUP_NORM`` or the steps reach ``MAX_STEPS``; a step size
    underflow raises ArithmeticError.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    kernel = _kernel(system)
    u, v = float(x0[0]), float(x0[1])
    fu, fv, fw = kernel.field(u, v)
    trial = kernel.first_step(u, v, fu, fv)
    records = []
    event, *_, steps, _ = kernel.loop(
        0.0, u, v, fu, fv, 0.0, fw, 0.0, trial, t_end, False, MAX_STEPS, BLOWUP_NORM, records
    )
    if event == "underflow":
        raise ArithmeticError(_UNDERFLOW)
    ts = [0.0] + [rec[5] for rec in records]
    states = [(u, v)] + [(rec[6], rec[7]) for rec in records]
    return Trajectory(np.array(ts), np.array(states), event != "limit", steps)


class _NoReturn(Exception):
    """An orbit did not come back to the section within its step budget
    or its time budget, ``RETURN_PERIODS`` = 50 linear periods, ten
    times the longest return measured (4.83 linear periods)."""


def _return_map(kernel, work, x: float, t_limit: float):
    """Follow the orbit from the section point (x, 0) once around, for at
    most the time ``t_limit``.

    Returns (P(x), return time T, P'(x), q(T), crossing dense output,
    list of the accepted step records) at the first crossing of the
    section in the direction the flow crosses it at the start; q(T) is
    the integral of x1^2 + x2^2 over [0, T].  A crossing the other way,
    half a turn on, is told by the step's end alone and passed over: no
    dense output is formed and no crossing time located for it.  P is
    inf when the orbit blows up or its step size underflows, and 0 when
    at the next crossing in the right direction it is inside the 1e-8
    numerical-origin scale, where the tangency guard below cannot tell a
    flat section from a dead orbit; P' and q(T) are nan and the dense
    output None in both cases.  Otherwise P(x) is the state at the
    crossing time, stepped to from the start of the step that holds it,
    and P' comes from the divergence identity of the module docstring,
    with w and q stepped to the crossing time along with it.  The normal
    components are the orbit's first field evaluation and the last stage
    of that step, which the transversality check reads, so the slope
    adds no field call.  The orbit, its accepted and rejected steps and
    its dense outputs are added to the tally ``work``, [orbits, accepted
    steps, rejected steps, dense outputs].  A return at which the flow
    is tangent to the section raises TransversalityError.
    """
    u, v = x, 0.0
    fu, fv, fw = kernel.field(u, v)
    normal_start = fv
    t, w, q, trial = 0.0, 0.0, 0.0, kernel.first_step(u, v, fu, fv)
    work[0] += 1
    records = []
    while True:
        # the time budget, 50 linear periods against at most 4.83 measured
        # for a return, only stops an orbit that never comes back
        event, t, u, v, fu, fv, w, fw, q, trial, steps, rejects = kernel.loop(
            t, u, v, fu, fv, w, fw, q, trial, t_limit, True, MAX_STEPS - len(records),
            BLOWUP_NORM, records,
        )
        work[1] += steps
        work[2] += rejects
        if event in ("blowup", "underflow"):
            return math.inf, t, math.nan, math.nan, None, records
        if event != "cross":
            raise _NoReturn
        rec = records[-1]
        if (rec[7] > 0.0) != (normal_start > 0.0):
            continue
        t0, t1 = rec[0], rec[5]
        h = t1 - t0
        coeffs = kernel.dense(rec)
        work[3] += 1
        # x2 changes sign in the step: from rec[2] at s = 0 to rec[7] at 1
        s = _root(_interpolate, coeffs[8:], 0.0, 1.0, rec[2], rec[7], 1e-12 * max(1.0, abs(t1)) / h)
        tc = t0 + s * h
        x1 = _interpolate(*coeffs[:8], s)
        if math.hypot(x1, _interpolate(*coeffs[8:], s)) < 1e-8:
            return 0.0, tc, math.nan, math.nan, None, records
        if x1 <= 0.0:
            continue
        # the state at tc to the integrator's order, not the interpolant's:
        # step again from the start of this step, to tc, stopping for
        # nothing else, as the step it repeats passed every check
        event, _, u, v, fu, fv, w, _, q, _, steps, rejects = kernel.loop(
            *rec[:5], *rec[10:12], rec[26], tc - t0, tc, False, math.inf, math.inf, []
        )
        work[1] += steps
        work[2] += rejects
        if event == "underflow":
            raise ArithmeticError(_UNDERFLOW)
        if abs(fv) <= 1e-9 * (1.0 + math.hypot(fu, fv)):
            raise TransversalityError(
                f"flow is tangent to the section at t={tc:.6g}, point {(u, v)}"
            )
        return u, tc, normal_start / fv * math.exp(w), q, coeffs, records


def _fixed_point(kernel, work, seed: float, tau: float, t_limit: float):
    """Solve g(x) = P(x) - x by safeguarded Newton steps on g' = P' - 1.

    Returns (return time, P', q, crossing dense output, step records) of
    the last point evaluated, which is the fixed point to ``SETTLE_REL``,
    or None.  Blow-up makes g = inf and decay onto the origin g = -x, so
    both count with the sign they imply; P' is undefined there.  Each
    orbit runs for at most ``t_limit`` and is added to the tally ``work``.
    """
    def g(x):
        p, t, slope, *orbit = _return_map(kernel, work, x, t_limit)
        return p - x, (t, slope, *orbit)

    x = seed
    gx, last = g(x)
    # |g| alone settles the seed only on a center's orbit: elsewhere a
    # small |g| still leaves the seed |g| / |1 - P'| from the cycle, so
    # the seed takes the Newton-step test below
    slope = last[1]
    neutral = not math.isfinite(slope) or abs(slope - 1.0) <= NEUTRAL_SLOPE
    if neutral and abs(gx) <= SETTLE_REL * seed:
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


def _return_budget(system: PlanarPolySystem) -> float:
    """The time budget of one return, ``RETURN_PERIODS`` linear periods
    2 pi / sqrt(delta) of a float system; ValueError when delta <= 0, as
    the origin then has no linear period and no orbit turns around it."""
    jac = system.jac
    delta = float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])
    if not delta > 0.0:
        raise ValueError(f"the origin has no linear period: delta={delta!r} is not positive")
    return RETURN_PERIODS * 2.0 * math.pi / math.sqrt(delta)


def measure_cycle(system: PlanarPolySystem, seed_radius: float) -> CycleMeasurement | None:
    """Find a periodic orbit as a root of g(x) = P(x) - x on a section.

    P is the forward-time return map of the half-line x2 = 0, x1 > 0,
    and each evaluation of it also gives P'(x) from the divergence
    integral along its orbit.  g is evaluated at ``seed_radius``; if it
    already vanishes to ``SETTLE_REL`` and P' is within ``NEUTRAL_SLOPE``
    of 1 (a center) the seed is the fixed point.  Otherwise Newton steps
    x - g/g' are taken, with g' = P' - 1.
    Until g changes sign they stay within [x/2, 2x] and ``SEARCH_RANGE``
    times the seed and go the way the sign of g next to the origin
    points; where a Newton step points the other way, or P' is undefined
    (blow-up or decay), x is doubled or halved instead.  Once g has
    changed sign the steps stay inside the bracket, and a step that
    would leave it bisects.  The solve stops when the Newton step or the
    bracket is within ``SETTLE_REL`` times x, and the last point
    evaluated is the fixed point: its orbit gives the period, the
    multiplier P', the amplitude, the rms radius and, when read, the
    samples.  Returns None when g has no
    sign change in the range, an orbit does not come back to the
    section within ``RETURN_PERIODS`` linear periods, the last orbit
    does not close (P' is not finite or |P(x) - x| > ``SETTLE_REL`` x
    (|P'| + 1)), or its |P'| is above ``MAX_MULTIPLIER``; a measurement
    otherwise.

    Raises
    ------
    ValueError
        When the seed radius is not positive and finite, or delta <= 0:
        the origin then has no linear period to budget a return by.
    TransversalityError
        When the flow is tangent to the section at a return.  There is no
        other section to fall back on: at a focus or a center j12 j21 < 0,
        so j21 != 0 and x2 = 0 is transverse near the origin.
    """
    if not 0.0 < seed_radius < math.inf:
        raise ValueError(f"seed_radius must be positive and finite, got {seed_radius}")
    # a numpy scalar seed would make every state of the stepping loop a
    # numpy scalar, at more than twice the cost
    seed_radius = float(seed_radius)
    flt = system.to_float()
    t_limit = _return_budget(flt)
    kernel = _kernel(flt)
    tau = float(flt.jac[0, 0] + flt.jac[1, 1])

    work = [0, 0, 0, 0]  # orbits, accepted steps, rejected steps, dense outputs
    try:
        found = _fixed_point(kernel, work, seed_radius, tau, t_limit)
    except _NoReturn:
        return None  # no rotation around the origin: nothing to measure
    if found is None or abs(found[1]) > MAX_MULTIPLIER:
        return None
    return _finish_measurement(kernel, flt, work, *found)


def _finish_measurement(kernel, system, work, period, slope, q, crossing, records):
    amplitude = _amplitude(kernel, work, records, period, crossing)
    orbits, steps, rejects, dense = work
    return CycleMeasurement(
        amplitude=amplitude,
        radius_rms=math.sqrt(q / period),
        period=period,
        stable=None if abs(abs(slope) - 1.0) <= NEUTRAL_SLOPE else abs(slope) < 1.0,
        convergence_rate=abs(slope),
        crossings=orbits,
        steps=steps,
        rejected_steps=rejects,
        # two evaluations to start each orbit (f and the first step's),
        # eleven per attempted step (k2 to k12), one more per accepted
        # step (f at its end) and three per dense output (k14 to k16)
        field_evals=2 * orbits + 11 * (steps + rejects) + steps + 3 * dense,
        orbit=(system, records),
    )


def _amplitude(kernel, work, records, period, crossing) -> float:
    """max |x1| over [0, period] of the dense output of an orbit's steps.

    ``records`` are the orbit's steps, the last of which holds the
    crossing at ``period``, and ``crossing`` is that step's dense output.
    The candidates are the ends of the steps inside the period, x1 at the
    period on ``crossing``, and the extrema of x1 inside a step.  Those
    are looked for only in a step whose x1 slopes (stages 1, 6 to 12 and
    13 of its record) are not all of one sign, on its dense output, and
    in the crossing step only up to the period.  Each dense output
    formed here is counted in the tally ``work``, [orbits, accepted
    steps, rejected steps, dense outputs].
    """
    last = records[-1]
    s_end = (period - last[0]) / (last[5] - last[0])
    top = abs(_interpolate(*crossing[:8], s_end))
    for rec in records:
        x1 = abs(rec[1])
        if x1 > top:
            top = x1
        slopes = (rec[3], rec[8], *rec[12:26:2])
        if min(slopes) > 0.0 or max(slopes) < 0.0:
            continue
        if rec is last:
            coeffs, s1 = crossing[:8], s_end
        else:
            coeffs, s1 = kernel.dense(rec)[:8], 1.0
            work[3] += 1
        for s in _slope_zeros(coeffs, s1):
            x1 = abs(_interpolate(*coeffs, s))
            if x1 > top:
                top = x1
    return top


def _sample_orbit(kernel, records, period) -> np.ndarray:
    """One period of (t, x1, x2) rows at CYCLE_SAMPLES + 1 equally spaced
    times, from the dense output of an orbit's steps: each time in the
    first step ending at or after it, or in the last step."""
    t0 = np.array([rec[0] for rec in records])
    t1 = np.array([rec[5] for rec in records])
    coeffs = np.array([kernel.dense(rec) for rec in records]).T
    t = period * np.arange(CYCLE_SAMPLES + 1) / CYCLE_SAMPLES
    ri = np.minimum(np.searchsorted(t1, t), len(records) - 1)
    t0, t1 = t0[ri], t1[ri]
    s = (np.minimum(t, t1) - t0) / (t1 - t0)
    c = coeffs[:, ri]
    return np.column_stack([t, _interpolate(*c[:8], s), _interpolate(*c[8:], s)])


@dataclass
class ComparisonReport:
    """Prediction vs oracle, reduced to numbers and a verdict."""

    predicted_amplitude: float | None
    amplitude_rel_err: float | None
    period_rel_err: float | None
    stability_match: bool | None
    verdict: str


def compare(
    prediction: KbmPrediction,
    curve: np.ndarray | None,
    measurement: CycleMeasurement | None,
) -> ComparisonReport:
    """Judge a prediction against the oracle measurement.

    Verdicts: ``agreement`` when both sides report a cycle whose
    amplitude and period are each within ``AGREE_TOL`` relative of the
    measured ones (or both report none), ``degenerate`` when averaging
    was inconclusive (p3 = 0), ``disagreement`` otherwise.  A neutral
    measurement (``stable`` None) cannot confirm or refute the predicted
    stability, so ``stability_match`` is None and only the amplitude
    and period decide.  A disagreement is a result, not an error; the
    report carries both relative errors, to be judged by any other line.
    """
    pred_amp = None
    if prediction.exists and curve is not None:
        pred_amp = float(np.max(np.abs(curve[:, 1])))

    amp_err = period_err = stability_match = None
    if prediction.degenerate:
        verdict = "degenerate"
    elif prediction.exists and measurement is not None:
        meas_amp, meas_period = measurement.amplitude, measurement.period
        if pred_amp is not None and meas_amp:
            amp_err = abs(pred_amp - meas_amp) / abs(meas_amp)
        if meas_period:
            period_err = abs(prediction.period - meas_period) / abs(meas_period)
        if measurement.stable is not None:
            stability_match = (prediction.stability == "stable_supercritical") == measurement.stable
        ok = (
            amp_err is not None
            and amp_err <= AGREE_TOL
            and period_err is not None
            and period_err <= AGREE_TOL
            and stability_match is not False
        )
        verdict = "agreement" if ok else "disagreement"
    elif not prediction.exists and measurement is None:
        verdict = "agreement"
    else:
        verdict = "disagreement"
    return ComparisonReport(
        predicted_amplitude=pred_amp,
        amplitude_rel_err=amp_err,
        period_rel_err=period_err,
        stability_match=stability_match,
        verdict=verdict,
    )


def samples_to_csv(samples: np.ndarray) -> str:
    """Serialize (t, x1, x2) rows; floats use repr so output is stable."""
    lines = ["t,x1,x2"]
    for row in samples:
        lines.append(f"{float(row[0])!r},{float(row[1])!r},{float(row[2])!r}")
    return "\n".join(lines) + "\n"
