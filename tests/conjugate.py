"""The normal forms under polynomial automorphisms: generic systems whose
cycle is known exactly.

A map y = L2 T_q(L1 x) with time t' = c t, T_q(u) = (u1 + q u2^2, u2)
and L1, L2 invertible rational matrices, has a polynomial inverse, so
the image of a polynomial system is polynomial (``metamorphic.transform``
and ``metamorphic.triangular`` form it exactly) and carries each cycle to
a cycle.  On the normal forms r' = alpha r -+ r^3, theta' = 1 the cycle
is the circle r = sqrt(|alpha|), so the image's cycle is the mapped
circle: its amplitude is max |y1| on it (:func:`exact_amplitude`) and its
period 2 pi c.  The images have degree 6, generic quadratic terms, and,
through L1 and L2, a Jacobian that is not a rotation with delta != 1.

Run as a script, it prints counts with no bound, for each base family
and alpha on a batch of 24 maps drawn from one ``random.Random(5)``
stream: how many exact analyses predict a cycle, how many find one with
the oracle and how many read "agreement"; the prediction's amplitude
error against the exact amplitude (median, max and the count above
10 %); and the oracle's largest error, the larger of its amplitude and
period errors against the exact values.  For T_q alone, tangent to the
identity, it prints p3 - 1 and q3 at alpha = 0, where both are exactly 0
for the normal form itself:

    PYTHONPATH=src python tests/conjugate.py
"""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction
from pathlib import Path

import numpy as np

from metamorphic import transform, triangular
from polycycle.definition import instantiate, load_definition
from polycycle.pipeline import AnalysisOptions, run_analyze

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
# the linear parts L1, L2, the q of T_q and the time scales c drawn from
LINEAR = (
    ((1, 0), (0, 1)),
    ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5))),
    ((2, 1), (0, 1)),
    ((1, Fraction(1, 2)), (0, 1)),
    ((1, 0), (Fraction(-1, 3), 2)),
)
QS = (Fraction(1, 2), Fraction(-1, 2), 1, -1, 2, -3)
TIME_SCALES = (1, Fraction(1, 2), Fraction(1, 3))
# (base family, alpha) of the counts, each alpha on the side of its cycle
BASES = (
    ("normal_form", Fraction(1, 100)),
    ("reflected_normal_form", Fraction(-1, 100)),
    ("normal_form", Fraction(1, 20)),
    ("reflected_normal_form", Fraction(-1, 20)),
)
# the q of the T_q maps whose p3 and q3 are printed at alpha = 0
TANGENT_QS = (Fraction(1, 2), 1, 2, -3, 5, 10)
# points of theta on the mapped circle for the amplitude
THETA_POINTS = 400_001


def batch(count: int = 24, seed: int = 5) -> list[tuple]:
    """``count`` maps (L1, q, L2, c), each drawn in that order from one
    ``random.Random(seed)`` stream."""
    rng = random.Random(seed)
    return [(rng.choice(LINEAR), rng.choice(QS), rng.choice(LINEAR), rng.choice(TIME_SCALES)) for _ in range(count)]


def conjugate(system, l1, q, l2, c):
    """The exact system in y = L2 T_q(L1 x) and t' = c t."""
    return transform(triangular(transform(system, l1, 1), q), l2, c)


def exact_amplitude(alpha, l1, q, l2) -> float:
    """max |y1| over THETA_POINTS equally spaced points of the image of the
    circle r = sqrt(|alpha|) under y = L2 T_q(L1 x)."""
    theta = np.linspace(0.0, 2.0 * math.pi, THETA_POINTS)
    r = math.sqrt(abs(float(alpha)))
    (a, b), (d, e) = ((float(v) for v in row) for row in l1)
    x1, x2 = r * np.cos(theta), r * np.sin(theta)
    u1, u2 = a * x1 + b * x2, d * x1 + e * x2
    w1 = u1 + float(q) * u2 * u2
    a, b = (float(v) for v in l2[0])
    return float(np.max(np.abs(a * w1 + b * u2)))


def counts(base, alpha, maps) -> str:
    """One printed row: the counts and errors over the conjugates of the
    base system at alpha."""
    system = instantiate(load_definition(SYSTEMS / f"{base}.json"), alpha)
    exists = finds = agree = 0
    pred_errors, oracle_errors = [], []
    for l1, q, l2, c in maps:
        report = run_analyze(conjugate(system, l1, q, l2, c))
        amplitude, period = exact_amplitude(alpha, l1, q, l2), 2.0 * math.pi * float(c)
        if report.prediction["exists"]:
            exists += 1
            predicted = float(np.max(np.abs(report.predicted_curve[:, 1])))
            pred_errors.append(abs(predicted - amplitude) / amplitude)
        meas = report.measurement
        if meas is not None:
            finds += 1
            oracle_errors.append(
                max(abs(meas["amplitude"] - amplitude) / amplitude, abs(meas["period"] - period) / period)
            )
        agree += report.verdict == "agreement"
    pred = (
        f"median {statistics.median(pred_errors):.1%}, max {max(pred_errors):.1%},"
        f" above 10 % on {sum(e > 0.1 for e in pred_errors)}"
        if pred_errors
        else "none"
    )
    oracle = f"{max(oracle_errors):.2g}" if oracle_errors else "none"
    return (
        f"{base} alpha={alpha}: of {len(maps)}, predicted exists {exists}, oracle finds {finds},"
        f" agreement {agree}; prediction's amplitude error {pred}; oracle's largest error {oracle}"
    )


def main() -> None:
    maps = batch()
    for base, alpha in BASES:
        print(counts(base, alpha, maps))
    system = instantiate(load_definition(SYSTEMS / "normal_form.json"), 0)
    for q in TANGENT_QS:
        report = run_analyze(triangular(system, q), AnalysisOptions(measure=False))
        print(f"T_q alone, alpha=0, q={q}: p3 - 1 = {report.p3 - 1.0:.6g}, q3 = {report.q3:.6g}")


if __name__ == "__main__":
    main()
