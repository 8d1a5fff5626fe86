"""Systems under a rational change of coordinates and time scale.

A planar system x' = f(x) and its image under y = M x, t' = c t,

    dy/dt' = M f(M^-1 y) / c,

have the same cycles: the same existence, stability and multiplier, the
period times c, and each orbit mapped through M.  :func:`transform`
forms the image exactly, by composing the field's polynomials through
``polyops``, so an answer that moves under it depends on the
coordinates, not on the system.

:func:`triangular` forms the image under the polynomial map y = (x1 +
q x2^2, x2), whose inverse x = (y1 - q y2^2, y2) is polynomial too:
g(y) = DT(x) f(x), so g1 = f1(x) + 2 q y2 f2(x) and g2 = f2(x).  It
carries each cycle to a cycle with the same period, multiplier and
stability; on the normal form r' = alpha r - r^3, theta' = 1, the image
of the cycle r = sqrt(alpha) is known exactly (:func:`triangular_amplitude`).

Run as a script, it prints on a seeded batch of 40 random systems how
many existence predictions, predicted stabilities and verdicts change
under the 3-4-5 rotation, under [[2, 1], [0, 1]] with c = 1/3 and under
the changes of units M = 2^k I, k = +-10 and +-20, as counts with no
bound:

    PYTHONPATH=src python tests/metamorphic.py
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from polycycle.pipeline import AnalysisOptions, run_analyze
from polycycle.polyops import poly_add, poly_mul, poly_scale
from polycycle.system import PlanarPolySystem, build_system, field_polynomials

# (label, M, c)
TRANSFORMS = (
    ("shear", ((1, Fraction(1, 2)), (0, 1)), 1),
    ("time-x2", ((1, 0), (0, 1)), 2),
    ("rotation-3-4-5", ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5))), 1),
    ("shear-2-1-c-1/3", ((2, 1), (0, 1)), Fraction(1, 3)),
)
# y = 2^k x, a change of units
UNITS = tuple((f"units-2^{k}", ((Fraction(2) ** k, 0), (0, Fraction(2) ** k)), 1) for k in (10, -10, 20, -20))


def _linear(row) -> dict:
    return {e: Fraction(v) for e, v in zip(((1, 0), (0, 1)), row) if v != 0}


def _compose(p: dict, x1: dict, x2: dict) -> dict:
    """p(x1, x2) for polynomials x1, x2 in y."""
    out: dict = {}
    for (i, j), coefficient in p.items():
        term = {(0, 0): coefficient}
        for _ in range(i):
            term = poly_mul(term, x1)
        for _ in range(j):
            term = poly_mul(term, x2)
        out = poly_add(out, term)
    return out


def transform(system: PlanarPolySystem, m, c) -> PlanarPolySystem:
    """The exact system in y = M x and t' = c t, for rational M
    (invertible) and c > 0."""
    (a, b), (d, e) = ((Fraction(v) for v in row) for row in m)
    det = a * e - b * d
    x1, x2 = _linear((e / det, -b / det)), _linear((-d / det, a / det))
    f1, f2 = (_compose(p, x1, x2) for p in field_polynomials(system))
    c = Fraction(c)
    g1 = poly_scale(poly_add(poly_scale(f1, a), poly_scale(f2, b)), 1 / c)
    g2 = poly_scale(poly_add(poly_scale(f1, d), poly_scale(f2, e)), 1 / c)
    return _image(g1, g2)


def _image(g1: dict, g2: dict) -> PlanarPolySystem:
    """The system with components g1, g2, which vanish at the origin."""
    assert (0, 0) not in g1 and (0, 0) not in g2
    degree = max(i + j for g in (g1, g2) for i, j in g)
    jac = [[g.get((1, 0), 0), g.get((0, 1), 0)] for g in (g1, g2)]
    phi = [[[g.get((k - i, i), 0) for i in range(k + 1)] for g in (g1, g2)] for k in range(2, degree + 1)]
    return build_system(jac, phi)


def triangular(system: PlanarPolySystem, q) -> PlanarPolySystem:
    """The exact system in y = (x1 + q x2^2, x2), for rational q."""
    q = Fraction(q)
    x1, x2 = {(1, 0): Fraction(1), (0, 2): -q}, {(0, 1): Fraction(1)}
    f1, f2 = (_compose(p, x1, x2) for p in field_polynomials(system))
    return _image(poly_add(f1, poly_mul({(0, 1): 2 * q}, f2)), f2)


def triangular_amplitude(alpha, q) -> float:
    """max |y1| on the image under :func:`triangular` of the circle of
    radius r = sqrt(alpha): y1 = r c + q r^2 (1 - c^2) with c = cos theta
    peaks at c = 1 / (2 q r) where 2 |q| r >= 1, at |q| r^2 + 1 / (4 |q|),
    and at c = +-1, at r, otherwise."""
    r, q = math.sqrt(alpha), abs(float(Fraction(q)))
    return q * r * r + 1.0 / (4.0 * q) if 2.0 * q * r >= 1.0 else r


def batch(alpha, count: int = 40, seed: int = 11) -> list[PlanarPolySystem]:
    """``count`` random systems with J = [[alpha, -1], [1, alpha]] and a
    2x3 then a 2x4 phi block, each entry randint(-6, 6) / choice(1..4),
    drawn from one ``random.Random(seed)`` stream."""
    rng = random.Random(seed)

    def block(k):
        return [[Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))) for _ in range(k + 1)] for _ in range(2)]

    alpha = Fraction(alpha)
    return [build_system([[alpha, -1], [1, alpha]], [block(2), block(3)]) for _ in range(count)]


def answers(system: PlanarPolySystem):
    """The float analysis's predicted existence and stability and its
    verdict, each None without a change of variables; "error" for all
    three when the input is refused."""
    try:
        report = run_analyze(system, AnalysisOptions(exact=False))
    except ValueError:
        return ("error",) * 3
    pred = report.prediction or {"exists": None, "stability": None}
    return pred["exists"], pred["stability"], report.verdict


def main() -> None:
    for alpha in (Fraction(1, 50), Fraction(1, 200)):
        systems = batch(alpha)
        before = [answers(s) for s in systems]
        # the rotation, the scaled shear and the units
        for label, m, c in TRANSFORMS[2:] + UNITS:
            after = [answers(transform(s, m, c)) for s in systems]
            changed = [sum(x[i] != y[i] for x, y in zip(before, after)) for i in range(3)]
            refused = sum(y[0] == "error" for y in after)
            print(f"alpha={alpha} {label}: of {len(systems)}, existence changes on {changed[0]},"
                  f" stability on {changed[1]}, verdict on {changed[2]}"
                  f" (refused after the transform: {refused})")


if __name__ == "__main__":
    main()
