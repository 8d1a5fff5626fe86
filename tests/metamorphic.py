"""Systems under a rational change of coordinates and time scale.

A planar system x' = f(x) and its image under y = M x, t' = c t,

    dy/dt' = M f(M^-1 y) / c,

have the same cycles: the same existence, stability and multiplier, the
period times c, and each orbit mapped through M.  :func:`transform`
forms the image exactly, by composing the field's polynomials through
``polyops``, so an answer that moves under it depends on the
coordinates, not on the system.

Run as a script, it prints on a seeded batch of 40 random systems how
many existence predictions change under the 3-4-5 rotation and under
[[2, 1], [0, 1]] with c = 1/3, as counts with no bound:

    PYTHONPATH=src python tests/metamorphic.py
"""

from __future__ import annotations

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
    jac = [[g.get((1, 0), 0), g.get((0, 1), 0)] for g in (g1, g2)]
    phi = [[[g.get((k - i, i), 0) for i in range(k + 1)] for g in (g1, g2)] for k in range(2, system.degree + 1)]
    return build_system(jac, phi)


def batch(alpha, count: int = 40, seed: int = 11) -> list[PlanarPolySystem]:
    """``count`` random systems with J = [[alpha, -1], [1, alpha]] and a
    2x3 then a 2x4 phi block, each entry randint(-6, 6) / choice(1..4),
    drawn from one ``random.Random(seed)`` stream."""
    rng = random.Random(seed)

    def block(k):
        return [[Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))) for _ in range(k + 1)] for _ in range(2)]

    alpha = Fraction(alpha)
    return [build_system([[alpha, -1], [1, alpha]], [block(2), block(3)]) for _ in range(count)]


def existence(system: PlanarPolySystem):
    """The float, prediction-only existence verdict: True or False, None
    without a change of variables, "error" when the input is refused."""
    try:
        report = run_analyze(system, AnalysisOptions(exact=False, measure=False))
    except ValueError:
        return "error"
    return None if report.prediction is None else report.prediction["exists"]


def main() -> None:
    for alpha in (Fraction(1, 50), Fraction(1, 200)):
        systems = batch(alpha)
        before = [existence(s) for s in systems]
        # the rotation and the scaled shear
        for label, m, c in TRANSFORMS[2:]:
            after = [existence(transform(s, m, c)) for s in systems]
            changed = sum(x != y for x, y in zip(before, after))
            print(f"alpha={alpha} {label}: existence changes on {changed} of {len(systems)}"
                  f" (refused after the transform: {after.count('error')})")


if __name__ == "__main__":
    main()
