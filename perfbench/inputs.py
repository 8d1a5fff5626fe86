"""Seeded inputs for the four benchmark workloads.

Every generator takes a ``random.Random`` seeded from the workload name
and the ``--seed`` argument and returns one pass of work items.  The
program only ever sees the generated definitions (as dicts passed to
``load_definition``) and parameter values; the seed stays here.

A work item carries the definition, the parameter value, whether the
exact backend and the oracle run, and, on reference points, the exact
cycle radius and period the output checks compare against.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Families whose cycle is known in closed form: radius sqrt(|alpha|) and
# the period below (polar form r' = alpha r -+ r^3, theta' = omega).
REFERENCE_PERIODS = {
    "normal_form": 2.0 * math.pi,
    "reflected_normal_form": 2.0 * math.pi,
    "rescaled_normal_form": math.pi,
}

@dataclass(frozen=True)
class WorkItem:
    """One analysis (or one sweep point) of a workload."""

    label: str
    definition: object  # polycycle.SystemDefinition
    alpha: object  # Fraction, float or None for the file default
    exact: bool
    measure: bool
    sweep: bool
    ref_radius: float | None = None
    ref_period: float | None = None


def _family_sign(raw: dict) -> int:
    default = raw.get("alpha_default")
    return -1 if default is not None and default < 0 else 1


def _reference(name: str, alpha) -> tuple[float | None, float | None]:
    if name not in REFERENCE_PERIODS or alpha is None:
        return None, None
    return math.sqrt(abs(float(alpha))), REFERENCE_PERIODS[name]


# The magnitudes every generic system draws its coefficients from, each
# used once per pass through the list.  The sizes of the rationals set the
# cost of exact elimination, so a fixed list shuffled by the seed keeps that
# cost nearly the same from seed to seed while the system stays generic.
MAGNITUDES = tuple(Fraction(num, den) for den in (1, 2, 3, 4) for num in (1, 2, 3, 4))
# Coefficient c of the radial cubic term c (x^2 + y^2) (x, y) added to every
# generic system.  It keeps the first Lyapunov coefficient away from zero
# (the Hopf theorem's nondegeneracy condition): near zero, run_analyze
# raises "predicted frequency is not positive" (README, known defects).
RADIAL_CUBIC = 8


def _generic_system(rng: random.Random, name: str, degree: int) -> dict:
    """Jacobian [[alpha, -1], [1, alpha]] plus generic blocks of degree
    2..n: a seeded shuffle of MAGNITUDES with seeded signs, and the
    radial cubic term with a seeded sign."""
    count = sum(2 * (k + 1) for k in range(2, degree + 1))
    pool = [MAGNITUDES[i % len(MAGNITUDES)] for i in range(count)]
    rng.shuffle(pool)
    coeffs = iter(rng.choice((-1, 1)) * m for m in pool)
    phi = [[[next(coeffs) for _ in range(k + 1)] for _ in range(2)] for k in range(2, degree + 1)]
    c = rng.choice((-1, 1)) * RADIAL_CUBIC
    x_row, y_row = phi[1]  # x^3, x^2 y, x y^2, y^3
    x_row[0] += c
    x_row[2] += c
    y_row[1] += c
    y_row[3] += c
    return {
        "name": name,
        "jac": [["alpha", -1], [1, "alpha"]],
        "phi": [[[str(v) for v in row] for row in block] for block in phi],
    }


def _corpus(systems_dir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(systems_dir.glob("*.json"))]


def corpus_analyze(rng, load, systems_dir, tiny=False):
    """Every corpus file at its default alpha, then two drawn alphas per
    alpha family, 1/k with the family's sign.

    k is drawn uniformly from [10, 50] as an antithetic pair (10 + 40u and
    50 - 40u, a fresh u per family): the oracle's cost grows with k, so
    the pair's cost hardly depends on the seed while each k is still
    uniform."""
    items = []
    raws = _corpus(systems_dir)
    if tiny:
        raws = [r for r in raws if r["name"] in ("normal_form", "quadratic")]
    defns = [load(raw) for raw in raws]
    for raw, defn in zip(raws, defns):
        alpha = raw.get("alpha_default") if defn.uses_alpha else None
        radius, period = _reference(raw["name"], alpha)
        items.append(WorkItem(raw["name"], defn, None, True, True, False, radius, period))
    for raw, defn in zip(raws, defns):
        if not defn.uses_alpha:
            continue
        u = rng.random()
        for k in (10 + 40 * u, 50 - 40 * u)[: 1 if tiny else 2]:
            alpha = Fraction(_family_sign(raw), round(k))
            radius, period = _reference(raw["name"], alpha)
            items.append(
                WorkItem(f"{raw['name']}@{alpha}", defn, alpha, True, True, False, radius, period)
            )
    return items


HOPF_FAMILIES = ("normal_form", "reflected_normal_form", "rescaled_normal_form")
HOPF_RANGE = (1.0 / 2000.0, 1.0 / 10.0)
# Equal log-width strata of HOPF_RANGE, grouped into HOPF_BANDS bands of
# one stratum per family.  With eight bands the whole lowest band lies
# below |alpha| = 1/1000, where the oracle misses today.
HOPF_BANDS = 8
HOPF_STRATA = HOPF_BANDS * len(HOPF_FAMILIES)


def hopf_approach(rng, load, systems_dir, tiny=False):
    """Float sweep points on the three reference families, |alpha| drawn
    log-uniformly from [1/2000, 1/10], one point per stratum.

    In each band of three strata the seed deals one stratum to each
    family, so every family gets one point per band and the pass's cost
    (which grows as |alpha| falls) varies little with the seed.  The
    offset within a stratum is drawn for each point."""
    lo, hi = (math.log(x) for x in HOPF_RANGE)
    width = (hi - lo) / HOPF_STRATA
    raws = {name: json.loads((systems_dir / f"{name}.json").read_text()) for name in HOPF_FAMILIES}
    defns = {name: load(raw) for name, raw in raws.items()}
    nfam = len(HOPF_FAMILIES)
    # the tiny pass keeps only the highest band, the cheapest one
    bands = [HOPF_BANDS - 1] if tiny else range(HOPF_BANDS)
    items = []
    for band in bands:
        strata = [band * nfam + i for i in range(nfam)]
        rng.shuffle(strata)
        for name, stratum in zip(HOPF_FAMILIES, strata):
            alpha = _family_sign(raws[name]) * math.exp(lo + (stratum + rng.random()) * width)
            radius, period = _reference(name, alpha)
            items.append(WorkItem(f"{name}@{alpha:.6g}", defns[name], alpha, False, True, True, radius, period))
    return items


# Per pass, in this order: four degree-4 and three degree-3 systems, so
# the median input is the cheapest degree-4 one.
# Degree 5 is left out: one analysis there takes 5-6 s and its cost moves
# by +-12 % with the drawn system, which alone would spread throughput and
# tail latency from seed to seed; degree 4 already spends 87-97 % of an
# analysis in rational linear algebra.
DEGREE_MIX = ((4, 4), (3, 3))
# One alpha for all: its denominator sets the size of every rational in
# the elimination, so a drawn alpha would make the cost depend on the seed.
DEGREE_ALPHA = Fraction(1, 20)


def exact_degree(rng, load, systems_dir, tiny=False):
    """Generic exact systems of degree 3 and 4, prediction only."""
    items = []
    for degree, count in ((3, 1),) if tiny else DEGREE_MIX:
        for j in range(count):
            raw = _generic_system(rng, f"degree{degree}_{j}", degree)
            items.append(WorkItem(raw["name"], load(raw), DEGREE_ALPHA, True, False, False))
    return items


PREDICT_FAMILIES = 8
PREDICT_GRID = (-1 / 20, -1 / 30, -1 / 50, -1 / 100, 1 / 100, 1 / 50, 1 / 30, 1 / 20)


def float_predict(rng, load, systems_dir, tiny=False):
    """Float prediction-only sweep points: generic quadratic+cubic
    families on a fixed alpha grid of both signs."""
    items = []
    for f in range(1 if tiny else PREDICT_FAMILIES):
        defn = load(_generic_system(rng, f"generic{f}", 3))
        for alpha in PREDICT_GRID[:2] if tiny else PREDICT_GRID:
            items.append(WorkItem(f"generic{f}@{alpha:.4g}", defn, alpha, False, False, True))
    return items


GENERATORS = {
    "corpus_analyze": corpus_analyze,
    "hopf_approach": hopf_approach,
    "exact_degree": exact_degree,
    "float_predict": float_predict,
}
WORKLOADS = tuple(GENERATORS)


def build(workload: str, seed: int, load, systems_dir: Path, tiny: bool = False) -> list[WorkItem]:
    """One pass of work items for ``workload``, reproducible from ``seed``."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), load, systems_dir, tiny)
