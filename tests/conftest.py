"""Shared fixtures: the bundled system definitions and solved reductions.

Solving the change of variables is the slow part, so solved reductions
are session-scoped and shared across test modules.  Test modules import
the plain helpers below with ``from conftest import ...``.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polycycle import (
    build_system,
    instantiate,
    invert_to_cubic,
    load_definition,
    solve_theta,
)
from polycycle.linalg import _primitive
from polycycle.monomials import Scaled

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "systems"

CORPUS = (
    "normal_form",
    "axial_damping",
    "reflected_normal_form",
    "rescaled_normal_form",
    "quadratic",
    "mixed",
    "linear_center",
)


def _integer_rows(matrix, rhs=None) -> list[dict]:
    """Rows of A (or of [A | b]) as coprime integer rows; zero rows dropped."""
    out = []
    for i, row in enumerate(matrix):
        entries = list(row) if rhs is None else [*row, rhs[i]]
        frac = {
            k: x if isinstance(x, (int, Fraction)) else Fraction(x)
            for k, x in enumerate(entries)
            if x != 0
        }
        if frac:
            den = math.lcm(*(x.denominator for x in frac.values()))
            scaled = {k: x.numerator * (den // x.denominator) for k, x in frac.items()}
            out.append(_primitive(scaled))
    return out


def _generic_system(rng, n, alpha, digits=0, long_denominators=False):
    """A generic exact system of degree n: J = [[alpha, -1], [1, alpha]]
    and phi_k coefficients +-p/q with p, q in 1..4, each times a random
    integer of ``digits`` digits when that is not 0, and divided by
    another one as well with ``long_denominators``."""

    def coefficient():
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 4))
        if digits:
            c *= rng.randint(10 ** (digits - 1), 10**digits - 1)
        if long_denominators:
            c /= rng.randint(10 ** (digits - 1), 10**digits - 1)
        return c

    phi = [[[coefficient() for _ in range(k + 1)] for _ in range(2)] for k in range(2, n + 1)]
    return build_system([[alpha, -1], [1, alpha]], phi)


def assert_same_entries(got, want) -> None:
    """The arrays are equal entry for entry in shape and dtype, an object
    array in the type of each entry too, a float64 one bit for bit; two
    Scaled blocks in their denominators and their numerators so."""
    if isinstance(want, Scaled):
        assert isinstance(got, Scaled) and got.den == want.den, (got, want)
        got, want = got.num, want.num
    assert got.shape == want.shape and got.dtype == want.dtype, (got, want)
    if got.dtype == object:
        assert [type(x) for x in got.flat] == [type(x) for x in want.flat], (got, want)
        assert got.tolist() == want.tolist(), (got, want)
    else:
        assert got.tobytes() == want.tobytes(), (got, want)


def as_fraction_matrix(a) -> np.ndarray:
    """Copy a matrix (or vector) into an object array of Fractions."""
    arr = np.asarray(a)
    out = np.empty(arr.shape, dtype=object)
    out.flat[:] = [x if isinstance(x, Fraction) else Fraction(x) for x in arr.flat]
    return out


@pytest.fixture(scope="session")
def systems_dir() -> Path:
    return SYSTEMS_DIR


@pytest.fixture(scope="session")
def definitions():
    return {name: load_definition(SYSTEMS_DIR / f"{name}.json") for name in CORPUS}


@pytest.fixture(scope="session")
def corpus_systems(definitions):
    """Exact instance of every bundled system at its default parameter."""
    out = {}
    for name, defn in definitions.items():
        out[name] = instantiate(defn, defn.alpha_default)
    return out


@pytest.fixture(scope="session")
def normal_form_system(definitions):
    return instantiate(definitions["normal_form"], Fraction(1, 20))


@pytest.fixture(scope="session")
def normal_form_cov(normal_form_system):
    return solve_theta(normal_form_system)


@pytest.fixture(scope="session")
def normal_form_inverse(normal_form_cov):
    return invert_to_cubic(normal_form_cov)


@pytest.fixture(scope="session")
def corpus_covs(corpus_systems):
    """Solved reduction for every bundled system."""
    return {name: solve_theta(system) for name, system in corpus_systems.items()}
