"""Constraint assembly and the search for the polynomial change of variables."""

from fractions import Fraction

import numpy as np
import pytest

from polycycle.change_of_variables import (
    GAMMA_CANDIDATES,
    NoSolutionError,
    assemble_constraints,
    build_T,
    counting_identity,
    gamma_basis,
    gamma_matrix,
    min_degree_bound,
    residual_condition33,
    solve_theta,
)
from polycycle.linalg import fraction_rows, rref
from polycycle.monomials import as_fraction_matrix
from polycycle.polyops import poly_eval
from polycycle.system import build_system


def test_min_degree_bound_frozen_values():
    assert {n: min_degree_bound(n) for n in range(2, 7)} == {2: 2, 3: 4, 4: 7, 5: 9, 6: 11}
    with pytest.raises(ValueError):
        min_degree_bound(1)


def test_counting_identity_values():
    assert counting_identity(3, 4) == (26, 25)
    assert counting_identity(2, 2) == (8, 7)
    # equations also equal (m+n)(m+n+1)/2 - 3
    for n in range(2, 7):
        for m in range(2, 9):
            unknowns, equations = counting_identity(n, m)
            assert unknowns == m * m + 3 * m - 2
            assert equations == (m + n) * (m + n + 1) // 2 - 3


def test_gamma_matrix_combines_basis():
    jac = as_fraction_matrix([[Fraction(1, 20), -1], [1, Fraction(1, 20)]])
    g1, g2 = gamma_basis(jac)
    assert g1.tolist() == [[1, 0], [Fraction(1, 20), -1]]
    assert g2.tolist() == [[0, 1], [1, Fraction(1, 20)]]
    a, b = Fraction(2), Fraction(-3)
    combo = gamma_matrix(jac, a, b)
    assert combo.tolist() == (a * g1 + b * g2).tolist()
    # the first row of Gamma is exactly (a, b)
    assert [combo[0, 0], combo[0, 1]] == [a, b]


def test_build_T_band_structure():
    j = as_fraction_matrix([[5, 6], [7, 8]])
    assert build_T(1, 1, 2, j).tolist() == [[5, 6, 0], [0, 5, 6]]
    assert build_T(2, 1, 2, j).tolist() == [[7, 8, 0], [0, 7, 8]]
    phi2 = as_fraction_matrix([[1, 2, 3], [4, 5, 6]])
    assert build_T(1, 2, 2, phi2).tolist() == [[1, 2, 3, 0], [0, 1, 2, 3]]
    with pytest.raises(ValueError):
        build_T(3, 1, 2, j)


def test_assemble_counts_match_identity():
    sys2 = build_system([[0, -1], [1, 0]], [[[1, 0, 0], [0, 0, 0]]])
    for m in (2, 3, 4):
        free = assemble_constraints(sys2, m, None)
        unknowns, equations = counting_identity(2, m)
        assert free.unknown_count == unknowns
        assert free.equation_count == equations
        pinned = assemble_constraints(sys2, m, (Fraction(1), Fraction(0)))
        assert pinned.unknown_count == unknowns - 2
        assert pinned.equation_count == equations


def test_solve_theta_on_cubic_normal_form(normal_form_system, normal_form_cov):
    cov = normal_form_cov
    assert cov.m == 4
    assert cov.gamma_params == (Fraction(1), Fraction(0))
    assert cov.exact
    assert cov.gamma.tolist() == [[1, 0], [Fraction(1, 20), -1]]
    assert residual_condition33(cov, normal_form_system) == 0


def test_solve_theta_is_deterministic(normal_form_system):
    first = solve_theta(normal_form_system)
    second = solve_theta(normal_form_system)
    assert first.gamma_params == second.gamma_params
    assert first.gamma.tolist() == second.gamma.tolist()
    assert sorted(first.thetas) == sorted(second.thetas)
    for k in first.thetas:
        assert first.thetas[k].tolist() == second.thetas[k].tolist()


def test_residual_zero_across_corpus(corpus_systems, corpus_covs):
    for name, system in corpus_systems.items():
        assert residual_condition33(corpus_covs[name], system) == 0, name


def test_degree_two_is_too_low_for_the_cubic(normal_form_system):
    with pytest.raises(NoSolutionError) as info:
        solve_theta(normal_form_system, m=2)
    attempts = info.value.attempts
    assert len(attempts) == len(GAMMA_CANDIDATES)
    assert [a["m"] for a in attempts] == [2] * 4
    assert all(a["consistent"] is False for a in attempts if a["det"] != 0)
    # each rank comes from the failed solve's own elimination; the Fraction
    # RREF of the assembled matrix is the reference
    for a in attempts:
        if a["det"] != 0:
            cs = assemble_constraints(normal_form_system, 2, a["params"])
            assert a["rank"] == len(rref(fraction_rows(cs.matrix))[1])


def test_solve_theta_rejects_bad_arguments(normal_form_system):
    with pytest.raises(ValueError):
        solve_theta(normal_form_system, m=1)
    with pytest.raises(ValueError):
        solve_theta(normal_form_system, arithmetic="symbolic")


def test_float_arithmetic_path(normal_form_system):
    cov = solve_theta(normal_form_system, arithmetic="float")
    assert not cov.exact
    assert residual_condition33(cov, normal_form_system.to_float()) <= 1e-10


def test_h_evaluate_matches_component_polynomials(normal_form_cov):
    rng = np.random.default_rng(31)
    h1 = normal_form_cov.component_polynomial(1)
    h2 = normal_form_cov.component_polynomial(2)
    for _ in range(8):
        u = Fraction(int(rng.integers(-8, 9)), 10)
        v = Fraction(int(rng.integers(-8, 9)), 10)
        value = normal_form_cov.h_evaluate((u, v))
        assert value[0] == poly_eval(h1, u, v)
        assert value[1] == poly_eval(h2, u, v)


def test_theta_zero_fill_and_bounds(normal_form_cov):
    high = normal_form_cov.theta(normal_form_cov.m + 2)
    assert high.shape == (2, normal_form_cov.m + 3)
    assert all(x == 0 for x in high.reshape(-1))
    with pytest.raises(ValueError):
        normal_form_cov.theta(1)
