"""Constraint assembly and the one solve for the polynomial change of variables."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import _generic_system, _integer_rows, as_fraction_matrix
import polycycle.change_of_variables as cov_mod
from polycycle.change_of_variables import (
    NoSolutionError,
    assemble_constraints,
    component_polynomial,
    counting_identity,
    gamma_matrix,
    min_degree_bound,
    residual_condition33,
    solve_theta,
)
from polycycle import linalg
from polycycle.monomials import Scaled, as_array, as_scaled
from polycycle.linalg import rref, solve_min_norm_exact
from polycycle.definition import instantiate
from polycycle.pipeline import AnalysisOptions, run_analyze, run_sweep
from polycycle.polyops import (
    poly_add,
    poly_diff,
    poly_eval,
    poly_from_lambda_row,
    poly_max_abs,
    poly_mul,
    poly_scale,
)
from polycycle.system import build_system, field_polynomials, lie_derivative


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
    g1 = [[1, 0], [Fraction(1, 20), -1]]
    g2 = [[0, 1], [1, Fraction(1, 20)]]
    assert gamma_matrix(jac, Fraction(1), Fraction(0)).tolist() == g1
    assert gamma_matrix(jac, Fraction(0), Fraction(1)).tolist() == g2
    a, b = Fraction(2), Fraction(-3)
    combo = gamma_matrix(jac, a, b)
    assert combo.tolist() == [[a * x + b * y for x, y in zip(r1, r2)] for r1, r2 in zip(g1, g2)]
    # the first row of Gamma is exactly (a, b)
    assert [combo[0, 0], combo[0, 1]] == [a, b]
    assert combo.dtype == object
    assert gamma_matrix(jac.astype(float), 1.0, 0.0).dtype == float


def _random_fraction(rng):
    return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))


def _condition_coefficients(system, cs, x):
    """A x - rhs of the assembled system and, expanded independently by
    polyops at the same unknowns, the coefficients of L_f h1 - h2 that its
    rows stand for, block k row i for u^(k-i) v^i; and the expansion."""
    m, n = cs.m, system.degree
    one, zero = (Fraction(1), Fraction(0)) if system.exact else (1.0, 0.0)
    a, b = (x[0], x[1]) if cs.free else (one, zero)
    dtype = object if system.exact else float
    thetas = {k: np.zeros((2, k + 1), dtype=dtype) for k in range(2, m + 1)}
    for value, label in zip(x, cs.unknown_layout):
        if label[0] == "theta":
            _, k, row, col = label
            thetas[k][row - 1, col - 1] = value
    blocks = {1: gamma_matrix(system.jac, a, b), **thetas}
    expansion = poly_add(
        lie_derivative(component_polynomial(blocks, 1), system),
        poly_scale(component_polynomial(blocks, 2), -1),
    )
    lhs = cs.matrix.dot(np.array(x, dtype=dtype))
    if cs.rhs is not None:
        lhs = lhs - cs.rhs
    expected = [expansion.get((k - i, i), 0) for k in range(2, m + n) for i in range(k + 1)]
    return list(lhs), expected, expansion


def test_assembled_rows_are_the_defining_condition_coefficients():
    # for any unknowns x, row i of block k of A x - rhs is the coefficient
    # of u^(k-i) v^i in L_f h1 - h2, expanded independently by polyops:
    # exactly, and for the float assembly of the same system and unknowns
    # rounded, to 1e-12 of the float expansion's largest coefficient
    rng = np.random.default_rng(2718)
    for n in range(1, 8):
        for _ in range(2):
            jac = [[_random_fraction(rng) for _ in range(2)] for _ in range(2)]
            phi = [
                [[_random_fraction(rng) for _ in range(k + 1)] for _ in range(2)]
                for k in range(2, n + 1)
            ]
            system = build_system(jac, phi)
            for m in (2, 3, 4):
                for free in (True, False):
                    cs = assemble_constraints(system, m, free=free)
                    x = [_random_fraction(rng) for _ in range(cs.unknown_count)]
                    lhs, expected, expansion = _condition_coefficients(system, cs, x)
                    assert lhs == expected, (n, m, free)
                    assert all(sum(e) >= 2 for e in expansion), (n, m, free)
                    flt = system.to_float()
                    cs = assemble_constraints(flt, m, free=free)
                    assert cs.matrix.dtype == np.float64 and cs.matrix.shape == (len(expected), len(x))
                    lhs, expected, _ = _condition_coefficients(flt, cs, [float(v) for v in x])
                    scale = max(abs(v) for v in expected)
                    assert max(abs(p - q) for p, q in zip(lhs, expected)) <= 1e-12 * scale, (n, m, free)


def test_assemble_counts_match_identity():
    sys2 = build_system([[0, -1], [1, 0]], [[[1, 0, 0], [0, 0, 0]]])
    for m in (2, 3, 4):
        free = assemble_constraints(sys2, m, free=True)
        unknowns, equations = counting_identity(2, m)
        assert free.unknown_count == unknowns
        assert free.equation_count == equations
        pinned = assemble_constraints(sys2, m)
        assert pinned.unknown_count == unknowns - 2
        assert pinned.equation_count == equations
    # at the counting bound the free system's nullspace is the Gamma_1
    # one plus (a, b): at n = 2 that is 2 against 0, which is why
    # criterion 4 counts on the free system
    rng = np.random.default_rng(577)
    nullspaces = {}
    for n in range(2, 7):
        system = _complex_pair_system(rng, n)
        m = min_degree_bound(n)
        free = assemble_constraints(system, m, free=True).nullspace_dimension()
        pinned = assemble_constraints(system, m).nullspace_dimension()
        assert free == pinned + 2, (n, free, pinned)
        nullspaces[n] = (free, pinned)
    assert nullspaces[2] == (2, 0), nullspaces


def test_solve_theta_on_cubic_normal_form(normal_form_system, normal_form_cov):
    cov = normal_form_cov
    assert cov.m == 4
    gamma = as_array(cov.block(1))
    assert list(gamma[0]) == [Fraction(1), Fraction(0)]
    assert cov.exact
    assert gamma.tolist() == [[1, 0], [Fraction(1, 20), -1]]
    assert residual_condition33(cov, normal_form_system) == 0


def test_solve_theta_is_deterministic(normal_form_system):
    first = solve_theta(normal_form_system)
    second = solve_theta(normal_form_system)
    assert sorted(first.blocks) == sorted(second.blocks)
    for k in first.blocks:
        assert as_array(first.blocks[k]).tolist() == as_array(second.blocks[k]).tolist()


def test_blocks_are_held_as_their_scaled_fraction_blocks(corpus_systems, corpus_covs):
    # solve_theta hands every block on as integer numerators over its own
    # denominator, the pair as_scaled makes of its Fraction array (so in
    # lowest terms), and a float change of variables holds float64 arrays
    rng = np.random.default_rng(99)
    covs = list(corpus_covs.values())
    covs += [solve_theta(_complex_pair_system(rng, n)) for n in (2, 3, 4, 5)]
    for cov in covs:
        assert set(cov.blocks) == {1, *range(2, cov.m + 1)}
        for k, held in cov.blocks.items():
            array = as_array(held)
            assert array.dtype == object and all(type(x) is Fraction for x in array.flat)
            want = as_scaled(array)
            assert held is cov.block(k)
            assert isinstance(held, Scaled) and held.den == want.den > 0
            assert held.num.tolist() == want.num.tolist()
            assert all(type(x) is int for x in held.num.flat)
    floaty = solve_theta(corpus_systems["mixed"].to_float())
    assert not floaty.exact
    for k, block in floaty.blocks.items():
        assert block.dtype == np.float64
        assert block is floaty.block(k)


def test_residual_zero_across_corpus(corpus_systems, corpus_covs):
    for name, system in corpus_systems.items():
        assert residual_condition33(corpus_covs[name], system) == 0, name


def test_degree_two_is_too_low_for_the_cubic(normal_form_system):
    with pytest.raises(NoSolutionError, match="inconsistent"):
        solve_theta(normal_form_system, m=2)
    # the failed solve's rank comes from its own elimination; the Fraction
    # RREF of the assembled matrix is the reference
    cs = assemble_constraints(normal_form_system, 2)
    sol, rank = solve_min_norm_exact(cs.rows, cs.unknown_count)
    assert sol is None
    assert rank == len(rref(cs.matrix.tolist())[1])


def _counting_calls(monkeypatch, name):
    calls = []
    original = getattr(cov_mod, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cov_mod, name, counting)
    return calls


def test_solve_theta_assembles_and_solves_once(monkeypatch, normal_form_system):
    assembled = _counting_calls(monkeypatch, "assemble_constraints")
    solved = _counting_calls(monkeypatch, "solve_min_norm_exact")
    with pytest.raises(NoSolutionError):
        solve_theta(normal_form_system, m=2)
    assert (len(assembled), len(solved)) == (1, 1)
    cov = solve_theta(normal_form_system)
    assert (len(assembled), len(solved)) == (2, 2)
    assert assembled[-1][1] == min_degree_bound(3) == cov.m


def test_singular_gamma_one_has_no_solution():
    # j12 = 0 means real eigenvalues, which run_analyze refuses before this
    phi = [[[1, 0, 0], [0, 0, 1]]]
    zero = build_system([[0, 0], [1, 0]], phi)
    tiny = build_system([[0, Fraction(1, 10**13)], [-1, 0]], phi)
    for system in (zero, zero.to_float(), tiny.to_float()):
        with pytest.raises(NoSolutionError, match="singular"):
            solve_theta(system)


def _complex_pair_system(rng, n):
    while True:
        jac = [[_random_fraction(rng) for _ in range(2)] for _ in range(2)]
        if (jac[0][0] - jac[1][1]) ** 2 + 4 * jac[0][1] * jac[1][0] < 0:
            break
    phi = [
        [[_random_fraction(rng) for _ in range(k + 1)] for _ in range(2)]
        for k in range(2, n + 1)
    ]
    return build_system(jac, phi)


def test_gamma_one_system_is_consistent_from_degree_n():
    # the reason one solve suffices: from m = n up to the counting bound,
    # H = (u, f_1(u, v)) solves the system assembled at (a, b) = (1, 0)
    rng = np.random.default_rng(1618)
    for n, _ in itertools.product(range(2, 6), range(3)):
        system = _complex_pair_system(rng, n)
        for m in range(n, min_degree_bound(n) + 1):
            cs = assemble_constraints(system, m)
            trivial = [
                system.phi_matrix(k)[0, col - 1] if row == 2 and k <= n else 0
                for _, k, row, col in cs.unknown_layout
            ]
            residual = cs.matrix.dot(np.array(trivial, dtype=object)) - cs.rhs
            assert all(r == 0 for r in residual), (n, m)
            sol, _ = solve_min_norm_exact(cs.rows, cs.unknown_count)
            assert sol is not None, (n, m)


def test_solve_theta_rejects_bad_arguments(normal_form_system):
    with pytest.raises(ValueError):
        solve_theta(normal_form_system, m=1)


def test_float_arithmetic_path(normal_form_system):
    cov = solve_theta(normal_form_system.to_float())
    assert not cov.exact
    assert residual_condition33(cov, normal_form_system.to_float()) <= 1e-10


def test_h_evaluate_matches_component_polynomials(normal_form_cov):
    rng = np.random.default_rng(31)
    h1 = component_polynomial(normal_form_cov.blocks, 1)
    h2 = component_polynomial(normal_form_cov.blocks, 2)
    for _ in range(8):
        u = Fraction(int(rng.integers(-8, 9)), 10)
        v = Fraction(int(rng.integers(-8, 9)), 10)
        value = normal_form_cov.h_evaluate((u, v))
        assert value[0] == poly_eval(h1, u, v)
        assert value[1] == poly_eval(h2, u, v)


def test_theta_zero_fill_and_bounds(normal_form_cov):
    high = as_array(normal_form_cov.block(normal_form_cov.m + 2))
    assert high.shape == (2, normal_form_cov.m + 3)
    assert all(x == 0 for x in high.reshape(-1))
    with pytest.raises(ValueError):
        normal_form_cov.block(0)


def _fraction_certificate(cov, system):
    """The certificate expanded in Fractions, the reference for the
    integer expansion of residual_condition33."""
    expansion = poly_add(
        lie_derivative(component_polynomial(cov.blocks, 1), system),
        poly_scale(component_polynomial(cov.blocks, 2), -1),
    )
    return poly_max_abs(expansion)


def _reference_constraints(system, m):
    """Dense Fraction A and b of the system pinned at (a, b) = (1, 0),
    column by column from the polyops expansion of L_f h1 - h2, which is
    affine in the Theta entries: b is minus its value at Theta = 0, and
    column c of A its change when entry c is set to 1."""
    n = system.degree
    gamma = gamma_matrix(system.jac, Fraction(1), Fraction(0))
    labels = [
        ("theta", k, row, col) for k in range(2, m + 1) for row in (1, 2) for col in range(1, k + 2)
    ]

    def expand(label):
        thetas = {k: np.zeros((2, k + 1), dtype=object) for k in range(2, m + 1)}
        if label is not None:
            _, k, row, col = label
            thetas[k][row - 1, col - 1] = Fraction(1)
        blocks = {1: gamma, **thetas}
        e = poly_add(
            lie_derivative(component_polynomial(blocks, 1), system),
            poly_scale(component_polynomial(blocks, 2), -1),
        )
        return [e.get((k - i, i), 0) for k in range(2, m + n) for i in range(k + 1)]

    base = expand(None)
    columns = [[x - y for x, y in zip(expand(label), base)] for label in labels]
    return [list(row) for row in zip(*columns)], [-v for v in base], labels


def _mixed_denominator_system(rng, n):
    """An exact system of degree n whose coefficients have denominators
    up to 9, so that rows differ in their own lcm, and whose degree-k0
    block has a zero first row for a drawn k0, so that block's
    right-hand side is zero."""
    def entry():
        return Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 4, 5, 7, 9)))

    jac = [[entry(), entry()], [entry(), entry()]]
    phi = [[[entry() for _ in range(k + 1)] for _ in range(2)] for k in range(2, n + 1)]
    k0 = rng.randint(2, n)
    phi[k0 - 2][0] = [Fraction(0)] * (k0 + 1)
    return build_system(jac, phi)


def test_integer_rows_match_the_fraction_assembly():
    # the sparse rows scaled by D are, once divided by their content, the
    # coprime integer rows of a Fraction assembly built independently, row
    # for row, and they solve to the same minimum-norm solution and rank
    rng = random.Random(1414)
    for n in range(2, 7):
        system = _mixed_denominator_system(rng, n)
        entries = [system.jac, *system.phi]
        d = math.lcm(*(x.denominator for block in entries for x in block.flat))
        zero_rhs = [k for k in range(2, n + 1) if all(x == 0 for x in system.phi_matrix(k)[0])]
        assert zero_rhs, n
        for m in range(n, min_degree_bound(n) + 2):
            cs = assemble_constraints(system, m)
            assert cs.exact and cs.scale == d
            assert all(isinstance(v, int) for row in cs.rows for v in row.values())
            matrix, rhs, labels = _reference_constraints(system, m)
            assert list(cs.unknown_layout) == labels
            assert [list(row) for row in cs.matrix] == matrix and list(cs.rhs) == rhs
            # D is the lcm over the whole system, not of each row
            row_lcms = [
                math.lcm(*(Fraction(x).denominator for x in [*row, b] if x != 0))
                for row, b in zip(matrix, rhs)
                if any(row) or b
            ]
            assert any(r != d for r in row_lcms), (n, m)
            reference_rows = _integer_rows(matrix, rhs)
            assert [linalg._primitive(row) for row in cs.rows if row] == reference_rows, (n, m)
            w = cs.unknown_count
            before = [dict(row) for row in cs.rows]
            assert solve_min_norm_exact(cs.rows, w) == solve_min_norm_exact(reference_rows, w), (n, m)
            assert list(cs.rows) == before  # the solve leaves its rows as they were


def test_integer_certificate_matches_the_fraction_expansion(corpus_systems, corpus_covs):
    # exact zero on the corpus; and on a change of variables with one
    # Theta entry off by 1/7 the same nonzero Fraction, so the integer
    # expansion still catches a wrong H
    wrong = 0
    for name, system in corpus_systems.items():
        cov = corpus_covs[name]
        assert residual_condition33(cov, system) == _fraction_certificate(cov, system) == 0, name
        for k in range(2, cov.m + 1):
            for row, col in ((0, 0), (1, k), (0, k // 2)):
                bumped = as_array(cov.block(k))
                bumped[row, col] += Fraction(1, 7)
                bad = dataclasses.replace(cov, blocks={**cov.blocks, k: as_scaled(bumped)})
                value = residual_condition33(bad, system)
                assert isinstance(value, Fraction) and value > 0, (name, k, row, col)
                assert value == _fraction_certificate(bad, system), (name, k, row, col)
                wrong += 1
    assert wrong >= 50, wrong


def _float64_certificate(cov, system):
    """The float certificate expanded with the np.float64 entries of the
    arrays, in the order residual_condition33 expands it: the reference
    for its expansion over Python floats."""
    def row_polynomial(row):
        p = {}
        for k in sorted(cov.blocks):
            p.update(poly_from_lambda_row(k, list(cov.blocks[k][row])))
        return p

    jac = system.jac
    f1, f2 = {}, {}
    for col, e in ((0, (1, 0)), (1, (0, 1))):
        if jac[0, col] != 0:
            f1[e] = jac[0, col]
        if jac[1, col] != 0:
            f2[e] = jac[1, col]
    for k, block in enumerate(system.phi, start=2):
        f1 = poly_add(f1, poly_from_lambda_row(k, list(block[0])))
        f2 = poly_add(f2, poly_from_lambda_row(k, list(block[1])))
    h1 = row_polynomial(0)
    assert all(type(c) is np.float64 for p in (f1, f2, h1) for c in p.values())
    lie = poly_add(poly_mul(poly_diff(h1, 0), f1), poly_mul(poly_diff(h1, 1), f2))
    return poly_max_abs(poly_add(lie, poly_scale(row_polynomial(1), -1)))


def _random_float_system(rng, n):
    while True:
        jac = rng.uniform(-2.0, 2.0, size=(2, 2))
        if (jac[0, 0] - jac[1, 1]) ** 2 + 4 * jac[0, 1] * jac[1, 0] < 0 and abs(jac[0, 1]) > 0.1:
            break
    return build_system(jac, [rng.uniform(-3.0, 3.0, size=(2, k + 1)) for k in range(2, n + 1)])


def test_float_certificate_is_the_float64_expansion(corpus_systems):
    # the float expansion runs on Python floats; each product and sum is
    # the one the np.float64 expansion makes, so the residual is the same
    # bit for bit, on solved changes of variables (residual near zero)
    # and on ones with a Theta entry moved by 1/7 (residual of order 1)
    rng = np.random.default_rng(1193)
    systems = [s.to_float() for s in corpus_systems.values()]
    systems += [_random_float_system(rng, n) for n in (2, 3, 3, 4, 4, 5)]
    for system in systems:
        cov = solve_theta(system)
        f1, f2 = field_polynomials(system)
        h1 = component_polynomial(cov.blocks, 1)
        assert all(type(c) is float for p in (f1, f2, h1) for c in p.values())
        residual = residual_condition33(cov, system)
        assert residual <= 1e-10
        assert residual == _float64_certificate(cov, system)
        bumped = cov.block(cov.m).copy()
        bumped[0, 0] += 1 / 7
        bad = dataclasses.replace(cov, blocks={**cov.blocks, cov.m: bumped})
        residual = residual_condition33(bad, system)
        assert residual > 0.1
        assert residual == _float64_certificate(bad, system)


def test_certificate_of_perturbed_theta_blocks_is_the_polyops_expansion():
    # every Theta block of a solved change of variables moved by a random
    # Fraction block, for n = 1 .. 7: the exact certificate is the Fraction
    # expansion, and the float one of the same blocks rounded is the
    # float64 expansion to 1e-12 relative
    rng = np.random.default_rng(3141)
    for n in range(1, 8):
        system = _complex_pair_system(rng, n)
        cov = solve_theta(system, m=max(2, n))
        assert residual_condition33(cov, system) == _fraction_certificate(cov, system) == 0, n
        for _ in range(2):
            blocks = dict(cov.blocks)
            for k in range(2, cov.m + 1):
                moved = as_array(cov.block(k)) + np.array(
                    [[_random_fraction(rng) for _ in range(k + 1)] for _ in range(2)], dtype=object
                )
                blocks[k] = as_scaled(moved)
            bad = dataclasses.replace(cov, blocks=blocks)
            value = residual_condition33(bad, system)
            assert isinstance(value, Fraction) and value > 0, n
            assert value == _fraction_certificate(bad, system), n
            bad_f, system_f = bad.to_float(), system.to_float()
            reference = _float64_certificate(bad_f, system_f)
            assert abs(residual_condition33(bad_f, system_f) - reference) <= 1e-12 * reference, n


def test_certificate_of_a_non_finite_change_of_variables_is_nan(normal_form_system):
    # a nan or inf coefficient makes the expansion not finite, and the
    # certificate says so instead of skipping it
    system = normal_form_system.to_float()
    cov = solve_theta(system)
    assert residual_condition33(cov, system) <= 1e-10
    for value in (math.nan, math.inf, -math.inf):
        theta = cov.block(3).copy()
        theta[0, 0] = value
        bad = dataclasses.replace(cov, blocks={**cov.blocks, 3: theta})
        with np.errstate(invalid="ignore"):  # inf times a zero coefficient
            assert math.isnan(residual_condition33(bad, system)), value


def test_a_family_sweep_builds_each_table_once(definitions):
    # the index tables depend on the degrees only: one family swept over
    # several alphas, exact and in floats, builds each of them once
    tables = (cov_mod._coupling_table, cov_mod._lie_table)
    for table in tables:
        table.cache_clear()
    defn = definitions["mixed"]
    run_sweep(defn, ["1/20", "1/30", "-1/40"], AnalysisOptions(measure=False))
    run_sweep(defn, [0.05, 0.02], AnalysisOptions(exact=False, measure=False))
    assert [table.cache_info().misses for table in tables] == [1, 1]
    assert [table.cache_info().hits for table in tables] == [4, 4]


def test_exact_solve_does_not_build_the_dense_matrix(monkeypatch, corpus_systems):
    # neither solve builds the dense [A | b] on the corpus: the exact one
    # works on the integer split, the float one on its float split, whose
    # coupled rows the certificate proves; the rotation cubic's coupled
    # rows are rank deficient, so its float solve falls back to lstsq on
    # the dense matrix
    def refuse(self):
        raise AssertionError("dense constraint matrix built")

    monkeypatch.setattr(cov_mod.ConstraintSystem, "_dense", property(refuse))
    monkeypatch.setattr(linalg.FloatSplit, "augmented", refuse)
    for name, system in corpus_systems.items():
        cov = solve_theta(system)
        assert residual_condition33(cov, system) == 0, name
        flt = system.to_float()
        assert residual_condition33(solve_theta(flt), flt) <= 1e-12, name
    rotation = build_system([[0.05, -1.0], [1.0, 0.05]], [[[0, 0, 0], [0, 0, 0]], [[0, -1, 0, -1], [1, 0, 1, 0]]])
    with pytest.raises(AssertionError, match="dense constraint matrix"):
        solve_theta(rotation)


def test_exact_rank_does_not_build_the_dense_matrix(monkeypatch, corpus_systems):
    # nullspace_dimension() takes the rank the arithmetic's own solver
    # returns: an exact system's from its integer rows, for the free and
    # the Gamma_1 system alike, a float system's from its float split; the
    # Fraction RREF of the dense exact matrix is the reference for both
    def assembled(to_float=False):
        for name, system in corpus_systems.items():
            m = min_degree_bound(system.degree) if system.degree >= 2 else 2
            for free in (True, False):
                yield name, assemble_constraints(system.to_float() if to_float else system, m, free=free)

    reference = [len(rref(cs.matrix.tolist())[1]) for _, cs in assembled()]
    for (name, cs), rank in zip(assembled(to_float=True), reference):
        assert cs.nullspace_dimension() == cs.unknown_count - rank, (name, cs.free)

    def refuse(self):
        raise AssertionError("dense constraint matrix built")

    monkeypatch.setattr(cov_mod.ConstraintSystem, "_dense", property(refuse))
    for (name, cs), rank in zip(assembled(), reference):
        assert cs.nullspace_dimension() == cs.unknown_count - rank, (name, cs.free)


def test_exact_rank_stops_before_the_gram_step(monkeypatch, corpus_systems):
    # nullspace_dimension() reads the rank off the solve's first step and
    # never forms the minimum-norm (Gram) system; the rank is the solve's,
    # on the corpus and on free and Gamma_1 generic systems of degree 2..7,
    # whose coupled rows the certificate settles, and on the rotation
    # cubic, whose coupled rows are eliminated
    systems = [(name, system) for name, system in corpus_systems.items() if system.degree >= 2]
    systems += [(n, _generic_system(random.Random(7), n, Fraction(1, 50))) for n in range(2, 8)]
    rotation = [[[0, 0, 0], [0, 0, 0]], [[0, -1, 0, -1], [1, 0, 1, 0]]]
    systems.append(("rotation cubic", build_system([[Fraction(1, 20), -1], [1, Fraction(1, 20)]], rotation)))
    assembled = [
        (name, assemble_constraints(system, min_degree_bound(system.degree), free=free))
        for name, system in systems
        for free in (True, False)
    ]
    ranks = [solve_min_norm_exact(cs.split, cs.unknown_count)[1] for _, cs in assembled]

    def refuse(*args):
        raise AssertionError("Gram step run")

    monkeypatch.setattr(linalg, "_gram_solve", refuse)
    for (name, cs), rank in zip(assembled, ranks):
        assert cs.nullspace_dimension() == cs.unknown_count - rank, (name, cs.free)
    with pytest.raises(AssertionError, match="Gram step run"):
        solve_min_norm_exact(assembled[0][1].split, assembled[0][1].unknown_count)


def test_float_reduction_in_units_scaled_by_powers_of_two(definitions):
    # y = x / 2^k multiplies phi_3 by 2^(2k), and p3 with it.  At k = 20
    # lstsq's relative cut-off took the dense system for inconsistent
    # (rank 12, no change of variables); the split solve's certificate
    # scales each row by a power of two, so the reduction runs at every k
    from metamorphic import transform

    base = instantiate(definitions["normal_form"], Fraction(1, 100))
    p3 = run_analyze(base, AnalysisOptions(exact=False, measure=False)).p3
    for k in (10, 20, 30):
        s = Fraction(1, 2**k)
        report = run_analyze(transform(base, ((s, 0), (0, s)), 1), AnalysisOptions(exact=False, measure=False))
        assert report.status == "ok" and report.nullspace_dim == 3, k
        assert report.p3 / 4.0**k == pytest.approx(p3, rel=1e-12), k
