"""Induced matrices on monomial vectors and truncated series inversion."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import as_fraction_matrix, assert_same_entries
import polycycle.inversion as inversion
from polycycle.change_of_variables import ChangeOfVariables, solve_theta
from polycycle.inversion import (
    DIRECTIONS,
    REL_DEFECT,
    TRUST_GRID,
    InverseSeries,
    composition_residual,
    invert_to_cubic,
    p_operator,
    r2_operator,
    residual_slope,
    trust_radius,
)
from polycycle.monomials import Scaled, as_array, as_scaled, eval_lambda
from polycycle.polyops import poly_add, poly_from_lambda_row, poly_mul
from polycycle.system import build_system


def _obj(rows):
    return as_fraction_matrix(rows)


def test_p_operator_small_cases():
    a = _obj([[1, 2], [3, 4]])
    assert p_operator(1, a).tolist() == a.tolist()
    eye = _obj([[1, 0], [0, 1]])
    assert p_operator(2, eye).tolist() == np.eye(3, dtype=int).tolist()
    diag = _obj([[2, 0], [0, 3]])
    assert p_operator(2, diag).tolist() == [[4, 0, 0], [0, 6, 0], [0, 0, 9]]


def test_p_operator_functoriality():
    # lambda_k(A y) = P_k(A) lambda_k(y), exactly, for integer data
    rng = np.random.default_rng(37)
    for _ in range(25):
        k = int(rng.integers(1, 6))
        a = _obj(rng.integers(-3, 4, size=(2, 2)).tolist())
        y = tuple(Fraction(int(t)) for t in rng.integers(-3, 4, size=2))
        ay = a @ np.array(y, dtype=object)
        lhs = eval_lambda(k, (ay[0], ay[1]))
        rhs = p_operator(k, a) @ eval_lambda(k, y)
        assert list(lhs) == list(rhs)


def test_p_operator_multiplicativity():
    rng = np.random.default_rng(41)
    for _ in range(15):
        k = int(rng.integers(1, 6))
        a = _obj(rng.integers(-3, 4, size=(2, 2)).tolist())
        b = _obj(rng.integers(-3, 4, size=(2, 2)).tolist())
        lhs = p_operator(k, a @ b)
        rhs = p_operator(k, a) @ p_operator(k, b)
        assert lhs.tolist() == rhs.tolist()


def test_r2_operator_known_case():
    eye = _obj([[1, 0], [0, 1]])
    xi2 = _obj([[-1, 0, 0], [0, 0, 0]])
    expected = [[-2, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0]]
    assert r2_operator(eye, xi2).tolist() == _obj(expected).tolist()


def test_r2_operator_is_the_cubic_part_of_the_composition():
    # expand lambda_2(A y + B lambda_2(y)) with polyops and keep degree 3
    rng = np.random.default_rng(43)
    for _ in range(10):
        a = _obj(rng.integers(-3, 4, size=(2, 2)).tolist())
        nums, dens = rng.integers(-4, 5, size=(2, 3)), rng.integers(1, 4, size=(2, 3))
        b = _obj([[Fraction(int(n), int(d)) for n, d in zip(*rows)] for rows in zip(nums, dens)])
        w1, w2 = (poly_add(poly_from_lambda_row(1, a[i]), poly_from_lambda_row(2, b[i])) for i in (0, 1))
        r2 = r2_operator(a, b)
        for i, full in enumerate((poly_mul(w1, w1), poly_mul(w1, w2), poly_mul(w2, w2))):
            cubic = {e: c for e, c in full.items() if sum(e) == 3}
            assert poly_from_lambda_row(3, r2[i]) == cubic


def _convolve_p_operator(k, a):
    """P_k(A) by np.convolve of coefficient rows, the reference the direct
    products must reproduce."""
    if isinstance(a, Scaled):
        return Scaled(_convolve_p_operator(k, a.num), a.den**k)
    mat = np.asarray(a)
    powers_u = [np.ones(1, dtype=mat.dtype)]
    powers_v = [np.ones(1, dtype=mat.dtype)]
    for _ in range(k):
        powers_u.append(np.convolve(powers_u[-1], mat[0]))
        powers_v.append(np.convolve(powers_v[-1], mat[1]))
    return np.array([np.convolve(powers_u[k - i], powers_v[i]) for i in range(k + 1)])


def _convolve_r2_operator(a, b):
    """R2(A, B) by np.convolve of coefficient rows."""
    if isinstance(a, Scaled):
        return Scaled(_convolve_r2_operator(a.num, b.num), a.den * b.den)
    (a1, a2), (b1, b2) = np.asarray(a), np.asarray(b)
    return np.array(
        [2 * np.convolve(a1, b1), np.convolve(a1, b2) + np.convolve(a2, b1), 2 * np.convolve(a2, b2)]
    )


def _operands(rng, shape):
    """One operand of each kind the operators take: int64, Python ints and
    Fractions in object arrays, a Scaled block and float64 with signed
    zeros among its entries; the degrees they are compared at (float64 up
    to 3, the degrees the inverse uses: np.convolve rounds longer rows
    through BLAS, whose fused sums differ in the last bit)."""
    ints = rng.integers(-5, 6, size=shape)
    fractions = _obj([[Fraction(int(n), int(d)) for n, d in zip(*rows)]
                      for rows in zip(ints, rng.integers(1, 5, size=shape))])
    floats = rng.uniform(-3.0, 3.0, size=shape)
    floats.flat[rng.integers(0, floats.size, size=2)] = [0.0, -0.0]
    return [(ints, 5), (ints.astype(object), 5), (fractions, 5), (as_scaled(fractions), 5), (floats, 3)]


def test_operators_are_the_convolutions_of_their_rows():
    rng = np.random.default_rng(61)
    for _ in range(20):
        for (a, top), (b, _) in zip(_operands(rng, (2, 2)), _operands(rng, (2, 3))):
            for k in range(1, top + 1):
                assert_same_entries(p_operator(k, a), _convolve_p_operator(k, a))
            assert_same_entries(r2_operator(a, b), _convolve_r2_operator(a, b))


def _univariate_cov():
    # H(u, v) = (u + u^2, v)
    eye = _obj([[1, 0], [0, 1]])
    theta2 = _obj([[1, 0, 0], [0, 0, 0]])
    return ChangeOfVariables(blocks={1: as_scaled(eye), 2: as_scaled(theta2)})


def test_univariate_series_coefficients():
    inv = invert_to_cubic(_univariate_cov())
    assert inv.exact
    gamma_inv, xi2, xi3 = (as_array(inv.blocks[k]) for k in (1, 2, 3))
    assert gamma_inv.tolist() == _obj([[1, 0], [0, 1]]).tolist()
    assert xi2.tolist() == _obj([[-1, 0, 0], [0, 0, 0]]).tolist()
    assert xi3.tolist() == _obj([[2, 0, 0, 0], [0, 0, 0, 0]]).tolist()


def test_univariate_series_evaluation_is_exact():
    inv = invert_to_cubic(_univariate_cov())
    z = Fraction(1, 10)
    value = inv.evaluate((z, Fraction(2)))
    # z - z^2 + 2 z^3 at z = 1/10
    assert value[0] == z - z * z + 2 * z**3 == Fraction(23, 250)
    assert value[1] == Fraction(2)


def test_singular_gamma_is_rejected():
    # the exact and the float routine refuse it with the same message
    gamma = _obj([[1, 0], [2, 0]])
    cov = ChangeOfVariables(blocks={1: as_scaled(gamma)})
    for case in (cov, cov.to_float()):
        with pytest.raises(ZeroDivisionError, match="^Gamma is singular; the change of variables cannot be inverted$"):
            invert_to_cubic(case)


def test_composition_residual_decays_quartically(corpus_systems, corpus_covs):
    radii = [10.0 ** (-e) for e in (1.0, 1.5, 2.0, 2.5, 3.0)]
    for name, cov in corpus_covs.items():
        inv = invert_to_cubic(cov)
        points = composition_residual(cov, inv, radii)
        assert [r for r, _ in points] == radii
        # drop pairs at the rounding floor: a change of variables whose
        # truncated inverse is already exact leaves only float noise
        significant = [(r, res) for r, res in points if res > 1e-13 * r]
        if len(significant) < 2:
            continue
        slope = residual_slope(significant)
        assert slope is not None and slope >= 3.8, (name, slope)


def test_batched_evaluation_matches_pointwise(corpus_covs):
    # every column of a (2, N) batch rounds exactly as the point alone
    rng = np.random.default_rng(5)
    points = rng.uniform(-0.7, 0.7, size=(2, 40))
    columns = [(float(u), float(v)) for u, v in points.T]
    for k in (1, 2, 3, 6):
        lam = eval_lambda(k, points)
        assert lam.shape == (k + 1, 40)
        for j, point in enumerate(columns):
            assert np.array_equal(lam[:, j], eval_lambda(k, point))
    for name, cov in corpus_covs.items():
        cov_f = cov.to_float()
        inv_f = invert_to_cubic(cov).to_float()
        h = cov_f.h_evaluate(points)
        x = inv_f.evaluate(points)
        assert h.shape == x.shape == (2, 40)
        for j, point in enumerate(columns):
            assert np.array_equal(h[:, j], cov_f.h_evaluate(point)), name
            assert np.array_equal(x[:, j], inv_f.evaluate(point)), name


def test_composition_residual_matches_a_pointwise_scan(corpus_covs):
    # reference: the scan point by point; cos, sin and hypot may round
    # differently in numpy, by about one unit in the last place of r
    for name, cov in corpus_covs.items():
        inv = invert_to_cubic(cov)
        cov_f, inv_f = cov.to_float(), inv.to_float()
        for (r, res), radius in zip(composition_residual(cov, inv, TRUST_GRID), TRUST_GRID):
            worst = 0.0
            for i in range(DIRECTIONS):
                ang = 2.0 * math.pi * i / DIRECTIONS
                y = (radius * math.cos(ang), radius * math.sin(ang))
                h = cov_f.h_evaluate(inv_f.evaluate(y))
                worst = max(worst, math.hypot(h[0] - y[0], h[1] - y[1]))
            assert r == radius
            assert abs(res - worst) <= 1e-14 * r + 1e-12 * worst, (name, r)


def _reference_scan(cov, inv, radii):
    """The worst defect per circle from the batched pointwise
    evaluations, h_evaluate(evaluate(y)) over the (2, R * DIRECTIONS)
    grid of scan points."""
    radii = np.asarray(radii, dtype=float)
    angles = 2.0 * math.pi * np.arange(DIRECTIONS) / DIRECTIONS
    y = np.stack([np.outer(radii, np.cos(angles)), np.outer(radii, np.sin(angles))]).reshape(2, -1)
    h = cov.to_float().h_evaluate(inv.to_float().evaluate(y))
    return np.hypot(h[0] - y[0], h[1] - y[1]).reshape(len(radii), DIRECTIONS).max(axis=1)


def _reference_trust_radius(cov, inv):
    best = 0.0
    for r, res in zip(TRUST_GRID, _reference_scan(cov, inv, TRUST_GRID)):
        if res <= REL_DEFECT * r:
            best = float(r)
        else:
            break
    return best


def _random_exact_system(rng, n, alpha):
    """J = [[alpha, -1], [1, alpha]] and random rational phi_2 .. phi_n."""
    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    phi = [[[entry() for _ in range(k + 1)] for _ in range(2)] for k in range(2, n + 1)]
    return build_system([[alpha, -1], [1, alpha]], phi)


def test_scan_matches_the_reference_scan(corpus_systems, corpus_covs):
    # the two matrix products give the reference's trust radius exactly,
    # and its defects to the pointwise tolerance, on the grid and off it
    rng = random.Random(2459)
    cases = list(corpus_covs.items())
    cases += [(name + " float", solve_theta(s.to_float())) for name, s in corpus_systems.items()]
    for n in (3, 4, 5):
        for alpha in (Fraction(1, 50), Fraction(-1, 50)):
            system = _random_exact_system(rng, n, alpha)
            cases.append((f"n={n} {alpha}", solve_theta(system)))
            cases.append((f"n={n} {alpha} float", solve_theta(system.to_float())))
    off_grid = [10.0 ** (-e) for e in (0.5, 1.0, 1.5, 2.0, 3.0)] + [0.37, 2.0, 3.9]
    trusted = set()
    for name, cov in cases:
        inv = invert_to_cubic(cov)
        radius = trust_radius(cov, inv)
        assert radius == _reference_trust_radius(cov, inv), name
        trusted.add(radius)
        for radii in (TRUST_GRID, off_grid):
            points = composition_residual(cov, inv, radii)
            assert [r for r, _ in points] == list(radii), name
            for (r, res), worst in zip(points, _reference_scan(cov, inv, radii)):
                assert abs(res - worst) <= 1e-14 * r + 1e-12 * worst, (name, r, res, worst)
    # the cases reach both ends of the grid and radii in between
    assert 4.0 in trusted and len(trusted) >= 5, sorted(trusted)


def test_trust_radius_stops_at_the_first_failing_radius(monkeypatch, corpus_covs):
    defects = {}
    monkeypatch.setattr(inversion, "_worst_defects", lambda cov, inv, table: defects["worst"])

    def scan(worst):
        defects["worst"] = np.array(worst, dtype=float)
        return trust_radius(None, None)

    at_bound = REL_DEFECT * TRUST_GRID
    above = 2.0 * at_bound
    # a defect at the bound passes; the scan stops at the first failure
    # even when larger radii pass again
    assert scan(at_bound) == 4.0
    assert scan(np.where(np.arange(38) == 5, above, 0.0)) == TRUST_GRID[4]
    assert scan(np.where(np.arange(38) % 7 == 6, above, 0.0)) == TRUST_GRID[5]
    assert scan(np.where(np.arange(38) == 0, above, 0.0)) == 0.0
    assert scan(above) == 0.0
    # a NaN or inf defect fails
    for bad in (math.nan, math.inf):
        assert scan(np.where(np.arange(38) == 3, bad, 0.0)) == TRUST_GRID[2]
        assert scan(np.where(np.arange(38) == 0, bad, 0.0)) == 0.0
        assert scan(np.where(np.arange(38) == 37, bad, 0.0)) == TRUST_GRID[36]
    monkeypatch.undo()
    # no radius fails for a change of variables whose truncated inverse
    # is exact to rounding
    for name in ("linear_center", "quadratic"):
        cov = corpus_covs[name]
        assert trust_radius(cov, invert_to_cubic(cov)) == 4.0, name


def test_residual_slope_on_synthetic_quartic():
    points = [(r, 5.0 * r**4) for r in (1e-1, 1e-2, 1e-3)]
    slope = residual_slope(points)
    assert slope == pytest.approx(4.0, abs=1e-9)
    assert residual_slope([(1e-1, 0.0), (1e-2, 0.0)]) is None


def test_trust_radius_positive_and_bounded(corpus_covs):
    for name, cov in corpus_covs.items():
        inv = invert_to_cubic(cov)
        radius = trust_radius(cov, inv)
        assert 1e-4 <= radius <= 4.0, name


def test_inverse_series_to_float():
    inv = invert_to_cubic(_univariate_cov()).to_float()
    assert not inv.exact
    value = inv.evaluate((0.1, 2.0))
    np.testing.assert_allclose(value, [0.092, 2.0], rtol=1e-15)
