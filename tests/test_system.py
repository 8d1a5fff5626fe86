"""System container, field evaluation, Hopf indicator, Lie derivative."""

import builtins
from fractions import Fraction

import numpy as np
import pytest

from polycycle.definition import instantiate, load_definition
from polycycle.monomials import eval_poly_map, partial_rows
from polycycle.oracle import compile_field
from polycycle.pipeline import AnalysisOptions, run_analyze
from polycycle.polyops import poly_add, poly_eval, poly_mul, poly_scale
from polycycle.system import (
    build_system,
    evaluate_field,
    field_polynomials,
    hopf_indicator,
    lie_derivative,
)

from conftest import CORPUS

CUBIC_PHI = [[-1, 0, -1, 0], [0, -1, 0, -1]]


def _normal_form(alpha):
    jac = [[alpha, -1], [1, alpha]]
    return build_system(jac, [[[0] * 3, [0] * 3], CUBIC_PHI])


def test_build_rejects_bad_shapes():
    with pytest.raises(ValueError):
        build_system([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        build_system([[0, -1], [1, 0]], [[[1, 0], [0, 0]]])  # phi2 must be 2x3


def test_build_rejects_all_zero_phi():
    with pytest.raises(ValueError, match="linear"):
        build_system([[0, -1], [1, 0]], [[[0, 0, 0], [0, 0, 0]]])


def test_trailing_zero_blocks_are_trimmed():
    sys2 = build_system(
        [[0, -1], [1, 0]],
        [[[1, 0, 0], [0, 0, 0]], [[0] * 4, [0] * 4]],
    )
    assert sys2.degree == 2
    assert len(sys2.phi) == 1


def test_degree_and_zero_fill():
    lin = build_system([[0, -1], [1, 0]])
    assert lin.degree == 1
    assert lin.phi_matrix(3).shape == (2, 4)
    assert all(x == 0 for x in lin.phi_matrix(3).reshape(-1))
    with pytest.raises(ValueError):
        lin.phi_matrix(1)


def test_exact_detection_and_to_float():
    exact = _normal_form(Fraction(1, 20))
    assert exact.exact
    floaty = exact.to_float()
    assert not floaty.exact
    assert floaty.jac.dtype == np.float64
    # mixed input falls back to float
    mixed = build_system([[0.0, -1.0], [1.0, 0.0]], [[[1, 0, 0], [0, 0, 0]]])
    assert not mixed.exact
    # also when the float block comes after exact ones, so no stage meets
    # a float64 block in an exact system
    mixed = build_system([[0, -1], [1, 0]], [[[1, 0, 0], [0, 0, 0]], [[0.5, 0, 0, 0], [0, 0, -1, 0]]])
    assert not mixed.exact
    assert all(b.dtype == np.float64 for b in (mixed.jac, *mixed.phi))
    report = run_analyze(mixed, AnalysisOptions(measure=False))
    assert report.arithmetic == "float" and report.status == "ok"


def test_field_value_at_unit_point():
    sys3 = _normal_form(Fraction(0))
    value = evaluate_field(sys3, (Fraction(1), Fraction(1)))
    assert list(value) == [Fraction(-3), Fraction(-1)]


def test_hopf_indicator_values():
    ind = hopf_indicator(_normal_form(Fraction(1, 100)))
    assert ind.tau == Fraction(1, 50)
    assert ind.delta == Fraction(10001, 10000)
    assert ind.complex_pair

    center = hopf_indicator(build_system([[0, -1], [1, 0]]))
    assert center.tau == 0
    assert center.complex_pair

    saddle = hopf_indicator(build_system([[0, 1], [1, 0]]))
    assert not saddle.complex_pair


def test_field_polynomials_match_pointwise_evaluation():
    rng = np.random.default_rng(13)
    sys3 = _normal_form(Fraction(1, 20))
    f1, f2 = field_polynomials(sys3)
    for _ in range(10):
        u = Fraction(int(rng.integers(-9, 10)), 4)
        v = Fraction(int(rng.integers(-9, 10)), 4)
        value = evaluate_field(sys3, (u, v))
        assert poly_eval(f1, u, v) == value[0]
        assert poly_eval(f2, u, v) == value[1]


def test_lie_derivative_of_radius_on_linear_center():
    center = build_system([[0, -1], [1, 0]])
    r2 = {(2, 0): Fraction(1), (0, 2): Fraction(1)}
    assert lie_derivative(r2, center) == {}


def test_lie_derivative_product_rule():
    rng = np.random.default_rng(17)
    sys3 = _normal_form(Fraction(1, 20))

    def rand_poly():
        p = {}
        for _ in range(4):
            e = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
            c = Fraction(int(rng.integers(-4, 5)))
            if c:
                p = poly_add(p, {e: c})
        return p

    for _ in range(10):
        f, g = rand_poly(), rand_poly()
        lhs = lie_derivative(poly_mul(f, g), sys3)
        rhs = poly_add(
            poly_mul(lie_derivative(f, sys3), g), poly_mul(f, lie_derivative(g, sys3))
        )
        assert lhs == rhs


def test_lie_derivative_linearity():
    sys3 = _normal_form(Fraction(1, 20))
    f = {(2, 0): Fraction(1), (1, 1): Fraction(-2)}
    g = {(0, 2): Fraction(3)}
    combo = poly_add(poly_scale(f, Fraction(2)), g)
    lhs = lie_derivative(combo, sys3)
    rhs = poly_add(poly_scale(lie_derivative(f, sys3), Fraction(2)), lie_derivative(g, sys3))
    assert lhs == rhs


def test_compiled_field_matches_evaluation():
    rng = np.random.default_rng(19)
    sys3 = _normal_form(Fraction(1, 20)).to_float()
    field = compile_field(sys3)
    for _ in range(20):
        u, v = rng.uniform(-2, 2, size=2)
        du, dv, _ = field(u, v)
        ref = evaluate_field(sys3, (u, v))
        np.testing.assert_allclose([du, dv], ref, rtol=1e-14, atol=1e-14)


def _loop_field(system):
    """Reference for compile_field: the generic loop over every
    coefficient, zeros included, that the generated code replaced."""
    flt = system.to_float()
    j11, j12 = float(flt.jac[0, 0]), float(flt.jac[0, 1])
    j21, j22 = float(flt.jac[1, 0]), float(flt.jac[1, 1])
    rows = [([float(c) for c in block[0]], [float(c) for c in block[1]]) for block in flt.phi]
    n = flt.degree

    def field(u, v):
        du = j11 * u + j12 * v
        dv = j21 * u + j22 * v
        up = [1.0] * (n + 1)
        vp = [1.0] * (n + 1)
        for i in range(1, n + 1):
            up[i] = up[i - 1] * u
            vp[i] = vp[i - 1] * v
        for idx, (r1, r2) in enumerate(rows):
            k = idx + 2
            s1 = 0.0
            s2 = 0.0
            for i in range(k + 1):
                m = up[k - i] * vp[i]
                s1 += r1[i] * m
                s2 += r2[i] * m
            du += s1
            dv += s2
        return du, dv

    return field


def _random_float_system(rng, degree):
    jac = rng.normal(size=(2, 2))
    blocks = []
    for k in range(2, degree + 1):
        block = rng.normal(scale=3.0, size=(2, k + 1))
        block[rng.random(block.shape) < 0.4] = 0.0
        blocks.append(block)
    if degree >= 4:
        blocks[1][:] = 0.0  # an all-zero middle block
    specials = [1e-320, -1e-320, 0.1 + 0.2, -0.0, 0.0]
    for block in blocks:
        for _ in range(2):
            block[rng.integers(2), rng.integers(block.shape[1])] = specials[rng.integers(len(specials))]
    if blocks:
        blocks[-1][rng.integers(2), -1] = rng.normal()  # keep the stated degree
    return build_system(jac, blocks)


def test_generated_field_is_bit_identical_to_the_loop():
    # the generated code must sum each block in column order into one
    # block sum; any other order, or adding terms straight into du,
    # rounds differently at some of these points
    rng = np.random.default_rng(23)
    points = [(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 1.0), (1e-170, -1e-170)]
    points += [tuple(p) for p in rng.uniform(-1.5, 1.5, size=(300, 2))]

    def bits(pair):
        return tuple(x.hex() for x in pair)

    for degree in (1, 2, 3, 4, 5, 6, 7, 3, 5, 7):
        system = _random_float_system(rng, degree)
        assert system.degree == degree
        generated, reference = compile_field(system), _loop_field(system)
        for u, v in points:
            assert bits(generated(u, v)[:2]) == bits(reference(u, v)), (degree, u, v)
    # signed zeros: at (0, 0) du's linear part and block sum are both
    # -0.0 unless the block sum starts from 0.0, and dv, a row with no
    # nonlinear term, is -0.0 at (-0, -0) unless 0.0 is added to it
    quadratic = build_system([[-1.0, -1.0], [1.0, 0.0]], [[[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
    generated, reference = compile_field(quadratic), _loop_field(quadratic)
    for u, v in points:
        assert bits(generated(u, v)[:2]) == bits(reference(u, v)), (u, v)


def test_a_repeated_nonzero_pattern_compiles_nothing(monkeypatch):
    # the coefficients are bound per call and never enter the source, so a
    # second system with the same nonzero pattern reuses the compiled code
    # yet evaluates its own field
    zero = [[0.0] * 3, [0.0] * 3]
    first = build_system(
        [[0.125, -1.0], [1.0, 0.125]], [zero, [[-1.5, 0.0, 2.5, 0.0], [0.0, -1.0, 0.0, 0.75]]]
    )
    second = build_system(
        [[-0.25, -3.0], [2.0, 0.5]], [zero, [[4.0, 0.0, -0.5, 0.0], [0.0, 3.0, 0.0, -2.0]]]
    )
    f_first = compile_field(first)
    compiled = []
    compile_ = builtins.compile

    def counting(*args, **kwargs):
        compiled.append(args[0])
        return compile_(*args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    f_second = compile_field(second)
    assert compiled == []
    for point in [(0.375, -0.625), (-1.25, 0.5)]:
        assert f_second(*point)[:2] == _loop_field(second)(*point)
        assert f_first(*point)[:2] == _loop_field(first)(*point)
        assert f_second(*point) != f_first(*point)


def _divergence(system, magnitude=False):
    """Reference for the generated div f = d(u')/du + d(v')/dv: block k
    of the field contributes the row d_u(block[0]) + d_v(block[1]) over
    lambda_(k-1), evaluated as a polynomial map; the trace of J is the
    constant term.  With ``magnitude`` it is the sum of the terms'
    magnitudes instead, the scale of the rounding error of either sum."""
    flt = system.to_float()
    size = np.abs if magnitude else (lambda x: x)
    trace = size(float(flt.jac[0, 0] + flt.jac[1, 1]))
    rows = {
        k - 1: size(np.add(partial_rows(block[0])[0], partial_rows(block[1])[1]))[None, :]
        for k, block in enumerate(flt.phi, start=2)
    }

    def div(u, v):
        return trace + float(eval_poly_map(rows, size(np.array([u, v])))[0]) if rows else trace

    return div


def _assert_div_is_the_reference(system, points):
    # to 1e-13 of the terms' magnitudes: the two sums differ in order and
    # cancel to far below their terms at some of the points
    generated, reference = compile_field(system), _divergence(system)
    scale = _divergence(system, magnitude=True)
    for u, v in points:
        assert abs(generated(u, v)[2] - reference(u, v)) <= 1e-13 * scale(u, v), (u, v)


def test_generated_divergence_matches_the_reference_on_the_corpus(systems_dir):
    points = [(0.0, 0.0)] + [tuple(p) for p in np.random.default_rng(29).uniform(-1.5, 1.5, size=(100, 2))]
    for name in CORPUS:
        defn = load_definition(systems_dir / f"{name}.json")
        _assert_div_is_the_reference(instantiate(defn, defn.alpha_default), points)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_generated_divergence_matches_the_reference_on_random_systems(degree):
    rng = np.random.default_rng(31 + degree)
    points = [tuple(p) for p in rng.uniform(-1.5, 1.5, size=(200, 2))]
    for _ in range(5):
        system = _random_float_system(rng, degree)
        assert system.degree == degree
        _assert_div_is_the_reference(system, points)
