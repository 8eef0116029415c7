import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cvcluster as cv
from cvcluster import algebra
from conftest import random_gaussian_state
from explicit_states import displace


class TestCliffordCommute:
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(-2, 2),
        st.floats(-2, 2),
        st.floats(-1, 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_on_states(self, seed, u, v, param):
        # pushing X(u)Z(v) through a Clifford gate gives (u', v') = S (u, v):
        # gate then displace-by-(u', v') == displace-by-(u, v) then gate
        state = random_gaussian_state(seed, 1)
        for gate in (cv.rotation(param * math.pi), cv.squeezer(param), cv.shear(param)):
            up, vp = gate @ np.array([u, v])
            after = displace(cv.apply_gate(state, gate, [0]), 0, up, vp)
            before = cv.apply_gate(displace(state, 0, u, v), gate, [0])
            np.testing.assert_allclose(after.mean, before.mean, atol=1e-12)
            np.testing.assert_allclose(after.cov, before.cov, atol=1e-12)


class TestCubicFeedforward:
    def test_unit_parameters_leave_unit_phase(self):
        assert cv.verify_cubic_feedforward(1, 1) == (1, 0, 0, 0)

    def test_zero_shift_vanishes(self):
        assert cv.verify_cubic_feedforward(Fraction(3, 2), 0) == (0, 0, 0, 0)

    def test_zero_kappa_vanishes(self):
        assert cv.verify_cubic_feedforward(0, Fraction(5, 3)) == (0, 0, 0, 0)

    def test_exact_rational_grid(self):
        grid = [Fraction(k, 2) for k in (-2, -1, 0, 1, 2)]
        for kappa in grid:
            for s1 in grid:
                residual = cv.verify_cubic_feedforward(kappa, s1)
                assert residual == (kappa * s1**3, 0, 0, 0)
                assert all(isinstance(c, Fraction) for c in residual)

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=60)
    def test_float_inputs_low_degrees_vanish(self, kappa, s1):
        # every finite float is a Fraction exactly, so the residual is exact
        residual = cv.verify_cubic_feedforward(kappa, s1)
        assert residual[1:] == (0, 0, 0)
        assert residual[0] == Fraction(kappa) * Fraction(s1) ** 3

    @pytest.mark.parametrize("kappa, s1", [(math.inf, 1.0), (1.0, -math.inf), (math.nan, 0.5)])
    def test_non_finite_input_raises(self, kappa, s1):
        with pytest.raises((OverflowError, ValueError)):
            cv.verify_cubic_feedforward(kappa, s1)


def _fraction_residual(kappa, s1):
    """The residual from the exponent of D2' shifted Fraction by Fraction:
    the route ``verify_cubic_feedforward`` took before it scaled the
    coefficients to integers, kept as its reference."""
    kappa, s1 = Fraction(kappa), Fraction(s1)
    c0, c1, c2, c3 = _binomial_shift((0, 3 * kappa * s1**2, -3 * kappa * s1, kappa), s1)
    return c0, c1, c2, c3 - kappa


def _assert_same_fractions(residual, expected):
    # both sides are normalised, so equal Fractions have equal numerators and denominators
    assert residual == expected
    assert all(type(c) is Fraction for c in residual)


EXACT_NUMBERS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=10**6),
)


class TestIntegerShiftEqualsTheFractionShift:
    def test_on_the_verify_grid(self):
        for kappa in VERIFY_GRID:
            for s1 in VERIFY_GRID:
                residual = cv.verify_cubic_feedforward(kappa, s1)
                _assert_same_fractions(residual, _fraction_residual(kappa, s1))

    @given(EXACT_NUMBERS, EXACT_NUMBERS)
    @example(0, 0)
    @example(-3, Fraction(-7, 2))
    @example(-0.0, 5e-324)
    @example(Fraction(-1, 3), -1e300)
    @settings(max_examples=200, deadline=None)
    def test_on_ints_floats_and_fractions(self, kappa, s1):
        residual = cv.verify_cubic_feedforward(kappa, s1)
        _assert_same_fractions(residual, _fraction_residual(kappa, s1))


def _binomial_shift(coefficients, s):
    """f(x + s) by expanding each c_k (x + s)^k with binomial coefficients."""
    out = [Fraction(0)] * len(coefficients)
    for k, c in enumerate(coefficients):
        for m in range(k + 1):
            out[m] += c * math.comb(k, m) * s ** (k - m)
    return tuple(out)


VERIFY_GRID = [Fraction(v, 2) for v in (-2, -1, 0, 1, 2)]
THIRDS_GRID = [Fraction(v, 3) for v in (-7, -4, -2, -1, 0, 1, 5)]


class TestTaylorShift:
    def test_shift_equals_binomial_expansion_on_the_verify_grid(self):
        # the exponents of D2'(kappa, s1) that verify shifts by s1, at every grid point
        for kappa in VERIFY_GRID:
            for s1 in VERIFY_GRID:
                coefficients = (Fraction(0), 3 * kappa * s1**2, -3 * kappa * s1, kappa)
                shifted = algebra._taylor_shift(coefficients, s1)
                assert shifted == _binomial_shift(coefficients, s1)
                assert all(isinstance(c, Fraction) for c in shifted)

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 6])
    def test_shift_equals_binomial_expansion_on_thirds(self, length):
        rng = np.random.Generator(np.random.PCG64(length))
        for s in THIRDS_GRID:
            for _ in range(5):
                coefficients = tuple(THIRDS_GRID[i] for i in rng.integers(7, size=length))
                assert algebra._taylor_shift(coefficients, s) == _binomial_shift(coefficients, s)

    def test_shift_matches_direct_evaluation(self):
        coefficients = (1.0, -2.0, 0.5, 3.0)
        shifted = algebra._taylor_shift(coefficients, 0.7)
        x = 1.3
        direct = sum(c * (x + 0.7) ** k for k, c in enumerate(coefficients))
        via_shift = sum(c * x**k for k, c in enumerate(shifted))
        assert via_shift == pytest.approx(direct, rel=1e-12)


class TestBchResidual:
    def test_zero_kappa(self):
        assert cv.bch_squeezer_residual(0.0) == 0.0

    def test_cubic_scaling_ratio(self):
        ratio = cv.bch_squeezer_residual(0.2) / cv.bch_squeezer_residual(0.1)
        assert 7.0 <= ratio <= 9.0

    def test_small_at_one_tenth(self):
        assert cv.bch_squeezer_residual(0.1) <= 1e-2


class TestSqueezerProtocolMatrix:
    def test_zero_kappa_is_identity(self):
        np.testing.assert_allclose(cv.squeezer_protocol_matrix(0.0), np.eye(2), atol=1e-15)

    def test_value_at_point_two(self):
        np.testing.assert_allclose(
            cv.squeezer_protocol_matrix(0.2),
            [[0.9616, 0.008], [0.008, 1.04]],
            atol=1e-15,
        )

    @given(st.floats(-0.5, 0.5))
    @settings(max_examples=60)
    def test_closed_form(self, kappa):
        expected = np.array(
            [[1 - kappa**2 + kappa**4, kappa**3], [kappa**3, 1 + kappa**2]]
        )
        np.testing.assert_allclose(cv.squeezer_protocol_matrix(kappa), expected, atol=1e-13)

    @given(st.floats(-0.3, 0.3))
    @settings(max_examples=60)
    def test_determinant_one(self, kappa):
        assert np.linalg.det(cv.squeezer_protocol_matrix(kappa)) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("kappa", [0.05, 0.1, 0.2, 0.3])
    def test_deviation_from_squeezer_target_is_cubic(self, kappa):
        M = cv.squeezer_protocol_matrix(kappa)
        dev = np.linalg.norm(M - np.diag([1 - kappa**2, 1 + kappa**2]), ord="fro")
        assert dev <= 2 * kappa**3
        # entrywise structure of the correction terms
        assert abs(M[0, 0] - (1 - kappa**2)) <= kappa**4 + 1e-15
        assert M[1, 1] == pytest.approx(1 + kappa**2, abs=1e-15)
        assert abs(M[0, 1]) == pytest.approx(kappa**3, abs=1e-15)
        assert abs(M[1, 0]) == pytest.approx(kappa**3, abs=1e-15)

    def test_fourier_shear_step(self):
        np.testing.assert_allclose(
            cv.fourier_shear_step(0.4), cv.fourier() @ cv.shear(0.4), atol=1e-15
        )
