"""Operator identities underlying feedforward correction.

Gaussian relations (one corrected step, the four-step squeezer, the
shear-pair splitting) are statements about 2x2 symplectic matrices. The
cubic feedforward identity is verified on exponent polynomials, scaled to
integer coefficients: every factor involved is diagonal in x, so operator
products reduce to adding exponents after the shift x -> x + s1, which makes
the check one exact integer Taylor shift rather than a numerical one.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .phase_space import p_shear, rotation, shear, squeezer


def _taylor_shift(coefficients: tuple, s) -> tuple:
    """The coefficients of f(x + s), lowest degree first: the exponent after
    conjugation by the position displacement X(s), by Horner's Taylor shift:
    n(n - 1)/2 multiply-adds, exact for int or Fraction coefficients and shift."""
    out = list(coefficients)
    for low in range(len(out) - 1):
        for k in range(len(out) - 2, low - 1, -1):
            out[k] += s * out[k + 1]
    return tuple(out)


def verify_cubic_feedforward(kappa, s1) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Residual exponent of X(s1)^dag D2'(kappa, s1) X(s1) minus kappa x^3,
    as its four coefficients, lowest degree first.

    D2'(kappa, s1) = e^{3 i kappa s1 x (s1 - x)} e^{i kappa x^3} is the
    measurement-basis modification that lets a cubic gate commute through an
    earlier position displacement. The identity
    D2'(kappa, s1) X(s1) = X(s1) D2(kappa) holds iff the residual returned
    here is (kappa s1^3, 0, 0, 0): a constant, which is a pure global phase.

    Both inputs are cast to Fraction, exactly for ints, Fractions and every
    finite float: kappa = a/b, s1 = c/d. b d^3 times the exponent of D2',
    3 kappa s1 x (s1 - x) + kappa x^3, at x = X/d is the integer cubic
    a (X^3 - 3 c X^2 + 3 c^2 X). It is shifted by c in ints, and its X^k
    coefficient n_k gives the exact coefficient n_k d^k / (b d^3) of x^k.
    """
    kappa, s1 = Fraction(kappa), Fraction(s1)
    a, b, c, d = kappa.numerator, kappa.denominator, s1.numerator, s1.denominator
    n0, n1, n2, n3 = _taylor_shift((0, 3 * a * c * c, -3 * a * c, a), c)
    bd3 = b * d**3
    return Fraction(n0, bd3), Fraction(n1 * d, bd3), Fraction(n2 * d * d, bd3), Fraction(n3 - a, b)


def bch_squeezer_residual(kappa: float) -> float:
    """Frobenius norm of S_pshear(k) S_shear(k) - S_rot(k) S_sq(k^2/2).

    Quantifies the O(kappa^3) error in splitting the combined shear pair
    into a rotation times a squeezer.
    """
    lhs = p_shear(kappa) @ shear(kappa)
    rhs = rotation(kappa) @ squeezer(kappa**2 / 2)
    return float(np.linalg.norm(lhs - rhs, ord="fro"))


def squeezer_protocol_matrix(kappa: float) -> np.ndarray:
    """Exact symplectic matrix of the four-step measurement squeezer.

    The protocol alternates Fourier-shear steps with parameters
    (kappa, kappa, -kappa, -kappa); the product evaluates to
    [[1 - k^2 + k^4, k^3], [k^3, 1 + k^2]], which is diag(1-k^2, 1+k^2)
    up to O(kappa^3) terms.
    """
    step_pos = fourier_shear_step(kappa)
    step_neg = fourier_shear_step(-kappa)
    return step_neg @ step_neg @ step_pos @ step_pos


def fourier_shear_step(kappa: float) -> np.ndarray:
    """S_F S_shear(kappa) = [[-kappa, -1], [1, 0]]: the symplectic matrix of
    one corrected elementary teleportation step."""
    return np.array([[-kappa, -1.0], [1.0, 0.0]])
