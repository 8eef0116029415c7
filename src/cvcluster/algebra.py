"""Operator identities underlying feedforward correction.

Gaussian relations (one corrected step, the four-step squeezer, the
shear-pair splitting) are statements about 2x2 symplectic matrices. The
cubic feedforward identity is verified on exponent
polynomials: every factor involved is diagonal in x, so operator products
reduce to adding exponents after the shift x -> x + s1, which makes the
check exact (rational arithmetic) rather than numerical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .phase_space import p_shear, rotation, shear, squeezer


def _exactable(*values) -> bool:
    return all(isinstance(v, Rational) for v in values)


@dataclass(frozen=True)
class ExponentPolynomial:
    """The exponent f of a diagonal operator e^{i f(x)}, as a univariate
    polynomial. Coefficients are stored lowest degree first and may be
    Fractions (exact) or floats."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int):
        if k < len(self.coefficients):
            return self.coefficients[k]
        zero = Fraction(0) if _exactable(*self.coefficients) else 0.0
        return zero

    def __sub__(self, other: "ExponentPolynomial") -> "ExponentPolynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        return ExponentPolynomial(
            tuple(self.coefficient(k) - other.coefficient(k) for k in range(n))
        )

    def shifted(self, s) -> "ExponentPolynomial":
        """The polynomial f(x + s), i.e. the exponent after conjugation by
        the position displacement X(s)."""
        n = len(self.coefficients)
        out = [self.coefficient(0) * 0] * n
        for k, c in enumerate(self.coefficients):
            # binomial expansion of c (x + s)^k
            for m in range(k + 1):
                out[m] += c * math.comb(k, m) * s ** (k - m)
        return ExponentPolynomial(tuple(out))


def verify_cubic_feedforward(kappa, s1) -> ExponentPolynomial:
    """Residual exponent of X(s1)^dag D2'(kappa, s1) X(s1) minus kappa x^3.

    D2'(kappa, s1) = e^{3 i kappa s1 x (s1 - x)} e^{i kappa x^3} is the
    measurement-basis modification that lets a cubic gate commute through an
    earlier position displacement. The identity
    D2'(kappa, s1) X(s1) = X(s1) D2(kappa) holds iff the residual returned
    here is the constant kappa s1^3, which is a pure global phase.

    With exact (int/Fraction) inputs the computation is exact.
    """
    if _exactable(kappa, s1):
        kappa, s1 = Fraction(kappa), Fraction(s1)
        zero = Fraction(0)
    else:
        kappa, s1 = float(kappa), float(s1)
        zero = 0.0
    # exponent of D2': 3 kappa s1 x (s1 - x) + kappa x^3
    d2_prime = ExponentPolynomial((zero, 3 * kappa * s1**2, -3 * kappa * s1, kappa))
    cubic = ExponentPolynomial((zero, zero, zero, kappa))
    return d2_prime.shifted(s1) - cubic


def bch_squeezer_residual(kappa: float) -> float:
    """Frobenius norm of S_pshear(k) S_shear(k) - S_rot(k) S_sq(k^2/2).

    Quantifies the O(kappa^3) error in splitting the combined shear pair
    into a rotation times a squeezer.
    """
    lhs = p_shear(kappa).S @ shear(kappa).S
    rhs = rotation(kappa).S @ squeezer(kappa**2 / 2).S
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
