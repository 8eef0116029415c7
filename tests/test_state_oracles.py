"""The state oracles of ``state_oracles.py`` against closed forms."""

import math

import numpy as np
import pytest

import cvcluster as cv
from state_oracles import overlap_fidelity, purity


class TestOverlapFidelity:
    def test_identical_vacua(self):
        assert overlap_fidelity(cv.vacuum_state(1), cv.vacuum_state(1)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_vacuum_against_unit_coherent(self):
        fid = overlap_fidelity(cv.vacuum_state(1), cv.coherent_state(1.0, 0.0))
        assert fid == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_vacuum_against_noisy_vacuum(self):
        noisy = cv.GaussianState(np.zeros(2), (0.25 + 0.05) * np.eye(2))
        fid = overlap_fidelity(cv.vacuum_state(1), noisy)
        assert fid == pytest.approx(1.0 / 1.1, rel=1e-12)

    def test_rejects_mixed_first_argument(self):
        noisy = cv.GaussianState(np.zeros(2), 0.3 * np.eye(2))
        with pytest.raises(ValueError):
            overlap_fidelity(noisy, cv.vacuum_state(1))


# single-mode covariances whose a*c - b*b is zero and negative
non_positive_determinant = pytest.mark.parametrize(
    "cov",
    [0.25 * np.ones((2, 2)), np.array([[0.25, 0.5], [0.5, 0.25]])],
    ids=["zero", "negative"],
)


class TestNonPositiveDeterminantRefused:
    @non_positive_determinant
    def test_purity_names_the_determinant(self, cov):
        with pytest.raises(ValueError, match="positive covariance determinant"):
            purity(cv.GaussianState(np.zeros(2), cov))

    @non_positive_determinant
    def test_overlap_fidelity_refuses_it_the_same_way(self, cov):
        with pytest.raises(ValueError, match="positive covariance determinant"):
            overlap_fidelity(cv.GaussianState(np.zeros(2), cov), cv.vacuum_state(1))
