"""State oracles the tests hold reports and gates to: the purity of a
Gaussian state and the overlap of a pure single-mode state with any other,
each from the explicit covariance matrices."""

from __future__ import annotations

import math

import numpy as np

from cvcluster import VACUUM_VARIANCE, GaussianState


def _det(cov: np.ndarray) -> float:
    """det cov, as a*c - b*b for one mode: numpy's det is exp(log |det|), which
    adds about u |ln det| of relative error."""
    if cov.shape == (2, 2):
        (a, b), (_, c) = cov.tolist()
        return a * c - b * b
    return float(np.linalg.det(cov))


def purity(state: GaussianState) -> float:
    """Tr rho^2 = (1/4)^N / sqrt(det cov); a determinant that is not positive,
    as rounding leaves for a (nearly) singular covariance, is refused."""
    det = _det(state.cov)
    if not det > 0.0:
        raise ValueError(f"purity needs a positive covariance determinant, got {det!r}")
    return float(VACUUM_VARIANCE**state.n_modes / math.sqrt(det))


def overlap_fidelity(pure: GaussianState, rho: GaussianState) -> float:
    """Tr[|psi><psi| rho] for a pure single-mode ``pure`` against any ``rho``.

    Closed form in these units (vacuum = I/4):
    (1/2) exp(-delta^T (A+B)^{-1} delta / 2) / sqrt(det(A+B)).
    """
    if pure.n_modes != 1 or rho.n_modes != 1:
        raise ValueError("overlap_fidelity is defined for single-mode states")
    if abs(purity(pure) - 1.0) > 1e-9:
        raise ValueError("first argument must be a pure state")
    total = pure.cov + rho.cov
    delta = pure.mean - rho.mean
    quad = float(delta @ np.linalg.solve(total, delta))
    return float(0.5 * math.exp(-0.5 * quad) / math.sqrt(_det(total)))
