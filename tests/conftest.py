"""Shared oracles and state generators for the test suite.

The oracles deliberately take different computational routes from the code
they check: gate matrices come from exponentiating the commutator generator,
Gaussian conditioning goes through the full precision matrix in the
measured mode's own frame (shared with ``verify``), and the chain channel
comes from a plain 2x2 recursion.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

import cvcluster as cv
from cvcluster import checks, engine, protocols


def blockwise_J(n_modes: int) -> np.ndarray:
    J = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        J[2 * m, 2 * m + 1] = 1.0
        J[2 * m + 1, 2 * m] = -1.0
    return J


def heisenberg_oracle(G: np.ndarray) -> np.ndarray:
    """Symplectic matrix of U = e^{iH} for H = q^T G q with [x, p] = i/2.

    From -i[H, q] = -J G q the flow integrates to expm(-J G).
    """
    return expm(-blockwise_J(G.shape[0] // 2) @ G)


def condition_on_functional_oracle(
    state: cv.GaussianState, quad: cv.Quadrature, outcome: float
) -> tuple[float, cv.GaussianState]:
    """What ``homodyne(state, quad, forced=outcome)`` returns, by conditioning
    through the precision matrix in the measured mode's own frame
    (``checks._oracle_condition``, which ``verify`` runs too). The two
    inverses leave the covariance symmetric only to rounding, so it is
    symmetrized for ``GaussianState``, as ``homodyne`` does."""
    mean, cov = checks._oracle_condition([state], [quad], [outcome])
    return outcome, cv.GaussianState(mean[0], 0.5 * (cov[0] + cov[0].T))


def random_gaussian_state(seed: int, n_modes: int, displaced: bool = True) -> cv.GaussianState:
    """A well-conditioned random pure state built from bounded basic gates
    (``checks._draw_states`` and ``checks._build_states``), seeded per call."""
    rng = np.random.Generator(np.random.PCG64(seed))
    state = checks._build_states(checks._draw_states(rng, np.array([n_modes])), np.arange(1))[0]
    # the gates leave the mean at zero; the displacement is the last draw
    return state if displaced else cv.GaussianState(np.zeros(2 * n_modes), state.cov)


def step_noise_oracle(kappas, r):
    """Accumulate the per-step channel independently of the engine.

    Step j contributes e^{-2r}/4 to the momentum quadrature right after its
    Fourier-shear map; downstream steps conjugate it. S is the ordered
    product of the single-step matrices.
    """
    a = math.exp(-2 * r) / 4
    S_total = np.eye(2)
    N = np.zeros((2, 2))
    for kappa in kappas:
        step = cv.fourier_shear_step(kappa)
        S_total = step @ S_total
        N = step @ N @ step.T
        N[1, 1] += a
    return S_total, N


def patch_squeezed_variance(monkeypatch, scale):
    """Scale the squeezed resource variance e^{-2r}/4 that every channel's
    noise and the off-line readings' law are read with."""
    resource_variances = engine.resource_variances

    def scaled(r):
        var_anti, var_squeezed = resource_variances(r)
        return var_anti, scale * var_squeezed

    for module in (engine, protocols):
        monkeypatch.setattr(module, "resource_variances", scaled)
