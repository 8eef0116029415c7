"""Shared oracles and state generators for the test suite.

The oracles here deliberately take different computational routes from the
package: gate matrices come from exponentiating the commutator generator,
and Gaussian conditioning goes through the full precision matrix.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

import cvcluster as cv


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
    mean: np.ndarray, cov: np.ndarray, c: np.ndarray, outcome: float
) -> tuple[np.ndarray, np.ndarray]:
    """Condition a joint Gaussian on c . q = outcome via the precision matrix.

    Rotates the measured direction onto the first coordinate, inverts the
    full covariance, and reads the conditional moments off the precision
    blocks.
    """
    n = c.size
    rows = [c / np.linalg.norm(c)]
    for e in np.eye(n):
        w = e - sum(np.dot(e, b) * b for b in rows)
        if np.linalg.norm(w) > 1e-9:
            rows.append(w / np.linalg.norm(w))
    L = np.vstack(rows)
    mu_t = L @ mean
    prec = np.linalg.inv(L @ cov @ L.T)
    cov_rest = np.linalg.inv(prec[1:, 1:])
    mu_rest = mu_t[1:] - cov_rest @ prec[1:, 0] * (outcome / np.linalg.norm(c) - mu_t[0])
    back = np.linalg.inv(L)
    mu_full = back @ np.concatenate([[outcome / np.linalg.norm(c)], mu_rest])
    cov_full = back[:, 1:] @ cov_rest @ back[:, 1:].T
    return mu_full, cov_full


def random_gaussian_state(seed: int, n_modes: int, displaced: bool = True) -> cv.GaussianState:
    """A well-conditioned random pure state built from bounded basic gates."""
    rng = np.random.Generator(np.random.PCG64(seed))
    state = cv.vacuum_state(n_modes)
    for _ in range(3 * n_modes):
        mode = int(rng.integers(n_modes))
        kind = int(rng.integers(4))
        if kind == 0:
            state = cv.apply_gate(state, cv.rotation(rng.uniform(-math.pi, math.pi)), [mode])
        elif kind == 1:
            state = cv.apply_gate(state, cv.squeezer(rng.uniform(-1.0, 1.0)), [mode])
        elif kind == 2:
            state = cv.apply_gate(state, cv.shear(rng.uniform(-1.5, 1.5)), [mode])
        elif n_modes > 1:
            other = int(rng.integers(n_modes - 1))
            other = other if other < mode else other + 1
            state = cv.apply_gate(state, cv.controlled_z(), [mode, other])
    if displaced:
        state = cv.GaussianState(state.mean + rng.normal(0.0, 1.0, 2 * n_modes), state.cov)
    return state


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
