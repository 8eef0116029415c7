"""Shared oracles and state generators for the test suite.

The oracles deliberately take different computational routes from the code
they check: gate matrices come from exponentiating the commutator generator,
Gaussian conditioning goes through the full precision matrix in the
measured mode's own frame, and the chain channel comes from a plain 2x2
recursion.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

import cvcluster as cv
from cvcluster import cli, engine, protocols


def benchmark_decks():
    """The benchmark's deck module, ``perfbench/decks.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "decks.py"
    spec = importlib.util.spec_from_file_location("decks", path)
    decks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(decks)
    return decks


def run_document(raw: dict) -> str:
    """The text of the run document that ``cvcluster run`` writes for the config ``raw``."""
    return cli._run_output(*cli.checked_config(raw), quiet=True)[0]


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
    state: cv.GaussianState, mode: int, c_x: float, c_p: float, outcome: float
) -> tuple[float, cv.GaussianState]:
    """What ``homodyne(state, mode, c_x, c_p, forced=outcome)`` returns, by conditioning
    through the precision matrix in the measured mode's own frame: the
    measured functional c / |c|, its complement (-c_p, c_x) / |c| on the same
    mode, and every other quadrature unchanged and in order. The conditional
    moments are read from the precision blocks with the functional pinned at
    outcome / |c|, and the complement is dropped. The two inverses leave the
    covariance symmetric only to rounding, so it is symmetrized for
    ``GaussianState``, as ``homodyne`` does."""
    dim, x = 2 * state.n_modes, 2 * mode
    norm = math.hypot(c_x, c_p)
    u_x, u_p = c_x / norm, c_p / norm
    L = np.zeros((dim, dim))
    L[0, x], L[0, x + 1], L[1, x], L[1, x + 1] = u_x, u_p, -u_p, u_x
    for row, k in enumerate([k for k in range(dim) if k not in (x, x + 1)], start=2):
        L[row, k] = 1.0
    mu_t = L @ state.mean
    lam = np.linalg.inv(L @ state.cov @ L.T)
    cov_cond = np.linalg.inv(lam[1:, 1:])
    mean = mu_t[1:] - cov_cond @ lam[1:, 0] * (outcome / norm - mu_t[0])
    cov = cov_cond[1:, 1:]
    return outcome, cv.GaussianState(mean[1:], 0.5 * (cov + cov.T))


def random_gaussian_state(seed: int, n_modes: int, displaced: bool = True) -> cv.GaussianState:
    """A well-conditioned random pure state built from bounded basic gates,
    seeded per call: 3N gate slots, each with a mode, a kind (rotation,
    squeezer, shear or CZ, an identity slot on one mode), an angle in
    [-pi, pi), a squeezing in [-1, 1), a shear in [-1.5, 1.5) and a CZ partner
    among the other modes, drawn one quantity at a time for every slot; then
    a displacement ~ N(0, 1) of each quadrature. The gates are applied one
    ``apply_gate`` at a time from the vacuum."""
    rng = np.random.Generator(np.random.PCG64(seed))
    slots = 3 * n_modes
    mode = rng.integers(0, n_modes, size=slots).tolist()
    kind = rng.integers(4, size=slots).tolist()
    theta, r, shear = (rng.uniform(-high, high, size=slots).tolist() for high in (math.pi, 1, 1.5))
    other = rng.integers(0, max(n_modes - 1, 1), size=slots).tolist()
    displacement = rng.normal(0.0, 1.0, size=2 * n_modes)
    state = cv.vacuum_state(n_modes)
    for t in range(slots):
        if kind[t] == 0:
            state = cv.apply_gate(state, cv.rotation(theta[t]), [mode[t]])
        elif kind[t] == 1:
            state = cv.apply_gate(state, cv.squeezer(r[t]), [mode[t]])
        elif kind[t] == 2:
            state = cv.apply_gate(state, cv.shear(shear[t]), [mode[t]])
        elif n_modes > 1:
            partner = other[t] + (other[t] >= mode[t])
            state = cv.apply_gate(state, cv.controlled_z(), [mode[t], partner])
    # the gates leave the mean at zero
    return cv.GaussianState(displacement if displaced else np.zeros(2 * n_modes), state.cov)


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
