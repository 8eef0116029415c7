"""Gaussian states and Gaussian unitaries in phase space.

Conventions used throughout the package:

* annihilation operator ``a = x + i p``, hence ``[x, p] = i/2`` and the
  vacuum has variance 1/4 in each quadrature;
* quadratures are interleaved per mode, ``(x1, p1, x2, p2, ...)``;
* a gate acts forward on moments, ``mu -> S mu`` and ``cov -> S cov S^T``;
  the rows of ``S`` coincide with the Heisenberg transforms of the
  quadratures written in the old operators;
* a gate is its read-only 2k x 2k symplectic matrix ``S`` on k modes. Gates
  carry no displacement; a protocol's channel keeps its own ``d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

VACUUM_VARIANCE = 0.25

# e^{-2r} = 1e-10; squeezing at or beyond this is treated as the ideal limit
IDEAL_SQUEEZING_R = 0.5 * math.log(1e10)

_SYMMETRY_TOL = 1e-12
_DEGENERATE_VARIANCE_TOL = 1e-12
_DEGENERATE_OUTCOME_ATOL = 1e-6


class DegenerateMeasurementError(ValueError):
    """A forced outcome conflicts with a (near) zero-variance quadrature."""


def _readonly(a, ndmin: int = 0) -> np.ndarray:
    a = np.array(a, dtype=float, ndmin=ndmin)
    a.setflags(write=False)
    return a


def _value_eq(self, other):
    """``==`` of a dataclass's compared fields, arrays by their entries."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a is b or a == b
               for a, b in pairs)


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of N modes.

    ``mean`` has length 2N and ``cov`` is a symmetric 2N x 2N matrix in the
    interleaved quadrature order. Both are stored read-only; operations
    return new states.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _readonly(self.mean, ndmin=1)
        cov = _readonly(self.cov, ndmin=2 if np.ndim(self.cov) else 0)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise ValueError(f"mean must have even length, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"cov shape {cov.shape} inconsistent with mean length {mean.size}"
            )
        if cov.size and abs(cov - cov.T).max() > _SYMMETRY_TOL:
            raise ValueError("covariance matrix is not symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    __eq__ = _value_eq

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def mode_indices(self, mode: int) -> tuple[int, int]:
        if not 0 <= mode < self.n_modes:
            raise ValueError(f"mode {mode} out of range for {self.n_modes} modes")
        return 2 * mode, 2 * mode + 1


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal J with per-mode blocks [[0, 1], [-1, 0]]."""
    J = np.zeros((2 * n_modes, 2 * n_modes))
    # row-major, the entries (2m, 2m + 1) and (2m + 1, 2m) recur every 4n + 2
    flat, step = J.ravel(), 4 * n_modes + 2
    flat[1::step], flat[2 * n_modes :: step] = 1.0, -1.0
    return J


def symplectic_defect(S: np.ndarray) -> float:
    """max |S J S^T - J|; zero (to rounding) for a symplectic matrix."""
    J = symplectic_form(S.shape[0] // 2)
    return float(np.max(np.abs(S @ J @ S.T - J)))


def uncertainty_defect(state: GaussianState) -> float:
    """Violation of cov + (i/4)J >= 0, normalized by the spectral scale.

    The eigensolver is accurate to eps * ||cov||, so at high squeezing the
    raw smallest eigenvalue of a physical state can dip below zero by that
    much; the normalized defect stays at roundoff (<< 1e-12) for physical
    states regardless of scale.
    """
    J = symplectic_form(state.n_modes)
    eig = np.linalg.eigvalsh(state.cov + 0.25j * J)
    scale = max(1.0, float(eig[-1].real))
    return max(0.0, -float(eig[0].real)) / scale


# ---------------------------------------------------------------------------
# state constructors


def vacuum_state(n_modes: int) -> GaussianState:
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return GaussianState(np.zeros(2 * n_modes), VACUUM_VARIANCE * np.eye(2 * n_modes))


def squeezed_vacuum(r: float, axis: str) -> GaussianState:
    """Single-mode squeezed vacuum; ``axis`` names the squeezed quadrature.

    ``axis="p"`` gives cov diag(e^{2r}/4, e^{-2r}/4) and ``axis="x"`` the
    transpose arrangement. Negative r is rejected; use the other axis.
    """
    if r < 0:
        raise ValueError("r must be >= 0; squeeze the other axis instead")
    if axis not in ("x", "p"):
        raise ValueError(f"axis must be 'x' or 'p', got {axis!r}")
    big = math.exp(2 * r) * VACUUM_VARIANCE
    small = math.exp(-2 * r) * VACUUM_VARIANCE
    diag = [small, big] if axis == "x" else [big, small]
    return GaussianState(np.zeros(2), np.diag(diag))


def coherent_state(alpha_re: float, alpha_im: float) -> GaussianState:
    """Coherent state; with a = x + ip the mean is (Re alpha, Im alpha)."""
    return GaussianState(
        np.array([alpha_re, alpha_im]), VACUUM_VARIANCE * np.eye(2)
    )


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((mean.size, mean.size))
    cov[: a.mean.size, : a.mean.size] = a.cov
    cov[a.mean.size :, a.mean.size :] = b.cov
    return GaussianState(mean, cov)


# ---------------------------------------------------------------------------
# gate constructors


def controlled_z() -> np.ndarray:
    """QND coupling e^{2i x(x)x}: adds each mode's x to the other's p."""
    S = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 1.0],
        ]
    )
    return _readonly(S)


def controlled_z_pp() -> np.ndarray:
    """Momentum-coupled variant e^{2i p(x)p}: subtracts momenta from positions."""
    S = np.array(
        [
            [1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return _readonly(S)


def fourier() -> np.ndarray:
    """Quarter rotation: x -> -p, p -> x."""
    return _readonly([[0.0, -1.0], [1.0, 0.0]])


def rotation(theta: float) -> np.ndarray:
    """Phase-space rotation e^{i theta (x^2 + p^2)}; theta = pi/2 is fourier()."""
    c, s = math.cos(theta), math.sin(theta)
    return _readonly([[c, -s], [s, c]])


def shear(kappa: float) -> np.ndarray:
    """Quadratic phase gate e^{i kappa x^2}: p -> p + kappa x."""
    return _readonly([[1.0, 0.0], [kappa, 1.0]])


def p_shear(kappa: float) -> np.ndarray:
    """Momentum-quadratic phase e^{i kappa p^2}: x -> x - kappa p."""
    return _readonly([[1.0, -kappa], [0.0, 1.0]])


def squeezer(r: float) -> np.ndarray:
    """Single-mode squeezer e^{i r (xp + px)}: x -> e^{-r} x, p -> e^{+r} p."""
    return _readonly(np.diag([math.exp(-r), math.exp(r)]))


def beamsplitter_5050() -> np.ndarray:
    """Symmetric beamsplitter; mode 1 takes the + combination.

    Acts as (q1, q2) -> ((q1+q2)/sqrt2, (q1-q2)/sqrt2) on both the x and p
    quadratures. This sign choice is the one the off-line teleporter's closed
    form in ``protocols._offline_report`` is derived from; the tests hold that
    form to the three-mode circuit built of this gate.
    """
    h = 1.0 / math.sqrt(2.0)
    S = np.array(
        [
            [h, 0.0, h, 0.0],
            [0.0, h, 0.0, h],
            [h, 0.0, -h, 0.0],
            [0.0, h, 0.0, -h],
        ]
    )
    return _readonly(S)


# ---------------------------------------------------------------------------
# applying maps to states


def embed_symplectic(S: np.ndarray, modes: Sequence[int], n_modes: int) -> np.ndarray:
    """Embed a 2k x 2k symplectic into the 2N x 2N space on the given modes.

    ``S`` must have shape (2k, 2k) for the k = ``len(modes)`` distinct modes,
    each in range; block (a, b) of ``S`` goes to the 2x2 block of modes
    (modes[a], modes[b]), and the rest of the result is the identity.
    """
    S = np.asarray(S, dtype=float)
    k = S.shape[0] // 2 if S.ndim else 0
    if S.shape != (2 * k, 2 * k):
        raise ValueError(f"S must have shape (2k, 2k), got {S.shape}")
    if len(modes) != k:
        raise ValueError(f"gate acts on {k} modes but {len(modes)} given")
    if len(set(modes)) != len(modes):
        raise ValueError(f"repeated mode in {list(modes)}")
    for m in modes:
        if not 0 <= m < n_modes:
            raise ValueError(f"mode {m} out of range for {n_modes} modes")
    full = np.eye(2 * n_modes)
    for a, row in enumerate(modes):
        for b, col in enumerate(modes):
            full[2 * row : 2 * row + 2, 2 * col : 2 * col + 2] = (
                S[2 * a : 2 * a + 2, 2 * b : 2 * b + 2]
            )
    return full


def apply_gate(state: GaussianState, gate: np.ndarray, modes: Sequence[int]) -> GaussianState:
    """mu -> S mu and cov -> S cov S^T, the covariance symmetrized, with the
    gate's matrix embedded on ``modes`` by ``embed_symplectic``."""
    S = embed_symplectic(gate, modes, state.n_modes)
    cov = S @ state.cov @ S.T
    return GaussianState(S @ state.mean, 0.5 * (cov + cov.T))


# ---------------------------------------------------------------------------
# measurement


def _generator(seed) -> np.random.Generator:
    """The PCG64 generator an integer outcome seed draws from; any other
    source, a bool, a float, a sequence or a Generator, is refused."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"an outcome seed must be an integer, got {type(seed).__name__}")
    return np.random.Generator(np.random.PCG64(seed))


def homodyne(
    state: GaussianState,
    mode: int,
    c_x: float,
    c_p: float,
    *,
    forced: float,
) -> tuple[float, GaussianState]:
    """Measure the quadrature ``c_x x + c_p p`` of ``mode`` and condition the
    remaining modes on the result.

    The coefficients must be finite, with a positive finite squared norm
    ``c_x^2 + c_p^2``. The outcome is ``forced``, which must be finite: the
    value of that functional of the measured mode. The measured mode is
    dropped, and only the quadratures of the remaining modes are updated, by
    exact Gaussian conditioning on that functional (Schur complement). A
    quadrature of (near) zero variance is not conditioned on, and a forced
    outcome away from its deterministic value is refused with
    ``DegenerateMeasurementError``.

    Returns ``(outcome, conditional state on the remaining modes)``.

    Note: this is the exact single-shot posterior. The conditional mean of
    downstream modes is pulled toward the finite-squeezing envelope, so it is
    not the Weyl-Heisenberg bookkeeping the measurement-based protocols use
    for their corrected outputs; see ``engine.chain_channel`` for that, and
    ``checks.measurement_picture_checks``, which holds the two to each other.
    """
    for name, value in (("c_x", c_x), ("c_p", c_p)):
        if not math.isfinite(value):
            raise ValueError(f"quadrature coefficient {name} must be finite, got {value}")
    # the squared norm divides the variance, so it must neither be zero nor
    # overflow (both zero, or finite but beyond about 1e154 or below 1e-162)
    norm2 = c_x * c_x + c_p * c_p
    if not 0.0 < norm2 < math.inf:
        raise ValueError(
            f"quadrature coefficients (c_x, c_p) = ({c_x!r}, {c_p!r}) must have "
            f"a positive finite squared norm c_x^2 + c_p^2, got {norm2!r}"
        )
    if state.n_modes < 1:
        raise ValueError("state must have at least one mode")
    if not math.isfinite(forced):
        raise ValueError(f"forced outcome must be finite, got {forced}")
    outcome = float(forced)
    i, j = state.mode_indices(mode)
    c = np.zeros(2 * state.n_modes)
    c[i], c[j] = c_x, c_p

    mu_c = float(c @ state.mean)
    c_cov = c @ state.cov
    var = float(c_cov @ c)
    degenerate = var / norm2 <= _DEGENERATE_VARIANCE_TOL

    # the quadratures of the other modes, the only ones conditioned
    keep = np.arange(2 * state.n_modes - 2)
    keep[i:] += 2
    mean, cov = state.mean[keep], state.cov[keep[:, None], keep]
    if degenerate:
        # pseudoinverse of the scalar variance: no conditioning update
        if abs(forced - mu_c) > _DEGENERATE_OUTCOME_ATOL:
            raise DegenerateMeasurementError(
                f"forced outcome {forced} inconsistent with deterministic value {mu_c}"
            )
    else:
        gain = (state.cov @ c / var)[keep]
        mean += gain * (outcome - mu_c)
        cov -= np.outer(gain, c_cov[keep])
    return outcome, GaussianState(mean, 0.5 * (cov + cov.T))
