"""Step-by-step execution of measurement-based protocols on linear clusters.

Each step measures the rotated quadrature p + kappa x of the current head
mode and leaves a Weyl-Heisenberg byproduct X(s) on the teleported state.
The engine tracks the byproduct frame and evaluates the corrected output at
the Weyl-Heisenberg level: the measured functionals commute with the
corrected output quadratures and with each other (this is exactly the
Clifford parallelism that lets all homodyne detections run simultaneously),
so the corrected output operators

    x_out - u(s_1..s_k),   p_out - v(s_1..s_k)

are affine combinations of the initial quadratures: the input mode 0 and
the independent p-squeezed resource modes 1..k. The CZ chain only couples
neighbours, so the measured functional of step j is the banded row
m_j = p_j + kappa_j x_j + x_{j-1} + x_{j+1}, and the whole evaluation is
O(k) in the number of steps:

* one array call of ``update_frame`` on probe frames gives every step's
  linear action, and one backward pass folds those into the frame weights
  T_j = d(frame)/d(s_j), written straight into the padded rows it reads;
* the corrected output ``out - T m`` is read off as coefficient vectors
  over the initial quadratures, a few shifted slices of T. That affine map
  is the protocol's channel (``chain_channel``, through the readout
  ``affine_channel`` that every protocol shares): its input columns are S,
  and the product-state variances of its resource columns give N;
* outcome records are drawn exactly by sampling the product state (a 2x2
  Cholesky factor for the input, independent normals for the resource) and
  applying the banded functionals. The channel never reads them, so a
  protocol report draws its records the first time they are read, and a
  report read only for its channel draws none. ``chain_records`` draws one
  trial's ``RecordColumns`` (kappa, theta, raw and rescaled outcome) per
  seed, and computes what does not depend on the trial's seed (the basis,
  the resource deviations, the input's factor) once per call.

This makes the corrected output exactly outcome- and seed-independent, with
finite squeezing entering only as additive noise. A chain is its list of
kappas and a byproduct frame its pair (u, v); ``run_protocol`` alone folds one
trial's outcomes through ``update_frame`` into a frame, and alone takes its
steps as ``StepPlan`` tuples. A channel's S and N are read-only.

This module holds the cluster chain's map. The off-line protocols' map is
stated in ``protocols`` and read through the same ``affine_channel``;
``resource_variances`` gives both families the resource variances. Every
draw takes an integer seed, which ``phase_space._generator`` alone turns
into a PCG64 generator.

The single-shot Bayesian posterior (where the conditional mean is pulled
toward the finite-squeezing envelope) is a different object; it is available
through ``phase_space.homodyne``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .phase_space import VACUUM_VARIANCE, GaussianState, _generator, _readonly, _value_eq


class StepPlan(NamedTuple):
    """One cluster step of ``run_protocol``: measure p + kappa x (kappa = 0 is
    a plain p detection that just propagates the state)."""

    kappa: float


class RecordColumns(NamedTuple):
    """Homodyne events as columns of Python numbers: entry j of every column
    is event j. A chain trial has one event per step; the columns that do not
    depend on the outcomes are tuples or ranges that every trial shares.

    ``theta`` is the local-oscillator angle; for cluster steps the raw
    reading of (p cos(theta) - x sin(theta)) is rescaled by 1/cos(theta) to
    give the value of p + kappa x. The off-line protocols store their own
    rescaling (the sqrt(2) beamsplitter factor).
    """

    step_index: Sequence[int]
    mode: Sequence[int]
    kappa: Sequence[float]
    theta: Sequence[float]
    raw_outcome: Sequence[float]
    rescaled_outcome: Sequence[float]


@dataclass(frozen=True)
class GaussianChannel:
    """Channel mu -> S mu, cov -> S cov S^T + N; zero-mean resources displace nothing."""

    S: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "S", _readonly(self.S))
        object.__setattr__(self, "N", _readonly(self.N))

    __eq__ = _value_eq

    def apply(self, state: GaussianState) -> GaussianState:
        cov = self.S @ state.cov @ self.S.T + self.N
        return GaussianState(self.S @ state.mean, 0.5 * (cov + cov.T))


def measurement_basis(kappa):
    """Local-oscillator angle and rescale factor measuring p + kappa x, for a
    kappa or elementwise for an array of them.

    theta = atan(-kappa), rescale = 1/cos(theta) = sqrt(1 + kappa^2);
    (p cos(theta) - x sin(theta)) * rescale = p + kappa x.
    """
    return np.arctan(-kappa), np.sqrt(1.0 + kappa * kappa)


def update_frame(frame: tuple, s: float, kappa: float) -> tuple:
    """Push the frame (u, v), the pending X(u)Z(v), through one step and absorb
    the new outcome (elementwise, for arrays of u, v, outcomes and kappas).

    One step applies X(s) F D(kappa); commuting the existing X(u)Z(v)
    through gives X(s) F D X(u)Z(v) = X(s - kappa u - v) Z(u) F D.
    """
    u, v = frame
    return s - kappa * u - v, u


# ---------------------------------------------------------------------------
# per-step evaluation of the chain
#
# The corrected output is assembled as coefficient vectors over the initial
# product-state quadratures, never as the entangled covariance: the weights
# on the anti-squeezed resource positions (variance 2.5e9 at 100 dB) cancel
# between the output row and the frame correction before any variance
# multiplies them. Forming the entangled covariance first would lose that
# cancellation to rounding at high squeezing.

def _corrected_weights(kappas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (Wx, Wp) of the corrected output rows over x_0..x_k and
    p_0..p_k of the product state (mode 0 the input, modes 1..k resource).

    update_frame is linear in (frame, s) and elementwise, so one call on
    three probe frames over every step's kappa gives each step's injection
    b_j (the zero frame with s = 1) and the columns of its propagation
    matrix A_j (the unit u and unit v frames with s = 0). One backward pass
    then folds them into the frame weights T_j = d(frame)/d(s_j) =
    A_{k-1} ... A_{j+1} b_j. After the CZ chain the measured functional of
    step j is m_j = p_j + kappa_j x_j + x_{j-1} + x_{j+1}, and the output
    mode k carries x_out = x_k, p_out = p_k + x_{k-1}; the corrected rows
    are out - T m.
    """
    k = kappas.size
    # probe 0 is (s, u, v) = (1, 0, 0), probe 1 is (0, 1, 0), probe 2 is (0, 0, 1)
    s, u, v = np.repeat(np.eye(3)[:, :, None], k, axis=2)
    step_u, step_v = update_frame((u, v), s, kappas)
    (bu, a0u, a1u), (bv, a0v, a1v) = step_u.tolist(), step_v.tolist()
    T0, T1 = [0.0] * (k + 3), [0.0] * (k + 3)  # entry j + 1 holds T_j; T_{-1} = T_k = T_{k+1} = 0
    g00, g01, g10, g11 = 1.0, 0.0, 0.0, 1.0  # A_{k-1} ... A_{j+1}
    for j in range(k - 1, -1, -1):
        T0[j + 1] = g00 * bu[j] + g01 * bv[j]
        T1[j + 1] = g10 * bu[j] + g11 * bv[j]
        g00, g01, g10, g11 = (
            g00 * a0u[j] + g01 * a0v[j],
            g00 * a1u[j] + g01 * a1v[j],
            g10 * a0u[j] + g11 * a0v[j],
            g10 * a1u[j] + g11 * a1v[j],
        )
    padded = np.array([T0, T1])
    kappa_x = np.zeros(k + 1)  # kappa_k = 0: the output mode k is not measured
    kappa_x[:k] = kappas
    # kappa_j T_j + T_{j+1} is summed in the order the backward pass folds
    # it into T_{j-1}, so a correct frame rule cancels the weights on the
    # anti-squeezed x_1..x_k exactly rather than to rounding: at 300 dB their
    # variance is 2.5e29, and any residue would swamp N.
    Wx = -(padded[:, : k + 1] + (kappa_x * padded[:, 1 : k + 2] + padded[:, 2:]))
    Wp = -padded[:, 1 : k + 2]
    Wx[0, k] += 1.0
    Wx[1, k - 1] += 1.0
    Wp[1, k] += 1.0
    return Wx, Wp


def _kappas(steps: Sequence[float]) -> np.ndarray:
    try:
        kappas = np.array(steps, dtype=float)
    except OverflowError:  # a Python int past the largest float: not finite
        kappas = np.array([math.inf])
    if kappas.size < 1:
        raise ValueError("at least one step is required")
    if not all(map(math.isfinite, kappas.tolist())):
        raise ValueError("kappa must be finite")
    return kappas


def resource_variances(r: float) -> tuple[float, float]:
    """Variances of an anti-squeezed and a squeezed resource quadrature."""
    return math.exp(2 * r) * VACUUM_VARIANCE, math.exp(-2 * r) * VACUUM_VARIANCE


def _scaled_noise(var: float, W: np.ndarray) -> np.ndarray:
    """var W W^T, formed from W's rows and var scaled by exact powers of two
    and unscaled at the end, so that it overflows only where its value does."""
    _, rows = np.frexp(np.max(np.abs(W), axis=1, initial=0.0))  # each row's exponent
    scaled = np.ldexp(W, -rows[:, None])
    mantissa, exponent = math.frexp(var)
    return np.ldexp(mantissa * (scaled @ scaled.T), rows[:, None] + rows + exponent)


def affine_channel(
    S: Sequence | np.ndarray, anti: np.ndarray, squeezed: np.ndarray, r: float
) -> tuple[GaussianChannel, float]:
    """The channel of a corrected protocol, an outcome-free affine map of a
    product state (Heisenberg picture), read off the map's weights on the
    input (S), on the anti-squeezed resource quadratures (variance
    e^{2r}/4) and on the squeezed ones (e^{-2r}/4):
    N = var_anti anti anti^T + var_squeezed squeezed squeezed^T.

    Also returns the leak, the largest anti-squeezed weight: a correction
    that matches the byproduct cancels those weights exactly.
    """
    var_anti, var_squeezed = resource_variances(r)
    N = var_anti * (anti @ anti.T) + var_squeezed * (squeezed @ squeezed.T)
    if not all(map(math.isfinite, N.ravel().tolist())):
        # W W^T can pass the largest float while var W W^T does not, as for
        # the off-line squeezer's weights e^{r_gate} near its limit
        N = _scaled_noise(var_anti, anti) + _scaled_noise(var_squeezed, squeezed)
    leak = float(np.max(np.abs(anti)))
    return GaussianChannel(S=S, N=0.5 * (N + N.T)), leak


def chain_channel(steps: Sequence[float], cluster_r: float) -> tuple[GaussianChannel, float]:
    """The corrected channel and leak of the cluster chain of kappas ``steps``
    (``affine_channel``); of its resource quadratures, x_1..x_k are anti-squeezed."""
    Wx, Wp = _corrected_weights(_kappas(steps))
    (x0, x1), (p0, p1) = Wx[:, 0].tolist(), Wp[:, 0].tolist()  # the input's weights are S
    return affine_channel([[x0, p0], [x1, p1]], Wx[:, 1:], Wp[:, 1:], cluster_r)


def pair_sampler(mean: Sequence[float], law) -> Callable[[float, float], tuple[float, float]]:
    """The draw (u, v) = mean + L z from the 2x2 law [[a, b], [b, c]] of a
    standard normal pair z, L the law's lower Cholesky factor in closed form:
    l00 = sqrt(a), l10 = b / l00, l11 = sqrt(c - l10^2), b read below the
    diagonal. In Python floats, so no BLAS kernel decides a draw's bits. A
    pivot that is not > 0 (NaN included) is refused, as LAPACK refuses it.
    """
    m0, m1 = mean
    (a, _), (b, c) = law
    l00 = math.sqrt(a) if a > 0 else math.nan  # a refused first pivot makes the second NaN
    l10 = b / l00
    pivot = c - l10 * l10
    if not pivot > 0:
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    l11 = math.sqrt(pivot)
    return lambda z0, z1: (m0 + l00 * z0, m1 + (l10 * z0 + l11 * z1))


def chain_records(
    input_state: GaussianState,
    steps: Sequence[float],
    cluster_r: float,
    seeds: Iterable,
) -> tuple[RecordColumns, ...]:
    """The record columns of one chain trial per integer seed, in order.

    A trial is one exact draw of (m_0..m_{k-1}): sample the product state,
    then apply the banded functionals. The basis, the resource deviations
    and the input's Cholesky factor are computed once per call.
    """
    if input_state.n_modes != 1:
        raise ValueError("input must be a single-mode state")
    kappas = _kappas(steps)
    k = kappas.size
    thetas, rescales = measurement_basis(kappas)
    indices, kappa_column, theta_column = range(k), tuple(kappas.tolist()), tuple(thetas.tolist())
    sd_x, sd_p = map(math.sqrt, resource_variances(cluster_r))
    draw_input = pair_sampler(input_state.mean.tolist(), input_state.cov.tolist())
    trials = []
    for seed in seeds:
        z = _generator(seed).standard_normal(2 * (k + 1))
        q_in = draw_input(*z[:2].tolist())
        x = np.empty(k + 2)  # x[j + 1] = x_j, with x_{-1} = 0
        x[0] = 0.0
        x[1] = q_in[0]
        x[2:] = sd_x * z[2::2]
        p = np.empty(k)
        p[0] = q_in[1]
        p[1:] = sd_p * z[3:-2:2]
        rescaled = p + kappas * x[1 : k + 1] + x[:k] + x[2:]
        raws = rescaled / rescales
        trials.append(
            RecordColumns(
                indices, indices, kappa_column, theta_column, raws.tolist(), rescaled.tolist()
            )
        )
    return tuple(trials)


def run_protocol(
    input_state: GaussianState,
    steps: Sequence[StepPlan],
    cluster_r: float,
    seed: int,
) -> tuple[GaussianState, RecordColumns, tuple[float, float]]:
    """Teleport an input through a linear cluster, one measured node per step.

    The input is attached as mode 0 to a len(steps)-node cluster at squeezing
    ``cluster_r``; step j measures p + kappa_j x of mode j and the unmeasured
    final mode carries the output; the outcomes are drawn with the integer
    ``seed``.

    Returns the uncorrected output state (byproduct displacement still in its
    mean), the trial's record columns, and the accumulated byproduct frame (u, v).
    """
    # no report calls this; it and StepPlan stay while the benchmark's k_exponent
    # probe (perfbench/workload.py) and CI's traced benchmark run call it
    kappas = [step.kappa for step in steps]
    (columns,) = chain_records(input_state, kappas, cluster_r, [seed])
    frame = (0.0, 0.0)
    for value, kappa in zip(columns.rescaled_outcome, columns.kappa):
        frame = update_frame(frame, value, kappa)
    corrected = chain_channel(kappas, cluster_r)[0].apply(input_state)
    uncorrected = GaussianState(corrected.mean + np.array(frame), corrected.cov)
    return uncorrected, columns, frame
