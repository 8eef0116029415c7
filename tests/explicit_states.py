"""Explicit resource states, displacements and circuits, a test oracle.

The library reads the off-line channels off their affine maps, stated in
closed form; a protocol's channel holds only S and N, and displaces nothing.
These constructions build the two-mode resources, the three-mode
teleportation circuit and displaced states themselves, so the tests can hold
the channels and the byproduct frame against explicit states and circuits.
"""

from __future__ import annotations

import math

import numpy as np

import cvcluster as cv


def epr_resource(r: float) -> cv.GaussianState:
    """Two-mode squeezed state: a 50:50 beamsplitter on p-squeezed (x)
    x-squeezed inputs. Satisfies Var(x1 - x2) = Var(p1 + p2) = e^{-2r}/2."""
    pair = cv.tensor(cv.squeezed_vacuum(r, axis="p"), cv.squeezed_vacuum(r, axis="x"))
    return cv.apply_gate(pair, cv.beamsplitter_5050(), [0, 1])


def modified_resource(r: float, u_gate: np.ndarray) -> cv.GaussianState:
    """EPR resource with a single-mode gate (its 2 x 2 matrix) applied to its
    second half, so that teleporting through it applies the gate to the input."""
    if np.shape(u_gate) != (2, 2):
        raise ValueError("u_gate must be a single-mode gate")
    return cv.apply_gate(epr_resource(r), u_gate, [1])


def displace(state: cv.GaussianState, mode: int, u: float, v: float) -> cv.GaussianState:
    """Weyl-Heisenberg displacement X(u)Z(v): shift one mode's mean by (u, v)."""
    i, j = state.mode_indices(mode)
    mean = state.mean.copy()
    mean[i] += u
    mean[j] += v
    return cv.GaussianState(mean, state.cov)


def offline_circuit(gate_S: np.ndarray, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the off-line teleporter's readings (u, v) and of its
    corrected output, over the input's (x, p) and the resource's x_1, p_1,
    x_2, p_2 (x_1 and p_2 anti-squeezed), from the three-mode circuit:
    beamsplitter on the resource, the gate on mode 2, beamsplitter on the
    input and mode 1, (u, v) = sqrt2 (x_1', p_0'), output mode 2 + gain (u, v)."""
    bs = cv.beamsplitter_5050()
    S_big = (
        cv.embed_symplectic(bs, [0, 1], 3)
        @ cv.embed_symplectic(gate_S, [2], 3)
        @ cv.embed_symplectic(bs, [1, 2], 3)
    )
    uv_rows = math.sqrt(2.0) * np.vstack([S_big[2], S_big[1]])
    return uv_rows, S_big[4:6] + gain @ uv_rows
