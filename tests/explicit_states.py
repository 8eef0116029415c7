"""Explicit resource states and displacements, a test oracle.

The library reads the off-line channels off their affine maps and keeps a
protocol's displacement in its channel's d. These constructions build the
two-mode resources and displaced states themselves, so the tests can hold
the channels and the byproduct frame against explicit states.
"""

from __future__ import annotations

import cvcluster as cv


def epr_resource(r: float) -> cv.GaussianState:
    """Two-mode squeezed state: a 50:50 beamsplitter on p-squeezed (x)
    x-squeezed inputs. Satisfies Var(x1 - x2) = Var(p1 + p2) = e^{-2r}/2."""
    pair = cv.tensor(cv.squeezed_vacuum(r, axis="p"), cv.squeezed_vacuum(r, axis="x"))
    return cv.apply_gate(pair, cv.beamsplitter_5050(), [0, 1])


def modified_resource(r: float, u_gate: cv.SymplecticGate) -> cv.GaussianState:
    """EPR resource with a single-mode gate applied to its second half,
    so that teleporting through it applies the gate to the input."""
    if u_gate.n_modes != 1:
        raise ValueError("u_gate must be a single-mode gate")
    return cv.apply_gate(epr_resource(r), u_gate, [1])


def displace(state: cv.GaussianState, mode: int, u: float, v: float) -> cv.GaussianState:
    """Weyl-Heisenberg displacement X(u)Z(v): shift one mode's mean by (u, v)."""
    i, j = state.mode_indices(mode)
    mean = state.mean.copy()
    mean[i] += u
    mean[j] += v
    return cv.GaussianState(mean, state.cov)
