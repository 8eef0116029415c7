"""Resource-state factory: linear cluster states.

A linear cluster is a chain of momentum-squeezed modes coupled by
controlled-Z gates. The off-line teleportation schemes read their
two-mode squeezed (EPR) resource off their affine maps (``protocols``).
"""

from __future__ import annotations

import numpy as np

from .phase_space import (
    GaussianState,
    apply_gate,
    controlled_z,
    squeezed_vacuum,
    tensor,
)


def linear_cluster(n_nodes: int, squeezing_r: float) -> GaussianState:
    """``n_nodes`` p-squeezed vacua, each squeezed by ``squeezing_r``, joined
    by one layer of CZ gates between adjacent nodes.

    The CZ gates all commute, so the layer is one symplectic: the identity
    plus a 1 that adds x_i to p_{i+1} and x_{i+1} to p_i for each edge. The
    nodes' product covariance is diagonal, so S times it is S with column j
    scaled by the j-th node variance: the node's diagonal and mean are
    repeated as lists, with no diagonal matrix formed.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if squeezing_r < 0:
        raise ValueError("squeezing_r must be >= 0")
    n, node = n_nodes, squeezed_vacuum(squeezing_r, axis="p")
    S = np.eye(2 * n)
    for i in range(n - 1):
        S[2 * i + 1, 2 * i + 2] = S[2 * i + 3, 2 * i] = 1.0
    cov = (S * (node.cov.diagonal().tolist() * n)) @ S.T  # each node's cov is diagonal
    return GaussianState(S @ (node.mean.tolist() * n), 0.5 * (cov + cov.T))


def attach_input(input_state: GaussianState, cluster: GaussianState) -> GaussianState:
    """Couple an external input to the head of a cluster with a CZ gate.

    The input becomes mode 0, so step j of a protocol consumes mode j and
    the chain numbering matches the usual circuit picture shifted by one.
    """
    if input_state.n_modes != 1:
        raise ValueError("input must be a single-mode state")
    if cluster.n_modes < 1:
        raise ValueError("cluster must be nonempty")
    return apply_gate(tensor(input_state, cluster), controlled_z(), [0, 1])

