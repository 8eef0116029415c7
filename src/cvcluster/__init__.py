"""Gaussian phase-space simulator for continuous-variable cluster computation."""

from .phase_space import (
    IDEAL_SQUEEZING_R,
    VACUUM_VARIANCE,
    DegenerateMeasurementError,
    GaussianState,
    apply_gate,
    beamsplitter_5050,
    coherent_state,
    controlled_z,
    controlled_z_pp,
    embed_symplectic,
    fourier,
    homodyne,
    p_shear,
    rotation,
    shear,
    squeezed_vacuum,
    squeezer,
    symplectic_defect,
    symplectic_form,
    tensor,
    uncertainty_defect,
    vacuum_state,
)
from .cluster import attach_input, linear_cluster
from .algebra import (
    bch_squeezer_residual,
    fourier_shear_step,
    squeezer_protocol_matrix,
    verify_cubic_feedforward,
)
from .engine import (
    ByproductFrame,
    GaussianChannel,
    RecordColumns,
    StepPlan,
    affine_channel,
    chain_channel,
    chain_records,
    measurement_basis,
    run_protocol,
    update_frame,
)
from .protocols import (
    InputOverflowError,
    ProtocolCheck,
    ProtocolReport,
    db_to_squeezing_r,
    identity_chain,
    offline_squeezer,
    offline_teleport,
    protocol_parameters,
    repeated_squeezer,
    run_named_protocol,
    squeezer_four_step,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
