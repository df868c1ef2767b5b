"""Geometric two-qubit gates induced by loops on the Schmidt sphere.

The package constructs holonomy gates from closed paths of Schmidt
coordinates, reverse-engineers the piecewise Hamiltonian schedules that
drive them, simulates those schedules (including Trotterized pulse
sequences), and classifies the resulting gates by their local invariants.
"""

from .linalg import (
    ATOL_PIPELINE,
    embed,
    gate_fidelity,
    phase_aligned_distance,
    su2_exp,
    su2_product,
    tensor_product,
)
from .sphere import (
    SchmidtCoordinates,
    SchmidtDecomposition,
    SchmidtPath,
    SampledSegment,
    ArcSegment,
    assemble_state,
    concurrence,
    equator_arc,
    frame_unitaries,
    linear_segment,
    meridian_arc,
    rotation_arc,
    schmidt_decompose,
    solid_angle,
    sphere_point,
)
from .gates import (
    schmidt_gate,
    u_general,
)
from .invariants import (
    EntanglerClass,
    LocalInvariants,
    classify,
    closed_form_invariants,
    makhlin_invariants,
)
from .dynamics import (
    Pulse,
    composed_tilted_gate,
    dynamical_phase,
    extract_rotation_angle,
    orange_slice_path,
    propagate,
    reverse_engineer,
    tilted_schedule,
    tilted_segment_propagator,
    trotter_propagate,
)

__version__ = "0.1.0"
