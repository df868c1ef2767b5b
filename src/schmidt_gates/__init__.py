"""Geometric two-qubit gates induced by loops on the Schmidt sphere.

The package constructs holonomy gates from closed paths of Schmidt
coordinates, reverse-engineers the piecewise Hamiltonian schedules that
drive them, simulates those schedules (including Trotterized pulse
sequences), and classifies the resulting gates by their local invariants.

Each submodule is imported on the first access to one of its names, so
importing the package, or its command-line front end, does not import
numpy.
"""

import importlib

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys([
        "ATOL_PIPELINE", "embed", "gate_fidelity", "phase_aligned_distance",
        "su2_exp", "su2_product", "tensor_product"], "linalg"),
    **dict.fromkeys([
        "SchmidtCoordinates", "SchmidtDecomposition", "SchmidtPath",
        "SampledSegment", "ArcSegment", "assemble_state", "concurrence",
        "equator_arc", "frame_unitaries", "linear_segment", "meridian_arc",
        "rotation_arc", "schmidt_decompose", "solid_angle",
        "sphere_point"], "sphere"),
    **dict.fromkeys(["schmidt_gate", "schmidt_pair", "u_general"], "gates"),
    **dict.fromkeys([
        "LocalInvariants", "classify", "closed_form_invariants",
        "makhlin_invariants", "pair_invariants"], "invariants"),
    **dict.fromkeys([
        "Pulse", "composed_tilted_gate", "dynamical_phase",
        "extract_rotation_angle", "orange_slice_path", "propagate",
        "reverse_engineer", "tilted_schedule", "tilted_segment_propagator",
        "trotter_propagate"], "dynamics"),
}

# The submodules that hold the exports, themselves attributes of the package.
_LAYERS = dict.fromkeys(_EXPORTS.values())

__all__ = [*_EXPORTS, *_LAYERS]


def __getattr__(name: str):
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
