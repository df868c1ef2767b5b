"""Construction of geometric two-qubit gates as Cayley-Klein pairs, 4x4
matrices or stacks.

A gate anchored at Schmidt coordinates (alpha0, beta0) with loop solid
angle omega acts as identity on its invariant product pair and multiplies
the entangled pair by exp(-+ i omega / 2): an SU(2) rotation of the sector
pair whose Cayley-Klein pair a = cos(omega/2) - i sin(omega/2) cos(alpha0),
b = -i sin(omega/2) sin(alpha0) exp(i beta0) is schmidt_pair's. The pair
is the same in both sectors, and the whole gate: its local invariants are
read from it (`invariants.pair_invariants`), which is how sweep-map judges
its grid, one bounded block of pairs at a time. schmidt_gate embeds it
(linalg.embed) for either sector, named by its `sector` argument: the
gamma sector entangles span{|01>, |10>}, the lambda sector
span{|00>, |11>} (standard frame). Arguments broadcast: arrays of anchors
and solid angles give arrays of pairs, or a (..., 4, 4) stack of gates, in
one call.
"""

from __future__ import annotations

import numpy as np

from .linalg import embed, tensor_product
from .sphere import frame_unitaries


def schmidt_pair(alpha0, beta0, omega) -> tuple[np.ndarray, np.ndarray]:
    """Cayley-Klein pair (a, b) of the geometric gate's sector block, with
    alpha0, beta0 and omega broadcast against one another."""
    half = 0.5 * np.asarray(omega)
    s = np.sin(half)
    return (np.cos(half) - 1j * s * np.cos(alpha0),
            -1j * s * np.sin(alpha0) * np.exp(1j * beta0))


def schmidt_gate(alpha0: float, beta0: float, omega: float,
                 sector: str = "gamma", frame=None) -> np.ndarray:
    """Geometric gate of the sector ("gamma" or "lambda"; any other name
    raises ValueError): schmidt_pair embedded on the sector's pair.

    Identity on the other sector's pair; phases exp(-+ i omega/2) on the
    sector's entangled pair anchored at (alpha0, beta0). The arbitrary-frame
    gate is the standard-frame gate conjugated by the frame's local
    unitaries. alpha0, beta0 and omega broadcast against one another; the
    result has their broadcast shape followed by (4, 4).
    """
    u = embed(*schmidt_pair(alpha0, beta0, omega), sector)
    if frame is None:
        return u
    local = tensor_product(*frame_unitaries(frame))
    return local @ u @ local.conj().T


def rotation_pair(omega) -> tuple[np.ndarray, np.ndarray]:
    """Cayley-Klein pair (cos(omega/2), sin(omega/2)) of u_general's gamma
    block, a real rotation by omega/2; elementwise over an array of
    omega."""
    return np.cos(0.5 * omega), np.sin(0.5 * omega)


def u_general(omega) -> np.ndarray:
    """Gamma-sector gate at (alpha0, beta0) = (pi/2, pi/2): rotation_pair
    embedded in the {|01>, |10>} plane. omega = -pi gives the iSWAP-type
    gate with rows (1,0,0,0), (0,0,1,0), (0,-1,0,0), (0,0,0,1). A stack of
    omega gives a (..., 4, 4) stack.
    """
    return embed(*rotation_pair(omega), "gamma")
