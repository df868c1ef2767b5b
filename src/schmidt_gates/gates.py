"""Construction of geometric two-qubit gates as 4x4 matrices or stacks.

A gate anchored at Schmidt coordinates (alpha0, beta0) with loop solid
angle omega acts as identity on its invariant product pair and multiplies
the entangled pair by exp(-+ i omega / 2): an SU(2) rotation of the sector
pair whose Cayley-Klein pair a = cos(omega/2) - i sin(omega/2) cos(alpha0),
b = -i sin(omega/2) sin(alpha0) exp(i beta0) goes straight to linalg.embed.
schmidt_gate builds it for either sector, named by its `sector` argument:
the gamma sector entangles span{|01>, |10>}, the lambda sector
span{|00>, |11>} (standard frame). Its arguments broadcast: arrays of
anchors and solid angles give a (..., 4, 4) stack of gates in one call,
which is how sweep-map builds its grid, one bounded block at a time.
"""

from __future__ import annotations

import numpy as np

from .linalg import embed, tensor_product
from .sphere import frame_unitaries


def schmidt_gate(alpha0: float, beta0: float, omega: float,
                 sector: str = "gamma", frame=None) -> np.ndarray:
    """Geometric gate of the sector ("gamma" or "lambda"; any other name
    raises ValueError).

    Identity on the other sector's pair; phases exp(-+ i omega/2) on the
    sector's entangled pair anchored at (alpha0, beta0). The arbitrary-frame
    gate is the standard-frame gate conjugated by the frame's local
    unitaries. alpha0, beta0 and omega broadcast against one another; the
    result has their broadcast shape followed by (4, 4).
    """
    half = 0.5 * np.asarray(omega)
    s = np.sin(half)
    u = embed(np.cos(half) - 1j * s * np.cos(alpha0),
              -1j * s * np.sin(alpha0) * np.exp(1j * beta0), sector)
    if frame is None:
        return u
    local = tensor_product(*frame_unitaries(frame))
    return local @ u @ local.conj().T


def u_general(omega) -> np.ndarray:
    """Gamma-sector gate at (alpha0, beta0) = (pi/2, pi/2): a real rotation
    by omega/2 in the {|01>, |10>} plane. omega = -pi gives the iSWAP-type
    gate with rows (1,0,0,0), (0,0,1,0), (0,-1,0,0), (0,0,0,1). A stack of
    omega gives a (..., 4, 4) stack.
    """
    return embed(np.cos(0.5 * omega), np.sin(0.5 * omega), "gamma")
