"""Construction of geometric two-qubit gates as 4x4 matrices or stacks.

A gate anchored at Schmidt coordinates (alpha0, beta0) with loop solid
angle omega acts as identity on its invariant product pair and multiplies
the entangled pair by exp(-+ i omega / 2). It is therefore a 2x2 SU(2)
block on the sector pair, placed in the 4x4 matrix by linalg.embed.
schmidt_gate builds it for either sector, named by its `sector` argument:
the gamma sector entangles span{|01>, |10>}, the lambda sector
span{|00>, |11>} (standard frame). Its arguments broadcast: arrays of
anchors and solid angles give a (..., 4, 4) stack of gates in one call,
which is how sweep-map builds its grid, one bounded block at a time.
"""

from __future__ import annotations

import numpy as np

from .linalg import embed, tensor_product
from .sphere import _amplitudes, _check_frame, _perp_a, _perp_b


def frame_unitaries(frame) -> tuple[np.ndarray, np.ndarray]:
    """Local unitaries (A, B) carrying the standard frame to `frame`.

    A maps (|0>, |1>) to (|n>, |-n>); B maps (|0>, |1>) to (|-m>, |m>).
    With frame = (|0>, |1>) both are the identity.
    """
    n_state, m_state = _check_frame(frame)
    a = np.column_stack([n_state, _perp_a(n_state)])
    b = np.column_stack([_perp_b(m_state), m_state])
    return a, b


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
    f, g = _amplitudes(alpha0, beta0)
    plus = np.stack([f, g], axis=-1)
    minus = np.stack([-np.conj(g), np.conj(f)], axis=-1)
    omega = np.asarray(omega)[..., None, None]
    block = plus[..., :, None] * plus.conj()[..., None, :] \
        * np.exp(-0.5j * omega)
    block += minus[..., :, None] * minus.conj()[..., None, :] \
        * np.exp(+0.5j * omega)
    u = embed(block, sector)
    if frame is None:
        return u
    a, b = frame_unitaries(frame)
    local = tensor_product(a, b)
    return local @ u @ local.conj().T


def u_general(omega) -> np.ndarray:
    """Gamma-sector gate at (alpha0, beta0) = (pi/2, pi/2): a real rotation
    by omega/2 in the {|01>, |10>} plane. omega = -pi gives the iSWAP-type
    gate with rows (1,0,0,0), (0,0,1,0), (0,-1,0,0), (0,0,0,1). A stack of
    omega gives a (..., 4, 4) stack.
    """
    c = np.cos(0.5 * omega)
    s = np.sin(0.5 * omega)
    return embed(np.stack([np.stack([c, -s], axis=-1),
                           np.stack([s, c], axis=-1)], axis=-2), "gamma")
