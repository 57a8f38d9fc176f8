"""Polarization algebra on the Poincaré sphere.

States live as Stokes vectors (s1, s2, s3) normalized to unit intensity, so
partially depolarized light is a first-class value: the degree of
polarization (DOP) is just the vector norm. The four BB84 states are fixed
constants, not derived at encode time; ``STATE_TABLE`` holds them by
(basis, bit), and ``Basis`` values are the basis codes of the symbol and
analyzer streams. This module alone says what a two-bit symbol or port code
means (``SENT_STATES``, ``PORT_STATES``, ``PORT_READS``).

Sign conventions, fixed here and used everywhere:
  H = (+1, 0, 0)   V = (-1, 0, 0)
  D = (0, +1, 0)   A = (0, -1, 0)
  R = (0, 0, +1)   L = (0, 0, -1)
Rotations follow the right-hand rule about the given axis.
"""
from __future__ import annotations

import enum
import math

import numpy as np

from .errors import ValidationError
from .record import Record

_DOP_TOL = 1e-9


class Basis(enum.IntEnum):
    """Key bases, valued as their stream codes. HV is neither sent nor analyzed."""

    RL = 0
    AD = 1


class PolarizationState(Record):
    """Stokes vector of a (possibly partially depolarized) state."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        if self.dop > 1.0 + _DOP_TOL:
            raise ValidationError(f"degree of polarization {self.dop} exceeds 1")

    @property
    def dop(self) -> float:
        return math.sqrt(self.s1**2 + self.s2**2 + self.s3**2)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.s1, self.s2, self.s3])


H = PolarizationState(1.0, 0.0, 0.0)
V = PolarizationState(-1.0, 0.0, 0.0)
D = PolarizationState(0.0, 1.0, 0.0)
A = PolarizationState(0.0, -1.0, 0.0)
R = PolarizationState(0.0, 0.0, 1.0)
L = PolarizationState(0.0, 0.0, -1.0)


# Stokes vectors of sent states and analyzer ports, indexed [basis, bit].
STATE_TABLE = np.array([[R.vector, L.vector], [D.vector, A.vector]])
# The same states by two-bit code: symbol code c sends basis c & 1 and bit
# c >> 1, port code c reads basis c >> 1 and bit c & 1.
SENT_STATES = np.array([STATE_TABLE[c & 1, c >> 1] for c in range(4)])
PORT_STATES = np.array([STATE_TABLE[c >> 1, c & 1] for c in range(4)])
# At row 4 * symbol + port: +1 where the port reads the sent state, -1 where
# it reads its partner (same basis, other bit), 0 across bases. Summed in
# Python: a matmul would start BLAS at import, which raised the peak RSS of a
# two-worker sweep's parent by 0.34 MB (numpy 2.4, 2-vCPU Linux).
PORT_READS = np.array([sum(s * p for s, p in zip(sent, port))
                       for sent in SENT_STATES.tolist() for port in PORT_STATES.tolist()])


def port_columns(sent, port) -> np.ndarray:
    """Row 4 * sent + port of each photon in the 16-entry (sent state, port)
    tables, from uint8 symbol and port codes, built in place in uint8 and
    widened once, since take would otherwise convert the index to intp on
    each call."""
    column = sent << 2
    column += port
    return column.astype(np.intp)


def encode_symbol(basis: Basis, bit: int) -> PolarizationState:
    """Stokes state ``STATE_TABLE[basis, bit]`` of a BB84 symbol: the Jones form
    (|H> + e^{i phi}|V>)/sqrt(2) at phi = 0, pi/2, pi, 3pi/2 for D, R, A, L."""
    if not isinstance(basis, Basis):
        raise ValidationError(f"basis must be Basis.RL or Basis.AD, got {basis!r}")
    if bit not in (0, 1):
        raise ValidationError(f"bit must be 0 or 1, got {bit!r}")
    return PolarizationState(*STATE_TABLE[basis, bit].tolist())


def projection_probability(state: PolarizationState, analyzer: PolarizationState) -> float:
    """Probability that ``state`` passes an ideal analyzer aligned with ``analyzer``.

    Malus law on the Poincaré sphere: (1 + s.a)/2. The analyzer must be a pure
    state; the input may be partially depolarized.
    """
    if abs(analyzer.dop - 1.0) > _DOP_TOL:
        raise ValidationError(f"analyzer must have DOP 1, got {analyzer.dop}")
    p = 0.5 * (1.0 + float(np.dot(state.vector, analyzer.vector)))
    return min(1.0, max(0.0, p))


def apply_rotation(state: PolarizationState, axis, angle: float) -> PolarizationState:
    """Rotate a Stokes vector rigidly about ``axis`` by ``angle`` (right-handed).

    Rodrigues form over ``rodrigues_terms``, bit-identical to the vector form
    with ``np.cross`` (cos and sin of a length-1 array, as numpy's vector loop
    rounds them); preserves DOP exactly up to rounding.
    """
    u = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError(f"rotation axis must be unit length, |axis| = {norm}")
    v, w, p = rodrigues_terms(state.vector[np.newaxis], u)
    c, s = np.cos([angle]), np.sin([angle])
    return PolarizationState(*(v * c + w * s + p * (1.0 - c))[0])


def rodrigues_terms(vectors: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three angle-free Rodrigues terms of (n,3) states about one axis.

    Returns (v, u x v, u (u.v)); the rotation by angle a is
    v cos a + (u x v) sin a + u (u.v)(1 - cos a). Each component is rounded
    exactly as the vector form with ``np.cross`` rounds it.
    """
    u = np.asarray(axis, dtype=float)
    ux, uy, uz = u
    v = np.asarray(vectors, dtype=float)
    dot = v @ u
    x, y, z = v.T
    w = np.stack([uy * z - uz * y, uz * x - ux * z, ux * y - uy * x], axis=-1)
    return v, w, dot[:, np.newaxis] * u

