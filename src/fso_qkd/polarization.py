"""Polarization algebra on the Poincaré sphere.

States live as Stokes vectors (s1, s2, s3) normalized to unit intensity, so
partially depolarized light is a first-class value: the degree of
polarization (DOP) is just the vector norm. Pure BB84 states are derived
once from their Jones form |H> + e^{i phi}|V> at encode time.

Sign conventions, fixed here and used everywhere:
  H = (+1, 0, 0)   V = (-1, 0, 0)
  D = (0, +1, 0)   A = (0, -1, 0)
  R = (0, 0, +1)   L = (0, 0, -1)
Rotations follow the right-hand rule about the given axis.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_DOP_TOL = 1e-9


class Basis(enum.Enum):
    """Bases: RL and AD generate key; HV is refused by the encoder, not analyzed."""

    RL = "RL"
    AD = "AD"
    HV = "HV"


@dataclass(frozen=True)
class BB84Symbol:
    """One transmitted symbol: key basis plus bit value.

    The relative phase between the H and V components is a pure function of
    (basis, bit); the four symbols map onto four distinct quarter-turn phases.
    """

    basis: Basis
    bit: int

    def __post_init__(self):
        if self.basis is Basis.HV:
            raise ValidationError("transmitter never sends the HV basis")
        if self.bit not in (0, 1):
            raise ValidationError(f"bit must be 0 or 1, got {self.bit!r}")

    @property
    def phase(self) -> float:
        """Relative H/V phase in radians: D=0, R=pi/2, A=pi, L=3pi/2."""
        return _PHASE[(self.basis, self.bit)]


_PHASE = {
    (Basis.AD, 0): 0.0,
    (Basis.RL, 0): math.pi / 2,
    (Basis.AD, 1): math.pi,
    (Basis.RL, 1): 3 * math.pi / 2,
}


@dataclass(frozen=True)
class PolarizationState:
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


def encode_symbol(basis: Basis, bit: int) -> PolarizationState:
    """Encode a BB84 symbol as the Stokes vector of (|H> + e^{i phi}|V>)/sqrt(2).

    For that Jones vector s1 = 0, s2 = cos(phi), s3 = sin(phi), which lands the
    four symbols on D, R, A, L for phi = 0, pi/2, pi, 3pi/2.
    """
    sym = BB84Symbol(basis, bit)  # validates basis/bit
    phi = sym.phase
    return PolarizationState(0.0, round_clean(math.cos(phi)), round_clean(math.sin(phi)))


def round_clean(x: float, eps: float = 1e-15) -> float:
    """Snap values within eps of an integer onto it (kills cos(pi/2) residue)."""
    r = round(x)
    return float(r) if abs(x - r) < eps else x


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

