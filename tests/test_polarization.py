"""Polarization algebra: encoding table, Malus law, rotations, depolarization."""
import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from fso_qkd.errors import ValidationError
from fso_qkd.polarization import (
    A,
    BB84Symbol,
    Basis,
    D,
    H,
    L,
    PolarizationState,
    R,
    V,
    apply_rotation,
    encode_symbol,
    projection_probability,
)

TOL = 1e-12


def jones_to_stokes(phi):
    """Independent oracle: Stokes vector of (1, e^{i phi})/sqrt(2)."""
    ex, ey = 1 / math.sqrt(2), np.exp(1j * phi) / math.sqrt(2)
    s1 = abs(ex) ** 2 - abs(ey) ** 2
    s2 = 2 * (ex.conjugate() * ey).real
    s3 = 2 * (ex.conjugate() * ey).imag
    return np.array([s1, s2, s3])


class TestEncoding:
    def test_ad0_is_diagonal(self):
        assert encode_symbol(Basis.AD, 0) == D

    def test_rl0_is_right_circular(self):
        assert encode_symbol(Basis.RL, 0) == R

    def test_ad1_matches_jones_oracle(self):
        # phi = pi applied to the Jones form gives the anti-diagonal state
        expected = jones_to_stokes(math.pi)
        got = encode_symbol(Basis.AD, 1).vector
        assert np.allclose(got, expected, atol=TOL)
        assert np.allclose(got, A.vector, atol=TOL)

    def test_all_four_symbols_match_jones_form(self):
        for basis in (Basis.RL, Basis.AD):
            for bit in (0, 1):
                phi = BB84Symbol(basis, bit).phase
                assert np.allclose(
                    encode_symbol(basis, bit).vector, jones_to_stokes(phi), atol=TOL
                )

    def test_phases_are_distinct_quarter_turns(self):
        phases = {BB84Symbol(b, x).phase for b in (Basis.RL, Basis.AD) for x in (0, 1)}
        assert phases == {0.0, math.pi / 2, math.pi, 3 * math.pi / 2}

    def test_unit_dop(self):
        for basis in (Basis.RL, Basis.AD):
            for bit in (0, 1):
                assert abs(encode_symbol(basis, bit).dop - 1.0) < TOL

    def test_hv_rejected(self):
        with pytest.raises(ValidationError):
            encode_symbol(Basis.HV, 0)

    def test_bad_bit_rejected(self):
        with pytest.raises(ValidationError):
            BB84Symbol(Basis.RL, 2)


class TestProjection:
    def test_identical_pure_states(self):
        assert projection_probability(R, R) == pytest.approx(1.0, abs=TOL)

    def test_mutually_unbiased(self):
        assert projection_probability(R, D) == pytest.approx(0.5, abs=TOL)

    def test_fully_depolarized_is_coin_flip(self):
        mixed = PolarizationState(0.0, 0.0, 0.0)
        for analyzer in (H, V, D, A, R, L):
            assert projection_probability(mixed, analyzer) == pytest.approx(0.5, abs=TOL)

    def test_mub_table(self):
        """Matched port -> 1, opposite port -> 0, other key basis -> 0.5."""
        ports = {(Basis.RL, 0): R, (Basis.RL, 1): L, (Basis.AD, 0): D, (Basis.AD, 1): A}
        for basis in (Basis.RL, Basis.AD):
            for bit in (0, 1):
                state = encode_symbol(basis, bit)
                assert projection_probability(state, ports[(basis, bit)]) == pytest.approx(1.0, abs=TOL)
                assert projection_probability(state, ports[(basis, 1 - bit)]) == pytest.approx(0.0, abs=TOL)
                other = Basis.AD if basis is Basis.RL else Basis.RL
                for obit in (0, 1):
                    assert projection_probability(state, ports[(other, obit)]) == pytest.approx(0.5, abs=TOL)

    def test_depolarized_analyzer_rejected(self):
        with pytest.raises(ValidationError):
            projection_probability(R, PolarizationState(0.0, 0.0, 0.9))


class TestRotation:
    def test_half_turn_swaps_h_v(self):
        got = apply_rotation(H, (0.0, 0.0, 1.0), math.pi)
        assert np.allclose(got.vector, V.vector, atol=TOL)

    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            state = PolarizationState(*v)
            assert np.allclose(apply_rotation(state, (1.0, 0.0, 0.0), 0.0).vector,
                               state.vector, atol=TOL)

    def test_quarter_turn_r_about_s1(self):
        # right-hand rule oracle: rotation matrix about x by pi/2 maps z -> -y
        rot = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        expected = rot @ R.vector
        got = apply_rotation(R, (1.0, 0.0, 0.0), math.pi / 2)
        assert np.allclose(got.vector, expected, atol=TOL)
        assert np.allclose(got.vector, [0.0, -1.0, 0.0], atol=TOL)

    def test_dop_preserved_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v = rng.normal(size=3)
            v *= rng.uniform(0, 1) / np.linalg.norm(v)
            state = PolarizationState(*v)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            rotated = apply_rotation(state, axis, rng.uniform(-10, 10))
            assert abs(rotated.dop - state.dop) < TOL

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValidationError):
            apply_rotation(R, (1.0, 1.0, 0.0), 0.3)

    def test_apply_rotation_bit_identical_to_cross_product_form(self):
        rng = np.random.default_rng(11)
        vectors = rng.normal(size=(2000, 3))
        vectors *= rng.uniform(0, 1, size=(2000, 1)) / np.linalg.norm(vectors, axis=1)[:, None]
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angles = rng.uniform(-50, 50, size=2000)
        for v, a in zip(vectors, angles):
            v = v[None]
            c, sn = np.cos([a])[:, None], np.sin([a])[:, None]
            reference = (v * c + np.cross(axis, v) * sn
                         + axis * (v @ axis)[:, None] * (1.0 - c))[0]
            got = apply_rotation(PolarizationState(*v[0]), axis, a).vector
            assert np.array_equal(got, reference)

    def test_apply_rotation_matches_scipy_rotation(self):
        rng = np.random.default_rng(12)
        vectors = rng.normal(size=(50, 3)) * 0.5 / np.sqrt(3)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angles = rng.uniform(-10, 10, size=50)
        got = np.array([apply_rotation(PolarizationState(*v), axis, a).vector
                        for v, a in zip(vectors, angles)])
        # scipy's rotation is the independent oracle
        oracle = Rotation.from_rotvec(axis * angles[:, np.newaxis]).apply(vectors)
        assert np.allclose(got, oracle, atol=TOL)


def test_dop_above_one_rejected():
    with pytest.raises(ValidationError):
        PolarizationState(1.0, 1.0, 0.0)
