import math

import numpy as np
import pytest

from evebounds.checks import _random_pair_stacks
from evebounds.cloner import ChannelParams, eve_reduced_covariance
from evebounds.states import williamson_standard_two_mode
from evebounds.unitaries import (
    BogoliubovPair,
    Rotation,
    Squeezer,
    from_symplectic,
    switch_disp_rotation,
    switch_disp_squeezer,
    switch_squeezer_rotation,
    to_symplectic,
)
from reference import (
    Displacement,
    apply_sparse_generator,
    bloch_messiah_amplitudes,
    bogoliubov_of,
    compose,
    displacement_generator,
    fock_moments,
    random_pair,
    rotation_generator,
    sparse_squeeze_generator,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestBogoliubovOf:
    def test_displacement(self):
        alpha = np.array([0.3 + 0.4j, -0.2j])
        pair = bogoliubov_of(Displacement(alpha))
        assert np.allclose(pair.e, np.eye(2))
        assert np.allclose(pair.f, 0)
        assert np.allclose(pair.alpha, alpha)

    def test_zero_rotation(self):
        pair = bogoliubov_of(Rotation(np.zeros((2, 2))))
        assert np.allclose(pair.e, np.eye(2))
        assert np.allclose(pair.f, 0)

    def test_scalar_squeezer(self):
        r = 0.4
        pair = bogoliubov_of(Squeezer(r * np.eye(2)))
        assert np.allclose(pair.e, math.cosh(r) * np.eye(2), atol=1e-12)
        assert np.allclose(pair.f, math.sinh(r) * np.eye(2), atol=1e-12)

    def test_rotation_requires_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Rotation(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_squeezer_requires_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Squeezer(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_pair_constraints_validated(self):
        with pytest.raises(ValueError, match="E F"):
            BogoliubovPair(e=np.eye(2), f=np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="E E"):
            BogoliubovPair(e=2 * np.eye(2), f=np.zeros((2, 2)))


class TestSymplecticConversion:
    def test_identity(self):
        smap = to_symplectic(bogoliubov_of(Rotation(np.zeros((2, 2)))))
        assert np.allclose(smap.s, np.eye(4))
        assert np.allclose(smap.d, 0)

    def test_eve_pair_block_structure(self):
        w1, w2 = 1.0024844758788585, 0.07053456158585966
        smap = to_symplectic(BogoliubovPair(e=w1 * np.eye(2), f=w2 * X))
        z = np.diag([1.0, -1.0])
        expected = np.zeros((4, 4))
        expected[:2, :2] = expected[2:, 2:] = w1 * np.eye(2)
        expected[:2, 2:] = expected[2:, :2] = w2 * z
        assert np.allclose(smap.s, expected, atol=1e-12)

    def test_single_mode_squeezer_scaling(self):
        r = 0.3
        smap = to_symplectic(bogoliubov_of(Squeezer(np.array([[r]]))))
        assert np.allclose(smap.s, np.diag([math.exp(r), math.exp(-r)]), atol=1e-12)
        # squeezed vacuum variance from the Fock simulator
        ket = np.zeros(41, dtype=complex)
        ket[0] = 1.0
        ket = apply_sparse_generator(sparse_squeeze_generator(40, 1, np.array([[r]])), ket)
        _, cov = fock_moments(np.outer(ket, ket.conj()), 40, 1)
        assert cov[0, 0] == pytest.approx(math.exp(2 * r), abs=1e-8)
        assert cov[1, 1] == pytest.approx(math.exp(-2 * r), abs=1e-8)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            pair = random_pair(rng, 1 + trial % 3, with_displacement=True)
            back = from_symplectic(to_symplectic(pair))
            assert np.max(np.abs(back.e - pair.e)) < 1e-10
            assert np.max(np.abs(back.f - pair.f)) < 1e-10
            assert np.max(np.abs(back.alpha - pair.alpha)) < 1e-10


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(2)
        pair = random_pair(rng, 2, with_displacement=True)
        ident = bogoliubov_of(Rotation(np.zeros((2, 2))))
        for combined in (compose(pair, ident), compose(ident, pair)):
            assert np.max(np.abs(combined.e - pair.e)) < 1e-12
            assert np.max(np.abs(combined.alpha - pair.alpha)) < 1e-12

    def test_matches_symplectic_composition(self):
        rng = np.random.default_rng(4)
        first = random_pair(rng, 2, with_displacement=True)
        then = random_pair(rng, 2, with_displacement=True)
        combined = compose(first, then)
        s1, s2 = to_symplectic(first), to_symplectic(then)
        assert np.max(np.abs(to_symplectic(combined).s - s2.s @ s1.s)) < 1e-9
        assert np.max(np.abs(to_symplectic(combined).d - (s2.s @ s1.d + s2.d))) < 1e-9

    def test_associative(self):
        rng = np.random.default_rng(6)
        a, b, c = (random_pair(rng, 2, with_displacement=True) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.max(np.abs(left.e - right.e)) < 1e-9
        assert np.max(np.abs(left.alpha - right.alpha)) < 1e-9

    def test_displacement_addition(self):
        a1 = np.array([0.2 + 0.1j])
        a2 = np.array([-0.5j])
        combined = compose(bogoliubov_of(Displacement(a1)), bogoliubov_of(Displacement(a2)))
        assert np.allclose(combined.alpha, a1 + a2)

    def test_rsr_reproduces_eve_pair(self):
        from evebounds.blochmessiah import bloch_messiah, factors_to_circuit

        std = eve_reduced_covariance(ChannelParams(tau=0.5, nbar=0.01))
        smap, _, _ = williamson_standard_two_mode(std)
        pair = from_symplectic(smap)
        circuit = factors_to_circuit(bloch_messiah(pair))
        total = bogoliubov_of(circuit[0])
        for op in circuit[1:]:
            total = compose(total, bogoliubov_of(op))
        assert np.max(np.abs(total.e - pair.e)) < 1e-12
        assert np.max(np.abs(total.f - pair.f)) < 1e-12

    @pytest.mark.parametrize("nmodes", [1, 2, 3])
    def test_stacks_compose_member_by_member(self, nmodes):
        stack = _random_pair_stacks(np.random.default_rng(1), 9, True)[nmodes - 1]
        shift = bogoliubov_of(Displacement(np.arange(3 * nmodes).reshape(3, nmodes) * (0.5 - 0.25j)))
        assert shift.e.shape == (3, nmodes, nmodes)
        for first, then in ((stack, stack), (stack, shift), (shift, stack)):
            combined = compose(first, then)
            for i in range(3):
                want = compose(*(BogoliubovPair(e=p.e[i], f=p.f[i], alpha=p.alpha[i]) for p in (first, then)))
                np.testing.assert_array_equal(combined.e[i], want.e)
                np.testing.assert_array_equal(combined.f[i], want.f)
                np.testing.assert_array_equal(combined.alpha[i], want.alpha)
        for i in range(3):
            single = bogoliubov_of(Displacement(shift.alpha[i]))
            np.testing.assert_array_equal(shift.e[i], single.e)
            np.testing.assert_array_equal(shift.f[i], single.f)

    def test_mode_mismatch(self):
        with pytest.raises(ValueError, match="mode mismatch"):
            compose(bogoliubov_of(Rotation(np.zeros((1, 1)))),
                    bogoliubov_of(Rotation(np.zeros((2, 2)))))


def fock_rule_distance(lhs_gens, rhs_gens, ket):
    """Trace distance between two pure states built by generator chains."""
    left = ket
    for gen in lhs_gens:
        left = apply_sparse_generator(gen, left)
    right = ket
    for gen in rhs_gens:
        right = apply_sparse_generator(gen, right)
    return math.sqrt(max(0.0, 1.0 - abs(np.vdot(left, right)) ** 2))


SKEW = [[0, 1], [0, 0]]


class TestSwitchingRules:
    @pytest.mark.parametrize("rule, args, message", [
        # eigh read one triangle: this gave [1, 0]
        (switch_disp_rotation, (SKEW, [1, 0]),
         r"rotation generator is not Hermitian: max \|M - M\^dag\| = 1\.000e\+00 > 1e-10"),
        # the SVD took any z: this gave [1.543, 0]
        (switch_disp_squeezer, (SKEW, [1, 0]),
         r"squeezing matrix is not symmetric: max \|M - M\^T\| = 1\.000e\+00 > 1e-10"),
        (switch_squeezer_rotation, (SKEW, np.eye(2)), "rotation generator is not Hermitian"),
        (switch_squeezer_rotation, (np.zeros((2, 2)), SKEW), "squeezing matrix is not symmetric"),
        (switch_disp_rotation, ([[np.nan]], [1.0]), "rotation generator contains NaN"),
        (switch_disp_squeezer, (np.zeros((2, 3)), [1, 0]), r"must be square, got shape \(2, 3\)"),
    ])
    def test_rules_check_their_parameters(self, rule, args, message):
        with pytest.raises(ValueError, match=message):
            rule(*args)

    def test_zero_displacement(self):
        beta = switch_disp_squeezer(0.3 * np.eye(2), np.zeros(2))
        assert np.allclose(beta, 0)

    def test_real_squeezer_scalar(self):
        r, alpha = 0.4, 0.6
        beta = switch_disp_squeezer(np.array([[r]]), np.array([alpha]))
        assert beta[0] == pytest.approx(math.exp(-r) * alpha, abs=1e-12)
        # operator-order check in the Fock simulator
        vac = np.zeros(41, dtype=complex)
        vac[0] = 1.0
        gen_s = sparse_squeeze_generator(40, 1, np.array([[r]]))
        dist = fock_rule_distance(
            [gen_s, displacement_generator(40, 1, [alpha])],
            [displacement_generator(40, 1, beta), gen_s],
            vac,
        )
        assert 1 - dist * dist > 1 - 1e-8  # state fidelity

    def test_eca_closed_form(self):
        # the full chain through the rotation-squeezer-rotation circuit
        # reproduces the closed-form ensemble, amplitude by amplitude
        from evebounds.cloner import Constellation, displaced_thermal_ensemble

        params = ChannelParams(tau=0.5, nbar=0.01)
        ensemble = Constellation(amplitudes=[1.0, np.exp(1j * np.pi / 4), 0.3 - 0.7j],
                                 probs=[0.5, 0.25, 0.25])
        closed = displaced_thermal_ensemble(ensemble, params).mode_amplitudes()
        assert np.max(np.abs(closed - bloch_messiah_amplitudes(ensemble, params))) < 1e-12

    def test_zero_rotation_neutral(self):
        z = 0.2 * np.eye(2, dtype=complex)
        assert np.allclose(switch_squeezer_rotation(np.zeros((2, 2)), z), z)
        alpha = np.array([0.1 + 0.2j])
        assert np.allclose(switch_disp_rotation(np.zeros((1, 1)), alpha), alpha)

    def test_single_mode_phase(self):
        phi = 0.7
        alpha = np.array([0.5 + 0.2j])
        gamma = switch_disp_rotation(np.array([[phi]]), alpha)
        assert gamma[0] == pytest.approx(np.exp(-1j * phi) * alpha[0], abs=1e-12)
        vac = np.zeros(31, dtype=complex)
        vac[0] = 1.0
        gen_r = rotation_generator(30, 1, np.array([[phi]]))
        dist = fock_rule_distance(
            [gen_r, displacement_generator(30, 1, alpha)],
            [displacement_generator(30, 1, gamma), gen_r],
            vac,
        )
        assert dist < 1e-6

    def test_two_mode_squeezer_rotation_in_fock(self):
        # cutoff 50 keeps the truncation floor well under the tolerance
        rng = np.random.default_rng(31)
        ket = np.zeros(51**2, dtype=complex)
        ket[0] = 1.0
        ket = apply_sparse_generator(
            displacement_generator(50, 2, [0.4 + 0.1j, -0.3j]), ket)
        herm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        herm = (herm + herm.conj().T) / 2
        sym = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sym = (sym + sym.T) / 2
        sym *= 0.5 / np.linalg.svd(sym, compute_uv=False)[0]
        zp = switch_squeezer_rotation(herm, sym)
        gen_r = rotation_generator(50, 2, herm)
        dist = fock_rule_distance(
            [gen_r, sparse_squeeze_generator(50, 2, sym)],
            [sparse_squeeze_generator(50, 2, zp), gen_r],
            ket,
        )
        assert dist < 1e-6
