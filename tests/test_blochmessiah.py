import math

import numpy as np
import pytest

from evebounds import checks
from evebounds.blochmessiah import BMFactors, bloch_messiah, factors_to_circuit
from evebounds.checks import _random_pair_stacks
from evebounds.cloner import ChannelParams, eve_reduced_covariance
from evebounds.linalg import max_abs
from evebounds.states import williamson_standard_two_mode
from evebounds.unitaries import BogoliubovPair, from_symplectic, to_symplectic
from reference import bogoliubov_of, compose, random_pair
from test_linalg import stacked_pairs

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SQRT_X = (1 / np.sqrt(2)) * np.array(
    [
        [np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)],
        [np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)],
    ]
)


def worked_pair(tau=0.5, nbar=0.01):
    std = eve_reduced_covariance(ChannelParams(tau=tau, nbar=nbar))
    smap, _, _ = williamson_standard_two_mode(std)
    return from_symplectic(smap), smap


class TestBlochMessiah:
    def test_worked_case_entrywise(self):
        pair, _ = worked_pair()
        factors = bloch_messiah(pair)
        # U from the degenerate matched SVD resolves to the identity here,
        # making the balanced factors deterministic; if a different basis
        # ever comes out of the eigensolver, fall back to reconstruction.
        we_dag_target = SQRT_X.T @ X.T
        degenerate_freedom = max_abs(factors.cal_u - SQRT_X) > 1e-10
        if degenerate_freedom:
            e, f = factors.reconstruct()
            assert max_abs(e - pair.e) < 1e-9
            assert max_abs(f - pair.f) < 1e-9
        else:
            assert max_abs(factors.cal_u - SQRT_X) < 1e-10
            assert max_abs(factors.cal_we.conj().T - we_dag_target) < 1e-10
        assert max_abs(factors.cal_wf - factors.cal_we.conj()) < 1e-12

    def test_identity_pair(self):
        factors = bloch_messiah(BogoliubovPair(e=np.eye(3), f=np.zeros((3, 3))))
        assert np.allclose(factors.lambda_f, 0.0)
        e, f = factors.reconstruct()
        assert max_abs(e - np.eye(3)) < 1e-12
        assert max_abs(f) < 1e-12

    def test_random_reconstruction(self):
        rng = np.random.default_rng(41)
        for trial in range(30):
            pair = random_pair(rng, 1 + trial % 3)
            factors = bloch_messiah(pair)
            e, f = factors.reconstruct()
            assert max_abs(e - pair.e) < 1e-9
            assert max_abs(f - pair.f) < 1e-9
            assert max_abs(factors.cal_wf - factors.cal_we.conj()) < 1e-9
            assert np.max(np.abs(factors.lambda_e**2 - factors.lambda_f**2 - 1)) < 1e-10

    @pytest.mark.parametrize("lambda_e, cal_wf, message", [
        (np.nan, np.eye(1), r"L_E\^2 = 1 \+ L_F\^2 violated: residual nan"),
        (1.0, np.full((1, 1), np.nan), "cal_wf is not unitary"),
    ])
    def test_nan_factors_rejected(self, lambda_e, cal_wf, message):
        with pytest.raises(ValueError, match=message):
            BMFactors(cal_u=np.eye(1), lambda_e=np.array([lambda_e]), lambda_f=np.zeros(1),
                      cal_we=np.eye(1), cal_wf=cal_wf)

    def test_constraint_violations_cannot_reach_decomposition(self):
        # invalid pairs are rejected at construction, before decomposition
        with pytest.raises(ValueError, match="constraint"):
            BogoliubovPair(e=np.eye(2), f=0.5 * np.eye(2))


class TestFactorsToCircuit:
    def test_identity_circuit(self):
        factors = bloch_messiah(BogoliubovPair(e=np.eye(2), f=np.zeros((2, 2))))
        rot1, squeezer, rot2 = factors_to_circuit(factors)
        assert max_abs(squeezer.z) < 1e-12
        total = compose(compose(bogoliubov_of(rot1), bogoliubov_of(squeezer)), bogoliubov_of(rot2))
        assert max_abs(total.e - np.eye(2)) < 1e-9
        assert max_abs(total.f) < 1e-9

    def test_worked_case_squeezing(self):
        pair, _ = worked_pair()
        circuit = factors_to_circuit(bloch_messiah(pair))
        r = np.diag(circuit[1].z).real
        assert np.allclose(r, math.acosh(1.0024844758788585), atol=1e-10)
        assert r[0] == pytest.approx(0.07047, abs=1e-5)

    def test_circuit_reproduces_pair_and_symplectic(self):
        rng = np.random.default_rng(43)
        for trial in range(10):
            pair = random_pair(rng, 1 + trial % 3)
            circuit = factors_to_circuit(bloch_messiah(pair))
            total = bogoliubov_of(circuit[0])
            for op in circuit[1:]:
                total = compose(total, bogoliubov_of(op))
            assert max_abs(total.e - pair.e) < 1e-9
            assert max_abs(total.f - pair.f) < 1e-9
            assert max_abs(to_symplectic(total).s - to_symplectic(pair).s) < 1e-9


class TestStacks:
    @pytest.mark.parametrize("nmodes", [1, 2, 3])
    def test_members_equal_single_calls(self, nmodes):
        # bit for bit, the identity pair (last) included
        pairs, stack = stacked_pairs(nmodes, 50 + nmodes)
        factors = bloch_messiah(stack)
        circuit = factors_to_circuit(factors)
        assert not factors.lambda_f[-1].any()
        for i, pair in enumerate(pairs):
            single = bloch_messiah(pair)
            for field in ("cal_u", "lambda_e", "lambda_f", "cal_we", "cal_wf"):
                np.testing.assert_array_equal(getattr(factors, field)[i], getattr(single, field))
            rot1, squeezer, rot2 = factors_to_circuit(single)
            np.testing.assert_array_equal(circuit[0].phi[i], rot1.phi)
            np.testing.assert_array_equal(circuit[1].z[i], squeezer.z)
            np.testing.assert_array_equal(circuit[2].phi[i], rot2.phi)

    @pytest.mark.parametrize("with_displacement", [False, True])
    def test_random_pair_stacks_are_random_pairs(self, with_displacement):
        # same draws, same order, same builder: the suites' stacks hold the
        # pairs that random_pair gives trial by trial
        rng, reference_rng = np.random.default_rng(7), np.random.default_rng(7)
        stacks = _random_pair_stacks(rng, 11, with_displacement)
        assert [s.e.shape for s in stacks] == [(4, 1, 1), (4, 2, 2), (3, 3, 3)]
        for trial in range(11):
            pair = random_pair(reference_rng, 1 + trial % 3, with_displacement)
            stack, member = stacks[trial % 3], trial // 3
            np.testing.assert_array_equal(stack.e[member], pair.e)
            np.testing.assert_array_equal(stack.f[member], pair.f)
            np.testing.assert_array_equal(stack.alpha[member], pair.alpha)
        assert rng.normal() == reference_rng.normal()

    def test_nan_member_makes_the_suite_residual_nan(self, monkeypatch):
        def one_nan_member(pair):
            factors = bloch_messiah(pair)
            factors.lambda_e = factors.lambda_e.copy()
            factors.lambda_e[1] = np.nan
            return factors

        monkeypatch.setattr(checks, "bloch_messiah", one_nan_member)
        result = checks.check_bloch_messiah()
        assert math.isnan(result.residual)
        assert not result.passed
