import math
import re

import numpy as np
import pytest

from evebounds import fock
from evebounds.cloner import ChannelParams, eve_reduced_covariance
from evebounds.states import (
    GaussianState,
    StandardTwoModeCov,
    SymplecticMap,
    _check_cov,
    apply_symplectic,
    average_covariance,
    entropy_from_cov,
    make_tmsv,
    omega,
    partial_trace_modes,
    standard_symplectic_spectrum,
    symplectic_eigenvalues,
    thermal_entropy,
    williamson_standard_two_mode,
)
from evebounds.unitaries import to_symplectic
from reference import coherent_ket, fock_moments, make_coherent, make_thermal, random_pair

Z = np.diag([1.0, -1.0])


class TestConstructors:
    def test_thermal_vacuum(self):
        assert np.allclose(make_thermal(0).cov, np.eye(2))

    def test_thermal_low(self):
        assert np.allclose(make_thermal(0.01).cov, 1.02 * np.eye(2))

    def test_thermal_rejects_negative(self):
        with pytest.raises(ValueError):
            make_thermal(-0.1)

    @pytest.mark.parametrize("nbar", [-0.1, math.nan, math.inf])
    def test_tmsv_rejects_bad_nbar(self, nbar):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            make_tmsv(nbar)

    def test_tmsv_vacuum(self):
        assert np.allclose(make_tmsv(0).cov, np.eye(4))

    def test_tmsv_offdiagonal(self):
        cov = make_tmsv(0.01).cov
        assert cov[0, 2] == pytest.approx(2 * math.sqrt(0.01**2 + 0.01), abs=1e-12)
        assert cov[0, 2] == pytest.approx(0.20100, abs=1e-5)
        assert cov[1, 3] == pytest.approx(-cov[0, 2])

    def test_tmsv_is_pure(self):
        assert np.allclose(symplectic_eigenvalues(make_tmsv(0.37).cov), [1.0, 1.0], atol=1e-9)

    def test_coherent_vacuum(self):
        state = make_coherent(0)
        assert np.allclose(state.mean, 0)
        assert np.allclose(state.cov, np.eye(2))

    def test_coherent_mean_matches_fock_oracle(self):
        for alpha in (1.0, (1 + 1j) / math.sqrt(2)):
            ket, _ = coherent_ket(alpha, 30)
            mean, cov = fock_moments(np.outer(ket, ket.conj()), 30, 1)
            assert np.allclose(make_coherent(alpha).mean, mean, atol=1e-8)
            assert np.allclose(cov, np.eye(2), atol=1e-8)
        assert np.allclose(make_coherent(1.0).mean, [2.0, 0.0])
        assert np.allclose(make_coherent((1 + 1j) / math.sqrt(2)).mean,
                           [math.sqrt(2), math.sqrt(2)])

    def test_asymmetric_cov_rejected(self):
        bad = np.eye(2)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            GaussianState(mean=np.zeros(2), cov=bad)

    def test_unphysical_cov_rejected(self):
        with pytest.raises(ValueError, match="unphysical"):
            GaussianState(mean=np.zeros(2), cov=0.5 * np.eye(2))

    def test_nonsymplectic_rejected(self):
        with pytest.raises(ValueError, match="not symplectic"):
            SymplecticMap(s=2 * np.eye(2))


class TestSymplecticEigenvalues:
    def test_eve_at_unit_transmittance(self):
        std = eve_reduced_covariance(ChannelParams(tau=1.0, nbar=0.3))
        assert np.allclose(symplectic_eigenvalues(std.as_matrix()), [1.0, 1.0], atol=1e-9)

    def test_closed_form_agrees_with_general(self):
        std = eve_reduced_covariance(ChannelParams(tau=0.5, nbar=0.01))
        assert std.a == pytest.approx(1.01)
        assert std.b == pytest.approx(1.02)
        assert std.c == pytest.approx(0.142127, abs=1e-6)
        nu1, nu2 = standard_symplectic_spectrum(std)
        general = symplectic_eigenvalues(std.as_matrix())
        assert abs(nu1 - general[0]) < 1e-10
        assert abs(nu2 - general[1]) < 1e-10
        assert nu1 == pytest.approx(1.0100, abs=1e-9)
        assert nu2 == pytest.approx(1.0000, abs=1e-9)

    @pytest.mark.parametrize("tau", np.linspace(0.05, 0.95, 7))
    @pytest.mark.parametrize("nbar", [0.01, 0.02, 0.1])
    def test_conditional_spectrum_grid(self, tau, nbar):
        std = eve_reduced_covariance(ChannelParams(tau=tau, nbar=nbar))
        nus = symplectic_eigenvalues(std.as_matrix())
        assert np.allclose(nus, [2 * (1 - tau) * nbar + 1, 1.0], atol=1e-9)

    def test_unphysical_rejected(self):
        with pytest.raises(ValueError):
            symplectic_eigenvalues(np.diag([0.2, 0.2]))

    def test_negative_definite_rejected(self):
        # every symplectic eigenvalue of -I is 1; only positive
        # definiteness rules it out
        with pytest.raises(ValueError, match="not positive definite"):
            symplectic_eigenvalues(-np.eye(4))

    def test_matches_eigen_check_on_random_covariances(self):
        # S diag(nu) S^T with some nu below 1 and some negative, so all
        # three outcomes occur: physical, unphysical, not positive definite.
        rng = np.random.default_rng(20261018)
        outcomes = []
        for trial in range(600):
            n = 1 + trial % 3
            s = to_symplectic(random_pair(rng, n)).s
            cov = s @ np.diag(np.repeat(rng.uniform(-0.5, 2.5, size=n), 2)) @ s.T
            cov = (cov + cov.T) / 2
            if abs(np.linalg.eigvalsh(cov + 1j * omega(n)).min()) < 1e-6:
                continue  # too close to the boundary for the tolerances to agree
            expected = _accepts(_check_cov, cov)
            assert _accepts(symplectic_eigenvalues, cov) == expected
            outcomes.append(expected)
        assert 100 < sum(outcomes) < len(outcomes) - 100


class TestWilliamson:
    def test_tmsv_case(self):
        nbar = 0.25
        nu = 2 * nbar + 1
        std = StandardTwoModeCov(a=nu, b=nu, c=math.sqrt(nu * nu - 1))
        smap, nu1, nu2 = williamson_standard_two_mode(std)
        assert nu1 == pytest.approx(1.0, abs=1e-12)
        assert nu2 == pytest.approx(1.0, abs=1e-12)
        xi = 0.5 * math.acosh(nu)  # squeezing of the purification
        assert smap.s[0, 0] == pytest.approx(math.cosh(xi), abs=1e-12)
        assert smap.s[0, 2] == pytest.approx(math.sinh(xi), abs=1e-12)

    def test_diagonal_case(self):
        smap, nu1, nu2 = williamson_standard_two_mode(StandardTwoModeCov(a=1.5, b=2.5, c=0.0))
        assert np.allclose(smap.s, np.eye(4))
        assert (nu1, nu2) == (max(1.5, 2.5), min(1.5, 2.5))

    def test_worked_point(self):
        std = eve_reduced_covariance(ChannelParams(tau=0.5, nbar=0.01))
        smap, nu1, nu2 = williamson_standard_two_mode(std)
        assert smap.s[0, 0] == pytest.approx(1.00248, abs=1e-5)
        assert smap.s[0, 2] == pytest.approx(0.07053, abs=1e-5)
        rebuilt = smap.s @ np.diag([nu2, nu2, nu1, nu1]) @ smap.s.T
        assert np.max(np.abs(rebuilt - std.as_matrix())) < 1e-9

    @pytest.mark.parametrize("tau", np.linspace(0.05, 0.95, 10))
    @pytest.mark.parametrize("nbar", [0.01, 0.02, 0.1])
    def test_reconstruction_grid(self, tau, nbar):
        std = eve_reduced_covariance(ChannelParams(tau=tau, nbar=nbar))
        smap, nu1, nu2 = williamson_standard_two_mode(std)
        rebuilt = smap.s @ np.diag([nu2, nu2, nu1, nu1]) @ smap.s.T
        assert np.max(np.abs(rebuilt - std.as_matrix())) < 1e-9
        w1, w2 = smap.s[0, 0], smap.s[0, 2]
        assert abs(w1 * w1 - w2 * w2 - 1) < 1e-10

    def test_negative_correlation(self):
        std = StandardTwoModeCov(a=2.0, b=1.5, c=-0.4)
        smap, nu1, nu2 = williamson_standard_two_mode(std)
        rebuilt = smap.s @ np.diag([nu2, nu2, nu1, nu1]) @ smap.s.T
        assert np.max(np.abs(rebuilt - std.as_matrix())) < 1e-9

    def test_degenerate_rejected(self):
        # (a+b)^2 - 4c^2 <= 0 cannot come from a physical standard form
        with pytest.raises(ValueError):
            StandardTwoModeCov(a=1.0, b=1.0, c=1.5)


def _accepts(check, *args):
    try:
        check(*args)
    except ValueError:
        return False
    return True


class TestStandardFormPhysicality:
    """StandardTwoModeCov decides physicality from its closed-form
    symplectic spectrum; the reference is the eigen-check of cov + i Omega."""

    def test_matches_eigen_check_on_random_forms(self):
        rng = np.random.default_rng(20261018)
        outcomes = []
        for _ in range(2000):
            a, b = 1 + rng.exponential(2.0, size=2)
            c = rng.uniform(-1.2, 1.2) * math.sqrt(a * b)
            matrix = np.block([[a * np.eye(2), c * Z], [c * Z, b * np.eye(2)]])
            if abs(np.linalg.eigvalsh(matrix + 1j * omega(2)).min()) < 1e-6:
                continue  # too close to the boundary for the tolerances to agree
            expected = _accepts(_check_cov, matrix)
            assert _accepts(StandardTwoModeCov, a, b, c) == expected, (a, b, c)
            outcomes.append(expected)
        assert 500 < sum(outcomes) < len(outcomes) - 500

    @pytest.mark.parametrize("a, b, c, message", [
        (math.nan, 2.0, 0.0, "standard-form entry a is not finite"),
        (2.0, math.inf, 0.0, "standard-form entry b is not finite"),
        (2.0, 2.0, -math.inf, "standard-form entry c is not finite"),
        # the first entry that is not finite is named
        (2.0, math.nan, math.nan, "standard-form entry b is not finite"),
        (0.5, 2.0, 0.0, "standard form needs a, b >= 1, got a=0.5, b=2.0"),
        (2.0, 0.5, 0.0, "standard form needs a, b >= 1, got a=2.0, b=0.5"),
        (1e155, 1e155, 0.0, "standard form beyond double precision: (a+b)^2 is not finite, a=1e+155, b=1e+155"),
        (1.0, 1.0, 1.5, "unphysical standard form: (a+b)^2 - 4c^2 = -5.000e+00 must be positive"),
        (1.0, 1.0, 1.0, "unphysical standard form: (a+b)^2 - 4c^2 = 0.000e+00 must be positive"),
        (2.0, 2.0, 1.9, "unphysical standard form: symplectic eigenvalue 0.62449979984 below 1"),
    ])
    def test_rejections_keep_their_messages(self, a, b, c, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StandardTwoModeCov(a=a, b=b, c=c)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("nbar", [0.0, 5.0])
    def test_conditional_covariance_on_the_boundary(self, tau, nbar):
        # nu2 = 1 exactly: the eavesdropper holds a purification
        std = eve_reduced_covariance(ChannelParams(tau=tau, nbar=nbar))
        assert min(standard_symplectic_spectrum(std)) == pytest.approx(1.0, abs=1e-12)
        _check_cov(std.as_matrix())


class TestEntropy:
    def test_vacuum(self):
        assert entropy_from_cov(np.eye(2)) == 0.0

    def test_thermal_one_photon_is_two_bits(self):
        assert entropy_from_cov(make_thermal(1).cov) == pytest.approx(2.0, abs=1e-12)
        oracle = fock.fock_entropy(fock.fock_thermal(1.0, 60))
        assert entropy_from_cov(make_thermal(1).cov) == pytest.approx(oracle, abs=1e-5)

    def test_thermal_low_matches_fock_oracle(self):
        oracle = fock.fock_entropy(fock.fock_thermal(0.01, 20))
        value = entropy_from_cov(make_thermal(0.01).cov)
        assert value == pytest.approx(oracle, abs=1e-5)
        assert value == pytest.approx(0.0809374, abs=1e-6)

    def test_nats(self):
        bits = entropy_from_cov(make_thermal(0.7).cov, base="bits")
        nats = entropy_from_cov(make_thermal(0.7).cov, base="nats")
        assert nats == pytest.approx(bits * math.log(2), rel=1e-12)

    @pytest.mark.parametrize("nbar", [0.0, 1e-13, 0.7])
    def test_bad_base_rejected_at_pure_and_mixed_points(self, nbar):
        # nbar below 1e-12 counts as pure and returns 0 without a log, so
        # the base has to be checked before that shortcut
        cov = make_thermal(nbar).cov
        for f in (thermal_entropy, lambda n, base: entropy_from_cov(cov, base)):
            with pytest.raises(ValueError, match="log base"):
                f(nbar, "foo")
        if nbar < 1e-12:
            assert thermal_entropy(nbar, "nats") == 0.0
            assert entropy_from_cov(cov, "bits") == 0.0

    def test_invariant_under_symplectic(self):
        rng = np.random.default_rng(3)
        cov = make_tmsv(0.4).cov + np.diag([0.3, 0.3, 0.1, 0.1])
        base = entropy_from_cov(cov)
        for _ in range(10):
            smap = to_symplectic(random_pair(rng, 2))
            moved = SymplecticMap(s=smap.s) if np.any(smap.d) else smap
            transformed = moved.s @ cov @ moved.s.T
            assert abs(entropy_from_cov(transformed) - base) < 1e-9


class TestMapsAndTrace:
    def test_identity_map(self):
        state = make_tmsv(0.2)
        out = apply_symplectic(state, SymplecticMap(s=np.eye(4)))
        assert np.allclose(out.cov, state.cov)
        assert np.allclose(out.mean, state.mean)

    def test_pure_displacement(self):
        state = make_thermal(0.3)
        out = apply_symplectic(state, SymplecticMap(s=np.eye(2), d=np.array([1.0, -2.0])))
        assert np.allclose(out.mean, [1.0, -2.0])
        assert np.allclose(out.cov, state.cov)

    def test_bs_on_signal_and_tmsv(self):
        # full three-mode covariance after the beam splitter, block by block
        from evebounds.cloner import bs_symplectic, initial_covariance

        params = ChannelParams(tau=0.3, nbar=0.05)
        state = GaussianState(mean=np.zeros(6), cov=initial_covariance(params))
        out = apply_symplectic(state, bs_symplectic(params))
        t, r, nbar = params.t, params.r, params.nbar
        s = math.sqrt(nbar**2 + nbar)
        expected = np.zeros((6, 6))
        expected[0:2, 0:2] = (2 * r * r * nbar + 1) * np.eye(2)
        expected[0:2, 2:4] = expected[2:4, 0:2] = 2 * t * r * nbar * np.eye(2)
        expected[0:2, 4:6] = expected[4:6, 0:2] = 2 * r * s * Z
        expected[2:4, 2:4] = (2 * t * t * nbar + 1) * np.eye(2)
        expected[2:4, 4:6] = expected[4:6, 2:4] = 2 * t * s * Z
        expected[4:6, 4:6] = (2 * nbar + 1) * np.eye(2)
        assert np.max(np.abs(out.cov - expected)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mode mismatch"):
            apply_symplectic(make_thermal(0.1), SymplecticMap(s=np.eye(4)))

    def test_partial_trace_keep_all(self):
        state = make_tmsv(0.2)
        out = partial_trace_modes(state, keep=(0, 1))
        assert np.allclose(out.cov, state.cov)

    def test_partial_trace_tmsv_marginal(self):
        nbar = 0.15
        out = partial_trace_modes(make_tmsv(nbar), keep=(1,))
        assert np.allclose(out.cov, (2 * nbar + 1) * np.eye(2), atol=1e-12)

    def test_partial_trace_bad_index(self):
        with pytest.raises(ValueError):
            partial_trace_modes(make_tmsv(0.1), keep=(2,))
        with pytest.raises(ValueError):
            partial_trace_modes(make_tmsv(0.1), keep=())


class TestStacks:
    """A stack of states runs the code of one state: each member equals
    the single call bit for bit, and a stack fails if any member fails."""

    @staticmethod
    def random_states(rng, nmodes, count):
        covs, means = [], []
        for _ in range(count):
            s = to_symplectic(random_pair(rng, nmodes)).s
            covs.append(s @ np.diag(np.repeat(rng.uniform(1.0, 3.0, size=nmodes), 2)) @ s.T)
            means.append(rng.normal(size=2 * nmodes))
        covs = np.array(covs)
        return np.array(means), (covs + covs.swapaxes(-1, -2)) / 2

    @pytest.mark.parametrize("nmodes", [1, 2, 3])
    def test_members_equal_single_states(self, nmodes):
        rng = np.random.default_rng(40 + nmodes)
        means, covs = self.random_states(rng, nmodes, 4)
        maps = [to_symplectic(random_pair(rng, nmodes, with_displacement=True)) for _ in range(4)]
        stack = GaussianState(mean=means, cov=covs)
        assert stack.nmodes == nmodes and stack.mean.shape == (4, 2 * nmodes)
        moved = apply_symplectic(stack, SymplecticMap(s=np.stack([m.s for m in maps]),
                                                      d=np.stack([m.d for m in maps])))
        shared = apply_symplectic(stack, maps[0])
        keep = (nmodes - 1,) if nmodes < 3 else (0, 2)
        traced = partial_trace_modes(moved, keep=keep)
        for i in range(4):
            single = GaussianState(mean=means[i], cov=covs[i])
            np.testing.assert_array_equal(stack.mean[i], single.mean)
            np.testing.assert_array_equal(stack.cov[i], single.cov)
            for got, smap in ((moved, maps[i]), (shared, maps[0])):
                want = apply_symplectic(single, smap)
                np.testing.assert_array_equal(got.mean[i], want.mean)
                np.testing.assert_array_equal(got.cov[i], want.cov)
            want = partial_trace_modes(apply_symplectic(single, maps[i]), keep=keep)
            np.testing.assert_array_equal(traced.mean[i], want.mean)
            np.testing.assert_array_equal(traced.cov[i], want.cov)

    def test_one_unphysical_member_fails_the_stack(self):
        covs = np.stack([make_tmsv(0.1).cov, make_tmsv(0.2).cov, 0.5 * np.eye(4)])
        with pytest.raises(ValueError, match="unphysical covariance matrix: min eig of cov"):
            GaussianState(mean=np.zeros((3, 4)), cov=covs)

    def test_one_asymmetric_member_fails_the_stack(self):
        covs = np.stack([np.eye(2), np.eye(2)])
        covs[1, 0, 1] = 1e-3
        with pytest.raises(ValueError, match="covariance matrix is not symmetric"):
            GaussianState(mean=np.zeros((2, 2)), cov=covs)

    def test_mean_size_must_match_the_stack(self):
        with pytest.raises(ValueError, match="mean length 4 does not match covariance size 6"):
            GaussianState(mean=np.zeros(4), cov=np.stack([np.eye(2)] * 3))

    def test_spectrum_takes_one_matrix(self):
        with pytest.raises(ValueError, match="must be square 2N x 2N"):
            symplectic_eigenvalues(np.stack([np.eye(2)] * 2))


class TestAverageCovariance:
    def test_zero_means(self):
        cov = make_thermal(0.2).cov
        out = average_covariance(np.zeros((3, 2)), np.full(3, 1 / 3), cov)
        assert np.allclose(out, cov)

    def test_two_point_spread(self):
        x = 0.7
        means = np.array([[2 * x, 0.0], [-2 * x, 0.0]])
        out = average_covariance(means, [0.5, 0.5], np.eye(2))
        brute = np.eye(2) + sum(0.5 * np.outer(m, m) for m in means)
        assert np.allclose(out, brute)
        assert out[0, 0] == pytest.approx(1 + 4 * x * x)

    def test_unnormalized_probs_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            average_covariance(np.zeros((2, 2)), [0.5, 0.6], np.eye(2))

    def test_bad_probs_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            average_covariance(np.zeros((2, 2)), [1.5, -0.5], np.eye(2))
        with pytest.raises(ValueError, match="NaN or Inf"):
            average_covariance(np.zeros((2, 2)), [np.nan, np.nan], np.eye(2))

    def test_weighted_asymmetric_case(self):
        rng = np.random.default_rng(9)
        means = rng.normal(size=(5, 4))
        probs = rng.random(5)
        probs /= probs.sum()
        cov = make_tmsv(0.3).cov
        out = average_covariance(means, probs, cov)
        mbar = probs @ means
        brute = cov + sum(p * np.outer(m - mbar, m - mbar) for p, m in zip(probs, means))
        assert np.allclose(out, brute, atol=1e-12)


def test_omega_blocks():
    assert np.allclose(omega(2)[:2, :2], [[0, 1], [-1, 0]])
    assert np.allclose(omega(2)[:2, 2:], 0)


@pytest.mark.parametrize("nmodes", [1, 2, 3, 6])
def test_omega_is_block_diagonal_j(nmodes):
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(omega(nmodes), np.kron(np.eye(nmodes), j))
