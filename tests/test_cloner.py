import math

import numpy as np
import pytest

from evebounds import fock
from evebounds.cloner import (
    MEAN_LIMIT,
    ChannelParams,
    Constellation,
    bs_symplectic,
    displaced_thermal_ensemble,
    eve_reduced_covariance,
    eve_thermal_weights,
    initial_covariance,
    qpsk,
)
from evebounds.linalg import max_abs
from evebounds.states import (
    GaussianState,
    apply_symplectic,
    average_covariance,
    entropy_from_cov,
    make_tmsv,
    omega,
    partial_trace_modes,
    williamson_standard_two_mode,
)
from reference import bloch_messiah_amplitudes, coherent_ket, eve_conditional_mean, fock_moments, tmsv_ket

GRID = [(tau, nbar) for tau in np.linspace(0.05, 0.95, 10) for nbar in (0.01, 0.02, 0.1)]


class TestParamsAndConstellation:
    def test_channel_params_derived(self):
        p = ChannelParams(tau=0.36, nbar=0.01)
        assert p.t == pytest.approx(0.6)
        assert p.r == pytest.approx(0.8)
        assert p.t**2 + p.r**2 == pytest.approx(1.0)

    def test_channel_params_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(tau=1.2, nbar=0.0)
        with pytest.raises(ValueError):
            ChannelParams(tau=0.5, nbar=-0.01)
        for nbar in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                ChannelParams(tau=0.5, nbar=nbar)

    def test_qpsk_phases(self):
        c = qpsk(1.0)
        expected = [np.exp(1j * k * np.pi / 4) for k in (1, 3, 5, 7)]
        assert np.allclose(c.amplitudes, expected)
        assert np.allclose(np.abs(c.amplitudes.real), 1 / math.sqrt(2))
        assert np.allclose(np.abs(c.amplitudes.imag), 1 / math.sqrt(2))
        assert c.probs.sum() == pytest.approx(1.0)

    def test_qpsk_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            qpsk(0.0)

    def test_constellation_validation(self):
        with pytest.raises(ValueError, match="sum"):
            Constellation(amplitudes=[1.0, -1.0], probs=[0.5, 0.6])
        with pytest.raises(ValueError, match="nonnegative"):
            Constellation(amplitudes=[1.0, -1.0], probs=[1.5, -0.5])
        for amplitudes, probs in (
            ([0.5, -0.5], [math.nan, math.nan]),
            ([0.5, -0.5], [math.inf, 0.5]),
            ([math.nan, 0.5], [0.5, 0.5]),
            ([0.5, complex(0.0, math.inf)], [0.5, 0.5]),
        ):
            with pytest.raises(ValueError, match="NaN or Inf"):
                Constellation(amplitudes=amplitudes, probs=probs)


class TestCovariancePipeline:
    def test_initial_covariance_vacuum_ancilla(self):
        assert np.allclose(initial_covariance(ChannelParams(tau=0.3, nbar=0.0)), np.eye(6))

    def test_initial_covariance_blocks(self):
        p = ChannelParams(tau=0.3, nbar=0.01)
        cov = initial_covariance(p)
        assert np.allclose(cov[:2, :2], np.eye(2))
        assert np.allclose(cov[2:, 2:], make_tmsv(0.01).cov)
        assert cov[2, 4] == pytest.approx(0.20100, abs=1e-5)

    def test_bs_identity_at_unit_transmittance(self):
        assert np.allclose(bs_symplectic(ChannelParams(tau=1.0, nbar=0.1)).s, np.eye(6))

    def test_bs_balanced(self):
        s = bs_symplectic(ChannelParams(tau=0.5, nbar=0.0)).s
        inv_sqrt2 = 1 / math.sqrt(2)
        assert np.allclose(s[0:2, 0:2], inv_sqrt2 * np.eye(2))
        assert np.allclose(s[0:2, 2:4], inv_sqrt2 * np.eye(2))
        assert np.allclose(s[2:4, 0:2], -inv_sqrt2 * np.eye(2))

    def test_sequences_of_cells_stack_the_single_calls(self):
        cells = [ChannelParams(tau=tau, nbar=nbar) for tau, nbar in GRID[:7]] + [
            ChannelParams(tau=0.0, nbar=0.0), ChannelParams(tau=1.0, nbar=3.0)]
        covs, maps = initial_covariance(cells), bs_symplectic(cells)
        assert covs.shape == maps.s.shape == (9, 6, 6)
        for i, p in enumerate(cells):
            np.testing.assert_array_equal(covs[i], initial_covariance(p))
            np.testing.assert_array_equal(maps.s[i], bs_symplectic(p).s)
        # the ancilla block is the TMSV's, bit for bit
        np.testing.assert_array_equal(initial_covariance(cells[2])[2:, 2:], make_tmsv(cells[2].nbar).cov)

    def test_bs_symplectic_form(self):
        s = bs_symplectic(ChannelParams(tau=0.3, nbar=0.0)).s
        assert np.max(np.abs(s @ omega(3) @ s.T - omega(3))) < 1e-12

    def test_eve_reduced_limits(self):
        full = eve_reduced_covariance(ChannelParams(tau=1.0, nbar=0.25))
        assert full.a == pytest.approx(full.b)
        assert full.c == pytest.approx(2 * math.sqrt(0.25**2 + 0.25))
        cut = eve_reduced_covariance(ChannelParams(tau=0.0, nbar=0.25))
        assert (cut.a, cut.b, cut.c) == (1.0, 1.5, 0.0)

    @pytest.mark.parametrize("nbar, message", [
        (1e154, "standard form beyond double precision"),
        (1e200, "standard-form entry c is not finite"),
    ])
    def test_eve_reduced_past_double_precision(self, nbar, message):
        # nbar**2 stopped both on an OverflowError
        with pytest.raises(ValueError, match=message):
            eve_reduced_covariance(ChannelParams(tau=0.5, nbar=nbar))

    def test_eve_reduced_worked_point(self):
        std = eve_reduced_covariance(ChannelParams(tau=0.5, nbar=0.01))
        assert (std.a, std.b) == (1.01, 1.02)
        assert std.c == pytest.approx(0.142127, abs=1e-6)

    @pytest.mark.parametrize("tau,nbar", GRID)
    def test_pipeline_equality(self, tau, nbar):
        p = ChannelParams(tau=tau, nbar=nbar)
        state = GaussianState(mean=np.zeros(6), cov=initial_covariance(p))
        reduced = partial_trace_modes(apply_symplectic(state, bs_symplectic(p)), keep=(1, 2))
        assert np.max(np.abs(reduced.cov - eve_reduced_covariance(p).as_matrix())) < 1e-12

    @pytest.mark.parametrize("tau,nbar", [(0.3, 0.02), (0.7, 0.1)])
    def test_global_purity_bookkeeping(self, tau, nbar):
        # three-mode state is pure, so the eavesdropper's two modes carry
        # the same entropy as the receiver's single thermal mode
        p = ChannelParams(tau=tau, nbar=nbar)
        eve = entropy_from_cov(eve_reduced_covariance(p).as_matrix())
        bob = entropy_from_cov((2 * (1 - tau) * nbar + 1) * np.eye(2))
        assert abs(eve - bob) < 1e-9


class TestConditionalMean:
    def test_unit_transmittance(self):
        assert np.allclose(eve_conditional_mean(0.7 + 0.2j, ChannelParams(tau=1.0, nbar=0.0)), 0.0)

    def test_values(self):
        assert np.allclose(
            eve_conditional_mean(1.0, ChannelParams(tau=0.36, nbar=0.0)), [-1.6, 0, 0, 0]
        )
        assert np.allclose(
            eve_conditional_mean(np.exp(1j * np.pi / 4), ChannelParams(tau=0.0, nbar=0.0)),
            [-math.sqrt(2), -math.sqrt(2), 0, 0],
        )

    def test_matches_fock_oracle(self):
        # first and second moments of the conditional state, from the
        # three-mode pure-state simulation
        p = ChannelParams(tau=0.36, nbar=0.02)
        cutoff = 16
        d = cutoff + 1
        for alpha_i in (1.0, np.exp(1j * np.pi / 4)):
            ket_a, _ = coherent_ket(alpha_i, cutoff)
            psi_ce, _ = tmsv_ket(p.nbar, cutoff)
            psi = np.einsum("a,ce->ace", ket_a, psi_ce.reshape(d, d))
            bs2 = fock.fock_bs(p.tau, cutoff).reshape(d, d, d, d)
            out = np.einsum("bdac,ace->bde", bs2, psi)
            rho = np.einsum("bde,bfg->defg", out, out.conj()).reshape(d * d, d * d)
            mean, cov = fock_moments(rho, cutoff, 2)
            assert np.allclose(mean, eve_conditional_mean(alpha_i, p), atol=1e-6)
            assert np.allclose(cov, eve_reduced_covariance(p).as_matrix(), atol=1e-5)


class TestDisplacedThermalEnsemble:
    def test_own_read_only_constellation(self):
        # Editing the constellation after the build changes neither the
        # ensemble's amplitudes nor gets round its check of the means.
        constellation = qpsk(1.0)
        ens = displaced_thermal_ensemble(constellation, ChannelParams(tau=0.5, nbar=0.01))
        means = ens.means.copy()
        constellation.amplitudes[:] = 1e200
        constellation.probs[:] = [1.0, 0.0, 0.0, 0.0]
        assert np.array_equal(ens.means, means) and np.array_equal(ens.probs, np.full(4, 0.25))
        for array in (ens.constellation.amplitudes, ens.probs):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_unit_transmittance_trivial(self):
        ens = displaced_thermal_ensemble(qpsk(1.0), ChannelParams(tau=1.0, nbar=0.05))
        assert np.allclose(ens.means, 0.0, atol=1e-12)
        assert ens.nu1p == pytest.approx(0.0, abs=1e-12)

    def test_worked_point(self):
        ens = displaced_thermal_ensemble(qpsk(1.0), ChannelParams(tau=0.5, nbar=0.01))
        assert ens.nu1p == pytest.approx(0.005, abs=1e-12)
        amps = ens.mode_amplitudes()
        assert np.allclose(np.abs(amps[:, 0]), 0.70886, atol=1e-5)
        assert np.allclose(np.abs(amps[:, 1]), 0.04987, atol=1e-5)

    def test_pure_loss_reduces_to_coherent(self):
        ens = displaced_thermal_ensemble(qpsk(0.8), ChannelParams(tau=0.0, nbar=0.0))
        amps = ens.mode_amplitudes()
        assert np.allclose(amps[:, 0], -qpsk(0.8).amplitudes, atol=1e-12)
        assert np.allclose(amps[:, 1], 0.0, atol=1e-12)
        assert ens.nu1p == pytest.approx(0.0, abs=1e-12)

    # The last two points have tiny squeezing (lambda_f about 3e-6 and 1e-8),
    # which the Bloch-Messiah path must keep to full relative precision.
    @pytest.mark.parametrize("tau,nbar", [(0.3, 0.01), (0.5, 0.02), (0.85, 0.1),
                                          (0.57, 1.42e-11), (0.3, 1e-16)])
    def test_closed_form_displacements(self, tau, nbar):
        # the closed form against the conditional displacement pushed
        # through the Bloch-Messiah circuit
        p = ChannelParams(tau=tau, nbar=nbar)
        amps = displaced_thermal_ensemble(qpsk(1.0), p).mode_amplitudes()
        assert np.max(np.abs(amps - bloch_messiah_amplitudes(qpsk(1.0), p))) < 1e-10

    @pytest.mark.parametrize("tau,nbar", [(0.3, 0.01), (0.6, 0.05)])
    def test_transformed_means_match_conditional(self, tau, nbar):
        # pushing the switched displacement back through the thermal
        # decomposition's map must restore the conditional means
        p = ChannelParams(tau=tau, nbar=nbar)
        smap, _, _ = williamson_standard_two_mode(eve_reduced_covariance(p))
        ens = displaced_thermal_ensemble(qpsk(1.0), p)
        for amp, mean in zip(qpsk(1.0).amplitudes, ens.means):
            assert np.allclose(smap.s @ mean, eve_conditional_mean(amp, p), atol=1e-10)

    @pytest.mark.parametrize("alpha", [1.7e308, 1e200])
    def test_means_past_the_limit_raise_before_doubling(self, alpha):
        # at 1.7e308 the displacements are finite but twice them is not:
        # the bound is tested on the displacements, so no numpy overflow
        # is formed (a RuntimeWarning fails the suite)
        cells = [ChannelParams(tau=0.02, nbar=0.01), ChannelParams(tau=0.98, nbar=0.02)]
        for params in (cells[0], cells):
            with pytest.raises(ValueError, match="ensemble means beyond double precision"):
                displaced_thermal_ensemble(qpsk(alpha), params)

    def test_means_just_below_the_limit_pass(self):
        # at tau = 0, nbar = 0 (w1 r = 1) the largest mean is sqrt(2) alpha:
        # the bound on the displacements is the ensemble's bound on the means
        params = ChannelParams(tau=0.0, nbar=0.0)
        alpha = 0.99 * MEAN_LIMIT / 2 * math.sqrt(2)
        ens = displaced_thermal_ensemble(qpsk(alpha), params)
        assert max_abs(ens.means) < MEAN_LIMIT
        with pytest.raises(ValueError, match="beyond double precision"):
            displaced_thermal_ensemble(qpsk(alpha / 0.98), params)


class TestThermalWeights:
    def test_closed_form_matches_williamson_weights(self):
        rng = np.random.default_rng(11)
        for tau, nbar in zip(rng.uniform(0, 1, 2000), rng.uniform(0, 5, 2000)):
            p = ChannelParams(tau=tau, nbar=nbar)
            w1, w2, nu1p = eve_thermal_weights(p)
            smap, nu1, nu2 = williamson_standard_two_mode(eve_reduced_covariance(p))
            ref_w1, ref_w2 = smap.s[0, 0], smap.s[0, 2]
            assert abs(w1 - ref_w1) < 1e-13 and abs(w2 - ref_w2) < 1e-13
            assert abs(nu1p - (nu1 - 1) / 2) < 1e-13 and abs(nu2 - 1) < 1e-13

    @pytest.mark.parametrize("tau", [0.0, 0.4, 1.0])
    def test_exact_at_large_nbar(self, tau):
        # w1^2 - w2^2 = 1 and nu1p = (1 - tau) nbar hold where the
        # standard form itself no longer passes its physicality check
        w1, w2, nu1p = eve_thermal_weights(ChannelParams(tau=tau, nbar=1e6))
        assert w1 * w1 - w2 * w2 == pytest.approx(1.0, abs=1e-9)
        assert nu1p == (1 - tau) * 1e6
        ens = displaced_thermal_ensemble(qpsk(1.0), ChannelParams(tau=tau, nbar=1e6))
        assert ens.nu1p == nu1p


class TestAverageCovariance:
    def test_zero_amplitude_limit(self):
        p = ChannelParams(tau=0.5, nbar=0.01)
        cov = displaced_thermal_ensemble(qpsk(1e-9), p).average_covariance()
        ens = displaced_thermal_ensemble(qpsk(1e-9), p)
        assert np.allclose(cov, ens.common_covariance(), atol=1e-8)

    def test_pure_loss_qpsk(self):
        cov = displaced_thermal_ensemble(qpsk(1.0), ChannelParams(tau=0.0, nbar=0.0)).average_covariance()
        assert np.allclose(cov, np.diag([3.0, 3.0, 1.0, 1.0]), atol=1e-12)

    @pytest.mark.parametrize("tau,nbar", GRID)
    def test_closed_form_matches_moments(self, tau, nbar):
        # with x = w1 r alpha, y = w2 r alpha and n1, n2 the thermal photon
        # numbers of modes 1 and 2 the four-state average covariance is
        # [[(2(n1 + x^2) + 1) I, -2xy Z], [-2xy Z, (2(n2 + y^2) + 1) I]]
        p = ChannelParams(tau=tau, nbar=nbar)
        smap, nu1, nu2 = williamson_standard_two_mode(eve_reduced_covariance(p))
        x = smap.s[0, 0] * p.r
        y = smap.s[0, 2] * p.r
        n1, n2 = (nu2 - 1) / 2, (nu1 - 1) / 2
        closed = np.diag([2 * (n1 + x * x) + 1] * 2 + [2 * (n2 + y * y) + 1] * 2)
        closed[:2, 2:] = closed[2:, :2] = -2 * x * y * np.diag([1.0, -1.0])
        numeric = displaced_thermal_ensemble(qpsk(1.0), p).average_covariance()
        assert np.max(np.abs(numeric - closed)) < 1e-10

    def test_transformed_average_matches_direct(self):
        # S (ensemble average) S^T = Sigma_Eve + spread of conditional means
        p = ChannelParams(tau=0.4, nbar=0.02)
        c = qpsk(1.0)
        smap, _, _ = williamson_standard_two_mode(eve_reduced_covariance(p))
        ens_cov = displaced_thermal_ensemble(c, p).average_covariance()
        direct = average_covariance(
            [eve_conditional_mean(a, p) for a in c.amplitudes],
            c.probs,
            eve_reduced_covariance(p).as_matrix(),
        )
        assert np.max(np.abs(smap.s @ ens_cov @ smap.s.T - direct)) < 1e-10
