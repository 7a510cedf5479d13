import math

import numpy as np
import pytest

from evebounds import fock
from evebounds.bounds import (
    EB_ALPHA_MAX,
    bm_get_entropy,
    bm_gme_entropy,
    eb_qpsk_entropy,
    eb_z4,
    gram_entropy,
    gram_matrix,
)
from evebounds.cloner import (
    ChannelParams,
    Constellation,
    displaced_thermal_ensemble,
    eve_average_covariance,
    qpsk,
)
from evebounds.states import entropy_from_cov, thermal_entropy
from reference import coherent_ket

# 1.42e-11 leaves the thermal decomposition a squeezing so small that the
# matched SVD of the Bloch-Messiah route raised at most taus of the grid.
GRID_NBARS = [0.01, 0.02, 1.42e-11]


def qpsk_coherent_reference_entropy(alpha):
    """Average-state entropy of the four-state ensemble from the mod-4
    Poisson sums; independent of the Gram-matrix implementation."""
    a2 = alpha * alpha
    f = np.array(
        [
            (math.cosh(a2) + math.cos(a2)) / 2,
            (math.sinh(a2) + math.sin(a2)) / 2,
            (math.cosh(a2) - math.cos(a2)) / 2,
            (math.sinh(a2) - math.sin(a2)) / 2,
        ]
    )
    lam = math.exp(-a2) * f
    return float(-(lam * np.log2(lam)).sum()), lam


def pure_ensemble(constellation):
    """The displaced-thermal ensemble at tau = 0, nbar = 0: pure, with mode
    amplitudes (-alpha_k, 0), so its Gram matrix is the constellation's."""
    return displaced_thermal_ensemble(constellation, ChannelParams(tau=0.0, nbar=0.0))


class TestGramMatrix:
    def test_single_state(self):
        gm = gram_matrix(pure_ensemble(Constellation(amplitudes=[0.5], probs=[1.0])))
        assert np.allclose(gm, [[1.0]])
        assert gram_entropy(gm) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_gram(self):
        assert gram_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_states_give_maximally_mixed_gram(self):
        # far-separated coherent states have negligible overlap
        c = Constellation(amplitudes=[-6.0, 6.0], probs=[0.5, 0.5])
        gm = gram_matrix(pure_ensemble(c))
        assert np.allclose(gm, np.eye(2) / 2, atol=1e-12)
        assert gram_entropy(gm) == pytest.approx(1.0, abs=1e-12)

    def test_qpsk_pure_exact_spectrum(self):
        reference, lam = qpsk_coherent_reference_entropy(1.0)
        gm = gram_matrix(pure_ensemble(qpsk(1.0)))
        eigs = np.sort(np.linalg.eigvalsh(gm))[::-1]
        assert np.allclose(eigs, np.sort(lam)[::-1], atol=1e-12)
        assert gram_entropy(gm) == pytest.approx(reference, abs=1e-12)
        assert gram_entropy(gm) == pytest.approx(1.758, abs=1e-3)

    def test_qpsk_entropy_vs_fock_oracle(self):
        gm = gram_matrix(pure_ensemble(qpsk(1.0)))
        kets = [coherent_ket(amp, 30)[0] for amp in qpsk(1.0).amplitudes]
        rho = sum(0.25 * np.outer(ket, ket.conj()) for ket in kets)
        assert gram_entropy(gm) == pytest.approx(fock.fock_entropy(rho), abs=1e-3)

    def test_pure_exact_matches_pairwise_overlaps(self):
        # entry by entry: sqrt(p_m p_n) times the product over both modes of
        # <a|b> = exp(-(|a|^2 + |b|^2)/2 + conj(a) b); the array form may
        # round differently in the last bits
        ens = displaced_thermal_ensemble(qpsk(1.3), ChannelParams(tau=0.4, nbar=0.5))
        amps = ens.mode_amplitudes()
        expected = np.empty((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                overlap = 1.0
                for a, b in zip(amps[i], amps[j]):
                    overlap *= np.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2) + np.conj(a) * b)
                expected[i, j] = math.sqrt(ens.probs[i] * ens.probs[j]) * overlap
        gm = gram_matrix(ens)
        assert np.max(np.abs(gm - expected)) < 1e-14

    # 1e150 is near the ensemble's MEAN_LIMIT, far past where bm-get leaves
    # double precision
    @pytest.mark.parametrize("alpha", [5000.0, 1e4, 1e150])
    def test_hermitian_at_large_amplitude(self, alpha):
        # the overlaps' phases are antisymmetric by construction, so the
        # matrix stays Hermitian where exp(-(|a|^2 + |b|^2)/2 + conj(a) b)
        # broke the 1e-10 check (2.055e-10 at alpha = 5000)
        gm = gram_matrix(displaced_thermal_ensemble(qpsk(alpha), ChannelParams(tau=0.5, nbar=0.0)))
        assert np.array_equal(gm, gm.conj().T)
        assert bm_gme_entropy(qpsk(alpha), ChannelParams(tau=0.5, nbar=0.0)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            gram_entropy(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            gram_entropy(np.eye(2))
        with pytest.raises(ValueError, match="eigenvalue"):
            gram_entropy(np.diag([1.1, -0.1]))
        # a NaN Gram matrix used to give entropy 0.0
        for nan_gram in (np.array([[np.nan]]), np.array([[0.5, np.nan], [np.nan, 0.5]])):
            with pytest.raises(ValueError, match=r"Hermitian: .* = nan"):
                gram_entropy(nan_gram)


class TestGaussianExtremalityBound:
    def test_unit_transmittance_zero(self):
        assert bm_get_entropy(qpsk(1.0), ChannelParams(tau=1.0, nbar=0.05)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_pure_loss_two_bits(self):
        value = bm_get_entropy(qpsk(1.0), ChannelParams(tau=0.0, nbar=0.0))
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_between_limits_and_above_oracle(self):
        params = ChannelParams(tau=0.5, nbar=0.01)
        value = bm_get_entropy(qpsk(1.0), params)
        upper = bm_get_entropy(qpsk(1.0), ChannelParams(tau=0.0, nbar=0.01))
        assert 0.0 < value < upper
        oracle = fock.eve_exact_entropy(qpsk(1.0), params, cutoff=15)
        assert oracle.value <= value + 1e-6

    def test_bad_base_rejected_at_pure_point(self):
        # tau = 1 with nbar = 0 leaves the eavesdropper in vacuum
        params = ChannelParams(tau=1.0, nbar=0.0)
        assert bm_get_entropy(qpsk(1.0), params, base="nats") == 0.0
        with pytest.raises(ValueError, match="log base"):
            bm_get_entropy(qpsk(1.0), params, base="foo")

    @pytest.mark.parametrize("alpha, params, entropy", [
        (1e150, ChannelParams(tau=0.5, nbar=0.01), bm_get_entropy),
        (3.23e8, ChannelParams(tau=0.25, nbar=5.0), bm_get_entropy),
        (1e200, ChannelParams(tau=0.5, nbar=0.01), bm_get_entropy),
        (1e200, ChannelParams(tau=0.5, nbar=0.01), bm_gme_entropy),
    ], ids=["1e+150-params0", "323000000.0-params1", "1e+200-bm-get", "1e+200-bm-gme"])
    def test_covariance_beyond_double_precision_raises(self, alpha, params, entropy):
        # the average covariance's invariants overflow at alpha = 1e150 and
        # its determinant cancels to a negative value at 3.23e8; both must
        # raise a named error, not give nan or a bare "math domain error".
        # At 1e200 the ensemble's means pass its MEAN_LIMIT, where the Gram
        # matrix and the average covariance would overflow in numpy.
        with pytest.raises(ValueError, match="beyond double precision"):
            entropy(qpsk(alpha), params)

    def test_nats(self):
        params = ChannelParams(tau=0.5, nbar=0.01)
        bits = bm_get_entropy(qpsk(1.0), params, base="bits")
        nats = bm_get_entropy(qpsk(1.0), params, base="nats")
        assert nats == pytest.approx(bits * math.log(2), rel=1e-12)


class TestGramEntropyBound:
    def test_unit_transmittance_zero(self):
        assert bm_gme_entropy(qpsk(1.0), ChannelParams(tau=1.0, nbar=0.05)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_pure_loss_equals_exact(self):
        reference, _ = qpsk_coherent_reference_entropy(1.0)
        value = bm_gme_entropy(qpsk(1.0), ChannelParams(tau=0.0, nbar=0.0))
        assert value == pytest.approx(reference, abs=1e-9)

    @pytest.mark.parametrize("nbar", GRID_NBARS)
    def test_below_gaussian_bound_on_grid(self, nbar):
        c = qpsk(1.0)
        for tau in np.linspace(0.05, 0.95, 10):
            params = ChannelParams(tau=tau, nbar=nbar)
            assert bm_gme_entropy(c, params) <= bm_get_entropy(c, params) + 1e-9

    def test_large_nbar_finite_and_ordered(self):
        # nbar = 1e6: the eavesdropper's second symplectic eigenvalue is 1
        # exactly, where the cancelling Williamson form gave 0.99999999977
        # and both estimators raised
        params = ChannelParams(tau=0.4, nbar=1e6)
        get = bm_get_entropy(qpsk(1.0), params)
        gme = bm_gme_entropy(qpsk(1.0), params)
        assert math.isfinite(get) and math.isfinite(gme)
        assert gme <= get <= eb_qpsk_entropy(1.0, params)

    def test_pure_exact_below_oracle(self):
        # dropping the thermal covariance can only lower the entropy
        params = ChannelParams(tau=0.5, nbar=0.01)
        oracle = fock.eve_exact_entropy(qpsk(1.0), params, cutoff=15)
        assert bm_gme_entropy(qpsk(1.0), params) <= oracle.value + 1e-6

class TestEntangledBasedBound:
    def test_modulation_variance(self):
        # X = 1 + 2 alpha^2 is the ensemble second moment; here probe the
        # resulting covariance
        params = ChannelParams(tau=1.0, nbar=0.0)
        value = eb_qpsk_entropy(1.0, params)
        x = 3.0
        z4 = eb_z4(1.0)
        nu = math.sqrt(x * x - z4 * z4)
        expected = 2 * (
            (nu + 1) / 2 * math.log2((nu + 1) / 2) - (nu - 1) / 2 * math.log2((nu - 1) / 2)
        )
        assert value == pytest.approx(expected, rel=1e-10)

    def test_worked_point_value(self):
        # frozen from the closed-form Z4 route (mod-4 Poisson sums)
        value = eb_qpsk_entropy(1.0, ChannelParams(tau=0.5, nbar=0.01))
        assert value == pytest.approx(2.1570, abs=2e-3)

    @pytest.mark.parametrize("nbar", GRID_NBARS)
    def test_dominates_gaussian_bound(self, nbar):
        c = qpsk(1.0)
        for tau in np.linspace(0.05, 0.95, 10):
            params = ChannelParams(tau=tau, nbar=nbar)
            assert bm_get_entropy(c, params) <= eb_qpsk_entropy(1.0, params) + 1e-9

    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            eb_qpsk_entropy(0.0, ChannelParams(tau=0.5, nbar=0.01))

    @pytest.mark.parametrize("alpha", [1000.0, 4430.0, 5000.0, 1e4])
    def test_large_amplitude_closed_forms(self, alpha):
        # Z4 = x - 1 to rounding, so at tau = 1 both symplectic eigenvalues
        # are sqrt(x^2 - Z4^2) = sqrt(2x - 1); at tau = 0, c = 0 and they
        # are x and 2 nbar + 1.  With Z4 from the log-space sums alone,
        # x - Z4 was 1.0016 at alpha = 1000 and alpha = 5000 raised.
        # g(n) = log n + (n + 1) log(1 + 1/n): two positive terms, so this
        # reference does not cancel at n = alpha^2.
        def g(nu):
            n = (nu - 1) / 2
            return math.log2(n) + (n + 1) * math.log1p(1 / n) / math.log(2) if n > 0 else 0.0

        x = 1 + 2 * alpha**2
        for nbar in (0.0, 5.0):
            at_one = eb_qpsk_entropy(alpha, ChannelParams(tau=1.0, nbar=nbar))
            assert at_one == pytest.approx(2 * g(math.sqrt(2 * x - 1)), abs=1e-6)
            at_zero = eb_qpsk_entropy(alpha, ChannelParams(tau=0.0, nbar=nbar))
            assert at_zero == pytest.approx(g(x) + g(2 * nbar + 1), abs=1e-9)
            for tau in (0.1, 0.5, 0.99):
                assert math.isfinite(eb_qpsk_entropy(alpha, ChannelParams(tau=tau, nbar=nbar)))

    # eb at alpha = 1, generated offline with 400-digit mpmath: X = 3, Z4
    # from the exact mod-4 Fourier weights, and both symplectic eigenvalues
    # in the difference form [sqrt((X + b)^2 - 4c^2) +/- (b - X)] / 2, whose
    # cancellation 400 digits resolve.
    LARGE_NBAR_EB = [
        (0.02, 1e8, 29.988973461659538055),
        (0.02, 1e16, 56.564398213427244565),
        (0.02, 1e100, 335.60635818396568174),
        (0.5, 1e8, 29.018119812969478497),
        (0.5, 1e16, 55.593544559086761103),
        (0.5, 1e100, 334.63550452962519822),
        (0.98, 1e8, 24.374263900065500908),
        (0.98, 1e16, 50.949688369312040457),
        (0.98, 1e100, 329.9916483398504748),
    ]

    @pytest.mark.parametrize("tau, nbar, expected", LARGE_NBAR_EB)
    def test_large_nbar_against_high_precision(self, tau, nbar, expected):
        # The difference form in doubles cancels once Bob's variance b >> X:
        # at tau = 0.5 it was off by 9.7e-10 bits at nbar = 1e8 and 0.62 at
        # 1e16, and at 1e100 it raised a false "unphysical" error.
        value = eb_qpsk_entropy(1.0, ChannelParams(tau=tau, nbar=nbar))
        assert value == pytest.approx(expected, rel=0, abs=1e-13)

    @pytest.mark.parametrize("alpha", [0.05, 1.0, 100.0])
    @pytest.mark.parametrize("tau", [0.02, 0.5, 0.98])
    def test_defined_out_to_large_nbar(self, tau, alpha):
        # from nbar ~ 9e15 to 7e21 the smaller eigenvalue cancelled to 0
        values = [eb_qpsk_entropy(alpha, ChannelParams(tau=tau, nbar=nbar))
                  for nbar in (1e8, 9e15, 1e18, 7e21, 1e150)]
        assert all(map(math.isfinite, values)) and values == sorted(values)

    def test_nbar_past_double_precision_raises(self):
        # (a + b)^2 overflows: this stopped on an OverflowError
        with pytest.raises(ValueError, match=r"standard form beyond double precision: \(a\+b\)\^2"):
            eb_qpsk_entropy(1.0, ChannelParams(tau=0.5, nbar=1e200))

    @pytest.mark.parametrize("alpha", [np.nextafter(EB_ALPHA_MAX, np.inf), 2e4, 1e8])
    def test_rejects_amplitude_past_domain(self, alpha):
        with pytest.raises(ValueError, match=r"0 < alpha <= 10000"):
            eb_qpsk_entropy(alpha, ChannelParams(tau=0.5, nbar=0.01))

    def test_smallest_amplitudes(self):
        # alpha^2 underflows to 0 below about 1.5e-162 and Z4 ~ 2 alpha, so
        # the purification is the vacuum: eb is 0 at nbar = 0, and at
        # nbar = 5 the entropy of the channel output, thermal with
        # variance 0.5 + 0.5 * 11 = 6, that is nbar 2.5
        for alpha in (1e-200, 5e-324):
            assert eb_qpsk_entropy(alpha, ChannelParams(tau=0.5, nbar=0.0)) == 0.0
            assert eb_qpsk_entropy(alpha, ChannelParams(tau=0.5, nbar=5.0)) == pytest.approx(
                thermal_entropy(2.5), rel=1e-15
            )

    def test_bad_base_rejected_at_pure_point(self):
        # at alpha = 1e-7 every symplectic eigenvalue is within 2e-14 of 1,
        # so each mode takes the pure-state shortcut
        params = ChannelParams(tau=0.0, nbar=0.0)
        assert eb_qpsk_entropy(1e-7, params, base="nats") == 0.0
        with pytest.raises(ValueError, match="log base"):
            eb_qpsk_entropy(1e-7, params, base="foo")

    def test_matches_general_eigensolve(self):
        # The closed-form standard-form spectrum against entropy_from_cov of
        # the hand-built 4x4 covariance, over the domain of
        # test_ordering_property.py plus its edges.
        rng = np.random.default_rng(2024)
        points = [(0.0, 1.3, 0.7), (1.0, 1.3, 0.7), (0.4, 0.0, 0.7), (0.0, 0.0, 2.0), (1.0, 0.0, 2.0)]
        points += list(zip(rng.uniform(0, 1, 300), rng.uniform(0, 5, 300), rng.uniform(0.05, 6, 300)))
        z = np.diag([1.0, -1.0])
        for tau, nbar, alpha in points:
            x = 1 + 2 * alpha * alpha
            bob = tau * x + (1 - tau) * (2 * nbar + 1)
            corr = math.sqrt(tau) * eb_z4(alpha)
            cov = np.block([[x * np.eye(2), corr * z], [corr * z, bob * np.eye(2)]])
            value = eb_qpsk_entropy(alpha, ChannelParams(tau=tau, nbar=nbar))
            assert value == pytest.approx(entropy_from_cov(cov), abs=1e-12)

    def test_bm_get_matches_general_eigensolve(self):
        # bm-get's spectrum from the two-mode invariants against the general
        # eigensolve of the same average covariance, over the domain of
        # test_ordering_property.py, its edges, alpha = 30, and a
        # constellation whose average covariance is not in standard form.
        rng = np.random.default_rng(2025)
        points = [(0.0, 1.3, 0.7), (1.0, 1.3, 0.7), (0.4, 0.0, 0.7), (0.0, 0.0, 2.0),
                  (1.0, 0.0, 2.0), (0.4, 1.3, 30.0), (0.9, 0.02, 30.0)]
        points += list(zip(rng.uniform(0, 1, 300), rng.uniform(0, 5, 300), rng.uniform(0.05, 6, 300)))
        skewed = Constellation(amplitudes=[0.8, -0.3 + 0.9j, -0.5 - 0.6j], probs=[0.5, 0.3, 0.2])
        cases = [(qpsk(alpha), ChannelParams(tau=tau, nbar=nbar)) for tau, nbar, alpha in points]
        cases += [(skewed, ChannelParams(tau=tau, nbar=0.3)) for tau in (0.0, 0.35, 0.8, 1.0)]
        for constellation, params in cases:
            value = bm_get_entropy(constellation, params)
            reference = entropy_from_cov(eve_average_covariance(constellation, params))
            assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference))


class TestEntropyInvarianceUnderCircuit:
    @pytest.mark.parametrize("tau,nbar", [(0.3, 0.01), (0.5, 0.02), (0.9, 0.1)])
    def test_conjugation_leaves_bound_unchanged(self, tau, nbar):
        from evebounds.cloner import eve_average_covariance, eve_reduced_covariance
        from evebounds.states import entropy_from_cov, williamson_standard_two_mode

        params = ChannelParams(tau=tau, nbar=nbar)
        cov = eve_average_covariance(qpsk(1.0), params)
        smap, _, _ = williamson_standard_two_mode(eve_reduced_covariance(params))
        conjugated = smap.s @ cov @ smap.s.T
        assert abs(entropy_from_cov(cov) - entropy_from_cov(conjugated)) < 1e-9
