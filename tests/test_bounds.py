import math
from decimal import Decimal

import numpy as np
import pytest

from evebounds import bounds, fock
from evebounds.bounds import (
    EB_ALPHA_MAX,
    bm_get_entropy,
    bm_gme_entropy,
    eb_qpsk_entropy,
    eb_z4,
    gram_ensemble_entropy,
    gram_entropy,
    gram_matrix,
)
from evebounds.cloner import (
    ChannelParams,
    Constellation,
    DisplacedThermalEnsemble,
    displaced_thermal_ensemble,
    qpsk,
)
from evebounds.states import _physical_standard_spectrum, entropy_from_cov, symplectic_entropy, thermal_entropy
from reference import coherent_ket, named_constellation

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
        # a 1-D input raised numpy's AxisError, a (2, 3) one a broadcast error
        for shape in ((), (4,), (2, 3), (5, 2, 3)):
            with pytest.raises(ValueError, match="Gram matrix must be square"):
                gram_entropy(np.full(shape, 0.25))


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
        (1e77, ChannelParams(tau=0.25, nbar=5.0), bm_get_entropy),
        (1e200, ChannelParams(tau=0.5, nbar=0.01), bm_get_entropy),
        (1e200, ChannelParams(tau=0.5, nbar=0.01), bm_gme_entropy),
    ], ids=["1e+150-params0", "1e+77-params1", "1e+200-bm-get", "1e+200-bm-gme"])
    def test_covariance_beyond_double_precision_raises(self, alpha, params, entropy):
        # nu+^2 + nu-^2 overflows from alpha of about 9.4e76 at
        # (tau, nbar) = (0.25, 5), where T1 = 3.789e+154 at 1e77; bm-get
        # forms no average covariance.  It must raise a named error, not
        # give nan or a bare "math domain error".  At 1e200 the ensemble's
        # means pass its MEAN_LIMIT, where the Gram matrix and the
        # ensemble's average covariance would overflow in numpy.
        with pytest.raises(ValueError, match="beyond double precision"):
            entropy(qpsk(alpha), params)

    def test_amplitudes_scaled_by_a_power_of_two(self):
        # The spread is taken on the amplitudes over a power of two: alpha^2
        # is not a double at either cell.  At tau = 1 the scales are 0, and
        # at 1e155 the displacements stay inside MEAN_LIMIT while
        # nu+^2 + nu-^2 overflows.
        params = ChannelParams(tau=1.0, nbar=0.01)
        assert bm_get_entropy(qpsk(1e200), params) == 0.0
        assert bm_gme_entropy(qpsk(1e200), params) == 0.0
        with pytest.raises(ValueError, match=r"beyond double precision.*T1 = 4\.000e\+300"):
            bm_get_entropy(qpsk(1e155), ChannelParams(tau=0.9999999999, nbar=0.0))

    def test_large_amplitude_value(self):
        # The determinant of the average covariance once cancelled to a
        # negative value here and bm-get raised; the one closed form, from
        # the ensemble's moments, cancels nothing there.  120-digit
        # arithmetic gives 61.4617099195364.  Just below the overflow of
        # nu+^2 + nu-^2 the value is still finite.
        params = ChannelParams(tau=0.25, nbar=5.0)
        assert bm_get_entropy(qpsk(3.23e8), params) == pytest.approx(61.4617099195364, rel=1e-14, abs=0)
        assert math.isfinite(bm_get_entropy(qpsk(8e76), params))

    # (tau, nbar, alpha, bm-get in bits): the four-state ensemble's average
    # covariance rebuilt from the closed-form displacements in 60-digit
    # mpmath, its symplectic eigenvalues from Delta and det V there, and
    # the thermal entropies summed without skipping any; printed to 20
    # digits.  The last three rows: a cell where the invariants route
    # raised, one where it landed 1.3e-8 bits above eb, and one where the
    # skip puts bm-get 4.1e-11 bits below bm-gme.
    SMALL_ALPHA = [
        (0.1, 0.0, 1e-06, '3.731205174568470622e-11'),
        (0.5, 0.0, 1e-06, '2.1152916089768834279e-11'),
        (0.9, 0.0, 1e-06, '4.4627760274424732567e-12'),
        (0.1, 1e-06, 1e-06, '0.000019373677929640838639'),
        (0.5, 1e-06, 1e-06, '0.000011187153138374956766'),
        (0.9, 1e-06, 1e-06, '2.4696236405055312391e-6'),
        (0.1, 0.01, 1e-06, '0.074205243600600417799'),
        (0.5, 0.01, 1e-06, '0.04545075988137215175'),
        (0.9, 0.01, 1e-06, '0.011409200437253031432'),
        (0.1, 1.0, 1e-06, '1.8962016793966257591'),
        (0.5, 1.0, 1e-06, '1.3774437511099256291'),
        (0.9, 1.0, 1e-06, '0.48344668562190492223'),
        (0.1, 0.0, 1e-05, '3.1332581174945307062e-9'),
        (0.5, 0.0, 1e-05, '1.783098799489932993e-9'),
        (0.9, 0.0, 1e-05, '3.7983904084657160574e-10'),
        (0.1, 1e-06, 1e-05, '0.000019376773876182271885'),
        (0.5, 1e-06, 1e-05, '0.000011188915085621678819'),
        (0.9, 1e-06, 1e-05, '2.4699990173025231913e-6'),
        (0.1, 0.01, 1e-05, '0.074205246700088605494'),
        (0.5, 0.01, 1e-05, '0.045450761653611976374'),
        (0.9, 0.01, 1e-05, '0.011409200816762509007'),
        (0.1, 1.0, 1e-05, '1.8962016826536311435'),
        (0.5, 1.0, 1e-05, '1.3774437534579462132'),
        (0.9, 1.0, 1e-05, '0.48344668631690368143'),
        (0.1, 0.0, 0.0001, '2.5353110609932538013e-7'),
        (0.5, 0.0, 0.0001, '1.4509059901797301215e-7'),
        (0.9, 0.0, 0.0001, '3.1340047895596568285e-8'),
        (0.1, 1e-06, 0.0001, '0.000019627171765812871837'),
        (0.5, 1e-06, 0.0001, '0.000011332222705728814333'),
        (0.9, 1e-06, 0.0001, '2.5009592734548801709e-6'),
        (0.1, 0.01, 0.0001, '0.074205497393480039435'),
        (0.5, 0.01, 0.0001, '0.045450905826888959116'),
        (0.9, 0.01, 0.0001, '0.011409232131155017877'),
        (0.1, 1.0, 0.0001, '1.8962019460417920498'),
        (0.5, 1.0, 0.0001, '1.3774439444105535946'),
        (0.9, 1.0, 0.0001, '0.48344674385783841484'),
        (0.1, 0.0, 0.001, '0.000019373640617583685645'),
        (0.5, 0.0, 0.001, '0.000011187131985443419238'),
        (0.9, 0.0, 0.001, '2.4696191777235245287e-6'),
        (0.1, 1e-06, 0.001, '0.000038747284850203982685'),
        (0.5, 1e-06, 0.001, '0.000022374274436660836789'),
        (0.9, 1e-06, 0.001, '4.9392425410755203977e-6'),
        (0.1, 0.01, 0.001, '0.074224641190442673858'),
        (0.5, 0.01, 0.001, '0.045462018084182220735'),
        (0.9, 0.01, 0.001, '0.011411699914884734095'),
        (0.1, 1.0, 0.001, '1.896222053620278454'),
        (0.5, 1.0, 0.001, '1.3774586547248817507'),
        (0.9, 1.0, 0.001, '0.48345130205683259163'),
        (0.1, 0.0, 0.01, '0.0013394227889891477338'),
        (0.5, 0.0, 0.01, '0.00078652217436066638558'),
        (0.9, 0.0, 0.01, '0.00018052342728776931798'),
        (0.1, 1e-06, 0.01, '0.0013587967312900072793'),
        (0.5, 1e-06, 0.01, '0.00079771018678458207897'),
        (0.9, 1e-06, 0.01, '0.00018299340522964459851'),
        (0.1, 0.01, 0.01, '0.07554647224830146319'),
        (0.5, 0.01, 0.01, '0.046242738283543667746'),
        (0.9, 0.01, 0.01, '0.01159211277852662851'),
        (0.1, 1.0, 0.01, '1.8976096907318738692'),
        (0.5, 1.0, 0.01, '1.3784911832740604276'),
        (0.9, 1.0, 0.01, '0.48378752978428990712'),
        (0.3, 0.0, 0.0001778279410038923, '5.9483107684913361049e-7'),
        (0.5124, 8.7e-11, 0.0001396, '2.6846270021146058966e-7'),
        (0.225, 0.0, 1.13e-06, '4.089107756490645911e-11'),
    ]

    def test_small_amplitude_table(self):
        # Within 1e-10 bits: the error left is the skip of thermal photon
        # numbers below 1e-12 (4.1e-11 bits here).  The invariants route
        # was off by up to 1.3e-8 bits on these cells and raised at three.
        misses = [(tau, nbar, alpha, want)
                  for tau, nbar, alpha, want in self.SMALL_ALPHA
                  if not abs(bm_get_entropy(qpsk(alpha), ChannelParams(tau=tau, nbar=nbar)) - float(want)) <= 1e-10]
        assert misses == []

    # (constellation, tau, nbar, alpha, bm-get in bits) for four
    # constellations that are not circular (`named_constellation`), by
    # the reference of SMALL_ALPHA in 60-digit mpmath from the same float
    # amplitudes.  BPSK's rows are the grid on which the two-mode
    # invariants route raised (at (tau, nbar, alpha) = (0.1, 0, 1e-4), for
    # one) or was off by up to 6.1e-9 bits (at (0.3, 0, 1e-4)); on the
    # whole table that route raised at 5 cells and missed 2e-10 at 27.
    NON_CIRCULAR = [
        ('bpsk', 0.1, 0.0, 1e-05, '3.1332581172242233055e-9'),
        ('bpsk', 0.1, 1e-06, 1e-05, '0.000019376773876181989617'),
        ('bpsk', 0.1, 0.01, 1e-05, '0.0742052467000886052'),
        ('bpsk', 0.3, 0.0, 1e-05, '2.4623584412197033003e-9'),
        ('bpsk', 0.3, 1e-06, 1e-05, '0.000015324648461169200067'),
        ('bpsk', 0.3, 0.01, 1e-05, '0.060243137137229673132'),
        ('bpsk', 0.6, 0.0, 1e-05, '1.4393561633318864937e-9'),
        ('bpsk', 0.6, 1e-06, 1e-05, '9.0799161549581603041e-6'),
        ('bpsk', 0.6, 0.01, 1e-05, '0.037645444954005583577'),
        ('bpsk', 0.9, 0.0, 1e-05, '3.7983904084291748483e-10'),
        ('bpsk', 0.9, 1e-06, 1e-05, '2.469999017302507577e-6'),
        ('bpsk', 0.9, 0.01, 1e-05, '0.011409200816762508979'),
        ('bpsk', 0.1, 0.0, 0.0001, '2.5353110393440376146e-7'),
        ('bpsk', 0.1, 1e-06, 0.0001, '0.000019627171763587551167'),
        ('bpsk', 0.1, 0.01, 0.0001, '0.074205497393477692503'),
        ('bpsk', 0.3, 0.0, 0.0001, '1.9972884951765951179e-7'),
        ('bpsk', 0.3, 1e-06, 0.0001, '0.000015521915050792782101'),
        ('bpsk', 0.3, 0.01, 0.0001, '0.060243335109573532259'),
        ('bpsk', 0.6, 0.0, 0.0001, '1.1736019114468483312e-7'),
        ('bpsk', 0.6, 1e-06, 0.0001, '9.1958371064014005778e-6'),
        ('bpsk', 0.6, 0.01, 0.0001, '0.037645561721999670048'),
        ('bpsk', 0.9, 0.0, 0.0001, '3.1340047865699215489e-8'),
        ('bpsk', 0.9, 1e-06, 0.0001, '2.5009592733645840377e-6'),
        ('bpsk', 0.9, 0.01, 0.0001, '0.011409232131154806766'),
        ('bpsk', 0.1, 0.0, 0.0003, '2.0250158794232468753e-6'),
        ('bpsk', 0.1, 1e-06, 0.0003, '0.000021398656847716309794'),
        ('bpsk', 0.1, 0.01, 0.0003, '0.074207271016785840594'),
        ('bpsk', 0.3, 0.0, 0.0003, '1.5978542901209143767e-6'),
        ('bpsk', 0.3, 1e-06, 0.0003, '0.000016920041223738348785'),
        ('bpsk', 0.3, 0.01, 0.0003, '0.060244738355094509288'),
        ('bpsk', 0.6, 0.0, 0.0003, '9.4212439305170681654e-7'),
        ('bpsk', 0.6, 1e-06, 0.0003, '0.000010020602176273765812'),
        ('bpsk', 0.6, 0.01, 0.0003, '0.03764639266276072412'),
        ('bpsk', 0.9, 0.0, 0.0003, '2.5353110393440364434e-7'),
        ('bpsk', 0.9, 1e-06, 0.0003, '2.7231506837204005572e-6'),
        ('bpsk', 0.9, 0.01, 0.0003, '0.011409456932608470281'),
        ('bpsk', 0.1, 0.0, 0.001, '0.000019373624349918343001'),
        ('bpsk', 0.1, 1e-06, 0.001, '0.000038747268452693356536'),
        ('bpsk', 0.1, 0.01, 0.001, '0.074224641172958665394'),
        ('bpsk', 0.3, 0.0, 0.001, '0.000015322176082994060489'),
        ('bpsk', 0.3, 1e-06, 0.001, '0.000030644370468981101741'),
        ('bpsk', 0.3, 0.01, 0.001, '0.060258514422694794397'),
        ('bpsk', 0.6, 0.0, 0.001, '9.0784733968989043177e-6'),
        ('bpsk', 0.6, 1e-06, 0.001, '0.000018156960049774697098'),
        ('bpsk', 0.6, 0.01, 0.001, '0.03765459182499526443'),
        ('bpsk', 0.9, 0.0, 0.001, '2.4696189451886022295e-6'),
        ('bpsk', 0.9, 1e-06, 0.001, '4.9392421786976648083e-6'),
        ('bpsk', 0.9, 0.01, 0.001, '0.011411699913443863292'),
        ('turned-bpsk', 0.1, 0.0, 1e-06, '3.7312051745652293956e-11'),
        ('turned-bpsk', 0.5, 0.0, 1e-06, '2.1152916089758618494e-11'),
        ('turned-bpsk', 0.9, 0.0, 1e-06, '4.462776027442041406e-12'),
        ('turned-bpsk', 0.1, 0.01, 1e-06, '0.074205243600600417799'),
        ('turned-bpsk', 0.5, 0.01, 1e-06, '0.04545075988137215175'),
        ('turned-bpsk', 0.9, 0.01, 1e-06, '0.011409200437253031432'),
        ('turned-bpsk', 0.1, 1000000.0, 1e-06, '21.222261318306341416'),
        ('turned-bpsk', 0.5, 1000000.0, 1e-06, '20.374265052948522382'),
        ('turned-bpsk', 0.9, 1000000.0, 1e-06, '18.05234272881823996'),
        ('turned-bpsk', 0.1, 0.0, 0.001, '0.000019373624349918342217'),
        ('turned-bpsk', 0.5, 0.0, 0.001, '0.000011187126752556238834'),
        ('turned-bpsk', 0.9, 0.0, 0.001, '2.4696189451886021287e-6'),
        ('turned-bpsk', 0.1, 0.01, 0.001, '0.074224641172958665393'),
        ('turned-bpsk', 0.5, 0.01, 0.001, '0.045462018075580310211'),
        ('turned-bpsk', 0.9, 0.01, 0.001, '0.011411699913443863292'),
        ('turned-bpsk', 0.1, 1000000.0, 0.001, '21.2222826925073813'),
        ('turned-bpsk', 0.5, 1000000.0, 0.001, '20.374286427133127776'),
        ('turned-bpsk', 0.9, 1000000.0, 0.001, '18.052364102854936157'),
        ('turned-bpsk', 0.1, 0.0, 1.0, '1.4874262117537056021'),
        ('turned-bpsk', 0.5, 0.0, 1.0, '1.1454210973347301402'),
        ('turned-bpsk', 0.9, 0.0, 1.0, '0.45393850617959493654'),
        ('turned-bpsk', 0.1, 0.01, 1.0, '1.5627984479331328999'),
        ('turned-bpsk', 0.5, 0.01, 1.0, '1.1961716549422327326'),
        ('turned-bpsk', 0.9, 0.01, 1.0, '0.4707002504664085197'),
        ('turned-bpsk', 0.1, 1000000.0, 1.0, '22.774633383289172318'),
        ('turned-bpsk', 0.5, 1000000.0, 1.0, '21.926636744463827935'),
        ('turned-bpsk', 0.9, 1000000.0, 1.0, '19.604711059139087851'),
        ('turned-bpsk', 0.1, 0.0, 100.0, '8.0105630420801556849'),
        ('turned-bpsk', 0.5, 0.0, 100.0, '7.586575275100151645'),
        ('turned-bpsk', 0.9, 0.0, 100.0, '6.4257073957860060498'),
        ('turned-bpsk', 0.1, 0.01, 100.0, '8.0861483502111192982'),
        ('turned-bpsk', 0.5, 0.01, 100.0, '7.6390139715613433652'),
        ('turned-bpsk', 0.9, 0.01, 100.0, '6.4498950815919729778'),
        ('turned-bpsk', 0.1, 1000000.0, 100.0, '29.308824517834869165'),
        ('turned-bpsk', 0.5, 1000000.0, 100.0, '28.460827825018775298'),
        ('turned-bpsk', 0.9, 1000000.0, 100.0, '26.13890165377769815'),
        ('turned-bpsk', 0.1, 0.0, 5800.0, '13.868530683039688667'),
        ('turned-bpsk', 0.5, 0.0, 5800.0, '13.444532232938976397'),
        ('turned-bpsk', 0.9, 0.0, 5800.0, '12.283568214086158904'),
        ('turned-bpsk', 0.1, 0.01, 5800.0, '13.944116017155727358'),
        ('turned-bpsk', 0.5, 0.01, 5800.0, '13.496971164006196176'),
        ('turned-bpsk', 0.9, 0.01, 5800.0, '12.307758018429197729'),
        ('turned-bpsk', 0.1, 1000000.0, 5800.0, '35.166793494197046935'),
        ('turned-bpsk', 0.5, 1000000.0, 5800.0, '34.318796801374543122'),
        ('turned-bpsk', 0.9, 1000000.0, 5800.0, '31.996870630075776492'),
        ('turned-bpsk', 0.1, 0.0, 10000.0, '14.654405875051716542'),
        ('turned-bpsk', 0.5, 0.0, 10000.0, '14.230407422842904529'),
        ('turned-bpsk', 0.9, 0.0, 10000.0, '13.069443385017190019'),
        ('turned-bpsk', 0.1, 0.01, 10000.0, '14.729991209172882822'),
        ('turned-bpsk', 0.5, 0.01, 10000.0, '14.282846353956419512'),
        ('turned-bpsk', 0.9, 0.01, 10000.0, '13.093633189778349567'),
        ('turned-bpsk', 0.1, 1000000.0, 10000.0, '35.952668686472587121'),
        ('turned-bpsk', 0.5, 1000000.0, 10000.0, '35.104671993650082044'),
        ('turned-bpsk', 0.9, 1000000.0, 10000.0, '32.782745822351304029'),
        ('skewed', 0.1, 0.0, 1e-06, '2.4448147508245220633e-11'),
        ('skewed', 0.5, 0.0, 1e-06, '1.3855952772992683302e-11'),
        ('skewed', 0.9, 0.0, 1e-06, '2.9210477938425783804e-12'),
        ('skewed', 0.1, 0.01, 1e-06, '0.074205243587722067367'),
        ('skewed', 0.5, 0.01, 1e-06, '0.045450759874033411967'),
        ('skewed', 0.9, 0.01, 1e-06, '0.011409200435694725767'),
        ('skewed', 0.1, 1000000.0, 1e-06, '21.222261318292102091'),
        ('skewed', 0.5, 1000000.0, 1e-06, '20.374265052934283068'),
        ('skewed', 0.9, 1000000.0, 1e-06, '18.052342728804000753'),
        ('skewed', 0.1, 0.0, 0.001, '0.000012870696586242716282'),
        ('skewed', 0.5, 0.0, 0.001, '7.4240355916891764191e-6'),
        ('skewed', 0.9, 0.0, 0.001, '1.6346643578783917554e-6'),
        ('skewed', 0.1, 0.01, 0.001, '0.074218130104432577575'),
        ('skewed', 0.5, 0.01, 0.001, '0.045458230792718745432'),
        ('skewed', 0.9, 0.01, 0.001, '0.011410854737222588707'),
        ('skewed', 0.1, 1000000.0, 0.001, '21.222275520934854515'),
        ('skewed', 0.5, 1000000.0, 0.001, '20.374279255566066248'),
        ('skewed', 0.9, 1000000.0, 0.001, '18.052356931337061548'),
        ('skewed', 0.1, 0.0, 1.0, '1.4917452944027120692'),
        ('skewed', 0.5, 0.0, 1.0, '1.0556995304078521423'),
        ('skewed', 0.9, 0.0, 1.0, '0.35069723018451239137'),
        ('skewed', 0.1, 0.01, 1.0, '1.568909531081633318'),
        ('skewed', 0.5, 0.01, 1.0, '1.112525512758727264'),
        ('skewed', 0.9, 0.01, 1.0, '0.36944957425562189889'),
        ('skewed', 0.1, 1000000.0, 1.0, '22.803400503188473116'),
        ('skewed', 0.5, 1000000.0, 1.0, '21.955403793292406645'),
        ('skewed', 0.9, 1000000.0, 1.0, '19.633477468333523946'),
        ('skewed', 0.1, 0.0, 100.0, '13.920929843641207281'),
        ('skewed', 0.5, 0.0, 100.0, '13.073035896001830477'),
        ('skewed', 0.9, 0.0, 100.0, '10.752033983053744621'),
        ('skewed', 0.1, 0.01, 100.0, '14.001866309030168958'),
        ('skewed', 0.5, 0.01, 100.0, '13.153964822975199269'),
        ('skewed', 0.9, 0.01, 100.0, '10.832895136956944131'),
        ('skewed', 0.1, 1000000.0, 100.0, '35.295181304640483481'),
        ('skewed', 0.5, 1000000.0, 100.0, '34.44718439811985606'),
        ('skewed', 0.9, 1000000.0, 100.0, '32.125256303541396653'),
        ('skewed', 0.1, 0.0, 5800.0, '25.636763159495146874'),
        ('skewed', 0.5, 0.0, 5800.0, '24.788766283551480924'),
        ('skewed', 0.9, 0.0, 5800.0, '22.466838464165635105'),
        ('skewed', 0.1, 0.01, 5800.0, '25.717700567019544292'),
        ('skewed', 0.5, 0.01, 5800.0, '24.869703688834353838'),
        ('skewed', 0.9, 0.01, 5800.0, '22.54777584927479392'),
        ('skewed', 0.1, 1000000.0, 5800.0, '47.011027487229155071'),
        ('skewed', 0.5, 1000000.0, 5800.0, '46.163030580674215269'),
        ('skewed', 0.9, 1000000.0, 5800.0, '43.841102485786944434'),
        ('skewed', 0.1, 0.0, 10000.0, '27.208513523397391231'),
        ('skewed', 0.5, 0.0, 10000.0, '26.360516627140077526'),
        ('skewed', 0.9, 0.0, 10000.0, '24.038588624931437077'),
        ('skewed', 0.1, 0.01, 10000.0, '27.28945093110772311'),
        ('skewed', 0.5, 0.01, 10000.0, '26.44145403409636052'),
        ('skewed', 0.9, 0.01, 10000.0, '24.119526025101280845'),
        ('skewed', 0.1, 1000000.0, 10000.0, '48.582777853670604606'),
        ('skewed', 0.5, 1000000.0, 10000.0, '47.734780947115658032'),
        ('skewed', 0.9, 1000000.0, 10000.0, '45.412852852228326257'),
        ('3-ask', 0.1, 0.0, 1e-06, '2.522567866420775059e-11'),
        ('3-ask', 0.5, 0.0, 1e-06, '1.4296931560081628709e-11'),
        ('3-ask', 0.9, 0.0, 1e-06, '3.0141815183428629393e-12'),
        ('3-ask', 0.1, 0.01, 1e-06, '0.074205243588500470896'),
        ('3-ask', 0.5, 0.01, 1e-06, '0.045450759874476912924'),
        ('3-ask', 0.9, 0.01, 1e-06, '0.01140920043578885973'),
        ('3-ask', 0.1, 1000000.0, 1e-06, '21.222261318292962782'),
        ('3-ask', 0.5, 1000000.0, 1e-06, '20.374265052935143758'),
        ('3-ask', 0.9, 1000000.0, 1e-06, '18.052342728804861436'),
        ('3-ask', 0.1, 0.0, 0.001, '0.000013266730341648823876'),
        ('3-ask', 0.5, 0.0, 0.001, '7.6530730597369859308e-6'),
        ('3-ask', 0.9, 0.0, 0.001, '1.6854101776454050208e-6'),
        ('3-ask', 0.1, 0.01, 0.001, '0.074218526631927551489'),
        ('3-ask', 0.5, 0.01, 0.001, '0.045458461296421938999'),
        ('3-ask', 0.9, 0.01, 0.001, '0.011410906101630108232'),
        ('3-ask', 0.1, 1000000.0, 0.001, '21.222275957738898821'),
        ('3-ask', 0.5, 1000000.0, 0.001, '20.374279692369776828'),
        ('3-ask', 0.9, 1000000.0, 0.001, '18.052357368137768617'),
        ('3-ask', 0.1, 0.0, 1.0, '1.2474415924539055207'),
        ('3-ask', 0.5, 0.0, 1.0, '0.93393806903633172499'),
        ('3-ask', 0.9, 0.0, 1.0, '0.34387466511490649161'),
        ('3-ask', 0.1, 0.01, 1.0, '1.3227332873830770776'),
        ('3-ask', 0.5, 0.01, 1.0, '0.98414914366202936895'),
        ('3-ask', 0.9, 0.01, 1.0, '0.3595632417356887188'),
        ('3-ask', 0.1, 1000000.0, 1.0, '22.530416198899389071'),
        ('3-ask', 0.5, 1000000.0, 1.0, '21.682419581258599484'),
        ('3-ask', 0.9, 1000000.0, 1.0, '19.360494086594584307'),
        ('3-ask', 0.1, 0.0, 100.0, '7.718088470677759199'),
        ('3-ask', 0.5, 0.0, 100.0, '7.2941060465971572858'),
        ('3-ask', 0.9, 0.0, 100.0, '6.1332862426948028359'),
        ('3-ask', 0.1, 0.01, 100.0, '7.7936737658127560949'),
        ('3-ask', 0.5, 0.01, 100.0, '7.3465446257274731807'),
        ('3-ask', 0.9, 0.01, 100.0, '6.1574728692323081772'),
        ('3-ask', 0.1, 1000000.0, 100.0, '29.016349278553752147'),
        ('3-ask', 0.5, 1000000.0, 100.0, '28.168352585740864114'),
        ('3-ask', 0.9, 1000000.0, 100.0, '25.846426414528639459'),
        ('3-ask', 0.1, 0.0, 5800.0, '13.576049434664587246'),
        ('3-ask', 0.5, 0.0, 5800.0, '13.15205098615225632'),
        ('3-ask', 0.9, 0.0, 5800.0, '11.991086981594869983'),
        ('3-ask', 0.1, 0.01, 5800.0, '13.651634768776762475'),
        ('3-ask', 0.5, 0.01, 5800.0, '13.204489917184594241'),
        ('3-ask', 0.9, 0.01, 5800.0, '12.015276785622869105'),
        ('3-ask', 0.1, 1000000.0, 5800.0, '34.874312245623397963'),
        ('3-ask', 0.5, 1000000.0, 5800.0, '34.026315552800895104'),
        ('3-ask', 0.9, 1000000.0, 5800.0, '31.704389381502137051'),
        ('3-ask', 0.1, 0.0, 10000.0, '14.36192462535905278'),
        ('3-ask', 0.5, 0.0, 10000.0, '13.937926173684572259'),
        ('3-ask', 0.9, 0.0, 10000.0, '12.776962140667841075'),
        ('3-ask', 0.1, 0.01, 10000.0, '14.437509959478919391'),
        ('3-ask', 0.5, 0.01, 10000.0, '13.990365104786352985'),
        ('3-ask', 0.9, 0.01, 10000.0, '12.801151945323021256'),
        ('3-ask', 0.1, 1000000.0, 10000.0, '35.660187436713131962'),
        ('3-ask', 0.5, 1000000.0, 10000.0, '34.812190743890627206'),
        ('3-ask', 0.9, 1000000.0, 10000.0, '32.490264572591852077'),
    ]

    def test_non_circular_table(self):
        # Within 2e-10 of the value, relative to max(1, value); the error
        # left is the skip of thermal photon numbers below 1e-12 (3.7e-11
        # here), and BPSK's rows are within 5e-15.
        misses = []
        for name, tau, nbar, alpha, want in self.NON_CIRCULAR:
            got = bm_get_entropy(named_constellation(name, alpha), ChannelParams(tau=tau, nbar=nbar))
            if not abs(got - float(want)) <= 2e-10 * max(1.0, float(want)):
                misses.append((name, tau, nbar, alpha, got, want))
        assert misses == []

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

def ring(k, alpha):
    """K equiprobable states alpha exp(2 pi i (j + 0.3) / K), j = 0..K-1:
    each a turn of 2 pi / K from the one before it, counterclockwise."""
    return Constellation(amplitudes=alpha * np.exp(2j * np.pi * (np.arange(k) + 0.3) / k),
                         probs=np.full(k, 1 / k))


def forbid(monkeypatch, name):
    """Make `bounds.<name>` raise, so a call that still returns did not
    take the route through it."""
    def fail(*args):
        raise AssertionError(f"bounds.{name} was called")
    monkeypatch.setattr(bounds, name, fail)


class TestCyclicGram:
    """`gram_ensemble_entropy`'s transform for cyclic cells against the
    eigensolve of the full Gram matrix.  Alpha <= 1 keeps the overlaps of
    neighbouring states large: at alpha = 6 every phase choice agrees, so a
    comparison there proves nothing."""

    @pytest.mark.parametrize("alpha", [0.2, 1.0])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 12])
    def test_matches_full_gram(self, k, alpha, monkeypatch):
        # at tau = 0.999 and nbar = 1e6 a row's phase scale B = 1 - tau is
        # the difference of two squared scales near 1
        cells = [ChannelParams(tau=tau, nbar=nbar)
                 for tau in (0.0, 0.37, 0.999, 1.0) for nbar in (0.0, 0.01, 5.0, 1e6)]
        ensembles = [displaced_thermal_ensemble(ring(k, alpha), params) for params in cells]
        want = [gram_entropy(gram_matrix(ens)) for ens in ensembles]
        forbid(monkeypatch, "gram_matrix")
        for ens, value in zip(ensembles, want):
            got = gram_ensemble_entropy(ens)
            assert isinstance(got, float)
            assert abs(got - value) <= 1e-13 * max(1.0, value)

    def test_stack_builds_no_mode_amplitudes(self, monkeypatch):
        # The constellation's half of each row is taken once; a cell adds
        # only its two scales, with no (cells, K, 2) amplitude stack.
        cells = [ChannelParams(tau=tau, nbar=nbar) for tau in (0.0, 0.37, 0.999, 1.0) for nbar in (0.0, 0.01, 1e6)]
        ensemble = displaced_thermal_ensemble(qpsk(0.8), cells)
        want = np.array([gram_entropy(gram_matrix(displaced_thermal_ensemble(qpsk(0.8), p))) for p in cells])

        def fail(self):
            raise AssertionError("DisplacedThermalEnsemble.mode_amplitudes was called")
        monkeypatch.setattr(DisplacedThermalEnsemble, "mode_amplitudes", fail)
        got = gram_ensemble_entropy(ensemble)
        assert got.shape == want.shape
        assert (abs(got - want) <= 1e-13 * np.maximum(1.0, want)).all()

    @pytest.mark.parametrize("constellation", [
        # QPSK listed clockwise: each state is the one before it turned by -pi/2
        Constellation(amplitudes=np.conj(qpsk(0.8).amplitudes), probs=np.full(4, 0.25)),
        Constellation(amplitudes=qpsk(0.8).amplitudes, probs=[0.3, 0.2, 0.25, 0.25]),
        Constellation(amplitudes=[*qpsk(0.8).amplitudes, 0.0], probs=np.full(5, 0.2)),
        Constellation(amplitudes=[0.0, *qpsk(0.8).amplitudes], probs=np.full(5, 0.2)),
    ], ids=["clockwise", "unequal-probabilities", "origin-last", "origin-first"])
    def test_other_cells_take_full_gram(self, constellation, monkeypatch):
        params = ChannelParams(tau=0.37, nbar=0.01)
        want = gram_entropy(gram_matrix(displaced_thermal_ensemble(constellation, params)))
        forbid(monkeypatch, "_cyclic_spectra")
        assert bm_gme_entropy(constellation, params) == want

    @pytest.mark.parametrize("shift, message", [
        (1e-9j, r"Gram matrix is not Hermitian: max \|Im lambda\| = 1\.000e-09 > 1e-10"),
        (-0.5, "Gram matrix has eigenvalue -[0-9.e-]+ below -1e-8"),
    ])
    def test_gates_keep_their_messages(self, shift, message, monkeypatch):
        spectra = bounds._cyclic_spectra

        def shifted(amps, p):
            rows, lam = spectra(amps, p)
            return rows, lam + shift
        monkeypatch.setattr(bounds, "_cyclic_spectra", shifted)
        with pytest.raises(ValueError, match=message):
            bm_gme_entropy(qpsk(1.0), ChannelParams(tau=0.5, nbar=0.01))

    # (tau, alpha, bm-gme in bits) at nbar = 0, where the QPSK Gram spectrum
    # is the mod-4 class weights e^-x sum_{n = k mod 4} x^n / n! of
    # x = (1 - tau) alpha^2: 50-digit mpmath, with tau and alpha the doubles
    # below, printed to 20 digits.
    SMALL_ALPHA = [
        (0.02, 1e-06, '4.0508278954693368147e-11'),
        (0.3, 1e-06, '2.9274283746657191766e-11'),
        (0.5, 1e-06, '2.1152916089768778942e-11'),
        (0.98, 1e-06, '9.3899376738624165155e-13'),
        (0.02, 1e-05, '3.3997299888761686617e-9'),
        (0.3, 1e-05, '2.4623584413839145826e-9'),
        (0.5, 1e-05, '1.7830987994893796242e-9'),
        (0.98, 1e-05, '8.0611664359076704915e-11'),
        (0.02, 0.0001, '2.7486320827536433579e-7'),
        (0.3, 0.0001, '1.9972885083422336417e-7'),
        (0.5, 0.0001, '1.4509059901243932416e-7'),
        (0.98, 0.0001, '6.7323951979725237181e-9'),
        (0.02, 0.001, '0.000020975342236955136594'),
        (0.3, 0.001, '0.00001532218599313000411'),
        (0.5, 0.001, '0.000011187131930106560536'),
        (0.98, 0.001, '5.4036239619975771886e-7'),
        (0.02, 0.01, '0.0014464410710122652043'),
        (0.3, 0.01, '0.0010671510915049847042'),
        (0.5, 0.01, '0.00078652162101325766686'),
        (0.98, 0.01, '0.000040748529220425756757'),
        (0.02, 0.1, '0.079581778758670355039'),
        (0.3, 0.1, '0.06023234367409830602'),
        (0.5, 0.1, '0.045445246563622005455'),
        (0.98, 0.1, '0.0027461014835306400386'),
        (0.02, 0.3, '0.44001271970649252354'),
        (0.3, 0.3, '0.3441191872447068994'),
        (0.5, 0.3, '0.26725047199161268144'),
        (0.98, 0.3, '0.019010487932321135273'),
        (0.02, 1.0, '1.7472964506379646564'),
        (0.3, 1.0, '1.5450543597094045052'),
        (0.5, 1.0, '1.3203063533900071774'),
        (0.98, 1.0, '0.1419302851370140838'),
        (0.02, 2.0, '1.9994318723111174593'),
        (0.3, 2.0, '1.9946600009087795466'),
        (0.5, 2.0, '1.9727603761628228131'),
        (0.98, 2.0, '0.41005605031347193317'),
        (0.02, 3.0, '1.9999999685065757865'),
        (0.3, 3.0, '1.9999951352076067841'),
        (0.5, 3.0, '1.9998219128675956014'),
        (0.98, 3.0, '0.72019320757600648407'),
    ]

    def test_small_amplitude_table(self):
        # Both routes are within 1e-13 bits absolute (1.1e-14 measured).
        # Neither keeps relative accuracy below alpha of about 1e-3.
        misses = []
        for tau, alpha, want in self.SMALL_ALPHA:
            params = ChannelParams(tau=tau, nbar=0.0)
            full = gram_entropy(gram_matrix(displaced_thermal_ensemble(qpsk(alpha), params)))
            for route, value in (("transform", bm_gme_entropy(qpsk(alpha), params)), ("eigvalsh", full)):
                if not abs(value - float(want)) <= 1e-13:
                    misses.append((route, tau, alpha, value, want))
        assert misses == []


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

    # The error bounds of the `EB_ALPHA_MAX` comment and the README, the
    # largest over 101 taus x nbar in {0, 0.01, 0.1, 1, 5} rounded up.
    LARGE_ALPHA_EB_ERROR = {4.0: 1.2e-14, 1000.0: 4.5e-10, 1e4: 4.3e-8}
    # eb generated offline with 60-digit mpmath, as LARGE_NBAR_EB; the cell
    # with the largest error of the grid is (0.76, 0.1) at alpha = 4,
    # (0.6, 0) at 1000 and (0.87, 0.01) at 1e4.
    LARGE_ALPHA_EB = [
        (4.0, 0.3, 0.01, "6.229104556475506193059"),
        (4.0, 0.5, 0.1, "6.561454130352131396035"),
        (4.0, 0.6, 0.0, "6.567020709793910959662"),
        (4.0, 0.76, 0.1, "6.753335927164393594578"),
        (4.0, 0.87, 0.01, "6.805295419012276905012"),
        (4.0, 0.99, 5.0, "6.96532042085158542656"),
        (4.0, 1.0, 1.0, "6.900325059643888588147"),
        (1000.0, 0.3, 0.01, "22.13593084876575017936"),
        (1000.0, 0.5, 0.1, "22.47082768098832337554"),
        (1000.0, 0.6, 0.0, "22.47971230588516724574"),
        (1000.0, 0.76, 0.1, "22.66709412182374908581"),
        (1000.0, 0.87, 0.01, "22.72084116234334650653"),
        (1000.0, 0.99, 5.0, "22.88045635337317952952"),
        (1000.0, 1.0, 1.0, "22.81695889155125033852"),
        (1e4, 0.3, 0.01, "28.77978664254598739341"),
        (1e4, 0.5, 0.1, "29.11468351601815177222"),
        (1e4, 0.6, 0.0, "29.12356819428139900526"),
        (1e4, 0.76, 0.1, "29.31095002741991910687"),
        (1e4, 0.87, 0.01, "29.36469709661663459836"),
        (1e4, 0.99, 5.0, "29.52431228112908475194"),
        (1e4, 1.0, 1.0, "29.46081484328131733009"),
    ]

    @pytest.mark.parametrize("alpha, tau, nbar, expected", LARGE_ALPHA_EB)
    def test_large_alpha_against_high_precision(self, alpha, tau, nbar, expected):
        # compared in Decimal, so rounding the reference to a double does
        # not eat into the bound
        value = eb_qpsk_entropy(alpha, ChannelParams(tau=tau, nbar=nbar))
        assert abs(Decimal(value) - Decimal(expected)) <= Decimal(self.LARGE_ALPHA_EB_ERROR[alpha])

    @pytest.mark.parametrize("alpha", [0.05, 1.0, 100.0])
    @pytest.mark.parametrize("tau", [0.02, 0.5, 0.98])
    def test_defined_out_to_large_nbar(self, tau, alpha):
        # from nbar ~ 9e15 to 7e21 the smaller eigenvalue cancelled to 0
        values = [eb_qpsk_entropy(alpha, ChannelParams(tau=tau, nbar=nbar))
                  for nbar in (1e8, 9e15, 1e18, 7e21, 1e150)]
        assert all(map(math.isfinite, values)) and values == sorted(values)

    @pytest.mark.parametrize("base", ["bits", "nats"])
    @pytest.mark.parametrize("alpha", [0.05, 1.0])
    def test_stack_equals_symplectic_entropy(self, alpha, base):
        # The cell loop adds the two thermal entropies inline; on the edge
        # grid each cell is bit for bit `symplectic_entropy` of the checked
        # standard-form spectrum, the route it replaced.
        x, z4 = 1 + 2 * alpha * alpha, eb_z4(alpha)
        cells = [ChannelParams(tau=tau, nbar=nbar)
                 for nbar in (0.0, 1e-12, 1e6) for tau in np.linspace(0.0, 1.0, 201).tolist()]
        want = []
        for p in cells:
            bob = p.tau * x + (1 - p.tau) * (2 * p.nbar + 1)
            want.append(symplectic_entropy(_physical_standard_spectrum(x, bob, math.sqrt(p.tau) * z4), base))
        assert eb_qpsk_entropy(alpha, cells, base) == want

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
        # bm-get's closed-form spectrum against the general eigensolve of
        # the same average covariance, over the domain of
        # test_ordering_property.py, its edges and alpha = 30, for QPSK and
        # for constellations whose average covariance is not in standard
        # form: a skewed 3-state set, BPSK, turned BPSK and an off-centre
        # 3-ASK.
        rng = np.random.default_rng(2025)
        points = [(0.0, 1.3, 0.7), (1.0, 1.3, 0.7), (0.4, 0.0, 0.7), (0.0, 0.0, 2.0),
                  (1.0, 0.0, 2.0), (0.4, 1.3, 30.0), (0.9, 0.02, 30.0)]
        points += list(zip(rng.uniform(0, 1, 300), rng.uniform(0, 5, 300), rng.uniform(0.05, 6, 300)))
        skewed = Constellation(amplitudes=[0.8, -0.3 + 0.9j, -0.5 - 0.6j], probs=[0.5, 0.3, 0.2])
        cases = [(qpsk(alpha), ChannelParams(tau=tau, nbar=nbar)) for tau, nbar, alpha in points]
        cases += [(skewed, ChannelParams(tau=tau, nbar=0.3)) for tau in (0.0, 0.35, 0.8, 1.0)]
        cases += [(named_constellation(name, alpha), ChannelParams(tau=tau, nbar=nbar))
                  for name in ("bpsk", "turned-bpsk", "3-ask") for tau, nbar, alpha in points[:100]]
        for constellation, params in cases:
            value = bm_get_entropy(constellation, params)
            average = displaced_thermal_ensemble(constellation, params).average_covariance()
            reference = entropy_from_cov(average)
            assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference))


class TestEntropyInvarianceUnderCircuit:
    @pytest.mark.parametrize("tau,nbar", [(0.3, 0.01), (0.5, 0.02), (0.9, 0.1)])
    def test_conjugation_leaves_bound_unchanged(self, tau, nbar):
        from evebounds.cloner import eve_reduced_covariance
        from evebounds.states import entropy_from_cov, williamson_standard_two_mode

        params = ChannelParams(tau=tau, nbar=nbar)
        cov = displaced_thermal_ensemble(qpsk(1.0), params).average_covariance()
        smap, _, _ = williamson_standard_two_mode(eve_reduced_covariance(params))
        conjugated = smap.s @ cov @ smap.s.T
        assert abs(entropy_from_cov(cov) - entropy_from_cov(conjugated)) < 1e-9
