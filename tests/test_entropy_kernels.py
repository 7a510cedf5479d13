"""The shared entropy kernels of `states` and the log-base rule at every
entropy entry point."""

import math

import numpy as np
import pytest

import reference
from evebounds import fock, states
from evebounds.bounds import bm_get_entropy, bm_gme_entropy, eb_qpsk_entropy, gram_entropy
from evebounds.cloner import ChannelParams, qpsk
from evebounds.fock import eve_exact_entropy, fock_entropy
from evebounds.states import (
    LOG_BASES,
    entropy_from_cov,
    spectrum_entropy,
    symplectic_entropy,
    thermal_entropy,
)
from reference import orbit_representatives
from test_fock import oracle_factor

PURE = ChannelParams(tau=1.0, nbar=0.0)

# name -> (call with a pure or trivial input, call with an input that the
# function would reject or fail on after the base); each takes the base.
ENTRY_POINTS = {
    "thermal_entropy": (
        lambda base: thermal_entropy(0.0, base),
        lambda base: thermal_entropy("one", base),
    ),
    "symplectic_entropy": (
        lambda base: symplectic_entropy([], base),
        lambda base: symplectic_entropy(None, base),
    ),
    "spectrum_entropy": (
        lambda base: spectrum_entropy(np.array([1.0]), base),
        lambda base: spectrum_entropy(None, base),
    ),
    "entropy_from_cov": (
        lambda base: entropy_from_cov(np.eye(2), base),
        lambda base: entropy_from_cov(np.array([[1.0, 0.5], [0.0, 1.0]]), base),
    ),
    "gram_entropy": (
        lambda base: gram_entropy(np.array([[1.0]]), base),
        lambda base: gram_entropy(np.array([[0.5, 1.0], [0.0, 0.5]]), base),
    ),
    "bm_gme_entropy": (
        lambda base: bm_gme_entropy(qpsk(1.0), PURE, base),
        lambda base: bm_gme_entropy(None, PURE, base),
    ),
    "bm_get_entropy": (
        lambda base: bm_get_entropy(qpsk(1.0), PURE, base),
        lambda base: bm_get_entropy(None, PURE, base),
    ),
    "eb_qpsk_entropy": (
        lambda base: eb_qpsk_entropy(1.0, PURE, base),
        lambda base: eb_qpsk_entropy(-1.0, PURE, base),
    ),
    # `spectrum_entropy` on an (m, n) stack, which gives m entropies
    "stacked_spectrum_entropy": (
        lambda base: spectrum_entropy(np.array([[1.0], [1.0]]), base).sum(),
        lambda base: spectrum_entropy([[1.0], [1.0]], base),  # a list, not an array
    ),
    "fock_entropy": (
        lambda base: fock_entropy(np.diag([1.0, 0.0]), base),
        lambda base: fock_entropy(np.zeros((2, 3)), base),
    ),
    "eve_exact_entropy": (
        lambda base: eve_exact_entropy(qpsk(1.0), PURE, base=base),
        lambda base: eve_exact_entropy(qpsk(1.0), PURE, cutoff=3, base=base),
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("base", [None, "bit", "log2", "BITS", 2])
def test_bad_log_base_rejected_at_every_entry_point(name, base):
    pure, _ = ENTRY_POINTS[name]
    with pytest.raises(ValueError, match="log base must be 'bits' or 'nats'"):
        pure(base)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_log_base_checked_before_the_input(name):
    _, invalid = ENTRY_POINTS[name]
    with pytest.raises(ValueError, match="log base"):
        invalid("foo")


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("base", LOG_BASES)
def test_pure_inputs_accept_both_bases(name, base):
    pure, _ = ENTRY_POINTS[name]
    value = pure(base)
    value = getattr(value, "value", value)  # the oracle returns a record
    assert math.isfinite(value)


class TestSymplecticEntropy:
    def test_sums_thermal_entropies(self):
        nus = [1.0, 3.0, 7.5]
        want = sum(thermal_entropy((nu - 1) / 2) for nu in nus)
        assert symplectic_entropy(nus) == want

    def test_eigenvalues_below_one_count_as_vacuum(self):
        assert symplectic_entropy([1 - 1e-12, 1.0]) == 0.0

    def test_nats_are_bits_times_ln2(self):
        nus = [2.0, 5.0]
        assert symplectic_entropy(nus, "nats") == pytest.approx(
            symplectic_entropy(nus, "bits") * math.log(2), rel=1e-14
        )


# g(n) = (n + 1) log2(n + 1) - n log2(n) to 22 digits, from 40-digit mpmath
# arithmetic on the exact binary value of each n.
THERMAL_ENTROPY_BITS = [
    (1e-06, 2.137426433156041658807e-05),
    (0.0001, 0.001473047955278608636635),
    (0.01, 0.08093740780458799018876),
    (0.3, 1.013154788479710582723),
    (1.0, 2.0),
    (2.5, 3.020921989983208506371),
    (10.0, 4.83446685613664633949),
    (1000.0, 11.40920043274247395122),
    (100000.0, 18.0523427287769347944),
    (966587.4595204085, 21.32523653900880478062),
    (1000000.0, 21.37426433156041749001),
]


class TestThermalEntropy:
    @pytest.mark.parametrize("nbar, bits", THERMAL_ENTROPY_BITS)
    def test_matches_high_precision(self, nbar, bits):
        # A few ulps; the difference form (n + 1) log(n + 1) - n log n loses
        # about n eps and misses the 1e6 rows by ~1e-10 relative.
        assert thermal_entropy(nbar) == pytest.approx(bits, rel=1e-15, abs=0)
        assert thermal_entropy(nbar, "nats") == pytest.approx(bits * math.log(2), rel=1e-15, abs=0)

    @pytest.mark.parametrize("nbar", [-1.0, -1e-3, math.nan, math.inf])
    def test_negative_or_non_finite_rejected(self, nbar):
        # these returned 0.0 (negative) or nan (non-finite)
        with pytest.raises(ValueError, match="mean photon number must be finite and >= 0"):
            thermal_entropy(nbar)


class TestSpectrumEntropy:
    def test_uniform_spectrum(self):
        assert spectrum_entropy(np.full(4, 0.25)) == pytest.approx(2.0, rel=1e-15)
        assert spectrum_entropy(np.full(4, 0.25), "nats") == pytest.approx(math.log(4), rel=1e-15)

    def test_tiny_and_negative_eigenvalues_skipped(self):
        assert spectrum_entropy(np.array([0.5, 0.5, 1e-16, -1e-12])) == pytest.approx(1.0, rel=1e-15)

    def test_nan_eigenvalue_is_not_skipped(self):
        # a NaN is not an eigenvalue at or below the skip: its row is NaN,
        # and the other rows of a stack keep their values
        assert math.isnan(fock_entropy(np.array([[np.nan]])))
        assert math.isnan(spectrum_entropy(np.array([np.nan, 0.5])))
        rows = spectrum_entropy(np.array([[0.5, 0.5], [np.nan, 1.0]]))
        assert rows[0] == 1.0 and math.isnan(rows[1])

    def test_pure_overshoot_floors_at_positive_zero(self):
        value = spectrum_entropy(np.array([1.0 + 4e-16]))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_fock_and_gram_entropies_share_it(self):
        rho = np.diag([0.7, 0.2, 0.1])
        want = spectrum_entropy(np.linalg.eigvalsh(rho))
        assert fock_entropy(rho) == want
        # gram_entropy renormalizes the spectrum first.
        assert gram_entropy(rho) == pytest.approx(want, rel=1e-14)


def oracle_class_spectra(tau, nbar, alpha, cutoff):
    """The stacked spectra of the oracle's rotation-class Gram blocks."""
    order, reps = orbit_representatives(qpsk(alpha))
    blocks, _ = oracle_factor(reps, order, ChannelParams(tau=tau, nbar=nbar), cutoff)
    count, _, d, width = blocks.shape
    blocks = blocks.transpose(1, 0, 2, 3).reshape(order, count * d, width)
    return np.linalg.eigvalsh(blocks @ blocks.transpose(0, 2, 1))


def masked_entropy(row, base):
    """-sum lambda log lambda over the entries of one spectrum above the
    skip, filtered out by a boolean mask and floored at 0.0."""
    log = np.log2 if base == "bits" else np.log
    kept = row[row > states.EIGENVALUE_SKIP]
    return max(0.0, float(-(kept * log(kept)).sum()))


def assert_rows_match_the_loop(spectra, base):
    """Each row of the stacked pass against `spectrum_entropy` of the row
    alone, bit for bit, and against the masked per-row sum: bit for bit
    for n < 8, where numpy adds in order and a skipped term adds an exact
    0, and to 1e-15 relative for longer rows, summed pairwise."""
    rows = spectrum_entropy(spectra, base)
    assert rows.shape == spectra.shape[:-1]
    for got, row in zip(rows.tolist(), spectra):
        assert got == spectrum_entropy(row, base)
        want = masked_entropy(row, base)
        if row.size < 8:
            assert got == want
        else:
            assert abs(got - want) <= 1e-15 * want


class TestStackedSpectrumEntropy:
    """One pass over a stack of spectra against a `spectrum_entropy` call per
    row; only the order of summation differs from the masked sum."""

    @pytest.mark.parametrize("base", LOG_BASES)
    @pytest.mark.parametrize("tau,nbar,alpha", [(0.2, 0.01, 0.5), (0.5, 0.1, 1.0), (0.8, 0.0, 0.3),
                                                (1.0, 0.5, 0.5)])
    def test_oracle_spectra_match_the_per_block_loop(self, tau, nbar, alpha, base):
        for cutoff in (18, 13, 7):
            spectra = oracle_class_spectra(tau, nbar, alpha, cutoff)
            assert_rows_match_the_loop(spectra, base)

    @pytest.mark.parametrize("base", LOG_BASES)
    def test_random_stacks_match_the_per_block_loop(self, base):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rows, width = rng.integers(1, 9), rng.integers(1, 60)
            spectra = rng.dirichlet(np.full(width, rng.uniform(0.05, 3)), size=rows)
            # zeros as eigvalsh returns them, on both sides of the skip
            spectra[rng.random(spectra.shape) < 0.2] = rng.choice([0.0, 1e-16, -1e-14, 1e-15, 2e-15])
            assert_rows_match_the_loop(spectra, base)

    def test_one_spectrum_is_a_float(self):
        value = spectrum_entropy(np.array([0.5, 0.5]))
        assert type(value) is float and value == 1.0
        assert spectrum_entropy(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]

    def test_pure_block_floors_on_its_own(self):
        pure, mixed = [1.0 + 4e-16, 0.0], [0.5, 0.5]
        assert spectrum_entropy(np.array(pure)) == 0.0
        # the pure block's -5.8e-16 is floored, not subtracted from the 1 bit
        rows = spectrum_entropy(np.array([pure, mixed]))
        assert rows.tolist() == [0.0, 1.0] and rows.sum() == 1.0 == spectrum_entropy(np.array(mixed))
        zero = spectrum_entropy(np.array([pure, pure])).sum()
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
        assert all(math.copysign(1.0, v) == 1.0 for v in spectrum_entropy(np.array([pure, pure])))

    def test_skip_is_one_constant_shared_by_both_kernels(self, monkeypatch):
        assert states.EIGENVALUE_SKIP == 1e-15
        at, above = np.array([1e-15, 0.5]), np.array([1.1e-15, 0.5])
        assert spectrum_entropy(at) == spectrum_entropy(at[None])[0] == 0.5
        assert spectrum_entropy(above) == spectrum_entropy(above[None])[0]
        assert spectrum_entropy(above) > 0.5
        monkeypatch.setattr(states, "EIGENVALUE_SKIP", 0.3)
        eigs = np.array([0.8, 0.2])
        want = -0.8 * math.log2(0.8)
        assert spectrum_entropy(eigs) == pytest.approx(want, rel=1e-15)
        assert spectrum_entropy(eigs[None])[0] == pytest.approx(want, rel=1e-15)


def test_class_gram_reference_keeps_its_per_class_loop(monkeypatch):
    """The unbatched reference takes one `fock_entropy` per rotation class,
    so it shares no entropy pass with the stacked oracle it checks."""
    shapes = []

    def counting(rho, base="bits"):
        shapes.append(rho.shape)
        return fock_entropy(rho, base)

    monkeypatch.setattr(reference, "fock_entropy", counting)
    order, reps = orbit_representatives(qpsk(0.5))
    params = ChannelParams(tau=0.5, nbar=0.01)
    got = reference.class_gram_oracle_entropy(reps, order, params, 7)
    assert shapes == [(8, 8)] * 4
    blocks, _ = oracle_factor(reps, order, params, 7)
    assert got == pytest.approx(fock._eve_entropy(order, blocks, "bits"), abs=1e-13)
