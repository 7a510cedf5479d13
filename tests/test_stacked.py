"""The scan's stacked kernels against the per-cell library calls: the rows
`run_scan` prints from one ensemble per scan equal, string for string, the
values the library returns cell by cell, and each stacked kernel equals
its per-cell result bit for bit, on both routes of the Gram entropy, which
is decided once per constellation: the transform of each cell's first row
for a cyclic constellation and the eigensolve of each cell's full matrix
for any other."""

import numpy as np
import pytest

from evebounds.bounds import (
    _is_cyclic,
    bm_get_entropy,
    bm_gme_entropy,
    eb_qpsk_entropy,
    gaussian_extremality_entropy,
    gram_ensemble_entropy,
    gram_entropy,
    gram_matrix,
)
from evebounds.cli import ScanConfig, _fmt, run_scan
from evebounds.cloner import ChannelParams, Constellation, displaced_thermal_ensemble, qpsk
from evebounds.states import average_covariance

TAUS = [0.0, 0.37, 1.0]
NBARS = [0.0, 1e-12, 5.0, 1e6]


class GridConfig(ScanConfig):
    """A scan over exactly `TAUS`, which no evenly spaced grid holds."""

    def tau_grid(self):
        return np.array(TAUS)


def library_rows(alpha, methods, base):
    """The rows `run_scan` prints, each value from its library call on
    its cell alone."""
    calls = {
        "bm-get": ("-", lambda p: bm_get_entropy(qpsk(alpha), p, base)),
        "bm-gme": ("pure-exact", lambda p: bm_gme_entropy(qpsk(alpha), p, base)),
        "eb": ("-", lambda p: eb_qpsk_entropy(alpha, p, base)),
    }
    rows = []
    for nbar in NBARS:
        for tau in TAUS:
            for method in sorted(methods):
                variant, call = calls[method]
                value = call(ChannelParams(tau=tau, nbar=nbar))
                rows.append(f"{_fmt(tau)},{_fmt(nbar)},{_fmt(alpha)},{method},"
                            f"{variant},{_fmt(value)},{base},ok")
    return rows


@pytest.mark.parametrize("base", ["bits", "nats"])
@pytest.mark.parametrize("alpha, methods", [
    (0.05, ["eb", "bm-get", "bm-gme"]),
    (1.0, ["eb", "bm-get", "bm-gme"]),
    (40.0, ["eb", "bm-get", "bm-gme"]),
    (1e4, ["eb"]),
])
def test_scan_rows_equal_library_calls(alpha, methods, base):
    cfg = GridConfig(nbars=NBARS, alpha=alpha, methods=methods, log_base=base)
    rows = run_scan(cfg)
    assert rows == library_rows(alpha, methods, base)
    # a stacked floor must not leave -0.0, which prints as -0
    assert not any(row.split(",")[5].startswith("-") for row in rows)


# A three-state constellation with no rotation symmetry and unequal weights.
THREE_STATES = Constellation(amplitudes=[0.3 - 0.1j, -0.8 + 0.6j, 1.7j], probs=[0.5, 0.3, 0.2])
CELLS = [ChannelParams(tau=tau, nbar=nbar) for nbar in NBARS for tau in TAUS + [0.81]]
# Twelve equiprobable states, each a turn of pi / 6 from the one before it.
TWELVE_STATES = Constellation(amplitudes=0.7 * np.exp(2j * np.pi * np.arange(12) / 12),
                              probs=np.full(12, 1 / 12))


def bits(array):
    return np.asarray(array).tobytes()


class TestStackedKernels:
    def test_ensemble(self):
        stacked = displaced_thermal_ensemble(THREE_STATES, CELLS)
        assert stacked.nu1p.shape == (len(CELLS),)
        assert stacked.means.shape == (len(CELLS), 3, 4)
        for i, params in enumerate(CELLS):
            cell = displaced_thermal_ensemble(THREE_STATES, params)
            assert isinstance(cell.nu1p, float) and cell.means.shape == (3, 4)
            assert stacked.nu1p[i] == cell.nu1p
            assert bits(stacked.means[i]) == bits(cell.means)

    def test_average_covariance(self):
        stacked = displaced_thermal_ensemble(THREE_STATES, CELLS)
        covs = stacked.average_covariance()
        direct = average_covariance(stacked.means, stacked.probs, stacked.common_covariance())
        assert covs.shape == (len(CELLS), 4, 4) and bits(covs) == bits(direct)
        for i, params in enumerate(CELLS):
            cell = displaced_thermal_ensemble(THREE_STATES, params)
            assert bits(covs[i]) == bits(cell.average_covariance())
        values = gaussian_extremality_entropy(stacked)
        assert values == [bm_get_entropy(THREE_STATES, p) for p in CELLS]

    def test_circular_stack_equals_cells(self):
        # Twelve states: more than numpy sums in plain order, so the moments
        # of a stack's cells must still come out as each cell's alone.
        values = gaussian_extremality_entropy(displaced_thermal_ensemble(TWELVE_STATES, CELLS))
        assert values == [bm_get_entropy(TWELVE_STATES, p) for p in CELLS]

    @pytest.mark.parametrize("alpha", [1e-4, 0.7, 40.0])
    def test_bpsk_stack_equals_cells(self, alpha):
        # BPSK's spread has rank 1, so its smaller eigenvalue comes from the
        # Cauchy-Binet sum alone; (tau, nbar) = (0.1, 0) at alpha = 1e-4 is
        # where the two-mode invariants once raised.
        bpsk = Constellation(amplitudes=[alpha, -alpha], probs=[0.5, 0.5])
        cells = CELLS + [ChannelParams(tau=0.1, nbar=0.0)]
        values = gaussian_extremality_entropy(displaced_thermal_ensemble(bpsk, cells))
        assert values == [bm_get_entropy(bpsk, p) for p in cells]

    @pytest.mark.parametrize("base", ["bits", "nats"])
    def test_cyclic_gram_stack_equals_cells(self, base):
        # The twelve states are cyclic, so every cell takes the transform of
        # its Gram matrix's first row; a stack must give each cell's value
        # alone, where the spectrum sums twelve terms pairwise.
        entropies = gram_ensemble_entropy(displaced_thermal_ensemble(TWELVE_STATES, CELLS), base)
        assert entropies.shape == (len(CELLS),)
        for i, params in enumerate(CELLS):
            assert bits(entropies[i]) == bits(bm_gme_entropy(TWELVE_STATES, params, base))

    @pytest.mark.parametrize("base", ["bits", "nats"])
    @pytest.mark.parametrize("constellation", [
        # unequal weights
        THREE_STATES,
        # QPSK listed clockwise: the route is the constellation's, so every
        # cell takes the full Gram matrix, the tau = 1 cells included, whose
        # displacements are all 0
        Constellation(amplitudes=np.conj(qpsk(0.6).amplitudes), probs=np.full(4, 0.25)),
    ], ids=["three-states", "clockwise-qpsk"])
    def test_full_gram_stack_equals_cells(self, constellation, base):
        stacked = displaced_thermal_ensemble(constellation, CELLS)
        assert not _is_cyclic(stacked.constellation)
        entropies = gram_ensemble_entropy(stacked, base)
        for i, params in enumerate(CELLS):
            assert bits(entropies[i]) == bits(bm_gme_entropy(constellation, params, base))

    @pytest.mark.parametrize("base", ["bits", "nats"])
    def test_gram_matrix_and_entropy(self, base):
        stacked = displaced_thermal_ensemble(THREE_STATES, CELLS)
        grams = gram_matrix(stacked)
        entropies = gram_entropy(grams, base)
        assert grams.shape == (len(CELLS), 3, 3) and entropies.shape == (len(CELLS),)
        for i, params in enumerate(CELLS):
            cell = gram_matrix(displaced_thermal_ensemble(THREE_STATES, params))
            assert bits(grams[i]) == bits(cell)
            value = gram_entropy(cell, base)
            assert isinstance(value, float)
            assert bits(entropies[i]) == bits(value)
            assert value == bm_gme_entropy(THREE_STATES, params, base)

    def test_stack_checked_as_a_whole(self):
        grams = gram_matrix(displaced_thermal_ensemble(THREE_STATES, CELLS))
        bad = grams.copy()
        bad[5] *= 1.1
        with pytest.raises(ValueError, match="trace is 1.1"):
            gram_entropy(bad)
        bad = grams.copy()
        bad[7, 0, 1] += 1e-9
        with pytest.raises(ValueError, match="not Hermitian"):
            gram_entropy(bad)

    @pytest.mark.parametrize("base", ["bits", "nats"])
    @pytest.mark.parametrize("alpha", [1e-200, 0.05, 1.0, 40.0, 1e4])
    def test_eb(self, alpha, base):
        values = eb_qpsk_entropy(alpha, CELLS, base)
        assert isinstance(values, list) and len(values) == len(CELLS)
        for value, params in zip(values, CELLS):
            cell = eb_qpsk_entropy(alpha, params, base)
            assert isinstance(cell, float) and bits(value) == bits(cell)

    # The sum of the squared symplectic eigenvalues overflows at both cells
    # of a qpsk(1e150) stack, with a different mode-1 spread T1 in each
    # message.
    FAILING = [ChannelParams(tau=0.25, nbar=5.0), ChannelParams(tau=0.5, nbar=0.01)]
    FAILING_T1 = ["T1 = 3.789e+300", "T1 = 2.010e+300"]

    @pytest.mark.parametrize("order", [[0, 1], [1, 0]])
    def test_first_failing_cell_raises(self, order):
        cells = [self.FAILING[i] for i in order]
        errors = []
        for params in (*cells, cells):
            with pytest.raises(ValueError, match="beyond double precision") as raised:
                gaussian_extremality_entropy(displaced_thermal_ensemble(qpsk(1e150), params))
            errors.append(str(raised.value))
        assert errors[2] == errors[0]
        assert [error.split(", ")[-1] for error in errors[:2]] == [self.FAILING_T1[i] for i in order]

    def test_large_amplitude_cell_in_a_stack(self):
        # bm-get raised at (alpha, nbar, tau) = (3.23e8, 5, 0.25) when its
        # determinant cancelled; 120 digits give 61.4617099195364.
        values = gaussian_extremality_entropy(displaced_thermal_ensemble(qpsk(3.23e8), self.FAILING))
        assert values == [bm_get_entropy(qpsk(3.23e8), params) for params in self.FAILING]
        assert values[0] == pytest.approx(61.4617099195364, rel=1e-14, abs=0)
