import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evebounds import bounds, fock
from evebounds.blochmessiah import _hermitian_phase
from evebounds.cli import ScanConfig, run_scan
from evebounds.cloner import (
    SYMMETRY_RTOL,
    ChannelParams,
    Constellation,
    _orbits_by_value,
    _rotation_orbits,
    displaced_thermal_ensemble,
    qpsk,
)
from evebounds.states import entropy_from_cov
from evebounds.unitaries import expm_i_hermitian
from reference import (
    apply_sparse_generator,
    bs_generator,
    class_gram_oracle_entropy,
    coherent_ket,
    dense_eve_average_state,
    displacement_generator,
    expm_tridiagonal,
    fock_hs_product,
    fock_moments,
    fock_unitary,
    full_gram_oracle_entropy,
    ladder_matrix,
    make_thermal,
    orbit_representatives,
    qam16,
    rotation_generator,
    sparse_squeeze_generator,
    squeeze_generator_kron,
    tmsv_ket,
)
from test_golden import ORACLE_RTOL


def oracle_sweep(representatives, order, params, cutoff):
    """(weights, values, layout, deficits): what a cell of the oracle
    sweeping from `cutoff` gathers its factors and leakage from."""
    moduli = np.abs(representatives.amplitudes).tolist()
    kets, lam, deficits = fock._sweep_inputs(moduli, params.nbar, cutoff)
    weights = np.multiply.outer(kets, lam).reshape(len(kets), -1)
    return weights, fock._eve_bs_values(float(params.tau), cutoff, order), fock._sweep_layout(order, cutoff), deficits


def oracle_factor(representatives, order, params, cutoff, real=False):
    """(blocks, leak) of the oracle at `cutoff`, the top of its sweep:
    `fock._sweep_factors` and the worst leakage, before the leakage gate.
    With `real`, the factor of the moduli alone, with no column phase."""
    weights, values, layout, deficits = oracle_sweep(representatives, order, params, cutoff)
    leak = max(deficits[0], *fock._sweep_leaks(weights, values, layout)[0].tolist())
    amplitudes = np.abs(representatives.amplitudes) if real else representatives.amplitudes
    return fock._sweep_factors(amplitudes, representatives.probs, weights, values, layout)[0], leak


class TestStates:
    def test_coherent_vacuum(self):
        ket, deficit = coherent_ket(0.0, 10)
        assert np.allclose(ket, np.eye(1, 11, 0)[0])
        assert deficit == pytest.approx(0.0, abs=1e-15)

    def test_coherent_poisson_populations(self):
        alpha = 0.8
        ket, _ = coherent_ket(alpha, 30)
        n = np.arange(5)
        expected = np.exp(-alpha**2) * alpha ** (2 * n) / np.array([math.factorial(k) for k in n])
        assert np.allclose(np.abs(ket[:5]) ** 2, expected, atol=1e-12)

    def test_thermal_geometric_populations(self):
        rho = fock.fock_thermal(1.0, 60)
        n = np.arange(6)
        assert np.allclose(np.diag(rho).real[:6], 0.5 * 0.5**n, atol=1e-12)

    def test_tmsv_schmidt_populations(self):
        nbar = 0.01
        lam = math.tanh(0.5 * math.acosh(1.02))
        ket, _ = tmsv_ket(nbar, 12)
        rho = np.outer(ket, ket.conj())
        d = 13
        diag = np.diag(rho).real.reshape(d, d)
        n = np.arange(4)
        assert np.allclose(np.diag(diag)[:4], (1 - lam**2) * lam ** (2 * n), atol=1e-12)
        # off-diagonal Schmidt structure with uniform sign: positive q-q correlation
        mean, cov = fock_moments(rho, 12, 2)
        assert cov[0, 2] == pytest.approx(2 * math.sqrt(nbar**2 + nbar), abs=1e-9)
        assert cov[1, 3] == pytest.approx(-2 * math.sqrt(nbar**2 + nbar), abs=1e-9)

    def test_excessive_leakage_raises(self):
        with pytest.raises(fock.FockConvergenceError, match="leakage"):
            fock.fock_thermal(2.0, cutoff=3)
        with pytest.raises(fock.FockConvergenceError, match="leakage nan"):
            fock._require_deficit(math.nan, "a NaN deficit")

    @pytest.mark.parametrize("make", [fock.fock_thermal, tmsv_ket])
    @pytest.mark.parametrize("nbar", [math.nan, math.inf, -math.inf, -0.1])
    def test_non_finite_or_negative_nbar_rejected(self, make, nbar):
        with pytest.raises(ValueError, match="finite and >= 0"):
            make(nbar, 4)


class TestOperators:
    def test_displacement_zero_is_identity(self):
        u = fock_unitary(displacement_generator(8, 1, 0.0))
        assert np.allclose(u, np.eye(9), atol=1e-12)

    def test_bs_full_transmittance_is_identity(self):
        assert np.allclose(fock.fock_bs(1.0, 5), np.eye(36), atol=1e-12)

    def test_displacement_matches_coherent(self):
        alpha = 0.6 - 0.3j
        u = fock_unitary(displacement_generator(25, 1, alpha))
        moved = u[:, 0]
        ket, _ = coherent_ket(alpha, 25)
        assert abs(abs(np.vdot(moved, ket)) - 1) < 1e-10

    def test_bs_action_on_coherent_vacuum(self):
        # first output t a + r b, second -r a + t b
        tau = 0.5
        alpha = 0.7
        ket_a, _ = coherent_ket(alpha, 20)
        ket_b, _ = coherent_ket(0.0, 20)
        psi = np.kron(ket_a, ket_b)
        out = fock.fock_bs(tau, 20) @ psi
        mean, cov = fock_moments(np.outer(out, out.conj()), 20, 2)
        t, r = math.sqrt(tau), math.sqrt(1 - tau)
        assert np.allclose(mean, [2 * t * alpha, 0.0, -2 * r * alpha, 0.0], atol=1e-8)
        assert np.allclose(cov, np.eye(4), atol=1e-8)

    @pytest.mark.parametrize("cutoff", [5, 13, 18])
    @pytest.mark.parametrize("tau", [0.0, 0.2, 0.5, 1.0])
    def test_bs_sectors_match_dense_exponential(self, tau, cutoff):
        dense = fock_unitary(bs_generator(cutoff, tau))
        assert np.max(np.abs(fock.fock_bs(tau, cutoff) - dense)) < 1e-12

    def test_unitaries_are_unitary(self):
        u = fock_unitary(sparse_squeeze_generator(12, 1, np.array([[0.3]])))
        assert np.max(np.abs(u.conj().T @ u - np.eye(13))) < 1e-12


def random_kets(rng, count, cutoff):
    shape = (count, (cutoff + 1) ** 2)
    kets = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


ROTATIONS = {
    "random": np.array([[0.7, 0.4 - 0.9j], [0.4 + 0.9j, -1.3]]),
    "diagonal": np.diag([0.6, -1.1]).astype(complex),
    "zero": np.zeros((2, 2), dtype=complex),
}
DISPLACEMENTS = {
    "random": np.array([0.6 - 0.3j, -0.4 + 0.5j]),
    "zero": np.zeros(2, dtype=complex),
    "mode-0-zero": np.array([0.0, 0.5 + 0.2j]),
    "mode-1-zero": np.array([-0.7j, 0.0]),
}


class TestStructuredExponentials:
    """`apply_displacement` and `apply_rotation` against scipy's
    `expm_multiply` of the full sparse generator."""

    @pytest.mark.parametrize("cutoff", [5, 13, 50])
    @pytest.mark.parametrize("name", sorted(DISPLACEMENTS))
    def test_displacement_matches_generator(self, name, cutoff):
        alpha = DISPLACEMENTS[name]
        gen = displacement_generator(cutoff, 2, alpha)
        for ket in random_kets(np.random.default_rng(cutoff), 2, cutoff):
            reference = apply_sparse_generator(gen, ket)
            assert np.max(np.abs(fock.apply_displacement(alpha, ket, cutoff) - reference)) < 1e-12

    @pytest.mark.parametrize("cutoff", [5, 13, 50])
    @pytest.mark.parametrize("name", sorted(ROTATIONS))
    def test_rotation_matches_generator(self, name, cutoff):
        phi = ROTATIONS[name]
        gen = rotation_generator(cutoff, 2, phi)
        for ket in random_kets(np.random.default_rng(cutoff), 2, cutoff):
            reference = apply_sparse_generator(gen, ket)
            assert np.max(np.abs(fock.apply_rotation(phi, ket, cutoff) - reference)) < 1e-12

    @pytest.mark.parametrize("cutoff", [5, 13, 50])
    def test_stack_equals_single_calls(self, cutoff):
        kets = random_kets(np.random.default_rng(7), 3, cutoff)
        for apply, arg in ((fock.apply_rotation, ROTATIONS["random"]),
                           (fock.apply_displacement, DISPLACEMENTS["random"])):
            stacked = apply(arg, kets, cutoff)
            assert stacked.shape == kets.shape
            singles = np.array([apply(arg, ket, cutoff) for ket in kets])
            assert np.max(np.abs(stacked - singles)) < 1e-14

    @pytest.mark.parametrize("cutoff", [5, 13, 50])
    @pytest.mark.parametrize("tau", [0.0, 0.2, 0.5, 1.0])
    def test_beam_splitter_is_a_rotation(self, tau, cutoff):
        theta = math.acos(math.sqrt(tau))
        ket = random_kets(np.random.default_rng(3), 1, cutoff)[0]
        rotated = fock.apply_rotation(theta * np.array([[0, -1j], [1j, 0]]), ket, cutoff)
        assert np.max(np.abs(rotated - fock.fock_bs(tau, cutoff) @ ket)) < 1e-12

    def test_displacement_needs_two_amplitudes(self):
        with pytest.raises(ValueError, match="per mode"):
            fock.apply_displacement([0.1], np.zeros(36), 5)


@pytest.mark.parametrize("cutoff", [5, 6, 50])
@pytest.mark.parametrize("name", sorted(ROTATIONS) + ["beam-splitter"])
def test_packed_rotation_keeps_sectors_apart(name, cutoff):
    # Sectors N and N + d share a packed block, linked by an exact zero hop.
    # The beam splitter's two sectors per block share eigenvalues, so an
    # eigenvector mixing them would still be one, but LAPACK splits each
    # block at the zero and every entry outside the ket's sector stays 0.
    phi = ROTATIONS.get(name, math.acos(math.sqrt(0.3)) * fock._BS_PHI)
    d = cutoff + 1
    sectors = np.arange(2 * cutoff + 1)[:, None]
    inside = np.add.reduce(np.divmod(np.arange(d * d), d)) == sectors
    kets = random_kets(np.random.default_rng(cutoff), sectors.size, cutoff) * inside
    out = fock.apply_rotation(phi, kets, cutoff)
    assert np.all(out[~inside] == 0.0)
    assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(kets, axis=1), atol=1e-14)


def one_sector_kets(cutoff, rng):
    """(kets, inside): a random ket in each photon-number sector
    N = 0 .. 2 cutoff, zero outside it, and the masks of those sectors."""
    d = cutoff + 1
    sectors = np.arange(2 * cutoff + 1)[:, None]
    inside = np.add.reduce(np.divmod(np.arange(d * d), d)) == sectors
    return random_kets(rng, sectors.size, cutoff) * inside, inside


# The corners of the split exp(i phi) = D1 B(theta) D2 of `fock._euler_angles`.
EULER_CORNERS = {
    # theta = pi / 2, V00 = 0
    "swap": math.pi / 2 * fock._BS_PHI,
    # theta = 0, V01 = V10 = 0, with wrapped phases
    "diagonal-x37": 37 * ROTATIONS["diagonal"],
    # eigenphases pi and 0.4 in a basis that mixes the modes
    "eigenphase-pi": (lambda q: q @ np.diag([math.pi, 0.4]) @ q.conj().T)(
        np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)),
    # the eigenphases of 37 phi wrap several times around the circle
    "random-x37": 37 * ROTATIONS["random"],
}


@pytest.mark.parametrize("cutoff", [5, 6, 7, 13])
@pytest.mark.parametrize("name", sorted(EULER_CORNERS))
def test_rotation_euler_corners(name, cutoff):
    phi = EULER_CORNERS[name]
    kets, inside = one_sector_kets(cutoff, np.random.default_rng(cutoff))
    out = fock.apply_rotation(phi, kets, cutoff)
    assert np.all(out[~inside] == 0.0)
    reference = apply_sparse_generator(rotation_generator(cutoff, 2, phi), kets)
    assert np.max(np.abs(out - reference)) < 1e-12


@pytest.mark.parametrize("cutoff", [5, 6, 13])
@pytest.mark.parametrize("first, second", [("random", "eigenphase-pi"), ("random-x37", "swap"),
                                           ("swap", "swap"), ("diagonal", "random-x37")])
def test_rotation_group_law_on_complete_sectors(first, second, cutoff):
    # On the sectors N <= cutoff, which truncation leaves whole,
    # R(phi1) R(phi2) = R(phi12) with exp(i phi12) = exp(i phi1) exp(i phi2).
    phi1, phi2 = ({**ROTATIONS, **EULER_CORNERS}[name] for name in (first, second))
    phi12 = _hermitian_phase(expm_i_hermitian(phi1) @ expm_i_hermitian(phi2))
    d = cutoff + 1
    complete = np.add.reduce(np.divmod(np.arange(d * d), d)) <= cutoff
    kets = random_kets(np.random.default_rng(cutoff), 3, cutoff) * complete
    twice = fock.apply_rotation(phi1, fock.apply_rotation(phi2, kets, cutoff), cutoff)
    assert np.max(np.abs(twice - fock.apply_rotation(phi12, kets, cutoff))) < 1e-12


# The reference is the dense exponential, at most 100 x 100 here: scipy's
# norm estimate inside `apply_sparse_generator` overflows on tiny nonzero
# entries such as the 1.4e-45 of the example.
@settings(derandomize=True, database=None, deadline=None)
@given(entries=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
       cutoff=st.integers(5, 9), seed=st.integers(0, 2**32 - 1))
@example(entries=[0.0, 1.4e-45, 0.0, 3.0], cutoff=6, seed=0)
def test_rotation_matches_generator_property(entries, cutoff, seed):
    a, b, re, im = entries
    phi = np.array([[a, re - 1j * im], [re + 1j * im, b]])
    phi *= 5.0 / max(5.0, np.linalg.norm(phi, 2))
    kets = random_kets(np.random.default_rng(seed), 2, cutoff)
    out = fock.apply_rotation(phi, kets, cutoff)
    reference = kets @ fock_unitary(rotation_generator(cutoff, 2, phi)).T
    assert np.max(np.abs(out - reference)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-13


@pytest.mark.parametrize("phi, match", [
    (np.eye(3), r"must be 2 x 2, got shape \(3, 3\)"),
    ([[math.nan, 0], [0, 0]], "NaN or Inf"),
    ([[0, 1], [0, 0]], "not Hermitian"),
    ([[1j, 0], [0, 0]], "not Hermitian"),
], ids=["shape", "not-finite", "upper-triangle", "imaginary-diagonal"])
def test_rotation_rejects_bad_generator(phi, match):
    with pytest.raises(ValueError, match=match):
        fock.apply_rotation(phi, np.zeros(36), 5)


def test_beam_splitter_basis_is_shared_and_read_only(monkeypatch):
    first, second = fock._bs_basis(18), fock._bs_basis(18)
    assert all(a is b and not a.flags.writeable for a, b in zip(first, second))
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(m.shape) or eigh(m))
    fock._bs_basis.cache_clear()
    fock._bs_sectors.cache_clear()
    vecs, _, vals, *_ = fock._bs_sectors(11)
    fock.apply_rotation(ROTATIONS["random"], random_kets(np.random.default_rng(1), 2, 11), 11)
    # one eigensolve of the 12 packed blocks serves the oracle and the
    # rotation, which adds the 2 x 2 exp(i phi) and the ceil(11 / 2)
    # truncated-sector blocks of 11 states
    assert shapes == [(12, 12, 12), (2, 2), (6, 11, 11)]
    basis_vals, basis_vecs, *_ = fock._bs_basis(11)
    assert vecs is basis_vecs and vals is basis_vals


@pytest.mark.parametrize("cutoff", [5, 18, 50])
def test_displacement_basis_matches_per_call_eigensolve(cutoff):
    hop = np.sqrt(np.arange(1, cutoff + 1))
    for alpha in (0, 1e-300, 1e-8, 0.3 + 0.4j, -1j, 5 - 3j, 10j):
        factor = fock._displacement_factor(alpha, cutoff)
        reference = expm_tridiagonal(np.zeros(cutoff + 1), 1j * alpha * hop)
        assert np.max(np.abs(factor - reference)) < 1e-13
        assert np.max(np.abs(factor.conj().T @ factor - np.eye(cutoff + 1))) < 1e-14


def test_displacement_basis_is_cached_and_read_only():
    first, second = fock._quadrature_basis(18), fock._quadrature_basis(18)
    assert all(a is b and not a.flags.writeable for a, b in zip(first, second))


SQUEEZERS = {
    (50, 2): np.array([[0.3 - 0.1j, 0.2 + 0.25j], [0.2 + 0.25j, 0.0]]),
    (30, 1): np.array([[0.4 + 0.3j]]),
}


class TestSqueezeGenerator:
    """The sparse reference squeezer weights cached products
    a_j^dag a_k^dag; `squeeze_generator_kron` rebuilds them from `destroy`
    on every call.  On two modes the ladder weights of
    `fock.squeeze_generator`, laid out as a matrix, are H = i times that
    generator."""

    @pytest.mark.parametrize("cutoff, nmodes", sorted(SQUEEZERS))
    def test_matches_kron_reference_entry_for_entry(self, cutoff, nmodes):
        z = SQUEEZERS[cutoff, nmodes]
        gen = sparse_squeeze_generator(cutoff, nmodes, z)
        reference = squeeze_generator_kron(cutoff, nmodes, z)
        assert gen.shape == reference.shape
        assert (gen != reference).nnz == 0
        if nmodes == 2:
            h = ladder_matrix(fock.squeeze_generator(cutoff, z))
            assert abs(h - 1j * reference).max() < 1e-14

    def test_mutating_a_result_leaves_the_next_call_unchanged(self):
        z = SQUEEZERS[50, 2]
        first = sparse_squeeze_generator(50, 2, z)
        first.data[:] = 7.0
        first *= 3.0
        second = sparse_squeeze_generator(50, 2, z)
        assert (second != squeeze_generator_kron(50, 2, z)).nnz == 0


def random_symmetric(rng, scale):
    """Random complex symmetric 2 x 2 matrix with largest singular value
    `scale`."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    z = (z + z.T) / 2
    return z * (scale / np.linalg.svd(z, compute_uv=False)[0])


CHEBYSHEV_CASES = {
    "zero": np.zeros((2, 2), dtype=complex),
    "zero-diagonal-entry": np.array([[0.0, 0.3 + 0.2j], [0.3 + 0.2j, -0.25j]]),
    # symmetric only to rounding, as a product of rotations and squeezers
    # leaves it
    "near-symmetric": np.array([[0.2 - 0.1j, 0.35 + 0.1j], [0.35 + 0.1j + 3e-17, 0.1]]),
    **{f"random-{k}": random_symmetric(np.random.default_rng(100 + k), s)
       for k, s in enumerate((0.05, 0.3, 0.5))},
}


class TestChebyshevSqueezer:
    """`apply_generator` against scipy's `expm_multiply` of the sparse
    reference generator."""

    @pytest.mark.parametrize("cutoff", [5, 20, 50])
    @pytest.mark.parametrize("name", sorted(CHEBYSHEV_CASES))
    def test_matches_expm_multiply(self, name, cutoff):
        z = CHEBYSHEV_CASES[name]
        kets = random_kets(np.random.default_rng(cutoff), 2, cutoff)
        reference = apply_sparse_generator(sparse_squeeze_generator(cutoff, 2, z), kets)
        chebyshev = fock.apply_generator(fock.squeeze_generator(cutoff, z), kets)
        assert np.max(np.abs(chebyshev - reference)) < 1e-13

    @pytest.mark.parametrize("cutoff", [5, 50])
    def test_stack_equals_single_calls(self, cutoff):
        kets = random_kets(np.random.default_rng(7), 3, cutoff)
        gen = fock.squeeze_generator(cutoff, CHEBYSHEV_CASES["random-2"])
        stacked = fock.apply_generator(gen, kets)
        assert stacked.shape == kets.shape
        singles = np.array([fock.apply_generator(gen, ket) for ket in kets])
        assert np.max(np.abs(stacked - singles)) < 1e-14


class TestMillerBessel:
    # scipy's jv is itself off by 3e-15 at x = 100 and 4e-15 at x = 150
    # (against 40-digit mpmath, where the recurrence is within 2e-16), so
    # the comparison stops below that.
    @pytest.mark.parametrize("x", [1e-6, 0.03, 0.5, 1.0, 3.7, 10.0, 25.0, 42.5])
    def test_matches_scipy_jv(self, x):
        from scipy.special import jv

        j = fock._bessel_j(x)
        assert np.max(np.abs(j - jv(np.arange(j.size), x))) < 1e-15
        # the series stops where the terms fall below the floor
        assert abs(j[-1]) > fock.CHEBYSHEV_FLOOR
        assert abs(jv(j.size, x)) <= fock.CHEBYSHEV_FLOOR


class TestScalars:
    def test_pure_state_entropy_zero(self):
        ket, _ = coherent_ket(0.5, 20)
        assert fock.fock_entropy(np.outer(ket, ket.conj())) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_entropy_matches_gaussian(self):
        oracle = fock.fock_entropy(fock.fock_thermal(1.0, 60))
        assert oracle == pytest.approx(2.0, abs=1e-6)
        assert oracle == pytest.approx(entropy_from_cov(make_thermal(1).cov), abs=1e-5)

    def test_hs_product_coherent_vacuum(self):
        alpha = 0.9
        ket, _ = coherent_ket(alpha, 40)
        vac, _ = coherent_ket(0.0, 40)
        val = fock_hs_product(np.outer(ket, ket.conj()), np.outer(vac, vac.conj()))
        assert val == pytest.approx(math.exp(-alpha**2), rel=1e-8)

    def test_displaced_thermal_entropy_matches_gaussian(self):
        # entropy is displacement-invariant
        rho = fock.fock_thermal(0.3, 40)
        u = fock_unitary(displacement_generator(40, 1, 0.6 - 0.2j))
        moved = u @ rho @ u.conj().T
        assert fock.fock_entropy(moved) == pytest.approx(
            entropy_from_cov(make_thermal(0.3).cov), abs=1e-5
        )



class TestEveExact:
    def test_unit_transmittance_zero_entropy(self):
        result = fock.eve_exact_entropy(qpsk(1.0), ChannelParams(tau=1.0, nbar=0.01))
        assert result.value == pytest.approx(0.0, abs=1e-9)

    def test_pure_loss_limit_matches_gram_eigensolve(self):
        # direct 4x4 Gram of the coherent ensemble as the reference
        amps = qpsk(1.0).amplitudes
        gram = np.empty((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                a, b = amps[i], amps[j]
                gram[i, j] = 0.25 * np.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2) + np.conj(a) * b)
        eigs = np.linalg.eigvalsh(gram)
        reference = float(-(eigs * np.log2(eigs)).sum())
        result = fock.eve_exact_entropy(qpsk(1.0), ChannelParams(tau=0.0, nbar=0.0), cutoff=15)
        assert result.value == pytest.approx(reference, abs=1e-6)
        assert result.value == pytest.approx(1.7579584, abs=1e-6)

    def test_below_gaussian_bound(self):
        from evebounds.bounds import bm_get_entropy

        params = ChannelParams(tau=0.5, nbar=0.01)
        result = fock.eve_exact_entropy(qpsk(1.0), params, cutoff=15)
        assert result.drift < 1e-4
        assert result.value <= bm_get_entropy(qpsk(1.0), params) + 1e-6

    @pytest.mark.parametrize("tau,nbar,alpha", [(0.5, 0.1, 1.0), (0.2, 0.5, 0.5)])
    def test_gram_side_spectrum_matches_density_matrix(self, tau, nbar, alpha):
        m, _ = dense_eve_average_state(qpsk(alpha), ChannelParams(tau=tau, nbar=nbar), 13)
        gram = np.sort(np.linalg.eigvalsh(m.conj() @ m.T))[::-1]
        rho = np.sort(np.linalg.eigvalsh(m.T @ m.conj()))[::-1]
        assert gram.size == 4 * 14 and rho.size == 14 * 14
        assert np.max(np.abs(gram - rho[: gram.size])) < 1e-12
        assert np.max(np.abs(rho[gram.size :])) < 1e-12
        assert gram.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("cutoff", [7, 8, 13, 18])
    @pytest.mark.parametrize("tau", [0.0, 0.2, 0.5, 1.0])
    def test_sector_sparse_state_matches_dense_unitary(self, tau, cutoff):
        # the real factor, with the row phase exp(i b phi) and the column
        # phase exp(i (c' - e) phi) of each amplitude restored, is the
        # complex factor of the dense beam splitter
        d = cutoff + 1
        b = np.arange(d)[:, None]
        c, e = np.divmod(np.arange(d * d), d)
        cases = [(qpsk(alpha), nbar) for alpha in (0.5, 2.0) for nbar in (0.0, 0.01, 2.0)]
        cases += [(SYMMETRY_CASES[name][0], 0.01)
                  for name in ("two-ring-z4", "skewed-three", "with-origin")]
        for constellation, nbar in cases:
            params = ChannelParams(tau=tau, nbar=nbar)
            blocks, leak = oracle_factor(constellation, 1, params, cutoff, real=True)
            assert blocks.dtype == np.float64
            phi = np.angle(constellation.amplitudes)[:, None, None]
            m = blocks[:, 0] * np.exp(1j * phi * (b + c - e))
            m_ref, leak_ref = dense_eve_average_state(constellation, params, cutoff)
            assert m.shape == (constellation.amplitudes.size, d, d * d)
            assert np.max(np.abs(m.reshape(m_ref.shape) - m_ref)) < 1e-13
            assert abs(leak - leak_ref) < 1e-15

    @pytest.mark.parametrize("cutoff", [7, 8, 13, 18])
    @pytest.mark.parametrize("tau", [0.0, 0.2, 0.5, 1.0])
    def test_cached_blocks_match_dense_exponential(self, tau, cutoff):
        values = fock._bs_slot_values(tau, cutoff)
        *_, row, col = fock._bs_sectors(cutoff)
        dim = (cutoff + 1) ** 2
        assert values.dtype == np.float64
        assert values.size == row.size == col.size
        assert np.unique(row * dim + col).size == values.size
        u = np.zeros((dim, dim))
        u[row, col] = values
        dense = fock_unitary(bs_generator(cutoff, tau))
        assert np.max(np.abs(u - dense)) < 1e-12

    def test_cached_eigenbasis_read_only_and_call_order_free(self):
        cache = fock._bs_sectors(13)
        assert fock._bs_sectors(13) is cache
        vecs, vecs_t, vals, index, sign, row, col = cache
        assert vecs.shape == vecs_t.shape == (14, 14, 14) and vals.shape == (14, 14)
        assert vecs.dtype == vecs_t.dtype == np.float64
        assert index.shape == sign.shape == row.shape == col.shape
        layout = fock._sweep_layout(4, 13)
        assert fock._sweep_layout(4, 13) is layout
        for arr in (*cache, layout.slot, layout.column, *layout.top, *layout.shift):
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 0
        # cutoff 18 also sweeps 13, cutoff 13 also sweeps 8; QPSK takes the
        # order-4 layout, the skewed constellation the order-1 one
        three = SYMMETRY_CASES["skewed-three"][0]
        calls = [(18, 0.5, qpsk(0.5)), (13, 0.2, three), (18, 0.9, qpsk(0.5)),
                 (13, 0.5, qpsk(0.5)), (18, 0.2, three)]

        def run(cutoff, tau, constellation):
            params = ChannelParams(tau=tau, nbar=0.01)
            order, reps = orbit_representatives(constellation)
            blocks, leak = oracle_factor(reps, order, params, cutoff)
            oracle = fock.eve_exact_entropy(constellation, params, cutoff=cutoff)
            return blocks, leak, oracle.value, oracle.value_check

        interleaved = [run(*call) for call in calls]
        for call, first in zip(calls, interleaved):
            fock._bs_sectors.cache_clear()
            fock._eve_bs_values.cache_clear()
            fock._sweep_layout.cache_clear()
            fock._sweep_weights.cache_clear()
            fresh = run(*call)
            assert np.array_equal(first[0], fresh[0])
            assert first[1:] == fresh[1:]

    def test_slot_values_cached_and_read_only(self):
        first = fock._eve_bs_values(0.3, 13, 4)
        assert fock._eve_bs_values(0.3, 13, 4) is first
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 0

    def test_invalid_tau_raises_on_every_call(self):
        # exceptions are not cached
        for _ in range(2):
            with pytest.raises(ValueError, match="transmittance must lie in"):
                fock._eve_bs_values(1.5, 7, 4)

    def test_scan_reuses_each_tau_and_matches_single_cells(self):
        # each of the 5 taus misses once, for both cutoffs of its sweep,
        # for the first nbar and hits for the second; every row is bit for bit the one of its
        # cell run alone, with the cache warm and cold
        cfg = ScanConfig(nbars=[0.01, 0.1], tau_steps=5, methods=["oracle"])
        fock._eve_bs_values.cache_clear()
        rows = run_scan(cfg)
        info = fock._eve_bs_values.cache_info()
        assert (info.misses, info.hits) == (5, 5)
        assert run_scan(cfg) == rows
        cells = [(tau, nbar) for nbar in cfg.nbars for tau in cfg.tau_grid().tolist()]
        for (tau, nbar), row in zip(cells, rows, strict=True):
            alone = ScanConfig(tau_min=tau, tau_max=tau, tau_steps=1, nbars=[nbar], methods=["oracle"])
            warm = run_scan(alone)
            fock._eve_bs_values.cache_clear()
            assert warm == run_scan(alone) == [row]

    def test_default_oracle_scan_hits_once_per_tau(self):
        # visited nbar-major, the default grid's 50 keys would outnumber the
        # cache's 4 and no call would hit; tau-major, the second nbar hits.
        # The inputs miss once per nbar and hit for every other tau
        fock._eve_bs_values.cache_clear()
        fock._sweep_weights.cache_clear()
        run_scan(ScanConfig(methods=["oracle"]))
        info = fock._eve_bs_values.cache_info()
        assert (info.misses, info.hits) == (50, 50)
        info = fock._sweep_weights.cache_info()
        assert (info.misses, info.hits) == (2, 98)

    def test_scan_of_more_nbars_than_inputs_cached_matches_single_cells(self):
        # tau-major over nine nbars, one more than `_sweep_weights` keeps,
        # every input lookup misses; every row is bit for bit the one of
        # its cell run alone with every oracle cache cleared
        nbars = [0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 2.0]
        cfg = ScanConfig(nbars=nbars, tau_steps=3, methods=["oracle"])
        fock._sweep_weights.cache_clear()
        rows = run_scan(cfg)
        info = fock._sweep_weights.cache_info()
        assert (info.misses, info.hits) == (27, 0)
        assert {row.rsplit(",", 1)[1] for row in rows} == {"ok", "not-converged"}
        cells = [(tau, nbar) for nbar in nbars for tau in cfg.tau_grid().tolist()]
        for (tau, nbar), row in zip(cells, rows, strict=True):
            for cache in (fock._bs_basis, fock._bs_sectors, fock._sweep_layout,
                          fock._eve_bs_values, fock._sweep_weights, _orbits_by_value):
                cache.cache_clear()
            alone = ScanConfig(tau_min=tau, tau_max=tau, tau_steps=1, nbars=[nbar], methods=["oracle"])
            assert run_scan(alone) == [row]

    # the alpha = 2 cells of the oracle grid that cutoff 18 leaves
    # not-converged
    @pytest.mark.parametrize("tau,want", [(0.2, 2.06497438532), (0.5, 2.01928312723),
                                          (0.8, 1.66300419824)])
    def test_converges_at_cutoff_30(self, tau, want):
        params = ChannelParams(tau=tau, nbar=0.01)
        with pytest.raises(fock.FockConvergenceError):
            fock.eve_exact_entropy(qpsk(2.0), params)
        got = fock.eve_exact_entropy(qpsk(2.0), params, cutoff=30)
        assert got.value == pytest.approx(want, rel=ORACLE_RTOL, abs=0)

    def test_nonconvergence_raises(self):
        with pytest.raises(fock.FockConvergenceError):
            fock.eve_exact_entropy(qpsk(2.2), ChannelParams(tau=0.5, nbar=0.01), cutoff=7)

    def test_nan_drift_raises(self, monkeypatch):
        # a NaN entropy at either cutoff is no convergence; the cell passes
        # both leakage gates (qpsk(1.0) leaks 1.125e-06 at cutoff 8)
        values = iter([1.0, math.nan])
        monkeypatch.setattr(fock, "_eve_entropy", lambda *args: next(values))
        with pytest.raises(fock.FockConvergenceError, match="entropy drift nan"):
            fock.eve_exact_entropy(qpsk(0.5), ChannelParams(tau=0.5, nbar=0.01), cutoff=13)

    def test_both_leakage_gates_run_before_any_eigensolve(self, monkeypatch):
        # the first cell passes the cutoff-18 gate and fails the cutoff-13
        # one, the second fails the cutoff-18 one, so neither gathers its
        # factors or diagonalizes a Gram block
        calls, gathers = [], []
        eigvalsh, sweep_factors = np.linalg.eigvalsh, fock._sweep_factors

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        def gathering(*args):
            gathers.append(args[2].shape)
            return sweep_factors(*args)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        monkeypatch.setattr(fock, "_sweep_factors", gathering)
        # each gate runs with the cached inputs missing, then hitting
        fock._sweep_weights.cache_clear()
        for _ in range(2):
            for alpha, nbar, cutoff, leak in [(2.0, 0.01, 13, "7.633e-05"), (1.0, 2.0, 18, "4.511e-04")]:
                with pytest.raises(fock.FockConvergenceError) as error:
                    fock.eve_exact_entropy(qpsk(alpha), ChannelParams(tau=0.5, nbar=nbar))
                assert str(error.value) == (f"truncation leakage {leak} > 1e-06 for the oracle state "
                                            f"at cutoff {cutoff}; raise the cutoff")
        info = fock._sweep_weights.cache_info()
        assert (info.misses, info.hits) == (2, 2)
        assert calls == gathers == []
        fock.eve_exact_entropy(qpsk(0.5), ChannelParams(tau=0.5, nbar=0.01))
        assert calls == [(4, 19, 19), (4, 14, 14)]
        assert len(gathers) == 1

    @pytest.mark.parametrize("name", ["qpsk", "skewed-three", "two-ring-z4"])
    def test_face_leakage_is_the_full_blocks_top_face_leakage(self, name):
        # R = 1 for QPSK; R = 3 and 2 take the dot over a column slice of
        # the faces of both cutoffs
        order, reps = orbit_representatives(SYMMETRY_CASES[name][0])
        weights, values, layout, _ = oracle_sweep(reps, order, ChannelParams(tau=0.3, nbar=0.1), 18)
        leaks = fock._sweep_leaks(weights, values, layout)
        blocks_end = layout.ends[1]
        blocks = weights.take(layout.column[:blocks_end], axis=1) * values[:blocks_end]
        runs = [(0, layout.ends[0]), (layout.ends[0], blocks_end)]
        faces = np.split(layout.slot[blocks_end:], [layout.ends[2] - blocks_end])
        for (lo, hi), face, top, leak in zip(runs, faces, layout.top, leaks):
            # each face's position within its own cutoff's blocks
            slot = layout.slot[lo:hi]
            position = np.full(layout.slot.max() + 1, -1)
            position[slot[slot >= 0]] = np.flatnonzero(slot >= 0)
            place = position[face]
            assert np.all(place >= 0)
            want = np.square(blocks[:, lo:hi].take(place, axis=1)) @ top
            assert leak.shape == (len(reps.amplitudes),)
            assert np.array_equal(leak, want)

    def test_cutoff_floor(self):
        with pytest.raises(ValueError, match="cutoff"):
            fock.eve_exact_entropy(qpsk(1.0), ChannelParams(tau=0.5, nbar=0.01), cutoff=5)

    # 18.0 used to fail deep in the sector cache with a TypeError, True as
    # the cutoff 1 it compares equal to
    @pytest.mark.parametrize("cutoff", [18.0, True, False, np.float64(13), "18"])
    def test_cutoff_must_be_an_integer(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must be an integer"):
            fock.eve_exact_entropy(qpsk(0.5), ChannelParams(tau=0.5, nbar=0.01), cutoff=cutoff)

    def test_numpy_integer_cutoff_accepted(self):
        params = ChannelParams(tau=0.5, nbar=0.01)
        got = fock.eve_exact_entropy(qpsk(0.5), params, cutoff=np.int64(13))
        assert got == fock.eve_exact_entropy(qpsk(0.5), params, cutoff=13)


def assert_columns_in_one_sector(vecs):
    """Every column of a (d, d, d) stack of `_packed_sectors` eigenvectors
    is nonzero in one photon-number sector of its block only: the lower
    sector holds the positions up to the block's index."""
    d = vecs.shape[0]
    low = np.tri(d, dtype=bool)[:, :, None]
    nonzero = vecs != 0
    assert not np.any((nonzero & low).any(axis=1) & (nonzero & ~low).any(axis=1))
    assert np.all(nonzero.any(axis=1))


@pytest.mark.parametrize("cutoff", [7, 50])
@pytest.mark.parametrize("phi", [*ROTATIONS.values(), fock._BS_PHI], ids=[*ROTATIONS, "bs"])
def test_packed_eigenvectors_stay_in_one_sector(phi, cutoff):
    d = cutoff + 1
    n0, n1 = fock._packed_sectors(cutoff)
    vals, vecs, phase = fock._sector_blocks(phi, n0, n1)
    labels = n0 * d + n1
    assert vals.shape == (d, d) and vecs.shape == (d, d, d) and phase.shape == (d,)
    assert np.array_equal(np.sort(labels.reshape(-1)), np.arange(d * d))
    assert_columns_in_one_sector(vecs)


@pytest.mark.parametrize("cutoff", [1, 2, 5, 6, 50])
def test_truncated_sectors_hold_each_state_once(cutoff):
    d = cutoff + 1
    n0, n1 = fock._truncated_sectors(cutoff)
    assert n0.shape == n1.shape == ((cutoff + 1) // 2, cutoff | 1)
    truncated = np.add.reduce(np.divmod(np.arange(d * d), d)) > cutoff
    assert np.array_equal(np.sort((n0 * d + n1).reshape(-1)), np.flatnonzero(truncated))
    _, vecs, _ = fock._sector_blocks(ROTATIONS["random"], n0, n1)
    # each eigenvector column lies in the block's first sector or its second
    first = (n0 + n1 == (n0 + n1)[:, :1])[:, :, None]
    nonzero = vecs != 0
    assert not np.any((nonzero & first).any(axis=1) & (nonzero & ~first).any(axis=1))


@pytest.mark.parametrize("cutoff", [7, 8, 13, 18])
class TestSectorLayout:
    """`_bs_sectors` packs the 2c+1 photon-number sectors into d = c+1
    blocks of width d, at either parity of the cutoff c."""

    def test_each_state_in_one_block(self, cutoff):
        d = cutoff + 1
        *_, index, _, row, col = fock._bs_sectors(cutoff)
        kind, block, i, j = np.unravel_index(index, (2, d, d, d))
        # the even entries are read from the cos-product, the odd from the sin-product
        assert np.array_equal(kind, (i - j) % 2)
        diagonal = i == j
        assert np.array_equal(row[diagonal], col[diagonal])
        states = row[diagonal]
        assert np.array_equal(np.sort(states), np.arange(d * d))
        assert np.array_equal(np.bincount(block[diagonal]), np.full(d, d))
        n0, n1 = np.divmod(states, d)
        assert np.array_equal(block[diagonal], (n0 + n1) % d)
        assert np.array_equal(i[diagonal], n0)

    def test_labels_are_the_rotation_sectors(self, cutoff):
        d = cutoff + 1
        dim = d * d
        *_, row, col = fock._bs_sectors(cutoff)
        sectors = []
        for total in range(2 * cutoff + 1):
            n = np.arange(max(0, total - cutoff), min(total, cutoff) + 1)
            sectors.append(n * d + total - n)  # the states |n, total - n>
        want = np.concatenate([np.add.outer(s * dim, s).reshape(-1) for s in sectors])
        got = row * dim + col
        assert got.size == np.unique(got).size
        assert np.array_equal(np.sort(got), np.sort(want))

    def test_off_sector_entries_exactly_zero(self, cutoff):
        d = cutoff + 1
        vecs, vecs_t, vals, index, sign, _, _ = fock._bs_sectors(cutoff)
        angle = math.acos(math.sqrt(0.3)) * vals
        stack = np.stack([vecs * f(angle)[:, None, :] for f in (np.cos, np.sin)]) @ vecs_t
        off = np.ones(d**3, dtype=bool)
        off[index % d**3] = False
        for arr in stack:
            assert np.all(arr.reshape(-1)[off] == 0)
        assert np.array_equal(vecs_t, vecs.transpose(0, 2, 1))
        assert_columns_in_one_sector(vecs)
        # the in-sector entries of the other parity, the imaginary part of
        # the complex block, vanish to rounding
        assert np.max(np.abs(stack.take((index + d**3) % (2 * d**3)))) < 1e-13
        _, _, i, j = np.unravel_index(index, stack.shape)
        assert np.array_equal(sign, (-1.0) ** ((i - j) // 2))
        assert np.array_equal(fock._bs_slot_values(0.3, cutoff), stack.take(index) * sign)


def _ring(radius, order, offset=0.0):
    return radius * np.exp(1j * (2 * np.pi * np.arange(order) / order + offset))


# (constellation, rotation order K, number of orbit representatives)
SYMMETRY_CASES = {
    "qpsk": (qpsk(0.9), 4, 1),
    "bpsk": (Constellation(amplitudes=_ring(0.8, 2), probs=[0.5, 0.5]), 2, 1),
    "8psk-offset": (Constellation(amplitudes=_ring(0.7, 8, 0.3), probs=np.full(8, 1 / 8)), 8, 1),
    "two-ring-z4": (
        Constellation(amplitudes=np.concatenate([_ring(0.4, 4, 0.2), _ring(1.0, 4, 0.7)]),
                      probs=[0.15] * 4 + [0.1] * 4),
        4,
        2,
    ),
    "skewed-three": (
        Constellation(amplitudes=[0.8, -0.3 + 0.6j, -0.5j], probs=[0.5, 0.3, 0.2]), 1, 3
    ),
    "qpsk-unequal": (Constellation(amplitudes=qpsk(0.9).amplitudes, probs=[0.4, 0.3, 0.2, 0.1]),
                     1, 4),
    # an amplitude at the origin, where arg alpha is 0, is its own image
    "with-origin": (Constellation(amplitudes=[0.0, 0.5, -0.5, 0.5j], probs=np.full(4, 0.25)),
                    1, 4),
}


# The lowest index of each orbit, as the oracle's representatives have
# always been taken.
REPRESENTATIVES = {
    "qpsk": [0], "bpsk": [0], "8psk-offset": [0], "two-ring-z4": [0, 4], "skewed-three": [0, 1, 2],
    "qpsk-unequal": [0, 1, 2, 3], "with-origin": [0, 1, 2, 3],
}

# SYMMETRY_CASES and two listings whose orbits are not in list order:
# 16-QAM in a scrambled order (K = 4, R = 4) and QPSK listed clockwise.
DETECTOR_CASES = {
    **{name: case[:2] for name, case in SYMMETRY_CASES.items()},
    "qam16-scrambled": (qam16(0.3, np.random.default_rng(7).permutation(16)), 4),
    "qpsk-clockwise": (Constellation(amplitudes=np.conj(qpsk(0.8).amplitudes), probs=np.full(4, 0.25)), 4),
}


class TestRotationSymmetry:
    """The oracle's rotation-class blocks against the single Gram matrix of
    all amplitudes (`reference.full_gram_oracle_entropy`)."""

    @pytest.mark.parametrize("name", SYMMETRY_CASES)
    def test_orbits(self, name):
        constellation, order, count = SYMMETRY_CASES[name]
        got, perm = _rotation_orbits(constellation)
        assert (got, perm.shape) == (order, (order, count))
        assert perm[0].tolist() == REPRESENTATIVES[name]
        # each representative is a member weighted by K p
        _, reps = orbit_representatives(constellation)
        for amp, weight in zip(reps.amplitudes, reps.probs):
            (k,) = np.flatnonzero(constellation.amplitudes == amp)
            assert weight == order * constellation.probs[k]

    @pytest.mark.parametrize("name", DETECTOR_CASES)
    def test_perm_lists_turns_of_each_orbit(self, name):
        # perm is a permutation of range(n); amplitude perm[l, r] is within
        # SYMMETRY_RTOL of amplitude perm[0, r] turned l times, with its
        # probability
        constellation, order = DETECTOR_CASES[name]
        amps, probs = constellation.amplitudes, constellation.probs
        got, perm = _rotation_orbits(constellation)
        assert got == order and perm.shape[0] == order
        assert sorted(perm.ravel().tolist()) == list(range(amps.size))
        turns = np.exp(2j * np.pi * np.arange(order) / order)[:, None]
        scale = max(1.0, np.abs(amps).max())
        assert np.abs(amps[perm] - turns * amps[perm[0]]).max() <= SYMMETRY_RTOL * scale
        assert (probs[perm] == probs[perm[0]]).all()

    @pytest.mark.parametrize("tau,nbar", [(0.5, 0.1), (0.2, 0.01), (0.8, 0.0)])
    @pytest.mark.parametrize("name", SYMMETRY_CASES)
    def test_matches_full_gram(self, name, tau, nbar):
        constellation = SYMMETRY_CASES[name][0]
        params = ChannelParams(tau=tau, nbar=nbar)
        result = fock.eve_exact_entropy(constellation, params)
        want = [full_gram_oracle_entropy(constellation, params, c) for c in (18, 13)]
        got = [result.value, result.value_check]
        assert np.max(np.abs(np.subtract(got, want))) < 1e-13

    @pytest.mark.parametrize("amplitudes,order", [
        ([0.0, 0.5, -0.5, 0.5j], 1),  # the origin is its own image
        ([0.5, -0.5 + 1e-13j], 2),  # within SYMMETRY_RTOL
        ([0.5, -0.5 + 1e-11j], 1),  # outside it
        ([2e3, -2e3 + 1e-10j], 2),  # the tolerance scales with max |alpha|
        # both copies of 0.5 find the same image: no permutation, K = 1
        ([0.5, 0.5j, -0.5, -0.5j, 0.5, -0.5], 1),
    ])
    def test_order_tolerance_and_degenerate_points(self, amplitudes, order):
        probs = np.full(len(amplitudes), 1 / len(amplitudes))
        constellation = Constellation(amplitudes=amplitudes, probs=probs)
        assert _rotation_orbits(constellation)[0] == order

    def test_unequal_probabilities_break_the_symmetry(self):
        bpsk = Constellation(amplitudes=[0.5, -0.5], probs=[0.5 + 1e-15, 0.5 - 1e-15])
        assert _rotation_orbits(bpsk)[0] == 1

    @pytest.mark.parametrize("scale, order", [(1e-13, 1), (1e-12, 4)])
    def test_near_origin_pairing_costs_bm_gme_nothing(self, scale, order):
        # Four amplitudes with no symmetry, each within SYMMETRY_RTOL of the
        # turn of the one before it: near 1e-13 each is also within it of its
        # own turn, so none is free (K = 1), and near 1e-12 they are paired
        # as K = 4.  Every overlap is 1 to rounding, so the blocks give the
        # full Gram's entropy either way.
        amplitudes = scale * np.array([1.0, 0.1 + 1.2j, -0.9 + 0.2j, -0.1 - 1.1j])
        constellation = Constellation(amplitudes=amplitudes, probs=np.full(4, 0.25))
        assert _rotation_orbits(constellation)[0] == order
        for params in [ChannelParams(tau=tau, nbar=nbar) for tau in (0.0, 0.37) for nbar in (0.0, 0.01)]:
            full = bounds.gram_entropy(bounds.gram_matrix(displaced_thermal_ensemble(constellation, params)))
            assert abs(bounds.bm_gme_entropy(constellation, params) - full) <= 1e-15


class TestOrbitCache:
    """`_rotation_orbits` is cached by the constellation's values, not by
    the object: a scan builds an equal constellation for every cell."""

    def test_equal_constellations_share_one_result(self):
        _orbits_by_value.cache_clear()
        first, second = qpsk(0.7), qpsk(0.7)
        assert first is not second
        order, perm = _rotation_orbits(first)
        assert _rotation_orbits(second)[0] == order
        assert _rotation_orbits(second)[1] is perm
        assert _orbits_by_value.cache_info().misses == 1

    def test_changed_probability_misses(self):
        base = qpsk(0.7)
        assert _rotation_orbits(base)[0] == 4
        skewed = Constellation(amplitudes=base.amplitudes, probs=[0.4, 0.1, 0.4, 0.1])
        order, reps = orbit_representatives(skewed)
        assert order == 2 and np.array_equal(reps.probs, [0.8, 0.2])

    def test_changed_amplitude_misses(self):
        base = qpsk(0.7)
        _rotation_orbits(base)
        amps = base.amplitudes.copy()
        amps[0] *= 1 + 1e-14  # still a 4-fold symmetry, within SYMMETRY_RTOL
        order, reps = orbit_representatives(Constellation(amplitudes=amps, probs=base.probs))
        assert order == 4 and reps.amplitudes[0] == amps[0] != base.amplitudes[0]

    def test_constellation_changed_in_place_gets_its_own_orbits(self):
        params = ChannelParams(tau=0.5, nbar=0.01)
        constellation = qpsk(0.7)
        assert _rotation_orbits(constellation)[0] == 4
        constellation.probs[:] = [0.4, 0.1, 0.4, 0.1]
        assert _rotation_orbits(constellation)[0] == 2
        constellation.amplitudes[1] = 0.3
        order, perm = _rotation_orbits(constellation)
        assert order == 1 and perm.tolist() == [[0, 1, 2, 3]]
        fresh = Constellation(amplitudes=constellation.amplitudes.copy(),
                              probs=constellation.probs.copy())
        got = fock.eve_exact_entropy(constellation, params, cutoff=13)
        assert got == fock.eve_exact_entropy(fresh, params, cutoff=13)

    def test_representatives_read_only(self):
        for name in ("qpsk", "two-ring-z4", "8psk-offset", "skewed-three"):
            _, perm = _rotation_orbits(SYMMETRY_CASES[name][0])
            with pytest.raises(ValueError, match="read-only"):
                perm[0, 0] = 0

    def test_call_order_free(self):
        # K = 4, 2 and 1 constellations, each built afresh for every call
        names = ["qpsk", "bpsk", "skewed-three", "two-ring-z4", "qpsk", "skewed-three", "bpsk"]
        params = ChannelParams(tau=0.5, nbar=0.01)

        def run(name):
            constellation = SYMMETRY_CASES[name][0]
            constellation = Constellation(amplitudes=constellation.amplitudes.copy(),
                                          probs=constellation.probs.copy())
            order, perm = _rotation_orbits(constellation)
            oracle = fock.eve_exact_entropy(constellation, params)
            return order, perm.tolist(), oracle

        interleaved = [run(name) for name in names]
        for name, first in zip(names, interleaved):
            _orbits_by_value.cache_clear()
            assert run(name) == first
            assert first[0] == SYMMETRY_CASES[name][1]


class TestOracleInputs:
    """The oracle's real input builders against the complex ones."""

    # 7.4536... and 19.405... square differently by libm's pow and by a
    # product; 1e200 squares to inf.
    MODULI = [0.0, 0.02, 0.5, 0.9, 2.2, 6.0, 27.0, 40.0, 7.453638205850326, 19.40541028354926, 1e200,
              *np.random.default_rng(5).uniform(0, 6, 40).tolist()]

    @pytest.mark.parametrize("cutoff", [2, 7, 13, 18])
    def test_modulus_ket_is_the_coherent_real_part(self, cutoff):
        for modulus in self.MODULI + [abs(amp) for amp in qpsk(0.9).amplitudes]:
            ket, deficit = fock._modulus_ket(modulus, cutoff)
            want, want_deficit = coherent_ket(modulus, cutoff)
            assert ket.dtype == np.float64 and ket.shape == (cutoff + 1,)
            assert np.array_equal(ket, want.real) and deficit == want_deficit

    # 40 underflows, and 1e155 squares to inf; nbar = 1e17 loses all of
    # the trace
    @pytest.mark.parametrize("cutoff", [7, 13, 18, 30])
    def test_sweep_inputs_are_the_builders_at_both_cutoffs(self, cutoff):
        moduli = [0.0, 0.5, 2.0, 40.0, 1e155]
        for nbar in (0.0, 1e-12, 2.0, 1e17):
            all_kets, all_lam, deficits = fock._sweep_inputs(moduli, nbar, cutoff)
            assert all_kets.shape == (len(moduli), 2 * cutoff + 2 - fock.SWEEP_STEP)
            assert all_lam.shape == (all_kets.shape[1] + 1,) and all_lam[-1] == 0
            first = 0
            for deficit, c in zip(deficits, (cutoff, cutoff - fock.SWEEP_STEP)):
                kets, lam = all_kets[:, first : first + c + 1], all_lam[first : first + c + 1]
                first += c + 1
                want = [fock._modulus_ket(m, c) for m in moduli]
                want_lam, want_deficit = fock._tmsv_schmidt(nbar, c)
                assert kets.shape == (len(moduli), c + 1) and kets.dtype == np.float64
                assert np.array_equal(kets, np.array([ket for ket, _ in want]))
                assert np.array_equal(lam, want_lam)
                assert deficit == max(want_deficit, *(d for _, d in want))
            if nbar == 1e17:
                assert deficits == [1.0, 1.0]

    # the same moduli and nbars, R = 4 and each modulus alone
    @pytest.mark.parametrize("cutoff", [7, 13, 18, 30])
    def test_cached_weights_are_the_inputs_outer_product(self, cutoff):
        fock._sweep_weights.cache_clear()
        moduli = (0.5, 2.0, 40.0, 1e155)
        for key in (moduli, *((m,) for m in moduli)):
            for nbar in (0.0, 1e-12, 2.0, 1e17):
                kets, lam, deficits = fock._sweep_inputs(key, nbar, cutoff)
                weights, got = fock._sweep_weights(key, nbar, cutoff)
                assert np.array_equal(weights, np.multiply.outer(kets, lam).reshape(len(key), -1))
                assert got == tuple(deficits)
                assert fock._sweep_weights(key, nbar, cutoff)[0] is weights
                with pytest.raises(ValueError, match="read-only"):
                    weights[0, 0] = 0

    def test_numpy_nbar_reaches_the_float_key(self):
        # a 0-d array nbar is unhashable; each form shares the float's key
        fock._sweep_weights.cache_clear()
        want = fock.eve_exact_entropy(qpsk(0.5), ChannelParams(tau=0.5, nbar=0.01))
        for nbar in (np.float64(0.01), np.array(0.01)):
            assert fock.eve_exact_entropy(qpsk(0.5), ChannelParams(tau=0.5, nbar=nbar)) == want
        info = fock._sweep_weights.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_modulus_ket_underflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ket, deficit = fock._modulus_ket(40.0, 18)
        assert not ket.any() and deficit == 1.0

    @pytest.mark.parametrize("cutoff", [2, 7, 13, 18])
    @pytest.mark.parametrize("nbar", [0.0, 0.01, 2.0, 1e17, *np.logspace(-6, 6, 13).tolist()])
    def test_schmidt_coefficients_are_the_tmsv_diagonal(self, cutoff, nbar):
        coeffs, deficit = fock._tmsv_schmidt(nbar, cutoff)
        ket, want_deficit = tmsv_ket(nbar, cutoff)
        assert coeffs.dtype == np.float64 and coeffs.shape == (cutoff + 1,)
        assert np.array_equal(ket.reshape(cutoff + 1, cutoff + 1), np.diag(coeffs))
        assert deficit == want_deficit
        if nbar in (0.0, 1e17):  # a pure vacuum, and all of the trace lost
            assert deficit == want_deficit == 1.0 - (nbar == 0)


class TestStackedClassGrams:
    """`_eve_entropy`'s stacked rotation-class Gram blocks against one
    `fock_entropy` per block (`reference.class_gram_oracle_entropy`)."""

    @pytest.mark.parametrize("tau,nbar", [(0.5, 0.1), (0.2, 0.01), (0.8, 0.0), (1.0, 0.5)])
    @pytest.mark.parametrize("name,order", [
        ("skewed-three", 1), ("bpsk", 2), ("qpsk", 4), ("two-ring-z4", 4), ("8psk-offset", 8),
    ])
    def test_matches_per_class_eigensolves(self, name, order, tau, nbar):
        constellation = SYMMETRY_CASES[name][0]
        got_order, reps = orbit_representatives(constellation)
        assert got_order == order
        params = ChannelParams(tau=tau, nbar=nbar)
        for cutoff in (18, 13):
            blocks, _ = oracle_factor(reps, order, params, cutoff)
            got = fock._eve_entropy(order, blocks, "bits")
            want = class_gram_oracle_entropy(reps, order, params, cutoff)
            assert abs(got - want) < 1e-13

    @pytest.mark.parametrize("order,widths", [
        (1, [361]), (2, [181, 180]), (4, [91, 90, 90, 90]), (8, [47, 46, 45, 44, 44, 44, 45, 46]),
    ])
    def test_class_columns_padded(self, order, widths):
        # the cutoff-18 run of the sweep layout from 18, whose weights are
        # the outer product of 33 levels (19 + 14) with 34 (a closing zero)
        d, width, levels = 19, max(widths), 33
        layout = fock._sweep_layout(order, 18)
        shift = layout.shift[0]
        assert shift.shape == (order, width)
        slot, column = layout.slot[: layout.ends[0]], layout.column[: layout.ends[0]]
        assert slot.shape == column.shape == (order * d * width,)
        *_, row, col = fock._bs_sectors(18)
        q, b_dest, place = np.unravel_index(np.arange(slot.size), (order, d, width))
        # every beam-splitter entry lands on one position, in its row b and
        # in the class of its column (c', e); the other positions read the
        # appended zero entry (-1) and the closing zero weight
        hit = slot >= 0
        assert np.array_equal(np.sort(slot[hit]), np.arange(row.size))
        b, c = np.divmod(row[slot[hit]], d)
        a, e = np.divmod(col[slot[hit]], d)
        assert np.array_equal(b_dest[hit], b)
        assert np.all((c - e) % order == q[hit])
        assert np.array_equal(column[hit], a * (levels + 1) + e)
        assert np.all(slot[~hit] == -1) and np.all(column[~hit] == levels)
        # the leakage positions: any of b, c' and e at the top level, and
        # how many
        count = np.zeros(slot.size)
        count[hit] = (b == 18) * 1.0 + (c == 18) + (e == 18)
        position = np.empty(row.size, dtype=int)
        position[slot[hit]] = np.flatnonzero(hit)
        faces = position[layout.slot[layout.ends[1] : layout.ends[2]]]
        assert np.array_equal(np.sort(faces), np.flatnonzero(count))
        assert np.array_equal(layout.top[0], count[faces])
        assert np.array_equal(layout.column[layout.ends[1] : layout.ends[2]], column[faces])
        # each column (c', e) has exactly one place in its class, the class
        # lists its columns in increasing order from place 0, and the rest
        # of the class block is padding
        columns, first = np.unique(c * d + e, return_index=True)
        assert np.array_equal(columns, np.arange(d * d))
        places = (q[hit] * width + place[hit])[first]
        assert np.unique(places).size == d * d
        assert np.bincount(q[hit][first], minlength=order).tolist() == widths
        for k in range(order):
            in_class = q[hit][first] == k
            assert np.array_equal(np.sort(place[hit][first][in_class]), np.arange(widths[k]))
            assert np.all(np.diff(columns[in_class]) > 0)
            assert np.all(np.diff(place[hit][first][in_class]) > 0)
        # shift holds c' - e of each class column, 0 in the padding
        assert np.array_equal(shift.reshape(-1)[places], (c - e)[first])
        padding = np.ones(order * width, dtype=bool)
        padding[places] = False
        assert np.all(shift.reshape(-1)[padding] == 0)
        # the padding columns take no entry in any row
        assert not hit.reshape(order, d, width).transpose(0, 2, 1).reshape(-1, d)[padding].any()

    @pytest.mark.parametrize("order", [1, 4])
    @pytest.mark.parametrize("tau", [0.0, 0.3, 1.0])
    def test_cached_values_are_the_entries_in_the_layout(self, order, tau):
        # one key holds both cutoffs of the sweep from 13, and their faces
        values = fock._eve_bs_values(tau, 13, order)
        slot = fock._sweep_layout(order, 13).slot
        entries = np.concatenate([fock._bs_slot_values(tau, 13), fock._bs_slot_values(tau, 8)])
        assert values.shape == slot.shape
        hit = slot >= 0
        assert np.array_equal(values[hit], entries[slot[hit]])
        assert np.all(values[~hit] == 0)


def qpsk_purification_moments(alpha, cutoff=40):
    """Moments of the Schmidt purification of the four-state coherent
    average state, built in a truncated Fock space; the reference for the
    closed-form `bounds.eb_z4`.

    Returns the cross moments {"qq", "qp", "pq", "pp"} between a mode and
    its purifying partner (partner vectors conjugated in the Fock basis),
    and <q^2> of the ensemble and of the partner.
    """
    d = cutoff + 1
    rho = np.zeros((d, d), dtype=complex)
    for amp in qpsk(alpha).amplitudes:
        ket, deficit = coherent_ket(amp, cutoff)
        assert deficit < fock.DEFICIT_LIMIT
        rho += 0.25 * np.outer(ket, ket.conj())
    lam, vecs = np.linalg.eigh(rho)
    keep = lam > 1e-12
    lam, vecs = lam[keep], vecs[:, keep]
    a = np.diag(np.sqrt(np.arange(1, d)), k=1)
    quads = {"q": a + a.T, "p": -1j * (a - a.T)}
    c = np.sqrt(lam)
    cross = {
        x + y: complex(np.einsum("j,k,jk,jk->", c, c, vecs.conj().T @ quads[x] @ vecs,
                                 vecs.T @ quads[y] @ vecs.conj()))
        for x in "qp"
        for y in "qp"
    }
    q2 = quads["q"] @ quads["q"]
    x_ensemble = float(np.trace(rho @ q2).real)
    x_partner = float(np.einsum("j,jj->", lam, (vecs.T @ q2 @ vecs.conj()).real))
    return cross, x_ensemble, x_partner


REFERENCE_ALPHAS = [0.05, 0.3, 1.0, 1.7, 2.5, 3.0]


class TestPurificationCrossMoment:
    @pytest.mark.parametrize("alpha", REFERENCE_ALPHAS)
    def test_fock_reference_structure(self, alpha):
        # the purification has the covariance [[X I, Z4 Z], [Z4 Z, X I]]
        cross, x_ensemble, x_partner = qpsk_purification_moments(alpha)
        assert all(abs(v.imag) < 1e-8 for v in cross.values())
        assert abs(cross["qp"].real) < 1e-8 and abs(cross["pq"].real) < 1e-8
        assert abs(cross["pp"].real + cross["qq"].real) < 1e-8 * max(1.0, abs(cross["qq"].real))
        assert cross["qq"].real > 0
        assert x_ensemble == pytest.approx(1 + 2 * alpha**2, abs=1e-6)
        assert x_partner == pytest.approx(1 + 2 * alpha**2, abs=1e-6)

    @pytest.mark.parametrize("alpha", REFERENCE_ALPHAS)
    def test_matches_fock_reference(self, alpha):
        cross, _, _ = qpsk_purification_moments(alpha)
        assert bounds.eb_z4(alpha) == pytest.approx(cross["qq"].real, rel=1e-12, abs=0)

    def test_small_amplitude_limit(self):
        # Z4 -> 2 alpha as alpha -> 0: the dominant Gram term is
        # 2 a^2 lam_0^1.5 / lam_1^0.5 with lam_0 -> 1 and lam_1 -> a^2
        assert bounds.eb_z4(1e-3) == pytest.approx(2e-3, rel=1e-3)
        assert bounds.eb_z4(0.05) == pytest.approx(0.1, rel=1e-2)
        # also where alpha^2 underflows to 0 (below about 1.5e-162), down
        # to the smallest subnormal
        assert bounds.eb_z4(1e-200) == pytest.approx(2e-200, rel=1e-12, abs=0)
        assert bounds.eb_z4(5e-324) == 1e-323

    # Z4 from the mod-4 Poisson sums in 60-digit mpmath arithmetic, rounded
    # to 20 digits; from alpha = 1e-3 up, the four-point Fourier form at 200
    # digits agrees to 1e-40.  The series route is within 4e-16 of these.
    HIGH_PRECISION_Z4 = [
        (1e-300, 2.0000000000000000501e-300),
        (1e-200, 1.9999999999999999642e-200),
        (1e-160, 1.9999999999999999773e-160),
        (1e-08, 2.0000000000000001247e-8),
        (0.001, 0.0020000008284270284109),
        (0.05, 0.100103522765427848),
        (0.3, 0.62200238119420798767),
        (1.0, 2.5197050973150722863),
        (1.7, 5.8068734871782987665),
        (2.5, 12.500069874911109916),
        (3.2, 20.480000039180524663),
        (3.9999999999999996, 32.000000000000600775),
    ]

    @pytest.mark.parametrize("alpha, expected", HIGH_PRECISION_Z4)
    def test_matches_high_precision_table(self, alpha, expected):
        assert bounds.eb_z4(alpha) == pytest.approx(expected, rel=4e-15, abs=0)

    def test_reference_value_from_closed_form(self):
        # independent route: mod-4 Poisson sums give the average-state
        # eigenvalues, and the cross moment is 2 a^2 sum_j l_j^1.5 l_{j+1}^-0.5
        a2 = 1.0
        f = np.array(
            [
                (math.cosh(a2) + math.cos(a2)) / 2,
                (math.sinh(a2) + math.sin(a2)) / 2,
                (math.cosh(a2) - math.cos(a2)) / 2,
                (math.sinh(a2) - math.sin(a2)) / 2,
            ]
        )
        lam = math.exp(-a2) * f
        expected = 2 * a2 * sum(lam[j] ** 1.5 * lam[(j + 1) % 4] ** -0.5 for j in range(4))
        assert bounds.eb_z4(1.0) == pytest.approx(expected, abs=1e-9)
        assert bounds.eb_z4(1.0) == pytest.approx(2.5197051, abs=1e-6)

    def test_physicality_bound(self):
        # from where cos/sin differences cancel to where cosh overflows
        for alpha in np.geomspace(1e-3, 30, 200):
            x = 1 + 2 * alpha**2
            z4 = bounds.eb_z4(alpha)
            assert math.isfinite(z4)
            assert x * x - z4 * z4 >= 1

    @pytest.mark.parametrize("alpha", [3.5, 3.9999999, 4.0, 4.5])
    def test_both_sides_of_fourier_crossover(self, alpha):
        # near the crossover both routes are accurate: the log-space sums
        # below it and the Fourier form at and above it agree to 1e-14
        a2 = alpha**2
        lam = [0.25 * (1 + (-1) ** k * math.exp(-2 * a2)
                       + 2 * (1j ** -k * np.exp(a2 * (1j - 1))).real) for k in range(4)]
        expected = 2 * a2 * sum(lam[k] ** 1.5 * lam[(k + 1) % 4] ** -0.5 for k in range(4))
        assert bounds.eb_z4(alpha) == pytest.approx(expected, rel=1e-14, abs=0)
        below, above = bounds.eb_z4(np.nextafter(4.0, 0.0)), bounds.eb_z4(4.0)
        assert above == pytest.approx(below, rel=1e-14, abs=0)

    def test_large_amplitude_stays_physical(self):
        # the log-space sums drifted to x - Z4 = 1.0016 at alpha = 1000 and
        # below 0 at 5000; the Fourier form keeps it at 1 to rounding (from
        # alpha = 5 on, its exact deviation from 1 is below 1e-20)
        for alpha in np.geomspace(5.0, 1e6, 60):
            x = 1 + 2 * alpha**2
            z4 = bounds.eb_z4(alpha)
            assert abs(x - z4 - 1) <= 8 * np.finfo(float).eps * x
            assert x * x - z4 * z4 >= 1

    def test_rejects_bad_inputs(self):
        for alpha in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                bounds.eb_z4(alpha)

    def test_named_error_beyond_double_precision(self):
        # Z4 ~ 2 alpha^2: finite while 2 alpha^2 is, a named error from
        # there on, not inf or an OverflowError
        assert math.isfinite(bounds.eb_z4(9.4807e153))
        for alpha in (9.4808e153, 1.3e154, 1.4e154, 1e200):
            with pytest.raises(ValueError, match="beyond double precision"):
                bounds.eb_z4(alpha)


class TestUnderflowingKets:
    """Kets whose truncated coefficients all underflow come back finite with
    deficit 1, so the oracle's leakage gate rejects them without a numpy
    float warning."""

    @pytest.mark.parametrize("alpha", [30.0, 38.0, 40.0, 1e3, 40j])
    def test_coherent_ket_finite(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ket, deficit = coherent_ket(alpha, 18)
        assert np.all(np.isfinite(ket))
        assert deficit == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nbar", [1e17, 1e18, 1e300])
    def test_tmsv_ket_finite(self, nbar):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ket, deficit = tmsv_ket(nbar, 18)
        assert np.all(np.isfinite(ket))
        assert deficit == 1.0
        with pytest.raises(fock.FockConvergenceError):
            fock.fock_thermal(nbar, 18)

    def test_oracle_row_at_large_amplitude_warns_nothing(self):
        cfg = ScanConfig(tau_min=0.5, tau_max=0.5, tau_steps=1, nbars=[0.01], alpha=40.0,
                         methods=["oracle"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (row,) = run_scan(cfg)
        assert row == "0.5,0.01,40,oracle,-,,bits,not-converged"

    @pytest.mark.parametrize("modulus", [1.35e154, 1e200, 1.7e308])
    def test_modulus_ket_past_square_overflow(self, modulus):
        # modulus**2 raised OverflowError past 1.34e154; the product
        # squares to inf and the ket to zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ket, deficit = fock._modulus_ket(modulus, 18)
        assert not ket.any() and deficit == 1.0

    @pytest.mark.parametrize("alpha", [1.3e154, 1e200, 1.7e308])
    def test_oracle_at_huge_amplitude_is_not_converged(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fock.FockConvergenceError, match="leakage"):
                fock.eve_exact_entropy(qpsk(alpha), ChannelParams(tau=0.5, nbar=0.01))

    def test_oracle_at_huge_nbar_is_not_converged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fock.FockConvergenceError, match="leakage"):
                fock.eve_exact_entropy(qpsk(1.0), ChannelParams(tau=0.5, nbar=1e18))
