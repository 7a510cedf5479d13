import numpy as np
import pytest

from evebounds import blochmessiah, linalg
from evebounds.blochmessiah import _hermitian_phase
from evebounds.bounds import gram_entropy
from evebounds.linalg import (
    MatchedSVD,
    _unitary_eig,
    matched_svd,
    principal_sqrt,
    unitarity_defect,
)
from evebounds.states import GaussianState
from evebounds.unitaries import BogoliubovPair, Rotation, Squeezer, _squeezer_arrays, expm_i_hermitian
from reference import bogoliubov_of, compose, random_pair, unitary_eig_schur

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# Balancing matrix for G = X: X^(1/2) on the principal branch.
SQRT_X = (1 / np.sqrt(2)) * np.array(
    [
        [np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)],
        [np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)],
    ]
)


def random_unitary(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.linalg.qr(m)[0]


class TestMaxAbs:
    def test_largest_magnitude_as_a_float(self):
        value = linalg.max_abs(np.array([[1.0, -3.0], [2.0, 0.5]]))
        assert value == 3.0 and type(value) is float
        assert linalg.max_abs(np.array([3.0 - 4.0j])) == 5.0

    def test_empty_is_zero(self):
        assert linalg.max_abs(np.zeros((0, 4))) == 0.0

    @pytest.mark.parametrize("values", [[np.nan], [1.0, np.nan, -2.0], [np.inf, np.nan]])
    def test_nan_propagates(self, values):
        assert np.isnan(linalg.max_abs(np.array(values)))


class TestPrincipalSqrt:
    def test_identity(self):
        assert np.allclose(principal_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_pauli_x(self):
        assert np.max(np.abs(principal_sqrt(X) - SQRT_X)) < 1e-10

    def test_phase_pair(self):
        theta = 0.3
        m = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
        r = principal_sqrt(m)
        assert np.allclose(r, np.diag([np.exp(0.5j * theta), np.exp(-0.5j * theta)]), atol=1e-12)
        assert np.max(np.abs(r @ r - m)) < 1e-12

    def test_square_property_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            q = random_unitary(rng, 4)
            g = q @ q.T
            r = principal_sqrt(g)
            assert np.max(np.abs(r @ r - g)) < 1e-9

    def test_rejects_nonsymmetric(self):
        rng = np.random.default_rng(1)
        u = random_unitary(rng, 3)
        if np.max(np.abs(u - u.T)) < 1e-6:  # pragma: no cover - astronomically unlikely
            pytest.skip("random unitary happened to be symmetric")
        with pytest.raises(ValueError, match="not symmetric"):
            principal_sqrt(u)

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            principal_sqrt(np.diag([2.0, 0.5]).astype(complex))

    def test_rejects_nonfinite(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            principal_sqrt(bad)


def _symmetric_with_phases(phases, seed):
    """O diag(exp(i phases)) O^T for a random real orthogonal O: a
    symmetric unitary with the given eigenphases."""
    n = len(phases)
    o = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0]
    return (o * np.exp(1j * np.asarray(phases))) @ o.T


# Symmetric unitaries: inputs of both principal_sqrt and _hermitian_phase.
SYMMETRIC_CASES = {
    "identity": np.eye(3, dtype=complex),
    "minus-identity": -np.eye(3, dtype=complex),
    "repeated": _symmetric_with_phases([0.7, 0.7, -1.9], 21),
    "repeated-4": _symmetric_with_phases([2.1, -0.4, 2.1, -0.4], 22),
    "split-1e-9": _symmetric_with_phases([0.7, 0.7 + 1e-9, -1.9], 23),
    "pauli-x": X,
    "minus-one": _symmetric_with_phases([np.pi, 0.4], 24),
    "minus-one-diagonal": np.diag([-1.0, 1.0]).astype(complex),
    **{f"random-{n}": (lambda q: q @ q.T)(random_unitary(np.random.default_rng(30 + n), n))
       for n in range(1, 5)},
}
# Unitaries that need not be symmetric: inputs of _hermitian_phase only.
UNITARY_CASES = {
    "rotation": np.array([[np.cos(0.8), -np.sin(0.8)], [np.sin(0.8), np.cos(0.8)]], dtype=complex),
    **{f"general-{n}": random_unitary(np.random.default_rng(40 + n), n) for n in range(1, 5)},
}


def _with_scipy_schur(monkeypatch, fn, m):
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_unitary_eig", unitary_eig_schur)
        patch.setattr(blochmessiah, "_unitary_eig", unitary_eig_schur)
        return fn(m)


class TestSchurForm:
    """The numpy Schur form (eig, then QR of the eigenvectors) against
    scipy's complex Schur form, through its two callers."""

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_CASES))
    def test_principal_sqrt_matches_scipy_schur(self, name, monkeypatch):
        m = SYMMETRIC_CASES[name]
        reference = _with_scipy_schur(monkeypatch, principal_sqrt, m)
        assert np.max(np.abs(principal_sqrt(m) - reference)) < 1e-13

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_CASES) + sorted(UNITARY_CASES))
    def test_hermitian_phase_matches_scipy_schur(self, name, monkeypatch):
        m = {**SYMMETRIC_CASES, **UNITARY_CASES}[name]
        reference = _with_scipy_schur(monkeypatch, _hermitian_phase, m)
        assert np.max(np.abs(_hermitian_phase(m) - reference)) < 1e-13

    def test_minus_one_maps_to_plus_i(self):
        r = principal_sqrt(SYMMETRIC_CASES["minus-one-diagonal"])
        assert np.max(np.abs(r - np.diag([1j, 1.0]))) < 1e-15

    def test_non_normal_is_rejected(self):
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not normal enough"):
            _unitary_eig(jordan)
        with pytest.raises(ValueError, match="not normal enough"):
            _hermitian_phase(jordan)


class TestTakagi:
    def test_identity(self):
        assert np.allclose(principal_sqrt(np.eye(2)), np.eye(2), atol=1e-12)

    def test_pauli_x_balancing_matrix(self):
        assert np.max(np.abs(principal_sqrt(X) - SQRT_X)) < 1e-10

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            q = random_unitary(rng, n)
            g = q @ q.T
            d = principal_sqrt(g)
            assert np.max(np.abs(d @ d.T - g)) < 1e-9
            assert unitarity_defect(d) < 1e-10


def eve_pair(w1, w2):
    return w1 * np.eye(2, dtype=complex), w2 * X


class TestMatchedSVD:
    def test_worked_case(self):
        w1, w2 = 1.0024844758788585, 0.07053456158585966
        e, f = eve_pair(w1, w2)
        m = matched_svd(e, f)
        assert np.allclose(m.u, np.eye(2), atol=1e-12)
        assert np.allclose(m.lambda_e, [w1, w1], atol=1e-12)
        assert np.allclose(m.lambda_f, [w2, w2], atol=1e-12)
        assert np.allclose(m.w_e.conj().T, np.eye(2), atol=1e-12)
        assert np.allclose(m.w_f.conj().T, X, atol=1e-12)

    def test_tiny_squeezing_keeps_precision(self):
        # lambda_f^2 ~ 8e-12 sits near round-off of lambda_e^2 - 1, which
        # would keep only about five digits of lambda_f
        w2 = 2.845009834961859e-06
        e, f = eve_pair(np.sqrt(1 + w2**2), w2)
        m = matched_svd(e, f)
        assert np.allclose(m.lambda_f, [w2, w2], rtol=1e-12, atol=0)
        assert np.allclose(m.w_f.conj().T, X, atol=1e-12)

    def test_identity_pair(self):
        m = matched_svd(np.eye(3, dtype=complex), np.zeros((3, 3), dtype=complex))
        assert np.allclose(m.lambda_e, 1.0)
        assert np.allclose(m.lambda_f, 0.0)
        assert np.allclose(m.u, np.eye(3), atol=1e-12)
        assert np.allclose(m.w_e, np.eye(3), atol=1e-12)

    def test_reconstruction_random(self):
        # random squeezer composed with random rotations
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            herm1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            herm1 = (herm1 + herm1.conj().T) / 2
            herm2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            herm2 = (herm2 + herm2.conj().T) / 2
            sym = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            sym = 0.3 * (sym + sym.T)
            pair = compose(
                compose(bogoliubov_of(Rotation(herm1)), bogoliubov_of(Squeezer(sym))),
                bogoliubov_of(Rotation(herm2)),
            )
            m = matched_svd(pair.e, pair.f)
            e_rec = m.u @ np.diag(m.lambda_e) @ m.w_e.conj().T
            f_rec = m.u @ np.diag(m.lambda_f) @ m.w_f.conj().T
            assert np.max(np.abs(e_rec - pair.e)) < 1e-9
            assert np.max(np.abs(f_rec - pair.f)) < 1e-9
            assert np.all(m.lambda_e >= 1 - 1e-12)

    @pytest.mark.parametrize("lambda_e, lambda_f, message", [
        ([np.nan], [0.0], "lambda_e has entries below 1"),
        ([1.0], [np.nan], r"lambda_e\^2 = 1 \+ lambda_f\^2: nan"),
    ])
    def test_nan_singular_values_rejected(self, lambda_e, lambda_f, message):
        with pytest.raises(ValueError, match=message):
            MatchedSVD(u=np.eye(1), lambda_e=np.array(lambda_e), lambda_f=np.array(lambda_f),
                       w_e=np.eye(1), w_f=np.eye(1))

    def test_constraint_violation_named(self):
        with pytest.raises(ValueError, match=r"E F\^T = F E\^T"):
            matched_svd(np.eye(2, dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError, match=r"E E\^dag = F F\^dag \+ I"):
            matched_svd(2 * np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))


class TestSharedValidators:
    """The `require_*` validators are the one copy of each matrix check; the
    constructors that need a check report through them."""

    def test_hermitian(self):
        linalg.require_hermitian(np.array([[1.0, 2j], [-2j, 3.0]]))
        with pytest.raises(ValueError, match=r"M is not Hermitian: max \|M - M\^dag\| = 2\.000e-10"):
            linalg.require_hermitian(np.array([[0.0, 2e-10], [0.0, 0.0]]), "M")
        linalg.require_hermitian(np.array([[0.0, 1e-10], [0.0, 0.0]]))  # at the tolerance

    @pytest.mark.parametrize("check, kind", [
        (linalg.require_symmetric, "symmetric"),
        (linalg.require_hermitian, "Hermitian"),
        (linalg.require_unitary, "unitary"),
    ])
    def test_nan_fails(self, check, kind):
        # a residual of NaN is not within any tolerance
        with pytest.raises(ValueError, match=rf"M is not {kind}: .* = nan > 1e-10"):
            check(np.array([[np.nan]]), "M")

    def test_symmetric(self):
        linalg.require_symmetric(np.array([[1.0, 2j], [2j, 3.0]]))
        with pytest.raises(ValueError, match=r"M is not symmetric: max \|M - M\^T\| = 2\.000e-10"):
            linalg.require_symmetric(np.array([[0.0, 2e-10], [0.0, 0.0]]), "M")

    def test_distribution(self):
        linalg.require_distribution(np.full(4, 0.25))
        linalg.require_distribution([0.5, 0.5 + 9e-13])  # within the tolerance
        with pytest.raises(ValueError, match=r"probabilities sum to 1\.1, expected 1 within 1e-12"):
            linalg.require_distribution([0.5, 0.6])
        with pytest.raises(ValueError, match="nonnegative"):
            linalg.require_distribution([1.5, -0.5])
        for bad in ([np.nan, 1.0], [np.inf, 0.0], [np.nan, np.nan]):
            with pytest.raises(ValueError, match="probabilities contains NaN or Inf"):
                linalg.require_distribution(bad)

    def test_bogoliubov_tolerance(self):
        linalg.require_bogoliubov(np.eye(2), np.zeros((2, 2)))
        near = np.diag([1.0 + 4e-10, 1.0])  # E E^dag - I off by 8e-10
        linalg.require_bogoliubov(near, np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"E E\^dag = F F\^dag \+ I"):
            linalg.require_bogoliubov(np.diag([1.0 + 6e-10, 1.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="residual nan"):
            linalg.require_bogoliubov(np.diag([np.nan, 1.0]), np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "e, f",
        [
            (np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])),
            (2 * np.eye(2), np.zeros((2, 2))),
        ],
    )
    def test_pair_and_matched_svd_report_alike(self, e, f):
        with pytest.raises(ValueError) as from_pair:
            BogoliubovPair(e=e, f=f)
        with pytest.raises(ValueError) as from_svd:
            matched_svd(e.astype(complex), f.astype(complex))
        assert str(from_pair.value) == str(from_svd.value)

    def test_constructors_use_them(self):
        skew = np.array([[0.0, 1e-3], [0.0, 0.0]])
        for build, word in [
            (lambda: Rotation(skew), "rotation generator is not Hermitian"),
            (lambda: Squeezer(skew), "squeezing matrix is not symmetric"),
            (lambda: gram_entropy(skew + np.diag([0.5, 0.5])), "Gram matrix is not Hermitian"),
            (lambda: GaussianState(np.zeros(2), np.eye(2) + skew), "covariance matrix is not symmetric"),
        ]:
            with pytest.raises(ValueError, match=word):
                build()

    @pytest.mark.parametrize("build, name", [
        (Rotation, "rotation generator"),
        (Squeezer, "squeezing matrix"),
        (principal_sqrt, "principal_sqrt input"),
    ])
    def test_non_square_is_named(self, build, name):
        # numpy's "operands could not be broadcast together" before
        with pytest.raises(ValueError, match=rf"{name} must be square, got shape \(2, 3\)"):
            build(np.zeros((2, 3)))


def stacked_pairs(nmodes, seed):
    """Four random pairs and the identity pair, last, of `nmodes` modes, as
    a list and as one stacked `BogoliubovPair`.  The identity pair has no
    squeezing, so `matched_svd` fills its w_f off the support."""
    rng = np.random.default_rng(seed)
    pairs = [random_pair(rng, nmodes) for _ in range(4)]
    pairs.append(BogoliubovPair(e=np.eye(nmodes), f=np.zeros((nmodes, nmodes))))
    return pairs, BogoliubovPair(e=np.stack([p.e for p in pairs]), f=np.stack([p.f for p in pairs]))


class TestStacks:
    """A (k, N, N) stack runs the code of one matrix on each member, so
    every member of a stacked result equals the single call bit for bit."""

    @pytest.mark.parametrize("nmodes", [1, 2, 3])
    def test_matched_svd(self, nmodes):
        pairs, stack = stacked_pairs(nmodes, 60 + nmodes)
        stacked = matched_svd(stack.e, stack.f)
        assert not stacked.lambda_f[-1].any()
        for i, pair in enumerate(pairs):
            single = matched_svd(pair.e, pair.f)
            for field in ("u", "lambda_e", "lambda_f", "w_e", "w_f"):
                np.testing.assert_array_equal(getattr(stacked, field)[i], getattr(single, field))

    @pytest.mark.parametrize("nmodes", [1, 2, 3])
    def test_principal_sqrt(self, nmodes):
        rng = np.random.default_rng(70 + nmodes)
        qs = [random_unitary(rng, nmodes) for _ in range(4)] + [np.eye(nmodes)]
        stack = np.stack([q @ q.T for q in qs])
        stacked = principal_sqrt(stack)
        for member, root in zip(stack, stacked):
            np.testing.assert_array_equal(root, principal_sqrt(member))

    @pytest.mark.parametrize("nmodes", [1, 2, 3])
    def test_exponentials(self, nmodes):
        rng = np.random.default_rng(80 + nmodes)
        m = rng.normal(size=(5, nmodes, nmodes)) + 1j * rng.normal(size=(5, nmodes, nmodes))
        m[-1] = 0
        herm, sym = m + m.conj().swapaxes(-1, -2), m + m.swapaxes(-1, -2)
        rotations = expm_i_hermitian(herm)
        squeeze_e, squeeze_f = _squeezer_arrays(sym)
        for i in range(5):
            np.testing.assert_array_equal(rotations[i], expm_i_hermitian(herm[i]))
            e, f = _squeezer_arrays(sym[i])
            np.testing.assert_array_equal(squeeze_e[i], e)
            np.testing.assert_array_equal(squeeze_f[i], f)

    @pytest.mark.parametrize("f_bad", [0.5 * np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    def test_bad_member_raises_its_message(self, f_bad):
        pairs, stack = stacked_pairs(2, 90)
        f = stack.f.copy()
        f[2] = f_bad
        with pytest.raises(ValueError) as member:
            BogoliubovPair(e=stack.e[2], f=f_bad)
        with pytest.raises(ValueError) as from_pair:
            BogoliubovPair(e=stack.e, f=f)
        with pytest.raises(ValueError) as from_svd:
            matched_svd(stack.e, f)
        assert str(from_pair.value) == str(from_svd.value) == str(member.value)

    def test_validators_read_the_last_two_axes(self):
        # m.T reversed every axis of a stack, so distinct symmetric
        # members failed and a wrong member's residual was misreported
        rng = np.random.default_rng(3)
        m = rng.normal(size=(3, 2, 2))
        sym = m + m.swapaxes(-1, -2)
        linalg.require_symmetric(sym)
        sym[1, 0, 1] += 2e-10
        with pytest.raises(ValueError, match=r"max \|M - M\^T\| = 2\.000e-10"):
            linalg.require_symmetric(sym, "M")
        unitaries = np.stack([random_unitary(rng, 3) for _ in range(3)])
        assert unitarity_defect(unitaries) < 1e-14
        unitaries[2] *= 1.5
        assert unitarity_defect(unitaries) == unitarity_defect(unitaries[2])
