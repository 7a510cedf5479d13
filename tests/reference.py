"""Reference code that only the tests use: Gaussian state builders, the
truncated coherent and two-mode squeezed vacuum kets, the eavesdropper's
conditional mean, the Fock-basis moments and overlaps they are checked
against, the sparse Fock operators, generators and exponentials (scipy's
`expm_multiply`, a dense `eigh` and a per-call tridiagonal one) that the
structured and Chebyshev exponentials of `evebounds.fock` are checked
against, the scipy Schur form that `evebounds.linalg._unitary_eig` is
checked against, the validated Bogoliubov pairs of the fundamental
operations and their composition (`Displacement`, `bogoliubov_of`,
`compose`), whose arithmetic the plain-array composition of
`evebounds.checks` reproduces, one-call forms of that module's random
unitary and Bloch-Messiah displacements with their per-operation,
per-part and per-amplitude references, and the oracle's complex factor
through the dense beam-splitter unitary, with the entropy from its
single Gram matrix of all amplitudes or from one eigensolve per rotation
class, and the constellations without rotation symmetry that the bm-get
tests draw."""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from evebounds.blochmessiah import bloch_messiah, factors_to_circuit
from evebounds.checks import _circuit_amplitudes, _composed_pairs, _draw_pair, _switched_displacement
from evebounds.cloner import ChannelParams, Constellation, eve_reduced_covariance
from evebounds.fock import (
    _bs_angle,
    _ladder_terms,
    _normalized,
    _require_deficit,
    _tmsv_schmidt,
    fock_bs,
    fock_entropy,
)
from evebounds.linalg import max_abs, require_finite
from evebounds.states import GaussianState, williamson_standard_two_mode
from evebounds.unitaries import (
    BogoliubovPair,
    Rotation,
    Squeezer,
    _compose_arrays,
    _squeezer_arrays,
    expm_i_hermitian,
    from_symplectic,
)


def make_thermal(nbar):
    """Single-mode thermal state with mean photon number `nbar`."""
    if nbar < 0:
        raise ValueError(f"mean photon number must be >= 0, got {nbar}")
    return GaussianState(mean=np.zeros(2), cov=(2 * nbar + 1) * np.eye(2))


def coherent_ket(alpha, cutoff):
    """(ket, deficit) for |alpha> truncated at `cutoff` photons; deficit 1
    where the amplitudes underflow (|alpha| >~ 27 at cutoff 18).  The
    oracle's real `evebounds.fock._modulus_ket` must equal its real part
    bit for bit.  |alpha|^2 is a product, as there: libm's pow is not
    always correctly rounded, and a product overflows to inf, not to an
    OverflowError."""
    alpha = complex(alpha)
    c = np.zeros(cutoff + 1, dtype=complex)
    c[0] = math.exp(-0.5 * (abs(alpha) * abs(alpha)))
    for n in range(1, cutoff + 1):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    return _normalized(c)


def tmsv_ket(nbar, cutoff):
    """(ket, deficit) for a two-mode squeezed vacuum: the flat d x d ket
    (d = cutoff + 1) with the Schmidt coefficients of
    `evebounds.fock._tmsv_schmidt` on its diagonal."""
    if not 0 <= nbar < math.inf:
        raise ValueError(f"mean photon number must be finite and >= 0, got {nbar}")
    c, deficit = _tmsv_schmidt(nbar, cutoff)
    return np.diag(c).reshape(-1).astype(complex), deficit


def make_coherent(alpha):
    """Single-mode coherent state of complex amplitude `alpha`."""
    alpha = complex(alpha)
    return GaussianState(mean=np.array([2 * alpha.real, 2 * alpha.imag]), cov=np.eye(2))


def named_constellation(name, alpha):
    """A constellation that is not circular, at amplitude alpha: "bpsk",
    "turned-bpsk" (BPSK turned by the unit phase 0.6 + 0.8i), "skewed"
    (three states of unequal weight) or "3-ask" (the off-centre
    {0, alpha, 2 alpha})."""
    if name == "bpsk":
        return Constellation(amplitudes=[alpha, -alpha], probs=[0.5, 0.5])
    if name == "turned-bpsk":
        return Constellation(amplitudes=[alpha * (0.6 + 0.8j), -alpha * (0.6 + 0.8j)], probs=[0.5, 0.5])
    if name == "skewed":
        return Constellation(amplitudes=alpha * np.array([0.8, -0.3 + 0.9j, -0.5 - 0.6j]), probs=[0.5, 0.3, 0.2])
    if name == "3-ask":
        return Constellation(amplitudes=[0.0, alpha, 2 * alpha], probs=[1 / 3, 1 / 3, 1 / 3])
    raise ValueError(f"unknown constellation {name!r}")


def eve_conditional_mean(alpha_i, params):
    """Mean quadratures of the eavesdropper's two modes given amplitude
    alpha_i: (-r 2 Re alpha, -r 2 Im alpha, 0, 0)."""
    alpha_i = complex(alpha_i)
    return np.array([-params.r * 2 * alpha_i.real, -params.r * 2 * alpha_i.imag, 0.0, 0.0])


def fock_hs_product(rho1, rho2):
    """Hilbert-Schmidt product tr(rho1 rho2) of two density matrices."""
    val = complex(np.sum(np.asarray(rho1) * np.asarray(rho2).T))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"tr(rho1 rho2) not real: imaginary part {val.imag:.3e}")
    return float(val.real)


def fock_moments(rho, cutoff, nmodes):
    """Quadrature mean vector and covariance matrix of a Fock-basis state of
    `nmodes` modes truncated at `cutoff` photons each.

    Uses q = a + a^dag, p = -i(a - a^dag) and the symmetrized second
    moments, matching the phase-space convention of `evebounds.states`.
    """
    rho = np.asarray(rho, dtype=complex)
    quads = []
    for k in range(nmodes):
        a = destroy(cutoff, nmodes, k).toarray()
        quads.append(a + a.conj().T)
        quads.append(-1j * (a - a.conj().T))
    mean = np.array([np.trace(rho @ r).real for r in quads])
    n = len(quads)
    cov = np.zeros((n, n))
    for j in range(n):
        for k in range(j, n):
            second = np.trace(rho @ quads[j] @ quads[k])
            cov[j, k] = cov[k, j] = second.real - mean[j] * mean[k]
    return mean, cov


def displacement_generator(cutoff, nmodes, alpha):
    """Anti-Hermitian generator of D(alpha) = exp(sum alpha_k a_k^dag - h.c.)."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    if alpha.size != nmodes:
        raise ValueError("one displacement amplitude per mode required")
    dim = (cutoff + 1) ** nmodes
    g = sp.csr_matrix((dim, dim), dtype=complex)
    for k, a_k in enumerate(alpha):
        a = destroy(cutoff, nmodes, k)
        g = g + a_k * a.conj().T - np.conj(a_k) * a
    return g


def rotation_generator(cutoff, nmodes, phi):
    """Anti-Hermitian generator of R(phi) = exp(i a^dag phi a), phi Hermitian."""
    phi = np.atleast_2d(np.asarray(phi, dtype=complex))
    ops = [destroy(cutoff, nmodes, k) for k in range(nmodes)]
    dim = (cutoff + 1) ** nmodes
    g = sp.csr_matrix((dim, dim), dtype=complex)
    for j in range(nmodes):
        for k in range(nmodes):
            if phi[j, k] != 0:
                g = g + 1j * phi[j, k] * (ops[j].conj().T @ ops[k])
    return g


def destroy(cutoff, nmodes, mode):
    """Sparse annihilation operator acting on `mode` (0-based) of `nmodes`
    modes truncated at `cutoff` photons each."""
    if not 0 <= mode < nmodes:
        raise ValueError(f"mode {mode} out of range for {nmodes} modes")
    d = cutoff + 1
    a = sp.diags(np.sqrt(np.arange(1, d)), offsets=1, format="csr")
    ops = [sp.identity(d, format="csr")] * nmodes
    ops[mode] = a
    out = ops[0]
    for op in ops[1:]:
        out = sp.kron(out, op, format="csr")
    return out


@lru_cache(maxsize=4)
def creation_products(cutoff, nmodes):
    """{(j, k): a_j^dag a_k^dag for j <= k} on `nmodes` modes truncated at
    `cutoff`, built once per (cutoff, nmodes) and shared, so callers only
    read them."""
    ups = [destroy(cutoff, nmodes, k).conj().T for k in range(nmodes)]
    return {
        (j, k): (ups[j] @ ups[k]).tocsr()
        for j in range(nmodes)
        for k in range(j, nmodes)
    }


def sparse_squeeze_generator(cutoff, nmodes, z):
    """Sparse anti-Hermitian generator C - C^dag of
    S(z) = exp((a^dag z a^dag - a z^dag a) / 2), on any number of modes,
    with C = sum_jk z_jk a_j^dag a_k^dag / 2 weighting the cached
    `creation_products`; (j, k) and (k, j) share one product."""
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    products = creation_products(cutoff, nmodes)
    dim = (cutoff + 1) ** nmodes
    c = sp.csr_matrix((dim, dim), dtype=complex)
    for j in range(nmodes):
        for k in range(nmodes):
            if z[j, k] != 0:
                c = c + 0.5 * z[j, k] * products[min(j, k), max(j, k)]
    return c - c.conj().T


def squeeze_generator_kron(cutoff, nmodes, z):
    """Generator of S(z) = exp((a^dag z a^dag - a z^dag a) / 2), rebuilt from
    `destroy` on every call: the reference for the cached
    `sparse_squeeze_generator`."""
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    ops = [destroy(cutoff, nmodes, k) for k in range(nmodes)]
    dim = (cutoff + 1) ** nmodes
    g = sp.csr_matrix((dim, dim), dtype=complex)
    for j in range(nmodes):
        for k in range(nmodes):
            if z[j, k] != 0:
                g = g + 0.5 * z[j, k] * (ops[j].conj().T @ ops[k].conj().T)
                g = g - 0.5 * np.conj(z[j, k]) * (ops[j] @ ops[k])
    return g


def apply_sparse_generator(gen, kets):
    """exp(gen) applied to a ket or to the rows of a (k, dim) stack, for a
    sparse anti-Hermitian generator, by scipy's `expm_multiply`."""
    kets = np.asarray(kets, dtype=complex)
    return expm_multiply(gen, kets.T).T


def ladder_matrix(gen):
    """Sparse matrix of the Hermitian squeezer generator H held by an
    `evebounds.fock.SqueezeGenerator`, laid out from its six shifted
    terms."""
    size = gen.ldim**2
    index = np.arange(size)
    rows, cols, vals = [], [], []
    for weight, dst, src in _ladder_terms(gen):
        rows.append(index[dst])
        cols.append(index[src])
        vals.append(weight)
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return sp.csr_matrix(entries, shape=(size, size))


def unitary_eig_schur(m):
    """(eigenvalues, eigenvectors) of a normal matrix from scipy's complex
    Schur form: the reference for `evebounds.linalg._unitary_eig`."""
    t, q = scipy.linalg.schur(np.asarray(m, dtype=complex), output="complex")
    residue = max_abs(np.triu(t, k=1))
    if residue > 1e-8:
        raise ValueError(
            f"matrix is not normal enough to diagonalize: Schur residue {residue:.3e}"
        )
    return np.diag(t), q


def bs_generator(cutoff, tau):
    """Generator of the beam splitter exp(theta (a^dag b - a b^dag)) on two
    modes truncated at `cutoff` photons each.

    cos(theta) = sqrt(tau), so the outputs are t a + r b and -r a + t b
    with t = sqrt(tau), r = sqrt(1 - tau).
    """
    a = destroy(cutoff, 2, 0)
    b = destroy(cutoff, 2, 1)
    return _bs_angle(tau) * (a.conj().T @ b - a @ b.conj().T)


def fock_unitary(gen):
    """Dense unitary exp(gen) of an anti-Hermitian generator.

    Diagonalizes the Hermitian matrix i*gen, so the result is exactly
    unitary up to round-off even on the truncated ladder.
    """
    h = 1j * gen.toarray()
    vals, vecs = np.linalg.eigh(h)
    return vecs @ np.diag(np.exp(-1j * vals)) @ vecs.conj().T


def expm_tridiagonal(diag, sub):
    """exp(-i h) = basis exp(-i vals) basis^dag for the Hermitian
    tridiagonal h with real diagonal `diag` and subdiagonal `sub`
    (h[k+1, k] = sub[k]), with one eigensolve per call: the route the
    cached basis of `evebounds.fock._displacement_factor` is checked
    against.  h = P t P^dag with t real symmetric, diagonal `diag` and
    off-diagonal |sub|, and P = diag(exp(i theta_k)), theta_k the running
    sum of arg(sub[:k]), so basis = P V for t's eigenvector columns V."""
    off = np.abs(sub)
    vals, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, -1) + np.diag(off, 1))
    phase = np.exp(1j * np.concatenate(([0.0], np.cumsum(np.angle(sub)))))
    basis = phase[:, None] * vecs
    return (basis * np.exp(-1j * vals)) @ basis.conj().T


@dataclass
class Displacement:
    alpha: np.ndarray

    def __post_init__(self):
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=complex))
        require_finite(self.alpha, "displacement amplitude")


def bogoliubov_of(op):
    """Validated Bogoliubov pair of a fundamental Gaussian operation, or of
    a stack of them.

    Displacement(alpha): E = I, F = 0.  Rotation(phi): E = exp(i phi),
    F = 0.  Squeezer(z = r exp(i theta)): E = cosh(r),
    F = sinh(r) exp(i theta), with both taken from one SVD of z
    (`evebounds.unitaries._squeezer_arrays`).
    """
    if isinstance(op, Displacement):
        n = op.alpha.shape[-1]
        e = np.broadcast_to(np.eye(n, dtype=complex), op.alpha.shape + (n,))
        return BogoliubovPair(e=e.copy(), f=np.zeros_like(e), alpha=op.alpha)
    if isinstance(op, Rotation):
        e = expm_i_hermitian(op.phi)
        return BogoliubovPair(e=e, f=np.zeros_like(e))
    if isinstance(op, Squeezer):
        e, f = _squeezer_arrays(op.z)
        return BogoliubovPair(e=e, f=f)
    raise TypeError(f"not a fundamental Gaussian operation: {op!r}")


def compose(first, then):
    """Validated Bogoliubov pair of `then` applied after `first`, or of each
    pair of two stacks, which broadcast against each other.

    Matches the symplectic composition (S2 S1, S2 d1 + d2).
    """
    if first.nmodes != then.nmodes:
        raise ValueError(
            f"mode mismatch: composing {first.nmodes}-mode with {then.nmodes}-mode operation"
        )
    e, f = _compose_arrays((first.e, first.f), (then.e, then.f))
    alpha = first.alpha[..., None]
    alpha = (then.e @ alpha + then.f @ alpha.conj())[..., 0] + then.alpha
    return BogoliubovPair(e=e, f=f, alpha=alpha)


def random_pair(rng, nmodes, with_displacement=False):
    """One random Gaussian unitary as `evebounds.checks` draws and composes
    it (`_draw_pair`, `_composed_pairs`)."""
    return _composed_pairs(*_draw_pair(rng, nmodes, with_displacement))


def random_pair_composed(rng, nmodes, with_displacement=False):
    """Random Gaussian unitary composed from validated `bogoliubov_of`
    pairs, one `compose` at a time."""
    pair = bogoliubov_of(Rotation(np.zeros((nmodes, nmodes))))
    for _ in range(3):
        herm = rng.normal(size=(nmodes, nmodes)) + 1j * rng.normal(size=(nmodes, nmodes))
        herm = (herm + herm.conj().T) / 2
        sym = rng.normal(size=(nmodes, nmodes)) + 1j * rng.normal(size=(nmodes, nmodes))
        sym = 0.25 * (sym + sym.T)
        pair = compose(pair, bogoliubov_of(Rotation(herm)))
        pair = compose(pair, bogoliubov_of(Squeezer(sym)))
    if with_displacement:
        alpha = rng.normal(size=nmodes) + 1j * rng.normal(size=nmodes)
        pair = BogoliubovPair(e=pair.e, f=pair.f, alpha=alpha)
    return pair


def draw_pair_sequential(rng, nmodes, with_displacement):
    """`evebounds.checks._draw_pair` with one `rng.normal` call per real or
    imaginary part, in its order."""
    rounds = np.array([rng.normal(size=(nmodes, nmodes)) + 1j * rng.normal(size=(nmodes, nmodes))
                       for _ in range(6)])
    alpha = rng.normal(size=nmodes) + 1j * rng.normal(size=nmodes) if with_displacement else None
    return rounds, alpha


def bloch_messiah_amplitudes(constellation, params):
    """K x 2 displacements of the eavesdropper's ensemble through the
    Bloch-Messiah circuit of her thermal decomposition, as
    `evebounds.checks._circuit_amplitudes` moves them; a sequence of
    cells gives a (cells, K, 2) stack."""
    cells = [params] if isinstance(params, ChannelParams) else params
    amps = _circuit_amplitudes(constellation, cells, [eve_reduced_covariance(p) for p in cells])
    return amps[0] if isinstance(params, ChannelParams) else amps


def bloch_messiah_amplitudes_loop(constellation, params):
    """`bloch_messiah_amplitudes` with one circuit pass per amplitude."""
    smap, _, _ = williamson_standard_two_mode(eve_reduced_covariance(params))
    circuit = factors_to_circuit(bloch_messiah(from_symplectic(smap)))
    return np.array([_switched_displacement(circuit, np.array([-params.r * amp, 0.0]))
                     for amp in constellation.amplitudes])


def dense_eve_average_state(constellation, params, cutoff):
    """(M, leak): the complex factor of the oracle's eavesdropper state,
    rho = M^T conj(M), through the dense beam-splitter unitary:
    fock_bs @ (ket_k (x) psi_CE) for each amplitude, its rows indexed by the
    first output and weighted by sqrt(p_k), and the leakage taken from the
    top level of each output mode."""
    d = cutoff + 1
    psi_ce, tmsv_deficit = tmsv_ket(params.nbar, cutoff)
    bs = fock_bs(params.tau, cutoff)
    rows = []
    leak = tmsv_deficit
    for amp, prob in zip(constellation.amplitudes, constellation.probs):
        ket, deficit = coherent_ket(amp, cutoff)
        out = (bs @ np.kron(ket, psi_ce).reshape(d * d, d)).reshape(d, d, d)
        top = sum((np.abs(face) ** 2).sum() for face in (out[-1], out[:, -1], out[:, :, -1]))
        leak = max(leak, deficit, float(top))
        rows.append(math.sqrt(prob) * out.reshape(d, d * d))
    return np.concatenate(rows), leak


def full_gram_oracle_entropy(constellation, params, cutoff, base="bits"):
    """The oracle's entropy at one cutoff from the single K d x K d Gram
    matrix conj(M) M^T of all K amplitudes' `dense_eve_average_state`
    factor, the reference for the real rotation-class blocks of
    `evebounds.fock.eve_exact_entropy`."""
    m, leak = dense_eve_average_state(constellation, params, cutoff)
    _require_deficit(leak, f"the oracle state at cutoff {cutoff}")
    return fock_entropy(m.conj() @ m.T, base=base)


def class_gram_oracle_entropy(representatives, order, params, cutoff, base="bits"):
    """The oracle's entropy at one cutoff with one `fock_entropy` per
    rotation class of the `dense_eve_average_state` factor: the unbatched
    reference for the stacked class Gram blocks of
    `evebounds.fock._eve_entropy`."""
    m, leak = dense_eve_average_state(representatives, params, cutoff)
    _require_deficit(leak, f"the oracle state at cutoff {cutoff}")
    d = cutoff + 1
    classes = np.subtract.outer(np.arange(d), np.arange(d)).reshape(-1) % order
    blocks = (m[:, classes == q] for q in range(order))
    return sum(fock_entropy(block.conj() @ block.T, base=base) for block in blocks)
