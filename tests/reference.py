"""Reference code that only the tests use: Gaussian state builders, the
Gaussian Hilbert-Schmidt product, the eavesdropper's conditional mean and
the Fock-basis moments and overlaps they are checked against."""

import numpy as np

from evebounds.states import GaussianState


def make_thermal(nbar):
    """Single-mode thermal state with mean photon number `nbar`."""
    if nbar < 0:
        raise ValueError(f"mean photon number must be >= 0, got {nbar}")
    return GaussianState(mean=np.zeros(2), cov=(2 * nbar + 1) * np.eye(2))


def make_coherent(alpha):
    """Single-mode coherent state of complex amplitude `alpha`."""
    alpha = complex(alpha)
    return GaussianState(mean=np.array([2 * alpha.real, 2 * alpha.imag]), cov=np.eye(2))


def gaussian_hs_overlap(s1, s2):
    """Hilbert-Schmidt product tr(rho1 rho2) of two Gaussian states.

    tr(rho1 rho2) = 2^N det(S1 + S2)^(-1/2) exp(-delta^T (S1+S2)^{-1} delta / 2)
    with delta the mean difference.  Symmetric in its arguments and in
    (0, 1] for physical states.  The "hs-normalized" Gram entries are its
    closed form for equal-covariance displaced thermal states.
    """
    if s1.nmodes != s2.nmodes:
        raise ValueError(f"mode mismatch: {s1.nmodes} vs {s2.nmodes}")
    total = s1.cov + s2.cov
    det = float(np.linalg.det(total))
    if det <= 0:
        raise ValueError(f"covariance sum is singular: det = {det!r}")
    delta = s1.mean - s2.mean
    exponent = -0.5 * float(delta @ np.linalg.solve(total, delta))
    return float(2**s1.nmodes / np.sqrt(det) * np.exp(exponent))


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


def fock_moments(rho, space):
    """Quadrature mean vector and covariance matrix of a Fock-basis state.

    Uses q = a + a^dag, p = -i(a - a^dag) and the symmetrized second
    moments, matching the phase-space convention of `evebounds.states`.
    """
    rho = np.asarray(rho, dtype=complex)
    quads = []
    for k in range(space.nmodes):
        a = space.destroy(k).toarray()
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
