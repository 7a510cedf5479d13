"""Dense matrix kernels for the Gaussian-unitary decompositions.

Everything here targets the small matrices (a handful of modes) that show
up in phase-space models of optical circuits; nothing is tuned for scale.
Construction-level checks run at 1e-10 and reconstruction-level checks at
1e-9, one order of magnitude of slack over accumulated round-off at this
matrix size.  The `require_*` validators are the package's one copy of
each matrix check and of the probability-vector check, and
`require_at_most` / `require_at_least` the one copy of the comparison
every residual gate makes: a NaN fails both.

The matrix functions take one N x N matrix or a (..., N, N) stack of them,
and a single matrix runs the same code as a stack of one.  A gate on a
stack fails if any member fails and reports the worst member's residual
(`max_abs` over the whole stack, so a NaN member reports NaN).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MatchedSVD",
    "principal_sqrt",
    "matched_svd",
]

ATOL_CONSTRUCT = 1e-10
ATOL_RECONSTRUCT = 1e-9
ATOL_DISTRIBUTION = 1e-12  # a few roundings of a sum of O(1) probabilities


def max_abs(m):
    """Largest entry magnitude, as a plain float."""
    return float(np.abs(m).max(initial=0.0))


def require_finite(m, name="matrix"):
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN or Inf entries")


def require_at_most(value, limit, message, *args):
    """Raise ValueError(message.format(value, *args)) unless value <= limit; NaN fails."""
    if not value <= limit:
        raise ValueError(message.format(value, *args))


def require_at_least(value, floor, message, *args):
    """`require_at_most` for a lower bound: raise unless value >= floor."""
    if not value >= floor:
        raise ValueError(message.format(value, *args))


def require_distribution(probs):
    """Finite, nonnegative probabilities summing to 1 within `ATOL_DISTRIBUTION`."""
    probs = np.asarray(probs, dtype=float)
    total = float(probs.sum())
    if not math.isfinite(total):  # so some entry is NaN or infinite; name it
        require_finite(probs, "probabilities")
    require_at_most(abs(total - 1.0), ATOL_DISTRIBUTION,
                    "probabilities sum to {1!r}, expected 1 within {2:.0e}", total, ATOL_DISTRIBUTION)
    require_at_least(probs.min(), 0, "probabilities must be nonnegative")


def _dagger(m):
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def require_square(m, name="matrix"):
    """Raise a named error unless the last two axes of m are equal."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")


def unitarity_defect(m):
    """max |M^dag M - I|, over every matrix of a stack."""
    return max_abs(_dagger(m) @ m - np.eye(m.shape[-1]))


# The message of the construction-level checks: name, kind and residual.
_NOT_CONSTRUCT = "{1} is not {2}: max |{3}| = {0:.3e} > " + f"{ATOL_CONSTRUCT:.0e}"


def require_unitary(m, name="matrix"):
    require_at_most(unitarity_defect(m), ATOL_CONSTRUCT, _NOT_CONSTRUCT, name, "unitary", "M^dag M - I")


def require_symmetric(m, name="matrix"):
    require_square(m, name)
    require_at_most(max_abs(m - m.swapaxes(-1, -2)), ATOL_CONSTRUCT, _NOT_CONSTRUCT,
                    name, "symmetric", "M - M^T")


def require_hermitian(m, name="matrix"):
    """M = M^dag to `ATOL_CONSTRUCT`, for one matrix or a stack of them."""
    require_square(m, name)
    require_at_most(max_abs(m - _dagger(m)), ATOL_CONSTRUCT, _NOT_CONSTRUCT,
                    name, "Hermitian", "M - M^dag")


def require_bogoliubov(e, f):
    """E F^T = F E^T and E E^dag = F F^dag + I, to `ATOL_RECONSTRUCT`."""
    require_at_most(max_abs(e @ f.swapaxes(-1, -2) - f @ e.swapaxes(-1, -2)), ATOL_RECONSTRUCT,
                    "Bogoliubov constraint E F^T = F E^T violated: residual {:.3e}")
    require_at_most(max_abs(e @ _dagger(e) - f @ _dagger(f) - np.eye(e.shape[-1])), ATOL_RECONSTRUCT,
                    "Bogoliubov constraint E E^dag = F F^dag + I violated: residual {:.3e}")


def _unitary_eig(m):
    """Spectral decomposition of a (numerically) unitary matrix.

    Uses a complex Schur form built from numpy alone: with m V = V L the
    eigendecomposition and V = Q R its QR factorization,
    Q^dag m Q = R L R^-1 is upper triangular.  For normal input it is
    exactly diagonal; the strictly upper-triangular residue is checked
    rather than assumed.
    """
    m = np.asarray(m, dtype=complex)
    q, _ = np.linalg.qr(np.linalg.eig(m)[1])
    t = _dagger(q) @ m @ q
    require_at_most(max_abs(np.triu(t, k=1)), 1e-8,
                    "matrix is not normal enough to diagonalize: Schur residue {:.3e}")
    return np.diagonal(t, axis1=-2, axis2=-1), q


def principal_angles(eigvals):
    """Eigenvalue arguments folded into (-pi, pi], with -pi mapped to +pi."""
    angles = np.angle(eigvals)
    angles[angles <= -np.pi + 1e-12] += 2 * np.pi
    return angles


def principal_sqrt(m):
    """Principal square root of a symmetric unitary matrix.

    The root is itself symmetric and unitary, so it is also a Takagi factor
    D of the input: D @ D.T = m.

    Args:
        m (array[complex]): symmetric unitary matrix, or a stack of them.

    Returns:
        array[complex]: R with R @ R = m, eigenvalue arguments taken on the
        principal branch (-pi, pi], so an eigenvalue -1 maps to +1j.

    Raises:
        ValueError: if the input is not square, or not symmetric and
            unitary to 1e-10.
    """
    m = np.asarray(m, dtype=complex)
    require_finite(m, "principal_sqrt input")
    require_symmetric(m, "principal_sqrt input")
    require_unitary(m, "principal_sqrt input")
    eigvals, q = _unitary_eig(m)
    roots = np.sqrt(np.abs(eigvals)) * np.exp(0.5j * principal_angles(eigvals))
    return (q * roots[..., None, :]) @ _dagger(q)


@dataclass
class MatchedSVD:
    """Simultaneous SVD of a Bogoliubov pair with a common left factor.

    E = u diag(lambda_e) w_e^dag and F = u diag(lambda_f) w_f^dag, with
    lambda_e[k]^2 = 1 + lambda_f[k]^2.  The right factors are not yet
    balanced: w_f == conj(w_e) is *not* guaranteed at this stage.  For a
    stack of pairs every field has the stack's leading axes.
    """

    u: np.ndarray
    lambda_e: np.ndarray
    lambda_f: np.ndarray
    w_e: np.ndarray
    w_f: np.ndarray

    def __post_init__(self):
        require_unitary(self.u, "matched SVD factor u")
        require_unitary(self.w_e, "matched SVD factor w_e")
        require_unitary(self.w_f, "matched SVD factor w_f")
        require_at_least(self.lambda_e.min(initial=math.inf), 1 - 1e-12,
                         "matched SVD lambda_e has entries below 1")
        require_at_most(max_abs(self.lambda_e**2 - self.lambda_f**2 - 1), ATOL_CONSTRUCT,
                        "matched SVD violates lambda_e^2 = 1 + lambda_f^2: {:.3e}")


def matched_svd(e, f):
    """SVD of a Bogoliubov pair (E, F) sharing the left unitary factor.

    The left factor comes from the eigendecomposition of E E^dag (Hermitian
    PSD), which avoids two independent SVDs disagreeing on degenerate
    subspaces; F F^dag is then diagonal in the same basis because
    E E^dag = F F^dag + I.  Where a squeezing singular value vanishes the
    corresponding w_f column is unconstrained and is set to the conjugate
    of the w_e column, so the later balancing step is well posed there.

    Args:
        e (array[complex]): square matrix E, or a (..., N, N) stack.
        f (array[complex]): square matrix F, same shape as E.

    Returns:
        MatchedSVD: factors with each member's singular values sorted in
        decreasing order.

    Raises:
        ValueError: if (E, F) violate the Bogoliubov constraints to 1e-9,
            naming the violated identity and its residual.
    """
    e = np.asarray(e, dtype=complex)
    f = np.asarray(f, dtype=complex)
    if e.shape != f.shape or e.ndim < 2 or e.shape[-1] != e.shape[-2]:
        raise ValueError(f"E and F must be square matrices of equal shape, got {e.shape} and {f.shape}")
    require_finite(e, "E")
    require_finite(f, "F")
    require_bogoliubov(e, f)

    evals, u = np.linalg.eigh(e @ _dagger(e))
    order = np.argsort(-evals, axis=-1, kind="stable")
    evals = np.take_along_axis(evals, order, axis=-1)
    u = np.take_along_axis(u, order[..., None, :], axis=-1)

    lambda_e = np.sqrt(np.maximum(evals, 0.0))
    # Columns of F^dag u have norms lambda_f to full relative precision;
    # sqrt(evals - 1) keeps only a few digits when the squeezing is tiny.
    g = _dagger(f) @ u
    lambda_f = np.linalg.norm(g, axis=-2)

    w_e = _dagger(e) @ u / lambda_e[..., None, :]
    # Off the support the divisor is 1, not lambda_f, so no masked-out
    # column divides 0 by 0.
    support = (lambda_f > 1e-12)[..., None, :]
    w_f = np.where(support, g / np.where(support, lambda_f[..., None, :], 1.0), w_e.conj())

    return MatchedSVD(u=u, lambda_e=lambda_e, lambda_f=lambda_f, w_e=w_e, w_f=w_f)
