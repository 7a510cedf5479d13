"""Fundamental Gaussian unitaries as Bogoliubov pairs.

A Gaussian unitary acts on the annihilation operators as
a -> E a + F a^dag + alpha, with E F^T = F E^T and E E^dag = F F^dag + I.
This module holds the validated rotations and squeezers, their pairs as
plain arrays (`expm_i_hermitian`, and `_squeezer_arrays` from one SVD of
the squeezing matrix) and their composition (`_compose_arrays`), converts
pairs to and from the quadrature (symplectic) picture, and implements the
operator-reordering rules that move a displacement or squeezer through
the other fundamental operations.  It uses numpy alone.

`Rotation`, `Squeezer`, `BogoliubovPair`, `expm_i_hermitian`,
`to_symplectic` and `from_symplectic` also take a leading axis of
operations, (..., N, N) matrices with (..., N) displacements, and run the
same code on one operation as on a stack of one.  The reordering rules
validate their parameters as `Rotation` and `Squeezer` do; a circuit of
validated operations moves a displacement through them with
`_switch_disp_rotation` and `_switch_disp_squeezer`, which skip that check.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import _dagger, require_bogoliubov, require_finite, require_hermitian, require_symmetric
from .states import SymplecticMap

__all__ = [
    "Rotation",
    "Squeezer",
    "BogoliubovPair",
    "to_symplectic",
    "from_symplectic",
    "switch_disp_squeezer",
    "switch_squeezer_rotation",
    "switch_disp_rotation",
]


@dataclass
class Rotation:
    phi: np.ndarray  # Hermitian generator, E = exp(i phi)

    def __post_init__(self):
        self.phi = np.atleast_2d(np.asarray(self.phi, dtype=complex))
        require_finite(self.phi, "rotation generator")
        require_hermitian(self.phi, "rotation generator")


@dataclass
class Squeezer:
    z: np.ndarray  # symmetric squeezing matrix, polar form z = r exp(i theta)

    def __post_init__(self):
        self.z = np.atleast_2d(np.asarray(self.z, dtype=complex))
        require_finite(self.z, "squeezing matrix")
        require_symmetric(self.z, "squeezing matrix")


@dataclass
class BogoliubovPair:
    """Heisenberg-picture data (E, F, alpha) of a Gaussian unitary, or of a
    stack of them: E and F of shape (..., N, N), alpha of shape (..., N)."""

    e: np.ndarray
    f: np.ndarray
    alpha: np.ndarray = None

    def __post_init__(self):
        self.e = np.atleast_2d(np.asarray(self.e, dtype=complex))
        self.f = np.atleast_2d(np.asarray(self.f, dtype=complex))
        if self.alpha is None:
            self.alpha = np.zeros(self.e.shape[:-1], dtype=complex)
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=complex))
        require_finite(self.e, "E")
        require_finite(self.f, "F")
        require_finite(self.alpha, "alpha")
        shape = self.e.shape
        if shape[-2] != shape[-1] or self.f.shape != shape or self.alpha.shape != shape[:-1]:
            raise ValueError(f"E, F must be (..., N, N) and alpha (..., N), got shapes "
                             f"{shape}, {self.f.shape} and {self.alpha.shape}")
        require_bogoliubov(self.e, self.f)

    @property
    def nmodes(self):
        return self.e.shape[-1]


def expm_i_hermitian(phi):
    """exp(i phi) for Hermitian phi, or each matrix of a stack, through its
    eigendecomposition."""
    vals, vecs = np.linalg.eigh(np.asarray(phi, dtype=complex))
    return (vecs * np.exp(1j * vals)[..., None, :]) @ _dagger(vecs)


def _squeezer_arrays(z):
    """(E, F) = (cosh(r), sinh(r) w) of a squeezing matrix z = r w, or of
    each matrix of a stack, as plain arrays with no validation.

    One SVD z = U Sigma V^dag gives both polar factors, r = U Sigma U^dag
    and w = U V^dag, so E = U cosh(Sigma) U^dag and F = U sinh(Sigma) V^dag.
    """
    u, sigma, vh = np.linalg.svd(np.atleast_2d(np.asarray(z, dtype=complex)))
    sigma = sigma[..., None, :]
    return (u * np.cosh(sigma)) @ _dagger(u), (u * np.sinh(sigma)) @ vh


def to_symplectic(pair):
    """Quadrature-picture map of a Bogoliubov pair.

    With q = a + a^dag and p = -i(a - a^dag) the 2x2 block of S coupling
    mode j to mode k is [[Re(E+F), Im(F-E)], [Im(E+F), Re(E-F)]]_{jk} and
    d = (2 Re alpha_1, 2 Im alpha_1, ...).
    """
    e, f, alpha = pair.e, pair.f, pair.alpha
    s = np.zeros(e.shape[:-2] + (2 * pair.nmodes,) * 2)
    s[..., 0::2, 0::2] = (e + f).real
    s[..., 0::2, 1::2] = (f - e).imag
    s[..., 1::2, 0::2] = (e + f).imag
    s[..., 1::2, 1::2] = (e - f).real
    d = np.zeros(s.shape[:-1])
    d[..., 0::2] = 2 * alpha.real
    d[..., 1::2] = 2 * alpha.imag
    return SymplecticMap(s=s, d=d)


def from_symplectic(smap):
    """Inverse of `to_symplectic`; input symplectic to 1e-9 (validated by
    SymplecticMap)."""
    s = smap.s
    a = s[..., 0::2, 0::2]
    b = s[..., 0::2, 1::2]
    c = s[..., 1::2, 0::2]
    dd = s[..., 1::2, 1::2]
    e = (a + dd) / 2 + 1j * (c - b) / 2
    f = (a - dd) / 2 + 1j * (c + b) / 2
    alpha = (smap.d[..., 0::2] + 1j * smap.d[..., 1::2]) / 2
    return BogoliubovPair(e=e, f=f, alpha=alpha)


def _compose_arrays(first, then):
    """(E, F) of `then` applied after `first`, each given as a plain (E, F)
    array pair, or of each pair of two stacks, which broadcast against
    each other; unvalidated."""
    (e1, f1), (e2, f2) = first, then
    return e2 @ e1 + f2 @ f1.conj(), e2 @ f1 + f2 @ e1.conj()


def switch_disp_squeezer(z, alpha):
    """beta such that D(alpha) S(z) = S(z) D(beta).

    beta = E alpha - F alpha*, with (E, F) = (cosh(r), sinh(r) exp(i theta))
    the squeezer's pair for z = r exp(i theta).  `alpha` may also be an
    (N, K) matrix whose columns are K displacements; the rule then maps
    each column.  z is checked as `Squeezer` checks it.
    """
    return _switch_disp_squeezer(Squeezer(z), alpha)


def _switch_disp_squeezer(squeezer, alpha):
    """`switch_disp_squeezer` for a validated `Squeezer`, or a stack of
    them with (..., N, K) displacements."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    e, f = _squeezer_arrays(squeezer.z)
    return e @ alpha - f @ alpha.conj()


def switch_squeezer_rotation(phi, z):
    """z' such that S(z) R(phi) = R(phi) S(z'): z' = e^{-i phi} z e^{-i phi^T}.

    phi and z are checked as `Rotation` and `Squeezer` check them.
    """
    u = expm_i_hermitian(-Rotation(phi).phi)
    return u @ Squeezer(z).z @ u.swapaxes(-1, -2)


def switch_disp_rotation(phi, alpha):
    """gamma such that D(alpha) R(phi) = R(phi) D(gamma): gamma = e^{-i phi} alpha.

    As in `switch_disp_squeezer`, an (N, K) `alpha` maps column by column.
    phi is checked as `Rotation` checks it.
    """
    return _switch_disp_rotation(Rotation(phi), alpha)


def _switch_disp_rotation(rotation, alpha):
    """`switch_disp_rotation` for a validated `Rotation`, or a stack of
    them with (..., N, K) displacements."""
    return expm_i_hermitian(-rotation.phi) @ np.atleast_1d(np.asarray(alpha, dtype=complex))
