"""Bloch-Messiah reduction of a Gaussian unitary.

Any Bogoliubov pair factors as E = U L_E W_E^dag, F = U L_F W_F^dag with a
common left unitary, nonnegative diagonal L_E, L_F satisfying
L_E^2 = I + L_F^2, and right factors obeying the rotation condition
W_F = conj(W_E).  A matched SVD alone does not deliver the rotation
condition; it is repaired by a balancing matrix D obtained from the Takagi
factorization of G = W_E^dag conj(W_F).  The balanced factors realize the
unitary as rotation -> parallel single-mode squeezers -> rotation.

`bloch_messiah`, `BMFactors` and `factors_to_circuit` also take a stack of
pairs (a `BogoliubovPair` with a leading axis) and decompose it in one pass
of stacked eigensolves and products; one pair runs the same code as a
stack of one.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ATOL_CONSTRUCT,
    ATOL_RECONSTRUCT,
    matched_svd,
    max_abs,
    principal_angles,
    principal_sqrt,
    require_at_most,
    require_unitary,
    _dagger,
    _unitary_eig,
)
from .unitaries import Rotation, Squeezer

__all__ = ["BMFactors", "bloch_messiah", "factors_to_circuit"]


@dataclass
class BMFactors:
    """Balanced factors (cal_u, lambda_e, lambda_f, cal_we, cal_wf), each
    with the leading axes of the decomposed stack."""

    cal_u: np.ndarray
    lambda_e: np.ndarray
    lambda_f: np.ndarray
    cal_we: np.ndarray
    cal_wf: np.ndarray

    def __post_init__(self):
        require_unitary(self.cal_u, "cal_u")
        require_unitary(self.cal_we, "cal_we")
        require_unitary(self.cal_wf, "cal_wf")
        require_at_most(max_abs(self.cal_wf - self.cal_we.conj()), ATOL_RECONSTRUCT,
                        "rotation condition W_F = conj(W_E) violated: residual {:.3e}")
        require_at_most(max_abs(self.lambda_e**2 - self.lambda_f**2 - 1), ATOL_CONSTRUCT,
                        "squeeze relation L_E^2 = 1 + L_F^2 violated: residual {:.3e}")

    def reconstruct(self):
        """(E, F) rebuilt from the factors."""
        e = (self.cal_u * self.lambda_e[..., None, :]) @ _dagger(self.cal_we)
        f = (self.cal_u * self.lambda_f[..., None, :]) @ _dagger(self.cal_wf)
        return e, f


def bloch_messiah(pair):
    """Bloch-Messiah factors of a Bogoliubov pair (displacement ignored).

    Pipeline: matched SVD, then G = w_e^dag conj(w_f), then the balancing
    matrix D from the Takagi factorization of G, then
    cal_u = u D, cal_we = conj(w_f) conj(D), cal_wf = w_f D.

    G is symmetric and block diagonal with respect to the degenerate blocks
    of the singular values whenever the input satisfies the Bogoliubov
    constraints; its symmetry is checked, not assumed.

    Raises:
        ValueError: on constraint-violating input, on a non-symmetric G
            (residual reported), or if the factors fail to reconstruct the
            input to `ATOL_RECONSTRUCT`.
    """
    m = matched_svd(pair.e, pair.f)
    g = _dagger(m.w_e) @ m.w_f.conj()
    g_t = g.swapaxes(-1, -2)
    require_at_most(max_abs(g - g_t), 1e-8,
                    "balancing input G = W_E^dag conj(W_F) not symmetric: residual {:.3e}")
    d = principal_sqrt((g + g_t) / 2)  # Takagi factor: d @ d.T = g

    factors = BMFactors(
        cal_u=m.u @ d,
        lambda_e=m.lambda_e,
        lambda_f=m.lambda_f,
        cal_we=m.w_f.conj() @ d.conj(),
        cal_wf=m.w_f @ d,
    )
    e, f = factors.reconstruct()
    require_at_most(max_abs([e - pair.e, f - pair.f]), ATOL_RECONSTRUCT,
                    "Bloch-Messiah factors do not reconstruct the input: residual {:.3e}")
    return factors


def _hermitian_phase(v):
    """Hermitian phi with exp(i phi) = v, eigenphases on (-pi, pi]."""
    eigvals, q = _unitary_eig(v)
    h = (q * principal_angles(eigvals)[..., None, :]) @ _dagger(q)
    return (h + _dagger(h)) / 2


def factors_to_circuit(factors):
    """Fundamental-operation circuit realizing balanced factors.

    Returns [Rotation(phi1), Squeezer(diag(r)), Rotation(phi2)] in
    application order (index 0 acts first), with exp(i phi1) = cal_we^dag,
    sinh(r_k) = lambda_f[k], so cosh(r_k) = lambda_e[k] (r_k >= 0, phases
    live in the rotations), and exp(i phi2) = cal_u.
    """
    phi1 = _hermitian_phase(_dagger(factors.cal_we))
    phi2 = _hermitian_phase(factors.cal_u)
    # arcsinh keeps full precision for tiny squeezing, where arccosh of a
    # lambda_e rounded to 1 would lose it.
    r = np.arcsinh(factors.lambda_f)
    return [Rotation(phi1), Squeezer(r[..., None] * np.eye(r.shape[-1])), Rotation(phi2)]
