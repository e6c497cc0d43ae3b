"""Self-adjoint extension bookkeeping for point scatterers.

A family of point interactions is parameterized either by an angle theta per
scatterer (the boundary-condition label) or by an inverse coupling strength.
The two are related through the deficiency norm at the regularization scale
Lambda, and the whole family is encoded in a unitary matrix built from the
secular matrix at the one conjugate pair +-i*Lambda.  Every diagnostic takes
the evaluator and evaluates that pair itself, at its lambda_scale.

Spectra never need the unitary matrix; it is a diagnostic surface. Solvers
work with the secular matrix on the real axis (see `solver`).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import IllConditionedExtensionError, ValidationError
from .greens import GreensEvaluator


@dataclasses.dataclass(frozen=True)
class ExtensionAngle:
    """Boundary-condition angle for one scatterer, in [0, 2*pi).

    theta = pi is the zero-inverse-coupling point; theta -> 0 (or 2*pi) is
    the decoupled limit where the scatterer drops out.
    """

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValidationError("extension angle must be finite")
        if not 0.0 <= self.theta < 2.0 * math.pi:
            raise ValidationError(
                f"extension angle must lie in [0, 2*pi), got {self.theta!r}"
            )


def _conjugate_pair(evaluator: GreensEvaluator):
    """The secular matrices at +i*Lambda and -i*Lambda, and Lambda."""
    lam = evaluator.scatterers.lambda_scale
    return evaluator.secular_matrix(1j * lam), evaluator.secular_matrix(-1j * lam), lam


def _extension_matrix(m_plus: np.ndarray, m_minus: np.ndarray) -> np.ndarray:
    """U = -transpose(inverse(m_minus) @ m_plus)."""
    try:
        u = -np.linalg.solve(m_minus, m_plus).T
    except np.linalg.LinAlgError as exc:
        raise IllConditionedExtensionError(
            f"secular matrix at -i*Lambda is singular: {exc}"
        ) from exc
    if not np.all(np.isfinite(u)):
        raise IllConditionedExtensionError(
            "extension matrix has non-finite entries; configuration is degenerate"
        )
    return u


def _gram(m_plus: np.ndarray, m_minus: np.ndarray, lam: float) -> np.ndarray:
    """C = (m_minus - m_plus)/(2i*Lambda), real when its imaginary part is rounding."""
    c = (m_minus - m_plus) / (2j * lam)
    c = c.real if np.max(np.abs(c.imag)) < 1e-12 * np.max(np.abs(c.real)) else c
    return np.asarray(c)


def u_matrix(evaluator: GreensEvaluator) -> np.ndarray:
    """Unitary extension parameter of the evaluator's configuration.

    U = -transpose(inverse(m_minus) @ m_plus) where m_plus/m_minus are the
    secular matrices at +i*Lambda / -i*Lambda. For a single scatterer this
    is exactly the phase -exp(i*theta) at any consistent truncation; for
    several scatterers truncation leaves an intrinsic non-unitary part (the
    exact invariant is the Gram-weighted one, see gram_invariant_defect).
    """
    m_plus, m_minus, _ = _conjugate_pair(evaluator)
    return _extension_matrix(m_plus, m_minus)


def u_phase(evaluator: GreensEvaluator) -> complex:
    """Single-scatterer extension phase (the 1x1 u_matrix entry)."""
    if evaluator.n != 1:
        raise ValidationError("u_phase is defined for a single scatterer only")
    return complex(u_matrix(evaluator)[0, 0])


def unitarity_defect(evaluator: GreensEvaluator) -> float:
    """Max-norm of U^dagger U - 1 for the extension matrix."""
    u = u_matrix(evaluator)
    gram = u.conj().T @ u
    return float(np.max(np.abs(gram - np.eye(u.shape[0]))))


def deficiency_gram(evaluator: GreensEvaluator) -> np.ndarray:
    """Deficiency-vector Gram matrix extracted from the imaginary-axis pair.

    The secular matrix satisfies m(-i*L) - m(+i*L) = 2i*L*C with C real
    symmetric positive definite; C is the Gram matrix of the deficiency
    vectors under the evaluator's truncation and tail policy.
    """
    return _gram(*_conjugate_pair(evaluator))


def gram_invariant_defect(evaluator: GreensEvaluator) -> float:
    """Max-norm of conj(U) C U^T - C, the truncation-stable unitarity relation.

    Unlike the plain unitarity defect this vanishes to rounding at any
    truncation, because it only uses the algebraic structure of the two
    samples (m(+-i*L) = -(A +- i*L*C) with A, C symmetric).
    """
    m_plus, m_minus, lam = _conjugate_pair(evaluator)
    u = _extension_matrix(m_plus, m_minus)
    c = _gram(m_plus, m_minus, lam)
    return float(np.max(np.abs(u.conj() @ c @ u.T - c)))


def hermitian_conjugation_defect(evaluator: GreensEvaluator, omega) -> float:
    """Max-norm of m(omega)^dagger - m(conj(omega)) for the secular matrix.

    Vanishes to rounding: every series term conjugates exactly. Real omega
    must give a real symmetric matrix, so the defect is 0 there.
    """
    w = complex(omega)
    m = evaluator.secular_matrix(w)
    m_conj = evaluator.secular_matrix(w.conjugate())
    return float(np.max(np.abs(np.asarray(m).conj().T - m_conj)))


def inv_coupling_from_angle(evaluator: GreensEvaluator, angle: ExtensionAngle, i: int) -> float:
    """Map a boundary angle to the inverse coupling of scatterer i.

    inv = Lambda * cot(theta/2) * C_i with C_i the tail-corrected deficiency
    norm at scatterer i. theta = pi maps to 0; theta = 0 is the decoupled
    limit (inverse coupling -> +inf) and is rejected, as is any theta so close
    to it that the inverse coupling overflows.
    """
    lam = evaluator.scatterers.lambda_scale
    c_i = evaluator.deficiency_norm_sq(i)
    half = 0.5 * angle.theta
    inv = lam * (math.cos(half) / math.sin(half)) * c_i if half else math.inf
    if not math.isfinite(inv):
        raise ValidationError(
            f"theta = {angle.theta!r} is the decoupled limit (infinite inverse coupling)"
        )
    return inv


def angle_from_inv_coupling(
    evaluator: GreensEvaluator, inv_coupling: float, i: int
) -> ExtensionAngle:
    """Inverse of inv_coupling_from_angle; always lands in (0, 2*pi).

    2*atan2(Lambda*C_i, inv) rounds to 2*pi for inv far below -Lambda*C_i and
    to 0 far above it, so the angle is held to the floats strictly inside.
    """
    if not math.isfinite(inv_coupling):
        raise ValidationError("inverse coupling must be finite")
    lam = evaluator.scatterers.lambda_scale
    c_i = evaluator.deficiency_norm_sq(i)
    theta = 2.0 * math.atan2(lam * c_i, inv_coupling)
    return ExtensionAngle(min(max(theta, math.ulp(0.0)), math.nextafter(2.0 * math.pi, 0.0)))
