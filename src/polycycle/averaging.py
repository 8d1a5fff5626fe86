"""Averaged cycle prediction for the reduced second-order equation.

After the change of variables, z = (H(X))_1 satisfies

    z'' - tau z' + delta z = G2 . lambda_2(z, z') + G3 . lambda_3(z, z') + h.o.t.

Near a Hopf point tau is a small parameter; rescaling time by
sqrt(delta) and amplitude by sqrt(|tau|) puts the equation in weakly
perturbed oscillator form, and first-order averaging of the slow
amplitude/phase flow predicts whether an isolated periodic orbit
exists, its amplitude, frequency and stability.  The quadratic block G2
averages to zero over a period; the cubic block enters through two
moments,

    p3 = -(sqrt(delta)/8) g2 - (3 delta^(3/2)/8) g4,
    q3 = (3/8) g1 + (delta/8) g3,

with (g1, g2, g3, g4) the components of G3.  A cycle exists exactly
when sign(tau) = sign(p3) and p3 != 0.  The damping term of the slow
flow carries the 1/sqrt(delta) factor of the time rescaling, so the
amplitude and frequency are

    r0^2 = sqrt(delta) / (2 |p3|),   w0 = 1 - (tau / (2 sqrt(delta))) (q3 / p3).

When G2 = 0, p3 = -sqrt(delta) l1 with l1 the first Lyapunov
coefficient, so the squared z-amplitude |tau| r0^2 is the classical
|tau| / (2 |l1|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .change_of_variables import ChangeOfVariables
from .inversion import InverseSeries
from .monomials import as_array, as_float, as_scaled, lie_row
from .system import PlanarPolySystem

__all__ = [
    "GCoefficients",
    "KbmPrediction",
    "g_coefficients",
    "p3_q3",
    "predict_cycle",
    "cycle_curve",
]

# Points cycle_curve samples by default, as every report does: the oracle's
# seed and the amplitude that compare() judges are read off them.
CURVE_SAMPLES = 512
# |p3| at or below this is degenerate: first-order averaging cannot
# decide existence, reported distinctly from a clean "no cycle" verdict.
P3_TOL = 1e-12


@dataclass(frozen=True)
class GCoefficients:
    """Quadratic and cubic coefficient rows of the reduced equation."""

    g2: np.ndarray
    g3: np.ndarray


def g_coefficients(
    system: PlanarPolySystem, cov: ChangeOfVariables, inv: InverseSeries
) -> GCoefficients:
    """Quadratic and cubic blocks G2, G3 of the reduced equation.

    Assembled from the solved change of variables, its truncated
    inverse and the original field.  Exact inputs give exact rows: the
    change of variables and the inverse hold their blocks as integer
    numerators over one denominator each
    (:class:`~polycycle.monomials.Scaled`), the field's blocks are split
    the same way, the rows are formed in integer arithmetic, and only G2
    and G3 become Fractions.  Float
    inputs run the same expressions on float64 arrays.  The independent
    check is dynamic: along any trajectory X(t) with z = (H(X))_1, the
    residual z'' - tau z' + delta z - G2.lambda_2 - G3.lambda_3 must
    shrink like the fourth power of the amplitude.
    """
    if not (system.exact and cov.exact and inv.exact):
        system, cov, inv = system.to_float(), cov.to_float(), inv.to_float()
    jac, phi2, phi3 = (as_scaled(b) for b in (system.jac, system.phi_matrix(2), system.phi_matrix(3)))
    gamma, theta2, theta3 = cov.block(1), cov.block(2), cov.block(3)
    xi2, xi3 = inv.blocks[2], inv.blocks[3]
    p2, p3, r2 = inv.p2_op, inv.p3_op, inv.r2_op

    # the chain rule on row 2 of Theta_k: d/dt along the linear field,
    # and along the quadratic one for the cubic terms of Theta_2
    drift2 = lie_row(theta2[1], jac)
    drift3 = lie_row(theta3[1], jac)
    vel_quad = lie_row(theta2[1], phi2)

    g2 = (gamma @ jac @ xi2 + gamma @ phi2 @ p2)[1, :] + p2.T @ drift2
    g3 = (
        (gamma @ jac @ xi3 + gamma @ phi2 @ r2 + gamma @ phi3 @ p3)[1, :]
        + r2.T @ drift2
        + p3.T @ (drift3 + vel_quad)
    )
    return GCoefficients(g2=as_array(g2), g3=as_array(g3))


def p3_q3(g3, delta) -> tuple[float, float]:
    """Averaged cubic moments of G3 on the delta-scaled circle.

    Closed form of the two first-order averaging integrals; the
    quadrature oracle in the tests integrates the defining expressions
    numerically and must agree to 1e-10.
    """
    d = float(delta)
    if d <= 0.0:
        raise ValueError(f"averaging requires delta > 0, got {delta!r}")
    g = [float(x) for x in np.asarray(g3).reshape(-1)]
    if len(g) != 4:
        raise ValueError(f"G3 must have 4 entries, got {len(g)}")
    sd = math.sqrt(d)
    p3 = -(sd / 8.0) * g[1] - (3.0 * d * sd / 8.0) * g[3]
    q3 = (3.0 / 8.0) * g[0] + (d / 8.0) * g[2]
    return p3, q3


@dataclass(frozen=True)
class KbmPrediction:
    """Outcome of first-order averaging at a fixed parameter value.

    ``exists`` is the sign test sign(tau) = sign(p3); when it fails the
    radius, frequency and amplitude fields are None.  ``stability`` is
    ``"stable_supercritical"`` (tau > 0), ``"unstable_subcritical"``
    (tau < 0), or ``"undetermined"`` when p3 vanishes and first-order
    averaging cannot decide existence at all.
    """

    tau: float
    delta: float
    p3: float
    q3: float
    exists: bool
    r0: float | None = None
    omega0: float | None = None
    z_amplitude: float | None = None
    stability: str | None = None

    @property
    def degenerate(self) -> bool:
        return self.stability == "undetermined"

    @property
    def period(self) -> float | None:
        """2 pi / (sqrt(delta) w0), the predicted period; None without a cycle."""
        if not self.exists:
            return None
        return 2.0 * math.pi / (math.sqrt(self.delta) * self.omega0)


def predict_cycle(tau, delta, p3, q3) -> KbmPrediction:
    """Existence, amplitude, frequency and stability from the averages.

    Parameters
    ----------
    tau, delta : float
        Trace and determinant of the Jacobian (delta > 0).
    p3, q3 : float
        Averaged cubic moments from :func:`p3_q3`.
    """
    tau_f, delta_f, p3_f, q3_f = float(tau), float(delta), float(p3), float(q3)
    if delta_f <= 0.0:
        raise ValueError(f"averaging requires delta > 0, got {delta!r}")
    base = dict(tau=tau_f, delta=delta_f, p3=p3_f, q3=q3_f)
    if abs(p3_f) <= P3_TOL:
        return KbmPrediction(exists=False, stability="undetermined", **base)
    if tau_f == 0.0 or (tau_f > 0.0) != (p3_f > 0.0):
        return KbmPrediction(exists=False, **base)
    sd = math.sqrt(delta_f)
    r0 = math.sqrt(sd / (2.0 * abs(p3_f)))
    return KbmPrediction(
        exists=True,
        r0=r0,
        omega0=1.0 - (tau_f / (2.0 * sd)) * (q3_f / p3_f),
        z_amplitude=math.sqrt(abs(tau_f)) * r0,
        stability="stable_supercritical" if tau_f > 0.0 else "unstable_subcritical",
        **base,
    )


def cycle_curve(cov: ChangeOfVariables, prediction: KbmPrediction, sample_count: int = CURVE_SAMPLES) -> np.ndarray:
    """Sample the predicted cycle back in the original coordinates.

    The averaged solution is z = sqrt(|tau|) r0 sin(sqrt(delta) w0 t)
    with its derivative as the second scalar coordinate; mapping the
    pair through Gamma^{-1} gives the orbit to leading order.  Returns
    an array of rows (t, x1, x2) covering one period.
    """
    if not prediction.exists:
        raise ValueError("cycle_curve needs a prediction with exists=True")
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    if prediction.omega0 is None or prediction.omega0 <= 0.0:
        raise ValueError(f"predicted frequency is not positive: {prediction.omega0!r}")
    ginv = np.linalg.inv(as_float(cov.block(1)))
    amp = prediction.z_amplitude
    rate = math.sqrt(prediction.delta) * prediction.omega0
    t = prediction.period * np.arange(sample_count) / sample_count
    z = amp * np.sin(rate * t)
    zdot = amp * rate * np.cos(rate * t)
    x1 = ginv[0, 0] * z + ginv[0, 1] * zdot
    x2 = ginv[1, 0] * z + ginv[1, 1] * zdot
    return np.column_stack([t, x1, x2])
