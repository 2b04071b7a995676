"""Period frames of the deformed flat connection in the spectral plane.

A period frame packs the fundamental solutions I^(m)(lambda), column a
holding the twisted period of the flat coordinate vector e_a.  Frames
are assembled from the calibration series at large positive lambda
and transported along polylines.  At the end of a reference path the
twisted reflection vector is read off against the local Laurent
expansion at the target; loops around spectral points give the
monodromies these vectors generate.  The twisted pairing h_m is a
closed-form twist of the Euler pairing.  Every frame carries the branch
of log(lambda) at its endpoint, so that spiral factors are always
attributable.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .frobenius import calibration_series, canonical_data, rmatrix_series
from .numerics import LogBranchPoint, calibrated_periods, continue_linear_ode, rgamma
from .paths import PathPlan, _min_gap

TWO_PI = 2.0 * math.pi

_TAIL_TOL = 1e-14
_SERIES_CAP = 150
_LAURENT_ORDER = 60


@dataclass(frozen=True)
class PeriodFrame:
    """Fundamental period matrix at one point, with the branch of
    log(lambda) there."""

    value: np.ndarray
    at: LogBranchPoint
    m: complex
    model: object

    def __post_init__(self):
        value = np.asarray(self.value, dtype=complex)
        value.setflags(write=False)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "m", complex(self.m))


@dataclass(frozen=True)
class ReflectionVector:
    """Twisted reflection vector in flat coordinates."""

    beta: np.ndarray
    path: PathPlan
    m_tag: complex

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=complex)
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class LocalLaurentFrame:
    """Truncated fractional Laurent expansion of a period near u_i.

    Term k is coefficients[k] * (lambda - center)^(k - m - 1/2); the
    branch of the fractional power is supplied at evaluation time.
    """

    center: complex
    m: complex
    coefficients: np.ndarray

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=complex)
        coeff.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "m", complex(self.m))
        object.__setattr__(self, "center", complex(self.center))

    def eval(self, branch):
        """Value at lambda = center + branch.value on the given branch."""
        out = np.zeros(self.coefficients.shape[1], dtype=complex)
        for k in range(len(self.coefficients)):
            out += self.coefficients[k] * cmath.exp((k - self.m - 0.5) * branch.log)
        return out


def _spectrum(model):
    return np.linalg.eigvals(model.euler.astype(complex))


def _ode_rhs(model, m):
    eye = np.eye(model.dim)
    num = model.theta - (complex(m) + 0.5) * eye
    a = model.euler.astype(complex)

    def rhs(lam):
        return np.linalg.solve(lam * eye - a, num)

    return rhs


def base_frame(model, m, lambda0, order=_SERIES_CAP):
    """Period frame at a large positive lambda0 on the principal branch.

    The calibration series is summed until, in every column, two
    consecutive terms drop below 1e-14 times the column's largest
    entry; `order` caps the truncation.  Requires lambda0 beyond twice
    the spectral radius, where the series converges geometrically.
    """
    m = complex(m)
    lam0 = float(lambda0)
    umax = float(np.abs(_spectrum(model)).max())
    if not lam0 > 2.0 * umax:
        raise ValueError(
            "base value %g must exceed twice the spectral radius %g" % (lam0, umax)
        )
    lam = LogBranchPoint.principal(lam0)
    series = calibration_series(model, int(order))
    periods = calibrated_periods(model.theta, model.rho, m, lam)
    total = np.zeros((model.dim, model.dim), dtype=complex)
    last = None
    for k, (s, period) in enumerate(zip(series, periods)):
        term = (-1) ** k * (s @ period)
        total += term
        size = np.abs(term).max(axis=0)
        if last is not None:
            ref = _TAIL_TOL * np.abs(total).max(axis=0)
            if np.all(np.maximum(size, last) <= ref):
                return PeriodFrame(total, lam, m, model)
        last = size
    raise RuntimeError(
        "period series tail above %g after %d terms at lambda0=%g; "
        "raise order or lambda0" % (_TAIL_TOL, len(series), lam0)
    )


def continue_frame(frame, points):
    """Transport a period frame along a polyline of lambda values.

    The polyline must start at the frame's point; the branch of
    log(lambda) is carried along it to the endpoint.
    """
    pts = np.asarray(points, dtype=complex)
    scale = max(1.0, abs(frame.at.value))
    if abs(complex(pts[0]) - frame.at.value) > 1e-9 * scale:
        raise ValueError("path does not start at the frame's point")
    u = _spectrum(frame.model)
    rhs = _ode_rhs(frame.model, frame.m)
    value = continue_linear_ode(rhs, frame.value, pts, singularities=u)
    darg = float(np.angle(pts[1:] / pts[:-1]).sum())
    end = complex(pts[-1])
    at = LogBranchPoint(end, complex(math.log(abs(end)), frame.at.log.imag + darg))
    return PeriodFrame(value, at, frame.m, frame.model)


def loop_monodromy(model, m, base, points):
    """Monodromy matrix of a closed polyline, acting on the right.

    The continued frame equals base.value @ M, so composing loops
    multiplies their matrices in reverse traversal order.
    """
    if abs(complex(m) - base.m) > 1e-12:
        raise ValueError("m does not match the base frame")
    pts = np.asarray(points, dtype=complex)
    scale = max(1.0, abs(base.at.value))
    if abs(complex(pts[0]) - base.at.value) > 1e-9 * scale:
        raise ValueError("loop does not start at the frame's point")
    if abs(complex(pts[-1]) - complex(pts[0])) > 1e-9 * scale:
        raise ValueError("loop is not closed")
    if np.linalg.cond(base.value) > 1e12:
        raise RuntimeError(
            "period frame is singular at m=%s; extract monodromy at m shifted "
            "by a negative integer instead" % base.m
        )
    cont = continue_frame(base, pts)
    return np.linalg.solve(base.value, cont.value)


def _half_integer(m):
    z = complex(m) - 0.5
    return abs(z - round(z.real)) < 1e-9


def reflection_vector(model, m, path):
    """Twisted reflection vector attached to a reference path.

    I(lambda) beta is the period with the local form
    (lambda - u_i)^(-m-1/2) (holomorphic) and the canonical leading
    coefficient, so beta solves I(lambda_e) beta = L_i(lambda_e), where
    I is the period frame continued to the path's end lambda_e and L_i
    the Laurent expansion at the target u_i, which converges out to the
    nearest other spectral point; the path must end within half the
    smallest distance between two spectral points.  The extraction runs
    at m shifted down by an integer, where the frame is invertible; beta
    does not depend on that shift.
    """
    m = complex(m)
    if _half_integer(m):
        raise ValueError("reflection vectors are undefined at half-integer m")
    # the loop monodromy has eigenvalues -q^-2 (once) and 1
    gap = abs(1.0 + cmath.exp(-2j * math.pi * m))
    if gap < 1e-4:
        raise RuntimeError(
            "monodromy eigenvalues cluster within %g; move m away from "
            "half-integers" % gap
        )
    i = int(path.target_index)
    if not 0 <= i < model.dim:
        raise ValueError("path has no spectral target")
    u = canonical_data(model, model.base_point).u
    standoff = abs(path.end_log_branch.value)
    if standoff > 0.5 * _min_gap(u):
        raise ValueError(
            "path ends %.3g from its target, beyond half the smallest "
            "distance between spectral points" % standoff
        )
    # shift m so every exponent of theta stays right of the Gamma poles
    re_min = float(np.min(model.theta_eigenvalues.real))
    k0 = max(0, math.floor(m.real - re_min - 0.5) + 1)
    m_eff = m - k0
    near = continue_frame(base_frame(model, m_eff, float(path.base_value)), path.waypoints)
    local = local_laurent_frame(model, i, m_eff, _LAURENT_ORDER)
    beta = np.linalg.solve(near.value, local.eval(path.end_log_branch))
    return ReflectionVector(beta, path, m)


def _unipotent_exp(rho, sign):
    """exp(sign i pi rho) of a nilpotent rho as a finite sum."""
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0]
    out = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, n):
        term = term @ (sign * 1j * math.pi * rho) / k
        out = out + term
    return out


def _twist_factors(model, sign):
    """The factors e^{sign i pi theta} and e^{sign i pi rho}."""
    exp_theta = np.diag(np.exp(sign * 1j * math.pi * model.theta_eigenvalues))
    return exp_theta, _unipotent_exp(model.rho, sign)


def euler_matrix(model):
    """Gram matrix of the Euler pairing on the flat coordinate basis,
    g e^{i pi theta} e^{i pi rho} / 2 pi, exact and finite."""
    exp_theta, exp_rho = _twist_factors(model, +1.0)
    g = np.asarray(model.pairing, dtype=complex)
    return g @ exp_theta @ exp_rho / TWO_PI


def hm_matrix(model, m):
    """Gram matrix of h_m on the flat coordinate basis: q E + E^T / q.

    Here q = e^{i pi m} and E = euler_matrix(model), so h_m(a, b) is
    a @ hm_matrix(model, m) @ b.  h_m does not depend on lambda, and its
    leading term at infinity involves only g, theta and rho, which gives
    this closed form.
    """
    q = cmath.exp(1j * math.pi * complex(m))
    e = euler_matrix(model)
    return q * e + e.T / q


def dual_reflection_basis(model, m, betas):
    """Vectors dual to the given reflection vectors under h_m.

    Accepts ReflectionVector instances or bare arrays.  Raises when h_m
    is degenerate on the span (an exceptional m) or when the duality
    residual cannot be met.
    """
    cols = np.column_stack(
        [np.asarray(getattr(b, "beta", b), dtype=complex) for b in betas]
    )
    if cols.shape != (model.dim, model.dim):
        raise ValueError("need exactly dim reflection vectors")
    gram = hm_matrix(model, m) @ cols
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > 1e10:
        raise ValueError("h_m is degenerate at m=%s" % m)
    duals = np.linalg.solve(gram.T, np.eye(model.dim))
    resid = float(np.abs(duals.T @ gram - np.eye(model.dim)).max())
    if resid > 1e-8:
        raise RuntimeError("duality residual %.3g exceeds 1e-8" % resid)
    return [duals[:, i] for i in range(model.dim)]


def local_laurent_frame(model, i, m, order):
    """Fractional Laurent expansion of the period column at u_i.

    Coefficient k is sqrt(2 pi) (-1)^k Psi R_k e_i / Gamma(k - m + 1/2),
    paired with the exponent k - m - 1/2.
    """
    m = complex(m)
    sd = canonical_data(model, model.base_point)
    rs = rmatrix_series(model, int(order))
    rows = []
    for k, r in enumerate(rs):
        coeff = math.sqrt(TWO_PI) * (-1) ** k * rgamma(k - m + 0.5)
        rows.append(coeff * (sd.psi @ r)[:, int(i)])
    return LocalLaurentFrame(complex(sd.u[int(i)]), m, np.array(rows))
