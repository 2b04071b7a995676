"""Low-level numerical kernels shared by the rest of the package.

Plain double-precision complex arithmetic throughout: truncated jets
for parameter derivatives, the reciprocal Gamma function, operator
powers with an explicit logarithm branch, calibrated period blocks and
an adaptive Runge-Kutta driver for linear ODEs along polylines in the
complex plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Jet",
    "LogBranchPoint",
    "complex_gamma",
    "rgamma",
    "operator_power",
    "calibrated_period",
    "calibrated_periods",
    "continue_linear_ode",
]

_LOG_2PI = math.log(2.0 * math.pi)


class Jet:
    """Truncated Taylor polynomial a_0 + a_1 eps + ... in one variable.

    Coefficients are Taylor coefficients (derivatives already divided
    by the factorial).  The truncation order is fixed at construction;
    mixing jets of different orders is an error, scalars promote.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("jet coefficients must be a non-empty 1-d array")
        self.c = c

    @classmethod
    def variable(cls, value, order):
        c = np.zeros(order, dtype=complex)
        c[0] = value
        if order > 1:
            c[1] = 1.0
        return cls(c)

    @property
    def order(self):
        return self.c.size

    @property
    def value(self):
        return complex(self.c[0])

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError("jet orders differ")
            return other
        c = np.zeros(self.order, dtype=complex)
        c[0] = other
        return Jet(c)

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.c + other.c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return Jet(np.convolve(self.c, other.c)[: self.order])

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("jet powers must be non-negative integers")
        out = self._coerce(1.0)
        for _ in range(k):
            out = out * self
        return out

    def reciprocal(self):
        a0 = self.c[0]
        if a0 == 0:
            raise ZeroDivisionError("jet has zero constant term")
        b = np.zeros(self.order, dtype=complex)
        b[0] = 1.0 / a0
        for k in range(1, self.order):
            b[k] = -np.dot(self.c[1 : k + 1], b[k - 1 :: -1]) / a0
        return Jet(b)

    def exp(self):
        n = self.c.copy()
        a0 = n[0]
        n[0] = 0.0
        nil = Jet(n)
        out = self._coerce(1.0)
        term = self._coerce(1.0)
        for k in range(1, self.order):
            term = term * nil * (1.0 / k)
            out = out + term
        return out * cmath.exp(a0)

    def log(self):
        a0 = self.c[0]
        if a0 == 0:
            raise ZeroDivisionError("log of jet with zero constant term")
        u = Jet(self.c / a0)
        n = u - 1.0
        out = self._coerce(cmath.log(a0))
        term = self._coerce(1.0)
        for k in range(1, self.order):
            term = term * n
            out = out + term * ((-1.0) ** (k + 1) / k)
        return out

    def sin(self):
        e = (self * 1j).exp()
        return (e - e.reciprocal()) * (-0.5j)

    def __repr__(self):
        return "Jet({})".format(np.array2string(self.c, separator=", "))


def _value(x):
    return x.value if isinstance(x, Jet) else complex(x)


def _exp(x):
    return x.exp() if isinstance(x, Jet) else cmath.exp(x)


def _log(x):
    return x.log() if isinstance(x, Jet) else cmath.log(x)


def _sin(x):
    return x.sin() if isinstance(x, Jet) else cmath.sin(x)


# Bernoulli numbers B_2 .. B_20.  With the argument shifted to
# Re(w) >= 12 the truncated Stirling tail sits below 1e-15 relative.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
)

_STIRLING_EDGE = 12.0


def _log_gamma_stirling(w):
    """Stirling series for log Gamma; needs Re(w) >= _STIRLING_EDGE."""
    out = (w - 0.5) * _log(w) - w + 0.5 * _LOG_2PI
    winv = 1.0 / w
    w2 = winv * winv
    p = winv
    for k, b in enumerate(_BERNOULLI, start=1):
        out = out + p * (b / ((2 * k) * (2 * k - 1)))
        p = p * w2
    return out


def rgamma(z):
    """Reciprocal Gamma function 1/Gamma(z). Entire, so no poles.

    Accepts complex scalars and jets (the jet carries Taylor data in
    the argument).  For Re(z) < 1/2 the reflection formula routes the
    evaluation to the right half plane.
    """
    z0 = _value(z)
    if z0.real < 0.5:
        # 1/Gamma(z) = sin(pi z) Gamma(1 - z) / pi
        return _sin(z * math.pi) * (1.0 / math.pi) / rgamma(1.0 - z)
    shift = int(max(0, math.ceil(_STIRLING_EDGE - z0.real)))
    lg = _log_gamma_stirling(z + shift)
    out = _exp(-lg)
    for j in range(shift):
        out = out * (z + j)
    return out


def complex_gamma(z):
    """Gamma(z) for a complex scalar; raises at non-positive integers."""
    z = complex(z)
    k = round(z.real)
    if k <= 0 and abs(z - k) < 1e-14:
        raise ValueError("Gamma pole at non-positive integer {}".format(k))
    return 1.0 / rgamma(z)


@dataclass(frozen=True)
class LogBranchPoint:
    """A nonzero complex number together with a chosen logarithm."""

    value: complex
    log: complex

    def __post_init__(self):
        if abs(cmath.exp(self.log) - self.value) > 1e-12 * max(1.0, abs(self.value)):
            raise ValueError("log field is not a logarithm of value")

    @classmethod
    def principal(cls, value):
        value = complex(value)
        return cls(value, cmath.log(value))

    @classmethod
    def from_polar(cls, radius, angle):
        # angle is a lifted (real) angle; it fixes the branch directly
        return cls(radius * cmath.exp(1j * angle), complex(math.log(radius), angle))

    def rotated(self, dphi):
        return LogBranchPoint(self.value * cmath.exp(1j * dphi), self.log + 1j * dphi)

    def __complex__(self):
        return complex(self.value)


def _eigenframe(theta):
    """Eigenvalues of theta plus (vecs, inv) frame, or (None, None) if diagonal."""
    theta = np.asarray(theta, dtype=complex)
    off = theta - np.diag(np.diagonal(theta))
    if not off.any():
        return np.diagonal(theta).astype(complex), None, None
    vals, vecs = np.linalg.eig(theta)
    try:
        inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        raise ValueError("operator is not diagonalizable") from None
    scale = max(1.0, np.abs(theta).max())
    if np.abs(vecs @ np.diag(vals) @ inv - theta).max() > 1e-9 * scale:
        raise ValueError("eigenframe too ill-conditioned to trust")
    return vals, vecs, inv


def _nilpotent_powers(rho, dim):
    """[rho^0, rho^1, ...] stopping at the first (numerically) zero power."""
    rho = np.asarray(rho, dtype=complex)
    powers = [np.eye(dim, dtype=complex)]
    scale = max(1.0, np.abs(rho).max())
    p = np.eye(dim, dtype=complex)
    for k in range(1, dim + 1):
        p = p @ rho
        if np.abs(p).max() <= 1e-13 * scale**k:
            return powers
        powers.append(p.copy())
    raise ValueError("operator is not nilpotent")


def operator_power(lam, theta, rho):
    """lambda^theta * lambda^(-rho) with the branch carried by lam.

    theta must be diagonalizable, rho nilpotent; the rho factor is the
    finite sum exp(-rho log lambda).
    """
    theta = np.asarray(theta, dtype=complex)
    dim = theta.shape[0]
    vals, vecs, vinv = _eigenframe(theta)
    L = lam.log
    diag = np.diag(np.exp(vals * L))
    left = diag if vecs is None else vecs @ diag @ vinv
    right = np.zeros((dim, dim), dtype=complex)
    for l, rp in enumerate(_nilpotent_powers(rho, dim)):
        right += ((-L) ** l / math.factorial(l)) * rp
    return left @ right


def calibrated_periods(theta, rho, m, lam):
    """Calibrated period operators at m, m + 1, m + 2, ... in turn.

    The operator at m is
    e^{-rho d_lambda d_m}(lambda^(theta-m-1/2)/Gamma(theta-m+1/2)), a
    finite sum over powers of the nilpotent rho.  With s = a - m - 1/2
    for an eigenvalue a of theta and eps the jet variable in m, the
    lambda-derivatives f_j = lambda^(s-j-eps)/Gamma(s-j-eps+1) obey
    f_{j+1} = (s - j - eps) f_j / lambda, and the operator at m + k
    reads coefficient l of f_{k+l} against rho^l.  So one Stirling jet
    per eigenvalue serves every term.  Uses reciprocal Gamma, so integer
    spectra are fine (entries just vanish).
    """
    theta = np.asarray(theta, dtype=complex)
    dim = theta.shape[0]
    vals, vecs, vinv = _eigenframe(theta)
    rho_pows = _nilpotent_powers(rho, dim)
    order = len(rho_pows)
    L = lam.log
    s = vals - 0.5 - complex(m)
    eps = Jet.variable(0.0, order)
    f0 = [((complex(a) - eps) * L).exp() * rgamma(complex(a) - eps + 1.0) for a in s]
    # window[l] holds the jets f_{k+l}, one row per eigenvalue, and f_j
    # is its last entry; it runs one jet ahead of the term
    window = [np.array([f.c for f in f0])]
    inv_lam = cmath.exp(-L)
    j = 0
    while True:
        while len(window) <= order:
            f = window[-1]
            nxt = (s - j)[:, None] * f
            nxt[:, 1:] -= f[:, :-1]
            window.append(nxt * inv_lam)
            j += 1
        total = np.zeros((dim, dim), dtype=complex)
        for l, rp in enumerate(rho_pows):
            block = np.diag(window[l][:, l])
            if vecs is not None:
                block = vecs @ block @ vinv
            total += (-1.0) ** l * (rp @ block)
        yield total
        window.pop(0)


def calibrated_period(theta, rho, m, lam):
    """Calibrated period operator at a branch point: the first term of
    calibrated_periods."""
    return next(calibrated_periods(theta, rho, m, lam))


# Dormand-Prince 5(4) tableau (FSAL: last stage is the next first stage).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_DP_ERR = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))


def continue_linear_ode(rhs, y0, path, tol=1e-10, singularities=(), min_clearance=None):
    """Continue y' = rhs(lambda) . y along a polyline of complex points.

    Adaptive embedded 5(4) pair with mixed absolute/relative local error
    control at tol.  Steps never exceed half the distance to the nearest
    listed singularity, and the path must keep min_clearance away from
    all of them (default 1e-3 times the singularity spread).
    """
    y = np.array(y0, dtype=complex)
    pts = [complex(p) for p in path]
    sing = np.asarray(list(singularities), dtype=complex)
    if min_clearance is None:
        if sing.size >= 2:
            spread = max(abs(a - b) for a in sing for b in sing)
            min_clearance = 1e-3 * spread
        else:
            min_clearance = 0.0

    for start, end in zip(pts, pts[1:]):
        dlam = end - start
        seg = abs(dlam)
        if seg == 0.0:
            continue
        tau = 0.0
        h = 0.1
        k = [None] * 7
        k[0] = dlam * (rhs(start) @ y)
        while tau < 1.0:
            lam_here = start + tau * dlam
            if sing.size:
                dist = np.abs(sing - lam_here).min()
                if dist < min_clearance:
                    raise RuntimeError(
                        "path point {:.6g}{:+.6g}i violates singularity clearance".format(
                            lam_here.real, lam_here.imag
                        )
                    )
                h = min(h, 0.5 * dist / seg)
            h = min(h, 1.0 - tau)
            if h < 1e-14:
                raise RuntimeError("step size underflow during continuation")
            for i in range(1, 7):
                yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]) if a != 0.0)
                k[i] = dlam * (rhs(start + (tau + _DP_C[i] * h) * dlam) @ yi)
            ynew = y + h * sum(b * k[i] for i, b in enumerate(_DP_B5) if b != 0.0)
            err_vec = h * sum(e * k[i] for i, e in enumerate(_DP_ERR) if e != 0.0)
            # local target sits well below tol so the accumulated error
            # over a few hundred steps stays within a small multiple of it
            scale = 0.05 * (tol + tol * np.maximum(np.abs(y), np.abs(ynew)))
            err = math.sqrt(np.mean(np.abs(err_vec / scale) ** 2))
            if err <= 1.0:
                tau += h
                y = ynew
                k[0] = k[6]  # FSAL
                grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
                h *= grow
            else:
                h *= max(0.2, 0.9 * err**-0.2)
    return y
