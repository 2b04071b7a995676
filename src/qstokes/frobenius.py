"""Frobenius-manifold models at a fixed semisimple point.

Built-in small quantum cohomology of projective spaces, user-loaded
constant models, canonical coordinate data, the calibration series and
the Givental R-matrix series.
"""

from __future__ import annotations

import cmath
import json

import numpy as np

from .numerics import _nilpotent_powers
from .paths import _min_gap

__all__ = [
    "ModelValidationError",
    "FrobeniusModel",
    "SemisimpleData",
    "qh_projective_space",
    "load_model",
    "save_model",
    "canonical_data",
    "calibration_series",
    "rmatrix_series",
]


class ModelValidationError(ValueError):
    """A model file or constructor input violates a structure axiom."""


def _resid(x):
    return float(np.abs(x).max())


class FrobeniusModel:
    """A conformal Frobenius structure frozen at one base point.

    The grading operator is diagonal in the model basis, rho is
    nilpotent with [theta, rho] = -rho, and all multiplication data
    (structure constants, Euler multiplication, calibration) refers to
    the base point; the model does not move in t.
    """

    def __init__(
        self,
        dim,
        conformal_dim,
        pairing,
        theta_eigenvalues,
        rho,
        structure_constants,
        euler_multiplication,
        base_point,
        calibration=None,
        name="model",
    ):
        self.dim = int(dim)
        self.conformal_dim = complex(conformal_dim)
        self.pairing = np.array(pairing, dtype=complex)
        self.theta_eigenvalues = np.array(theta_eigenvalues, dtype=complex)
        self.theta = np.diag(self.theta_eigenvalues)
        self.rho = np.array(rho, dtype=complex)
        self.structure = np.array(structure_constants, dtype=complex)
        self.euler = np.array(euler_multiplication, dtype=complex)
        self.base_point = np.array(base_point, dtype=complex)
        if calibration is None:
            calibration = [np.eye(self.dim)]
        self._calibration = [np.array(s, dtype=complex) for s in calibration]
        self.name = name
        self._validate()

    # -- structure axioms ------------------------------------------------

    def _validate(self):
        n = self.dim
        g = self.pairing
        shapes = {
            "pairing": (g, (n, n)),
            "theta_eigenvalues": (self.theta_eigenvalues, (n,)),
            "rho": (self.rho, (n, n)),
            "structure_constants": (self.structure, (n, n, n)),
            "euler_multiplication": (self.euler, (n, n)),
            "base_point": (self.base_point, (n,)),
        }
        for key, (arr, want) in shapes.items():
            if arr.shape != want:
                raise ModelValidationError(
                    "field {} has shape {}, expected {}".format(key, arr.shape, want)
                )
        scale = max(1.0, _resid(g))
        r = _resid(g - g.T)
        if r > 1e-12 * scale:
            raise ModelValidationError(
                "(F1) pairing must be symmetric (residual {:.3g})".format(r)
            )
        if abs(np.linalg.det(g)) < 1e-12 * scale**n:
            raise ModelValidationError("(F1) pairing must be non-degenerate")
        ops = self.mult()
        r = _resid(ops[0] - np.eye(n))
        if r > 1e-12:
            raise ModelValidationError(
                "(F3) first basis vector must be the unit of the algebra "
                "(residual {:.3g})".format(r)
            )
        op_scale = max(1.0, max(_resid(a) for a in ops))
        for i, a in enumerate(ops):
            ga = g @ a
            r = _resid(ga - ga.T)
            if r > 1e-12 * op_scale * scale:
                raise ModelValidationError(
                    "(F2) multiplication by basis vector {} is not "
                    "self-adjoint for the pairing (residual {:.3g})".format(i, r)
                )
        comm = self.theta @ self.rho - self.rho @ self.theta
        r = _resid(comm + self.rho)
        if r > 1e-12 * max(1.0, _resid(self.rho)):
            raise ModelValidationError(
                "[theta, rho] = -rho fails (residual {:.3g})".format(r)
            )
        r = _resid(g @ self.theta + self.theta.T @ g)
        if r > 1e-12 * scale:
            raise ModelValidationError(
                "grading operator is not skew for the pairing (residual {:.3g})".format(r)
            )
        try:
            _nilpotent_powers(self.rho, n)
        except ValueError:
            raise ModelValidationError("rho is not nilpotent") from None
        stored = self._calibration
        if not stored or any(s.shape != (n, n) for s in stored):
            raise ModelValidationError(
                "calibration terms must be {0}x{0} matrices".format(n)
            )
        r = _resid(stored[0] - np.eye(n))
        if r > 1e-12:
            raise ModelValidationError(
                "calibration must start with S_0 = 1 (residual {:.3g})".format(r)
            )
        for k in range(1, len(stored)):
            try:
                want, free = self._calibration_step(stored[k - 1], k)
            except RuntimeError as exc:
                raise ModelValidationError(str(exc)) from None
            r = _resid(np.where(free, 0.0, stored[k] - want))
            if r > 1e-10 * max(1.0, _resid(want)):
                raise ModelValidationError(
                    "stored calibration term {} breaks the grading recursion "
                    "(residual {:.3g})".format(k, r)
                )

    def _check_point(self, t):
        t = np.asarray(t, dtype=complex)
        if t.shape != (self.dim,) or _resid(t - self.base_point) > 1e-12:
            raise ValueError(
                "model data is only available at its base point {}".format(
                    self.base_point
                )
            )

    # -- data accessors --------------------------------------------------

    def mult(self):
        """Operators of multiplication by the basis vectors."""
        return [self.structure[i].T.copy() for i in range(self.dim)]

    def calibration(self, order):
        """Calibration matrices [S_0 = 1, S_1, ..., S_order].

        Terms past the stored prefix follow from the grading recursion
        (ad_theta + k) S_k = (E.) S_{k-1} - S_{k-1} rho, whose entry factor
        at row r, column c is theta_r - theta_c + k.  Kernel slots (factor
        0) of new terms are set to zero, as on P^n, where those
        q-degree-zero slots carry no two-point invariants; a model that
        needs other values there stores its terms through the last kernel
        slot.  Extensions are kept on the model.
        """
        stored = self._calibration
        while len(stored) <= order:
            term, free = self._calibration_step(stored[-1], len(stored))
            stored.append(np.where(free, 0.0, term))
        return [s.copy() for s in stored[: order + 1]]

    def _calibration_step(self, prev, k):
        """S_k off the kernel slots, and the mask of the kernel slots.

        The recursion leaves S_k free where the entry factor vanishes,
        but its right-hand side must vanish there.
        """
        rhs = self.euler @ prev - prev @ self.rho
        factor = self.theta_eigenvalues[:, None] - self.theta_eigenvalues[None, :] + k
        free = np.abs(factor) < 1e-12
        bad = free & (np.abs(rhs) > 1e-10 * max(1.0, _resid(rhs)))
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise RuntimeError(
                "calibration recursion inconsistent in the kernel "
                "slot ({}, {}) at order {}".format(r, c, k)
            )
        return rhs / np.where(free, 1.0, factor), free


def qh_projective_space(n, q):
    """Small quantum cohomology of P^n as a FrobeniusModel.

    Basis (1, p, ..., p^n) with p the hyperplane class: the pairing is
    anti-diagonal, p-multiplication is cyclic with q in the corner,
    theta(p^k) = (n/2 - k) p^k, rho is (n+1) times the classical cup
    product with p and the Euler multiplication is (n+1) A_p.
    """
    if not isinstance(n, int) or not 1 <= n <= 8:
        raise ValueError("n must be an integer between 1 and 8")
    q = complex(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    dim = n + 1
    a_p = np.zeros((dim, dim), dtype=complex)
    for k in range(n):
        a_p[k + 1, k] = 1.0
    a_p[0, n] = q
    powers = [np.eye(dim, dtype=complex)]
    for _ in range(n):
        powers.append(a_p @ powers[-1])
    structure = np.array([p.T for p in powers])
    pairing = np.fliplr(np.eye(dim)).astype(complex)
    theta_eigs = np.array([n / 2.0 - k for k in range(dim)], dtype=complex)
    rho = np.zeros((dim, dim), dtype=complex)
    for k in range(n):
        rho[k + 1, k] = dim
    euler = dim * a_p
    model = FrobeniusModel(
        dim=dim,
        conformal_dim=n,
        pairing=pairing,
        theta_eigenvalues=theta_eigs,
        rho=rho,
        structure_constants=structure,
        euler_multiplication=euler,
        base_point=np.zeros(dim),
        name="P{}(q={})".format(n, q),
    )
    return model


# -- model files ---------------------------------------------------------

_SCHEMA_KEYS = (
    "dim",
    "conformal_dim",
    "pairing",
    "theta_eigenvalues",
    "rho",
    "structure_constants",
    "euler_multiplication",
    "calibration",
    "base_point",
)


def _encode(value):
    arr = np.asarray(value, dtype=complex)
    if arr.ndim == 0:
        return [float(arr.real), float(arr.imag)]
    return [_encode(sub) for sub in arr]


def _decode(value):
    value = np.asarray(value, dtype=float)
    if value.shape[-1] != 2:
        raise ModelValidationError("numbers must be [re, im] pairs")
    # view, not re + 1j*im: arithmetic would flip the sign of -0.0 and
    # break the bit-exact round trip
    return np.ascontiguousarray(value).view(np.complex128)[..., 0]


def save_model(model, path):
    """Write a model file; numbers are stored as [re, im] pairs.

    The calibration is stored through order dim + 4, past every kernel
    slot of a P^n-like grading, and a reload extends it by the same
    recursion.
    """
    order = model.dim + 4
    doc = {
        "dim": model.dim,
        "conformal_dim": _encode(model.conformal_dim),
        "pairing": _encode(model.pairing),
        "theta_eigenvalues": _encode(model.theta_eigenvalues),
        "rho": _encode(model.rho),
        "structure_constants": _encode(model.structure),
        "euler_multiplication": _encode(model.euler),
        "calibration": [_encode(s) for s in model.calibration(order)],
        "base_point": _encode(model.base_point),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Load and validate a model file written by save_model.

    The document is JSON with the fields dim, conformal_dim, pairing,
    theta_eigenvalues, rho, structure_constants, euler_multiplication,
    calibration and base_point; every number is a [re, im] pair and
    floats round-trip bit-exactly.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    missing = [k for k in _SCHEMA_KEYS if k not in doc]
    if missing:
        raise ModelValidationError("model file missing fields: {}".format(missing))
    try:
        cal = [np.atleast_2d(_decode(s)) for s in doc["calibration"]]
        model = FrobeniusModel(
            dim=int(doc["dim"]),
            conformal_dim=complex(_decode(doc["conformal_dim"])),
            pairing=_decode(doc["pairing"]),
            theta_eigenvalues=_decode(doc["theta_eigenvalues"]),
            rho=_decode(doc["rho"]),
            structure_constants=_decode(doc["structure_constants"]),
            euler_multiplication=_decode(doc["euler_multiplication"]),
            base_point=np.atleast_1d(_decode(doc["base_point"])),
            calibration=cal,
        )
    except (TypeError, IndexError) as exc:
        raise ModelValidationError("malformed model file: {}".format(exc)) from None
    return model


# -- canonical coordinates ----------------------------------------------


class SemisimpleData:
    """Eigendata of the Euler multiplication at a semisimple point."""

    def __init__(self, u, psi, psi_inv):
        self.u = u
        self.psi = psi
        self.psi_inv = psi_inv


def canonical_data(model, t):
    """Canonical coordinates u_i and the Psi frame at the base point t.

    Eigenvalues come out sorted by (Re, Im); column i of Psi is
    sqrt(Delta_i) times the idempotent of u_i, with the square-root
    branch chosen so the largest-modulus entry of the column has
    argument in (-pi/2, pi/2].  Psi^t g Psi = 1, so psi_inv is Psi^t g.
    """
    model._check_point(t)
    euler = model.euler
    vals, vecs = np.linalg.eig(euler)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vecs = vecs[:, order]
    dim = model.dim
    scale = max(np.abs(vals).max(), 1e-30)
    gap = _min_gap(vals)
    if gap <= 1e-8 * scale:
        raise RuntimeError(
            "Euler eigenvalues collide (caustic): min gap {:.3g}".format(gap)
        )
    ops = model.mult()
    g = model.pairing
    cols = []
    for i in range(dim):
        v = vecs[:, i]
        mv = sum(v[a] * ops[a] for a in range(dim))
        w = mv @ v
        j = int(np.argmax(np.abs(v)))
        c = w[j] / v[j]
        if _resid(w - c * v) > 1e-9 * max(1.0, abs(c)):
            raise RuntimeError("eigenvector {} is not multiplicative".format(i))
        idem = v / c
        pair = complex(idem @ g @ idem)
        col = idem / cmath.sqrt(pair)
        k = int(np.argmax(np.abs(col)))
        z = col[k]
        tol = 1e-13 * abs(z)
        if z.real < -tol or (abs(z.real) <= tol and z.imag < 0):
            col = -col
        cols.append(col)
    psi = np.column_stack(cols)
    if _resid(euler @ psi - psi * vals[None, :]) > 1e-10 * max(1.0, scale):
        raise RuntimeError("Psi columns fail the eigenvector equation")
    if _resid(psi.T @ g @ psi - np.eye(dim)) > 1e-10:
        raise RuntimeError("Psi is not orthonormal for the pairing")
    return SemisimpleData(vals, psi, psi.T @ g)


def calibration_series(model, order):
    """Calibration matrices [S_0, ..., S_order] of the model."""
    return model.calibration(order)


def rmatrix_series(model, order):
    """Givental R-matrix series [R_0 = 1, R_1, ..., R_order].

    Off-diagonal entries solve [U, R_{k}] = (V - (k-1)) R_{k-1} with
    V = Psi^{-1} theta Psi; the diagonal of R_k follows from the
    diagonal of the same grading equation at order k, which only
    involves the already-known off-diagonal entries since V has zero
    diagonal.
    """
    sd = canonical_data(model, model.base_point)
    u = sd.u
    psi_inv = sd.psi_inv
    v_op = psi_inv @ model.theta @ sd.psi
    v_op = 0.5 * (v_op - v_op.T)  # exactly antisymmetric in this frame
    dim = model.dim
    du = u[:, None] - u[None, :]
    np.fill_diagonal(du, 1.0)  # placeholder, diagonal set separately
    series = [np.eye(dim, dtype=complex)]
    for k in range(1, order + 1):
        w = (v_op - (k - 1) * np.eye(dim)) @ series[k - 1]
        r_k = w / du
        np.fill_diagonal(r_k, 0.0)
        diag = np.diagonal(v_op @ r_k) / k
        r_k = r_k + np.diag(diag)
        series.append(r_k)
    return series
