"""Model construction, canonical data, calibration and R-matrix tests."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from qstokes.frobenius import (
    FrobeniusModel,
    ModelValidationError,
    canonical_data,
    calibration_series,
    load_model,
    qh_projective_space,
    rmatrix_series,
    save_model,
)
from qstokes.numerics import LogBranchPoint, operator_power

SQ2 = math.sqrt(2.0)

# P^1 at q=1, canonical order u = (-2, 2): hand-built columns
# (1 - p)/sqrt(-1/2) and (1 + p)/sqrt(2), signs fixed by the
# largest-modulus rule.
PSI_P1 = np.array([[1j / SQ2, 1 / SQ2], [-1j / SQ2, 1 / SQ2]])
V_P1 = np.array([[0.0, -0.5j], [0.5j, 0.0]])
R1_P1 = np.array([[1 / 16, 1j / 8], [1j / 8, -1 / 16]])
R2_P1 = np.array([[-3 / 512, 3j / 128], [-3j / 128, -3 / 512]])
# hand recursion values for the calibration of P^1 at q=1
S1_P1 = np.array([[0.0, 1.0], [0.0, 0.0]])
S2_P1 = np.array([[-1.0, 0.0], [0.0, 1.0]])
S3_P1 = np.array([[0.0, 0.5], [-2.0, 0.0]])


def j_function_coefficient(n, q, k):
    """Coefficient of z^{-k} in the hypergeometric J-series of P^n.

    J = sum_d q^d prod_{j=1..d} (p + j z)^{-(n+1)}; returns the
    coefficient as a vector in the basis (1, p, ..., p^n), computed
    with exact rationals before the single multiplication by q^d.
    """
    dim = n + 1
    out = np.zeros(dim, dtype=complex)
    if k == 0:
        out[0] = 1.0
        return out
    d, rem = divmod(k, dim)
    # powers of z^{-1} come in blocks: z^{-d(n+1)-j} with 0 <= j <= n
    j = rem
    if d < 1:
        return out
    # expand prod_{m=1..d} (1 + p/(m z))^{-(n+1)} / (m z)^{n+1} in p
    poly = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, d + 1):
        base = [Fraction(1)] + [Fraction(0)] * n
        for jj in range(1, dim):
            base[jj] = base[jj - 1] * Fraction(-(n + jj), jj) / m
        new = [Fraction(0)] * dim
        for a_idx in range(dim):
            for b_idx in range(dim - a_idx):
                new[a_idx + b_idx] += poly[a_idx] * base[b_idx]
        poly = new
    denom = Fraction(math.factorial(d) ** dim)
    out[j] = complex(q**d) * float(poly[j] / denom)
    return out


def qde_residual(model, series, z):
    """Residual of the z-direction flatness for X = S z^theta z^{-rho}."""

    def x_at(zv):
        lam = LogBranchPoint.principal(zv)
        s = sum(sk * zv ** (-k) for k, sk in enumerate(series))
        return s @ operator_power(lam, model.theta, model.rho)

    h = 1e-6 * abs(z)
    dx = (x_at(z + h) - x_at(z - h)) / (2 * h)
    x = x_at(z)
    res = z * dx + (model.euler @ x) / z - model.theta @ x
    return np.abs(res).max()


class TestProjectiveSpaceModel:
    def test_p1_multiplication_table(self):
        m = qh_projective_space(1, 1.0)
        ops = m.mult(m.base_point)
        assert np.allclose(ops[0], np.eye(2))
        assert np.allclose(ops[1], [[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(m.euler_mult(m.base_point), [[0.0, 2.0], [2.0, 0.0]])

    def test_p1_grading(self):
        m = qh_projective_space(1, 1.0)
        assert np.allclose(m.theta, np.diag([0.5, -0.5]))
        assert np.allclose(m.rho, [[0.0, 0.0], [2.0, 0.0]])
        comm = m.theta @ m.rho - m.rho @ m.theta
        assert np.abs(comm + m.rho).max() == 0.0

    @pytest.mark.parametrize("n,q", [(1, 1.0), (2, 1.0), (2, cmath.exp(0.2j)), (3, 2.0 - 1.0j)])
    def test_axioms_and_serre_relation(self, n, q):
        m = qh_projective_space(n, q)
        ops = m.mult(m.base_point)
        a_p = ops[1]
        power = np.linalg.matrix_power(a_p, n + 1)
        assert np.abs(power - q * np.eye(n + 1)).max() < 1e-14 * max(1.0, abs(q))
        for i in range(m.dim):
            for j in range(m.dim):
                comm = ops[i] @ ops[j] - ops[j] @ ops[i]
                assert np.abs(comm).max() < 1e-12

    def test_p2_euler_eigenvalues_by_radicals(self):
        m = qh_projective_space(2, 1.0)
        vals = np.linalg.eigvals(m.euler_mult(m.base_point))
        want = sorted(
            (3 * cmath.exp(2j * math.pi * k / 3) for k in range(3)),
            key=lambda z: (z.real, z.imag),
        )
        got = sorted(vals, key=lambda z: (z.real, z.imag))
        assert np.allclose(got, want, atol=1e-10)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            qh_projective_space(0, 1.0)
        with pytest.raises(ValueError):
            qh_projective_space(9, 1.0)
        with pytest.raises(ValueError):
            qh_projective_space(2, 0.0)

    def test_off_base_point_rejected(self):
        m = qh_projective_space(1, 1.0)
        with pytest.raises(ValueError):
            m.mult(np.array([0.1, 0.0]))


class TestModelFiles:
    def test_round_trip_matches_builtin(self, tmp_path):
        m = qh_projective_space(1, 1.0)
        path = tmp_path / "p1.json"
        save_model(m, path)
        back = load_model(path)
        assert back.dim == m.dim
        assert np.array_equal(back.pairing, m.pairing)
        assert np.array_equal(back.theta_eigenvalues, m.theta_eigenvalues)
        assert np.array_equal(back.rho, m.rho)
        assert np.array_equal(back.structure, m.structure)
        assert np.array_equal(back.euler, m.euler)
        for a, b in zip(back.calibration(m.dim + 4), m.calibration(m.dim + 4)):
            assert np.array_equal(a, b)

    def test_bit_exact_round_trip(self, tmp_path):
        m = qh_projective_space(2, cmath.exp(0.2j))
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_model(m, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_non_symmetric_pairing_rejected(self, tmp_path):
        import json

        m = qh_projective_space(1, 1.0)
        path = tmp_path / "bad.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        doc["pairing"][0][1] = [0.3, 0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelValidationError, match="F1"):
            load_model(path)

    def test_non_unit_first_vector_rejected(self, tmp_path):
        import json

        m = qh_projective_space(1, 1.0)
        path = tmp_path / "bad.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        doc["structure_constants"][0][0][0] = [2.0, 0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelValidationError, match="F3"):
            load_model(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2}')
        with pytest.raises(ModelValidationError, match="missing"):
            load_model(path)


def _degenerate_euler_model():
    # rank-2 algebra C[x]/(x^2) with unit phi_1; Euler made scalar on purpose
    structure = np.zeros((2, 2, 2))
    structure[0][0][0] = 1.0
    structure[0][1][1] = 1.0
    structure[1][0][1] = 1.0
    return FrobeniusModel(
        dim=2,
        conformal_dim=1.0,
        pairing=[[0.0, 1.0], [1.0, 0.0]],
        theta_eigenvalues=[0.5, -0.5],
        rho=np.zeros((2, 2)),
        structure_constants=structure,
        euler_multiplication=np.eye(2),
        base_point=[0.0, 0.0],
    )


class TestCanonicalData:
    def test_p1_order_and_frame(self):
        m = qh_projective_space(1, 1.0)
        sd = canonical_data(m, m.base_point)
        assert np.allclose(sd.u, [-2.0, 2.0])
        assert np.abs(sd.psi - PSI_P1).max() < 1e-12
        assert np.abs(sd.psi.T @ m.pairing @ sd.psi - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("n,q", [(1, 1.0), (2, cmath.exp(0.2j)), (3, cmath.exp(0.2j))])
    def test_frame_properties(self, n, q):
        m = qh_projective_space(n, q)
        sd = canonical_data(m, m.base_point)
        eu = m.euler_mult(m.base_point)
        assert np.abs(eu @ sd.psi - sd.psi * sd.u[None, :]).max() < 1e-10
        assert np.abs(sd.psi.T @ m.pairing @ sd.psi - np.eye(n + 1)).max() < 1e-10
        assert np.abs(sd.psi_inv @ sd.psi - np.eye(n + 1)).max() < 1e-10
        re = np.sort(sd.u.real)
        assert np.min(np.diff(re)) > 1e-6

    def test_caustic_detected(self):
        m = _degenerate_euler_model()
        with pytest.raises(RuntimeError, match="caustic"):
            canonical_data(m, m.base_point)


class TestCalibration:
    def test_s0_is_identity(self):
        for m in (qh_projective_space(1, 1.0), qh_projective_space(2, 1.0)):
            assert np.array_equal(calibration_series(m, 0)[0], np.eye(m.dim))

    def test_p1_hand_recursion_values(self):
        m = qh_projective_space(1, 1.0)
        s = calibration_series(m, 3)
        assert np.abs(s[1] - S1_P1).max() < 1e-14
        assert np.abs(s[2] - S2_P1).max() < 1e-14
        assert np.abs(s[3] - S3_P1).max() < 1e-14

    @pytest.mark.parametrize("n,q", [(1, 1.0), (2, cmath.exp(0.2j)), (3, 1.0)])
    def test_symplectic_condition(self, n, q):
        m = qh_projective_space(n, q)
        order = 6
        s = calibration_series(m, order)
        st = [m.ad_transpose(sk) for sk in s]
        for k in range(1, order + 1):
            acc = np.zeros((m.dim, m.dim), dtype=complex)
            for a in range(k + 1):
                acc += (-1.0) ** a * st[a] @ s[k - a]
            assert np.abs(acc).max() < 1e-10

    def test_order_one_is_self_adjoint(self):
        # the k=1 symplectic identity reads S_1 - S_1^T = 0
        m = qh_projective_space(2, cmath.exp(0.2j))
        s1 = calibration_series(m, 1)[1]
        assert np.abs(s1 - m.ad_transpose(s1)).max() < 1e-12

    @pytest.mark.parametrize("n,q", [(1, 1.0), (2, cmath.exp(0.2j))])
    def test_j_function_columns(self, n, q):
        m = qh_projective_space(n, q)
        order = 6
        s = calibration_series(m, order)
        one = np.zeros(n + 1, dtype=complex)
        one[0] = 1.0
        for k in range(order + 1):
            got = m.ad_transpose(s[k]) @ one
            want = j_function_coefficient(n, q, k)
            assert np.abs(got - want).max() < 1e-9

    @pytest.mark.parametrize("n,q", [(1, 1.0), (2, cmath.exp(0.2j)), (3, 2.0 - 1.0j)])
    def test_divisor_direction_equation(self, n, q):
        # d/d log q S_k = A_p S_{k-1} - S_{k-1} (rho/(n+1)); entries are
        # q-monomials of degree (c - r + k)/(n+1) (zero when fractional),
        # so the derivative is an exact entrywise rescaling.
        m = qh_projective_space(n, q)
        order = 5
        s = calibration_series(m, order)
        a_p = m.mult(m.base_point)[1]
        for k in range(1, order + 1):
            want = a_p @ s[k - 1] - s[k - 1] @ (m.rho / (n + 1))
            dlog = np.zeros_like(s[k])
            for r in range(n + 1):
                for c in range(n + 1):
                    d, rem = divmod(c - r + k, n + 1)
                    if rem == 0:
                        dlog[r, c] = d * s[k][r, c]
                    else:
                        assert abs(s[k][r, c]) < 1e-12 * max(1.0, abs(q) ** 2)
            assert np.abs(dlog - want).max() < 1e-10 * max(1.0, abs(q) ** 2)

    def test_stored_prefix_extends_by_the_same_recursion(self):
        m = qh_projective_space(3, cmath.exp(0.2j))
        full = calibration_series(m, 30)
        prefix = FrobeniusModel(
            dim=m.dim,
            conformal_dim=m.conformal_dim,
            pairing=m.pairing,
            theta_eigenvalues=m.theta_eigenvalues,
            rho=m.rho,
            structure_constants=m.structure,
            euler_multiplication=m.euler,
            base_point=m.base_point,
            calibration=full[:6],
        )
        for a, b in zip(calibration_series(prefix, 30), full):
            assert np.array_equal(a, b)

    def test_inconsistent_kernel_slot_raises(self):
        # theta = (1/2, -1/2) makes slot (1, 0) resonant at order 1, where
        # the right-hand side E - rho does not vanish
        model = FrobeniusModel(
            dim=2,
            conformal_dim=1.0,
            pairing=[[0.0, 1.0], [1.0, 0.0]],
            theta_eigenvalues=[0.5, -0.5],
            rho=np.zeros((2, 2)),
            structure_constants=[np.eye(2), [[0.0, 1.0], [0.0, 0.0]]],
            euler_multiplication=[[0.0, 0.0], [1.0, 0.0]],
            base_point=[0.0, 0.0],
        )
        with pytest.raises(RuntimeError, match="kernel slot"):
            calibration_series(model, 1)

    def test_stored_terms_must_follow_the_recursion(self):
        m = qh_projective_space(1, 1.0)
        fields = dict(
            dim=2,
            conformal_dim=1.0,
            pairing=m.pairing,
            theta_eigenvalues=m.theta_eigenvalues,
            rho=m.rho,
            structure_constants=m.structure,
            euler_multiplication=m.euler,
            base_point=m.base_point,
        )
        with pytest.raises(ModelValidationError, match="S_0"):
            FrobeniusModel(calibration=[2.0 * np.eye(2)], **fields)
        with pytest.raises(ModelValidationError, match="term 2"):
            FrobeniusModel(calibration=[np.eye(2), S1_P1, 3.0 * S2_P1], **fields)

    def test_qde_flatness_residual(self):
        rng = np.random.default_rng(5)
        m = qh_projective_space(2, cmath.exp(0.2j))
        series = calibration_series(m, 20)
        for _ in range(5):
            z = cmath.rect(rng.uniform(1.0, 10.0), rng.uniform(-math.pi / 2, math.pi / 2))
            assert qde_residual(m, series, z) < 1e-8


class TestRMatrix:
    def test_r0_identity(self):
        m = qh_projective_space(2, 1.0)
        assert np.array_equal(rmatrix_series(m, m.base_point, 0)[0], np.eye(3))

    def test_p1_hand_values(self):
        m = qh_projective_space(1, 1.0)
        sd = canonical_data(m, m.base_point)
        v_op = sd.psi_inv @ m.theta @ sd.psi
        assert np.abs(v_op - V_P1).max() < 1e-12
        r = rmatrix_series(m, m.base_point, 2)
        # off-diagonal of R_1 is V_ij/(u_i - u_j), diagonal follows
        for i in range(2):
            for j in range(2):
                if i != j:
                    want = V_P1[i, j] / (sd.u[i] - sd.u[j])
                    assert abs(r[1][i, j] - want) < 1e-13
        assert np.abs(r[1] - R1_P1).max() < 1e-13
        assert np.abs(r[2] - R2_P1).max() < 1e-13

    @pytest.mark.parametrize("n,q", [(1, 1.0), (2, cmath.exp(0.2j)), (3, 1.0)])
    def test_symplectic_condition(self, n, q):
        m = qh_projective_space(n, q)
        order = 4
        r = rmatrix_series(m, m.base_point, order)
        for k in range(1, order + 1):
            acc = np.zeros((n + 1, n + 1), dtype=complex)
            for a in range(k + 1):
                acc += (-1.0) ** a * r[a].T @ r[k - a]
            assert np.abs(acc).max() < 1e-10

    def test_asymptotic_order_as_z_to_zero(self):
        # truncating at order K leaves a residual Psi (K - V) R_K z^K e^{U/z},
        # so halving z must shrink it by about 2^K; K = 4 gives ~16
        m = qh_projective_space(1, 1.0)
        sd = canonical_data(m, m.base_point)
        r = rmatrix_series(m, m.base_point, 4)

        def residual(zv):
            def y_at(z):
                rz = sum(rk * z**k for k, rk in enumerate(r))
                return sd.psi @ rz @ np.diag(np.exp(sd.u / z))

            h = 1e-7 * abs(zv)
            dy = (y_at(zv + h) - y_at(zv - h)) / (2 * h)
            y = y_at(zv)
            res = zv * dy + (m.euler @ y) / zv - m.theta @ y
            return np.abs(res).max() / np.abs(y).max()

        ratio = residual(0.1j) / residual(0.05j)
        assert ratio > 10.0
