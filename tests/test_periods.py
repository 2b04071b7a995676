"""Tests for period frames, their monodromy and reflection vectors.

The oracle values are either hand-computed (Euler pairing of P^1, the
Gram integer 2 = chi(O, O(1))), structural identities checked by
independent finite differences, or convergence-rate measurements on a
shrinking sequence of radii.
"""

import cmath
import math

import numpy as np
import pytest

from qstokes.frobenius import FrobeniusModel, canonical_data, qh_projective_space
from qstokes.numerics import LogBranchPoint
from qstokes.paths import Direction, PathPlan, braid_move, reference_system, simple_loop
from qstokes.periods import (
    base_frame,
    continue_frame,
    dual_reflection_basis,
    euler_pairing_coh,
    free_plan,
    hm_pairing,
    local_laurent_frame,
    loop_monodromy,
    reflection_vector,
    simple_loop_plan,
)

P1 = qh_projective_space(1, 1.0)
P2 = qh_projective_space(2, cmath.exp(0.2j))
P1_BASE = 5.0
P2_BASE = 8.0
TWO_PI = 2.0 * math.pi


def twist(m):
    return cmath.exp(1j * math.pi * m)


_SYSTEMS = {}


def system_for(model):
    if model.name not in _SYSTEMS:
        base = {P1.name: P1_BASE, P2.name: P2_BASE}[model.name]
        u = canonical_data(model, model.base_point).u
        _SYSTEMS[model.name] = reference_system(u, Direction.reference(), base)
    return _SYSTEMS[model.name]


def plan_for(model, slot):
    return system_for(model).paths[slot]


_BETAS = {}


def beta_for(model, m, slot):
    key = (model.name, m, slot)
    if key not in _BETAS:
        _BETAS[key] = reflection_vector(model, m, plan_for(model, slot))
    return _BETAS[key]


_LASSOS = {}


def lasso_monodromy(model, m, slot):
    """Monodromy of the base-anchored loop around one spectral point."""
    key = (model.name, m, slot)
    if key not in _LASSOS:
        plan = plan_for(model, slot)
        pts = np.concatenate(
            [plan.waypoints, simple_loop(plan)[1:], plan.waypoints[::-1][1:]]
        )
        base = base_frame(model, m, float(plan.base_value))
        _LASSOS[key] = loop_monodromy(model, m, base, free_plan(pts))
    return _LASSOS[key]


_DUALS = {}


def duals_for(model, m):
    key = (model.name, m)
    if key not in _DUALS:
        betas = [beta_for(model, m, s) for s in range(model.dim)]
        _DUALS[key] = dual_reflection_basis(model, m, betas)
    return _DUALS[key]


def ode_matrix(model, m, lam):
    n = model.dim
    return np.linalg.solve(
        lam * np.eye(n) - model.euler, model.theta - (m + 0.5) * np.eye(n)
    )


def fd_derivative(model, m, lam0, h=1e-3):
    """Richardson central difference of the base frame in lambda."""

    def diff(step):
        up = base_frame(model, m, lam0 + step).value
        dn = base_frame(model, m, lam0 - step).value
        return (up - dn) / (2.0 * step)

    return (4.0 * diff(h / 2) - diff(h)) / 3.0


def reverse_plan(plan):
    pts = plan.waypoints[::-1]
    rel = pts - plan.target_point()
    darg = float(np.angle(rel[1:] / rel[:-1]).sum())
    log = plan.end_log_branch.log + math.log(abs(rel[-1]) / abs(rel[0])) + 1j * darg
    return PathPlan(
        pts, plan.target_index, LogBranchPoint(complex(rel[-1]), log), plan.end
    )


def trivial_model():
    """Two-dimensional model with rho = 0 and E = 0, so S_k = 0 for k > 0."""
    return FrobeniusModel(
        dim=2,
        conformal_dim=0.7,
        pairing=[[0.0, 1.0], [1.0, 0.0]],
        theta_eigenvalues=[0.35, -0.35],
        rho=np.zeros((2, 2)),
        structure_constants=[np.eye(2), [[0.0, 1.0], [0.0, 0.0]]],
        euler_multiplication=np.zeros((2, 2)),
        base_point=[0.0, 0.0],
        calibration=[np.eye(2)],
        name="trivial",
    )


class TestBaseFrame:
    def test_trivial_calibration_collapses_to_closed_form(self):
        model = trivial_model()
        frame = base_frame(model, 0.3, 3.0)
        expected = np.zeros((2, 2), dtype=complex)
        for k, a in enumerate((0.35, -0.35)):
            expected[k, k] = 3.0 ** (a - 0.8) / math.gamma(a + 0.2)
        assert np.abs(frame.value - expected).max() < 1e-14
        assert frame.m == 0.3
        assert frame.at.value == 3.0
        assert abs(frame.at.log - math.log(3.0)) < 1e-15

    def test_p1_frame_solves_its_ode(self):
        frame = base_frame(P1, 0.0, 10.0)
        lhs = fd_derivative(P1, 0.0, 10.0)
        rhs = ode_matrix(P1, 0.0, 10.0) @ frame.value
        assert np.abs(lhs - rhs).max() < 1e-8

    def test_p2_frame_solves_its_ode(self):
        frame = base_frame(P2, 0.3, 8.0)
        lhs = fd_derivative(P2, 0.3, 8.0)
        rhs = ode_matrix(P2, 0.3, 8.0) @ frame.value
        assert np.abs(lhs - rhs).max() < 1e-7

    def test_complex_m_frame_solves_its_ode(self):
        m = 0.2 + 0.1j
        frame = base_frame(P1, m, 9.0)
        lhs = fd_derivative(P1, m, 9.0)
        rhs = ode_matrix(P1, m, 9.0) @ frame.value
        assert np.abs(lhs - rhs).max() < 1e-7

    def test_lambda_derivative_shifts_m(self):
        lhs = fd_derivative(P1, 0.3, 10.0)
        rhs = base_frame(P1, 1.3, 10.0).value
        assert np.abs(lhs - rhs).max() < 1e-6

    def test_base_point_too_small_rejected(self):
        with pytest.raises(ValueError):
            base_frame(P1, 0.3, 3.9)

    def test_short_series_tail_detected(self):
        with pytest.raises(RuntimeError):
            base_frame(P1, 0.3, 10.0, order=3)

    def test_provenance_is_trivial_path(self):
        frame = base_frame(P1, 0.3, 10.0)
        prov = frame.provenance
        assert prov.target_index == -1
        assert np.abs(prov.waypoints - 10.0).max() < 1e-12


class TestContinueFrame:
    def test_empty_path_is_identity(self):
        frame = base_frame(P1, 0.3, P1_BASE)
        again = continue_frame(frame, free_plan([P1_BASE, P1_BASE]), 1e-10)
        assert np.array_equal(again.value, frame.value)
        assert again.at.value == frame.at.value
        assert again.at.log == frame.at.log
        assert len(again.provenance.waypoints) == len(frame.provenance.waypoints) + 1

    def test_wrong_start_rejected(self):
        frame = base_frame(P1, 0.3, 10.0)
        with pytest.raises(ValueError):
            continue_frame(frame, plan_for(P1, 0), 1e-10)

    def test_reverse_path_restores_frame(self):
        plan = plan_for(P1, 1)
        frame = base_frame(P1, 0.3, P1_BASE)
        tol = 1e-9
        out = continue_frame(frame, plan, tol)
        back = continue_frame(out, reverse_plan(plan), tol)
        scale = max(1.0, float(np.abs(frame.value).max()))
        assert np.abs(back.value - frame.value).max() < 10 * tol * scale
        assert abs(back.at.log - frame.at.log) < 1e-9

    def test_provenance_concatenates(self):
        plan = plan_for(P1, 1)
        frame = base_frame(P1, 0.3, P1_BASE)
        out = continue_frame(frame, plan, 1e-10)
        assert out.provenance.target_index == plan.target_index
        assert len(out.provenance.waypoints) == 2 + len(plan.waypoints) - 1
        assert out.at.value == complex(plan.waypoints[-1])

    def test_double_loop_is_identity_at_unit_twist(self):
        # q = 1 at m = 0, so the local monodromy squares to the identity
        plan = plan_for(P1, 1)
        near = continue_frame(base_frame(P1, 0.0, P1_BASE), plan, 1e-10)
        loop = simple_loop_plan(plan)
        once = continue_frame(near, loop, 1e-10)
        twice = continue_frame(once, loop, 1e-10)
        scale = max(1.0, float(np.abs(near.value).max()))
        assert np.abs(once.value - near.value).max() > 0.1
        assert np.abs(twice.value - near.value).max() < 1e-6 * scale

    def test_m_shift_persists_under_continuation(self):
        plan = plan_for(P1, 1)
        f0 = continue_frame(base_frame(P1, 0.3, P1_BASE), plan, 1e-11)
        f1 = continue_frame(base_frame(P1, 1.3, P1_BASE), plan, 1e-11)
        z = complex(plan.waypoints[-1])
        resid = ode_matrix(P1, 0.3, z) @ f0.value - f1.value
        assert np.abs(resid).max() < 1e-6

    def test_full_circle_lifts_the_branch(self):
        frame = base_frame(P1, 0.3, P1_BASE)
        angles = np.linspace(0.0, TWO_PI, 97)
        circle = free_plan(P1_BASE * np.exp(1j * angles))
        cont = continue_frame(frame, circle, 1e-10)
        assert abs(cont.at.log - (frame.at.log + 2j * math.pi)) < 1e-9


class TestLoopMonodromy:
    def test_contractible_loop_is_identity(self):
        frame = base_frame(P1, 0.3, 10.0)
        square = free_plan([10.0, 10.0 + 1.5j, 11.5 + 1.5j, 11.5 + 0j, 10.0 + 0j])
        mono = loop_monodromy(P1, 0.3, frame, square)
        assert np.abs(mono - np.eye(2)).max() < 1e-8

    def test_open_loop_rejected(self):
        frame = base_frame(P1, 0.3, 10.0)
        with pytest.raises(ValueError):
            loop_monodromy(P1, 0.3, frame, free_plan([10.0, 11.0, 12.0]))
        with pytest.raises(ValueError):
            loop_monodromy(P1, 0.3, frame, free_plan([9.0, 10.0, 9.0]))

    def test_mismatched_m_rejected(self):
        frame = base_frame(P1, 0.3, 10.0)
        square = free_plan([10.0, 11.0 + 1j, 10.0 + 0j])
        with pytest.raises(ValueError):
            loop_monodromy(P1, 0.2, frame, square)

    def test_simple_loop_eigenvalues(self):
        m = 0.3
        target = -twist(m) ** -2
        for slot in (0, 1):
            plan = plan_for(P1, slot)
            near = continue_frame(base_frame(P1, m, P1_BASE), plan, 1e-11)
            mono = loop_monodromy(P1, m, near, simple_loop_plan(plan))
            vals = sorted(np.linalg.eigvals(mono), key=lambda w: abs(w - target))
            assert abs(vals[0] - target) < 1e-7
            assert abs(vals[1] - 1.0) < 1e-7

    def test_singular_integer_frame_rejected(self):
        frame = base_frame(P1, 0.0, 10.0)
        square = free_plan([10.0, 11.0 + 1j, 10.0 + 0j])
        with pytest.raises(RuntimeError):
            loop_monodromy(P1, 0.0, frame, square)

    def test_big_circle_is_ordered_lasso_product(self):
        m = 0.3
        frame = base_frame(P1, m, P1_BASE)
        angles = np.linspace(0.0, TWO_PI, 97)
        circle = free_plan(P1_BASE * np.exp(1j * angles))
        big = loop_monodromy(P1, m, frame, circle)
        first = lasso_monodromy(P1, m, 0)
        second = lasso_monodromy(P1, m, 1)
        # the circle crosses the reference paths in slot order and the
        # matrices act on the right, so the product reverses
        assert np.abs(big - second @ first).max() < 1e-6
        # the point at infinity is Fuchsian: both exponents of theta sit
        # in n/2 - Z, so every eigenvalue equals q^{-2} for P^1
        qi = twist(m) ** -2
        assert abs(np.linalg.det(big) - qi * qi) < 1e-7
        assert abs(np.trace(big) - 2.0 * qi) < 1e-7


class TestEulerPairing:
    def test_p1_hand_values(self):
        one = np.array([1.0, 0.0])
        p = np.array([0.0, 1.0])
        assert abs(euler_pairing_coh(P1, one, one) - 1.0) < 1e-14
        assert abs(euler_pairing_coh(P1, one, p) - (-1j / TWO_PI)) < 1e-14
        assert abs(euler_pairing_coh(P1, p, one) - 1j / TWO_PI) < 1e-14
        assert abs(euler_pairing_coh(P1, p, p)) < 1e-14

    def test_bilinearity(self):
        rng = np.random.default_rng(5)
        a, a2, b = (rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3))
        lhs = euler_pairing_coh(P2, a + a2, b)
        rhs = euler_pairing_coh(P2, a, b) + euler_pairing_coh(P2, a2, b)
        assert abs(lhs - rhs) < 1e-12
        assert abs(euler_pairing_coh(P2, 2.5j * a, b) - 2.5j * euler_pairing_coh(P2, a, b)) < 1e-12

    def test_symmetrization_is_unit_twist_pairing(self):
        rng = np.random.default_rng(11)
        for model in (P1, P2):
            n = model.dim
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            lhs = euler_pairing_coh(model, a, b) + euler_pairing_coh(model, b, a)
            assert abs(lhs - hm_pairing(model, 0.0, a, b)) < 1e-7


class TestHmPairing:
    def test_symmetry_in_m(self):
        rng = np.random.default_rng(7)
        for model in (P1, P2):
            n = model.dim
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            for m in (0.3, -0.25):
                lhs = hm_pairing(model, m, a, b)
                rhs = hm_pairing(model, -m, b, a)
                assert abs(lhs - rhs) < 1e-9

    def test_twist_weighted_closed_form(self):
        # independent side: h_m as the lambda-independent combination
        # I_m^T g (lambda - E) I_{-m} of base frames, at two radii
        rng = np.random.default_rng(13)
        for model in (P1, P2):
            n = model.dim
            g = np.asarray(model.pairing, dtype=complex)
            umax = float(np.abs(np.linalg.eigvals(model.euler)).max())
            for m in (0.3, 0.45):
                q = twist(m)
                a = rng.normal(size=n) + 1j * rng.normal(size=n)
                b = rng.normal(size=n) + 1j * rng.normal(size=n)
                expect = q * euler_pairing_coh(model, a, b)
                expect += euler_pairing_coh(model, b, a) / q
                assert abs(hm_pairing(model, m, a, b) - expect) < 1e-7
                for lam in (2.6 * umax, 3.4 * umax):
                    up = base_frame(model, m, lam).value
                    dn = base_frame(model, -m, lam).value
                    shifted = lam * np.eye(n) - model.euler
                    frames = a @ up.T @ g @ shifted @ dn @ b
                    assert abs(frames - expect) < 1e-7

    def test_matrix_form_agrees_with_pairing(self):
        from qstokes.periods import hm_matrix

        rng = np.random.default_rng(17)
        for model, m in ((P1, 0.3), (P2, -0.25)):
            h = hm_matrix(model, m)
            n = model.dim
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert abs(a @ h @ b - hm_pairing(model, m, a, b)) < 1e-12

    def test_annihilates_holomorphic_directions(self):
        m = 0.3
        target = -twist(m) ** -2
        plan = plan_for(P1, 0)
        near = continue_frame(base_frame(P1, m, P1_BASE), plan, 1e-11)
        mono = loop_monodromy(P1, m, near, simple_loop_plan(plan))
        vals, vecs = np.linalg.eig(mono)
        beta = beta_for(P1, m, 0).beta
        checked = 0
        for k in range(len(vals)):
            if abs(vals[k] - target) < 1e-4:
                continue
            assert abs(hm_pairing(P1, m, vecs[:, k], beta)) < 1e-7
            checked += 1
        assert checked == 1


class TestReflectionVector:
    def test_normalization_pairing(self):
        for model, m, slot in ((P1, 0.3, 0), (P1, 0.3, 1), (P2, 0.3, 0)):
            q = twist(m)
            b = beta_for(model, m, slot).beta
            assert abs(hm_pairing(model, m, b, b) - (q + 1 / q)) < 1e-7

    def test_field_bookkeeping(self):
        refl = beta_for(P1, 0.3, 0)
        assert refl.m_tag == 0.3
        assert refl.spiral_exponent == 0
        assert refl.path is plan_for(P1, 0)

    def test_independent_of_m(self):
        for slot in (0, 1):
            b0 = beta_for(P1, 0.0, slot).beta
            assert np.abs(beta_for(P1, 0.3, slot).beta - b0).max() < 1e-6
            assert np.abs(beta_for(P1, -0.25, slot).beta - b0).max() < 1e-6
        b0 = beta_for(P2, 0.0, 1).beta
        assert np.abs(beta_for(P2, 0.3, 1).beta - b0).max() < 1e-6

    def test_branch_shift_spirals(self):
        m = 0.3
        plan = plan_for(P1, 1)
        shifted = PathPlan(
            plan.waypoints,
            plan.target_index,
            LogBranchPoint(
                plan.end_log_branch.value, plan.end_log_branch.log + 2j * math.pi
            ),
            plan.base_value,
        )
        b = beta_for(P1, m, 1).beta
        b2 = reflection_vector(P1, m, shifted).beta
        assert np.abs(b2 - (-twist(m) ** -2) * b).max() < 1e-6

    def test_is_loop_monodromy_eigenvector(self):
        # beta comes from the Laurent frame, without a loop; it must
        # still be the -q^-2 eigenvector of the elementary loop.  At
        # m = -1.7 the base frame of P^1..P^3 is well conditioned.
        m = -1.7
        target = -twist(m) ** -2
        p3 = qh_projective_space(3, cmath.exp(0.2j))
        u3 = canonical_data(p3, p3.base_point).u
        p3_system = reference_system(u3, Direction.reference().rotated(0.3), 10.0)
        cases = [(P1, plan_for(P1, s)) for s in (0, 1)]
        cases += [(P2, plan_for(P2, s)) for s in (0, 2)]
        cases += [(p3, p3_system.paths[s]) for s in (1, 3)]
        for model, plan in cases:
            beta = reflection_vector(model, m, plan).beta
            near = continue_frame(base_frame(model, m, plan.base_value), plan, 1e-11)
            mono = loop_monodromy(model, m, near, simple_loop_plan(plan), tol=1e-11)
            scale = np.abs(beta).max()
            assert np.abs(mono @ beta - target * beta).max() < 1e-9 * scale

    def test_far_standoff_rejected(self):
        # the Laurent expansion at u = 2 converges only out to u = -2
        far = PathPlan(
            np.array([P1_BASE, 4.5]), 1, LogBranchPoint.principal(2.5), P1_BASE
        )
        assert abs(far.target_point() - 2.0) < 1e-12
        with pytest.raises(ValueError, match="ends"):
            reflection_vector(P1, 0.3, far)

    def test_half_integer_m_rejected(self):
        for m in (0.5, -1.5):
            with pytest.raises(ValueError):
                reflection_vector(P1, m, plan_for(P1, 0))

    def test_near_half_integer_m_clusters(self):
        with pytest.raises(RuntimeError):
            reflection_vector(P1, 0.4999995, plan_for(P1, 0))

    def test_local_monodromy_is_twisted_reflection(self):
        m = 0.3
        q = twist(m)
        rng = np.random.default_rng(23)
        for slot in (0, 1):
            lasso = lasso_monodromy(P1, m, slot)
            b = beta_for(P1, m, slot).beta
            for _ in range(3):
                a = rng.normal(size=2) + 1j * rng.normal(size=2)
                expect = a - (1 / q) * hm_pairing(P1, m, a, b) * b
                assert np.abs(lasso @ a - expect).max() < 1e-6

    def test_distinguished_gram_is_unitriangular(self):
        m = 0.3
        betas = [beta_for(P1, m, s).beta for s in (0, 1)]
        gram = np.array(
            [[euler_pairing_coh(P1, x, y) for y in betas] for x in betas]
        )
        assert abs(gram[1, 0]) < 1e-6
        assert np.abs(np.diag(gram) - 1.0).max() < 1e-6
        assert abs(gram[0, 1] - 2.0) < 1e-6

    def test_p2_gram_is_unitriangular_with_integer_entries(self):
        betas = [beta_for(P2, 0.0, s).beta for s in range(3)]
        gram = np.array(
            [[euler_pairing_coh(P2, x, y) for y in betas] for x in betas]
        )
        for i in range(3):
            for j in range(i):
                assert abs(gram[i, j]) < 1e-6
        assert np.abs(np.diag(gram) - 1.0).max() < 1e-6
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(gram[i, j] - round(gram[i, j].real)) < 1e-5

    def test_reflection_matrices_preserve_integer_lattice(self):
        # entries of the local monodromies in the reflection basis are
        # Laurent monomials in the twist with integer coefficients: row
        # j carries -q^-2 on the diagonal, integers left of it and
        # q^-2 times integers right of it; all other rows are identity
        rows = {}
        for m in (0.3, -0.25):
            q2 = twist(m) ** 2
            basis = np.column_stack([beta_for(P1, m, s).beta for s in (0, 1)])
            for j in (0, 1):
                mat = np.linalg.solve(basis, lasso_monodromy(P1, m, j) @ basis)
                for r in range(2):
                    if r != j:
                        assert np.abs(mat[r] - np.eye(2)[r]).max() < 1e-6
                assert abs(mat[j, j] + 1 / q2) < 1e-6
                k = 1 - j
                entry = mat[j, k] if k < j else q2 * mat[j, k]
                assert abs(entry.imag) < 1e-5
                assert abs(entry - round(entry.real)) < 1e-5
                rows.setdefault(j, []).append(round(entry.real))
        # the integer is the Gram entry, reproduced at every m
        assert rows[0] == [-2, -2]
        assert rows[1] == [-2, -2]

    def test_hm_gram_in_reflection_basis(self):
        m = 0.3
        q = twist(m)
        betas = [beta_for(P1, m, s).beta for s in (0, 1)]
        for k in range(2):
            for j in range(2):
                got = hm_pairing(P1, m, betas[k], betas[j])
                unit = euler_pairing_coh(P1, betas[k], betas[j])
                unit += euler_pairing_coh(P1, betas[j], betas[k])
                if k == j:
                    expect = q + 1 / q
                elif k < j:
                    expect = q * unit
                else:
                    expect = unit / q
                assert abs(got - expect) < 1e-6


class TestDualBasis:
    def test_kronecker_pairing(self):
        for model in (P1, P2):
            m = 0.3
            duals = duals_for(model, m)
            for i in range(model.dim):
                for j in range(model.dim):
                    got = hm_pairing(model, m, duals[i], beta_for(model, m, j).beta)
                    assert abs(got - (1.0 if i == j else 0.0)) < 1e-8

    def test_completeness_decomposition(self):
        m = 0.3
        q = twist(m)
        duals = duals_for(P1, m)
        betas = [beta_for(P1, m, s).beta for s in (0, 1)]
        for i in range(2):
            total = (q + 1 / q) * duals[i]
            for j in range(2):
                if j != i:
                    total = total + hm_pairing(P1, m, betas[i], betas[j]) * duals[j]
            assert np.abs(total - betas[i]).max() < 1e-7

    def test_fixed_by_other_local_monodromies(self):
        m = 0.3
        duals = duals_for(P1, m)
        for i in range(2):
            for j in range(2):
                moved = lasso_monodromy(P1, m, j) @ duals[i]
                if j == i:
                    assert np.abs(moved - duals[i]).max() > 1e-3
                else:
                    assert np.abs(moved - duals[i]).max() < 1e-6

    def test_degenerate_twist_rejected(self):
        betas = [beta_for(P1, 0.0, s) for s in (0, 1)]
        with pytest.raises(ValueError):
            dual_reflection_basis(P1, 0.0, betas)


class TestLocalLaurent:
    def test_leading_coefficient(self):
        m = 0.3
        for model, i in ((P1, 1), (P2, 0)):
            series = local_laurent_frame(model, model.base_point, i, m, 3)
            sd = canonical_data(model, model.base_point)
            expect = math.sqrt(TWO_PI) / math.gamma(0.5 - m) * sd.psi[:, i]
            assert np.abs(series.coefficients[0] - expect).max() < 1e-12

    def test_m_shift_differentiates_termwise(self):
        s0 = local_laurent_frame(P1, P1.base_point, 0, 0.3, 5)
        s1 = local_laurent_frame(P1, P1.base_point, 0, 1.3, 5)
        for k in range(6):
            lhs = s0.coefficients[k] * (k - 0.3 - 0.5)
            assert np.abs(lhs - s1.coefficients[k]).max() < 1e-12

    def test_continued_period_matches_series(self):
        m = 0.3
        order = 4
        plan = plan_for(P1, 1)
        series = local_laurent_frame(P1, P1.base_point, plan.target_index, m, order)
        beta = beta_for(P1, m, 1).beta
        frame = continue_frame(base_frame(P1, m, P1_BASE), plan, 1e-12)
        u_i = plan.target_point()
        branch = plan.end_log_branch
        unit = branch.value / abs(branch.value)
        phi = branch.log.imag
        diffs = []
        cur = frame
        for s in (0.2, 0.1):
            pt = u_i + s * unit
            cur = continue_frame(cur, free_plan([cur.at.value, pt]), 1e-12)
            val = cur.value @ beta
            ref = series.eval(LogBranchPoint(complex(pt - u_i), complex(math.log(s), phi)))
            diffs.append(float(np.abs(val - ref).max()))
        assert diffs[1] < 1e-4
        rate = math.log2(diffs[0] / diffs[1])
        # the first omitted term has exponent order + 1/2 - m
        assert rate > order - m - 0.5 + 0.4


class TestBraidMutation:
    def test_left_move_mutates_leading_vector(self):
        m = 0.3
        q = twist(m)
        moved = braid_move(system_for(P1), 1, "L")
        b1 = beta_for(P1, m, 0).beta
        b2 = beta_for(P1, m, 1).beta
        tilde = reflection_vector(P1, m, moved.paths[0]).beta
        expect = b2 - q * hm_pairing(P1, m, b2, b1) * b1
        assert np.abs(tilde - expect).max() < 1e-6
        # same mutation written with the integer Euler form
        expect = b2 - euler_pairing_coh(P1, b1, b2) * b1
        assert np.abs(tilde - expect).max() < 1e-6
        carried = reflection_vector(P1, m, moved.paths[1]).beta
        assert np.abs(carried - b1).max() < 1e-9

    def test_right_move_mutates_trailing_vector(self):
        m = 0.3
        q = twist(m)
        moved = braid_move(system_for(P1), 1, "R")
        b1 = beta_for(P1, m, 0).beta
        b2 = beta_for(P1, m, 1).beta
        tilde = reflection_vector(P1, m, moved.paths[1]).beta
        expect = b1 - (1 / q) * hm_pairing(P1, m, b1, b2) * b2
        assert np.abs(tilde - expect).max() < 1e-6

    def test_right_inverts_left(self):
        m = 0.3
        back = braid_move(braid_move(system_for(P1), 1, "L"), 1, "R")
        again = reflection_vector(P1, m, back.paths[1]).beta
        assert np.abs(again - beta_for(P1, m, 1).beta).max() < 1e-6
