"""Tests for oscillatory frames, Stokes matrices and wall crossing.

Oracle values: for projective space the inverse Stokes matrix is the
Gram matrix of Euler characteristics chi(O(a), O(b)) = binom(n+b-a, n)
of the line bundle collection O, O(1), ..., O(n); the frozen integer
matrices below are checked against that closed form before anything
numerical runs.  The remaining tests are structural: the defining ODE
by finite differences, the orthogonality of opposite frames, agreement
of two independent routes to the same connection data, and crossing
formulas against freshly re-extracted reflection vectors.
"""

import cmath
import math

import numpy as np
import pytest

from qstokes.frobenius import canonical_data, load_model, qh_projective_space, save_model
from qstokes.paths import Direction, reference_system
from qstokes.periods import hm_matrix, reflection_vector
from qstokes.stokes import (
    MonodromyData,
    compare_monodromy_data,
    consistency_report,
    gram_sign_gauge,
    monodromy_data_analytic,
    monodromy_data_from_reflections,
    oscillatory_frame,
    wallcrossing_matrices,
)

P1 = qh_projective_space(1, 1.0)
P2 = qh_projective_space(2, cmath.exp(0.2j))
ETA = Direction.reference()
# The q-phase of P2 turns its spectrum by 3.82 degrees, which parks a
# Stokes wall at 93.82 degrees, right above the reference direction.
# Rotating eta by 0.3 moves it into the chamber whose reflection
# vectors realize the line bundle collection O, O(1), O(2) itself;
# eta = i sits one wall crossing away (see TestWallCrossing).
ETA_P2 = ETA.rotated(0.3)
ETA_FOR = {P1.name: ETA, P2.name: ETA_P2}

# Gram matrices of chi(O(a), O(b)) for O, O(1), ..., O(n), upper
# unitriangular, and their integer inverses (the Stokes matrices)
GRAM_P1 = np.array([[1, 2], [0, 1]])
GRAM_P2 = np.array([[1, 3, 6], [0, 1, 3], [0, 0, 1]])
V_PLUS_P1 = np.array([[1, -2], [0, 1]])
V_PLUS_P2 = np.array([[1, -3, 3], [0, 1, -3], [0, 0, 1]])
# one wall below (eta = i) the collection is mutated once: the middle
# class moves to 3[O] - [O(1)] and the corner pairing drops to 3
GRAM_P2_LOW = np.array([[1, 3, 3], [0, 1, 3], [0, 0, 1]])


def line_bundle_chi(n, d):
    """chi(O(a), O(a+d)) on P^n; zero in the acyclic range -n <= d <= -1."""
    return math.comb(n + d, n) if n + d >= 0 else 0


def twist(m):
    return cmath.exp(1j * math.pi * m)


def frame(model, z, **kw):
    return oscillatory_frame(model, model.base_point, ETA, z, **kw)


_ANALYTIC = {}


def analytic_for(model):
    if model.name not in _ANALYTIC:
        _ANALYTIC[model.name] = monodromy_data_analytic(
            model, model.base_point, ETA_FOR[model.name]
        )
    return _ANALYTIC[model.name]


_REFLECTED = {}


def reflected_for(model, m=0.0):
    key = (model.name, m)
    if key not in _REFLECTED:
        _REFLECTED[key] = monodromy_data_from_reflections(
            model, model.base_point, ETA_FOR[model.name], m
        )
    return _REFLECTED[key]


def match_by_target(predictions, system):
    """Slot of system whose path targets each prediction's point."""
    slots = []
    for pred in predictions:
        want = pred.path.target_point()
        dist = [abs(p.target_point() - want) for p in system.paths]
        k = int(np.argmin(dist))
        assert dist[k] < 1e-9
        slots.append(k)
    assert sorted(slots) == list(range(len(system.paths)))
    return slots


class TestIntegerOracles:
    def test_grams_match_euler_characteristic_formula(self):
        for n, gram in ((1, GRAM_P1), (2, GRAM_P2)):
            for i in range(n + 1):
                for j in range(n + 1):
                    assert gram[i, j] == line_bundle_chi(n, j - i)

    def test_stokes_matrices_invert_the_grams(self):
        assert np.array_equal(GRAM_P1 @ V_PLUS_P1, np.eye(2, dtype=int))
        assert np.array_equal(GRAM_P2 @ V_PLUS_P2, np.eye(3, dtype=int))


class TestOscillatoryFrame:
    def test_solves_the_z_ode(self):
        ray = cmath.exp(-0.2j * math.pi)
        h = 0.006
        vals = {
            k: frame(P1, (0.9 + k * h) * ray, verify_seed=False)
            for k in (-2, -1, 0, 1, 2)
        }
        deriv = (vals[-2] - 8 * vals[-1] + 8 * vals[1] - vals[2]) / (12 * h * ray)
        z = 0.9 * ray
        expect = (-P1.euler / z**2 + P1.theta / z) @ vals[0]
        scale = float(np.abs(expect).max())
        assert np.abs(deriv - expect).max() < 1e-7 * scale

    def test_asymptotic_normalization_along_mid_ray(self):
        # columns gauge to the spectral frame Psi as z -> 0 inside the
        # half-plane; first order in z, so the misfit halves with radius
        sd = canonical_data(P1, P1.base_point)
        diffs = []
        for r in (0.05, 0.025, 0.0125):
            x = frame(P1, -1j * r, verify_seed=False)
            gauged = x * np.exp(-sd.u / (-1j * r))[None, :]
            diffs.append(float(np.abs(gauged - sd.psi).max()))
        assert diffs[0] < 8e-3
        assert diffs[2] < 2e-3
        assert 1.9 < diffs[0] / diffs[1] < 2.1
        assert 1.9 < diffs[1] / diffs[2] < 2.1

    def test_opposite_frames_pair_to_identity(self):
        plus = frame(P1, 0.9, verify_seed=False)
        minus = oscillatory_frame(
            P1, P1.base_point, ETA.rotated(-math.pi), -0.9, verify_seed=False
        )
        prod = minus.T @ P1.pairing @ plus
        assert np.abs(prod - np.eye(2)).max() < 1e-5

    def test_z_outside_sector_rejected(self):
        with pytest.raises(ValueError):
            frame(P1, 0.5j)
        with pytest.raises(ValueError):
            oscillatory_frame(P2, P2.base_point, ETA, 1j)

    def test_critical_direction_rejected(self):
        with pytest.raises(ValueError):
            oscillatory_frame(P1, P1.base_point, Direction.from_lifted_angle(0.0), 0.9)

    def test_seed_insensitivity_guard(self):
        # a seed far outside the validity of the asymptotic series moves
        # when its radius is doubled, and the cross-check must catch it
        with pytest.raises(RuntimeError):
            frame(P1, -0.9j, seed_radius=1.5)
        # near the default radius the doubled seed agrees to the same
        # tolerance the guard enforces
        base = frame(P1, -0.9j, verify_seed=False)
        wide = frame(P1, -0.9j, seed_radius=0.024, verify_seed=False)
        assert np.abs(wide - base).max() < 1e-5

    def test_laplace_matches_ode(self):
        z = 0.8 * cmath.exp(-1j * math.pi / 3)
        ode = frame(P1, z, verify_seed=False)
        lap = frame(P1, z, method="laplace", m=-0.3)
        for i in range(2):
            rel = np.abs(lap[:, i] - ode[:, i]).max() / np.abs(ode[:, i]).max()
            assert rel < 1e-5

    def test_laplace_outside_decay_half_plane_rejected(self):
        with pytest.raises(ValueError):
            frame(P1, 0.9, method="laplace", m=-0.3)

    def test_laplace_needs_negative_re_m(self):
        with pytest.raises(ValueError):
            frame(P1, -0.9j, method="laplace", m=0.3)


class TestAnalyticData:
    # the spectral frame behind direct integration is pinned only up to
    # column signs, so frozen integers are compared entrywise in
    # absolute value here; signed agreement is TestTwoWayAgreement's job
    def test_p1_stokes_matrix(self):
        data = analytic_for(P1)
        assert np.abs(np.abs(data.v_plus) - np.abs(V_PLUS_P1)).max() < 1e-5
        gram = np.linalg.inv(data.v_plus)
        assert np.abs(np.abs(gram) - GRAM_P1).max() < 1e-5

    def test_p2_stokes_matrix(self):
        data = analytic_for(P2)
        assert np.abs(np.abs(data.v_plus) - np.abs(V_PLUS_P2)).max() < 1e-5
        gram = np.linalg.inv(data.v_plus)
        assert np.abs(np.abs(gram) - GRAM_P2).max() < 1e-5

    def test_bookkeeping(self):
        data = analytic_for(P1)
        assert data.betas == ()
        assert data.order == (0, 1)
        assert np.array_equal(data.v_minus, data.v_plus.T)
        assert data.eta.eta == ETA.eta
        diag = np.diagonal(data.v_plus)
        assert np.abs(diag - 1.0).max() < 1e-6
        assert abs(data.v_plus[1, 0]) < 1e-6

    def test_p2_triangularity(self):
        v = analytic_for(P2).v_plus
        assert np.abs(np.diagonal(v) - 1.0).max() < 1e-6
        for i in range(3):
            for j in range(i):
                assert abs(v[i, j]) < 1e-6

    def test_critical_direction_rejected(self):
        with pytest.raises(ValueError):
            monodromy_data_analytic(P1, P1.base_point, Direction.from_lifted_angle(0.0))


class TestReflectionData:
    def test_p1_matrices(self):
        data = reflected_for(P1)
        assert np.abs(data.v_plus - V_PLUS_P1).max() < 1e-5
        assert np.abs(np.linalg.inv(data.v_plus) - GRAM_P1).max() < 1e-5
        assert len(data.betas) == 2
        assert data.betas[0].m_tag == 0.0

    def test_p2_matrices(self):
        # the spectral frame of P2 hands two slots a negative sign;
        # the gauge makes consecutive pairings nonnegative, after which
        # the integer oracle matrices must appear verbatim
        data = reflected_for(P2)
        gram = np.linalg.inv(data.v_plus)
        s = gram_sign_gauge(gram)
        assert tuple(int(x) for x in s) == (1, -1, -1)
        gauge = np.outer(s, s)
        assert np.abs(gram * gauge - GRAM_P2).max() < 1e-5
        assert np.abs(data.v_plus * gauge - V_PLUS_P2).max() < 1e-5

    def test_stokes_independent_of_m(self):
        lhs = reflected_for(P1, 0.3).v_plus
        assert np.abs(lhs - reflected_for(P1).v_plus).max() < 1e-6

    def test_central_connection_is_scaled_reflection_gram(self):
        data = reflected_for(P1)
        cols = np.column_stack([b.beta for b in data.betas])
        expect = cols.T @ P1.pairing / math.sqrt(2.0 * math.pi)
        assert np.abs(data.c_matrix - expect).max() < 1e-12

    def test_hm_through_stokes_matrix(self):
        for model in (P1, P2):
            m = 0.3
            q = twist(m)
            data = reflected_for(model, m)
            cols = np.column_stack([b.beta for b in data.betas])
            lhs = q * np.linalg.inv(data.v_plus)
            lhs += np.linalg.inv(data.v_plus).T / q
            rhs = cols.T @ hm_matrix(model, m) @ cols
            assert np.abs(lhs - rhs).max() < 1e-5

    def test_dual_vectors_solve_central_connection_columns(self):
        from qstokes.periods import dual_reflection_basis

        m = 0.3
        q = twist(m)
        data = reflected_for(P1, m)
        duals = dual_reflection_basis(P1, m, list(data.betas))
        k_cols = np.linalg.inv(data.c_matrix)
        rho = 1j * math.pi * P1.rho
        exp_rho = np.eye(2) + rho  # rho^2 = 0 in dimension two
        exp_theta = np.diag(np.exp(1j * math.pi * P1.theta_eigenvalues))
        op = (exp_theta @ exp_rho) / q
        op += q * np.linalg.inv(exp_theta) @ (np.eye(2) - rho)
        for i in range(2):
            got = math.sqrt(2.0 * math.pi) * np.linalg.solve(op, k_cols[:, i])
            assert np.abs(got - duals[i]).max() < 1e-5


class TestTwoWayAgreement:
    def test_p1(self):
        report = compare_monodromy_data(reflected_for(P1), analytic_for(P1))
        assert report["signs"] == (1, 1)
        assert report["v_plus"] < 1e-5
        assert report["c_matrix"] < 1e-5

    def test_p2(self):
        report = compare_monodromy_data(reflected_for(P2), analytic_for(P2))
        assert report["v_plus"] < 1e-5
        assert report["c_matrix"] < 1e-5

    def test_sign_normalization_detects_column_flips(self):
        data = analytic_for(P1)
        d = np.diag([1.0, -1.0])
        flipped = MonodromyData(
            v_plus=d @ data.v_plus @ d,
            v_minus=(d @ data.v_plus @ d).T,
            c_matrix=d @ data.c_matrix,
            eta=data.eta,
            order=data.order,
        )
        report = compare_monodromy_data(data, flipped)
        assert report["signs"] == (1, -1)
        assert report["max"] < 1e-12

    def test_mismatched_order_rejected(self):
        data = analytic_for(P1)
        swapped = MonodromyData(
            v_plus=data.v_plus,
            v_minus=data.v_minus,
            c_matrix=data.c_matrix,
            eta=data.eta,
            order=(1, 0),
        )
        with pytest.raises(ValueError):
            compare_monodromy_data(data, swapped)


class TestWallCrossing:
    def test_p1_wall_matrix_and_predictions(self):
        # the only wall of P^1 seen from eta = i sits at lifted angle pi
        m = 0.3
        data = reflected_for(P1, m)
        w, predicted = wallcrossing_matrices(P1, P1.base_point, data.betas, 0)
        assert np.abs(w - GRAM_P1).max() < 1e-6
        q = twist(m)
        h = hm_matrix(P1, m)
        b0, b1 = (b.beta for b in data.betas)
        expect = b1 - q * (b1 @ h @ b0) * b0
        assert np.abs(predicted[0].beta - b0).max() < 1e-12
        assert np.abs(predicted[1].beta - expect).max() < 1e-7

    def test_p1_predictions_match_re_extraction(self):
        m = 0.3
        u = canonical_data(P1, P1.base_point).u
        data = reflected_for(P1, m)
        _, predicted = wallcrossing_matrices(P1, P1.base_point, data.betas, 0)
        crossed = reference_system(u, Direction.from_lifted_angle(math.radians(210)), 5.0)
        slots = match_by_target(predicted, crossed)
        for pred, slot in zip(predicted, slots):
            fresh = reflection_vector(P1, m, crossed.paths[slot]).beta
            assert np.abs(pred.beta - fresh).max() < 1e-5

    def test_p1_wall_product_is_v_minus(self):
        data = reflected_for(P1)
        w, _ = wallcrossing_matrices(P1, P1.base_point, data.betas, 0)
        assert np.abs(np.linalg.inv(w.T) - data.v_minus).max() < 1e-5

    def test_p2_single_wall_against_re_extraction(self):
        # from the rotated chamber the first anticlockwise crossing is
        # the wall at 153.8 degrees, index 1 of the clockwise list
        m = 0.3
        u = canonical_data(P2, P2.base_point).u
        data = reflected_for(P2, m)
        w, predicted = wallcrossing_matrices(P2, P2.base_point, data.betas, 1)
        offdiag = np.abs(w - np.eye(3))
        hits = np.argwhere(offdiag > 1e-8)
        assert len(hits) == 1
        k, l = (int(a) for a in hits[0])
        assert abs(w[k, l] - np.linalg.inv(data.v_plus)[k, l]) < 1e-8
        crossed = reference_system(
            u, Direction.from_lifted_angle(math.radians(160.0)), 8.0
        )
        slots = match_by_target(predicted, crossed)
        for pred, slot in zip(predicted, slots):
            fresh = reflection_vector(P2, m, crossed.paths[slot]).beta
            assert np.abs(pred.beta - fresh).max() < 1e-5

    def test_p2_wall_bridges_the_two_chambers(self):
        # eta = i lives one wall below the rotated chamber used
        # everywhere else in this file; its Gram matrix has the smaller
        # corner entry, and crossing the wall at 93.82 degrees (index 2)
        # must hand back the vectors of the rotated chamber
        m = 0.3
        low = monodromy_data_from_reflections(P2, P2.base_point, ETA, m)
        gram = np.linalg.inv(low.v_plus)
        s = gram_sign_gauge(gram)
        assert np.abs(gram * np.outer(s, s) - GRAM_P2_LOW).max() < 1e-5
        _, predicted = wallcrossing_matrices(P2, P2.base_point, low.betas, 2)
        data = reflected_for(P2, m)
        for pred in predicted:
            want = pred.path.target_point()
            dist = [abs(b.path.target_point() - want) for b in data.betas]
            slot = int(np.argmin(dist))
            assert dist[slot] < 1e-9
            assert np.abs(pred.beta - data.betas[slot].beta).max() < 1e-5

    def test_p2_wall_products_reproduce_stokes_data(self):
        # walking eta anticlockwise through half a turn multiplies the
        # transposed wall matrices; updated vectors feed each crossing
        data = reflected_for(P2)
        betas = data.betas
        prod = np.eye(3)
        for nu in (1, 0, 5):
            w, betas = wallcrossing_matrices(P2, P2.base_point, betas, nu)
            prod = prod @ w.T
        assert np.abs(np.linalg.inv(prod) - data.v_minus).max() < 1e-5

    def test_half_twist_recovers_opposite_system(self):
        # full clockwise-to-anticlockwise half turn: mutate through all
        # slots in order, then compare with the system of -eta
        m = 0.3
        q = twist(m)
        h = hm_matrix(P1, m)
        data = reflected_for(P1, m)
        b = [vec.beta for vec in data.betas]
        tilde = [b[0]]
        for t in range(1, len(b)):
            cur = b[t]
            for s in range(t - 1, -1, -1):
                cur = cur - q * (cur @ h @ b[s]) * b[s]
            tilde.append(cur)
        u = canonical_data(P1, P1.base_point).u
        flipped = reference_system(u, ETA.rotated(math.pi), 5.0)
        for vec, pos in zip(data.betas, range(len(b))):
            want = vec.path.target_point()
            dist = [abs(p.target_point() - want) for p in flipped.paths]
            slot = int(np.argmin(dist))
            fresh = reflection_vector(P1, m, flipped.paths[slot]).beta
            assert np.abs(tilde[pos] - fresh).max() < 1e-5

    def test_wall_index_out_of_range(self):
        data = reflected_for(P1)
        for nu in (-1, 2):
            with pytest.raises(IndexError):
                wallcrossing_matrices(P1, P1.base_point, data.betas, nu)

    def test_mixed_m_tags_rejected(self):
        mixed = (reflected_for(P1).betas[0], reflected_for(P1, 0.3).betas[1])
        with pytest.raises(ValueError):
            wallcrossing_matrices(P1, P1.base_point, mixed, 0)


class TestModelFileRoutes:
    """Models read back from JSON extend their stored calibration by the
    same recursion, so both routes reproduce the built-in data."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_matches_builtin(self, n, tmp_path):
        m = 0.3
        if n <= 2:
            built = {1: P1, 2: P2}[n]
            eta = ETA_FOR[built.name]
            pairs = [(reflected_for(built, m), monodromy_data_from_reflections),
                     (analytic_for(built), monodromy_data_analytic)]
        else:
            built = qh_projective_space(n, cmath.exp(0.2j))
            eta = ETA_P2
            want = monodromy_data_from_reflections(built, built.base_point, eta, m)
            pairs = [(want, monodromy_data_from_reflections)]
        path = tmp_path / "model.json"
        save_model(built, path)
        loaded = load_model(path)
        for want, route in pairs:
            args = (eta, m) if route is monodromy_data_from_reflections else (eta,)
            got = route(loaded, loaded.base_point, *args)
            assert compare_monodromy_data(want, got)["max"] < 1e-9
            v = np.asarray(got.v_plus)
            assert np.abs(v - np.round(v.real)).max() < 1e-6

    @pytest.mark.slow
    def test_p8_raises_or_returns_integer_stokes(self):
        # past what double precision carries the route must raise, never
        # return a V+ away from the integers
        model = qh_projective_space(8, cmath.exp(0.2j))
        try:
            data = monodromy_data_from_reflections(model, model.base_point, ETA_P2, 0.0)
        except RuntimeError as exc:
            assert "h_m(beta, beta)" in str(exc)
            return
        v = np.asarray(data.v_plus)
        assert np.abs(v - np.round(v.real)).max() < 1e-2


class TestConsistencyReport:
    def test_reflection_report_passes(self):
        report = consistency_report(reflected_for(P1), P1)
        names = {entry["identity"] for entry in report}
        assert {
            "unit-diagonal",
            "sector-vanishing",
            "transpose-symmetry",
            "stokes-from-central-connection-plus",
            "stokes-from-central-connection-minus",
            "hm-through-stokes",
            "central-connection-duals",
            "half-twist",
        } <= names
        for entry in report:
            assert entry["passed"], entry
            assert entry["residual"] <= entry["tolerance"]

    def test_transpose_entry_flags_construction(self):
        report = consistency_report(reflected_for(P1), P1, half_twist=False)
        entry = next(e for e in report if e["identity"] == "transpose-symmetry")
        assert entry["residual"] == 0.0
        assert "construction" in entry.get("note", "")

    def test_analytic_report_skips_reflection_checks(self):
        report = consistency_report(analytic_for(P1), P1)
        names = {entry["identity"] for entry in report}
        assert "hm-through-stokes" not in names
        assert "stokes-from-central-connection-plus" in names
        for entry in report:
            assert entry["passed"], entry

    def test_corrupted_data_reported_not_raised(self):
        data = analytic_for(P1)
        bad = np.array(data.v_plus)
        bad[0, 1] += 0.5
        broken = MonodromyData(
            v_plus=bad,
            v_minus=bad.T,
            c_matrix=data.c_matrix,
            eta=data.eta,
            order=data.order,
        )
        report = consistency_report(broken, P1)
        failed = [e for e in report if not e["passed"]]
        assert failed
        assert any(e["identity"].startswith("stokes-from") for e in failed)
