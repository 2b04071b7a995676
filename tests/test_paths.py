import cmath
import functools
import math

import numpy as np
import pytest

from qstokes.paths import (
    Direction,
    DistinguishedSystem,
    PathPlan,
    braid_move,
    critical_directions,
    eta_sequences,
    lexicographic_order,
    reference_system,
    simple_loop,
)

P2_U = 3.0 * np.exp(2j * math.pi * np.arange(3) / 3.0)

# canonical coordinates of quantum P^2 at q = exp(0.2i); the twist moves
# the spectrum off the symmetric configuration, for which eta = i would
# be a critical direction
P2_TWISTED = np.sort_complex(3.0 * np.exp(1j * (0.2 / 3.0 + 2.0 * math.pi * np.arange(3) / 3.0)))

# window angles of the six critical directions of the P^2 spectrum,
# clockwise through (-pi/2, 3pi/2]; worked out from the differences
# 3(1 - zeta) etc. whose arguments are -pi/6, pi/2, pi/6 up to sign
P2_CRITICAL_ANGLES = [
    3 * math.pi / 2,
    7 * math.pi / 6,
    5 * math.pi / 6,
    math.pi / 2,
    math.pi / 6,
    -math.pi / 6,
]


def brute_force_order(u, eta):
    """Order indices by the half-plane test: i before j when u_j lies
    on the right of the line through u_i with direction eta."""

    def before(i, j):
        # right of the line = positive component along -i*eta
        s = ((u[j] - u[i]) * np.conj(-1j * eta)).real
        return -1 if s > 0 else 1

    return sorted(range(len(u)), key=functools.cmp_to_key(before))


def segment_gap(a0, a1, b0, b1):
    """Distance between two segments, zero if they properly cross."""
    da, db = a1 - a0, b1 - b0

    def cross(p, q):
        return (np.conj(p) * q).imag

    o1, o2 = cross(da, b0 - a0), cross(da, b1 - a0)
    o3, o4 = cross(db, a0 - b0), cross(db, a1 - b0)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return 0.0

    def point_seg(p, q0, q1):
        d = q1 - q0
        den = (d * np.conj(d)).real
        if den == 0.0:
            return abs(p - q0)
        t = min(1.0, max(0.0, ((p - q0) * np.conj(d)).real / den))
        return abs(p - (q0 + t * d))

    return min(
        point_seg(a0, b0, b1),
        point_seg(a1, b0, b1),
        point_seg(b0, a0, a1),
        point_seg(b1, a0, a1),
    )


def pairwise_min_gap(pa, pb, base):
    """Min distance between two polylines, skipping the segment pair
    that shares the base point."""
    best = math.inf
    for k in range(len(pa) - 1):
        for l in range(len(pb) - 1):
            if k == 0 and l == 0:
                continue
            best = min(best, segment_gap(pa[k], pa[k + 1], pb[l], pb[l + 1]))
    return best


def check_system(system, u):
    base = system.paths[0].base_value
    angles = []
    for plan in system.paths:
        assert abs(plan.waypoints[0] - base) < 1e-12 * abs(base)
        angles.append(cmath.phase(plan.waypoints[1] - base) % (2 * math.pi))
    assert all(a2 > a1 for a1, a2 in zip(angles, angles[1:]))
    for k in range(len(system.paths)):
        for l in range(k + 1, len(system.paths)):
            gap = pairwise_min_gap(
                system.paths[k].waypoints, system.paths[l].waypoints, base
            )
            assert gap > 1e-9 * abs(base)
    spread = max(abs(a - b) for a in u for b in u)
    for slot, plan in enumerate(system.paths):
        target = system.permutation[slot]
        for j in range(len(u)):
            pts = plan.waypoints if j == target else plan.waypoints
            if j == target:
                pts = plan.waypoints[:-1]
            assert np.abs(pts - u[j]).min() > 1e-3 * spread


def winding(points, center):
    rel = np.asarray(points) - center
    steps = np.angle(rel[1:] / rel[:-1])
    return steps.sum() / (2 * math.pi)


class TestDirection:
    def test_reference_is_i(self):
        d = Direction.reference()
        assert d.eta == 1j
        assert d.log_eta == 0.5j * math.pi

    def test_rotation_tracks_branch(self):
        d = Direction.reference().rotated(2 * math.pi)
        assert abs(d.eta - 1j) < 1e-12
        assert abs(d.log_eta - 1j * (0.5 * math.pi + 2 * math.pi)) < 1e-12

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Direction(2.0 + 0j, math.log(2.0) + 0j)
        with pytest.raises(ValueError):
            Direction(1j, 0.0j)


class TestCriticalDirections:
    def test_two_points(self):
        dirs = critical_directions([-2.0, 2.0])
        assert len(dirs) == 2
        assert abs(dirs[0].eta + 1.0) < 1e-14  # angle pi comes first
        assert abs(dirs[1].eta - 1.0) < 1e-14

    def test_p2_angles(self):
        dirs = critical_directions(P2_U)
        got = [d.lifted_angle for d in dirs]
        assert np.abs(np.array(got) - np.array(P2_CRITICAL_ANGLES)).max() < 1e-12

    def test_p2_against_enumeration_oracle(self):
        raw = set()
        for i in range(3):
            for j in range(3):
                if i != j:
                    a = cmath.phase(P2_U[i] - P2_U[j])
                    if a <= -math.pi / 2:
                        a += 2 * math.pi
                    raw.add(round(a, 9))
        got = sorted(round(d.lifted_angle, 9) for d in critical_directions(P2_U))
        assert got == sorted(raw)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_negation_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        dirs = critical_directions(u)
        mu = len(dirs) // 2
        assert len(dirs) == 2 * mu
        for nu in range(mu):
            assert abs(dirs[nu + mu].eta + dirs[nu].eta) < 1e-12

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            critical_directions([1.0, 1.0, 2.0])


class TestLexicographicOrder:
    def test_standard_direction_sorts_by_real_part(self):
        u = np.array([2.0, -2.0], dtype=complex)
        perm = lexicographic_order(u, Direction.reference())
        assert list(perm) == [1, 0]

    def test_real_direction_half_plane(self):
        # stand at i and look along +1: -i lies on the right, so i
        # comes first
        u = np.array([1j, -1j])
        perm = lexicographic_order(u, Direction.from_lifted_angle(0.0))
        assert list(perm) == [0, 1]
        assert list(perm) == brute_force_order(u, 1.0 + 0j)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_half_plane_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 6))
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        eta = Direction.from_lifted_angle(float(rng.uniform(-2.5, 2.5)))
        try:
            perm = lexicographic_order(u, eta)
        except ValueError:
            return
        assert list(perm) == brute_force_order(u, eta.eta)

    def test_reversed_direction_reverses(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=5) + 1j * rng.normal(size=5)
        eta = Direction.from_lifted_angle(0.3)
        fwd = list(lexicographic_order(u, eta))
        bwd = list(lexicographic_order(u, eta.rotated(math.pi)))
        assert fwd == bwd[::-1]

    def test_critical_direction_rejected(self):
        u = np.array([-2.0, 2.0], dtype=complex)
        with pytest.raises(ValueError):
            lexicographic_order(u, Direction.from_lifted_angle(0.0))


class TestReferenceSystem:
    def test_p1_layout(self):
        u = np.array([-2.0, 2.0], dtype=complex)
        system = reference_system(u, Direction.reference(), 3.0)
        assert list(system.permutation) == [0, 1]
        check_system(system, u)
        for slot, plan in enumerate(system.paths):
            branch = plan.end_log_branch
            assert abs(complex(branch.value) - 0.4j) < 1e-12
            assert abs(branch.log - (math.log(0.4) + 0.5j * math.pi)) < 1e-12
            assert abs(plan.waypoints[-1] - (u[slot] + 0.4j)) < 1e-12
            assert plan.base_value == 3.0

    def test_p1_no_extra_winding_at_reference_direction(self):
        u = np.array([-2.0, 2.0], dtype=complex)
        system = reference_system(u, Direction.reference(), 3.0)
        for plan in system.paths:
            assert abs(winding(plan.waypoints, 0.0)) < 0.5

    def test_p2_system(self):
        u = P2_TWISTED
        system = reference_system(u, Direction.reference(), 5.0)
        check_system(system, u)
        assert list(np.argsort(u.real)) == list(system.permutation)

    def test_deformed_direction_carries_winding(self):
        u = np.array([-2.0, 2.0], dtype=complex)
        eta = Direction.reference().rotated(-2 * math.pi)
        system = reference_system(u, eta, 3.0)
        check_system(system, u)
        for plan in system.paths:
            assert winding(plan.waypoints, 0.0) < -0.5
            assert abs(plan.end_log_branch.log.imag - (0.5 * math.pi - 2 * math.pi)) < 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_random_configurations(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 5))
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        eta = Direction.reference().rotated(float(rng.uniform(-2.2, 2.2)))
        try:
            system = reference_system(u, eta, 1.4 * float(np.abs(u).max()))
        except ValueError:
            return
        check_system(system, u)

    def test_small_base_value_rejected(self):
        u = np.array([-2.0, 2.0], dtype=complex)
        with pytest.raises(ValueError):
            reference_system(u, Direction.reference(), 2.0)

    def test_critical_direction_rejected(self):
        u = np.array([-2.0, 2.0], dtype=complex)
        with pytest.raises(ValueError):
            reference_system(u, Direction.from_lifted_angle(0.0), 3.0)


class TestSimpleLoop:
    def test_circle_through_endpoint(self):
        u = np.array([-2.0, 2.0], dtype=complex)
        system = reference_system(u, Direction.reference(), 3.0)
        plan = system.paths[0]
        loop = simple_loop(plan)
        assert abs(loop[0] - plan.waypoints[-1]) < 1e-12
        assert abs(loop[-1] - plan.waypoints[-1]) < 1e-12
        assert round(winding(loop, u[0]).real) == 1


class TestBraidMove:
    def _p1(self):
        u = np.array([-2.0, 2.0], dtype=complex)
        return u, reference_system(u, Direction.reference(), 3.0)

    def test_left_move_bookkeeping(self):
        u, system = self._p1()
        moved = braid_move(system, 1, "L")
        assert list(moved.permutation) == [1, 0]
        # old first path is carried over unchanged to the second slot
        assert np.array_equal(moved.paths[1].waypoints, system.paths[0].waypoints)
        check_system(moved, u)
        # the new first path winds once anticlockwise around the passed point
        w_new = winding(moved.paths[0].waypoints, u[0])
        w_old = winding(system.paths[1].waypoints, u[0])
        assert round(float(w_new - w_old)) == 1

    def test_right_move_bookkeeping(self):
        u, system = self._p1()
        moved = braid_move(system, 1, "R")
        assert list(moved.permutation) == [1, 0]
        assert np.array_equal(moved.paths[0].waypoints, system.paths[1].waypoints)
        check_system(moved, u)
        w_new = winding(moved.paths[1].waypoints, u[1])
        w_old = winding(system.paths[0].waypoints, u[1])
        assert round(float(w_new - w_old)) == -1

    def test_right_inverts_left_combinatorially(self):
        u, system = self._p1()
        back = braid_move(braid_move(system, 1, "L"), 1, "R")
        assert list(back.permutation) == list(system.permutation)
        assert np.array_equal(back.paths[0].waypoints, system.paths[0].waypoints)
        check_system(back, u)
        # net winding of the decorated second path cancels
        w = winding(back.paths[1].waypoints, u[0])
        w0 = winding(system.paths[1].waypoints, u[0])
        assert round(float(w - w0)) == 0
        assert back.paths[1].target_index == system.paths[1].target_index
        assert back.paths[1].end_log_branch == system.paths[1].end_log_branch

    def test_braid_relation_abelianized(self):
        u = P2_TWISTED
        system = reference_system(u, Direction.reference(), 5.0)
        lhs = braid_move(braid_move(braid_move(system, 1, "L"), 2, "L"), 1, "L")
        rhs = braid_move(braid_move(braid_move(system, 2, "L"), 1, "L"), 2, "L")
        assert list(lhs.permutation) == list(rhs.permutation)
        check_system(lhs, u)
        check_system(rhs, u)
        for slot in range(3):
            assert lhs.paths[slot].target_index == rhs.paths[slot].target_index
            for j in range(3):
                wl = winding(lhs.paths[slot].waypoints, u[j])
                wr = winding(rhs.paths[slot].waypoints, u[j])
                assert round(float(wl - wr)) == 0

    def test_index_out_of_range(self):
        _, system = self._p1()
        with pytest.raises(IndexError):
            braid_move(system, 0, "L")
        with pytest.raises(IndexError):
            braid_move(system, 2, "L")
        with pytest.raises(ValueError):
            braid_move(system, 1, "X")


class TestEtaSequences:
    def test_two_points_far_first(self):
        u = np.array([-2.0, 2.0], dtype=complex)
        seqs = eta_sequences(u, Direction.from_lifted_angle(0.0))
        assert seqs == [(1, 0)]

    def test_p2_all_critical_directions(self):
        for d in critical_directions(P2_U):
            seqs = eta_sequences(P2_U, d)
            sizes = sorted(len(s) for s in seqs)
            assert sizes == [1, 2]
            for seq in seqs:
                proj = [float((P2_U[i] * np.conj(d.eta)).real) for i in seq]
                assert proj == sorted(proj, reverse=True)
                for i in seq[1:]:
                    off = (P2_U[i] - P2_U[seq[0]]) * np.conj(d.eta)
                    assert abs(off.imag) < 1e-9

    def test_non_critical_rejected(self):
        with pytest.raises(ValueError):
            eta_sequences(P2_U, Direction.from_lifted_angle(0.1))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generic_configurations_pair_or_single(self, seed):
        rng = np.random.default_rng(800 + seed)
        u = rng.normal(size=5) + 1j * rng.normal(size=5)
        for d in critical_directions(u):
            for seq in eta_sequences(u, d):
                assert len(seq) <= 2


class TestPathPlan:
    def test_first_waypoint_must_be_base(self):
        with pytest.raises(ValueError):
            PathPlan(
                waypoints=np.array([1.0 + 0j, 2.0 + 0j]),
                target_index=0,
                end_log_branch=None,
                base_value=3.0,
            )
