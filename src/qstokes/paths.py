"""Plane geometry of reference paths in the deformed spectral plane.

Everything in this module is elementary geometry: admissible directions
and the order they induce on the spectrum of the Euler multiplication,
nested systems of reference paths, braid moves on such systems, and the
collinearity sequences used by wall crossing. No analytic continuation
happens here; paths are polylines that the period routines consume.

A system of reference paths is built as a nest: path number k leaves the
base point, runs to its own circle of radius base - k * spacing, sweeps
along that circle to the point where the ray u + s * eta hits it, and
descends the ray to a short standoff from u. Sorting the spectrum by the
lexicographic key Re(u * i / eta) sorts the ray hit angles in the
opposite sense at every nest radius, which is exactly what makes the
nested arcs and the ray descents pairwise disjoint.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numerics import LogBranchPoint

__all__ = [
    "Direction",
    "PathPlan",
    "DistinguishedSystem",
    "braid_move",
    "critical_directions",
    "eta_sequences",
    "lexicographic_order",
    "reference_system",
    "simple_loop",
]

# maximum turning angle per polyline segment on circular arcs
_TURN = math.pi / 36.0

# relative tolerance deciding when eta is parallel to a spectral difference
_CRITICAL_TOL = 1e-9


@dataclass(frozen=True)
class Direction:
    """Unit direction in the spectral plane with a lifted logarithm.

    The branch matters: log_eta records how the direction was reached
    from the reference direction i (with log i = i pi/2), and the paths
    built from it inherit that winding.
    """

    eta: complex
    log_eta: complex

    def __post_init__(self):
        object.__setattr__(self, "eta", complex(self.eta))
        object.__setattr__(self, "log_eta", complex(self.log_eta))
        if abs(abs(self.eta) - 1.0) > 1e-12:
            raise ValueError("direction must be a unit complex number")
        if abs(cmath.exp(self.log_eta) - self.eta) > 1e-12:
            raise ValueError("log_eta is not a logarithm of eta")

    @classmethod
    def reference(cls):
        return cls(1j, 0.5j * math.pi)

    @classmethod
    def from_lifted_angle(cls, angle):
        return cls(cmath.exp(1j * angle), 1j * float(angle))

    @property
    def lifted_angle(self):
        return float(self.log_eta.imag)

    def rotated(self, delta):
        """Rotate by delta radians, deforming the branch continuously."""
        return Direction(self.eta * cmath.exp(1j * delta), self.log_eta + 1j * delta)


@dataclass(frozen=True)
class PathPlan:
    """Polyline from the base point to a standoff near one spectral point.

    end_log_branch fixes the branch of log(lambda - u) at the endpoint,
    transported along the path from the base point.
    """

    waypoints: np.ndarray
    target_index: int
    end_log_branch: LogBranchPoint
    base_value: float

    def __post_init__(self):
        pts = np.asarray(self.waypoints, dtype=complex)
        pts.setflags(write=False)
        object.__setattr__(self, "waypoints", pts)
        if pts.ndim != 1 or len(pts) < 2:
            raise ValueError("a path needs at least two waypoints")
        if abs(pts[0] - self.base_value) > 1e-9 * max(1.0, abs(self.base_value)):
            raise ValueError("paths must start at the base point")

    @property
    def end(self):
        return complex(self.waypoints[-1])

    def target_point(self):
        """The spectral point this path runs to."""
        return self.end - complex(self.end_log_branch.value)


def _unit(z):
    return z / abs(z)


def _min_gap(u):
    """Smallest distance between two of the points u; inf for fewer than two."""
    n = len(u)
    return min((abs(u[i] - u[j]) for i in range(n) for j in range(i + 1, n)),
               default=math.inf)


def _arc(center, radius, a_from, a_to):
    """Circular arc between two lifted angles, both endpoints included."""
    steps = max(1, int(math.ceil(abs(a_to - a_from) / _TURN)))
    angles = np.linspace(a_from, a_to, steps + 1)
    return center + radius * np.exp(1j * angles)


def _segment_gaps(a, b):
    """Min distances between every segment of polyline a and of b."""
    a0, a1 = a[:-1, None], a[1:, None]
    b0, b1 = b[None, :-1], b[None, 1:]
    da, db = a1 - a0, b1 - b0

    def cross(p, q):
        return (np.conj(p) * q).imag

    o1 = cross(da, b0 - a0)
    o2 = cross(da, b1 - a0)
    o3 = cross(db, a0 - b0)
    o4 = cross(db, a1 - b0)
    crossing = (o1 * o2 < 0) & (o3 * o4 < 0)

    def point_seg(p, q0, dq):
        den = (dq * np.conj(dq)).real
        t = np.clip(
            np.divide(((p - q0) * np.conj(dq)).real, den, where=den > 0,
                      out=np.zeros(np.broadcast(p, q0).shape)),
            0.0, 1.0,
        )
        return np.abs(p - (q0 + t * dq))

    d = np.minimum(
        np.minimum(point_seg(a0, b0, db), point_seg(a1, b0, db)),
        np.minimum(point_seg(b0, a0, da), point_seg(b1, a0, da)),
    )
    d[crossing] = 0.0
    return d


def _polyline_gap(a, b):
    """Min distance between two polylines, away from their shared start."""
    d = _segment_gaps(np.asarray(a), np.asarray(b))
    d[0, 0] = np.inf
    return float(d.min())


def _point_polyline_distance(z, pts):
    d = _segment_gaps(np.array([z, z]), np.asarray(pts))
    return float(d.min())


def _lifted_end_angle(pts, center):
    """Continuous argument of pts[-1] - center, tracked along the polyline."""
    rel = np.asarray(pts) - center
    return float(np.angle(rel[0]) + np.angle(rel[1:] / rel[:-1]).sum())


@dataclass(frozen=True)
class DistinguishedSystem:
    """Reference paths, one per spectral point, exiting anticlockwise.

    permutation[k] is the index of the spectral point reached by slot k;
    slots are listed in the order the paths leave the base point,
    sweeping anticlockwise through the inward directions.
    """

    paths: tuple
    permutation: tuple

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        object.__setattr__(self, "permutation", tuple(int(p) for p in self.permutation))

    def spectrum(self):
        """Spectral points recovered from endpoints and end branches."""
        n = len(self.paths)
        if sorted(self.permutation) != list(range(n)):
            raise ValueError("slot targets do not form a permutation")
        u = np.zeros(n, dtype=complex)
        for slot, plan in enumerate(self.paths):
            u[self.permutation[slot]] = plan.target_point()
        return u

    def base_value(self):
        return self.paths[0].base_value

    def validate(self):
        """Check the defining invariants, raising ValueError on a breach.

        Paths must keep 1e-3 times the spectral spread away from every
        spectral point but their own target.
        """
        u = self.spectrum()
        base = self.base_value()
        angles = []
        for plan in self.paths:
            if plan.base_value != base:
                raise ValueError("paths share no common base point")
            angles.append(cmath.phase(plan.waypoints[1] - base) % (2.0 * math.pi))
        if any(a2 <= a1 for a1, a2 in zip(angles, angles[1:])):
            raise ValueError("paths do not exit the base point anticlockwise")
        if angles and not (0.5 * math.pi - 0.3 < angles[0] and angles[-1] < 1.5 * math.pi + 0.3):
            raise ValueError("paths do not enter the spectral disk")
        tol = 1e-12 * max(1.0, abs(base))
        for k in range(len(self.paths)):
            for l in range(k + 1, len(self.paths)):
                gap = _polyline_gap(self.paths[k].waypoints, self.paths[l].waypoints)
                if gap <= tol:
                    raise ValueError("paths %d and %d intersect away from the base point" % (k, l))
        spread = max((abs(a - b) for a in u for b in u), default=abs(base))
        clearance = 1e-3 * (spread if spread > 0 else abs(base))
        for slot, plan in enumerate(self.paths):
            for j in range(len(u)):
                pts = plan.waypoints[:-1] if j == self.permutation[slot] else plan.waypoints
                if np.abs(pts - u[j]).min() < clearance:
                    raise ValueError("slot %d runs too close to a spectral point" % slot)
        return self


def critical_directions(u):
    """Unit vectors parallel to differences of the spectral points.

    Returned clockwise: lifted angles descend through (-pi/2, 3pi/2], so
    entry nu + mu is the negative of entry nu.
    """
    u = np.asarray(u, dtype=complex)
    angles = []
    for i in range(len(u)):
        for j in range(len(u)):
            if i == j:
                continue
            d = u[i] - u[j]
            if d == 0:
                raise ValueError("coincident spectral points")
            a = cmath.phase(d)
            if a <= -0.5 * math.pi:
                a += 2.0 * math.pi
            angles.append(a)
    angles.sort(reverse=True)
    kept = []
    for a in angles:
        if all(min(abs(a - b), 2.0 * math.pi - abs(a - b)) > _CRITICAL_TOL for b in kept):
            kept.append(a)
    return [Direction.from_lifted_angle(a) for a in kept]


def _require_admissible(u, eta):
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            d = u[i] - u[j]
            if d == 0:
                raise ValueError("coincident spectral points")
            if abs((d * np.conj(eta.eta)).imag) <= _CRITICAL_TOL * abs(d):
                raise ValueError("eta is a critical direction of the spectrum")


def lexicographic_order(u, eta):
    """Permutation sorting the spectrum along an admissible direction.

    u_i comes before u_j when u_j lies on the right of the line through
    u_i with direction eta; the sort key is Re(u * i / eta), ascending.
    """
    u = np.asarray(u, dtype=complex)
    _require_admissible(u, eta)
    key = (u * (1j / eta.eta)).real
    return np.argsort(key, kind="stable")


def _ray_circle_hit(u_j, eta, radius):
    """Arc length s > 0 with |u_j + s eta| = radius (u_j inside)."""
    p = (u_j * np.conj(eta)).real
    return -p + math.sqrt(max(p * p + radius * radius - abs(u_j) ** 2, 0.0))


def reference_system(u, eta, base_value):
    """The nested distinguished system of reference paths for eta.

    Slot k targets the k-th point of the lexicographic order. Each path
    carries the natural end branch log(lambda - u) = log s + log eta.
    """
    u = np.asarray(u, dtype=complex)
    n = len(u)
    base_value = float(base_value)
    umax = float(np.abs(u).max()) if n else 0.0
    if not base_value > 1.1 * umax:
        raise ValueError("base value must exceed 1.1 * max |u_i|")
    _require_admissible(u, eta)
    order = lexicographic_order(u, eta) if n > 1 else np.array([0])
    key = (u * (1j / eta.eta)).real
    lifted = eta.lifted_angle

    # hit angles of the rays u + s eta with the base circle, per slot
    hit0 = lifted + np.arcsin(np.clip(-key[order] / base_value, -1.0, 1.0))
    amin = float(np.abs(hit0).min()) if n else 1.0
    if amin < 1e-5:
        raise ValueError("a spectral ray passes through the base point")

    gap = _min_gap(u) if n > 1 else base_value - umax
    margin = base_value - 1.02 * umax
    r_floor = 1.02 * umax if umax > 0 else 0.5 * base_value
    # keep the ray tracks angularly rigid across the nest band so the
    # stub corridor at the base stays clear of every descent
    spacing = min(0.02 * base_value, margin / (2.0 * n), amin * r_floor / (15.0 * n))
    eps = min(amin / 3.0, 0.15)

    # anticlockwise group (positive hit angle) nests outside the
    # clockwise group; within each group larger |angle| sits outside
    ccw = [s for s in range(n) if hit0[s] >= 0.0]
    cw = [s for s in range(n) if hit0[s] < 0.0]
    rank = {}
    for pos, s in enumerate(ccw):
        rank[s] = pos + 1
    for pos, s in enumerate(cw):
        rank[s] = n - pos

    plans = []
    for slot in range(n):
        t = int(order[slot])
        radius = base_value - spacing * rank[slot]
        start = eps if hit0[slot] >= 0.0 else -eps
        hit = lifted + math.asin(max(-1.0, min(1.0, -key[t] / radius)))
        s_hit = _ray_circle_hit(u[t], eta.eta, radius)
        s_end = min(0.1 * gap, 0.5 * s_hit)
        arc = _arc(0.0, radius, start, hit)
        pts = np.concatenate([[base_value], arc, [u[t] + s_end * eta.eta]])
        branch = LogBranchPoint(s_end * eta.eta, complex(math.log(s_end)) + eta.log_eta)
        plans.append(PathPlan(pts, t, branch, base_value))
    system = DistinguishedSystem(tuple(plans), tuple(int(x) for x in order))
    system.validate()
    return system


def simple_loop(plan):
    """Anticlockwise closed polyline around the path's target, through
    its endpoint.

    The circle has the radius of the end standoff, so a frame continued
    to the endpoint can be driven around it directly.
    """
    center = plan.target_point()
    rel = plan.end - center
    a0 = cmath.phase(rel)
    pts = np.array(_arc(center, abs(rel), a0, a0 + 2.0 * math.pi))
    pts[0] = plan.end
    pts[-1] = plan.end
    return pts


def _offset_polyline(pts, h, side):
    """Parallel copy at distance h, pinned at the first point.

    side +1 offsets to the left of the travel direction, -1 to the right.
    """
    pts = np.asarray(pts)
    pts = _dedupe(pts, 1e-12 * max(1.0, float(np.abs(pts).max())))
    seg = np.diff(pts)
    tang = seg / np.abs(seg)
    vert = np.empty(len(pts), dtype=complex)
    vert[0] = tang[0]
    vert[-1] = tang[-1]
    mids = tang[:-1] + tang[1:]
    bad = np.abs(mids) < 1e-9
    mids[bad] = tang[:-1][bad]
    vert[1:-1] = mids / np.abs(mids)
    out = pts + side * 1j * h * vert
    out[0] = pts[0]
    return out


def _cut_at_radius(pts, center, radius):
    """Initial run of pts, cut exactly where it first enters the circle."""
    r = np.abs(pts - center)
    inside = np.nonzero(r < radius)[0]
    if len(inside) == 0 or inside[0] == 0:
        raise ValueError("polyline does not enter the circle")
    k = inside[0]
    p, d = pts[k - 1] - center, pts[k] - pts[k - 1]
    a = (d * np.conj(d)).real
    b = 2.0 * (p * np.conj(d)).real
    c = (p * np.conj(p)).real - radius * radius
    t = (-b - math.sqrt(max(b * b - 4.0 * a * c, 0.0))) / (2.0 * a)
    t = min(1.0, max(0.0, t))
    return np.concatenate([pts[:k], [pts[k - 1] + t * d]])


def _dedupe(pts, tol):
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.abs(np.diff(pts)) > tol
    return pts[keep]


def _pocket_composite(system, looped, tail, side):
    """Perturbed composition of tail with an elementary loop of looped.

    For a left move the pocket leaves just clockwise of looped, winds
    anticlockwise around its target, and returns on the other side; the
    right move mirrors both. With these orientations the lasso is
    simple (the arc sweeps a full turn minus the corridor mouth), so
    loops added by later moves nest through the open mouth and the
    system stays pairwise disjoint.
    """
    base = looped.base_value
    u = system.spectrum()
    u_t = looped.target_point()
    gap = _min_gap(u) if len(u) > 1 else abs(base - u_t)

    rc = 0.7 * min(_point_polyline_distance(u_t, p.waypoints) for p in system.paths)
    hub_free = min(
        _point_polyline_distance(base, p.waypoints[1:]) for p in system.paths
    )
    r_hub = 0.45 * min(
        hub_free,
        abs(looped.waypoints[1] - base),
        abs(tail.waypoints[1] - base),
    )
    seps = [
        _polyline_gap(a.waypoints, b.waypoints)
        for i, a in enumerate(system.paths)
        for b in system.paths[i + 1:]
    ]
    h = 0.25 * min([rc, r_hub, 0.05 * gap] + seps)

    need = 1 if side == "L" else -1
    out_side = -1.0 if side == "L" else 1.0
    out = _offset_polyline(looped.waypoints, h, out_side)
    z_ent = u_t + rc * _unit(out[-1] - u_t)
    out = np.concatenate([out, [z_ent]])
    phi_out = _lifted_end_angle(out, u_t)

    back = _offset_polyline(looped.waypoints, h, -out_side)
    z_exit = u_t + rc * _unit(back[-1] - u_t)
    back = np.concatenate([back, [z_exit]])
    phi_exit = _lifted_end_angle(back, u_t)

    sweep = (phi_exit - phi_out) + 2.0 * math.pi * need
    circle = _arc(u_t, rc, phi_out, phi_out + sweep)
    ret = _cut_at_radius(back[::-1], base, r_hub)
    loop = np.concatenate([out, circle[1:], ret[1:]])

    a1 = cmath.phase(loop[-1] - base)
    a2 = cmath.phase(tail.waypoints[1] - base)
    if side == "L":
        hub_sweep = (a2 - a1) % (2.0 * math.pi)
    else:
        hub_sweep = -((a1 - a2) % (2.0 * math.pi))
    hub = _arc(base, r_hub, a1, a1 + hub_sweep)

    pts = np.concatenate([loop, hub[1:], tail.waypoints[1:]])
    pts = _dedupe(pts, 1e-12 * max(1.0, abs(base)))
    return PathPlan(pts, tail.target_index, tail.end_log_branch, base)


def braid_move(system, i, side):
    """Elementary braid move on slots i, i + 1 (1-based, side "L" or "R").

    The left move passes path i over path i + 1; the right move is its
    inverse. Composites are small perturbations of the composition with
    a simple loop, so the downstream reflection vectors transform by the
    corresponding reflection.
    """
    if side not in ("L", "R"):
        raise ValueError("side must be 'L' or 'R'")
    n = len(system.paths)
    if not 1 <= i <= n - 1:
        raise IndexError("braid index out of range")
    si = i - 1
    paths = list(system.paths)
    perm = list(system.permutation)
    if side == "L":
        comp = _pocket_composite(system, paths[si], paths[si + 1], "L")
        paths[si], paths[si + 1] = comp, paths[si]
    else:
        comp = _pocket_composite(system, paths[si + 1], paths[si], "R")
        paths[si], paths[si + 1] = paths[si + 1], comp
    perm[si], perm[si + 1] = perm[si + 1], perm[si]
    moved = DistinguishedSystem(tuple(paths), tuple(perm))
    moved.validate()
    return moved


def eta_sequences(u, eta):
    """Partition of the spectrum into rays parallel to a critical eta.

    Each sequence lists indices on one line u + s eta by decreasing s;
    sequences are ordered by the transverse coordinate Re(u * i / eta).
    """
    u = np.asarray(u, dtype=complex)
    n = len(u)
    is_critical = any(
        abs(((u[i] - u[j]) * np.conj(eta.eta)).imag) <= _CRITICAL_TOL * abs(u[i] - u[j])
        for i in range(n)
        for j in range(i + 1, n)
    )
    if not is_critical:
        raise ValueError("eta is not a critical direction of the spectrum")
    claimed = np.zeros(n, dtype=bool)
    groups = []
    for i in range(n):
        if claimed[i]:
            continue
        members = [i]
        claimed[i] = True
        for j in range(i + 1, n):
            if claimed[j]:
                continue
            d = u[j] - u[i]
            if abs((d * np.conj(eta.eta)).imag) <= _CRITICAL_TOL * abs(d):
                members.append(j)
                claimed[j] = True
        members.sort(key=lambda k: -(u[k] * np.conj(eta.eta)).real)
        groups.append(tuple(members))
    groups.sort(key=lambda g: (u[g[0]] * (1j / eta.eta)).real)
    return groups
