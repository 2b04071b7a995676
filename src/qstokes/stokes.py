"""Stokes matrices and the central connection of the z-plane ODE.

Flat sections of the twisted structure connection in the z-plane obey

    dX/dz = (-U/z**2 + theta/z) X,

with U the Euler multiplication and theta the grading operator.  Every
admissible direction eta singles out a fundamental frame X(eta) whose
column i decays like Psi e_i e^{u_i/z} as z -> 0 in the half-plane of
eta; the frame stays asymptotic on the wider sector bounded by the
walls (critical directions of the spectrum) adjacent to eta.  Opposite
frames are related by the Stokes matrices, X(-eta) = X(eta) V_+ on one
overlap sector and V_- = V_+^T on the other, and the comparison with
the calibrated solution T(z) = S(1/z) z^theta z^{-rho} (regular at
z = infinity) defines the central connection matrix: X(-eta) = T C^{-1}.

Two independent constructions are provided.  monodromy_data_analytic
uses that S is entire in 1/z, so T is exact on every branch of log z
and each frame is X(+-eta, z) = T(z) K+- for constant matrices K+-:
one seed leg per column, integrated from the asymptotic seed, fixes
that column of K, and V_+ and C are algebra on K+ and K-.
monodromy_data_from_reflections assembles the same matrices from
reflection vectors in the spectral plane: the inverse Stokes matrix is
their h_m Gram matrix rescaled to the Euler pairing, and C is the
reflection matrix against the flat pairing.

All matrices are indexed by the lexicographic slot order of the
spectrum along eta; order[k] records the canonical spectral index
behind slot k.  Branches follow the direction's lifted logarithm: T is
evaluated on the lift of z into the sector of the frame, and V_+
compares the frame of -eta (reached by the clockwise half turn) with
the frame of eta one full turn above it.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .frobenius import calibration_series, canonical_data, rmatrix_series
from .numerics import LogBranchPoint, continue_linear_ode, operator_power
from .paths import (
    Direction,
    _min_gap,
    critical_directions,
    eta_sequences,
    lexicographic_order,
    reference_system,
)
from .periods import (
    ReflectionVector,
    base_frame,
    continue_frame,
    hm_matrix,
    local_laurent_frame,
    reflection_vector,
    _twist_factors,
)

TWO_PI = 2.0 * math.pi

# bound on the first omitted term of the seed series; summed to its
# smallest term (the R-series is Gevrey-1), that term stands for it
_SEED_TOL = 1e-8
# order of the seed series; at the default radius gap/25 its smallest
# term sits at order 25-26 on P^1..P^8
_SEED_ORDER = 50
_SEED_DRIFT_TOL = 1e-5  # doubled seed radius must not move the frame more
_CONE_MARGIN = 0.02  # minimum normalized decay rate along a seed ray
_CRITICAL_MARGIN = 1e-9
# relative miss of the normalization h_m(beta, beta) = q + 1/q at which
# extracted reflection vectors are no longer trusted
_SELF_PAIRING_TOL = 3e-7


@dataclass(frozen=True)
class MonodromyData:
    """Stokes and central connection data of one admissible direction.

    v_plus and v_minus act on slot coordinates, c_matrix maps slot
    coordinates to flat coordinates; order[k] is the canonical index of
    the spectral point behind slot k.  betas holds the reflection
    vectors the data was assembled from and stays empty for data
    obtained by direct integration.
    """

    v_plus: np.ndarray
    v_minus: np.ndarray
    c_matrix: np.ndarray
    eta: Direction
    order: tuple
    betas: tuple = ()

    def __post_init__(self):
        for name in ("v_plus", "v_minus", "c_matrix"):
            arr = np.array(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "order", tuple(int(k) for k in self.order))
        object.__setattr__(self, "betas", tuple(self.betas))


# -- sector geometry ------------------------------------------------------


def _adjacent_walls(u, eta):
    """Lifted angles of the walls just below and above eta.

    Raises when eta is critical (within _CRITICAL_MARGIN of a wall) or
    when the spectrum has no walls at all.
    """
    alpha = eta.lifted_angle
    lifts = [d.lifted_angle for d in critical_directions(u)]
    if not lifts:
        raise ValueError("spectrum has fewer than two distinct points")
    below = None
    above = None
    for a in lifts:
        # the turns of this wall that bracket alpha
        k0 = math.floor((alpha - a) / TWO_PI)
        for k in (k0, k0 + 1):
            x = a + TWO_PI * k
            if abs(x - alpha) <= _CRITICAL_MARGIN:
                raise ValueError(
                    "direction at lifted angle {:.6g} is critical for the "
                    "spectrum".format(alpha)
                )
            if x < alpha and (below is None or x > below):
                below = x
            if x > alpha and (above is None or x < above):
                above = x
    return below, above


def _sector_window(u, eta):
    """Lifted angular interval on which the frame of eta is asymptotic."""
    below, above = _adjacent_walls(u, eta)
    return below + 0.5 * math.pi, above + 1.5 * math.pi


def _lift_into(z, window):
    lo, hi = window
    phase = cmath.phase(z)
    k = math.ceil((lo - phase) / TWO_PI)
    lifted = phase + TWO_PI * k
    if not lo < lifted < hi:
        raise ValueError(
            "z = {:.6g}{:+.6g}i lies outside the sector of this "
            "direction".format(z.real, z.imag)
        )
    return lifted


def _seed_rays(u, window, samples=1440):
    """Stable seeding angle per column, or None when the column has none.

    Outward integration from a tiny seed tracks the recessive solution,
    so column i is seeded where u_i is recessive against every other
    point: Re((u_i - u_j) e^{-i psi}) < 0 for all j.  The midpoint of
    the widest such arc inside the window is returned.
    """
    lo, hi = window
    grid = np.linspace(lo, hi, samples + 1)[1:-1]
    phase = np.exp(-1j * grid)
    rays = []
    for i in range(len(u)):
        ok = np.ones(len(grid), dtype=bool)
        for j in range(len(u)):
            if j == i:
                continue
            d = complex(u[i] - u[j])
            ok &= (d * phase).real < -_CONE_MARGIN * abs(d)
        rays.append(_widest_run_mid(grid, ok))
    return rays


def _widest_run_mid(grid, ok):
    best = None
    best_len = 0
    k = 0
    n = len(ok)
    while k < n:
        if not ok[k]:
            k += 1
            continue
        start = k
        while k < n and ok[k]:
            k += 1
        if k - start > best_len:
            best_len = k - start
            best = 0.5 * (grid[start] + grid[k - 1])
    if best is None or best_len * (grid[1] - grid[0]) < math.radians(2.0):
        return None
    return best


# -- the frames as constants against the calibrated solution ---------------


def _seed_setup(model, sd, seed_radius):
    """Seed radius and the R-series [R_0, ..., R_{_SEED_ORDER}].

    The default radius is the minimum gap of the spectrum sd.u over 25:
    the gauged ODE is stiff on the scale |u_i - u_j|/|z|^2 near z = 0,
    so a leg is cheaper the farther out it starts, while the smallest
    term of the seed series at gap/25 is still 1e-11 or less on P^1..P^8.
    A radius given by the caller must be positive and finite.
    """
    if seed_radius is None:
        r0 = _min_gap(sd.u) / 25.0
    else:
        r0 = float(seed_radius)
        if not (math.isfinite(r0) and r0 > 0.0):
            raise ValueError("seed radius must be positive and finite")
    return r0, rmatrix_series(model, _SEED_ORDER)


def _seed_column(sd, rs, z0, i):
    """Column i of Psi R(z0), the ODE column gauged by e^{-u_i/z} at z0.

    Column i of sum_k R_k z0^k is summed in the canonical frame until the
    first term whose max-abs exceeds that of the last one kept (or to the
    end of rs), the optimal truncation of the Gevrey-1 series, and then
    mapped by Psi.  Returns the column and the max-abs of the last term
    kept: the smallest term, which bounds the error of the sum.
    """
    total = np.array(rs[0][:, i], dtype=complex)
    smallest = float(np.abs(total).max())
    power = 1.0 + 0j
    for r_k in rs[1:]:
        power *= z0
        term = power * r_k[:, i]
        size = float(np.abs(term).max())
        if size > smallest:
            break
        total += term
        smallest = size
    return sd.psi @ total, smallest


def _gauged_rhs(model, u_i):
    """Right-hand side for P = X e^{-u_i/z}, the gauged column i."""
    a0 = u_i * np.eye(model.dim, dtype=complex) - model.euler
    theta = model.theta

    def rhs(z):
        return (a0 + z * theta) / (z * z)

    return rhs


def _ring(u):
    """Radius at which the seed legs end and T is evaluated; S is entire
    in w = 1/z but its series cancels heavily at large |w|."""
    return max(1.25 * float(np.abs(u).max()), 2.5)


def _calibration_sum(model, w):
    """S(w) summed until the tail of the series is negligible.

    w is the regular chart value 1/z: the calibrated solution of the
    z-plane ODE is T(z) = S(1/z) z^theta z^{-rho}.
    """
    order = 24
    while True:
        series = calibration_series(model, order)
        terms = [float(np.abs(series[k]).max()) * abs(w) ** k
                 for k in range(order - 2, order + 1)]
        scale = max(1.0, float(np.abs(series[0]).max()))
        if max(terms) < 1e-13 * scale:
            break
        if order >= 512:
            raise RuntimeError(
                "calibration series does not settle by order 512 at "
                "|w| = {:.3g}".format(abs(w))
            )
        order *= 2
    total = np.zeros_like(np.asarray(series[0], dtype=complex))
    for k in range(order, -1, -1):
        total = total * w + series[k]
    return total


def _calibrated_solution(model, radius, angle):
    """T(z) = S(1/z) z^theta z^{-rho} at z = radius e^{i angle}, with the
    branch of log z fixed by the lifted angle."""
    z = radius * cmath.exp(1j * angle)
    power = operator_power(LogBranchPoint.from_polar(radius, angle),
                           model.theta, model.rho)
    return _calibration_sum(model, 1.0 / z) @ power


def _seeded_constants(model, sd, rays, seed_radius):
    """K with X = T K, one seed leg per column.

    Column i is integrated outward along its seeding angle rays[i] from
    the asymptotic seed at radius r0 (_seed_setup) to the ring, and then
    K[:, i] = T^{-1} X_i there, T on the lift of that angle.  Two guards
    hold the seeds: before any leg runs, a column whose seed series has
    its smallest term above _SEED_TOL at r0 raises; and each column is
    also integrated from twice the seed radius, and a column that moves
    by more than _SEED_DRIFT_TOL at the ring raises.
    """
    u = sd.u
    r0, rs = _seed_setup(model, sd, seed_radius)
    seeds = []
    for i, phi in enumerate(rays):
        z0 = r0 * cmath.exp(1j * phi)
        column, smallest = _seed_column(sd, rs, z0, i)
        if smallest > _SEED_TOL:
            raise RuntimeError(
                "the smallest term of column {}'s seed series at radius "
                "{:.3g} is {:.3g}, above the bound {:.3g}; the asymptotic "
                "seed cannot be trusted there".format(i, r0, smallest, _SEED_TOL)
            )
        seeds.append((phi, z0, column))
    ring = _ring(u)
    k = np.empty((len(u), len(u)), dtype=complex)
    for i, (phi, z0, column) in enumerate(seeds):
        rhs = _gauged_rhs(model, u[i])
        top = ring * cmath.exp(1j * phi)
        y_ring = continue_linear_ode(rhs, column, [z0, top], singularities=(0.0,))
        z1 = 2.0 * z0
        other = continue_linear_ode(
            rhs, _seed_column(sd, rs, z1, i)[0], [z1, top], singularities=(0.0,)
        )
        drift = float(np.abs(other - y_ring).max())
        scale = max(float(np.abs(y_ring).max()), 1e-30)
        if drift > _SEED_DRIFT_TOL * scale:
            raise RuntimeError(
                "column {} moves by {:.3g} when the seed radius "
                "doubles; the asymptotic seed cannot be trusted "
                "there".format(i, drift / scale)
            )
        k[:, i] = np.linalg.solve(
            _calibrated_solution(model, ring, phi), y_ring * cmath.exp(u[i] / top)
        )
    return k


def _frame_constants(model, eta, seed_radius):
    """Constant K with X(eta, z) = T(z) K on every lift z of the sector.

    S is entire in 1/z, so T is exact on every branch of log z and each
    frame column is a constant combination of its columns.  When some
    column admits no stable seeding ray on this side, K follows from the
    opposite frame through the pairing X(-eta, z e^{-i pi})^T g X(eta, z)
    = 1: with T(z e^{-i pi})^T g T(z) = g e^{i pi theta} e^{-i pi rho},
    the operator power at -1 = e^{i pi}, this reads
    K = (K_opp^T g e^{i pi theta} e^{-i pi rho})^{-1}.
    """
    sd = canonical_data(model, model.base_point)
    u = sd.u
    rays = _seed_rays(u, _sector_window(u, eta))
    if None not in rays:
        return _seeded_constants(model, sd, rays, seed_radius)
    opposite = eta.rotated(-math.pi)
    rays_opp = _seed_rays(u, _sector_window(u, opposite))
    if None in rays_opp:
        raise RuntimeError(
            "no stable seeding ray for columns {} in the sector of the "
            "direction at lifted angle {:.6g}, nor for columns {} in the "
            "opposite sector".format(
                [i for i, r in enumerate(rays) if r is None],
                eta.lifted_angle,
                [i for i, r in enumerate(rays_opp) if r is None],
            )
        )
    k_opp = _seeded_constants(model, sd, rays_opp, seed_radius)
    half = operator_power(LogBranchPoint(-1.0 + 0j, 1j * math.pi),
                          model.theta, model.rho)
    return np.linalg.inv(k_opp.T @ np.asarray(model.pairing, dtype=complex) @ half)


def _sector_lift(model, eta, z):
    """Canonical data and the lift of z into the open sector of eta."""
    if z == 0:
        raise ValueError("z must be nonzero")
    sd = canonical_data(model, model.base_point)
    return sd, _lift_into(z, _sector_window(sd.u, eta))


def oscillatory_frame(model, eta, z, seed_radius=None):
    """Fundamental frame X(eta, z) at the base point, columns in
    canonical order.

    z is a plane point; its lift zeta into the sector of eta is chosen
    automatically and points outside the open sector are rejected.  The
    frame is T(ring e^{i zeta}) K with the constants of _frame_constants,
    carried along the ray of zeta to |z| column by column.  The constants
    come from seeds at radius seed_radius (by default the minimum
    spectral gap over 25), where the R-series is summed to its smallest
    term.  A non-positive or non-finite radius raises ValueError; a seed
    whose smallest term exceeds _SEED_TOL, or a column that moves by
    more than _SEED_DRIFT_TOL when the radius doubles, raises
    RuntimeError.
    """
    z = complex(z)
    sd, zeta = _sector_lift(model, eta, z)
    u = sd.u
    ring = _ring(u)
    top = ring * cmath.exp(1j * zeta)
    x_top = _calibrated_solution(model, ring, zeta) @ _frame_constants(
        model, eta, seed_radius
    )
    out = np.empty_like(x_top)
    for i in range(len(u)):
        y = continue_linear_ode(
            _gauged_rhs(model, u[i]), x_top[:, i] * cmath.exp(-u[i] / top),
            [top, z], singularities=(0.0,),
        )
        out[:, i] = y * cmath.exp(u[i] / z)
    return out


# -- Laplace-type evaluation ----------------------------------------------


def _ray_moment(a, x, s0):
    """integral of s^{a-1} e^{-x s/s0} over [0, s0] for Re a > 0."""
    total = 1.0 / a
    term = total
    for j in range(1, 600):
        term = term * x / (a + j)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return (s0 ** a) * cmath.exp(-x) * total


def laplace_frame(model, eta, z, m):
    """Frame X(eta, z) at the base point as a Laplace integral.

    Integrates e^{lambda/z} against the spectral periods of weight m,
    continued along the reference paths of eta and out along the rays
    u_i + s eta; needs Re m < 0 and z strictly inside the decay
    half-plane of eta.  It shares no code path with the seeded
    integration of oscillatory_frame and serves as its independent check.
    """
    z = complex(z)
    sd, _zeta = _sector_lift(model, eta, z)
    m = complex(m)
    if m.real >= 0.0:
        raise ValueError("laplace evaluation needs Re m < 0")
    rate = -(eta.eta / z).real
    if rate * abs(z) < 0.02:
        raise ValueError("z is outside the decay half-plane of eta")
    u = sd.u
    n = len(u)
    alpha = eta.lifted_angle
    psi = _lift_into(z, (alpha + 0.5 * math.pi, alpha + 1.5 * math.pi))
    log_minus_z = complex(math.log(abs(z)), psi - math.pi)
    pref = cmath.exp((m - 0.5) * log_minus_z) / math.sqrt(TWO_PI)
    s0 = 0.05 * float(_min_gap(u))
    system = _reference_system(u, eta)
    slot_of = {int(system.permutation[k]): k for k in range(n)}
    nodes, weights = np.polynomial.legendre.leggauss(12)
    smax = s0 + 40.0 / rate
    panels = max(1, int(math.ceil((smax - s0) * rate / 2.0)))
    edges = np.linspace(s0, smax, panels + 1)
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        plan = system.paths[slot_of[i]]
        beta = reflection_vector(model, m, plan).beta
        series = local_laurent_frame(model, i, m, 28)
        acc = np.zeros(n, dtype=complex)
        x = -s0 * eta.eta / z
        last = 0.0
        for k, coeff in enumerate(series.coefficients):
            factor = cmath.exp((k - m - 0.5) * eta.log_eta)
            term = coeff * (factor * _ray_moment(k - m + 0.5, x, s0))
            acc += term
            last = float(np.abs(term).max())
        if last > 1e-12 * max(float(np.abs(acc).max()), 1e-30):
            raise RuntimeError("local expansion tail has not settled")
        u_i = complex(u[i])
        total = cmath.exp(u_i / z) * eta.eta * acc
        frame = continue_frame(base_frame(model, m, plan.base_value), plan.waypoints)
        pos = abs(plan.end_log_branch.value)
        for a_e, b_e in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a_e + b_e), 0.5 * (b_e - a_e)
            for node, w in zip(nodes, weights):
                s = mid + half * node
                frame = continue_frame(
                    frame, [u_i + pos * eta.eta, u_i + s * eta.eta]
                )
                pos = s
                lam = u_i + s * eta.eta
                total += (half * w) * eta.eta * cmath.exp(lam / z) * (
                    frame.value @ beta
                )
        out[:, i] = pref * total
    return out


def monodromy_data_analytic(model, t, eta):
    """Stokes and central connection data by direct integration.

    The frames of eta and -eta are X(+-eta) = T K+- (_frame_constants).
    The Stokes matrix compares X(-eta, z) with X(eta, z e^{2 pi i}) on
    the lifts where both sectors overlap; T(z e^{2 pi i}) = T(z) M with
    M = e^{2 pi i theta} e^{-2 pi i rho}, so V = (M K+)^{-1} K-, and
    X(-eta) = T C^{-1} gives C = K-^{-1}, both in slot order.  The
    result carries no reflection vectors.
    """
    u = canonical_data(model, t).u
    k_plus = _frame_constants(model, eta, None)
    k_minus = _frame_constants(model, eta.rotated(-math.pi), None)
    turn = operator_power(LogBranchPoint(1.0, TWO_PI * 1j), model.theta, model.rho)
    v = np.linalg.solve(turn @ k_plus, k_minus)
    sigma = [int(s) for s in lexicographic_order(u, eta)]
    v_plus = v[np.ix_(sigma, sigma)]
    c = np.linalg.inv(k_minus[:, sigma])
    return MonodromyData(
        v_plus=v_plus,
        v_minus=v_plus.T,
        c_matrix=c,
        eta=eta,
        order=tuple(sigma),
        betas=(),
    )


# -- assembly from reflection vectors --------------------------------------


def _reference_system(u, eta):
    """Reference paths of eta from the base point 2.5 max |u_i|."""
    return reference_system(u, eta, 2.5 * float(np.abs(u).max()))


def monodromy_data_from_reflections(model, t, eta, m):
    """Stokes and central connection data from reflection vectors.

    Extracts one reflection vector per spectral point along the
    reference paths of eta; the inverse Stokes matrix has entries
    q^{-1} h_m(beta_k, beta_l) above its unit diagonal and C is
    beta^T g / sqrt(2 pi).  Raises when some h_m(beta_k, beta_k) misses
    q + 1/q by more than _SELF_PAIRING_TOL relative.
    """
    sd = canonical_data(model, t)
    u = sd.u
    n = model.dim
    system = _reference_system(u, eta)
    betas = tuple(reflection_vector(model, m, plan) for plan in system.paths)
    cols = np.column_stack([b.beta for b in betas])
    gram = cols.T @ hm_matrix(model, m) @ cols
    q = cmath.exp(1j * math.pi * complex(m))
    miss = float(np.abs(np.diagonal(gram) - (q + 1 / q)).max() / abs(q + 1 / q))
    if miss > _SELF_PAIRING_TOL:
        raise RuntimeError(
            "reflection vectors miss h_m(beta, beta) = q + 1/q by {:.3g} "
            "relative; double precision does not carry the frames of this "
            "model".format(miss)
        )
    w = np.eye(n, dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            w[i, j] = gram[i, j] / q
    v_plus = np.linalg.inv(w)
    c = cols.T @ np.asarray(model.pairing, dtype=complex) / math.sqrt(TWO_PI)
    return MonodromyData(
        v_plus=v_plus,
        v_minus=v_plus.T,
        c_matrix=c,
        eta=eta,
        order=tuple(int(s) for s in system.permutation),
        betas=betas,
    )


# -- wall crossing ----------------------------------------------------------


def wallcrossing_matrices(model, t, betas, nu):
    """Wall matrix of the nu-th critical direction and crossed vectors.

    Entry (k, l) of the wall matrix is q^{-1} h_m(beta_k, beta_l) when
    u_k lies on the ray from u_l in the critical direction, so the
    transposed wall matrices of consecutive anticlockwise crossings
    compose to V_-.  The predicted vectors reflect each ray's trailing
    members through the leading ones; they keep their original anchor
    paths (the deformed paths have the same targets), so downstream
    matching is by target point.
    """
    betas = list(betas)
    if not betas:
        raise ValueError("need at least one reflection vector")
    m = betas[0].m_tag
    if any(abs(complex(b.m_tag) - complex(m)) > 1e-12 for b in betas):
        raise ValueError("reflection vectors carry different m tags")
    sd = canonical_data(model, t)
    u = sd.u
    if len(betas) != len(u):
        raise ValueError("need one reflection vector per spectral point")
    crits = critical_directions(u)
    if not 0 <= nu < len(crits):
        raise IndexError(
            "critical direction index {} out of range 0..{}".format(
                nu, len(crits) - 1
            )
        )
    direction = crits[nu].eta
    scale = max(1.0, float(np.abs(u).max()))
    pos_of = {}  # spectral index -> position in betas
    for k, b in enumerate(betas):
        target = b.path.target_point()
        dist = np.abs(u - target)
        idx = int(np.argmin(dist))
        if dist[idx] > 1e-8 * scale:
            raise ValueError("a vector's path does not target the spectrum")
        if idx in pos_of:
            raise ValueError("two vectors target the same spectral point")
        pos_of[idx] = k
    index_of = {pos: idx for idx, pos in pos_of.items()}
    h = hm_matrix(model, m)
    q = cmath.exp(1j * math.pi * complex(m))
    n = len(betas)
    w = np.eye(n, dtype=complex)
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            d = complex(u[index_of[k]] - u[index_of[l]])
            along = (d * np.conj(direction)).real
            across = (d * np.conj(direction)).imag
            if abs(across) <= 1e-9 * abs(d) and along > 0.0:
                w[k, l] = (betas[k].beta @ h @ betas[l].beta) / q
    new_vals = [np.array(b.beta) for b in betas]
    for group in eta_sequences(u, crits[nu]):
        originals = []
        for j in group:
            new_vals[pos_of[j]] = _mutated(betas[pos_of[j]].beta, originals, q, h)
            originals.append(np.array(betas[pos_of[j]].beta))
    predicted = tuple(
        ReflectionVector(new_vals[k], betas[k].path, betas[k].m_tag)
        for k in range(n)
    )
    return w, predicted


def _mutated(vec, earlier, q, h):
    """vec reflected through the vectors of earlier, the last one first:
    each step subtracts q h_m(vec, prev) prev."""
    cur = np.array(vec)
    for prev in reversed(earlier):
        cur = cur - q * (cur @ h @ prev) * prev
    return cur


# -- consistency checks -----------------------------------------------------


def _half_twist_residual(data, model):
    """Mutated vectors against a fresh extraction for the opposite
    direction; slots of the flipped system are matched by target."""
    m = data.betas[0].m_tag
    q = cmath.exp(1j * math.pi * complex(m))
    h = hm_matrix(model, m)
    vals = [np.array(b.beta) for b in data.betas]
    tilde = [_mutated(vec, vals[:t_i], q, h) for t_i, vec in enumerate(vals)]
    u = canonical_data(model, model.base_point).u
    flipped = _reference_system(u, data.eta.rotated(math.pi))
    scale = max(1.0, float(np.abs(np.column_stack(vals)).max()))
    worst = 0.0
    for pos, vec in enumerate(data.betas):
        want = vec.path.target_point()
        dist = [abs(p.target_point() - want) for p in flipped.paths]
        slot = int(np.argmin(dist))
        fresh = reflection_vector(model, m, flipped.paths[slot]).beta
        worst = max(worst, float(np.abs(tilde[pos] - fresh).max()) / scale)
    return worst


def consistency_report(data, model, half_twist=True):
    """Residual table of the identities the monodromy data must satisfy.

    Returns a list of {identity, residual, tolerance, passed} entries
    (plus an optional note); failing computations are reported as
    failed entries, never raised.  Checks involving reflection vectors
    are included only when the data carries them, and the half-twist
    re-extraction (the most expensive entry) can be switched off.
    """
    entries = []

    def add(identity, tol, fn, note=None):
        try:
            residual = float(fn())
            passed = bool(residual <= tol)
        except Exception as exc:
            residual = math.inf
            passed = False
            note = "{}: {}".format(type(exc).__name__, exc)
        entry = {
            "identity": identity,
            "residual": residual,
            "tolerance": tol,
            "passed": passed,
        }
        if note:
            entry["note"] = note
        entries.append(entry)

    v = np.asarray(data.v_plus, dtype=complex)
    vm = np.asarray(data.v_minus, dtype=complex)
    g = np.asarray(model.pairing, dtype=complex)
    add("unit-diagonal", 1e-6, lambda: np.abs(np.diagonal(v) - 1.0).max())
    add("sector-vanishing", 1e-6, lambda: np.abs(np.tril(v, -1)).max())
    transpose_resid = float(np.abs(v - vm.T).max())
    add(
        "transpose-symmetry",
        1e-6,
        lambda: transpose_resid,
        note="holds by construction" if transpose_resid == 0.0 else None,
    )

    def from_central(sign, target):
        exp_theta, exp_rho = _twist_factors(model, sign)
        kinv = np.linalg.inv(np.asarray(data.c_matrix, dtype=complex))
        got = kinv.T @ g @ exp_rho @ exp_theta @ kinv
        return np.abs(got - target).max()

    add("stokes-from-central-connection-plus", 1e-5,
        lambda: from_central(-1.0, v))
    add("stokes-from-central-connection-minus", 1e-5,
        lambda: from_central(+1.0, vm))
    if data.betas:
        m = data.betas[0].m_tag
        q = cmath.exp(1j * math.pi * complex(m))
        cols = np.column_stack([b.beta for b in data.betas])

        def hm_resid():
            h = hm_matrix(model, m)
            vin = np.linalg.inv(v)
            return np.abs(q * vin + vin.T / q - cols.T @ h @ cols).max()

        add("hm-through-stokes", 1e-5, hm_resid)

        def dual_resid():
            # the duals of the betas under h_m are sqrt(2 pi) op^-1 C^-1;
            # multiplied out, the identity needs neither duals nor inverses
            # and stays defined where h_m is degenerate
            exp_theta, exp_rho = _twist_factors(model, +1.0)
            up = exp_theta @ exp_rho
            exp_theta, exp_rho = _twist_factors(model, -1.0)
            dn = exp_theta @ exp_rho
            op = up / q + q * dn
            lhs = math.sqrt(TWO_PI) * cols.T @ hm_matrix(model, m).T
            return np.abs(lhs - np.asarray(data.c_matrix) @ op).max()

        add("central-connection-duals", 1e-5, dual_resid)
        if half_twist:
            add("half-twist", 1e-5, lambda: _half_twist_residual(data, model))
    return entries


def gram_sign_gauge(gram):
    """Slot sign flips making the first superdiagonal nonnegative.

    Reflection vectors inherit the sign ambiguity of the spectral frame
    columns, which conjugates the Gram matrix by a diagonal of signs.
    Requiring nonnegative pairings between consecutive slots fixes that
    gauge whenever no superdiagonal entry vanishes; vanishing entries
    leave the following signs untouched.  Returns the +-1 vector s, to
    be applied as s[:, None] * gram * s[None, :].
    """
    g = np.asarray(gram)
    n = g.shape[0]
    s = np.ones(n)
    for j in range(1, n):
        ref = complex(g[j - 1, j]).real * s[j - 1]
        s[j] = -1.0 if ref < -1e-12 else 1.0
    return s


def compare_monodromy_data(a, b):
    """Residuals between two data sets for the same direction.

    The spectral frame behind direct integration is pinned only up to
    column signs, so b is aligned to a over the diagonal sign action
    (flipping slot k negates row k of C and conjugates the Stokes
    matrices) before differencing.
    """
    if tuple(a.order) != tuple(b.order):
        raise ValueError("data sets order their spectra differently")
    if abs(a.eta.eta - b.eta.eta) > 1e-12:
        raise ValueError("data sets belong to different directions")
    ca = np.asarray(a.c_matrix, dtype=complex)
    cb = np.asarray(b.c_matrix, dtype=complex)
    signs = []
    for i in range(ca.shape[0]):
        keep = float(np.abs(cb[i] - ca[i]).max())
        flip = float(np.abs(cb[i] + ca[i]).max())
        signs.append(1 if keep <= flip else -1)
    d = np.array(signs, dtype=float)
    c_resid = float(np.abs(d[:, None] * cb - ca).max())
    v_resid = float(np.abs(
        d[:, None] * np.asarray(b.v_plus) * d[None, :] - a.v_plus
    ).max())
    vm_resid = float(np.abs(
        d[:, None] * np.asarray(b.v_minus) * d[None, :] - a.v_minus
    ).max())
    return {
        "signs": tuple(signs),
        "v_plus": v_resid,
        "v_minus": vm_resid,
        "c_matrix": c_resid,
        "max": max(v_resid, vm_resid, c_resid),
    }
