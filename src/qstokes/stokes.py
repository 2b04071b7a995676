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
integrates the ODE column by column from asymptotic seeds and fits the
matrices at samples on the bisector of the overlap sector.
monodromy_data_from_reflections assembles the same matrices from
reflection vectors in the spectral plane: the inverse Stokes matrix is
their h_m Gram matrix rescaled to the Euler pairing, and C is the
reflection matrix against the flat pairing.

All matrices are indexed by the lexicographic slot order of the
spectrum along eta; order[k] records the canonical spectral index
behind slot k.  Branches follow the direction's lifted logarithm: on
the sample ray the calibrated solution uses log z = log|z| + i psi with
psi the lifted bisector angle, and the frame of -eta (reached by the
clockwise half turn) is evaluated one half turn below the frame of eta.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .frobenius import calibration_series, canonical_data, rmatrix_series
from .numerics import LogBranchPoint, continue_linear_ode, operator_power
from .paths import (
    Direction,
    critical_directions,
    eta_sequences,
    lexicographic_order,
    reference_system,
)
from .periods import (
    ReflectionVector,
    base_frame,
    continue_frame,
    free_plan,
    hm_matrix,
    local_laurent_frame,
    reflection_vector,
    _unipotent_exp,
)

TWO_PI = 2.0 * math.pi

# Fit samples stay at |z| >= 0.35: the calibration series is entire in
# w = 1/z but suffers heavy cancellation once |w| grows past ~4.
_SAMPLE_SPAN = (0.35, 3.0)
_SAMPLE_COUNT = 6
_SEED_TOL = 1e-8  # bound on the first omitted term of the seed series
_SEED_DRIFT_TOL = 1e-5  # doubled seed radius must not move the frame more
_CONE_MARGIN = 0.02  # minimum normalized decay rate along a seed ray
_CRITICAL_MARGIN = 1e-9
_ODE_TOL = 1e-11
_FIT_TOL = 1e-6
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
        for k in (-2, -1, 0, 1, 2):
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


def _arc_points(radius, a_from, a_to):
    steps = max(1, int(math.ceil(abs(a_to - a_from) / (math.pi / 18.0))))
    return radius * np.exp(1j * np.linspace(a_from, a_to, steps + 1))


# -- direct integration of the frame --------------------------------------


def _seed_setup(model, t, seed_radius):
    rs = rmatrix_series(model, t, 3)
    if seed_radius is not None:
        r0 = float(seed_radius)
        if r0 <= 0.0:
            raise ValueError("seed radius must be positive")
    else:
        top = float(np.abs(rs[3]).sum(axis=1).max())
        r0 = min((_SEED_TOL / max(top, 1e-12)) ** (1.0 / 3.0), 1.0)
    return r0, rs


def _seed_column(sd, rs, z0, i):
    series = rs[0] + z0 * rs[1] + z0 * z0 * rs[2]
    return (sd.psi @ series)[:, i]


def _direct_samples(model, t, sd, rays, ray_radii, seed_radius, verify):
    """Gauged frame columns P with X = P diag(e^{u_i/z}) at the samples.

    rays gives one seeding angle per column; ray_radii maps each lifted
    sample angle to its radii.  Returns {angle: {radius: P}}.
    """
    u = sd.u
    n = len(u)
    uu = model.euler_mult(t)
    theta = model.theta
    r0, rs = _seed_setup(model, t, seed_radius)
    rmax = max(max(rr) for rr in ray_radii.values())
    ring = max(1.25 * float(np.abs(u).max()), 1.05 * rmax, 2.5)
    out = {a: {r: np.empty((n, n), dtype=complex) for r in rr}
           for a, rr in ray_radii.items()}
    for i in range(n):
        phi = rays[i]
        a0 = u[i] * np.eye(n, dtype=complex) - uu

        def rhs(z, a0=a0):
            return (a0 + z * theta) / (z * z)

        z0 = r0 * cmath.exp(1j * phi)
        top = ring * cmath.exp(1j * phi)
        y_ring = continue_linear_ode(
            rhs, _seed_column(sd, rs, z0, i), [z0, top],
            tol=_ODE_TOL, singularities=(0.0,),
        )
        if verify:
            z1 = 2.0 * z0
            other = continue_linear_ode(
                rhs, _seed_column(sd, rs, z1, i), [z1, top],
                tol=_ODE_TOL, singularities=(0.0,),
            )
            drift = float(np.abs(other - y_ring).max())
            scale = max(float(np.abs(y_ring).max()), 1e-30)
            if drift > _SEED_DRIFT_TOL * scale:
                raise RuntimeError(
                    "column {} moves by {:.3g} when the seed radius "
                    "doubles; the asymptotic seed cannot be trusted "
                    "there".format(i, drift / scale)
                )
        for a, rr in ray_radii.items():
            y = continue_linear_ode(
                rhs, y_ring, _arc_points(ring, phi, a),
                tol=_ODE_TOL, singularities=(0.0,),
            )
            r_prev = ring
            for r in sorted(rr, reverse=True):
                y = continue_linear_ode(
                    rhs, y,
                    [r_prev * cmath.exp(1j * a), r * cmath.exp(1j * a)],
                    tol=_ODE_TOL, singularities=(0.0,),
                )
                r_prev = r
                out[a][r][:, i] = y
    return out


def _ode_samples(model, t, eta, ray_radii, seed_radius=None, verify=True,
                 _fallback=False):
    """Frame values {lifted angle: {radius: X}} along sample rays.

    When a column admits no stable seeding arc on this side, the whole
    frame is rebuilt from the opposite one through the pairing identity
    X(eta, z)^T g X(-eta, -z) = 1, evaluating the opposite frame one
    half turn below.
    """
    sd = canonical_data(model, t)
    u = sd.u
    window = _sector_window(u, eta)
    for a in ray_radii:
        if not window[0] < a < window[1]:
            raise ValueError("sample ray outside the sector of eta")
    rays = _seed_rays(u, window)
    if all(r is not None for r in rays):
        gauged = _direct_samples(model, t, sd, rays, ray_radii, seed_radius,
                                 verify)
        out = {}
        for a, rr in ray_radii.items():
            out[a] = {}
            for r in rr:
                z = r * cmath.exp(1j * a)
                out[a][r] = gauged[a][r] * np.exp(u / z)[None, :]
        return out
    if _fallback:
        blocked = [i for i, r in enumerate(rays) if r is None]
        raise RuntimeError(
            "columns {} admit no stable seeding ray on either side; the "
            "spectral points are not in convex position".format(blocked)
        )
    opposite = _ode_samples(
        model, t, eta.rotated(-math.pi),
        {a - math.pi: rr for a, rr in ray_radii.items()},
        seed_radius, verify, _fallback=True,
    )
    g = np.asarray(model.pairing, dtype=complex)
    out = {}
    for a, rr in ray_radii.items():
        out[a] = {}
        for r in rr:
            z = r * cmath.exp(1j * a)
            x_opp = opposite[a - math.pi][r]
            gauged = x_opp * np.exp(u / z)[None, :]
            out[a][r] = np.linalg.solve(gauged.T @ g, np.diag(np.exp(u / z)))
    return out


def oscillatory_frame(model, t, eta, z, method="ode", m=None,
                      seed_radius=None, verify_seed=True):
    """Fundamental frame X(eta, t, z), columns in canonical order.

    z is a plane point; its lift into the sector of eta is chosen
    automatically and points outside the open sector are rejected.  The
    default method integrates the ODE from asymptotic seeds, doubling
    the seed radius as a cross-check (disable with verify_seed=False,
    override the radius with seed_radius).  method="laplace" instead
    integrates e^{lambda/z} against the continued spectral periods for
    a given weight with Re m < 0; it needs z strictly inside the decay
    half-plane of eta and serves as an independent check of the default
    route.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    sd = canonical_data(model, t)
    window = _sector_window(sd.u, eta)
    zeta = _lift_into(z, window)
    if method == "laplace":
        return _laplace_frame(model, t, sd, eta, z, m)
    if method != "ode":
        raise ValueError("unknown method {!r}".format(method))
    if m is not None:
        raise ValueError("m applies only to the laplace method")
    samples = _ode_samples(model, t, eta, {zeta: [abs(z)]}, seed_radius,
                           verify_seed)
    return samples[zeta][abs(z)]


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


def _laplace_frame(model, t, sd, eta, z, m):
    if m is None:
        raise ValueError("the laplace method needs the weight m")
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
    diffs = np.abs(u[:, None] - u[None, :])
    gap = float(diffs[diffs > 0].min())
    s0 = 0.05 * gap
    base = 2.5 * float(np.abs(u).max())
    system = reference_system(u, eta, base)
    slot_of = {int(system.permutation[k]): k for k in range(n)}
    nodes, weights = np.polynomial.legendre.leggauss(12)
    smax = s0 + 40.0 / rate
    panels = max(1, int(math.ceil((smax - s0) * rate / 2.0)))
    edges = np.linspace(s0, smax, panels + 1)
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        plan = system.paths[slot_of[i]]
        beta = reflection_vector(model, m, plan).beta
        series = local_laurent_frame(model, t, i, m, 28)
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
        frame = continue_frame(base_frame(model, m, base), plan, 1e-11)
        pos = abs(plan.end_log_branch.value)
        for a_e, b_e in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a_e + b_e), 0.5 * (b_e - a_e)
            for node, w in zip(nodes, weights):
                s = mid + half * node
                frame = continue_frame(
                    frame,
                    free_plan([u_i + pos * eta.eta, u_i + s * eta.eta]),
                    1e-11,
                )
                pos = s
                lam = u_i + s * eta.eta
                total += (half * w) * eta.eta * cmath.exp(lam / z) * (
                    frame.value @ beta
                )
        out[:, i] = pref * total
    return out


# -- fitting the connection data ------------------------------------------


def _left_fit(mats, targets):
    """Least squares solution V of A_k V = B_k across all samples.

    Each column of the unknowns is fitted with rows weighted by the
    size of its own target column, so recessive columns are not drowned
    by dominant ones; the design matrix is column-equilibrated.
    """
    n = mats[0].shape[0]
    v = np.empty((n, n), dtype=complex)
    for j in range(n):
        rows = []
        rhs = []
        for a, b in zip(mats, targets):
            w = 1.0 / max(float(np.abs(b[:, j]).max()), 1e-280)
            rows.append(a * w)
            rhs.append(b[:, j] * w)
        stack = np.vstack(rows)
        scale = np.abs(stack).max(axis=0)
        scale[scale == 0.0] = 1.0
        sol = np.linalg.lstsq(stack / scale, np.concatenate(rhs), rcond=None)[0]
        v[:, j] = sol / scale
    return v


def _fit_residual(mats, targets, v):
    worst = 0.0
    for a, b in zip(mats, targets):
        num = float(np.abs(a @ v - b).max())
        den = max(float(np.abs(b).max()), 1e-280)
        worst = max(worst, num / den)
    return worst


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


def monodromy_data_analytic(model, t, eta):
    """Stokes and central connection data by direct integration.

    Both frames are sampled at _SAMPLE_COUNT points, log-spaced over
    _SAMPLE_SPAN on the bisector ray of the overlap sector of eta and
    -eta; the matrices solve weighted least squares problems whose
    relative residuals must stay below _FIT_TOL.  The result carries no
    reflection vectors.
    """
    sd = canonical_data(model, t)
    u = sd.u
    below, above = _adjacent_walls(u, eta)
    psi = 0.5 * (below + above) - 0.5 * math.pi
    radii = list(np.geomspace(_SAMPLE_SPAN[0], _SAMPLE_SPAN[1], _SAMPLE_COUNT))
    plus_angle = psi + TWO_PI
    x_plus = _ode_samples(model, t, eta, {plus_angle: radii})
    x_minus = _ode_samples(model, t, eta.rotated(-math.pi), {psi: radii})
    a_mats = [x_plus[plus_angle][r] for r in radii]
    b_mats = [x_minus[psi][r] for r in radii]
    v = _left_fit(a_mats, b_mats)
    resid = _fit_residual(a_mats, b_mats, v)
    if resid > _FIT_TOL:
        raise RuntimeError(
            "Stokes fit residual {:.3g} exceeds {:g}".format(resid, _FIT_TOL)
        )
    t_mats = []
    for r in radii:
        z = r * cmath.exp(1j * psi)
        power = operator_power(LogBranchPoint.from_polar(r, psi),
                               model.theta, model.rho)
        t_mats.append(_calibration_sum(model, 1.0 / z) @ power)
    k = _left_fit(t_mats, b_mats)
    resid = _fit_residual(t_mats, b_mats, k)
    if resid > _FIT_TOL:
        raise RuntimeError(
            "central connection fit residual {:.3g} exceeds {:g}".format(
                resid, _FIT_TOL
            )
        )
    sigma = [int(s) for s in lexicographic_order(u, eta)]
    v_plus = v[np.ix_(sigma, sigma)]
    c = np.linalg.inv(k[:, sigma])
    return MonodromyData(
        v_plus=v_plus,
        v_minus=v_plus.T,
        c_matrix=c,
        eta=eta,
        order=tuple(sigma),
        betas=(),
    )


# -- assembly from reflection vectors --------------------------------------


def monodromy_data_from_reflections(model, t, eta, m, base_value=None):
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
    if base_value is None:
        base_value = 2.5 * float(np.abs(u).max())
    system = reference_system(u, eta, base_value)
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
    pos_of = {}
    for k, b in enumerate(betas):
        target = b.path.target_point()
        dist = np.abs(u - target)
        idx = int(np.argmin(dist))
        if dist[idx] > 1e-8 * scale:
            raise ValueError("a vector's path does not target the spectrum")
        if idx in pos_of:
            raise ValueError("two vectors target the same spectral point")
        pos_of[idx] = k
    h = hm_matrix(model, m)
    q = cmath.exp(1j * math.pi * complex(m))
    n = len(betas)
    w = np.eye(n, dtype=complex)
    for k in range(n):
        for l in range(n):
            if k == l:
                continue
            d = complex(u[_target_index(pos_of, k)] - u[_target_index(pos_of, l)])
            along = (d * np.conj(direction)).real
            across = (d * np.conj(direction)).imag
            if abs(across) <= 1e-9 * abs(d) and along > 0.0:
                w[k, l] = (betas[k].beta @ h @ betas[l].beta) / q
    new_vals = [np.array(b.beta) for b in betas]
    for group in eta_sequences(u, crits[nu]):
        originals = []
        for j in group:
            cur = np.array(betas[pos_of[j]].beta)
            for prev in reversed(originals):
                cur = cur - q * (cur @ h @ prev) * prev
            new_vals[pos_of[j]] = cur
            originals.append(np.array(betas[pos_of[j]].beta))
    predicted = tuple(
        ReflectionVector(new_vals[k], betas[k].path, betas[k].m_tag,
                         betas[k].spiral_exponent)
        for k in range(n)
    )
    return w, predicted


def _target_index(pos_of, position):
    for idx, pos in pos_of.items():
        if pos == position:
            return idx
    raise KeyError(position)


# -- consistency checks -----------------------------------------------------


def _half_twist_residual(data, model):
    """Mutated vectors against a fresh extraction for the opposite
    direction; slots of the flipped system are matched by target."""
    m = data.betas[0].m_tag
    q = cmath.exp(1j * math.pi * complex(m))
    h = hm_matrix(model, m)
    vals = [np.array(b.beta) for b in data.betas]
    tilde = []
    for t_i, vec in enumerate(vals):
        cur = np.array(vec)
        for s in range(t_i - 1, -1, -1):
            cur = cur - q * (cur @ h @ vals[s]) * vals[s]
        tilde.append(cur)
    u = canonical_data(model, model.base_point).u
    flipped = reference_system(u, data.eta.rotated(math.pi),
                               2.5 * float(np.abs(u).max()))
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
        exp_rho = _unipotent_exp(model.rho, sign)
        exp_theta = np.diag(np.exp(sign * 1j * math.pi
                                   * model.theta_eigenvalues))
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
            up = np.diag(np.exp(1j * math.pi * model.theta_eigenvalues))
            up = up @ _unipotent_exp(model.rho, +1.0)
            dn = np.diag(np.exp(-1j * math.pi * model.theta_eigenvalues))
            dn = dn @ _unipotent_exp(model.rho, -1.0)
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
