"""Cases, set-up, operations and metrics of the qstokes benchmark.

One caller runs operations back to back (a closed loop).  Every
workload runs over the same case list, drawn from the seed:

* the fixed test chambers, P1 at q = 1, eta = i and P2 at q = e^{0.2i},
  eta = i rotated by 0.3, each at m = 0 and m = 0.3;
* DRAWS[n] seeded cases for each P^n, n = 1..4: one q = e^{i phi} with
  phi uniform in [-0.5, 0.5], and eta on an evenly spaced grid of lifted
  angles with a uniform random offset, so each angle is uniform over
  [0, 2 pi) while the grid covers the circle in every run.  The m
  values alternate along the grid.

Operation times, failures and accuracy all depend on eta (the paths
wind differently), so every run covers each degree's whole circle of
directions rather than a few draws, whose figures would follow the
seed.  Known defects stay in: draws whose paths cannot be built,
report identities that fail and routes that raise all count as failed
operations.  P5..P8 and JSON-loaded models only enter the untimed
domain sweep.
"""

import cmath
import hashlib
import json
import math
import os
import random
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass

import numpy as np
from qstokes import frobenius, paths, stokes

from . import oracle, spans

# Grid sizes: P3's operation time falls into two clusters over eta and
# the reflection route fails on about half of P4's circle, so they need
# the finest grids; P1 and P2 also have the fixed chambers.
DRAWS = {1: 2, 2: 2, 3: 6, 4: 6}
DEGREES = tuple(DRAWS)
M_VALUES = (0.0, 0.3)
FIXED = (
    (1, 1.0 + 0j, paths.Direction.reference()),
    (2, cmath.exp(0.2j), paths.Direction.reference().rotated(0.3)),
)
# digits reported for an exact zero distance or residual
MAX_DIGITS = 16.0
SETUP_SECONDS = 5.0
SETUP_REPS = 3


@dataclass(frozen=True)
class Case:
    n: int
    q: complex
    eta: paths.Direction
    m: float
    fixed: bool

    @property
    def chamber(self):
        """What V+ and C depend on; m only rescales reflection vectors."""
        return (self.n, self.q, self.eta)


def make_cases(seed):
    """The case list of a seed, with the degrees interleaved.

    Interleaving spreads a slow spell of the machine over all degrees
    instead of letting it land on the few operations of one.
    """
    rng = random.Random(seed)
    groups = [[Case(n, q, eta, m, True) for n, q, eta in FIXED for m in M_VALUES]]
    for n, count in DRAWS.items():
        q = cmath.exp(1j * rng.uniform(-0.5, 0.5))
        offset = rng.uniform(0.0, 2.0 * math.pi / count)
        groups.append([
            Case(n, q, paths.Direction.from_lifted_angle(offset + 2.0 * math.pi * j / count),
                 M_VALUES[j % len(M_VALUES)], False)
            for j in range(count)
        ])
    longest = max(len(group) for group in groups)
    return [group[k] for k in range(longest) for group in groups if k < len(group)]


def digits(x):
    return MAX_DIGITS if x <= 10.0 ** -MAX_DIGITS else -math.log10(x)


def timed(fn, *args):
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception:  # a route that raises is a counted failure
        return None, time.perf_counter() - start
    return result, time.perf_counter() - start


# -- operations: each builds its model, so no state survives between them --


def _model(case):
    return frobenius.qh_projective_space(case.n, case.q)


def reflect_op(case):
    model = _model(case)
    return stokes.monodromy_data_from_reflections(model, model.base_point, case.eta, case.m)


def integrate_op(case):
    model = _model(case)
    return stokes.monodromy_data_analytic(model, model.base_point, case.eta)


def bounding_walls(walls, eta):
    """Indices of the walls just clockwise and just anticlockwise of eta."""
    alpha = eta.lifted_angle
    below = min(range(len(walls)),
                key=lambda k: (alpha - walls[k].lifted_angle) % (2.0 * math.pi))
    above = min(range(len(walls)),
                key=lambda k: (walls[k].lifted_angle - alpha) % (2.0 * math.pi))
    return below, above


def verify_op(case, data):
    model = _model(case)
    t = model.base_point
    report = stokes.consistency_report(data, model, half_twist=True)
    walls = paths.critical_directions(frobenius.canonical_data(model, t).u)
    matrices = [stokes.wallcrossing_matrices(model, t, data.betas, nu)[0]
                for nu in bounding_walls(walls, case.eta)]
    return report, matrices


# -- checks -----------------------------------------------------------------


class Checks:
    """Check outcomes of one pass.

    wrong lists outputs the oracle refutes: data returned silently
    wrong, as opposed to an error raised or an identity the package
    itself reports as failed.  The digit lists hold (n, digits) pairs.
    """

    def __init__(self):
        self.wrong = []
        self.vplus = []
        self.route = []
        self.identity = []

    def stokes(self, case, data):
        problem, dist = oracle.check_stokes(data.v_plus.tolist(), case.n, case.fixed)
        self.vplus.append((case.n, digits(dist)))
        if problem:
            self.wrong.append("P{} at eta {:.4f}: {}".format(
                case.n, case.eta.lifted_angle, problem))
        return problem is None

    def report(self, case, entries):
        passed = [e for e in entries if e["passed"]]
        if passed:
            self.identity.append((case.n, min(digits(e["residual"]) for e in passed)))
        return len(passed) == len(entries)

    def reflection_free_report(self, case, data):
        """Grade the identities of V+, V- and C alone, which need no h_m."""
        bare = stokes.MonodromyData(data.v_plus, data.v_minus, data.c_matrix,
                                    data.eta, data.order)
        self.report(case, stokes.consistency_report(bare, _model(case), half_twist=False))

    def routes(self, case, reflected, analytic):
        try:
            residual = stokes.compare_monodromy_data(reflected, analytic)["max"]
        except ValueError as exc:
            self.wrong.append("P{} routes disagree: {}".format(case.n, exc))
            residual = 1.0
        self.route.append((case.n, digits(residual)))

    def walls(self, case, data, matrices):
        """Wall matrices against the integer Gram matrix behind data.

        Entry (k, l) is q^{-1} h_m(beta_k, beta_l): the Gram entry above
        the diagonal and q^{-2} times the transposed entry below it.
        """
        gram, _ = oracle.round_matrix(np.linalg.inv(data.v_plus).tolist())
        q2 = cmath.exp(-2j * math.pi * case.m)
        worst = 0.0
        for w in matrices:
            for k in range(len(w)):
                for l in range(len(w)):
                    if k == l:
                        want = 1.0
                    elif abs(w[k][l]) <= oracle.ROUND_TOL:
                        continue
                    else:
                        want = gram[k][l] if k < l else gram[l][k] * q2
                    worst = max(worst, abs(w[k][l] - want))
        if worst > oracle.ROUND_TOL:
            self.wrong.append("P{} wall matrix off by {:.3g}".format(case.n, worst))
            return False
        return True


def degree_mean(pairs):
    """Mean digits per degree, averaged over the degrees.

    A minimum over cases follows whichever eta the seed draws, and so
    does the mean of P4's few successful cases; weighing each degree
    once keeps every degree in the figure without letting one decide.
    """
    by_degree = {}
    for n, value in pairs:
        by_degree.setdefault(n, []).append(value)
    return statistics.fmean(statistics.fmean(v) for v in by_degree.values())


# -- set-up -------------------------------------------------------------------


class Reference:
    """Data a workload's set-up makes for the case list.

    reflected maps the cases of the given degrees to reflection data
    (None where the route raised); analytic maps P1/P2 chambers to
    integrated data.
    """

    def __init__(self, cases, reflect_degrees, analytic):
        self.reflected = {}
        self.analytic = {}
        for case in cases:
            if case.n in reflect_degrees:
                self.reflected[case] = timed(reflect_op, case)[0]
        if analytic:
            for case in cases:
                if case.n <= 2 and case.chamber not in self.analytic:
                    self.analytic[case.chamber] = timed(integrate_op, case)[0]


def set_up(seed, workload_cls, min_seconds=0.0, max_reps=1):
    """Make the case list and the workload's reference data.

    Repeats, from fresh models each time, until min_seconds have been
    spent or max_reps repetitions made.  Returns the cases, the last
    Reference and the seconds of every repetition.
    """
    times = []
    while not times or (len(times) < max_reps and sum(times) < min_seconds):
        start = time.perf_counter()
        cases = make_cases(seed)
        ref = Reference(cases, *workload_cls.needs)
        times.append(time.perf_counter() - start)
    return cases, ref, times


# -- workloads ----------------------------------------------------------------


class Workload:
    """Operations of one pass, and the checks of their results."""

    name = None
    needs = ((), False)  # (degrees with reflection data, analytic data)
    passes = 1  # fewest passes a run makes

    def __init__(self, cases, ref):
        self.cases = cases
        self.ref = ref

    def ops(self):
        """(case, callable or None) pairs of one pass; None cannot run."""
        raise NotImplementedError

    def check(self, case, result, checks):
        """True when the result passes; records digits into checks."""
        raise NotImplementedError


class Reflect(Workload):
    """The paper's construction; route_digits against set-up integration."""

    name = "reflect"
    needs = ((), True)
    # more passes let each case keep its best time when the machine
    # stalls; verify's operations are too long to afford them
    passes = 2

    def ops(self):
        return [(case, (lambda c=case: reflect_op(c))) for case in self.cases]

    def check(self, case, data, checks):
        ok = checks.stokes(case, data)
        checks.reflection_free_report(case, data)
        analytic = self.ref.analytic.get(case.chamber)
        if analytic is not None:
            checks.routes(case, data, analytic)
        return ok


class Integrate(Workload):
    """The z-plane route on the P1 and P2 chambers of the case list."""

    name = "integrate"
    needs = ((1, 2), False)
    passes = 3

    def ops(self):
        chambers = {}
        for case in self.cases:
            if case.n <= 2:
                chambers.setdefault(case.chamber, case)
        return [(case, (lambda c=case: integrate_op(c))) for case in chambers.values()]

    def check(self, case, data, checks):
        ok = checks.stokes(case, data)
        checks.reflection_free_report(case, data)
        for other, reflected in self.ref.reflected.items():
            if other.chamber == case.chamber and reflected is not None:
                checks.routes(case, reflected, data)
        return ok


class Verify(Workload):
    """Identities and wall crossing on the set-up's reflection data."""

    name = "verify"
    needs = (DEGREES, True)

    def ops(self):
        out = []
        for case in self.cases:
            data = self.ref.reflected[case]
            op = None if data is None else (lambda c=case, d=data: verify_op(c, d))
            out.append((case, op))
        return out

    def check(self, case, result, checks):
        report, matrices = result
        data = self.ref.reflected[case]
        ok = checks.stokes(case, data)
        ok = checks.report(case, report) and ok
        ok = checks.walls(case, data, matrices) and ok
        analytic = self.ref.analytic.get(case.chamber)
        if analytic is not None:
            checks.routes(case, data, analytic)
        return ok


WORKLOADS = {cls.name: cls for cls in (Reflect, Integrate, Verify)}


# -- the loop -----------------------------------------------------------------


class Record:
    """Operations of a run: counts, seconds per case, first-pass results."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds = {}
        self.first = {}

    def run_pass(self, workload, tracer=None):
        """Run one pass; returns the seconds spent inside operations."""
        total = 0.0
        for index, (case, op) in enumerate(workload.ops()):
            if tracer is not None:
                tracer.op = index
            self.attempted += 1
            result, sec = (None, 0.0) if op is None else timed(op)
            total += sec
            self.first.setdefault(case, result)
            if result is None:
                self.failed += 1
            else:
                self.seconds.setdefault(case, []).append(sec)
        return total


def score(workload, record):
    """Check one pass of results; returns (ok share, Checks)."""
    checks = Checks()
    ok = sum(1 for case, result in record.first.items()
             if result is not None and workload.check(case, result, checks))
    return ok / len(record.first), checks


def data_seconds(workload, record):
    """Median seconds per successful operation on each P^n, and a pass.

    Each case takes its best time over the passes and each degree the
    median over its cases: on a shared machine a stall can make one
    operation take several times its due.  An operation succeeds when it
    returns, whether or not its data then passes the check (ok_share
    counts that).  The pass figure charges every operation the median of
    its degree, so it does not depend on which draws happen to fail.
    """
    per_degree = {}
    for case, secs in record.seconds.items():
        per_degree.setdefault(case.n, []).append(min(secs))
    per_degree = {n: statistics.median(v) for n, v in per_degree.items()}
    try:
        wall = sum(per_degree[case.n] for case, _op in workload.ops())
    except KeyError as exc:
        raise RuntimeError("no operation on P{} returned data".format(exc.args[0])) from None
    return per_degree, wall


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- domain sweep -------------------------------------------------------------

SWEEP_Q = cmath.exp(0.2j)
SWEEP_ETA = paths.Direction.reference().rotated(0.3)


def domain_sweep(workdir):
    """Count the cases of route x P1..P8 x {built-in, JSON round trip}
    that return checked data, at the P2 test chamber's q and eta."""
    good = 0
    for n in range(1, 9):
        built = frobenius.qh_projective_space(n, SWEEP_Q)
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            path = os.path.join(tmp, "P{}.json".format(n))
            frobenius.save_model(built, path)
            loaded = frobenius.load_model(path)
        for model in (built, loaded):
            t = model.base_point
            for data, _sec in (
                timed(stokes.monodromy_data_from_reflections, model, t, SWEEP_ETA, 0.0),
                timed(stokes.monodromy_data_analytic, model, t, SWEEP_ETA),
            ):
                if data is not None:
                    good += oracle.check_stokes(data.v_plus.tolist(), n, n == 2)[0] is None
    return good


def source_digest(root):
    """Hash of the package and benchmark sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    full = os.path.join(dirpath, name)
                    h.update(os.path.relpath(full, root).encode())
                    with open(full, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def domain_ok(root, workdir):
    """The sweep is deterministic for a source tree, so it runs once per
    checkout and is cached under the digest of the sources."""
    cache = os.path.join(workdir, "domain-{}.json".format(source_digest(root)))
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as fh:
            return json.load(fh)["domain_ok"]
    value = domain_sweep(workdir)
    tmp = cache + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"domain_ok": value}, fh)
    os.replace(tmp, cache)
    return value


# -- runs ---------------------------------------------------------------------


def end_to_end(name, seed, seconds, root, workdir):
    """Whole passes, at least workload.passes, until seconds have elapsed.

    Tracing is off.  A short set-up runs several times, so that setup_s is a median; one
    that takes SETUP_SECONDS or more is already steady and runs once.
    """
    workload_cls = WORKLOADS[name]
    cases, ref, setup_times = set_up(seed, workload_cls, SETUP_SECONDS, SETUP_REPS)
    workload = workload_cls(cases, ref)
    record = Record()
    start = time.perf_counter()
    passes = 0
    while passes < workload.passes or time.perf_counter() - start < seconds:
        record.run_pass(workload)
        passes += 1
    ok_share, checks = score(workload, record)
    per_degree, wall = data_seconds(workload, record)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
    }
    for n in (1, 2):
        metrics["data_s.P{}".format(n)] = (per_degree[n], "s")
    metrics.update({
        "ok_share": (ok_share, "share"),
        "vplus_digits": (degree_mean(checks.vplus), "digits"),
        "route_digits": (degree_mean(checks.route), "digits"),
        "identity_digits": (degree_mean(checks.identity), "digits"),
        "domain_ok": (domain_ok(root, workdir), "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    })
    return record, checks, metrics


def per_layer(name, seed, workdir):
    """A traced pass between two untraced ones; it gives the layers.

    The untraced passes on either side put warm-up on neither side of
    the overhead ratio.
    """
    workload_cls = WORKLOADS[name]
    cases, ref, _ = set_up(seed, workload_cls)
    workload = workload_cls(cases, ref)
    record = Record()
    plain = record.run_pass(workload)
    tracer = spans.Tracer()
    with tracer:
        traced = record.run_pass(workload, tracer)
    plain = 0.5 * (plain + record.run_pass(workload))
    tracer.write(os.path.join(workdir, "spans-{}.jsonl".format(name)))
    _ok_share, checks = score(workload, record)
    metrics = {}
    table = spans.self_times(tracer.spans)
    for span_name in spans.SPAN_NAMES:
        calls, self_s = table.get(span_name, (0, 0.0))
        metrics[span_name + ".calls"] = (calls, "count")
        metrics[span_name + ".self_s"] = (self_s, "s")
    counts = {
        "numerics.continue_linear_ode.rhs_evals": tracer.counts["rhs_evals"],
        "numerics.continue_linear_ode.segments": tracer.counts["segments"],
        "periods.base_frame.distinct": len(tracer.frame_keys),
        "periods.reflection_vector.failed": tracer.counts["reflection_failed"],
        "frobenius.calibration_series.terms": tracer.counts["calibration_terms"],
        "trace.spans": len(tracer.spans),
    }
    for key, value in counts.items():
        metrics[key] = (value, "count")
    metrics["trace.overhead_share"] = (traced / plain - 1.0, "share")
    # spans cover the operations when their self times add up to the pass
    self_total = sum(self_s for _calls, self_s in table.values())
    metrics["trace.self_share"] = (self_total / traced, "share")
    return record, checks, metrics
