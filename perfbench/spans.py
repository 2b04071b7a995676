"""Span tracing of qstokes from outside the package.

The tracer replaces public functions by timing wrappers at every module
that binds them: ``from .numerics import continue_linear_ode`` copies
the function into periods and stokes, so patching numerics alone would
miss those callers.  Spans (name, start, end, parent, operation id) stay
in memory until the run ends.  Self time is a span's duration minus the
durations of its direct children, which keeps recursive calls such as
rgamma -> rgamma from being counted twice.
"""

import json
import sys
import time

# (module, function) pairs whose calls become spans; the layer names of
# the per-layer metrics are the module names.
TRACED = (
    ("numerics", "rgamma"),
    ("numerics", "calibrated_period"),
    ("numerics", "continue_linear_ode"),
    ("frobenius", "canonical_data"),
    ("frobenius", "calibration_series"),
    ("frobenius", "rmatrix_series"),
    ("paths", "reference_system"),
    ("paths", "critical_directions"),
    ("periods", "base_frame"),
    ("periods", "continue_frame"),
    ("periods", "loop_monodromy"),
    ("periods", "reflection_vector"),
    ("periods", "hm_matrix"),
    ("periods", "dual_reflection_basis"),
    ("stokes", "monodromy_data_from_reflections"),
    ("stokes", "monodromy_data_analytic"),
    ("stokes", "consistency_report"),
    ("stokes", "wallcrossing_matrices"),
)

SPAN_NAMES = tuple("{}.{}".format(mod, fn) for mod, fn in TRACED)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans of the TRACED functions while installed.

    spans holds (op, span id, parent id or -1, name, start, end) tuples,
    where op is the index of the operation in its pass, set by the caller;
    counts holds the extra per-layer counters: rhs evaluations and path
    segments of continue_linear_ode, distinct base_frame keys, failed
    reflection_vector calls and calibration_series terms.
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self.counts = {"rhs_evals": 0, "segments": 0, "reflection_failed": 0,
                       "calibration_terms": 0}
        self.frame_keys = set()
        self._stack = []
        self._patched = []

    def _wrap(self, name, func):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts

        if name == "numerics.continue_linear_ode":
            def prepare(args, kwargs):
                rhs = _arg(args, kwargs, 0, "rhs")
                counts["segments"] += max(0, len(_arg(args, kwargs, 2, "path")) - 1)

                def counted(lam):
                    counts["rhs_evals"] += 1
                    return rhs(lam)

                if args:
                    return (counted,) + tuple(args[1:]), kwargs
                return args, dict(kwargs, rhs=counted)
        elif name == "periods.base_frame":
            def prepare(args, kwargs):
                # operations build their own models, so the key is per op
                self.frame_keys.add((self.op, id(_arg(args, kwargs, 0, "model")),
                                     complex(_arg(args, kwargs, 1, "m")),
                                     float(_arg(args, kwargs, 2, "lambda0"))))
                return args, kwargs
        else:
            prepare = None

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            span = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except Exception:
                if name == "periods.reflection_vector":
                    counts["reflection_failed"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span] = (self.op, span, parent, name, start, end)
            if name == "frobenius.calibration_series":
                counts["calibration_terms"] += len(result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        return wrapper

    def install(self):
        """Patch every binding of the traced functions in the package."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "qstokes" or key.startswith("qstokes.")]
        for mod_name, fn_name in TRACED:
            home = sys.modules["qstokes." + mod_name]
            func = getattr(home, fn_name)
            wrapper = self._wrap("{}.{}".format(mod_name, fn_name), func)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, func))

    def uninstall(self):
        for mod, attr, func in reversed(self._patched):
            setattr(mod, attr, func)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        """Write the spans as JSON lines: op, id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def self_times(spans):
    """Per-name call count and self seconds of a finished span list.

    A span's self time is its duration minus the durations of its direct
    children; children of one parent never overlap, since the program
    runs on one thread.
    """
    child = [0.0] * len(spans)
    for _op, _sid, parent, _name, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for _op, sid, _parent, name, start, end in spans:
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child[sid])
    return out
